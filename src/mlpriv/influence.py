"""Training-data influence: checkpoint-based scores, influence uniformity,
leave-one-out retraining, and the interpretability-margin estimate.

The checkpoint-based influence of example z on z' is the sum over stored
checkpoints of the learning-rate-weighted dot product of loss gradients
(TracInCP, Pruthi et al. 2020). Every score comes from one Gram kernel that
never forms a gradient: a dense layer's per-example gradient is
outer(delta, [a; 1]), so two examples' gradients have the dot product
(delta_i . delta_j)(a_i . a_j + 1) (Goodfellow 2015, arXiv 1510.01799).
Influence uniformity maps each anchor's score vector through a softmax and
averages the base-|L| entropies, so perfectly uniform influence scores give
exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CheckpointOrderError,
    NonFiniteError,
    ShapeMismatchError,
    TooFewLanguagesError,
    TupleLayoutError,
    UndefinedMarginError,
)
from .trainer import (
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    Variant,
    train_many,
    _backward,
    _check_labels,
    _forward_one,
    _softmax,
    _unpack,
)

Example = tuple[np.ndarray, int]


@dataclass(frozen=True)
class CheckpointSet:
    """Checkpoints for TracInCP, with their parameters stacked once as
    ``thetas`` (K, P) and learning rates as ``etas`` (K,), both read-only."""

    checkpoints: tuple[Checkpoint, ...]
    thetas: np.ndarray = field(init=False, repr=False, compare=False)
    etas: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cks = tuple(self.checkpoints)
        if not cks:
            raise CheckpointOrderError("need at least one checkpoint")
        steps = [c.step for c in cks]
        if steps != sorted(set(steps)):
            raise CheckpointOrderError("checkpoint steps must be strictly increasing")
        dim = cks[0].theta.shape
        if any(c.theta.shape != dim for c in cks):
            raise ShapeMismatchError("checkpoints disagree on parameter dimension")
        object.__setattr__(self, "checkpoints", cks)
        thetas = np.stack([np.asarray(c.theta, dtype=np.float64) for c in cks])
        etas = np.array([c.eta for c in cks], dtype=np.float64)
        finite = np.isfinite(thetas).all(axis=1) & np.isfinite(etas)
        if not finite.all():
            raise NonFiniteError(
                f"checkpoint at step {cks[int(np.argmin(finite))].step} has a non-finite "
                "parameter or learning rate"
            )
        thetas.flags.writeable = False
        etas.flags.writeable = False
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "etas", etas)

    @classmethod
    def last_k(cls, checkpoints: list[Checkpoint], k: int = 3) -> "CheckpointSet":
        if k < 1:
            raise CheckpointOrderError(f"need k >= 1 checkpoints, got {k}")
        return cls(tuple(checkpoints[-k:]))


@dataclass(frozen=True)
class InfluenceProfile:
    """Scores[k, j] = influence of tuple member k on member j, plus InfU."""

    tuple_index: int
    scores: np.ndarray  # (|L|, |L|)
    infu: float


def _tracin_gram(X: np.ndarray, y: np.ndarray, cks: CheckpointSet, spec: ModelSpec) -> np.ndarray:
    """TracInCP scores of every pair of examples within each group: inputs
    X (G, L, input_dim) and labels y (G, L) give a (G, L, L) array.

    Entry (g, i, j) is the sum over checkpoints k of eta_k * g_gik . g_gjk,
    with g_gik the loss gradient of example i of group g at checkpoint k.
    One ``_backward`` over all G * L examples and the stacked checkpoints
    gives each dense layer's (d, a) pair, and the layer adds
    (d_i . d_j)(a_i . a_j + 1) at every checkpoint. One (n, n) Gram is the
    case G = 1; self-influences are the case L = 1.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != spec.input_dim:
        raise ShapeMismatchError(f"inputs have {X.shape}, expected (G, L, {spec.input_dim})")
    y = _check_labels(y, spec, X.shape[:2])
    G, L = y.shape

    def gram(V: np.ndarray) -> np.ndarray:
        """Per-group Gram matrices of the examples' columns V: (G, 1, L, L)
        for an input shared by every checkpoint (m, G * L), (G, K, L, L) for
        per-checkpoint columns (m, K, G * L)."""
        V = V.reshape(len(V), -1, G, L).transpose(2, 1, 3, 0)
        return V @ V.swapaxes(-1, -2)

    XT = X.reshape(G * L, -1).T
    Y = np.eye(spec.num_classes)[:, y.reshape(-1)]
    _, layers = _backward(spec, _unpack(spec, cks.thetas), XT, Y)
    return sum(np.einsum("k,gkij->gij", cks.etas, gram(d) * (gram(a) + 1.0)) for d, a in layers)


def _stack(examples: list[Example], spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Examples (x, y) as one group, once checked: inputs (1, n, input_dim), labels (1, n)."""
    xs = [np.asarray(x, dtype=np.float64) for x, _ in examples]
    bad = [x.shape for x in xs if x.shape != (spec.input_dim,)]
    if bad:
        raise ShapeMismatchError(f"x has {bad[0]}, expected ({spec.input_dim},)")
    return np.stack(xs)[None], _check_labels([[y for _, y in examples]], spec, (1, len(xs)))


def infu_from_scores(scores: np.ndarray) -> float:
    """Influence uniformity of a (|L|, |L|) anchor-by-target score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    L = scores.shape[0]
    if scores.ndim != 2 or scores.shape != (L, L) or L < 2:
        raise TooFewLanguagesError(f"need a square |L| x |L| matrix with |L| >= 2, got {scores.shape}")
    p = _softmax(scores.T).T  # each anchor row's softmax
    plogp = p * np.log(np.where(p > 0, p, 1.0))  # 0 log 0 = 0
    return float(np.mean(-plogp.sum(axis=1) / math.log(L)))


def influence_profile(
    tuple_index: int,
    tuple_examples: list[Example],
    cks: CheckpointSet,
    spec: ModelSpec,
) -> InfluenceProfile:
    """Profile of one translation tuple given as its |L| examples."""
    if len(tuple_examples) < 2:
        raise TooFewLanguagesError("a translation tuple needs >= 2 members")
    scores = _tracin_gram(*_stack(tuple_examples, spec), cks, spec)[0]
    return InfluenceProfile(
        tuple_index=tuple_index, scores=scores, infu=infu_from_scores(scores)
    )


def tuple_grams(dataset: LabeledDataset, cks: CheckpointSet, spec: ModelSpec) -> np.ndarray:
    """TracInCP scores within every translation tuple of a tuple-major
    dataset, (tuples, |L|, |L|), from one kernel call: entry (i, k, j) is
    the influence of tuple i's member k on its member j.

    The languages are the dataset's tags in first-seen order, and example
    i * |L| + q must be tuple i in language q, as ``gen_classification_data``
    lays them out; fewer than two languages raise TooFewLanguagesError and
    any other layout raises TupleLayoutError.
    """
    G, L = _tuple_shape(dataset)
    return _tracin_gram(dataset.features.reshape(G, L, -1), dataset.labels.reshape(G, L), cks, spec)


def influence_profiles(dataset: LabeledDataset, cks: CheckpointSet,
                       spec: ModelSpec) -> list[InfluenceProfile]:
    """Profiles of every translation tuple of a tuple-major dataset: the
    tuples' ``tuple_grams`` and their InfU."""
    return [
        InfluenceProfile(tuple_index=i, scores=s, infu=infu_from_scores(s))
        for i, s in enumerate(tuple_grams(dataset, cks, spec))
    ]


def _tuple_shape(dataset: LabeledDataset) -> tuple[int, int]:
    """(tuples, languages) of a dataset in the tuple-major layout that
    ``tuple_grams`` describes; raises as it documents otherwise."""
    languages = list(dict.fromkeys(dataset.languages))
    L = len(languages)
    if L < 2:
        raise TooFewLanguagesError(f"translation tuples need >= 2 languages, got {languages}")
    G, rest = divmod(len(dataset), L)
    if rest:
        raise TupleLayoutError(f"{len(dataset)} examples do not split into tuples of {L} languages")
    misplaced = np.flatnonzero(np.array(dataset.languages).reshape(G, L) != np.array(languages))
    if misplaced.size:
        r = int(misplaced[0])
        raise TupleLayoutError(
            f"example {r} is in {dataset.languages[r]}, but tuple-major order puts "
            f"{languages[r % L]} there"
        )
    return G, L


def event_probability(
    theta: np.ndarray, spec: ModelSpec, eval_point: np.ndarray, event_class: int
) -> float:
    X, _ = _stack([(eval_point, event_class)], spec)
    return float(_forward_one(spec, theta, X[0, 0][:, None])[event_class, 0])


def loo_probabilities(
    dataset: LabeledDataset,
    spec: ModelSpec,
    config: TrainConfig,
    variants: list[Variant | tuple],
    eval_point: np.ndarray,
    event_class: int,
) -> np.ndarray:
    """P(event at eval_point) after coupled retraining, one entry per
    ``train_many`` variant (exclude_index, noise_seed, noise_multiplier):
    ``event_probability`` of that run's final parameters. All runs are one
    ``train_many`` call on config's batch stream, so the variant is the only
    varying factor between them."""
    X, _ = _stack([(eval_point, event_class)], spec)  # checked before any retrain
    runs = train_many(dataset, spec, config, variants, log_steps=False)
    x = X[0, 0][:, None]  # each run's readout is event_probability's
    return np.array([_forward_one(spec, run.theta, x)[event_class, 0] for run in runs])


def interpretability_margin(p: float, p_d: float, p_2: float) -> float:
    """Point estimate of the instance-interpretability margin exponent.

    With p the event probability on the full data, p_d after removing the
    most influential example, and p_2 after removing the runner-up, the
    margin is ln((p - p_d) / (p - p_2)), treating the defining strict
    inequality at equality.
    """
    if p <= p_2 or p <= p_d:
        raise UndefinedMarginError(
            f"need p > p_2 and p > p_d, got p={p}, p_d={p_d}, p_2={p_2}"
        )
    return math.log((p - p_d) / (p - p_2))
