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

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    NonFiniteError,
    ShapeMismatchError,
    TooFewLanguagesError,
    UndefinedMarginError,
)
from .trainer import (
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    train_many,
    _backward,
    _forward_batch,
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
            raise ValueError("need at least one checkpoint")
        steps = [c.step for c in cks]
        if steps != sorted(set(steps)):
            raise ValueError("checkpoint steps must be strictly increasing")
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
            raise ValueError(f"need k >= 1 checkpoints, got {k}")
        return cls(tuple(checkpoints[-k:]))


@dataclass(frozen=True)
class InfluenceProfile:
    """Scores[k, j] = influence of tuple member k on member j, plus InfU."""

    tuple_index: int
    scores: np.ndarray  # (|L|, |L|)
    infu: float


def _tracin_gram(X: np.ndarray, y: np.ndarray, cks: CheckpointSet, spec: ModelSpec) -> np.ndarray:
    """TracInCP scores of every pair of examples (X, y): an (n, n) matrix.

    Entry (i, j) is the sum over checkpoints k of eta_k * g_ik . g_jk, with
    g_ik the loss gradient of example i at checkpoint k. One ``_backward``
    over the stacked checkpoints gives each dense layer's (d, a) pair, and
    the layer adds (d_i . d_j)(a_i . a_j + 1) at every checkpoint.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ShapeMismatchError(f"inputs have {X.shape}, expected (n, {spec.input_dim})")
    if y.shape != X.shape[:1] or y.dtype.kind not in "iu":
        raise ShapeMismatchError(
            f"labels must be {X.shape[0]} integer class indices, got {y.dtype} {y.shape}"
        )
    if y.size and not (0 <= y.min() and y.max() < spec.num_classes):
        raise ShapeMismatchError(
            f"labels span [{y.min()}, {y.max()}], outside [0, {spec.num_classes})"
        )

    def gram(V: np.ndarray) -> np.ndarray:
        """Gram matrix of rows V: (n, n) for an input shared by every
        checkpoint (n, m), (K, n, n) for per-checkpoint rows (n, K, m)."""
        V = V.swapaxes(0, -2)
        return V @ V.swapaxes(-1, -2)

    _, layers = _backward(spec, cks.thetas, X, y)
    return sum(np.einsum("k,kij->ij", cks.etas, gram(d) * (gram(a) + 1.0)) for d, a in layers)


def _stack(examples: list[Example], spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Examples (x, y) as an input matrix (n, input_dim) and a label vector (n,)."""
    xs = [np.asarray(x, dtype=np.float64) for x, _ in examples]
    bad = [x.shape for x in xs if x.shape != (spec.input_dim,)]
    if bad:
        raise ShapeMismatchError(f"x has {bad[0]}, expected ({spec.input_dim},)")
    return np.stack(xs), np.array([y for _, y in examples])


def tracin_cp(z: Example, z_prime: Example, cks: CheckpointSet, spec: ModelSpec) -> float:
    """Sum over checkpoints of eta_i * grad(theta_i, z) . grad(theta_i, z')."""
    return float(_tracin_gram(*_stack([z, z_prime], spec), cks, spec)[0, 1])


def self_influence(z: Example, cks: CheckpointSet, spec: ModelSpec) -> float:
    """tracin_cp(z, z, ...): the checkpoint-weighted squared gradient norm of z."""
    return tracin_cp(z, z, cks, spec)


def influence_vector(
    anchor: int, tuple_examples: list[Example], cks: CheckpointSet, spec: ModelSpec
) -> np.ndarray:
    """Influence of tuple member `anchor` on every member, self included."""
    if len(tuple_examples) < 2:
        raise TooFewLanguagesError("a translation tuple needs >= 2 members")
    return _tracin_gram(*_stack(tuple_examples, spec), cks, spec)[anchor]


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def infu_from_scores(scores: np.ndarray) -> float:
    """Influence uniformity of a (|L|, |L|) anchor-by-target score matrix."""
    scores = np.asarray(scores, dtype=np.float64)
    L = scores.shape[0]
    if scores.ndim != 2 or scores.shape != (L, L) or L < 2:
        raise TooFewLanguagesError(f"need a square |L| x |L| matrix with |L| >= 2, got {scores.shape}")
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    p = exp / exp.sum(axis=1, keepdims=True)
    plogp = p * np.log(np.where(p > 0, p, 1.0))  # 0 log 0 = 0
    return float(np.mean(-plogp.sum(axis=1) / math.log(L)))


def influence_profile(
    tuple_index: int,
    tuple_examples: list[Example],
    cks: CheckpointSet,
    spec: ModelSpec,
) -> InfluenceProfile:
    L = len(tuple_examples)
    if L < 2:
        raise TooFewLanguagesError("a translation tuple needs >= 2 members")
    scores = _tracin_gram(*_stack(tuple_examples, spec), cks, spec)
    return InfluenceProfile(
        tuple_index=tuple_index, scores=scores, infu=infu_from_scores(scores)
    )


def infu(tuple_examples: list[Example], cks: CheckpointSet, spec: ModelSpec) -> float:
    """Mean base-|L| entropy of softmaxed per-anchor influence scores, in [0, 1]."""
    return influence_profile(0, tuple_examples, cks, spec).infu


def event_probability(
    theta: np.ndarray, spec: ModelSpec, eval_point: np.ndarray, event_class: int
) -> float:
    probs, _ = _forward_batch(spec, theta, np.asarray(eval_point, dtype=np.float64)[None, :])
    return float(probs[0, event_class])


def loo_probabilities(
    dataset: LabeledDataset,
    spec: ModelSpec,
    config: TrainConfig,
    exclusions: list[int | None],
    eval_point: np.ndarray,
    event_class: int,
    noise_seeds: list[int] | None = None,
) -> np.ndarray:
    """P(event at eval_point) after coupled retraining without each example.

    Entry k trains with exclusions[k] left out (None keeps every example),
    averaged over noise_seeds when given. Every retrain shares config's
    batch stream, so the removed example is the only varying factor between
    entries; all of them run as one batched ``train_many`` call.
    """
    seeds = list(noise_seeds) if noise_seeds else [None]
    runs = train_many(dataset, spec, config, [(e, ns) for e in exclusions for ns in seeds])
    probs = np.array([event_probability(run.theta, spec, eval_point, event_class) for run in runs])
    return probs.reshape(len(exclusions), len(seeds)).mean(axis=1)


def loo_influence(
    dataset: LabeledDataset,
    x_index: int,
    spec: ModelSpec,
    config: TrainConfig,
    eval_point: np.ndarray,
    event_class: int,
    noise_seeds: list[int] | None = None,
) -> float:
    """Leave-one-out retraining influence of example x_index.

    Returns P(event | trained on D) - P(event | trained on D without x),
    with both runs using the identical seed and schedule. The retrain is
    coupled: batches are drawn exactly as in the full run and x is dropped
    from any batch containing it, so the removed example is the only varying
    factor. With sigma > 0, pass noise_seeds to average each probability
    over repeated noise draws.
    """
    if len(dataset) < 2:
        raise ValueError("dataset must have >= 2 examples")
    if not 0 <= x_index < len(dataset):
        raise IndexError(f"x_index {x_index} out of range")
    p, p_without = loo_probabilities(
        dataset, spec, config, [None, x_index], eval_point, event_class, noise_seeds
    )
    return float(p - p_without)


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


def write_influence_csv(path: Path | str, profiles: list[InfluenceProfile], languages: list[str]) -> None:
    """Influence CSV: per-(anchor, target) score rows plus an InfU row per tuple."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tuple_index", "anchor_lang", "target_lang", "score"])
        for prof in profiles:
            for k, anchor in enumerate(languages):
                for j, target in enumerate(languages):
                    writer.writerow([prof.tuple_index, anchor, target, format(prof.scores[k, j], ".17g")])
            writer.writerow([prof.tuple_index, "ALL", "ALL", format(prof.infu, ".17g")])
