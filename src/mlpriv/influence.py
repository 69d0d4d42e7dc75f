"""Training-data influence: checkpoint-based scores, influence uniformity,
leave-one-out retraining, and the interpretability-margin estimate.

The checkpoint-based influence of example z on z' is the sum over stored
checkpoints of the learning-rate-weighted dot product of loss gradients.
Influence uniformity maps each anchor's score vector through a softmax and
averages the base-|L| entropies, so perfectly uniform influence scores give
exactly 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ShapeMismatchError, TooFewLanguagesError, UndefinedMarginError
from .trainer import (
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    grad,
    train_many,
    _forward_batch,
)

Example = tuple[np.ndarray, int]


@dataclass(frozen=True)
class CheckpointSet:
    checkpoints: tuple[Checkpoint, ...]

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


def tracin_cp(z: Example, z_prime: Example, cks: CheckpointSet, spec: ModelSpec) -> float:
    """Sum over checkpoints of eta_i * grad(theta_i, z) . grad(theta_i, z')."""
    total = 0.0
    for ckpt in cks.checkpoints:
        g = grad(spec, ckpt.theta, z)
        g_prime = grad(spec, ckpt.theta, z_prime)
        total += ckpt.eta * float(g @ g_prime)
    return total


def self_influence(z: Example, cks: CheckpointSet, spec: ModelSpec) -> float:
    return tracin_cp(z, z, cks, spec)


def influence_vector(
    anchor: int, tuple_examples: list[Example], cks: CheckpointSet, spec: ModelSpec
) -> np.ndarray:
    """Influence of tuple member `anchor` on every member, self included."""
    if len(tuple_examples) < 2:
        raise TooFewLanguagesError("a translation tuple needs >= 2 members")
    z = tuple_examples[anchor]
    return np.array([tracin_cp(z, z_j, cks, spec) for z_j in tuple_examples])


def _entropy_base(p: np.ndarray, base: int) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum() / math.log(base))


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
    return float(np.mean([_entropy_base(softmax(row), L) for row in scores]))


def influence_profile(
    tuple_index: int,
    tuple_examples: list[Example],
    cks: CheckpointSet,
    spec: ModelSpec,
) -> InfluenceProfile:
    L = len(tuple_examples)
    if L < 2:
        raise TooFewLanguagesError("a translation tuple needs >= 2 members")
    # per-checkpoint gradients computed once per member, then pairwise dots
    scores = np.zeros((L, L))
    for ckpt in cks.checkpoints:
        G = np.vstack([grad(spec, ckpt.theta, z) for z in tuple_examples])
        scores += ckpt.eta * (G @ G.T)
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
