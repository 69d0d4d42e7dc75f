"""Seeded generators for multi-parallel synthetic data.

Each translation tuple shares a latent vector; a compression level lambda
in [0, 1] interpolates between fully language-specific embeddings
(random rotation + offset + noise per language) and bit-identical matrices
across languages. Labels depend only on the shared latent, so they are
language-invariant by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .repr_store import EmbeddingSet
from .trainer import LabeledDataset, _is_seed


@dataclass(frozen=True)
class SynthSpec:
    num_languages: int
    tuples: int
    dim: int
    classes: int = 2
    compression: float = 1.0  # lambda in [0, 1]
    noise_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.compression <= 1.0:
            raise DomainError(f"compression must be in [0, 1], got {self.compression}")
        if self.num_languages < 2 or self.tuples < 2:
            raise DomainError("need >= 2 languages and >= 2 tuples")
        if self.dim < 2 or self.classes < 2:
            raise DomainError("need dim >= 2 and classes >= 2")
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise DomainError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if not _is_seed(self.seed):
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")


def language_tags(n: int) -> list[str]:
    return [f"L{k:02d}" for k in range(n)]


def _random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _language_map(rng: np.random.Generator, d: int) -> np.ndarray:
    # rotation times a mild diagonal scale, condition number <= 2
    scales = rng.uniform(0.7, 1.4, size=d)
    return _random_rotation(rng, d) @ np.diag(scales)


def gen_parallel_set(spec: SynthSpec) -> tuple[EmbeddingSet, np.ndarray]:
    """Aligned per-language embedding matrices plus language-invariant labels.

    compression = 1 makes every language matrix bit-identical to the shared
    latents; compression = 0 gives each language its own random linear view
    plus offset and Gaussian noise.
    """
    rng = np.random.default_rng(spec.seed)
    lam = spec.compression
    m, d, L = spec.tuples, spec.dim, spec.num_languages

    latents = rng.standard_normal((m, d))

    # labels: the latent's projection binned at its class quantiles, near-equal
    # counts; an edge that rounds onto a data point can leave a class empty
    w = rng.standard_normal(d)
    projection = latents @ w
    edges = np.quantile(projection, np.linspace(0, 1, spec.classes + 1)[1:-1])
    labels = np.searchsorted(edges, projection, side="right").astype(np.int64)

    matrices = []
    for _ in range(L):
        A = _language_map(rng, d)
        b = rng.standard_normal(d)
        noise = spec.noise_scale * rng.standard_normal((m, d))
        if lam == 1.0:
            matrices.append(latents.copy())
        else:
            matrices.append(lam * latents + (1.0 - lam) * (latents @ A.T + b + noise))
    embedding_set = EmbeddingSet(
        languages=tuple(language_tags(L)), matrices=tuple(matrices), layer=0
    )
    return embedding_set, labels


def gen_classification_data(spec: SynthSpec) -> LabeledDataset:
    """Flatten a parallel set into N = m * |L| labeled examples.

    Example ordering is tuple-major: index i * |L| + q is tuple i in
    language q, so tuples are contiguous blocks.
    """
    embedding_set, labels = gen_parallel_set(spec)
    m, L = spec.tuples, spec.num_languages
    features = np.stack(embedding_set.matrices, axis=1).reshape(m * L, spec.dim)
    return LabeledDataset(
        features=features, labels=np.repeat(labels, L), languages=embedding_set.languages * m
    )


def plant_outlier(
    dataset: LabeledDataset, magnitude: float, seed: int, orthogonal: bool = True
) -> tuple[LabeledDataset, int]:
    """Replace one example with a far-out-of-distribution, relabeled point.

    Returns the modified dataset and the planted index. magnitude = 0 keeps
    the chosen example's features and label untouched. With orthogonal=True
    the outlier direction is projected out of the class-mean subspace, so
    its flipped label does not fight the bulk class structure and a
    non-private run can memorize it; fewer classes must be present than
    there are dimensions, else DomainError.
    """
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise DomainError(f"magnitude must be finite and >= 0, got {magnitude}")
    rng = np.random.default_rng(seed)
    index = int(rng.integers(len(dataset)))
    features = dataset.features.copy()
    labels = dataset.labels.copy()
    if magnitude > 0:
        num_classes = int(labels.max()) + 1
        direction = rng.standard_normal(features.shape[1])
        if orthogonal:
            # the means of the classes present: a class with no example has none
            present = np.unique(labels)
            if len(present) >= features.shape[1]:
                raise DomainError(f"orthogonal=True needs fewer present classes than dimensions, "
                                  f"got {len(present)} classes in dim {features.shape[1]}")
            means = np.vstack([features[labels == c].mean(axis=0) for c in present])
            q, _ = np.linalg.qr(means.T)
            direction -= q @ (q.T @ direction)
        direction /= np.linalg.norm(direction)
        features[index] = magnitude * direction
        labels[index] = (labels[index] + 1) % num_classes  # flipped-region label
    return (
        LabeledDataset(features=features, labels=labels, languages=dataset.languages),
        index,
    )
