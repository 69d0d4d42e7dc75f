"""Multilingual compression metrics and their language-pair aggregation.

Four metrics: bidirectional sentence-retrieval precision, linear CKA,
IsoScore, and RSA (rank correlation of representational dissimilarity
matrices), plus the per-language loss fairness gap.

Aggregation conventions: retrieval averages over all ordered language pairs
(q != r); CKA and RSA are symmetric and average over unordered pairs
(q < r); IsoScore is a single pooled value over the concatenation of all
languages' point clouds.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInputError,
    DegenerateInputWarning,
    DimensionTooSmallError,
    InternalConsistencyError,
    LengthMismatchError,
    NonFiniteLossError,
    ShapeMismatchError,
    TooFewLanguagesError,
    TooFewSentencesError,
    UnknownNameError,
    ZeroNormRowError,
)
from .repr_store import EmbeddingSet

METRIC_NAMES = ("retrieval", "cka", "rsa", "isoscore")  # what pairwise_report evaluates


@dataclass(frozen=True)
class MetricReport:
    """Per-language-pair metric values plus their aggregate mean."""

    metric: str
    layer: int
    per_pair: dict[tuple[str, str], float]
    aggregate: float


def _clamp_to_range(value: float, lo: float, hi: float, name: str) -> float:
    """Snap floating-point overshoot of up to 1e-9, accumulated rounding in
    large inputs, back into [lo, hi]; reject worse."""
    if lo - 1e-9 <= value <= hi + 1e-9:
        return min(max(value, lo), hi)
    raise InternalConsistencyError(f"{name} = {value} outside [{lo}, {hi}]")


def cosine_similarity_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """R[i, j] = cos(x_i, y_j) for row-aligned matrices of equal shape."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape != Y.shape or X.ndim != 2:
        raise ShapeMismatchError(f"shapes {X.shape} vs {Y.shape}")
    xn = np.linalg.norm(X, axis=1)
    yn = np.linalg.norm(Y, axis=1)
    for which, norms in (("X", xn), ("Y", yn)):
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroNormRowError(int(zero[0]), which)
    R = (X @ Y.T) / np.outer(xn, yn)
    return np.clip(R, -1.0, 1.0)


def retrieval_precision(X: np.ndarray, Y: np.ndarray) -> float:
    """Bidirectional nearest-neighbour retrieval precision in [0, 1].

    Counts row i as retrieved when its cosine-nearest row in the other
    language is i, in both directions; argmax ties go to the lowest index.
    """
    R = cosine_similarity_matrix(X, Y)
    m = R.shape[0]
    idx = np.arange(m)
    hits = np.count_nonzero(R.argmax(axis=1) == idx)
    hits += np.count_nonzero(R.argmax(axis=0) == idx)
    return hits / (2 * m)


def _power_of_two_scaled(M: np.ndarray) -> np.ndarray:
    """M scaled by the power of two that brings its largest entry into [0.5, 1).

    The scaling is exact and CKA is scale-invariant, so results whose Gram
    norms fit in float64 are unchanged; it keeps the fourth powers inside
    those norms from underflowing (entries near 1e-110) or overflowing.
    """
    peak = np.abs(M).max()
    return M if peak == 0.0 else np.ldexp(M, -np.frexp(peak)[1])


def linear_cka(X: np.ndarray, Y: np.ndarray) -> float:
    """Linear CKA between two row-aligned representation matrices.

    Both matrices are column-centered first; result is in [0, 1].
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeMismatchError(f"row counts differ: {X.shape} vs {Y.shape}")
    if X.shape[0] < 2:
        raise ShapeMismatchError("need at least 2 rows")
    Xc = _power_of_two_scaled(X - X.mean(axis=0))
    Yc = _power_of_two_scaled(Y - Y.mean(axis=0))
    x_norm = np.linalg.norm(Xc.T @ Xc)
    y_norm = np.linalg.norm(Yc.T @ Yc)
    if x_norm == 0.0 or y_norm == 0.0:
        raise DegenerateInputError("a centered matrix is entirely zero")
    cross = np.linalg.norm(Yc.T @ Xc) ** 2
    return _clamp_to_range(cross / (x_norm * y_norm), 0.0, 1.0, "linear_cka")


def isoscore(X: np.ndarray) -> float:
    """Isotropy of a point cloud in [0, 1]; 1 = all directions used equally.

    Steps: covariance eigenvalues (the PCA-rotated covariance diagonal),
    normalized to Euclidean norm sqrt(n); isotropy defect as distance to the
    all-ones vector; then the defect is mapped through the fraction of
    dimensions uniformly occupied and rescaled to [0, 1].
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"expected points x dims, got shape {X.shape}")
    n_points, n = X.shape
    if n < 2:
        raise DimensionTooSmallError(f"need >= 2 dimensions, got {n}")
    if n_points < 2:
        raise DegenerateInputError("need >= 2 points")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / n_points
    eigvals = np.linalg.eigvalsh(cov)
    eigvals = np.maximum(eigvals, 0.0)  # clamp eigenvalue rounding noise
    total = np.linalg.norm(eigvals)
    if total == 0.0:
        raise DegenerateInputError("all points identical (zero covariance)")
    sigma_hat = np.sqrt(n) * eigvals / total
    defect = np.linalg.norm(sigma_hat - 1.0) / np.sqrt(2.0 * (n - np.sqrt(n)))
    phi = (n - defect**2 * (n - np.sqrt(n))) ** 2 / n**2
    iota = (n * phi - 1.0) / (n - 1.0)
    return _clamp_to_range(iota, 0.0, 1.0, "isoscore")


def _centred_ranks(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average-tie ranks along the last axis minus their mean, and the L2 norms.

    Average ranks are multiples of 1/2 and so is their mean, (n + 1) / 2. Every
    partial sum of products of two such vectors is then a multiple of 1/4 of
    magnitude at most n**3 / 12, exact in float64 in any summation order while
    that stays below 2**51 (n up to about 300,000): a dot product or norm of
    these vectors then has the same bits whether a loop, a reduction or a
    matrix product computes it.
    """
    ranks = _average_ranks(a)
    dev = ranks - ranks.mean(axis=-1, keepdims=True)
    return dev, np.linalg.norm(dev, axis=-1)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks along the last axis, tied values sharing their mean rank
    (scipy's ``rankdata(a, method="average", axis=-1)``; a row with a nan is
    all nan). A tie group that fills sorted places first..last gets
    (first + last) / 2 + 1, an exact multiple of 1/2. Every member of the
    group gets that value whatever order the sort leaves the group in, so
    numpy's default (unstable) sort kind gives the same bits as a stable one."""
    order = np.argsort(a, axis=-1)
    ordered = np.take_along_axis(a, order, axis=-1)
    n = a.shape[-1]
    place = np.broadcast_to(np.arange(n), a.shape)
    starts = np.ones(a.shape, dtype=bool)  # a tie group starts where the sorted value changes
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(a.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, place, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, place, n - 1)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(a.shape)
    np.put_along_axis(ranks, order, (first + last) / 2 + 1, axis=-1)
    ranks[np.isnan(a).any(axis=-1)] = np.nan
    return ranks


def _rank_correlation(da: np.ndarray, na: float, db: np.ndarray, nb: float) -> float:
    """Spearman's rho from two ``_centred_ranks`` results of equal length."""
    if na == 0.0 or nb == 0.0:
        warnings.warn("constant rank vector; reporting rho = 0", DegenerateInputWarning)
        return 0.0
    return _clamp_to_range(float(da @ db / (na * nb)), -1.0, 1.0, "spearman_rho")


def spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation with average-tie ranks.

    A constant rank vector yields 0.0 with a DegenerateInputWarning rather
    than NaN, so corpus-level averages stay finite.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise LengthMismatchError(f"{a.shape} vs {b.shape}")
    if a.size < 2:
        raise LengthMismatchError("need length >= 2")
    return _rank_correlation(*_centred_ranks(a), *_centred_ranks(b))


def _rdm_upper(X: np.ndarray) -> np.ndarray:
    """Upper triangle (i < j) of the rank-dissimilarity RDM, row-major.

    Entry (i, j) is 1 - Spearman's rho between rows i and j, all pairs from
    one matrix product of the centred row ranks; by ``_centred_ranks`` each
    entry has the bits of the per-pair dot product. A constant row has no
    rank correlation: its pairs get rho = 0 with a DegenerateInputWarning.
    """
    dev, norms = _centred_ranks(X)
    rows = np.arange(X.shape[0])
    upper = rows[:, None] < rows  # row-major (i, j) with i < j, as np.triu_indices
    constant = norms == 0.0
    degenerate = (constant[:, None] | constant)[upper]
    if degenerate.any():
        warnings.warn("constant row ranks in RDM; treating rho as 0", DegenerateInputWarning)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = ((dev @ dev.T) / np.outer(norms, norms))[upper]
    return 1.0 - np.where(degenerate, 0.0, rho)


def _ranked_rdm(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_centred_ranks`` of the RDM triangle: one side of an RSA comparison."""
    if X.shape[0] < 3:
        raise TooFewSentencesError(f"RSA needs m >= 3 rows, got {X.shape[0]}")
    return _centred_ranks(_rdm_upper(X))


def rsa_score(X: np.ndarray, Y: np.ndarray) -> float:
    """Rank correlation between the representational geometries of X and Y.

    Builds per-matrix RDMs with dissimilarity 1 - Spearman's rho between
    rows, then correlates the vectorized upper triangles.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.shape != Y.shape or X.ndim != 2:
        raise ShapeMismatchError(f"shapes {X.shape} vs {Y.shape}")
    return _rank_correlation(*_ranked_rdm(X), *_ranked_rdm(Y))


def linguistic_fairness_gap(losses: dict[str, float]) -> tuple[float, float]:
    """Population variance and max-min gap of per-language losses."""
    if len(losses) < 2:
        raise TooFewLanguagesError("fairness gap needs >= 2 languages")
    values = np.array(list(losses.values()), dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise NonFiniteLossError("non-finite loss")
    return float(values.var()), float(values.max() - values.min())


def pairwise_report(embedding_set: EmbeddingSet, metric: str) -> MetricReport:
    """Evaluate one metric over all language pairs of an embedding set.

    Per-pair errors are re-raised with the offending pair named.
    """
    if metric not in METRIC_NAMES:
        raise UnknownNameError(f"unknown metric {metric!r}; choose from {METRIC_NAMES}")
    langs = embedding_set.languages
    mats = embedding_set.matrices
    L = len(langs)
    if metric == "isoscore":
        return MetricReport(
            metric="isoscore",
            layer=embedding_set.layer,
            per_pair={},
            aggregate=isoscore(np.vstack(mats)),
        )
    # rsa_score(mats[q], mats[r]) with each language's RDM ranked once
    ranked = functools.cache(lambda q: _ranked_rdm(mats[q]))
    value = {
        "retrieval": lambda q, r: retrieval_precision(mats[q], mats[r]),
        "cka": lambda q, r: linear_cka(mats[q], mats[r]),
        "rsa": lambda q, r: _rank_correlation(*ranked(q), *ranked(r)),
    }[metric]

    values = {}
    for q, r in itertools.combinations(range(L), 2):
        try:
            values[q, r] = value(q, r)
        except Exception as exc:
            exc.args = (f"{exc} [language pair ({langs[q]}, {langs[r]})]",)
            raise
    if metric == "retrieval":  # retrieval_precision counts both directions: (r, q) equals (q, r)
        values.update({(r, q): v for (q, r), v in values.items()})
    pairs = {(langs[q], langs[r]): v for (q, r), v in sorted(values.items())}

    # mean in fixed lexicographic (q, r) order for bit-reproducibility
    ordered = [pairs[key] for key in sorted(pairs)]
    return MetricReport(
        metric=metric,
        layer=embedding_set.layer,
        per_pair=pairs,
        aggregate=float(np.mean(ordered)),
    )
