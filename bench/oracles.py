"""Reference computations the benchmark checks the program against.

Nothing here imports ``mlpriv``: each oracle is written from the method's
definition, so a fault shared with the program would have to be made twice.

* ``reference_train``: DP-SGD / DP-AdamW over many coupled runs at once, with
  closed-form per-example gradients of the linear or one-hidden-layer tanh
  softmax model, the program's seed streams, clipping, Gaussian noise and
  learning-rate schedule.
* ``tracin_gram``: TracInCP scores from per-layer Gram factors,
  ``(delta_i . delta_j)(x~_i . x~_j)``, never forming a gradient vector.
* ``rdp_epsilon``: (epsilon, delta) of the subsampled Gaussian from
  ``math.lgamma`` binomials and a log-sum-exp at every integer order.
* ``retrieval``, ``cka``, ``rsa``, ``isoscore``: cosine argmax, centered-Gram
  CKA, ``scipy.stats.spearmanr`` RSA, and the IsoScore formula via SVD.
* ``read_emb`` / ``write_emb`` / ``read_ckpt`` / ``write_ckpt``: the EMB1 and
  CKPT1 byte formats.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.stats import spearmanr

TINY = np.finfo(np.float64).tiny
ORDERS = range(2, 513)


# ---------------------------------------------------------------------------
# model and training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefConfig:
    """The training settings the reference loop needs, named as in the program."""

    base_lr: float
    total_steps: int
    batch_size: int
    seed: int
    sigma: float = 0.0
    warmup_steps: int = 50
    clip_threshold: float = 0.1
    weight_decay: float = 0.01
    optimizer: str = "adamw"
    checkpoint_interval: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def _split(theta: np.ndarray, d: int, h: int, c: int):
    """Views of a (R, P) parameter block as per-layer weights and biases."""
    R = theta.shape[0]
    if h == 0:
        return theta[:, : c * d].reshape(R, c, d), theta[:, c * d :]
    o = 0
    W1 = theta[:, o : o + h * d].reshape(R, h, d); o += h * d
    b1 = theta[:, o : o + h]; o += h
    W2 = theta[:, o : o + c * h].reshape(R, c, h); o += c * h
    return W1, b1, W2, theta[:, o:]


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward(theta: np.ndarray, X: np.ndarray, d: int, h: int, c: int):
    """Probabilities (R, B, c) and hidden activations (R, B, h) or None."""
    if h == 0:
        W, b = _split(theta, d, h, c)
        return softmax(np.einsum("bd,rcd->rbc", X, W) + b[:, None, :]), None
    W1, b1, W2, b2 = _split(theta, d, h, c)
    A = np.tanh(np.einsum("bd,rhd->rbh", X, W1) + b1[:, None, :])
    return softmax(np.einsum("rbh,rch->rbc", A, W2) + b2[:, None, :]), A


def _loss_deltas(theta, X, y, d, h, c):
    """dloss/dlogits (R, B, c), hidden activations, hidden deltas, probs."""
    probs, A = forward(theta, X, d, h, c)
    delta = probs - np.eye(c)[y][None, :, :]
    if h == 0:
        return delta, None, None, probs
    W2 = _split(theta, d, h, c)[2]
    dz = np.einsum("rbc,rch->rbh", delta, W2) * (1.0 - A**2)
    return delta, A, dz, probs


def lr_at(step: int, cfg: RefConfig) -> float:
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    return cfg.base_lr * (cfg.total_steps - step) / (cfg.total_steps - cfg.warmup_steps)


@dataclass
class RefRuns:
    theta: np.ndarray                          # (R, P) final parameters
    checkpoints: list[tuple[int, float, np.ndarray]]  # (step, eta, (R, P))
    losses: np.ndarray                         # (T, R) mean batch loss per step


def reference_train(
    features: np.ndarray,
    labels: np.ndarray,
    hidden: int,
    classes: int,
    cfg: RefConfig,
    variants: list[tuple[int | None, int | None]] = ((None, None),),
) -> RefRuns:
    """Train every variant ``(exclude_index, noise_seed)`` side by side.

    All variants share the batch-index stream of ``cfg.seed``; an excluded
    example is dropped from each batch that holds it. A ``noise_seed`` of
    None uses the second child of ``SeedSequence(cfg.seed)``.
    """
    X_all = np.asarray(features, dtype=np.float64)
    y_all = np.asarray(labels, dtype=np.int64)
    N, d = X_all.shape
    h, c = hidden, classes
    P = c * d + c if h == 0 else h * d + h + c * h + c
    R, T, B, C = len(variants), cfg.total_steps, cfg.batch_size, cfg.clip_threshold

    batch_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    batch_rng = np.random.default_rng(batch_ss)
    noise = None
    if cfg.sigma > 0:
        noise = np.stack([
            np.random.default_rng(noise_ss if ns is None else ns).standard_normal((T, P))
            for _, ns in variants
        ], axis=1)  # (T, R, P)
    excluded = np.array([-1 if ex is None else ex for ex, _ in variants])

    theta = np.tile(0.1 * np.random.default_rng(cfg.seed).standard_normal(P), (R, 1))
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    checkpoints = []
    losses = np.empty((T, R))
    for step in range(1, T + 1):
        idx = batch_rng.choice(N, size=B, replace=False)
        X, y = X_all[idx], y_all[idx]
        keep = idx[None, :] != excluded[:, None]          # (R, B)
        count = keep.sum(axis=1)
        delta, A, dz, probs = _loss_deltas(theta, X, y, d, h, c)
        p_true = np.maximum(probs[:, np.arange(B), y], TINY)
        losses[step - 1] = np.where(keep, -np.log(p_true), 0.0).sum(axis=1) / count

        x_sq = (X * X).sum(axis=1) + 1.0                  # |[x; 1]|^2
        norm_sq = (delta * delta).sum(axis=2) * (x_sq if h == 0 else (A * A).sum(axis=2) + 1.0)
        if h:
            norm_sq = norm_sq + (dz * dz).sum(axis=2) * x_sq
        scale = np.minimum(1.0, C / np.maximum(np.sqrt(norm_sq), TINY)) * keep
        sd = delta * scale[:, :, None]
        if h == 0:
            parts = [np.einsum("rbc,bd->rcd", sd, X).reshape(R, -1), sd.sum(axis=1)]
        else:
            sz = dz * scale[:, :, None]
            parts = [
                np.einsum("rbh,bd->rhd", sz, X).reshape(R, -1), sz.sum(axis=1),
                np.einsum("rbc,rbh->rch", sd, A).reshape(R, -1), sd.sum(axis=1),
            ]
        total = np.concatenate(parts, axis=1)
        if noise is not None:
            total = total + cfg.sigma * C * noise[step - 1]
        g = total / count[:, None]

        eta = lr_at(step, cfg)
        if cfg.optimizer == "sgd":
            theta = theta - eta * g - eta * cfg.weight_decay * theta
        else:
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g**2
            m_hat = m / (1 - cfg.beta1**step)
            v_hat = v / (1 - cfg.beta2**step)
            theta = theta - eta * m_hat / (np.sqrt(v_hat) + cfg.eps) - eta * cfg.weight_decay * theta
        if step % cfg.checkpoint_interval == 0:
            checkpoints.append((step, eta, theta.copy()))
    return RefRuns(theta=theta, checkpoints=checkpoints, losses=losses)


def event_probability(theta: np.ndarray, x: np.ndarray, cls: int, d: int, h: int, c: int) -> np.ndarray:
    """P(class | x) under each run's parameters, shape (R,)."""
    probs, _ = forward(np.atleast_2d(theta), np.asarray(x, dtype=np.float64)[None, :], d, h, c)
    return probs[:, 0, cls]


# ---------------------------------------------------------------------------
# influence
# ---------------------------------------------------------------------------

def tracin_gram(
    checkpoints: list[tuple[float, np.ndarray]],
    X: np.ndarray,
    y: np.ndarray,
    hidden: int,
    classes: int,
    groups: int = 1,
) -> np.ndarray:
    """Sum over checkpoints of eta * g_i . g_j within each of ``groups`` blocks.

    X holds ``groups`` contiguous blocks of equal size; the result has shape
    (groups, n, n) with n = len(X) // groups. Per dense layer, the gradient
    of example i is ``outer(delta_i, [a_i; 1])``, so its dot product with
    example j's is ``(delta_i . delta_j)(a_i . a_j + 1)``.
    """
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    n = X.shape[0] // groups
    Xg = X.reshape(groups, n, d)
    xx = np.einsum("gid,gjd->gij", Xg, Xg) + 1.0
    total = np.zeros((groups, n, n))
    for eta, theta in checkpoints:
        delta, A, dz, _ = _loss_deltas(theta[None, :], X, y, d, hidden, classes)
        D = delta[0].reshape(groups, n, -1)
        if hidden == 0:
            G = np.einsum("gic,gjc->gij", D, D) * xx
        else:
            Ag = A[0].reshape(groups, n, -1)
            Z = dz[0].reshape(groups, n, -1)
            G = (np.einsum("gic,gjc->gij", D, D) * (np.einsum("gih,gjh->gij", Ag, Ag) + 1.0)
                 + np.einsum("gih,gjh->gij", Z, Z) * xx)
        total += eta * G
    return total


def infu(scores: np.ndarray) -> np.ndarray:
    """Mean base-L entropy of each anchor row's softmax, per (L, L) block."""
    scores = np.asarray(scores, dtype=np.float64)
    L = scores.shape[-1]
    p = softmax(scores)
    ent = -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=-1) / math.log(L)
    return ent.mean(axis=-1)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

_LOG_FACT = np.array([math.lgamma(n + 1) for n in range(ORDERS[-1] + 1)])


def rdp_epsilon(q: float, sigma: float, steps: int, delta: float) -> tuple[float, int]:
    """(epsilon, best order) of ``steps`` subsampled Gaussian steps at orders 2..512."""
    best = (math.inf, 0)
    for alpha in ORDERS:
        if q == 1.0:
            rdp = alpha / (2.0 * sigma**2)
        else:
            k = np.arange(alpha + 1)
            terms = (_LOG_FACT[alpha] - _LOG_FACT[k] - _LOG_FACT[alpha - k]
                     + (alpha - k) * math.log1p(-q) + k * math.log(q)
                     + k * (k - 1) / (2.0 * sigma**2))
            top = terms.max()
            rdp = max((top + math.log(np.exp(terms - top).sum())) / (alpha - 1), 0.0)
        eps = (steps * rdp + math.log1p(-1.0 / alpha)
               - (math.log(delta) + math.log(alpha)) / (alpha - 1))
        if eps < best[0]:
            best = (eps, alpha)
    return max(float(best[0]), 0.0), best[1]


# ---------------------------------------------------------------------------
# compression metrics
# ---------------------------------------------------------------------------

def retrieval(X: np.ndarray, Y: np.ndarray) -> float:
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Yn = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    S = Xn @ Yn.T
    idx = np.arange(len(X))
    return float(((S.argmax(axis=1) == idx).sum() + (S.argmax(axis=0) == idx).sum()) / (2 * len(X)))


def cka(X: np.ndarray, Y: np.ndarray) -> float:
    K = X @ X.T
    L = Y @ Y.T
    H = np.eye(len(X)) - 1.0 / len(X)
    Kc, Lc = H @ K @ H, H @ L @ H
    return float((Kc * Lc).sum() / (np.linalg.norm(Kc) * np.linalg.norm(Lc)))


def _rdm(X: np.ndarray) -> np.ndarray:
    rho = spearmanr(X, axis=1).statistic
    return 1.0 - rho[np.triu_indices(len(X), k=1)]


def rsa(X: np.ndarray, Y: np.ndarray) -> float:
    return float(spearmanr(_rdm(X), _rdm(Y)).statistic)


def isoscore(X: np.ndarray) -> float:
    n_points, n = X.shape
    s = np.linalg.svd(X - X.mean(axis=0), compute_uv=False)
    var = np.zeros(n)
    var[: len(s)] = s**2 / n_points
    var_hat = math.sqrt(n) * var / np.linalg.norm(var)
    defect = np.linalg.norm(var_hat - 1.0) / math.sqrt(2.0 * (n - math.sqrt(n)))
    k = (n - defect**2 * (n - math.sqrt(n))) ** 2 / n
    return float((k - 1.0) / (n - 1.0))


def pairwise(metric: str, mats: list[np.ndarray]) -> dict[tuple[int, int], float]:
    """Metric value per language pair: ordered pairs for retrieval, else q < r."""
    fn = {"retrieval": retrieval, "cka": cka, "rsa": rsa}[metric]
    L = len(mats)
    pairs = ([(a, b) for a in range(L) for b in range(L) if a != b] if metric == "retrieval"
             else [(a, b) for a in range(L) for b in range(a + 1, L)])
    return {(a, b): fn(mats[a], mats[b]) for a, b in pairs}


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_emb(path, matrix: np.ndarray) -> None:
    m, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(b"EMB1" + struct.pack("<II", m, d) + np.asarray(matrix, "<f8").tobytes())


def read_emb(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"EMB1":
        raise ValueError(f"{path}: not EMB1")
    m, d = struct.unpack_from("<II", data, 4)
    if len(data) != 12 + 8 * m * d:
        raise ValueError(f"{path}: size {len(data)} does not match {m}x{d}")
    return np.frombuffer(data, "<f8", offset=12).reshape(m, d).astype(np.float64)


def write_ckpt(path, step: int, eta: float, theta: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"CKPT1" + struct.pack("<IdI", step, eta, theta.size)
                 + np.asarray(theta, "<f8").tobytes())


def read_ckpt(path) -> tuple[int, float, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:5] != b"CKPT1":
        raise ValueError(f"{path}: not CKPT1")
    step, eta, count = struct.unpack_from("<IdI", data, 5)
    if len(data) != 21 + 8 * count:
        raise ValueError(f"{path}: size {len(data)} does not match {count} parameters")
    return step, eta, np.frombuffer(data, "<f8", offset=21).astype(np.float64)
