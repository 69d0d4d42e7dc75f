"""Desk-scale classifier trained with DP-SGD mechanics (SGD or AdamW).

The model is softmax cross-entropy over a linear or one-hidden-layer tanh
network with a flat parameter vector (layer-major, row-major within layer).
Per-sample gradients are clipped to an L2 threshold, summed, noised with a
seeded Gaussian, and averaged; learning rates follow linear warmup then
linear decay; checkpoints are taken at a fixed step interval. One loop,
``train_many``, trains a stack of coupled runs that share the batch stream;
``train`` is its single-run case.

Checkpoint files use the "CKPT1" format: magic ``CKPT1``, u32-LE step,
f64-LE learning rate, u32-LE parameter count, then float64-LE parameters.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import accountant
from .errors import (
    DivergenceError,
    EmptyBatchError,
    FormatError,
    NonFiniteError,
    OutOfRangeError,
    ShapeMismatchError,
)

CKPT_MAGIC = b"CKPT1"

DIVERGENCE_LOSS_CAP = 1e6

NOISE_BLOCK = 32  # steps of Gaussian noise drawn per generator call

Variant = tuple[int | None, int | None]  # (exclude_index, noise_seed)


@dataclass(frozen=True)
class ModelSpec:
    """Network shape: hidden_dim = 0 means a plain linear softmax model."""

    input_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 1 or self.hidden_dim < 0:
            raise ValueError(f"invalid model spec {self}")

    @property
    def num_params(self) -> int:
        d, h, c = self.input_dim, self.hidden_dim, self.num_classes
        if h == 0:
            return c * d + c
        return h * d + h + c * h + c


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float
    total_steps: int
    batch_size: int
    seed: int
    warmup_steps: int = 50
    clip_threshold: float = 0.1
    noise_multiplier: float = 0.0
    weight_decay: float = 0.01
    optimizer: str = "adamw"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    checkpoint_interval: int = 100
    target_epsilon: float | None = None
    delta: float = 1e-5
    noise_seed: int | None = None

    def __post_init__(self):
        if self.base_lr <= 0 or self.total_steps < 1 or self.batch_size < 1:
            raise ValueError("base_lr, total_steps, batch_size must be positive")
        if self.noise_multiplier < 0 or self.clip_threshold <= 0:
            raise ValueError("noise_multiplier >= 0 and clip_threshold > 0 required")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.warmup_steps < 0 or self.warmup_steps >= self.total_steps:
            raise ValueError("need 0 <= warmup_steps < total_steps")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")


@dataclass(frozen=True)
class Checkpoint:
    step: int
    theta: np.ndarray
    eta: float


@dataclass(frozen=True)
class LabeledDataset:
    features: np.ndarray   # (N, d)
    labels: np.ndarray     # (N,) int in [0, c)
    languages: tuple[str, ...]  # (N,) language tag per example

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ShapeMismatchError("features must be (N, d) and labels (N,)")
        if len(self.languages) != features.shape[0]:
            raise ShapeMismatchError("language tags must match example count")
        if not np.all(np.isfinite(features)):
            raise NonFiniteError("dataset features contain NaN/inf")
        if labels.min() < 0:
            raise ValueError("labels must be nonnegative class indices")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "languages", tuple(self.languages))

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class TrainResult:
    theta: np.ndarray
    checkpoints: list[Checkpoint]
    sigma: float
    lrs: list[float]         # per step, steps 1..T
    losses: np.ndarray       # (T,) mean loss over the batch kept at each step
    accuracies: np.ndarray   # (T,)

    @property
    def log(self) -> list[dict]:
        """Per step: step, lr, loss, accuracy."""
        return [
            {"step": step, "lr": lr, "loss": loss, "accuracy": acc}
            for step, lr, loss, acc in zip(
                range(1, len(self.lrs) + 1), self.lrs,
                self.losses.tolist(), self.accuracies.tolist(),
            )
        ]


def init_theta(spec: ModelSpec, seed: int = 0, scale: float = 0.1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(spec.num_params)


def _unpack(spec: ModelSpec, theta: np.ndarray):
    """Layer views of one flat parameter vector (P,) or of a stack (R, P)."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim not in (1, 2) or theta.shape[-1] != spec.num_params:
        raise ShapeMismatchError(
            f"theta has {theta.shape}, spec needs ({spec.num_params},)"
        )
    lead = theta.shape[:-1]
    if h == 0:
        W = theta[..., : c * d].reshape(*lead, c, d)
        b = theta[..., c * d :]
        return W, b
    o = 0
    W1 = theta[..., o : o + h * d].reshape(*lead, h, d); o += h * d
    b1 = theta[..., o : o + h]; o += h
    W2 = theta[..., o : o + c * h].reshape(*lead, c, h); o += c * h
    b2 = theta[..., o:]
    return W1, b1, W2, b2


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _dense(inputs: np.ndarray, W: np.ndarray) -> np.ndarray:
    """inputs @ W^T: (B, k) x (n, k) -> (B, n); for a stack of R weight
    matrices (R, n, k), inputs (B, k) or (B, R, k) -> (B, R, n)."""
    if W.ndim == 2:
        return inputs @ W.T
    R, n, k = W.shape
    if inputs.ndim == 2:  # inputs shared by every run: one matrix product
        return (inputs @ W.reshape(R * n, k).T).reshape(-1, R, n)
    return np.matmul(inputs.swapaxes(0, 1), W.swapaxes(1, 2)).swapaxes(0, 1)


def _outer_sum(S: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Per-run sum over the batch of outer(S_b, inputs_b), flattened row-major:
    S (B, R, n) with inputs (B, k) or (B, R, k) -> (R, n * k)."""
    B, R, n = S.shape
    if inputs.ndim == 2:
        return (S.reshape(B, R * n).T @ inputs).reshape(R, -1)
    return np.matmul(S.transpose(1, 2, 0), inputs.swapaxes(0, 1)).reshape(R, -1)


def _forward_batch(spec: ModelSpec, theta: np.ndarray, X: np.ndarray):
    """Returns (probs, hidden activations or None): (B, c) and (B, h) for one
    parameter vector, (B, R, c) and (B, R, h) for a stack of R."""
    if spec.hidden_dim == 0:
        W, b = _unpack(spec, theta)
        return _softmax(_dense(X, W) + b), None
    W1, b1, W2, b2 = _unpack(spec, theta)
    A = np.tanh(_dense(X, W1) + b1)
    return _softmax(_dense(A, W2) + b2), A


def _backward(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray):
    """Forward pass plus the loss derivative at each dense layer's output.

    Returns (probs, A, delta, dZ): delta = dloss/dlogits, and for the tanh
    model A = hidden activations and dZ = dloss/d(hidden pre-activation),
    else None. Shapes follow ``_forward_batch``. The per-example gradient of
    a dense layer is outer(derivative, [input; 1]).
    """
    probs, A = _forward_batch(spec, theta, X)
    delta = probs.copy()
    delta[np.arange(len(y)), ..., y] -= 1.0
    if spec.hidden_dim == 0:
        return probs, None, delta, None
    W2 = _unpack(spec, theta)[2]
    dZ = _dense(delta, W2.swapaxes(-1, -2)) * (1.0 - A**2)
    return probs, A, delta, dZ


def forward_loss(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: int):
    """Softmax cross-entropy loss and class probabilities for one example."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.input_dim,):
        raise ShapeMismatchError(f"x has {x.shape}, expected ({spec.input_dim},)")
    if not 0 <= y < spec.num_classes:
        raise ShapeMismatchError(f"label {y} outside [0, {spec.num_classes})")
    probs, _ = _forward_batch(spec, theta, x[None, :])
    probs = probs[0]
    loss = -np.log(max(probs[y], np.finfo(np.float64).tiny))
    return float(loss), probs


def grad_batch(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample loss gradients, one flat row per example (B, num_params)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    B = X.shape[0]
    _, A, D, dZ = _backward(spec, theta, X, y)
    if spec.hidden_dim == 0:
        dW = np.einsum("bc,bd->bcd", D, X)
        return np.concatenate([dW.reshape(B, -1), D], axis=1)
    dW2 = np.einsum("bc,bh->bch", D, A)
    dW1 = np.einsum("bh,bd->bhd", dZ, X)
    return np.concatenate([dW1.reshape(B, -1), dZ, dW2.reshape(B, -1), D], axis=1)


def grad(spec: ModelSpec, theta: np.ndarray, z: tuple[np.ndarray, int]) -> np.ndarray:
    """Analytic gradient of forward_loss at one example z = (x, y)."""
    x, y = z
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.input_dim,):
        raise ShapeMismatchError(f"x has {x.shape}, expected ({spec.input_dim},)")
    return grad_batch(spec, theta, x[None, :], np.array([y]))[0]


def clip(g: np.ndarray, C: float) -> np.ndarray:
    """Scale g to L2 norm at most C: g * min(1, C / ||g||)."""
    if C <= 0:
        raise ValueError("clip threshold must be > 0")
    norm = np.linalg.norm(g)
    if norm <= C:
        return g
    return g * (C / norm)


def dp_aggregate(
    per_sample_clipped: list[np.ndarray] | np.ndarray,
    sigma: float,
    C: float,
    B: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Noised mean of clipped gradients: (sum g_i + N(0, sigma^2 C^2 I)) / B."""
    grads = np.asarray(per_sample_clipped, dtype=np.float64)
    if grads.size == 0:
        raise EmptyBatchError("no gradients to aggregate")
    if grads.shape[0] != B:
        raise ShapeMismatchError(f"got {grads.shape[0]} gradients for batch size {B}")
    total = grads.sum(axis=0)
    if sigma > 0:
        total = total + sigma * C * rng.standard_normal(total.shape)
    return total / B


@dataclass
class OptimizerState:
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def init(cls, theta: np.ndarray) -> "OptimizerState":
        return cls(theta=np.asarray(theta, dtype=np.float64).copy(),
                   m=np.zeros_like(theta, dtype=np.float64),
                   v=np.zeros_like(theta, dtype=np.float64))


def optimizer_step(
    state: OptimizerState, noisy_grad: np.ndarray, eta: float, config: TrainConfig
) -> OptimizerState:
    """One SGD or AdamW update with decoupled weight decay."""
    wd = config.weight_decay
    if config.optimizer == "sgd":
        theta = state.theta - eta * noisy_grad - eta * wd * state.theta
        return OptimizerState(theta=theta, m=state.m, v=state.v, t=state.t + 1)
    b1, b2 = config.adam_beta1, config.adam_beta2
    t = state.t + 1
    m = b1 * state.m + (1 - b1) * noisy_grad
    v = b2 * state.v + (1 - b2) * noisy_grad**2
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    theta = state.theta - eta * m_hat / (np.sqrt(v_hat) + config.adam_eps) - eta * wd * state.theta
    return OptimizerState(theta=theta, m=m, v=v, t=t)


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr, then linear decay to 0 at total_steps."""
    if not 0 <= step <= config.total_steps:
        raise OutOfRangeError(f"step {step} outside [0, {config.total_steps}]")
    if config.warmup_steps > 0 and step <= config.warmup_steps:
        return config.base_lr * step / config.warmup_steps
    return config.base_lr * (config.total_steps - step) / (config.total_steps - config.warmup_steps)


def resolve_sigma(config: TrainConfig, dataset_size: int) -> float:
    """Noise multiplier from config, via the accountant when a target is set."""
    if config.target_epsilon is None:
        return config.noise_multiplier
    return accountant.sigma_for(
        config.target_epsilon,
        q=config.batch_size / dataset_size,
        steps=config.total_steps,
        delta=config.delta,
    )


def train(
    dataset: LabeledDataset,
    spec: ModelSpec,
    config: TrainConfig,
    exclude_index: int | None = None,
) -> TrainResult:
    """Run the full DP training loop; deterministic given config.seed.

    Batch sampling and gradient noise come from two streams spawned off one
    seed, so sigma = 0 runs are unaffected by the noise stream. When
    config.target_epsilon is set, sigma is resolved through the accountant.

    exclude_index supports coupled leave-one-out retraining: batches are
    drawn over the full index space exactly as in the unmodified run, and
    the excluded example is dropped from any batch containing it, so the
    two trajectories differ only through that example's contributions.
    """
    return train_many(dataset, spec, config, [(exclude_index, None)])[0]


def _which_run(variants: list[Variant], r: int) -> str:
    return f" in run {r} (variant {variants[r]})" if len(variants) > 1 else ""


def train_many(
    dataset: LabeledDataset,
    spec: ModelSpec,
    config: TrainConfig,
    variants: list[Variant],
) -> list[TrainResult]:
    """Train one coupled run per variant (exclude_index, noise_seed) at once.

    Row r equals ``train(dataset, spec, replace(config, noise_seed=ns),
    exclude_index=e)`` for variants[r] = (e, ns), with ns = None keeping
    config.noise_seed. All runs share the initial parameters and one batch
    draw per step; a run's excluded example is masked out of each batch
    that holds it and its gradient mean divides by the examples it kept.
    Each run keeps its own noise generator. Per-example gradients are never
    formed: a dense layer's gradient is outer(delta, [a; 1]), whose norm is
    |delta| * sqrt(|a|^2 + 1) (Goodfellow 2015, arXiv 1510.01799), so the
    clip factors come from per-layer norms and the clipped sum of each layer
    is one matrix product.
    """
    variants = list(variants)
    N = len(dataset)
    if not variants:
        raise ValueError("need at least one variant")
    if config.batch_size > N:
        raise ValueError("batch_size exceeds dataset size")
    if spec.input_dim != dataset.features.shape[1]:
        raise ShapeMismatchError("model input_dim does not match dataset")
    if dataset.labels.max() >= spec.num_classes:
        raise ShapeMismatchError(
            f"label {dataset.labels.max()} outside [0, {spec.num_classes}) of the model"
        )
    for exclude, _ in variants:
        if exclude is not None and not 0 <= exclude < N:
            raise IndexError(f"exclude_index {exclude} out of range")
    sigma = resolve_sigma(config, N)
    C, B, T = config.clip_threshold, config.batch_size, config.total_steps
    R, P = len(variants), spec.num_params

    batch_ss, noise_ss = np.random.SeedSequence(config.seed).spawn(2)
    batch_rng = np.random.default_rng(batch_ss)
    noise_rngs = []
    for _, noise_seed in variants:
        if noise_seed is None:
            noise_seed = config.noise_seed
        noise_rngs.append(np.random.default_rng(noise_ss if noise_seed is None else noise_seed))
    noise = np.empty((R, NOISE_BLOCK, P))
    excluded = np.array([-1 if e is None else e for e, _ in variants])

    state = OptimizerState.init(np.tile(init_theta(spec, seed=config.seed), (R, 1)))
    losses = np.empty((T, R))
    accuracies = np.empty((T, R))
    lrs: list[float] = []
    snapshots: list[tuple[int, float, np.ndarray]] = []

    for step in range(1, T + 1):
        idx = batch_rng.choice(N, size=B, replace=False)
        keep = idx[:, None] != excluded  # (B, R)
        count = keep.sum(axis=0)
        if not count.all():
            raise EmptyBatchError(
                f"step {step}: run {int(np.argmin(count))} excludes every example of its batch"
            )
        X = dataset.features[idx]
        y = dataset.labels[idx]
        probs, A, delta, dZ = _backward(spec, state.theta, X, y)
        p_true = np.maximum(probs[np.arange(B), :, y], np.finfo(np.float64).tiny)
        loss = np.where(keep, -np.log(p_true), 0.0).sum(axis=0) / count
        acc = ((probs.argmax(axis=2) == y[:, None]) & keep).sum(axis=0) / count
        bad = ~(loss <= DIVERGENCE_LOSS_CAP)  # also catches nan
        if bad.any():
            r = int(np.argmax(bad))
            raise DivergenceError(step, f"loss = {loss[r]}{_which_run(variants, r)}")

        x_sq = (X * X).sum(axis=1)[:, None] + 1.0
        if A is None:
            norm_sq = (delta * delta).sum(axis=2) * x_sq
        else:
            norm_sq = (delta * delta).sum(axis=2) * ((A * A).sum(axis=2) + 1.0) \
                + (dZ * dZ).sum(axis=2) * x_sq
        scale = np.minimum(1.0, C / np.maximum(np.sqrt(norm_sq), np.finfo(np.float64).tiny))
        scale = (scale * keep)[:, :, None]
        sd = delta * scale
        if A is None:
            parts = [_outer_sum(sd, X), sd.sum(axis=0)]
        else:
            sz = dZ * scale
            parts = [_outer_sum(sz, X), sz.sum(axis=0), _outer_sum(sd, A), sd.sum(axis=0)]
        total = np.concatenate(parts, axis=1)
        if sigma > 0:
            j = (step - 1) % NOISE_BLOCK
            if j == 0:  # blocks of draws continue each generator's stream exactly
                block = noise[:, : min(NOISE_BLOCK, T - step + 1)]
                for r, rng in enumerate(noise_rngs):
                    rng.standard_normal(out=block[r])
            total += sigma * C * noise[:, j]
        noisy = total / count[:, None]

        eta = lr_at(step, config)
        state = optimizer_step(state, noisy, eta, config)
        finite = np.isfinite(state.theta).all(axis=1)
        if not finite.all():
            r = int(np.argmin(finite))
            raise DivergenceError(step, f"non-finite parameters{_which_run(variants, r)}")

        losses[step - 1] = loss
        accuracies[step - 1] = acc
        lrs.append(eta)
        if step % config.checkpoint_interval == 0:
            snapshots.append((step, eta, state.theta.copy()))

    return [
        TrainResult(
            theta=state.theta[r].copy(),
            checkpoints=[Checkpoint(step=s, theta=th[r].copy(), eta=eta) for s, eta, th in snapshots],
            sigma=sigma,
            lrs=lrs,
            losses=losses[:, r],
            accuracies=accuracies[:, r],
        )
        for r in range(R)
    ]


def evaluate(
    theta: np.ndarray, spec: ModelSpec, dataset: LabeledDataset
) -> tuple[float, dict[str, float]]:
    """Accuracy (argmax, lowest index wins ties) and per-language mean loss."""
    probs, _ = _forward_batch(spec, theta, dataset.features)
    preds = probs.argmax(axis=1)
    labels = dataset.labels
    accuracy = float((preds == labels).mean())
    p_true = np.maximum(probs[np.arange(len(dataset)), labels], np.finfo(np.float64).tiny)
    losses = -np.log(p_true)
    per_language: dict[str, float] = {}
    tags = np.array(dataset.languages)
    for lang in dict.fromkeys(dataset.languages):  # first-seen order
        per_language[lang] = float(losses[tags == lang].mean())
    return accuracy, per_language


def write_checkpoint(path: Path | str, ckpt: Checkpoint) -> None:
    theta = np.ascontiguousarray(ckpt.theta, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", ckpt.step))
        fh.write(struct.pack("<d", ckpt.eta))
        fh.write(struct.pack("<I", theta.size))
        fh.write(theta.astype("<f8").tobytes())


def read_checkpoint(path: Path | str) -> Checkpoint:
    data = Path(path).read_bytes()
    header = len(CKPT_MAGIC) + 4 + 8 + 4
    if len(data) < header or data[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise FormatError(f"{path}: bad magic or truncated header")
    step, = struct.unpack_from("<I", data, 5)
    eta, = struct.unpack_from("<d", data, 9)
    count, = struct.unpack_from("<I", data, 17)
    if len(data) != header + count * 8:
        raise FormatError(f"{path}: payload does not match declared count {count}")
    theta = np.frombuffer(data, dtype="<f8", offset=header).astype(np.float64)
    return Checkpoint(step=step, theta=theta, eta=eta)


def write_training_log(path: Path | str, log: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "lr", "loss", "accuracy"])
        for row in log:
            writer.writerow([
                row["step"],
                format(row["lr"], ".17g"),
                format(row["loss"], ".17g"),
                format(row["accuracy"], ".17g"),
            ])
