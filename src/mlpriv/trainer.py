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

import math
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import accountant
from .errors import (
    DivergenceError,
    EmptyBatchError,
    ExcludeIndexError,
    FormatError,
    InvalidConfigError,
    NonFiniteError,
    OutOfRangeError,
    ShapeMismatchError,
)

CKPT_MAGIC = b"CKPT1"

DRAW_BLOCK = 32  # steps whose batches and Gaussian noise are drawn at once

INIT_SCALE = 0.1  # standard deviation of the Gaussian initial parameters

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _is_seed(value) -> bool:
    """A nonnegative integer, the seeds numpy's generators take; bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


class Variant(NamedTuple):
    """One coupled run of ``train_many``. A None noise_multiplier keeps the
    config's; a None noise_seed means the noise stream spawned off config.seed."""

    exclude_index: int | None = None
    noise_seed: int | None = None
    noise_multiplier: float | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Network shape: hidden_dim = 0 means a plain linear softmax model."""

    input_dim: int
    hidden_dim: int
    num_classes: int

    def __post_init__(self):
        if self.input_dim < 1 or self.num_classes < 1 or self.hidden_dim < 0:
            raise InvalidConfigError(f"invalid model spec {self}")

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
    checkpoint_interval: int = 100
    target_epsilon: float | None = None
    delta: float = 1e-5

    def __post_init__(self):
        if not _is_seed(self.seed):
            raise InvalidConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        for name in ("base_lr", "clip_threshold", "noise_multiplier", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.base_lr <= 0 or self.total_steps < 1 or self.batch_size < 1:
            raise InvalidConfigError("base_lr, total_steps, batch_size must be positive")
        if self.noise_multiplier < 0 or self.clip_threshold <= 0:
            raise InvalidConfigError("noise_multiplier >= 0 and clip_threshold > 0 required")
        if self.optimizer not in ("sgd", "adamw"):
            raise InvalidConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.warmup_steps < 0 or self.warmup_steps >= self.total_steps:
            raise InvalidConfigError(
                f"need 0 <= warmup_steps < total_steps, got warmup_steps = {self.warmup_steps}"
                f" and total_steps = {self.total_steps}"
            )
        if self.checkpoint_interval < 1:
            raise InvalidConfigError("checkpoint_interval must be >= 1")


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
        labels = np.asarray(self.labels)
        if features.ndim != 2 or labels.shape != (features.shape[0],):
            raise ShapeMismatchError("features must be (N, d) and labels (N,)")
        if features.shape[0] == 0:
            raise ShapeMismatchError("dataset has no examples")
        if labels.dtype.kind not in "iu":
            labels = np.asarray(labels, dtype=np.float64)
            with np.errstate(invalid="ignore"):  # nan, inf and huge values fail the check
                as_int = labels.astype(np.int64)
            if not np.array_equal(as_int, labels):
                raise ShapeMismatchError(
                    f"labels must be integer class indices, got {labels[as_int != labels][0]}"
                )
            labels = as_int
        labels = labels.astype(np.int64, copy=False)
        if len(self.languages) != features.shape[0]:
            raise ShapeMismatchError("language tags must match example count")
        if not np.all(np.isfinite(features)):
            raise NonFiniteError("dataset features contain NaN/inf")
        if labels.min() < 0:
            raise ShapeMismatchError(
                f"labels must be nonnegative integer class indices, got {labels.min()}"
            )
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


def init_theta(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return INIT_SCALE * rng.standard_normal(spec.num_params)


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


def _reduce_last(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """ufunc.reduce over the last axis. Below 8 entries numpy's own reduce
    folds left to right, so this fold of whole slices is bit-identical, but
    it makes one call per entry instead of one per row, which at a large run
    stack is an order of magnitude faster. Below about 128 rows (a batch of
    32 at R <= 3) the single reduce call is the faster one."""
    if a.shape[-1] >= 8 or a.size < 128 * a.shape[-1]:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = ufunc(out, a[..., k])
    return out


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - _reduce_last(np.maximum, logits)[..., None]
    exp = np.exp(shifted)
    return exp / _reduce_last(np.add, exp)[..., None]


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


def _forward_batch(spec: ModelSpec, params: tuple, X: np.ndarray):
    """Returns (probs, hidden activations or None) for the layer views
    ``params`` of ``_unpack``: (B, c) and (B, h) for one parameter vector,
    (B, R, c) and (B, R, h) for a stack of R."""
    # a contiguous bias stack lets the broadcast add run as one flat loop
    if spec.hidden_dim == 0:
        W, b = params
        return _softmax(_dense(X, W) + np.ascontiguousarray(b)), None
    W1, b1, W2, b2 = params
    A = np.tanh(_dense(X, W1) + np.ascontiguousarray(b1))
    return _softmax(_dense(A, W2) + np.ascontiguousarray(b2)), A


def _backward(spec: ModelSpec, params: tuple, X: np.ndarray, y: np.ndarray):
    """Forward pass plus every dense layer's (d, a) pair, in parameter order.

    Returns (probs, p_true, layers): p_true is each example's probability of
    its label, (B,) or (B, R); layers is [(delta, X)] for the linear model and
    [(dZ, X), (delta, A)] for the tanh model, where d is the loss derivative
    at the layer's output (delta = dloss/dlogits, dZ = dloss/d(hidden
    pre-activation)) and a is the layer's input (A = hidden activations).
    ``params`` are ``_unpack``'s layer views and shapes follow
    ``_forward_batch``. A layer's parameters are its row-major weights, then
    its bias, and its per-example gradient is outer(d, [a; 1]): weights
    outer(d, a), bias d.
    """
    probs, A = _forward_batch(spec, params, X)
    rows = np.arange(len(y))
    p_true = probs[rows, ..., y]
    delta = probs.copy()
    delta[rows, ..., y] = p_true - 1.0
    if spec.hidden_dim == 0:
        return probs, p_true, [(delta, X)]
    dZ = _dense(delta, params[2].swapaxes(-1, -2)) * (1.0 - A**2)
    return probs, p_true, [(dZ, X), (delta, A)]


def _check_labels(y, spec: ModelSpec) -> np.ndarray:
    """Labels as an integer array with every entry in [0, num_classes)."""
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        raise ShapeMismatchError(f"labels must be integer class indices, got {y.dtype} {y.shape}")
    if y.size and not (0 <= y.min() and y.max() < spec.num_classes):
        raise ShapeMismatchError(
            f"labels span [{y.min()}, {y.max()}], outside [0, {spec.num_classes})"
        )
    return y


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
    """One SGD or AdamW update with decoupled weight decay, applied to the
    state's arrays in place; returns the same state.

    The decay term is taken from the parameters before the update, and the
    update rounds as theta - step - decay, with step = eta * g for SGD and
    (eta * m_hat) / (sqrt(v_hat) + eps) for AdamW.
    """
    theta = state.theta
    decay = (eta * config.weight_decay) * theta
    state.t += 1
    if config.optimizer == "sgd":
        step = eta * noisy_grad
    else:
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        state.m *= b1
        state.m += (1 - b1) * noisy_grad
        grad_sq = np.square(noisy_grad)
        grad_sq *= 1 - b2
        state.v *= b2
        state.v += grad_sq
        step = state.m / (1 - b1**state.t)
        step *= eta
        denom = state.v / (1 - b2**state.t)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
    theta -= step
    theta -= decay
    return state


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
    return train_many(dataset, spec, config, [Variant(exclude_index)])[0]


def _mean_loss(p_true: np.ndarray, keep: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each run's mean cross-entropy over the examples it kept: p_true and
    keep (..., B, R), count (..., R). p_true is overwritten with the
    per-example losses, so a block's buffer needs no temporaries of its size.
    A step's (B, R) and a block's (n, B, R) sum each run's column in the
    same order, so their rows have the same bits."""
    loss = np.maximum(p_true, np.finfo(np.float64).tiny, out=p_true)
    np.log(loss, out=loss)
    np.negative(loss, out=loss)
    loss[~keep] = 0.0
    return loss.sum(axis=-2) / count


def _which_run(variants: list[Variant], r: int) -> str:
    return f" in run {r} (variant {variants[r]})" if len(variants) > 1 else ""


def _run_sigmas(variants: list[Variant], config: TrainConfig, dataset_size: int) -> list[float]:
    """Each run's noise multiplier: its own, else the config's resolved one."""
    own = [v.noise_multiplier for v in variants if v.noise_multiplier is not None]
    if own and config.target_epsilon is not None:
        raise InvalidConfigError(
            "a per-run noise_multiplier cannot be combined with target_epsilon: "
            "the reported epsilon would not describe the run"
        )
    for s in own:
        if not (isinstance(s, numbers.Real) and math.isfinite(s) and s >= 0):
            raise InvalidConfigError(f"per-run noise_multiplier must be finite and >= 0, got {s!r}")
    sigma = resolve_sigma(config, dataset_size)
    return [sigma if v.noise_multiplier is None else v.noise_multiplier for v in variants]


def train_many(
    dataset: LabeledDataset,
    spec: ModelSpec,
    config: TrainConfig,
    variants: list[Variant | tuple],
) -> list[TrainResult]:
    """Train one coupled run per variant (exclude_index, noise_seed,
    noise_multiplier) at once; a shorter tuple leaves the rest None.

    Row r equals ``train(dataset, spec, replace(config, noise_multiplier=s),
    exclude_index=e)`` for variants[r] = (e, None, s) to rounding (1e-12),
    with s = None keeping the config's sigma; a noise seed ns in place of
    None only swaps the noise stream. Parameters match byte for byte below
    65 runs; from there the one matrix product of ``_dense`` over every
    run's weights may round the last runs' logits differently. From 8
    examples per batch a lone run's losses, which numpy sums pairwise, may
    differ in the last bits from a stacked row's. All runs share the
    initial parameters and one batch draw per step; a run's excluded
    example is masked out of each batch that holds it and its gradient
    mean divides by the examples it kept. A sigma = 0 run draws no noise.
    Runs with sigma > 0 draw from one generator per distinct noise seed
    (their own, else a stream spawned off config.seed): runs that share a
    seed read the same draws, exactly as they would with a generator each.
    Per-example gradients are never formed: for each (d, a) layer pair of
    ``_backward`` the gradient is outer(d, [a; 1]), whose norm is
    |d| * sqrt(|a|^2 + 1) (Goodfellow 2015, arXiv 1510.01799), so the clip
    factors come from per-layer norms and the clipped sum of each layer is
    one matrix product.
    Each step does only the work that updates the parameters: the batches,
    keep masks and noise of DRAW_BLOCK steps are drawn and gathered at the
    block's first step, in the order one draw per step would take them, and
    the block's losses and accuracies are formed at its last step from the
    probabilities of the labels and the hits its steps stored. A step tests
    only its parameters for divergence: a nan loss makes them nan at the
    same step.
    """
    variants = [Variant(*v) for v in variants]
    N = len(dataset)
    if not variants:
        raise InvalidConfigError("need at least one variant")
    if config.batch_size > N:
        raise InvalidConfigError(f"batch_size {config.batch_size} exceeds the dataset's {N} examples")
    if spec.input_dim != dataset.features.shape[1]:
        raise ShapeMismatchError("model input_dim does not match dataset")
    if dataset.labels.max() >= spec.num_classes:
        raise ShapeMismatchError(
            f"label {dataset.labels.max()} outside [0, {spec.num_classes}) of the model"
        )
    for v in variants:
        if v.exclude_index is not None and not 0 <= v.exclude_index < N:
            raise ExcludeIndexError(f"exclude_index {v.exclude_index} out of range")
        if v.noise_seed is not None and not _is_seed(v.noise_seed):
            raise InvalidConfigError(
                f"per-run noise_seed must be a nonnegative integer or None, got {v.noise_seed!r}"
            )
    sigmas = _run_sigmas(variants, config, N)
    C, B, T = config.clip_threshold, config.batch_size, config.total_steps
    R, P = len(variants), spec.num_params

    batch_ss, noise_ss = np.random.SeedSequence(config.seed).spawn(2)
    batch_rng = np.random.default_rng(batch_ss)
    noised = np.flatnonzero(np.array(sigmas) > 0)  # an array: a list index is converted each step
    # runs with the same effective noise seed draw the same stream, so each
    # distinct seed gets one generator and its runs read the same draws
    run_seeds = [variants[r].noise_seed for r in noised]
    streams = list(dict.fromkeys(run_seeds))
    stream_of = np.array([streams.index(s) for s in run_seeds], dtype=np.intp)
    noise_rngs = [np.random.default_rng(noise_ss if s is None else s) for s in streams]
    noise_scale = np.array([sigmas[r] * C for r in noised])[:, None]
    noise = np.empty((len(streams), DRAW_BLOCK, P))
    excluded = np.array([-1 if v.exclude_index is None else v.exclude_index for v in variants])
    # the first layer's input is the batch itself, so its per-example |x|^2 + 1
    # (the bias column) is one table over the dataset
    input_factor = _reduce_last(np.add, dataset.features * dataset.features) + 1.0

    state = OptimizerState.init(np.tile(init_theta(spec, seed=config.seed), (R, 1)))
    params = _unpack(spec, state.theta)  # views: optimizer_step updates state.theta in place
    # the step's clipped sum, written through each layer's weight and bias views
    grad = np.empty((R, P))
    grad_views = _unpack(spec, grad)
    grad_layers = [(W.reshape(R, -1), b) for W, b in zip(grad_views[::2], grad_views[1::2])]
    lrs = [lr_at(step, config) for step in range(1, T + 1)]
    losses = np.empty((T, R))
    accuracies = np.empty((T, R))
    p_true_block = np.empty((DRAW_BLOCK, B, R))
    hit_block = np.empty((DRAW_BLOCK, B, R), dtype=bool)
    snapshots: list[tuple[int, float, np.ndarray]] = []
    tiny = np.finfo(np.float64).tiny

    for step in range(1, T + 1):
        j = (step - 1) % DRAW_BLOCK
        if j == 0:  # the next block's draws; each generator's stream continues exactly
            n = min(DRAW_BLOCK, T - step + 1)
            idx = np.stack([batch_rng.choice(N, size=B, replace=False) for _ in range(n)])
            X_block = dataset.features[idx]  # (n, B, d)
            y_block = dataset.labels[idx]
            y_col_block = y_block[:, :, None]
            keep_block = idx[:, :, None] != excluded  # (n, B, R)
            count_block = keep_block.sum(axis=1)
            factor_block = input_factor[idx][:, :, None]
            full = count_block.all(axis=1)
            first_empty = int(np.argmin(full)) if not full.all() else DRAW_BLOCK
            for r, rng in enumerate(noise_rngs):
                rng.standard_normal(out=noise[r, :n])
        if j == first_empty:
            raise EmptyBatchError(
                f"step {step}: run {int(np.argmin(count_block[j]))} excludes every example of its batch"
            )
        keep, count = keep_block[j], count_block[j]
        probs, p_true, layers = _backward(spec, params, X_block[j], y_block[j])
        p_true_block[j] = p_true
        np.equal(probs.argmax(axis=2), y_col_block[j], out=hit_block[j])

        # (B, R) squared norms; deeper layers' inputs are per run
        (d, _), *deeper = layers
        norm_sq = _reduce_last(np.add, d * d) * factor_block[j]
        for d, a in deeper:
            norm_sq += _reduce_last(np.add, d * d) * (_reduce_last(np.add, a * a) + 1.0)
        scale = np.minimum(1.0, C / np.maximum(np.sqrt(norm_sq), tiny))
        scale = (scale * keep)[:, :, None]
        for (d, a), (weights, bias) in zip(layers, grad_layers):
            clipped = d * scale
            weights[...] = _outer_sum(clipped, a)
            clipped.sum(axis=0, out=bias)
        if noised.size:
            grad[noised] += noise_scale * noise[stream_of, j]
        grad /= count[:, None]

        eta = lrs[step - 1]
        optimizer_step(state, grad, eta, config)
        if not np.isfinite(state.theta).all():
            # a nan probability makes both the run's loss and its parameters
            # nan at this step (the loss itself is at most -log(tiny)), so the
            # loss needs reading only here, to name the cause
            loss = _mean_loss(p_true, keep, count)
            if np.isnan(loss).any():
                r = int(np.argmax(np.isnan(loss)))
                raise DivergenceError(step, f"loss = {loss[r]}{_which_run(variants, r)}")
            r = int(np.argmin(np.isfinite(state.theta).all(axis=1)))
            raise DivergenceError(step, f"non-finite parameters{_which_run(variants, r)}")

        if j == n - 1:  # the block's last step: its losses and accuracies
            rows = slice(step - n, step)
            losses[rows] = _mean_loss(p_true_block[:n], keep_block, count_block)
            hits = hit_block[:n]
            hits &= keep_block
            accuracies[rows] = hits.sum(axis=1) / count_block
        if step % config.checkpoint_interval == 0:
            snapshots.append((step, eta, state.theta.copy()))

    return [
        TrainResult(
            theta=state.theta[r].copy(),
            checkpoints=[Checkpoint(step=s, theta=th[r].copy(), eta=eta) for s, eta, th in snapshots],
            sigma=sigmas[r],
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
    probs, _ = _forward_batch(spec, _unpack(spec, theta), dataset.features)
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
