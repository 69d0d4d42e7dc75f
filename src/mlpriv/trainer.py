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
from functools import lru_cache
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
U32_MAX = 2**32 - 1  # CKPT1 stores the step and the parameter count as u32

DRAW_BLOCK = 32  # steps whose batches are gathered and Gaussian noise drawn at once
# steps whose batch draws _batch_schedule makes in one call: at B = 64 the
# (2048, 127) int64 draws and their slot-major copy, 2.1 MB each, whatever T is
SCHEDULE_CHUNK = 2048

INIT_SCALE = 0.1  # standard deviation of the Gaussian initial parameters

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _is_int(value) -> bool:
    """A Python or numpy integer; bool is not one. An exact int, the common
    case, is tested first: it skips the two ABC checks, which cost several
    times more, in every label ``influence_profile`` checks."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _check_ints(obj, names, error) -> None:
    """Raise ``error`` naming the first of obj's fields ``names`` that is not an integer."""
    for name in names:
        if not _is_int(getattr(obj, name)):
            raise error(f"{name} must be an integer, got {getattr(obj, name)!r}")


def _is_real(value) -> bool:
    """A Python or numpy real number; bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_seed(value) -> bool:
    """A nonnegative integer, the seeds numpy's generators take."""
    return _is_int(value) and value >= 0


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
        _check_ints(self, ("input_dim", "hidden_dim", "num_classes"), InvalidConfigError)
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
        _check_ints(self, ("total_steps", "batch_size", "warmup_steps", "checkpoint_interval"),
                    InvalidConfigError)
        if self.total_steps > U32_MAX:
            raise InvalidConfigError(
                f"total_steps must be at most {U32_MAX} (a checkpoint stores its step as u32),"
                f" got {self.total_steps}"
            )
        reals = ["base_lr", "clip_threshold", "noise_multiplier", "weight_decay", "delta"]
        if self.target_epsilon is not None:
            reals.append("target_epsilon")
        for name in reals:
            if not _is_real(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be a real number, got {getattr(self, name)!r}")
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
        if not 0.0 < self.delta < 1.0:
            raise InvalidConfigError(f"delta must be in (0, 1), got {self.delta}")
        if self.target_epsilon is not None and not self.target_epsilon > 0:  # nan fails too
            raise InvalidConfigError(
                f"target_epsilon must be > 0 (inf means non-private), got {self.target_epsilon}"
            )


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
    """One run's outputs; losses and accuracies are None for a run of
    ``train_many(..., log_steps=False)``, which forms no per-step log."""

    theta: np.ndarray
    checkpoints: list[Checkpoint]
    sigma: float
    lrs: list[float]                # per step, steps 1..T
    losses: np.ndarray | None       # (T,) mean loss over the batch kept at each step
    accuracies: np.ndarray | None   # (T,)


def init_theta(spec: ModelSpec, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return INIT_SCALE * rng.standard_normal(spec.num_params)


def _unpack(spec: ModelSpec, theta: np.ndarray):
    """Layer views of a parameter stack (R, P): weights (R, n, k), then bias (R, n), per layer."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2 or theta.shape[1] != spec.num_params:
        raise ShapeMismatchError(f"theta has {theta.shape}, spec needs (R, {spec.num_params})")
    views, o = [], 0
    for n, k in [(c, d)] if h == 0 else [(h, d), (c, h)]:
        views += [theta[:, o : o + n * k].reshape(-1, n, k), theta[:, o + n * k : o + n * k + n]]
        o += n * k + n
    return tuple(views)


def _hits(probs: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Whether each example's label is its most probable class, the lowest
    index winning ties as in numpy's argmax: probs (c, ..., B), labels (B,);
    written into ``out`` when one is given."""
    return np.equal(probs.argmax(axis=0), y, out=out)


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over axis 0, the class axis of the (c, ..., B) layout, into a
    new array, or into ``out`` (which may be ``logits``). numpy reduces an
    axis that is not innermost as a left fold over whole slices, so each
    column of a stack has the bits of the same column alone."""
    out = np.subtract(logits, np.maximum.reduce(logits), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out)
    return out


def _dense(W: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """W @ inputs for a stack of weights (R, n, k): inputs (k, B) shared by
    every run, or (k, R, B) per run, give (n, R, B)."""
    if inputs.ndim == 2:  # shared inputs: one matrix product over every run's rows
        # (a copy of the weights when R > 1); from two examples on, OpenBLAS
        # rounds a run's logits the same wherever the run sits in the stack
        return (W.transpose(1, 0, 2).reshape(-1, W.shape[2]) @ inputs).reshape(W.shape[1], len(W), -1)
    # one product per run; the copy to unit-major is free for a lone run
    return np.ascontiguousarray((W @ inputs.transpose(1, 0, 2)).transpose(1, 0, 2))


def _forward_batch(spec: ModelSpec, params: tuple, XT: np.ndarray):
    """Returns (probs, hidden activations or None) for the layer views
    ``params`` of ``_unpack`` and the batch's inputs as columns, XT (d, B):
    (c, R, B) and (h, R, B), units first, then runs, then examples. A bias
    stack (R, n) is added as b.T[..., None], (n, R, 1)."""
    A = None
    if spec.hidden_dim:
        A = _dense(params[0], XT)
        A += params[1].T[..., None]
        np.tanh(A, out=A)
    logits = _dense(params[-2], XT if A is None else A)
    logits += params[-1].T[..., None]
    return _softmax(logits, out=logits), A


def _one_theta(spec: ModelSpec, theta: np.ndarray) -> np.ndarray:
    """theta as one float64 parameter vector (P,); any other shape raises ShapeMismatchError."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.num_params,):
        raise ShapeMismatchError(f"theta has {theta.shape}, spec needs ({spec.num_params},)")
    return theta


def _forward_one(spec: ModelSpec, theta: np.ndarray, XT: np.ndarray) -> np.ndarray:
    """Class probabilities (c, B) of one parameter vector (P,), as a stack of
    one; ``evaluate``'s forward pass. The event-probability readouts take
    the per-run inputs of ``influence._event_probabilities`` instead."""
    return _forward_batch(spec, _unpack(spec, _one_theta(spec, theta)[None]), XT)[0][:, 0]


def _backward(spec: ModelSpec, params: tuple, XT: np.ndarray, Y: np.ndarray):
    """Forward pass plus every dense layer's (d, a) pair, in parameter order.

    XT (d, B) holds the batch's inputs as columns and Y (c, 1, B) their
    one-hot labels, with a run axis to broadcast over. Returns (probs,
    layers): layers is [(delta, XT)] for the linear model and [(dZ, XT),
    (delta, A)] for the tanh model, where d is the loss derivative at the
    layer's output (delta = dloss/dlogits = probs - Y, dZ = dloss/d(hidden
    pre-activation)) and a is the layer's input (A = hidden activations).
    ``params`` are ``_unpack``'s layer views and shapes follow
    ``_forward_batch``, (n, R, B) for a stack of R.
    A layer's parameters are its row-major weights, then its bias, and its
    per-example gradient is outer(d, [a; 1]): weights outer(d, a), bias d.
    """
    probs, A = _forward_batch(spec, params, XT)
    delta = probs - Y  # the bits of p_y - 1 and p
    if spec.hidden_dim == 0:
        return probs, [(delta, XT)]
    dZ = _dense(params[2].swapaxes(-1, -2), delta)
    dZ *= 1.0 - A**2
    return probs, [(dZ, XT), (delta, A)]


@lru_cache(maxsize=8)
def _one_hot(c: int) -> np.ndarray:
    """The read-only (c, c) identity, whose column k is class k's one-hot
    label; shared by every call with the same class count."""
    eye = np.eye(c)
    eye.flags.writeable = False
    return eye


def _check_dataset(dataset: LabeledDataset, spec: ModelSpec) -> np.ndarray:
    """The dataset's labels, once its rows and labels fit the model."""
    if spec.input_dim != dataset.features.shape[1]:
        raise ShapeMismatchError("model input_dim does not match dataset")
    return _check_labels(dataset.labels, spec, (len(dataset),))


def _check_labels(y, spec: ModelSpec, shape: tuple) -> np.ndarray:
    """Labels of the given shape as an integer array with every entry in [0, num_classes)."""
    y = np.asarray(y)
    if y.shape != shape:
        raise ShapeMismatchError(f"labels have {y.shape}, expected {shape}")
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


@lru_cache(maxsize=16)  # fig2 keeps 10 seeds' schedules alive across its λ loop
def _batch_schedule(seed: int, N: int, B: int, T: int) -> np.ndarray:
    """The batch stream of ``train_many``: row t - 1 holds step t's B
    example indices, one ``choice(N, B, replace=False)`` per step from the
    stream spawned off ``seed``, drawn in step order. Read-only (T, B), in
    the smallest unsigned type that holds N - 1, and shared by every call
    with the same key.

    For N <= 10,000 or B <= N // 50, numpy 2.4's ``choice`` is Floyd's
    sampling, one bounded draw ``integers(0, j + 1)`` for each j = N - B,
    ..., N - 1 (a value already taken becomes j), then a Fisher-Yates
    shuffle, one ``integers(0, i + 1)`` for each i = B - 1, ..., 1 (swap
    slots i and the draw). No bound depends on an earlier draw, so when
    B <= 64 and T >= 2 (B + 1) the schedule makes every step's 2B - 1 draws
    in one ``integers`` call per SCHEDULE_CHUNK steps, which reads the
    generator as the per-step calls do, and applies both rules a slot at a
    time to all of the chunk's steps at once (``_floyd_shuffle``). The rows
    are the per-step calls' bytes. Smaller T or larger B keep one ``choice``
    per step, which was the faster at those shapes; B <= 64 also keeps
    numpy's other branch, a partial shuffle of range(N) for N > 10,000 and
    B > N // 50 > 200, on the per-step path."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    schedule = np.empty((T, B), dtype=np.min_scalar_type(N - 1))
    if B > 64 or T < 2 * (B + 1):
        for row in schedule:
            row[:] = rng.choice(N, size=B, replace=False)
    else:
        bounds = np.r_[N - B + 1 : N + 1, B : 1 : -1]  # Floyd's j + 1, then the shuffle's i + 1
        for start in range(0, T, SCHEDULE_CHUNK):
            rows = schedule[start : start + SCHEDULE_CHUNK]
            draws = rng.integers(0, np.broadcast_to(bounds, (len(rows), 2 * B - 1)))
            rows[:] = _floyd_shuffle(draws, N)
    schedule.flags.writeable = False
    return schedule


def _floyd_shuffle(draws: np.ndarray, N: int) -> np.ndarray:
    """The (m, B) samples of m steps from their bounded draws (m, 2B - 1):
    Floyd's picks from the first B columns, then the Fisher-Yates swaps of
    the other B - 1, each rule applied one slot at a time to every step."""
    m, B = len(draws), (draws.shape[1] + 1) // 2
    draws = draws.T.copy()  # slot-major: each slot's m steps are one contiguous row
    picks, swaps = draws[:B], draws[B:]
    for k in range(1, B):  # Floyd: a value an earlier slot took becomes this slot's j
        np.putmask(picks[k], (picks[:k] == picks[k]).any(axis=0), N - B + k)
    swaps *= m
    swaps += np.arange(m)  # each swap's partner as a flat position, slot * m + step
    flat = picks.reshape(-1)
    for i, partner in zip(range(B - 1, 0, -1), swaps):
        swapped = flat[partner]
        flat[partner] = picks[i]
        picks[i] = swapped
    return picks.T


def _keep_and_count(idx: np.ndarray, excluded_u: np.ndarray,
                    u_of_run: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep masks (n, R, B) and kept counts (n, R, 1) of the batches idx
    (n, B) for runs excluding excluded_u[u_of_run] (R,), where N, which is
    never drawn, stands for no exclusion. Each distinct excluded example is
    looked up once, in an (n, E, B) table of the slots it fills: a run drops
    every one of them and counts the rest."""
    hit = idx[:, None, :] == excluded_u[:, None]
    keep = np.take(hit, u_of_run, axis=1)
    np.logical_not(keep, out=keep)
    # float64 counts, exact for any batch: the step divides by them uncast
    kept = idx.shape[1] - hit.sum(axis=2, dtype=np.float64)
    return keep, kept[:, u_of_run, None]


def _nll(p: np.ndarray) -> np.ndarray:
    """The cross-entropy -log(max(p, tiny)) of labels with probabilities p,
    written over p; at most -log(tiny), and nan where p is nan."""
    np.maximum(p, np.finfo(np.float64).tiny, out=p)
    np.log(p, out=p)
    return np.negative(p, out=p)


def _kept_mean(values: np.ndarray, keep: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each run's mean over the entries it kept, (..., R): values and keep
    (..., R, B), the kept counts (..., R, 1). The dropped entries of values
    are zeroed in place, so an excluded example's nan stays out. Every run's
    B entries are one contiguous row summed on its own as float64, so a
    step, a block, a lone run and a row of any stack give the same bits, and
    a count of 0/1 flags is exact."""
    values[~keep] = 0
    return values.sum(axis=-1, dtype=np.float64) / count[..., 0]


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
        if not (_is_real(s) and math.isfinite(s) and s >= 0):
            raise InvalidConfigError(f"per-run noise_multiplier must be finite and >= 0, got {s!r}")
    sigma = resolve_sigma(config, dataset_size)
    return [sigma if v.noise_multiplier is None else v.noise_multiplier for v in variants]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # failures are found from theta
def train_many(
    dataset: LabeledDataset,
    spec: ModelSpec,
    config: TrainConfig,
    variants: list[Variant | tuple],
    *,
    log_steps: bool = True,
) -> list[TrainResult]:
    """Train one coupled run per variant (exclude_index, noise_seed,
    noise_multiplier) at once; a shorter tuple leaves the rest None.

    Row r equals ``train(dataset, spec, replace(config, noise_multiplier=s),
    exclude_index=e)`` for variants[r] = (e, None, s) to rounding (1e-12),
    with s = None keeping the config's sigma; a noise seed ns in place of
    None only swaps the noise stream. Only the 1e-12 is guaranteed. With
    numpy's bundled OpenBLAS 0.3.31 on its SkylakeX kernels (its choice on
    an AVX-512 CPU) and two or more examples per batch every output also
    matched byte for byte: at theorem1's sizes no row of stacks of 1 to 260
    runs differed from its lone run, since each run's logits and clipped
    sums are entries of matrix products these kernels round the same
    wherever the run sits. A training batch of one may not match: it takes
    a matrix-vector path, and a lone run's sum over 8 or more units is then
    numpy's pairwise sum along the innermost axis where a stack's is a left
    fold. The readout of ``influence.loo_probabilities`` also forms one
    example per run, but as each run's own (c, d) @ (d, 1) product with a
    softmax over the class axis (``_dense``'s per-run branch), so a run's
    entry there has the bytes of the same θ read alone (checked on the
    SkylakeX, Haswell, Zen, Nehalem, Prescott and SandyBridge kernels).
    Forced onto its Haswell, Zen or Prescott kernels the stacked losses
    differ, and on Nehalem a stacked linear run's θ too; at d = 8, B = 6
    or 16 and 8 noisy runs a stacked linear θ differed on all four. Row
    r's θ and checkpoint parameters are row r of the call's (R, P) arrays,
    views that share no memory with another row's. All runs
    share the initial parameters and one batch draw per step; a run's
    excluded example is masked out of each batch that holds it and its
    gradient mean divides by the examples it kept. A sigma = 0 run draws no
    noise. Runs with sigma > 0 draw from one generator per distinct noise
    seed (their own, else a stream spawned off config.seed): runs that share
    a seed read the same draws, exactly as they would with a generator each.
    Each block's normals are scaled once per distinct (seed, sigma * C)
    pair into a (DRAW_BLOCK, pairs, P) table, and a step adds each noised
    run's pair row to its gradient row, through a slice when the noised
    rows are contiguous and through their index otherwise. Per-example
    gradients are never formed: for each (d, a) layer pair of
    ``_backward`` the gradient is outer(d, [a; 1]), whose norm is
    |d| * sqrt(|a|^2 + 1) (Goodfellow 2015, arXiv 1510.01799), so the clip
    factors come from per-unit sums of squares and the clipped sum of each
    layer is one matrix product. Activations are unit-major with the
    examples last, (n, R, B), so those sums and the softmax reduce over
    axis 0 through contiguous R * B slices, and the parameters stay (R, P).
    Each step does only the work that updates the parameters; it writes its
    softmax, clip factors and clipped δ over its own temporaries, and its
    hit flags straight into the block's buffer. The batches
    are read from ``_batch_schedule``, drawn once per (seed, N, B, T) as the
    stream of one ``choice(N, B, replace=False)`` per step, in one
    vectorized pass where that is the faster, and shared by every call with
    that key. At a block's first step the loop gathers its DRAW_BLOCK
    batches, forms their keep masks and kept counts from one lookup of the
    distinct excluded examples, each run dropping every slot its example
    fills (``_keep_and_count``), and draws its noise in the order one draw
    per step would take it; at its last step one masked mean over the kept
    examples (``_kept_mean``) folds the losses of the label probabilities
    and the hits its steps stored, as it folds a diverging step's loss. With
    log_steps=False no step stores them and every row's losses and
    accuracies are None; the parameters, checkpoints, lrs and sigma keep
    their bytes, since the log never feeds back into training. A step tests
    only its parameters: an empty batch (its mean divides by 0) or a nan
    loss makes them non-finite at the same step, and is then named, with or
    without the log.
    """
    for v in variants:
        if not isinstance(v, tuple) or len(v) > 3:
            raise InvalidConfigError(f"a variant must be a tuple of at most 3 fields, got {v!r}")
    variants = [Variant(*v) for v in variants]
    N = len(dataset)
    if not variants:
        raise InvalidConfigError("need at least one variant")
    if config.batch_size > N:
        raise InvalidConfigError(f"batch_size {config.batch_size} exceeds the dataset's {N} examples")
    _check_dataset(dataset, spec)
    for v in variants:
        e = v.exclude_index
        if e is not None and not _is_int(e):
            raise InvalidConfigError(f"exclude_index must be an integer or None, got {e!r}")
        if e is not None and not 0 <= e < N:
            raise ExcludeIndexError(f"exclude_index {e} out of range")
        if v.noise_seed is not None and not _is_seed(v.noise_seed):
            raise InvalidConfigError(
                f"per-run noise_seed must be a nonnegative integer or None, got {v.noise_seed!r}"
            )
    sigmas = _run_sigmas(variants, config, N)
    C, B, T = config.clip_threshold, config.batch_size, config.total_steps
    R, P = len(variants), spec.num_params

    schedule = _batch_schedule(config.seed, N, B, T)
    _, noise_ss = np.random.SeedSequence(config.seed).spawn(2)
    noised = np.flatnonzero(np.array(sigmas) > 0)  # an array: a list index is converted each step
    # each distinct (effective noise seed, sigma * C) pair is one row of the
    # block's noise table; runs with the same seed read one generator's draws
    run_pairs = [(variants[r].noise_seed, sigmas[r] * C) for r in noised]
    pairs = list(dict.fromkeys(run_pairs))
    pair_of = np.array([pairs.index(p) for p in run_pairs], dtype=np.intp)
    stream_pairs: dict = {}
    for q, (seed, scale) in enumerate(pairs):
        stream_pairs.setdefault(seed, []).append((q, scale))
    noise_streams = [(np.random.default_rng(noise_ss if seed is None else seed), scaled)
                     for seed, scaled in stream_pairs.items()]
    draws = np.empty((DRAW_BLOCK, P))
    noise = np.empty((DRAW_BLOCK, len(pairs), P))
    # the noised rows of grad: a view when they are contiguous (theorem1's
    # stacks, a lone run), which took 4 % off theorem1-loo's wall time
    # against the index in paired benchmark runs
    if pairs and noised[-1] - noised[0] == len(noised) - 1:
        noise_rows = slice(noised[0], noised[-1] + 1)
    else:
        noise_rows = noised
    excluded_u, u_of_run = np.unique([N if v.exclude_index is None else v.exclude_index
                                      for v in variants], return_inverse=True)
    # the first layer's input is the batch itself, so its per-example |x|^2 + 1
    # (the bias column) is one table over the dataset
    features_T = np.ascontiguousarray(dataset.features.T)  # C order: the reduction folds left
    input_factor = np.add.reduce(features_T * features_T) + 1.0
    # the rows with a ones column: the first layer's clipped weight and bias
    # sums are one product
    features_1 = np.hstack([dataset.features, np.ones((N, 1))])
    one_hot = _one_hot(spec.num_classes)

    state = OptimizerState.init(np.tile(init_theta(spec, seed=config.seed), (R, 1)))
    params = _unpack(spec, state.theta)  # views: optimizer_step updates state.theta in place
    # the step's clipped sum, written through each layer's weight and bias
    # views, unit-major as the activations: (n, R, k) and (n, R)
    grad = np.empty((R, P))
    grad_views = _unpack(spec, grad)
    grad_layers = [(w.transpose(1, 0, 2), b.T) for w, b in zip(grad_views[::2], grad_views[1::2])]
    lrs = [lr_at(step, config) for step in range(1, T + 1)]
    if log_steps:  # each step's label probabilities and hits, folded at a block's last step
        losses = np.empty((T, R))
        accuracies = np.empty((T, R))
        p_true_block = np.empty((DRAW_BLOCK, R, B))
        hit_block = np.empty((DRAW_BLOCK, R, B), dtype=bool)
    snapshots: list[tuple[int, float, np.ndarray]] = []

    for step in range(1, T + 1):
        j = (step - 1) % DRAW_BLOCK
        if j == 0:  # the next block's batches and draws; each noise stream continues exactly
            idx = schedule[step - 1 : step - 1 + DRAW_BLOCK]
            n = len(idx)
            # each step's inputs as _backward and the clipped sums take them:
            # rows with the ones column (n, B, d + 1), contiguous columns
            # (n, d, B), one-hot labels with a run axis (n, c, 1, B), and the
            # kept counts (n, R, 1) that divide the clipped sums
            X1_block = features_1[idx]
            XT_block = X1_block[:, :, :-1].transpose(0, 2, 1).copy()
            y_block = dataset.labels[idx]
            Y_block = one_hot[:, None, y_block].transpose(2, 0, 1, 3).copy()
            keep_block, count_block = _keep_and_count(idx, excluded_u, u_of_run)
            factor_block = input_factor[idx]
            for rng, scaled in noise_streams:
                rng.standard_normal(out=draws[:n])
                for q, scale in scaled:
                    np.multiply(draws[:n], scale, out=noise[:n, q])
        keep, count = keep_block[j], count_block[j]
        X1, Y = X1_block[j], Y_block[j]
        probs, layers = _backward(spec, params, XT_block[j], Y)
        # p_y is the fold of p_y * 1 and the other classes' p * 0 = +0: its bits, or nan
        if log_steps:  # each example's probability of its label, and its hit
            np.add.reduce(probs * Y, out=p_true_block[j])
            _hits(probs, y_block[j], out=hit_block[j])

        # (R, B) squared norms, each a fold over the unit slices; deeper
        # layers' inputs are per run
        (d, _), *deeper = layers
        norm_sq = np.add.reduce(d * d)
        norm_sq *= factor_block[j]
        for d, a in deeper:
            a_sq = np.add.reduce(a * a)
            a_sq += 1.0
            d_sq = np.add.reduce(d * d)
            d_sq *= a_sq
            norm_sq += d_sq
        scale = np.sqrt(norm_sq, out=norm_sq)
        np.maximum(scale, C, out=scale)
        np.divide(C, scale, out=scale)  # C / max(norm, C)
        scale *= keep
        for (d, a), (weights, bias) in zip(layers, grad_layers):
            d *= scale  # clipped in place, (n, R, B): no later read needs d itself
            if a.ndim == 2:  # the shared batch: one product over every run's rows
                # (d + 1, n * R); in this orientation OpenBLAS rounds a run's
                # entries the same wherever the run sits in the stack
                sums = X1.T @ d.reshape(-1, B).T
                weights[...] = sums[:-1].reshape(-1, *bias.shape).transpose(1, 2, 0)
                bias[...] = sums[-1].reshape(bias.shape)
            else:
                np.matmul(d.transpose(1, 0, 2), a.transpose(1, 2, 0),
                          out=weights.transpose(1, 0, 2))
                d.sum(axis=2, out=bias)
        if pairs:
            grad[noise_rows] += noise[j].take(pair_of, axis=0)
        grad /= count

        eta = lrs[step - 1]
        optimizer_step(state, grad, eta, config)
        # a finite sum has only finite terms; a sum that overflowed tests each one
        if (not math.isfinite(np.add.reduce(state.theta, axis=None))
                and not np.isfinite(state.theta).all()):
            # an empty batch divides its clipped sum (0, or noise) by 0, and a nan probability
            # makes the loss nan (it is at most -log(tiny)): either makes the run's parameters
            # non-finite at this same step, even where eta = 0, so both are read only here,
            # from this step's own label probabilities whether or not the run logs
            if not count.all():
                raise EmptyBatchError(
                    f"step {step}: run {int(np.argmin(count))} excludes every example of its batch"
                )
            loss = _kept_mean(_nll(np.add.reduce(probs * Y)), keep, count)
            if np.isnan(loss).any():
                r = int(np.argmax(np.isnan(loss)))
                raise DivergenceError(step, f"loss = {loss[r]}{_which_run(variants, r)}")
            r = int(np.argmin(np.isfinite(state.theta).all(axis=1)))
            raise DivergenceError(step, f"non-finite parameters{_which_run(variants, r)}")

        if j == n - 1 and log_steps:  # the block's last step: its losses and accuracies
            rows = slice(step - n, step)
            losses[rows] = _kept_mean(_nll(p_true_block[:n]), keep_block, count_block)
            accuracies[rows] = _kept_mean(hit_block[:n], keep_block, count_block)
        if step % config.checkpoint_interval == 0:
            snapshots.append((step, eta, state.theta.copy()))

    return [  # each run's θ and checkpoints are its own rows of the call's arrays
        TrainResult(
            theta=state.theta[r],
            checkpoints=[Checkpoint(step=s, theta=th[r], eta=eta) for s, eta, th in snapshots],
            sigma=sigmas[r],
            lrs=lrs,
            losses=losses[:, r] if log_steps else None,
            accuracies=accuracies[:, r] if log_steps else None,
        )
        for r in range(R)
    ]


def evaluate(
    theta: np.ndarray, spec: ModelSpec, dataset: LabeledDataset
) -> tuple[float, dict[str, float]]:
    """Accuracy (argmax, lowest index wins ties) and per-language mean loss."""
    labels = _check_dataset(dataset, spec)
    probs = _forward_one(spec, theta, dataset.features.T)
    accuracy = float(_hits(probs, labels).mean())
    losses = _nll(probs[labels, np.arange(len(dataset))])
    per_language: dict[str, float] = {}
    tags = np.array(dataset.languages)
    for lang in dict.fromkeys(dataset.languages):  # first-seen order
        per_language[lang] = float(losses[tags == lang].mean())
    return accuracy, per_language


def write_checkpoint(path: Path | str, ckpt: Checkpoint) -> None:
    """Writes ``ckpt`` as CKPT1; a step or parameter count outside u32 raises
    FormatError before the file is opened."""
    if not (_is_int(ckpt.step) and 0 <= ckpt.step <= U32_MAX):
        raise FormatError(f"checkpoint step {ckpt.step!r} does not fit CKPT1's u32 field")
    if np.size(ckpt.theta) > U32_MAX:
        raise FormatError(f"{np.size(ckpt.theta)} parameters do not fit CKPT1's u32 count")
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
