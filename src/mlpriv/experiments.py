"""End-to-end desk-scale experiments tying compression, privacy, and influence.

Three named experiments:

* ``theorem2``  — a fully compressed parallel set must give identical
  per-language losses (zero fairness variance), perfect compression metric
  aggregates, and influence uniformity 1 for every tuple.
* ``theorem1``  — stronger DP noise makes training-data influence less
  sparse: the median softmax mass on a planted outlier's influence strictly
  shrinks as the noise multiplier grows (the pass gate). The median
  leave-one-out interpretability margin is estimated and reported alongside;
  in this convex desk-scale setting it moves with the outlier's relative
  persistence rather than monotonically with noise, so it informs but does
  not gate the verdict.
* ``fig2-correlation`` — across compression levels, mean retrieval
  precision and mean influence uniformity are strongly positively
  correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import metrics
from .errors import InvalidConfigError, UndefinedMarginError
from .influence import (
    CheckpointSet,
    infu_from_scores,
    interpretability_margin,
    loo_probabilities,
    tuple_grams,
)
from .synth import SynthSpec, _flatten, gen_classification_data, gen_parallel_set, plant_outlier
from .trainer import (
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    TrainResult,
    Variant,
    evaluate,
    train_many,
    _softmax,
)


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    rows: list[dict]  # per-seed / per-point records for the CSV


def _train_config(
    base_lr: float, total_steps: int, batch_size: int, seed: int, examples: int
) -> TrainConfig:
    """An experiment's training config, the trainer's defaults otherwise, for
    a dataset of ``examples`` examples (tuples x num_languages); its
    influence reads checkpoints, and the one at the last step has learning
    rate 0, so training must run past the first one."""
    config = TrainConfig(base_lr=base_lr, total_steps=total_steps, batch_size=batch_size, seed=seed)
    if total_steps <= config.checkpoint_interval:
        raise InvalidConfigError(
            f"total_steps = {total_steps} must run past the first checkpoint "
            f"at step {config.checkpoint_interval}"
        )
    if batch_size > examples:
        raise InvalidConfigError(
            f"the batch size {batch_size} exceeds the {examples} examples of "
            "tuples x num_languages"
        )
    return config


def _trained_grams(dataset: LabeledDataset, model: ModelSpec, config: TrainConfig,
                   sigmas: tuple[float, ...]) -> tuple[list[TrainResult], list[np.ndarray]]:
    """The full-data run at each noise multiplier of ``sigmas``, all from one
    log-free ``train_many`` call, and each run's ``tuple_grams`` over its
    last three checkpoints: one (tuples, |L|, |L|) TracInCP Gram per run."""
    variants = [Variant(noise_multiplier=s) for s in sigmas]
    runs = train_many(dataset, model, config, variants, log_steps=False)
    return runs, [tuple_grams(dataset, CheckpointSet.last_k(run.checkpoints, 3), model)
                  for run in runs]


def _distinct_seeds(seeds: list[int]) -> list[int]:
    """``seeds``, which a seed-grid experiment checks before any training:
    an empty list or a repeated seed raises ``InvalidConfigError``."""
    if not seeds:
        raise InvalidConfigError("need at least one seed")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise InvalidConfigError(f"seed {repeated[0]} is repeated in seeds")
    return seeds


# ---------------------------------------------------------------------------
# theorem2: perfect compression => fairness + uniform influence
# ---------------------------------------------------------------------------

THEOREM2_TOL = 1e-9  # how far from 1 the metric aggregates and InfU may be


def _compression_cell(num_languages: int, tuples: int, dim: int, seed: int, total_steps: int,
                      compression: float, base_lr: float, metric_names: tuple[str, ...]):
    """One compression level at one seed, shared by theorem2 and fig2: the
    parallel set's aggregate of each of ``metric_names``, then the linear
    model's sigma = 0 run on the same set flattened into classification
    data, read as its per-language losses and every tuple's InfU."""
    spec = SynthSpec(num_languages=num_languages, tuples=tuples, dim=dim,
                     compression=compression, seed=seed)
    embedding_set, labels = gen_parallel_set(spec)
    dataset = _flatten(embedding_set, labels)
    config = _train_config(base_lr, total_steps, 32, seed, len(dataset))
    aggregates = {m: metrics.pairwise_report(embedding_set, m).aggregate for m in metric_names}

    model = ModelSpec(input_dim=dim, hidden_dim=0, num_classes=spec.classes)
    (run,), (gram,) = _trained_grams(dataset, model, config, (0.0,))
    _, per_language = evaluate(run.theta, model, dataset)
    return aggregates, per_language, [infu_from_scores(scores) for scores in gram]


def run_theorem2(
    num_languages: int = 4,
    tuples: int = 200,
    dim: int = 8,
    seed: int = 0,
    total_steps: int = 300,
) -> ExperimentResult:
    aggregates, per_language, infu_values = _compression_cell(
        num_languages, tuples, dim, seed, total_steps, compression=1.0, base_lr=0.1,
        metric_names=("retrieval", "cka", "rsa"),
    )
    loss_variance, loss_gap = metrics.linguistic_fairness_gap(per_language)
    passed = (
        loss_variance == 0.0
        and all(abs(v - 1.0) <= THEOREM2_TOL for v in aggregates.values())
        and all(abs(u - 1.0) <= THEOREM2_TOL for u in infu_values)
    )
    rows = [{"tuple_index": i, "infu": format(u, ".17g")} for i, u in enumerate(infu_values)]
    summary = {
        "loss_variance": loss_variance,
        "loss_gap": loss_gap,
        "min_infu": min(infu_values),
        **{f"{m}_aggregate": v for m, v in aggregates.items()},
    }
    return ExperimentResult("theorem2", passed, summary, rows)


# ---------------------------------------------------------------------------
# theorem1: privacy vs influence sparsity
# ---------------------------------------------------------------------------

THEOREM1_SIGMAS = (0.0, 0.5, 2.0)
THEOREM1_LOO_NOISE_SEEDS = 10  # noise seeds averaged per leave-one-out probability at sigma > 0
THEOREM1_LOO_CANDIDATES = 8  # top self-influence points searched for the dominant removal


def planted_influence_margin(gram: np.ndarray, planted_index: int) -> float:
    """Max softmax probability in the planted example's influence vector:
    its anchor row of its tuple's profile in the tuple-major TracInCP Gram
    (G, L, L) of a cell's full-data run."""
    L = gram.shape[1]
    return float(_softmax(gram[planted_index // L, planted_index % L][:, None]).max())


def loo_margins(
    dataset: LabeledDataset,
    planted_index: int,
    model: ModelSpec,
    config: TrainConfig,
    cells: list[tuple[float, np.ndarray, list[int] | None]],
) -> list[float | None]:
    """Interpretability margin from the LOO oracle at the planted point, one
    per cell (sigma, gram, noise_seeds).

    p is the full-data probability of the planted example's class at the
    planted point. The dominant example (p_d) and runner-up (p_2) are the
    two training points whose coupled leave-one-out removal lowers that
    probability the most, searched over the planted example plus the top
    THEOREM1_LOO_CANDIDATES points by self-influence: the diagonal of the
    cell's tuple-major Gram over its full-data run's checkpoints. That
    diagonal can differ from one-example (L = 1) Grams by rounding, which
    matters only where it reorders the shortlist. Each probability is
    averaged over the cell's noise seeds (one run when None) and trained at
    the cell's sigma on config's batch stream; all cells' retrains are one
    ``train_many`` call. A cell's margin is None when no two removals lower
    the probability (the margin premise fails).
    """
    variants, shapes = [], []  # each cell's runs, (exclusions, noise seeds) in C order
    for sigma, gram, noise_seeds in cells:
        self_inf = np.einsum("gii->gi", gram).ravel()
        ranked = sorted(zip(self_inf.tolist(), range(len(dataset))), reverse=True)
        shortlist = {i for _, i in ranked[:THEOREM1_LOO_CANDIDATES]} | {planted_index}
        exclusions, seeds = [None, *sorted(shortlist)], noise_seeds or [None]
        variants += [Variant(e, ns, sigma) for e in exclusions for ns in seeds]
        shapes.append((len(exclusions), len(seeds)))
    probs = loo_probabilities(
        dataset, model, config, variants,
        dataset.features[planted_index], int(dataset.labels[planted_index]),
    )
    margins = []
    for block, shape in zip(np.split(probs, np.cumsum(np.prod(shapes, axis=1))[:-1]), shapes):
        cell = block.reshape(shape).mean(axis=1)
        p_d, p_2 = sorted(cell[1:])[:2]
        try:
            margins.append(interpretability_margin(cell[0], p_d, p_2))
        except UndefinedMarginError:
            margins.append(None)
    return margins


def _theorem1_rows(seed: int, model: ModelSpec, num_languages: int, tuples: int,
                   magnitude: float, total_steps: int, batch_size: int, base_lr: float,
                   include_loo: bool) -> list[dict]:
    """One seed's rows, one per sigma of THEOREM1_SIGMAS in order: the
    planted margin, and with ``include_loo`` the LOO margin ``epsilon_i``
    (empty where it is undefined), each formatted ``.17g``."""
    spec = SynthSpec(num_languages=num_languages, tuples=tuples, dim=model.input_dim,
                     classes=model.num_classes, compression=0.5, seed=seed)
    dataset, planted = plant_outlier(gen_classification_data(spec), magnitude=magnitude,
                                     seed=seed + 10_000, orthogonal=False)
    config = _train_config(base_lr, total_steps, batch_size, seed, len(dataset))
    _, grams = _trained_grams(dataset, model, config, THEOREM1_SIGMAS)
    rows = [{"seed": seed, "sigma": sigma,
             "margin": format(planted_influence_margin(gram, planted), ".17g")}
            for sigma, gram in zip(THEOREM1_SIGMAS, grams)]
    if include_loo:
        noise_seeds = [seed * 1000 + j for j in range(THEOREM1_LOO_NOISE_SEEDS)]
        loo = loo_margins(dataset, planted, model, config, [
            (sigma, gram, None if sigma == 0.0 else noise_seeds)
            for sigma, gram in zip(THEOREM1_SIGMAS, grams)
        ])
        for row, margin_eps in zip(rows, loo):
            row["epsilon_i"] = "" if margin_eps is None else format(margin_eps, ".17g")
    return rows


def _theorem1_summary(rows: list[dict]) -> tuple[bool, dict]:
    """The verdict and summary from the rows alone, their ``.17g`` cells read
    back bit for bit: per sigma, the median margin and, when the rows have
    ``epsilon_i``, the median of its non-empty cells (nan when none)."""
    def median(key, sigma):
        values = [float(r[key]) for r in rows if r["sigma"] == sigma and r[key] != ""]
        return float(np.median(values)) if values else math.nan

    summary = {f"median_{key}_sigma_{s}": median(key, s)
               for key in ("margin", "epsilon_i") if key in rows[0] for s in THEOREM1_SIGMAS}
    ordered = [summary[f"median_margin_sigma_{s}"] for s in THEOREM1_SIGMAS]
    return all(a > b for a, b in zip(ordered, ordered[1:])), summary


def run_theorem1(
    seeds: list[int] | None = None,
    num_languages: int = 4,
    tuples: int = 16,
    dim: int = 8,
    classes: int = 3,
    magnitude: float = 6.0,
    total_steps: int = 300,
    batch_size: int = 16,
    base_lr: float = 0.05,
    include_loo: bool = True,
) -> ExperimentResult:
    """Per seed, one ``train_many`` call trains the full-data run at every
    sigma, one TracInCP Gram per sigma reads that run's last three
    checkpoints, and one more ``train_many`` call makes every sigma's
    leave-one-out retrains."""
    model = ModelSpec(input_dim=dim, hidden_dim=0, num_classes=classes)
    rows = []
    for seed in _distinct_seeds(list(range(20)) if seeds is None else seeds):
        rows += _theorem1_rows(seed, model, num_languages, tuples, magnitude, total_steps,
                               batch_size, base_lr, include_loo)
    passed, summary = _theorem1_summary(rows)
    return ExperimentResult("theorem1", passed, summary, rows)


# ---------------------------------------------------------------------------
# fig2-correlation: retrieval precision vs influence uniformity
# ---------------------------------------------------------------------------

LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
FIG2_THRESHOLD = 0.8  # the Pearson r the experiment must reach


def run_fig2_correlation(
    seeds: list[int] | None = None,
    num_languages: int = 4,
    tuples: int = 40,
    dim: int = 8,
    total_steps: int = 300,
    base_lr: float = 1.0,
) -> ExperimentResult:
    seeds = _distinct_seeds(list(range(10)) if seeds is None else seeds)
    rows = []
    for lam in LAMBDA_GRID:
        for seed in seeds:
            aggregates, _, infu_values = _compression_cell(
                num_languages, tuples, dim, seed, total_steps, lam, base_lr, ("retrieval",)
            )
            rows.append({
                "lambda": lam, "seed": seed,
                "retrieval": format(aggregates["retrieval"], ".17g"),
                "infu": format(float(np.mean(infu_values)), ".17g"),
            })
    # Pearson r over the rows, read back bit for bit from their .17g cells
    r = float(np.corrcoef([[float(row[k]) for row in rows] for k in ("retrieval", "infu")])[0, 1])
    passed = r >= FIG2_THRESHOLD
    return ExperimentResult("fig2-correlation", passed, {"pearson_r": r, "points": len(rows)}, rows)


EXPERIMENTS = {
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "fig2-correlation": run_fig2_correlation,
}
