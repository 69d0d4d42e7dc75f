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

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .errors import UndefinedMarginError
from .influence import (
    CheckpointSet,
    influence_profile,
    interpretability_margin,
    loo_probabilities,
    self_influence,
    softmax,
)
from .synth import SynthSpec, gen_classification_data, gen_parallel_set, plant_outlier
from .trainer import LabeledDataset, ModelSpec, TrainConfig, evaluate, train


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    summary: dict
    rows: list[dict]  # per-seed / per-point records for the CSV

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if self.rows:
                writer = csv.DictWriter(fh, fieldnames=list(self.rows[0].keys()))
                writer.writeheader()
                writer.writerows(self.rows)
        summary_path = Path(path).with_suffix(".summary.csv")
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["key", "value"])
            writer.writerow(["verdict", "pass" if self.passed else "fail"])
            for k, v in self.summary.items():
                writer.writerow([k, v])


def _tuple_examples(dataset: LabeledDataset, tuple_index: int, num_languages: int):
    base = tuple_index * num_languages
    return [
        (dataset.features[base + q], int(dataset.labels[base + q]))
        for q in range(num_languages)
    ]


# ---------------------------------------------------------------------------
# theorem2: perfect compression => fairness + uniform influence
# ---------------------------------------------------------------------------

def run_theorem2(
    num_languages: int = 4,
    tuples: int = 200,
    dim: int = 8,
    seed: int = 0,
    total_steps: int = 300,
    tol: float = 1e-9,
) -> ExperimentResult:
    spec = SynthSpec(
        num_languages=num_languages, tuples=tuples, dim=dim,
        compression=1.0, seed=seed,
    )
    embedding_set, _ = gen_parallel_set(spec)
    aggregates = {
        m: metrics.pairwise_report(embedding_set, m).aggregate
        for m in ("retrieval", "cka", "rsa")
    }

    dataset = gen_classification_data(spec)
    model = ModelSpec(input_dim=dim, hidden_dim=0, num_classes=spec.classes)
    config = TrainConfig(
        base_lr=0.1, total_steps=total_steps, batch_size=32, seed=seed,
        noise_multiplier=0.0,
    )
    result = train(dataset, model, config)
    _, per_language = evaluate(result.theta, model, dataset)
    loss_variance, loss_gap = metrics.linguistic_fairness_gap(per_language)

    cks = CheckpointSet.last_k(result.checkpoints, 3)
    infu_values = [
        influence_profile(i, _tuple_examples(dataset, i, num_languages), cks, model).infu
        for i in range(tuples)
    ]

    passed = (
        loss_variance == 0.0
        and all(abs(v - 1.0) <= tol for v in aggregates.values())
        and all(abs(u - 1.0) <= tol for u in infu_values)
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


def _theorem1_dataset(seed: int, num_languages: int, tuples: int, dim: int,
                      classes: int, magnitude: float, orthogonal: bool = True):
    spec = SynthSpec(
        num_languages=num_languages, tuples=tuples, dim=dim, classes=classes,
        compression=0.5, seed=seed,
    )
    dataset = gen_classification_data(spec)
    return plant_outlier(
        dataset, magnitude=magnitude, seed=seed + 10_000, orthogonal=orthogonal
    )


def planted_influence_margin(
    dataset: LabeledDataset,
    planted_index: int,
    num_languages: int,
    model: ModelSpec,
    cks: CheckpointSet,
) -> float:
    """Max softmax probability in the planted example's influence vector."""
    tuple_index = planted_index // num_languages
    anchor = planted_index % num_languages
    profile = influence_profile(
        tuple_index, _tuple_examples(dataset, tuple_index, num_languages), cks, model
    )
    return float(softmax(profile.scores[anchor]).max())


def loo_margin(
    dataset: LabeledDataset,
    planted_index: int,
    model: ModelSpec,
    config: TrainConfig,
    cks: CheckpointSet,
    noise_seeds: list[int] | None,
    candidates: int = 8,
) -> float | None:
    """Interpretability margin from the LOO oracle at the planted point.

    p is the full-data probability of the planted example's class at the
    planted point. The dominant example (p_d) and runner-up (p_2) are the
    two training points whose coupled leave-one-out removal lowers that
    probability the most, searched over the planted example plus the
    top-`candidates` points by self-influence over `cks`, the checkpoints
    of the full-data run under `config`. Returns None when no two removals
    lower the probability (the margin premise fails).
    """
    self_scores = sorted(
        (
            (self_influence((dataset.features[i], int(dataset.labels[i])), cks, model), i)
            for i in range(len(dataset))
        ),
        reverse=True,
    )
    shortlist = sorted({i for _, i in self_scores[:candidates]} | {planted_index})
    probs = loo_probabilities(
        dataset, model, config, [None, *shortlist],
        dataset.features[planted_index], int(dataset.labels[planted_index]), noise_seeds,
    )
    p = probs[0]
    p_d, p_2 = sorted(probs[1:])[:2]
    try:
        return interpretability_margin(p, p_d, p_2)
    except UndefinedMarginError:
        return None


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
    loo_noise_seeds: int = 10,
    include_loo: bool = True,
    orthogonal: bool = False,
) -> ExperimentResult:
    if seeds is None:
        seeds = list(range(20))
    model = ModelSpec(input_dim=dim, hidden_dim=0, num_classes=classes)
    rows = []
    margins = {s: [] for s in THEOREM1_SIGMAS}
    eps_i = {s: [] for s in THEOREM1_SIGMAS}
    for seed in seeds:
        dataset, planted = _theorem1_dataset(
            seed, num_languages, tuples, dim, classes, magnitude, orthogonal
        )
        for sigma in THEOREM1_SIGMAS:
            config = TrainConfig(
                base_lr=base_lr, total_steps=total_steps, batch_size=batch_size,
                seed=seed, noise_multiplier=sigma,
            )
            cks = CheckpointSet.last_k(train(dataset, model, config).checkpoints, 3)
            margin = planted_influence_margin(dataset, planted, num_languages, model, cks)
            margins[sigma].append(margin)
            row = {"seed": seed, "sigma": sigma, "margin": format(margin, ".17g")}
            if include_loo:
                noise_seeds = (
                    None if sigma == 0.0
                    else [seed * 1000 + j for j in range(loo_noise_seeds)]
                )
                margin_eps = loo_margin(dataset, planted, model, config, cks, noise_seeds)
                if margin_eps is not None:
                    eps_i[sigma].append(margin_eps)
                row["epsilon_i"] = "" if margin_eps is None else format(margin_eps, ".17g")
            rows.append(row)

    medians = {s: float(np.median(margins[s])) for s in THEOREM1_SIGMAS}
    ordered = [medians[s] for s in THEOREM1_SIGMAS]
    passed = all(a > b for a, b in zip(ordered, ordered[1:]))
    summary = {f"median_margin_sigma_{s}": medians[s] for s in THEOREM1_SIGMAS}
    if include_loo:
        eps_medians = {
            s: (float(np.median(eps_i[s])) if eps_i[s] else math.nan)
            for s in THEOREM1_SIGMAS
        }
        summary.update({f"median_epsilon_i_sigma_{s}": eps_medians[s] for s in THEOREM1_SIGMAS})
    return ExperimentResult("theorem1", passed, summary, rows)


# ---------------------------------------------------------------------------
# fig2-correlation: retrieval precision vs influence uniformity
# ---------------------------------------------------------------------------

LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def run_fig2_correlation(
    seeds: list[int] | None = None,
    lambdas: tuple[float, ...] = LAMBDA_GRID,
    num_languages: int = 4,
    tuples: int = 40,
    dim: int = 8,
    total_steps: int = 300,
    base_lr: float = 1.0,
    threshold: float = 0.8,
) -> ExperimentResult:
    if seeds is None:
        seeds = list(range(10))
    model = ModelSpec(input_dim=dim, hidden_dim=0, num_classes=2)
    rows = []
    points = []
    for lam in lambdas:
        for seed in seeds:
            spec = SynthSpec(
                num_languages=num_languages, tuples=tuples, dim=dim,
                compression=lam, seed=seed,
            )
            embedding_set, _ = gen_parallel_set(spec)
            retrieval = metrics.pairwise_report(embedding_set, "retrieval").aggregate
            dataset = gen_classification_data(spec)
            config = TrainConfig(
                base_lr=base_lr, total_steps=total_steps, batch_size=32,
                seed=seed, noise_multiplier=0.0,
            )
            result = train(dataset, model, config)
            cks = CheckpointSet.last_k(result.checkpoints, 3)
            mean_infu = float(np.mean([
                influence_profile(i, _tuple_examples(dataset, i, num_languages), cks, model).infu
                for i in range(tuples)
            ]))
            points.append((retrieval, mean_infu))
            rows.append({
                "lambda": lam, "seed": seed,
                "retrieval": format(retrieval, ".17g"),
                "infu": format(mean_infu, ".17g"),
            })
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    r = float(np.corrcoef(xs, ys)[0, 1])
    passed = r >= threshold
    return ExperimentResult(
        "fig2-correlation", passed, {"pearson_r": r, "points": len(points)}, rows
    )


EXPERIMENTS = {
    "theorem1": run_theorem1,
    "theorem2": run_theorem2,
    "fig2-correlation": run_fig2_correlation,
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    return EXPERIMENTS[name](**kwargs)
