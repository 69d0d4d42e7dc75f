"""theorem1's batched structure: two trainer calls and three TracInCP Grams
per seed that reproduce the per-cell computation built from the public
single-run API; theorem2 and fig2-correlation train each cell the same
log-free way."""

import math

import numpy as np
import pytest

from mlpriv import experiments, influence, trainer
from mlpriv.errors import InvalidConfigError, UndefinedMarginError
from mlpriv.experiments import THEOREM1_SIGMAS, run_theorem1
from mlpriv.influence import (
    CheckpointSet,
    influence_profiles,
    interpretability_margin,
    loo_probabilities,
    _tracin_gram,
)
from mlpriv.synth import SynthSpec, gen_classification_data, plant_outlier
from mlpriv.trainer import ModelSpec, TrainConfig, train, _softmax


def test_theorem1_makes_two_trainer_calls_per_seed(monkeypatch):
    """One call trains the full runs at every sigma, one makes every LOO
    retrain; neither logs per-step losses and accuracies, which theorem1
    never reads."""
    stacks, logged = [], []
    real = trainer.train_many

    def spy(dataset, spec, config, variants, **kwargs):
        stacks.append(len(variants))
        logged.append(kwargs.get("log_steps", True))
        return real(dataset, spec, config, variants, **kwargs)

    for module in (trainer, influence, experiments):
        monkeypatch.setattr(module, "train_many", spy)
    run_theorem1(seeds=[0, 1])
    assert len(stacks) == 4
    assert stacks[0] == stacks[2] == len(THEOREM1_SIGMAS)
    assert logged == [False] * 4


def test_theorem1_matches_per_cell_reference():
    """Each (seed, sigma) row equals the cell computed on its own: one train
    at that sigma, the planted tuple's profile, a self-influence shortlist
    and one LOO call per cell."""
    result = run_theorem1(seeds=[0])
    spec = SynthSpec(num_languages=4, tuples=16, dim=8, classes=3, compression=0.5, seed=0)
    dataset, planted = plant_outlier(
        gen_classification_data(spec), magnitude=6.0, seed=10_000, orthogonal=False
    )
    model = ModelSpec(input_dim=8, hidden_dim=0, num_classes=3)
    event = (dataset.features[planted], int(dataset.labels[planted]))
    assert [row["sigma"] for row in result.rows] == list(THEOREM1_SIGMAS)
    for row, sigma in zip(result.rows, THEOREM1_SIGMAS):
        cfg = TrainConfig(base_lr=0.05, total_steps=300, batch_size=16, seed=0,
                          noise_multiplier=sigma)
        cks = CheckpointSet.last_k(train(dataset, model, cfg).checkpoints, 3)

        profile = influence_profiles(dataset, cks, model)[planted // 4]
        margin = float(_softmax(profile.scores[planted % 4][:, None]).max())
        assert float(row["margin"]) == pytest.approx(margin, rel=1e-12)

        self_inf = _tracin_gram(dataset.features[:, None], dataset.labels[:, None], cks, model)
        ranked = sorted(zip(self_inf[:, 0, 0], range(len(dataset))), reverse=True)
        shortlist = sorted({i for _, i in ranked[:8]} | {planted})
        noise_seeds = [None] if sigma == 0.0 else list(range(10))  # seed * 1000 + j at seed 0
        probs = loo_probabilities(
            dataset, model, cfg, [(e, ns) for e in (None, *shortlist) for ns in noise_seeds],
            *event,
        ).reshape(-1, len(noise_seeds)).mean(axis=1)
        p_d, p_2 = sorted(probs[1:])[:2]
        try:
            expected = interpretability_margin(probs[0], p_d, p_2)
        except UndefinedMarginError:
            assert row["epsilon_i"] == ""
            continue
        assert math.isfinite(expected)
        assert float(row["epsilon_i"]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("include_loo", [True, False])
def test_theorem1_reads_one_tuple_major_gram_per_sigma_cell(monkeypatch, include_loo):
    """Per seed, three TracInCP Grams, each over every tuple (G, L, L): the
    planted margin and the LOO shortlist both read the cell's one Gram."""
    shapes = []
    real = influence._tracin_gram

    def spy(X, y, cks, spec):
        shapes.append(X.shape[:2])
        return real(X, y, cks, spec)

    monkeypatch.setattr(influence, "_tracin_gram", spy)
    run_theorem1(seeds=[0, 1], include_loo=include_loo)
    assert shapes == [(16, 4)] * 2 * len(THEOREM1_SIGMAS)


@pytest.mark.parametrize("run, cells", [
    (lambda: experiments.run_theorem2(num_languages=2, tuples=16, dim=4, total_steps=200), 1),
    (lambda: experiments.run_fig2_correlation(seeds=[0], num_languages=2, tuples=16, dim=4,
                                              total_steps=200), len(experiments.LAMBDA_GRID)),
], ids=["theorem2", "fig2-correlation"])
def test_experiment_trains_each_cell_once_without_the_log(monkeypatch, run, cells):
    """theorem2 and fig2-correlation train each cell's full-data run as
    theorem1 does: one log-free ``train_many`` run, never ``train``, and
    one tuple-major TracInCP Gram (tuples, languages) over its checkpoints."""
    stacks, logged, shapes = [], [], []
    real_many, real_gram = trainer.train_many, influence._tracin_gram

    def spy_many(dataset, spec, config, variants, **kwargs):
        stacks.append(len(variants))
        logged.append(kwargs.get("log_steps", True))
        return real_many(dataset, spec, config, variants, **kwargs)

    def spy_gram(X, y, cks, spec):
        shapes.append(X.shape[:2])
        return real_gram(X, y, cks, spec)

    def no_train(*args, **kwargs):
        raise AssertionError("trainer.train was called")

    for module in (trainer, influence, experiments):
        monkeypatch.setattr(module, "train_many", spy_many)
        monkeypatch.setattr(module, "train", no_train, raising=False)
    monkeypatch.setattr(influence, "_tracin_gram", spy_gram)
    run()
    assert stacks == [1] * cells
    assert logged == [False] * cells
    assert shapes == [(16, 2)] * cells


@pytest.mark.parametrize("run", [
    lambda: experiments.run_theorem2(num_languages=2, tuples=16, dim=4, total_steps=100),
    lambda: experiments.run_fig2_correlation(seeds=[0], num_languages=2, tuples=16, dim=4,
                                             total_steps=100),
    lambda: run_theorem1(seeds=[0], tuples=8, total_steps=100),
], ids=["theorem2", "fig2-correlation", "theorem1"])
def test_training_that_ends_at_the_first_checkpoint_is_rejected(run):
    """The checkpoint at the last step has learning rate 0, so a run that
    ends at the first checkpoint would give all-zero TracInCP scores:
    theorem2 passed with min_infu exactly 1 and fig2's Pearson r was nan."""
    with pytest.raises(InvalidConfigError,
                       match="^total_steps = 100 must run past the first checkpoint at step 100"):
        run()


@pytest.mark.parametrize("seeds, message", [
    ([], "^need at least one seed$"),
    ([0, 1, 0], "^seed 0 is repeated in seeds$"),
], ids=["empty", "repeated"])
@pytest.mark.parametrize("run", [run_theorem1, experiments.run_fig2_correlation],
                         ids=["theorem1", "fig2-correlation"])
def test_empty_or_repeated_seeds_are_rejected_before_training(monkeypatch, run, seeds, message):
    """An empty seed list gave nan medians (theorem1) or a nan Pearson r
    (fig2), and a repeated seed counted its rows twice."""
    def no_training(*args, **kwargs):
        raise AssertionError("trainer.train_many was called")

    for module in (trainer, influence, experiments):
        monkeypatch.setattr(module, "train_many", no_training)
    with pytest.raises(InvalidConfigError, match=message):
        run(seeds=seeds)


@pytest.mark.parametrize("classes", [2, 5])
@pytest.mark.parametrize("languages", [2, 8])
def test_loo_shortlist_from_gram_diagonal_matches_one_example_grams(monkeypatch, classes,
                                                                     languages):
    """The diagonal of the tuple-major Gram ranks the examples as one-example
    (L = 1) Grams do, so loo_margins retrains the same shortlist."""
    spec = SynthSpec(num_languages=languages, tuples=6, dim=4, classes=classes,
                     compression=0.5, seed=classes * languages)
    dataset, planted = plant_outlier(gen_classification_data(spec), magnitude=6.0, seed=3,
                                     orthogonal=False)
    model = ModelSpec(input_dim=4, hidden_dim=0, num_classes=classes)
    cfg = TrainConfig(base_lr=0.05, total_steps=300, batch_size=8, seed=1, noise_multiplier=0.5)
    cks = CheckpointSet.last_k(train(dataset, model, cfg).checkpoints, 3)
    X, y = dataset.features, dataset.labels
    gram = _tracin_gram(X.reshape(6, languages, -1), y.reshape(6, languages), cks, model)

    retrained = []

    def record(dataset, spec, config, variants, eval_point, event_class):
        retrained.append(sorted(v.exclude_index for v in variants if v.exclude_index is not None))
        return np.zeros(len(variants))

    monkeypatch.setattr(experiments, "loo_probabilities", record)
    assert experiments.loo_margins(dataset, planted, model, cfg, [(0.5, gram, None)]) == [None]

    self_inf = _tracin_gram(X[:, None], y[:, None], cks, model)[:, 0, 0]
    ranked = sorted(zip(self_inf, range(len(dataset))), reverse=True)
    assert retrained == [sorted({i for _, i in ranked[:8]} | {planted})]
