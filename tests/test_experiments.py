"""theorem1's batched structure: two trainer calls per seed that reproduce
the per-cell computation built from the public single-run API."""

import math

import pytest

from mlpriv import experiments, influence, trainer
from mlpriv.errors import UndefinedMarginError
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
    """One call trains the full runs at every sigma, one makes every LOO retrain."""
    stacks = []
    real = trainer.train_many

    def spy(dataset, spec, config, variants):
        stacks.append(len(variants))
        return real(dataset, spec, config, variants)

    for module in (trainer, influence, experiments):
        monkeypatch.setattr(module, "train_many", spy)
    run_theorem1(seeds=[0, 1])
    assert len(stacks) == 4
    assert stacks[0] == stacks[2] == len(THEOREM1_SIGMAS)


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
            dataset, model, cfg, [[(e, ns) for ns in noise_seeds] for e in (None, *shortlist)],
            *event,
        )
        p_d, p_2 = sorted(probs[1:])[:2]
        try:
            expected = interpretability_margin(probs[0], p_d, p_2)
        except UndefinedMarginError:
            assert row["epsilon_i"] == ""
            continue
        assert math.isfinite(expected)
        assert float(row["epsilon_i"]) == pytest.approx(expected, rel=1e-12)
