"""Training mechanics: losses, per-sample gradients, clipping, noising,
schedules, the full loop, and the CKPT1 checkpoint format."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlpriv.accountant import sigma_for
from mlpriv.errors import (
    DivergenceError,
    EmptyBatchError,
    ExcludeIndexError,
    FormatError,
    InvalidConfigError,
    MlprivError,
    NonFiniteError,
    OutOfRangeError,
    ShapeMismatchError,
)
from mlpriv.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DRAW_BLOCK,
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    OptimizerState,
    TrainConfig,
    Variant,
    evaluate,
    init_theta,
    lr_at,
    optimizer_step,
    read_checkpoint,
    resolve_sigma,
    train,
    train_many,
    write_checkpoint,
    _hits,
    _softmax,
    _unpack,
)

from per_example import forward_loss, grad

LINEAR = ModelSpec(input_dim=3, hidden_dim=0, num_classes=4)
MLP = ModelSpec(input_dim=3, hidden_dim=5, num_classes=4)


def make_dataset(n=24, d=3, c=3, seed=0, languages=("en", "fr")):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, d))
    labels = rng.integers(0, c, size=n)
    tags = tuple(languages[i % len(languages)] for i in range(n))
    return LabeledDataset(features=features, labels=labels, languages=tags)


def digest(row):
    """Every output of a TrainResult, as bytes where it is an array; an
    unlogged run's losses and accuracies stay None."""
    log = [None if a is None else a.tobytes() for a in (row.losses, row.accuracies)]
    return (row.theta.tobytes(), [(c.step, c.eta, c.theta.tobytes()) for c in row.checkpoints],
            row.lrs, *log, row.sigma)


class TestForwardLoss:
    def test_zero_theta_uniform(self):
        theta = np.zeros(LINEAR.num_params)
        loss, probs = forward_loss(LINEAR, theta, np.array([1.0, -2.0, 0.5]), 2)
        assert loss == pytest.approx(math.log(4), abs=1e-12)
        np.testing.assert_allclose(probs, 0.25)

    def test_saturated_logit_loss_vanishes(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        theta = np.array([30.0, 0.0, 0.0, 0.0])  # W = [[30], [0]], b = 0
        loss, _ = forward_loss(spec, theta, np.array([1.0]), 0)
        assert loss < 1e-12

    def test_hand_computed_binary_loss(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        theta = np.array([1.0, 0.0, 0.0, 0.0])  # logits (1, 0) at x = 1
        loss, _ = forward_loss(spec, theta, np.array([1.0]), 0)
        assert loss == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)

    def test_bad_shapes_rejected(self):
        theta = np.zeros(LINEAR.num_params)
        with pytest.raises(ShapeMismatchError):
            forward_loss(LINEAR, theta, np.zeros(2), 0)
        with pytest.raises(ShapeMismatchError):
            forward_loss(LINEAR, theta, np.zeros(3), 7)
        with pytest.raises(ShapeMismatchError):
            forward_loss(LINEAR, np.zeros(3), np.zeros(3), 0)


class TestGradients:
    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
    def test_matches_central_finite_differences(self, spec):
        rng = np.random.default_rng(1)
        h = 1e-5
        worst = 0.0
        for _ in range(100):
            theta = rng.standard_normal(spec.num_params)
            x = rng.standard_normal(spec.input_dim)
            y = int(rng.integers(spec.num_classes))
            g = grad(spec, theta, (x, y))
            fd = np.empty_like(g)
            for j in range(theta.size):
                up, down = theta.copy(), theta.copy()
                up[j] += h
                down[j] -= h
                fd[j] = (forward_loss(spec, up, x, y)[0] - forward_loss(spec, down, x, y)[0]) / (2 * h)
            scale = max(np.abs(g).max(), 1e-8)
            worst = max(worst, float(np.abs(g - fd).max() / scale))
        assert worst < 1e-6

    def test_zero_theta_hand_gradient(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        g = grad(spec, np.zeros(4), (np.array([2.0]), 0))
        # D = (p0 - 1, p1) = (-0.5, 0.5); weight rows scale with x, then biases
        np.testing.assert_allclose(g, [-1.0, 1.0, -0.5, 0.5])

    def test_vanishes_when_fit_is_perfect(self):
        spec = ModelSpec(input_dim=1, hidden_dim=0, num_classes=2)
        theta = np.array([50.0, -50.0, 0.0, 0.0])
        g = grad(spec, theta, (np.array([1.0]), 0))
        assert np.linalg.norm(g) < 1e-8

    @pytest.mark.parametrize("label", [-1, 1.7, 7])
    def test_label_outside_classes_rejected(self, label):
        spec = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        with pytest.raises(ShapeMismatchError):
            grad(spec, np.zeros(spec.num_params), (np.zeros(3), label))


class TestSchedule:
    CFG = TrainConfig(base_lr=0.2, total_steps=150, batch_size=4, seed=0, warmup_steps=50)

    def test_warmup_knot(self):
        assert lr_at(50, self.CFG) == pytest.approx(0.2)

    def test_end_is_zero(self):
        assert lr_at(150, self.CFG) == 0.0

    def test_midpoint_of_decay(self):
        assert lr_at(100, self.CFG) == pytest.approx(0.1)

    def test_warmup_is_linear(self):
        assert lr_at(25, self.CFG) == pytest.approx(0.1)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRangeError):
            lr_at(151, self.CFG)


class TestOptimizerStep:
    def test_sgd_with_decoupled_weight_decay(self):
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0,
                          warmup_steps=0, optimizer="sgd", weight_decay=0.5)
        state = OptimizerState.init(np.array([1.0, -2.0]))
        new = optimizer_step(state, np.array([0.2, 0.2]), eta=0.1, config=cfg)
        expected = np.array([1.0, -2.0]) - 0.1 * np.array([0.2, 0.2]) - 0.1 * 0.5 * np.array([1.0, -2.0])
        np.testing.assert_allclose(new.theta, expected, atol=1e-15)

    def test_adamw_first_step_matches_manual_formula(self):
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0,
                          warmup_steps=0, optimizer="adamw", weight_decay=0.0)
        theta0 = np.array([0.5, -0.5])
        g = np.array([0.3, -0.1])
        new = optimizer_step(OptimizerState.init(theta0), g, eta=0.01, config=cfg)
        # bias correction makes m_hat = g and v_hat = g^2 at t = 1
        expected = theta0 - 0.01 * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(new.theta, expected, atol=1e-12)

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    def test_in_place_update_matches_out_of_place_formula(self, optimizer, runs):
        """The in-place update keeps every rounding step of the plain formula."""
        cfg = TrainConfig(base_lr=0.1, total_steps=50, batch_size=2, seed=0,
                          warmup_steps=5, optimizer=optimizer, weight_decay=0.3)
        rng = np.random.default_rng(runs)
        theta0 = rng.standard_normal((runs, 7))  # train_many's (R, P) stack
        state = OptimizerState.init(theta0)
        theta, m, v = theta0.copy(), np.zeros_like(theta0), np.zeros_like(theta0)
        b1, b2, wd = ADAM_BETA1, ADAM_BETA2, cfg.weight_decay
        for t in range(1, 51):
            g = rng.standard_normal(theta0.shape) * 10.0 ** rng.integers(-3, 3)
            eta = lr_at(t, cfg)
            if optimizer == "sgd":
                theta = theta - eta * g - eta * wd * theta
            else:
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g**2
                m_hat = m / (1 - b1**t)
                v_hat = v / (1 - b2**t)
                theta = theta - eta * m_hat / (np.sqrt(v_hat) + ADAM_EPS) - eta * wd * theta
            assert optimizer_step(state, g, eta, cfg) is state
            assert state.t == t
            assert state.theta.tobytes() == theta.tobytes()
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()


class TestTrainLoop:
    def test_determinism(self):
        dataset = make_dataset()
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=120, batch_size=8, seed=7,
                          noise_multiplier=1.0)
        a = train(dataset, model, cfg)
        b = train(dataset, model, cfg)
        assert (a.theta == b.theta).all()

    def test_dp_machinery_reduces_to_plain_sgd(self):
        """sigma = 0 with an effectively infinite clip threshold must track an
        independently written minibatch SGD loop to 1e-12 at every step."""
        dataset = make_dataset(n=32, d=3, c=3, seed=3)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.05, total_steps=200, batch_size=8, seed=11,
                          warmup_steps=50, clip_threshold=1e6, noise_multiplier=0.0,
                          weight_decay=0.0, optimizer="sgd", checkpoint_interval=1)
        result = train(dataset, model, cfg)

        batch_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        rng = np.random.default_rng(batch_ss)
        theta = init_theta(model, seed=cfg.seed)
        for step in range(1, cfg.total_steps + 1):
            idx = rng.choice(len(dataset), size=cfg.batch_size, replace=False)
            mean_grad = np.mean(
                [grad(model, theta, (dataset.features[i], int(dataset.labels[i]))) for i in idx],
                axis=0,
            )
            theta = theta - lr_at(step, cfg) * mean_grad
            ckpt = result.checkpoints[step - 1]
            assert ckpt.step == step
            np.testing.assert_allclose(ckpt.theta, theta, atol=1e-12)

    def test_coupled_exclusion_reduces_to_plain_sgd(self):
        """A leave-one-out run must track a minibatch SGD loop that draws the
        same batches and averages over the examples left in each one."""
        dataset = make_dataset(n=12, d=3, c=3, seed=6)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.05, total_steps=120, batch_size=4, seed=2,
                          warmup_steps=10, clip_threshold=1e6, noise_multiplier=0.0,
                          weight_decay=0.0, optimizer="sgd", checkpoint_interval=1)
        excluded = 5
        result = train(dataset, model, cfg, exclude_index=excluded)

        batch_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        rng = np.random.default_rng(batch_ss)
        theta = init_theta(model, seed=cfg.seed)
        dropped = 0
        for step in range(1, cfg.total_steps + 1):
            idx = rng.choice(len(dataset), size=cfg.batch_size, replace=False)
            kept = [i for i in idx if i != excluded]
            dropped += len(idx) - len(kept)
            mean_grad = np.mean(
                [grad(model, theta, (dataset.features[i], int(dataset.labels[i]))) for i in kept],
                axis=0,
            )
            theta = theta - lr_at(step, cfg) * mean_grad
            np.testing.assert_allclose(result.checkpoints[step - 1].theta, theta, atol=1e-12)
        assert dropped > 0

    @pytest.mark.parametrize("hidden", [0, 5])
    def test_logged_loss_and_accuracy_are_the_batch_cross_entropy_and_hits(self, hidden):
        """Each logged step is the mean cross-entropy -log p_y and argmax hit
        rate, over the examples the run kept from the drawn batch, of the
        parameters the step starts from; across a block edge."""
        dataset = make_dataset(n=12, d=3, c=4, seed=7)
        model = ModelSpec(input_dim=3, hidden_dim=hidden, num_classes=4)
        cfg = TrainConfig(base_lr=0.1, total_steps=DRAW_BLOCK + 4, batch_size=4, seed=3,
                          warmup_steps=5, noise_multiplier=0.5, checkpoint_interval=1)
        excluded = 2
        runs = train_many(dataset, model, cfg, [(None,), (excluded,)])

        batch_ss, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        rng = np.random.default_rng(batch_ss)
        for step in range(1, cfg.total_steps + 1):
            idx = rng.choice(len(dataset), size=cfg.batch_size, replace=False)
            for run, kept in zip(runs, (idx, [i for i in idx if i != excluded])):
                theta = run.checkpoints[step - 2].theta if step > 1 else init_theta(model, cfg.seed)
                pairs = [forward_loss(model, theta, dataset.features[i], int(dataset.labels[i]))
                         for i in kept]
                np.testing.assert_allclose(run.losses[step - 1], np.mean([l for l, _ in pairs]),
                                           rtol=1e-12)
                hits = [np.argmax(p) == dataset.labels[i] for (_, p), i in zip(pairs, kept)]
                assert run.accuracies[step - 1] == np.mean(hits)

    def test_checkpoint_cadence(self):
        dataset = make_dataset()
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=300, batch_size=8, seed=0)
        result = train(dataset, model, cfg)
        assert [c.step for c in result.checkpoints] == [100, 200, 300]
        for ckpt in result.checkpoints:
            assert ckpt.eta == pytest.approx(lr_at(ckpt.step, cfg))

    def test_noise_stream_independent_of_batch_stream(self):
        """At sigma = 0 the result must not depend on the noise seed."""
        dataset = make_dataset()
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        base = TrainConfig(base_lr=0.1, total_steps=60, batch_size=8, seed=0)
        a = train(dataset, model, base)
        b = train_many(dataset, model, base, [(None, 999)])[0]
        assert (a.theta == b.theta).all()

    def test_noise_seed_controls_noise_only(self):
        dataset = make_dataset()
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        base = TrainConfig(base_lr=0.1, total_steps=60, batch_size=8, seed=0,
                           noise_multiplier=1.0)
        a = train_many(dataset, model, base, [(None, 1)])[0]
        b = train_many(dataset, model, base, [(None, 1)])[0]
        c = train_many(dataset, model, base, [(None, 2)])[0]
        assert (a.theta == b.theta).all()
        assert not (a.theta == c.theta).all()

    def test_excluded_example_content_cannot_matter(self):
        dataset = make_dataset(n=16, seed=5)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=80, batch_size=6, seed=4)
        modified_features = dataset.features.copy()
        modified_features[9] = 1e3  # arbitrary junk in the excluded slot
        modified = LabeledDataset(features=modified_features, labels=dataset.labels,
                                  languages=dataset.languages)
        a = train(dataset, model, cfg, exclude_index=9)
        b = train(modified, model, cfg, exclude_index=9)
        assert (a.theta == b.theta).all()

    def test_exclusion_changes_the_run(self):
        dataset = make_dataset(n=16, seed=5)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=80, batch_size=6, seed=4)
        a = train(dataset, model, cfg)
        b = train(dataset, model, cfg, exclude_index=9)
        assert not (a.theta == b.theta).all()

    def test_resolve_sigma_routes_through_accountant(self):
        cfg = TrainConfig(base_lr=0.1, total_steps=100, batch_size=10, seed=0,
                          target_epsilon=8.0, delta=1e-6)
        sigma = resolve_sigma(cfg, dataset_size=100)
        assert sigma == sigma_for(8.0, q=0.1, steps=100, delta=1e-6)

    def test_infinite_target_epsilon_is_nonprivate(self):
        cfg = TrainConfig(base_lr=0.1, total_steps=100, batch_size=10, seed=0,
                          target_epsilon=math.inf)
        assert resolve_sigma(cfg, dataset_size=100) == 0.0

    def test_validation_errors(self):
        dataset = make_dataset(n=4)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        with pytest.raises(ValueError):
            train(dataset, model, TrainConfig(base_lr=0.1, total_steps=10, batch_size=8,
                                              seed=0, warmup_steps=0))
        wrong = ModelSpec(input_dim=5, hidden_dim=0, num_classes=3)
        with pytest.raises(ShapeMismatchError):
            train(dataset, wrong, TrainConfig(base_lr=0.1, total_steps=10, batch_size=2,
                                              seed=0, warmup_steps=0))

    def test_labels_outside_model_classes_rejected(self):
        dataset = make_dataset(n=12, c=3)
        assert dataset.labels.max() == 2
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=4, seed=0, warmup_steps=0)
        with pytest.raises(ShapeMismatchError):
            train(dataset, ModelSpec(input_dim=3, hidden_dim=0, num_classes=2), cfg)

    def test_exclude_index_out_of_range_rejected(self):
        dataset = make_dataset(n=12)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=4, seed=0, warmup_steps=0)
        with pytest.raises(IndexError):
            train(dataset, model, cfg, exclude_index=12)


class TestClippedNoisyTraining:
    """train with active clipping and noise against a loop written here from
    grad: the same batch and noise streams, each kept example's gradient
    scaled by min(1, C/|g|), one N(0, (sigma C)^2 I) draw per step, and the
    noisy sum divided by the examples kept."""

    @pytest.mark.parametrize("excluded", [None, 5], ids=["full", "loo"])
    @pytest.mark.parametrize("hidden", [0, 4], ids=["linear", "tanh"])
    def test_matches_per_example_loop(self, hidden, excluded):
        dataset = make_dataset(n=12, d=3, c=3, seed=8)
        model = ModelSpec(input_dim=3, hidden_dim=hidden, num_classes=3)
        cfg = TrainConfig(base_lr=0.05, total_steps=100, batch_size=4, seed=5,
                          warmup_steps=10, clip_threshold=0.9, noise_multiplier=0.7,
                          weight_decay=0.0, optimizer="sgd", checkpoint_interval=1)
        result = train(dataset, model, cfg, exclude_index=excluded)

        C, sigma = cfg.clip_threshold, cfg.noise_multiplier
        batch_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
        batch_rng, noise_rng = np.random.default_rng(batch_ss), np.random.default_rng(noise_ss)
        theta = init_theta(model, seed=cfg.seed)
        clipped = unclipped = dropped = 0
        for step in range(1, cfg.total_steps + 1):
            idx = batch_rng.choice(len(dataset), size=cfg.batch_size, replace=False)
            kept = [i for i in idx if i != excluded]
            dropped += len(idx) - len(kept)
            total = np.zeros(model.num_params)
            for i in kept:
                g = grad(model, theta, (dataset.features[i], int(dataset.labels[i])))
                norm = np.linalg.norm(g)
                clipped += norm > C
                unclipped += norm <= C
                total += g * min(1.0, C / norm)
            total += sigma * C * noise_rng.standard_normal(model.num_params)
            theta = theta - lr_at(step, cfg) * total / len(kept)
            np.testing.assert_allclose(result.checkpoints[step - 1].theta, theta,
                                       rtol=0, atol=1e-12)
        assert clipped > 0 and unclipped > 0
        assert (dropped > 0) == (excluded is not None)


class TestTrainMany:
    """train_many runs coupled variants side by side; each row must be the
    run that train() gives for that variant alone."""

    @pytest.mark.parametrize("sigma", [0.0, 0.8], ids=["sigma0", "noisy"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    @pytest.mark.parametrize("hidden", [0, 4], ids=["linear", "tanh"])
    @settings(max_examples=8, deadline=None)
    @given(
        variants=st.lists(
            st.tuples(st.none() | st.integers(0, 11), st.none() | st.integers(0, 2**31 - 1))
            | st.tuples(st.none() | st.integers(0, 11), st.none() | st.integers(0, 2**31 - 1),
                        st.sampled_from([None, 0.0, 0.5, 2.0])),
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(variants=[(None, None)], seed=0)
    @example(variants=[(None, None), (3, None), (None, 5), (3, 5)], seed=1)
    @example(variants=[(None, None, 0.0), (3, 5, 2.0), (None, 5), (3, None, 0.5)], seed=2)
    def test_rows_match_single_runs(self, hidden, optimizer, sigma, variants, seed):
        dataset = make_dataset(n=12, seed=seed % 1000)
        model = ModelSpec(input_dim=3, hidden_dim=hidden, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=45, batch_size=4, seed=seed,
                          warmup_steps=5, clip_threshold=0.5, noise_multiplier=sigma,
                          optimizer=optimizer, checkpoint_interval=10)
        rows = train_many(dataset, model, cfg, variants)
        assert len(rows) == len(variants)
        for variant, row in zip(variants, rows):
            exclude, noise_seed, run_sigma = Variant(*variant)
            if run_sigma is None:
                run_sigma = cfg.noise_multiplier
            single = train_many(dataset, model, replace(cfg, noise_multiplier=run_sigma),
                                [(exclude, noise_seed)])[0]
            np.testing.assert_allclose(row.theta, single.theta, rtol=0, atol=1e-12)
            assert [c.step for c in row.checkpoints] == [c.step for c in single.checkpoints]
            for a, b in zip(row.checkpoints, single.checkpoints):
                assert a.eta == b.eta
                np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-12)
            assert row.lrs == single.lrs
            for key in ("losses", "accuracies"):
                np.testing.assert_allclose(getattr(row, key), getattr(single, key),
                                           rtol=0, atol=1e-12)
            assert row.sigma == single.sigma == run_sigma

    def test_noiseless_row_in_noisy_stack_is_byte_identical(self):
        """A sigma = 0 run among noisy ones draws no noise: its bytes are those
        of the same run stacked alone."""
        dataset = make_dataset(n=16, seed=3)
        model = ModelSpec(input_dim=3, hidden_dim=4, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=64, batch_size=5, seed=4,
                          noise_multiplier=1.5, checkpoint_interval=16)
        quiet = Variant(exclude_index=2, noise_multiplier=0.0)
        stacked = train_many(dataset, model, cfg, [(None, 7), quiet, (2, 8, 0.5)])[1]
        alone = train_many(dataset, model, cfg, [quiet])[0]
        assert stacked.sigma == alone.sigma == 0.0
        assert stacked.theta.tobytes() == alone.theta.tobytes()
        assert [c.theta.tobytes() for c in stacked.checkpoints] == \
            [c.theta.tobytes() for c in alone.checkpoints]
        assert stacked.losses.tobytes() == alone.losses.tobytes()
        assert stacked.accuracies.tobytes() == alone.accuracies.tobytes()

    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    @pytest.mark.parametrize("hidden", [0, 4], ids=["linear", "tanh"])
    def test_shared_noise_streams_are_byte_identical(self, hidden, optimizer):
        """Runs that share an effective noise seed read one generator's draws;
        each row's bytes are those of its variant trained alone. The seedless
        runs share the stream spawned off config.seed."""
        dataset = make_dataset(n=16, seed=5)
        model = ModelSpec(input_dim=3, hidden_dim=hidden, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=70, batch_size=5, seed=6, warmup_steps=5,
                          clip_threshold=0.5, noise_multiplier=1.0, optimizer=optimizer,
                          checkpoint_interval=20)
        variants = [(None, 5, 0.5), (2, 5, 2.0), (7, 5, 0.5), (None, 6, 0.5), (2, 6, 2.0),
                    (None, None), (3, None, 2.0), (None, 5, 0.0), (9, 6)]
        rows = train_many(dataset, model, cfg, variants)
        for variant, row in zip(variants, rows):
            alone = train_many(dataset, model, cfg, [variant])[0]
            assert row.sigma == alone.sigma
            assert row.theta.tobytes() == alone.theta.tobytes()
            assert [c.theta.tobytes() for c in row.checkpoints] == \
                [c.theta.tobytes() for c in alone.checkpoints]
            assert row.losses.tobytes() == alone.losses.tobytes()
            assert row.accuracies.tobytes() == alone.accuracies.tobytes()

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", True])
    def test_bad_per_run_noise_seed_is_typed_error(self, bad):
        dataset = make_dataset(n=12)
        cfg = TrainConfig(base_lr=0.1, total_steps=20, batch_size=4, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError, match="per-run noise_seed must be a nonnegative integer"):
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None, 4), (None, bad, 1.0)])

    @pytest.mark.parametrize("bad", [1.5, True, np.True_, "1"])
    def test_non_integer_exclude_index_is_typed_error(self, bad):
        """A float would exclude nothing and True would exclude example 1."""
        dataset = make_dataset(n=12)
        cfg = TrainConfig(base_lr=0.1, total_steps=20, batch_size=4, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError, match="exclude_index must be an integer or None"):
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None,), (bad,)])

    def test_numpy_integer_exclude_index_is_accepted_and_range_checked(self):
        dataset = make_dataset(n=12)
        model = ModelSpec(3, 0, 3)
        cfg = TrainConfig(base_lr=0.1, total_steps=20, batch_size=4, seed=0, warmup_steps=0)
        a = train_many(dataset, model, cfg, [(np.int64(3),)])[0]
        assert digest(a) == digest(train_many(dataset, model, cfg, [(3,)])[0])
        with pytest.raises(ExcludeIndexError):
            train_many(dataset, model, cfg, [(np.int64(12),)])

    @pytest.mark.parametrize("bad", [
        None, 3, (None, None, None, None), [Variant(1)], [None, None],
    ], ids=["None", "int", "4-tuple", "nested_group", "list"])
    def test_variant_that_is_not_a_short_tuple_is_typed_error(self, bad):
        """A nested group is what a caller of a grouped variant list would pass."""
        dataset = make_dataset(n=12)
        cfg = TrainConfig(base_lr=0.1, total_steps=20, batch_size=4, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError, match="a variant must be a tuple of at most 3"):
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None,), bad])

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf, "1", True, False, np.True_])
    def test_bad_per_run_sigma_is_typed_error(self, bad):
        dataset = make_dataset(n=12)
        cfg = TrainConfig(base_lr=0.1, total_steps=20, batch_size=4, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError, match="finite and >= 0"):
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None, None), (None, None, bad)])

    def test_per_run_sigma_with_target_epsilon_is_typed_error(self):
        """The epsilon a target_epsilon run reports would not describe a run
        with its own sigma."""
        dataset = make_dataset(n=12)
        cfg = TrainConfig(base_lr=0.1, total_steps=20, batch_size=4, seed=0, warmup_steps=0,
                          target_epsilon=4.0)
        with pytest.raises(InvalidConfigError, match="target_epsilon"):
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None, None), (None, None, 1.0)])

    def test_seeded_rerun_is_byte_identical(self):
        dataset = make_dataset(n=16, seed=2)
        model = ModelSpec(input_dim=3, hidden_dim=4, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=64, batch_size=5, seed=9,
                          noise_multiplier=1.0, checkpoint_interval=16)
        variants = [(None, None), (4, None), (None, 11), (4, 11), (7, 12)]

        def digest(rows):
            return [
                (row.theta.tobytes(), [c.theta.tobytes() for c in row.checkpoints],
                 row.losses.tolist(), row.accuracies.tolist())
                for row in rows
            ]

        assert digest(train_many(dataset, model, cfg, variants)) == \
            digest(train_many(dataset, model, cfg, variants))

    def test_empty_masked_batch_is_typed_error(self):
        dataset = make_dataset(n=4)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=50, batch_size=1, seed=0, warmup_steps=0)
        with pytest.raises(EmptyBatchError):
            train_many(dataset, model, cfg, [(None, None), (0, None)])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_names_the_run(self):
        dataset = make_dataset(n=12)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=1e300, total_steps=20, batch_size=4, seed=0,
                          warmup_steps=0, optimizer="sgd", clip_threshold=1e6)
        with pytest.raises(DivergenceError, match="in run 0"):
            train_many(dataset, model, cfg, [(None, None), (1, None)])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scale, base_lr, clip, cause", [
        (10.0, 3e306, 1e10, "loss = nan"),
        (1.0, 1e300, 1e6, "non-finite parameters"),
    ], ids=["loss", "parameters"])
    def test_divergence_names_its_cause(self, scale, base_lr, clip, cause):
        """A nan probability diverges both the loss and the parameters at
        one step and is reported as the loss; parameters that overflow with
        every probability finite are reported as such."""
        base = make_dataset(n=12)
        dataset = LabeledDataset(features=scale * base.features, labels=base.labels,
                                 languages=base.languages)
        cfg = TrainConfig(base_lr=base_lr, total_steps=20, batch_size=4, seed=0,
                          warmup_steps=0, optimizer="sgd", clip_threshold=clip)
        with pytest.raises(DivergenceError) as info:
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None, None), (1, None)])
        assert info.value.step == 2
        assert str(info.value).startswith(f"training diverged at step 2: {cause} in run 0 (variant ")

    def test_losses_of_stacked_rows_match_lone_runs_byte_for_byte(self):
        """Each run's batch losses are one contiguous row, summed the same way
        whether the run is alone or a row of a stack (theorem1's sizes). The
        probabilities they sum come from the stacked logits product, so this
        rests on the BLAS rounding each run's entries the same wherever the
        run sits, as numpy's bundled OpenBLAS 0.3.31 was measured to do."""
        dataset = make_dataset(n=64, d=8, seed=11)
        model = ModelSpec(input_dim=8, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.05, total_steps=40, batch_size=16, seed=3, warmup_steps=5,
                          clip_threshold=0.5, noise_multiplier=1.0, checkpoint_interval=20)
        variants = [(r * 3 if r % 4 else None, 100 + r % 5, (0.5, 2.0)[r % 2]) for r in range(20)]
        rows = train_many(dataset, model, cfg, variants)
        for variant, row in zip(variants, rows):
            alone = train_many(dataset, model, cfg, [variant])[0]
            assert row.losses.tobytes() == alone.losses.tobytes()
            assert row.accuracies.tobytes() == alone.accuracies.tobytes()

    def test_rows_of_a_large_stack_match_single_runs(self):
        """Rows of a 70-run stack agree with their lone runs to rounding. The
        shared-input matrix products round each run's entries the same
        wherever it sits: with numpy's bundled OpenBLAS 0.3.31, at theorem1's
        sizes (B = 16, d = 8, c = 3, 300 steps) no row of stacks of 1 to 260
        runs differed in a byte. Only the 1e-12 is guaranteed."""
        dataset = make_dataset(n=64, d=8, seed=8)
        model = ModelSpec(input_dim=8, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=6, batch_size=16, seed=2, warmup_steps=1,
                          clip_threshold=0.5, noise_multiplier=1.0, checkpoint_interval=3)
        variants = [(r % 64 if r % 5 else None, r % 3, (None, 0.0, 0.5, 2.0)[r % 4])
                    for r in range(70)]
        rows = train_many(dataset, model, cfg, variants)
        for variant, row in zip(variants, rows):
            alone = train_many(dataset, model, cfg, [variant])[0]
            np.testing.assert_allclose(row.theta, alone.theta, rtol=0, atol=1e-12)
            for a, b in zip(row.checkpoints, alone.checkpoints, strict=True):
                assert (a.step, a.eta) == (b.step, b.eta)
                np.testing.assert_allclose(a.theta, b.theta, rtol=0, atol=1e-12)
            for key in ("losses", "accuracies"):
                np.testing.assert_allclose(getattr(row, key), getattr(alone, key),
                                           rtol=0, atol=1e-12)
            assert row.sigma == alone.sigma


class TestNoiseTable:
    """Each block's normals are scaled once per distinct (noise seed,
    sigma * C) pair; a step adds each noised run's pair row to its gradient
    row, through a slice when the noised rows are contiguous, else through
    their index. Every row must keep the bytes of its lone run."""

    @pytest.mark.parametrize("hidden", [0, 4], ids=["linear", "tanh"])
    def test_contiguous_and_interleaved_noised_rows_match_lone_runs(self, hidden):
        dataset = make_dataset(n=16, seed=7)
        model = ModelSpec(input_dim=3, hidden_dim=hidden, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=40, batch_size=5, seed=8, warmup_steps=5,
                          clip_threshold=0.5, noise_multiplier=1.0, checkpoint_interval=10)
        quiet = [(None, None, 0.0), (3, 4, 0.0)]
        noisy = [(None, 4, 0.5), (3, 4, 2.0), (5, None), (None, 9, 0.5)]
        lone = {v: digest(train_many(dataset, model, cfg, [v])[0]) for v in quiet + noisy}
        contiguous = quiet + noisy
        interleaved = [noisy[0], quiet[0], noisy[1], noisy[2], quiet[1], noisy[3]]
        for variants in (contiguous, interleaved):
            rows = train_many(dataset, model, cfg, variants)
            assert [digest(row) for row in rows] == [lone[v] for v in variants]

    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    def test_a_seed_at_two_sigmas_and_a_repeated_pair_across_a_block_edge(self, optimizer):
        dataset = make_dataset(n=16, seed=9)
        model = ModelSpec(input_dim=3, hidden_dim=4, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=DRAW_BLOCK + 1, batch_size=5, seed=10,
                          warmup_steps=3, clip_threshold=0.5, noise_multiplier=2.0,
                          optimizer=optimizer, checkpoint_interval=8)
        variants = [(None, 3, 0.5), (2, 3, 2.0), (4, 3, 0.5), (None, 3, 0.5), (6, None),
                    (None, None, 0.5), (None, 3)]
        rows = [digest(row) for row in train_many(dataset, model, cfg, variants)]
        for variant, row in zip(variants, rows):
            assert row == digest(train_many(dataset, model, cfg, [variant])[0])
        assert rows[0] == rows[3]  # one (seed, sigma) pair, one exclusion: one run
        assert rows[3] != rows[6]  # the same seed at another sigma
        assert rows[0][0] != rows[2][0]  # the same pair, another exclusion

    def test_kept_counts_follow_the_excluded_example(self):
        """A run whose excluded example is never drawn is the full-data run;
        one whose excluded example is first drawn at step s matches it before
        s and averages over the other B - 1 examples at s."""
        dataset = make_dataset(n=64, seed=12)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=DRAW_BLOCK + 8, batch_size=3, seed=13,
                          warmup_steps=2, clip_threshold=0.5, checkpoint_interval=1)
        B = cfg.batch_size
        first = first_draws(cfg, len(dataset), cfg.total_steps)
        never = min(set(range(len(dataset))) - set(first))
        drawn, step = next((i, s) for i, s in sorted(first.items()) if s > DRAW_BLOCK)
        full, skipped, dropped = train_many(dataset, model, cfg, [(None,), (never,), (drawn,)])
        assert digest(skipped) == digest(full)
        k = step - 1
        assert dropped.losses[:k].tobytes() == full.losses[:k].tobytes()
        assert dropped.accuracies[:k].tobytes() == full.accuracies[:k].tobytes()
        theta = full.checkpoints[k - 1].theta  # the parameters both runs bring to step s
        loss, probs = forward_loss(model, theta, dataset.features[drawn], int(dataset.labels[drawn]))
        hit = int(np.argmax(probs) == dataset.labels[drawn])
        np.testing.assert_allclose(dropped.losses[k], (B * full.losses[k] - loss) / (B - 1),
                                   rtol=0, atol=1e-12)
        assert dropped.accuracies[k] == (round(B * full.accuracies[k]) - hit) / (B - 1)


class TestWorkingMemory:
    """Traced allocation peaks of one train_many call at theorem1's
    leave-one-out shape: 189 runs (9 noiseless, then 2 sigmas x 9
    exclusions x 10 noise seeds), 300 steps of 16 examples, a linear model
    with d = 8 and c = 3. Each bound sits half a (32, R, B) int64 index
    table (0.39 MB) above the peak measured with numpy 2.4 on CPython 3.11,
    room for other numpy builds' temporaries, while one more such table per
    block (0.77 MB) still trips it."""

    INDEX_TABLE = DRAW_BLOCK * 189 * 16 * np.dtype(np.intp).itemsize

    def traced_peak(self, **kwargs):
        dataset = make_dataset(n=64, d=8, seed=0)
        model = ModelSpec(input_dim=8, hidden_dim=0, num_classes=3)
        cfg = TrainConfig(base_lr=0.05, total_steps=300, batch_size=16, seed=0)
        exclusions = [None, *range(8)]
        variants = [(e, None, 0.0) for e in exclusions]
        variants += [(e, ns, s) for s in (0.5, 2.0) for e in exclusions for ns in range(10)]
        tracemalloc.start()
        try:
            rows = train_many(dataset, model, cfg, variants, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 189
        return peak

    def test_traced_peak_at_theorem1_leave_one_out_shape(self):
        """The logging call read 3.08 MB."""
        assert self.traced_peak() < 3.08e6 + self.INDEX_TABLE / 2

    def test_traced_peak_without_the_log(self):
        """The log-free call read 1.25 MB: no (32, R, B) label-probability
        block (0.77 MB), hit block or (T, R) loss and accuracy arrays."""
        peak = self.traced_peak(log_steps=False)
        assert peak < 1.25e6 + self.INDEX_TABLE / 2
        p_true_block = DRAW_BLOCK * 189 * 16 * np.dtype(np.float64).itemsize
        assert peak < 3.08e6 - p_true_block


def first_draws(config, examples, steps):
    """Step (1-based) at which each example is first drawn into a batch, from
    the batch stream train_many reads; examples never drawn are absent."""
    batch_ss, _ = np.random.SeedSequence(config.seed).spawn(2)
    rng = np.random.default_rng(batch_ss)
    first = {}
    for step in range(1, steps + 1):
        for i in rng.choice(examples, size=config.batch_size, replace=False).tolist():
            first.setdefault(i, step)
    return first


class TestDrawBlocks:
    """train_many draws the batches and noise of DRAW_BLOCK steps at once;
    outputs and error order are those of one draw per step."""

    @pytest.mark.parametrize("log_steps", [True, False])
    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("steps", [1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK,
                                       2 * DRAW_BLOCK + 1])
    def test_rows_and_reruns_are_byte_identical_across_block_edges(self, steps, runs, log_steps):
        """Without the log, every row keeps the logging row's parameters,
        checkpoints, learning rates and sigma byte for byte, and its losses
        and accuracies are None."""
        dataset = make_dataset(n=16, seed=4)
        model = ModelSpec(input_dim=3, hidden_dim=4, num_classes=3)
        cfg = TrainConfig(base_lr=0.1, total_steps=steps, batch_size=5, seed=3, warmup_steps=0,
                          clip_threshold=0.5, noise_multiplier=1.0, checkpoint_interval=1)
        variants = [(2, 7), (None, None, 0.5), (None, 7, 0.0)][:runs]

        def rows_of(variants):
            return [digest(row) for row in
                    train_many(dataset, model, cfg, variants, log_steps=log_steps)]

        rows = rows_of(variants)
        assert rows == rows_of(variants)
        for variant, row in zip(variants, rows):
            assert [row] == rows_of([variant])
        assert len(rows[0][1]) == steps
        logged = train_many(dataset, model, cfg, variants)
        if not log_steps:
            logged = [replace(row, losses=None, accuracies=None) for row in logged]
        assert rows == [digest(row) for row in logged]

    @pytest.mark.parametrize("log_steps", [True, False])
    def test_empty_batch_in_second_block_names_its_step(self, log_steps):
        dataset = make_dataset(n=40, seed=1)
        cfg = TrainConfig(base_lr=0.1, total_steps=3 * DRAW_BLOCK, batch_size=1, seed=5,
                          warmup_steps=0)
        first = first_draws(cfg, len(dataset), cfg.total_steps)
        excluded, step = next((i, s) for i, s in sorted(first.items())
                              if DRAW_BLOCK < s <= 2 * DRAW_BLOCK)
        with pytest.raises(EmptyBatchError, match=f"^step {step}: run 1 excludes"):
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None, None), (excluded, None)],
                       log_steps=log_steps)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("log_steps", [True, False])
    def test_earlier_divergence_in_the_block_is_raised_first(self, log_steps):
        """Run 0 diverges at step 2; run 1's batch at a later step of the same
        block holds only its excluded example."""
        dataset = make_dataset(n=40, seed=1)
        cfg = TrainConfig(base_lr=1e300, total_steps=DRAW_BLOCK, batch_size=1, seed=5,
                          warmup_steps=0, optimizer="sgd", clip_threshold=1e6)
        first = first_draws(cfg, len(dataset), cfg.total_steps)
        excluded, step = next((i, s) for i, s in sorted(first.items()) if s > 2)
        variants = [(None, None), (excluded, None)]
        with pytest.raises(EmptyBatchError, match=f"^step {step}:"):
            train_many(dataset, ModelSpec(3, 0, 3), replace(cfg, base_lr=0.1), variants,
                       log_steps=log_steps)
        with pytest.raises(DivergenceError) as info:
            train_many(dataset, ModelSpec(3, 0, 3), cfg, variants, log_steps=log_steps)
        assert info.value.step == 2


class TestEmptyBatch:
    """A batch that keeps no example divides its clipped sum, 0 or pure
    noise, by 0, so the run's parameters turn nan or infinite at that step;
    the step's one failure check then names the empty batch, with its step,
    for a lone run and for its row of a stack, and no RuntimeWarning
    escapes."""

    DATASET = make_dataset(n=40, seed=1)
    MESSAGE = "^step {step}: run {run} excludes every example of its batch$"

    def first_drawn(self, cfg, in_block):
        """An example first drawn at a step of the given block, and that step."""
        first = first_draws(cfg, len(self.DATASET), cfg.total_steps)
        return next((i, s) for i, s in sorted(first.items())
                    if in_block * DRAW_BLOCK < s <= (in_block + 1) * DRAW_BLOCK)

    def raises(self, cfg, variants, step, run, hidden=0, log_steps=True):
        with pytest.raises(EmptyBatchError, match=self.MESSAGE.format(step=step, run=run)):
            train_many(self.DATASET, ModelSpec(3, hidden, 3), cfg, variants, log_steps=log_steps)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("log_steps", [True, False])
    @pytest.mark.parametrize("hidden", [0, 4], ids=["linear", "tanh"])
    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    def test_noisy_empty_batch_is_named_at_its_step(self, optimizer, hidden, log_steps):
        cfg = TrainConfig(base_lr=0.1, total_steps=3 * DRAW_BLOCK, batch_size=1, seed=5,
                          warmup_steps=0, noise_multiplier=1.0, optimizer=optimizer)
        excluded, step = self.first_drawn(cfg, in_block=1)
        self.raises(cfg, [(excluded,)], step, 0, hidden, log_steps)
        self.raises(cfg, [(excluded, 9, 0.5)], step, 0, hidden, log_steps)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    def test_empty_batch_at_the_last_step_where_eta_is_zero(self, optimizer, sigma):
        cfg = TrainConfig(base_lr=0.1, total_steps=3 * DRAW_BLOCK, batch_size=1, seed=5,
                          warmup_steps=0, noise_multiplier=sigma, optimizer=optimizer)
        first = first_draws(cfg, len(self.DATASET), cfg.total_steps)
        excluded, last = max(first.items(), key=lambda item: item[1])
        cfg = replace(cfg, total_steps=last)
        assert lr_at(last, cfg) == 0.0
        self.raises(cfg, [(excluded,)], last, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("optimizer", ["sgd", "adamw"])
    @pytest.mark.parametrize("layout", ["contiguous", "interleaved"])
    def test_empty_batch_in_a_mixed_stack_names_the_lone_runs_step(self, layout, optimizer):
        """Noisy and noiseless rows, the noised ones contiguous (a slice) or
        not (an index); a later empty batch of another run is not reached."""
        cfg = TrainConfig(base_lr=0.1, total_steps=3 * DRAW_BLOCK, batch_size=1, seed=5,
                          warmup_steps=0, noise_multiplier=1.0, optimizer=optimizer)
        excluded, step = self.first_drawn(cfg, in_block=1)
        later, _ = self.first_drawn(cfg, in_block=2)
        empty = (excluded, 4, 2.0)
        if layout == "contiguous":
            variants = [(None, None, 0.0), (None, 4, 1.0), empty, (later, None, 0.0)]
        else:
            variants = [(None, 4, 1.0), (later, None, 0.0), empty, (None, None, 0.0)]
        self.raises(cfg, [empty], step, 0)
        self.raises(cfg, variants, step, 2)


class TestClassAxisFold:
    """The step's unit-axis reductions run over axis 0 of the unit-major
    (n, R, B) layout. numpy reduces an axis that is not innermost in memory
    as a left fold over whole slices, so each run of a stack gets the bytes
    it gets alone, at 1, 8 and 190 runs."""

    @pytest.mark.parametrize("dim", [3, 8, 11])
    @pytest.mark.parametrize("examples", [16, 200])
    def test_input_table_gathered_by_row_matches_batch_reduce(self, examples, dim):
        """train_many's per-example |x|^2 comes from one (N,) table over the
        dataset's columns; gathered by example it has the bytes of the batch's
        own reduce, and of every run's row of a (d, R, B) stack's reduce."""
        rng = np.random.default_rng(examples + dim)
        F = rng.standard_normal((examples, dim)) * 10.0 ** rng.uniform(-6, 6, (examples, dim))
        FT = np.ascontiguousarray(F.T)
        table = (FT * FT).sum(axis=0)
        for batch in (1, 5, 16, 150):
            idx = rng.choice(examples, size=min(batch, examples), replace=False)
            XT = np.ascontiguousarray(FT[:, idx])  # the block stage's C-order copy
            assert table[idx].tobytes() == (XT * XT).sum(axis=0).tobytes()
            stack = np.repeat((XT * XT)[:, None], 190, axis=1)
            assert stack.sum(axis=0).tobytes() == np.tile(table[idx], (190, 1)).tobytes()

    @pytest.mark.parametrize("classes", [1, 3, 7, 9, 13])
    @pytest.mark.parametrize("runs", [1, 8, 190])
    def test_fold_matches_numpy_reductions(self, runs, classes):
        """numpy's reduce over axis 0 is the left fold over slices, and a stack's
        max, sum and softmax give each run the bytes it gets alone."""
        rng = np.random.default_rng(runs * 10 + classes)
        shape = (classes, runs, 16)
        a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
        fold = a[0]
        for k in range(1, classes):
            fold = fold + a[k]
        assert a.sum(axis=0).tobytes() == fold.tobytes()
        probs = _softmax(a)
        for r in range(runs):
            lone = np.ascontiguousarray(a[:, r])
            assert a.max(axis=0)[r].tobytes() == lone.max(axis=0).tobytes()
            assert a.sum(axis=0)[r].tobytes() == lone.sum(axis=0).tobytes()
            exp = np.exp(lone - lone.max(axis=0))
            assert probs[:, r].tobytes() == (exp / exp.sum(axis=0)).tobytes()
            assert probs[:, r].tobytes() == _softmax(lone).tobytes()

    @pytest.mark.parametrize("classes", [1, 2, 3, 7])
    @pytest.mark.parametrize("runs", [1, 8, 31, 32, 190])
    def test_hits_follow_argmax_ties(self, runs, classes):
        """A hit is the label being the most probable class, the lowest index
        winning ties, checked example by example; probabilities drawn from
        {0, 1/4, 1/2} tie often."""
        rng = np.random.default_rng(runs + classes)
        probs = rng.integers(0, 3, (classes, runs, 16)) / 4.0
        y = rng.integers(0, classes, 16)
        hits = _hits(probs, y)
        assert hits.shape == (runs, 16)
        for r in range(runs):
            for b in range(16):
                column = probs[:, r, b].tolist()
                assert hits[r, b] == (column.index(max(column)) == y[b])


class TestEvaluate:
    def test_zero_theta_tie_rule(self):
        features = np.random.default_rng(0).standard_normal((10, 3))
        labels = np.array([0, 1] * 5)
        dataset = LabeledDataset(features=features, labels=labels,
                                 languages=("en",) * 10)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
        accuracy, per_language = evaluate(np.zeros(model.num_params), model, dataset)
        assert accuracy == 0.5  # argmax ties resolve to class 0
        assert per_language["en"] == pytest.approx(math.log(2), abs=1e-12)

    def test_separable_optimum_is_perfect(self):
        features = np.array([[1.0, 0.0], [0.0, 1.0]] * 8)
        labels = np.array([0, 1] * 8)
        dataset = LabeledDataset(features=features, labels=labels,
                                 languages=("en", "fr") * 8)
        model = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
        theta = np.array([50.0, -50.0, -50.0, 50.0, 0.0, 0.0])
        accuracy, per_language = evaluate(theta, model, dataset)
        assert accuracy == 1.0
        assert set(per_language) == {"en", "fr"}

    def test_labels_outside_the_model_rejected(self):
        dataset = make_dataset(n=12, c=3)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=2)
        with pytest.raises(ShapeMismatchError, match=r"outside \[0, 2\)"):
            evaluate(np.zeros(model.num_params), model, dataset)

    def test_input_width_mismatch_rejected(self):
        dataset = make_dataset(n=12, d=4)
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        with pytest.raises(ShapeMismatchError, match="input_dim"):
            evaluate(np.zeros(model.num_params), model, dataset)

    @pytest.mark.parametrize("shape", [(5,), (2, 12), (1, 12)])
    def test_theta_that_is_not_one_vector_names_its_shape(self, shape):
        model = ModelSpec(input_dim=3, hidden_dim=0, num_classes=3)
        with pytest.raises(ShapeMismatchError, match=re.escape(f"theta has {shape}, spec needs (12,)")):
            evaluate(np.zeros(shape), model, make_dataset(n=12))

    def test_kernel_takes_only_parameter_stacks(self):
        with pytest.raises(ShapeMismatchError, match=r"spec needs \(R, 16\)"):
            _unpack(LINEAR, np.zeros(LINEAR.num_params))
        W, b = _unpack(LINEAR, np.zeros((1, LINEAR.num_params)))
        assert W.shape == (1, 4, 3) and b.shape == (1, 4)


class TestCkpt1Format:
    def test_round_trip(self, tmp_path):
        ckpt = Checkpoint(step=200, theta=np.random.default_rng(0).standard_normal(17), eta=0.05)
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, ckpt)
        restored = read_checkpoint(path)
        assert restored.step == 200
        assert restored.eta == 0.05
        assert (restored.theta == ckpt.theta).all()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, Checkpoint(step=1, theta=np.zeros(3), eta=0.1))
        path.write_bytes(b"NOPE!" + path.read_bytes()[5:])
        with pytest.raises(FormatError):
            read_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, Checkpoint(step=1, theta=np.zeros(3), eta=0.1))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_checkpoint(path)

    @pytest.mark.parametrize("step", [2**32, -1, 2.0, True])
    def test_step_outside_u32_raises_format_error_before_writing(self, tmp_path, step):
        path = tmp_path / "c.ckpt"
        with pytest.raises(FormatError, match="does not fit CKPT1's u32 field"):
            write_checkpoint(path, Checkpoint(step=step, theta=np.zeros(3), eta=0.1))
        assert not path.exists()
        write_checkpoint(path, Checkpoint(step=2**32 - 1, theta=np.zeros(3), eta=0.1))
        assert read_checkpoint(path).step == 2**32 - 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**31 - 1), step=st.integers(0, 10**6))
    def test_round_trip_randomized(self, tmp_path_factory, n, seed, step):
        theta = np.random.default_rng(seed).standard_normal(n)
        path = tmp_path_factory.mktemp("ckpt") / "c.ckpt"
        write_checkpoint(path, Checkpoint(step=step, theta=theta, eta=0.123))
        restored = read_checkpoint(path)
        assert restored.step == step and (restored.theta == theta).all()


class TestValidation:
    def test_dataset_invariants(self):
        with pytest.raises(NonFiniteError):
            LabeledDataset(features=np.array([[np.nan]]), labels=np.array([0]),
                           languages=("en",))
        with pytest.raises(ShapeMismatchError):
            LabeledDataset(features=np.zeros((2, 2)), labels=np.array([0]),
                           languages=("en", "fr"))

    def test_fractional_label_rejected(self):
        with pytest.raises(ShapeMismatchError, match="integer class indices"):
            LabeledDataset(features=np.zeros((2, 2)), labels=[1.7, 0.2], languages=("en", "fr"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300, -1.0])
    def test_non_finite_or_huge_label_rejected(self, bad):
        with pytest.raises(ShapeMismatchError, match="integer class indices"):
            LabeledDataset(features=np.zeros((2, 2)), labels=[0.0, bad], languages=("en", "fr"))

    def test_integer_valued_float_labels_accepted(self):
        dataset = LabeledDataset(features=np.zeros((2, 2)), labels=[0.0, 2.0],
                                 languages=("en", "fr"))
        assert dataset.labels.dtype == np.int64
        assert dataset.labels.tolist() == [0, 2]

    def test_empty_dataset_rejected(self):
        with pytest.raises(MlprivError, match="no examples"):
            LabeledDataset(features=np.zeros((0, 3)), labels=np.zeros(0, dtype=np.int64),
                           languages=())

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.0, total_steps=10, batch_size=2, seed=0)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0, optimizer="rmsprop")
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0, warmup_steps=10)
        with pytest.raises(ValueError):
            TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0, checkpoint_interval=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["base_lr", "clip_threshold", "noise_multiplier", "weight_decay"])
    def test_non_finite_config_float_rejected(self, field, value):
        fields = dict(base_lr=0.1, total_steps=10, batch_size=2, seed=0) | {field: value}
        with pytest.raises(InvalidConfigError, match=f"^{field} must be finite"):
            TrainConfig(**fields)

    @pytest.mark.parametrize("value", [True, False, np.True_, "0.5"])
    @pytest.mark.parametrize("field", ["base_lr", "clip_threshold", "noise_multiplier",
                                       "weight_decay", "delta", "target_epsilon"])
    def test_config_float_that_is_not_a_number_rejected(self, field, value):
        """A bool is not a sigma: True would train at sigma = 1 and report
        sigma is True."""
        fields = dict(base_lr=0.1, total_steps=10, batch_size=2, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError, match=f"^{field} must be a real number"):
            TrainConfig(**fields | {field: value})

    def test_integer_and_numpy_floats_accepted(self):
        cfg = TrainConfig(base_lr=np.float32(0.5), total_steps=10, batch_size=2, seed=0,
                          warmup_steps=0, clip_threshold=1, noise_multiplier=np.int64(2),
                          weight_decay=0, delta=np.float64(1e-5), target_epsilon=4)
        assert (cfg.clip_threshold, cfg.noise_multiplier, cfg.target_epsilon) == (1, 2, 4)

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", True, None, np.float64(2.0)])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(InvalidConfigError, match="^seed must be a nonnegative integer"):
            TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=bad)

    @pytest.mark.parametrize("field, value", [
        ("total_steps", 2**32), ("total_steps", 2.5), ("total_steps", 10.0), ("total_steps", True),
        ("total_steps", "10"), ("batch_size", 1.5), ("batch_size", np.float64(2.0)),
        ("warmup_steps", 1.0), ("warmup_steps", None), ("checkpoint_interval", 2.0),
        ("checkpoint_interval", False),
    ])
    def test_count_that_is_not_an_integer_in_range_rejected(self, field, value):
        """Checked when the config is made, before train_many sizes its arrays
        by total_steps; a checkpoint stores its step as u32."""
        fields = dict(base_lr=0.1, total_steps=10, batch_size=2, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError, match=f"^{field} must be"):
            TrainConfig(**fields | {field: value})

    def test_integer_counts_accepted_up_to_u32(self):
        cfg = TrainConfig(base_lr=0.1, total_steps=2**32 - 1, batch_size=np.int64(2), seed=0,
                          warmup_steps=np.uint8(3), checkpoint_interval=np.int32(5))
        assert cfg.total_steps == 2**32 - 1 and cfg.batch_size == 2

    @pytest.mark.parametrize("field, value", [
        ("delta", 7.0), ("delta", 0.0), ("delta", 1.0), ("delta", math.nan),
        ("target_epsilon", math.nan), ("target_epsilon", 0.0), ("target_epsilon", -math.inf),
    ])
    def test_privacy_setting_outside_its_domain_rejected(self, field, value):
        fields = dict(base_lr=0.1, total_steps=10, batch_size=2, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError, match=f"^{field} must be"):
            TrainConfig(**fields | {field: value})

    def test_integer_seeds_accepted(self):
        dataset = make_dataset(n=12)
        for seed, noise_seed in [(0, None), (np.int64(3), np.uint32(4)), (2**64, 0)]:
            cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, warmup_steps=0, seed=seed)
            assert cfg.seed == seed
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [(None, noise_seed, 1.0)])

    def test_trainer_errors_are_typed(self):
        """Each is an MlprivError and also the builtin it replaced."""
        with pytest.raises(InvalidConfigError) as info:
            TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0, optimizer="rmsprop")
        assert isinstance(info.value, MlprivError) and isinstance(info.value, ValueError)
        with pytest.raises(InvalidConfigError):
            ModelSpec(input_dim=0, hidden_dim=0, num_classes=2)
        dataset = make_dataset(n=6)
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0, warmup_steps=0)
        with pytest.raises(InvalidConfigError):
            train_many(dataset, ModelSpec(3, 0, 3), cfg, [])
        with pytest.raises(InvalidConfigError):
            train(dataset, ModelSpec(3, 0, 3), replace(cfg, batch_size=7))
        with pytest.raises(ExcludeIndexError) as info:
            train(dataset, ModelSpec(3, 0, 3), cfg, exclude_index=6)
        assert isinstance(info.value, MlprivError) and isinstance(info.value, IndexError)

    def test_model_spec_invariants(self):
        with pytest.raises(ValueError):
            ModelSpec(input_dim=0, hidden_dim=0, num_classes=2)
        assert ModelSpec(input_dim=3, hidden_dim=0, num_classes=4).num_params == 16
        assert ModelSpec(input_dim=3, hidden_dim=5, num_classes=4).num_params == 3 * 5 + 5 + 5 * 4 + 4
