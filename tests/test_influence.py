"""Influence estimation: checkpoint-based scores, uniformity, the LOO
retraining oracle, and the interpretability margin."""

import math

import numpy as np
import pytest

from mlpriv import influence
from mlpriv.cli import EXIT_OK, main
from mlpriv.errors import (
    CheckpointOrderError,
    ExcludeIndexError,
    MlprivError,
    NonFiniteError,
    ShapeMismatchError,
    TooFewLanguagesError,
    TupleLayoutError,
    UndefinedMarginError,
)
from mlpriv.influence import (
    CheckpointSet,
    event_probability,
    infu_from_scores,
    influence_profile,
    influence_profiles,
    interpretability_margin,
    loo_probabilities,
    tuple_grams,
    _tracin_gram,
)
from mlpriv.repr_store import write_embeddings
from mlpriv.trainer import (
    Checkpoint,
    LabeledDataset,
    ModelSpec,
    TrainConfig,
    Variant,
    _softmax,
    train_many,
    write_checkpoint,
)

from per_example import grad

SPEC = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)


def single_ckpt(theta, eta=0.1, step=100):
    return CheckpointSet((Checkpoint(step=step, theta=np.asarray(theta, float), eta=eta),))


def pair_score(z, z_prime, cks, spec):
    """TracInCP influence of z on z': the cross entry of their two-member profile."""
    return influence_profile(0, [z, z_prime], cks, spec).scores[0, 1]


def self_scores(examples, cks, spec):
    """Self-influences of examples, each its own one-example group of the kernel."""
    X = np.array([x for x, _ in examples], dtype=float)
    return _tracin_gram(X[:, None], np.array([[y] for _, y in examples]), cks, spec)[:, 0, 0]


class TestCheckpointSet:
    def test_steps_must_increase(self):
        c1 = Checkpoint(step=100, theta=np.zeros(3), eta=0.1)
        c2 = Checkpoint(step=100, theta=np.zeros(3), eta=0.1)
        with pytest.raises(ValueError):
            CheckpointSet((c1, c2))

    @pytest.mark.parametrize("make", [
        lambda c: CheckpointSet(()),
        lambda c: CheckpointSet((c, c)),
        lambda c: CheckpointSet.last_k([c], 0),
    ], ids=["empty", "repeated_step", "k_0"])
    def test_checkpoint_errors_are_typed(self, make):
        with pytest.raises(CheckpointOrderError) as info:
            make(Checkpoint(step=100, theta=np.zeros(3), eta=0.1))
        assert isinstance(info.value, MlprivError) and isinstance(info.value, ValueError)

    def test_dimension_agreement(self):
        c1 = Checkpoint(step=100, theta=np.zeros(3), eta=0.1)
        c2 = Checkpoint(step=200, theta=np.zeros(4), eta=0.1)
        with pytest.raises(ShapeMismatchError):
            CheckpointSet((c1, c2))

    @pytest.mark.parametrize("theta, eta", [
        ([0.0, np.nan, 0.0], 0.1),
        ([0.0, np.inf, 0.0], 0.1),
        ([0.0, 0.0, 0.0], np.nan),
        ([0.0, 0.0, 0.0], -np.inf),
    ], ids=["nan-theta", "inf-theta", "nan-eta", "inf-eta"])
    def test_non_finite_checkpoint_rejected(self, theta, eta):
        c1 = Checkpoint(step=100, theta=np.zeros(3), eta=0.1)
        c2 = Checkpoint(step=200, theta=np.array(theta), eta=eta)
        with pytest.raises(NonFiniteError, match="step 200"):
            CheckpointSet((c1, c2))

    def test_last_k(self):
        cks = [Checkpoint(step=s, theta=np.zeros(2), eta=0.1) for s in (100, 200, 300, 400)]
        assert [c.step for c in CheckpointSet.last_k(cks, 3).checkpoints] == [200, 300, 400]


class TestTracinCp:
    def test_single_checkpoint_is_weighted_dot_product(self):
        theta = np.array([0.3, -0.2, 0.1, 0.0, 0.05, -0.05])
        cks = single_ckpt(theta, eta=0.07)
        z = (np.array([1.0, 2.0]), 0)
        z_prime = (np.array([-1.0, 0.5]), 1)
        expected = 0.07 * float(grad(SPEC, theta, z) @ grad(SPEC, theta, z_prime))
        assert pair_score(z, z_prime, cks, SPEC) == pytest.approx(expected, abs=1e-15)

    def test_multi_checkpoint_sums_over_checkpoints(self):
        rng = np.random.default_rng(0)
        thetas = [rng.standard_normal(SPEC.num_params) for _ in range(3)]
        cks = CheckpointSet(tuple(
            Checkpoint(step=100 * (i + 1), theta=t, eta=0.1 / (i + 1))
            for i, t in enumerate(thetas)
        ))
        z = (np.array([0.5, -1.0]), 1)
        z_prime = (np.array([2.0, 0.0]), 0)
        expected = sum(
            (0.1 / (i + 1)) * float(grad(SPEC, t, z) @ grad(SPEC, t, z_prime))
            for i, t in enumerate(thetas)
        )
        assert pair_score(z, z_prime, cks, SPEC) == pytest.approx(expected, rel=1e-12)

    def test_zero_gradient_gives_zero(self):
        # saturated correct prediction: gradient vanishes, so all influence does
        theta = np.array([50.0, 0.0, -50.0, 0.0, 0.0, 0.0])
        cks = single_ckpt(theta)
        z = (np.array([1.0, 0.0]), 0)
        assert abs(pair_score(z, z, cks, SPEC)) < 1e-12

    def test_self_influence_is_eta_times_squared_norm(self):
        theta = np.array([0.3, -0.2, 0.1, 0.0, 0.05, -0.05])
        cks = single_ckpt(theta, eta=0.1)
        z = (np.array([1.0, 2.0]), 0)
        g = grad(SPEC, theta, z)
        assert self_scores([z], cks, SPEC)[0] == pytest.approx(0.1 * float(g @ g), abs=1e-15)

    def test_self_influence_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            theta = rng.standard_normal(SPEC.num_params)
            z = (rng.standard_normal(2), int(rng.integers(2)))
            assert self_scores([z], single_ckpt(theta), SPEC)[0] >= 0.0


def grad_loop_scores(examples, cks, spec):
    """sum over checkpoints of eta * grad . grad, one gradient and one pair at a time."""
    n = len(examples)
    scores = np.zeros((n, n))
    for ckpt in cks.checkpoints:
        grads = [grad(spec, ckpt.theta, z) for z in examples]
        for i in range(n):
            for j in range(n):
                scores[i, j] += ckpt.eta * float(grads[i] @ grads[j])
    return scores


def random_checkpoints(spec, K, seed):
    rng = np.random.default_rng(seed)
    return CheckpointSet(tuple(
        Checkpoint(step=10 * (k + 1), theta=rng.standard_normal(spec.num_params),
                   eta=float(rng.uniform(0.01, 0.5)))
        for k in range(K)
    ))


def tuple_dataset(tuples, languages, spec, seed):
    """A tuple-major dataset: example i * languages + q is tuple i in language q."""
    rng = np.random.default_rng(seed)
    n = tuples * languages
    return LabeledDataset(
        features=rng.standard_normal((n, spec.input_dim)),
        labels=rng.integers(0, spec.num_classes, size=n),
        languages=tuple(f"L{q}" for q in range(languages)) * tuples,
    )


class TestGramKernel:
    CKS = single_ckpt(np.zeros(SPEC.num_params))

    @pytest.mark.parametrize("hidden_dim", [0, 4])
    @pytest.mark.parametrize("K", [1, 3, 10])
    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_matches_per_example_gradient_loop(self, hidden_dim, K, L):
        spec = ModelSpec(input_dim=3, hidden_dim=hidden_dim, num_classes=3)
        rng = np.random.default_rng(100 * K + 10 * L + hidden_dim)
        cks = CheckpointSet(tuple(
            Checkpoint(step=10 * (k + 1), theta=rng.standard_normal(spec.num_params),
                       eta=float(rng.uniform(0.01, 0.5)))
            for k in range(K)
        ))
        examples = [(rng.standard_normal(3), int(rng.integers(3))) for _ in range(L)]
        expected = grad_loop_scores(examples, cks, spec)
        profile = influence_profile(0, examples, cks, spec)
        np.testing.assert_allclose(profile.scores, expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(
            self_scores(examples, cks, spec), np.diag(expected), rtol=1e-12, atol=0
        )
        for i in range(L):
            for j in range(L):
                assert pair_score(examples[i], examples[j], cks, spec) == pytest.approx(
                    expected[i, j], rel=1e-12
                )

    @pytest.mark.parametrize("hidden_dim", [0, 4])
    def test_grouped_profiles_match_per_tuple_calls(self, hidden_dim):
        spec = ModelSpec(input_dim=3, hidden_dim=hidden_dim, num_classes=3)
        cks = random_checkpoints(spec, K=3, seed=hidden_dim)
        dataset = tuple_dataset(tuples=7, languages=4, spec=spec, seed=hidden_dim)
        profiles = influence_profiles(dataset, cks, spec)
        assert [p.tuple_index for p in profiles] == list(range(7))
        for i, profile in enumerate(profiles):
            rows = range(4 * i, 4 * i + 4)
            examples = [(dataset.features[r], int(dataset.labels[r])) for r in rows]
            alone = influence_profile(i, examples, cks, spec)
            assert profile.scores.tobytes() == alone.scores.tobytes()
            assert profile.infu == alone.infu

    @pytest.mark.parametrize("hidden_dim", [0, 4])
    def test_one_example_groups_give_self_influences(self, hidden_dim):
        spec = ModelSpec(input_dim=3, hidden_dim=hidden_dim, num_classes=3)
        cks = random_checkpoints(spec, K=3, seed=10 + hidden_dim)
        dataset = tuple_dataset(tuples=5, languages=3, spec=spec, seed=10 + hidden_dim)
        grouped = _tracin_gram(dataset.features[:, None], dataset.labels[:, None], cks, spec)
        assert grouped.shape == (15, 1, 1)
        for r in range(15):
            z = (dataset.features[r], int(dataset.labels[r]))
            assert grouped[r, 0, 0] == pytest.approx(pair_score(z, z, cks, spec), rel=1e-12)

    def test_labels_must_match_grouped_inputs(self):
        with pytest.raises(ShapeMismatchError):
            _tracin_gram(np.zeros((2, 3, 2)), np.zeros((2, 2), dtype=np.int64), self.CKS, SPEC)
        with pytest.raises(ShapeMismatchError):
            _tracin_gram(np.zeros((6, 2)), np.zeros(6, dtype=np.int64), self.CKS, SPEC)

    def test_stacked_checkpoints_are_read_only(self):
        cks = single_ckpt(np.zeros(SPEC.num_params), eta=0.1)
        assert cks.thetas.shape == (1, SPEC.num_params)
        assert cks.etas.tolist() == [0.1]
        with pytest.raises(ValueError):
            cks.thetas[0, 0] = 1.0
        with pytest.raises(ValueError):
            cks.etas[0] = 1.0


class TestInfluenceInputs:
    """Malformed examples raise ShapeMismatchError, as forward_loss does."""

    CKS = single_ckpt(np.linspace(-0.3, 0.3, SPEC.num_params))
    GOOD = (np.array([1.0, -0.5]), 0)

    @pytest.mark.parametrize("label", [5, 2])
    def test_label_at_or_above_num_classes_rejected(self, label):
        bad = (np.array([0.5, 0.5]), label)
        with pytest.raises(ShapeMismatchError):
            influence_profile(0, [self.GOOD, bad], self.CKS, SPEC)
        with pytest.raises(ShapeMismatchError):
            self_scores([bad], self.CKS, SPEC)

    def test_negative_label_rejected(self):
        bad = (np.array([0.5, 0.5]), -1)
        with pytest.raises(ShapeMismatchError):
            influence_profile(0, [self.GOOD, bad], self.CKS, SPEC)
        with pytest.raises(ShapeMismatchError):
            self_scores([bad], self.CKS, SPEC)

    def test_fractional_label_rejected(self):
        bad = (np.array([0.5, 0.5]), 1.7)
        with pytest.raises(ShapeMismatchError):
            influence_profile(0, [self.GOOD, bad], self.CKS, SPEC)
        with pytest.raises(ShapeMismatchError):
            self_scores([bad], self.CKS, SPEC)

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros(1), np.zeros((2, 1)), np.float64(1.0)])
    def test_input_of_wrong_shape_rejected(self, x):
        with pytest.raises(ShapeMismatchError):
            influence_profile(0, [self.GOOD, (x, 1)], self.CKS, SPEC)
        with pytest.raises(ShapeMismatchError):
            self_scores([(x, 1)], self.CKS, SPEC)
        with pytest.raises(ShapeMismatchError):
            influence_profile(0, [(x, 1), self.GOOD], self.CKS, SPEC).scores[1]

    def test_numpy_integer_labels_accepted(self):
        z = (np.array([0.5, 0.5]), np.int64(1))
        assert pair_score(self.GOOD, z, self.CKS, SPEC) == pair_score(self.GOOD, (z[0], 1), self.CKS, SPEC)


class TestInfluenceVector:
    """One anchor's row of a tuple's profile: its influence on every member."""

    def test_identical_members_give_constant_vector(self):
        theta = np.random.default_rng(2).standard_normal(SPEC.num_params)
        z = (np.array([1.0, -0.5]), 1)
        vec = influence_profile(0, [z, z, z], single_ckpt(theta), SPEC).scores[0]
        assert np.ptp(vec) < 1e-14

    def test_orthogonal_gradients_give_self_and_zero(self):
        # at theta = 0 the weight-block gradients of axis-aligned inputs are
        # orthogonal; bias terms are removed by using opposite labels' symmetry
        theta = np.zeros(SPEC.num_params)
        z = (np.array([1.0, 0.0]), 0)
        z_prime = (np.array([0.0, 1.0]), 1)
        g, g_prime = grad(SPEC, theta, z), grad(SPEC, theta, z_prime)
        vec = influence_profile(0, [z, z_prime], single_ckpt(theta), SPEC).scores[0]
        assert vec[0] == pytest.approx(0.1 * float(g @ g), abs=1e-15)
        assert vec[1] == pytest.approx(0.1 * float(g @ g_prime), abs=1e-15)

    def test_needs_two_members(self):
        with pytest.raises(TooFewLanguagesError):
            influence_profile(0, [(np.zeros(2), 0)], single_ckpt(np.zeros(6)), SPEC).scores[0]


class TestInfluenceProfiles:
    """Every tuple of a dataset at once; the dataset must be tuple-major."""

    CKS = single_ckpt(np.linspace(-0.3, 0.3, SPEC.num_params))

    def dataset(self, languages):
        rng = np.random.default_rng(11)
        n = len(languages)
        return LabeledDataset(features=rng.standard_normal((n, 2)),
                              labels=rng.integers(0, 2, size=n), languages=languages)

    def test_languages_in_first_seen_order(self):
        dataset = self.dataset(("fr", "en", "de") * 3)
        profiles = influence_profiles(dataset, self.CKS, SPEC)
        assert len(profiles) == 3
        examples = [(dataset.features[r], int(dataset.labels[r])) for r in (3, 4, 5)]
        assert profiles[1].scores.tobytes() == influence_profile(1, examples, self.CKS, SPEC).scores.tobytes()

    def test_one_language_rejected(self):
        with pytest.raises(TooFewLanguagesError):
            influence_profiles(self.dataset(("en",) * 4), self.CKS, SPEC)

    def test_incomplete_tuple_rejected(self):
        with pytest.raises(TupleLayoutError, match="do not split"):
            influence_profiles(self.dataset(("en", "fr") * 3 + ("en",)), self.CKS, SPEC)

    def test_language_major_order_rejected(self):
        with pytest.raises(TupleLayoutError, match="tuple-major"):
            influence_profiles(self.dataset(("en",) * 3 + ("fr",) * 3), self.CKS, SPEC)

    def test_tuple_grams_are_the_profiles_scores_in_the_same_layout(self):
        dataset = self.dataset(("fr", "en", "de") * 3)
        grams = tuple_grams(dataset, self.CKS, SPEC)
        assert grams.shape == (3, 3, 3)
        profiles = influence_profiles(dataset, self.CKS, SPEC)
        assert grams.tobytes() == np.stack([p.scores for p in profiles]).tobytes()
        for languages, error in [(("en",) * 4, TooFewLanguagesError),
                                 (("en", "fr") * 3 + ("en",), TupleLayoutError),
                                 (("en",) * 3 + ("fr",) * 3, TupleLayoutError)]:
            with pytest.raises(error):
                tuple_grams(self.dataset(languages), self.CKS, SPEC)


class TestInfU:
    def test_equal_scores_give_one(self):
        assert infu_from_scores(np.full((3, 3), 0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_binary_shifted_scores_match_binary_entropy(self):
        for c in (-3.0, 0.0, 5.0):
            scores = np.array([[math.log(2) + c, c], [math.log(2) + c, c]])
            expected = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
            assert infu_from_scores(scores) == pytest.approx(expected, abs=1e-12)
            assert infu_from_scores(scores) == pytest.approx(0.91830, abs=5e-6)

    def test_huge_gap_gives_zero(self):
        scores = np.array([[50.0, 0.0], [50.0, 0.0]])
        assert infu_from_scores(scores) < 1e-12

    def test_range_and_shape_checks(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            L = int(rng.integers(2, 6))
            value = infu_from_scores(rng.standard_normal((L, L)))
            assert 0.0 <= value <= 1.0
        with pytest.raises(TooFewLanguagesError):
            infu_from_scores(np.zeros((1, 1)))
        with pytest.raises(TooFewLanguagesError):
            infu_from_scores(np.zeros((2, 3)))

    def test_matches_per_anchor_loop_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            L = int(rng.integers(2, 6))
            scores = rng.standard_normal((L, L)) * rng.choice([1e-3, 1.0, 40.0, 800.0])
            entropies = []
            for row in scores:
                p = _softmax(row[:, None])[:, 0]
                nz = p[p > 0]
                entropies.append(float(-(nz * np.log(nz)).sum() / math.log(L)))
            assert infu_from_scores(scores) == float(np.mean(entropies))

    def test_profile_scores_match_pairwise_tracin(self):
        rng = np.random.default_rng(4)
        theta = rng.standard_normal(SPEC.num_params)
        cks = single_ckpt(theta, eta=0.05)
        examples = [(rng.standard_normal(2), int(rng.integers(2))) for _ in range(3)]
        profile = influence_profile(7, examples, cks, SPEC)
        assert profile.tuple_index == 7
        for k in range(3):
            for j in range(3):
                assert profile.scores[k, j] == pytest.approx(
                    pair_score(examples[k], examples[j], cks, SPEC), rel=1e-12
                )
        assert profile.infu == pytest.approx(infu_from_scores(profile.scores), abs=0)

    def test_softmax_is_shift_invariant_and_normalized(self):
        """The softmax runs over axis 0: each column of (classes, examples)."""
        s = np.array([[1.0, 3.0], [-2.0, 0.0], [0.5, 0.0]])
        p = _softmax(s)
        np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(_softmax(s + [100.0, -50.0]), p, atol=1e-12)
        np.testing.assert_allclose(p[:, 1], np.exp(s[:, 1]) / np.exp(s[:, 1]).sum(), atol=1e-12)


class TestLooInfluence:
    MODEL = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)

    def loo(self, dataset, x_index, cfg, eval_point, event_class):
        """P(event | D) - P(event | D without x_index), one coupled retrain."""
        p, p_without = loo_probabilities(
            dataset, self.MODEL, cfg, [Variant(), Variant(x_index)], eval_point, event_class
        )
        return p - p_without

    def test_one_probability_per_variant_in_order(self):
        """Exclusions, noise seeds and sigmas mixed in one list: entry r is
        event_probability of variant r trained alone."""
        rng = np.random.default_rng(9)
        dataset = LabeledDataset(features=rng.standard_normal((10, 2)),
                                 labels=rng.integers(0, 2, size=10), languages=("en",) * 10)
        cfg = TrainConfig(base_lr=0.1, total_steps=60, batch_size=4, seed=2,
                          noise_multiplier=0.5)
        variants = [Variant(), (3,), (3, 11), (None, 11, 2.0), (5, None, 0.0), (3, 12, 2.0)]
        point = np.array([0.3, -0.4])
        probs = loo_probabilities(dataset, self.MODEL, cfg, variants, point, 1)
        assert probs.shape == (len(variants),)
        for p, variant in zip(probs, variants):
            theta = train_many(dataset, self.MODEL, cfg, [variant])[0].theta
            assert p == pytest.approx(event_probability(theta, self.MODEL, point, 1),
                                      rel=1e-12, abs=1e-12)
        assert len(set(probs.tolist())) == len(variants)

    def test_duplicated_example_has_negligible_effect(self):
        # well-separated classes so the fit saturates: the remaining twin
        # fully covers for the removed duplicate
        rng = np.random.default_rng(5)
        offsets = np.where(np.arange(18)[:, None] % 2 == 0, [[2.5, 2.5]], [[-2.5, -2.5]])
        features = np.vstack([rng.standard_normal((18, 2)) + offsets, [[2.0, 2.0], [2.0, 2.0]]])
        labels = np.concatenate([np.array([1, 0] * 9), [1, 1]])
        dataset = LabeledDataset(features=features, labels=labels, languages=("en",) * 20)
        cfg = TrainConfig(base_lr=0.5, total_steps=2000, batch_size=20, seed=0,
                          clip_threshold=100.0, optimizer="sgd", weight_decay=1e-3)
        delta = self.loo(dataset, 19, cfg, eval_point=np.array([2.0, 2.0]), event_class=1)
        assert abs(delta) < 1e-3

    def test_sole_class_member_has_large_positive_effect(self):
        rng = np.random.default_rng(6)
        features = np.vstack([rng.standard_normal((11, 2)), [[4.0, 4.0]]])
        labels = np.array([0] * 11 + [1])
        dataset = LabeledDataset(features=features, labels=labels, languages=("en",) * 12)
        cfg = TrainConfig(base_lr=0.2, total_steps=300, batch_size=12, seed=0,
                          clip_threshold=100.0, optimizer="sgd", weight_decay=0.01)
        delta = self.loo(dataset, 11, cfg, eval_point=np.array([4.0, 4.0]), event_class=1)
        assert delta > 0.3

    def test_coupled_retrain_only_depends_on_excluded_slot(self):
        rng = np.random.default_rng(7)
        dataset = LabeledDataset(features=rng.standard_normal((8, 2)),
                                 labels=rng.integers(0, 2, size=8),
                                 languages=("en",) * 8)
        cfg = TrainConfig(base_lr=0.1, total_steps=100, batch_size=4, seed=1)
        point = np.array([1.0, 1.0])
        a = self.loo(dataset, 3, cfg, point, 0)
        b = self.loo(dataset, 3, cfg, point, 0)
        assert a == b  # fully deterministic

    def test_index_validation(self):
        rng = np.random.default_rng(8)
        dataset = LabeledDataset(features=rng.standard_normal((4, 2)),
                                 labels=rng.integers(0, 2, size=4),
                                 languages=("en",) * 4)
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=2, seed=0,
                          warmup_steps=0)
        with pytest.raises(IndexError):
            self.loo(dataset, 4, cfg, np.zeros(2), 0)

    def test_errors_are_typed(self):
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=1, seed=0, warmup_steps=0)
        two = LabeledDataset(features=np.zeros((2, 2)), labels=[0, 1], languages=("en",) * 2)
        with pytest.raises(ExcludeIndexError) as info:
            self.loo(two, -1, cfg, np.zeros(2), 0)
        assert isinstance(info.value, MlprivError) and isinstance(info.value, IndexError)

    @pytest.mark.parametrize("point, event_class", [
        ([0.5, 1.0], -1), ([0.5, 1.0], 2), ([0.5, 1.0], True), ([0.5, 1.0], np.True_),
        ([0.5, 1.0], 1.0), ([0.5, 1.0], "1"), ([0.5, 1.0], [1]), ([0.5, 1.0, 0.0, 0.0], 0),
        ([[0.5], [1.0]], 0), (0.5, 0),
    ], ids=["class_-1", "class_2", "class_True", "class_np_True", "class_float", "class_str",
            "class_list", "point_4", "point_2x1", "point_scalar"])
    def test_bad_readout_input_is_typed_error_before_any_retrain(self, monkeypatch, point,
                                                                 event_class):
        def no_retrain(*args):
            raise AssertionError("train_many ran")

        monkeypatch.setattr(influence, "train_many", no_retrain)
        cfg = TrainConfig(base_lr=0.1, total_steps=10, batch_size=1, seed=0, warmup_steps=0)
        two = LabeledDataset(features=np.zeros((2, 2)), labels=[0, 1], languages=("en",) * 2)
        with pytest.raises(ShapeMismatchError):
            loo_probabilities(two, self.MODEL, cfg, [Variant()], point, event_class)
        with pytest.raises(ShapeMismatchError):
            event_probability(np.zeros(self.MODEL.num_params), self.MODEL, point, event_class)

    def test_readout_takes_numpy_integers_and_sequences(self):
        theta = np.random.default_rng(3).standard_normal(self.MODEL.num_params)
        p = event_probability(theta, self.MODEL, np.array([0.5, 1.0]), 1)
        assert event_probability(theta, self.MODEL, [0.5, 1.0], np.int64(1)) == p
        assert event_probability(theta, self.MODEL, (0.5, 1.0), np.uint8(0)) == pytest.approx(1 - p)


class TestInterpretabilityMargin:
    def test_hand_computed_value(self):
        assert interpretability_margin(0.9, 0.5, 0.8) == pytest.approx(math.log(4), abs=1e-12)

    def test_equal_removals_give_zero(self):
        assert interpretability_margin(0.9, 0.7, 0.7) == 0.0

    def test_premise_violations_rejected(self):
        with pytest.raises(UndefinedMarginError):
            interpretability_margin(0.5, 0.4, 0.6)
        with pytest.raises(UndefinedMarginError):
            interpretability_margin(0.5, 0.6, 0.4)


class TestInfluenceCsv:
    def test_layout(self, tmp_path):
        theta = np.random.default_rng(9).standard_normal(SPEC.num_params)
        write_checkpoint(tmp_path / "ckpt_000100.ckpt", Checkpoint(step=100, theta=theta, eta=0.1))
        write_embeddings(tmp_path / "features.emb", np.array([[1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / "labels.tsv").write_text("0\ten\n1\tfr\n")
        path = tmp_path / "influence.csv"
        assert main(["influence", "--checkpoints", str(tmp_path), "--data", str(tmp_path),
                     "--out", str(path), "--last", "1"]) == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "tuple_index,anchor_lang,target_lang,score"
        assert len(lines) == 1 + 4 + 1  # header + 2x2 scores + InfU row
        assert lines[-1].startswith("0,ALL,ALL,")
