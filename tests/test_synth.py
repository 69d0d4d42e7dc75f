"""Synthetic parallel-data generators and the planted-outlier construction."""

import math

import numpy as np
import pytest

from mlpriv.errors import DomainError
from mlpriv.influence import loo_probabilities
from mlpriv.metrics import pairwise_report
from mlpriv.synth import (
    SynthSpec,
    gen_classification_data,
    gen_parallel_set,
    language_tags,
    plant_outlier,
)
from mlpriv.trainer import ModelSpec, TrainConfig, Variant


class TestSynthSpec:
    def test_domain_validation(self):
        with pytest.raises(DomainError):
            SynthSpec(num_languages=3, tuples=10, dim=4, compression=1.5)
        with pytest.raises(DomainError):
            SynthSpec(num_languages=1, tuples=10, dim=4)
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="^noise_scale must be finite and >= 0"):
                SynthSpec(num_languages=3, tuples=10, dim=4, noise_scale=bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", True, None])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(DomainError, match="^seed must be a nonnegative integer"):
            SynthSpec(num_languages=3, tuples=10, dim=4, seed=bad)

    def test_language_tags_are_stable(self):
        assert language_tags(3) == ["L00", "L01", "L02"]


class TestParallelSet:
    def test_full_compression_gives_identical_matrices(self):
        spec = SynthSpec(num_languages=3, tuples=20, dim=6, compression=1.0, seed=0)
        embedding_set, labels = gen_parallel_set(spec)
        base = embedding_set.matrices[0]
        for matrix in embedding_set.matrices[1:]:
            assert (matrix == base).all()
        assert pairwise_report(embedding_set, "retrieval").aggregate == 1.0
        assert labels.shape == (20,)

    def test_zero_compression_retrieval_near_chance(self):
        for seed in range(3):
            spec = SynthSpec(num_languages=3, tuples=100, dim=8, compression=0.0, seed=seed)
            embedding_set, _ = gen_parallel_set(spec)
            aggregate = pairwise_report(embedding_set, "retrieval").aggregate
            assert aggregate < 3 / 100

    def test_determinism(self):
        spec = SynthSpec(num_languages=3, tuples=15, dim=5, compression=0.4, seed=7)
        a_set, a_labels = gen_parallel_set(spec)
        b_set, b_labels = gen_parallel_set(spec)
        assert (a_labels == b_labels).all()
        for ma, mb in zip(a_set.matrices, b_set.matrices):
            assert (ma == mb).all()

    def test_labels_balanced_by_quantile_binning(self):
        spec = SynthSpec(num_languages=2, tuples=90, dim=6, classes=3, seed=1)
        _, labels = gen_parallel_set(spec)
        counts = np.bincount(labels, minlength=3)
        assert counts.min() >= 90 // 3 - 2  # quantile bins are near-equal

    def test_language_views_preserve_rank(self):
        # each language view is rotation x diag(0.7..1.4), hence invertible:
        # no language collapses the latent space
        spec = SynthSpec(num_languages=4, tuples=400, dim=6, compression=0.0,
                         noise_scale=0.0, seed=3)
        embedding_set, _ = gen_parallel_set(spec)
        for matrix in embedding_set.matrices:
            assert np.linalg.matrix_rank(matrix - matrix.mean(0)) == 6


class TestClassificationData:
    def test_tuple_major_flattening(self):
        spec = SynthSpec(num_languages=3, tuples=10, dim=4, compression=0.6, seed=2)
        embedding_set, labels = gen_parallel_set(spec)
        dataset = gen_classification_data(spec)
        assert len(dataset) == 30
        for i in range(10):
            for q in range(3):
                flat = i * 3 + q
                assert (dataset.features[flat] == embedding_set.matrices[q][i]).all()
                assert dataset.labels[flat] == labels[i]
                assert dataset.languages[flat] == embedding_set.languages[q]

    def test_labels_language_invariant(self):
        spec = SynthSpec(num_languages=4, tuples=12, dim=4, compression=0.1, seed=3)
        dataset = gen_classification_data(spec)
        per_tuple = dataset.labels.reshape(12, 4)
        assert (per_tuple == per_tuple[:, :1]).all()


class TestPlantOutlier:
    def test_zero_magnitude_is_identity(self):
        spec = SynthSpec(num_languages=2, tuples=10, dim=4, seed=4)
        dataset = gen_classification_data(spec)
        planted_set, index = plant_outlier(dataset, magnitude=0.0, seed=1)
        assert 0 <= index < len(dataset)
        assert (planted_set.features == dataset.features).all()
        assert (planted_set.labels == dataset.labels).all()

    def test_outlier_is_far_and_relabeled(self):
        spec = SynthSpec(num_languages=2, tuples=10, dim=4, classes=3, seed=4)
        dataset = gen_classification_data(spec)
        planted_set, index = plant_outlier(dataset, magnitude=9.0, seed=1)
        assert np.linalg.norm(planted_set.features[index]) == pytest.approx(9.0)
        assert planted_set.labels[index] == (dataset.labels[index] + 1) % 3
        keep = np.arange(len(dataset)) != index
        assert (planted_set.features[keep] == dataset.features[keep]).all()

    def test_orthogonal_direction_clears_class_means(self):
        spec = SynthSpec(num_languages=2, tuples=20, dim=6, classes=3, seed=5)
        dataset = gen_classification_data(spec)
        planted_set, index = plant_outlier(dataset, magnitude=5.0, seed=2, orthogonal=True)
        direction = planted_set.features[index] / 5.0
        for c in range(3):
            mean = dataset.features[dataset.labels == c].mean(axis=0)
            assert abs(mean @ direction) < 1e-9

    @pytest.mark.filterwarnings("error")
    def test_class_with_no_example_is_left_out_of_the_projection(self):
        """Class 3 has no example: the direction clears the means of the four
        classes present, which leave two of six dimensions free, and no mean
        of an empty slice is taken."""
        spec = SynthSpec(num_languages=2, tuples=6, dim=6, classes=5, seed=10)
        dataset = gen_classification_data(spec)
        assert np.bincount(dataset.labels, minlength=5).tolist() == [2, 2, 4, 0, 4]
        planted_set, index = plant_outlier(dataset, magnitude=5.0, seed=0, orthogonal=True)
        direction = planted_set.features[index] / 5.0
        assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
        for c in (0, 1, 2, 4):
            mean = dataset.features[dataset.labels == c].mean(axis=0)
            assert abs(mean @ direction) < 1e-12

    def test_present_class_means_that_span_the_space_are_rejected(self):
        """Four present classes in dim 4 leave no direction orthogonal to
        their means: the call names both counts instead of planting the
        normalised rounding residue. With nothing to project, it plants."""
        spec = SynthSpec(num_languages=2, tuples=6, dim=4, classes=5, seed=10)
        dataset = gen_classification_data(spec)
        assert np.unique(dataset.labels).tolist() == [0, 1, 2, 4]
        with pytest.raises(DomainError, match="got 4 classes in dim 4$"):
            plant_outlier(dataset, magnitude=6.0, seed=1, orthogonal=True)
        for magnitude, orthogonal in ((0.0, True), (6.0, False)):
            planted_set, index = plant_outlier(dataset, magnitude=magnitude, seed=1,
                                               orthogonal=orthogonal)
            assert np.linalg.norm(planted_set.features[index]) == pytest.approx(
                magnitude or np.linalg.norm(dataset.features[index]))

    def test_negative_magnitude_rejected(self):
        spec = SynthSpec(num_languages=2, tuples=10, dim=4, seed=4)
        dataset = gen_classification_data(spec)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="^magnitude must be finite and >= 0"):
                plant_outlier(dataset, magnitude=bad, seed=0)

    def test_planted_point_dominates_loo_effect(self):
        """Removing the planted point changes its event probability more than
        removing any other single example, for most seeds (median over 20)."""
        model = ModelSpec(input_dim=6, hidden_dim=0, num_classes=3)
        margins = []
        for seed in range(20):
            spec = SynthSpec(num_languages=2, tuples=8, dim=6, classes=3,
                             compression=0.5, seed=seed)
            dataset = gen_classification_data(spec)
            planted_set, index = plant_outlier(dataset, magnitude=6.0,
                                               seed=seed + 100, orthogonal=True)
            cfg = TrainConfig(base_lr=0.1, total_steps=150, batch_size=16,
                              seed=seed, optimizer="sgd")
            point = planted_set.features[index]
            cls = int(planted_set.labels[index])
            # one coupled retrain per example, all beside the full-data run
            probs = loo_probabilities(
                planted_set, model, cfg,
                [Variant(e) for e in [None, *range(len(planted_set))]], point, cls,
            )
            deltas = np.abs(probs[0] - probs[1:])
            others = np.delete(deltas, index)
            margins.append(deltas[index] - others.max())
        assert float(np.median(margins)) > 0.0
