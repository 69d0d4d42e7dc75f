"""Compression metrics: frozen hand-computed oracles plus range/invariance
properties. Oracle constants were derived independently of the implementation
(direct evaluation of the defining formulas) and are asserted frozen."""

import math

import numpy as np
import pytest
from scipy.stats import rankdata
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlpriv.cli import EXIT_OK, main
from mlpriv.errors import (
    DegenerateInputError,
    DegenerateInputWarning,
    DimensionTooSmallError,
    LengthMismatchError,
    MlprivError,
    NonFiniteError,
    NonFiniteLossError,
    ShapeMismatchError,
    TooFewLanguagesError,
    TooFewSentencesError,
    UnknownNameError,
    ZeroNormRowError,
)
from mlpriv.metrics import (
    _average_ranks,
    _rdm_upper,
    cosine_similarity_matrix,
    isoscore,
    linear_cka,
    linguistic_fairness_gap,
    pairwise_report,
    retrieval_precision,
    rsa_score,
    spearman_rho,
)
from mlpriv.repr_store import EmbeddingSet, Manifest, write_embeddings

finite_matrices = arrays(
    np.float64,
    st.tuples(st.integers(3, 8), st.integers(2, 6)),
    elements=st.floats(-10, 10, allow_nan=False),
)


class TestCosineMatrix:
    def test_orthonormal_rows_give_identity(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(cosine_similarity_matrix(X, X), np.eye(2))

    def test_hand_computed_entries(self):
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([[0.0, 1.0], [1 / math.sqrt(2), 1 / math.sqrt(2)]])
        np.testing.assert_allclose(cosine_similarity_matrix(X, Y), expected)

    def test_zero_row_rejected(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroNormRowError):
            cosine_similarity_matrix(X, X)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            cosine_similarity_matrix(np.ones((2, 2)), np.ones((3, 2)))


class TestRetrievalPrecision:
    def test_self_retrieval_is_one(self):
        X = np.random.default_rng(0).standard_normal((12, 5))
        assert retrieval_precision(X, X) == 1.0

    def test_swapped_rows_give_zero(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert retrieval_precision(X, Y) == 0.0

    def test_small_perturbation_still_one(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Y = np.array([[1.0, 0.1], [0.1, 1.0]])
        assert retrieval_precision(X, Y) == 1.0

    def test_one_directional_hit_counts_half(self):
        # X row 1 duplicated in Y breaks exactly the backward direction for
        # one row: value is a multiple of 1/(2m)
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        Y = np.array([[1.0, 0.0], [1.0, 0.02], [1.0, 1.0]])
        value = retrieval_precision(X, Y)
        assert 0.0 < value < 1.0
        assert (value * 6) == round(value * 6)  # multiple of 1/(2m), m = 3

    @settings(max_examples=30, deadline=None)
    @given(X=finite_matrices, Y=finite_matrices)
    def test_range_and_symmetry_of_direction_split(self, X, Y):
        if X.shape != Y.shape:
            return
        if (np.linalg.norm(X, axis=1) == 0).any() or (np.linalg.norm(Y, axis=1) == 0).any():
            return
        value = retrieval_precision(X, Y)
        assert 0.0 <= value <= 1.0
        # reversing the direction swaps the two argmax scans, same total
        assert retrieval_precision(Y, X) == pytest.approx(value, abs=0)


class TestLinearCka:
    def test_self_similarity_is_one(self):
        X = np.random.default_rng(1).standard_normal((10, 4))
        assert linear_cka(X, X) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 4))
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        assert linear_cka(X, X @ Q) == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_value(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        Y = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        assert linear_cka(X, Y) == pytest.approx(1 / math.sqrt(10), abs=1e-12)

    def test_constant_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            linear_cka(np.ones((4, 2)), np.random.default_rng(0).standard_normal((4, 2)))

    def test_different_dims_allowed_same_rows(self):
        rng = np.random.default_rng(3)
        value = linear_cka(rng.standard_normal((8, 3)), rng.standard_normal((8, 5)))
        assert 0.0 <= value <= 1.0

    def test_tiny_scale_matrix_is_not_degenerate(self):
        # the Gram norm of a 1e-110-scale matrix sums 1e-440 squares
        X = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        expected = linear_cka(X, X * 2.0)
        assert linear_cka(X, X * 2.0**-365) == expected
        assert linear_cka(X * 2.0**-365, X) == expected

    @settings(max_examples=30, deadline=None)
    @given(X=finite_matrices, Y=finite_matrices)
    def test_range_and_symmetry(self, X, Y):
        if X.shape[0] != Y.shape[0]:
            return
        if np.linalg.norm(X - X.mean(0)) == 0 or np.linalg.norm(Y - Y.mean(0)) == 0:
            return
        value = linear_cka(X, Y)
        assert 0.0 <= value <= 1.0
        assert linear_cka(Y, X) == pytest.approx(value, abs=1e-12)


class TestIsoscore:
    def test_perfectly_isotropic_cross(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert isoscore(X) == pytest.approx(1.0, abs=1e-12)

    def test_single_axis_two_dims_is_zero(self):
        X = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        assert isoscore(X) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        X = np.random.default_rng(4).standard_normal((50, 6))
        assert isoscore(3.7 * X) == pytest.approx(isoscore(X), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 6)) * np.array([3, 1, 1, 0.5, 0.2, 0.1])
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        assert isoscore(X @ Q) == pytest.approx(isoscore(X), abs=1e-9)

    def test_one_dimension_rejected(self):
        with pytest.raises(DimensionTooSmallError):
            isoscore(np.ones((5, 1)))

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            isoscore(np.ones((5, 3)))

    @settings(max_examples=30, deadline=None)
    @given(X=finite_matrices)
    def test_range(self, X):
        try:
            value = isoscore(X)
        except DegenerateInputError:
            # zero (or underflowed) covariance is rejected by contract
            return
        assert 0.0 <= value <= 1.0


class TestSpearman:
    def test_identical_increasing(self):
        a = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman_rho(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_reversed(self):
        a = np.array([1.0, 2.0, 5.0, 9.0])
        assert spearman_rho(a, a[::-1]) == pytest.approx(-1.0, abs=1e-12)

    def test_average_tie_ranks(self):
        assert spearman_rho([0, 2, 2], [2, 0, 2]) == pytest.approx(-0.5, abs=1e-12)

    def test_constant_vector_warns_and_returns_zero(self):
        with pytest.warns(DegenerateInputWarning):
            assert spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            spearman_rho([1.0], [1.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=30),
        seed=st.integers(0, 10**6),
    )
    def test_range_and_symmetry(self, a, seed):
        a = np.array(a)
        b = np.random.default_rng(seed).standard_normal(a.size)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateInputWarning)
            rho = spearman_rho(a, b)
            assert -1.0 <= rho <= 1.0
            assert spearman_rho(b, a) == pytest.approx(rho, abs=1e-12)

    def test_monotone_map_invariance(self):
        # strictly monotone transforms preserve ranks exactly
        rng = np.random.default_rng(12)
        a = rng.permutation(20).astype(float)
        b = rng.standard_normal(20)
        rho = spearman_rho(a, b)
        assert spearman_rho(np.exp(a / 5), b) == pytest.approx(rho, abs=1e-12)
        assert spearman_rho(3 * a + 7, b) == pytest.approx(rho, abs=1e-12)


class TestAverageRanks:
    """The package's own average-tie ranks against scipy's rankdata."""

    # 1,770 and 7,140 are the RDM triangles of 60 and 120 sentences
    @pytest.mark.parametrize("shape", [(1,), (2,), (9,), (40,), (1, 6), (7, 5), (3, 4, 33),
                                       (1770,), (7140,)])
    def test_match_rankdata_bit_for_bit_on_tied_rows(self, shape):
        rng = np.random.default_rng(len(shape) * 100 + shape[-1])
        for values in (rng.integers(-2, 3, size=shape).astype(np.float64),  # ties in most rows
                       rng.integers(0, 2, size=shape) * 1e-300,
                       rng.standard_normal(shape)):
            values.flat[0] = -0.0  # ties with 0.0
            if values.size > 2:
                values.flat[1] = np.inf
                values.flat[-1] = -np.inf
            expected = rankdata(values, method="average", axis=-1)
            assert _average_ranks(values).tobytes() == expected.tobytes()

    def test_match_rankdata_bit_for_bit_on_an_rdm_triangle(self):
        # a Spearman rho of 8 untied ranks takes at most 85 values, so the
        # 7,140 entries of 120 sentences' triangle fall into dense tie groups
        triangle = _rdm_upper(np.random.default_rng(12).standard_normal((120, 8)))
        assert len(np.unique(triangle)) <= 85
        expected = rankdata(triangle, method="average")
        assert _average_ranks(triangle).tobytes() == expected.tobytes()

    def test_a_row_with_nan_is_all_nan(self):
        values = np.array([[1.0, np.nan, 1.0], [2.0, 2.0, 0.0]])
        np.testing.assert_array_equal(_average_ranks(values),
                                      rankdata(values, method="average", axis=-1))


class TestRsa:
    def test_self_similarity(self):
        X = np.random.default_rng(6).standard_normal((5, 4))
        assert rsa_score(X, X) == pytest.approx(1.0, abs=1e-12)

    def test_consistent_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((6, 4))
        perm = rng.permutation(6)
        assert rsa_score(X[perm], Y[perm]) == pytest.approx(rsa_score(X, Y), abs=1e-12)

    def test_frozen_triangle_correlations(self):
        # the RDM-triangle comparison reduces to spearman on the triangles
        assert spearman_rho([0, 2, 2], [0, 2, 2]) == 1.0
        assert spearman_rho([0, 2, 2], [2, 0, 2]) == pytest.approx(-0.5, abs=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(TooFewSentencesError):
            rsa_score(np.ones((2, 3)), np.ones((2, 3)))

    def test_range(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            X = rng.standard_normal((6, 4))
            Y = rng.standard_normal((6, 4))
            assert -1.0 <= rsa_score(X, Y) <= 1.0


def loop_rdm_upper(X):
    """The RDM triangle one pair at a time: 1 - Spearman's rho of rows i < j."""
    ranks = np.vstack([rankdata(row, method="average") for row in X])
    dev = ranks - ranks.mean(axis=1, keepdims=True)
    norms = [np.linalg.norm(row) for row in dev]
    out = []
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            if norms[i] == 0.0 or norms[j] == 0.0:
                rho = 0.0
            else:
                rho = float(dev[i] @ dev[j] / (norms[i] * norms[j]))
            out.append(1.0 - rho)
    return np.array(out)


class TestRdmUpper:
    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_matches_pairwise_loop_bit_for_bit(self, d):
        # integer values from a small range make ties in nearly every row
        rng = np.random.default_rng(d)
        for m in (3, 7, 40):
            X = rng.integers(-2, 3, size=(m, d)).astype(np.float64)
            X[0] = 1.0  # a constant row
            with pytest.warns(DegenerateInputWarning):
                got = _rdm_upper(X)
            assert got.tobytes() == loop_rdm_upper(X).tobytes()

    def test_real_valued_rows_match_pairwise_loop_bit_for_bit(self):
        X = np.random.default_rng(12).standard_normal((30, 8))
        assert _rdm_upper(X).tobytes() == loop_rdm_upper(X).tobytes()

    def test_constant_rows_give_rho_zero_with_warning(self):
        X = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [5.0, 5.0, 5.0]])
        with pytest.warns(DegenerateInputWarning):
            rdm = _rdm_upper(X)
        # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3): rho 0 wherever row 0 or 3 takes part
        assert rdm[[0, 1, 2, 4, 5]].tolist() == [1.0] * 5
        assert rdm[3] == pytest.approx(2.0, abs=1e-15)


class TestFairnessGap:
    def test_equal_losses(self):
        assert linguistic_fairness_gap({"en": 0.3, "fr": 0.3}) == (0.0, 0.0)

    def test_two_point_population_variance(self):
        variance, gap = linguistic_fairness_gap({"en": 0.2, "fr": 0.4})
        assert variance == pytest.approx(0.01, abs=1e-15)
        assert gap == pytest.approx(0.2, abs=1e-15)

    def test_single_language_rejected(self):
        with pytest.raises(TooFewLanguagesError):
            linguistic_fairness_gap({"en": 0.2})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_is_typed(self, bad):
        with pytest.raises(NonFiniteLossError) as info:
            linguistic_fairness_gap({"en": 0.2, "fr": bad})
        assert isinstance(info.value, NonFiniteError) and isinstance(info.value, ValueError)


class TestPairwiseReport:
    @pytest.fixture()
    def embedding_set(self):
        rng = np.random.default_rng(9)
        mats = tuple(rng.standard_normal((8, 4)) for _ in range(3))
        return EmbeddingSet(languages=("en", "de", "fi"), matrices=mats, layer=2)

    def test_retrieval_uses_all_ordered_pairs(self, embedding_set):
        report = pairwise_report(embedding_set, "retrieval")
        assert len(report.per_pair) == 6
        assert report.aggregate == pytest.approx(
            np.mean([report.per_pair[k] for k in sorted(report.per_pair)]), abs=0
        )
        assert all(v == report.per_pair[b, a] for (a, b), v in report.per_pair.items())

    def test_cka_uses_upper_triangle(self, embedding_set):
        report = pairwise_report(embedding_set, "cka")
        assert set(report.per_pair) == {("en", "de"), ("en", "fi"), ("de", "fi")}
        assert report.aggregate == np.mean([report.per_pair[k] for k in sorted(report.per_pair)])

    def test_isoscore_is_pooled(self, embedding_set):
        report = pairwise_report(embedding_set, "isoscore")
        assert report.per_pair == {}
        pooled = isoscore(np.vstack(embedding_set.matrices))
        assert report.aggregate == pytest.approx(pooled, abs=0)

    def test_identical_matrices_all_aggregates_one(self):
        X = np.random.default_rng(10).standard_normal((10, 4))
        es = EmbeddingSet(languages=("a", "b", "c"), matrices=(X, X, X))
        for metric in ("retrieval", "cka", "rsa"):
            assert pairwise_report(es, metric).aggregate == pytest.approx(1.0, abs=1e-12)

    def test_rsa_pairs_equal_rsa_score_exactly(self):
        rng = np.random.default_rng(13)
        base = rng.standard_normal((30, 6))
        mats = tuple(base + s * rng.standard_normal((30, 6)) for s in (0.0, 0.3, 1.0, 3.0))
        es = EmbeddingSet(languages=("en", "de", "fi", "sw"), matrices=mats)
        report = pairwise_report(es, "rsa")
        assert len(report.per_pair) == 6
        for (a, b), value in report.per_pair.items():
            q, r = es.languages.index(a), es.languages.index(b)
            assert value == rsa_score(mats[q], mats[r])
        expected = np.mean([report.per_pair[k] for k in sorted(report.per_pair)])
        assert report.aggregate == expected

    def test_rsa_too_few_rows_names_a_pair(self):
        es = EmbeddingSet(languages=("en", "fr"), matrices=(np.eye(2), np.eye(2)))
        with pytest.raises(TooFewSentencesError, match=r"\(en, fr\)"):
            pairwise_report(es, "rsa")

    def test_unknown_metric_rejected(self, embedding_set):
        with pytest.raises(ValueError):
            pairwise_report(embedding_set, "nope")

    def test_unknown_metric_is_typed(self, embedding_set):
        with pytest.raises(UnknownNameError, match="'nope'") as info:
            pairwise_report(embedding_set, "nope")
        assert isinstance(info.value, MlprivError) and isinstance(info.value, ValueError)

    def test_error_names_offending_pair(self):
        X = np.random.default_rng(11).standard_normal((8, 4))
        bad = X.copy()
        bad[3] = 0.0  # zero row breaks cosine retrieval
        es = EmbeddingSet(languages=("en", "fr"), matrices=(X, bad))
        with pytest.raises(ZeroNormRowError, match=r"\(en, fr\)"):
            pairwise_report(es, "retrieval")

    def test_csv_layout(self, embedding_set, tmp_path):
        manifest = Manifest()
        for lang, matrix in zip(embedding_set.languages, embedding_set.matrices):
            write_embeddings(tmp_path / f"{lang}.emb", matrix)
            manifest.add(lang, embedding_set.layer, f"{lang}.emb")
        manifest.write(tmp_path / "manifest.tsv")
        path = tmp_path / "report.csv"
        assert main(["metrics", "--manifest", str(tmp_path / "manifest.tsv"), "--layer", "2",
                     "--metrics", "retrieval", "--out", str(path)]) == EXIT_OK
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,lang_a,lang_b,layer,value"
        assert len(lines) == 1 + 6 + 1  # header + ordered pairs + ALL row
        assert lines[-1].startswith("retrieval,ALL,ALL,2,")
