"""Embedding storage: the EMB1 binary format and manifests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpriv.errors import (
    DuplicateKeyError,
    FormatError,
    MissingLanguageError,
    MlprivError,
    NonFiniteError,
    ShapeMismatchError,
)
from mlpriv.repr_store import (
    EMB_MAGIC,
    EmbeddingSet,
    Manifest,
    load_set,
    read_embeddings,
    write_embeddings,
)


class TestEmb1Format:
    def test_round_trip_small_matrix(self, tmp_path):
        matrix = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "m.emb"
        write_embeddings(path, matrix)
        np.testing.assert_array_equal(read_embeddings(path), matrix)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.emb"
        write_embeddings(path, np.zeros((2, 3)))
        data = path.read_bytes()
        assert data[:4] == EMB_MAGIC
        assert int.from_bytes(data[4:8], "little") == 2
        assert int.from_bytes(data[8:12], "little") == 3
        assert len(data) == 12 + 2 * 3 * 8

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.emb"
        write_embeddings(path, np.zeros((2, 2)))
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "m.emb"
        write_embeddings(path, np.zeros((4, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_declared_size_exceeding_payload_rejected(self, tmp_path):
        path = tmp_path / "m.emb"
        write_embeddings(path, np.zeros((2, 2)))
        data = bytearray(path.read_bytes())
        data[4:8] = (1000).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_empty_matrix_rejected_on_write(self, tmp_path):
        with pytest.raises(ShapeMismatchError):
            write_embeddings(tmp_path / "m.emb", np.zeros((0, 4)))

    def test_zero_dim_rejected_on_read(self, tmp_path):
        path = tmp_path / "m.emb"
        path.write_bytes(EMB_MAGIC + (3).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(FormatError):
            read_embeddings(path)

    def test_nonfinite_rejected_on_write(self, tmp_path):
        with pytest.raises(NonFiniteError):
            write_embeddings(tmp_path / "m.emb", np.array([[np.inf, 0.0]]))

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(1, 20),
        d=st.integers(1, 16),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_round_trip_is_bit_exact(self, tmp_path_factory, m, d, seed):
        matrix = np.random.default_rng(seed).standard_normal((m, d))
        path = tmp_path_factory.mktemp("emb") / "m.emb"
        write_embeddings(path, matrix)
        restored = read_embeddings(path)
        assert restored.dtype == np.float64
        assert (restored == matrix).all()


class TestEmbeddingSet:
    def test_happy_path(self):
        mats = [np.random.default_rng(i).standard_normal((10, 4)) for i in range(2)]
        es = EmbeddingSet(languages=("en", "fr"), matrices=tuple(mats))
        assert es.matrices[0].shape == (10, 4)
        np.testing.assert_array_equal(es.matrices[es.languages.index("fr")], mats[1])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            EmbeddingSet(
                languages=("en", "fr"),
                matrices=(np.zeros((10, 4)), np.zeros((9, 4))),
            )

    def test_single_language_rejected(self):
        with pytest.raises(MissingLanguageError):
            EmbeddingSet(languages=("en",), matrices=(np.zeros((10, 4)),))


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        mats = {lang: np.random.default_rng(i).standard_normal((5, 3))
                for i, lang in enumerate(("en", "de", "fi"))}
        manifest = Manifest()
        for lang, matrix in mats.items():
            path = tmp_path / f"{lang}.emb"
            write_embeddings(path, matrix)
            manifest.add(lang, 0, path)
        manifest.write(tmp_path / "manifest.tsv")
        loaded = load_set(Manifest.read(tmp_path / "manifest.tsv"), layer=0)
        assert loaded.languages == ("en", "de", "fi")  # manifest order preserved
        for got, matrix in zip(loaded.matrices, mats.values()):
            np.testing.assert_array_equal(got, matrix)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        write_embeddings(tmp_path / "a.emb", np.ones((2, 2)))
        write_embeddings(tmp_path / "b.emb", np.ones((2, 2)))
        (tmp_path / "manifest.tsv").write_text(
            "# comment\n\nen\t0\ta.emb\nfr\t0\tb.emb\n"
        )
        manifest = Manifest.read(tmp_path / "manifest.tsv")
        assert len(manifest.entries) == 2

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        write_embeddings(sub / "a.emb", np.ones((2, 2)))
        write_embeddings(sub / "b.emb", np.ones((2, 2)))
        (sub / "manifest.tsv").write_text("en\t0\ta.emb\nfr\t0\tb.emb\n")
        loaded = load_set(Manifest.read(sub / "manifest.tsv"), layer=0)
        assert loaded.matrices[0].shape[0] == 2

    def test_bad_field_count_rejected(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("en\t0\n")
        with pytest.raises(FormatError):
            Manifest.read(tmp_path / "manifest.tsv")

    def test_non_integer_layer_names_file_and_line(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("en\t0\ten.emb\nfr\tzero\tfr.emb\n")
        with pytest.raises(FormatError, match=r"manifest\.tsv:2: layer 'zero' is not an integer"):
            Manifest.read(tmp_path / "manifest.tsv")

    def test_duplicate_key_names_file_and_line(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text("en\t0\ta.emb\nen\t0\tb.emb\n")
        with pytest.raises(DuplicateKeyError,
                           match=r"manifest\.tsv:2: duplicate manifest key \(en, 0\)"):
            Manifest.read(tmp_path / "manifest.tsv")

    def test_duplicate_key_rejected(self):
        manifest = Manifest()
        manifest.add("en", 0, "a.emb")
        with pytest.raises(ValueError):
            manifest.add("en", 0, "b.emb")

    def test_duplicate_key_is_typed(self):
        manifest = Manifest()
        manifest.add("en", 0, "a.emb")
        with pytest.raises(DuplicateKeyError, match=r"\(en, 0\)") as info:
            manifest.add("en", 0, "b.emb")
        assert isinstance(info.value, MlprivError) and isinstance(info.value, ValueError)

    def test_too_few_languages_at_layer(self, tmp_path):
        write_embeddings(tmp_path / "a.emb", np.ones((2, 2)))
        manifest = Manifest()
        manifest.add("en", 0, tmp_path / "a.emb")
        with pytest.raises(MissingLanguageError):
            load_set(manifest, layer=0)
