"""Aligned multilingual embedding sets: data model and binary file I/O.

Embedding files use the "EMB1" format: 4 magic bytes ``EMB1``, u32-LE row
count, u32-LE dim, then row-major float64-LE payload. Manifests are plain
text, one ``<lang>\\t<layer>\\t<path>`` entry per line, ``#`` for comments.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateKeyError,
    FormatError,
    MissingLanguageError,
    NonFiniteError,
    ShapeMismatchError,
)

EMB_MAGIC = b"EMB1"


@dataclass(frozen=True)
class EmbeddingSet:
    """Row-aligned sentence embeddings across languages at one model layer.

    Row i of every language's matrix is the same translation tuple.
    """

    languages: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]
    layer: int = 0

    def __post_init__(self):
        if len(self.languages) < 2:
            raise MissingLanguageError("an EmbeddingSet needs at least 2 languages")
        if len(self.languages) != len(self.matrices):
            raise ShapeMismatchError("languages and matrices differ in count")
        mats = tuple(np.asarray(m, dtype=np.float64) for m in self.matrices)
        shape = mats[0].shape
        if len(shape) != 2 or shape[0] < 2:
            raise ShapeMismatchError(f"matrices must be m x d with m >= 2, got {shape}")
        for lang, m in zip(self.languages, mats):
            if m.shape != shape:
                raise ShapeMismatchError(
                    f"language {lang!r} has shape {m.shape}, expected {shape}"
                )
            if not np.all(np.isfinite(m)):
                raise NonFiniteError(f"language {lang!r} matrix contains NaN/inf")
        object.__setattr__(self, "languages", tuple(self.languages))
        object.__setattr__(self, "matrices", mats)


@dataclass
class Manifest:
    """Index of on-disk embedding files keyed by (language, layer)."""

    entries: list[tuple[str, int, Path]] = field(default_factory=list)

    def add(self, language: str, layer: int, path: Path | str) -> None:
        if any(l == language and ly == layer for l, ly, _ in self.entries):
            raise DuplicateKeyError(f"duplicate manifest key ({language}, {layer})")
        self.entries.append((language, int(layer), Path(path)))

    @classmethod
    def read(cls, path: Path | str) -> "Manifest":
        manifest = cls()
        base = Path(path).parent
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
            lang, layer, rel = parts
            try:
                layer = int(layer)
            except ValueError:
                raise FormatError(f"{path}:{lineno}: layer {layer!r} is not an integer") from None
            p = Path(rel)
            if not p.is_absolute():
                p = base / p
            try:
                manifest.add(lang, layer, p)
            except DuplicateKeyError as exc:
                raise DuplicateKeyError(f"{path}:{lineno}: {exc}") from None
        return manifest

    def write(self, path: Path | str) -> None:
        lines = [f"{lang}\t{layer}\t{p}" for lang, layer, p in self.entries]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_embeddings(path: Path | str, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ShapeMismatchError(f"expected a nonempty m x d matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteError("refusing to write non-finite embeddings")
    m, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<II", m, d))
        fh.write(matrix.astype("<f8").tobytes())


def read_embeddings(path: Path | str) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != EMB_MAGIC:
        raise FormatError(f"{path}: bad magic or truncated header")
    m, d = struct.unpack("<II", data[4:12])
    expected = 12 + m * d * 8
    if len(data) != expected:
        raise FormatError(
            f"{path}: payload length {len(data) - 12} does not match {m}x{d} float64"
        )
    if m == 0 or d == 0:
        raise FormatError(f"{path}: empty matrix ({m}x{d})")
    matrix = np.frombuffer(data, dtype="<f8", offset=12).reshape(m, d).astype(np.float64)
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteError(f"{path}: stored matrix contains NaN/inf")
    return matrix


def load_set(manifest: Manifest, layer: int) -> EmbeddingSet:
    """Load all languages present at `layer`, in manifest order."""
    selected = [(lang, p) for lang, ly, p in manifest.entries if ly == layer]
    if len(selected) < 2:
        raise MissingLanguageError(
            f"layer {layer}: need >= 2 languages, found {len(selected)}"
        )
    languages = tuple(lang for lang, _ in selected)
    matrices = tuple(read_embeddings(p) for _, p in selected)
    return EmbeddingSet(languages=languages, matrices=matrices, layer=layer)
