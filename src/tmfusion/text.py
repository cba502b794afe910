"""Text pipeline: cleanup tokenization and fixed-length word-vector lookup.

Tokenization lowercases, splits on anything that is not an ASCII letter or
digit, and drops stop-words; emojis, diacritics, and punctuation act as
separators. Embeddings come from a word2vec-style text file when one is
supplied, otherwise from a deterministic hashing fallback so the text branch
stays testable without a multi-gigabyte download.
"""

from __future__ import annotations

import hashlib
import io
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

import numpy as np

from .artifacts import read_text
from .config import checked_value
from .errors import InvalidArgumentError, SchemaError

_WORD_RE = re.compile(r"[a-z0-9]+")

#: Hashed fallback vectors are drawn uniformly from this interval.
HASH_FALLBACK_SCALE = 0.05


def load_stopwords(path: str | None = None) -> frozenset[str]:
    """The stop-word set: one word per line, shipped list when no path given."""
    if path is None:
        text = resources.files("tmfusion.resources").joinpath("stopwords.txt").read_text("utf-8")
    else:
        text = read_text(path)
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def tokenize_clean(text: str, stopwords: frozenset[str] | set[str]) -> list[str]:
    """Lowercase word tokens with punctuation stripped and stop-words removed."""
    return [tok for tok in _WORD_RE.findall(text.lower()) if tok not in stopwords]


def _hashed_vector(token: str, dim: int, seed: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
    gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
    return gen.uniform(-HASH_FALLBACK_SCALE, HASH_FALLBACK_SCALE, dim)


@dataclass
class EmbeddingTable:
    """word -> R^dim lookup with a hashed out-of-vocabulary fallback.

    A word ``vectors`` lacks gets a stable pseudo-random vector derived from
    the token and ``seed``, so unknown words embed identically across runs
    and processes.
    """

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        checked_value("embedding_dim", self.dim)
        for word, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise InvalidArgumentError(f"vector for {word!r} has shape {vec.shape}")
        self._oov_cache: dict[str, np.ndarray] = {}

    def lookup(self, token: str, out: np.ndarray | None = None) -> np.ndarray:
        """The vector of ``token``.

        Without ``out``, a fallback vector is cached for the next lookup of
        its token. With ``out``, a (dim,) float64 array, the vector is
        written there and returned, and nothing is cached.
        """
        known = self.vectors.get(token)
        if out is not None:
            out[...] = _hashed_vector(token, self.dim, self.seed) if known is None else known
            return out
        if known is not None:
            return known
        cached = self._oov_cache.get(token)
        if cached is None:
            cached = self._oov_cache[token] = _hashed_vector(token, self.dim, self.seed)
        return cached

    @classmethod
    def hashed(cls, dim: int, seed: int = 0) -> "EmbeddingTable":
        return cls(dim=dim, seed=seed)

    @classmethod
    def from_text_file(cls, path: str, seed: int = 0) -> "EmbeddingTable":
        """Parse `word v1 v2 ... vk` lines; every row must share one dimension.

        Every component must be finite: ``nan``, ``inf`` and values past the
        float64 range raise ``SchemaError`` naming the line.
        """
        vectors: dict[str, np.ndarray] = {}
        dim: int | None = None
        with io.StringIO(read_text(path), newline=None) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                # Some distributions start with a "<count> <dim>" header line.
                if lineno == 1 and len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
                    continue
                word, raw = parts[0], parts[1:]
                try:
                    vec = np.array([float(v) for v in raw])
                except ValueError as exc:
                    raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
                if vec.size == 0:
                    raise SchemaError(f"{path}: line {lineno}: no vector components")
                if not np.all(np.isfinite(vec)):
                    raise SchemaError(f"{path}: line {lineno}: a vector component is not finite")
                if dim is None:
                    dim = vec.size
                elif vec.size != dim:
                    raise SchemaError(
                        f"{path}: line {lineno}: dimension {vec.size} != {dim}"
                    )
                vectors[word] = vec
        if dim is None:
            raise SchemaError(f"{path}: no embedding rows found")
        return cls(dim=dim, vectors=vectors, seed=seed)


def embed_sequence(tokens: Sequence[str], table: EmbeddingTable, max_len: int) -> np.ndarray:
    """(max_len, dim) matrix: one row per token, zero rows past the sentence end.

    Sequences longer than max_len are truncated, which only happens when the
    caller overrides max_len below the corpus maximum.
    """
    if max_len < 1:
        raise InvalidArgumentError("max_len must be >= 1")
    out = np.zeros((max_len, table.dim))
    for i, token in enumerate(tokens[:max_len]):
        out[i] = table.lookup(token)
    return out
