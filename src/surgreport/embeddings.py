"""Token-embedding ingestion for semantic caption scoring.

Contextual embeddings are produced by an external encoder and ingested
from a line-delimited file keyed by a hash of the token sequence:

    {"key": "<sha256>", "dim": 64, "vectors": [[...], ...]}

``load`` checks each entry's shape, that its values are finite JSON
numbers, that no row is zero and that every entry has the first entry's
``dim``. Vectors are unit-normalized at lookup, one text at a time.
``deterministic_token_embeddings`` provides a reproducible stand-in
provider for demos and tests; it is not a contextual encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from itertools import chain
from pathlib import Path

import numpy as np

from .digest import sha256
from .errors import RecordError
# ``read_jsonl`` is unused here; bench/tracer.py patches it in this module by name.
from .jsonl import read_jsonl, stream_jsonl, write_jsonl  # noqa: F401

_EMBEDDING_FIELDS = {"key": str, "dim": int, "vectors": list}


@dataclass(frozen=True)
class EmbeddedText:
    """Token sequence with one unit-norm vector per token."""

    tokens: tuple[str, ...]
    vectors: np.ndarray  # shape (n_tokens, dim)

    def __post_init__(self) -> None:
        vectors = np.asarray(self.vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        if vectors.shape[0] != len(self.tokens):
            raise ValueError(
                f"{len(self.tokens)} tokens but {vectors.shape[0]} vectors"
            )
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("zero-norm embedding vector cannot be normalized")
        object.__setattr__(self, "vectors", vectors / norms)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def embedding_key(tokens: Sequence[str]) -> str:
    """Stable lookup key for a token sequence."""
    joined = "\x1f".join(tokens)
    return sha256(joined.encode("utf-8")).hexdigest()


class EmbeddingTable:
    """In-memory map from token-sequence keys to per-token vectors, read from ``source``."""

    def __init__(self, source: str = "<embeddings>") -> None:
        self.source = source
        self._entries: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, tokens: Sequence[str], vectors: np.ndarray) -> None:
        self._entries[embedding_key(tokens)] = np.asarray(vectors, dtype=float)

    def get(self, tokens: Sequence[str]) -> EmbeddedText | None:
        key = embedding_key(tokens)
        vectors = self._entries.get(key)
        if vectors is None:
            return None
        try:
            return EmbeddedText(tuple(tokens), vectors)
        except ValueError as exc:
            raise RecordError(f"embedding entry {key}: {exc}", self.source) from None

    def save(self, path: str | Path) -> int:
        return write_jsonl(
            path,
            (
                {"key": key, "dim": int(vec.shape[1]), "vectors": vec.tolist()}
                for key, vec in sorted(self._entries.items())
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        # Streamed: only one line's decoded lists are alive at a time.
        table, table_dim = cls(str(path)), None
        for lineno, obj in stream_jsonl(path, _EMBEDDING_FIELDS):
            key, dim, rows = obj["key"], obj["dim"], obj["vectors"]
            try:  # JSON numbers only: numpy would read true as 1.0 and "1.5" as 1.5
                numbers = set(map(type, chain.from_iterable(rows))) <= {int, float}
                vectors = np.asarray(rows, dtype=float) if numbers else np.empty(0)
            except (TypeError, ValueError, OverflowError):
                vectors = np.empty(0)
            # Zero-norm rows would fail normalization at lookup.
            if vectors.ndim != 2 or vectors.shape[1] != dim or not np.linalg.norm(vectors, axis=1).all():
                message = f"embedding entry {key}: vectors must be nonzero rows of {dim} numbers"
                raise RecordError(message, str(path), lineno)
            if not np.isfinite(vectors).all():  # json decodes NaN and Infinity; NaN passes the norm
                message = f"embedding entry {key}: vectors must be finite"
                raise RecordError(message, str(path), lineno)
            table_dim = dim if table_dim is None else table_dim
            if dim != table_dim:
                message = f"embedding entry {key}: dim {dim} differs from the table's {table_dim}"
                raise RecordError(message, str(path), lineno)
            table._entries[key] = vectors
        return table


def deterministic_token_embeddings(
    tokens: Sequence[str], dim: int = 64, mode: str = "gaussian"
) -> np.ndarray:
    """Reproducible per-token vectors derived from token hashes.

    "gaussian" draws a unit-normalized vector from a token-seeded RNG;
    "basis" maps each token to a standard basis vector, so identical tokens
    score an exact cosine similarity of 1.
    """
    if mode not in ("gaussian", "basis"):
        raise ValueError(f"mode must be 'gaussian' or 'basis', got {mode!r}")
    vectors = np.zeros((len(tokens), dim))
    for i, token in enumerate(tokens):
        digest = sha256(token.encode("utf-8")).digest()
        if mode == "basis":
            vectors[i, int.from_bytes(digest[:4], "big") % dim] = 1.0
        else:
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            v = rng.standard_normal(dim)
            vectors[i] = v / np.linalg.norm(v)
    return vectors
