from __future__ import annotations

import numpy as np
import pytest

from surgreport.errors import RecordError

from surgreport.embeddings import (
    EmbeddedText,
    EmbeddingTable,
    deterministic_token_embeddings,
    embedding_key,
)


def test_embedded_text_normalizes_vectors():
    text = EmbeddedText(("a", "b"), np.array([[3.0, 4.0], [0.0, 2.0]]))
    norms = np.linalg.norm(text.vectors, axis=1)
    assert norms == pytest.approx([1.0, 1.0], abs=1e-6)
    assert text.dim == 2


def test_embedded_text_rejects_zero_vectors():
    with pytest.raises(ValueError, match="zero-norm"):
        EmbeddedText(("a",), np.zeros((1, 3)))


def test_embedded_text_token_vector_count_must_agree():
    with pytest.raises(ValueError, match="tokens"):
        EmbeddedText(("a", "b"), np.ones((3, 2)))


def test_embedding_key_is_order_sensitive():
    assert embedding_key(["a", "b"]) != embedding_key(["b", "a"])
    # joining must not confuse token boundaries
    assert embedding_key(["ab"]) != embedding_key(["a", "b"])


def test_table_round_trip(tmp_path):
    table = EmbeddingTable()
    tokens = ["the", "grasper"]
    table.put(tokens, np.array([[1.0, 0.0], [0.5, 0.5]]))
    path = tmp_path / "embeddings.jsonl"
    assert table.save(path) == 1
    loaded = EmbeddingTable.load(path)
    text = loaded.get(tokens)
    assert text is not None
    assert text.tokens == ("the", "grasper")
    assert loaded.get(["unknown"]) is None


def test_deterministic_embeddings_reproducible():
    a = deterministic_token_embeddings(["x", "y"], dim=16)
    b = deterministic_token_embeddings(["x", "y"], dim=16)
    assert np.array_equal(a, b)
    assert a.shape == (2, 16)
    assert np.linalg.norm(a, axis=1) == pytest.approx([1.0, 1.0])


def test_basis_embeddings_are_exact_unit_vectors():
    vectors = deterministic_token_embeddings(["x", "y", "x"], dim=8, mode="basis")
    assert set(np.unique(vectors)) == {0.0, 1.0}
    assert np.array_equal(vectors[0], vectors[2])
    assert (vectors.sum(axis=1) == 1.0).all()


def test_bad_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        deterministic_token_embeddings(["x"], mode="learned")


def test_load_raises_at_the_line_of_a_bad_entry(tmp_path):
    path = tmp_path / "embeddings.jsonl"
    good = '{"key": "a", "dim": 2, "vectors": [[1.0, 0.0]]}'
    bad = '{"key": "b", "dim": 2, "vectors": [[0.0, 0.0]]}'
    # The bad entry is read, and raises, before the malformed line after it.
    path.write_text(good + "\n\n" + bad + "\n" + good[:-1] + "\n")
    with pytest.raises(RecordError) as exc:
        EmbeddingTable.load(path)
    assert str(exc.value) == f"{path}:3: embedding entry b: vectors must be nonzero rows of 2 numbers"
