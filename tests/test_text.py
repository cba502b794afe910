from __future__ import annotations

import json

import numpy as np
import pytest

from tmfusion.errors import InvalidArgumentError, SchemaError
from tmfusion.text import (
    EmbeddingTable,
    embed_sequence,
    load_stopwords,
    tokenize_clean,
)

from .conftest import DATA_DIR


class TestTokenizer:
    def test_rule_application(self):
        assert tokenize_clean("The stock is UP!", {"the", "is"}) == ["stock", "up"]

    def test_empty(self):
        assert tokenize_clean("", load_stopwords()) == []

    def test_golden_file(self):
        stopwords = load_stopwords()
        golden = json.loads((DATA_DIR / "tokenizer_golden.json").read_text())
        assert len(golden) == 100
        for case in golden:
            assert tokenize_clean(case["text"], stopwords) == case["tokens"], case["text"]

    def test_order_preserved(self):
        tokens = tokenize_clean("zebra apple zebra mango", frozenset())
        assert tokens == ["zebra", "apple", "zebra", "mango"]


class TestStopwords:
    def test_shipped_list_loads(self):
        words = load_stopwords()
        assert "the" in words and "is" in words
        assert "up" not in words  # market-direction words are kept

    def test_custom_file(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("alpha\nbeta\n\n")
        assert load_stopwords(str(p)) == frozenset({"alpha", "beta"})


class TestEmbeddingTable:
    def test_known_word(self):
        table = EmbeddingTable(dim=3, vectors={"stock": np.array([1.0, 2.0, 3.0])})
        np.testing.assert_array_equal(table.lookup("stock"), [1.0, 2.0, 3.0])

    def test_hashed_fallback_deterministic(self):
        t1 = EmbeddingTable.hashed(dim=8, seed=3)
        t2 = EmbeddingTable.hashed(dim=8, seed=3)
        np.testing.assert_array_equal(t1.lookup("mystery"), t2.lookup("mystery"))
        np.testing.assert_array_equal(t1.lookup("mystery"), t1.lookup("mystery"))

    def test_hashed_fallback_bounded_and_seeded(self):
        table = EmbeddingTable.hashed(dim=16, seed=1)
        vec = table.lookup("word")
        assert np.all(np.abs(vec) <= 0.05)
        other_seed = EmbeddingTable.hashed(dim=16, seed=2).lookup("word")
        assert not np.array_equal(vec, other_seed)

    def test_text_file_round_trip(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("stock 0.1 0.2 0.3\nmarket -0.4 0.5 -0.6\n")
        table = EmbeddingTable.from_text_file(str(p))
        assert table.dim == 3
        np.testing.assert_allclose(table.lookup("market"), [-0.4, 0.5, -0.6])

    def test_text_file_with_count_header(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\nstock 0.1 0.2 0.3\nmarket -0.4 0.5 -0.6\n")
        table = EmbeddingTable.from_text_file(str(p))
        assert table.dim == 3 and len(table.vectors) == 2

    def test_text_file_dimension_mismatch(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("stock 0.1 0.2\nmarket 0.3\n")
        with pytest.raises(SchemaError, match="line 2"):
            EmbeddingTable.from_text_file(str(p))

    @pytest.mark.parametrize("component", ["nan", "inf", "-Infinity", "1e999"])
    def test_text_file_non_finite_component_rejected(self, tmp_path, component):
        p = tmp_path / "emb.txt"
        p.write_text(f"stock 0.1 0.2\nmarket 0.3 {component}\n")
        with pytest.raises(SchemaError, match=r"emb\.txt: line 2: .*not finite"):
            EmbeddingTable.from_text_file(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("\n")
        with pytest.raises(SchemaError):
            EmbeddingTable.from_text_file(str(p))


class TestEmbedSequence:
    table = EmbeddingTable(dim=2, vectors={"stock": np.array([1.0, -1.0])})

    def test_empty_sequence_full_padding(self):
        matrix = embed_sequence([], self.table, max_len=4)
        np.testing.assert_array_equal(matrix, np.zeros((4, 2)))

    def test_single_token_first_row(self):
        matrix = embed_sequence(["stock"], self.table, max_len=3)
        np.testing.assert_array_equal(matrix[0], [1.0, -1.0])
        np.testing.assert_array_equal(matrix[1:], np.zeros((2, 2)))

    def test_hashed_repeated_token_identical_rows(self):
        table = EmbeddingTable.hashed(dim=5, seed=11)
        matrix = embed_sequence(["oddity", "oddity"], table, max_len=2)
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_truncation_when_overridden(self):
        matrix = embed_sequence(["stock", "stock", "stock"], self.table, max_len=2)
        assert matrix.shape == (2, 2)

    def test_max_len_must_be_positive(self):
        with pytest.raises(InvalidArgumentError):
            embed_sequence(["stock"], self.table, max_len=0)
