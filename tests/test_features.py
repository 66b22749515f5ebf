"""The corpus-level feature block against a string-by-string reference."""
import hashlib
import random
from math import sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlproject import features
from xlproject.features import FeatureBlock, FeatureVector, HashedNgramFeaturizer


def reference_hash(feature: str, salt: str, dim: int) -> int:
    digest = hashlib.blake2b(f"{salt}\x1f{feature}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


def reference_raw_features(featurizer, tokens: list[str], i: int) -> list[str]:
    """Every feature string of token ``i``: word, padded n-grams, window context."""
    feats = [f"w={tokens[i]}"]
    padded = f"^{tokens[i]}$"
    for n in range(featurizer.ngram_min, featurizer.ngram_max + 1):
        feats.extend(padded[j:j + n] for j in range(len(padded) - n + 1))
    for offset in range(-featurizer.window, featurizer.window + 1):
        if offset == 0:
            continue
        j = i + offset
        if 0 <= j < len(tokens):
            feats.append(f"ctx{offset:+d}={tokens[j]}")
    return feats


def reference_vectorize(featurizer, raw_features: list[str]) -> FeatureVector:
    """Hash each string on its own, count collisions, L2-normalize."""
    accum: dict[int, float] = {}
    for feature in raw_features:
        index = reference_hash(feature, featurizer.salt, featurizer.dim)
        accum[index] = accum.get(index, 0.0) + 1.0
    indices = np.array(sorted(accum), dtype=np.int64)
    values = np.array([accum[i] for i in indices], dtype=np.float64)
    norm = sqrt(float(values @ values))
    if norm > 0.0:
        values /= norm
    return FeatureVector(indices=indices, values=values, dim=featurizer.dim)


def assert_same(got: FeatureVector, want: FeatureVector) -> None:
    assert got.dim == want.dim
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.values, want.values)


def assert_blocks_match_reference(featurizer, sentences) -> None:
    """Every token row and every pooled sentence row equals the reference."""
    tokens_block = featurizer.featurize(sentences)
    pooled_block = featurizer.featurize(sentences, pooled=True)
    assert len(tokens_block) == sum(map(len, sentences))
    assert len(pooled_block) == len(sentences)
    row = 0
    for s, tokens in enumerate(sentences):
        raw = [reference_raw_features(featurizer, tokens, i) for i in range(len(tokens))]
        for feats in raw:
            assert_same(tokens_block.row(row), reference_vectorize(featurizer, feats))
            row += 1
        pooled = [f for feats in raw for f in feats]
        assert_same(pooled_block.row(s), reference_vectorize(featurizer, pooled))


# Few distinct words, so sentences repeat them; some are non-ASCII or one character.
WORDS = st.sampled_from(
    ["a", "the", "cat", "ü", "naïve", "日本語", "зима", "a-b", "zqglow", "ab"]
)
SENTENCES = st.lists(st.lists(WORDS, min_size=1, max_size=7), min_size=1, max_size=6)


class TestBlockMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(sentences=SENTENCES, dim=st.integers(2, 64), window=st.integers(0, 3))
    @example(sentences=[["ü"]], dim=2, window=2)
    @example(sentences=[["the"], ["the", "the", "the"]], dim=3, window=2)
    def test_token_and_sentence_rows(self, sentences, dim, window):
        assert_blocks_match_reference(HashedNgramFeaturizer(dim=dim, window=window), sentences)

    @settings(max_examples=50, deadline=None)
    @given(sentences=SENTENCES)
    def test_per_sentence_methods_equal_block_rows(self, sentences):
        featurizer = HashedNgramFeaturizer(dim=16)
        block = featurizer.featurize(sentences)
        pooled = featurizer.featurize(sentences, pooled=True)
        row = 0
        for s, tokens in enumerate(sentences):
            for vector in featurizer.token_features(tokens):
                assert_same(vector, block.row(row))
                row += 1
            assert_same(featurizer.sentence_features(tokens), pooled.row(s))

    def test_collisions_count_above_one(self):
        featurizer = HashedNgramFeaturizer(dim=2)
        row = featurizer.featurize([["collide", "here"]]).row(0)
        raw = reference_raw_features(featurizer, ["collide", "here"], 0)
        assert len(raw) > 2  # more features than columns: counts above one
        assert_same(row, reference_vectorize(featurizer, raw))

    def test_rows_across_chunk_boundaries(self):
        rng = random.Random(5)
        words = ["a", "the", "ü", "zqglow", "morning", "日本語"]
        sentences = [
            [rng.choice(words) for _ in range(rng.randint(1, 4))]
            for _ in range(2 * features._CHUNK_SENTENCES + 3)
        ]
        assert_blocks_match_reference(HashedNgramFeaturizer(dim=32), sentences)

    def test_default_dim_matches_reference(self):
        sentences = [["morning", "coffee", "zqglow", "morning"], ["coffee"]]
        assert_blocks_match_reference(HashedNgramFeaturizer(), sentences)


class TestFeatureBlock:
    def test_empty_corpus_gives_empty_block(self):
        block = HashedNgramFeaturizer(dim=8).featurize([])
        assert len(block) == 0
        cols, compact = block.compact()
        assert len(cols) == 0 and len(compact) == 0

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            HashedNgramFeaturizer(dim=8).featurize([["a"], []])
        with pytest.raises(ValueError, match="non-empty"):
            HashedNgramFeaturizer(dim=8).token_features([])

    def test_dim_too_large_for_the_row_keys_rejected(self):
        featurizer = HashedNgramFeaturizer(dim=2**62)
        assert len(featurizer.featurize([["a"]])) == 1
        with pytest.raises(ValueError, match="overflows"):
            featurizer.featurize([["a", "b"]])

    def test_compact_keeps_values_and_remaps_columns(self):
        block = FeatureBlock(
            indptr=np.array([0, 2, 3]), indices=np.array([5, 9, 5]),
            values=np.array([0.6, 0.8, 1.0]), dim=16,
        )
        cols, compact = block.compact()
        assert cols.tolist() == [5, 9]
        assert compact.dim == 2
        assert compact.indices.tolist() == [0, 1, 0]
        assert np.array_equal(compact.values, block.values)
        for r in range(len(block)):
            assert np.array_equal(cols[compact.row(r).indices], block.row(r).indices)
