"""The corpus-level feature block against a string-by-string reference."""
import dataclasses
import hashlib
import random
import sys
import tracemalloc
from math import sqrt
from unittest import mock

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


def sentences_over(rng: random.Random, words: list[str], occurrences: int) -> list[list[str]]:
    """Sentences of one to four of these words, drawn until their feature
    occurrences at the default window and n-grams exceed ``occurrences``."""
    featurizer = HashedNgramFeaturizer()
    sentences, total = [], 0
    while total <= occurrences:
        tokens = rng.choices(words, k=rng.randint(1, 4))
        sentences.append(tokens)
        total += sum(len(reference_raw_features(featurizer, tokens, i)) for i in range(len(tokens)))
    return sentences


# Few distinct words, so sentences repeat them; some are non-ASCII or one character.
WORD_LIST = ["a", "the", "cat", "ü", "naïve", "日本語", "зима", "a-b", "zqglow", "ab"]
WORDS = st.sampled_from(WORD_LIST)
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
        sentences = sentences_over(rng, words, 2 * features._CHUNK_OCCURRENCES + 3)
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

    def test_placed_key_width_too_large_for_the_row_keys_rejected(self):
        # Onto columns, a row key spans len(cols) + dim: at the largest dim
        # whose keys fit for two tokens, one column more overflows them.
        featurizer = HashedNgramFeaturizer(dim=np.iinfo(np.int64).max // 2)
        assert len(featurizer.featurize([["a", "b"]])) == 2
        with pytest.raises(ValueError, match="overflows"):
            featurizer.featurize([["a", "b"]], cols=np.array([0]))

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


@st.composite
def random_blocks(draw):
    """Blocks of sorted unique indices per row, some rows empty, dims down to 2."""
    dim = draw(st.sampled_from([2, 3, 17, 1000, 2**18]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = [int(rng.integers(0, min(dim, 12) + 1)) for _ in range(draw(st.integers(0, 30)))]
    rows = [np.sort(rng.choice(dim, size=k, replace=False)) for k in sizes]
    indptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)] + rows).astype(np.int64)
    return FeatureBlock(indptr, indices, rng.normal(size=len(indices)), dim)


@settings(max_examples=150, deadline=None)
@given(block=random_blocks())
def test_compact_equals_unique_and_searchsorted(block):
    cols, compact = block.compact()
    want = np.unique(block.indices)
    assert cols.dtype == want.dtype and np.array_equal(cols, want)
    remapped = np.searchsorted(want, block.indices)
    assert compact.indices.dtype == remapped.dtype and np.array_equal(compact.indices, remapped)
    assert compact.dim == len(want)
    assert compact.indptr is block.indptr and compact.values is block.values


# The default dim and the largest that train accepts.
LARGE_DIMS = [2**18, 2**24]


def edge_columns(dim: int) -> list[int]:
    """Every column of the last 64-column word, and every multiple of 64."""
    return sorted({*range(64 * ((dim - 1) // 64), dim), *range(0, dim, 64)})


def select(block: FeatureBlock, cols: np.ndarray) -> FeatureBlock:
    """The block over the sorted feature columns ``cols`` only, re-indexed
    onto ``0..K-1`` in that order, through ``features._place``; entries in any
    other column are dropped. ``featurize(..., cols=cols)`` equals it."""
    indices = features._place(np.asarray(cols, dtype=np.int64), block.indices)
    kept = indices < len(cols)
    ends = np.concatenate(([0], np.cumsum(kept)))  # entries kept before each position
    return FeatureBlock(ends[block.indptr], indices[kept], block.values[kept], len(cols))


def select_oracle(block: FeatureBlock, cols: np.ndarray) -> FeatureBlock:
    """``select(block, cols)`` by ``np.isin`` and ``np.searchsorted``."""
    kept = np.isin(block.indices, cols)
    indptr = np.concatenate(([0], np.cumsum(kept)))[block.indptr]
    return FeatureBlock(indptr, np.searchsorted(cols, block.indices[kept]),
                        block.values[kept], len(cols))


def assert_same_block(got: FeatureBlock, want: FeatureBlock) -> None:
    assert got.dim == want.dim
    for name in ("indptr", "indices", "values"):
        value, expected = getattr(got, name), getattr(want, name)
        assert value.dtype == expected.dtype and np.array_equal(value, expected)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pooled=st.booleans(),
       dim=st.one_of(st.integers(2, 64), st.sampled_from(LARGE_DIMS)),
       kind=st.sampled_from(["empty", "full", "random", "edges"]))
def test_featurize_onto_columns_equals_select(seed, pooled, dim, kind):
    rng = random.Random(seed)
    budget = features._CHUNK_OCCURRENCES
    sentences = sentences_over(rng, WORD_LIST, rng.randint(budget + 1, 2 * budget + 10))
    featurizer = HashedNgramFeaturizer(dim=dim)
    block = featurizer.featurize(sentences, pooled)
    # A random half of the block's columns, so that past 64 columns some entries stay.
    touched = np.unique(block.indices).tolist()
    half = set(rng.sample(touched, len(touched) // 2))
    if kind == "empty":
        cols = []
    elif kind == "full":  # every column; at 2^24 every column of the block
        cols = range(dim) if dim <= 2**18 else touched
    elif kind == "random":
        cols = sorted(half | set(rng.sample(range(dim), rng.randint(0, min(dim, 64)))))
    else:
        cols = sorted(half | set(edge_columns(dim)))
    cols = np.array(cols, dtype=np.int64)
    got = featurizer.featurize(sentences, pooled, cols=cols)
    assert_same_block(got, select(block, cols))
    assert_same_block(got, select_oracle(block, cols))


EDGE_DIMS = [2, 63, 64, 65, 127, 128, 1000, features._TABLE_COLUMNS, features._TABLE_COLUMNS + 1,
             *LARGE_DIMS]


@st.composite
def blocks_and_columns(draw):
    """A block whose rows hold columns at the edges of 64-column words, and
    sorted columns to select: some of the block's, some edges, some others."""
    dim = draw(st.sampled_from(EDGE_DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.unique(np.concatenate([edge_columns(dim)[-200:], edge_columns(dim)[:8],
                                     rng.integers(0, dim, size=40)]))
    sizes = [int(rng.integers(0, min(len(pool), 12) + 1)) for _ in range(draw(st.integers(0, 20)))]
    rows = [np.sort(rng.choice(pool, size=k, replace=False)) for k in sizes]
    indptr = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)] + rows).astype(np.int64)
    block = FeatureBlock(indptr, indices, rng.normal(size=len(indices)), dim)
    candidates = np.concatenate([pool, rng.integers(0, dim, size=20)])
    cols = np.unique(candidates[rng.random(len(candidates)) < draw(st.floats(0, 1))])
    return block, cols


@settings(max_examples=150, deadline=None)
@given(drawn=blocks_and_columns())
def test_select_and_compact_equal_isin_and_searchsorted(drawn):
    block, cols = drawn
    assert_same_block(select(block, cols), select_oracle(block, cols))
    touched, compact = block.compact()
    assert touched.dtype == np.int64 and np.array_equal(touched, np.unique(block.indices))
    assert_same_block(compact, select_oracle(block, touched))


# The examples include sentences of one token, which have no context columns.
@settings(max_examples=80, deadline=None)
@given(sentences=SENTENCES, pooled=st.booleans(),
       dim=st.sampled_from([2, 3, 64, 1000, *LARGE_DIMS]), window=st.integers(0, 3))
@example(sentences=[["ü"]], pooled=False, dim=2**24, window=2)
@example(sentences=[["the"], ["a"], ["the"]], pooled=True, dim=2**18, window=2)
@example(sentences=[["a", "the"], ["zqglow"]], pooled=False, dim=2**18, window=0)
def test_featurize_compact_equals_featurize_then_compact(sentences, pooled, dim, window):
    featurizer = HashedNgramFeaturizer(dim=dim, window=window)
    cols, block = featurizer.featurize_compact(sentences, pooled)
    whole = featurizer.featurize(sentences, pooled)
    want_cols, want = whole.compact()
    assert cols.dtype == want_cols.dtype and np.array_equal(cols, want_cols)
    assert np.array_equal(cols, np.unique(whole.indices))
    assert_same_block(block, want)
    assert_same_block(block, select_oracle(whole, cols))


# The block's arrays are sized by this count before any chunk is featurized.
@settings(max_examples=60, deadline=None)
@given(sentences=SENTENCES, dim=st.sampled_from([2, 64, 1000, *LARGE_DIMS]),
       window=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["none", "empty", "random", "touched"]))
def test_occurrences_count_the_reference_features_in_the_columns(sentences, dim, window, seed, kind):
    featurizer = HashedNgramFeaturizer(dim=dim, window=window)
    raw = [reference_hash(feature, featurizer.salt, dim) for tokens in sentences
           for i in range(len(tokens)) for feature in reference_raw_features(featurizer, tokens, i)]
    rng = np.random.default_rng(seed)
    cols = {"none": None, "empty": np.zeros(0, dtype=np.int64),
            "random": np.unique(rng.integers(0, dim, size=rng.integers(0, 50))),
            "touched": np.unique(raw)}[kind]
    ids, sizes, memo = featurizer._words(sentences)
    want = len(raw) if cols is None else int(np.isin(raw, cols).sum())
    assert (memo if cols is None else memo.onto(cols)).occurrences(ids, sizes) == want
    assert want >= len(featurizer.featurize(sentences, cols=cols).indices)


def test_featurize_compact_across_chunk_boundaries():
    rng = random.Random(9)
    sentences = sentences_over(rng, WORD_LIST, 2 * features._CHUNK_OCCURRENCES + 7)
    featurizer = HashedNgramFeaturizer(dim=2**18)
    for pooled in (False, True):
        cols, block = featurizer.featurize_compact(sentences, pooled)
        want_cols, want = featurizer.featurize(sentences, pooled).compact()
        assert np.array_equal(cols, want_cols)
        assert_same_block(block, want)


def test_featurize_under_a_tracer_that_reads_frame_locals():
    # A debugger reads each frame's locals, which keeps one more reference to
    # every local array. The repeated word leaves fewer entries than feature
    # occurrences, so the block's arrays are trimmed.
    def tracer(frame, event, arg):
        frame.f_locals
        return tracer

    featurizer = HashedNgramFeaturizer(dim=64)
    want = featurizer.featurize([["a", "a"]], pooled=True)
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = featurizer.featurize([["a", "a"]], pooled=True)
    finally:
        sys.settrace(previous)
    assert_same_block(got, want)


def test_stack_rebuilds_the_block_from_its_rows():
    block = HashedNgramFeaturizer(dim=64).featurize([["a", "b"], ["c"], ["a", "d", "e"]])
    rows = [block.row(r) for r in range(len(block))]
    stacked = FeatureBlock.stack(rows, block.dim)
    for name in ("indptr", "indices", "values"):
        assert np.array_equal(getattr(stacked, name), getattr(block, name))
    empty = FeatureBlock.stack([], 64)
    assert len(empty) == 0 and empty.indices.dtype == np.int64


@settings(max_examples=150, deadline=None)
@given(block=random_blocks(), data=st.data())
def test_take_equals_stack_of_the_same_rows(block, data):
    # Repeats allowed; random_blocks has empty rows, and the selection may be empty.
    rows = data.draw(st.lists(st.integers(0, max(len(block) - 1, 0)), max_size=40)
                     if len(block) else st.just([]))
    taken = block.take(np.array(rows, dtype=np.int64))
    stacked = FeatureBlock.stack([block.row(r) for r in rows], block.dim)
    assert taken.dim == stacked.dim
    for name in ("indptr", "indices", "values"):
        got, want = getattr(taken, name), getattr(stacked, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ngrams", [(1, 1), (2, 4), (3, 5), (6, 8)])
def test_word_features_are_the_padded_ngrams(ngrams):
    featurizer = HashedNgramFeaturizer(dim=8, ngram_min=ngrams[0], ngram_max=ngrams[1])
    for word in ["a", "ab", "cat", "naïve", "日本語", "morning", "zqglowzqglow"]:
        want = reference_raw_features(dataclasses.replace(featurizer, window=0), [word], 0)
        assert featurizer._word_features(word) == want


def unique_reference(featurizer, sentences, pooled: bool) -> FeatureBlock:
    """The block from one ``np.unique`` over every feature occurrence's key,
    ``row * dim + column``, of the whole corpus at once: no chunks, no placement."""
    hashes: dict[str, int] = {}
    rows, columns = [], []
    token = 0
    for s, tokens in enumerate(sentences):
        for i in range(len(tokens)):
            for feature in reference_raw_features(featurizer, tokens, i):
                if feature not in hashes:
                    hashes[feature] = reference_hash(feature, featurizer.salt, featurizer.dim)
                rows.append(s if pooled else token)
                columns.append(hashes[feature])
            token += 1
    num_rows = len(sentences) if pooled else token
    keys = np.array(rows, dtype=np.int64) * featurizer.dim + np.array(columns, dtype=np.int64)
    keys, counts = np.unique(keys, return_counts=True)
    row, column = keys // featurizer.dim, keys % featurizer.dim
    values = counts.astype(np.float64)
    norms = np.sqrt(np.bincount(row, weights=values * values, minlength=num_rows))
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=num_rows), out=indptr[1:])
    return FeatureBlock(indptr, column, values / norms[row], featurizer.dim)


def assert_featurize_equals_unique_reference(featurizer, sentences, pooled, cols) -> None:
    """featurize, with and without ``cols``, and featurize_compact against the reference."""
    whole = unique_reference(featurizer, sentences, pooled)
    assert_same_block(featurizer.featurize(sentences, pooled), whole)
    assert_same_block(featurizer.featurize(sentences, pooled, cols=cols), select_oracle(whole, cols))
    touched = np.unique(whole.indices)
    got_cols, compact = featurizer.featurize_compact(sentences, pooled)
    assert got_cols.dtype == np.int64 and np.array_equal(got_cols, touched)
    assert_same_block(compact, select_oracle(whole, touched))


# An empty-string token (its only feature is the word), and a word whose 88
# features alone exceed the smallest budgets below.
CHUNK_WORDS = [*WORD_LIST, "", "x" * 30]


# Small budgets, so that a few sentences span several chunks and some one
# sentence is longer than the budget; dims down to 8, so that columns collide.
@settings(max_examples=80, deadline=None)
@given(sentences=st.lists(st.lists(st.sampled_from(CHUNK_WORDS), min_size=1, max_size=12),
                          max_size=12),
       pooled=st.booleans(), dim=st.sampled_from([8, 9, 64, 2**18]),
       budget=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), empty_cols=st.booleans())
@example(sentences=[], pooled=False, dim=8, budget=1, seed=0, empty_cols=True)
@example(sentences=[], pooled=True, dim=8, budget=1, seed=0, empty_cols=False)
@example(sentences=[[""], ["", "a", ""]], pooled=False, dim=8, budget=2, seed=0, empty_cols=False)
@example(sentences=[["x" * 30, "a"], ["the"]], pooled=True, dim=9, budget=50, seed=0,
         empty_cols=True)
def test_featurize_equals_unique_over_every_occurrence_key(sentences, pooled, dim, budget, seed,
                                                           empty_cols):
    rng = np.random.default_rng(seed)
    cols = np.unique(rng.integers(0, dim, size=0 if empty_cols else rng.integers(1, 2 * dim)))
    with mock.patch.object(features, "_CHUNK_OCCURRENCES", budget):
        assert_featurize_equals_unique_reference(
            HashedNgramFeaturizer(dim=dim), sentences, pooled, cols)


def test_featurize_at_the_occurrence_budget_equals_unique_over_every_occurrence_key():
    # Chunks of the real budget on both sides of one sentence longer than it.
    rng = random.Random(11)
    budget = features._CHUNK_OCCURRENCES
    long = [token for tokens in sentences_over(rng, CHUNK_WORDS, budget) for token in tokens]
    sentences = sentences_over(rng, CHUNK_WORDS, budget) + [long] + sentences_over(
        rng, CHUNK_WORDS, budget)
    featurizer = HashedNgramFeaturizer(dim=64)
    cols = np.arange(0, 64, 3)
    for pooled in (False, True):
        assert_featurize_equals_unique_reference(featurizer, sentences, pooled, cols)


def random_words(rng: random.Random, count: int) -> list[str]:
    return ["".join(rng.choices("abcdefghijklmnop", k=rng.randint(2, 9))) for _ in range(count)]


def traced_peak(call):
    """What ``call()`` returns, and the most memory it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def nbytes(block: FeatureBlock) -> int:
    return block.indptr.nbytes + block.indices.nbytes + block.values.nbytes


class TestScratchFollowsTheOccurrenceBudget:
    """Counted by tracemalloc, which sees numpy's buffers: featurize's peak is
    its output block plus the scratch of one chunk, whatever the corpus size."""

    # The most scratch featurize may hold per feature occurrence of the budget.
    # It holds about 31 bytes: one 8-byte key per occurrence, then the
    # distinct keys' columns, counts and one temporary. One more
    # occurrence-sized array kept through a chunk reads 39, and listing the
    # keys, joining them and letting np.unique copy them read 72.
    BYTES_PER_OCCURRENCE = 35

    @pytest.fixture(scope="class")
    def featurized(self):
        rng = random.Random(17)
        words = random_words(rng, 400)
        featurizer = HashedNgramFeaturizer()
        cols, _ = featurizer.featurize_compact(
            [rng.choices(words[:300], k=rng.randint(4, 12)) for _ in range(300)])
        # About three budgets of feature occurrences, and four times as many.
        large = [rng.choices(words, k=rng.randint(4, 12)) for _ in range(2400)]
        return {size: traced_peak(lambda: featurizer.featurize(sentences, cols=cols))
                for size, sentences in (("1x", large[:600]), ("4x", large))}

    def test_four_times_the_sentences_add_no_more_than_their_output(self, featurized):
        (small, small_peak), (large, large_peak) = featurized["1x"], featurized["4x"]
        assert len(large) > 3 * len(small)
        assert large_peak - small_peak <= nbytes(large)

    def test_scratch_per_budgeted_occurrence_is_pinned(self, featurized):
        block, peak = featurized["1x"]
        assert peak - nbytes(block) <= self.BYTES_PER_OCCURRENCE * features._CHUNK_OCCURRENCES
