"""Hashed character n-gram features for tokens and sentences.

Stands in for a pretrained encoder: deterministic, dependency-free, and
fast enough to train linear heads on a laptop. Token vectors combine the
token's own character n-grams with whole-word context features from a
window of two tokens on each side; the sentence variant pools token
features over the whole sentence. All vectors are L2-normalized.

A corpus is featurized in one call into a :class:`FeatureBlock`, a CSR
matrix with one row per token (or per sentence). Within that call each
distinct word's own features, and each word's context features, are hashed
once; no feature is cached across calls.

A call that featurizes onto sorted feature columns places its memo's columns
onto them once, by binary search, so no table as wide as the hashed dimension
is built.
"""
from __future__ import annotations

import functools
import hashlib
from collections.abc import Collection, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

DEFAULT_FEATURE_DIM = 2**18
DEFAULT_SALT = "xlproject-features-v1"


@dataclass
class FeatureVector:
    """Sparse vector: sorted unique indices with their values."""

    indices: np.ndarray
    values: np.ndarray
    dim: int


@dataclass
class FeatureBlock:
    """Sparse rows in CSR form: row ``r`` is ``indices``/``values[indptr[r]:indptr[r + 1]]``."""

    indptr: np.ndarray  # (R + 1,) int64
    indices: np.ndarray  # (nnz,) int64, sorted and unique within each row
    values: np.ndarray  # (nnz,) float64
    dim: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, r: int) -> FeatureVector:
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return FeatureVector(self.indices[lo:hi], self.values[lo:hi], self.dim)

    @classmethod
    def stack(cls, rows: Sequence[FeatureVector], dim: int) -> FeatureBlock:
        """A block of these vectors, one row each, in order."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(x.indices) for x in rows], out=indptr[1:])
        indices = np.concatenate([np.zeros(0, dtype=np.int64)] + [x.indices for x in rows])
        values = np.concatenate([np.zeros(0)] + [x.values for x in rows])
        return cls(indptr, indices, values, dim)

    def take(self, rows: np.ndarray) -> FeatureBlock:
        """A block of these rows, in order; a row may repeat."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        entries = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], sizes)
        return FeatureBlock(indptr, self.indices[entries], self.values[entries], self.dim)

    def compact(self) -> tuple[np.ndarray, FeatureBlock]:
        """The sorted feature columns the rows touch, and the block re-indexed
        onto ``0..K-1`` in that order.

        A block at most ``_TABLE_COLUMNS`` wide, such as a training batch over
        a small training set's columns, is compacted through a table over its
        columns, which is the faster way there; a wider one, by sorting its
        entries, so no table grows with the hashed dimension."""
        if self.dim <= _TABLE_COLUMNS:
            touched = np.zeros(self.dim, dtype=bool)
            touched[self.indices] = True
            cols = np.flatnonzero(touched)
            position = np.empty(self.dim, dtype=np.int64)
            position[cols] = np.arange(len(cols))
            indices = position[self.indices]
        else:
            cols, indices = np.unique(self.indices, return_inverse=True)
        return cols, FeatureBlock(self.indptr, indices, self.values, len(cols))


# The widest block that ``compact`` re-indexes through a table over its
# columns: 288 KB of scratch at most, whatever the hashed dimension.
_TABLE_COLUMNS = 2**15


def _place(cols: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Each column's place in the sorted, distinct ``cols``, by binary search;
    one not in ``cols`` goes to ``len(cols) + column``, so all stay distinct."""
    order = np.argsort(columns)  # searched in order, each search starts where the last ended
    places = np.empty_like(order)
    places[order] = np.searchsorted(cols, columns[order])
    del order
    missing = np.append(cols, -1)[places] != columns  # -1, past the last place, is no column
    places[missing] = columns[missing] + len(cols)
    return places


# The feature occurrences whose keys are counted together: bounds featurize's
# scratch memory, about 30 bytes an occurrence, whatever the sentences' lengths.
_CHUNK_OCCURRENCES = 2**15


def _digests(prefix, features: Iterable[str]) -> bytearray:
    """The 8-byte ``blake2b`` digests of ``salt\x1f<feature>``, concatenated;
    ``prefix`` is a hasher that has already seen ``salt\x1f``."""
    out = bytearray()
    for feature in features:
        hasher = prefix.copy()
        hasher.update(feature.encode("utf-8"))
        out += hasher.digest()
    return out


@functools.lru_cache(maxsize=256)
def _ngram_slices(length: int, ngram_min: int, ngram_max: int) -> tuple[slice, ...]:
    """The slices of every n-gram of a string of this length, shortest n first."""
    return tuple(
        slice(j, j + n) for n in range(ngram_min, ngram_max + 1) for j in range(length - n + 1)
    )


def _columns(digests: bytearray, dim: int) -> np.ndarray:
    """Each digest read as a big-endian integer, modulo ``dim``."""
    return (np.frombuffer(digests, dtype=">u8") % np.uint64(dim)).astype(np.int64)


@dataclass
class _WordColumns:
    """The memo of one featurize call, indexed by word id: each word's own
    feature columns, ``own[starts[w]:starts[w] + counts[w]]``, and its column
    as the context feature at each window offset, ``context[offset][w]``.
    Its rows are ``dim`` columns wide: every column is below ``width``, the
    row keys' stride, and one at or above ``dim`` is dropped (see ``onto``)."""

    own: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    context: dict[int, np.ndarray]
    dim: int
    width: int

    def onto(self, cols: np.ndarray, own: np.ndarray | None = None) -> _WordColumns:
        """This memo with its columns placed onto the sorted, distinct ``cols``;
        ``own``, when given, is the place of each own column (see ``touched``)."""
        cols = np.asarray(cols, dtype=np.int64)
        context = {offset: _place(cols, columns) for offset, columns in self.context.items()}
        return _WordColumns(_place(cols, self.own) if own is None else own, self.starts,
                            self.counts, context, dim=len(cols), width=len(cols) + self.width)

    def rows(self, ids: np.ndarray, sizes: np.ndarray, pooled: bool) -> FeatureBlock:
        """The rows of the sentences with these token word ids and lengths.

        Every feature occurrence is written as one key, ``row * width + column``,
        into one buffer: the own features first, then the context features at
        each offset. The buffer is sorted in place; each distinct key is an
        entry, valued by how often it occurs over its row's L2 norm."""
        sentence_of = np.repeat(np.arange(len(sizes)), sizes)
        position = np.arange(len(ids)) - (np.cumsum(sizes) - sizes)[sentence_of]
        length = sizes[sentence_of]
        row_of_token = sentence_of if pooled else np.arange(len(ids))
        num_rows = len(sizes) if pooled else len(ids)
        counts = self.counts[ids]
        own = int(counts.sum())
        keys = np.empty(own + int(self.neighboured(sizes).sum()), dtype=np.int64)
        # Each own occurrence's index into ``self.own``: a cumulative sum of
        # steps of one, which jump at each token's first occurrence to the
        # start of its word's columns. Every word has at least one column.
        index = np.ones(own, dtype=np.int64)
        begin = self.starts[ids]
        index[np.cumsum(counts) - counts] = begin - np.append(0, begin[:-1] + counts[:-1] - 1)
        np.cumsum(index, out=index)
        np.take(self.own, index, out=keys[:own], mode="clip")  # unbuffered; every index is valid
        del index
        keys[:own] += np.repeat(row_of_token * self.width, counts)
        end = own
        for offset, columns in self.context.items():
            tokens = np.flatnonzero((position >= -offset) & (position < length - offset))
            start, end = end, end + len(tokens)
            np.take(columns, ids[tokens + offset], out=keys[start:end], mode="clip")
            keys[start:end] += row_of_token[tokens] * self.width
        del sentence_of, position, length, row_of_token
        keys.sort()
        distinct = np.empty(len(keys), dtype=bool)
        distinct[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        occurrences, keys = len(keys), keys[distinct]  # the buffer is freed here
        first = np.flatnonzero(distinct)
        del distinct
        values = np.empty(len(keys))  # how often each distinct key occurs
        np.subtract(first[1:], first[:-1], out=values[:-1])
        values[-1:] = occurrences - first[-1:]
        del first
        # Each row's first entry, and the first past its columns below ``dim``
        # (a row's columns are sorted); no row is empty.
        starts = np.arange(num_rows + 1) * self.width
        indptr = np.searchsorted(keys, starts)
        ends = np.searchsorted(keys, starts[:-1] + self.dim)
        # Sums of whole squares are exact, so the order they are added in does not matter.
        norms = np.sqrt(np.add.reduceat(values * values, indptr[:-1]))
        values /= np.repeat(norms, np.diff(indptr))
        columns = keys
        del keys  # so that filtering frees the unfiltered columns
        columns %= self.width
        if not np.array_equal(ends, indptr[1:]):  # a placed memo's other columns are dropped
            kept = columns < self.dim
            columns = columns[kept]  # one at a time, each freeing its unfiltered array
            values = values[kept]
            np.cumsum(ends - indptr[:-1], out=indptr[1:])
        return FeatureBlock(indptr, columns, values, self.dim)

    def neighboured(self, sizes: np.ndarray) -> np.ndarray:
        """How many context features each sentence of these lengths has: at
        each window offset, one per token with a neighbour there."""
        counts = np.zeros_like(sizes)
        for offset in self.context:
            counts += np.maximum(sizes - abs(offset), 0)
        return counts

    def neighbours(
        self, ids: np.ndarray, sizes: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """At each window offset, every word's column as the context feature
        there, and the word id of each token that is some token's neighbour
        there."""
        position = np.arange(len(ids)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        length = np.repeat(sizes, sizes)
        for offset, context in self.context.items():
            yield context, ids[(position >= offset) & (position - offset < length)]

    def touched(self, ids: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sorted columns that the rows of these sentences touch, pooled
        or not: every word's own columns (each word of the memo occurs), and
        the context columns of the words that are neighbours; and the place of
        each own column among them, from the same sort."""
        columns = [self.own]
        for context, neighbours in self.neighbours(ids, sizes):
            occurs = np.zeros(len(self.counts), dtype=bool)
            occurs[neighbours] = True
            columns.append(context[occurs])
        columns = np.concatenate(columns)
        order = np.argsort(columns)
        columns = columns[order]
        rank = np.zeros_like(order)  # each sorted column's place among the distinct ones
        np.not_equal(columns[1:], columns[:-1], out=rank[1:])
        np.cumsum(rank, out=rank)
        cols = np.empty(int(rank[-1]) + 1 if len(rank) else 0, dtype=np.int64)
        cols[rank] = columns  # equal columns share a place
        del columns
        places = np.empty_like(order)
        places[order] = rank
        return cols, places[:len(self.own)].copy()  # not a view of every place

    def occurrences(self, ids: np.ndarray, sizes: np.ndarray) -> int:
        """How many feature occurrences these sentences have in the columns
        below ``dim``: the most entries their rows can hold."""
        own = np.add.reduceat(self.own < self.dim, self.starts, dtype=np.int64)
        total = own[ids].sum()
        for context, neighbours in self.neighbours(ids, sizes):
            total += np.count_nonzero((context < self.dim)[neighbours])
        return int(total)

    def whole(self, ids: np.ndarray, sizes: np.ndarray, pooled: bool) -> FeatureBlock:
        """The rows of these sentences, made a chunk of whole sentences at a
        time, each chunk at most ``_CHUNK_OCCURRENCES`` feature occurrences (a
        longer sentence is a chunk by itself), and written into arrays sized by
        ``occurrences`` (the most entries there can be) and trimmed in place,
        so the chunks are never joined into a second copy."""
        if self.width > np.iinfo(np.int64).max // max(len(ids), 1):
            raise ValueError(f"feature key width {self.width} overflows the row keys")
        bound = self.occurrences(ids, sizes)
        indptr = np.zeros((len(sizes) if pooled else len(ids)) + 1, dtype=np.int64)
        indices = np.empty(bound, dtype=np.int64)
        values = np.empty(bound)
        last_token = np.cumsum(sizes)
        # The feature occurrences, own and context, of the sentences up to each
        # one's end, below ``dim`` or not: every one is a key of ``rows``.
        ends = np.append(0, np.cumsum(self.counts[ids]))[last_token]
        ends += np.cumsum(self.neighboured(sizes))
        rows = entries = lo = 0
        while lo < len(sizes):
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _CHUNK_OCCURRENCES, "right")))
            chunk = self.rows(ids[last_token[lo] - sizes[lo]:last_token[hi - 1]], sizes[lo:hi],
                              pooled)
            end = entries + len(chunk.indices)
            indptr[rows + 1:rows + len(chunk) + 1] = chunk.indptr[1:] + entries
            indices[entries:end] = chunk.indices
            values[entries:end] = chunk.values
            rows, entries, lo = rows + len(chunk), end, hi
            del chunk  # before the next chunk is built
        # Trimmed in place, which frees the unused tail without a copy. Resizing
        # moves the buffer, so nothing may hold a view of ``indices`` or
        # ``values`` here (the loop only writes through slices it drops at
        # once); a view kept past this point would read freed memory. numpy's
        # reference check is skipped because a tracer that reads frame locals,
        # as a debugger does, adds references that are not views.
        indices.resize(entries, refcheck=False)
        values.resize(entries, refcheck=False)
        return FeatureBlock(indptr, indices, values, self.dim)


@dataclass(frozen=True)
class HashedNgramFeaturizer:
    dim: int = DEFAULT_FEATURE_DIM
    ngram_min: int = 3
    ngram_max: int = 5
    window: int = 2
    salt: str = DEFAULT_SALT

    def _word_features(self, word: str) -> list[str]:
        """The features a token has by itself: the word and its padded n-grams."""
        padded = f"^{word}$"
        slices = _ngram_slices(len(padded), self.ngram_min, self.ngram_max)
        return [f"w={word}", *map(padded.__getitem__, slices)]

    def _memo(self, vocab: Collection[str]) -> _WordColumns:
        """Hash each word's own features, and each word as context, once."""
        prefix = hashlib.blake2b(f"{self.salt}\x1f".encode("utf-8"), digest_size=8)
        own = bytearray()
        counts = []
        for word in vocab:
            feats = self._word_features(word)
            counts.append(len(feats))
            own += _digests(prefix, feats)
        counts = np.array(counts, dtype=np.int64)
        context = {
            offset: _columns(
                _digests(prefix, (f"ctx{offset:+d}={word}" for word in vocab)), self.dim
            )
            for offset in range(-self.window, self.window + 1)
            if offset != 0
        }
        return _WordColumns(
            own=_columns(own, self.dim), starts=np.cumsum(counts) - counts, counts=counts,
            context=context, dim=self.dim, width=self.dim,
        )

    def _words(
        self, sentences: Sequence[Sequence[str]]
    ) -> tuple[np.ndarray, np.ndarray, _WordColumns]:
        """Every token's word id, every sentence's length, and the call's memo."""
        vocab: dict[str, int] = {}
        word_ids: list[int] = []
        lengths: list[int] = []
        for tokens in sentences:
            if not tokens:
                raise ValueError("tokens must be non-empty")
            lengths.append(len(tokens))
            word_ids.extend(vocab.setdefault(token, len(vocab)) for token in tokens)
        ids = np.array(word_ids, dtype=np.int64)
        return ids, np.array(lengths, dtype=np.int64), self._memo(vocab)

    def featurize(
        self, sentences: Sequence[Sequence[str]], pooled: bool = False,
        cols: np.ndarray | None = None,
    ) -> FeatureBlock:
        """One row per token of every sentence, in order; with ``pooled``, one
        row per sentence pooling the features of all its tokens.

        A token's features are its word features plus ``ctx<offset>=<word>``
        for every neighbour within the window. Each row holds the hashed
        feature counts, L2-normalized. With ``cols``, sorted distinct feature
        columns, the block keeps only the entries in ``cols``, re-indexed onto
        ``0..len(cols)-1`` in that order. It is made from the call's memo
        placed onto ``cols`` once, so neither the block over every column nor a
        table as wide as ``dim`` is ever held.
        """
        ids, sizes, memo = self._words(sentences)
        if cols is not None:
            memo = memo.onto(cols)
        return memo.whole(ids, sizes, pooled)

    def featurize_compact(
        self, sentences: Sequence[Sequence[str]], pooled: bool = False
    ) -> tuple[np.ndarray, FeatureBlock]:
        """``featurize(sentences, pooled).compact()``: the sorted columns the
        rows touch, read off the call's memo, and the block featurized straight
        onto them, without the block over every column."""
        ids, sizes, memo = self._words(sentences)
        cols, own = memo.touched(ids, sizes)
        memo = memo.onto(cols, own)  # the memo over every column is freed here
        return cols, memo.whole(ids, sizes, pooled)

    def token_features(self, tokens: list[str]) -> list[FeatureVector]:
        """One vector per token, in token order."""
        block = self.featurize([tokens])
        return [block.row(i) for i in range(len(block))]

    def sentence_features(self, tokens: list[str]) -> FeatureVector:
        """Single vector pooling every token's features."""
        return self.featurize([tokens], pooled=True).row(0)
