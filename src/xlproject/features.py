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
"""
from __future__ import annotations

import functools
import hashlib
from collections.abc import Collection, Iterable, Sequence
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
        onto ``0..K-1`` in that order."""
        touched = np.zeros(self.dim, dtype=bool)
        touched[self.indices] = True
        cols = np.flatnonzero(touched)
        return cols, self.select(cols)

    def select(self, cols: np.ndarray) -> FeatureBlock:
        """The block over the sorted feature columns ``cols`` only, re-indexed
        onto ``0..K-1`` in that order; entries in any other column are dropped."""
        return self._placed(_positions(cols, self.dim), len(cols))

    def _placed(self, position: np.ndarray, width: int) -> FeatureBlock:
        """The block with each entry's column ``j`` moved to ``position[j]``,
        ``width`` columns wide; entries whose position is -1 are dropped."""
        indices = position[self.indices]
        kept = indices >= 0
        if kept.all():  # nothing to drop: the rows are shared
            return FeatureBlock(self.indptr, indices, self.values, width)
        ends = np.concatenate(([0], np.cumsum(kept)))  # entries kept before each position
        return FeatureBlock(ends[self.indptr], indices[kept], self.values[kept], width)

    @classmethod
    def join(cls, blocks: Sequence[FeatureBlock], dim: int) -> FeatureBlock:
        """The rows of these blocks, ``dim`` columns wide, one block after another."""
        sizes = np.concatenate([np.zeros(0, dtype=np.int64)] + [np.diff(b.indptr) for b in blocks])
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        indices = np.concatenate([np.zeros(0, dtype=np.int64)] + [b.indices for b in blocks])
        values = np.concatenate([np.zeros(0)] + [b.values for b in blocks])
        return cls(indptr, indices, values, dim)


def _positions(cols: np.ndarray, dim: int) -> np.ndarray:
    """The place of every feature column in the sorted ``cols``; -1 for a
    column that is not in it."""
    position = np.full(dim, -1, dtype=np.int64)
    position[cols] = np.arange(len(cols))
    return position


# Sentences whose feature keys are counted together: bounds featurize's scratch memory.
_CHUNK_SENTENCES = 256


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
    as the context feature at each window offset, ``context[offset][w]``."""

    own: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    context: dict[int, np.ndarray]
    dim: int

    def rows(self, ids: np.ndarray, sizes: np.ndarray, pooled: bool) -> FeatureBlock:
        """The rows of the sentences with these token word ids and lengths."""
        sentence_of = np.repeat(np.arange(len(sizes)), sizes)
        position = np.arange(len(ids)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        row_of_token = sentence_of if pooled else np.arange(len(ids))
        num_rows = len(sizes) if pooled else len(ids)
        # Every feature occurrence as one key, row * dim + column.
        counts = self.counts[ids]
        within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        keys = [
            np.repeat(row_of_token, counts) * self.dim
            + self.own[np.repeat(self.starts[ids], counts) + within]
        ]
        for offset, columns in self.context.items():
            neighbour = position + offset
            tokens = np.flatnonzero((neighbour >= 0) & (neighbour < sizes[sentence_of]))
            keys.append(row_of_token[tokens] * self.dim + columns[ids[tokens + offset]])
        keys, counts = np.unique(np.concatenate(keys), return_counts=True)
        row = keys // self.dim
        values = counts.astype(np.float64)
        norms = np.sqrt(np.bincount(row, weights=values * values, minlength=num_rows))
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=num_rows), out=indptr[1:])
        return FeatureBlock(indptr, keys - row * self.dim, values / norms[row], self.dim)


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
            context=context, dim=self.dim,
        )

    def featurize(
        self, sentences: Sequence[Sequence[str]], pooled: bool = False,
        cols: np.ndarray | None = None,
    ) -> FeatureBlock:
        """One row per token of every sentence, in order; with ``pooled``, one
        row per sentence pooling the features of all its tokens.

        A token's features are its word features plus ``ctx<offset>=<word>``
        for every neighbour within the window. Each row holds the hashed
        feature counts, L2-normalized. With ``cols``, sorted feature columns,
        the block is ``featurize(sentences, pooled).select(cols)``, selected a
        chunk of sentences at a time, so the block over every column is never
        held whole.
        """
        vocab: dict[str, int] = {}
        word_ids: list[int] = []
        lengths: list[int] = []
        for tokens in sentences:
            if not tokens:
                raise ValueError("tokens must be non-empty")
            lengths.append(len(tokens))
            word_ids.extend(vocab.setdefault(token, len(vocab)) for token in tokens)
        ids = np.array(word_ids, dtype=np.int64)
        sizes = np.array(lengths, dtype=np.int64)
        if self.dim > np.iinfo(np.int64).max // max(len(ids), 1):
            raise ValueError(f"feature dim {self.dim} overflows the row keys")

        memo = self._memo(vocab)
        position = None if cols is None else _positions(cols, self.dim)
        width = self.dim if cols is None else len(cols)
        blocks = []
        first_token = np.cumsum(sizes) - sizes
        for lo in range(0, len(sizes), _CHUNK_SENTENCES):
            chunk = sizes[lo:lo + _CHUNK_SENTENCES]
            start = first_token[lo]
            block = memo.rows(ids[start:start + chunk.sum()], chunk, pooled)
            blocks.append(block if position is None else block._placed(position, width))
        return FeatureBlock.join(blocks, width)

    def token_features(self, tokens: list[str]) -> list[FeatureVector]:
        """One vector per token, in token order."""
        block = self.featurize([tokens])
        return [block.row(i) for i in range(len(block))]

    def sentence_features(self, tokens: list[str]) -> FeatureVector:
        """Single vector pooling every token's features."""
        return self.featurize([tokens], pooled=True).row(0)
