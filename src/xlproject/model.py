"""Linear classification heads with optional low-rank adapters.

The trainable core: a linear layer with softmax over classes, a low-rank
adapter (frozen base weights, trainable factors A and B scaled by alpha/r),
cross-entropy gradients, and the softmax-over-words numeric trigger head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import FeatureBlock, FeatureVector
from .metrics import Attributions, rows_by_length


@dataclass
class LinearModel:
    W0: np.ndarray  # (C, F)
    b: np.ndarray  # (C,)

    @property
    def num_features(self) -> int:
        return self.W0.shape[1]

    @classmethod
    def zeros(cls, num_classes: int, num_features: int) -> LinearModel:
        return cls(W0=np.zeros((num_classes, num_features)), b=np.zeros(num_classes))


@dataclass
class LoraAdapter:
    """Low-rank update W0 + (alpha/rank) * B @ A with B zero-initialized."""

    A: np.ndarray  # (rank, F)
    B: np.ndarray  # (C, rank)
    rank: int
    alpha: float

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    @classmethod
    def init(
        cls,
        num_classes: int,
        num_features: int,
        rank: int = 64,
        alpha: float = 16.0,
        rng: np.random.Generator | None = None,
    ) -> LoraAdapter:
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(
            A=rng.normal(0.0, 0.02, size=(rank, num_features)),
            B=np.zeros((num_classes, rank)),
            rank=rank,
            alpha=alpha,
        )

    def delta(self) -> np.ndarray:
        """Dense effective weight update, for merging and for test oracles."""
        return self.scaling * (self.B @ self.A)


# Rows whose logits are computed together: bounds the (classes x nonzeros) scratch array.
_CHUNK_ROWS = 256


def restrict(
    model: LinearModel, adapter: LoraAdapter | None, cols: np.ndarray
) -> tuple[LinearModel, LoraAdapter | None]:
    """The head over the feature columns ``cols`` only: ``W0`` and ``A`` are
    sliced (copied), ``b`` and ``B`` shared."""
    head = LinearModel(W0=np.take(model.W0, cols, axis=1), b=model.b)
    if adapter is None:
        return head, None
    return head, LoraAdapter(
        A=np.take(adapter.A, cols, axis=1), B=adapter.B, rank=adapter.rank, alpha=adapter.alpha
    )


def _merged_weights(model: LinearModel, adapter: LoraAdapter | None) -> np.ndarray:
    """``W0 + (alpha/r) B A``. The product is summed over the rank in a fixed
    order, so a column's weights depend on that column alone and not on how
    many columns there are, as a BLAS product's may."""
    if adapter is None:
        return model.W0
    merged = np.zeros_like(model.W0)
    term = np.empty_like(merged)
    for k in range(adapter.rank):
        merged += np.multiply(adapter.B[:, k, None], adapter.A[k], out=term)
    merged *= adapter.scaling
    merged += model.W0
    return merged


def _logits(weights: np.ndarray, bias: np.ndarray, block: FeatureBlock) -> np.ndarray:
    """(rows, classes) logits ``weights x + bias`` of every row of a block whose
    columns are the columns of ``weights``. Each row is summed over its own
    nonzeros only, so its logits do not depend on the rows beside it."""
    out = np.empty((len(block), len(bias)))
    for lo in range(0, len(block), _CHUNK_ROWS):
        ptr = block.indptr[lo:lo + _CHUNK_ROWS + 1]
        terms = np.take(weights, block.indices[ptr[0]:ptr[-1]], axis=1)
        terms *= block.values[ptr[0]:ptr[-1]]
        sums = np.zeros((len(bias), len(ptr) - 1))
        nonempty = ptr[1:] > ptr[:-1]
        sums[:, nonempty] = np.add.reduceat(terms, ptr[:-1][nonempty] - ptr[0], axis=1)
        out[lo:lo + len(ptr) - 1] = sums.T
    out += bias
    return out


def _check_dim(model: LinearModel, dim: int) -> None:
    if dim != model.num_features:
        raise ValueError(f"feature dim mismatch: {dim} vs {model.num_features}")


def forward(
    model: LinearModel, adapter: LoraAdapter | None, x: FeatureVector | FeatureBlock
) -> np.ndarray:
    """Logits ``W0 x + b`` plus the adapter path: shape (C,) for one sparse
    vector, (rows, C) for every row of a block. The head is read as it is, an
    adapter merged over all its columns; each row sums only the columns it touches."""
    _check_dim(model, x.dim)
    block = FeatureBlock.stack([x], x.dim) if isinstance(x, FeatureVector) else x
    logits = _logits(_merged_weights(model, adapter), model.b, block)
    return logits[0] if isinstance(x, FeatureVector) else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def loss_and_grads(
    model: LinearModel,
    adapter: LoraAdapter | None,
    batch: list[tuple[FeatureVector, int]] | FeatureBlock,
    labels: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy and gradients for the trainable parameters.

    ``batch`` is a list of ``(FeatureVector, label)`` pairs, or a block with
    each row's class in ``labels``. A block's columns are the model's columns;
    :func:`restrict` the model to the batch's columns first, and the
    gradients cover those columns only.

    With an adapter the base weights are frozen: gradients cover only A, B,
    and the bias. Without one they cover W0 and the bias.
    """
    if labels is not None:
        return _block_loss_and_grads(model, adapter, batch, np.asarray(labels))
    if not batch:
        raise ValueError("batch must be non-empty")
    for x, _ in batch:
        _check_dim(model, x.dim)
    cols, block = FeatureBlock.stack([x for x, _ in batch], model.num_features).compact()
    loss, local = _block_loss_and_grads(
        *restrict(model, adapter, cols), block, np.array([label for _, label in batch])
    )
    key, full = ("A", adapter.A) if adapter is not None else ("W0", model.W0)
    grad = np.zeros_like(full)
    grad[:, cols] = local[key]
    local[key] = grad
    return loss, local


def _block_loss_and_grads(
    model: LinearModel, adapter: LoraAdapter | None, block: FeatureBlock, labels: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    n = len(block)
    if n == 0:
        raise ValueError("batch must be non-empty")
    _check_dim(model, block.dim)
    rows = np.arange(n)
    probs = softmax(_logits(_merged_weights(model, adapter), model.b, block))
    loss = -float(np.sum(np.log(probs[rows, labels]))) / n
    dlogits = probs
    dlogits[rows, labels] -= 1.0
    # d[c, j] = sum over rows of dlogits[row, c] * x[row, j], added in row order.
    terms = np.take(dlogits.T, np.repeat(rows, np.diff(block.indptr)), axis=1)
    terms *= block.values
    d = np.stack([np.bincount(block.indices, weights=t, minlength=block.dim) for t in terms])
    grads = {"b": dlogits.sum(axis=0) / n}
    if adapter is None:
        d /= n
        grads["W0"] = d
        return loss, grads
    # The adapter's gradients follow from d: dA = s B^T d, dB = s d A^T, each
    # reduced in a fixed order (over classes, and over this batch's columns).
    scale = adapter.scaling / n
    grad_a = np.zeros_like(adapter.A)
    for c in range(len(d)):
        grad_a += adapter.B[c, :, None] * d[c]
    grad_a *= scale
    grads["A"] = grad_a
    grads["B"] = np.stack([np.sum(adapter.A * row, axis=1) for row in d]) * scale
    return loss, grads


def predict_binary(word_logits: list[np.ndarray] | np.ndarray) -> list[int]:
    """Argmax per word (per row of a logits array); ties resolve to the lower
    class, 0 for a trigger head (not a trigger)."""
    if len(word_logits) == 0:
        return []
    return np.argmax(np.asarray(word_logits), axis=-1).tolist()


def numeric_attributions(word_logits: np.ndarray, lengths: list[int]) -> list[list[float]]:
    """:func:`numeric_from_logits` of sentences whose (L, 2) logits follow one another."""
    return rows_by_length(word_logits[:, 1], lengths, softmax)


def numeric_from_logits(word_logits: list[np.ndarray] | np.ndarray) -> Attributions:
    """Softmax across words of the trigger-class logits; sums to one per sentence."""
    arr = np.asarray(word_logits, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != 2:
        raise ValueError(f"expected shape (L, 2) logits, got {arr.shape}")
    return Attributions(values=numeric_attributions(arr, [len(arr)])[0])
