"""AdamW with decoupled weight decay, over named numpy parameter dicts."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per chunk of the update: bounds the step's work arrays, whatever the head's size.
_CHUNK_ELEMENTS = 2**16


def _chunk_columns(shape: tuple[int, ...]) -> int:
    """Last-axis columns per chunk of a parameter of this shape; at least one."""
    return max(1, _CHUNK_ELEMENTS // max(1, math.prod(shape[:-1])))


@dataclass
class AdamWState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    # Two flat work arrays, each one chunk of the largest parameter, reused by every step.
    work: tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> AdamWState:
        size = max((math.prod(p.shape[:-1]) * min(p.shape[-1], _chunk_columns(p.shape))
                    for p in params.values()), default=0)
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            work=(np.empty(size), np.empty(size)),
        )


def adamw_step(
    state: AdamWState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
    lr: float,
    weight_decay: float = 0.0,
    out: dict[str, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], AdamWState]:
    """One update: moment updates, bias correction, then
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    A gradient is an array shaped like its parameter, or a pair ``(cols,
    values)`` of unique last-axis indices and the gradient there, shaped
    ``param.shape[:-1] + (len(cols),)``; every other column's gradient is zero.
    A parameter may be narrower than its state along the last axis: the step
    then runs on the state's leading columns and leaves the others as they
    are, which is exact when their weights and moments are zero, a fixed
    point of AdamW.

    Weight decay acts on the parameters directly, never through the moments.
    The state's moments are updated in place. The updated parameters are
    written into ``out``, arrays shaped like ``params`` that may be
    ``params`` itself; by default they are new arrays and ``params`` is left
    as given. Bias correction and the update run a chunk of columns at a
    time, in the state's work arrays, so an in-place step with column
    gradients allocates nothing parameter-sized. Raises on non-finite
    gradients so training aborts before corrupting state.
    """
    if set(params) != set(grads):
        raise ValueError(f"param/grad keys differ: {sorted(params)} vs {sorted(grads)}")
    columns = {}  # key -> (cols, values); a dense gradient covers every column
    for key, grad in grads.items():
        cols, values = grad if isinstance(grad, tuple) else (slice(None), grad)
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite gradient for {key!r}")
        columns[key] = cols, values
    if out is None:
        out = {key: np.empty_like(theta) for key, theta in params.items()}
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    work_step, work_denom = state.work
    for key, theta in params.items():
        cols, values = columns[key]
        width = theta.shape[-1]
        m, v = state.m[key][..., :width], state.v[key][..., :width]
        # The moments decay in place, then take the gradient terms at their
        # columns, each term rounded as in beta * m + (1 - beta) * grad (* grad).
        # Elsewhere the dense form would add +0.0, which changes nothing:
        # beta * m is never -0.0, since both moments start at +0.0, a sum is
        # -0.0 only when both terms are, and the v term is never negative.
        m *= BETA1
        m[..., cols] += np.multiply(1.0 - BETA1, values)
        v *= BETA2
        term = np.multiply(1.0 - BETA2, values)
        term *= values
        v[..., cols] += term
        # Each element takes the same operations in the same order in any
        # chunk, so the update does not depend on the chunk size.
        lead, span = theta.shape[:-1], _chunk_columns(theta.shape)
        for lo in range(0, width, span):
            part = slice(lo, lo + span)
            shape = (*lead, min(span, width - lo))
            size = math.prod(shape)
            step, denom = work_step[:size].reshape(shape), work_denom[:size].reshape(shape)
            np.divide(v[..., part], bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += EPS
            np.divide(m[..., part], bias1, out=step)
            step /= denom
            # At weight_decay 0 the term would add a signed zero, which changes
            # no updated parameter, so it is skipped.
            if weight_decay != 0.0:
                step += np.multiply(weight_decay, theta[..., part], out=denom)
            step *= lr
            np.subtract(theta[..., part], step, out=out[key][..., part])
    return out, state
