"""AdamW with decoupled weight decay, over named numpy parameter dicts."""
from __future__ import annotations

import math
import os
from concurrent.futures import Executor, ThreadPoolExecutor
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


def _cpus() -> int:
    """The CPUs this process may run on: the most ranges a step splits into."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def helper_pool() -> ThreadPoolExecutor:
    """A pool for ``adamw_step``: one helper thread per CPU beside the caller's.
    A thread starts at the first step that splits; leaving the pool's ``with``
    block joins them all."""
    return ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="adamw")


@dataclass
class AdamWState:
    m: dict[str, np.ndarray] = field(default_factory=dict)  # C-contiguous, like v
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    # Two flat work arrays, each one chunk of the largest parameter, reused by every step.
    work: tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> AdamWState:
        size = max((math.prod(p.shape[:-1]) * min(p.shape[-1], _chunk_columns(p.shape))
                    for p in params.values()), default=0)
        return cls(
            m={k: np.zeros_like(p, order="C") for k, p in params.items()},
            v={k: np.zeros_like(p, order="C") for k, p in params.items()},
            work=(np.empty(size), np.empty(size)),
        )


def adamw_step(
    state: AdamWState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
    lr: float,
    weight_decay: float = 0.0,
    out: dict[str, np.ndarray] | None = None,
    pool: Executor | None = None,
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

    With a ``pool``, a parameter of more than one chunk is split into
    contiguous ranges of rows (its first axis), one per CPU and at most one
    per chunk, that run at the same time: the caller's thread takes the
    first and the pool the others. Every element takes the same operations
    in the same order, so the update is bit-identical to the one-thread step.
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
    scalars = 1.0 - BETA1**t, 1.0 - BETA2**t, lr, weight_decay
    for key, (cols, values) in columns.items():
        theta, target, m, v = params[key], out[key], state.m[key], state.v[key]
        if theta.ndim == 1:  # a vector is one row
            theta, target, m, v, values = theta[None], target[None], m[None], v[None], values[None]
        rows, inner = theta.shape[0], math.prod(theta.shape[1:-1])
        width, span = theta.shape[-1], _chunk_columns(theta.shape)
        ranges = 1
        # Several chunks of more than one column: each range's part of the work
        # arrays then holds at least a column of its rows.
        if pool is not None and width > span > 1:
            ranges = min(_cpus(), -(-width // span), rows)
        height = -(-rows // ranges)  # the rows of the largest range
        # The gradient terms, each rounded as in beta * m + (1 - beta) * grad (* grad).
        m_terms = np.multiply(1.0 - BETA1, values)
        v_terms = np.multiply(1.0 - BETA2, values)
        v_terms *= values
        places = None
        if not isinstance(cols, slice):  # the gradient's flat places in a range's rows
            stride = max(1, m.shape[-1])
            places = np.add.outer(np.arange(0, height * inner * stride, stride), cols)
        jobs = [(theta, target, m, v, places, m_terms, v_terms, state.work, span, scalars)]
        if ranges > 1:
            # The ranges share the work arrays, each a part with chunks as wide as it holds.
            share = len(state.work[0]) // ranges
            chunk = share // (height * inner)
            bounds = [rows * r // ranges for r in range(ranges + 1)]
            jobs = [(theta[lo:hi], target[lo:hi], m[lo:hi], v[lo:hi],
                     None if places is None else places[:(hi - lo) * inner],
                     m_terms[lo:hi], v_terms[lo:hi],
                     tuple(w[r * share:(r + 1) * share] for w in state.work), chunk, scalars)
                    for r, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
        futures = [pool.submit(_update, *job) for job in jobs[1:]]
        try:
            _update(*jobs[0])
        finally:
            for future in futures:
                future.result()
    return out, state


def _update(theta, out, m, v, places, m_terms, v_terms, work, span, scalars) -> None:
    """One range of rows of a parameter's step; ``m`` and ``v`` are the
    state's rows, as wide as the state. The moments decay on ``theta``'s
    columns, in place, and take the gradient terms: over every column, or,
    with ``places``, at those flat places in ``m`` and ``v``. Elsewhere the
    dense form would add +0.0, which changes nothing: beta * m is never -0.0,
    since both moments start at +0.0, a sum is -0.0 only when both terms are,
    and the v term is never negative. Bias correction and the update then
    run ``span`` columns at a time in ``work``. Only ufuncs that write into
    existing arrays run here, so it allocates no array and may run beside
    the other ranges."""
    bias1, bias2, lr, weight_decay = scalars
    width = theta.shape[-1]
    m_live, v_live = m[..., :width], v[..., :width]
    m_live *= BETA1
    v_live *= BETA2
    if places is None:
        m_live += m_terms
        v_live += v_terms
    else:  # the places are unique, so each adds once, as m[..., cols] += term would
        places = places.reshape(-1)
        np.add.at(m.reshape(-1), places, m_terms.reshape(-1))
        np.add.at(v.reshape(-1), places, v_terms.reshape(-1))
    # Each element takes the same operations in the same order in any chunk,
    # so the update does not depend on the chunk size.
    lead = theta.shape[:-1]
    for lo in range(0, width, span):
        part = slice(lo, lo + span)
        shape = (*lead, min(span, width - lo))
        size = math.prod(shape)
        step, denom = work[0][:size].reshape(shape), work[1][:size].reshape(shape)
        np.divide(v_live[..., part], bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m_live[..., part], bias1, out=step)
        step /= denom
        # At weight_decay 0 the term would add a signed zero, which changes
        # no updated parameter, so it is skipped.
        if weight_decay != 0.0:
            step += np.multiply(weight_decay, theta[..., part], out=denom)
        step *= lr
        np.subtract(theta[..., part], step, out=out[..., part])
