"""AdamW with decoupled weight decay, over named numpy parameter dicts."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    scratch: dict[str, np.ndarray] = field(default_factory=dict)  # work arrays, reused

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> AdamWState:
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            scratch={k: np.empty_like(p) for k, p in params.items()},
        )


def adamw_step(
    state: AdamWState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray | tuple[np.ndarray, np.ndarray]],
    lr: float,
    weight_decay: float = 0.0,
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
    The state's moments are updated in place, and its scratch arrays reused;
    ``params`` is left as given and the updated parameters are new arrays.
    Raises on non-finite gradients so training aborts before corrupting state.
    """
    if set(params) != set(grads):
        raise ValueError(f"param/grad keys differ: {sorted(params)} vs {sorted(grads)}")
    columns = {}  # key -> (cols, values); a dense gradient covers every column
    for key, grad in grads.items():
        cols, values = grad if isinstance(grad, tuple) else (slice(None), grad)
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite gradient for {key!r}")
        columns[key] = cols, values
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    updated: dict[str, np.ndarray] = {}
    for key, theta in params.items():
        cols, values = columns[key]
        width = theta.shape[-1]
        m, v, scratch = (arrays[key][..., :width] for arrays in (state.m, state.v, state.scratch))
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
        denom = np.divide(v, bias2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += EPS
        step = np.divide(m, bias1)
        step /= denom
        # At weight_decay 0 the term would add a signed zero, which changes no
        # updated parameter, so it is skipped.
        if weight_decay != 0.0:
            step += np.multiply(weight_decay, theta, out=scratch)
        step *= lr
        updated[key] = np.subtract(theta, step, out=step)
    return updated, state
