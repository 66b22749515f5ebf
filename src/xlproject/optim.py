"""AdamW with decoupled weight decay, over named numpy parameter dicts."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamWState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    scratch: dict[str, np.ndarray] = field(default_factory=dict)  # work arrays, reused

    @classmethod
    def init(cls, params: dict[str, np.ndarray], **kwargs) -> AdamWState:
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            scratch={k: np.empty_like(p) for k, p in params.items()},
            **kwargs,
        )


def adamw_step(
    state: AdamWState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[dict[str, np.ndarray], AdamWState]:
    """One update: moment updates, bias correction, then
    theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta).

    Weight decay acts on the parameters directly, never through the moments.
    The state's moments are updated in place, and its scratch arrays reused;
    ``params`` is left as given and the updated parameters are new arrays.
    Raises on non-finite gradients so training aborts before corrupting state.
    """
    if set(params) != set(grads):
        raise ValueError(f"param/grad keys differ: {sorted(params)} vs {sorted(grads)}")
    for key, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise ValueError(f"non-finite gradient for {key!r}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    updated: dict[str, np.ndarray] = {}
    for key, theta in params.items():
        grad, m, v = grads[key], state.m[key], state.v[key]
        scratch = state.scratch[key]
        # The moments update in place, each term rounded as in
        # beta * m + (1 - beta) * grad (* grad).
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, grad, out=scratch)
        v *= state.beta2
        np.multiply(1.0 - state.beta2, grad, out=scratch)
        scratch *= grad
        v += scratch
        denom = np.divide(v, bias2, out=scratch)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step = np.divide(m, bias1)
        step /= denom
        # At weight_decay 0 the term would add a signed zero, which changes no
        # updated parameter, so it is skipped.
        if weight_decay != 0.0:
            step += np.multiply(weight_decay, theta, out=scratch)
        step *= lr
        updated[key] = np.subtract(theta, step, out=step)
    return updated, state
