"""The per-instance numeric core the block path replaced, kept as a test oracle.

``forward`` and ``loss_and_grads`` work one ``FeatureVector`` at a time with
BLAS products and dense gradient arrays; ``adamw_step`` builds every array
anew. The block path sums in another order, so it is compared with these to
a relative tolerance (AdamW, whose arithmetic is unchanged, bit for bit).
"""
import numpy as np


def softmax(logits):
    logits = np.asarray(logits, dtype=np.float64)
    exp = np.exp(logits - logits.max())
    return exp / exp.sum()


def forward(model, adapter, x):
    logits = model.W0[:, x.indices] @ x.values + model.b
    if adapter is not None:
        u = adapter.A[:, x.indices] @ x.values
        logits = logits + adapter.scaling * (adapter.B @ u)
    return logits


def loss_and_grads(model, adapter, batch):
    n = len(batch)
    grads = {"b": np.zeros_like(model.b)}
    if adapter is not None:
        grads["A"] = np.zeros_like(adapter.A)
        grads["B"] = np.zeros_like(adapter.B)
    else:
        grads["W0"] = np.zeros_like(model.W0)
    total = 0.0
    for x, label in batch:
        probs = softmax(forward(model, adapter, x))
        total -= float(np.log(probs[label]))
        dlogits = probs.copy()
        dlogits[label] -= 1.0
        grads["b"] += dlogits
        if adapter is not None:
            u = adapter.A[:, x.indices] @ x.values
            grads["B"] += adapter.scaling * np.outer(dlogits, u)
            grads["A"][:, x.indices] += adapter.scaling * np.outer(
                adapter.B.T @ dlogits, x.values
            )
        else:
            grads["W0"][:, x.indices] += np.outer(dlogits, x.values)
    for key in grads:
        grads[key] /= n
    return total / n, grads


def adamw_step(state, params, grads, lr, weight_decay=0.0):
    """Moments as (m, v) dicts in ``state``, replaced, not updated in place."""
    m, v, t = state
    t += 1
    bias1, bias2 = 1.0 - 0.9**t, 1.0 - 0.999**t
    updated, new_m, new_v = {}, {}, {}
    for key, theta in params.items():
        grad = grads[key]
        new_m[key] = 0.9 * m[key] + (1.0 - 0.9) * grad
        new_v[key] = 0.999 * v[key] + (1.0 - 0.999) * grad * grad
        m_hat = new_m[key] / bias1
        v_hat = new_v[key] / bias2
        updated[key] = theta - lr * (m_hat / (np.sqrt(v_hat) + 1e-8) + weight_decay * theta)
    return updated, (new_m, new_v, t)


def relative_difference(got, want):
    """Largest absolute difference over the largest magnitude of ``want``."""
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0)) / scale
