import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlproject
from xlproject.features import FeatureBlock, FeatureVector, HashedNgramFeaturizer
from xlproject.model import (
    LinearModel,
    LoraAdapter,
    forward,
    loss_and_grads,
    numeric_attributions,
    numeric_from_logits,
    predict_binary,
    restrict,
    softmax,
)
from xlproject import optim
from xlproject.optim import AdamWState, adamw_step

import per_instance_oracle


def random_sparse(rng, dim, nnz=5):
    indices = np.sort(rng.choice(dim, size=min(nnz, dim), replace=False)).astype(np.int64)
    values = rng.normal(size=len(indices))
    return FeatureVector(indices=indices, values=values, dim=dim)


def dense_forward_oracle(model, adapter, x):
    """Dense matrix-product reference for the sparse forward path."""
    weight = model.W0.copy()
    if adapter is not None:
        weight = weight + (adapter.alpha / adapter.rank) * (adapter.B @ adapter.A)
    dense = np.zeros(x.dim)
    dense[x.indices] = x.values
    return weight @ dense + model.b


class TestFeaturizer:
    def test_deterministic(self):
        featurizer = HashedNgramFeaturizer(dim=1024)
        first = featurizer.token_features(["happy", "days"])
        second = featurizer.token_features(["happy", "days"])
        for a, b in zip(first, second):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.values, b.values)

    def test_token_mode_shape(self):
        featurizer = HashedNgramFeaturizer(dim=1024)
        assert len(featurizer.token_features(["one"])) == 1

    def test_context_window_limits_influence(self):
        featurizer = HashedNgramFeaturizer(dim=4096)
        a = featurizer.token_features(["t0", "t1", "t2", "t3", "t4", "zzz"])
        b = featurizer.token_features(["t0", "t1", "t2", "t3", "t4", "qqq"])
        # token 5 sits outside token 0's +/-2 window
        assert np.array_equal(a[0].indices, b[0].indices)
        assert np.array_equal(a[0].values, b[0].values)
        assert not np.array_equal(a[4].indices, b[4].indices) or not np.array_equal(
            a[4].values, b[4].values
        )

    def test_vectors_l2_normalized(self):
        featurizer = HashedNgramFeaturizer(dim=4096)
        for vec in featurizer.token_features(["some", "words", "here"]):
            assert math.isclose(float(vec.values @ vec.values), 1.0, rel_tol=1e-12)
        sent = featurizer.sentence_features(["some", "words", "here"])
        assert math.isclose(float(sent.values @ sent.values), 1.0, rel_tol=1e-12)


class TestForward:
    def test_zero_b_adapter_matches_base(self):
        rng = np.random.default_rng(0)
        model = LinearModel(W0=rng.normal(size=(2, 16)), b=rng.normal(size=2))
        adapter = LoraAdapter.init(2, 16, rank=4, rng=rng)
        x = random_sparse(rng, 16)
        assert np.allclose(forward(model, adapter, x), forward(model, None, x))

    def test_zero_input_gives_bias(self):
        model = LinearModel(W0=np.ones((3, 8)), b=np.array([1.0, 2.0, 3.0]))
        x = FeatureVector(indices=np.array([], dtype=np.int64), values=np.array([]), dim=8)
        assert np.allclose(forward(model, None, x), model.b)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            model = LinearModel(W0=rng.normal(size=(2, 8)), b=rng.normal(size=2))
            adapter = LoraAdapter(
                A=rng.normal(size=(2, 8)), B=rng.normal(size=(2, 2)), rank=2, alpha=16.0
            )
            x = random_sparse(rng, 8, nnz=4)
            got = forward(model, adapter, x)
            want = dense_forward_oracle(model, adapter, x)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_dimension_mismatch_rejected(self):
        model = LinearModel.zeros(2, 8)
        x = FeatureVector(indices=np.array([0], dtype=np.int64), values=np.array([1.0]), dim=16)
        with pytest.raises(ValueError, match="dim"):
            forward(model, None, x)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_logits_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999999

    def test_matches_extended_precision_oracle(self):
        from mpmath import mp, mpf

        mp.dps = 50
        logits = [1.0, 2.0, 3.0]
        exps = [mp.e ** mpf(v) for v in logits]
        total = sum(exps)
        want = np.array([float(e / total) for e in exps])
        got = softmax(np.array(logits))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            out = softmax(rng.normal(size=rng.integers(2, 10)) * 10)
            assert abs(out.sum() - 1.0) < 1e-12


def finite_difference_grads(model, adapter, batch, h=1e-5):
    """Central-difference oracle over every trainable coordinate."""

    def loss_only():
        return loss_and_grads(model, adapter, batch)[0]

    if adapter is not None:
        arrays = {"A": adapter.A, "B": adapter.B, "b": model.b}
    else:
        arrays = {"W0": model.W0, "b": model.b}
    grads = {}
    for key, arr in arrays.items():
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = arr[idx]
            arr[idx] = original + h
            up = loss_only()
            arr[idx] = original - h
            down = loss_only()
            arr[idx] = original
            grad[idx] = (up - down) / (2 * h)
            it.iternext()
        grads[key] = grad
    return grads


def relative_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return np.max(np.abs(a - b) / scale)


class TestLossAndGrads:
    def test_uniform_logits_loss_is_ln2(self):
        model = LinearModel.zeros(2, 8)
        rng = np.random.default_rng(0)
        batch = [(random_sparse(rng, 8), 0), (random_sparse(rng, 8), 1)]
        loss, _ = loss_and_grads(model, None, batch)
        assert math.isclose(loss, math.log(2), rel_tol=1e-12)

    def test_frozen_base_has_no_w0_gradient(self):
        rng = np.random.default_rng(1)
        model = LinearModel(W0=rng.normal(size=(2, 8)), b=np.zeros(2))
        adapter = LoraAdapter.init(2, 8, rank=2, rng=rng)
        _, grads = loss_and_grads(model, adapter, [(random_sparse(rng, 8), 1)])
        assert set(grads) == {"A", "B", "b"}

    @pytest.mark.parametrize("with_adapter", [False, True])
    def test_gradients_match_finite_differences(self, with_adapter):
        rng = np.random.default_rng(7)
        model = LinearModel(W0=rng.normal(size=(3, 10)) * 0.5, b=rng.normal(size=3) * 0.1)
        adapter = None
        if with_adapter:
            adapter = LoraAdapter(
                A=rng.normal(size=(2, 10)) * 0.3,
                B=rng.normal(size=(3, 2)) * 0.3,
                rank=2,
                alpha=16.0,
            )
        batch = [(random_sparse(rng, 10), int(rng.integers(3))) for _ in range(5)]
        _, analytic = loss_and_grads(model, adapter, batch)
        numeric = finite_difference_grads(model, adapter, batch)
        for key in analytic:
            assert relative_error(analytic[key], numeric[key]) < 1e-4


class TestLoraContracts:
    def test_merge_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c, f, r = int(rng.integers(2, 7)), int(rng.integers(4, 65)), int(rng.integers(1, 9))
            model = LinearModel(W0=rng.normal(size=(c, f)), b=rng.normal(size=c))
            adapter = LoraAdapter(
                A=rng.normal(size=(r, f)), B=rng.normal(size=(c, r)), rank=r, alpha=16.0
            )
            merged = LinearModel(W0=model.W0 + adapter.delta(), b=model.b)
            x = random_sparse(rng, f, nnz=min(6, f))
            assert np.max(np.abs(forward(model, adapter, x) - forward(merged, None, x))) < 1e-9

    def test_w0_frozen_across_adapter_steps(self):
        rng = np.random.default_rng(13)
        model = LinearModel(W0=rng.normal(size=(2, 12)), b=np.zeros(2))
        w0_before = model.W0.copy()
        adapter = LoraAdapter.init(2, 12, rank=2, rng=rng)
        params = {"A": adapter.A, "B": adapter.B, "b": model.b}
        state = AdamWState.init(params)
        for _ in range(100):
            batch = [(random_sparse(rng, 12), int(rng.integers(2))) for _ in range(4)]
            _, grads = loss_and_grads(model, adapter, batch)
            params, state = adamw_step(state, params, grads, lr=1e-2)
            adapter.A, adapter.B, model.b = params["A"], params["B"], params["b"]
        assert model.W0.tobytes() == w0_before.tobytes()


@pytest.fixture
def range_threads(monkeypatch):
    """The threads that run the ranges of AdamW's steps, in call order."""
    threads = []
    update = optim._update

    def recorded(*args):
        threads.append(threading.current_thread())
        update(*args)

    monkeypatch.setattr(optim, "_update", recorded)
    return threads


class TestAdamW:
    def test_null_step_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        before = {key: p.copy() for key, p in params.items()}
        state = AdamWState.init(params)
        updated, _ = adamw_step(state, params, {"w": np.zeros(2)}, lr=0.1, weight_decay=0.0)
        assert np.array_equal(updated["w"], params["w"])
        assert np.array_equal(updated["w"], before["w"])
        assert np.array_equal(params["w"], before["w"])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_to_out_of_place_oracle(self, weight_decay):
        rng = np.random.default_rng(17)
        params = {"W0": rng.normal(size=(3, 50)), "b": np.zeros(3)}
        params["W0"][0, :5] = 0.0
        state = AdamWState.init(params)
        want, oracle = params, ({k: np.zeros_like(p) for k, p in params.items()},) * 2 + (0,)
        for _ in range(20):
            grads = {"W0": np.zeros((3, 50)), "b": rng.normal(size=3)}
            cols = rng.choice(50, size=6, replace=False)
            grads["W0"][:, cols] = rng.normal(size=(3, 6))
            grads["W0"][1, cols[0]] = -0.0
            given, copies = params, {k: p.copy() for k, p in params.items()}
            moments = dict(state.m)
            params, state = adamw_step(state, params, grads, lr=2e-4, weight_decay=weight_decay)
            want, oracle = per_instance_oracle.adamw_step(oracle, want, grads, 2e-4, weight_decay)
            for key in params:
                assert params[key].tobytes() == want[key].tobytes()
                assert state.m[key].tobytes() == oracle[0][key].tobytes()
                assert state.v[key].tobytes() == oracle[1][key].tobytes()
                assert state.m[key] is moments[key]  # updated in place
                assert given[key].tobytes() == copies[key].tobytes()  # left as given

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_column_gradient_equals_the_dense_one(self, weight_decay):
        rng = np.random.default_rng(19)
        tiny = np.finfo(float).smallest_subnormal
        params = {"W0": rng.normal(size=(3, 40)), "b": rng.normal(size=3)}
        params["W0"][:, :4] = [[-0.0, 0.0, tiny, -tiny]] * 3
        sparse_state, dense_state = AdamWState.init(params), AdamWState.init(params)
        moments = {key: (sparse_state.m[key], sparse_state.v[key]) for key in params}
        sparse = dense = params
        for step in range(20):
            cols = rng.choice(40, size=7, replace=False)
            values = rng.normal(size=(3, 7))
            values[0, :4] = [-0.0, 0.0, tiny, -tiny]
            values[1, 0] = 1e-300 if step % 2 else -1e-300  # squares underflow to zero
            wide = np.zeros((3, 40))
            wide[:, cols] = values
            bias = rng.normal(size=3)
            sparse, sparse_state = adamw_step(
                sparse_state, sparse, {"W0": (cols, values), "b": bias}, 2e-4, weight_decay
            )
            dense, dense_state = adamw_step(
                dense_state, dense, {"W0": wide, "b": bias}, 2e-4, weight_decay
            )
            for key in params:
                assert sparse[key].tobytes() == dense[key].tobytes()
                assert sparse_state.m[key].tobytes() == dense_state.m[key].tobytes()
                assert sparse_state.v[key].tobytes() == dense_state.v[key].tobytes()
                assert (sparse_state.m[key], sparse_state.v[key]) == moments[key]  # in place
        assert sparse_state.step == dense_state.step == 20

    def test_narrower_param_steps_the_states_leading_columns(self):
        rng = np.random.default_rng(23)
        wide = AdamWState.init({"w": np.zeros((2, 30))})
        narrow = AdamWState.init({"w": np.zeros((2, 12))})
        params = rng.normal(size=(2, 12))
        want = params
        for _ in range(5):
            cols = rng.choice(12, size=4, replace=False)
            values = rng.normal(size=(2, 4))
            got, wide = adamw_step(wide, {"w": params}, {"w": (cols, values)}, lr=0.1,
                                   weight_decay=0.01)
            want, narrow = adamw_step(narrow, {"w": want}, {"w": (cols, values)}, lr=0.1,
                                      weight_decay=0.01)
            params = got["w"]
            assert params.tobytes() == want["w"].tobytes()
            want = want["w"]
        assert wide.m["w"][:, :12].tobytes() == narrow.m["w"].tobytes()
        assert wide.v["w"][:, :12].tobytes() == narrow.v["w"].tobytes()
        assert not wide.m["w"][:, 12:].any() and not wide.v["w"][:, 12:].any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_gradient_rejected(self, bad):
        params = {"w": np.ones((2, 5))}
        state = AdamWState.init(params)
        values = np.ones((2, 2))
        values[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite gradient for 'w'"):
            adamw_step(state, params, {"w": (np.array([0, 3]), values)}, lr=0.1)
        assert state.step == 0 and not state.m["w"].any()  # nothing was updated

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    @pytest.mark.parametrize("chunk", [4096, 30, 21], ids=["one-chunk", "chunks", "ragged"])
    def test_in_place_step_bit_identical_to_out_of_place_oracle(
        self, monkeypatch, chunk, sparse, weight_decay
    ):
        # W0 has 3 rows: chunks of 30 elements are 10 columns, of 21 elements 7,
        # so 50 columns end in a chunk of one.
        monkeypatch.setattr(optim, "_CHUNK_ELEMENTS", chunk)
        rng = np.random.default_rng(29)
        params = {"W0": np.zeros((3, 50)), "b": np.zeros(3)}
        params["W0"][:, :20] = rng.normal(size=(3, 20))
        state = AdamWState.init(params)
        work = state.work
        want = {key: p.copy() for key, p in params.items()}
        oracle = ({k: np.zeros_like(p) for k, p in params.items()},) * 2 + (0,)
        # The parameter is narrower than its state until the last steps.
        for width in (20, 20, 33, 33, 50, 50):
            views = {"W0": params["W0"][:, :width], "b": params["b"]}
            cols = np.sort(rng.choice(width, size=6, replace=False))
            values = rng.normal(size=(3, 6))
            dense = np.zeros((3, 50))
            dense[:, cols] = values
            grads = {"W0": (cols, values) if sparse else dense[:, :width], "b": rng.normal(size=3)}
            updated, _ = adamw_step(state, views, grads, 2e-4, weight_decay, out=views)
            assert updated is views
            want, oracle = per_instance_oracle.adamw_step(
                oracle, want, {**grads, "W0": dense}, 2e-4, weight_decay)
            for key in params:
                assert params[key].tobytes() == want[key].tobytes()
                assert state.m[key].tobytes() == oracle[0][key].tobytes()
                assert state.v[key].tobytes() == oracle[1][key].tobytes()
        assert state.work is work  # allocated once, by init

    @pytest.mark.parametrize("cpus", [2, 4])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_split_step_bit_identical_to_one_thread_and_oracle(
        self, monkeypatch, range_threads, sparse, weight_decay, cpus
    ):
        # W0 has 3 rows and chunks of 30 elements are 10 columns, so every width
        # below splits: into 1 + 2 rows on two CPUs, and into one row per range
        # on four when there are 3 chunks or more. 33 is odd, and a step with no
        # gradient columns leaves every range without any.
        monkeypatch.setattr(optim, "_CHUNK_ELEMENTS", 30)
        monkeypatch.setattr(optim, "_cpus", lambda: cpus)
        rng = np.random.default_rng(37)
        params = {"W0": np.zeros((3, 50)), "b": np.zeros(3)}
        params["W0"][:, :20] = rng.normal(size=(3, 20))
        serial = {key: p.copy() for key, p in params.items()}
        want = {key: p.copy() for key, p in params.items()}
        state, serial_state = AdamWState.init(params), AdamWState.init(params)
        work, sizes = state.work, [w.size for w in serial_state.work]
        oracle = ({k: np.zeros_like(p) for k, p in params.items()},) * 2 + (0,)
        with ThreadPoolExecutor(cpus - 1) as pool:
            # The parameter is narrower than its state until the last steps.
            for width, count in ((20, 6), (20, 0), (33, 5), (33, 33), (50, 7), (50, 0)):
                cols = rng.choice(width, size=count, replace=False)
                values = rng.normal(size=(3, count))
                dense = np.zeros((3, 50))
                dense[:, cols] = values
                grads = {"W0": (cols, values) if sparse else dense[:, :width],
                         "b": rng.normal(size=3)}
                for head, moments, kwargs in ((params, state, {"pool": pool}),
                                              (serial, serial_state, {})):
                    views = {"W0": head["W0"][:, :width], "b": head["b"]}
                    adamw_step(moments, views, grads, 2e-4, weight_decay, out=views, **kwargs)
                want, oracle = per_instance_oracle.adamw_step(
                    oracle, want, {**grads, "W0": dense}, 2e-4, weight_decay)
                for key in params:
                    assert params[key].tobytes() == serial[key].tobytes() == want[key].tobytes()
                    for name, got, one_thread, expected in (
                        ("m", state.m, serial_state.m, oracle[0]),
                        ("v", state.v, serial_state.v, oracle[1]),
                    ):
                        assert got[key].tobytes() == one_thread[key].tobytes(), name
                        assert got[key].tobytes() == expected[key].tobytes(), name
        assert any(thread is not threading.main_thread() for thread in range_threads)
        assert state.work is work and [w.size for w in work] == sizes  # shared, not grown

    def test_split_step_under_contention(self, monkeypatch):
        # Eight ranges on seven pool threads, more than the host's CPUs, with the
        # interpreter switching threads as often as it can: a lost or misplaced
        # update would differ from the one-thread step.
        monkeypatch.setattr(optim, "_CHUNK_ELEMENTS", 64)
        monkeypatch.setattr(optim, "_cpus", lambda: 8)
        rng = np.random.default_rng(41)
        params = {"W0": rng.normal(size=(8, 200))}
        serial = {"W0": params["W0"].copy()}
        state, serial_state = AdamWState.init(params), AdamWState.init(serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(7) as pool:
                for _ in range(30):
                    cols = rng.choice(200, size=40, replace=False)
                    grads = {"W0": (cols, rng.normal(size=(8, 40)))}
                    adamw_step(state, params, grads, 2e-4, 0.01, out=params, pool=pool)
                    adamw_step(serial_state, serial, grads, 2e-4, 0.01, out=serial)
        finally:
            sys.setswitchinterval(interval)
        assert params["W0"].tobytes() == serial["W0"].tobytes()
        assert state.m["W0"].tobytes() == serial_state.m["W0"].tobytes()
        assert state.v["W0"].tobytes() == serial_state.v["W0"].tobytes()

    def test_one_chunk_step_stays_on_the_calling_thread(self, monkeypatch, range_threads):
        monkeypatch.setattr(optim, "_cpus", lambda: 2)
        # 2 x 2^15 elements is one chunk: the north star's largest head.
        params = {"W0": np.zeros((2, 2**15)), "b": np.zeros(2)}
        state = AdamWState.init(params)
        grads = {"W0": (np.array([0, 7]), np.ones((2, 2))), "b": np.ones(2)}
        with ThreadPoolExecutor(1) as pool:
            adamw_step(state, params, grads, 2e-4, out=params, pool=pool)
        assert range_threads == [threading.main_thread()] * 2

    def test_in_place_step_allocates_less_than_a_parameter(self):
        # Counted by tracemalloc, which sees numpy's buffers; a column gradient, as in train.
        rng = np.random.default_rng(31)
        params = {"W0": rng.normal(size=(6, 50_000)), "b": rng.normal(size=6)}
        state = AdamWState.init(params)
        cols = np.sort(rng.choice(50_000, size=400, replace=False))
        grads = {"W0": (cols, rng.normal(size=(6, 400))), "b": rng.normal(size=6)}
        peaks = []
        tracemalloc.start()
        try:
            for out in (params, None):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                adamw_step(state, params, grads, 2e-4, 0.01, out=out)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        in_place, out_of_place = peaks
        assert in_place < params["W0"].nbytes <= out_of_place
        assert all(w.size < params["W0"].size for w in state.work)

    def test_hand_derived_first_step(self):
        # t=1: m_hat = 1, v_hat = 1 -> theta' = 1 - 0.1 / (1 + eps) ~ 0.9
        params = {"w": np.array([1.0])}
        state = AdamWState.init(params)
        updated, state = adamw_step(state, params, {"w": np.array([1.0])}, lr=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert abs(updated["w"][0] - expected) < 1e-12
        assert abs(updated["w"][0] - 0.9) < 1e-8

    def test_decay_only_step(self):
        params = {"w": np.array([1.0])}
        state = AdamWState.init(params)
        updated, _ = adamw_step(state, params, {"w": np.zeros(1)}, lr=0.1, weight_decay=0.01)
        assert abs(updated["w"][0] - 0.999) < 1e-12

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.array([1.0])}
        state = AdamWState.init(params)
        with pytest.raises(ValueError, match="non-finite"):
            adamw_step(state, params, {"w": np.array([np.nan])}, lr=0.1)

    def test_matches_reference_sequence(self):
        # one-parameter trajectory recomputed with explicit loop arithmetic
        params = {"w": np.array([0.5])}
        state = AdamWState.init(params)
        grads = [0.3, -0.2, 0.7, 0.1]
        m = v = 0.0
        theta = 0.5
        for t, g in enumerate(grads, start=1):
            params, state = adamw_step(state, params, {"w": np.array([g])}, lr=0.01, weight_decay=0.1)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            theta = theta - 0.01 * (m_hat / (math.sqrt(v_hat) + 1e-8) + 0.1 * theta)
            assert abs(params["w"][0] - theta) < 1e-14


class TestAggregationAndHeads:
    def test_predict_binary_argmax_and_ties(self):
        assert predict_binary([np.array([0.1, 2.0])]) == [1]
        assert predict_binary([np.array([1.0, 1.0])]) == [0]

    def test_predict_binary_matches_argmax_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 2))
        assert predict_binary(logits) == [int(np.argmax(row)) for row in logits]

    def test_numeric_uniform(self):
        logits = [np.array([0.0, 1.5])] * 4
        out = numeric_from_logits(logits)
        assert np.allclose(out.values, [0.25] * 4)

    def test_numeric_hand_case(self):
        logits = [np.array([0.0, 0.0]), np.array([9.0, math.log(3.0)])]
        out = numeric_from_logits(logits)
        assert np.allclose(out.values, [0.25, 0.75])

    def test_numeric_single_word(self):
        assert numeric_from_logits([np.array([0.3, -2.0])]).values == [1.0]

    def test_numeric_sums_to_one_and_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            logits = rng.normal(size=(int(rng.integers(1, 12)), 2)) * 5
            out = numeric_from_logits(logits)
            values = np.array(out.values)
            assert abs(values.sum() - 1.0) < 1e-12
            assert np.all(values > 0)
            assert int(np.argmax(values)) == int(np.argmax(logits[:, 1]))

    def test_grouped_numeric_bit_equal_to_per_sentence_softmax(self):
        # Lengths 1..300 cross numpy's 8- and 128-element summation blocks.
        rng = np.random.default_rng(11)
        lengths = list(range(1, 301)) + rng.integers(1, 301, size=300).tolist()
        logits = rng.normal(size=(sum(lengths), 2)) * rng.choice([1e-3, 1.0, 40.0], size=(1, 2))
        end = sum(lengths)
        logits[end - lengths[-1]:end, 1] = -rng.uniform(1, 800, size=lengths[-1])  # all negative
        got = numeric_attributions(logits, lengths)
        start = 0
        for length, values in zip(lengths, got):
            scores = logits[start:start + length, 1]  # one sentence, as a 1-D strided view
            start += length
            assert np.array_equal(values, softmax(scores).tolist())
            assert np.array_equal(values, numeric_from_logits(logits[start - length:start]).values)


def test_grouped_attributions_leave_numpy_ma_unimported():
    # Plain np.unique imports numpy.ma, which costs about 1.3 MB of memory.
    code = (
        "import sys, numpy as np\n"
        "from xlproject.metrics import normalize_each\n"
        "from xlproject.model import numeric_attributions\n"
        "numeric_attributions(np.zeros((6, 2)), [1, 2, 3])\n"
        "normalize_each([[1.0], [0.5, -1.0], [2.0, 0.0, 1.0]])\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(xlproject.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def random_head(rng, classes, dim, rank):
    model = LinearModel(W0=rng.normal(size=(classes, dim)) * 0.5, b=rng.normal(size=classes))
    if rank is None:
        return model, None
    return model, LoraAdapter(
        A=rng.normal(size=(rank, dim)) * 0.3, B=rng.normal(size=(classes, rank)) * 0.3,
        rank=rank, alpha=16.0,
    )


class TestBlockCore:
    """The whole-block path against the per-instance code it replaced."""

    @pytest.mark.parametrize("classes", [2, 6])
    @pytest.mark.parametrize("rank", [None, 1, 8], ids=["plain", "r1", "r8"])
    def test_loss_and_grads_match_per_instance_oracle(self, classes, rank):
        rng = np.random.default_rng(31 + classes)
        for _ in range(20):
            dim = int(rng.integers(2, 300))
            model, adapter = random_head(rng, classes, dim, rank)
            batch = [
                (random_sparse(rng, dim, nnz=int(rng.integers(0, 30))), int(rng.integers(classes)))
                for _ in range(int(rng.integers(1, 40)))
            ]
            loss, grads = loss_and_grads(model, adapter, batch)
            want_loss, want = per_instance_oracle.loss_and_grads(model, adapter, batch)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            assert set(grads) == set(want)
            for key in want:
                assert grads[key].shape == want[key].shape
                assert per_instance_oracle.relative_difference(grads[key], want[key]) <= 1e-12

    @pytest.mark.parametrize("rank", [None, 4], ids=["plain", "lora"])
    def test_forward_matches_per_instance_oracle(self, rank):
        rng = np.random.default_rng(37)
        model, adapter = random_head(rng, 6, 200, rank)
        vectors = [random_sparse(rng, 200, nnz=int(rng.integers(0, 40))) for _ in range(600)]
        block = FeatureBlock.stack(vectors, 200)
        want = np.array([per_instance_oracle.forward(model, adapter, x) for x in vectors])
        got = forward(model, adapter, block)
        assert per_instance_oracle.relative_difference(got, want) <= 1e-12
        for x, row in zip(vectors[:50], want):
            assert per_instance_oracle.relative_difference(forward(model, adapter, x), row) <= 1e-12

    @pytest.mark.parametrize("rank", [None, 4], ids=["plain", "lora"])
    def test_untouched_columns_change_no_logit(self, rank):
        rng = np.random.default_rng(53)
        model, adapter = random_head(rng, 6, 300, rank)
        vectors = [random_sparse(rng, 300, nnz=nnz) for nnz in (12, 0, 30, 5)]
        block = FeatureBlock.stack(vectors, 300)
        cols, compacted = block.compact()
        assert 0 < len(cols) < 300
        want = forward(*restrict(model, adapter, cols), compacted)
        assert np.array_equal(forward(model, adapter, block), want)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.sampled_from([None, 1, 3, 64]),
        classes=st.sampled_from([2, 6]),
        dim=st.sampled_from([2, 7, 64, 4096]),
        rows=st.integers(1, 600),
    )
    def test_row_logits_do_not_depend_on_the_batch(self, seed, rank, classes, dim, rows):
        rng = np.random.default_rng(seed)
        model, adapter = random_head(rng, classes, dim, rank)
        vectors = [random_sparse(rng, dim, nnz=int(rng.integers(0, 50))) for _ in range(rows)]
        whole = forward(model, adapter, FeatureBlock.stack(vectors, dim))
        subset = rng.permutation(rows)[: int(rng.integers(1, rows + 1))]
        part = forward(model, adapter, FeatureBlock.stack([vectors[i] for i in subset], dim))
        assert part.tobytes() == whole[subset].tobytes()
        for i in subset[:5]:
            assert forward(model, adapter, vectors[i]).tobytes() == whole[i].tobytes()
