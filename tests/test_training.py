import contextlib
import dataclasses
import json
import threading
import tracemalloc

import numpy as np
import pytest

from xlproject import cli, optim, training
from xlproject.corpus import AnnotatedSentence, Corpus, DatasetTag, save_corpus
from xlproject.features import HashedNgramFeaturizer
from xlproject.metrics import corpus_token_f1, macro_f1
from xlproject.model import LinearModel, LoraAdapter, forward, loss_and_grads
from xlproject.optim import AdamWState, adamw_step
from xlproject.synthetic import synthetic_corpus
from xlproject.training import (
    EMOTION_ORDER,
    MAX_FEATURE_DIM,
    LoraConfig,
    MissingLabelsError,
    TrainConfig,
    TrainConfigError,
    TrainedModel,
    load_model,
    save_model,
    train,
)

import per_instance_oracle


def small_config(**overrides):
    defaults = dict(lr=2e-4, batch_size=16, epochs=2, seed=0, feature_dim=2**12)
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainConfig:
    def test_lr_outside_allowed_set_rejected(self):
        with pytest.raises(TrainConfigError, match="learning rate"):
            small_config(lr=1e-3).validate()

    def test_epochs_capped_at_30(self):
        with pytest.raises(TrainConfigError, match="epochs"):
            small_config(epochs=31).validate()

    def test_epochs_capped_at_5_with_adapter(self):
        with pytest.raises(TrainConfigError, match="epochs"):
            small_config(epochs=6, lora=LoraConfig()).validate()
        small_config(epochs=5, lora=LoraConfig()).validate()

    def test_unknown_schedule_rejected(self):
        with pytest.raises(TrainConfigError, match="schedule"):
            small_config(schedule="cosine").validate()

    @pytest.mark.parametrize("decay", [-0.01, float("nan"), float("inf")])
    def test_bad_weight_decay_rejected(self, decay):
        with pytest.raises(TrainConfigError, match="weight_decay"):
            small_config(weight_decay=decay).validate()

    @pytest.mark.parametrize("alpha", [-1.0, float("inf")])
    def test_bad_lora_alpha_rejected(self, alpha):
        with pytest.raises(TrainConfigError, match="lora alpha"):
            small_config(lora=LoraConfig(rank=2, alpha=alpha)).validate()

    def test_default_lora_hyperparameters(self):
        lora = LoraConfig()
        assert lora.rank == 64
        assert lora.alpha == 16.0


class TestTrain:
    def test_determinism_bit_identical(self):
        corpus = synthetic_corpus(40, seed=3)
        first = train(corpus, "trigger", small_config())
        second = train(corpus, "trigger", small_config())
        assert first.model.W0.tobytes() == second.model.W0.tobytes()
        assert first.model.b.tobytes() == second.model.b.tobytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(Corpus(), "trigger", small_config())

    def test_missing_labels_rejected(self):
        sent = AnnotatedSentence(
            id="x", tokens=["a"], language="en", origin=DatasetTag.D_S, emotion=None,
            trigger_mask=[0],
        )
        with pytest.raises(ValueError, match="emotion"):
            train(Corpus(sentences=[sent]), "emotion", small_config())

    @pytest.mark.parametrize("task, field", [("emotion", "emotion"), ("trigger", "trigger_mask")])
    def test_unlabelled_validation_rejected_up_front(self, task, field):
        corpus = synthetic_corpus(10, seed=3)
        validation = synthetic_corpus(6, seed=4, id_prefix="v")
        for i in (1, 4):
            validation.sentences[i] = dataclasses.replace(validation.sentences[i], **{field: None})
        with pytest.raises(MissingLabelsError, match=r"validation corpus: 2 sentences") as info:
            train(corpus, task, small_config(), validation=validation)
        assert info.value.role == "validation"
        assert repr(validation.sentences[1].id) in str(info.value)

    def test_history_reports_validation_scores(self):
        corpus = synthetic_corpus(40, seed=3)
        validation = synthetic_corpus(20, seed=4, id_prefix="v")
        trained = train(corpus, "trigger", small_config(epochs=3), validation=validation)
        assert len(trained.history) == 3
        assert all("validation_score" in record for record in trained.history)

    def test_best_epoch_selected(self):
        corpus = synthetic_corpus(60, seed=5)
        validation = synthetic_corpus(30, seed=6, id_prefix="v")
        trained = train(corpus, "trigger", small_config(epochs=4), validation=validation)
        best = max(record["validation_score"] for record in trained.history)
        pairs = [(s.trigger_mask, trained.predict_mask(s)) for s in validation.sentences]
        assert corpus_token_f1(pairs) == pytest.approx(best)

    def test_adapter_training_freezes_base(self):
        corpus = synthetic_corpus(30, seed=7)
        config = small_config(epochs=2, lora=LoraConfig(rank=4, alpha=16.0))
        trained = train(corpus, "trigger", config)
        assert trained.adapter is not None
        assert np.all(trained.model.W0 == 0.0)  # zero-initialized and never touched
        assert np.any(trained.adapter.B != 0.0)  # adapter actually trained

    def test_linear_schedule_runs(self):
        corpus = synthetic_corpus(30, seed=8)
        trained = train(corpus, "trigger", small_config(schedule="linear"))
        assert trained.history

    def test_synthetic_trigger_task_learnable(self):
        corpus = synthetic_corpus(200, seed=1)
        heldout = synthetic_corpus(80, seed=2, id_prefix="h")
        trained = train(corpus, "trigger", small_config(epochs=8, feature_dim=2**14))
        pairs = [(s.trigger_mask, trained.predict_mask(s)) for s in heldout.sentences]
        assert corpus_token_f1(pairs) >= 0.95


def reference_instances(featurizer, task, corpus):
    """(features, label) per training row, featurized sentence by sentence."""
    if task == "emotion":
        label_index = {label: i for i, label in enumerate(EMOTION_ORDER)}
        return [
            (featurizer.sentence_features(s.tokens), label_index[s.emotion])
            for s in corpus.sentences
        ]
    return [
        (x, label)
        for s in corpus.sentences
        for x, label in zip(featurizer.token_features(s.tokens), s.trigger_mask)
    ]


def reference_validation_score(trained, validation):
    """Validation score from the per-sentence predict methods."""
    if trained.task == "emotion":
        gold = [s.emotion for s in validation.sentences]
        return macro_f1(gold, [trained.predict_emotion(s) for s in validation.sentences])
    pairs = [(s.trigger_mask, trained.predict_mask(s)) for s in validation.sentences]
    return corpus_token_f1(pairs)


def oracle_validation_score(trained, validation):
    """Validation score from per-instance oracle logits of every row."""
    instances = reference_instances(trained.featurizer, trained.task, validation)
    predicted = [
        int(np.argmax(per_instance_oracle.forward(trained.model, trained.adapter, x)))
        for x, _ in instances
    ]
    if trained.task == "emotion":
        gold = [s.emotion for s in validation.sentences]
        return macro_f1(gold, [EMOTION_ORDER[label] for label in predicted])
    pairs, start = [], 0
    for s in validation.sentences:
        pairs.append((s.trigger_mask, predicted[start:start + len(s.tokens)]))
        start += len(s.tokens)
    return corpus_token_f1(pairs)


def dense_reference_train(corpus, task, config, validation, oracle=False):
    """The dense training loop: every AdamW step updates all feature columns,
    and every epoch re-featurizes the validation corpus sentence by sentence.
    The adapter's A is drawn for the columns the training set touches and
    zero in every other column. With ``oracle``, gradients and validation
    logits come from the per-instance code the block path replaced."""
    step_grads = per_instance_oracle.loss_and_grads if oracle else loss_and_grads
    score_validation = oracle_validation_score if oracle else reference_validation_score
    featurizer = HashedNgramFeaturizer(dim=config.feature_dim, salt=config.feature_salt)
    num_classes = len(EMOTION_ORDER) if task == "emotion" else 2
    rng = np.random.default_rng(config.seed)
    instances = reference_instances(featurizer, task, corpus)
    touched = np.unique(np.concatenate([x.indices for x, _ in instances]))
    model = LinearModel.zeros(num_classes, config.feature_dim)
    adapter = None
    if config.lora is not None:
        drawn = LoraAdapter.init(
            num_classes, len(touched), rank=config.lora.rank, alpha=config.lora.alpha, rng=rng,
        )
        adapter = dataclasses.replace(
            drawn, A=widen(drawn.A, touched, config.feature_dim)
        )

    def current_params():
        if adapter is not None:
            return {"A": adapter.A, "B": adapter.B, "b": model.b}
        return {"W0": model.W0, "b": model.b}

    def apply_params(params):
        model.b = params["b"]
        if adapter is not None:
            adapter.A = params["A"]
            adapter.B = params["B"]
        else:
            model.W0 = params["W0"]

    state = AdamWState.init(current_params())
    trained = TrainedModel(
        featurizer=featurizer, model=model, adapter=adapter, task=task, config=config,
        cols=np.arange(config.feature_dim),
    )
    total_steps = (len(instances) + config.batch_size - 1) // config.batch_size * config.epochs
    best_score, best_params, step = -1.0, None, 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(instances))
        epoch_loss = 0.0
        for start in range(0, len(instances), config.batch_size):
            batch = [instances[i] for i in order[start:start + config.batch_size]]
            loss, grads = step_grads(model, adapter, batch)
            epoch_loss += loss * len(batch)
            lr = config.lr
            if config.schedule == "linear":
                lr = config.lr * (1.0 - step / total_steps)
            params, state = adamw_step(state, current_params(), grads, lr, config.weight_decay)
            apply_params(params)
            step += 1
        record = {"epoch": epoch, "train_loss": epoch_loss / len(instances)}
        score = score_validation(trained, validation)
        record["validation_score"] = score
        if score > best_score:
            best_score = score
            best_params = {k: p.copy() for k, p in current_params().items()}
        trained.history.append(record)
    apply_params(best_params)
    return trained, touched


def widen(array, cols, dim):
    """An array over the columns ``cols`` placed into an otherwise zero one
    over all ``dim`` columns."""
    full = np.zeros((len(array), dim))
    full[:, cols] = array
    return full


def full_width_arrays(trained, dim):
    """``W0``, ``b`` and, with an adapter, ``A`` and ``B`` over every feature column."""
    arrays = [widen(trained.model.W0, trained.cols, dim), trained.model.b]
    if trained.adapter is not None:
        arrays += [widen(trained.adapter.A, trained.cols, dim), trained.adapter.B]
    return arrays


class TestTouchedColumnTraining:
    @pytest.mark.parametrize("task", ["emotion", "trigger"])
    @pytest.mark.parametrize("lora", [None, LoraConfig(rank=3, alpha=8.0)], ids=["plain", "lora"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("schedule", ["constant", "linear"])
    def test_equals_dense_training(self, task, lora, weight_decay, schedule):
        corpus = synthetic_corpus(24, seed=21)
        validation = synthetic_corpus(12, seed=22, id_prefix="v")
        config = small_config(
            epochs=3, batch_size=8, lora=lora, weight_decay=weight_decay, schedule=schedule,
            feature_dim=2**11,
        )
        expected, touched = dense_reference_train(corpus, task, config, validation)
        got = train(corpus, task, config, validation=validation)
        assert np.array_equal(got.cols, touched)
        dim = config.feature_dim
        for value, want in zip(full_width_arrays(got, dim), full_width_arrays(expected, dim),
                               strict=True):
            assert np.array_equal(value, want)
        assert got.history == expected.history

    @pytest.mark.parametrize("task", ["emotion", "trigger"])
    @pytest.mark.parametrize("lora", [None, LoraConfig(rank=3, alpha=8.0)], ids=["plain", "lora"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_agrees_with_per_instance_oracle(self, task, lora, weight_decay):
        corpus = synthetic_corpus(40, seed=24)
        validation = synthetic_corpus(12, seed=25, id_prefix="v")
        config = small_config(
            epochs=3, batch_size=8, lora=lora, weight_decay=weight_decay, feature_dim=2**11,
        )
        expected, touched = dense_reference_train(corpus, task, config, validation, oracle=True)
        got = train(corpus, task, config, validation=validation)
        assert np.array_equal(got.cols, touched)
        dim = config.feature_dim
        for value, want in zip(full_width_arrays(got, dim), full_width_arrays(expected, dim),
                               strict=True):
            assert per_instance_oracle.relative_difference(value, want) <= 1e-12
        for record, want in zip(got.history, expected.history, strict=True):
            assert record["validation_score"] == want["validation_score"]
            assert abs(record["train_loss"] - want["train_loss"]) <= 1e-12 * want["train_loss"]

    @pytest.mark.parametrize("task, seed", [("emotion", 51), ("trigger", 33)])
    def test_best_epoch_zero_restored_in_column_order(self, task, seed):
        # The plain head stores W0 in first-touch order; here the restored best
        # parameters are epoch 0's, not the last step's, and are put back in
        # the order of cols after training.
        corpus = synthetic_corpus(24, seed=seed)
        validation = synthetic_corpus(12, seed=seed + 100, id_prefix="v")
        config = small_config(epochs=3, batch_size=8, weight_decay=0.01, feature_dim=2**11)
        expected, touched = dense_reference_train(corpus, task, config, validation)
        got = train(corpus, task, config, validation=validation)
        scores = [record["validation_score"] for record in got.history]
        assert scores[0] > max(scores[1:])
        assert got.history == expected.history
        assert np.array_equal(got.cols, touched)
        dim = config.feature_dim
        for value, want in zip(full_width_arrays(got, dim), full_width_arrays(expected, dim),
                               strict=True):
            assert value.tobytes() == want.tobytes()
        last = train(corpus, task, config)  # no validation: the last epoch's parameters
        assert not np.array_equal(last.model.W0, got.model.W0)

    @pytest.mark.parametrize("task, lora, seed, epochs, best", [
        ("emotion", None, 2, 3, 2),
        ("emotion", LoraConfig(rank=3, alpha=8.0), 0, 3, 2),
        ("trigger", None, 0, 1, 0),
        ("trigger", None, 1, 3, 1),
        ("emotion", LoraConfig(rank=3, alpha=8.0), 4, 3, 0),
        ("emotion", None, 1, 3, 0),  # the last epoch ties the first, which wins
    ], ids=["last", "last-lora", "only", "middle", "first-lora", "first-tied-by-last"])
    def test_best_epoch_restored(self, task, lora, seed, epochs, best):
        # The head is snapshotted at a best epoch before the last one, and
        # restored from it when no later epoch beats it.
        corpus = synthetic_corpus(24, seed=21 + seed)
        validation = synthetic_corpus(12, seed=40 + seed, id_prefix="v")
        config = small_config(epochs=epochs, batch_size=8, seed=seed, lora=lora,
                              feature_dim=2**11)
        expected, _ = dense_reference_train(corpus, task, config, validation)
        got = train(corpus, task, config, validation=validation)
        scores = [record["validation_score"] for record in got.history]
        assert scores.index(max(scores)) == best
        assert got.history == expected.history
        dim = config.feature_dim
        for value, want in zip(full_width_arrays(got, dim), full_width_arrays(expected, dim),
                               strict=True):
            assert value.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lora", [None, LoraConfig(rank=3, alpha=8.0)], ids=["plain", "lora"])
    def test_input_touching_no_trained_column_gives_bias_logits(self, lora):
        trained = train(synthetic_corpus(10, seed=23), "trigger", small_config(lora=lora))
        featurizer = trained.featurizer
        # The first made-up word none of whose features the training set touched.
        word = next(
            w for w in (f"qz{i}" for i in range(1000))
            if not np.isin(featurizer.featurize([[w]]).indices, trained.cols).any()
        )
        sentence = AnnotatedSentence(
            id="q", tokens=[word], language="en", origin=DatasetTag.D_S, trigger_mask=[0]
        )
        block = featurizer.featurize([[word]], cols=trained.cols)
        assert len(block.indices) == 0
        logits = forward(trained.model, trained.adapter, block)
        assert np.array_equal(logits, trained.model.b[None, :])
        assert trained.predict_mask(sentence) == [int(np.argmax(trained.model.b))]


@pytest.fixture
def split_steps(monkeypatch):
    """Makes AdamW split every head of more than 64 elements over two CPUs,
    whatever the host; returns the threads that ran a range of a step."""
    monkeypatch.setattr(optim, "_CHUNK_ELEMENTS", 64)
    monkeypatch.setattr(optim, "_cpus", lambda: 2)
    threads = []
    update = optim._update

    def recorded(*args):
        threads.append(threading.current_thread())
        update(*args)

    monkeypatch.setattr(optim, "_update", recorded)
    return threads


def helper_ran(threads) -> bool:
    return any(thread is not threading.main_thread() for thread in threads)


class TestSplitSteps:
    @pytest.mark.parametrize("task", ["emotion", "trigger"])
    @pytest.mark.parametrize("lora", [None, LoraConfig(rank=3, alpha=8.0)], ids=["plain", "lora"])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_equals_one_thread_and_dense_training(self, split_steps, task, lora, weight_decay):
        corpus = synthetic_corpus(24, seed=21)
        validation = synthetic_corpus(12, seed=22, id_prefix="v")
        config = small_config(epochs=2, batch_size=8, lora=lora, weight_decay=weight_decay,
                              feature_dim=2**11)
        got = train(corpus, task, config, validation=validation)
        assert helper_ran(split_steps)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "helper_pool", lambda: contextlib.nullcontext(None))
            one_thread = train(corpus, task, config, validation=validation)
        expected, _ = dense_reference_train(corpus, task, config, validation)
        dim = config.feature_dim
        for value, serial, want in zip(full_width_arrays(got, dim),
                                       full_width_arrays(one_thread, dim),
                                       full_width_arrays(expected, dim), strict=True):
            assert value.tobytes() == serial.tobytes() == want.tobytes()
        assert got.history == one_thread.history == expected.history

    def test_no_thread_outlives_train(self, split_steps):
        before = set(threading.enumerate())
        train(synthetic_corpus(24, seed=21), "emotion", small_config(),
              validation=synthetic_corpus(12, seed=22, id_prefix="v"))
        assert helper_ran(split_steps)
        assert set(threading.enumerate()) == before

    def test_no_thread_outlives_a_train_command_that_fails(self, split_steps, monkeypatch,
                                                           tmp_path, capsys):
        # The gradients turn non-finite at the third step, after the helper has run.
        calls = []

        def non_finite_later(*args):
            loss, grads = loss_and_grads(*args)
            calls.append(None)
            if len(calls) < 3:
                return loss, grads
            return loss, {key: np.full_like(grad, np.nan) for key, grad in grads.items()}

        monkeypatch.setattr(training, "loss_and_grads", non_finite_later)
        save_corpus(synthetic_corpus(48, seed=21), tmp_path / "d_s.jsonl")
        before = set(threading.enumerate())
        code = cli.main(["train", "--input", str(tmp_path / "d_s.jsonl"), "--task", "emotion",
                         "--epochs", "1", "--batch-size", "8", "--feature-dim", "2048",
                         "--output", str(tmp_path / "model.npz")])
        assert code == cli.EXIT_INTERNAL
        assert "non-finite gradient for" in capsys.readouterr().err
        assert len(calls) == 3 and helper_ran(split_steps)
        assert set(threading.enumerate()) == before


class TestMemoryDoesNotFollowTheFeatureDim:
    @pytest.mark.parametrize("task", ["emotion", "trigger"])
    def test_train_and_predict_peaks_at_the_largest_dim(self, task):
        # Counted by tracemalloc, which sees numpy's buffers. At 2^24 columns a
        # table over every hashed column would take 128 MB (int64); placing
        # each word's columns by binary search needs no scratch of that width.
        corpus = synthetic_corpus(48, seed=3)
        validation = synthetic_corpus(12, seed=4, id_prefix="v")
        config = small_config(epochs=1, feature_dim=MAX_FEATURE_DIM)
        tracemalloc.start()
        try:
            trained = train(corpus, task, config, validation=validation)
            train_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            trained.predict(corpus)
            predict_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert train_peak <= 12_000_000
        assert predict_peak <= 12_000_000


class TestCheckpoints:
    def test_round_trip_plain(self, tmp_path):
        corpus = synthetic_corpus(30, seed=9)
        trained = train(corpus, "emotion", small_config())
        path = tmp_path / "model.npz"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.task == "emotion"
        assert loaded.model.W0.tobytes() == trained.model.W0.tobytes()
        assert loaded.model.b.tobytes() == trained.model.b.tobytes()
        assert loaded.model.W0.flags.writeable and loaded.model.b.flags.writeable
        assert loaded.adapter is None
        assert loaded.config == trained.config
        assert loaded.featurizer == trained.featurizer

    def test_round_trip_with_adapter(self, tmp_path):
        corpus = synthetic_corpus(30, seed=10)
        config = small_config(epochs=2, lora=LoraConfig(rank=4, alpha=8.0))
        trained = train(corpus, "trigger", config)
        path = tmp_path / "model.npz"
        save_model(trained, path)
        loaded = load_model(path)
        assert loaded.adapter is not None
        assert loaded.adapter.rank == 4
        assert loaded.adapter.alpha == 8.0
        assert loaded.adapter.A.tobytes() == trained.adapter.A.tobytes()
        assert loaded.adapter.B.tobytes() == trained.adapter.B.tobytes()

    def test_missing_array_rejected_naming_the_file(self, tmp_path):
        config = small_config(epochs=1, lora=LoraConfig(rank=2, alpha=8.0))
        trained = train(synthetic_corpus(10, seed=10), "trigger", config)
        path = tmp_path / "model.npz"
        save_model(trained, path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files if name != "B"}
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="array B is missing") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("lora", [None, LoraConfig(rank=3, alpha=8.0)], ids=["plain", "lora"])
    def test_version_1_checkpoint_loads_over_every_column(self, tmp_path, lora):
        trained = train(synthetic_corpus(30, seed=13), "trigger", small_config(lora=lora))
        heldout = synthetic_corpus(10, seed=14, id_prefix="h")
        dim = trained.featurizer.dim
        path = tmp_path / "model.npz"
        save_model(trained, path)
        # Version 1 stored full-width W0 and A and no cols.
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files if name != "cols"}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["version"] = 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        arrays["W0"] = widen(arrays["W0"], trained.cols, dim)
        if lora is not None:
            arrays["A"] = widen(arrays["A"], trained.cols, dim)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        loaded = load_model(path)
        assert np.array_equal(loaded.cols, np.arange(dim))
        for value, want in zip(full_width_arrays(loaded, dim), full_width_arrays(trained, dim),
                               strict=True):
            assert np.array_equal(value, want)
        got, expected = loaded.predict(heldout), trained.predict(heldout)
        for record, want in zip(got, expected, strict=True):
            assert record["mask"] == want["mask"]
            assert np.allclose(record["numeric"], want["numeric"], rtol=1e-12, atol=0.0)

    def test_predictions_survive_round_trip(self, tmp_path):
        corpus = synthetic_corpus(30, seed=11)
        heldout = synthetic_corpus(10, seed=12, id_prefix="h")
        trained = train(corpus, "trigger", small_config())
        path = tmp_path / "model.npz"
        save_model(trained, path)
        loaded = load_model(path)
        for sentence in heldout.sentences:
            assert loaded.predict_mask(sentence) == trained.predict_mask(sentence)
            assert loaded.predict_numeric(sentence) == trained.predict_numeric(sentence)
