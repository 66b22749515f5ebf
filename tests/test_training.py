import dataclasses

import numpy as np
import pytest

from xlproject.corpus import AnnotatedSentence, Corpus, DatasetTag
from xlproject.features import HashedNgramFeaturizer
from xlproject.metrics import corpus_token_f1, macro_f1
from xlproject.model import LinearModel, LoraAdapter, loss_and_grads
from xlproject.optim import AdamWState, adamw_step
from xlproject.synthetic import synthetic_corpus
from xlproject.training import (
    EMOTION_ORDER,
    LoraConfig,
    MissingLabelsError,
    TrainConfig,
    TrainConfigError,
    TrainedModel,
    load_model,
    save_model,
    train,
)


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


def dense_reference_train(corpus, task, config, validation):
    """The dense training loop: every AdamW step updates all feature columns,
    and every epoch re-featurizes the validation corpus sentence by sentence."""
    featurizer = HashedNgramFeaturizer(dim=config.feature_dim, salt=config.feature_salt)
    num_classes = len(EMOTION_ORDER) if task == "emotion" else 2
    rng = np.random.default_rng(config.seed)
    model = LinearModel.zeros(num_classes, config.feature_dim)
    adapter = None
    if config.lora is not None:
        adapter = LoraAdapter.init(
            num_classes, config.feature_dim, rank=config.lora.rank,
            alpha=config.lora.alpha, rng=rng,
        )
    instances = reference_instances(featurizer, task, corpus)

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
        featurizer=featurizer, model=model, adapter=adapter, task=task, config=config
    )
    total_steps = (len(instances) + config.batch_size - 1) // config.batch_size * config.epochs
    best_score, best_params, step = -1.0, None, 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(instances))
        epoch_loss = 0.0
        for start in range(0, len(instances), config.batch_size):
            batch = [instances[i] for i in order[start:start + config.batch_size]]
            loss, grads = loss_and_grads(model, adapter, batch)
            epoch_loss += loss * len(batch)
            lr = config.lr
            if config.schedule == "linear":
                lr = config.lr * (1.0 - step / total_steps)
            params, state = adamw_step(state, current_params(), grads, lr, config.weight_decay)
            apply_params(params)
            step += 1
        record = {"epoch": epoch, "train_loss": epoch_loss / len(instances)}
        score = reference_validation_score(trained, validation)
        record["validation_score"] = score
        if score > best_score:
            best_score = score
            best_params = {k: p.copy() for k, p in current_params().items()}
        trained.history.append(record)
    apply_params(best_params)
    return trained


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
        expected = dense_reference_train(corpus, task, config, validation)
        got = train(corpus, task, config, validation=validation)
        assert np.array_equal(got.model.W0, expected.model.W0)
        assert np.array_equal(got.model.b, expected.model.b)
        if lora is not None:
            assert np.array_equal(got.adapter.A, expected.adapter.A)
            assert np.array_equal(got.adapter.B, expected.adapter.B)
        assert got.history == expected.history

    def test_untouched_adapter_columns_keep_initial_values(self):
        corpus = synthetic_corpus(10, seed=23)
        config = small_config(lora=LoraConfig(rank=3, alpha=8.0))
        trained = train(corpus, "trigger", config)
        featurizer = HashedNgramFeaturizer(dim=config.feature_dim)
        touched = np.zeros(config.feature_dim, dtype=bool)
        for x, _ in reference_instances(featurizer, "trigger", corpus):
            touched[x.indices] = True
        initial = LoraAdapter.init(
            2, config.feature_dim, rank=3, alpha=8.0, rng=np.random.default_rng(config.seed)
        )
        assert 0 < touched.sum() < config.feature_dim
        assert np.array_equal(trained.adapter.A[:, ~touched], initial.A[:, ~touched])
        assert not np.array_equal(trained.adapter.A[:, touched], initial.A[:, touched])


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
