"""Training loop, configuration, prediction helpers, and model checkpoints."""
from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import EMOTION_ORDER, AnnotatedSentence, Corpus, EmotionLabel
from .errors import ConfigError, DataError, MissingLabelsError, TrainConfigError  # noqa: F401
from .features import DEFAULT_FEATURE_DIM, DEFAULT_SALT, FeatureBlock, HashedNgramFeaturizer
from .metrics import corpus_token_f1, macro_f1
from .model import (
    LinearModel,
    LoraAdapter,
    forward,
    loss_and_grads,
    numeric_attributions,
    predict_binary,
    restrict,
)
from .optim import AdamWState, adamw_step, helper_pool

ALLOWED_LEARNING_RATES = (2e-6, 2e-5, 5e-5, 2e-4)
TASKS = ("emotion", "trigger")
SCHEDULES = ("constant", "linear")
CHECKPOINT_VERSION = 2
# Bounds on the config: A is (rank x K). No array is as wide as the feature
# dim; its bound is the dim at which the memory tests check train and predict.
MAX_LORA_RANK = 1024
MAX_FEATURE_DIM = 2**24
# The most epochs a run may train: a plain head, and a head with an adapter.
MAX_EPOCHS = 30
MAX_ADAPTER_EPOCHS = 5


@dataclass
class LoraConfig:
    rank: int = 64
    alpha: float = 16.0


@dataclass
class TrainConfig:
    lr: float = 2e-4
    batch_size: int = 16
    epochs: int = 10
    lora: LoraConfig | None = None
    seed: int = 0
    schedule: str = "constant"
    weight_decay: float = 0.0
    feature_dim: int = DEFAULT_FEATURE_DIM
    feature_salt: str = DEFAULT_SALT

    def validate(self) -> None:
        if self.lr not in ALLOWED_LEARNING_RATES:
            raise ConfigError(
                f"learning rate {self.lr} not in allowed set {ALLOWED_LEARNING_RATES}"
            )
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        max_epochs = MAX_EPOCHS if self.lora is None else MAX_ADAPTER_EPOCHS
        if not 1 <= self.epochs <= max_epochs:
            raise ConfigError(
                f"epochs must be in [1, {max_epochs}]"
                f"{' with an adapter' if self.lora else ''}, got {self.epochs}"
            )
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}")
        if self.lora is not None and not 1 <= self.lora.rank <= MAX_LORA_RANK:
            raise ConfigError(
                f"lora rank must be from 1 to {MAX_LORA_RANK}, got {self.lora.rank}"
            )
        if self.lora is not None and not (math.isfinite(self.lora.alpha) and self.lora.alpha > 0):
            raise ConfigError(f"lora alpha must be finite and > 0, got {self.lora.alpha}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 2 <= self.feature_dim <= MAX_FEATURE_DIM:
            raise ConfigError(f"feature_dim must be from 2 to 2**24, got {self.feature_dim}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )


@dataclass
class TrainedModel:
    """A trained head over the feature columns ``cols`` (sorted) only:
    ``model.W0`` and ``adapter.A`` have one column per entry of ``cols``. Any
    other feature column has zero weight."""

    featurizer: HashedNgramFeaturizer
    model: LinearModel
    adapter: LoraAdapter | None
    task: str
    config: TrainConfig
    cols: np.ndarray
    history: list[dict] = field(default_factory=list)

    def predict_emotion(self, sentence: AnnotatedSentence) -> EmotionLabel:
        return EmotionLabel(self.predict(Corpus(sentences=[sentence]))[0]["emotion"])

    def predict_mask(self, sentence: AnnotatedSentence) -> list[int]:
        return self.predict(Corpus(sentences=[sentence]))[0]["mask"]

    def predict_numeric(self, sentence: AnnotatedSentence) -> list[float]:
        return self.predict(Corpus(sentences=[sentence]))[0]["numeric"]

    def predict(self, corpus: Corpus) -> list[dict]:
        """Prediction records of every sentence, from one featurization of the
        corpus and one set of logits."""
        block = _featurize(self.featurizer, self.task, corpus, self.cols)
        logits = forward(self.model, self.adapter, block)
        if self.task == "emotion":
            return [
                {"id": s.id, "emotion": EMOTION_ORDER[label].value}
                for s, label in zip(corpus.sentences, predict_binary(logits))
            ]
        masks = _per_sentence(predict_binary(logits), corpus)
        numeric = numeric_attributions(logits, [len(s.tokens) for s in corpus.sentences])
        return [
            {"id": s.id, "mask": mask, "numeric": values}
            for s, mask, values in zip(corpus.sentences, masks, numeric)
        ]


def _check_labels(corpus: Corpus, task: str, role: str) -> None:
    attr, label = (
        ("emotion", "emotion label") if task == "emotion" else ("trigger_mask", "trigger mask")
    )
    missing = [s.id for s in corpus.sentences if getattr(s, attr) is None]
    if missing:
        raise MissingLabelsError(role, label, missing)


def num_classes(task: str) -> int:
    """The classes of a task's head: the emotions, or trigger and not."""
    return len(EMOTION_ORDER) if task == "emotion" else 2


def _featurize(
    featurizer: HashedNgramFeaturizer, task: str, corpus: Corpus, cols: np.ndarray | None = None
) -> FeatureBlock:
    """One row per sentence for emotion, one per token for triggers; over the
    feature columns ``cols`` only, when given."""
    return featurizer.featurize(
        [s.tokens for s in corpus.sentences], pooled=task == "emotion", cols=cols
    )


def _labels(task: str, corpus: Corpus) -> list[int]:
    """The class of every row of the corpus's feature block."""
    if task == "emotion":
        label_index = {label: i for i, label in enumerate(EMOTION_ORDER)}
        return [label_index[s.emotion] for s in corpus.sentences]
    return [label for s in corpus.sentences for label in s.trigger_mask]


def _per_sentence(token_rows, corpus: Corpus) -> list:
    """Per-token rows (a list or an array) grouped by the sentence they belong to."""
    groups, start = [], 0
    for sentence in corpus.sentences:
        groups.append(token_rows[start:start + len(sentence.tokens)])
        start += len(sentence.tokens)
    return groups


def _validation_score(task: str, validation: Corpus, logits: np.ndarray) -> float:
    predicted = predict_binary(logits)
    if task == "emotion":
        gold = [s.emotion for s in validation.sentences]
        return macro_f1(gold, [EMOTION_ORDER[label] for label in predicted])
    masks = _per_sentence(predicted, validation)
    return corpus_token_f1([(s.trigger_mask, mask) for s, mask in zip(validation.sentences, masks)])


def train(
    corpus: Corpus,
    task: str,
    config: TrainConfig,
    validation: Corpus | None = None,
) -> TrainedModel:
    """Train a head for one task; deterministic for a fixed seed.

    With a validation corpus the returned parameters are the best epoch's
    (ties go to the earlier epoch); otherwise the final epoch's. With an
    adapter configured the zero base weights stay frozen and only A, B, and
    the bias train.

    The model covers only the feature columns some training instance
    touches. It equals a dense model whose other columns are zero: they have
    a zero gradient at every step, so AdamW, weight decay included, keeps
    them at zero.
    """
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}")
    config.validate()
    if not corpus.sentences:
        raise ValueError("training corpus is empty")
    _check_labels(corpus, task, "training")
    if validation is not None:
        _check_labels(validation, task, "validation")

    featurizer = HashedNgramFeaturizer(dim=config.feature_dim, salt=config.feature_salt)
    classes = num_classes(task)
    rng = np.random.default_rng(config.seed)

    # Both corpora are featurized once, up front, onto the touched columns.
    cols, block = featurizer.featurize_compact(
        [s.tokens for s in corpus.sentences], pooled=task == "emotion"
    )
    labels = np.array(_labels(task, corpus))
    if validation is not None:
        validation_block = _featurize(featurizer, task, validation, cols)
    adapter = None if config.lora is None else LoraAdapter.init(
        classes, len(cols), rank=config.lora.rank, alpha=config.lora.alpha, rng=rng
    )
    # The head's own arrays, ``params``, are the training state, updated in
    # place. W0 or A (the ``wide`` one) keeps column k of ``cols`` at place
    # ``slot[k]``; its first ``live`` places are filled so far. The plain head
    # places a column when a batch first touches it: until then its weight
    # and moments are zero, a fixed point of AdamW, weight decay included, so
    # each step runs on the live places only. The adapter's A starts random,
    # so it places every column up front, in order.
    model = LinearModel.zeros(classes, len(cols))
    if adapter is None:
        slot, live = np.full(len(cols), -1, dtype=np.int64), 0
        params, wide = {"W0": model.W0, "b": model.b}, "W0"
    else:
        slot, live = np.arange(len(cols)), len(cols)
        params, wide = {"A": adapter.A, "B": adapter.B, "b": model.b}, "A"
    trained = TrainedModel(featurizer=featurizer, model=model, adapter=adapter, task=task,
                           config=config, cols=cols)
    state = AdamWState.init(params)
    steps_per_epoch = (len(labels) + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    best_score = -1.0
    best_params: dict[str, np.ndarray] | None = None
    step = 0
    # AdamW splits a step of several chunks over the CPUs; the pool's threads
    # end with the block, also when training raises.
    with helper_pool() as pool:
        for epoch in range(config.epochs):
            order = rng.permutation(len(labels))
            epoch_loss = 0.0
            for start in range(0, len(labels), config.batch_size):
                rows = order[start:start + config.batch_size]
                batch_cols, batch = block.take(rows).compact()
                fresh = batch_cols[slot[batch_cols] < 0]
                if len(fresh):  # first touches, plain head only: new zero columns
                    slot[fresh] = np.arange(live, live + len(fresh))
                    live += len(fresh)
                # The batch keeps its column order, so its sums are the same at any places.
                places = slot[batch_cols]
                loss, grads = loss_and_grads(*restrict(model, adapter, places), batch, labels[rows])
                grads[wide] = (places, grads[wide])
                epoch_loss += loss * len(rows)
                lr = config.lr
                if config.schedule == "linear":
                    lr = config.lr * (1.0 - step / total_steps)
                views = {**params, wide: params[wide][:, :live]}
                adamw_step(state, views, grads, lr, config.weight_decay, out=views, pool=pool)
                step += 1
            record = {"epoch": epoch, "train_loss": epoch_loss / len(labels)}
            if validation is not None:
                # Every column is live after an epoch; each row keeps its entry order.
                placed = FeatureBlock(validation_block.indptr, slot[validation_block.indices],
                                      validation_block.values, len(cols))
                score = _validation_score(task, validation, forward(model, adapter, placed))
                record["validation_score"] = score
                if score > best_score:
                    best_score = score
                    # After the last epoch the best parameters are the head's own.
                    last = epoch == config.epochs - 1
                    best_params = None if last else {k: p.copy() for k, p in params.items()}
            trained.history.append(record)

    if best_params is not None:
        for key, value in best_params.items():
            params[key][...] = value
    del state, best_params  # freed before the gather below allocates another W0
    model.W0 = np.take(model.W0, slot, axis=1)  # back to the order of cols
    return trained


def save_model(trained: TrainedModel, path: str | Path) -> None:
    """Checkpoint to .npz: weight arrays plus a JSON metadata blob (see README)."""
    adapter = trained.adapter
    meta = {
        "version": CHECKPOINT_VERSION,
        "task": trained.task,
        "classes": (
            [label.value for label in EMOTION_ORDER] if trained.task == "emotion" else [0, 1]
        ),
        "feature": asdict(trained.featurizer),
        "lora": None if adapter is None else {"rank": adapter.rank, "alpha": adapter.alpha},
        "config": asdict(trained.config),
        "history": trained.history,
    }
    arrays = {"cols": trained.cols, "W0": trained.model.W0, "b": trained.model.b}
    if adapter is not None:
        arrays.update(A=adapter.A, B=adapter.B)
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as handle:  # keeps the exact filename, no .npz appended
        np.savez(handle, meta=meta_bytes, **arrays)


# The featurizer settings that train leaves at their defaults: the only values
# a checkpoint may hold. Other values would featurize differently from training.
_FIXED_FEATURES = {key: value for key, value in asdict(HashedNgramFeaturizer()).items()
                   if key not in ("dim", "salt")}


def _open_checkpoint(path: str | Path) -> np.lib.npyio.NpzFile:
    try:
        data = np.load(path)
    except OSError as exc:
        raise DataError(f"{path}: cannot read the checkpoint: {exc.strerror or exc}") from None
    except (EOFError, ValueError, zipfile.BadZipFile):  # numpy's guess at a format failed
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataError(f"{path}: not a checkpoint: not an .npz archive")
    return data


def load_model(path: str | Path) -> TrainedModel:
    """Load a checkpoint; raises ``DataError`` naming the file when it is
    missing or is not a checkpoint, when an array cannot be read or does not
    hold finite floats, or when the metadata is malformed, disagrees with the
    arrays (prediction relies on their shapes) or holds a task, featurizer or
    adapter setting that ``train`` does not write. A version-1 checkpoint has
    no ``cols`` and covers every feature column."""
    with _open_checkpoint(path) as data:

        def read(name: str) -> np.ndarray:
            if name not in data.files:
                raise DataError(f"{path}: array {name} is missing")
            try:
                return data[name]
            except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
                raise DataError(f"{path}: cannot read array {name}: {exc}") from None

        if "meta" not in data.files:
            raise DataError(f"{path}: not a checkpoint: no meta entry")
        try:
            meta = json.loads(bytes(read("meta")).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: checkpoint metadata is not JSON: {exc}") from None
        try:
            if meta.get("version") not in (1, CHECKPOINT_VERSION):
                raise DataError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
            task, classes, feature, lora = (meta["task"], len(meta["classes"]), meta["feature"],
                                            meta["lora"])
            if task not in TASKS or classes != num_classes(task):
                raise DataError(f"{path}: the metadata's task {task!r} with {classes} classes "
                                "is not one train writes")
            dim = feature["dim"]
            if type(dim) is not int or not 2 <= dim <= MAX_FEATURE_DIM:
                raise DataError(f"{path}: the metadata's feature dim {dim!r} is not in 2..2**24")
            if not (feature.keys() == {"dim", "salt", *_FIXED_FEATURES}
                    and isinstance(feature["salt"], str)
                    and all(type(feature[k]) is int and feature[k] == value
                            for k, value in _FIXED_FEATURES.items())):
                raise DataError(f"{path}: the metadata's featurizer settings {feature!r} are not "
                                f"a dim, a string salt and {_FIXED_FEATURES}, as train writes")
            if lora is not None and not (
                    lora.keys() == {"rank", "alpha"} and type(lora["rank"]) is int
                    and 1 <= lora["rank"] <= MAX_LORA_RANK and type(lora["alpha"]) in (int, float)
                    and math.isfinite(lora["alpha"]) and lora["alpha"] > 0):
                raise DataError(f"{path}: the metadata's adapter settings {lora!r} are not a rank "
                                f"from 1 to {MAX_LORA_RANK} and a finite alpha > 0")
            cols = read("cols") if meta["version"] > 1 else np.arange(dim)
            if not (cols.ndim == 1 and cols.dtype.kind in "iu" and np.all(cols[1:] > cols[:-1])
                    and np.all((cols >= 0) & (cols < dim))):
                raise DataError(f"{path}: array cols is not strictly increasing feature columns "
                                f"below the metadata's feature dim {dim}")
            expected = {"W0": (classes, len(cols)), "b": (classes,)}
            if lora is not None:
                expected.update(A=(lora["rank"], len(cols)), B=(classes, lora["rank"]))
            arrays = {name: read(name) for name in expected}
            for name, shape in expected.items():
                if arrays[name].shape != shape:
                    raise DataError(f"{path}: array {name} has shape {arrays[name].shape}, "
                                    f"but the metadata implies {shape}")
                if arrays[name].dtype.kind != "f" or not np.isfinite(arrays[name]).all():
                    raise DataError(f"{path}: array {name} does not hold finite floats")
            cfg = dict(meta["config"])
            lora_cfg = cfg.pop("lora", None)
            return TrainedModel(
                featurizer=HashedNgramFeaturizer(**feature),
                model=LinearModel(W0=arrays["W0"], b=arrays["b"]),
                adapter=None if lora is None else LoraAdapter(A=arrays["A"], B=arrays["B"], **lora),
                task=task, cols=cols, history=list(meta.get("history", [])),
                config=TrainConfig(lora=None if lora_cfg is None else LoraConfig(**lora_cfg), **cfg),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise DataError(f"{path}: malformed checkpoint metadata: {exc!r}") from None
