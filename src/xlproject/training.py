"""Training loop, configuration, prediction helpers, and model checkpoints."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import EMOTION_ORDER, AnnotatedSentence, Corpus, EmotionLabel
from .features import DEFAULT_FEATURE_DIM, DEFAULT_SALT, FeatureVector, HashedNgramFeaturizer
from .metrics import corpus_token_f1, macro_f1
from .model import (
    LinearModel,
    LoraAdapter,
    forward,
    loss_and_grads,
    numeric_from_logits,
    predict_binary,
)
from .optim import AdamWState, adamw_step

ALLOWED_LEARNING_RATES = (2e-6, 2e-5, 5e-5, 2e-4)
TASKS = ("emotion", "trigger")
SCHEDULES = ("constant", "linear")
CHECKPOINT_VERSION = 1


class TrainConfigError(ValueError):
    pass


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
            raise TrainConfigError(
                f"learning rate {self.lr} not in allowed set {ALLOWED_LEARNING_RATES}"
            )
        if self.batch_size < 1:
            raise TrainConfigError("batch_size must be >= 1")
        max_epochs = 5 if self.lora is not None else 30
        if not 1 <= self.epochs <= max_epochs:
            raise TrainConfigError(
                f"epochs must be in [1, {max_epochs}]"
                f"{' with an adapter' if self.lora else ''}, got {self.epochs}"
            )
        if self.schedule not in SCHEDULES:
            raise TrainConfigError(f"schedule must be one of {SCHEDULES}")
        if self.lora is not None and self.lora.rank < 1:
            raise TrainConfigError("lora rank must be >= 1")
        if self.feature_dim < 2:
            raise TrainConfigError("feature_dim must be >= 2")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise TrainConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )


@dataclass
class TrainedModel:
    featurizer: HashedNgramFeaturizer
    model: LinearModel
    adapter: LoraAdapter | None
    task: str
    config: TrainConfig
    history: list[dict] = field(default_factory=list)

    def _word_logits(self, sentence: AnnotatedSentence) -> list[np.ndarray]:
        vectors = self.featurizer.token_features(sentence.tokens)
        return [forward(self.model, self.adapter, x) for x in vectors]

    def predict_emotion(self, sentence: AnnotatedSentence) -> EmotionLabel:
        x = self.featurizer.sentence_features(sentence.tokens)
        logits = forward(self.model, self.adapter, x)
        return EMOTION_ORDER[int(np.argmax(logits))]

    def predict_mask(self, sentence: AnnotatedSentence) -> list[int]:
        return predict_binary(self._word_logits(sentence))

    def predict_numeric(self, sentence: AnnotatedSentence) -> list[float]:
        return numeric_from_logits(self._word_logits(sentence)).values


class MissingLabelsError(ValueError):
    """A corpus given to :func:`train` has sentences without the task's labels."""

    def __init__(self, role: str, label: str, ids: list[str]):
        super().__init__(f"{role} corpus: {len(ids)} sentences missing {label}: {ids[:5]}")
        self.role = role


def _check_labels(corpus: Corpus, task: str, role: str) -> None:
    attr, label = (
        ("emotion", "emotion label") if task == "emotion" else ("trigger_mask", "trigger mask")
    )
    missing = [s.id for s in corpus.sentences if getattr(s, attr) is None]
    if missing:
        raise MissingLabelsError(role, label, missing)


def _emotion_instances(featurizer, corpus: Corpus):
    label_index = {label: i for i, label in enumerate(EMOTION_ORDER)}
    return [
        (featurizer.sentence_features(s.tokens), label_index[s.emotion])
        for s in corpus.sentences
    ]


def _trigger_instances(featurizer, corpus: Corpus):
    instances = []
    for sent in corpus.sentences:
        for x, label in zip(featurizer.token_features(sent.tokens), sent.trigger_mask):
            instances.append((x, label))
    return instances


def _compact(instances):
    """The sorted feature columns the instances touch, and the instances
    re-indexed onto ``0..K-1`` in that order."""
    cols = np.unique(np.concatenate([x.indices for x, _ in instances]))
    return cols, [
        (FeatureVector(np.searchsorted(cols, x.indices), x.values, len(cols)), label)
        for x, label in instances
    ]


def _validation_score(trained: TrainedModel, validation: Corpus) -> float:
    if trained.task == "emotion":
        gold = [s.emotion for s in validation.sentences]
        pred = [trained.predict_emotion(s) for s in validation.sentences]
        return macro_f1(gold, pred)
    pairs = [(s.trigger_mask, trained.predict_mask(s)) for s in validation.sentences]
    return corpus_token_f1(pairs)


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

    Only the feature columns some training instance touches are trained. Any
    other column has a zero gradient at every step, so its AdamW moments stay
    zero and its step is pure weight decay: zero base weights stay zero, and
    the untouched adapter columns are decayed with the dense step's exact
    arithmetic. The result equals dense AdamW bit for bit.
    """
    if task not in TASKS:
        raise TrainConfigError(f"task must be one of {TASKS}")
    config.validate()
    if not corpus.sentences:
        raise ValueError("training corpus is empty")
    _check_labels(corpus, task, "training")
    if validation is not None:
        _check_labels(validation, task, "validation")

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
    trained = TrainedModel(
        featurizer=featurizer, model=model, adapter=adapter, task=task, config=config
    )

    instances = (
        _emotion_instances(featurizer, corpus)
        if task == "emotion"
        else _trigger_instances(featurizer, corpus)
    )
    cols, instances = _compact(instances)
    # The head trained over the touched columns only; B and b stay whole.
    head = LinearModel(W0=model.W0[:, cols], b=model.b)
    head_adapter = None
    rest = None  # untouched adapter columns, kept only while weight decay moves them
    if adapter is not None:
        head_adapter = LoraAdapter(
            A=adapter.A[:, cols], B=adapter.B, rank=adapter.rank, alpha=adapter.alpha
        )
        if config.weight_decay > 0.0:
            untouched = np.ones(config.feature_dim, dtype=bool)
            untouched[cols] = False
            rest = adapter.A[:, untouched]

    def current_params():
        if head_adapter is not None:
            return {"A": head_adapter.A, "B": head_adapter.B, "b": head.b}
        return {"W0": head.W0, "b": head.b}

    def apply_params(params):
        head.b = params["b"]
        if head_adapter is not None:
            head_adapter.A = params["A"]
            head_adapter.B = params["B"]
        else:
            head.W0 = params["W0"]

    def scatter():
        """Write the trained columns back into the full-width model."""
        model.b = head.b
        if adapter is None:
            model.W0[:, cols] = head.W0
            return
        adapter.A[:, cols] = head_adapter.A
        adapter.B = head_adapter.B
        if rest is not None:
            adapter.A[:, untouched] = rest

    state = AdamWState.init(current_params())
    steps_per_epoch = (len(instances) + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    best_score = -1.0
    best_params: dict[str, np.ndarray] | None = None
    best_rest = None
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(instances))
        epoch_loss = 0.0
        for start in range(0, len(instances), config.batch_size):
            batch = [instances[i] for i in order[start:start + config.batch_size]]
            loss, grads = loss_and_grads(head, head_adapter, batch)
            epoch_loss += loss * len(batch)
            lr = config.lr
            if config.schedule == "linear":
                lr = config.lr * (1.0 - step / total_steps)
            params, state = adamw_step(state, current_params(), grads, lr, config.weight_decay)
            apply_params(params)
            if rest is not None:
                # The dense step of a zero-gradient column, term for term.
                rest -= lr * (0.0 + config.weight_decay * rest)
            step += 1
        record = {"epoch": epoch, "train_loss": epoch_loss / len(instances)}
        if validation is not None:
            scatter()
            score = _validation_score(trained, validation)
            record["validation_score"] = score
            if score > best_score:
                best_score = score
                best_params = {k: p.copy() for k, p in current_params().items()}
                best_rest = None if rest is None else rest.copy()
        trained.history.append(record)

    if best_params is not None:
        apply_params(best_params)
        rest = best_rest
    scatter()
    return trained


def save_model(trained: TrainedModel, path: str | Path) -> None:
    """Checkpoint to .npz: weight arrays plus a JSON metadata blob (see README)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": CHECKPOINT_VERSION,
        "task": trained.task,
        "classes": (
            [label.value for label in EMOTION_ORDER] if trained.task == "emotion" else [0, 1]
        ),
        "feature": {
            "dim": trained.featurizer.dim,
            "ngram_min": trained.featurizer.ngram_min,
            "ngram_max": trained.featurizer.ngram_max,
            "window": trained.featurizer.window,
            "salt": trained.featurizer.salt,
        },
        "lora": (
            {"rank": trained.adapter.rank, "alpha": trained.adapter.alpha}
            if trained.adapter is not None
            else None
        ),
        "config": asdict(trained.config),
        "history": trained.history,
    }
    arrays = {"W0": trained.model.W0, "b": trained.model.b}
    if trained.adapter is not None:
        arrays["A"] = trained.adapter.A
        arrays["B"] = trained.adapter.B
    meta_bytes = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as handle:  # keeps the exact filename, no .npz appended
        np.savez(handle, meta=meta_bytes, **arrays)


def load_model(path: str | Path) -> TrainedModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')!r}")
        model = LinearModel(W0=data["W0"], b=data["b"])
        adapter = None
        if meta["lora"] is not None:
            adapter = LoraAdapter(
                A=data["A"],
                B=data["B"],
                rank=meta["lora"]["rank"],
                alpha=meta["lora"]["alpha"],
            )
    feature = meta["feature"]
    featurizer = HashedNgramFeaturizer(
        dim=feature["dim"],
        ngram_min=feature["ngram_min"],
        ngram_max=feature["ngram_max"],
        window=feature["window"],
        salt=feature["salt"],
    )
    cfg = dict(meta["config"])
    lora_cfg = cfg.pop("lora", None)
    config = TrainConfig(
        lora=LoraConfig(**lora_cfg) if lora_cfg is not None else None, **cfg
    )
    return TrainedModel(
        featurizer=featurizer,
        model=model,
        adapter=adapter,
        task=meta["task"],
        config=config,
        history=list(meta.get("history", [])),
    )
