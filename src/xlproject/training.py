"""Training loop, configuration, prediction helpers, and model checkpoints."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import EMOTION_ORDER, AnnotatedSentence, Corpus, EmotionLabel
from .features import DEFAULT_FEATURE_DIM, DEFAULT_SALT, FeatureBlock, HashedNgramFeaturizer
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

    def _logits(self, cols: np.ndarray, block: FeatureBlock) -> list[np.ndarray]:
        """Logits of every row of a compacted block, by ``forward`` on the
        model sliced to the block's columns ``cols``."""
        head = LinearModel(W0=self.model.W0[:, cols], b=self.model.b)
        adapter = None
        if self.adapter is not None:
            adapter = LoraAdapter(
                A=self.adapter.A[:, cols], B=self.adapter.B,
                rank=self.adapter.rank, alpha=self.adapter.alpha,
            )
        return [forward(head, adapter, block.row(r)) for r in range(len(block))]

    def predict(self, corpus: Corpus) -> list[dict]:
        """Prediction records of every sentence, from one featurization of the
        corpus; the same values as the per-sentence ``predict_*`` methods."""
        logits = self._logits(*_featurize(self.featurizer, self.task, corpus).compact())
        if self.task == "emotion":
            return [
                {"id": s.id, "emotion": EMOTION_ORDER[int(np.argmax(row))].value}
                for s, row in zip(corpus.sentences, logits)
            ]
        return [
            {"id": s.id, "mask": predict_binary(rows), "numeric": numeric_from_logits(rows).values}
            for s, rows in zip(corpus.sentences, _per_sentence(logits, corpus))
        ]


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


def _featurize(featurizer: HashedNgramFeaturizer, task: str, corpus: Corpus) -> FeatureBlock:
    """One row per sentence for emotion, one per token for triggers."""
    return featurizer.featurize([s.tokens for s in corpus.sentences], pooled=task == "emotion")


def _labels(task: str, corpus: Corpus) -> list[int]:
    """The class of every row of the corpus's feature block."""
    if task == "emotion":
        label_index = {label: i for i, label in enumerate(EMOTION_ORDER)}
        return [label_index[s.emotion] for s in corpus.sentences]
    return [label for s in corpus.sentences for label in s.trigger_mask]


def _per_sentence(token_logits: list[np.ndarray], corpus: Corpus) -> list[list[np.ndarray]]:
    """Token-row logits grouped by the sentence they belong to."""
    groups, start = [], 0
    for sentence in corpus.sentences:
        groups.append(token_logits[start:start + len(sentence.tokens)])
        start += len(sentence.tokens)
    return groups


def _validation_score(task: str, validation: Corpus, logits: list[np.ndarray]) -> float:
    if task == "emotion":
        gold = [s.emotion for s in validation.sentences]
        return macro_f1(gold, [EMOTION_ORDER[int(np.argmax(row))] for row in logits])
    pairs = [
        (s.trigger_mask, predict_binary(rows))
        for s, rows in zip(validation.sentences, _per_sentence(logits, validation))
    ]
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

    # Both corpora are featurized once, up front.
    cols, block = _featurize(featurizer, task, corpus).compact()
    labels = _labels(task, corpus)
    validation_rows = None  # (columns, compacted block), like the training set's
    if validation is not None:
        validation_rows = _featurize(featurizer, task, validation).compact()
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
    steps_per_epoch = (len(labels) + config.batch_size - 1) // config.batch_size
    total_steps = steps_per_epoch * config.epochs
    best_score = -1.0
    best_params: dict[str, np.ndarray] | None = None
    best_rest = None
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(labels))
        epoch_loss = 0.0
        for start in range(0, len(labels), config.batch_size):
            batch = [(block.row(i), labels[i]) for i in order[start:start + config.batch_size]]
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
        record = {"epoch": epoch, "train_loss": epoch_loss / len(labels)}
        if validation is not None:
            scatter()
            score = _validation_score(task, validation, trained._logits(*validation_rows))
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
    """Load a checkpoint; raises ``ValueError`` naming the file when its arrays
    disagree with its metadata (prediction relies on these shapes)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta.get('version')!r}")
        classes, dim = len(meta["classes"]), meta["feature"]["dim"]
        expected = {"W0": (classes, dim), "b": (classes,)}
        if meta["lora"] is not None:
            rank = meta["lora"]["rank"]
            expected.update(A=(rank, dim), B=(classes, rank))
        arrays = {}
        for name, shape in expected.items():
            if name not in data.files:
                raise ValueError(f"{path}: array {name} is missing")
            arrays[name] = data[name]
            if arrays[name].shape != shape:
                raise ValueError(
                    f"{path}: array {name} has shape {arrays[name].shape}, "
                    f"but the metadata implies {shape}"
                )
    model = LinearModel(W0=arrays["W0"], b=arrays["b"])
    adapter = None
    if meta["lora"] is not None:
        adapter = LoraAdapter(
            A=arrays["A"], B=arrays["B"], rank=meta["lora"]["rank"], alpha=meta["lora"]["alpha"]
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
