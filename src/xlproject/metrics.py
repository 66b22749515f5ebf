"""The shared task's three evaluation metrics plus confusion matrices.

Edge-case conventions (the official scorer leaves them undefined): an
instance whose gold and predicted masks are both all-zero scores token F1 of
1.0, one-sided all-zero scores 0.0; instances with no gold trigger are
excluded from the accumulated-importance mean and counted in the report;
all-negative attribution vectors normalize to uniform.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import eq

import numpy as np

from .corpus import EMOTION_ORDER, EmotionLabel


@dataclass
class Attributions:
    """Per-word importance values; non-negative and summing to 1 once normalized."""

    values: list[float]


def rows_by_length(flat: np.ndarray, lengths: list[int], rows_fn) -> list[list[float]]:
    """``rows_fn`` of the sentences whose values follow one another in ``flat``, run on
    the (n, L) array of each length L: numpy sums its rows as it sums a 1-D array."""
    sizes = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    out: list = [None] * len(lengths)
    # Not np.unique: without return_* flags it imports numpy.ma (about 1.3 MB).
    for length in set(lengths):
        which = np.flatnonzero(sizes == length)
        rows = rows_fn(flat[starts[which, None] + np.arange(length)])
        for i, values in zip(which.tolist(), rows.tolist()):
            out[i] = values
    return out


def _clamp_and_rescale(rows: np.ndarray) -> np.ndarray:
    clamped = np.clip(rows, 0.0, None)
    totals = clamped.sum(axis=-1)
    clamped[totals > 0.0] /= totals[totals > 0.0, None]
    clamped[~(totals > 0.0)] = 1.0 / rows.shape[1]
    return clamped


def normalize_each(raws: list[list[float]]) -> list[Attributions]:
    """:func:`normalize_attributions` of every list."""
    lengths = [len(raw) for raw in raws]
    if 0 in lengths:
        raise ValueError("attribution list must be non-empty")
    flat = np.fromiter(chain.from_iterable(raws), dtype=np.float64, count=sum(lengths))
    if not np.all(np.isfinite(flat)):
        raise ValueError("attributions must be finite")
    return [Attributions(values) for values in rows_by_length(flat, lengths, _clamp_and_rescale)]


def normalize_attributions(raw: list[float]) -> Attributions:
    """Clamp negatives to zero and rescale to sum 1 (uniform if everything clamps)."""
    return normalize_each([raw])[0]


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 0.0
    return precision, recall, f1


def macro_f1(gold: list[EmotionLabel], pred: list[EmotionLabel]) -> float:
    """Unweighted mean of per-class F1.

    Classes with zero gold and zero predicted instances are left out of the
    mean so that small evaluation slices stay scoreable; full six-class runs
    are unaffected.
    """
    matrix = confusion_matrix(gold, pred)
    if not gold:
        raise ValueError("inputs must be non-empty")
    return _macro_f1(matrix.class_counts())


def _macro_f1(class_counts: dict[EmotionLabel, tuple[int, int, int]]) -> float:
    scores = [_prf(*counts)[2] for counts in class_counts.values() if sum(counts) > 0]
    return float(np.mean(scores)) if scores else 0.0


def instance_token_f1(gold_mask: list[int], pred_mask: list[int]) -> float:
    """Positional F1 over one sentence's binary trigger mask."""
    return float(_token_f1s([(gold_mask, pred_mask)])[0])


def _token_f1s(instances: list[tuple[list[int], list[int]]]) -> np.ndarray:
    """Each instance's positional token F1, ``2tp / (2tp + fp + fn)``, or 1.0
    when both masks are empty (correctly predicted "no triggers"); counted
    for all instances at once over their concatenated masks."""
    sizes = np.array([(len(g), len(p)) for g, p in instances], dtype=np.int64).reshape(-1, 2)
    mismatched = sizes[sizes[:, 0] != sizes[:, 1]]
    if len(mismatched):
        raise ValueError("length mismatch: {} gold vs {} pred".format(*mismatched[0]))
    gold = np.fromiter(chain.from_iterable(g for g, _ in instances), dtype=np.float64)
    pred = np.fromiter(chain.from_iterable(p for _, p in instances), dtype=np.float64)
    instance = np.repeat(np.arange(len(sizes)), sizes[:, 0])
    tp, fp, fn = (np.bincount(instance, weights=(gold == g) & (pred == p), minlength=len(sizes))
                  for g, p in ((1, 1), (0, 1), (1, 0)))  # exact: sums of ones
    scored = 2 * tp + fp + fn
    return np.divide(2 * tp, scored, out=np.ones(len(sizes)), where=scored > 0)


def corpus_token_f1(instances: list[tuple[list[int], list[int]]]) -> float:
    """Mean of per-instance token F1."""
    if not instances:
        raise ValueError("instances must be non-empty")
    return float(np.mean(_token_f1s(instances)))


def accumulated_importance(gold_mask: list[int], attributions: Attributions) -> float:
    """Total attribution mass landing on gold trigger tokens."""
    if len(gold_mask) != len(attributions.values):
        raise ValueError(
            f"length mismatch: {len(gold_mask)} mask vs {len(attributions.values)} attributions"
        )
    return float(sum(compress(attributions.values, map(eq, gold_mask, repeat(1)))))


def corpus_accumulated_importance(
    instances: list[tuple[list[int], Attributions]],
) -> tuple[float, int]:
    """Mean accumulated importance over instances with at least one gold trigger.

    Returns the mean and the number of skipped no-trigger instances; the
    score is 0.0 when every instance was skipped.
    """
    scores = []
    skipped = 0
    for gold_mask, attributions in instances:
        if not any(gold_mask):
            skipped += 1
            continue
        scores.append(accumulated_importance(gold_mask, attributions))
    return (float(np.mean(scores)) if scores else 0.0, skipped)


@dataclass
class ConfusionMatrix:
    """Gold labels on rows, predicted on columns, both in canonical class order."""

    counts: np.ndarray  # (6, 6) int

    def class_counts(self) -> dict[EmotionLabel, tuple[int, int, int]]:
        """Each class's (tp, fp, fn) as Python ints: its diagonal cell, then its column
        sum and its row sum less that cell."""
        rows = self.counts.tolist()
        columns = [sum(column) for column in zip(*rows)]
        return {label: (rows[i][i], columns[i] - rows[i][i], sum(rows[i]) - rows[i][i])
                for i, label in enumerate(EMOTION_ORDER)}

    def to_lists(self) -> list[list[int]]:
        return self.counts.astype(int).tolist()

    def to_csv(self) -> str:
        names = [label.value for label in EMOTION_ORDER]
        lines = ["gold\\pred," + ",".join(names)]
        for name, row in zip(names, self.counts):
            lines.append(name + "," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


def confusion_matrix(gold: list[EmotionLabel], pred: list[EmotionLabel]) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} pred")
    index = {label: i for i, label in enumerate(EMOTION_ORDER)}
    counts = np.zeros((len(EMOTION_ORDER), len(EMOTION_ORDER)), dtype=np.int64)
    for g, p in zip(gold, pred):
        counts[index[g], index[p]] += 1
    return ConfusionMatrix(counts=counts)


@dataclass
class MetricsReport:
    macro_f1: float | None = None
    token_f1: float | None = None
    accumulated_importance: float | None = None
    per_class: dict[str, dict[str, float]] = field(default_factory=dict)
    confusion: ConfusionMatrix | None = None
    skipped_no_trigger: int = 0

    def to_json_dict(self) -> dict:
        return {
            "macro_f1": self.macro_f1,
            "token_f1": self.token_f1,
            "accumulated_importance": self.accumulated_importance,
            "per_class": self.per_class,
            "confusion": self.confusion.to_lists() if self.confusion is not None else None,
            "skipped_no_trigger": self.skipped_no_trigger,
        }


def build_report(
    emotion_pairs: list[tuple[EmotionLabel, EmotionLabel]] | None = None,
    mask_pairs: list[tuple[list[int], list[int]]] | None = None,
    attribution_pairs: list[tuple[list[int], Attributions]] | None = None,
) -> MetricsReport:
    """Assemble the evaluation report from whichever prediction kinds exist."""
    report = MetricsReport()
    if emotion_pairs:
        gold = [g for g, _ in emotion_pairs]
        pred = [p for _, p in emotion_pairs]
        report.confusion = confusion_matrix(gold, pred)
        class_counts = report.confusion.class_counts()
        report.macro_f1 = _macro_f1(class_counts)
        for label, counts in class_counts.items():
            precision, recall, f1 = _prf(*counts)
            report.per_class[label.value] = {
                "precision": precision,
                "recall": recall,
                "f1": f1,
            }
    if mask_pairs:
        report.token_f1 = corpus_token_f1(mask_pairs)
    if attribution_pairs:
        score, skipped = corpus_accumulated_importance(attribution_pairs)
        report.accumulated_importance = score
        report.skipped_no_trigger = skipped
    return report
