"""Spans and counters around calls into each module of the program.

Wrappers are installed only for a traced pass and removed after it. Each
wraps a name where its caller looks it up (a module attribute or a class
method), at per-sentence or per-step granularity. Spans stay in memory; the
run writes them out when it ends.
"""
from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict

DISCARD_REASONS = ("missing_marker", "unbalanced_marker", "reordered_marker",
                   "too_many_spans", "empty_span")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start, end, run_id)
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A worker thread's spans hang under whatever the main thread is waiting in.
            stack = self._local.stack = [self._main_stack[-1]] if self._main_stack else []
        return stack

    def call(self, name: str, func, *args, **kwargs):
        stack = self._stack()
        span_id = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = (span_id, parent, name, start, end, self.run_id)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``; ``after`` sees the call."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(self.counts, result, args, kwargs)
            return result

        self._patch(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _count_loaded(counts, corpus, args, kwargs):
    counts["corpus.sentences_loaded"] += len(corpus.sentences)


def _count_cache_get(counts, hit, args, kwargs):
    counts["translate.cache_hits" if hit is not None else "translate.cache_misses"] += 1


def _count_projection(counts, report, args, kwargs):
    counts["projection.attempted"] += len(args[0].sentences)
    counts["projection.kept"] += len(report.corpus.sentences)
    for discard in report.discards:
        counts["projection.discards." + discard.reason.value] += 1


def _count_tokens(counts, features, args, kwargs):
    counts["features.calls"] += 1
    counts["features.tokens"] += len(args[1])


def _count_elements(counts, result, args, kwargs):
    counts["optim.elements"] += sum(p.size for p in args[1].values())


def _count_epochs(counts, trained, args, kwargs):
    counts["training.epochs"] += args[2].epochs


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every module where the CLI path looks them up."""
    import xlproject.cli as cli
    import xlproject.model as model
    import xlproject.projection as projection
    import xlproject.training as training
    import xlproject.translate as translate
    from xlproject.features import HashedNgramFeaturizer

    tracer.wrap(cli, "file_sha256", "cli.file_sha256")
    tracer.wrap(cli, "load_corpus", "corpus.load", _count_loaded)
    tracer.wrap(cli, "save_corpus", "corpus.save")
    # project_corpus imports translate_batch from its module at call time.
    tracer.wrap(translate, "translate_batch", "translate.batch")
    tracer.wrap(translate.TranslationCache, "get", "translate.cache_get", _count_cache_get)
    tracer.wrap(translate.TranslationCache, "put", "translate.cache_put")
    tracer.count(translate.DictionaryBackend, "translate", "translate.backend_calls")
    tracer.wrap(cli, "project_corpus", "projection.project_corpus", _count_projection)
    tracer.wrap(projection, "mark_sentence", "projection.mark")
    tracer.wrap(projection, "project_labels", "projection.project_labels")
    tracer.wrap(cli, "switch_corpus", "augment.switch")
    tracer.wrap(cli, "build_dataset", "augment.build_dataset")
    tracer.wrap(HashedNgramFeaturizer, "token_features", "features.token_features",
                _count_tokens)
    tracer.wrap(HashedNgramFeaturizer, "sentence_features", "features.sentence_features",
                _count_tokens)
    tracer.count(model, "forward", "model.forward_calls")
    tracer.count(training, "forward", "model.forward_calls")
    tracer.wrap(training, "loss_and_grads", "model.loss_and_grads")
    tracer.wrap(training, "adamw_step", "optim.adamw_step", _count_elements)
    tracer.wrap(cli, "train", "training.train", _count_epochs)
    for method in ("predict_emotion", "predict_mask", "predict_numeric"):
        tracer.wrap(training.TrainedModel, method, "training.predict")
    tracer.wrap(cli, "build_report", "metrics.build_report")
    tracer.wrap(cli, "normalize_attributions", "metrics.normalize_attributions")


def self_time(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for span_id, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children[span_id]):
            child_start = max(child_start, reach)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out[span_id] = (end - start) - covered
    return out


def _percentile_ms(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    total = Counter()
    durations = defaultdict(list)
    by_id = {}
    for span in tracer.spans:
        span_id, parent, name, start, end, _ = span
        total[name] += end - start
        durations[name].append(end - start)
        by_id[span_id] = span

    def under(span, ancestor: str) -> bool:
        while span[1] is not None:
            span = by_id[span[1]]
            if span[2] == ancestor:
                return True
        return False

    counts = tracer.counts
    out = {f"cli.{cmd}_s": total[f"cli.{cmd}"]
           for cmd in ("split", "project", "switch", "combine", "train", "predict", "evaluate")}
    out["cli.file_sha256_s"] = total["cli.file_sha256"]

    out["corpus.load_s"] = total["corpus.load"]
    out["corpus.save_s"] = total["corpus.save"]
    out["corpus.sentences_loaded"] = counts["corpus.sentences_loaded"]

    hits, misses = counts["translate.cache_hits"], counts["translate.cache_misses"]
    out["translate.batch_s"] = total["translate.batch"]
    out["translate.cache_get_s"] = total["translate.cache_get"]
    out["translate.cache_put_s"] = total["translate.cache_put"]
    out["translate.cache_hits"] = hits
    out["translate.cache_misses"] = misses
    out["translate.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["translate.backend_calls"] = counts["translate.backend_calls"]

    out["projection.mark_s"] = total["projection.mark"]
    out["projection.project_labels_s"] = total["projection.project_labels"]
    attempted = counts["projection.attempted"]
    out["projection.kept_ratio"] = counts["projection.kept"] / attempted if attempted else 0.0
    for reason in DISCARD_REASONS:
        out[f"projection.discards.{reason}"] = counts[f"projection.discards.{reason}"]

    out["augment.switch_s"] = total["augment.switch"]
    out["augment.build_dataset_s"] = total["augment.build_dataset"]

    feature_s = total["features.token_features"] + total["features.sentence_features"]
    out["features.token_features_s"] = total["features.token_features"]
    out["features.sentence_features_s"] = total["features.sentence_features"]
    out["features.calls"] = counts["features.calls"]
    out["features.tokens_per_s"] = counts["features.tokens"] / feature_s if feature_s else 0.0

    out["model.loss_and_grads_ms.p50"] = _percentile_ms(durations["model.loss_and_grads"], 50)
    out["model.loss_and_grads_ms.p99"] = _percentile_ms(durations["model.loss_and_grads"], 99)
    out["model.forward_calls"] = counts["model.forward_calls"]

    steps = len(durations["optim.adamw_step"])
    out["optim.adamw_step_ms.p50"] = _percentile_ms(durations["optim.adamw_step"], 50)
    out["optim.adamw_step_ms.p99"] = _percentile_ms(durations["optim.adamw_step"], 99)
    out["optim.elements_per_step"] = counts["optim.elements"] / steps if steps else 0.0

    train_spans = [s for s in tracer.spans if s[2] == "training.train"]
    first_step = min((s[3] for s in tracer.spans if s[2] == "model.loss_and_grads"),
                     default=None)
    epochs = counts["training.epochs"]
    out["training.steps"] = steps
    out["training.epoch_s"] = (
        (train_spans[0][4] - first_step) / epochs
        if len(train_spans) == 1 and first_step is not None and epochs else 0.0
    )
    out["training.validation_s"] = sum(
        s[4] - s[3] for s in tracer.spans
        if s[2] == "training.predict" and under(s, "training.train")
    )
    self_times = self_time(tracer.spans)
    out["training.self_s"] = sum(self_times[s[0]] for s in train_spans)

    out["metrics.build_report_s"] = total["metrics.build_report"]
    out["metrics.normalize_attributions_s"] = total["metrics.normalize_attributions"]
    return out
