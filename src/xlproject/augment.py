"""Trigger-word switching, the ``.pairs.jsonl`` span-alignment file, and
training-set combination assembly."""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .corpus import (
    AnnotatedSentence,
    Corpus,
    DatasetTag,
    read_jsonl,
    write_jsonl,
)
from .errors import DataError
from .projection import Projected, TriggerSpan

TAG_ORDER = (DatasetTag.D_S, DatasetTag.D_T, DatasetTag.D_ST, DatasetTag.D_TS)


@dataclass
class AlignedPair:
    """A source sentence and its projection with spans matched by marker index."""

    source: AnnotatedSentence
    target: AnnotatedSentence
    source_spans: list[TriggerSpan]
    target_spans: list[TriggerSpan]

    def validate(self) -> None:
        if len(self.source_spans) != len(self.target_spans):
            raise ValueError(
                f"pair {self.source.id!r}: span count mismatch "
                f"({len(self.source_spans)} vs {len(self.target_spans)})"
            )
        src_keys = {s.marker_index for s in self.source_spans}
        tgt_keys = {s.marker_index for s in self.target_spans}
        if src_keys != tgt_keys:
            raise ValueError(f"pair {self.source.id!r}: marker indices differ")
        for sentence, spans in ((self.source, self.source_spans), (self.target, self.target_spans)):
            if any(not 0 <= s.start < s.end <= len(sentence.tokens) for s in spans):
                raise ValueError(f"pair {self.source.id!r}: span outside sentence {sentence.id!r}")


def make_aligned_pair(source: AnnotatedSentence, projected: Projected) -> AlignedPair:
    pair = AlignedPair(
        source=source,
        target=projected.sentence,
        source_spans=list(projected.source_spans),
        target_spans=list(projected.spans),
    )
    pair.validate()
    return pair


_PAIR_FIELDS = ("source_id", "target_id", "source_spans", "target_spans")


def save_pairs(pairs: Iterable[AlignedPair], path: str | Path) -> None:
    """Write a ``.pairs.jsonl`` span-alignment file, one record per pair."""

    def record(pair: AlignedPair) -> dict:
        source, target = ([[s.start, s.end, s.marker_index] for s in spans]
                          for spans in (pair.source_spans, pair.target_spans))
        return {"source_id": pair.source.id, "target_id": pair.target.id,
                "source_spans": source, "target_spans": target}

    write_jsonl(map(record, pairs), path)


def load_pairs(path: str | Path, source: Corpus, target: Corpus) -> list[AlignedPair]:
    """The pairs of a ``.pairs.jsonl`` file over the sentences of two corpora.

    A malformed record, an id missing from its corpus, or a pair that fails
    :meth:`AlignedPair.validate` is a :class:`DataError` naming the
    file and line.
    """
    source_by_id = {s.id: s for s in source.sentences}
    target_by_id = {s.id: s for s in target.sentences}
    pairs = []
    for lineno, record in read_jsonl(path):
        where = f"{path} line {lineno}"
        if not isinstance(record, dict):
            raise DataError(f"{where}: record is not an object")
        odd = sorted(set(_PAIR_FIELDS) ^ set(record))
        if odd:
            problem = "missing" if odd[0] in _PAIR_FIELDS else "unknown"
            raise DataError(f"{where}: {problem} field {odd[0]!r}")
        sid, tid = record["source_id"], record["target_id"]
        if not (isinstance(sid, str) and isinstance(tid, str)):
            raise DataError(f"{where}: the ids must be strings")
        for name in _PAIR_FIELDS[2:]:
            spans = record[name]
            if not isinstance(spans, list) or not all(
                type(s) is list and len(s) == 3 and all(type(v) is int for v in s) for s in spans
            ):
                raise DataError(
                    f"{where}: field {name!r} must be a list of [start, end, marker] integers"
                )
        if sid not in source_by_id:
            raise DataError(f"{where}: id {sid!r} missing from the source corpus")
        if tid not in target_by_id:
            raise DataError(f"{where}: id {tid!r} missing from the target corpus")
        pair = AlignedPair(
            source=source_by_id[sid],
            target=target_by_id[tid],
            source_spans=[TriggerSpan(*s) for s in record["source_spans"]],
            target_spans=[TriggerSpan(*s) for s in record["target_spans"]],
        )
        try:
            pair.validate()
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None
        pairs.append(pair)
    return pairs


def _substitute(
    host: AnnotatedSentence,
    host_spans: list[TriggerSpan],
    donor: AnnotatedSentence,
    donor_spans: list[TriggerSpan],
    origin: DatasetTag,
) -> AnnotatedSentence:
    donor_by_index = {s.marker_index: s for s in donor_spans}
    tokens: list[str] = []
    mask: list[int] = []
    cursor = 0
    for span in sorted(host_spans, key=lambda s: s.start):
        tokens.extend(host.tokens[cursor:span.start])
        mask.extend([0] * (span.start - cursor))
        replacement = donor_by_index[span.marker_index]
        tokens.extend(donor.tokens[replacement.start:replacement.end])
        mask.extend([1] * (replacement.end - replacement.start))
        cursor = span.end
    tokens.extend(host.tokens[cursor:])
    mask.extend([0] * (len(host.tokens) - cursor))
    return AnnotatedSentence(
        id=host.id,
        tokens=tokens,
        language=host.language,
        origin=origin,
        emotion=host.emotion,
        trigger_mask=mask,
        bilingual=True,
    )


def _renamed(sent: AnnotatedSentence, sid: str) -> AnnotatedSentence:
    """A copy of ``sent`` with id ``sid``, made by the constructor, which costs a
    fifth of what ``dataclasses.replace`` does."""
    return AnnotatedSentence(sid, sent.tokens, sent.language, sent.origin, sent.emotion,
                             sent.trigger_mask, sent.bilingual)


def switch_triggers(pair: AlignedPair) -> tuple[AnnotatedSentence, AnnotatedSentence]:
    """Swap trigger spans between a sentence and its translation.

    Returns the source-host sentence with target-language triggers and the
    target-host sentence with source-language triggers. Both keep the host
    language code and are flagged bilingual.
    """
    pair.validate()
    x_st = _substitute(pair.source, pair.source_spans, pair.target, pair.target_spans, DatasetTag.D_ST)
    x_ts = _substitute(pair.target, pair.target_spans, pair.source, pair.source_spans, DatasetTag.D_TS)
    return x_st, x_ts


def switch_corpus(pairs: list[AlignedPair]) -> tuple[Corpus, Corpus]:
    """Apply trigger switching to every pair, yielding the two switched corpora.

    Both switched sentences take the pair's target id (which carries the
    language suffix), so corpora switched against several target languages
    stay mergeable.
    """
    st_sentences = []
    ts_sentences = []
    for pair in pairs:
        x_st, x_ts = switch_triggers(pair)
        st_sentences.append(_renamed(x_st, pair.target.id))
        ts_sentences.append(x_ts)
    return Corpus(sentences=st_sentences), Corpus(sentences=ts_sentences)


@dataclass(frozen=True)
class CombinationSpec:
    """Which corpora to concatenate for training; the original English set is mandatory."""

    include: frozenset[DatasetTag]

    def __post_init__(self) -> None:
        if DatasetTag.D_S not in self.include:
            raise ValueError("every combination must include D_S")

    @classmethod
    def parse(cls, text: str) -> CombinationSpec:
        parts = [p.strip() for p in text.split("+") if p.strip()]
        if not parts:
            raise ValueError("empty combination string")
        return cls(include=frozenset(DatasetTag.from_string(p) for p in parts))

    def __str__(self) -> str:
        return "+".join(tag.value for tag in TAG_ORDER if tag in self.include)


def build_dataset(spec: CombinationSpec, corpora: Mapping[DatasetTag, Corpus]) -> Corpus:
    """Concatenate the requested corpora in tag order, suffixing ids by tag."""
    missing = [tag.value for tag in spec.include if tag not in corpora]
    if missing:
        raise ValueError(f"missing corpora for tags: {sorted(missing)}")
    sentences: list[AnnotatedSentence] = []
    for tag in TAG_ORDER:
        if tag not in spec.include:
            continue
        for sent in corpora[tag].sentences:
            sentences.append(_renamed(sent, f"{sent.id}#{tag.value}"))
    return Corpus(sentences=sentences)
