"""Alignment-free trigger label projection.

Trigger spans are wrapped in distinct symbol pairs before translation; after
translation the spans are recovered by locating the surviving symbols, so no
word aligner is needed. Sentences whose markers do not survive translation
intact are discarded with a categorized reason.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .corpus import AnnotatedSentence, Corpus, DatasetTag

DEFAULT_MARKER_PAIRS: tuple[tuple[str, str], ...] = (
    ("[", "]"),
    ("{", "}"),
    ("<", ">"),
    ("(", ")"),
    ("«", "»"),
    ("⟦", "⟧"),
    ("⟨", "⟩"),
    ("⌈", "⌉"),
)


@dataclass(frozen=True)
class MarkerScheme:
    """Ordered registry of open/close symbol pairs used to wrap trigger spans."""

    pairs: tuple[tuple[str, str], ...] = DEFAULT_MARKER_PAIRS

    def __post_init__(self) -> None:
        symbols = [sym for pair in self.pairs for sym in pair]
        if not symbols:
            raise ValueError("marker scheme needs at least one pair")
        if len(set(symbols)) != len(symbols):
            raise ValueError("marker symbols must be distinct")
        for sym in symbols:
            if not sym or any(ch.isspace() for ch in sym):
                raise ValueError(f"marker symbol contains whitespace or is empty: {sym!r}")
        for a in symbols:
            for b in symbols:
                if a != b and a in b:
                    raise ValueError(f"marker symbol {a!r} is a substring of {b!r}")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class TriggerSpan:
    """Half-open token range [start, end) tied to one marker pair."""

    start: int
    end: int
    marker_index: int


@dataclass
class MarkedSentence:
    text: str
    spans: list[TriggerSpan]


class DiscardReason(Enum):
    MISSING_MARKER = "missing_marker"
    UNBALANCED_MARKER = "unbalanced_marker"
    REORDERED_MARKER = "reordered_marker"
    TOO_MANY_SPANS = "too_many_spans"
    EMPTY_SPAN = "empty_span"

    def __str__(self) -> str:
        return self.value


@dataclass
class Projected:
    sentence: AnnotatedSentence
    # Target-side spans in positional order, marker_index preserved from the
    # source so switched corpora can match spans across the language pair.
    spans: list[TriggerSpan] = field(default_factory=list)


@dataclass
class Discarded:
    reason: DiscardReason


ProjectionOutcome = Projected | Discarded


def spans_from_mask(mask: list[int]) -> list[TriggerSpan]:
    """Turn each maximal run of 1s into a span; marker indices count left to right."""
    spans: list[TriggerSpan] = []
    start = None
    for i, value in enumerate(mask):
        if value == 1 and start is None:
            start = i
        elif value == 0 and start is not None:
            spans.append(TriggerSpan(start, i, len(spans)))
            start = None
    if start is not None:
        spans.append(TriggerSpan(start, len(mask), len(spans)))
    return spans


def mark_sentence(
    sentence: AnnotatedSentence, scheme: MarkerScheme
) -> MarkedSentence | Discarded:
    """Insert marker symbols as standalone tokens around each trigger span.

    A sentence without a trigger mask is marked like one with no spans: its
    text is the plain token sequence. Returns ``Discarded(too_many_spans)``
    when the sentence has more spans than the scheme has pairs.
    """
    spans = spans_from_mask(sentence.trigger_mask or [])
    if len(spans) > len(scheme.pairs):
        return Discarded(DiscardReason.TOO_MANY_SPANS)
    opens = {span.start: scheme.pairs[span.marker_index][0] for span in spans}
    closes = {span.end - 1: scheme.pairs[span.marker_index][1] for span in spans}
    parts: list[str] = []
    for i, token in enumerate(sentence.tokens):
        if i in opens:
            parts.append(opens[i])
        parts.append(token)
        if i in closes:
            parts.append(closes[i])
    return MarkedSentence(text=" ".join(parts), spans=spans)


def _parse_marked(
    text: str, expected: list[int], scheme: MarkerScheme
) -> tuple[list[str], list[int], list[TriggerSpan]] | Discarded:
    """Split a marked translation into clean tokens, their mask and the spans.

    Span positions follow from where each expected marker pair sits in the
    text, so they are anchored positionally. Text without tokens is
    discarded as ``empty_span``, whether a span or the whole sentence is empty.
    """
    intervals = []
    for marker_index in expected:
        open_sym, close_sym = scheme.pairs[marker_index]
        open_count = text.count(open_sym)
        close_count = text.count(close_sym)
        if open_count == 0 or close_count == 0:
            return Discarded(DiscardReason.MISSING_MARKER)
        # Duplicated symbols leave the pairing ambiguous; treat as unbalanced.
        if open_count > 1 or close_count > 1:
            return Discarded(DiscardReason.UNBALANCED_MARKER)
        open_pos = text.find(open_sym)
        close_pos = text.find(close_sym)
        if close_pos < open_pos:
            return Discarded(DiscardReason.UNBALANCED_MARKER)
        intervals.append(
            (open_pos, open_pos + len(open_sym), close_pos, close_pos + len(close_sym), marker_index)
        )
    intervals.sort()
    for (_, _, _, prev_end, _), (next_start, _, _, _, _) in zip(intervals, intervals[1:]):
        if next_start < prev_end:
            return Discarded(DiscardReason.REORDERED_MARKER)
    tokens: list[str] = []
    mask: list[int] = []
    spans: list[TriggerSpan] = []
    cursor = 0
    for open_start, open_end, close_start, close_end, marker_index in intervals:
        outside = text[cursor:open_start].split()
        tokens.extend(outside)
        mask.extend([0] * len(outside))
        inner = text[open_end:close_start].split()
        if not inner:
            return Discarded(DiscardReason.EMPTY_SPAN)
        spans.append(TriggerSpan(len(tokens), len(tokens) + len(inner), marker_index))
        tokens.extend(inner)
        mask.extend([1] * len(inner))
        cursor = close_end
    outside = text[cursor:].split()
    tokens.extend(outside)
    mask.extend([0] * len(outside))
    if not tokens:
        return Discarded(DiscardReason.EMPTY_SPAN)
    return tokens, mask, spans


def project_labels(
    source: AnnotatedSentence,
    translated_text: str,
    scheme: MarkerScheme,
    target_lang: str,
) -> ProjectionOutcome:
    """Build a pseudo-labelled target sentence from a marked translation.

    Span positions come from where each marker pair sat in the translated
    text, not from searching for the span words, so repeated words cannot
    mislabel tokens. A source without a trigger mask is treated as one with
    no spans, and its projection keeps ``trigger_mask=None``.
    """
    source_spans = spans_from_mask(source.trigger_mask or [])
    parsed = _parse_marked(translated_text, [s.marker_index for s in source_spans], scheme)
    if isinstance(parsed, Discarded):
        return parsed
    tokens, mask, spans = parsed
    return Projected(
        sentence=AnnotatedSentence(
            id=source.id,
            tokens=tokens,
            language=target_lang,
            origin=DatasetTag.D_T,
            emotion=source.emotion,
            trigger_mask=None if source.trigger_mask is None else mask,
        ),
        spans=spans,
    )


@dataclass
class DiscardRecord:
    id: str
    reason: DiscardReason
    translated_text: str


@dataclass
class ProjectionReport:
    """Outcome of projecting a whole corpus through a translation backend."""

    corpus: Corpus
    alignments: list[tuple[AnnotatedSentence, Projected]]
    discards: list[DiscardRecord]


def project_corpus(
    corpus: Corpus,
    scheme: MarkerScheme,
    backend,
    src: str,
    tgt: str,
    cache=None,
    parallelism: int = 1,
) -> ProjectionReport:
    """Mark, translate, and project every sentence of a corpus.

    Sentences without a trigger mask are translated plain and keep only the
    emotion label. Projected ids get an ``@<tgt>`` suffix so per-language
    outputs can be merged into one corpus; discard records keep the source
    id. ``alignments`` pairs each surviving masked source sentence with its
    projection, ready for trigger switching.
    """
    from .translate import translate_batch

    kept: list[AnnotatedSentence] = []
    texts: list[str] = []
    discards: list[DiscardRecord] = []
    for sent in corpus.sentences:
        result = mark_sentence(sent, scheme)
        if isinstance(result, Discarded):
            discards.append(DiscardRecord(sent.id, result.reason, ""))
            continue
        kept.append(sent)
        texts.append(result.text)

    translations = (
        translate_batch(texts, src, tgt, backend, cache=cache, parallelism=parallelism)
        if texts
        else []
    )

    projected_sentences: list[AnnotatedSentence] = []
    alignments: list[tuple[AnnotatedSentence, Projected]] = []
    for sent, translated in zip(kept, translations):
        outcome = project_labels(sent, translated, scheme, tgt)
        if isinstance(outcome, Discarded):
            discards.append(DiscardRecord(sent.id, outcome.reason, translated))
            continue
        outcome.sentence.id = f"{sent.id}@{tgt}"
        projected_sentences.append(outcome.sentence)
        if sent.trigger_mask is not None:
            alignments.append((sent, outcome))

    projected = Corpus(
        sentences=projected_sentences,
        provenance={"projected_from": src, "projected_to": tgt, "backend": backend.backend_id},
    )
    return ProjectionReport(corpus=projected, alignments=alignments, discards=discards)
