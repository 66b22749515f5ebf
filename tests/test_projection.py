import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xlproject import projection
from xlproject.augment import make_aligned_pair
from xlproject.corpus import AnnotatedSentence, Corpus, DatasetTag, EmotionLabel
from xlproject.projection import (
    Discarded,
    DiscardReason,
    MarkerScheme,
    Projected,
    TriggerSpan,
    mark_sentence,
    project_corpus,
    project_labels,
    spans_from_mask,
)
from xlproject.translate import DictionaryBackend, IdentityBackend

SCHEME = MarkerScheme()


def sentence(tokens, mask, i=0):
    return AnnotatedSentence(
        id=f"p{i}",
        tokens=list(tokens),
        language="en",
        origin=DatasetTag.D_S,
        emotion=EmotionLabel.JOY,
        trigger_mask=list(mask),
    )


@st.composite
def masked_sentences(draw):
    tokens = draw(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
            min_size=1,
            max_size=14,
        )
    )
    mask = draw(st.lists(st.integers(0, 1), min_size=len(tokens), max_size=len(tokens)))
    return sentence(tokens, mask)


@st.composite
def mixed_corpora(draw):
    """Corpora mixing unmasked sentences, all-zero masks and masked sentences."""
    sentences = []
    for i, src in enumerate(draw(st.lists(masked_sentences(), min_size=1, max_size=8))):
        kind = draw(st.sampled_from(("none", "zero", "drawn")))
        if kind == "none":
            src.trigger_mask = None
        elif kind == "zero":
            src.trigger_mask = [0] * len(src.tokens)
        src.id = f"s{i}"
        sentences.append(src)
    return Corpus(sentences=sentences)


class TestSpansFromMask:
    def test_two_runs(self):
        assert spans_from_mask([0, 1, 1, 0, 1]) == [
            TriggerSpan(1, 3, 0),
            TriggerSpan(4, 5, 1),
        ]

    def test_all_zero(self):
        assert spans_from_mask([0, 0, 0]) == []

    def test_full_run(self):
        assert spans_from_mask([1, 1, 1]) == [TriggerSpan(0, 3, 0)]

    @settings(max_examples=200, deadline=None)
    @given(mask=st.lists(st.integers(0, 1), min_size=1, max_size=30))
    def test_spans_cover_exactly_the_ones(self, mask):
        spans = spans_from_mask(mask)
        covered = set()
        for span in spans:
            assert 0 <= span.start < span.end <= len(mask)
            covered |= set(range(span.start, span.end))
        assert covered == {i for i, v in enumerate(mask) if v == 1}
        assert [s.marker_index for s in spans] == list(range(len(spans)))


class TestMarkerScheme:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            MarkerScheme(pairs=(("[", "]"), ("[", ">")))

    def test_substring_symbols_rejected(self):
        with pytest.raises(ValueError, match="substring"):
            MarkerScheme(pairs=(("<", ">"), ("<<", ">>")))

    def test_whitespace_symbols_rejected(self):
        with pytest.raises(ValueError, match="whitespace"):
            MarkerScheme(pairs=(("[ ", "]"),))


class TestMarkSentence:
    def test_single_trigger(self):
        marked = mark_sentence(sentence(["I", "love", "you"], [0, 1, 0]), SCHEME)
        assert marked.text == "I [ love ] you"
        assert marked.spans == [TriggerSpan(1, 2, 0)]

    def test_too_many_spans(self):
        small = MarkerScheme(pairs=(("[", "]"), ("{", "}")))
        out = mark_sentence(sentence(["a", "b", "c", "d", "e"], [1, 0, 1, 0, 1]), small)
        assert isinstance(out, Discarded)
        assert out.reason is DiscardReason.TOO_MANY_SPANS

    def test_multi_token_span_second_pair(self):
        scheme = MarkerScheme(pairs=(("{", "}"), ("[", "]")))
        marked = mark_sentence(sentence(["so", "happy", "today"], [0, 1, 1]), scheme)
        assert marked.text == "so { happy today }"

    @pytest.mark.parametrize("tokens", [["a[b", "love"], ["a", "love]"], ["]", "love"]])
    def test_marker_of_a_used_pair_in_a_token(self, tokens):
        out = mark_sentence(sentence(tokens, [0, 1]), SCHEME)
        assert out == Discarded(DiscardReason.MARKER_IN_SOURCE)

    def test_marker_of_an_unused_pair_in_a_token_is_kept(self):
        marked = mark_sentence(sentence(["f(x)", "love"], [0, 1]), SCHEME)
        assert marked.text == "f(x) [ love ]"


def span_texts(outcome):
    """``(marker_index, span_text)`` pairs of a projection, in positional order."""
    tokens = outcome.sentence.tokens
    return [(s.marker_index, " ".join(tokens[s.start:s.end])) for s in outcome.spans]


ONE_SPAN = sentence(["I", "love", "you"], [0, 1, 0])
TWO_SPANS = sentence(["a", "x", "b"], [1, 0, 1])


class TestExtractMarkers:
    """Marker extraction from a translation, checked through ``project_labels``."""

    def test_basic_extraction(self):
        out = project_labels(ONE_SPAN, "Te [ quiero ] mucho", SCHEME, "es")
        assert out.sentence.tokens == ["Te", "quiero", "mucho"]
        assert span_texts(out) == [(0, "quiero")]

    def test_missing_marker(self):
        result = project_labels(ONE_SPAN, "Te quiero mucho", SCHEME, "es")
        assert isinstance(result, Discarded)
        assert result.reason is DiscardReason.MISSING_MARKER

    def test_close_before_open(self):
        result = project_labels(ONE_SPAN, "A ] x [ B", SCHEME, "es")
        assert isinstance(result, Discarded)
        assert result.reason is DiscardReason.UNBALANCED_MARKER

    def test_duplicated_symbol_is_unbalanced(self):
        result = project_labels(ONE_SPAN, "[ a ] [ b", SCHEME, "es")
        assert isinstance(result, Discarded)
        assert result.reason is DiscardReason.UNBALANCED_MARKER

    def test_nested_pairs_reordered(self):
        result = project_labels(TWO_SPANS, "x [ a { b } c ] y", SCHEME, "es")
        assert isinstance(result, Discarded)
        assert result.reason is DiscardReason.REORDERED_MARKER

    def test_interleaved_pairs_reordered(self):
        result = project_labels(TWO_SPANS, "x [ a { b ] c } y", SCHEME, "es")
        assert isinstance(result, Discarded)
        assert result.reason is DiscardReason.REORDERED_MARKER

    def test_empty_span(self):
        result = project_labels(ONE_SPAN, "x [ ] y", SCHEME, "es")
        assert isinstance(result, Discarded)
        assert result.reason is DiscardReason.EMPTY_SPAN

    def test_swapped_disjoint_pairs_survive(self):
        # Translation may legitimately reorder phrases; marker ids track spans.
        out = project_labels(TWO_SPANS, "{ b } x [ a ]", SCHEME, "es")
        assert out.sentence.tokens == ["b", "x", "a"]
        assert span_texts(out) == [(1, "b"), (0, "a")]

    def test_markers_glued_to_words(self):
        out = project_labels(ONE_SPAN, "Te [quiero] mucho", SCHEME, "es")
        assert out.sentence.tokens == ["Te", "quiero", "mucho"]
        assert span_texts(out) == [(0, "quiero")]

    def test_inner_whitespace_trimmed(self):
        out = project_labels(ONE_SPAN, "a [   b   c  ] d", SCHEME, "es")
        assert out.sentence.tokens == ["a", "b", "c", "d"]
        assert span_texts(out) == [(0, "b c")]

    @pytest.mark.parametrize("mask", [None, [0, 0]])
    def test_empty_translation_without_spans(self, mask):
        src = sentence(["all", "quiet"], [0, 0])
        src.trigger_mask = mask
        result = project_labels(src, "  ", SCHEME, "es")
        assert isinstance(result, Discarded)
        assert result.reason is DiscardReason.EMPTY_SPAN


class TestProjectLabels:
    def test_figure_example(self):
        src = sentence(["I", "love", "you"], [0, 1, 0])
        out = project_labels(src, "Te [ quiero ] mucho", SCHEME, "es")
        assert isinstance(out, Projected)
        assert out.sentence.tokens == ["Te", "quiero", "mucho"]
        assert out.sentence.trigger_mask == [0, 1, 0]
        assert out.sentence.origin is DatasetTag.D_T
        assert out.sentence.language == "es"
        assert out.sentence.emotion is EmotionLabel.JOY

    def test_identity_round_trip(self):
        src = sentence(["a", "b", "c", "d"], [1, 0, 1, 1])
        marked = mark_sentence(src, SCHEME)
        out = project_labels(src, marked.text, SCHEME, "es")
        assert isinstance(out, Projected)
        assert out.sentence.tokens == src.tokens
        assert out.sentence.trigger_mask == src.trigger_mask

    def test_dropped_marker_discards(self):
        src = sentence(["I", "love", "you"], [0, 1, 0])
        out = project_labels(src, "Te quiero mucho", SCHEME, "es")
        assert isinstance(out, Discarded)
        assert out.reason is DiscardReason.MISSING_MARKER

    def test_positional_anchoring_with_repeated_words(self):
        # The same word appears inside and outside the span; position decides.
        src = sentence(["love", "me", "love"], [0, 0, 1])
        marked = mark_sentence(src, SCHEME)
        assert marked.text == "love me [ love ]"
        out = project_labels(src, marked.text, SCHEME, "es")
        assert out.sentence.trigger_mask == [0, 0, 1]

    def test_no_trigger_sentence_passes_through(self):
        src = sentence(["all", "quiet"], [0, 0])
        out = project_labels(src, "todo tranquilo", SCHEME, "es")
        assert isinstance(out, Projected)
        assert out.sentence.tokens == ["todo", "tranquilo"]
        assert out.sentence.trigger_mask == [0, 0]
        assert out.spans == []

    def test_unmasked_sentence_keeps_no_mask(self):
        src = sentence(["all", "quiet"], [0, 0])
        src.trigger_mask = None
        marked = mark_sentence(src, SCHEME)
        assert marked.text == "all quiet"
        assert marked.spans == []
        # Marker symbols in an unmasked translation are ordinary tokens.
        out = project_labels(src, "todo [ tranquilo", SCHEME, "es")
        assert isinstance(out, Projected)
        assert out.sentence.tokens == ["todo", "[", "tranquilo"]
        assert out.sentence.trigger_mask is None
        assert out.spans == []

    @settings(max_examples=200, deadline=None)
    @given(src=masked_sentences())
    def test_round_trip_property(self, src):
        marked = mark_sentence(src, SCHEME)
        if isinstance(marked, Discarded):
            assert marked.reason is DiscardReason.TOO_MANY_SPANS
            assert len(spans_from_mask(src.trigger_mask)) > len(SCHEME.pairs)
            return
        out = project_labels(src, marked.text, SCHEME, "es")
        assert isinstance(out, Projected)
        assert out.sentence.tokens == src.tokens
        assert out.sentence.trigger_mask == src.trigger_mask

    @settings(max_examples=200, deadline=None)
    @given(src=masked_sentences())
    def test_extract_recovers_span_token_sequences(self, src):
        spans = spans_from_mask(src.trigger_mask)
        if not spans or len(spans) > len(SCHEME.pairs):
            return
        marked = mark_sentence(src, SCHEME)
        out = project_labels(src, marked.text, SCHEME, "es")
        assert isinstance(out, Projected)
        want = {s.marker_index: " ".join(src.tokens[s.start:s.end]) for s in spans}
        assert dict(span_texts(out)) == want

    @settings(max_examples=200, deadline=None)
    @given(src=masked_sentences())
    def test_mask_coverage_matches_extracted_words(self, src):
        marked = mark_sentence(src, SCHEME)
        if isinstance(marked, Discarded):
            return
        out = project_labels(src, marked.text, SCHEME, "es")
        span_words = sum(s.end - s.start for s in out.spans)
        assert sum(out.sentence.trigger_mask) == span_words


class TestProjectCorpus:
    @settings(max_examples=100, deadline=None)
    @given(corpus=mixed_corpora())
    def test_identity_keeps_every_sentence_and_mask(self, corpus):
        report = project_corpus(corpus, SCHEME, IdentityBackend(), "en", "es")
        assert report.discards == []
        assert [s.id for s in report.corpus.sentences] == [f"{s.id}@es" for s in corpus.sentences]
        for src, out in zip(corpus.sentences, report.corpus.sentences):
            assert out.tokens == src.tokens
            assert out.trigger_mask == src.trigger_mask
            assert out.emotion is src.emotion
        masked = [s for s in corpus.sentences if s.trigger_mask is not None]
        assert [src for src, _ in report.alignments] == masked
        for src, projected in report.alignments:
            assert projected.sentence.id == f"{src.id}@es"
            assert projected.spans == spans_from_mask(src.trigger_mask)

    @settings(max_examples=100, deadline=None)
    @given(corpus=mixed_corpora())
    def test_translation_dropping_every_token_discards_all(self, corpus):
        vocabulary = {tok for s in corpus.sentences for tok in s.tokens}
        markers = {sym for pair in SCHEME.pairs for sym in pair}
        backend = DictionaryBackend(drop_tokens=frozenset(vocabulary | markers))
        report = project_corpus(corpus, SCHEME, backend, "en", "es")
        assert report.corpus.sentences == []
        assert report.alignments == []
        want = [
            (
                s.id,
                DiscardReason.MISSING_MARKER
                if spans_from_mask(s.trigger_mask or [])
                else DiscardReason.EMPTY_SPAN,
                "",
            )
            for s in corpus.sentences
        ]
        assert [(d.id, d.reason, d.translated_text) for d in report.discards] == want

    @settings(max_examples=100, deadline=None)
    @given(src=masked_sentences(), data=st.data())
    def test_marker_in_a_source_token_is_discarded_untranslated(self, src, data):
        spans = spans_from_mask(src.trigger_mask)
        assume(spans)
        span = data.draw(st.sampled_from(spans))
        symbol = data.draw(st.sampled_from(SCHEME.pairs[span.marker_index]))
        i = data.draw(st.integers(0, len(src.tokens) - 1))
        cut = data.draw(st.integers(0, len(src.tokens[i])))
        src.tokens[i] = src.tokens[i][:cut] + symbol + src.tokens[i][cut:]
        backend = IdentityBackend()
        report = project_corpus(Corpus(sentences=[src]), SCHEME, backend, "en", "es")
        assert [(d.id, d.reason, d.translated_text) for d in report.discards] == [
            (src.id, DiscardReason.MARKER_IN_SOURCE, "")
        ]
        assert backend.calls == 0


@settings(max_examples=50, deadline=None)
@given(corpus=mixed_corpora())
def test_project_finds_each_sentences_spans_once(corpus):
    calls = []
    original = projection.spans_from_mask
    projection.spans_from_mask = lambda mask: calls.append(mask) or original(mask)
    try:
        report = project_corpus(corpus, SCHEME, IdentityBackend(), "en", "es")
        pairs = [make_aligned_pair(src, projected) for src, projected in report.alignments]
    finally:
        projection.spans_from_mask = original
    assert len(calls) == len(corpus)
    assert [p.source_spans for p in pairs] == [
        spans_from_mask(src.trigger_mask) for src, _ in report.alignments]
