import contextlib
import copy
import itertools
import json
import sys
import tempfile
import tracemalloc
import unicodedata
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlproject import corpus as corpus_module
from xlproject.corpus import (
    _WHITESPACE,
    LANGUAGES,
    AnnotatedSentence,
    Corpus,
    CorpusFormatError,
    DatasetTag,
    EmotionLabel,
    _sentence_from_record,
    check_new_id,
    encode_json,
    label_distribution,
    load_corpus,
    read_jsonl,
    save_corpus,
    split_train_validation,
    write_jsonl,
)

tokens_strategy = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
    min_size=1,
    max_size=12,
)


def sentences_strategy():
    @st.composite
    def build(draw):
        tokens = draw(tokens_strategy)
        with_mask = draw(st.booleans())
        mask = draw(
            st.lists(st.integers(0, 1), min_size=len(tokens), max_size=len(tokens))
        ) if with_mask else None
        emotion = draw(st.sampled_from(list(EmotionLabel) + [None]))
        return AnnotatedSentence(
            id=draw(st.uuids()).hex,
            tokens=tokens,
            language="en",
            origin=DatasetTag.D_S,
            emotion=emotion,
            trigger_mask=mask,
        )

    return build()


def corpus_strategy(min_size=0, max_size=8):
    return st.lists(
        sentences_strategy(), min_size=min_size, max_size=max_size,
        unique_by=lambda s: s.id,
    ).map(lambda sents: Corpus(sentences=sents))


def make_sentence(i=0, tokens=("I", "love", "you"), mask=(0, 1, 0), emotion=EmotionLabel.JOY):
    return AnnotatedSentence(
        id=f"s{i}",
        tokens=list(tokens),
        language="en",
        origin=DatasetTag.D_S,
        emotion=emotion,
        trigger_mask=list(mask) if mask is not None else None,
    )


class TestLoadCorpus:
    def test_single_jsonl_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "lang": "en", "tokens": ["I", "love", "you"], '
            '"emotion": "Joy", "mask": [0, 1, 0], "origin": "D_S"}\n'
        )
        corpus = load_corpus(path)
        assert len(corpus) == 1
        sent = corpus.sentences[0]
        assert sent.tokens == ["I", "love", "you"]
        assert sent.trigger_mask == [0, 1, 0]
        assert sent.emotion is EmotionLabel.JOY

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert len(load_corpus(path)) == 0

    def test_mask_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "a", "lang": "en", "tokens": ["x"], "origin": "D_S"}\n'
            '{"id": "b", "lang": "en", "tokens": ["a", "b", "c"], "mask": [0, 1], "origin": "D_S"}\n'
        )
        with pytest.raises(CorpusFormatError, match="mask length mismatch at line 2"):
            load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "lang": "en", "tokens": ["x"], "origin": "D_S", "bogus": 1}\n')
        with pytest.raises(CorpusFormatError, match="bogus"):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = '{"id": "a", "lang": "en", "tokens": ["x"], "origin": "D_S"}\n'
        path.write_text(line + line)
        with pytest.raises(CorpusFormatError, match="duplicate id"):
            load_corpus(path)

    def test_duplicate_id_names_file_and_both_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        line = '{{"id": "{}", "lang": "en", "tokens": ["x"], "origin": "D_S"}}\n'
        path.write_text(line.format("a") + line.format("b") + "\n" + line.format("a"))
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path} line 4: duplicate id 'a', first at line 1"

    def test_duplicate_id_in_tsv_names_both_header_lines(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text(
            "# id=a lang=en origin=D_S\nx\n\n# id=b lang=en origin=D_S\ny\n\n"
            "# id=a lang=en origin=D_S\nz\n"
        )
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path, format="tsv")
        assert str(info.value) == f"{path} line 7: duplicate id 'a', first at line 1"

    def test_origin_language_invariant(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "lang": "es", "tokens": ["x"], "origin": "D_S"}\n')
        with pytest.raises(CorpusFormatError, match="D_S"):
            load_corpus(path)


def test_whitespace_pattern_matches_exactly_where_isspace_is_true():
    every_char = "".join(map(chr, range(sys.maxunicode + 1)))
    matched = [i for i, ch in enumerate(every_char) if _WHITESPACE(ch)]
    assert matched == [i for i, ch in enumerate(every_char) if ch.isspace()]


def test_token_with_unicode_whitespace_rejected():
    with pytest.raises(CorpusFormatError, match="whitespace"):
        make_sentence(tokens=("I", "lo\u2009ve", "you")).validate()


class TestSaveCorpus:
    @pytest.mark.parametrize("format", ["jsonl", "tsv"])
    def test_round_trip(self, tmp_path, format):
        corpus = Corpus(sentences=[make_sentence(0), make_sentence(1, mask=None, emotion=None)])
        path = tmp_path / f"c.{format}"
        save_corpus(corpus, path, format=format)
        assert load_corpus(path, format=format) == corpus

    def test_optional_emotion_omitted(self, tmp_path):
        corpus = Corpus(sentences=[make_sentence(0, emotion=None)])
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        record = json.loads(path.read_text().splitlines()[0])
        assert "emotion" not in record
        assert load_corpus(path).sentences[0].emotion is None

    def test_tsv_and_jsonl_text_is_pinned(self, tmp_path):
        sentences = [
            make_sentence(1),
            make_sentence(2, tokens=("hello", "world"), mask=None, emotion=None),
            AnnotatedSentence(id="s3@es", tokens=["te", "quiero"], language="es",
                              origin=DatasetTag.D_ST, emotion=EmotionLabel.LOVE,
                              trigger_mask=[0, 1], bilingual=True),
            AnnotatedSentence(id="s4@es", tokens=["hola"], language="es",
                              origin=DatasetTag.D_TS, bilingual=True),
        ]
        corpus = Corpus(sentences=sentences)
        save_corpus(corpus, tmp_path / "c.tsv", format="tsv")
        save_corpus(corpus, tmp_path / "c.jsonl")
        assert (tmp_path / "c.tsv").read_bytes() == (
            "# id=s1 lang=en emotion=Joy origin=D_S\nI\t0\nlove\t1\nyou\t0\n\n"
            "# id=s2 lang=en origin=D_S\nhello\nworld\n\n"
            "# id=s3@es lang=es emotion=Love origin=D_St bilingual=true\nte\t0\nquiero\t1\n\n"
            "# id=s4@es lang=es origin=D_Ts bilingual=true\nhola\n"
        ).encode()
        assert (tmp_path / "c.jsonl").read_bytes() == (
            '{"id": "s1", "lang": "en", "tokens": ["I", "love", "you"], "emotion": "Joy", '
            '"mask": [0, 1, 0], "origin": "D_S"}\n'
            '{"id": "s2", "lang": "en", "tokens": ["hello", "world"], "origin": "D_S"}\n'
            '{"id": "s3@es", "lang": "es", "tokens": ["te", "quiero"], "emotion": "Love", '
            '"mask": [0, 1], "origin": "D_St", "bilingual": true}\n'
            '{"id": "s4@es", "lang": "es", "tokens": ["hola"], "origin": "D_Ts", '
            '"bilingual": true}\n'
        ).encode()
        for name, format in (("c.tsv", "tsv"), ("c.jsonl", "jsonl")):
            assert load_corpus(tmp_path / name, format=format) == corpus

    def test_tsv_token_with_tab_rejected(self, tmp_path):
        bad = AnnotatedSentence(
            id="a", tokens=["x\ty"], language="en", origin=DatasetTag.D_S
        )
        with pytest.raises(CorpusFormatError, match="token contains delimiter"):
            save_corpus(Corpus(sentences=[bad]), tmp_path / "c.tsv", format="tsv")

    def test_tsv_token_starting_with_hash_rejected(self, tmp_path):
        # A row starting with '#' would read back as a sentence header.
        hashtag = AnnotatedSentence(
            id="a", tokens=["I", "#love", "you"], language="en", origin=DatasetTag.D_S
        )
        with pytest.raises(CorpusFormatError, match="token starts with '#'.*'#love'"):
            save_corpus(Corpus(sentences=[hashtag]), tmp_path / "c.tsv", format="tsv")
        assert not (tmp_path / "c.tsv").exists()
        save_corpus(Corpus(sentences=[hashtag]), tmp_path / "c.jsonl")
        assert load_corpus(tmp_path / "c.jsonl") == Corpus(sentences=[hashtag])

    @settings(max_examples=50, deadline=None)
    @given(corpus=corpus_strategy())
    def test_round_trip_property_jsonl(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path) == corpus

    @settings(max_examples=50, deadline=None)
    @given(corpus=corpus_strategy())
    def test_round_trip_property_tsv(self, corpus, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "c.tsv"
        save_corpus(corpus, path, format="tsv")
        assert load_corpus(path, format="tsv") == corpus


class TestSplit:
    def test_sizes_5000_at_10_percent(self):
        corpus = Corpus(sentences=[make_sentence(i) for i in range(5000)])
        train, val = split_train_validation(corpus, 0.10, seed=42)
        assert len(train) == 4500
        assert len(val) == 500

    def test_same_seed_same_split(self):
        corpus = Corpus(sentences=[make_sentence(i) for i in range(100)])
        first = split_train_validation(corpus, 0.2, seed=7)
        second = split_train_validation(corpus, 0.2, seed=7)
        assert [s.id for s in first[1]] == [s.id for s in second[1]]

    def test_different_seeds_differ(self):
        # Fixed seed pair; membership compared by enumeration.
        corpus = Corpus(sentences=[make_sentence(i) for i in range(10)])
        _, val1 = split_train_validation(corpus, 0.10, seed=1)
        _, val2 = split_train_validation(corpus, 0.10, seed=2)
        assert {s.id for s in val1} != {s.id for s in val2}

    def test_fraction_out_of_range(self):
        corpus = Corpus(sentences=[make_sentence()])
        with pytest.raises(ValueError, match="fraction"):
            split_train_validation(corpus, 1.5, seed=0)
        with pytest.raises(ValueError, match="fraction"):
            split_train_validation(corpus, 0.0, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 10_000), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
    def test_partition_property(self, n, fraction, seed):
        corpus = Corpus(sentences=[make_sentence(i, tokens=("x",), mask=None) for i in range(n)])
        train, val = split_train_validation(corpus, fraction, seed)
        assert len(val) == int(fraction * n + 0.5)
        assert len(train) + len(val) == n
        train_ids = {s.id for s in train}
        val_ids = {s.id for s in val}
        assert not train_ids & val_ids
        assert train_ids | val_ids == {s.id for s in corpus}


class TestLabelDistribution:
    def test_counts_sum_to_size(self):
        labels = [EmotionLabel.JOY, EmotionLabel.JOY, EmotionLabel.FEAR]
        corpus = Corpus(
            sentences=[make_sentence(i, emotion=label) for i, label in enumerate(labels)]
        )
        counts = label_distribution(corpus)
        assert counts[EmotionLabel.JOY] == 2
        assert counts[EmotionLabel.FEAR] == 1
        assert sum(counts.values()) == 3

    def test_empty_corpus_all_zero(self):
        counts = label_distribution(Corpus())
        assert set(counts) == set(EmotionLabel)
        assert all(v == 0 for v in counts.values())

    def test_missing_emotion_lists_ids(self):
        corpus = Corpus(sentences=[make_sentence(0, emotion=None)])
        with pytest.raises(ValueError, match="s0"):
            label_distribution(corpus)


# ---------------------------------------------------------------------------
# the whole-record checks against a reference that checks one value at a time


def reference_sentence(record):
    """A record's sentence, checked one token and one mask value at a time in
    the loader's order; kept here, independent of the whole-record checks."""
    if not isinstance(record, dict):
        raise CorpusFormatError("record is not an object")
    unknown = set(record) - {"id", "lang", "tokens", "emotion", "mask", "origin", "bilingual"}
    if unknown:
        raise CorpusFormatError(f"unknown field {sorted(unknown)[0]!r}")
    for req in ("id", "lang", "tokens", "origin"):
        if req not in record:
            raise CorpusFormatError(f"missing field {req!r}")
    tokens = record["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CorpusFormatError("field 'tokens' must be a list of strings")
    mask = record.get("mask")
    if mask is not None and (not isinstance(mask, list) or any(type(v) is not int for v in mask)):
        raise CorpusFormatError("field 'mask' must be a list of 0/1 integers")
    bilingual = record.get("bilingual", False)
    if bilingual is not True and bilingual is not False:
        raise CorpusFormatError("field 'bilingual' must be true or false")
    emotion = record.get("emotion")
    sent = AnnotatedSentence(
        id=unicodedata.normalize("NFC", str(record["id"])),
        tokens=[unicodedata.normalize("NFC", t) for t in tokens],
        language=str(record["lang"]),
        origin=DatasetTag.from_string(str(record["origin"])),
        emotion=None if emotion is None else EmotionLabel.from_string(emotion),
        trigger_mask=mask,
        bilingual=bilingual,
    )
    if not sent.id:
        raise CorpusFormatError("empty id")
    if not sent.tokens:
        raise CorpusFormatError("tokens must be non-empty")
    for tok in sent.tokens:
        if not tok:
            raise CorpusFormatError("empty token")
        if any(ch.isspace() for ch in tok):
            raise CorpusFormatError(f"token contains whitespace: {tok!r}")
    if sent.language not in LANGUAGES:
        raise CorpusFormatError(f"unknown language {sent.language!r}; expected one of {LANGUAGES}")
    if mask is not None:
        if len(mask) != len(sent.tokens):
            raise CorpusFormatError("mask length mismatch")
        if any(v not in (0, 1) for v in mask):
            raise CorpusFormatError("mask values must be 0 or 1")
    if sent.origin is DatasetTag.D_S and sent.language != "en":
        raise CorpusFormatError("D_S sentences must have language 'en'")
    if sent.origin is DatasetTag.D_T and sent.language == "en":
        raise CorpusFormatError("D_T sentences must have a non-English language")
    return sent


# Pieces of tokens: plain letters, composed and decomposed accents, bare
# combining marks (so a token can start with one), Hangul jamo that compose
# across a token boundary if nothing separates them, characters NFC changes
# (the angstrom sign, a singleton), and NUL; then ASCII and Unicode whitespace.
PIECES = ["a", "Zz", "\u00e9", "e\u0301", "\u0301", "\u0323\u0307", "\u1100", "\u1161",
          "\u11a8", "\uac00", "\u212b", "\u0344", "\ufb01", "\0", "\u200b"]
SPACES = [" ", "\t", "\n", "\x1c", "\u00a0", "\u2009", "\u3000"]
MASK_VALUES = [0, 1, True, False, 0.0, 1.0, -0.0, 2, -1, "1", None]

# Each fault breaks one field of a valid record.
FAULTS = {
    "tokens-not-a-list": lambda r, draw: r.update(tokens=draw(st.sampled_from(["a b", None, {}]))),
    "token-not-a-string": lambda r, draw: r["tokens"].insert(
        draw(st.integers(0, len(r["tokens"]))), draw(st.sampled_from([1, None, 1.5, ["a"]]))),
    "no-tokens": lambda r, draw: r.update(tokens=[], mask=[]),
    "mask-value": lambda r, draw: r.update(mask=draw(st.lists(
        st.sampled_from(MASK_VALUES), min_size=len(r["tokens"]), max_size=len(r["tokens"])))),
    "mask-out-of-range": lambda r, draw: r.update(
        mask=[draw(st.sampled_from([2, -1]))] + r["mask"][1:] if r["mask"] else r["mask"]),
    "mask-length": lambda r, draw: r.update(mask=r["mask"] + [draw(st.sampled_from([0, 1, True]))]),
    "mask-not-a-list": lambda r, draw: r.update(mask=draw(st.sampled_from(["01", {"0": 1}, 1]))),
    "bilingual": lambda r, draw: r.update(bilingual=draw(st.sampled_from(["false", 0, 1, None]))),
    "emotion": lambda r, draw: r.update(emotion=draw(st.sampled_from(["joy", 3, ["Joy"]]))),
    "origin": lambda r, draw: r.update(origin=draw(st.sampled_from(["bogus", "D_T"]))),
    "lang": lambda r, draw: r.update(lang=draw(st.sampled_from(["xx", "es", 5]))),
    "id": lambda r, draw: r.update(id=draw(st.sampled_from(["", 7]))),
    "extra-field": lambda r, draw: r.update(extra=1),
    "missing-field": lambda r, draw: r.pop(
        draw(st.sampled_from(["id", "lang", "tokens", "origin"])), None),
}


@st.composite
def records(draw):
    """Valid records with up to two faults, and tokens that now and then hold whitespace."""
    token = st.lists(st.sampled_from(PIECES), min_size=1, max_size=4).map("".join)
    risky = st.lists(st.sampled_from(PIECES + SPACES), max_size=3).map("".join)
    tokens = draw(st.lists(st.one_of(token, token, token, risky), min_size=1, max_size=6))
    record = {"id": draw(st.sampled_from(["s1", "e\u0301"])), "lang": "en", "tokens": tokens,
              "origin": "D_S"}
    if draw(st.booleans()):
        record["mask"] = draw(st.lists(st.integers(0, 1), min_size=len(tokens), max_size=len(tokens)))
    if draw(st.booleans()):
        record["emotion"] = draw(st.sampled_from(["Joy", None]))
    if draw(st.booleans()):
        record["bilingual"] = draw(st.booleans())
    for fault in draw(st.lists(st.sampled_from(sorted(FAULTS)), max_size=2)):
        if fault.startswith("mask") and not isinstance(record.get("mask"), list):
            record["mask"] = [0] * len(tokens)
        if "tokens" in record and isinstance(record["tokens"], list):
            FAULTS[fault](record, draw)
    return record


def _outcome(check, record):
    try:
        return "ok", check(copy.deepcopy(record))
    except CorpusFormatError as exc:
        return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(record=records())
def test_record_checks_agree_with_a_per_token_reference(record):
    assert _outcome(_sentence_from_record, record) == _outcome(reference_sentence, record)


@pytest.mark.parametrize("tokens", [["e", "\u0301"], ["\u1100", "\u1161"], ["a\0b", "c"],
                                    ["\u212b"], ["x\u0307\u0323"]],
                         ids=["combining-initial", "jamo", "nul", "angstrom", "reordered"])
def test_nfc_of_the_joined_tokens_is_per_token(tokens):
    record = {"id": "a", "lang": "en", "tokens": tokens, "origin": "D_S"}
    want = [unicodedata.normalize("NFC", t) for t in tokens]
    assert _sentence_from_record(record).tokens == want == reference_sentence(record).tokens


class TestRecordValueTypes:
    @pytest.mark.parametrize("field, value, problem", [
        ("mask", [True, 0, 0], "field 'mask' must be a list of 0/1 integers"),
        ("mask", [0, 1.0, 0], "field 'mask' must be a list of 0/1 integers"),
        ("mask", [0, 2, 0], "mask values must be 0 or 1"),
        ("mask", [0, 1], "mask length mismatch"),
        ("bilingual", "false", "field 'bilingual' must be true or false"),
        ("bilingual", 0, "field 'bilingual' must be true or false"),
        ("bilingual", None, "field 'bilingual' must be true or false"),
    ])
    def test_rejected_naming_file_and_line(self, tmp_path, field, value, problem):
        path = tmp_path / "c.jsonl"
        good = {"id": "a", "lang": "en", "tokens": ["x", "y", "z"], "origin": "D_S"}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", field: value}) + "\n")
        with pytest.raises(CorpusFormatError) as info:
            load_corpus(path)
        assert str(info.value) == f"{path}: {problem} at line 2"

    @pytest.mark.parametrize("bilingual", [True, False])
    def test_boolean_bilingual_round_trips(self, tmp_path, bilingual):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "a", "lang": "en", "tokens": ["x"], "origin": "D_S",
                                    "bilingual": bilingual}) + "\n")
        corpus = load_corpus(path)
        assert corpus.sentences[0].bilingual is bilingual
        save_corpus(corpus, tmp_path / "again.jsonl")
        assert load_corpus(tmp_path / "again.jsonl") == corpus

    def test_emotion_that_is_not_a_string_is_a_format_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "lang": "en", "tokens": ["x"], "origin": "D_S", '
                        '"emotion": ["Joy"]}\n')
        with pytest.raises(CorpusFormatError, match="unknown emotion label"):
            load_corpus(path)

    @pytest.mark.parametrize("value, want", [("true", True), ("false", False), ("yes", None)])
    def test_tsv_bilingual_is_true_or_false(self, tmp_path, value, want):
        path = tmp_path / "c.tsv"
        path.write_text(f"# id=a lang=en origin=D_S\nx\n\n# id=b lang=en origin=D_S bilingual={value}\ny\n")
        if want is None:
            with pytest.raises(CorpusFormatError, match="'bilingual' must be true or false at line 4"):
                load_corpus(path, format="tsv")
        else:
            assert [s.bilingual for s in load_corpus(path, format="tsv")] == [False, want]

    def test_unknown_origin_in_tsv_names_its_header_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("# id=a lang=en origin=D_S\nx\n\n# id=b lang=en origin=D_X\ny\n")
        with pytest.raises(CorpusFormatError, match="unknown origin tag 'D_X'.* at line 4"):
            load_corpus(path, format="tsv")


# A well-formed first sentence (lines 1-3), so each error below is on line 4 or 5.
TSV_GOOD = "# id=g lang=en origin=D_S\nok\n\n"


@pytest.mark.parametrize("text, problem, line", [
    ("x\n", "token row before sentence header", 4),
    ("# id=a lang=en origin=D_S\nx\t0\t1\n", "expected 1 or 2 columns", 5),
    ("# id=a lang=en origin=D_S\nx\t0\ny\n", "inconsistent mask column", 6),
    ("# id=a lang=en origin=D_S\nx\ny\t1\n", "inconsistent mask column", 6),
    ("# id=a lang=en origin=D_S\nx\t2\n", "mask value must be 0 or 1", 5),
    ("# id=a lang=en origin=D_S foo\nx\n", "malformed header item 'foo'", 4),
    ("# id=a lang=en origin=D_S foo=1\nx\n", "unknown field 'foo'", 4),
    ("# id=a lang=en\nx\n", "missing field 'origin'", 4),
    ("# id=a lang=en origin=D_S tokens=x\nx\n", "field 'tokens' must be a list of strings", 4),
    ("# id=a lang=en origin=D_S mask=0\nx\t0\n", "field 'mask' must be a list of 0/1 integers", 4),
    ("# id=a lang=en origin=D_S\n", "tokens must be non-empty", 4),
    ("# id=a lang=es origin=D_S\nx\n", "D_S sentences must have language 'en'", 4),
], ids=["row-before-header", "three-columns", "mask-then-none", "none-then-mask", "mask-2",
        "malformed-item", "unknown-item", "missing-field", "header-tokens", "header-mask",
        "no-rows", "bad-record"])
def test_tsv_error_names_file_and_line(tmp_path, text, problem, line):
    path = tmp_path / "c.tsv"
    path.write_text(TSV_GOOD + text)
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(path, format="tsv")
    assert str(info.value) == f"{path}: {problem} at line {line}"


@pytest.mark.parametrize("format, good", [
    ("jsonl", '{{"id": "a{}", "lang": "en", "tokens": ["x"], "origin": "D_S"}}\n'),
    ("tsv", "# id=a{} lang=en origin=D_S\nx\n\n"),
], ids=["jsonl", "tsv"])
@pytest.mark.parametrize("before", [1, 3000], ids=["first-chunk", "later-chunk"])
def test_text_that_is_not_utf8_names_file_and_line(tmp_path, format, good, before):
    path = tmp_path / f"c.{format}"
    text = "".join(map(good.format, range(before)))
    path.write_bytes(text.encode() + b"caf\xe9\n")
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(path, format=format)
    line = text.count("\n") + 1
    assert str(info.value) == f"{path} line {line}: not UTF-8 text: invalid continuation byte"


def json_loads_reference(path):
    """The records of a JSONL file through ``json.loads`` alone, and the message
    of the first line that is not JSON (None if none)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                return records, f"{path} line {lineno}: invalid JSON: {exc.msg}"
    return records, None


@pytest.mark.parametrize("text", [
    '{"id": 1}\n\n  \t\n{"id": 2}\n',
    '  \t{"id": 1}\n',
    '\ufeff{"id": 1}\n',
    '{"id": 1} x\n',
    '{"id": 1}{"id": 2}\n',
    '{"id": 1}\n\u00a0{"id": 2}\n',
    '{"id": 1}\u00a0\n',
    '\u00a0\n{"id": 1}\u3000\n',
    '{"id": 1} \t\r\n[2]\r{"id": 3}',
    '{"id": 1',
    '{"id": [1,]}\n',
    "hello\n",
], ids=["blank-lines", "leading-whitespace", "bom", "trailing-garbage", "two-values",
        "nbsp-before", "nbsp-after", "nbsp-blank-line", "json-whitespace-after", "truncated",
        "trailing-comma", "not-json"])
def test_jsonl_lines_read_as_json_loads_reads_them(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    records, message = json_loads_reference(path)
    got = []
    with pytest.raises(CorpusFormatError) if message else contextlib.nullcontext() as info:
        got.extend(read_jsonl(path))
    assert got == records
    assert (str(info.value) if message else None) == message


# ---------------------------------------------------------------------------
# the loader, which checks a chunk of records at once, against the loop that
# checked one record at a time


def reference_record(record):
    """A record's sentence by the checks the loader ran one record at a time."""
    if not isinstance(record, dict):
        raise CorpusFormatError("record is not an object")
    if not record.keys() <= {"id", "lang", "tokens", "emotion", "mask", "origin", "bilingual"}:
        unknown = record.keys() - {"id", "lang", "tokens", "emotion", "mask", "origin", "bilingual"}
        raise CorpusFormatError(f"unknown field {sorted(unknown)[0]!r}")
    for req in ("id", "lang", "tokens", "origin"):
        if req not in record:
            raise CorpusFormatError(f"missing field {req!r}")
    tokens = record["tokens"]
    try:
        if not isinstance(tokens, list):
            raise TypeError
        joined = "\0".join(tokens)
    except TypeError:
        raise CorpusFormatError("field 'tokens' must be a list of strings") from None
    mask = record.get("mask")
    if mask is not None and not (isinstance(mask, list) and set(map(type, mask)) <= {int}):
        raise CorpusFormatError("field 'mask' must be a list of 0/1 integers")
    bilingual = record.get("bilingual", False)
    if type(bilingual) is not bool:
        raise CorpusFormatError("field 'bilingual' must be true or false")
    sid = str(record["id"])
    for name, text in (("id", sid), ("tokens", joined)):
        if any("\ud800" <= ch <= "\udfff" for ch in text):
            raise CorpusFormatError(f"field {name!r} holds an unpaired surrogate escape")
    tokens = [unicodedata.normalize("NFC", t) for t in tokens]
    sent = AnnotatedSentence(
        id=unicodedata.normalize("NFC", sid),
        tokens=tokens,
        language=str(record["lang"]),
        origin=DatasetTag.from_string(str(record["origin"])),
        emotion=None if record.get("emotion") is None else EmotionLabel.from_string(record["emotion"]),
        trigger_mask=mask,
        bilingual=bilingual,
    )
    if not sent.id:
        raise CorpusFormatError("empty id")
    if not sent.tokens:
        raise CorpusFormatError("tokens must be non-empty")
    for tok in sent.tokens:
        if not tok:
            raise CorpusFormatError("empty token")
        if any(ch.isspace() for ch in tok):
            raise CorpusFormatError(f"token contains whitespace: {tok!r}")
    if sent.language not in LANGUAGES:
        raise CorpusFormatError(f"unknown language {sent.language!r}; expected one of {LANGUAGES}")
    if mask is not None:
        if len(mask) != len(sent.tokens):
            raise CorpusFormatError("mask length mismatch")
        if mask.count(0) + mask.count(1) != len(mask):
            raise CorpusFormatError("mask values must be 0 or 1")
    if sent.origin is DatasetTag.D_S and sent.language != "en":
        raise CorpusFormatError("D_S sentences must have language 'en'")
    if sent.origin is DatasetTag.D_T and sent.language == "en":
        raise CorpusFormatError("D_T sentences must have a non-English language")
    return sent


def load_reference(path, format="jsonl", seen=None):
    """``load_corpus`` as one loop that checks each record as it is read."""
    path = Path(path)
    records = read_jsonl(path) if format == "jsonl" else corpus_module._read_tsv(path)
    seen = {} if seen is None else seen
    sentences = []
    for lineno, record in records:
        try:
            sent = reference_record(record)
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}: {exc} at line {lineno}") from None
        check_new_id(seen, sent.id, path, lineno)
        sentences.append(sent)
    return Corpus(sentences=sentences)


def _loaded(load, paths, format):
    """The sentences of files loaded one after another with one ``seen``, or the error."""
    seen = {}
    try:
        return "ok", [load(path, format=format, seen=seen).sentences for path in paths]
    except Exception as exc:  # the type and text are what is compared
        return "error", type(exc), str(exc)


# Faults beyond FAULTS that a record can carry.
MORE_FAULTS = {
    "not-an-object": lambda r, draw: draw(st.sampled_from([[1], "x", None, 3])),
    "surrogate-id": lambda r, draw: {**r, "id": "a\ud800"},
    "surrogate-token": lambda r, draw: {**r, "tokens": ["\udc00b"] + r["tokens"]},
    "whitespace-token": lambda r, draw: {**r, "tokens": r["tokens"] + ["a\u3000b"],
                                         **({"mask": r["mask"] + [0]} if "mask" in r else {})},
    "empty-token": lambda r, draw: {**r, "tokens": [""] + r["tokens"],
                                    **({"mask": [0] + r["mask"]} if "mask" in r else {})},
    "decomposed": lambda r, draw: {**r, "id": r["id"] + "e\u0301",
                                   "tokens": ["é"] + r["tokens"],
                                   **({"mask": [0] + r["mask"]} if "mask" in r else {})},
}


# A line's defects, beside a record's faults; "blank" is no defect.
LINE_DEFECTS = {
    "bad-json": lambda line, draw: draw(st.sampled_from([b'{"id": \n', b"[1,]\n", b'{"id": 1} x\n'])),
    "not-utf8": lambda line, draw: line[:-2] + b"\xe9" + line[-2:],
    "blank": lambda line, draw: b" \t\n" + line,
}


def jsonl_text(records, defects, draw) -> bytes:
    """JSONL lines of the records, with each record's faults and line defects."""
    lines = []
    for record, defect in zip(records, defects):
        if defect in FAULTS:
            if defect.startswith("mask") and "mask" not in record:
                record["mask"] = [0] * len(record["tokens"])
            FAULTS[defect](record, draw)
        elif defect in MORE_FAULTS:
            record = MORE_FAULTS[defect](record, draw)
        line = json.dumps(record).encode() + b"\n"
        lines.append(LINE_DEFECTS[defect](line, draw) if defect in LINE_DEFECTS else line)
    return b"".join(lines)


# A TSV sentence's defects: each changes the header items or the token rows.
TSV_DEFECTS = {
    "unknown-item": lambda items, rows: items.append("extra=1"),
    "missing-item": lambda items, rows: items.pop(1),
    "malformed-item": lambda items, rows: items.append("junk"),
    "origin": lambda items, rows: items.append("origin=D_X"),
    "lang": lambda items, rows: items.append("lang=xx"),
    "mismatched": lambda items, rows: items.append("lang=es"),
    "emotion": lambda items, rows: items.append("emotion=joy"),
    "bilingual": lambda items, rows: items.append("bilingual=yes"),
    "no-rows": lambda items, rows: rows.clear(),
    "three-columns": lambda items, rows: rows.append("x\t0\t1"),
    "mask-value": lambda items, rows: rows.append("x\t2"),
    "mixed-columns": lambda items, rows: rows.extend(["x", "y\t1"]),
    "whitespace-token": lambda items, rows: rows.append("a\u3000b"),
    "decomposed": lambda items, rows: rows.append("e\u0301"),
    "orphan-row": lambda items, rows: rows.extend(["", "orphan"]),
    "not-utf8": lambda items, rows: rows.append("caf\udce9"),
}


def tsv_text(records, defects, draw) -> bytes:
    """TSV sentences of the records, each with its defect; a later header item
    of the same key overrides an earlier one."""
    blocks = []
    for record, defect in zip(records, defects):
        items = [f"id={record['id']}", f"lang={record['lang']}", f"origin={record['origin']}"]
        if record.get("emotion"):
            items.append(f"emotion={record['emotion']}")
        rows = record["tokens"] if "mask" not in record else [
            f"{token}\t{value}" for token, value in zip(record["tokens"], record["mask"])]
        if defect in TSV_DEFECTS:
            TSV_DEFECTS[defect](items, rows)
        blocks.append("\n".join(["# " + " ".join(items)] + rows) + "\n\n")
    return "".join(blocks).encode("utf-8", "surrogateescape")


@st.composite
def corpus_files(draw, format):
    """One to three corpus files of up to 12 records each, with no, one or
    several defects: a fault of a record, of a line, or an id used before."""
    texts, ids = [], []
    defect_names = (sorted(FAULTS) + sorted(MORE_FAULTS) + sorted(LINE_DEFECTS)
                    if format == "jsonl" else sorted(TSV_DEFECTS))
    for _ in range(draw(st.integers(1, 3))):
        records = []
        for _ in range(draw(st.integers(0, 12))):
            tokens = draw(st.lists(st.sampled_from(["a", "bc", "é", "e\u0301", "Zz"]),
                                   min_size=1, max_size=4))
            ids.append(f"s{len(ids)}")
            record = {"id": ids[-1], "lang": "en", "tokens": tokens, "origin": "D_S"}
            if draw(st.booleans()):
                record["mask"] = draw(st.lists(st.integers(0, 1), min_size=len(tokens),
                                               max_size=len(tokens)))
            if draw(st.booleans()):
                record["emotion"] = draw(st.sampled_from(["Joy", "Fear", None]))
            records.append(record)
        defects = [None] * len(records)
        for _ in range(draw(st.integers(0, 3)) if records else 0):
            at = draw(st.integers(0, len(records) - 1))
            defects[at] = draw(st.sampled_from(defect_names + ["duplicate"]))
            if defects[at] == "duplicate":
                records[at]["id"] = draw(st.sampled_from(ids))
        texts.append((jsonl_text if format == "jsonl" else tsv_text)(records, defects, draw))
    return texts


@settings(max_examples=400, deadline=None)
@given(data=st.data(), format=st.sampled_from(["jsonl", "tsv"]),
       chunk=st.sampled_from([1, 2, 3, 256]))
def test_loading_by_chunks_equals_loading_record_by_record(data, format, chunk):
    """Files that span many chunks: the same sentences, or the same error."""
    texts = data.draw(corpus_files(format))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(corpus_module, "_CHUNK_RECORDS", chunk):
        paths = [Path(tmp) / f"c{i}.{format}" for i in range(len(texts))]
        for path, text in zip(paths, texts):
            path.write_bytes(text)
        assert _loaded(load_corpus, paths, format) == _loaded(load_reference, paths, format)


@pytest.mark.parametrize("format", ["jsonl", "tsv"])
def test_the_first_of_several_defects_in_file_order_is_reported(tmp_path, monkeypatch, format):
    monkeypatch.setattr(corpus_module, "_CHUNK_RECORDS", 4)
    good = [{"id": f"s{i}", "lang": "en", "tokens": ["x"], "origin": "D_S"} for i in range(12)]
    good[5]["id"] = "s1"          # a duplicate id: the rule checked last, on the first bad record
    good[6]["lang"] = "xx"        # earlier rules broken by later records of the same chunk
    good[7]["origin"] = "D_X"
    good[9]["tokens"] = ["a b"]   # and by a record of a later chunk
    path = tmp_path / f"c.{format}"
    if format == "jsonl":
        write_jsonl(good, path)
        line, first = 6, 2
    else:
        path.write_text("".join(
            f"# id={r['id']} lang={r['lang']} origin={r['origin']}\n{r['tokens'][0]}\n\n"
            for r in good), encoding="utf-8")
        line, first = 16, 4
    with pytest.raises(CorpusFormatError) as info:
        load_corpus(path, format=format)
    assert str(info.value) == f"{path} line {line}: duplicate id 's1', first at line {first}"


# One fault each, in the order the loader checks them; a field set to _DROP is left out.
_DROP = object()
ORDERED_FAULTS = {
    "unknown-field": {"extra": 1},
    "missing-field": {"lang": _DROP},
    "tokens-type": {"tokens": "a b"},
    "token-type": {"tokens": ["a", 1]},
    "mask-type": {"mask": [0, True]},
    "bilingual": {"bilingual": 0},
    "surrogate-id": {"id": "s\ud800"},
    "surrogate-token": {"tokens": ["a", "\udc00"]},
    "origin": {"origin": "D_X"},
    "emotion": {"emotion": "joy"},
    "empty-id": {"id": ""},
    "no-tokens": {"tokens": []},
    "empty-token": {"tokens": ["a", ""]},
    "whitespace-token": {"tokens": ["a", "b c"]},
    "lang": {"lang": "xx"},
    "mask-length": {"mask": [0]},
    "mask-value": {"mask": [0, 2]},
    "mismatched": {"lang": "es"},
    "duplicate": {"id": "s0"},
}


def _faulty_file(path, *faults):
    """A valid record, then a record with the faults, the later overriding the earlier."""
    valid = {"id": "s0", "lang": "en", "tokens": ["a", "b"], "mask": [0, 1], "emotion": "Joy",
             "origin": "D_S"}
    record = {**valid, "id": "s1"}
    for fault in faults:
        record.update(ORDERED_FAULTS[fault])
    record = {key: value for key, value in record.items() if value is not _DROP}
    path.write_text(json.dumps(valid) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("chunk", [1, 256])
def test_a_record_with_two_faults_reports_the_rule_checked_first(tmp_path, monkeypatch, chunk):
    """Every ordered pair of faults in one record: the error of a record-at-a-time
    reading, which for faults in two fields is the error of the one checked first."""
    monkeypatch.setattr(corpus_module, "_CHUNK_RECORDS", chunk)
    names = list(ORDERED_FAULTS)
    for first, second in itertools.permutations(names, 2):
        path = _faulty_file(tmp_path / "two.jsonl", first, second)
        got = _loaded(load_corpus, [path], "jsonl")
        assert got == _loaded(load_reference, [path], "jsonl"), (first, second)
        if not ORDERED_FAULTS[first].keys() & ORDERED_FAULTS[second].keys():
            one = _faulty_file(tmp_path / "one.jsonl", min(first, second, key=names.index))
            want = _loaded(load_reference, [one], "jsonl")
            assert got[2].replace("two.jsonl", "one.jsonl") == want[2], (first, second)


# ---------------------------------------------------------------------------
# writing a chunk of lines at a time

# Text that JSON escapes or that UTF-8 writes in four bytes: quotes, controls,
# the line and paragraph separators, and characters beyond the BMP.
json_text = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                              st.sampled_from(['"', "\\", "\n", "\x00", "\u2028", "\u2029",
                                               "\U0001f600", "\U00010000"])), max_size=8)
json_scalars = (st.none() | st.booleans() | json_text | st.floats()
                | st.integers(-10**60, 10**60) | st.sampled_from([float("nan"), float("inf"),
                                                                  -float("inf"), -0.0]))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(st.dictionaries(st.one_of(json_text, st.integers(), st.booleans()),
                                        json_values, max_size=4), max_size=8),
       chunk=st.sampled_from([1, 3, 256]))
def test_written_lines_are_json_dumps_lines(records, chunk):
    want = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(corpus_module, "_CHUNK_RECORDS", chunk):
        write_jsonl(records, Path(tmp) / "c.jsonl")
        assert (Path(tmp) / "c.jsonl").read_bytes() == want
    assert [encode_json(r) for r in records] == [json.dumps(r, ensure_ascii=False) for r in records]


@pytest.mark.parametrize("value", [object(), {1, 2}, b"x", 1j, {(1, 2): 3}])
def test_a_value_json_cannot_write_is_the_type_error_of_json_dumps(tmp_path, value):
    record = {"id": "a", "value": [value]}
    with pytest.raises(TypeError) as want:
        json.dumps(record, ensure_ascii=False)
    with pytest.raises(TypeError) as got:
        write_jsonl([{"id": "b"}, record], tmp_path / "c.jsonl")
    assert str(got.value) == str(want.value)
    with pytest.raises(TypeError) as got:
        encode_json(record)
    assert str(got.value) == str(want.value)


def test_load_and_save_scratch_does_not_grow_with_the_corpus(tmp_path):
    """A corpus four times as large loads and saves with the same scratch memory
    above what the loaded corpus and its ids hold."""
    scratch = []
    for size in (1024, 4096):
        path = tmp_path / f"c{size}.jsonl"
        write_jsonl(({"id": f"s{i}", "lang": "en", "tokens": [f"w{i % 97}", "the", f"x{i}"] * 4,
                      "mask": [0, 1, 0] * 4, "emotion": "Joy", "origin": "D_S"}
                     for i in range(size)), path)
        tracemalloc.start()
        try:
            seen = {}
            corpus = load_corpus(path, seen=seen)
            held, load_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            save_corpus(corpus, tmp_path / "out.jsonl")
            save_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch.append((load_peak - held, save_peak - held))
    (load_1x, save_1x), (load_4x, save_4x) = scratch
    assert load_4x <= 1.1 * load_1x + 32 * 1024
    assert save_4x <= 1.1 * save_1x + 32 * 1024
