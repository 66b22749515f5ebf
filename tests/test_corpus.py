import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlproject.corpus import (
    AnnotatedSentence,
    Corpus,
    CorpusFormatError,
    DatasetTag,
    EmotionLabel,
    label_distribution,
    load_corpus,
    save_corpus,
    split_train_validation,
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

    def test_tsv_token_with_tab_rejected(self, tmp_path):
        bad = AnnotatedSentence(
            id="a", tokens=["x\ty"], language="en", origin=DatasetTag.D_S
        )
        with pytest.raises(CorpusFormatError, match="token contains delimiter"):
            save_corpus(Corpus(sentences=[bad]), tmp_path / "c.tsv", format="tsv")

    def test_provenance_round_trips_via_sidecar(self, tmp_path):
        corpus = Corpus(sentences=[make_sentence()], provenance={"note": "hello"})
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert (tmp_path / "c.jsonl.provenance.json").exists()
        assert load_corpus(path) == corpus

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

    def test_seed_recorded_in_provenance(self):
        corpus = Corpus(sentences=[make_sentence(i) for i in range(4)])
        train, val = split_train_validation(corpus, 0.25, seed=9)
        assert train.provenance["split_seed"] == 9
        assert val.provenance["split_stratified"] is False

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
