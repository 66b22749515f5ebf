import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest
import yaml

from xlproject.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    LlmResponseError,
    main,
    parse_llm_response,
)
from xlproject.corpus import Corpus, EmotionLabel, load_corpus, save_corpus
from xlproject.synthetic import mock_translation_table, synthetic_corpus
from xlproject.training import LoraConfig, TrainConfig, load_model, save_model, train


class TestParseLlmResponse:
    def test_plain_format(self):
        assert parse_llm_response("Label: Joy") is EmotionLabel.JOY

    def test_case_and_quote_tolerance(self):
        assert parse_llm_response("label:  'sadness'.") is EmotionLabel.SADNESS

    def test_surrounding_chatter(self):
        text = "Sure! Based on the tweet, my answer is Label: “Anger”. Hope that helps."
        assert parse_llm_response(text) is EmotionLabel.ANGER

    def test_out_of_vocabulary_rejected(self):
        with pytest.raises(LlmResponseError):
            parse_llm_response("I think it is happy")

    def test_invalid_word_after_label_rejected(self):
        with pytest.raises(LlmResponseError):
            parse_llm_response("Label: Happiness")

    def test_later_valid_label_found(self):
        assert parse_llm_response("Label: output follows. Label: Fear") is EmotionLabel.FEAR


class TestCommands:
    def test_split_sizes(self, tmp_path):
        corpus = synthetic_corpus(50, seed=0)
        inp = tmp_path / "all.jsonl"
        save_corpus(corpus, inp)
        code = main([
            "split", "--input", str(inp), "--fraction", "0.10", "--seed", "42",
            "--output-train", str(tmp_path / "train.jsonl"),
            "--output-validation", str(tmp_path / "val.jsonl"),
        ])
        assert code == EXIT_OK
        assert len(load_corpus(tmp_path / "train.jsonl")) == 45
        assert len(load_corpus(tmp_path / "val.jsonl")) == 5
        sidecar = json.loads((tmp_path / "train.jsonl.provenance.json").read_text())
        assert sidecar["command"] == "split"
        assert sidecar["split_seed"] == 42

    def test_split_rejects_an_empty_half(self, tmp_path, capsys):
        save_corpus(synthetic_corpus(1, seed=0), tmp_path / "one.jsonl")
        code = main([
            "split", "--input", str(tmp_path / "one.jsonl"), "--fraction", "0.10",
            "--output-train", str(tmp_path / "train.jsonl"),
            "--output-validation", str(tmp_path / "val.jsonl"),
        ])
        assert code == EXIT_DATA
        assert "validation half empty" in capsys.readouterr().err
        assert not (tmp_path / "val.jsonl").exists()

    @pytest.mark.parametrize("value", [0, "lots", 65, True])
    def test_project_rejects_bad_parallelism_in_config(self, tmp_path, capsys, value):
        save_corpus(synthetic_corpus(2, seed=1), tmp_path / "ds.jsonl")
        config = tmp_path / "conf.yaml"
        config.write_text(yaml.safe_dump({"mt": {"parallelism": value}}))
        code = main([
            "project", "--input", str(tmp_path / "ds.jsonl"), "--output", str(tmp_path / "o.jsonl"),
            "--tgt", "es", "--config", str(config),
        ])
        assert code == EXIT_CONFIG
        assert "parallelism must be an integer from 1 to 64" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()

    def test_project_rejects_zero_parallelism_flag(self, tmp_path):
        save_corpus(synthetic_corpus(2, seed=1), tmp_path / "ds.jsonl")
        code = main([
            "project", "--input", str(tmp_path / "ds.jsonl"), "--output", str(tmp_path / "o.jsonl"),
            "--tgt", "es", "--parallelism", "0",
        ])
        assert code == EXIT_CONFIG

    def test_project_names_a_corrupt_cache_entry(self, tmp_path, capsys):
        save_corpus(synthetic_corpus(2, seed=1), tmp_path / "ds.jsonl")
        argv = [
            "project", "--input", str(tmp_path / "ds.jsonl"), "--output", str(tmp_path / "o.jsonl"),
            "--tgt", "es", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == EXIT_OK
        entry = sorted((tmp_path / "cache").rglob("*.json"))[0]
        entry.write_text(entry.read_text()[:20])
        assert main(argv) == EXIT_DATA
        assert str(entry) in capsys.readouterr().err

    def test_project_identity_no_discards(self, tmp_path):
        corpus = synthetic_corpus(20, seed=1)
        inp = tmp_path / "ds.jsonl"
        save_corpus(corpus, inp)
        out = tmp_path / "dt.jsonl"
        code = main([
            "project", "--input", str(inp), "--output", str(out),
            "--backend", "identity", "--src", "en", "--tgt", "es",
        ])
        assert code == EXIT_OK
        projected = load_corpus(out)
        assert len(projected) == 20
        by_id = {s.id: s for s in projected}
        for sentence in corpus.sentences:
            out_sentence = by_id[f"{sentence.id}@es"]
            assert out_sentence.trigger_mask == sentence.trigger_mask
            assert out_sentence.language == "es"
        discards = (tmp_path / "dt.jsonl.discards.jsonl").read_text()
        assert discards == ""
        assert (tmp_path / "dt.jsonl.pairs.jsonl").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        code = main([
            "project", "--input", str(tmp_path / "nope.jsonl"),
            "--output", str(tmp_path / "out.jsonl"), "--tgt", "es",
        ])
        assert code == EXIT_DATA

    def test_remote_without_cache_is_config_error(self, tmp_path):
        corpus = synthetic_corpus(2, seed=1)
        inp = tmp_path / "ds.jsonl"
        save_corpus(corpus, inp)
        config = tmp_path / "conf.yaml"
        config.write_text("mt:\n  endpoint: http://localhost:9/translate\n")
        code = main([
            "project", "--input", str(inp), "--output", str(tmp_path / "o.jsonl"),
            "--backend", "remote", "--tgt", "es", "--config", str(config),
        ])
        assert code == EXIT_CONFIG

    def test_remote_failure_is_backend_error(self, tmp_path):
        corpus = synthetic_corpus(2, seed=1)
        inp = tmp_path / "ds.jsonl"
        save_corpus(corpus, inp)
        config = tmp_path / "conf.yaml"
        # closed port: connection refused after retries
        config.write_text("mt:\n  endpoint: http://127.0.0.1:9/translate\n")
        code = main([
            "project", "--input", str(inp), "--output", str(tmp_path / "o.jsonl"),
            "--backend", "remote", "--tgt", "es", "--config", str(config),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == EXIT_BACKEND

    def test_train_rejects_bad_lr(self, tmp_path):
        corpus = synthetic_corpus(10, seed=2)
        inp = tmp_path / "c.jsonl"
        save_corpus(corpus, inp)
        code = main([
            "train", "--input", str(inp), "--task", "trigger", "--lr", "0.001",
            "--output", str(tmp_path / "m.npz"),
        ])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("decay", ["nan", "-5", "inf"])
    def test_train_rejects_bad_weight_decay(self, tmp_path, capsys, decay):
        corpus = synthetic_corpus(10, seed=2)
        inp = tmp_path / "c.jsonl"
        save_corpus(corpus, inp)
        code = main([
            "train", "--input", str(inp), "--task", "trigger", f"--weight-decay={decay}",
            "--feature-dim", "1024", "--output", str(tmp_path / "m.npz"),
        ])
        assert code == EXIT_CONFIG
        assert "weight_decay" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("task, field", [("emotion", "emotion"), ("trigger", "trigger_mask")])
    def test_train_rejects_unlabelled_validation(self, tmp_path, capsys, task, field):
        save_corpus(synthetic_corpus(10, seed=2), tmp_path / "c.jsonl")
        validation = synthetic_corpus(4, seed=3, id_prefix="v")
        validation.sentences[2] = dataclasses.replace(validation.sentences[2], **{field: None})
        save_corpus(validation, tmp_path / "val.jsonl")
        code = main([
            "train", "--input", str(tmp_path / "c.jsonl"), "--task", task,
            "--validation", str(tmp_path / "val.jsonl"), "--feature-dim", "1024",
            "--output", str(tmp_path / "m.npz"),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(tmp_path / "val.jsonl") in err
        assert repr(validation.sentences[2].id) in err
        assert not (tmp_path / "m.npz").exists()

    def test_parse_llm_file(self, tmp_path):
        inp = tmp_path / "responses.tsv"
        inp.write_text(
            "id1\tLabel: Joy\n"
            "id2\tlabel: 'sadness'.\n"
            "id3\ttotally confused\n"
        )
        out = tmp_path / "labels.tsv"
        code = main(["parse-llm", "--input", str(inp), "--output", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == "id1\tJoy\nid2\tSadness\n"
        errors = [json.loads(l) for l in (tmp_path / "labels.tsv.errors.jsonl").read_text().splitlines()]
        assert len(errors) == 1 and errors[0]["id"] == "id3"

    def test_parse_llm_fallback_neutral(self, tmp_path):
        inp = tmp_path / "responses.tsv"
        inp.write_text("id1\tno label here\n")
        out = tmp_path / "labels.tsv"
        code = main(["parse-llm", "--input", str(inp), "--output", str(out), "--fallback-neutral"])
        assert code == EXIT_OK
        assert out.read_text() == "id1\tNeutral\n"

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "xlproject", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "split" in result.stdout
        assert "exit codes" in result.stdout

    def test_evaluate_matches_hand_computed_oracle(self, tmp_path):
        # two emotion instances (one right), two masked instances with
        # known token F1 (1.0 and 2/3) and known importance sums
        from xlproject.corpus import AnnotatedSentence, Corpus, DatasetTag

        gold = Corpus(sentences=[
            AnnotatedSentence(id="g1", tokens=["a", "b", "c", "d"], language="en",
                              origin=DatasetTag.D_S, emotion=EmotionLabel.JOY,
                              trigger_mask=[0, 1, 1, 0]),
            AnnotatedSentence(id="g2", tokens=["e", "f"], language="en",
                              origin=DatasetTag.D_S, emotion=EmotionLabel.LOVE,
                              trigger_mask=[1, 0]),
        ])
        save_corpus(gold, tmp_path / "gold.jsonl")
        predictions = [
            {"id": "g1", "emotion": "Joy", "mask": [0, 1, 0, 0],
             "numeric": [0.0, 0.5, 0.3, 0.2]},
            {"id": "g2", "emotion": "Joy", "mask": [1, 0], "numeric": [0.9, 0.1]},
        ]
        with open(tmp_path / "pred.jsonl", "w") as handle:
            for record in predictions:
                handle.write(json.dumps(record) + "\n")
        code = main([
            "evaluate", "--gold", str(tmp_path / "gold.jsonl"),
            "--predictions", str(tmp_path / "pred.jsonl"),
            "--output", str(tmp_path / "report.json"),
            "--confusion-csv", str(tmp_path / "confusion.csv"),
        ])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        # macro F1 by hand: Joy TP=1 FP=1 FN=0 -> 2/3; Love TP=0 FN=1 -> 0; mean 1/3
        assert report["macro_f1"] == pytest.approx(1 / 3)
        # token F1 by hand: g1 -> 2TP/(2TP+FP+FN) = 2/3... TP=1 FN=1 -> 2/3; g2 -> 1.0
        assert report["token_f1"] == pytest.approx((2 / 3 + 1.0) / 2)
        # importance: g1 mass on gold triggers 0.5+0.3, g2 0.9; mean 0.85
        assert report["accumulated_importance"] == pytest.approx((0.8 + 0.9) / 2)
        assert report["skipped_no_trigger"] == 0
        assert (tmp_path / "confusion.csv").read_text().startswith("gold\\pred,")


class TestPredict:
    def predict(self, tmp_path, model, corpus):
        save_corpus(corpus, tmp_path / "test.jsonl")
        code = main([
            "predict", "--model", str(model), "--input", str(tmp_path / "test.jsonl"),
            "--output", str(tmp_path / "pred.jsonl"),
        ])
        return code, tmp_path / "pred.jsonl"

    def trained_model(self, tmp_path, task, lora):
        config = TrainConfig(epochs=3, batch_size=8, seed=0, feature_dim=512, lora=lora)
        trained = train(synthetic_corpus(30, seed=5), task, config)
        save_model(trained, tmp_path / "model.npz")
        return tmp_path / "model.npz"

    @pytest.mark.parametrize("task", ["emotion", "trigger"])
    @pytest.mark.parametrize("lora", [None, LoraConfig(rank=3, alpha=8.0)], ids=["plain", "lora"])
    def test_same_bytes_as_per_sentence_predictions(self, tmp_path, task, lora):
        model = self.trained_model(tmp_path, task, lora)
        test = synthetic_corpus(25, seed=6, id_prefix="t")
        code, predictions = self.predict(tmp_path, model, test)
        assert code == EXIT_OK
        loaded = load_model(model)
        records = []
        for s in test.sentences:
            if task == "emotion":
                records.append({"id": s.id, "emotion": loaded.predict_emotion(s).value})
            else:
                records.append({
                    "id": s.id, "mask": loaded.predict_mask(s),
                    "numeric": loaded.predict_numeric(s),
                })
        expected = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)
        assert predictions.read_text(encoding="utf-8") == expected
        if task == "trigger":  # the logits differ between tokens
            assert any(len(set(r["numeric"])) > 1 for r in records)
        else:
            assert len({r["emotion"] for r in records}) > 1

    @pytest.mark.parametrize("task", ["emotion", "trigger"])
    def test_empty_input_writes_empty_predictions(self, tmp_path, task):
        model = self.trained_model(tmp_path, task, None)
        code, predictions = self.predict(tmp_path, model, Corpus())
        assert code == EXIT_OK
        assert predictions.read_bytes() == b""

    @pytest.mark.parametrize("section, key", [("feature", "dim"), ("lora", "rank")])
    def test_checkpoint_disagreeing_with_metadata_rejected(self, tmp_path, capsys, section, key):
        model = self.trained_model(tmp_path, "trigger", LoraConfig(rank=3, alpha=8.0))
        with np.load(model) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta[section][key] *= 2
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(model, "wb") as handle:
            np.savez(handle, **arrays)
        code, predictions = self.predict(tmp_path, model, synthetic_corpus(3, seed=6))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(model) in err and "metadata" in err
        assert not predictions.exists()


class TestEvaluatePredictionsFile:
    def evaluate(self, tmp_path, lines):
        gold = synthetic_corpus(2, seed=1)
        save_corpus(gold, tmp_path / "gold.jsonl")
        (tmp_path / "pred.jsonl").write_text("".join(line + "\n" for line in lines))
        return gold, main([
            "evaluate", "--gold", str(tmp_path / "gold.jsonl"),
            "--predictions", str(tmp_path / "pred.jsonl"),
            "--output", str(tmp_path / "report.json"),
        ])

    def test_duplicate_id_rejected_with_both_lines(self, tmp_path, capsys):
        gold = synthetic_corpus(2, seed=1)
        first, second = (json.dumps({"id": s.id, "emotion": "Joy"}) for s in gold.sentences)
        _, code = self.evaluate(tmp_path, [first, second, "", first])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 4: duplicate id" in err and "first at line 1" in err
        assert not (tmp_path / "report.json").exists()

    def test_malformed_line_names_its_number(self, tmp_path, capsys):
        gold = synthetic_corpus(2, seed=1)
        first = json.dumps({"id": gold.sentences[0].id, "emotion": "Joy"})
        _, code = self.evaluate(tmp_path, [first, '{"id": "x", "emotion": '])
        assert code == EXIT_DATA
        assert "pred.jsonl line 2: invalid JSON" in capsys.readouterr().err

    def test_ids_missing_from_gold_rejected(self, tmp_path, capsys):
        gold = synthetic_corpus(2, seed=1)
        lines = [json.dumps({"id": s.id, "emotion": "Joy"}) for s in gold.sentences]
        extra = [json.dumps({"id": f"x{i}", "emotion": "Joy"}) for i in range(7)]
        _, code = self.evaluate(tmp_path, lines + extra)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "7 prediction ids not in" in err
        assert "['x0', 'x1', 'x2', 'x3', 'x4']" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("line", ['["not", "an", "object"]', '{"id": ["x"]}', "{}"])
    def test_record_without_string_id_rejected(self, tmp_path, capsys, line):
        _, code = self.evaluate(tmp_path, [line])
        assert code == EXIT_DATA
        assert "line 1: expected an object with a string 'id'" in capsys.readouterr().err


def run_pipeline(root, seed=7):
    """Drive split -> project -> switch -> combine -> train -> predict -> evaluate."""
    root.mkdir(parents=True, exist_ok=True)
    corpus = synthetic_corpus(80, seed=3)
    save_corpus(corpus, root / "d_s_all.jsonl")
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump({"mt": {"mock_dictionary": mock_translation_table()}}))

    def run(argv):
        assert main(argv) == EXIT_OK

    run([
        "split", "--input", str(root / "d_s_all.jsonl"), "--fraction", "0.10",
        "--seed", str(seed),
        "--output-train", str(root / "d_s.jsonl"),
        "--output-validation", str(root / "val.jsonl"),
    ])
    run([
        "project", "--input", str(root / "d_s.jsonl"), "--output", str(root / "d_t.jsonl"),
        "--backend", "mock", "--config", str(config), "--src", "en", "--tgt", "es",
        "--cache-dir", str(root / "cache"),
    ])
    run([
        "switch", "--source", str(root / "d_s.jsonl"), "--target", str(root / "d_t.jsonl"),
        "--output-st", str(root / "d_st.jsonl"), "--output-ts", str(root / "d_ts.jsonl"),
    ])
    run([
        "combine", "--combine", "D_S+D_T+D_St+D_Ts",
        "--d-s", str(root / "d_s.jsonl"), "--d-t", str(root / "d_t.jsonl"),
        "--d-st", str(root / "d_st.jsonl"), "--d-ts", str(root / "d_ts.jsonl"),
        "--output", str(root / "train_all.jsonl"),
    ])
    run([
        "train", "--input", str(root / "train_all.jsonl"), "--task", "trigger",
        "--lr", "2e-4", "--epochs", "3", "--batch-size", "16", "--seed", str(seed),
        "--feature-dim", "4096", "--output", str(root / "model.npz"),
    ])
    run([
        "predict", "--model", str(root / "model.npz"), "--input", str(root / "val.jsonl"),
        "--output", str(root / "predictions.jsonl"),
    ])
    run([
        "evaluate", "--gold", str(root / "val.jsonl"),
        "--predictions", str(root / "predictions.jsonl"),
        "--output", str(root / "report.json"),
    ])


class TestPipeline:
    def test_full_pipeline_composes(self, tmp_path):
        run_pipeline(tmp_path / "run")
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert 0.0 <= report["token_f1"] <= 1.0
        assert 0.0 <= report["accumulated_importance"] <= 1.0
        combined = load_corpus(tmp_path / "run" / "train_all.jsonl")
        d_s = load_corpus(tmp_path / "run" / "d_s.jsonl")
        d_t = load_corpus(tmp_path / "run" / "d_t.jsonl")
        d_st = load_corpus(tmp_path / "run" / "d_st.jsonl")
        d_ts = load_corpus(tmp_path / "run" / "d_ts.jsonl")
        assert len(combined) == len(d_s) + len(d_t) + len(d_st) + len(d_ts)
        assert len(d_st) == len(d_ts) == len(d_t)

    def test_determinism_byte_identical(self, tmp_path):
        run_pipeline(tmp_path / "a")
        run_pipeline(tmp_path / "b")
        names = [
            "d_s.jsonl", "val.jsonl", "d_t.jsonl", "d_t.jsonl.pairs.jsonl",
            "d_t.jsonl.discards.jsonl", "d_st.jsonl", "d_ts.jsonl",
            "train_all.jsonl", "predictions.jsonl", "report.json",
        ]
        for name in names:
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"
