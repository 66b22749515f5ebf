import dataclasses
import errno
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from xlproject import cli, training, translate
from xlproject.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    LlmResponseError,
    build_provenance,
    main,
    parse_llm_response,
    write_provenance,
)
from xlproject.corpus import (
    Corpus,
    DatasetTag,
    EmotionLabel,
    load_corpus,
    save_corpus,
)
from xlproject.model import loss_and_grads
from xlproject.projection import spans_from_mask
from xlproject.synthetic import mock_translation_table, synthetic_corpus
from xlproject.training import (
    MAX_ADAPTER_EPOCHS,
    LoraConfig,
    TrainConfig,
    load_model,
    save_model,
    train,
)


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

    def test_project_rejects_a_tsv_token_starting_with_hash(self, tmp_path, capsys):
        corpus = synthetic_corpus(4, seed=1)
        save_corpus(corpus, tmp_path / "ds.tsv", format="tsv")
        word = corpus.sentences[0].tokens[0]
        config = tmp_path / "conf.yaml"
        config.write_text(yaml.safe_dump({"mt": {"mock_dictionary": {word: "#x"}}}))
        output = tmp_path / "out" / "dt.tsv"
        code = main(["project", "--format", "tsv", "--input", str(tmp_path / "ds.tsv"),
                     "--output", str(output), "--tgt", "es", "--backend", "mock",
                     "--config", str(config)])
        assert code == EXIT_DATA
        assert "token starts with '#', which marks a header: '#x'" in capsys.readouterr().err
        assert not output.exists()

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
        (segment,) = (tmp_path / "cache").glob("*.jsonl")
        lines = segment.read_text().splitlines(keepends=True)
        segment.write_text(lines[0][:84] + "\n" + "".join(lines[1:]))  # the key, a tab, a stub
        assert main(argv) == EXIT_DATA
        assert f"{segment} line 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["", "not a record", "0" * 64 + " {}"],
                             ids=["empty", "no-key", "no-tab"])
    def test_project_names_a_cache_line_without_a_key(self, tmp_path, capsys, line):
        save_corpus(synthetic_corpus(3, seed=1), tmp_path / "ds.jsonl")
        argv = [
            "project", "--input", str(tmp_path / "ds.jsonl"), "--output", str(tmp_path / "o.jsonl"),
            "--tgt", "es", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == EXIT_OK
        (segment,) = (tmp_path / "cache").glob("*.jsonl")
        lines = segment.read_text().splitlines(keepends=True)
        segment.write_text("".join(lines[:1] + [line + "\n"] + lines[1:]))
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: corrupt translation-cache segment {segment} line 2:" in err
        assert "Traceback" not in err

    def test_project_cache_write_error_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        save_corpus(synthetic_corpus(3, seed=1), tmp_path / "ds.jsonl")
        real_write = translate.os.write
        records = []

        def write(fd, data):  # the second cache record finds the disk full
            if b'\t{"text": ' in data:
                records.append(data)
                if len(records) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        monkeypatch.setattr(translate.os, "write", write)
        code = main([
            "project", "--input", str(tmp_path / "ds.jsonl"), "--output", str(tmp_path / "o.jsonl"),
            "--tgt", "es", "--cache-dir", str(tmp_path / "cache"),
        ])
        (segment,) = (tmp_path / "cache").glob("*.jsonl")
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: [Errno 28] No space left on device: '{segment}'\n")
        assert len(segment.read_text().splitlines()) == 1
        assert not (tmp_path / "o.jsonl").exists()

    def test_project_reports_its_cache_use(self, tmp_path, capsys):
        save_corpus(synthetic_corpus(4, seed=1), tmp_path / "ds.jsonl")
        argv = [
            "project", "--input", str(tmp_path / "ds.jsonl"), "--output", str(tmp_path / "o.jsonl"),
            "--tgt", "es",
        ]
        cache_argv = argv + ["--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.endswith("; no cache\n")
        assert main(cache_argv) == EXIT_OK
        assert capsys.readouterr().out.endswith("; cache: 0 hits, 4 misses, 0 torn lines skipped\n")
        # A writer killed mid-line leaves a last line without its newline.
        with open(next((tmp_path / "cache").glob("*.jsonl")), "a") as handle:
            handle.write("0" * 64 + '\t{"text": ')
        outputs = {p.name: p.read_bytes() for p in tmp_path.glob("o.jsonl*")}
        assert main(cache_argv) == EXIT_OK
        assert capsys.readouterr().out.endswith("; cache: 4 hits, 0 misses, 1 torn lines skipped\n")
        assert {p.name: p.read_bytes() for p in tmp_path.glob("o.jsonl*")} == outputs
        assert len(list((tmp_path / "cache").iterdir())) == 1

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

    def test_combine_names_both_files_of_a_duplicate_id(self, tmp_path, capsys):
        save_corpus(synthetic_corpus(3, seed=1), tmp_path / "d_s.jsonl")
        target = [
            dataclasses.replace(s, origin=DatasetTag.D_T, language="es")
            for s in synthetic_corpus(4, seed=2, id_prefix="t").sentences
        ]
        save_corpus(Corpus(sentences=target[:3]), tmp_path / "d_t_es.jsonl")
        save_corpus(Corpus(sentences=[target[3], target[1]]), tmp_path / "d_t_fr.jsonl")
        argv = [
            "combine", "--combine", "D_S+D_T", "--d-s", str(tmp_path / "d_s.jsonl"),
            "--d-t", str(tmp_path / "d_t_es.jsonl"), "--d-t", str(tmp_path / "d_t_fr.jsonl"),
            "--output", str(tmp_path / "out.jsonl"),
        ]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert (
            f"{tmp_path / 'd_t_fr.jsonl'} line 2: duplicate id 't-0001', "
            f"first at {tmp_path / 'd_t_es.jsonl'} line 2"
        ) in err
        assert not (tmp_path / "out.jsonl").exists()
        twice = argv[:7] + ["--d-t", str(tmp_path / "d_t_es.jsonl")] + argv[9:]
        assert main(twice) == EXIT_DATA
        assert "duplicate id 't-0000'" in capsys.readouterr().err
        save_corpus(Corpus(sentences=target[3:]), tmp_path / "d_t_fr.jsonl")
        assert main(argv) == EXIT_OK
        assert len(load_corpus(tmp_path / "out.jsonl")) == 3 + 4

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

    @pytest.mark.parametrize("flags, problem", [
        (["--feature-dim", "4294967296"], "feature_dim"),
        (["--feature-dim", "1"], "feature_dim"),
        (["--lora-r", "100000", "--feature-dim", "1024"], "lora rank"),
        (["--lora-r", "0", "--feature-dim", "1024"], "lora rank"),
    ], ids=["dim-huge", "dim-one", "rank-huge", "rank-zero"])
    def test_train_bounds_what_the_config_allocates(self, tmp_path, capsys, flags, problem):
        save_corpus(synthetic_corpus(10, seed=2), tmp_path / "c.jsonl")
        code = main([
            "train", "--input", str(tmp_path / "c.jsonl"), "--task", "trigger", "--epochs", "1",
            *flags, "--output", str(tmp_path / "m.npz"),
        ])
        assert code == EXIT_CONFIG
        assert f"configuration error: {problem} must be from" in capsys.readouterr().err
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize("task, rank, warns", [
        ("trigger", 2, False), ("trigger", 3, True), ("emotion", 6, False), ("emotion", 7, True),
    ])
    def test_train_warns_when_the_rank_exceeds_the_classes(self, tmp_path, capsys, task, rank,
                                                           warns):
        save_corpus(synthetic_corpus(10, seed=2), tmp_path / "c.jsonl")
        code = main([
            "train", "--input", str(tmp_path / "c.jsonl"), "--task", task, "--epochs", "1",
            "--lora-r", str(rank), "--feature-dim", "1024", "--output", str(tmp_path / "m.npz"),
        ])
        assert code == 0
        captured = capsys.readouterr()
        classes = 6 if task == "emotion" else 2
        assert captured.err == (
            f"warning: --lora-r {rank} exceeds the {classes} classes of the {task} head: "
            f"ranks above {classes} add cost but no expressivity\n" if warns else ""
        )
        assert load_model(tmp_path / "m.npz").adapter.rank == rank

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

    def test_parse_llm_names_its_input_on_a_bad_line(self, tmp_path, capsys):
        inp = tmp_path / "responses.tsv"
        inp.write_text("id1\tLabel: Joy\nno tab here\n")
        code = main(["parse-llm", "--input", str(inp), "--output", str(tmp_path / "labels.tsv")])
        assert code == EXIT_DATA
        assert f"data error: {inp} line 2: expected 'id<TAB>response'" in capsys.readouterr().err

    def test_evaluate_rejects_confusion_csv_before_writing(self, tmp_path, capsys):
        gold = synthetic_corpus(2, seed=1)
        save_corpus(gold, tmp_path / "gold.jsonl")
        (tmp_path / "pred.jsonl").write_text("".join(
            json.dumps({"id": s.id, "mask": s.trigger_mask}) + "\n" for s in gold.sentences))
        code = main([
            "evaluate", "--gold", str(tmp_path / "gold.jsonl"),
            "--predictions", str(tmp_path / "pred.jsonl"), "--output", str(tmp_path / "report.json"),
            "--confusion-csv", str(tmp_path / "confusion.csv"),
        ])
        assert code == EXIT_CONFIG
        assert "--confusion-csv needs emotion predictions" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.jsonl", "pred.jsonl"]

    def test_evaluate_creates_the_confusion_csv_directory(self, tmp_path):
        gold = synthetic_corpus(2, seed=1)
        save_corpus(gold, tmp_path / "gold.jsonl")
        (tmp_path / "pred.jsonl").write_text("".join(
            json.dumps({"id": s.id, "emotion": "Joy"}) + "\n" for s in gold.sentences))
        confusion = tmp_path / "tables" / "confusion.csv"
        code = main([
            "evaluate", "--gold", str(tmp_path / "gold.jsonl"),
            "--predictions", str(tmp_path / "pred.jsonl"), "--output", str(tmp_path / "report.json"),
            "--confusion-csv", str(confusion),
        ])
        assert code == EXIT_OK
        record = json.loads((tmp_path / "report.json.provenance.json").read_text())
        assert record["command"] == "evaluate"
        assert confusion.read_text().startswith("gold\\pred,")
        assert not (tmp_path / "tables" / "confusion.csv.provenance.json").exists()

    @pytest.mark.parametrize("case", ["evaluate-output-under-a-file", "evaluate-no-predictions",
                                      "parse-llm-no-input", "stats-on-a-directory"])
    def test_file_system_error_is_a_data_error(self, tmp_path, capsys, case):
        gold, predictions, missing = tmp_path / "g.jsonl", tmp_path / "p.jsonl", tmp_path / "none"
        save_corpus(synthetic_corpus(2, seed=1), gold)
        predictions.write_text("".join(
            json.dumps({"id": s.id, "emotion": "Joy"}) + "\n" for s in load_corpus(gold)))

        def evaluate(predictions, output):
            return ["evaluate", "--gold", str(gold), "--predictions", str(predictions),
                    "--output", str(output)]

        argv, culprit = {
            # the output's directory would have to be made where a regular file is
            "evaluate-output-under-a-file": (evaluate(predictions, gold / "r.json"), gold),
            "evaluate-no-predictions": (evaluate(missing, tmp_path / "r.json"), missing),
            "parse-llm-no-input": (
                ["parse-llm", "--input", str(missing), "--output", str(tmp_path / "l.tsv")], missing),
            "stats-on-a-directory": (["stats", "--input", str(tmp_path)], tmp_path),
        }[case]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(culprit) in err and "Traceback" not in err

    def test_console_entry_point(self):
        src = str(Path(cli.__file__).parents[1])  # importable without an install
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "xlproject", "--help"],
            capture_output=True, text=True, env=env,
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


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(cli.SUBCOMMANDS) + "}" in out
        for name, (_, help_line, _) in cli.SUBCOMMANDS.items():
            assert f"    {name:<20}{help_line}\n" in out

    @pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
    def test_a_commands_help_is_the_full_parsers(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        full = capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == full

    def test_unknown_command_exits_2_listing_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bogus", "--input", "x"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "xlproject: error: argument command: invalid choice: 'bogus' (choose from 'split', "
            "'project', 'switch', 'combine', 'train', 'predict', 'evaluate', 'parse-llm', "
            "'stats')\n")

    def test_only_the_invoked_command_gets_its_arguments(self, capsys):
        argv = ["predict", "--model", "m.npz", "--input", "i.jsonl", "--output", "o.jsonl"]
        assert cli.build_parser("predict").parse_args(argv).model == "m.npz"
        assert cli.build_parser().parse_args(argv).model == "m.npz"
        with pytest.raises(SystemExit):
            cli.build_parser("train").parse_args(argv)
        assert "unrecognized arguments: --model m.npz" in capsys.readouterr().err


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

    def test_sidecar_equals_sequential_hashing(self, tmp_path):
        model = self.trained_model(tmp_path, "trigger", LoraConfig(rank=3, alpha=8.0))
        code, predictions = self.predict(tmp_path, model, synthetic_corpus(5, seed=6))
        assert code == EXIT_OK
        expected = tmp_path / "expected.jsonl"
        write_provenance(expected, build_provenance(
            "predict", {"task": "trigger", "format": "jsonl"}, [model, tmp_path / "test.jsonl"],
        ))
        sidecar = predictions.with_name(predictions.name + ".provenance.json")
        assert sidecar.read_bytes() == expected.with_name(
            expected.name + ".provenance.json").read_bytes()

    @pytest.mark.parametrize("content", [None, b"", b"not a checkpoint\n"],
                             ids=["missing", "empty", "text"])
    def test_unreadable_model_is_a_data_error_naming_it(self, tmp_path, capsys, content):
        model = tmp_path / "model.npz"
        if content is not None:
            model.write_bytes(content)
        code, predictions = self.predict(tmp_path, model, synthetic_corpus(3, seed=6))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {model}: " in err and "Traceback" not in err
        assert not predictions.exists()

    def test_failed_checkpoint_hash_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        model = self.trained_model(tmp_path, "trigger", None)

        def unreadable(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(cli, "file_sha256", unreadable)
        codes = []
        worker = threading.Thread(
            target=lambda: codes.append(self.predict(tmp_path, model, synthetic_corpus(3, seed=6))))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        [(code, predictions)] = codes
        assert code == EXIT_DATA
        assert f"data error: {model}: cannot hash the input" in capsys.readouterr().err
        assert not predictions.exists()

    @pytest.mark.parametrize("damage", ["feature-dim", "lora-rank", "unsorted-cols", "cols-length",
                                        "no-lora-key", "extra-feature-key", "unknown-task",
                                        "task-of-other-classes", "lora-rank-float",
                                        "lora-alpha-nan"])
    def test_checkpoint_disagreeing_with_metadata_rejected(self, tmp_path, capsys, damage):
        model = self.trained_model(tmp_path, "trigger", LoraConfig(rank=3, alpha=8.0))
        with np.load(model) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        cols = arrays["cols"]
        if damage == "feature-dim":  # the last trained column is then out of range
            meta["feature"]["dim"] = int(cols.max())
        elif damage == "lora-rank":
            meta["lora"]["rank"] *= 2
        elif damage == "unsorted-cols":
            arrays["cols"] = np.concatenate([cols[1:2], cols[:1], cols[2:]])
        elif damage == "no-lora-key":
            del meta["lora"]
        elif damage == "extra-feature-key":
            meta["feature"]["lowercase"] = True
        elif damage == "unknown-task":
            meta["task"] = "sentiment"
        elif damage == "task-of-other-classes":  # six emotions, but two classes
            meta["task"] = "emotion"
        elif damage == "lora-rank-float":
            meta["lora"]["rank"] = float(meta["lora"]["rank"])
        elif damage == "lora-alpha-nan":
            meta["lora"]["alpha"] = float("nan")
        else:  # one column fewer than W0 and A have
            arrays["cols"] = cols[:-1]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(model, "wb") as handle:
            np.savez(handle, **arrays)
        code, predictions = self.predict(tmp_path, model, synthetic_corpus(3, seed=6))
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(model) in err and "metadata" in err and "Traceback" not in err
        assert not predictions.exists()


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


def _past_the_end(record):
    first, *rest = record["target_spans"]
    return {**record, "target_spans": [[first[0], 99, first[2]], *rest]}


class TestSwitchPairsFile:
    def switch(self, tmp_path, lines):
        for name in ("source.jsonl", "target.jsonl"):
            save_corpus(synthetic_corpus(3, seed=1), tmp_path / name)
        (tmp_path / "target.jsonl.pairs.jsonl").write_text("".join(line + "\n" for line in lines))
        return main([
            "switch", "--source", str(tmp_path / "source.jsonl"),
            "--target", str(tmp_path / "target.jsonl"),
            "--output-st", str(tmp_path / "st.jsonl"), "--output-ts", str(tmp_path / "ts.jsonl"),
        ])

    def record(self):
        """A well-formed record pairing a sentence that has triggers with itself."""
        sentence = next(s for s in synthetic_corpus(3, seed=1) if any(s.trigger_mask))
        spans = [[s.start, s.end, s.marker_index] for s in spans_from_mask(sentence.trigger_mask)]
        return {"source_id": sentence.id, "target_id": sentence.id,
                "source_spans": spans, "target_spans": spans}

    def test_well_formed_pairs_switch(self, tmp_path):
        assert self.switch(tmp_path, [json.dumps(self.record()), ""]) == EXIT_OK
        assert len(load_corpus(tmp_path / "st.jsonl")) == 1

    @pytest.mark.parametrize("damage, problem", [
        (lambda r: json.dumps(r)[:-5], "invalid JSON"),
        (lambda r: "[]", "record is not an object"),
        (lambda r: json.dumps(_without(r, "target_spans")), "missing field 'target_spans'"),
        (lambda r: json.dumps({**r, "source_spans": [[1, 2]]}),
         "field 'source_spans' must be a list of [start, end, marker]"),
        (lambda r: json.dumps({**r, "target_id": 7}), "the ids must be strings"),
        (lambda r: json.dumps({**r, "target_id": "nowhere"}),
         "id 'nowhere' missing from the target corpus"),
        (lambda r: json.dumps(_past_the_end(r)), "outside sentence"),
    ], ids=["json", "not-object", "no-target-spans", "span-arity", "id-type", "unknown-id",
            "span-bounds"])
    def test_malformed_record_names_file_and_line(self, tmp_path, capsys, damage, problem):
        record = self.record()
        code = self.switch(tmp_path, [json.dumps(record), damage(record)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        pairs = tmp_path / "target.jsonl.pairs.jsonl"
        assert f"data error: {pairs} line 2: " in err and problem in err
        assert "Traceback" not in err
        assert not (tmp_path / "st.jsonl").exists()


class TestProvenanceSidecars:
    def split(self, tmp_path, sidecar_text=None):
        save_corpus(synthetic_corpus(20, seed=0), tmp_path / "all.jsonl")
        if sidecar_text is not None:
            (tmp_path / "all.jsonl.provenance.json").write_text(sidecar_text)
        return main([
            "split", "--input", str(tmp_path / "all.jsonl"), "--fraction", "0.25", "--seed", "5",
            "--output-train", str(tmp_path / "train.jsonl"),
            "--output-validation", str(tmp_path / "val.jsonl"),
        ])

    def test_split_carries_the_input_sidecar(self, tmp_path):
        write_provenance(tmp_path / "all.jsonl", {"generator": "synthetic", "seed": 3, "note": "x"})
        assert self.split(tmp_path) == EXIT_OK
        expected = {
            "input_provenance": {"generator": "synthetic", "seed": 3, "note": "x"},
            "split_seed": 5, "split_fraction": 0.25, "split_stratified": False,
            **build_provenance("split", {"fraction": 0.25, "seed": 5, "format": "jsonl"},
                               [tmp_path / "all.jsonl"], seed=5),
        }
        for name, role in (("train.jsonl", "train"), ("val.jsonl", "validation")):
            record = json.loads((tmp_path / f"{name}.provenance.json").read_text())
            assert record == {**expected, "split_role": role}

    @pytest.mark.parametrize("text, problem", [("{not json", "invalid JSON"),
                                               ("[1, 2]", "expected a JSON object")],
                             ids=["not-json", "not-object"])
    def test_split_rejects_a_bad_input_sidecar(self, tmp_path, capsys, text, problem):
        assert self.split(tmp_path, text) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {tmp_path / 'all.jsonl.provenance.json'}: {problem}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "train.jsonl").exists()

    def test_stats_ignores_the_input_sidecar(self, tmp_path):
        save_corpus(synthetic_corpus(6, seed=0), tmp_path / "all.jsonl")
        (tmp_path / "all.jsonl.provenance.json").write_bytes(b"\xff not json")
        assert main(["stats", "--input", str(tmp_path / "all.jsonl")]) == EXIT_OK


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

    # Each bad value is JSON text built for a gold sentence of n tokens.
    @pytest.mark.parametrize("field, value, problem", [
        ("mask", lambda n: "5", "'mask' must be a list of {n} integers 0 or 1"),
        ("mask", lambda n: json.dumps([2] * n), "'mask' must be a list of {n} integers 0 or 1"),
        ("mask", lambda n: json.dumps([0.7] * n), "'mask' must be a list of {n} integers 0 or 1"),
        ("mask", lambda n: json.dumps([True] * n), "'mask' must be a list of {n} integers 0 or 1"),
        ("mask", lambda n: json.dumps([0] * (n - 1)),
         "'mask' must be a list of {n} integers 0 or 1"),
        ("numeric", lambda n: "0.5", "'numeric' must be a list of {n} finite numbers"),
        ("numeric", lambda n: json.dumps([0.5] * (n - 1) + [float("nan")]),
         "'numeric' must be a list of {n} finite numbers"),
        ("numeric", lambda n: json.dumps([0.5] * (n - 1))[:-1] + ", 1e400]",
         "'numeric' must be a list of {n} finite numbers"),
        ("numeric", lambda n: json.dumps(["0.5"] * n),
         "'numeric' must be a list of {n} finite numbers"),
        ("numeric", lambda n: json.dumps([0] * (n - 1) + [10**400]),
         "'numeric' must be a list of {n} finite numbers"),
        ("emotion", lambda n: '"Happy"', "unknown emotion label 'Happy'"),
        ("emotion", lambda n: "3", "'emotion' must be a label string"),
    ], ids=["mask-int", "mask-twos", "mask-floats", "mask-bools", "mask-short", "numeric-float",
            "numeric-nan", "numeric-inf", "numeric-strings", "numeric-huge-int",
            "emotion-unknown", "emotion-int"])
    def test_bad_prediction_value_names_file_and_line(self, tmp_path, capsys, field, value,
                                                      problem):
        good, bad = synthetic_corpus(2, seed=1).sentences
        n = len(bad.tokens)
        lines = [
            json.dumps({"id": good.id, field: "Joy" if field == "emotion" else good.trigger_mask}),
            f'{{"id": {json.dumps(bad.id)}, {json.dumps(field)}: {value(n)}}}',
        ]
        _, code = self.evaluate(tmp_path, lines)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{tmp_path / 'pred.jsonl'} line 2: {problem.format(n=n)}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("line", ['["not", "an", "object"]', '{"id": ["x"]}', "{}"])
    def test_record_without_string_id_rejected(self, tmp_path, capsys, line):
        _, code = self.evaluate(tmp_path, [line])
        assert code == EXIT_DATA
        assert "line 1: expected an object with a string 'id'" in capsys.readouterr().err


class TestMalformedInputs:
    @pytest.mark.parametrize("content", [b"mt: [unclosed\n", b"mt:\n  backend: \xff\xfe\n"],
                             ids=["not-yaml", "not-utf8"])
    def test_config_is_a_configuration_error_naming_it(self, tmp_path, capsys, content):
        save_corpus(synthetic_corpus(2, seed=1), tmp_path / "ds.jsonl")
        config = tmp_path / "conf.yaml"
        config.write_bytes(content)
        assert main(["project", "--input", str(tmp_path / "ds.jsonl"), "--tgt", "es",
                     "--output", str(tmp_path / "o.jsonl"), "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {config}: ") and "Traceback" not in err

    def test_config_loads_like_the_safe_loader(self, tmp_path):
        text = "mt:\n  backend: mock\n  parallelism: 2\n  mock_dictionary: {a: b, 'yes': 'no'}\n"
        (tmp_path / "conf.yaml").write_text(text)
        assert cli.load_config_file(str(tmp_path / "conf.yaml")) == {
            f"mt.{key}": value for key, value in yaml.safe_load(text)["mt"].items()}

    @pytest.mark.parametrize("command", ["split", "project", "switch", "combine", "train",
                                         "predict", "evaluate", "parse-llm", "stats"])
    def test_only_project_takes_a_config_file(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        options = capsys.readouterr().out
        assert ("--config" in options) == (command == "project")
        assert ("--format" in options) == (command != "parse-llm")

    @pytest.mark.parametrize("field, value, problem", [
        ("mask", [True, 0, 0], "field 'mask' must be a list of 0/1 integers"),
        ("bilingual", "false", "field 'bilingual' must be true or false"),
    ])
    @pytest.mark.parametrize("command", ["stats", "evaluate"])
    def test_corpus_value_is_a_data_error_naming_file_and_line(
        self, tmp_path, capsys, field, value, problem, command
    ):
        path = tmp_path / "gold.jsonl"
        good = {"id": "a", "lang": "en", "tokens": ["x", "y", "z"], "emotion": "Joy",
                "origin": "D_S"}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "id": "b", field: value})
                        + "\n")
        (tmp_path / "pred.jsonl").write_text(
            '{"id": "a", "emotion": "Joy"}\n{"id": "b", "emotion": "Joy"}\n')
        argv = {"stats": ["stats", "--input", str(path)],
                "evaluate": ["evaluate", "--gold", str(path), "--predictions",
                             str(tmp_path / "pred.jsonl"), "--output", str(tmp_path / "r.json")]}
        assert main(argv[command]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {path}: {problem} at line 2\n"
        assert not (tmp_path / "r.json").exists()


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


# Each primary output of the eight writing commands, the command, and its own sidecar keys;
# split carries the input's sidecar whole.
SPLIT_KEYS = {"input_provenance", "split_seed", "split_fraction", "split_stratified", "split_role"}
WRITTEN_OUTPUTS = [
    ("d_s.jsonl", "split", SPLIT_KEYS),
    ("val.jsonl", "split", SPLIT_KEYS),
    ("d_t.jsonl", "project", {"projected_from", "projected_to", "backend"}),
    ("d_st.jsonl", "switch", {"augmentation"}),
    ("d_ts.jsonl", "switch", {"augmentation"}),
    ("train_all.jsonl", "combine", {"combination"}),
    ("model.npz", "train", set()),
    ("predictions.jsonl", "predict", set()),
    ("report.json", "evaluate", set()),
    ("labels.tsv", "parse-llm", set()),
]


def run_every_writer(root):
    """The pipeline, from a generated corpus with a sidecar, then parse-llm."""
    root.mkdir()
    write_provenance(root / "d_s_all.jsonl", {"generator": "synthetic", "seed": 3})
    run_pipeline(root)
    (root / "responses.tsv").write_text("id1\tLabel: Joy\nid2\tno label\n")
    assert main(["parse-llm", "--input", str(root / "responses.tsv"),
                 "--output", str(root / "labels.tsv")]) == EXIT_OK


def test_every_output_has_one_provenance_sidecar(tmp_path):
    root = tmp_path / "run"
    run_every_writer(root)
    for output, command, extra in WRITTEN_OUTPUTS:
        text = (root / f"{output}.provenance.json").read_text(encoding="utf-8")
        record = json.loads(text)
        assert text == json.dumps(record, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
        assert set(record) == {"command", "config_hash", "seed", "inputs"} | extra, output
        assert record["command"] == command, output
    # The discards, pairs and errors sidecars exist and have no provenance of their own.
    for name in ("d_t.jsonl.discards.jsonl", "d_t.jsonl.pairs.jsonl", "labels.tsv.errors.jsonl"):
        assert (root / name).exists()
    assert sorted(p.name for p in root.glob("*.provenance.json")) == sorted(
        f"{name}.provenance.json" for name in ["d_s_all.jsonl", *next(zip(*WRITTEN_OUTPUTS))]
    )


def test_every_file_is_written_through_write_outputs(tmp_path, monkeypatch):
    written = []
    write_outputs = cli.write_outputs

    def recording(provenance, *outputs):
        for path, _, sidecar_keys in outputs:
            written.append(str(path))
            if sidecar_keys is not None:
                written.append(f"{path}.provenance.json")
        return write_outputs(provenance, *outputs)

    monkeypatch.setattr(cli, "write_outputs", recording)
    root = tmp_path / "run"
    run_every_writer(root)
    given = {"d_s_all.jsonl", "d_s_all.jsonl.provenance.json", "config.yaml", "responses.tsv"}
    created = sorted(str(p) for p in root.rglob("*") if p.is_file()
                     and p.parent != root / "cache" and p.name not in given)
    assert len(written) == len(set(written))
    assert created == sorted(written)


@pytest.fixture(scope="module")
def pipeline_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline") / "run"
    run_every_writer(root)
    (root / "emotions.jsonl").write_text("".join(
        json.dumps({"id": s.id, "emotion": "Joy"}) + "\n" for s in load_corpus(root / "val.jsonl")))
    return root


# A writing command given an output that is one of its inputs or another of its outputs,
# and the two clashing paths: the output, then the other. {run} is the pipeline's directory.
SAME_PATH_CASES = {
    "split-outputs": (["split", "--input", "{run}/d_s_all.jsonl", "--output-train", "{run}/x.jsonl",
                       "--output-validation", "{run}/sub/../x.jsonl"],
                      "{run}/sub/../x.jsonl", "{run}/x.jsonl"),
    "split-output-sidecar": (["split", "--input", "{run}/d_s_all.jsonl",
                              "--output-train", "{run}/x.jsonl",
                              "--output-validation", "{run}/x.jsonl.provenance.json"],
                             "{run}/x.jsonl.provenance.json", "{run}/x.jsonl.provenance.json"),
    "project-input": (["project", "--input", "{run}/d_s.jsonl", "--tgt", "es",
                       "--output", "{run}/d_s.jsonl"], "{run}/d_s.jsonl", "{run}/d_s.jsonl"),
    "switch-source": (["switch", "--source", "{run}/d_s.jsonl", "--target", "{run}/d_t.jsonl",
                       "--output-st", "{run}/x.jsonl", "--output-ts", "{run}/d_s.jsonl"],
                      "{run}/d_s.jsonl", "{run}/d_s.jsonl"),
    "combine-input": (["combine", "--combine", "D_S+D_T", "--d-s", "{run}/d_s.jsonl",
                       "--d-t", "{run}/d_t.jsonl", "--output", "{run}/d_t.jsonl"],
                      "{run}/d_t.jsonl", "{run}/d_t.jsonl"),
    "train-input": (["train", "--input", "{run}/train_all.jsonl", "--task", "trigger",
                     "--epochs", "1", "--feature-dim", "4096", "--output", "{run}/train_all.jsonl"],
                    "{run}/train_all.jsonl", "{run}/train_all.jsonl"),
    "predict-model": (["predict", "--model", "{run}/model.npz", "--input", "{run}/val.jsonl",
                       "--output", "{run}/model.npz"], "{run}/model.npz", "{run}/model.npz"),
    "evaluate-predictions": (["evaluate", "--gold", "{run}/val.jsonl",
                              "--predictions", "{run}/predictions.jsonl",
                              "--output", "{run}/predictions.jsonl"],
                             "{run}/predictions.jsonl", "{run}/predictions.jsonl"),
    "evaluate-outputs": (["evaluate", "--gold", "{run}/val.jsonl",
                          "--predictions", "{run}/emotions.jsonl", "--output", "{run}/r.json",
                          "--confusion-csv", "{run}/r.json"], "{run}/r.json", "{run}/r.json"),
    "parse-llm-input": (["parse-llm", "--input", "{run}/responses.tsv",
                         "--output", "{run}/responses.tsv"],
                        "{run}/responses.tsv", "{run}/responses.tsv"),
}


@pytest.mark.parametrize("case", SAME_PATH_CASES)
def test_output_on_an_input_or_another_output_is_rejected(tmp_path, capsys, pipeline_files,
                                                          case):
    root = tmp_path / "run"
    shutil.copytree(pipeline_files, root)
    argv, output, other = SAME_PATH_CASES[case]
    argv = [arg.format(run=root) for arg in argv]
    output, other = output.format(run=root), other.format(run=root)
    before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"configuration error: output {output} is the same file as {other}\n"
    assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before


def test_same_file_is_rejected_before_the_work(tmp_path, capsys, monkeypatch):
    save_corpus(synthetic_corpus(20, seed=1), tmp_path / "d_s.jsonl")
    d_s, cache = str(tmp_path / "d_s.jsonl"), tmp_path / "cache"
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
    before = (tmp_path / "d_s.jsonl").read_bytes()
    message = f"configuration error: output {d_s} is the same file as {d_s}\n"
    for argv in (["train", "--input", d_s, "--task", "trigger", "--epochs", "5"],
                 ["project", "--input", d_s, "--tgt", "es", "--cache-dir", str(cache)]):
        assert main(argv + ["--output", d_s]) == EXIT_CONFIG
        assert capsys.readouterr().err == message
    assert trained == []
    assert not cache.exists()  # no translation ran, so no cache segment was written
    assert (tmp_path / "d_s.jsonl").read_bytes() == before


def test_output_that_is_a_directory_is_rejected_before_any_write(tmp_path, capsys):
    save_corpus(synthetic_corpus(20, seed=1), tmp_path / "d_s.jsonl")
    split = ["split", "--input", str(tmp_path / "d_s.jsonl"),
             "--output-train", str(tmp_path / "t.jsonl")]
    assert main(split + ["--seed", "1", "--output-validation", str(tmp_path / "v.jsonl")]) == EXIT_OK
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    (tmp_path / "busy").mkdir()
    capsys.readouterr()
    assert main(split + ["--seed", "2", "--output-validation", str(tmp_path / "busy")]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: output {tmp_path / 'busy'} is a directory\n"
    # The first split's training half and its sidecar are as it wrote them.
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


# A documented bad input (or a valid --scheme), the exit code and a fragment of what the
# command prints. {tmp} is the test's directory (see bad_input_files); outputs go to {tmp}/out.
SPLIT = ["split", "--input", "{tmp}/d_s.jsonl", "--output-train", "{tmp}/out/t.jsonl",
         "--output-validation", "{tmp}/out/v.jsonl"]
PROJECT = ["project", "--input", "{tmp}/d_s.jsonl", "--output", "{tmp}/out/d_t.jsonl"]
TRAIN = ["train", "--input", "{tmp}/d_s.jsonl", "--task", "trigger", "--epochs", "1",
         "--feature-dim", "512", "--output", "{tmp}/out/model.npz"]
PREDICT = ["predict", "--input", "{tmp}/d_s.jsonl", "--output", "{tmp}/out/predictions.jsonl"]
# Inline schemes of 400 pairs, too long to be a file name; the second has one-symbol pairs.
LONG_SCHEME = json.dumps([[f"<{i}<", f">{i}>"] for i in range(400)])
LONG_BAD_SCHEME = json.dumps([[f"<{i}<"] for i in range(400)])
BAD_INPUT_CASES = {
    "config-missing": (PROJECT + ["--tgt", "es", "--config", "{tmp}/nope.yaml"], EXIT_CONFIG,
                       "config file not found: {tmp}/nope.yaml"),
    "config-not-a-mapping": (PROJECT + ["--tgt", "es", "--config", "{tmp}/list.yaml"],
                             EXIT_CONFIG, "{tmp}/list.yaml: config file must contain a mapping"),
    "config-unknown-setting": (PROJECT + ["--tgt", "es", "--config", "{tmp}/typo.yaml"],
                               EXIT_CONFIG, "{tmp}/typo.yaml: unknown setting mt.paralelism"),
    "config-section-not-a-mapping": (PROJECT + ["--tgt", "es", "--config", "{tmp}/mt_list.yaml"],
                                     EXIT_CONFIG, "{tmp}/mt_list.yaml: section mt must be a mapping"),
    # A setting of the wrong type; YAML reads an unquoted no as false.
    "config-dictionary-not-a-mapping": (
        PROJECT + ["--tgt", "es", "--config", "{tmp}/dictionary_list.yaml"], EXIT_CONFIG,
        "{tmp}/dictionary_list.yaml: mt.mock_dictionary must be a mapping of strings to strings"),
    "config-dictionary-unquoted-no": (
        PROJECT + ["--tgt", "es", "--config", "{tmp}/dictionary_no.yaml"], EXIT_CONFIG,
        "{tmp}/dictionary_no.yaml: mt.mock_dictionary must be a mapping of strings to strings"),
    "config-drop-tokens-not-a-list": (
        PROJECT + ["--tgt", "es", "--config", "{tmp}/drop_int.yaml"], EXIT_CONFIG,
        "{tmp}/drop_int.yaml: mt.mock_drop_tokens must be a list of strings"),
    "config-cache-dir-not-a-string": (
        PROJECT + ["--tgt", "es", "--config", "{tmp}/cache_int.yaml"], EXIT_CONFIG,
        "{tmp}/cache_int.yaml: paths.cache_dir must be a string"),
    "config-endpoint-not-a-string": (
        PROJECT + ["--tgt", "es", "--config", "{tmp}/endpoint_list.yaml"], EXIT_CONFIG,
        "{tmp}/endpoint_list.yaml: mt.endpoint must be a string"),
    "remote-without-endpoint": (PROJECT + ["--tgt", "es", "--config", "{tmp}/remote.yaml"],
                                EXIT_CONFIG, "remote backend needs mt.endpoint"),
    "unknown-backend": (PROJECT + ["--tgt", "es", "--config", "{tmp}/pigeon.yaml"], EXIT_CONFIG,
                        "unknown backend 'pigeon'"),
    # One marker pair: the sentences with two trigger spans are discarded.
    "scheme-inline": (PROJECT + ["--tgt", "es", "--scheme", '[["<<", ">>"]]'], EXIT_OK,
                      "projected 3 of 6 sentences to es (3 discarded)"),
    "scheme-file": (PROJECT + ["--tgt", "es", "--scheme", "{tmp}/scheme.json"], EXIT_OK,
                    "projected 3 of 6 sentences to es (3 discarded)"),
    "scheme-bad-pair": (PROJECT + ["--tgt", "es", "--scheme", "[[1]]"], EXIT_CONFIG,
                        "invalid marker scheme '[[1]]'"),
    "scheme-inline-long": (PROJECT + ["--tgt", "es", "--scheme", LONG_SCHEME], EXIT_OK,
                           "projected 6 of 6 sentences to es (0 discarded)"),
    # The message quotes only the start of the scheme.
    "scheme-long-bad-pair": (
        PROJECT + ["--tgt", "es", "--scheme", LONG_BAD_SCHEME], EXIT_CONFIG,
        f"invalid marker scheme {LONG_BAD_SCHEME[:60] + '...'!r}: list index out of range\n"),
    "split-fraction": (SPLIT + ["--fraction", "1.5"], EXIT_CONFIG,
                       "--fraction must be in (0, 1), got 1.5"),
    "project-unknown-tgt": (PROJECT + ["--tgt", "xx"], EXIT_CONFIG, "--tgt must be one of"),
    "project-src-is-tgt": (PROJECT + ["--src", "es", "--tgt", "es"], EXIT_CONFIG,
                           "--src and --tgt must differ"),
    "project-wrong-language": (PROJECT + ["--src", "fr", "--tgt", "es"], EXIT_DATA,
                               "{tmp}/d_s.jsonl: sentences not in source language 'fr'"),
    "combine-tag-without-path": (["combine", "--combine", "D_S+D_T", "--d-s", "{tmp}/d_s.jsonl",
                                  "--output", "{tmp}/out/all.jsonl"], EXIT_CONFIG,
                                 "combination includes D_T but no path was given"),
    # A path for a dataset the combination leaves out: a typo in --combine would drop it.
    "combine-path-without-tag": (["combine", "--combine", "D_S", "--d-s", "{tmp}/d_s.jsonl",
                                  "--d-t", "{tmp}/nope.jsonl", "--output", "{tmp}/out/all.jsonl"],
                                 EXIT_CONFIG, "configuration error: --d-t was given but the "
                                 "combination D_S leaves D_T out"),
    "train-negative-seed": (["train", "--input", "{tmp}/d_s.jsonl", "--task", "trigger",
                             "--seed", "-1", "--output", "{tmp}/out/model.npz"],
                            EXIT_CONFIG, "configuration error: seed must be >= 0, got -1"),
    "train-alpha-nan": (["train", "--input", "{tmp}/d_s.jsonl", "--task", "trigger",
                         "--lora-r", "2", "--lora-alpha", "nan", "--output", "{tmp}/out/model.npz"],
                        EXIT_CONFIG, "configuration error: lora alpha must be finite and > 0, "
                        "got nan"),
    # Alpha 0 scales the adapter to nothing, so only the bias would train.
    "train-alpha-zero": (["train", "--input", "{tmp}/d_s.jsonl", "--task", "trigger",
                          "--lora-r", "2", "--lora-alpha", "0", "--output", "{tmp}/out/model.npz"],
                         EXIT_CONFIG, "configuration error: lora alpha must be finite and > 0, "
                         "got 0.0"),
    "train-alpha-without-rank": (["train", "--input", "{tmp}/d_s.jsonl", "--task", "trigger",
                                  "--lora-alpha", "8", "--output", "{tmp}/out/model.npz"],
                                 EXIT_CONFIG, "--lora-alpha requires --lora-r"),
    "evaluate-missing-prediction": (["evaluate", "--gold", "{tmp}/d_s.jsonl",
                                     "--predictions", "{tmp}/one.jsonl",
                                     "--output", "{tmp}/out/report.json"], EXIT_DATA,
                                    "{tmp}/one.jsonl: missing predictions for ids: ['syn-0001'"),
    "evaluate-kind-gold-lacks": (["evaluate", "--gold", "{tmp}/unlabelled.jsonl",
                                  "--predictions", "{tmp}/u_pred.jsonl",
                                  "--output", "{tmp}/out/report.json"], EXIT_DATA,
                                 "{tmp}/unlabelled.jsonl: gold sentence 'u-1' has no emotion label"),
    "evaluate-gold-lacks-mask": (["evaluate", "--gold", "{tmp}/u.jsonl",
                                  "--predictions", "{tmp}/u_mask.jsonl",
                                  "--output", "{tmp}/out/report.json"], EXIT_DATA,
                                 "{tmp}/u.jsonl: gold sentence 'u-1@es' has no trigger mask"),
    "split-empty": (["split", "--input", "{tmp}/empty.jsonl", "--output-train", "{tmp}/out/t.jsonl",
                     "--output-validation", "{tmp}/out/v.jsonl"], EXIT_DATA,
                    "data error: {tmp}/empty.jsonl: the corpus is empty"),
    "train-empty-input": (["train", "--input", "{tmp}/empty.jsonl", "--task", "trigger",
                           "--output", "{tmp}/out/model.npz"], EXIT_DATA,
                          "data error: {tmp}/empty.jsonl: the corpus is empty"),
    "train-empty-validation-emotion": (
        ["train", "--input", "{tmp}/d_s.jsonl", "--validation", "{tmp}/empty.jsonl",
         "--task", "emotion", "--output", "{tmp}/out/model.npz"], EXIT_DATA,
        "data error: {tmp}/empty.jsonl: the corpus is empty"),
    "train-empty-validation-trigger": (
        ["train", "--input", "{tmp}/d_s.jsonl", "--validation", "{tmp}/empty.jsonl",
         "--task", "trigger", "--output", "{tmp}/out/model.npz"], EXIT_DATA,
        "data error: {tmp}/empty.jsonl: the corpus is empty"),
    "evaluate-empty-gold": (["evaluate", "--gold", "{tmp}/empty.jsonl",
                             "--predictions", "{tmp}/one.jsonl",
                             "--output", "{tmp}/out/report.json"], EXIT_DATA,
                            "data error: {tmp}/empty.jsonl: the corpus is empty"),
    "combine-without-d-s": (["combine", "--combine", "D_T", "--d-t", "{tmp}/d_s.jsonl",
                             "--output", "{tmp}/out/all.jsonl"], EXIT_CONFIG,
                            "configuration error: --combine 'D_T': every combination must "
                            "include D_S"),
    "combine-unknown-tag": (["combine", "--combine", "D_S+D_X", "--d-s", "{tmp}/d_s.jsonl",
                             "--output", "{tmp}/out/all.jsonl"], EXIT_CONFIG,
                            "configuration error: --combine 'D_S+D_X': unknown origin tag 'D_X'"),
    "combine-no-tag": (["combine", "--combine", " + ", "--d-s", "{tmp}/d_s.jsonl",
                        "--output", "{tmp}/out/all.jsonl"], EXIT_CONFIG,
                       "configuration error: --combine ' + ': empty combination string"),
    "stats-missing-emotion": (["stats", "--input", "{tmp}/seven.jsonl"], EXIT_DATA,
                              "data error: {tmp}/seven.jsonl: 7 sentences missing emotion label: "
                              "['n0', 'n1', 'n2', 'n3', 'n4']\n"),
    "stats-tsv-record": (["stats", "--format", "tsv", "--input", "{tmp}/bad_mask.tsv"], EXIT_DATA,
                         "data error: {tmp}/bad_mask.tsv: mask value must be 0 or 1 at line 3"),
    # Each input below has a Latin-1 byte on its second line.
    "not-utf8-corpus": (["stats", "--input", "{tmp}/latin1.jsonl"], EXIT_DATA,
                        "data error: {tmp}/latin1.jsonl line 2: not UTF-8 text"),
    "not-utf8-tsv": (["stats", "--format", "tsv", "--input", "{tmp}/latin1.tsv"], EXIT_DATA,
                     "data error: {tmp}/latin1.tsv line 2: not UTF-8 text"),
    "not-utf8-predictions": (["evaluate", "--gold", "{tmp}/unlabelled.jsonl",
                              "--predictions", "{tmp}/latin1.jsonl",
                              "--output", "{tmp}/out/report.json"], EXIT_DATA,
                             "data error: {tmp}/latin1.jsonl line 2: not UTF-8 text"),
    "not-utf8-pairs": (["switch", "--source", "{tmp}/d_s.jsonl", "--target", "{tmp}/u.jsonl",
                        "--output-st", "{tmp}/out/st.jsonl", "--output-ts", "{tmp}/out/ts.jsonl"],
                       EXIT_DATA, "data error: {tmp}/u.jsonl.pairs.jsonl line 2: not UTF-8 text"),
    "not-utf8-parse-llm": (["parse-llm", "--input", "{tmp}/latin1.jsonl",
                            "--output", "{tmp}/out/labels.tsv"], EXIT_DATA,
                           "data error: {tmp}/latin1.jsonl line 2: not UTF-8 text"),
    # An unpaired surrogate escape on the second line, which no UTF-8 output can hold.
    "train-surrogate-token": (["train", "--input", "{tmp}/surrogate.jsonl", "--task", "trigger",
                               "--output", "{tmp}/out/model.npz"], EXIT_DATA,
                              "data error: {tmp}/surrogate.jsonl: field 'tokens' holds an "
                              "unpaired surrogate escape at line 2"),
    "split-surrogate-id": (["split", "--input", "{tmp}/surrogate_id.jsonl",
                            "--output-train", "{tmp}/out/t.jsonl",
                            "--output-validation", "{tmp}/out/v.jsonl"], EXIT_DATA,
                           "data error: {tmp}/surrogate_id.jsonl: field 'id' holds an "
                           "unpaired surrogate escape at line 2"),
    # A checkpoint that cannot be read, or holds values that train never writes.
    "predict-checkpoint-bad-crc": (PREDICT + ["--model", "{tmp}/w0_crc.npz"], EXIT_DATA,
                                   "data error: {tmp}/w0_crc.npz: cannot read array W0: "
                                   "Bad CRC-32"),
    "predict-checkpoint-string-W0": (PREDICT + ["--model", "{tmp}/w0_str.npz"], EXIT_DATA,
                                     "data error: {tmp}/w0_str.npz: array W0 does not hold "
                                     "finite floats"),
    "predict-checkpoint-object-b": (PREDICT + ["--model", "{tmp}/b_object.npz"], EXIT_DATA,
                                    "data error: {tmp}/b_object.npz: cannot read array b: "
                                    "Object arrays cannot be loaded"),
    "predict-checkpoint-nan-W0": (PREDICT + ["--model", "{tmp}/w0_nan.npz"], EXIT_DATA,
                                  "data error: {tmp}/w0_nan.npz: array W0 does not hold "
                                  "finite floats"),
    "predict-checkpoint-window-string": (PREDICT + ["--model", "{tmp}/window_str.npz"], EXIT_DATA,
                                         "data error: {tmp}/window_str.npz: the metadata's "
                                         "featurizer settings"),
    # Featurizing time grows with ngram_max; train writes 5.
    "predict-checkpoint-huge-ngram-max": (PREDICT + ["--model", "{tmp}/ngram_max.npz"],
                                          EXIT_DATA, "data error: {tmp}/ngram_max.npz: the "
                                          "metadata's featurizer settings"),
    "predict-checkpoint-ngram-min-0": (PREDICT + ["--model", "{tmp}/ngram_min_0.npz"], EXIT_DATA,
                                       "data error: {tmp}/ngram_min_0.npz: the metadata's "
                                       "featurizer settings"),
    # A file to write, an output or its sidecar, that is a directory.
    "split-output-is-a-directory": (["split", "--input", "{tmp}/d_s.jsonl",
                                     "--output-train", "{tmp}/out/t.jsonl",
                                     "--output-validation", "{tmp}/a_dir"], EXIT_DATA,
                                    "data error: output {tmp}/a_dir is a directory"),
    "split-sidecar-is-a-directory": (["split", "--input", "{tmp}/d_s.jsonl",
                                      "--output-train", "{tmp}/busy.jsonl",
                                      "--output-validation", "{tmp}/out/v.jsonl"], EXIT_DATA,
                                     "data error: output {tmp}/busy.jsonl.provenance.json is a "
                                     "directory"),
    # A defect is injected (see DEFECTS): a bug, not a bad input, whatever its class.
    "internal-error": (SPLIT, EXIT_INTERNAL, "RuntimeError: split_train_validation broke"),
    "internal-value-error": (TRAIN, EXIT_INTERNAL, "ValueError: operands could not be broadcast"),
    "internal-non-finite-gradient": (TRAIN, EXIT_INTERNAL, "ValueError: non-finite gradient for"),
}


def raises(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def non_finite_grads(*args):
    loss, grads = loss_and_grads(*args)
    return loss, {key: np.full_like(grad, np.nan) for key, grad in grads.items()}


# The (module, name, replacement) each exit-5 case patches.
DEFECTS = {
    "internal-error": (cli, "split_train_validation",
                       raises(RuntimeError("split_train_validation broke"))),
    "internal-value-error": (cli, "train", raises(ValueError("operands could not be broadcast"))),
    # Trips adamw_step's guard: features are L2-normalized, so only a bug makes a NaN.
    "internal-non-finite-gradient": (training, "loss_and_grads", non_finite_grads),
}


def save_checkpoint(path, arrays, **feature):
    """Save checkpoint ``arrays`` with the ``feature`` entries of their metadata replaced."""
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    meta["feature"].update(feature)
    arrays = {**arrays, "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


@pytest.fixture
def bad_input_files(tmp_path):
    corpus = synthetic_corpus(6, seed=1)
    save_corpus(corpus, tmp_path / "d_s.jsonl")
    (tmp_path / "list.yaml").write_text("- mt\n")
    (tmp_path / "typo.yaml").write_text("mt:\n  paralelism: 4\n")
    (tmp_path / "mt_list.yaml").write_text("mt: [1]\n")
    (tmp_path / "dictionary_list.yaml").write_text("mt:\n  mock_dictionary: [1, 2]\n")
    (tmp_path / "dictionary_no.yaml").write_text("mt:\n  mock_dictionary: {love: no}\n")
    (tmp_path / "drop_int.yaml").write_text("mt:\n  mock_drop_tokens: 5\n")
    (tmp_path / "cache_int.yaml").write_text("paths:\n  cache_dir: 5\n")
    (tmp_path / "endpoint_list.yaml").write_text("mt:\n  backend: remote\n  endpoint: [x]\n")
    (tmp_path / "remote.yaml").write_text("mt:\n  backend: remote\n")
    (tmp_path / "pigeon.yaml").write_text("mt:\n  backend: pigeon\n")
    (tmp_path / "scheme.json").write_text('[["<<", ">>"]]')
    (tmp_path / "one.jsonl").write_text(json.dumps({"id": corpus.sentences[0].id, "mask": []}))
    (tmp_path / "unlabelled.jsonl").write_text(
        '{"id": "u-1", "lang": "en", "tokens": ["hi"], "mask": [0], "origin": "D_S"}\n')
    (tmp_path / "u_pred.jsonl").write_text('{"id": "u-1", "emotion": "Joy"}\n')
    (tmp_path / "u_mask.jsonl").write_text('{"id": "u-1@es", "mask": [0]}\n')
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "seven.jsonl").write_text("".join(
        f'{{"id": "n{i}", "lang": "en", "tokens": ["hi"], "origin": "D_S"}}\n' for i in range(7)))
    (tmp_path / "bad_mask.tsv").write_text("# id=a lang=en origin=D_S\nhi\t0\nthere\t2\n")
    (tmp_path / "latin1.jsonl").write_bytes(
        b'{"id": "a", "lang": "en", "tokens": ["x"], "origin": "D_S"}\n{"id": "caf\xe9"}\n')
    (tmp_path / "latin1.tsv").write_bytes(b"# id=a lang=en origin=D_S\ncaf\xe9\n")
    good = '{"id": "a", "lang": "en", "tokens": ["x"], "mask": [1], "origin": "D_S"}\n'
    (tmp_path / "surrogate.jsonl").write_text(
        good + r'{"id": "b", "lang": "en", "tokens": ["\ud800x"], "mask": [1], "origin": "D_S"}')
    (tmp_path / "surrogate_id.jsonl").write_text(
        good + r'{"id": "b\udc00", "lang": "en", "tokens": ["y"], "mask": [0], "origin": "D_S"}')
    # switch reads the target's span alignments from <target>.pairs.jsonl.
    (tmp_path / "u.jsonl").write_text(
        '{"id": "u-1@es", "lang": "es", "tokens": ["hola"], "origin": "D_T"}\n')
    shutil.copy(tmp_path / "latin1.jsonl", tmp_path / "u.jsonl.pairs.jsonl")
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "busy.jsonl.provenance.json").mkdir()
    save_model(train(corpus, "trigger", TrainConfig(epochs=1, feature_dim=512)),
               tmp_path / "model.npz")
    with np.load(tmp_path / "model.npz") as data:
        arrays = {name: data[name] for name in data.files}
    w0 = arrays["W0"]
    save_checkpoint(tmp_path / "w0_str.npz", {**arrays, "W0": w0.astype(str)})
    save_checkpoint(tmp_path / "w0_nan.npz", {**arrays, "W0": np.full_like(w0, np.nan)})
    save_checkpoint(tmp_path / "b_object.npz", {**arrays, "b": arrays["b"].astype(object)})
    save_checkpoint(tmp_path / "window_str.npz", arrays, window="2")
    save_checkpoint(tmp_path / "ngram_max.npz", arrays, ngram_max=3_000_000)
    save_checkpoint(tmp_path / "ngram_min_0.npz", arrays, ngram_min=0)
    raw = bytearray((tmp_path / "model.npz").read_bytes())
    at = raw.index(w0.tobytes())  # W0's data, stored uncompressed: flip 8 of its bytes
    raw[at:at + 8] = bytes(byte ^ 0xFF for byte in raw[at:at + 8])
    (tmp_path / "w0_crc.npz").write_bytes(bytes(raw))
    return tmp_path


@pytest.mark.parametrize("case", BAD_INPUT_CASES)
def test_documented_bad_input_exit_code(bad_input_files, capsys, monkeypatch, case):
    argv, code, fragment = BAD_INPUT_CASES[case]
    tmp = bad_input_files
    if code == EXIT_INTERNAL:
        monkeypatch.setattr(*DEFECTS[case])
    assert main([arg.format(tmp=tmp) for arg in argv]) == code
    captured = capsys.readouterr()
    assert fragment.format(tmp=tmp) in captured.out + captured.err
    assert ("Traceback" in captured.err) == (code == EXIT_INTERNAL)
    assert (tmp / "out").exists() == (code == EXIT_OK)


@pytest.mark.parametrize("case", [case for case in BAD_INPUT_CASES if case.startswith("train-")])
def test_bad_train_input_is_rejected_before_training(bad_input_files, monkeypatch, case):
    argv, code, _ = BAD_INPUT_CASES[case]
    trained = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: trained.append(args))
    assert main([arg.format(tmp=bad_input_files) for arg in argv]) == code
    assert trained == []


@dataclasses.dataclass
class OtherTrainDefaults(TrainConfig):
    lr: float = 2e-5
    batch_size: int = 3
    epochs: int = 3
    seed: int = 9
    schedule: str = "linear"
    weight_decay: float = 0.5
    feature_dim: int = 2**10


@dataclasses.dataclass
class OtherLoraDefaults(LoraConfig):
    alpha: float = 4.0


@pytest.mark.parametrize("train_config, lora_config", [
    (TrainConfig, LoraConfig), (OtherTrainDefaults, OtherLoraDefaults)], ids=["ours", "other"])
@pytest.mark.parametrize("lora_flags", [[], ["--lora-r", "2", "--epochs", "4"], ["--lora-r", "2"]],
                         ids=["plain", "lora", "lora-default-epochs"])
def test_train_flag_defaults_are_the_config_defaults(bad_input_files, monkeypatch, train_config,
                                                     lora_config, lora_flags):
    # The flags take every default from the config classes, whatever those are.
    monkeypatch.setattr(cli, "TrainConfig", train_config)
    monkeypatch.setattr(cli, "LoraConfig", lora_config)
    configs = []

    def record_and_stop(corpus, task, config, validation=None):
        configs.append(config)
        raise cli.DataError("stop before training")

    monkeypatch.setattr(cli, "train", record_and_stop)
    main(["train", "--input", str(bad_input_files / "d_s.jsonl"), "--task", "trigger",
          "--output", str(bad_input_files / "out" / "model.npz")] + lora_flags)
    want = train_config()
    if lora_flags:
        # Without --epochs an adapter run trains the default epochs up to the adapter's cap.
        epochs = 4 if "--epochs" in lora_flags else min(want.epochs, MAX_ADAPTER_EPOCHS)
        want = dataclasses.replace(want, lora=lora_config(rank=2), epochs=epochs)
    assert configs == [want]


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
