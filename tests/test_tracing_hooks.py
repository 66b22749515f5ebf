"""The benchmark tracer's hooks still find the names and signatures they wrap.

``perfbench/tracing.py`` wraps functions and methods by name where the CLI
looks them up. A rename there would only show as a crash of a traced
benchmark run; this test makes it fail here instead.
"""
import importlib.util
import json
from pathlib import Path

from xlproject import cli
from xlproject.cli import EXIT_OK, main
from xlproject.corpus import save_corpus
from xlproject.features import HashedNgramFeaturizer
from xlproject.synthetic import synthetic_corpus
from xlproject.training import load_model

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ancestors(spans, span):
    by_id = {s[0]: s for s in spans}
    names = []
    while span[1] is not None:
        span = by_id[span[1]]
        names.append(span[2])
    return names


def test_install_wraps_every_hook_and_uninstall_restores_it(tmp_path, monkeypatch):
    tracing = load_tracing()
    tracer = tracing.Tracer(run_id="hooks")
    # Under the tracer's wrapper: which span hashed which file.
    hashed = []
    sha256 = cli.file_sha256

    def recording_sha256(path):
        hashed.append((Path(path).name, tracer._stack()[-1]))
        return sha256(path)

    monkeypatch.setattr(cli, "file_sha256", recording_sha256)
    tracing.install(tracer)
    patched = list(tracer._patched)
    try:
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner}.{attr} not wrapped"

        save_corpus(synthetic_corpus(12, seed=1), tmp_path / "train.jsonl")
        test = synthetic_corpus(4, seed=2, id_prefix="t")
        save_corpus(test, tmp_path / "test.jsonl")
        assert main([
            "train", "--input", str(tmp_path / "train.jsonl"), "--task", "trigger",
            "--validation", str(tmp_path / "test.jsonl"), "--epochs", "1",
            "--feature-dim", "256", "--lora-r", "2", "--output", str(tmp_path / "m.npz"),
        ]) == EXIT_OK
        assert main([
            "predict", "--model", str(tmp_path / "m.npz"), "--input", str(tmp_path / "test.jsonl"),
            "--output", str(tmp_path / "pred.jsonl"),
        ]) == EXIT_OK
        trained = load_model(tmp_path / "m.npz")
        trained.predict_mask(test.sentences[0])
        trained.predict_numeric(test.sentences[0])
        HashedNgramFeaturizer(dim=64).sentence_features(test.sentences[0].tokens)

        metrics = tracing.layer_metrics(tracer)
        for name in ("cli.file_sha256_s", "corpus.load_s", "corpus.sentences_loaded",
                     "model.forward_calls", "training.steps", "optim.elements_per_step",
                     "features.calls", "features.tokens_per_s"):
            assert metrics[name] > 0, name
        assert {span[2] for span in tracer.spans} >= {
            "training.train", "training.predict", "model.loss_and_grads", "optim.adamw_step",
        }
        for name in ("model.loss_and_grads", "optim.adamw_step"):
            steps = [span for span in tracer.spans if span[2] == name]
            assert steps and all("training.train" in ancestors(tracer.spans, s) for s in steps)
        assert len(hashed) == sum(span[2] == "cli.file_sha256" for span in tracer.spans)
        [span_id] = [i for name, i in hashed if name == "m.npz"]
        assert tracer.spans[span_id][2] == "cli.file_sha256"
        sidecar = json.loads((tmp_path / "pred.jsonl.provenance.json").read_text())
        assert sidecar["inputs"][str(tmp_path / "m.npz")] == sha256(tmp_path / "m.npz")
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
