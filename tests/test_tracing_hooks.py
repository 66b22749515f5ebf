"""The benchmark tracer's hooks still find the names and signatures they wrap.

``perfbench/tracing.py`` wraps functions and methods by name where the CLI
looks them up. A rename there would only show as a crash of a traced
benchmark run; this test makes it fail here instead.
"""
import importlib.util
from pathlib import Path

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


def test_install_wraps_every_hook_and_uninstall_restores_it(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer(run_id="hooks")
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
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"
