import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xlproject.synthetic import MAX_TRIGGERS, NO_TRIGGER_RATE, synthetic_corpus

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_scripts_generate_a_corpus_and_run_the_pipeline(tmp_path):
    output = tmp_path / "not" / "yet" / "train.jsonl"
    result = run_script("make_synthetic_corpus.py", "--n", 20, "--output", output)
    assert result.returncode == 0, result.stderr
    assert len(output.read_text().splitlines()) == 20
    assert json.loads(output.with_name("train.jsonl.provenance.json").read_text()) == {
        "generator": "synthetic", "seed": 1}

    workdir = tmp_path / "run"
    result = run_script("run_synthetic_pipeline.py", "--workdir", workdir, "--n", 60,
                        "--epochs", 1)
    assert result.returncode == 0, result.stderr
    report = json.loads((workdir / "report.json").read_text())
    assert 0.0 <= report["token_f1"] <= 1.0


def test_synthetic_sentences_carry_up_to_max_triggers():
    counts = [sum(s.trigger_mask) for s in synthetic_corpus(600, seed=3).sentences]
    assert (min(counts), max(counts)) == (0, MAX_TRIGGERS)
    assert abs(counts.count(0) / len(counts) - NO_TRIGGER_RATE) < 0.05


def test_pytest_imports_the_package_from_a_checkout_without_an_install():
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in paths if p and Path(p).resolve() != ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests/test_corpus.py"], cwd=ROOT, capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stdout + result.stderr


# The files of the synthetic pipeline that depend on nothing but the code: every output
# but the provenance sidecars, which record input paths, and the translation cache,
# which records times. The table changes only with a change meant to change outputs.
PIPELINE_DIGESTS = json.loads((ROOT / "tests" / "synthetic_pipeline_sha256.json").read_text())
# Files computed through numpy's exp and log, whose rounding may differ between CPUs.
FLOAT_DERIVED = {"model.npz", "predictions.jsonl", "report.json"}


@pytest.mark.parametrize("task", sorted(PIPELINE_DIGESTS))
def test_synthetic_pipeline_outputs_are_byte_identical_to_the_committed_digests(tmp_path, task):
    result = run_script("run_synthetic_pipeline.py", "--workdir", tmp_path, "--n", 300,
                        "--epochs", 2, "--task", task)
    assert result.returncode == 0, result.stderr
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()
               if path.is_file() and not path.name.endswith(".provenance.json")}
    expected = PIPELINE_DIGESTS[task]
    differing = sorted(name for name in digests.keys() | expected.keys()
                       if digests.get(name) != expected.get(name))
    where = ("only the float-derived files differ" if set(differing) <= FLOAT_DERIVED
             else "the text stages differ too")
    assert not differing, f"{task} pipeline outputs differ from the table: {differing} ({where})"
