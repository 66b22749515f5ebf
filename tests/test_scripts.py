import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_pytest_imports_the_package_from_a_checkout_without_an_install():
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in paths if p and Path(p).resolve() != ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "tests/test_corpus.py"], cwd=ROOT, capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stdout + result.stderr
