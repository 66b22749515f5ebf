"""Run the whole pipeline offline on synthetic data and print the report.

Drives the CLI commands end to end (split, project with the dictionary mock,
switch, combine, train, predict, evaluate) inside a working directory, with
no network access needed. Each command's wall time goes to stderr, so the
files and the printed report stay the same from run to run.

Example:
    python scripts/run_synthetic_pipeline.py --workdir runs/demo --n 300
"""
import argparse
import json
import sys
import time
from pathlib import Path

import yaml

from xlproject.cli import main as cli
from xlproject.cli import write_provenance
from xlproject.corpus import save_corpus
from xlproject.synthetic import mock_translation_table, synthetic_corpus


def run(argv: list[str]) -> None:
    start = time.perf_counter()
    code = cli(argv)
    print(f"{argv[0]}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--n", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--task", choices=("trigger", "emotion"), default="trigger")
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    root = Path(args.workdir)
    root.mkdir(parents=True, exist_ok=True)
    save_corpus(synthetic_corpus(args.n, seed=3), root / "d_s_all.jsonl")
    write_provenance(root / "d_s_all.jsonl", {"generator": "synthetic", "seed": 3})
    config = root / "config.yaml"
    config.write_text(yaml.safe_dump({"mt": {"mock_dictionary": mock_translation_table()}}))

    run([
        "split", "--input", str(root / "d_s_all.jsonl"), "--fraction", "0.10",
        "--seed", str(args.seed),
        "--output-train", str(root / "d_s.jsonl"),
        "--output-validation", str(root / "validation.jsonl"),
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
        "train", "--input", str(root / "train_all.jsonl"),
        "--validation", str(root / "validation.jsonl"),
        "--task", args.task, "--lr", "2e-4", "--epochs", str(args.epochs),
        "--batch-size", "16", "--seed", str(args.seed), "--feature-dim", "16384",
        "--output", str(root / "model.npz"),
    ])
    run([
        "predict", "--model", str(root / "model.npz"),
        "--input", str(root / "validation.jsonl"),
        "--output", str(root / "predictions.jsonl"),
    ])
    run([
        "evaluate", "--gold", str(root / "validation.jsonl"),
        "--predictions", str(root / "predictions.jsonl"),
        "--output", str(root / "report.json"),
    ])
    report = json.loads((root / "report.json").read_text())
    print("\nfinal report:")
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
