"""Emit a synthetic labelled corpus for offline experiments.

Example:
    python scripts/make_synthetic_corpus.py --n 600 --seed 1 --output data/train.jsonl
"""
import argparse
from pathlib import Path

from xlproject.cli import write_provenance
from xlproject.corpus import save_corpus
from xlproject.synthetic import synthetic_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--id-prefix", default="syn")
    parser.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    corpus = synthetic_corpus(args.n, seed=args.seed, id_prefix=args.id_prefix)
    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    save_corpus(corpus, args.output, format=args.format)
    write_provenance(args.output, {"generator": "synthetic", "seed": args.seed})
    print(f"wrote {len(corpus)} sentences to {args.output}")


if __name__ == "__main__":
    main()
