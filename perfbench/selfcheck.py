"""Self-check of the benchmark harness at toy sizes; takes well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with ``--toy`` and asserts
that each run exits 0, reports no failed operation, and prints every metric
of ``BENCHMARK.json`` for its mode with the unit recorded there. Toy runs
measure nothing meaningful; they only exercise the harness end to end.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def check(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-800:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        problems.append(f"missing {missing} extra {extra} wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{name} value {metric['value']!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(spec, workload, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok'}   {workload} --trace {trace}"
                  + "".join(f"\n       {p}" for p in problems))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
