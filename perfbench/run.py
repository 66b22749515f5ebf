"""Benchmark of the xlproject pipeline, driven through its CLI in one process.

    python3 perfbench/run.py --workload lora-adapter --seed 1 --seconds 60 --trace 0

Until ``--seconds`` are used up, it sets up (imports the program afresh from
``src/`` of the checkout and generates the workload's inputs from the seed)
and runs one complete pipeline pass (split, project, switch, combine, train,
predict, evaluate; one CLI command after another, one client, no
concurrency), again and again. After its evaluation
report, each pass predicts again (``Sizes.predicts``), so that the predict
figure rests on several samples per pass. Each pass checks its outputs. With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json`` as
medians over all samples of the run; with ``--trace 1`` it alternates plain
and traced passes and prints the per-layer metrics of the traced ones, plus
the tracing overhead. The last line of standard output is the JSON result.
Scratch files go to ``.perfbench_work/`` in the checkout (see ``clear_outputs``);
the spans of a traced run stay there as ``spans-<workload>-seed<seed>.jsonl``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
KEPT_RUNS = 200

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer, install, layer_metrics, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Pass:
    """One pipeline pass: the commands run, what they measured, what failed."""

    def __init__(self):
        self.ops: list[dict] = []
        self.metrics: dict[str, list[float]] = defaultdict(list)  # samples of each metric
        self.digests: dict[str, str] = {}
        self.wall_s = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"])


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def lines(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip())


def tokens(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(len(json.loads(line)["tokens"]) for line in handle if line.strip())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(cli, workload, size, inputs: Path, out: Path, tracer: Tracer | None) -> Pass:
    result = Pass()
    out.mkdir(parents=True)
    start = time.perf_counter()
    for argv in workload.commands(inputs, out, size):
        captured = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        end = time.perf_counter()
        op = {"argv": argv, "seconds": end - t0, "problems": []}
        result.ops.append(op)
        if code != 0:
            op["problems"].append(f"exit {code}: {captured.getvalue().strip()[-500:]}")
            break
        if argv[0] == "evaluate":
            result.metrics["pipeline_s"].append(end - start)
    if not result.failed:
        check_and_measure(result, workload, size)
    return result


def check_and_measure(result: Pass, workload, size) -> None:
    """Output checks of every command, and the samples of one pass.

    Each predict run gives one sample, and every prediction of the pass must
    match the first one byte for byte.
    """
    project = {"cold": [0, 0.0], "warm": [0, 0.0]}
    for op in result.ops:
        argv, problems = op["argv"], op["problems"]
        command = argv[0]
        if command == "project":
            source, output = Path(flag(argv, "--input")), Path(flag(argv, "--output"))
            discards = output.with_name(output.name + ".discards.jsonl")
            attempted = lines(source)
            if lines(output) + lines(discards) != attempted:
                problems.append(f"kept + discarded != {attempted} attempted")
            kind = "warm" if output.name.endswith(".warm.jsonl") else "cold"
            if kind == "warm":
                cold = output.with_name(output.name.replace(".warm.jsonl", ".jsonl"))
                if sha256(output) != sha256(cold):
                    problems.append("warm-cache output differs from the cold one")
            project[kind][0] += attempted
            project[kind][1] += op["seconds"]
        elif command == "train":
            train_file = Path(flag(argv, "--input"))
            result.digests["train_input"] = sha256(train_file)
            count = tokens(train_file) if workload.task == "trigger" else lines(train_file)
            instances = count * int(flag(argv, "--epochs"))
            result.metrics["train_inst_per_s"].append(instances / op["seconds"])
        elif command == "predict":
            output = Path(flag(argv, "--output"))
            if result.digests.setdefault("predictions", sha256(output)) != sha256(output):
                problems.append(f"{output.name} differs from the first predictions")
            sentences = lines(Path(flag(argv, "--input")))
            result.metrics["predict_sent_per_s"].append(sentences / op["seconds"])
        elif command == "evaluate":
            report = Path(flag(argv, "--output"))
            result.digests["report"] = sha256(report)
            score = json.loads(report.read_text(encoding="utf-8"))[workload.score_key]
            result.metrics["task_score"].append(score)
            if score < size.floor:
                problems.append(f"{workload.score_key} {score} below floor {size.floor}")
    for kind, (sentences, seconds) in project.items():
        result.metrics[f"project_{kind}_sent_per_s"].append(sentences / seconds)


def host_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def fresh_import():
    """Import the program from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "xlproject" or m.startswith("xlproject.")]:
        del sys.modules[name]
    cli = importlib.import_module("xlproject.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"xlproject was imported from {cli.__file__}, not from src/")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for checking the harness itself")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # numpy is first imported below
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (ROOT / "src" / "xlproject" / "__init__.py").is_file():
            raise ImportError("src/xlproject is missing from the checkout")
        sys.path.insert(0, str(ROOT / "src"))
        fresh_import()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    size = workload.sizes["toy" if args.toy else "full"]
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    prune(WORK)
    try:
        return measure(args, spec, workload, size, work)
    finally:
        clear_outputs(work)


def clear_outputs(directory: Path) -> None:
    """Free the disk space of a finished pass or run but keep its cache entries' inodes.

    ext4 without a journal does not reuse an inode for a minute or more after it
    is freed (longer while its inode table block is not yet written back), and
    allocating an inode scans past every recently freed one of its group. After
    thousands of deletions, creating files is several times slower for minutes,
    which swamps the cold projections and ``pipeline_s`` of the passes and runs
    that follow. So the translation-cache entries (thousands
    per pass) are truncated to 0 bytes, which frees their blocks and leaves
    their inodes in use; the other outputs, a few dozen files, are deleted.
    """
    for path in sorted(directory.rglob("*"), reverse=True):
        if "cache" in path.relative_to(directory).parts:
            if path.is_file():
                os.truncate(path, 0)
        elif path.is_dir():
            with contextlib.suppress(OSError):
                path.rmdir()  # left in place while it holds a cache
        else:
            path.unlink()


def prune(work: Path) -> None:
    """Past KEPT_RUNS run directories, delete them all: rarely, so the slow period is rare."""
    if work.is_dir() and sum(1 for p in work.iterdir() if p.is_dir()) > KEPT_RUNS:
        shutil.rmtree(work)


def measure(args, spec, workload, size, work: Path) -> int:
    setup_times = []
    passes: list[tuple[bool, Pass]] = []
    tracers: list[Tracer] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        # Every pass starts from a set-up of its own, as a user's run would, so
        # setup_s is sampled across the whole run like the other figures. The
        # garbage of the previous pass (its modules among it) is collected
        # first, so each set-up and pass starts from the same heap, as a new
        # process would.
        inputs = work / f"inputs{len(passes)}"
        gc.collect()
        t0 = time.perf_counter()
        cli = fresh_import()
        inputs.mkdir(parents=True)
        stats = workload.make_inputs(args.seed, inputs, size)
        setup_times.append(time.perf_counter() - t0)

        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = Tracer(run_id=f"{workload.name}/{args.seed}/pass{len(passes)}") if traced else None
        if tracer is not None:
            install(tracer)
        t0 = time.perf_counter()
        try:
            result = run_pass(cli, workload, size, inputs, work / f"pass{len(passes)}", tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        clear_outputs(work / f"pass{len(passes)}")
        result.wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracers.append(tracer)
            for name, value in layer_metrics(tracer).items():
                result.metrics[name].append(value)
        if passes and not result.failed:
            for key, digest in passes[0][1].digests.items():
                if result.digests.get(key) != digest:
                    op = next(op for op in result.ops if op["argv"][0] == {
                        "train_input": "train", "predictions": "predict", "report": "evaluate"
                    }[key])
                    op["problems"].append(f"{key} digest differs from the first pass")
        passes.append((traced, result))
        typical = median([p.wall_s for _, p in passes])
        enough = not args.trace or len(passes) >= 2
        if result.failed or (enough and time.perf_counter() + typical > deadline):
            break

    attempted = sum(len(p.ops) for _, p in passes)
    failed = sum(p.failed for _, p in passes)
    for _, p in passes:
        for op in p.ops:
            for problem in op["problems"]:
                print(f"FAILED {' '.join(op['argv'][:1])}: {problem}", file=sys.stderr)

    plain = [p for traced, p in passes if not traced and not p.failed]
    traced = [p for traced, p in passes if traced and not p.failed]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    measured = traced if args.trace else plain
    values = {name: median([v for p in measured for v in p.metrics[name]])
              for name in {name for p in measured for name in p.metrics}}
    if args.trace:
        if traced and plain:
            values["trace.overhead_s"] = (
                median([v for p in traced for v in p.metrics["pipeline_s"]])
                - median([v for p in plain for v in p.metrics["pipeline_s"]]))
        values["workload.distinct_words"] = stats["distinct_words"]
        values["workload.repeat_share"] = stats["repeat_share"]
        write_spans(tracers, workload.name, args.seed)
    else:
        values["setup_s"] = median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print("host " + json.dumps(host_facts()))
    print("workload " + json.dumps({
        "name": workload.name, "seed": args.seed, "passes": len(passes),
        "traced_passes": len(traced), **stats,
        "pass_pipeline_s": [round(v, 4) for _, p in passes for v in p.metrics["pipeline_s"]],
        "digests": passes[0][1].digests,
    }))
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        note = "  (not exercised by this workload)" if args.trace and values[name] == 0 else ""
        print(f"  {name:<40} {values[name]:>14.6g} {entry['unit']}{note}")
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_spans(tracers: list[Tracer], workload: str, seed: int) -> None:
    path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for tracer in tracers:
            self_times = self_time(tracer.spans)
            for span_id, parent, name, start, end, run_id in tracer.spans:
                handle.write(json.dumps({"run": run_id, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end,
                                         "self": self_times[span_id]}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
