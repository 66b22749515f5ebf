"""Command-line pipeline: split, project, switch, combine, train, predict, evaluate, parse-llm.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 translation
backend error, 5 internal error. Every output file gets a
``<name>.provenance.json`` sidecar recording the command, a hash of its
effective configuration, the seed, and input file hashes.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import traceback
from pathlib import Path

import yaml

from .augment import AlignedPair, CombinationSpec, build_dataset, switch_corpus
from .corpus import (
    LANGUAGES,
    Corpus,
    CorpusFormatError,
    DatasetTag,
    EmotionLabel,
    label_distribution,
    load_corpus,
    save_corpus,
    split_train_validation,
    write_provenance,
)
from .metrics import build_report, normalize_attributions
from .projection import MarkerScheme, TriggerSpan, project_corpus, spans_from_mask
from .training import (
    LoraConfig,
    MissingLabelsError,
    TrainConfig,
    TrainConfigError,
    load_model,
    save_model,
    train,
)
from .translate import (
    MAX_PARALLELISM,
    DictionaryBackend,
    IdentityBackend,
    RemoteHttpBackend,
    TranslationCache,
    TranslationError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4
EXIT_INTERNAL = 5

EXIT_CODE_HELP = (
    "exit codes: 0 success, 2 configuration error, 3 data error, "
    "4 translation backend error, 5 internal error"
)


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


class LlmResponseError(ValueError):
    """No parseable emotion label in an LLM response."""

    def __init__(self, text: str):
        super().__init__(f"no emotion label found in response: {text!r}")
        self.text = text


_LABEL_MARKER = re.compile(r"label\s*:", re.IGNORECASE)
_LEADING_JUNK = " \t\r\n'\"‘’“”`*_.,:;!?()[]<>-"
_LABEL_WORDS = {label.value.lower(): label for label in EmotionLabel}


def parse_llm_response(text: str) -> EmotionLabel:
    """Extract the emotion from a "Label: <word>" response, tolerating decoration."""
    for match in _LABEL_MARKER.finditer(text):
        rest = text[match.end():].lstrip(_LEADING_JUNK)
        word = re.match(r"[A-Za-z]+", rest)
        if word and word.group(0).lower() in _LABEL_WORDS:
            return _LABEL_WORDS[word.group(0).lower()]
    raise LlmResponseError(text)


# ---------------------------------------------------------------------------
# configuration and provenance plumbing

def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {path}")
    loaded = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ConfigError("config file must contain a mapping")
    return loaded


def config_get(config: dict, dotted: str, default=None):
    node = config
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def resolve(flag_value, config: dict, dotted: str, default=None):
    """Precedence: explicit flag > config file > default."""
    if flag_value is not None:
        return flag_value
    return config_get(config, dotted, default)


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def build_provenance(command: str, settings: dict, inputs: list[Path], seed=None) -> dict:
    canonical = json.dumps(settings, sort_keys=True, default=str)
    return {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": seed,
        "inputs": {str(p): file_sha256(Path(p)) for p in inputs},
    }


def write_jsonl(records: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def make_backend(name: str, config: dict):
    if name == "identity":
        return IdentityBackend()
    if name == "mock":
        mapping = config_get(config, "mt.mock_dictionary", {}) or {}
        drop = config_get(config, "mt.mock_drop_tokens", []) or []
        return DictionaryBackend(mapping=dict(mapping), drop_tokens=frozenset(drop))
    if name == "remote":
        endpoint = config_get(config, "mt.endpoint")
        if not endpoint:
            raise ConfigError("remote backend needs mt.endpoint in the config file")
        return RemoteHttpBackend(endpoint)
    raise ConfigError(f"unknown backend {name!r}; expected identity, mock, or remote")


def parse_scheme(text: str | None) -> MarkerScheme:
    if text is None:
        return MarkerScheme()
    candidate = Path(text)
    try:
        raw = candidate.read_text(encoding="utf-8") if candidate.is_file() else text
        data = json.loads(raw)
        pairs = tuple((str(pair[0]), str(pair[1])) for pair in data)
        return MarkerScheme(pairs=pairs)
    except (json.JSONDecodeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid marker scheme {text!r}: {exc}") from None


def _load(path: str, format: str) -> Corpus:
    file_path = Path(path)
    if not file_path.exists():
        raise DataError(f"input file not found: {path}")
    return load_corpus(file_path, format=format)


# ---------------------------------------------------------------------------
# commands

def cmd_split(args, config) -> None:
    if not 0.0 < args.fraction < 1.0:
        raise ConfigError(f"--fraction must be in (0, 1), got {args.fraction}")
    corpus = _load(args.input, args.format)
    train_corpus, val_corpus = split_train_validation(corpus, args.fraction, args.seed)
    for half, name in ((train_corpus, "training"), (val_corpus, "validation")):
        if not half.sentences:
            raise DataError(
                f"{args.input}: splitting {len(corpus)} sentences at fraction {args.fraction} "
                f"leaves the {name} half empty"
            )
    provenance = build_provenance(
        "split",
        {"fraction": args.fraction, "seed": args.seed, "format": args.format},
        [Path(args.input)],
        seed=args.seed,
    )
    for corpus_out, path in ((train_corpus, args.output_train), (val_corpus, args.output_validation)):
        corpus_out.provenance.update(provenance)
        save_corpus(corpus_out, path, format=args.format)
    print(f"split {len(corpus)} -> {len(train_corpus)} train + {len(val_corpus)} validation")


def cmd_project(args, config) -> None:
    for flag, value in (("--src", args.src), ("--tgt", args.tgt)):
        if value not in LANGUAGES:
            raise ConfigError(f"{flag} must be one of {LANGUAGES}, got {value!r}")
    if args.src == args.tgt:
        raise ConfigError("--src and --tgt must differ")
    corpus = _load(args.input, args.format)
    wrong = [s.id for s in corpus.sentences if s.language != args.src]
    if wrong:
        raise DataError(f"sentences not in source language {args.src!r}: {wrong[:5]}")
    backend_name = resolve(args.backend, config, "mt.backend", "identity")
    backend = make_backend(backend_name, config)
    cache_dir = resolve(args.cache_dir, config, "paths.cache_dir")
    if backend_name == "remote" and cache_dir is None:
        raise ConfigError("remote backend requires --cache-dir for reproducibility")
    cache = TranslationCache(cache_dir) if cache_dir else None
    parallelism = resolve(args.parallelism, config, "mt.parallelism", 1)
    if type(parallelism) is not int or not 1 <= parallelism <= MAX_PARALLELISM:
        raise ConfigError(
            f"parallelism must be an integer from 1 to {MAX_PARALLELISM}, got {parallelism!r}"
        )
    scheme = parse_scheme(args.scheme)

    report = project_corpus(
        corpus, scheme, backend, args.src, args.tgt, cache=cache, parallelism=parallelism
    )
    provenance = build_provenance(
        "project",
        {
            "backend": backend.backend_id,
            "src": args.src,
            "tgt": args.tgt,
            "scheme": scheme.pairs,
            "parallelism": parallelism,
            "format": args.format,
        },
        [Path(args.input)],
    )
    report.corpus.provenance.update(provenance)
    output = Path(args.output)
    save_corpus(report.corpus, output, format=args.format)

    discard_path = Path(args.discard_log) if args.discard_log else output.with_name(output.name + ".discards.jsonl")
    write_jsonl(
        [
            {"id": d.id, "reason": d.reason.value, "translated_text": d.translated_text}
            for d in report.discards
        ],
        discard_path,
    )
    pairs_path = Path(args.pairs) if args.pairs else output.with_name(output.name + ".pairs.jsonl")
    write_jsonl(
        [
            {
                "source_id": source.id,
                "target_id": projected.sentence.id,
                "source_spans": [
                    [s.start, s.end, s.marker_index] for s in spans_from_mask(source.trigger_mask)
                ],
                "target_spans": [
                    [s.start, s.end, s.marker_index] for s in projected.spans
                ],
            }
            for source, projected in report.alignments
        ],
        pairs_path,
    )
    print(
        f"projected {len(report.corpus)} of {len(corpus)} sentences to {args.tgt} "
        f"({len(report.discards)} discarded)"
    )


def cmd_switch(args, config) -> None:
    source = _load(args.source, args.format)
    target = _load(args.target, args.format)
    pairs_path = Path(args.pairs) if args.pairs else Path(args.target).with_name(Path(args.target).name + ".pairs.jsonl")
    if not pairs_path.exists():
        raise DataError(f"pairs file not found: {pairs_path}")
    source_by_id = {s.id: s for s in source.sentences}
    target_by_id = {s.id: s for s in target.sentences}
    pairs: list[AlignedPair] = []
    with open(pairs_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            source_id, target_id = record["source_id"], record["target_id"]
            if source_id not in source_by_id:
                raise DataError(f"pairs line {lineno}: id {source_id!r} missing from source corpus")
            if target_id not in target_by_id:
                raise DataError(f"pairs line {lineno}: id {target_id!r} missing from target corpus")
            pair = AlignedPair(
                source=source_by_id[source_id],
                target=target_by_id[target_id],
                source_spans=[TriggerSpan(*s) for s in record["source_spans"]],
                target_spans=[TriggerSpan(*s) for s in record["target_spans"]],
            )
            pair.validate()
            pairs.append(pair)
    st_corpus, ts_corpus = switch_corpus(pairs)
    provenance = build_provenance(
        "switch", {"format": args.format}, [Path(args.source), Path(args.target), pairs_path]
    )
    for corpus_out, path in ((st_corpus, args.output_st), (ts_corpus, args.output_ts)):
        corpus_out.provenance.update(provenance)
        save_corpus(corpus_out, path, format=args.format)
    print(f"switched {len(pairs)} pairs")


def cmd_combine(args, config) -> None:
    spec = CombinationSpec.parse(args.combine)
    paths = {
        DatasetTag.D_S: args.d_s,
        DatasetTag.D_T: args.d_t,
        DatasetTag.D_ST: args.d_st,
        DatasetTag.D_TS: args.d_ts,
    }
    corpora = {}
    inputs = []
    for tag in spec.include:
        if not paths[tag]:
            raise ConfigError(f"combination includes {tag.value} but no path was given")
        # a tag may span several files (one per target language)
        merged = Corpus()
        for path in paths[tag]:
            merged.sentences.extend(_load(path, args.format).sentences)
            inputs.append(Path(path))
        merged.validate()
        corpora[tag] = merged
    combined = build_dataset(spec, corpora)
    combined.provenance.update(
        build_provenance("combine", {"combine": str(spec), "format": args.format}, sorted(inputs))
    )
    save_corpus(combined, args.output, format=args.format)
    print(f"combined {str(spec)} -> {len(combined)} sentences")


def cmd_train(args, config) -> None:
    corpus = _load(args.input, args.format)
    validation = _load(args.validation, args.format) if args.validation else None
    lora = None
    if args.lora_r is not None:
        lora = LoraConfig(rank=args.lora_r, alpha=args.lora_alpha if args.lora_alpha is not None else 16.0)
    elif args.lora_alpha is not None:
        raise ConfigError("--lora-alpha requires --lora-r")
    train_config = TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        lora=lora,
        seed=args.seed,
        schedule=args.schedule,
        weight_decay=args.weight_decay,
        feature_dim=args.feature_dim,
    )
    try:
        trained = train(corpus, args.task, train_config, validation=validation)
    except MissingLabelsError as exc:
        path = args.validation if exc.role == "validation" else args.input
        raise DataError(f"{path}: {exc}") from exc
    except ValueError as exc:
        if isinstance(exc, TrainConfigError):
            raise
        raise DataError(str(exc)) from exc
    output = Path(args.output)
    save_model(trained, output)
    inputs = [Path(args.input)] + ([Path(args.validation)] if args.validation else [])
    write_provenance(
        output,
        build_provenance(
            "train",
            {"task": args.task, "config": str(train_config), "format": args.format},
            inputs,
            seed=args.seed,
        ),
    )
    last = trained.history[-1] if trained.history else {}
    print(f"trained {args.task} model: {json.dumps(last)}")


def cmd_predict(args, config) -> None:
    trained = load_model(Path(args.model))
    corpus = _load(args.input, args.format)
    records = trained.predict(corpus)
    output = Path(args.output)
    write_jsonl(records, output)
    write_provenance(
        output,
        build_provenance(
            "predict",
            {"task": trained.task, "format": args.format},
            [Path(args.model), Path(args.input)],
        ),
    )
    print(f"predicted {len(records)} sentences ({trained.task})")


def cmd_evaluate(args, config) -> None:
    gold = _load(args.gold, args.format)
    predictions_path = Path(args.predictions)
    if not predictions_path.exists():
        raise DataError(f"predictions file not found: {args.predictions}")
    by_id: dict[str, dict] = {}
    line_of: dict[str, int] = {}
    with open(predictions_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"{args.predictions} line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: invalid JSON: {exc.msg}") from None
            if not isinstance(record, dict) or not isinstance(record.get("id"), str):
                raise DataError(f"{where}: expected an object with a string 'id'")
            if record["id"] in line_of:
                raise DataError(
                    f"{where}: duplicate id {record['id']!r}, "
                    f"first at line {line_of[record['id']]}"
                )
            line_of[record["id"]] = lineno
            by_id[record["id"]] = record

    missing = [s.id for s in gold.sentences if s.id not in by_id]
    if missing:
        raise DataError(f"missing predictions for ids: {missing[:5]}")
    gold_ids = {s.id for s in gold.sentences}
    unknown = [sid for sid in by_id if sid not in gold_ids]
    if unknown:
        raise DataError(
            f"{args.predictions}: {len(unknown)} prediction ids not in {args.gold}: {unknown[:5]}"
        )

    emotion_pairs = []
    mask_pairs = []
    attribution_pairs = []
    for sentence in gold.sentences:
        record = by_id[sentence.id]
        if "emotion" in record:
            if sentence.emotion is None:
                raise DataError(f"gold sentence {sentence.id!r} has no emotion label")
            emotion_pairs.append((sentence.emotion, EmotionLabel.from_string(record["emotion"])))
        if "mask" in record:
            if sentence.trigger_mask is None:
                raise DataError(f"gold sentence {sentence.id!r} has no trigger mask")
            if len(record["mask"]) != len(sentence.trigger_mask):
                raise DataError(f"prediction mask length mismatch for id {sentence.id!r}")
            mask_pairs.append((sentence.trigger_mask, [int(v) for v in record["mask"]]))
        if "numeric" in record:
            if sentence.trigger_mask is None:
                raise DataError(f"gold sentence {sentence.id!r} has no trigger mask")
            if len(record["numeric"]) != len(sentence.trigger_mask):
                raise DataError(f"numeric attribution length mismatch for id {sentence.id!r}")
            attribution_pairs.append(
                (sentence.trigger_mask, normalize_attributions([float(v) for v in record["numeric"]]))
            )

    report = build_report(
        emotion_pairs=emotion_pairs or None,
        mask_pairs=mask_pairs or None,
        attribution_pairs=attribution_pairs or None,
    )
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(
        json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8",
    )
    if args.confusion_csv:
        if report.confusion is None:
            raise ConfigError("--confusion-csv needs emotion predictions to evaluate")
        Path(args.confusion_csv).write_text(report.confusion.to_csv(), encoding="utf-8")
    write_provenance(
        output,
        build_provenance("evaluate", {"format": args.format}, [Path(args.gold), predictions_path]),
    )
    print(json.dumps(report.to_json_dict()))


def cmd_parse_llm(args, config) -> None:
    input_path = Path(args.input)
    if not input_path.exists():
        raise DataError(f"input file not found: {args.input}")
    rows = []
    errors = []
    with open(input_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DataError(f"line {lineno}: expected 'id<TAB>response'")
            sid, response = line.split("\t", 1)
            try:
                label = parse_llm_response(response)
                rows.append((sid, label.value))
            except LlmResponseError as exc:
                errors.append({"id": sid, "error": str(exc), "text": response})
                if args.fallback_neutral:
                    rows.append((sid, EmotionLabel.NEUTRAL.value))
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    with open(output, "w", encoding="utf-8") as handle:
        for sid, label in rows:
            handle.write(f"{sid}\t{label}\n")
    write_jsonl(errors, output.with_name(output.name + ".errors.jsonl"))
    write_provenance(
        output,
        build_provenance(
            "parse-llm", {"fallback_neutral": bool(args.fallback_neutral)}, [input_path]
        ),
    )
    print(f"parsed {len(rows)} labels ({len(errors)} errors)")


def cmd_stats(args, config) -> None:
    corpus = _load(args.input, args.format)
    counts = label_distribution(corpus)
    print(json.dumps({label.value: count for label, count in counts.items()}, indent=2))


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlproject",
        description="Cross-lingual emotion/trigger corpus pipeline",
        epilog=EXIT_CODE_HELP,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML configuration file")
    common.add_argument("--format", choices=("jsonl", "tsv"), default="jsonl")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", parents=[common], help="deterministic train/validation split")
    p.add_argument("--input", required=True)
    p.add_argument("--fraction", type=float, default=0.10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-train", required=True)
    p.add_argument("--output-validation", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("project", parents=[common], help="mark, translate, and project labels")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--backend", choices=("identity", "mock", "remote"))
    p.add_argument("--src", default="en")
    p.add_argument("--tgt", required=True)
    p.add_argument("--scheme", help="JSON list of [open, close] pairs, inline or a file path")
    p.add_argument("--cache-dir")
    p.add_argument("--parallelism", type=int)
    p.add_argument("--discard-log")
    p.add_argument("--pairs", help="where to write span alignments (default <output>.pairs.jsonl)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("switch", parents=[common], help="build trigger-switched corpora")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--pairs")
    p.add_argument("--output-st", required=True)
    p.add_argument("--output-ts", required=True)
    p.set_defaults(func=cmd_switch)

    p = sub.add_parser("combine", parents=[common], help="concatenate dataset combinations")
    p.add_argument("--combine", required=True, help='e.g. "D_S+D_T+D_St+D_Ts"')
    p.add_argument("--d-s", action="append", help="repeatable")
    p.add_argument("--d-t", action="append", help="repeatable (one file per target language)")
    p.add_argument("--d-st", action="append", help="repeatable")
    p.add_argument("--d-ts", action="append", help="repeatable")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("train", parents=[common], help="train a classifier head")
    p.add_argument("--input", required=True)
    p.add_argument("--validation")
    p.add_argument("--task", choices=("emotion", "trigger"), required=True)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lora-r", type=int)
    p.add_argument("--lora-alpha", type=float)
    p.add_argument("--schedule", choices=("constant", "linear"), default="constant")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--feature-dim", type=int, default=2**18)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="predict with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", parents=[common], help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--confusion-csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("parse-llm", parents=[common], help="parse 'Label: X' LLM responses")
    p.add_argument("--input", required=True, help="TSV file: id<TAB>raw response")
    p.add_argument("--output", required=True)
    p.add_argument("--fallback-neutral", action="store_true")
    p.set_defaults(func=cmd_parse_llm)

    p = sub.add_parser("stats", parents=[common], help="print the label distribution")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config_file(args.config)
        args.func(args, config)
    except (ConfigError, TrainConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, CorpusFormatError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TranslationError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
