"""Command-line pipeline: split, project, switch, combine, train, predict, evaluate, parse-llm.

Exit codes follow the kind of error (see :mod:`xlproject.errors`): 0 success,
2 ConfigError, 3 DataError or OSError, 4 TranslationError, 5 any other
exception, a defect, printed with its traceback. Every command writes its
outputs through :func:`write_outputs`, which, before the command's work,
rejects an output that is an input or another output (exit 2) or a directory
(exit 3), then creates each output's directory and writes its
``<output>.provenance.json`` sidecar: the command, a hash of its effective
configuration, the seed, the hashes of its input files, taken once after the
command has read them, and the command's own keys.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import re
import sys
import traceback
from pathlib import Path

import yaml

from .augment import (
    CombinationSpec,
    build_dataset,
    load_pairs,
    make_aligned_pair,
    save_pairs,
    switch_corpus,
)
from .corpus import (
    LANGUAGES,
    Corpus,
    DatasetTag,
    EmotionLabel,
    check_new_id,
    is_binary_mask,
    label_distribution,
    load_corpus,
    read_jsonl,
    read_lines,
    save_corpus,
    sidecar,
    split_train_validation,
    write_jsonl,
)
from .errors import ConfigError, DataError, LlmResponseError, MissingLabelsError, TranslationError
# perfbench/tracing.py looks up normalize_attributions, the one-sentence normalize_each, here.
from .metrics import build_report, normalize_attributions, normalize_each  # noqa: F401
from .projection import MarkerScheme, project_corpus
from .training import (
    MAX_ADAPTER_EPOCHS,
    SCHEDULES,
    TASKS,
    LoraConfig,
    TrainConfig,
    load_model,
    num_classes,
    save_model,
    train,
)
from .translate import (
    MAX_PARALLELISM,
    DictionaryBackend,
    IdentityBackend,
    RemoteHttpBackend,
    TranslationCache,
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
    raise LlmResponseError(f"no emotion label found in response: {text!r}")


# ---------------------------------------------------------------------------
# configuration and provenance plumbing

_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
BACKENDS = ("identity", "mock", "remote")


def _strings(values) -> bool:
    return all(isinstance(value, str) for value in values)


# Each setting a config file may hold, by dotted name: what its value must be, and the test.
CONFIG_SETTINGS = {
    "mt.backend": ("a string", lambda value: isinstance(value, str)),
    "mt.endpoint": ("a string", lambda value: isinstance(value, str)),
    "mt.parallelism": (f"an integer from 1 to {MAX_PARALLELISM}", lambda value: type(value) is int),
    "mt.mock_dictionary": ("a mapping of strings to strings", lambda value: (
        isinstance(value, dict) and _strings(value) and _strings(value.values()))),
    "mt.mock_drop_tokens": ("a list of strings",
                            lambda value: isinstance(value, list) and _strings(value)),
    "paths.cache_dir": ("a string", lambda value: isinstance(value, str)),
}


def load_config_file(path: str) -> dict:
    """The settings of a YAML config file by their dotted names, those of CONFIG_SETTINGS."""
    try:
        loaded = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if loaded is None:
        return {}
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: config file must contain a mapping")
    settings = {}
    for section, values in loaded.items():
        if not isinstance(values, dict):
            raise ConfigError(f"{path}: section {section} must be a mapping")
        for key, value in values.items():
            name = f"{section}.{key}"
            if name not in CONFIG_SETTINGS:
                raise ConfigError(f"{path}: unknown setting {name}")
            must_be, valid = CONFIG_SETTINGS[name]
            if not valid(value):
                raise ConfigError(f"{path}: {name} must be {must_be}")
            settings[name] = value
    return settings


def resolve(flag_value, config: dict, name: str, default=None):
    """Precedence: explicit flag > config file > default."""
    if flag_value is not None:
        return flag_value
    return config.get(name, default)


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def build_provenance(command: str, settings: dict, inputs: list[Path], seed=None) -> dict:
    """The provenance record of a command's outputs. Each input is hashed here,
    once: call it after the command has read its inputs and before it writes."""
    canonical = json.dumps(settings, sort_keys=True, default=str)
    digests = {}
    for path in inputs:
        try:
            digests[str(path)] = file_sha256(Path(path))
        except OSError as exc:
            raise DataError(f"{path}: cannot hash the input: {exc}") from None
    return {
        "command": command,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": seed,
        "inputs": digests,
    }


def write_provenance(output: str | Path, record: dict) -> None:
    """Write the ``<output>.provenance.json`` sidecar of an output file."""
    sidecar(output, "provenance.json").write_text(
        json.dumps(record, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


@contextlib.contextmanager
def write_outputs(provenance: dict, *outputs):
    """Write each ``(path, write, sidecar_keys)`` output once the ``with`` block
    succeeds: create its directory, call ``write(path)``, then write its sidecar of
    ``provenance`` plus ``sidecar_keys`` (none if those are ``None``). The writers
    run after the block, so they may use what it computes. On entry, before the
    block's work, a file to write that is an input or another file to write is a
    configuration error, and one that is a directory is a data error."""
    claimed = {Path(path).resolve(): path for path in provenance["inputs"]}
    for path, _, sidecar_keys in outputs:
        written = [path] if sidecar_keys is None else [path, sidecar(path, "provenance.json")]
        for name in written:
            resolved = Path(name).resolve()
            if resolved in claimed:
                raise ConfigError(f"output {name} is the same file as {claimed[resolved]}")
            if resolved.is_dir():
                raise DataError(f"output {name} is a directory")
            claimed[resolved] = name
    yield
    for path, write, sidecar_keys in outputs:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
        if sidecar_keys is not None:
            write_provenance(path, {**sidecar_keys, **provenance})


def read_provenance(path: str | Path) -> dict:
    """The ``<path>.provenance.json`` record of an input, or ``{}`` if it has none."""
    record_path = sidecar(path, "provenance.json")
    if not record_path.exists():
        return {}
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"{record_path}: invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise DataError(f"{record_path}: expected a JSON object")
    return record


def make_backend(name: str, config: dict):
    if name == "identity":
        return IdentityBackend()
    if name == "mock":
        return DictionaryBackend(mapping=config.get("mt.mock_dictionary", {}),
                                 drop_tokens=frozenset(config.get("mt.mock_drop_tokens", ())))
    if name == "remote":
        endpoint = config.get("mt.endpoint")
        if not endpoint:
            raise ConfigError("remote backend needs mt.endpoint in the config file")
        return RemoteHttpBackend(endpoint)
    raise ConfigError(f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}")


def parse_scheme(text: str | None) -> MarkerScheme:
    if text is None:
        return MarkerScheme()
    candidate = Path(text)
    try:
        is_file = candidate.is_file()
    except OSError:  # not a name the file system takes, such as one too long: not a file
        is_file = False
    try:
        raw = candidate.read_text(encoding="utf-8") if is_file else text
        data = json.loads(raw)
        pairs = tuple((str(pair[0]), str(pair[1])) for pair in data)
        return MarkerScheme(pairs=pairs)
    except (IndexError, TypeError, ValueError) as exc:  # ValueError: not JSON or not a scheme
        shown = text if len(text) <= 60 else text[:60] + "..."  # the start of a long scheme
        raise ConfigError(f"invalid marker scheme {shown!r}: {exc}") from None


def load_nonempty(path: str, format: str) -> Corpus:
    """Load a corpus that the command has no work for when it is empty."""
    corpus = load_corpus(path, format=format)
    if not corpus.sentences:
        raise DataError(f"{path}: the corpus is empty")
    return corpus


# ---------------------------------------------------------------------------
# commands

def cmd_split(args) -> None:
    if not 0.0 < args.fraction < 1.0:
        raise ConfigError(f"--fraction must be in (0, 1), got {args.fraction}")
    corpus = load_nonempty(args.input, args.format)
    extra = {
        "input_provenance": read_provenance(args.input),
        "split_seed": args.seed,
        "split_fraction": args.fraction,
        "split_stratified": False,
    }
    with write_outputs(
        build_provenance(
            "split", {"fraction": args.fraction, "seed": args.seed, "format": args.format},
            [Path(args.input)], seed=args.seed,
        ),
        (args.output_train, lambda p: save_corpus(train_corpus, p, format=args.format),
         {**extra, "split_role": "train"}),
        (args.output_validation, lambda p: save_corpus(val_corpus, p, format=args.format),
         {**extra, "split_role": "validation"}),
    ):
        train_corpus, val_corpus = split_train_validation(corpus, args.fraction, args.seed)
        for half, name in ((train_corpus, "training"), (val_corpus, "validation")):
            if not half.sentences:
                raise DataError(
                    f"{args.input}: splitting {len(corpus)} sentences at fraction "
                    f"{args.fraction} leaves the {name} half empty"
                )
    print(f"split {len(corpus)} -> {len(train_corpus)} train + {len(val_corpus)} validation")


def cmd_project(args) -> None:
    config = {} if args.config is None else load_config_file(args.config)
    for flag, value in (("--src", args.src), ("--tgt", args.tgt)):
        if value not in LANGUAGES:
            raise ConfigError(f"{flag} must be one of {LANGUAGES}, got {value!r}")
    if args.src == args.tgt:
        raise ConfigError("--src and --tgt must differ")
    corpus = load_corpus(args.input, format=args.format)
    wrong = [s.id for s in corpus.sentences if s.language != args.src]
    if wrong:
        raise DataError(f"{args.input}: sentences not in source language {args.src!r}: {wrong[:5]}")
    backend_name = resolve(args.backend, config, "mt.backend", "identity")
    backend = make_backend(backend_name, config)
    cache_dir = resolve(args.cache_dir, config, "paths.cache_dir")
    if backend_name == "remote" and cache_dir is None:
        raise ConfigError("remote backend requires --cache-dir for reproducibility")
    parallelism = resolve(args.parallelism, config, "mt.parallelism", 1)
    if not 1 <= parallelism <= MAX_PARALLELISM:
        raise ConfigError(
            f"parallelism must be an integer from 1 to {MAX_PARALLELISM}, got {parallelism!r}"
        )
    scheme = parse_scheme(args.scheme)
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
    with write_outputs(
        provenance,
        (args.output, lambda p: save_corpus(report.corpus, p, format=args.format),
         {"projected_from": args.src, "projected_to": args.tgt, "backend": backend.backend_id}),
        (sidecar(args.output, "discards.jsonl"), lambda p: write_jsonl(discards, p), None),
        (sidecar(args.output, "pairs.jsonl"), lambda p: save_pairs(pairs, p), None),
    ), TranslationCache(cache_dir) if cache_dir else contextlib.nullcontext() as cache:
        report = project_corpus(
            corpus, scheme, backend, args.src, args.tgt, cache=cache, parallelism=parallelism
        )
        discards = ({"id": d.id, "reason": d.reason.value, "translated_text": d.translated_text}
                    for d in report.discards)
        pairs = (make_aligned_pair(source, projected) for source, projected in report.alignments)
    cache_use = (
        f"cache: {cache.hits} hits, {cache.misses} misses, {cache.torn_lines} torn lines skipped"
        if cache is not None
        else "no cache"
    )
    print(
        f"projected {len(report.corpus)} of {len(corpus)} sentences to {args.tgt} "
        f"({len(report.discards)} discarded); {cache_use}"
    )


def cmd_switch(args) -> None:
    source = load_corpus(args.source, format=args.format)
    target = load_corpus(args.target, format=args.format)
    pairs_path = sidecar(args.target, "pairs.jsonl")
    pairs = load_pairs(pairs_path, source, target)
    with write_outputs(
        build_provenance(
            "switch", {"format": args.format}, [Path(args.source), Path(args.target), pairs_path]
        ),
        (args.output_st, lambda p: save_corpus(st_corpus, p, format=args.format),
         {"augmentation": "trigger_switch"}),
        (args.output_ts, lambda p: save_corpus(ts_corpus, p, format=args.format),
         {"augmentation": "trigger_switch"}),
    ):
        st_corpus, ts_corpus = switch_corpus(pairs)
    print(f"switched {len(pairs)} pairs")


def cmd_combine(args) -> None:
    try:
        spec = CombinationSpec.parse(args.combine)
    except ValueError as exc:  # a bad origin tag, no D_S, or no tag at all
        raise ConfigError(f"--combine {args.combine!r}: {exc}") from None
    paths = {
        DatasetTag.D_S: args.d_s,
        DatasetTag.D_T: args.d_t,
        DatasetTag.D_ST: args.d_st,
        DatasetTag.D_TS: args.d_ts,
    }
    for tag, given in paths.items():
        if given and tag not in spec.include:
            raise ConfigError(f"--{tag.value.lower().replace('_', '-')} was given but the "
                              f"combination {spec} leaves {tag.value} out")
    corpora = {}
    inputs = []
    for tag in spec.include:
        if not paths[tag]:
            raise ConfigError(f"combination includes {tag.value} but no path was given")
        # a tag may span several files (one per target language)
        merged = Corpus()
        seen: dict = {}  # ids must be unique across the tag's files too
        for path in paths[tag]:
            merged.sentences.extend(load_corpus(path, format=args.format, seen=seen))
            inputs.append(Path(path))
        corpora[tag] = merged
    with write_outputs(
        build_provenance("combine", {"combine": str(spec), "format": args.format}, sorted(inputs)),
        (args.output, lambda p: save_corpus(combined, p, format=args.format),
         {"combination": str(spec)}),
    ):
        combined = build_dataset(spec, corpora)
    print(f"combined {str(spec)} -> {len(combined)} sentences")


def cmd_train(args) -> None:
    corpus = load_nonempty(args.input, args.format)
    validation = load_nonempty(args.validation, args.format) if args.validation else None
    lora = None
    if args.lora_r is not None:
        alpha = LoraConfig.alpha if args.lora_alpha is None else args.lora_alpha
        lora = LoraConfig(rank=args.lora_r, alpha=alpha)
    elif args.lora_alpha is not None:
        raise ConfigError("--lora-alpha requires --lora-r")
    epochs = TrainConfig.epochs if args.epochs is None else args.epochs
    if args.epochs is None and lora is not None:  # the default, up to the adapter's cap
        epochs = min(epochs, MAX_ADAPTER_EPOCHS)
    train_config = TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=epochs,
        lora=lora,
        seed=args.seed,
        schedule=args.schedule,
        weight_decay=args.weight_decay,
        feature_dim=args.feature_dim,
    )
    train_config.validate()
    classes = num_classes(args.task)
    if lora is not None and lora.rank > classes:
        # B A is (C x K): a rank above C reaches no weights that rank C cannot.
        print(f"warning: --lora-r {lora.rank} exceeds the {classes} classes of the "
              f"{args.task} head: ranks above {classes} add cost but no expressivity",
              file=sys.stderr)
    inputs = [Path(args.input)] + ([Path(args.validation)] if args.validation else [])
    with write_outputs(
        build_provenance(
            "train",
            {"task": args.task, "config": str(train_config), "format": args.format},
            inputs,
            seed=args.seed,
        ),
        (args.output, lambda p: save_model(trained, p), {}),
    ):
        try:
            trained = train(corpus, args.task, train_config, validation=validation)
        except MissingLabelsError as exc:
            path = args.validation if exc.role == "validation" else args.input
            raise DataError(f"{path}: {exc}") from exc
    last = trained.history[-1] if trained.history else {}
    print(f"trained {args.task} model: {json.dumps(last)}")


def cmd_predict(args) -> None:
    trained = load_model(args.model)
    corpus = load_corpus(args.input, format=args.format)
    provenance = build_provenance("predict", {"task": trained.task, "format": args.format},
                                  [Path(args.model), Path(args.input)])
    with write_outputs(provenance, (args.output, lambda p: write_jsonl(records, p), {})):
        records = trained.predict(corpus)
    print(f"predicted {len(records)} sentences ({trained.task})")


def _finite_numbers(values, length: int) -> bool:
    """Whether ``values`` is a list of ``length`` finite JSON numbers."""
    try:
        return (isinstance(values, list) and len(values) == length
                and set(map(type, values)) <= {int, float} and all(map(math.isfinite, values)))
    except OverflowError:  # an integer beyond the float range
        return False


def cmd_evaluate(args) -> None:
    gold = load_nonempty(args.gold, args.format)
    predictions_path = Path(args.predictions)
    by_id: dict[str, tuple[int, dict]] = {}
    seen: dict = {}
    for lineno, record in read_jsonl(predictions_path):
        if not isinstance(record, dict) or not isinstance(record.get("id"), str):
            raise DataError(f"{args.predictions} line {lineno}: expected an object with a string 'id'")
        check_new_id(seen, record["id"], predictions_path, lineno)
        by_id[record["id"]] = lineno, record

    missing = [s.id for s in gold.sentences if s.id not in by_id]
    if missing:
        raise DataError(f"{args.predictions}: missing predictions for ids: {missing[:5]}")
    gold_ids = {s.id for s in gold.sentences}
    unknown = [sid for sid in by_id if sid not in gold_ids]
    if unknown:
        raise DataError(
            f"{args.predictions}: {len(unknown)} prediction ids not in {args.gold}: {unknown[:5]}"
        )

    emotion_pairs = []
    mask_pairs = []
    numeric_masks, numeric_values = [], []
    for sentence in gold.sentences:
        lineno, record = by_id[sentence.id]
        where = f"{args.predictions} line {lineno}"
        if "emotion" in record:
            if sentence.emotion is None:
                raise DataError(f"{args.gold}: gold sentence {sentence.id!r} has no emotion label")
            if not isinstance(record["emotion"], str):
                raise DataError(f"{where}: 'emotion' must be a label string")
            try:
                predicted = EmotionLabel.from_string(record["emotion"])
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from None
            emotion_pairs.append((sentence.emotion, predicted))
        if "mask" in record or "numeric" in record:
            if sentence.trigger_mask is None:
                raise DataError(f"{args.gold}: gold sentence {sentence.id!r} has no trigger mask")
            n = len(sentence.trigger_mask)
        if "mask" in record:
            mask = record["mask"]
            if not is_binary_mask(mask) or len(mask) != n:
                raise DataError(f"{where}: 'mask' must be a list of {n} integers 0 or 1")
            mask_pairs.append((sentence.trigger_mask, mask))
        if "numeric" in record:
            if not _finite_numbers(record["numeric"], n):
                raise DataError(f"{where}: 'numeric' must be a list of {n} finite numbers")
            numeric_masks.append(sentence.trigger_mask)
            numeric_values.append(record["numeric"])

    outputs = [(args.output, lambda p: p.write_text(report_text, encoding="utf-8"), {})]
    if args.confusion_csv:
        if not emotion_pairs:
            raise ConfigError("--confusion-csv needs emotion predictions to evaluate")
        outputs.append((args.confusion_csv,
                        lambda p: p.write_text(report.confusion.to_csv(), encoding="utf-8"), None))
    with write_outputs(
        build_provenance("evaluate", {"format": args.format}, [Path(args.gold), predictions_path]),
        *outputs,
    ):
        attribution_pairs = list(zip(numeric_masks, normalize_each(numeric_values)))
        report = build_report(
            emotion_pairs=emotion_pairs or None,
            mask_pairs=mask_pairs or None,
            attribution_pairs=attribution_pairs or None,
        )
        report_text = json.dumps(report.to_json_dict(), ensure_ascii=False, indent=2) + "\n"
    print(json.dumps(report.to_json_dict()))


def cmd_parse_llm(args) -> None:
    input_path = Path(args.input)
    lines = list(read_lines(input_path))
    rows = []
    errors = []
    with write_outputs(
        build_provenance(
            "parse-llm", {"fallback_neutral": bool(args.fallback_neutral)}, [input_path]
        ),
        (args.output, lambda p: p.write_text("".join(rows), encoding="utf-8"), {}),
        (sidecar(args.output, "errors.jsonl"), lambda p: write_jsonl(errors, p), None),
    ):
        for lineno, line in lines:
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DataError(f"{input_path} line {lineno}: expected 'id<TAB>response'")
            sid, response = line.split("\t", 1)
            try:
                label = parse_llm_response(response)
                rows.append(f"{sid}\t{label.value}\n")
            except LlmResponseError as exc:
                errors.append({"id": sid, "error": str(exc), "text": response})
                if args.fallback_neutral:
                    rows.append(f"{sid}\t{EmotionLabel.NEUTRAL.value}\n")
    print(f"parsed {len(rows)} labels ({len(errors)} errors)")


def cmd_stats(args) -> None:
    corpus = load_corpus(args.input, format=args.format)
    try:
        counts = label_distribution(corpus)
    except DataError as exc:
        raise DataError(f"{args.input}: {exc}") from None
    print(json.dumps({label.value: count for label, count in counts.items()}, indent=2))


# ---------------------------------------------------------------------------
# parser

_FORMAT = ("--format", {"choices": ("jsonl", "tsv"), "default": "jsonl"})
_REQUIRED = {"required": True}

# Each subcommand: its function, its help line, and a function of its arguments as
# (flag, options), which reads the defaults of the config classes when it is called.
SUBCOMMANDS = {
    "split": (cmd_split, "deterministic train/validation split", lambda: [
        _FORMAT,
        ("--input", _REQUIRED),
        ("--fraction", {"type": float, "default": 0.10}),
        ("--seed", {"type": int, "default": 0}),
        ("--output-train", _REQUIRED),
        ("--output-validation", _REQUIRED),
    ]),
    "project": (cmd_project, "mark, translate, and project labels", lambda: [
        _FORMAT,
        ("--input", _REQUIRED),
        ("--output", _REQUIRED),
        ("--config", {"help": "YAML configuration file of the translation settings"}),
        ("--backend", {"choices": BACKENDS}),
        ("--src", {"default": "en"}),
        ("--tgt", _REQUIRED),
        ("--scheme", {"help": "JSON list of [open, close] pairs, inline or a file path"}),
        ("--cache-dir", {}),
        ("--parallelism", {"type": int}),
    ]),
    "switch": (cmd_switch, "build trigger-switched corpora", lambda: [
        _FORMAT,
        ("--source", _REQUIRED),
        ("--target", _REQUIRED),
        ("--output-st", _REQUIRED),
        ("--output-ts", _REQUIRED),
    ]),
    "combine": (cmd_combine, "concatenate dataset combinations", lambda: [
        _FORMAT,
        ("--combine", {"required": True, "help": 'e.g. "D_S+D_T+D_St+D_Ts"'}),
        ("--d-s", {"action": "append", "help": "repeatable"}),
        ("--d-t", {"action": "append", "help": "repeatable (one file per target language)"}),
        ("--d-st", {"action": "append", "help": "repeatable"}),
        ("--d-ts", {"action": "append", "help": "repeatable"}),
        ("--output", _REQUIRED),
    ]),
    "train": (cmd_train, "train a classifier head", lambda: [
        _FORMAT,
        ("--input", _REQUIRED),
        ("--validation", {}),
        ("--task", {"choices": TASKS, "required": True}),
        ("--lr", {"type": float, "default": TrainConfig.lr}),
        ("--epochs", {"type": int}),
        ("--batch-size", {"type": int, "default": TrainConfig.batch_size}),
        ("--lora-r", {"type": int}),
        ("--lora-alpha", {"type": float}),
        ("--schedule", {"choices": SCHEDULES, "default": TrainConfig.schedule}),
        ("--seed", {"type": int, "default": TrainConfig.seed}),
        ("--weight-decay", {"type": float, "default": TrainConfig.weight_decay}),
        ("--feature-dim", {"type": int, "default": TrainConfig.feature_dim}),
        ("--output", _REQUIRED),
    ]),
    "predict": (cmd_predict, "predict with a trained model", lambda: [
        _FORMAT,
        ("--model", _REQUIRED),
        ("--input", _REQUIRED),
        ("--output", _REQUIRED),
    ]),
    "evaluate": (cmd_evaluate, "score predictions against gold", lambda: [
        _FORMAT,
        ("--gold", _REQUIRED),
        ("--predictions", _REQUIRED),
        ("--output", _REQUIRED),
        ("--confusion-csv", {}),
    ]),
    "parse-llm": (cmd_parse_llm, "parse 'Label: X' LLM responses", lambda: [
        ("--input", {"required": True, "help": "TSV file: id<TAB>raw response"}),
        ("--output", _REQUIRED),
        ("--fallback-neutral", {"action": "store_true"}),
    ]),
    "stats": (cmd_stats, "print the label distribution", lambda: [
        _FORMAT,
        ("--input", _REQUIRED),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand in ``SUBCOMMANDS``. Given the invoked
    ``command``, only that subcommand's arguments, ``--help`` among them, are
    added; the others are still listed by ``--help`` and by the error for an
    unknown command."""
    parser = argparse.ArgumentParser(
        prog="xlproject",
        description="Cross-lingual emotion/trigger corpus pipeline",
        epilog=EXIT_CODE_HELP,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, arguments) in SUBCOMMANDS.items():
        invoked = command in (None, name)
        p = sub.add_parser(name, help=help, add_help=invoked)
        p.set_defaults(func=func)
        if invoked:
            for flag, options in arguments():
                p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
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
