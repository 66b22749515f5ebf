"""Annotated sentence data model, JSONL/TSV corpus I/O, splits, and label statistics."""
from __future__ import annotations

import itertools
import json
import random
import re
import unicodedata
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import CorpusFormatError, DataError  # noqa: F401 (the older name, re-exported)

LANGUAGES = ("en", "nl", "ru", "es", "fr")


_FIELDS = frozenset({"id", "lang", "tokens", "emotion", "mask", "origin", "bilingual"})
# Matches exactly the characters for which ``str.isspace()`` is true.
_WHITESPACE = re.compile(r"\s").search
# A surrogate code point, which JSON decodes only from an unpaired escape such as "\ud800".
_SURROGATE = re.compile("[\ud800-\udfff]").search


class EmotionLabel(Enum):
    LOVE = "Love"
    JOY = "Joy"
    FEAR = "Fear"
    ANGER = "Anger"
    SADNESS = "Sadness"
    NEUTRAL = "Neutral"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_string(cls, text: str) -> EmotionLabel:
        try:
            return _LABELS_BY_WORD[text]
        except (KeyError, TypeError):  # TypeError: a JSON list or object
            raise DataError(
                f"unknown emotion label {text!r}; expected one of {sorted(_LABELS_BY_WORD)}"
            ) from None


_LABELS_BY_WORD = {label.value: label for label in EmotionLabel}

# Canonical class order used for model heads, confusion matrices and reports.
EMOTION_ORDER = tuple(EmotionLabel)


class DatasetTag(Enum):
    D_S = "D_S"
    D_T = "D_T"
    D_ST = "D_St"
    D_TS = "D_Ts"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_string(cls, text: str) -> DatasetTag:
        try:
            return _TAGS_BY_NAME[text]
        except KeyError:
            raise DataError(
                f"unknown origin tag {text!r}; expected one of {sorted(_TAGS_BY_NAME)}"
            ) from None


_TAGS_BY_NAME = {tag.value: tag for tag in DatasetTag}


@dataclass
class AnnotatedSentence:
    """One whitespace-tokenized sentence with optional emotion and trigger annotations.

    ``bilingual`` marks trigger-switched sentences whose tokens mix two
    languages; ``language`` then refers to the host sentence.
    """

    id: str
    tokens: list[str]
    language: str
    origin: DatasetTag
    emotion: EmotionLabel | None = None
    trigger_mask: list[int] | None = None
    bilingual: bool = False

    def validate(self, joined: str | None = None) -> None:
        """Check the fields; ``joined`` is the tokens joined by NUL (not whitespace)."""
        joined = "\0".join(self.tokens) if joined is None else joined
        if not self.id:
            raise DataError("empty id")
        if not self.tokens:
            raise DataError("tokens must be non-empty")
        if "" in self.tokens or _WHITESPACE(joined):
            for tok in self.tokens:  # name the first offending token
                if not tok:
                    raise DataError("empty token")
                if _WHITESPACE(tok):
                    raise DataError(f"token contains whitespace: {tok!r}")
        if self.language not in LANGUAGES:
            raise DataError(
                f"unknown language {self.language!r}; expected one of {LANGUAGES}"
            )
        if self.trigger_mask is not None:
            if len(self.trigger_mask) != len(self.tokens):
                raise DataError("mask length mismatch")
            if self.trigger_mask.count(0) + self.trigger_mask.count(1) != len(self.trigger_mask):
                raise DataError("mask values must be 0 or 1")
        if self.origin is DatasetTag.D_S and self.language != "en":
            raise DataError("D_S sentences must have language 'en'")
        if self.origin is DatasetTag.D_T and self.language == "en":
            raise DataError("D_T sentences must have a non-English language")


@dataclass
class Corpus:
    sentences: list[AnnotatedSentence] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def validate(self) -> None:
        seen: set[str] = set()
        for sent in self.sentences:
            sent.validate()
            if sent.id in seen:
                raise DataError(f"duplicate id {sent.id!r}")
            seen.add(sent.id)


def is_binary_mask(mask: object) -> bool:
    """Whether ``mask`` is a list of the integers 0 and 1, ``True`` and ``1.0`` excluded."""
    return (isinstance(mask, list) and set(map(type, mask)) <= {int}
            and mask.count(0) + mask.count(1) == len(mask))


def _sentence_from_record(record: dict) -> AnnotatedSentence:
    if not isinstance(record, dict):
        raise DataError("record is not an object")
    if not record.keys() <= _FIELDS:
        raise DataError(f"unknown field {sorted(record.keys() - _FIELDS)[0]!r}")
    for req in ("id", "lang", "tokens", "origin"):
        if req not in record:
            raise DataError(f"missing field {req!r}")
    tokens = record["tokens"]
    try:
        if not isinstance(tokens, list):
            raise TypeError
        joined = "\0".join(tokens)
    except TypeError:  # not a list, or a token that is not a string
        raise DataError("field 'tokens' must be a list of strings") from None
    mask = record.get("mask")
    if mask is not None and not (isinstance(mask, list) and set(map(type, mask)) <= {int}):
        raise DataError("field 'mask' must be a list of 0/1 integers")
    bilingual = record.get("bilingual", False)
    if type(bilingual) is not bool:
        raise DataError("field 'bilingual' must be true or false")
    sid = str(record["id"])
    for name, text in (("id", sid), ("tokens", joined)):
        if _SURROGATE(text):  # it cannot be written as UTF-8
            raise DataError(f"field {name!r} holds an unpaired surrogate escape")
    # NUL composes with nothing, so the joined text is NFC exactly when every token is.
    if not unicodedata.is_normalized("NFC", joined):
        tokens = [unicodedata.normalize("NFC", t) for t in tokens]
        joined = "\0".join(tokens)
    sent = AnnotatedSentence(
        id=unicodedata.normalize("NFC", sid),
        tokens=tokens,
        language=str(record["lang"]),
        origin=DatasetTag.from_string(str(record["origin"])),
        emotion=None if record.get("emotion") is None else EmotionLabel.from_string(record["emotion"]),
        trigger_mask=mask,
        bilingual=bilingual,
    )
    sent.validate(joined)
    return sent


def _sentence_to_record(sent: AnnotatedSentence) -> dict:
    record: dict = {"id": sent.id, "lang": sent.language, "tokens": sent.tokens}
    if sent.emotion is not None:
        record["emotion"] = sent.emotion.value
    if sent.trigger_mask is not None:
        record["mask"] = sent.trigger_mask
    record["origin"] = sent.origin.value
    if sent.bilingual:
        record["bilingual"] = True
    return record


def sidecar(path: str | Path, kind: str) -> Path:
    """The ``<path>.<kind>`` file that sits next to ``path``."""
    path = Path(path)
    return path.with_name(f"{path.name}.{kind}")


def load_corpus(
    path: str | Path, format: str = "jsonl", seen: dict[str, tuple[Path, int]] | None = None
) -> Corpus:
    """Load a corpus file; raises :class:`DataError` naming the file and
    the offending line (for a TSV sentence's record, the line of its header).

    ``seen`` maps each id to the file and line that gave it first; share one
    between calls to require ids unique across several files.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    if format == "jsonl":
        records = read_jsonl(path)
    elif format == "tsv":
        records = _read_tsv(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    seen = {} if seen is None else seen
    sentences = []
    for lineno, record in records:
        try:
            sent = _sentence_from_record(record)
        except DataError as exc:
            raise DataError(f"{path}: {exc} at line {lineno}") from None
        check_new_id(seen, sent.id, path, lineno)
        sentences.append(sent)
    return Corpus(sentences=sentences)


def check_new_id(seen: dict[str, tuple[Path, int]], sid: str, path: Path, lineno: int) -> None:
    """Record that ``sid`` starts at ``lineno`` of ``path``; reject an id seen before."""
    if sid in seen:
        first_path, first = seen[sid]
        # The file is named unless it is an earlier line of this same reading.
        where = "" if first_path == path and first < lineno else f"{first_path} "
        raise DataError(
            f"{path} line {lineno}: duplicate id {sid!r}, first at {where}line {first}"
        )
    seen[sid] = (path, lineno)


# The code points that the "surrogateescape" error handler decodes a non-UTF-8 byte to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]").search


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The line number and text of every line of a text file; a file that is not
    UTF-8 is a :class:`DataError` naming it and its first such line."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from enumerate(handle, start=1)
    except UnicodeDecodeError as exc:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            bad = next((n for n, line in enumerate(handle, start=1) if _ESCAPED_BYTE(line)), "?")
        raise DataError(f"{path} line {bad}: not UTF-8 text: {exc.reason}") from None


_SCAN = json.decoder.JSONDecoder().scan_once  # (value, end) of the JSON value at an index


def _loads(line: str) -> object:
    """``json.loads(line)``, through the scanner alone when the line is one
    JSON value followed by JSON whitespace; any other line goes to
    ``json.loads``, which accepts or rejects it with its own message."""
    try:
        value, end = _SCAN(line, 0)
        if not line[end:].strip(" \t\n\r"):
            return value
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """The line number and JSON value of every non-blank line of a file; a
    line that is not JSON is a :class:`DataError` naming file and line."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            record = _loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} line {lineno}: invalid JSON: {exc.msg}") from None
        yield lineno, record


# What ``json.dumps(record, ensure_ascii=False)`` builds on every call.
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """Write one JSON object per line into an existing directory."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(_ENCODE(record) + "\n")


_TSV_BOOLEANS = {"true": True, "false": False}


def _read_tsv(path: Path) -> Iterator[tuple[int, dict]]:
    """The header line and record of every sentence of a TSV corpus: the
    header's fields, ``tokens`` from the rows' first column and, when the rows
    have two columns, ``mask`` from the second. A row or header item that
    cannot be read is a :class:`DataError` naming the file and line."""

    def error(problem: str, lineno: int) -> DataError:
        return DataError(f"{path}: {problem} at line {lineno}")

    start, fields, tokens, mask = 0, None, [], []  # the open sentence
    # A blank line appended to the file's lines closes its last sentence.
    for lineno, line in itertools.chain(read_lines(path), [(0, "")]):
        line = line.rstrip("\n")
        if line.strip() and not line.startswith("#"):
            if fields is None:
                raise error("token row before sentence header", lineno)
            token, *rest = line.split("\t")
            if len(rest) > 1:
                raise error("expected 1 or 2 columns", lineno)
            if rest and rest[0] not in ("0", "1"):
                raise error("mask value must be 0 or 1", lineno)
            tokens.append(token)
            mask.extend(map(int, rest))
            if mask and len(mask) != len(tokens):
                raise error("inconsistent mask column", lineno)
            continue
        if fields is not None:
            # Header values are strings: a header's tokens or mask fails the record checks.
            yield start, {"tokens": tokens, "mask": mask or None, **fields}
        start, fields, tokens, mask = lineno, None, [], []
        if line.startswith("#"):
            items = [item.partition("=") for item in line[1:].split()]
            for key, equals, _ in items:
                if not equals:
                    raise error(f"malformed header item {key!r}", lineno)
            fields = {key: _TSV_BOOLEANS.get(value, value) if key == "bilingual" else value
                      for key, _, value in items}


def save_corpus(corpus: Corpus, path: str | Path, format: str = "jsonl") -> None:
    """Write a corpus so that a reload reproduces it field for field."""
    if format == "jsonl":
        write_jsonl(map(_sentence_to_record, corpus.sentences), path)
    elif format == "tsv":
        _save_tsv(corpus, path)
    else:
        raise ValueError(f"unknown format {format!r}")


def _save_tsv(corpus: Corpus, path: str | Path) -> None:
    """Write each sentence's record as a header of its fields and one row per token."""
    lines: list[str] = []
    for sent in corpus.sentences:
        for value in (sent.id, sent.language):
            if _WHITESPACE(value):
                raise DataError(f"header value contains whitespace: {value!r}")
        for tok in sent.tokens:
            if "\t" in tok or "\n" in tok:
                raise DataError(f"token contains delimiter: {tok!r}")
            if tok.startswith("#"):
                raise DataError(f"token starts with '#', which marks a header: {tok!r}")
        record = _sentence_to_record(sent)
        tokens, mask = record.pop("tokens"), record.pop("mask", None)
        if "bilingual" in record:  # present only when true
            record["bilingual"] = "true"
        lines.append("# " + " ".join(f"{key}={value}" for key, value in record.items()))
        if mask is None:
            lines.extend(tokens)
        else:
            lines.extend(f"{tok}\t{m}" for tok, m in zip(tokens, mask, strict=True))
        lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def split_train_validation(
    corpus: Corpus, fraction: float, seed: int
) -> tuple[Corpus, Corpus]:
    """Deterministic unstratified split: seeded shuffle, prefix becomes validation.

    Validation size is ``round(fraction * N)`` with half-up rounding. Both
    halves keep the original sentence order.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    n = len(corpus.sentences)
    if n == 0:
        raise ValueError("cannot split an empty corpus")
    n_val = int(fraction * n + 0.5)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    val_indices = set(indices[:n_val])
    train = Corpus(sentences=[s for i, s in enumerate(corpus.sentences) if i not in val_indices])
    validation = Corpus(sentences=[s for i, s in enumerate(corpus.sentences) if i in val_indices])
    return train, validation


def label_distribution(corpus: Corpus) -> dict[EmotionLabel, int]:
    """Count sentences per emotion label; every label appears as a key."""
    missing = [s.id for s in corpus.sentences if s.emotion is None]
    if missing:
        raise DataError(f"{len(missing)} sentences missing emotion label: {missing[:5]}")
    counts = {label: 0 for label in EMOTION_ORDER}
    for sent in corpus.sentences:
        counts[sent.emotion] += 1
    return counts

