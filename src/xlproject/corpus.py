"""Annotated sentence data model, JSONL/TSV corpus I/O, splits, and label statistics."""
from __future__ import annotations

import bisect
import collections
import json
import random
import re
import unicodedata
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, islice, repeat
from operator import attrgetter, is_, is_not
from pathlib import Path

from .errors import CorpusFormatError, DataError  # noqa: F401 (the older name, re-exported)

LANGUAGES = ("en", "nl", "ru", "es", "fr")

# Records are read, checked and written this many at a time, which bounds the scratch memory.
_CHUNK_RECORDS = 256

_FIELDS = frozenset({"id", "lang", "tokens", "emotion", "mask", "origin", "bilingual"})
# Matches exactly the characters for which ``str.isspace()`` is true.
_WHITESPACE = re.compile(r"\s").search
# A surrogate code point, which JSON decodes only from an unpaired escape such as "\ud800".
_SURROGATE = re.compile("[\ud800-\udfff]").search


def _unknown(kind: str, text: object, names) -> str:
    return f"unknown {kind} {text!r}; expected one of {sorted(names)}"


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
            raise DataError(_unknown("emotion label", text, _LABELS_BY_WORD)) from None


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
            raise DataError(_unknown("origin tag", text, _TAGS_BY_NAME)) from None


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

    def validate(self) -> None:
        """Check the fields by the rules that a loaded record's sentence passes."""
        Corpus([self]).validate()


@dataclass
class Corpus:
    sentences: list[AnnotatedSentence] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def validate(self) -> None:
        """Check each sentence's fields, then its id against those before it; the
        first sentence that fails is a :class:`DataError`."""
        sentences = self.sentences
        check = _Checks(len(sentences))
        ids, tokens, languages, origins, masks = (
            list(map(attrgetter(name), sentences))
            for name in ("id", "tokens", "language", "origin", "trigger_mask"))
        texts = list(map("\0".join, tokens))
        _check_sentences(check, ids, tokens, texts, languages, origins, masks)
        seen: set[str] = set()
        for sent in sentences[:check.n]:
            if sent.id in seen:
                raise DataError(f"duplicate id {sent.id!r}")
            seen.add(sent.id)
        if check.bad is not None:
            raise DataError(check.bad[1])


def is_binary_mask(mask: object) -> bool:
    """Whether ``mask`` is a list of the integers 0 and 1, ``True`` and ``1.0`` excluded."""
    return (isinstance(mask, list) and set(map(type, mask)) <= {int}
            and mask.count(0) + mask.count(1) == len(mask))


class _Checks:
    """Rules checked over the columns of a chunk of rows, each over the rows that
    passed the rules before it: the first ``n`` rows pass them all, and ``bad``
    is the index and problem of the row at ``n`` (None while every row passes)."""

    def __init__(self, rows: int):
        self.n, self.bad = rows, None

    def __call__(self, ok, problem, *columns) -> None:
        """Narrow to the rows before the first that breaks a rule. ``ok`` tells
        whether every row of the columns it is given keeps the rule, so every
        prefix of such rows does too. ``problem`` is the fault of a breaking
        row, or a function of the row's values that names it."""
        n = self.n
        if n and not ok(*(column[:n] for column in columns)):
            n = bisect.bisect_left(range(n), True,
                                   key=lambda k: not ok(*(c[:k + 1] for c in columns)))
            if callable(problem):
                problem = problem(*(column[n] for column in columns))
            self.n, self.bad = n, (n, problem)

    def map(self, function, column, problem) -> list:
        """``function`` of each row's value, narrowed by the rule that it raises
        no KeyError or TypeError; ``problem`` is as for a call."""
        try:
            return list(map(function, column[:self.n]))
        except (KeyError, TypeError):
            def ok(values) -> bool:
                try:
                    collections.deque(map(function, values), maxlen=0)
                except (KeyError, TypeError):
                    return False
                return True

            self(ok, problem, column)
            return list(map(function, column[:self.n]))


def _plain_words(tokens: list, texts: list[str]) -> bool:
    """No token is empty or holds whitespace; ``texts`` are each row's tokens joined by NUL."""
    text = "\0".join(texts)
    return "" not in chain.from_iterable(tokens) and text.split() == [text]


def _word_problem(words: list[str], text: str) -> str:
    word = next(word for word in words if not word or _WHITESPACE(word))
    return f"token contains whitespace: {word!r}" if word else "empty token"


def _masks_fit(masks: list, tokens: list) -> bool:
    given = list(map(is_not, masks, repeat(None)))
    return list(map(len, compress(masks, given))) == list(map(len, compress(tokens, given)))


def _binary(masks: list) -> bool:
    return {0, 1}.issuperset(chain.from_iterable(filter(None, masks)))


def _matched(origins: list, languages: list[str]) -> bool:
    """D_S sentences are English and D_T sentences are not."""
    return ({"en"} >= set(compress(languages, map(is_, origins, repeat(DatasetTag.D_S))))
            and "en" not in compress(languages, map(is_, origins, repeat(DatasetTag.D_T))))


def _check_sentences(check: _Checks, ids, tokens, texts, languages, origins, masks) -> None:
    """The rules on the fields of a sentence, checked in this order; ``texts``
    are the sentences' tokens joined by NUL, which is not whitespace."""
    check(all, "empty id", ids)
    check(all, "tokens must be non-empty", tokens)
    check(_plain_words, _word_problem, tokens, texts)
    check(frozenset(LANGUAGES).issuperset,
          lambda lang: f"unknown language {lang!r}; expected one of {LANGUAGES}", languages)
    check(_masks_fit, "mask length mismatch", masks, tokens)
    check(_binary, "mask values must be 0 or 1", masks)
    check(_matched, lambda origin, lang: ("D_S sentences must have language 'en'"
                                          if origin is DatasetTag.D_S else
                                          "D_T sentences must have a non-English language"),
          origins, languages)


_MISSING = object()
# Each field of a record, with the value it has when the record leaves it out.
_DEFAULTS = {"id": _MISSING, "lang": _MISSING, "tokens": _MISSING, "origin": _MISSING,
             "emotion": None, "mask": None, "bilingual": False}
_EMOTIONS = {None: None, **_LABELS_BY_WORD}


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _utf8(text: str) -> bool:
    """Whether ``text`` holds no surrogate, so that it can be written as UTF-8."""
    return text.isascii() or not _SURROGATE(text)


def _sentences(records) -> tuple[list[AnnotatedSentence], tuple[int, str] | None]:
    """The sentences of a chunk of records up to the first that breaks a rule,
    and that record's index and problem (None if every record keeps the rules).

    Each rule is checked over the whole chunk at once, in the order below. A
    rule that fails narrows the chunk to the records before its first failure,
    so the record reported is the first bad one in the chunk, with the first
    rule it breaks.
    """
    check = _Checks(len(records))
    check(lambda rows: all(map(isinstance, rows, repeat(dict))),
          "record is not an object", records)
    check(lambda rows: _FIELDS.issuperset(chain.from_iterable(rows)),
          lambda row: f"unknown field {sorted(row.keys() - _FIELDS)[0]!r}", records)
    rows = records[:check.n]
    ids, langs, tokens, origins, emotions, masks, bilinguals = (
        list(map(dict.get, rows, repeat(name), repeat(default)))
        for name, default in _DEFAULTS.items())
    check(lambda *values: _MISSING not in chain(*values),
          lambda *values: f"missing field {list(_DEFAULTS)[values.index(_MISSING)]!r}",
          ids, langs, tokens, origins)
    check(lambda lists: set(map(type, lists)) <= {list},
          "field 'tokens' must be a list of strings", tokens)
    texts = check.map("\0".join, tokens, "field 'tokens' must be a list of strings")
    check(lambda lists: set(map(type, lists)) <= {list, type(None)}
          and set(map(type, chain.from_iterable(filter(None, lists)))) <= {int},
          "field 'mask' must be a list of 0/1 integers", masks)
    check(lambda flags: set(map(type, flags)) <= {bool},
          "field 'bilingual' must be true or false", bilinguals)
    ids = list(map(str, ids[:check.n]))
    check(lambda sids: _utf8("".join(sids)),
          "field 'id' holds an unpaired surrogate escape", ids)
    check(lambda joined: _utf8("".join(joined)),
          "field 'tokens' holds an unpaired surrogate escape", texts)
    origins = check.map(_TAGS_BY_NAME.__getitem__, list(map(str, origins[:check.n])),
                        lambda name: _unknown("origin tag", name, _TAGS_BY_NAME))
    emotions = check.map(_EMOTIONS.__getitem__, emotions,
                         lambda label: _unknown("emotion label", label, _LABELS_BY_WORD))
    n = check.n
    # NUL composes with nothing, so joined text is NFC exactly when every piece is.
    ids, tokens, texts = ids[:n], tokens[:n], texts[:n]
    if not unicodedata.is_normalized("NFC", "\0".join(ids)):
        ids = list(map(_nfc, ids))
    if not unicodedata.is_normalized("NFC", "\0".join(texts)):
        # ``texts`` keep the tokens as read: NFC maps no character to or from whitespace.
        tokens = [words if unicodedata.is_normalized("NFC", text) else list(map(_nfc, words))
                  for words, text in zip(tokens, texts)]
    langs = list(map(str, langs[:n]))
    _check_sentences(check, ids, tokens, texts, langs, origins, masks)
    n = check.n
    sentences = list(map(AnnotatedSentence, ids[:n], tokens[:n], langs[:n], origins[:n],
                         emotions[:n], masks[:n], bilinguals[:n]))
    return sentences, check.bad


def _sentence_from_record(record: dict) -> AnnotatedSentence:
    """One record's sentence, by the checks a chunk of records goes through."""
    sentences, bad = _sentences([record])
    if bad is not None:
        raise DataError(bad[1])
    return sentences[0]


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


def _chunks(items: Iterable) -> Iterator[list]:
    """Lists of ``_CHUNK_RECORDS`` items, the last one shorter. An error that
    ``items`` raises is raised after a list of the items given before it, so
    those are checked first, as they were when checked one at a time."""
    chunk = []
    try:
        for item in items:
            chunk.append(item)
            if len(chunk) == _CHUNK_RECORDS:
                yield chunk
                chunk = []
    except Exception:
        if chunk:
            yield chunk
        raise
    if chunk:
        yield chunk


def load_corpus(
    path: str | Path, format: str = "jsonl", seen: dict[str, tuple[Path, int]] | None = None
) -> Corpus:
    """Load a corpus file, a chunk of records at a time; raises :class:`DataError`
    naming the file and the first offending line (for a TSV sentence's record,
    the line of its header).

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
    for chunk in _chunks(records):
        linenos, rows = zip(*chunk)
        built, bad = _sentences(rows)
        ids = list(map(attrgetter("id"), built))
        if len(set(ids)) < len(ids) or not seen.keys().isdisjoint(ids):
            for sid, lineno in zip(ids, linenos):
                check_new_id(seen, sid, path, lineno)
        seen.update(zip(ids, zip(repeat(path), linenos)))
        if bad is not None:
            index, problem = bad
            raise DataError(f"{path}: {problem} at line {linenos[index]}")
        sentences += built
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


def read_jsonl(path: str | Path) -> Iterator[tuple[int, object]]:
    """The line number and JSON value of every non-blank line of a file; a
    line that is not JSON is a :class:`DataError` naming file and line.

    A line that is one JSON value followed by JSON whitespace is parsed by the
    scanner alone; any other line goes to ``json.loads``, which accepts or
    rejects it with its own message.
    """
    for lineno, line in read_lines(path):
        try:
            value, end = _SCAN(line, 0)
            scanned = not line[end:].strip(" \t\n\r")
        except (StopIteration, ValueError):
            scanned = False
        if not scanned:
            if not line.strip():
                continue
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path} line {lineno}: invalid JSON: {exc.msg}") from None
        yield lineno, value


# The encoder that ``json.dumps(value, ensure_ascii=False)`` builds on every call,
# built once. Without a markers dict it keeps no state between calls and does not
# look for cycles, which no record has.
_ENCODER = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring, None, ": ", ", ",
    False, False, True)


def encode_json(value: object) -> str:
    """``json.dumps(value, ensure_ascii=False)``."""
    return "".join(_ENCODER(value, 0))


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """Write one JSON object per line into an existing directory, a chunk of lines per write."""
    records = iter(records)
    with open(path, "w", encoding="utf-8") as handle:
        while chunk := list(islice(records, _CHUNK_RECORDS)):
            handle.write("\n".join(map("".join, map(_ENCODER, chunk, repeat(0)))) + "\n")


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
    for lineno, line in chain(read_lines(path), [(0, "")]):
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

