"""Annotated sentence data model, JSONL/TSV corpus I/O, splits, and label statistics."""
from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

LANGUAGES = ("en", "nl", "ru", "es", "fr")


class CorpusFormatError(ValueError):
    """A corpus file or record violates the schema."""


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
        except KeyError:
            raise CorpusFormatError(
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
            raise CorpusFormatError(
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

    def validate(self) -> None:
        if not self.id:
            raise CorpusFormatError("empty id")
        if not self.tokens:
            raise CorpusFormatError("tokens must be non-empty")
        for tok in self.tokens:
            if not tok:
                raise CorpusFormatError("empty token")
            if any(ch.isspace() for ch in tok):
                raise CorpusFormatError(f"token contains whitespace: {tok!r}")
        if self.language not in LANGUAGES:
            raise CorpusFormatError(
                f"unknown language {self.language!r}; expected one of {LANGUAGES}"
            )
        if self.trigger_mask is not None:
            if len(self.trigger_mask) != len(self.tokens):
                raise CorpusFormatError("mask length mismatch")
            if any(v not in (0, 1) for v in self.trigger_mask):
                raise CorpusFormatError("mask values must be 0 or 1")
        if self.origin is DatasetTag.D_S and self.language != "en":
            raise CorpusFormatError("D_S sentences must have language 'en'")
        if self.origin is DatasetTag.D_T and self.language == "en":
            raise CorpusFormatError("D_T sentences must have a non-English language")


@dataclass
class Corpus:
    sentences: list[AnnotatedSentence] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def validate(self) -> None:
        seen: set[str] = set()
        for sent in self.sentences:
            sent.validate()
            if sent.id in seen:
                raise CorpusFormatError(f"duplicate id {sent.id!r}")
            seen.add(sent.id)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _sentence_from_record(record: dict) -> AnnotatedSentence:
    if not isinstance(record, dict):
        raise CorpusFormatError("record is not an object")
    known = {"id", "lang", "tokens", "emotion", "mask", "origin", "bilingual"}
    unknown = set(record) - known
    if unknown:
        raise CorpusFormatError(f"unknown field {sorted(unknown)[0]!r}")
    for req in ("id", "lang", "tokens", "origin"):
        if req not in record:
            raise CorpusFormatError(f"missing field {req!r}")
    tokens = record["tokens"]
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise CorpusFormatError("field 'tokens' must be a list of strings")
    emotion = record.get("emotion")
    mask = record.get("mask")
    if mask is not None and (
        not isinstance(mask, list) or any(not isinstance(v, int) for v in mask)
    ):
        raise CorpusFormatError("field 'mask' must be a list of 0/1 integers")
    sent = AnnotatedSentence(
        id=_nfc(str(record["id"])),
        tokens=[_nfc(t) for t in tokens],
        language=str(record["lang"]),
        origin=DatasetTag.from_string(str(record["origin"])),
        emotion=EmotionLabel.from_string(emotion) if emotion is not None else None,
        trigger_mask=list(mask) if mask is not None else None,
        bilingual=bool(record.get("bilingual", False)),
    )
    sent.validate()
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


def _provenance_path(path: Path) -> Path:
    return path.with_name(path.name + ".provenance.json")


def write_provenance(path: Path, provenance: dict) -> None:
    """Write the ``<path>.provenance.json`` sidecar of an output file."""
    _provenance_path(path).write_text(
        json.dumps(provenance, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


def load_corpus(path: str | Path, format: str = "jsonl") -> Corpus:
    """Load a corpus file; raises :class:`CorpusFormatError` naming the offending line."""
    path = Path(path)
    if format == "jsonl":
        sentences = _load_jsonl(path)
    elif format == "tsv":
        sentences = _load_tsv(path)
    else:
        raise ValueError(f"unknown format {format!r}")
    provenance: dict = {}
    prov_path = _provenance_path(path)
    if prov_path.exists():
        provenance = json.loads(prov_path.read_text(encoding="utf-8"))
    return Corpus(sentences=sentences, provenance=provenance)


def _check_new_id(first_line: dict[str, int], sid: str, path: Path, lineno: int) -> None:
    """Record that ``sid`` starts at ``lineno``; reject an id seen before."""
    first = first_line.setdefault(sid, lineno)
    if first != lineno:
        raise CorpusFormatError(
            f"{path} line {lineno}: duplicate id {sid!r}, first at line {first}"
        )


def _load_jsonl(path: Path) -> list[AnnotatedSentence]:
    sentences = []
    first_line: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"invalid JSON at line {lineno}: {exc.msg}") from None
            try:
                sent = _sentence_from_record(record)
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"{exc} at line {lineno}") from None
            _check_new_id(first_line, sent.id, path, lineno)
            sentences.append(sent)
    return sentences


def _parse_tsv_header(line: str) -> dict:
    fields: dict = {}
    for item in line[1:].split():
        if "=" not in item:
            raise CorpusFormatError(f"malformed header item {item!r}")
        key, value = item.split("=", 1)
        fields[key] = value
    unknown = set(fields) - {"id", "lang", "emotion", "origin", "bilingual"}
    if unknown:
        raise CorpusFormatError(f"unknown header field {sorted(unknown)[0]!r}")
    for req in ("id", "lang", "origin"):
        if req not in fields:
            raise CorpusFormatError(f"missing header field {req!r}")
    return fields


def _load_tsv(path: Path) -> list[AnnotatedSentence]:
    sentences = []
    header: dict | None = None
    header_line = 0
    tokens: list[str] = []
    mask: list[int] = []
    mask_seen: bool | None = None
    first_line: dict[str, int] = {}

    def flush() -> None:
        nonlocal header, tokens, mask, mask_seen
        if header is None:
            return
        sent = AnnotatedSentence(
            id=_nfc(header["id"]),
            tokens=tokens,
            language=header["lang"],
            origin=DatasetTag.from_string(header["origin"]),
            emotion=EmotionLabel.from_string(header["emotion"]) if "emotion" in header else None,
            trigger_mask=mask if mask_seen else None,
            bilingual=header.get("bilingual") == "true",
        )
        try:
            sent.validate()
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{exc} at line {header_line}") from None
        _check_new_id(first_line, sent.id, path, header_line)
        sentences.append(sent)
        header, tokens, mask, mask_seen = None, [], [], None

    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                flush()
                continue
            if line.startswith("#"):
                flush()
                try:
                    header = _parse_tsv_header(line)
                except CorpusFormatError as exc:
                    raise CorpusFormatError(f"{exc} at line {lineno}") from None
                header_line = lineno
                continue
            if header is None:
                raise CorpusFormatError(f"token row before sentence header at line {lineno}")
            columns = line.split("\t")
            if len(columns) == 1:
                has_mask = False
            elif len(columns) == 2:
                has_mask = True
            else:
                raise CorpusFormatError(f"expected 1 or 2 columns at line {lineno}")
            if mask_seen is None:
                mask_seen = has_mask
            elif mask_seen != has_mask:
                raise CorpusFormatError(f"inconsistent mask column at line {lineno}")
            tokens.append(_nfc(columns[0]))
            if has_mask:
                if columns[1] not in ("0", "1"):
                    raise CorpusFormatError(f"mask value must be 0 or 1 at line {lineno}")
                mask.append(int(columns[1]))
    flush()
    return sentences


def save_corpus(corpus: Corpus, path: str | Path, format: str = "jsonl") -> None:
    """Write a corpus so that a reload reproduces it field for field.

    Non-empty provenance goes to a ``<path>.provenance.json`` sidecar; the
    corpus file itself carries only sentence records.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if format == "jsonl":
        _save_jsonl(corpus, path)
    elif format == "tsv":
        _save_tsv(corpus, path)
    else:
        raise ValueError(f"unknown format {format!r}")
    if corpus.provenance:
        write_provenance(path, corpus.provenance)
    else:
        _provenance_path(path).unlink(missing_ok=True)


def _save_jsonl(corpus: Corpus, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sent in corpus.sentences:
            handle.write(json.dumps(_sentence_to_record(sent), ensure_ascii=False) + "\n")


def _save_tsv(corpus: Corpus, path: Path) -> None:
    lines: list[str] = []
    for sent in corpus.sentences:
        for value in (sent.id, sent.language):
            if any(ch.isspace() for ch in value):
                raise CorpusFormatError(f"header value contains whitespace: {value!r}")
        for tok in sent.tokens:
            if "\t" in tok or "\n" in tok:
                raise CorpusFormatError(f"token contains delimiter: {tok!r}")
        header = f"# id={sent.id} lang={sent.language}"
        if sent.emotion is not None:
            header += f" emotion={sent.emotion.value}"
        header += f" origin={sent.origin.value}"
        if sent.bilingual:
            header += " bilingual=true"
        lines.append(header)
        for i, tok in enumerate(sent.tokens):
            if sent.trigger_mask is not None:
                lines.append(f"{tok}\t{sent.trigger_mask[i]}")
            else:
                lines.append(tok)
        lines.append("")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def split_train_validation(
    corpus: Corpus, fraction: float, seed: int
) -> tuple[Corpus, Corpus]:
    """Deterministic unstratified split: seeded shuffle, prefix becomes validation.

    Validation size is ``round(fraction * N)`` with half-up rounding. Both
    halves keep the original sentence order and record the seed in provenance.
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

    base = dict(corpus.provenance)
    base.update({"split_seed": seed, "split_fraction": fraction, "split_stratified": False})
    train = Corpus(
        sentences=[s for i, s in enumerate(corpus.sentences) if i not in val_indices],
        provenance={**base, "split_role": "train"},
    )
    validation = Corpus(
        sentences=[s for i, s in enumerate(corpus.sentences) if i in val_indices],
        provenance={**base, "split_role": "validation"},
    )
    return train, validation


def label_distribution(corpus: Corpus) -> dict[EmotionLabel, int]:
    """Count sentences per emotion label; every label appears as a key."""
    missing = [s.id for s in corpus.sentences if s.emotion is None]
    if missing:
        raise ValueError(f"sentences missing emotion label: {missing}")
    counts = {label: 0 for label in EMOTION_ORDER}
    for sent in corpus.sentences:
        counts[sent.emotion] += 1
    return counts

