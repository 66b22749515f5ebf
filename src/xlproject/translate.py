"""Pluggable translation backends with a persistent content-addressed cache."""
from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

from .corpus import encode_json
from .errors import DataError, TranslationError

API_KEY_ENV = "XLPROJECT_MT_API_KEY"
REQUEST_TIMEOUT_S = 30.0
# Attempts per text before translate_batch gives up on it.
RETRIES = 3
# Upper bound on concurrent translation requests, so no configuration can ask
# for one thread per pending text.
MAX_PARALLELISM = 64


class TranslationBackend(Protocol):
    backend_id: str

    def translate(self, text: str, src: str, tgt: str) -> str: ...


@dataclass
class IdentityBackend:
    """Returns the input unchanged; exercises the full pipeline offline."""

    backend_id: str = "identity"
    calls: int = 0

    def translate(self, text: str, src: str, tgt: str) -> str:
        self.calls += 1
        return text


@dataclass
class DictionaryBackend:
    """Token-wise mock translation.

    Tokens found in ``mapping`` are replaced, tokens in ``drop_tokens`` are
    deleted (simulating a translator that swallows marker symbols), and
    everything else passes through, so markers survive by default.
    """

    mapping: dict[str, str] = field(default_factory=dict)
    drop_tokens: frozenset[str] = frozenset()
    backend_id: str = "mock"
    calls: int = 0

    def translate(self, text: str, src: str, tgt: str) -> str:
        self.calls += 1
        out = [self.mapping.get(tok, tok) for tok in text.split() if tok not in self.drop_tokens]
        return " ".join(out)


class RemoteHttpBackend:
    """Generic JSON-over-HTTP translator: POST {q, source, target} -> {translatedText}."""

    def __init__(self, endpoint: str):
        import requests

        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV)
        self.backend_id = f"remote:{endpoint}"
        self._session = requests.Session()

    def translate(self, text: str, src: str, tgt: str) -> str:
        payload = {"q": text, "source": src, "target": tgt}
        if self.api_key:
            payload["api_key"] = self.api_key
        response = self._session.post(self.endpoint, json=payload, timeout=REQUEST_TIMEOUT_S)
        response.raise_for_status()
        body = response.json()
        if "translatedText" not in body:
            raise TranslationError(f"response missing 'translatedText': {body!r}")
        return str(body["translatedText"])


# A segment line starts with its key and a tab; a legacy entry sits in <2 hex>/<key>.json.
_RECORD_KEY = re.compile(rb"[0-9a-f]{64}\t")
_LEGACY_DIR = re.compile(r"[0-9a-f]{2}")


def cache_key(text: str, src: str, tgt: str, backend_id: str) -> str:
    """Stable content hash for one translation request."""
    payload = "\x1f".join((backend_id, src, tgt, text)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class TranslationCache:
    """Append-only log of translation records keyed by :func:`cache_key`; the first record wins.

    The log is the directory's ``*.jsonl`` segments, read in name order. Each
    line is ``<key>\\t<JSON record>\\n``. Every instance appends to a segment
    of its own, ``<time_ns:020d>-<pid>-<unique>.jsonl``, created at its first
    ``put``. Opening splits the segments into lines but parses no JSON; a
    record is parsed when ``get`` hits it. A last line without its newline
    was left by a killed writer: it is skipped and counted in ``torn_lines``.
    Entries of the older one-file-per-entry layout, ``<2 hex>/<key>.json``,
    are still read, never written.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = self.misses = self.torn_lines = 0
        # key -> (raw JSON record, file, line number or None for a legacy entry)
        self._records: dict[str, tuple[bytes, Path, int | None]] = {}
        self._legacy = False
        self._lock = threading.Lock()
        self._segment: Path | None = None
        self._fd: int | None = None
        self._lines = 0
        for path in sorted(self.root.iterdir()):
            if path.suffix == ".jsonl" and path.is_file():
                self._read_segment(path)
            elif _LEGACY_DIR.fullmatch(path.name) and path.is_dir():
                self._legacy = True

    def _read_segment(self, path: Path) -> None:
        lines = path.read_bytes().split(b"\n")
        if lines.pop():
            self.torn_lines += 1
        for lineno, line in enumerate(lines, start=1):
            if not _RECORD_KEY.match(line):
                raise DataError(
                    f"corrupt translation-cache segment {path} line {lineno}: "
                    "expected a 64-hex key and a tab"
                )
            self._records.setdefault(line[:64].decode("ascii"), (line[65:], path, lineno))

    def _legacy_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> str | None:
        """The cached translation, or None on a miss; a corrupt record raises DataError."""
        found = self._records.get(key)
        if found is None and self._legacy:
            path = self._legacy_path(key)
            try:
                found = path.read_bytes(), path, None
            except FileNotFoundError:
                pass
        if found is None:
            self.misses += 1
            return None
        raw, path, lineno = found
        try:
            translated = json.loads(raw)["translated"]
        except (ValueError, TypeError, KeyError):
            translated = None
        if not isinstance(translated, str):
            where = path if lineno is None else f"{path} line {lineno}"
            raise DataError(
                f"corrupt translation-cache entry {where}: expected JSON with a 'translated' string"
            )
        self.hits += 1
        return translated

    def put(self, key: str, text: str, translated: str, src: str, tgt: str, backend_id: str) -> None:
        """Append a record unless the key is present, in one unbuffered write.

        Nothing is written if the record cannot be serialized. There is no
        fsync: a killed process leaves at most a torn last line, which the
        next open skips.
        """
        entry = {
            "text": text,
            "translated": translated,
            "src": src,
            "tgt": tgt,
            "backend": backend_id,
            "created_at": time.time(),
        }
        record = encode_json(entry).encode("utf-8")
        line = b"%s\t%s\n" % (key.encode("ascii"), record)
        with self._lock:
            if key in self._records or (self._legacy and self._legacy_path(key).exists()):
                return
            if self._fd is None:
                name = f"{time.time_ns():020d}-{os.getpid()}-{os.urandom(4).hex()}.jsonl"
                self._segment = self.root / name
                flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND
                self._fd = os.open(self._segment, flags, 0o644)
                self._lines = 0
            try:
                written = os.write(self._fd, line)
            except OSError as exc:  # name the segment, which os.write does not
                raise OSError(exc.errno, exc.strerror, str(self._segment)) from None
            if written != len(line):
                # The partial line stays last in its segment, where the next open skips it.
                self.close()
                raise OSError(f"{self._segment}: short write, {written} of {len(line)} bytes")
            self._lines += 1
            self._records[key] = (record, self._segment, self._lines)

    def close(self) -> None:
        """Close the segment this instance appends to; a later ``put`` starts a new one."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> TranslationCache:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def translate_batch(
    texts: list[str],
    src: str,
    tgt: str,
    backend: TranslationBackend,
    cache: TranslationCache | None = None,
    parallelism: int = 1,
    backoff: float = 0.5,
) -> list[str]:
    """Translate texts preserving order; cache hits never touch the backend.

    Duplicate texts are translated once. At most ``parallelism`` requests are
    in flight; at 1 they run inline, in text order. Each text is tried up
    to ``RETRIES`` times with exponential backoff. Successful translations
    are cached, in text order, before any failure propagates, so a rerun
    resumes from the partial results. Only backend failures become a
    :class:`TranslationError`; an error writing the cache propagates as it is.
    """
    if src == tgt:
        raise ValueError(f"source and target language are both {src!r}")
    if not texts:
        raise ValueError("texts must be non-empty")
    if not 1 <= parallelism <= MAX_PARALLELISM:
        raise ValueError(f"parallelism must be from 1 to {MAX_PARALLELISM}, got {parallelism}")

    results: list[str | None] = [None] * len(texts)
    pending: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        if cache is not None:
            hit = cache.get(cache_key(text, src, tgt, backend.backend_id))
            if hit is not None:
                results[i] = hit
                continue
        pending.setdefault(text, []).append(i)

    def run_one(text: str) -> str:
        last_error: Exception | None = None
        for attempt in range(RETRIES):
            try:
                translated = backend.translate(text, src, tgt)
                break
            except Exception as exc:
                last_error = exc
                if attempt < RETRIES - 1 and backoff > 0:
                    time.sleep(backoff * 2**attempt)
        else:
            raise TranslationError(str(last_error)) from last_error
        return translated

    def settle(text: str) -> tuple[str | None, Exception | None]:
        try:
            return run_one(text), None
        except Exception as exc:  # reported below, at the text's first index
            return None, exc

    if pending:
        unique_texts = list(pending)
        if parallelism == 1:
            outcomes = [settle(text) for text in unique_texts]
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                outcomes = list(pool.map(settle, unique_texts))
        # Every translation obtained is cached, in text order, before a backend
        # failure is reported; a cache error is not a backend failure.
        if cache is not None:
            for text, (translated, error) in zip(unique_texts, outcomes):
                if error is None:
                    cache.put(cache_key(text, src, tgt, backend.backend_id),
                              text, translated, src, tgt, backend.backend_id)
        # Texts are in order of first use, so the first failure has the lowest index.
        for text, (translated, error) in zip(unique_texts, outcomes):
            if error is not None:
                index = pending[text][0]
                raise TranslationError(
                    f"translation failed for text at index {index}: {error}", index=index
                ) from error
            for i in pending[text]:
                results[i] = translated
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
