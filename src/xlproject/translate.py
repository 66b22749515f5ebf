"""Pluggable translation backends with a persistent content-addressed cache."""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

API_KEY_ENV = "XLPROJECT_MT_API_KEY"
# Upper bound on concurrent translation requests, so no configuration can ask
# for one thread per pending text.
MAX_PARALLELISM = 64


class TranslationError(Exception):
    """Remote translation failed after retries; ``index`` names the failing text."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 30.0):
        import requests

        self.endpoint = endpoint
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout
        self.backend_id = f"remote:{endpoint}"
        self._session = requests.Session()

    def translate(self, text: str, src: str, tgt: str) -> str:
        payload = {"q": text, "source": src, "target": tgt}
        if self.api_key:
            payload["api_key"] = self.api_key
        response = self._session.post(self.endpoint, json=payload, timeout=self.timeout)
        response.raise_for_status()
        body = response.json()
        if "translatedText" not in body:
            raise TranslationError(f"response missing 'translatedText': {body!r}")
        return str(body["translatedText"])


def cache_key(text: str, src: str, tgt: str, backend_id: str) -> str:
    """Stable content hash for one translation request."""
    payload = "\x1f".join((backend_id, src, tgt, text)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class TranslationCache:
    """Directory of JSON entries keyed by cache_key; first write wins."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> str | None:
        """The cached translation, or None on a miss; a corrupt entry raises ValueError."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        try:
            translated = json.loads(raw)["translated"]
        except (ValueError, TypeError, KeyError):
            translated = None
        if not isinstance(translated, str):
            raise ValueError(
                f"corrupt translation-cache entry {path}: expected JSON with a 'translated' string"
            )
        return translated

    def put(self, key: str, text: str, translated: str, src: str, tgt: str, backend_id: str) -> None:
        """Store an entry unless the key is present; no reader ever sees a partial entry.

        The entry is written to a temporary file next to its final path and
        hard-linked into place, which fails if an earlier writer got there first.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "text": text,
            "translated": translated,
            "src": src,
            "tgt": tgt,
            "backend": backend_id,
            "created_at": time.time(),
        }
        # Unique among live writers; a leftover of a killed writer is overwritten.
        tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        handle = open(tmp, "w", encoding="utf-8")
        try:
            with handle:
                json.dump(entry, handle, ensure_ascii=False)
            try:
                os.link(tmp, path)
            except FileExistsError:
                pass  # an earlier writer already stored this key
        finally:
            os.unlink(tmp)


def translate_batch(
    texts: list[str],
    src: str,
    tgt: str,
    backend: TranslationBackend,
    cache: TranslationCache | None = None,
    parallelism: int = 1,
    retries: int = 3,
    backoff: float = 0.5,
) -> list[str]:
    """Translate texts preserving order; cache hits never touch the backend.

    Duplicate texts are translated once. At most ``parallelism`` requests are
    in flight; each attempt is retried up to ``retries`` times with
    exponential backoff. Successful translations are cached before any
    failure propagates, so a rerun resumes from the partial results.
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
        for attempt in range(retries):
            try:
                translated = backend.translate(text, src, tgt)
                break
            except Exception as exc:
                last_error = exc
                if attempt < retries - 1 and backoff > 0:
                    time.sleep(backoff * 2**attempt)
        else:
            raise TranslationError(str(last_error)) from last_error
        if cache is not None:
            cache.put(
                cache_key(text, src, tgt, backend.backend_id),
                text, translated, src, tgt, backend.backend_id,
            )
        return translated

    if pending:
        unique_texts = list(pending)
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = {text: pool.submit(run_one, text) for text in unique_texts}
        failure: tuple[int, Exception] | None = None
        for text in unique_texts:
            future = futures[text]
            error = future.exception()
            if error is not None:
                first_index = min(pending[text])
                if failure is None or first_index < failure[0]:
                    failure = (first_index, error)
                continue
            for i in pending[text]:
                results[i] = future.result()
        if failure is not None:
            index, error = failure
            raise TranslationError(
                f"translation failed for text at index {index}: {error}", index=index
            ) from error
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
