import errno
import json
import re
import threading

import pytest

from xlproject import translate
from xlproject.translate import (
    RETRIES,
    DictionaryBackend,
    IdentityBackend,
    TranslationCache,
    TranslationError,
    cache_key,
    translate_batch,
)


class FlakyBackend:
    """Fails a configurable number of times per text before succeeding."""

    backend_id = "flaky"

    def __init__(self, failures, permanent_fail=()):
        self.failures = dict(failures)
        self.permanent_fail = set(permanent_fail)
        self.calls = 0

    def translate(self, text, src, tgt):
        self.calls += 1
        if text in self.permanent_fail:
            raise RuntimeError(f"permanently broken: {text}")
        if self.failures.get(text, 0) > 0:
            self.failures[text] -= 1
            raise RuntimeError(f"transient failure: {text}")
        return text.upper()


def segments(root):
    return sorted(root.glob("*.jsonl"))


def write_legacy_entry(root, key, entry):
    """An entry in the one-file-per-entry layout the log replaced."""
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(entry, ensure_ascii=False), encoding="utf-8")
    return path


class TestCacheKey:
    def test_deterministic(self):
        assert cache_key("hello", "en", "es", "b") == cache_key("hello", "en", "es", "b")

    def test_text_sensitivity(self):
        assert cache_key("hello", "en", "es", "b") != cache_key("hello!", "en", "es", "b")

    def test_language_separation(self):
        assert cache_key("hello", "en", "es", "b") != cache_key("hello", "en", "fr", "b")

    def test_backend_separation(self):
        assert cache_key("hello", "en", "es", "b1") != cache_key("hello", "en", "es", "b2")


class TestBackends:
    def test_identity(self):
        backend = IdentityBackend()
        assert translate_batch(["a b", "c"], "en", "es", backend) == ["a b", "c"]

    def test_dictionary_mock(self):
        backend = DictionaryBackend(mapping={"love": "quiero"})
        out = translate_batch(["I [ love ] you"], "en", "es", backend)
        assert out == ["I [ quiero ] you"]

    def test_dictionary_mock_drops_markers(self):
        backend = DictionaryBackend(drop_tokens=frozenset(["[", "]"]))
        out = translate_batch(["I [ love ] you"], "en", "es", backend)
        assert out == ["I love you"]

    def test_same_language_rejected(self):
        with pytest.raises(ValueError, match="source and target"):
            translate_batch(["a"], "en", "en", IdentityBackend())

    def test_empty_texts_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            translate_batch([], "en", "es", IdentityBackend())


class TestCaching:
    def test_second_call_hits_cache(self, tmp_path):
        backend = DictionaryBackend(mapping={"a": "x"})
        cache = TranslationCache(tmp_path / "cache")
        first = translate_batch(["a", "b"], "en", "es", backend, cache=cache)
        calls_after_first = backend.calls
        second = translate_batch(["a", "b"], "en", "es", backend, cache=cache)
        assert backend.calls == calls_after_first
        assert first == second == ["x", "b"]

    def test_duplicates_translated_once(self, tmp_path):
        backend = IdentityBackend()
        cache = TranslationCache(tmp_path / "cache")
        out = translate_batch(["same", "same", "same"], "en", "es", backend, cache=cache)
        assert out == ["same"] * 3
        assert backend.calls == 1

    def test_first_write_wins(self, tmp_path):
        cache = TranslationCache(tmp_path / "cache")
        key = cache_key("t", "en", "es", "b")
        cache.put(key, "t", "first", "en", "es", "b")
        cache.put(key, "t", "second", "en", "es", "b")
        assert cache.get(key) == "first"

    @pytest.mark.parametrize("content", ['{"text": "t", "transl', '{"text": "t"}', "[1]", ""])
    def test_corrupt_entry_names_its_file(self, tmp_path, content):
        key = cache_key("t", "en", "es", "b")
        with TranslationCache(tmp_path / "cache") as cache:
            cache.put(key, "t", "x", "en", "es", "b")
        (segment,) = segments(tmp_path / "cache")
        segment.write_text(f"{key}\t{content}\n")
        cache = TranslationCache(tmp_path / "cache")
        with pytest.raises(ValueError, match=re.escape(f"{segment} line 1")):
            cache.get(key)

    def test_put_failing_mid_write_leaves_no_entry(self, tmp_path):
        cache = TranslationCache(tmp_path / "cache")
        key = cache_key("t", "en", "es", "b")
        # The record fails to serialize at its last field but one.
        with pytest.raises(TypeError):
            cache.put(key, "t", "x", "en", "es", object())
        assert list((tmp_path / "cache").iterdir()) == []
        assert cache.get(key) is None
        cache.put(key, "t", "x", "en", "es", "b")
        cache.close()
        assert cache.get(key) == "x"
        assert TranslationCache(tmp_path / "cache").get(key) == "x"

    def test_put_names_its_segment_when_a_write_fails(self, tmp_path, monkeypatch):
        real_write = translate.os.write

        def write(fd, data):
            if b'"text": "b"' in data:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data)

        monkeypatch.setattr(translate.os, "write", write)
        with TranslationCache(tmp_path / "cache") as cache:
            cache.put(cache_key("a", "en", "es", "x"), "a", "A", "en", "es", "x")
            with pytest.raises(OSError) as info:
                cache.put(cache_key("b", "en", "es", "x"), "b", "B", "en", "es", "x")
            assert cache.get(cache_key("b", "en", "es", "x")) is None
        (segment,) = segments(tmp_path / "cache")
        assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(segment))
        assert str(info.value) == f"[Errno 28] No space left on device: '{segment}'"
        assert len(segment.read_text().splitlines()) == 1

    def test_warm_run_writes_nothing(self, tmp_path):
        with TranslationCache(tmp_path / "cache") as cache:
            translate_batch(["a", "b"], "en", "es", IdentityBackend(), cache=cache)
        before = {p: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
        with TranslationCache(tmp_path / "cache") as cache:
            translate_batch(["a", "b"], "en", "es", IdentityBackend(), cache=cache)
            assert (cache.hits, cache.misses) == (2, 0)
        assert {p: p.read_bytes() for p in (tmp_path / "cache").iterdir()} == before
        assert len(before) == 1

    def test_torn_last_line_skipped_and_counted(self, tmp_path):
        keys = [cache_key(t, "en", "es", "b") for t in ("a", "b", "c")]
        with TranslationCache(tmp_path / "cache") as cache:
            for key, text in zip(keys, "abc"):
                cache.put(key, text, text.upper(), "en", "es", "b")
        # A writer killed mid-line leaves the start of its last record and no newline.
        (segment,) = segments(tmp_path / "cache")
        data = segment.read_bytes()
        segment.write_bytes(data[: data.rindex(b"\t") + 5])
        cache = TranslationCache(tmp_path / "cache")
        assert cache.torn_lines == 1
        assert [cache.get(k) for k in keys] == ["A", "B", None]
        cache.put(keys[2], "c", "C", "en", "es", "b")
        cache.close()
        reopened = TranslationCache(tmp_path / "cache")
        assert reopened.torn_lines == 1
        assert [reopened.get(k) for k in keys] == ["A", "B", "C"]
        assert len(segments(tmp_path / "cache")) == 2

    @pytest.mark.parametrize("line", ["", "no key at all", "ab" * 32 + " {}", "AB" * 32 + "\t{}",
                                      "ab" * 31 + "\t{}"],
                             ids=["empty", "no-key", "no-tab", "upper-hex", "short-key"])
    def test_complete_line_without_key_names_file_and_line(self, tmp_path, line):
        key = cache_key("a", "en", "es", "b")
        with TranslationCache(tmp_path / "cache") as cache:
            cache.put(key, "a", "A", "en", "es", "b")
        (segment,) = segments(tmp_path / "cache")
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{segment} line 2")):
            TranslationCache(tmp_path / "cache")

    def test_interleaved_writers_earliest_segment_wins(self, tmp_path):
        root = tmp_path / "cache"
        first, second = TranslationCache(root), TranslationCache(root)
        keys = [cache_key(t, "en", "es", "b") for t in ("k0", "k1", "k2", "k3")]
        first.put(keys[0], "k0", "first0", "en", "es", "b")
        second.put(keys[0], "k0", "second0", "en", "es", "b")
        second.put(keys[1], "k1", "second1", "en", "es", "b")
        first.put(keys[1], "k1", "first1", "en", "es", "b")
        second.put(keys[2], "k2", "second2", "en", "es", "b")
        first.put(keys[3], "k3", "first3", "en", "es", "b")
        # Each instance reads back what it wrote.
        assert first.get(keys[1]) == "first1" and second.get(keys[1]) == "second1"
        first.close()
        second.close()
        expected = {}
        for segment in segments(root):
            for line in segment.read_text(encoding="utf-8").splitlines():
                key, record = line.split("\t")
                expected.setdefault(key, json.loads(record)["translated"])
        assert len(segments(root)) == 2 and len(expected) == 4
        reopened = TranslationCache(root)
        assert {k: reopened.get(k) for k in keys} == expected

    def test_legacy_entries_still_hit(self, tmp_path):
        root = tmp_path / "cache"
        key = cache_key("old", "en", "es", "identity")
        legacy = write_legacy_entry(root, key, {"text": "old", "translated": "OLD", "src": "en",
                                                "tgt": "es", "backend": "identity",
                                                "created_at": 1.0})
        backend = IdentityBackend()
        with TranslationCache(root) as cache:
            out = translate_batch(["old", "new"], "en", "es", backend, cache=cache)
            cache.put(key, "old", "other", "en", "es", "identity")  # the legacy entry came first
        assert out == ["OLD", "new"] and backend.calls == 1
        assert TranslationCache(root).get(key) == "OLD"
        legacy.write_text('{"text": "old"')
        with pytest.raises(ValueError, match=re.escape(f"entry {legacy}:")):
            TranslationCache(root).get(key)

    def test_order_preserved_with_mixed_hits(self, tmp_path):
        backend = IdentityBackend()
        cache = TranslationCache(tmp_path / "cache")
        translate_batch(["b", "d"], "en", "es", backend, cache=cache)
        out = translate_batch(["a", "b", "c", "d"], "en", "es", backend, cache=cache)
        assert out == ["a", "b", "c", "d"]


class TestRetries:
    def test_transient_failures_retried(self):
        backend = FlakyBackend(failures={"x": 2})
        out = translate_batch(["x"], "en", "es", backend, backoff=0.0)
        assert out == ["X"]
        assert backend.calls == 3

    def test_each_text_is_tried_retries_times(self):
        backend = FlakyBackend(failures={}, permanent_fail={"bad"})
        with pytest.raises(TranslationError, match="permanently broken: bad"):
            translate_batch(["bad"], "en", "es", backend, backoff=0.0)
        assert backend.calls == RETRIES == 3

    def test_permanent_failure_carries_index(self, tmp_path):
        backend = FlakyBackend(failures={}, permanent_fail={"bad"})
        cache = TranslationCache(tmp_path / "cache")
        with pytest.raises(TranslationError) as info:
            translate_batch(["ok", "bad", "ok2"], "en", "es", backend, cache=cache, backoff=0.0)
        assert info.value.index == 1
        # successful texts were cached before the failure propagated
        assert cache.get(cache_key("ok", "en", "es", "flaky")) == "OK"

    @pytest.mark.parametrize("parallelism", [1, 8])
    def test_cache_error_is_not_a_backend_failure(self, tmp_path, monkeypatch, parallelism):
        real_put = TranslationCache.put

        def put(self, key, text, *rest):
            if text == "b":
                raise OSError(errno.ENOSPC, "No space left on device")
            real_put(self, key, text, *rest)

        monkeypatch.setattr(TranslationCache, "put", put)
        backend = FlakyBackend(failures={}, permanent_fail={"c"})
        with TranslationCache(tmp_path / "cache") as cache:
            with pytest.raises(OSError, match="No space left on device") as info:
                translate_batch(["a", "b", "c", "d"], "en", "es", backend, cache=cache,
                                parallelism=parallelism, backoff=0.0)
        assert not isinstance(info.value, TranslationError)
        # Each text went to the backend once, the failing one RETRIES times, none again
        # for the cache error; what was cached before it stays cached.
        assert backend.calls == 3 + RETRIES
        reopened = TranslationCache(tmp_path / "cache")
        assert [reopened.get(cache_key(t, "en", "es", "flaky")) for t in "abcd"] == [
            "A", None, None, None]

    def test_parallel_batch(self, tmp_path):
        backend = IdentityBackend()
        cache = TranslationCache(tmp_path / "cache")
        texts = [f"t{i}" for i in range(40)]
        out = translate_batch(texts, "en", "es", backend, cache=cache, parallelism=8)
        assert out == texts

    @pytest.mark.parametrize("permanent_fail", [(), ("t3",), ("t5", "t2")], ids=["ok", "one", "two"])
    def test_inline_and_pooled_batches_agree(self, tmp_path, permanent_fail):
        texts = [f"t{i % 7}" for i in range(20)]
        outcomes = []
        for parallelism in (1, 8):
            backend = FlakyBackend(failures={"t1": 1}, permanent_fail=permanent_fail)
            root = tmp_path / f"cache{parallelism}"
            with TranslationCache(root) as cache:
                try:
                    outcome = translate_batch(texts, "en", "es", backend, cache=cache,
                                              parallelism=parallelism, backoff=0.0)
                except TranslationError as exc:
                    outcome = (exc.index, str(exc))
            reopened = TranslationCache(root)
            cached = {t: reopened.get(cache_key(t, "en", "es", "flaky")) for t in set(texts)}
            outcomes.append((outcome, cached, backend.calls))
        assert outcomes[0] == outcomes[1]
        if permanent_fail:
            assert outcomes[0][0][0] == min(texts.index(t) for t in permanent_fail)

    def test_parallelism_1_runs_inline_in_text_order(self, tmp_path):
        seen = []

        class RecordingBackend(IdentityBackend):
            def translate(self, text, src, tgt):
                seen.append((text, threading.current_thread()))
                return super().translate(text, src, tgt)

        with TranslationCache(tmp_path / "cache") as cache:
            translate_batch(["b", "a", "b", "c"], "en", "es", RecordingBackend(), cache=cache)
        assert seen == [(t, threading.main_thread()) for t in ("b", "a", "c")]
        (segment,) = segments(tmp_path / "cache")
        assert [json.loads(line.split("\t")[1])["text"]
                for line in segment.read_text().splitlines()] == ["b", "a", "c"]
