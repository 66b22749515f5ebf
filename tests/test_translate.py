import re

import pytest

from xlproject.translate import (
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
        cache = TranslationCache(tmp_path / "cache")
        key = cache_key("t", "en", "es", "b")
        cache.put(key, "t", "x", "en", "es", "b")
        path = cache._path(key)
        path.write_text(content)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            cache.get(key)

    def test_put_failing_mid_write_leaves_no_entry(self, tmp_path):
        cache = TranslationCache(tmp_path / "cache")
        key = cache_key("t", "en", "es", "b")
        # json.dump has written the first fields when it meets the bad value.
        with pytest.raises(TypeError):
            cache.put(key, "t", "x", "en", "es", object())
        assert list(cache._path(key).parent.iterdir()) == []
        assert cache.get(key) is None
        cache.put(key, "t", "x", "en", "es", "b")
        assert cache.get(key) == "x"

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

    def test_permanent_failure_carries_index(self, tmp_path):
        backend = FlakyBackend(failures={}, permanent_fail={"bad"})
        cache = TranslationCache(tmp_path / "cache")
        with pytest.raises(TranslationError) as info:
            translate_batch(["ok", "bad", "ok2"], "en", "es", backend, cache=cache, backoff=0.0)
        assert info.value.index == 1
        # successful texts were cached before the failure propagated
        assert cache.get(cache_key("ok", "en", "es", "flaky")) == "OK"

    def test_parallel_batch(self, tmp_path):
        backend = IdentityBackend()
        cache = TranslationCache(tmp_path / "cache")
        texts = [f"t{i}" for i in range(40)]
        out = translate_batch(texts, "en", "es", backend, cache=cache, parallelism=8)
        assert out == texts
