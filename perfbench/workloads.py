"""Workload inputs and the CLI command sequence each workload runs.

Inputs are generated here, from the benchmark seed alone, so that a change
to the program cannot change what it is benchmarked on. Sentence lengths,
span counts and labels follow the sentence index; the seed picks the words
and their positions. Every seed therefore yields the same sizes (tokens,
spans, discards), and run-to-run differences come from the program rather
than from the amount of work.
"""
from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

import yaml

LABELS = ("Love", "Joy", "Fear", "Anger", "Sadness", "Neutral")

# The low-vocabulary lexicon: 48 English words and their 48 mock translations.
FILLER_WORDS = (
    "the", "a", "this", "that", "morning", "evening", "coffee", "train",
    "garden", "letter", "window", "river", "music", "street", "meeting",
    "sky", "book", "dinner", "phone", "holiday", "cat", "house", "friend",
    "walk", "game", "rain", "office", "road", "story", "lamp",
)
TRIGGER_WORDS = tuple(
    "zq" + stem
    for stem in (
        "glow", "burn", "chill", "storm", "spark", "drift", "shine", "crush",
        "bloom", "shade", "surge", "flare",
    )
)
KEYWORDS = {
    "Love": "amour", "Joy": "gleeful", "Fear": "dread",
    "Anger": "wrath", "Sadness": "mourn", "Neutral": "plainly",
}

LANGS = ("nl", "ru", "es", "fr")
SPLIT_SEED = "13"
TRAIN_SEED = "0"


def _sentence(rng: random.Random, sid: str, filler: list[str], spans: list[list[str]],
              label: str) -> dict:
    """Place the label keyword among the filler, then each span in its own gap."""
    body = list(filler)
    body.insert(rng.randrange(len(body) + 1), KEYWORDS[label])
    gaps = set(rng.sample(range(len(body) + 1), len(spans)))
    pending = iter(spans)
    tokens: list[str] = []
    mask: list[int] = []
    for gap in range(len(body) + 1):
        if gap in gaps:
            span = next(pending)
            tokens.extend(span)
            mask.extend([1] * len(span))
        if gap < len(body):
            tokens.append(body[gap])
            mask.append(0)
    return {"id": sid, "lang": "en", "tokens": tokens, "emotion": label,
            "mask": mask, "origin": "D_S"}


def synthetic_sentences(rng: random.Random, n: int, prefix: str) -> list[dict]:
    """Low-vocabulary sentences: 4-9 filler words, a keyword, 0-2 one-word triggers."""
    out = []
    for i in range(n):
        filler = [rng.choice(FILLER_WORDS) for _ in range(4 + (7 * i) % 6)]
        n_spans = 0 if i % 20 < 3 else 1 + i % 2
        spans = [[rng.choice(TRIGGER_WORDS)] for _ in range(n_spans)]
        out.append(_sentence(rng, f"{prefix}-{i:05d}", filler, spans, LABELS[i % 6]))
    return out


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choices(string.ascii_lowercase, k=3 + rng.randrange(8)))


def highvocab_sentences(rng: random.Random, n: int, prefix: str) -> list[dict]:
    """Random character words: 6-14 filler words, a keyword, 0-3 trigger spans."""
    out = []
    for i in range(n):
        filler = [_random_word(rng) for _ in range(6 + (5 * i) % 9)]
        n_spans = (0, 1, 1, 2, 1, 3, 1)[i % 7]
        span_len = 2 if i % 3 == 0 else 1
        spans = [[_random_word(rng) for _ in range(span_len)] for _ in range(n_spans)]
        out.append(_sentence(rng, f"{prefix}-{i:05d}", filler, spans, LABELS[i % 6]))
    return out


def vocabulary_stats(sentences: list[dict]) -> dict:
    """Distinct words, and the share of token occurrences whose word came earlier."""
    seen: set[str] = set()
    repeats = total = 0
    for record in sentences:
        for token in record["tokens"]:
            total += 1
            if token in seen:
                repeats += 1
            else:
                seen.add(token)
    return {"distinct_words": len(seen), "repeat_share": repeats / total}


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_config(path: Path, dictionary: dict[str, str], drop: list[str]) -> None:
    config = {"mt": {"mock_dictionary": dictionary, "mock_drop_tokens": drop, "parallelism": 1}}
    path.write_text(yaml.safe_dump(config, allow_unicode=True), encoding="utf-8")


@dataclass(frozen=True)
class Sizes:
    corpus: int          # source sentences before the train/validation split
    test: int            # separately generated test sentences
    epochs: int
    feature_dim: int
    floor: float         # the lowest task_score a correct run reaches at these sizes
    lora_r: int | None = None
    subset: float | None = None  # share of the combination that is trained on
    predicts: int = 1    # predict runs per pass, all on the same model and test set


class Workload:
    """Generates its inputs into a directory and lists the CLI commands of one pass."""

    name: str
    task: str
    score_key: str
    sizes: dict[str, Sizes]  # "full" for measurement, "toy" for the self-check

    def make_inputs(self, seed: int, inputs: Path, size: Sizes) -> dict:
        raise NotImplementedError

    def commands(self, inputs: Path, out: Path, size: Sizes) -> list[list[str]]:
        raise NotImplementedError


def _project(src_file: Path, out_file: Path, lang: str, config: Path,
             cache: Path) -> tuple[list[str], list[str]]:
    """A cold projection, and the same projection to rerun once the cache is warm.

    Each workload runs the reruns at the end of its pass, after the cache files
    written by the cold runs have settled on disk.
    """
    base = ["project", "--input", str(src_file), "--backend", "mock", "--config", str(config),
            "--src", "en", "--tgt", lang, "--cache-dir", str(cache)]
    warm = out_file.with_name(out_file.stem + ".warm.jsonl")
    return base + ["--output", str(out_file)], base + ["--output", str(warm)]


def _extra_predictions(out: Path, model: Path, test: Path, size: Sizes) -> list[list[str]]:
    """Predict the test set again, so the predict figure rests on several runs per pass."""
    return [["predict", "--model", str(model), "--input", str(test),
             "--output", str(out / f"predictions.{r}.jsonl")] for r in range(1, size.predicts)]


def _train(train_file: Path, validation: Path, model: Path, task: str, size: Sizes) -> list[str]:
    argv = ["train", "--input", str(train_file), "--validation", str(validation),
            "--task", task, "--lr", "2e-4", "--epochs", str(size.epochs),
            "--seed", TRAIN_SEED, "--feature-dim", str(size.feature_dim), "--output", str(model)]
    if size.lora_r is not None:
        argv += ["--lora-r", str(size.lora_r)]
    return argv


def _predict_evaluate(out: Path, model: Path, test: Path) -> list[list[str]]:
    return [
        ["predict", "--model", str(model), "--input", str(test),
         "--output", str(out / "predictions.jsonl")],
        ["evaluate", "--gold", str(test), "--predictions", str(out / "predictions.jsonl"),
         "--output", str(out / "report.json")],
    ]


def _split(src: Path, out: Path) -> list[str]:
    return ["split", "--input", str(src), "--fraction", "0.10", "--seed", SPLIT_SEED,
            "--output-train", str(out / "d_s.jsonl"),
            "--output-validation", str(out / "validation.jsonl")]


class HighvocabEmotion(Workload):
    name = "highvocab-emotion"
    task = "emotion"
    score_key = "macro_f1"
    sizes = {
        "full": Sizes(corpus=480, test=1200, epochs=1, feature_dim=2**18, floor=0.9,
                      subset=0.25, predicts=3),
        "toy": Sizes(corpus=60, test=30, epochs=1, feature_dim=2**10, floor=0.0, subset=0.5,
                     predicts=2),
    }

    def make_inputs(self, seed, inputs, size):
        rng = random.Random(f"highvocab-emotion/{seed}")
        corpus = highvocab_sentences(rng, size.corpus, "hv")
        test = highvocab_sentences(rng, size.test, "test")
        write_jsonl(corpus, inputs / "corpus.jsonl")
        write_jsonl(test, inputs / "test.jsonl")
        for lang in LANGS:
            # Only the keywords translate; the mock swallows the second span's opening marker.
            table = {word: word + lang for word in KEYWORDS.values()}
            write_config(inputs / f"config_{lang}.yaml", table, ["{"])
        return vocabulary_stats(corpus + test)

    def commands(self, inputs, out, size):
        cache = out / "cache"
        projections = [_project(out / "d_s.jsonl", out / f"d_t_{lang}.jsonl", lang,
                                inputs / f"config_{lang}.yaml", cache) for lang in LANGS]
        projections.append(_project(inputs / "test.jsonl", out / "test_fr.jsonl", "fr",
                                    inputs / "config_fr.yaml", cache))
        argv = [_split(inputs / "corpus.jsonl", out)] + [cold for cold, _ in projections]
        combine = ["combine", "--combine", "D_S+D_T+D_St+D_Ts", "--d-s", str(out / "d_s.jsonl"),
                   "--output", str(out / "train_all.jsonl")]
        for lang in LANGS:
            argv.append(["switch", "--source", str(out / "d_s.jsonl"),
                         "--target", str(out / f"d_t_{lang}.jsonl"),
                         "--output-st", str(out / f"d_st_{lang}.jsonl"),
                         "--output-ts", str(out / f"d_ts_{lang}.jsonl")])
            combine += ["--d-t", str(out / f"d_t_{lang}.jsonl"),
                        "--d-st", str(out / f"d_st_{lang}.jsonl"),
                        "--d-ts", str(out / f"d_ts_{lang}.jsonl")]
        argv.append(combine)
        # A seeded subset of the combination keeps training near half of the pass.
        argv.append(["split", "--input", str(out / "train_all.jsonl"),
                     "--fraction", str(size.subset), "--seed", SPLIT_SEED,
                     "--output-train", str(out / "train_rest.jsonl"),
                     "--output-validation", str(out / "train_subset.jsonl")])
        argv.append(_train(out / "train_subset.jsonl", out / "validation.jsonl",
                           out / "model.npz", self.task, size))
        argv += _predict_evaluate(out, out / "model.npz", out / "test_fr.jsonl")
        argv += _extra_predictions(out, out / "model.npz", out / "test_fr.jsonl", size)
        return argv + [warm for _, warm in projections]


class LoraAdapter(Workload):
    """A trigger head trained through LoRA at the CLI defaults, on low-vocabulary inputs.

    The test set is projected to Spanish before it is predicted, so the
    projection and translation-cache layers run on this workload too.
    """

    name = "lora-adapter"
    task = "trigger"
    score_key = "token_f1"
    sizes = {
        "full": Sizes(corpus=12, test=800, epochs=1, feature_dim=2**18, floor=0.1,
                      lora_r=64, predicts=3),
        "toy": Sizes(corpus=20, test=20, epochs=1, feature_dim=2**10, floor=0.0, lora_r=4,
                     predicts=2),
    }

    def make_inputs(self, seed, inputs, size):
        rng = random.Random(f"{self.name}/{seed}")
        corpus = synthetic_sentences(rng, size.corpus, "syn")
        test = synthetic_sentences(rng, size.test, "test")
        write_jsonl(corpus, inputs / "corpus.jsonl")
        write_jsonl(test, inputs / "test.jsonl")
        table = {w: "xx" + w for w in FILLER_WORDS + TRIGGER_WORDS + tuple(KEYWORDS.values())}
        write_config(inputs / "config.yaml", table, [])  # the mock ignores the language
        return vocabulary_stats(corpus + test)

    def commands(self, inputs, out, size):
        cold, warm = _project(inputs / "test.jsonl", out / "test_es.jsonl", "es",
                              inputs / "config.yaml", out / "cache")
        return [
            _split(inputs / "corpus.jsonl", out),
            cold,
            _train(out / "d_s.jsonl", out / "validation.jsonl", out / "model.npz",
                   self.task, size),
            *_predict_evaluate(out, out / "model.npz", out / "test_es.jsonl"),
            *_extra_predictions(out, out / "model.npz", out / "test_es.jsonl", size),
            warm,
        ]


WORKLOADS = {w.name: w for w in (HighvocabEmotion(), LoraAdapter())}
