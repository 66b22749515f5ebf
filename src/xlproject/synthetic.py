"""Deterministic synthetic corpora for tests and offline pipeline runs.

Trigger words all start with the sentinel prefix ``zq`` (a character n-gram
no filler word contains) and every sentence carries one keyword tied to its
emotion label, so linear heads over hashed n-grams can learn both tasks to
near-perfect scores.
"""
from __future__ import annotations

import random

from .corpus import AnnotatedSentence, Corpus, DatasetTag, EmotionLabel

TRIGGER_PREFIX = "zq"
# A sentence has no trigger at this rate, and otherwise from one to MAX_TRIGGERS.
NO_TRIGGER_RATE = 0.15
MAX_TRIGGERS = 2

FILLER_WORDS = (
    "the", "a", "this", "that", "morning", "evening", "coffee", "train",
    "garden", "letter", "window", "river", "music", "street", "meeting",
    "sky", "book", "dinner", "phone", "holiday", "cat", "house", "friend",
    "walk", "game", "rain", "office", "road", "story", "lamp",
)

TRIGGER_STEMS = (
    "glow", "burn", "chill", "storm", "spark", "drift", "shine", "crush",
    "bloom", "shade", "surge", "flare",
)

EMOTION_KEYWORDS = {
    EmotionLabel.LOVE: "amour",
    EmotionLabel.JOY: "gleeful",
    EmotionLabel.FEAR: "dread",
    EmotionLabel.ANGER: "wrath",
    EmotionLabel.SADNESS: "mourn",
    EmotionLabel.NEUTRAL: "plainly",
}


def trigger_word(stem: str) -> str:
    return TRIGGER_PREFIX + stem


def synthetic_corpus(n: int, seed: int, id_prefix: str = "syn") -> Corpus:
    """Generate n labelled English sentences with masks and emotion labels."""
    rng = random.Random(seed)
    labels = list(EmotionLabel)
    sentences = []
    for i in range(n):
        emotion = labels[i % len(labels)]
        tokens = [rng.choice(FILLER_WORDS) for _ in range(rng.randint(4, 9))]
        tokens.insert(rng.randrange(len(tokens) + 1), EMOTION_KEYWORDS[emotion])
        mask = [0] * len(tokens)
        if rng.random() >= NO_TRIGGER_RATE:
            for _ in range(rng.randint(1, MAX_TRIGGERS)):
                pos = rng.randrange(len(tokens) + 1)
                tokens.insert(pos, trigger_word(rng.choice(TRIGGER_STEMS)))
                mask.insert(pos, 1)
        sentences.append(
            AnnotatedSentence(
                id=f"{id_prefix}-{i:04d}",
                tokens=tokens,
                language="en",
                origin=DatasetTag.D_S,
                emotion=emotion,
                trigger_mask=mask,
            )
        )
    corpus = Corpus(sentences=sentences)
    corpus.validate()
    return corpus


def mock_translation_table() -> dict[str, str]:
    """Token mapping for the dictionary backend: a fake target-language lexicon."""
    table = {word: f"xx{word}" for word in FILLER_WORDS}
    for stem in TRIGGER_STEMS:
        table[trigger_word(stem)] = f"xxzq{stem}"
    for keyword in EMOTION_KEYWORDS.values():
        table[keyword] = f"xx{keyword}"
    return table
