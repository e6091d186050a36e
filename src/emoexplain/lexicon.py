"""Emotion lexicon: per-word intensity vectors and a bag-of-words explanation classifier.

A lexicon file is UTF-8 text, one ``word<TAB>category<TAB>score`` triple per
line; lines starting with ``#`` (and blank lines) are ignored.  Source
categories are mapped onto the six categories used throughout this package:
joy -> happy, anger -> angry, surprise -> surprise, sadness -> sad,
fear -> fear.  Every other source category (trust, anticipation, disgust, ...)
is dropped at ingestion.  Lookups are total: a word that is absent from the
table yields the neutral fallback vector (0, 0, 0, 0, 0, 1).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

CATEGORIES = ("happy", "angry", "surprise", "sad", "fear", "neutral")
NEUTRAL_INDEX = 5
NEUTRAL_VECTOR = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

# Emotion names as they appear in NRC-style source files, mapped to the
# component index they feed.  Anything not listed here is discarded.
SOURCE_CATEGORY_MAP = {
    "joy": 0,
    "anger": 1,
    "surprise": 2,
    "sadness": 3,
    "fear": 4,
}


def category_index(name: str) -> int:
    """Index of a category name; raises ValueError for unknown names."""
    try:
        return CATEGORIES.index(name)
    except ValueError:
        raise ValueError(f"unknown emotion category {name!r}; expected one of {CATEGORIES}") from None


@dataclass(frozen=True)
class Lexicon:
    """Immutable word -> 6-component intensity table (happy, angry, surprise, sad, fear, neutral)."""

    table: dict[str, tuple[float, ...]] = field(default_factory=dict)


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) over a UTF-8 text file.

    Bytes that are not UTF-8 raise ValueError naming the path and the line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # The stream decodes in chunks, so its error cannot place the byte;
        # decoding the whole file again can.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            before = data[:err.start]
            line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
            raise ValueError(f"{path}: line {line}: not UTF-8 text ({err.reason})") from None
        raise


def lexicon_from_triples(triples: Iterable[tuple[str, str, float]]) -> Lexicon:
    """Assemble (word, source category, score) triples into a Lexicon.

    Duplicate (word, category) entries aggregate by max.  Words whose mapped
    components are all zero (only unmapped source categories) are not stored,
    so lookups for them fall back to neutral.
    """
    raw: dict[str, list[float]] = {}
    for word, category, score in triples:
        idx = SOURCE_CATEGORY_MAP.get(category.strip().lower())
        if idx is None:
            continue
        vec = raw.setdefault(word.strip().lower(), [0.0] * 6)
        vec[idx] = max(vec[idx], score)
    return Lexicon({w: tuple(v) for w, v in raw.items() if any(c > 0.0 for c in v)})


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a tab-separated word/category/score file into a Lexicon (see lexicon_from_triples)."""
    triples = []
    for lineno, line in text_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected word<TAB>category<TAB>score, got {stripped!r}")
        word, category, score_text = parts
        try:
            score = float(score_text)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: score {score_text!r} is not a number") from None
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"{path}: line {lineno}: score {score} outside [0, 1]")
        triples.append((word, category, score))
    return lexicon_from_triples(triples)


def word_emotion(lexicon: Lexicon, word: str) -> tuple[float, ...]:
    """Stored vector for a known word, neutral fallback otherwise. Case-insensitive."""
    return lexicon.table.get(word.lower(), NEUTRAL_VECTOR)


def classify_explanation(lexicon: Lexicon, tokens: list[str], threshold: float = 0.2) -> str:
    """Assign one of the six categories to a tokenized explanation.

    Sums the five non-neutral components token by token, left to right,
    normalizes by token count, and returns neutral when the best mean score
    is below ``threshold`` (strict), otherwise the argmax category (ties
    break toward the lower category index).  An empty token list is neutral.
    """
    if not tokens:
        return CATEGORIES[NEUTRAL_INDEX]
    happy = angry = surprise = sad = fear = 0.0
    for tok in tokens:
        vec = word_emotion(lexicon, tok)
        happy += vec[0]
        angry += vec[1]
        surprise += vec[2]
        sad += vec[3]
        fear += vec[4]
    n = len(tokens)
    best, top = 0, happy / n
    for k, total in enumerate((angry, surprise, sad, fear), start=1):
        mean = total / n
        if mean > top:  # strict: the first maximum is kept
            best, top = k, mean
    if top < threshold:
        return CATEGORIES[NEUTRAL_INDEX]
    return CATEGORIES[best]


def emotion_distribution(categories: list[str]) -> tuple[float, ...]:
    """Empirical probability vector over the six categories."""
    if not categories:
        raise ValueError("cannot compute an emotion distribution from an empty list")
    counts = [0] * 6
    for name in categories:
        counts[category_index(name)] += 1
    total = len(categories)
    return tuple(c / total for c in counts)
