"""Built-in word pools and the small lexicon fixture used by tests and demos.

Pool words carry a single dominant score (0.8) for their category so that a
half-emotional explanation always clears the 0.2 classification threshold;
neutral filler words are deliberately absent from the lexicon.
"""

from __future__ import annotations

from pathlib import Path

from .corpus import CorpusSpec
from .lexicon import Lexicon, lexicon_from_triples

POOLS: dict[str, tuple[str, ...]] = {
    "happy": (
        "delightful", "charming", "wonderful", "lovely", "superb", "fantastic",
        "enjoyable", "pleasant", "cozy", "friendly", "cheerful", "gorgeous",
    ),
    "angry": (
        "rude", "shameful", "awful", "unacceptable", "infuriating", "disrespectful",
        "appalling", "horrid", "insulting", "shoddy", "outrageous", "hostile",
    ),
    "surprise": (
        "unexpected", "astonishing", "surprising", "remarkable", "startling",
        "stunning", "sudden", "incredible", "bizarre", "uncanny", "striking", "odd",
    ),
    "sad": (
        "disappointing", "gloomy", "depressing", "miserable", "dreary", "bleak",
        "regretful", "dismal", "unfortunate", "lonely", "joyless", "somber",
    ),
    "fear": (
        "scary", "alarming", "unsafe", "frightening", "creepy", "threatening",
        "dangerous", "sketchy", "eerie", "worrying", "menacing", "grim",
    ),
    "neutral": (
        "the", "hotel", "room", "staff", "breakfast", "lobby", "pool", "bar",
        "location", "view", "place", "service", "area", "street", "floor",
        "building", "desk", "garden", "wifi", "shuttle",
    ),
}

_POOL_SOURCE = {"happy": "joy", "angry": "anger", "surprise": "surprise", "sad": "sadness", "fear": "fear"}

# (word, source category, score); includes entries in categories the loader
# drops, plus "lucky" with intensities in two categories.
FIXTURE_TRIPLES: tuple[tuple[str, str, float], ...] = tuple(
    [(word, _POOL_SOURCE[cat], 0.8) for cat in _POOL_SOURCE for word in POOLS[cat]]
    + [
        ("lucky", "joy", 0.721),
        ("lucky", "surprise", 0.539),
        ("hotel", "trust", 0.4),
        ("breakfast", "anticipation", 0.3),
        ("shuttle", "disgust", 0.1),
    ]
)


def fixture_lexicon() -> Lexicon:
    """The fixture triples assembled in memory (max aggregation, unmapped dropped)."""
    return lexicon_from_triples(FIXTURE_TRIPLES)


def write_fixture_lexicon(path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# word<TAB>category<TAB>score fixture lexicon\n")
        for word, category, score in FIXTURE_TRIPLES:
            fh.write(f"{word}\t{category}\t{score}\n")


def pool_corpus_spec(
    n_users: int, n_items: int, n_records: int, distribution: tuple[float, ...],
    min_words: int = 4, max_words: int = 9,
) -> CorpusSpec:
    return CorpusSpec(
        n_users=n_users,
        n_items=n_items,
        n_records=n_records,
        pools=POOLS,
        distribution=distribution,
        min_words=min_words,
        max_words=max_words,
    )

