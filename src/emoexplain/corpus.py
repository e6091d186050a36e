"""Explanation corpus handling: records, splits, vocabulary, encoding, synthetic data.

Record files are UTF-8 JSON lines, one object per line with keys "user",
"item", "features" (non-empty array of strings), "explanation" (string) and an
optional "emotion" (one of the six category names).
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .lexicon import CATEGORIES, Lexicon, category_index, classify_explanation, text_lines

SPECIAL_TOKENS = (
    "<bos>", "<eos>", "<pad>", "<unk>",
    "<happy>", "<angry>", "<surprise>", "<sad>", "<fear>", "<neutral>",
)
BOS, EOS, PAD, UNK = 0, 1, 2, 3
EMOTION_TOKEN_BASE = 4  # <happy> .. <neutral> follow category index order
MAX_VOCAB_TOKENS = 20_000
DEFAULT_MAX_LEN = 32

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


@dataclass(frozen=True)
class Record:
    """One (user, item, features, explanation) training example, optionally emotion-tagged."""

    user: str
    item: str
    features: tuple[str, ...]
    explanation: str
    emotion: str | None = None

    def __post_init__(self):
        if not self.features:
            raise ValueError(f"record ({self.user}, {self.item}): needs at least one feature")
        if not tokenize(self.explanation):
            raise ValueError(f"record ({self.user}, {self.item}): explanation empty after tokenization")
        if self.emotion is not None and self.emotion not in CATEGORIES:
            raise ValueError(f"record ({self.user}, {self.item}): bad emotion tag {self.emotion!r}")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[Record, ...]
    valid: tuple[Record, ...]
    test: tuple[Record, ...]

    @property
    def records(self) -> tuple[Record, ...]:
        return self.train + self.valid + self.test


@dataclass(frozen=True)
class Vocabulary:
    """Dense token/user/item id tables, each without repeats. Ids 0..9 are the special tokens, in order.

    The name-to-id maps are derived from the tables, so ``dataclasses.replace`` rebuilds them.
    """

    id_to_token: tuple[str, ...]
    id_to_user: tuple[str, ...]
    id_to_item: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    user_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    item_to_id: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.id_to_token[:len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError(f"the token table must start with the special tokens {' '.join(SPECIAL_TOKENS)}")
        for kind in ("token", "user", "item"):
            table = getattr(self, f"id_to_{kind}")
            ids = {name: i for i, name in enumerate(table)}
            if len(ids) != len(table):
                repeated = next(name for name, count in Counter(table).items() if count > 1)
                raise ValueError(f"{kind} {repeated!r} is listed more than once")
            object.__setattr__(self, f"{kind}_to_id", ids)

    @property
    def n_tokens(self) -> int:
        return len(self.id_to_token)

    def token_id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def emotion_token_id(self, tag: str) -> int:
        return EMOTION_TOKEN_BASE + category_index(tag)


@dataclass(frozen=True)
class EncodedExample:
    """Id layout [u, i, f_1..f_F, f_emo, <bos>, e_1..e_E, <eos>, <pad>...].

    Positions 0 and 1 index the user and item tables; everything after indexes
    the token table.  ``prefix_len`` counts positions before <bos>, so the
    emotion-tag token sits at prefix_len - 1 == 2 + F.
    """

    context_ids: tuple[int, ...]
    emotion_target: int
    prefix_len: int
    text_len: int

    @property
    def bos_position(self) -> int:
        return self.prefix_len

    @property
    def eos_position(self) -> int:
        return self.prefix_len + 1 + self.text_len

    @property
    def tag_position(self) -> int:
        return self.prefix_len - 1


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word tokens, detaching punctuation as its own tokens."""
    return _TOKEN_RE.findall(text.lower())


def load_records(path: str | Path) -> list[Record]:
    """Read a JSON-lines record file; errors carry the offending line number."""
    records = []
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as err:  # also over-long integers and deep nesting
            raise ValueError(f"{path}: line {lineno}: invalid JSON ({getattr(err, 'msg', err)})") from None
        try:
            records.append(_record_from_obj(obj))
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None
    if not records:
        raise ValueError(f"{path}: no records found")
    return records


def _record_from_obj(obj) -> Record:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    for key in ("user", "item", "features", "explanation"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    features = obj["features"]
    if not isinstance(features, list) or not all(isinstance(f, str) for f in features):
        raise ValueError('"features" must be an array of strings')
    return Record(
        user=str(obj["user"]),
        item=str(obj["item"]),
        features=tuple(features),
        explanation=str(obj["explanation"]),
        emotion=obj.get("emotion"),
    )


def save_records(path: str | Path, records: list[Record]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "user": rec.user,
                "item": rec.item,
                "features": list(rec.features),
                "explanation": rec.explanation,
            }
            if rec.emotion is not None:
                obj["emotion"] = rec.emotion
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def assign_emotion_tags(records: list[Record], lex: Lexicon) -> list[Record]:
    """Fill missing emotion tags via the lexicon classifier at its default threshold; existing tags are kept."""
    return [
        rec if rec.emotion is not None
        else replace(rec, emotion=classify_explanation(lex, tokenize(rec.explanation)))
        for rec in records
    ]


def split_dataset(records: list[Record], seed: int) -> DatasetSplit:
    """8:1:1 split (train takes the rounding remainder) with user/item coverage.

    One record per user and per still-uncovered item is forced into train
    before the remainder is assigned at random; the split is deterministic for
    a fixed seed and preserves the input multiset.
    """
    n = len(records)
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    n_valid = n // 10
    n_test = n // 10
    n_train = n - n_valid - n_test

    rng = np.random.default_rng(seed)
    by_user: dict[str, list[int]] = {}
    by_item: dict[str, list[int]] = {}
    for idx, rec in enumerate(records):
        by_user.setdefault(rec.user, []).append(idx)
        by_item.setdefault(rec.item, []).append(idx)

    forced: set[int] = set()
    for idxs in (*by_user.values(), *by_item.values()):  # users first: the RNG draws keep their order
        if not forced.intersection(idxs):
            forced.add(int(rng.choice(idxs)))
    if len(forced) > n_train:
        worst = max(by_user, key=lambda u: -len(by_user[u]))
        raise ValueError(
            f"cannot cover every user and item within the train split: "
            f"{len(forced)} forced records exceed train capacity {n_train} "
            f"(e.g. user {worst!r} has only {len(by_user[worst])} record(s))"
        )

    rest = [i for i in range(n) if i not in forced]
    order = rng.permutation(len(rest))
    shuffled = [rest[i] for i in order]
    valid_idx = sorted(shuffled[:n_valid])
    test_idx = sorted(shuffled[n_valid:n_valid + n_test])
    train_idx = sorted(set(range(n)) - set(valid_idx) - set(test_idx))
    return DatasetSplit(
        train=tuple(records[i] for i in train_idx),
        valid=tuple(records[i] for i in valid_idx),
        test=tuple(records[i] for i in test_idx),
    )


def build_vocabulary(train_records: list[Record], max_tokens: int = MAX_VOCAB_TOKENS) -> Vocabulary:
    """Top-``max_tokens`` tokens by train-set frequency (explanations + features).

    Ties at the cutoff break lexicographically, so the result is independent
    of record order.  User and item tables are the sorted distinct ids.
    """
    if not train_records:
        raise ValueError("cannot build a vocabulary from an empty train set")
    counts: Counter[str] = Counter()
    for rec in train_records:
        counts.update(tokenize(rec.explanation))
        for feature in rec.features:
            counts.update(tokenize(feature))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[:max_tokens]]
    users = tuple(sorted({rec.user for rec in train_records}))
    items = tuple(sorted({rec.item for rec in train_records}))
    return Vocabulary(
        id_to_token=SPECIAL_TOKENS + tuple(kept),
        id_to_user=users,
        id_to_item=items,
    )


def prefix_ids(vocab: Vocabulary, user: str, item: str, features, emotion: str) -> list[int]:
    """The ids [user, item, feature tokens, emotion tag] that precede <bos>, for training and decoding alike.

    Raises ValueError for a user, item or emotion the vocabulary does not know.
    """
    if user not in vocab.user_to_id:
        raise ValueError(f"unknown user {user!r}")
    if item not in vocab.item_to_id:
        raise ValueError(f"unknown item {item!r}")
    return [
        vocab.user_to_id[user],
        vocab.item_to_id[item],
        *(vocab.token_id(tok) for feat in features for tok in tokenize(feat)),
        vocab.emotion_token_id(emotion),
    ]


def encode_example(record: Record, vocab: Vocabulary, max_len: int = DEFAULT_MAX_LEN) -> EncodedExample:
    """Lay a tagged record out as context ids, truncating long explanations.

    Out-of-vocabulary words map to <unk>; the text budget is whatever remains
    of ``max_len`` after the prefix, <bos> and <eos>.
    """
    if record.emotion is None:
        raise ValueError(f"record ({record.user}, {record.item}) has no emotion tag; classify it first")
    prefix = prefix_ids(vocab, record.user, record.item, record.features, record.emotion)
    budget = max_len - len(prefix) - 2
    if budget < 1:
        raise ValueError(
            f"max_len {max_len} too small: prefix of {len(prefix)} leaves no room "
            f"for <bos>, one explanation token and <eos>"
        )
    words = tokenize(record.explanation)[:budget]
    ids = [*prefix, BOS, *(vocab.token_id(w) for w in words), EOS]
    ids.extend([PAD] * (max_len - len(ids)))
    return EncodedExample(
        context_ids=tuple(ids),
        emotion_target=category_index(record.emotion),
        prefix_len=len(prefix),
        text_len=len(words),
    )


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusSpec:
    """Knobs for generate_synthetic_corpus.

    ``pools`` maps each category name to its word pool; non-neutral pool words
    are expected to carry a dominant lexicon score for their category, while
    the neutral pool should be lexicon-silent.  ``distribution`` gives the
    target probability of each category in CATEGORIES order.
    """

    n_users: int
    n_items: int
    n_records: int
    pools: dict[str, tuple[str, ...]]
    distribution: tuple[float, ...]
    min_words: int = 4
    max_words: int = 9

    def __post_init__(self):
        if len(self.distribution) != 6:
            raise ValueError("distribution needs exactly 6 probabilities")
        if abs(sum(self.distribution) - 1.0) > 1e-9:
            raise ValueError(f"distribution sums to {sum(self.distribution)!r}, not 1")
        if any(p < 0 for p in self.distribution):
            raise ValueError("distribution probabilities must be non-negative")
        missing = [c for c in CATEGORIES if c not in self.pools]
        if missing:
            raise ValueError(f"pools missing categories: {missing}")


def _category_counts(spec: CorpusSpec) -> list[int]:
    # Largest-remainder allocation: the empirical distribution matches the
    # target up to rounding, independent of the seed.
    exact = [spec.n_records * p for p in spec.distribution]
    counts = [int(x) for x in exact]
    remainders = sorted(range(6), key=lambda k: (-(exact[k] - counts[k]), k))
    for k in remainders[: spec.n_records - sum(counts)]:
        counts[k] += 1
    return counts


def generate_synthetic_corpus(spec: CorpusSpec, seed: int) -> list[Record]:
    """Deterministic desk-scale corpus whose tags the lexicon classifier recovers.

    Non-neutral explanations draw at least half their words from the target
    category's pool (the rest are neutral filler), so the mean category score
    stays above the 0.2 classification threshold.  When n_records equals
    n_users * n_items every (user, item) pair occurs exactly once; otherwise
    users and items are covered round-robin.
    """
    if spec.n_records == 0:
        return []
    rng = np.random.default_rng(seed)

    counts = _category_counts(spec)
    categories = [CATEGORIES[k] for k in range(6) for _ in range(counts[k])]
    rng.shuffle(categories)

    if spec.n_records == spec.n_users * spec.n_items:
        pairs = [(u, i) for u in range(spec.n_users) for i in range(spec.n_items)]
        order = rng.permutation(len(pairs))
        pairs = [pairs[i] for i in order]
    else:
        users = [k % spec.n_users for k in range(spec.n_records)]
        items = [k % spec.n_items for k in range(spec.n_records)]
        rng.shuffle(users)
        rng.shuffle(items)
        pairs = list(zip(users, items))

    records = []
    for (u, i), cat in zip(pairs, categories):
        words, feature = draw_pool_words(rng, spec.pools, cat, spec.min_words, spec.max_words)
        records.append(Record(
            user=f"u{u:03d}",
            item=f"i{i:03d}",
            features=(feature,),
            explanation=" ".join(words),
            emotion=cat,
        ))
    return records


def draw_pool_words(rng, pools: dict, category: str, min_words: int, max_words: int) -> tuple[list[str], str]:
    """One explanation's words and its feature word; half the words, rounded up, come from ``category``'s pool."""
    neutral_pool = pools["neutral"]
    length = int(rng.integers(min_words, max_words + 1))
    if category == "neutral":
        words = [str(w) for w in rng.choice(neutral_pool, size=length)]
    else:
        n_emo = (length + 1) // 2
        words = [str(w) for w in rng.choice(pools[category], size=n_emo)]
        words += [str(w) for w in rng.choice(neutral_pool, size=length - n_emo)]
        rng.shuffle(words)
    # Features are aspect words, so prefer a neutral word from the text.
    return words, next((w for w in words if w in neutral_pool), words[0])
