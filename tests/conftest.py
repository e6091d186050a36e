from __future__ import annotations

import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from emoexplain import numerics as nm
from emoexplain.corpus import Record, Vocabulary, build_vocabulary, draw_pool_words, split_dataset
from emoexplain.fixtures import POOLS, fixture_lexicon
from emoexplain.lexicon import CATEGORIES

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_LEXICON_PATH = REPO_ROOT / "data" / "fixture_lexicon.tsv"


def signature_corpus(n_users: int = 8, n_items: int = 8, seed: int = 0,
                     min_words: int = 3, max_words: int = 6) -> list[Record]:
    """One fixed explanation per user, repeated over every (user, item) pair.

    Because a user's explanation recurs across items, held-out records stay
    predictable from the training set; memorization then improves validation
    loss instead of fighting it, which is what overfitting tests need.
    """
    rng = np.random.default_rng(seed)
    records = []
    for u in range(n_users):
        cat = CATEGORIES[u % len(CATEGORIES)]
        words, feature = draw_pool_words(rng, POOLS, cat, min_words, max_words)
        records += [Record(user=f"u{u:03d}", item=f"i{i:03d}", features=(feature,),
                           explanation=" ".join(words), emotion=cat) for i in range(n_items)]
    return records


# The numerics functions that put a node on the graph: each ends in one call of ``_result``.
GRAPH_OPS = tuple(name for name, fn in vars(nm).items()
                  if inspect.isfunction(fn) and not name.startswith("_") and "_result" in fn.__code__.co_names)


@pytest.fixture
def op_calls(monkeypatch) -> Counter:
    """Calls of each ``GRAPH_OPS`` function while the test runs, by name; callers look them up
    through the module (``nm.matmul``), so each wrapper sits where they look."""
    calls = Counter()
    for name in GRAPH_OPS:
        def counted(*args, _name=name, _fn=getattr(nm, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nm, name, counted)
    return calls


@pytest.fixture(scope="session")
def lex():
    return fixture_lexicon()


@pytest.fixture(scope="session")
def overfit_setup(lex):
    """A small model trained to memorization on a signature corpus."""
    from emoexplain.model import config_for_vocab
    from emoexplain.trainer import TrainConfig, train

    records = signature_corpus(n_users=6, n_items=4, seed=2, min_words=3, max_words=4)
    split = split_dataset(records, seed=2)
    vocab = build_vocabulary(list(split.train))
    config = config_for_vocab(vocab, embed_dim=32, ffn_dim=64)
    tc = TrainConfig(batch_size=8, max_epochs=60, patience=60, seed=2)
    params, history = train(config, tc, split, lex, vocab)
    return params, config, vocab, split, history


@pytest.fixture(scope="session")
def tiny_vocab() -> Vocabulary:
    """20 token ids (10 specials + 10 words), two users, two items."""
    return Vocabulary(
        id_to_token=(
            "<bos>", "<eos>", "<pad>", "<unk>",
            "<happy>", "<angry>", "<surprise>", "<sad>", "<fear>", "<neutral>",
            "bar", "lobby", "nice", "pool", "quiet", "room", "spa", "view", "walk", "warm",
        ),
        id_to_user=("u000", "u001"),
        id_to_item=("i000", "i001"),
    )


SMALL_RECORDS = [
    Record("u000", "i000", ("lobby",), "delightful lovely lobby", "happy"),
    Record("u000", "i001", ("room",), "awful rude room", "angry"),
    Record("u001", "i000", ("pool",), "startling sudden pool view", "surprise"),
    Record("u001", "i001", ("bar",), "gloomy dreary bar", "sad"),
    Record("u002", "i002", ("desk",), "creepy unsafe desk area", "fear"),
    Record("u002", "i000", ("street",), "the street the floor", "neutral"),
    Record("u000", "i002", ("garden",), "charming cozy garden", "happy"),
    Record("u001", "i002", ("wifi",), "shoddy insulting wifi", "angry"),
    Record("u002", "i001", ("view",), "astonishing bizarre view", "surprise"),
    Record("u003", "i000", ("floor",), "dismal joyless floor", "sad"),
    Record("u003", "i001", ("shuttle",), "alarming sketchy shuttle", "fear"),
    Record("u003", "i002", ("area",), "the area the building", "neutral"),
]


@pytest.fixture
def small_records() -> list[Record]:
    return list(SMALL_RECORDS)
