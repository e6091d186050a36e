from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoexplain.corpus import (
    BOS,
    EOS,
    PAD,
    SPECIAL_TOKENS,
    UNK,
    CorpusSpec,
    Record,
    Vocabulary,
    build_vocabulary,
    encode_example,
    generate_synthetic_corpus,
    load_records,
    save_records,
    split_dataset,
    tokenize,
)
from emoexplain.fixtures import POOLS, pool_corpus_spec
from emoexplain.lexicon import classify_explanation

from .conftest import signature_corpus


# --- tokenize -------------------------------------------------------------

def test_tokenize_detaches_punctuation():
    assert tokenize("Beautiful lobby and nice bar.") == ["beautiful", "lobby", "and", "nice", "bar", "."]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_lowercases_and_splits():
    assert tokenize("Don't STOP") == ["don", "'", "t", "stop"]


@settings(max_examples=100)
@given(st.text(max_size=40))
def test_tokenize_idempotent_on_joined_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(tokens)) == tokens


# --- records & files -------------------------------------------------------

def test_record_requires_feature():
    with pytest.raises(ValueError, match="at least one feature"):
        Record("u", "i", (), "some text")


def test_record_requires_nonempty_explanation():
    with pytest.raises(ValueError, match="empty after tokenization"):
        Record("u", "i", ("f",), "   ")


def test_load_records_parses_lines(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"user": "u1", "item": "i1", "features": ["lobby"], "explanation": "nice bar"}\n'
        '{"user": "u2", "item": "i2", "features": ["pool"], "explanation": "cold pool", "emotion": "sad"}\n'
        '{"user": "u3", "item": "i1", "features": ["bar"], "explanation": "loud bar"}\n',
        encoding="utf-8",
    )
    records = load_records(path)
    assert len(records) == 3
    assert records[0].user == "u1"
    assert records[1].emotion == "sad"
    assert records[2].features == ("bar",)


def test_load_records_error_carries_line_number(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text(
        '{"user": "u1", "item": "i1", "features": ["lobby"], "explanation": "nice bar"}\n'
        '{"user": "u2", "item": "i2", "explanation": "no features"}\n',
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as err:
        load_records(path)
    assert "line 2" in str(err.value)
    assert "features" in str(err.value)


@pytest.mark.parametrize("bad_line", ["[" * 100_000, "1" * 5000], ids=["deep_nesting", "long_integer"])
def test_load_records_hostile_json_names_path_and_line(tmp_path, bad_line):
    path = tmp_path / "r.jsonl"
    path.write_text('{"user": "u1", "item": "i1", "features": ["lobby"], "explanation": "nice bar"}\n'
                    + bad_line + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}: line 2: invalid JSON"):
        load_records(path)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_records_non_utf8_names_path_and_line(tmp_path, newline):
    path = tmp_path / "r.jsonl"
    good = b'{"user": "u1", "item": "i1", "features": ["lobby"], "explanation": "nice bar"}'
    path.write_bytes(good + newline + good + newline + b'{"user": "\xff"}' + newline)
    with pytest.raises(ValueError, match=f"^{path}: line 3: not UTF-8 text"):
        load_records(path)


def test_load_records_empty_file_errors(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no records"):
        load_records(path)


def test_save_load_round_trip(tmp_path):
    spec = pool_corpus_spec(5, 5, 50, (0.3, 0.1, 0.2, 0.1, 0.1, 0.2))
    records = generate_synthetic_corpus(spec, seed=9)
    path = tmp_path / "corpus.jsonl"
    save_records(path, records)
    loaded = load_records(path)
    assert loaded == records


# --- split ------------------------------------------------------------------

def test_split_sizes_8_1_1(small_records):
    # 12 records -> valid 1, test 1, train 10
    split = split_dataset(small_records, seed=0)
    assert (len(split.train), len(split.valid), len(split.test)) == (10, 1, 1)


def test_split_ten_records_is_8_1_1():
    records = [
        Record(f"u{k % 2}", f"i{k % 5}", ("f",), f"text number {k}", "neutral")
        for k in range(10)
    ]
    split = split_dataset(records, seed=0)
    assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)
    train_users = {r.user for r in split.train}
    train_items = {r.item for r in split.train}
    assert train_users == {"u0", "u1"}
    assert train_items == {f"i{k}" for k in range(5)}


def test_split_of_100_records_is_80_10_10():
    spec = pool_corpus_spec(10, 10, 100, (0.3, 0.1, 0.2, 0.1, 0.1, 0.2))
    records = generate_synthetic_corpus(spec, seed=2)
    split = split_dataset(records, seed=2)
    assert (len(split.train), len(split.valid), len(split.test)) == (80, 10, 10)


def test_split_deterministic(small_records):
    a = split_dataset(small_records, seed=7)
    b = split_dataset(small_records, seed=7)
    assert a == b


def test_split_preserves_multiset(small_records):
    split = split_dataset(small_records, seed=3)
    assert Counter(split.records) == Counter(small_records)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_split_preserves_multiset_for_any_seed(seed):
    from .conftest import SMALL_RECORDS

    split = split_dataset(list(SMALL_RECORDS), seed=seed)
    assert Counter(split.records) == Counter(SMALL_RECORDS)
    assert (len(split.train), len(split.valid), len(split.test)) == (10, 1, 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_split_coverage_every_user_and_item_in_train(seed):
    spec = pool_corpus_spec(10, 10, 100, (0.3, 0.1, 0.2, 0.1, 0.1, 0.2))
    records = generate_synthetic_corpus(spec, seed=seed)
    split = split_dataset(records, seed=seed)
    train_users = {r.user for r in split.train}
    train_items = {r.item for r in split.train}
    for rec in records:
        assert rec.user in train_users
        assert rec.item in train_items


def test_split_too_few_records_errors(small_records):
    with pytest.raises(ValueError, match="at least 10"):
        split_dataset(small_records[:5], seed=0)


def test_split_impossible_coverage_reports_entity():
    records = [
        Record(f"u{k}", f"i{k}", ("f",), f"text number {k}", "neutral") for k in range(10)
    ]
    # 10 records over 10 distinct users: coverage demands all of them in train,
    # but the 8:1:1 ratio only leaves 8 slots.
    with pytest.raises(ValueError, match="cannot cover"):
        split_dataset(records, seed=0)


# --- vocabulary --------------------------------------------------------------

def test_vocabulary_small_corpus_keeps_everything(small_records):
    vocab = build_vocabulary(small_records[:2])
    words = set("delightful lovely lobby awful rude room".split())
    assert set(vocab.id_to_token) == set(SPECIAL_TOKENS) | words
    assert vocab.id_to_token[:10] == SPECIAL_TOKENS


def test_vocabulary_cap_binds():
    records = [
        Record("u", "i", ("f",), " ".join(f"w{k:05d}" for k in range(start, start + 10)))
        for start in range(0, 30000, 10)
    ]
    vocab = build_vocabulary(records, max_tokens=20000)
    assert vocab.n_tokens == 20000 + 10


def test_vocabulary_tie_breaks_lexicographically():
    # "aa" and "ab" tie at frequency 1 with one slot left; "aa" wins
    records = [Record("u", "i", ("bb",), "cc cc bb aa ab")]
    vocab = build_vocabulary(records, max_tokens=3)
    kept = set(vocab.id_to_token[10:])
    assert kept == {"cc", "bb", "aa"}


def test_vocabulary_order_free(small_records):
    forward = build_vocabulary(small_records)
    backward = build_vocabulary(list(reversed(small_records)))
    assert forward == backward


@given(st.permutations(list(range(12))))
@settings(max_examples=25)
def test_vocabulary_order_free_property(order):
    from .conftest import SMALL_RECORDS

    reordered = [SMALL_RECORDS[i] for i in order]
    assert build_vocabulary(reordered) == build_vocabulary(SMALL_RECORDS)


def test_vocabulary_bijection(small_records):
    vocab = build_vocabulary(small_records)
    for token, idx in vocab.token_to_id.items():
        assert vocab.id_to_token[idx] == token


@pytest.mark.parametrize("tables,message", [
    ((("bar", "lobby"), ("u000",), ("i000",)), "must start with the special tokens"),
    (((SPECIAL_TOKENS[1], SPECIAL_TOKENS[0], *SPECIAL_TOKENS[2:]), ("u000",), ("i000",)), "must start with"),
    ((SPECIAL_TOKENS + ("bar", "bar"), ("u000",), ("i000",)), "token 'bar' is listed more than once"),
    ((SPECIAL_TOKENS, ("u000", "u001", "u000"), ("i000",)), "user 'u000' is listed more than once"),
    ((SPECIAL_TOKENS, ("u000",), ("i001", "i001")), "item 'i001' is listed more than once"),
])
def test_vocabulary_rejects_missing_specials_and_repeats(tables, message):
    with pytest.raises(ValueError, match=message):
        Vocabulary(*tables)


def test_replaced_vocabulary_rebuilds_its_maps(tiny_vocab):
    vocab = replace(tiny_vocab, id_to_token=tiny_vocab.id_to_token[:12], id_to_user=("u009",),
                    id_to_item=("i", "j"))
    assert vocab.token_to_id == {token: i for i, token in enumerate(tiny_vocab.id_to_token[:12])}
    assert (vocab.user_to_id, vocab.item_to_id) == ({"u009": 0}, {"i": 0, "j": 1})
    assert replace(vocab, id_to_item=("j", "i")).item_to_id == {"j": 0, "i": 1}  # same length, new ids
    with pytest.raises(ValueError, match="item 'i' is listed more than once"):
        replace(vocab, id_to_item=("i", "j", "i"))


# --- encoding ----------------------------------------------------------------

def test_encode_layout(tiny_vocab):
    rec = Record("u000", "i000", ("lobby",), "nice bar", "happy")
    ex = encode_example(rec, tiny_vocab, max_len=10)
    lobby = tiny_vocab.token_to_id["lobby"]
    nice = tiny_vocab.token_to_id["nice"]
    bar = tiny_vocab.token_to_id["bar"]
    happy_tok = tiny_vocab.token_to_id["<happy>"]
    assert ex.context_ids == (0, 0, lobby, happy_tok, BOS, nice, bar, EOS, PAD, PAD)
    assert ex.prefix_len == 4
    assert ex.tag_position == 3
    assert ex.text_len == 2
    assert ex.emotion_target == 0


def test_encode_unknown_word_maps_to_unk(tiny_vocab):
    rec = Record("u000", "i000", ("lobby",), "zzzq bar", "happy")
    ex = encode_example(rec, tiny_vocab, max_len=10)
    assert ex.context_ids[5] == UNK


def test_encode_truncates_long_explanations(tiny_vocab):
    words = " ".join(["bar"] * 30)
    rec = Record("u000", "i000", ("lobby",), words, "sad")
    ex = encode_example(rec, tiny_vocab, max_len=26)
    # budget = 26 - 4 (prefix) - 2 (<bos>/<eos>) = 20
    assert ex.text_len == 20
    assert ex.context_ids[ex.eos_position] == EOS


def test_encode_errors_when_max_len_too_small(tiny_vocab):
    rec = Record("u000", "i000", ("lobby", "pool", "bar"), "nice", "happy")
    with pytest.raises(ValueError, match="too small"):
        encode_example(rec, tiny_vocab, max_len=8)


def test_encode_requires_tag(tiny_vocab):
    rec = Record("u000", "i000", ("lobby",), "nice bar")
    with pytest.raises(ValueError, match="no emotion tag"):
        encode_example(rec, tiny_vocab, max_len=10)


def test_encode_decode_round_trip(tiny_vocab):
    rec = Record("u000", "i001", ("pool",), "warm quiet pool walk", "happy")
    ex = encode_example(rec, tiny_vocab, max_len=12)
    tokens = [tiny_vocab.id_to_token[i] for i in ex.context_ids[2:]]
    assert tokens[:3] == ["pool", "<happy>", "<bos>"]
    assert tokens[3:7] == ["warm", "quiet", "pool", "walk"]
    assert tokens[7] == "<eos>"


@given(
    words=st.lists(
        st.sampled_from(["bar", "lobby", "nice", "pool", "quiet", "zzzq", "xxxv"]),
        min_size=1, max_size=12),
    emotion=st.sampled_from(["happy", "sad", "neutral"]),
)
@settings(max_examples=60)
def test_encode_decode_round_trip_property(words, emotion):
    from emoexplain.corpus import Vocabulary

    vocab = Vocabulary(
        id_to_token=SPECIAL_TOKENS + ("bar", "lobby", "nice", "pool", "quiet"),
        id_to_user=("u000",),
        id_to_item=("i000",),
    )
    rec = Record("u000", "i000", ("lobby",), " ".join(words), emotion)
    ex = encode_example(rec, vocab, max_len=16)
    budget = 16 - ex.prefix_len - 2
    expected = [w if w in vocab.token_to_id else "<unk>" for w in words[:budget]]
    decoded = [vocab.id_to_token[i] for i in
               ex.context_ids[ex.bos_position + 1: ex.eos_position]]
    assert decoded == expected


# --- synthetic corpus ----------------------------------------------------------

def test_synthetic_all_happy_classifies_happy(lex):
    spec = pool_corpus_spec(4, 4, 16, (1.0, 0, 0, 0, 0, 0))
    for rec in generate_synthetic_corpus(spec, seed=1):
        assert rec.emotion == "happy"
        assert classify_explanation(lex, tokenize(rec.explanation)) == "happy"


def test_synthetic_zero_records():
    spec = pool_corpus_spec(4, 4, 0, (1.0, 0, 0, 0, 0, 0))
    assert generate_synthetic_corpus(spec, seed=1) == []


def test_synthetic_distribution_matches_target(lex):
    target = (0.5, 0.1, 0.1, 0.1, 0.1, 0.1)
    spec = pool_corpus_spec(20, 50, 1000, target)
    records = generate_synthetic_corpus(spec, seed=7)
    tallied = Counter(classify_explanation(lex, tokenize(r.explanation)) for r in records)
    from emoexplain.lexicon import CATEGORIES
    for k, name in enumerate(CATEGORIES):
        assert abs(tallied[name] / 1000 - target[k]) <= 0.05


def test_synthetic_classifier_recovers_tags(lex):
    spec = pool_corpus_spec(6, 6, 36, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15))
    for rec in generate_synthetic_corpus(spec, seed=4):
        assert classify_explanation(lex, tokenize(rec.explanation)) == rec.emotion


def test_synthetic_deterministic():
    spec = pool_corpus_spec(5, 5, 50, (0.3, 0.1, 0.2, 0.1, 0.1, 0.2))
    assert generate_synthetic_corpus(spec, seed=5) == generate_synthetic_corpus(spec, seed=5)


def test_synthetic_feature_appears_in_explanation():
    spec = pool_corpus_spec(5, 5, 50, (0.3, 0.1, 0.2, 0.1, 0.1, 0.2))
    for rec in generate_synthetic_corpus(spec, seed=6):
        assert rec.features[0] in tokenize(rec.explanation)


def test_synthetic_bad_distribution_errors():
    with pytest.raises(ValueError, match="sums to"):
        CorpusSpec(4, 4, 16, POOLS, (0.5, 0.1, 0.1, 0.1, 0.1, 0.2))


def test_synthetic_grid_mode_covers_all_pairs():
    spec = pool_corpus_spec(4, 4, 16, (0.3, 0.1, 0.2, 0.1, 0.1, 0.2))
    records = generate_synthetic_corpus(spec, seed=8)
    assert len({(r.user, r.item) for r in records}) == 16


def _digest(records: list[Record]) -> str:
    rows = [[r.user, r.item, list(r.features), r.explanation, r.emotion] for r in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


SYNTHETIC_SPECS = {
    "bijective": pool_corpus_spec(10, 20, 200, (0.6, 0.05, 0.1, 0.1, 0.05, 0.1)),
    "round_robin": pool_corpus_spec(7, 9, 50, (0.2, 0.2, 0.1, 0.2, 0.1, 0.2), min_words=3, max_words=12),
}


@pytest.mark.parametrize("spec,seed,digest", [
    ("bijective", 0, "6aee509252230135289b84d6d6bb75a03c038defde6e41c2cf29e48d507a4576"),
    ("bijective", 1, "e79dfc6d4ec61d4a6dd9d7b35a40ae688ae4493fed707b02b62b4f5a40206834"),
    ("bijective", 2, "9d7537618049e7ccc600e24d055f4f61f2d70bd453c579c03b56480eaa376d92"),
    ("round_robin", 0, "5fc15ca90527b79a3422d8ebef0172901aefcfd73804e72c673277352acc7164"),
    ("round_robin", 1, "a458383794308cede1e841ac30f6c0b549de3eb569677c3a33e9a3314706e700"),
    ("round_robin", 2, "d3d793731b447f8aad95931b55ef151e531ae83c809b153f9ef6f5dcc93c6f51"),
])
def test_synthetic_corpus_bytes_are_pinned(spec, seed, digest):
    """Each draw and its order on the generator decide these bytes; tests that train on such corpora rest on them."""
    assert _digest(generate_synthetic_corpus(SYNTHETIC_SPECS[spec], seed)) == digest


@pytest.mark.parametrize("kwargs,digest", [
    ({}, "5786d80f5c778961afb47d42d0f9997d3cf18c0129fa7bd4659ef61145339159"),
    ({"n_users": 6, "n_items": 4, "seed": 2, "min_words": 3, "max_words": 4},
     "f02b498baba079b1db4378c9f5d4e83dae0e0c1b038d58f5732c3d2e287702f8"),
])
def test_signature_corpus_bytes_are_pinned(kwargs, digest):
    assert _digest(signature_corpus(**kwargs)) == digest
