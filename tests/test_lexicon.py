from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from emoexplain.lexicon import (
    CATEGORIES,
    Lexicon,
    NEUTRAL_VECTOR,
    classify_explanation,
    emotion_distribution,
    load_lexicon,
    word_emotion,
)

from . import oracles
from .conftest import FIXTURE_LEXICON_PATH


def test_category_order_fixed():
    assert CATEGORIES == ("happy", "angry", "surprise", "sad", "fear", "neutral")


def test_lucky_vector_from_fixture(lex):
    assert word_emotion(lex, "lucky") == (0.721, 0, 0.539, 0, 0, 0)


def test_unknown_word_is_neutral_fallback(lex):
    assert word_emotion(lex, "zzzq") == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    assert NEUTRAL_VECTOR == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_lookup_is_case_insensitive(lex):
    assert word_emotion(lex, "Lucky") == word_emotion(lex, "lucky")
    assert word_emotion(lex, "LUCKY") == word_emotion(lex, "lucky")


def test_fixture_file_matches_in_memory_lexicon(lex):
    loaded = load_lexicon(FIXTURE_LEXICON_PATH)
    assert loaded.table == lex.table


def test_load_maps_source_categories(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "# comment line\n"
        "lucky\tjoy\t0.721\n"
        "lucky\tsurprise\t0.539\n"
        "dull\ttrust\t0.9\n"
        "grim\tfear\t0.5\n"
        "grim\tsadness\t0.25\n",
        encoding="utf-8",
    )
    lex = load_lexicon(path)
    assert word_emotion(lex, "lucky") == (0.721, 0, 0.539, 0, 0, 0)
    assert word_emotion(lex, "grim") == (0, 0, 0, 0.25, 0.5, 0)
    # trust-only entries are dropped entirely: lookup falls back to neutral
    assert word_emotion(lex, "dull") == NEUTRAL_VECTOR


def test_load_duplicate_entries_aggregate_by_max(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("w\tjoy\t0.2\nw\tjoy\t0.5\nw\tjoy\t0.3\n", encoding="utf-8")
    assert word_emotion(load_lexicon(path), "w")[0] == 0.5


def test_load_empty_file_gives_total_neutral_lookups(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    lex = load_lexicon(path)
    assert lex.table == {}
    assert word_emotion(lex, "anything") == NEUTRAL_VECTOR


@pytest.mark.parametrize("bad_line, message", [
    ("word only line", "expected word<TAB>category<TAB>score"),
    ("w\tjoy\tnot-a-number", "is not a number"),
    ("w\tjoy\t1.5", "outside [0, 1]"),
])
def test_load_errors_carry_line_numbers(tmp_path, bad_line, message):
    path = tmp_path / "lex.tsv"
    path.write_text(f"ok\tjoy\t0.5\n{bad_line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_lexicon(path)
    assert "line 2" in str(err.value)
    assert message in str(err.value)


def test_load_non_utf8_names_path_and_line(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_bytes(b"ok\tjoy\t0.5\n# comment\ncaf\xe9\tjoy\t0.5\n")
    with pytest.raises(ValueError, match=f"^{path}: line 3: not UTF-8 text"):
        load_lexicon(path)


def test_classify_single_lucky_is_happy(lex):
    # mean happy score 0.721 >= 0.2
    assert classify_explanation(lex, ["lucky"]) == "happy"


def test_classify_all_oov_is_neutral(lex):
    assert classify_explanation(lex, ["qqq", "zzz", "xxx"]) == "neutral"


def test_classify_empty_is_neutral(lex):
    assert classify_explanation(lex, []) == "neutral"


def test_classify_threshold_is_strict():
    lex = Lexicon({"meh": (0.19, 0, 0, 0, 0, 0), "ping": (0.2, 0, 0, 0, 0, 0)})
    assert classify_explanation(lex, ["meh"]) == "neutral"
    assert classify_explanation(lex, ["ping"]) == "happy"


def test_classify_tie_breaks_by_category_index():
    lex = Lexicon({"both": (0.5, 0.5, 0, 0, 0, 0)})
    assert classify_explanation(lex, ["both"]) == "happy"


def test_classify_normalizes_by_token_count(lex):
    # one lucky among many fillers dilutes the mean below 0.2
    tokens = ["lucky"] + ["zzz"] * 9
    assert classify_explanation(lex, tokens) == "neutral"


# Few distinct scores, so categories often tie and means often land on a threshold.
SCORES = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
# Six components as load_lexicon stores them, so the neutral one is 0.
VECTORS = st.tuples(*[SCORES] * 5).map(lambda v: (*v, 0.0))
# a 1-ulp gap: the sums differ, and their means over three tokens are equal
ULP_APART = (0.1958762886597938, 0.19587628865979384)


@given(table=st.dictionaries(st.sampled_from(["joy", "grim", "tie", "flat"]), VECTORS),
       tokens=st.lists(st.sampled_from(["joy", "JOY", "Grim", "tie", "flat", "zzz", "The"]), max_size=10),
       threshold=st.sampled_from([0.0, 0.1, 0.2, 0.25]) | st.floats(0.0, 1.0))
@example(table={"tie": (0.5, 0.5, 0.0, 0.0, 0.0, 0.0)}, tokens=["tie"], threshold=0.2)
@example(table={"tie": (0.0, 0.0, 0.3, 0.3, 0.3, 0.0)}, tokens=["TIE", "zzz"], threshold=0.15)
@example(table={"flat": (0.25, 0.0, 0.0, 0.0, 0.0, 0.0)}, tokens=["flat"], threshold=0.25)
@example(table={"joy": (0.2, 0.0, 0.0, 0.0, 0.0, 0.0)}, tokens=["joy", "JOY"], threshold=0.2)
def test_classify_equals_the_five_way_loop(table, tokens, threshold):
    lex = Lexicon(table)
    assert classify_explanation(lex, tokens, threshold) == oracles.classify_oracle(lex, tokens, threshold)


def test_classify_ties_on_means_not_on_sums():
    lex = Lexicon({"tie": (*ULP_APART, 0.0, 0.0, 0.0, 0.0)})
    assert ULP_APART[0] < ULP_APART[1] and ULP_APART[0] / 3 == ULP_APART[1] / 3
    assert classify_explanation(lex, ["tie", "zzz", "zzz"], threshold=0.05) == "happy"


@given(st.permutations(["lucky", "grim", "zzz", "the", "delightful", "rude"]))
def test_classify_is_permutation_invariant(order):
    lex = Lexicon({
        "lucky": (0.721, 0, 0.539, 0, 0, 0),
        "grim": (0, 0, 0, 0.25, 0.5, 0),
        "delightful": (0.8, 0, 0, 0, 0, 0),
        "rude": (0, 0.8, 0, 0, 0, 0),
    })
    assert classify_explanation(lex, list(order)) == classify_explanation(
        lex, ["lucky", "grim", "zzz", "the", "delightful", "rude"])


def test_distribution_counts():
    dist = emotion_distribution(["happy", "happy", "sad", "neutral"])
    assert dist == (0.5, 0, 0, 0.25, 0, 0.25)


def test_distribution_single_element_is_one_hot():
    assert emotion_distribution(["fear"]) == (0, 0, 0, 0, 1.0, 0)


def test_distribution_empty_errors():
    with pytest.raises(ValueError):
        emotion_distribution([])


@given(st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=200))
def test_distribution_is_probability_vector(categories):
    dist = emotion_distribution(categories)
    assert all(0.0 <= p <= 1.0 for p in dist)
    assert math.isclose(sum(dist), 1.0, abs_tol=1e-12)


def test_distribution_sampling_tally():
    import numpy as np

    rng = np.random.default_rng(42)
    target = (0.5, 0.1, 0.1, 0.1, 0.1, 0.1)
    draws = rng.choice(6, size=1000, p=target)
    dist = emotion_distribution([CATEGORIES[i] for i in draws])
    assert all(abs(d - t) <= 0.05 for d, t in zip(dist, target))
