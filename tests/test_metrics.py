from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emoexplain.lexicon import CATEGORIES, Lexicon
from emoexplain.metrics import (
    EvaluationPair,
    bleu,
    build_report,
    debiasing_score,
    div,
    emotion_audit,
    fcr,
    fmr,
    hypothesis_feature_sets,
    report_table,
    rouge,
    usr,
    verify_reference_debiasing,
)

from . import oracles

WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "lobby", "pool"]


def _pair(ref, hyp, features=("lobby",)):
    return EvaluationPair(reference=tuple(ref.split()), hypothesis=tuple(hyp.split()),
                          features=tuple(features))


def _random_pairs(rng, n_pairs, max_len=6):
    pairs = []
    for _ in range(n_pairs):
        ref = rng.choice(WORDS, size=rng.integers(1, max_len + 1))
        hyp = rng.choice(WORDS, size=rng.integers(1, max_len + 1))
        n_feat = int(rng.integers(1, 4))
        feats = rng.choice(WORDS, size=n_feat, replace=False)
        pairs.append(EvaluationPair(
            reference=tuple(str(w) for w in ref),
            hypothesis=tuple(str(w) for w in hyp),
            features=tuple(str(f) for f in feats)))
    return pairs


def _as_oracle(pairs):
    return [(list(p.reference), list(p.hypothesis), list(p.features)) for p in pairs]


# --- per-pair overlap ------------------------------------------------------

# Three words, so that short texts repeat their n-grams.
FEW_WORDS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=8).map(tuple)


@given(hyp=FEW_WORDS, ref=FEW_WORDS, n=st.integers(1, 6))
@example(hyp=(), ref=("a", "b"), n=1)
@example(hyp=("a", "b"), ref=("a", "b", "a"), n=4)
@example(hyp=("a", "a", "a", "a"), ref=("a", "a", "b", "a", "a"), n=2)
def test_overlap_equals_the_three_counter_formula(hyp, ref, n):
    pair = EvaluationPair(reference=ref, hypothesis=hyp, features=())
    want = oracles.clipped_overlap_oracle(hyp, ref, n)
    assert pair.overlap(n) == want
    assert pair.overlap(n) == want  # the memo returns what was counted


def test_counted_overlaps_are_invisible_from_outside():
    counted = _pair("the cat sat on the mat", "the cat sat on a mat")
    for n in range(1, 5):
        counted.overlap(n)
    fresh = _pair("the cat sat on the mat", "the cat sat on a mat")
    assert counted == fresh
    assert hash(counted) == hash(fresh)
    assert repr(counted) == repr(fresh)
    assert {fresh: "found"}[counted] == "found"
    with pytest.raises(TypeError):
        EvaluationPair(reference=(), hypothesis=(), features=(), _overlaps={})


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_report_scores_equal_standalone_calls_on_fresh_pairs(seed):
    rng = np.random.default_rng(seed)
    pairs = _random_pairs(rng, int(rng.integers(1, 8)))
    report = build_report(pairs)

    def fresh():
        return [EvaluationPair(p.reference, p.hypothesis, p.features) for p in pairs]

    assert [report.bleu1, report.bleu4] == [bleu(fresh(), 1), bleu(fresh(), 4)]
    assert [report.rouge1, report.rouge2] == [rouge(fresh(), 1), rouge(fresh(), 2)]


# --- bleu -----------------------------------------------------------------

def test_bleu_identical_corpus_is_100():
    pairs = [_pair("the cat sat", "the cat sat"), _pair("a dog ran", "a dog ran")]
    for n in (1, 4):
        assert bleu(pairs, n) == pytest.approx(100.0, abs=1e-9)


def test_bleu_zero_overlap_is_0():
    assert bleu([_pair("the cat sat", "dog ran mat")], 1) == 0.0


def test_bleu_brevity_penalty_hand_value():
    # clipped unigram precision 2/2, brevity penalty exp(1 - 3/2)
    value = bleu([_pair("the cat sat", "the cat")], 1)
    assert value == pytest.approx(100.0 * math.exp(-0.5), abs=1e-9)


def test_bleu_empty_corpus_errors():
    with pytest.raises(ValueError):
        bleu([], 1)


def test_bleu_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(0)
    for _ in range(20):
        pairs = _random_pairs(rng, int(rng.integers(1, 6)))
        for n in (1, 4):
            assert bleu(pairs, n) == pytest.approx(oracles.bleu_oracle(_as_oracle(pairs), n), abs=1e-9)


@given(st.permutations(list(range(5))))
@settings(max_examples=20)
def test_bleu_permutation_invariant(order):
    rng = np.random.default_rng(1)
    pairs = _random_pairs(rng, 5)
    reordered = [pairs[i] for i in order]
    for n in (1, 4):
        assert bleu(pairs, n) == pytest.approx(bleu(reordered, n), abs=1e-12)


# --- rouge -----------------------------------------------------------------

def test_rouge_identical_pairs_are_100():
    pairs = [_pair("the cat sat", "the cat sat")]
    for n in (1, 2):
        assert rouge(pairs, n) == pytest.approx((100.0, 100.0, 100.0), abs=1e-9)


def test_rouge_disjoint_pairs_are_0():
    assert rouge([_pair("the cat", "dog ran")], 1) == (0.0, 0.0, 0.0)


def test_rouge_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(2)
    for _ in range(20):
        pairs = _random_pairs(rng, int(rng.integers(1, 6)))
        for n in (1, 2):
            got = rouge(pairs, n)
            want = oracles.rouge_oracle(_as_oracle(pairs), n)
            assert got == pytest.approx(want, abs=1e-9)


def test_rouge_empty_corpus_errors():
    with pytest.raises(ValueError):
        rouge([], 1)


# --- usr / fmr / fcr / div ---------------------------------------------------

def test_usr_all_distinct():
    assert usr([("a",), ("b",), ("c",)]) == 1.0


def test_usr_identical():
    assert usr([("a", "b")] * 4 ) == 0.25


def test_usr_counting():
    assert usr([("a", "b"), ("a", "b"), ("c",)]) == pytest.approx(2 / 3)


def test_fmr_all_and_none():
    hit = [_pair("x", "lobby is nice", ("lobby",))]
    miss = [_pair("x", "dog ran", ("lobby",))]
    assert fmr(hit) == 1.0
    assert fmr(miss) == 0.0
    assert fmr(hit + miss) == 0.5


def test_fcr_set_arithmetic():
    pairs = [
        _pair("x", "the lobby shines", ("lobby",)),
        _pair("x", "great bar here", ("pool",)),
        _pair("x", "bar again", ("bar",)),
    ]
    # ground-truth features {lobby, pool, bar}; mentioned: lobby, bar
    assert fcr(pairs) == pytest.approx(2 / 3)


def test_fcr_no_matches_is_zero():
    assert fcr([_pair("x", "dog ran", ("lobby",))]) == 0.0


def test_div_disjoint_sets():
    assert div([{"a"}, {"b"}, {"c"}]) == 0.0


def test_div_identical_sets():
    assert div([{"a", "b", "c"}] * 4) == 3.0


def test_div_enumeration():
    assert div([{"a", "b"}, {"b", "c"}, {"c", "d"}]) == pytest.approx(2 / 3)


def test_div_needs_two_sets():
    with pytest.raises(ValueError):
        div([{"a"}])


def test_div_matches_oracle_on_random_sets():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sets = [set(str(w) for w in rng.choice(WORDS, size=rng.integers(0, 5), replace=False))
                for _ in range(int(rng.integers(2, 8)))]
        assert div(sets) == pytest.approx(oracles.div_oracle(sets), abs=1e-12)


def test_div_exact_over_all_pairs_of_2100_sets():
    rng = np.random.default_rng(4)
    sets = [set(str(w) for w in rng.choice(WORDS, size=rng.integers(0, 4), replace=False))
            for _ in range(2100)]
    assert div(sets) == pytest.approx(oracles.div_oracle(sets), abs=1e-12)


def test_metric_ranges():
    rng = np.random.default_rng(5)
    pairs = _random_pairs(rng, 5)
    report = build_report(pairs)
    assert 0.0 <= report.usr <= 1.0
    assert 0.0 <= report.fmr <= 1.0
    assert 0.0 <= report.fcr <= 1.0
    assert report.div >= 0.0
    for value in (report.bleu1, report.bleu4, *report.rouge1, *report.rouge2):
        assert 0.0 <= value <= 100.0


# --- emotion audit --------------------------------------------------------------

def test_audit_identical_sides_zero_bias(lex):
    texts = ["delightful charming pool", "rude awful room", "the street the floor"]
    audit = emotion_audit(texts, list(texts), lex)
    assert audit.bias_points == (0.0,) * 6
    assert audit.l1_distance == 0.0


def test_audit_all_happy_vs_uniform():
    lex = Lexicon({"joyword": (0.9, 0, 0, 0, 0, 0), "angryword": (0, 0.9, 0, 0, 0, 0),
                   "surpword": (0, 0, 0.9, 0, 0, 0), "sadword": (0, 0, 0, 0.9, 0, 0),
                   "fearword": (0, 0, 0, 0, 0.9, 0)})
    gt = [["joyword"], ["angryword"], ["surpword"], ["sadword"], ["fearword"], ["plain"]]
    gen = [["joyword"]] * 6
    audit = emotion_audit(gt, gen, lex)
    assert audit.gen_distribution == (1.0, 0, 0, 0, 0, 0)
    assert audit.bias_points[0] == pytest.approx(100.0 - 100.0 / 6)


def test_audit_length_mismatch_errors(lex):
    with pytest.raises(ValueError, match="length mismatch"):
        emotion_audit(["a"], ["a", "b"], lex)


def test_audit_skewed_corpus_matches_hand_tally(lex):
    gt = ["delightful charming pool", "delightful lovely bar", "rude awful room", "the street"]
    gen = ["delightful charming pool", "gloomy dreary bar", "rude awful room", "the street"]
    audit = emotion_audit(gt, gen, lex)
    assert audit.gt_distribution == (0.5, 0.25, 0, 0, 0, 0.25)
    assert audit.gen_distribution == (0.25, 0.25, 0, 0.25, 0, 0.25)
    assert audit.l1_distance == pytest.approx(0.5)


# --- debiasing ---------------------------------------------------------------

def test_debiasing_published_examples():
    assert debiasing_score(59.2, 69.5, 63.6) == pytest.approx(10.0, abs=0.05)
    assert debiasing_score(1.8, 0.6, 1.3) == pytest.approx(38.9, abs=0.05)
    assert debiasing_score(5.9, 5.4, 4.8) == pytest.approx(-10.2, abs=0.05)


def test_debiasing_identity_is_zero():
    assert debiasing_score(40.0, 25.0, 25.0) == 0.0
    assert debiasing_score(40.0, 40.0, 40.0) == 0.0


def test_debiasing_zero_ground_truth_errors():
    with pytest.raises(ValueError, match="undefined"):
        debiasing_score(0.0, 10.0, 5.0)


@given(
    gt=st.floats(1.0, 99.0),
    base=st.floats(0.1, 200.0),
    ours=st.floats(0.1, 200.0),
)
@settings(max_examples=200)
def test_debiasing_antisymmetric_for_same_side_pairs(gt, base, ours):
    # when baseline and audited shares sit on the same side of the ground
    # truth, swapping them flips the sign exactly
    if (base - gt) * (ours - gt) <= 0:
        return
    forward = debiasing_score(gt, base, ours)
    backward = debiasing_score(gt, ours, base)
    assert forward == pytest.approx(-backward, abs=1e-9)


def test_reference_debiasing_reproduces_most_rows():
    rows, warnings = verify_reference_debiasing()
    for category in CATEGORIES:
        assert rows["goemotions"][category]["matches"], category
    for category in ("angry", "surprise", "fear", "neutral"):
        assert rows["text2emotion"][category]["matches"], category
    flagged = {w.split("/")[1].split(":")[0] for w in warnings}
    assert flagged == {"happy", "sad"}
    assert all(w.startswith("text2emotion/") for w in warnings)


# --- report ---------------------------------------------------------------------

def test_report_table_layout():
    pairs = [_pair("the cat sat", "the cat sat"), _pair("a dog", "a dog")]
    table = report_table([("demo", build_report(pairs))])
    lines = table.strip().split("\n")
    assert lines[1].split()[1:] == [
        "FMR", "FCR", "DIV", "USR", "BLEU-1", "BLEU-4",
        "R1-P", "R1-R", "R1-F", "R2-P", "R2-R", "R2-F"]
    assert lines[2].startswith("demo")


def test_feature_sets_match_oracle():
    rng = np.random.default_rng(6)
    pairs = _random_pairs(rng, 5)
    got = [set(s) for s in hypothesis_feature_sets(pairs)]
    assert got == oracles.feature_sets_oracle(_as_oracle(pairs))
