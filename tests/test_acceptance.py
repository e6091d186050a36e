"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The training-based criteria are desk-scale but still take a few
minutes in total.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from emoexplain import numerics as nm
from emoexplain.cli import main
from emoexplain.corpus import (
    Record,
    Vocabulary,
    assign_emotion_tags,
    build_vocabulary,
    encode_example,
    generate_synthetic_corpus,
    save_records,
    split_dataset,
)
from emoexplain.fixtures import fixture_lexicon, pool_corpus_spec
from emoexplain.generator import GenerationQuery, generate
from emoexplain.metrics import (
    EvaluationPair,
    bleu,
    div,
    fcr,
    fmr,
    hypothesis_feature_sets,
    rouge,
    usr,
    verify_reference_debiasing,
)
from emoexplain.model import (
    ModelConfig,
    ModelParams,
    config_for_vocab,
    emotion_input_matrix,
    forward,
    fuse,
    total_loss,
)
from emoexplain.trainer import Cell, TrainConfig, run_cells, train

from . import oracles
from .conftest import FIXTURE_LEXICON_PATH, REPO_ROOT, signature_corpus


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _tiny_vocab() -> Vocabulary:
    return Vocabulary(
        id_to_token=(
            "<bos>", "<eos>", "<pad>", "<unk>",
            "<happy>", "<angry>", "<surprise>", "<sad>", "<fear>", "<neutral>",
            "bar", "lobby", "nice", "pool", "quiet", "room", "spa", "view", "walk", "warm",
        ),
        id_to_user=("u000", "u001"),
        id_to_item=("i000", "i001"),
    )


def test_acceptance_1_gradient_correctness():
    start = time.monotonic()
    vocab = _tiny_vocab()
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=8,
                         embed_dim=8, ffn_dim=16, encoder_layers=2, decoder_layers=2,
                         attention_heads=2)
    lex = fixture_lexicon()
    record = Record("u000", "i001", ("lobby",), "nice warm bar", "happy")
    example = encode_example(record, vocab, config.max_len)
    vnrc = emotion_input_matrix(example, vocab, lex)
    params = ModelParams(config, seed=0)

    error = nm.grad_check(
        lambda: total_loss(example, params, config, vnrc)[0],
        params.all(), epsilon=1e-5, n_samples=200, seed=0)
    elapsed = time.monotonic() - start
    assert error < 1e-3, f"max relative error {error:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _passed(1, "gradient correctness")


def test_acceptance_2_memorization():
    start = time.monotonic()
    lex = fixture_lexicon()
    records = signature_corpus(n_users=8, n_items=8, seed=5)
    assert len(records) == 64
    split = split_dataset(records, seed=5)
    vocab = build_vocabulary(list(split.train))
    config = config_for_vocab(vocab, embed_dim=64, ffn_dim=128, c1=1.0, c2=1.0)
    tc = TrainConfig(batch_size=16, learning_rate=1.0, clip=1.0,
                     max_epochs=100, patience=100, seed=5)
    params, history = train(config, tc, split, lex, vocab)

    initial = history.initial_train[2]
    final = history.epochs[-1].train_total
    assert final < 0.1 * initial, f"train L_total {final:.4f} vs 0.1 x {initial:.4f}"

    exact = 0
    for rec in split.train:
        tokens = generate(params, config, vocab, lex,
                          GenerationQuery(rec.user, rec.item, rec.features, rec.emotion))
        exact += " ".join(tokens) == rec.explanation
    ratio = exact / len(split.train)
    elapsed = time.monotonic() - start
    assert ratio >= 0.9, f"reproduced {exact}/{len(split.train)}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _passed(2, f"memorization ({exact}/{len(split.train)} exact, {elapsed:.0f}s)")


def test_acceptance_3_emotion_head_accuracy():
    start = time.monotonic()
    lex = fixture_lexicon()
    spec = pool_corpus_spec(20, 30, 600, (1 / 6,) * 6)
    records = generate_synthetic_corpus(spec, seed=3)
    split = split_dataset(records, seed=3)
    vocab = build_vocabulary(list(split.train))
    config = config_for_vocab(vocab, embed_dim=64, ffn_dim=128)
    tc = TrainConfig(batch_size=16, learning_rate=1.0, clip=1.0,
                     max_epochs=8, patience=8, seed=3)
    params, _ = train(config, tc, split, lex, vocab)

    correct = 0
    with nm.no_grad():
        for rec in assign_emotion_tags(list(split.test), lex):
            example = encode_example(rec, vocab, config.max_len)
            state = forward(example, params, config, emotion_input_matrix(example, vocab, lex))
            correct += int(np.argmax(state.emotion_logits.data[0])) == example.emotion_target
    accuracy = correct / len(split.test)
    elapsed = time.monotonic() - start
    assert accuracy >= 0.9, f"held-out accuracy {accuracy:.3f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    _passed(3, f"emotion head accuracy ({accuracy:.3f}, {elapsed:.0f}s)")


def test_acceptance_4_debiasing_formula_fidelity():
    rows, warnings = verify_reference_debiasing(tolerance=0.05)

    goemotions_expected = {"happy": 10.0, "angry": 13.3, "surprise": 6.3,
                           "sad": 38.9, "fear": 3.3, "neutral": 14.0}
    for category, reported in goemotions_expected.items():
        cell = rows["goemotions"][category]
        assert abs(cell["computed"] - reported) <= 0.05, (category, cell)

    text2emotion_expected = {"angry": -10.2, "surprise": 37.8, "fear": 30.5, "neutral": 25.4}
    for category, reported in text2emotion_expected.items():
        cell = rows["text2emotion"][category]
        assert abs(cell["computed"] - reported) <= 0.05, (category, cell)

    flagged = {w.split("/")[1].split(":")[0] for w in warnings}
    assert flagged == {"happy", "sad"}, warnings
    assert all(w.startswith("text2emotion/") for w in warnings)
    _passed(4, "debiasing formula fidelity (2 documented mismatches flagged)")


def test_acceptance_5_metric_oracle_equivalence():
    words = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "lobby", "pool"]
    rng = np.random.default_rng(17)
    for trial in range(20):
        pairs = []
        for _ in range(int(rng.integers(2, 6))):
            ref = [str(w) for w in rng.choice(words, size=rng.integers(1, 7))]
            hyp = [str(w) for w in rng.choice(words, size=rng.integers(1, 7))]
            feats = [str(f) for f in rng.choice(words, size=rng.integers(1, 4), replace=False)]
            pairs.append(EvaluationPair(tuple(ref), tuple(hyp), tuple(feats)))
        raw = [(list(p.reference), list(p.hypothesis), list(p.features)) for p in pairs]
        hyps = [p.hypothesis for p in pairs]

        assert bleu(pairs, 1) == pytest.approx(oracles.bleu_oracle(raw, 1), abs=1e-9)
        assert bleu(pairs, 4) == pytest.approx(oracles.bleu_oracle(raw, 4), abs=1e-9)
        for n in (1, 2):
            assert rouge(pairs, n) == pytest.approx(oracles.rouge_oracle(raw, n), abs=1e-9)
        assert usr(hyps) == pytest.approx(oracles.usr_oracle([list(h) for h in hyps]), abs=1e-9)
        assert fmr(pairs) == pytest.approx(oracles.fmr_oracle(raw), abs=1e-9)
        if {f for p in pairs for f in p.features}:
            assert fcr(pairs) == pytest.approx(oracles.fcr_oracle(raw), abs=1e-9)
        sets = hypothesis_feature_sets(pairs)
        assert div(sets) == pytest.approx(
            oracles.div_oracle(oracles.feature_sets_oracle(raw)), abs=1e-9)
    _passed(5, "metric oracle equivalence (20 corpora)")


def test_acceptance_6_fusion_invariants():
    vocab = _tiny_vocab()
    lex = fixture_lexicon()
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=8,
                         embed_dim=8, ffn_dim=16, intensity=0.0)
    params = ModelParams(config, seed=2)
    record = Record("u000", "i001", ("lobby",), "nice warm bar", "happy")
    example = encode_example(record, vocab, config.max_len)
    vnrc = emotion_input_matrix(example, vocab, lex)
    other = vnrc.copy()
    other[2:] = (0.0, 0.0, 0.0, 0.0, 0.9, 0.0)

    state_a = forward(example, params, config, vnrc)
    state_b = forward(example, params, config, other)
    assert np.array_equal(state_a.lm_logits.data, state_b.lm_logits.data)
    assert np.array_equal(state_a.emotion_logits.data, state_b.emotion_logits.data)

    from emoexplain.model import encode_context, encode_emotion_from_matrix

    live = replace(config, intensity=1.0)
    hidden_emo = encode_emotion_from_matrix(vnrc, params, live)
    hidden_ctx = encode_context(example, params, live)
    a = 1.75
    lhs = fuse(hidden_emo, hidden_ctx, a).data - fuse(hidden_emo, hidden_ctx, 0.0).data
    rhs = a * (fuse(hidden_emo, hidden_ctx, 1.0).data - fuse(hidden_emo, hidden_ctx, 0.0).data)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    _passed(6, "fusion invariants")


# Acceptance-7's setting: the one results/debias_sweep.json selects, by the rule scripts/debias_sweep.py
# states. At lr 1.0 the outcome depended on how the weight gradient's sum was rounded.
DEBIAS_LEARNING_RATE = 0.3
DEBIAS_MASK_EMOTION_TAG = False
DEBIAS_EPOCHS = 8
DEBIAS_SEEDS = tuple(range(12))
DEBIAS_SWEEP = REPO_ROOT / "results" / "debias_sweep.json"


def _mean_and_wins(on: list[float], off: list[float]) -> tuple[float, float, int]:
    return sum(on) / len(on), sum(off) / len(off), sum(a < b for a, b in zip(on, off))


def _selected_setting() -> dict:
    """The setting results/debias_sweep.json selects, with every run of it."""
    sweep = json.loads(DEBIAS_SWEEP.read_text())
    selected = sweep["selected"]
    assert (selected["lr"], selected["mask_emotion_tag"], selected["max_epochs"], tuple(selected["seeds"])) == (
        DEBIAS_LEARNING_RATE, DEBIAS_MASK_EMOTION_TAG, DEBIAS_EPOCHS, DEBIAS_SEEDS)
    keys = ("lr", "mask_emotion_tag", "max_epochs")
    (setting,) = [s for s in sweep["settings"] if all(s[key] == selected[key] for key in keys)]
    return setting


def test_acceptance_7_setting_is_the_sweeps_selection():
    setting = _selected_setting()
    for order in ("flat", "per_slice"):  # the test's assertions hold under either summation order
        mean_on, mean_off, wins = _mean_and_wins(setting["orders"][order]["l1_on"], setting["orders"][order]["l1_off"])
        assert mean_on < mean_off and 2 * wins > len(DEBIAS_SEEDS), order


def test_acceptance_7_directional_debiasing():
    start = time.monotonic()
    lex = fixture_lexicon()
    skew = (0.6, 0.05, 0.1, 0.1, 0.05, 0.1)
    cells = []
    for seed in DEBIAS_SEEDS:
        split = split_dataset(generate_synthetic_corpus(pool_corpus_spec(12, 20, 240, skew), seed=seed), seed=seed)
        vocab = build_vocabulary(list(split.train))
        tc = TrainConfig(batch_size=16, learning_rate=DEBIAS_LEARNING_RATE, clip=1.0,
                         max_epochs=DEBIAS_EPOCHS, patience=DEBIAS_EPOCHS, seed=seed)
        for c2 in (1.0, 0.0):
            config = config_for_vocab(vocab, embed_dim=64, ffn_dim=128, c2=c2,
                                      mask_emotion_tag=DEBIAS_MASK_EMOTION_TAG)
            cells.append(Cell(config, tc, split, vocab, lex, GenerationQuery.max_tokens))
    l1 = [report.audit.l1_distance for report in run_cells(cells)]
    on, off = l1[0::2], l1[1::2]  # per seed, with the emotion loss and without it

    n = len(DEBIAS_SEEDS)
    mean_on, mean_off, wins = _mean_and_wins(on, off)
    elapsed = time.monotonic() - start
    assert mean_on < mean_off, f"mean L1 with emotion loss {mean_on:.4f} vs without {mean_off:.4f}"
    assert 2 * wins > n, f"emotion loss strictly better in only {wins}/{n} seeds ({on} vs {off})"
    # README quotes results/debias_sweep.json; these runs are the flat-order runs it holds, bit for bit.
    flat = _selected_setting()["orders"]["flat"]
    assert (on, off) == (flat["l1_on"], flat["l1_off"])
    _passed(7, f"directional debiasing (mean L1 {mean_on:.3f} vs {mean_off:.3f}, {wins}/{n} seeds, {elapsed:.0f}s)")


def test_acceptance_8_ablation_harness(tmp_path):
    corpus = tmp_path / "records.jsonl"
    spec = pool_corpus_spec(5, 6, 30, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15), min_words=3, max_words=5)
    save_records(corpus, generate_synthetic_corpus(spec, seed=29))
    prep = tmp_path / "prep"
    assert main(["prepare", "--records", str(corpus), "--lexicon", str(FIXTURE_LEXICON_PATH),
                 "--out", str(prep), "--seed", "29"]) == 0
    out = tmp_path / "ablation"
    assert main(["ablate", "--data", str(prep), "--lexicon", str(FIXTURE_LEXICON_PATH),
                 "--out", str(out), "--seed", "29", "--embed-dim", "16", "--ffn-dim", "32",
                 "--batch-size", "8", "--max-epochs", "1", "--patience", "1",
                 "--max-tokens", "6"]) == 0

    cells = json.loads((out / "ablation.json").read_text())["cells"]
    assert len(cells) == 9
    combos = {(c["loss_setting"], c["intensity"]) for c in cells}
    assert combos == {(s, i) for s in ("full", "disable_emotion", "disable_lm")
                      for i in (0.5, 1.0, 2.0)}
    columns = ("fmr", "fcr", "div", "usr", "bleu1", "bleu4",
               "rouge1_p", "rouge1_r", "rouge1_f", "rouge2_p", "rouge2_r", "rouge2_f")
    for cell in cells:
        for column in columns:
            assert isinstance(cell[column], float), column
    # the harness reproduces the experiment structure, not published magnitudes
    table = (out / "ablation.txt").read_text()
    assert table.count("\n") == 10  # header + 9 cells
    _passed(8, "ablation harness (9 cells populated)")


def test_acceptance_9_determinism(tmp_path):
    corpus = tmp_path / "records.jsonl"
    spec = pool_corpus_spec(5, 6, 30, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15), min_words=3, max_words=5)
    save_records(corpus, generate_synthetic_corpus(spec, seed=31))

    outputs = []
    for round_dir in ("a", "b"):
        base = tmp_path / round_dir
        prep, run, gen, ev, audit = (base / n for n in ("prep", "run", "gen", "eval", "audit"))
        assert main(["prepare", "--records", str(corpus), "--lexicon", str(FIXTURE_LEXICON_PATH),
                     "--out", str(prep), "--seed", "31"]) == 0
        assert main(["train", "--data", str(prep), "--lexicon", str(FIXTURE_LEXICON_PATH),
                     "--out", str(run), "--seed", "31", "--embed-dim", "16", "--ffn-dim", "32",
                     "--batch-size", "8", "--max-epochs", "2", "--patience", "2"]) == 0
        assert main(["generate", "--data", str(prep), "--checkpoint", str(run / "model.emot"),
                     "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(gen),
                     "--seed", "31", "--max-tokens", "6"]) == 0
        assert main(["evaluate", "--data", str(prep), "--generated", str(gen / "generated.jsonl"),
                     "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(ev), "--seed", "31"]) == 0
        assert main(["audit", "--data", str(prep), "--generated", str(gen / "generated.jsonl"),
                     "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(audit), "--seed", "31"]) == 0
        outputs.append({
            "train.jsonl": (prep / "train.jsonl").read_bytes(),
            "vocab.json": (prep / "vocab.json").read_bytes(),
            "stats.json": (prep / "stats.json").read_bytes(),
            "model.emot": (run / "model.emot").read_bytes(),
            "history.json": (run / "history.json").read_bytes(),
            "generated.jsonl": (gen / "generated.jsonl").read_bytes(),
            "report.json": (ev / "report.json").read_bytes(),
            "audit.json": (audit / "audit.json").read_bytes(),
        })

    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between identical reruns"
    _passed(9, "determinism (byte-identical reruns)")
