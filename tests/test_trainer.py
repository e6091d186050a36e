from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from emoexplain import numerics as nm
from emoexplain.corpus import build_vocabulary, generate_synthetic_corpus, split_dataset
from emoexplain.fixtures import pool_corpus_spec
from emoexplain.model import config_for_vocab
from emoexplain.trainer import (
    ABLATION_INTENSITIES,
    ABLATION_LOSS_SETTINGS,
    Cell,
    TrainConfig,
    _mean_losses,
    _prepare,
    ablation_grid,
    run_cell,
    run_cells,
    train,
)

BALANCED = (0.25, 0.15, 0.15, 0.15, 0.15, 0.15)


@pytest.fixture(scope="module")
def small_split(lex):
    spec = pool_corpus_spec(5, 6, 30, BALANCED, min_words=3, max_words=5)
    records = generate_synthetic_corpus(spec, seed=13)
    return split_dataset(records, seed=13)


@pytest.fixture(scope="module")
def small_vocab(small_split):
    return build_vocabulary(list(small_split.train))


def _config(vocab, **overrides):
    overrides.setdefault("embed_dim", 16)
    overrides.setdefault("ffn_dim", 32)
    return config_for_vocab(vocab, **overrides)


def test_train_is_deterministic(small_split, small_vocab, lex):
    config = _config(small_vocab)
    tc = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=21)
    params_a, hist_a = train(config, tc, small_split, lex, small_vocab)
    params_b, hist_b = train(config, tc, small_split, lex, small_vocab)
    assert hist_a == hist_b
    for pa, pb in zip(params_a.all(), params_b.all()):
        assert np.array_equal(pa.data, pb.data)



def test_trained_weights_hold_no_gradient_memory(small_split, small_vocab, lex):
    config = _config(small_vocab, embed_dim=64, ffn_dim=128)
    tc = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=21)
    tracemalloc.start()
    try:
        params, _ = train(config, tc, small_split, lex, small_vocab)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    weights = sum(p.data.nbytes for p in params.all())
    assert weights <= held < 1.25 * weights  # the optimizer's gradient buffers would double it


def test_each_step_releases_its_graph_before_the_next_forward(monkeypatch, small_split, small_vocab, lex):
    from emoexplain import trainer

    config = _config(small_vocab, embed_dim=64, ffn_dim=128)
    tc = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=21)
    calls = []  # per total_loss call: (records a graph, traced peak since the previous call, bytes it left held)
    inner = trainer.total_loss

    def traced(*args):
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = inner(*args)
        calls.append((nm._GRAD_ENABLED, peak, tracemalloc.get_traced_memory()[0] - held))
        return out

    monkeypatch.setattr(trainer, "total_loss", traced)
    tracemalloc.start()
    try:
        train(config, tc, small_split, lex, small_vocab)
    finally:
        tracemalloc.stop()
    steps = [i for i, call in enumerate(calls) if call[0]]
    assert len(steps) >= 3 and steps[-1] + 1 < len(calls)  # validation runs after the last step
    graph = min(calls[i][2] for i in steps)
    # A step's peak is read when the next call starts; every step after the first would
    # add one graph to it if the previous batch's graph were still held.
    first, later = calls[steps[0] + 1][1], [calls[i + 1][1] for i in steps[1:]]
    assert max(later) < first + 0.5 * graph


@pytest.mark.parametrize("clip", [1e-6, 0.5, 1e6])
def test_history_records_pre_clip_norm_and_clip_rate(monkeypatch, small_split, small_vocab, lex, clip):
    norms = []
    step = nm.sgd_step

    def recorded(*args, **kwargs):
        norms.append(step(*args, **kwargs))
        return norms[-1]

    monkeypatch.setattr(nm, "sgd_step", recorded)
    tc = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=21, clip=clip)
    _, history = train(_config(small_vocab), tc, small_split, lex, small_vocab)
    per_epoch = -(-len(small_split.train) // tc.batch_size)
    assert len(norms) == per_epoch * len(history.epochs)
    for e, stats in enumerate(history.epochs):
        epoch_norms = norms[e * per_epoch:(e + 1) * per_epoch]
        assert stats.grad_norm_mean == sum(epoch_norms) / per_epoch
        assert stats.clip_rate == sum(n > clip for n in epoch_norms) / per_epoch
        assert history.to_dict()["epochs"][e]["clip_rate"] == stats.clip_rate
        assert history.to_dict()["epochs"][e]["grad_norm_mean"] == stats.grad_norm_mean
    if clip != 0.5:
        assert {stats.clip_rate for stats in history.epochs} == {1.0 if clip < 1 else 0.0}


def test_train_records_emotion_loss_even_when_disabled(small_split, small_vocab, lex):
    config = _config(small_vocab, c2=0.0)
    tc = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=3)
    params, hist = train(config, tc, small_split, lex, small_vocab)
    assert all(e.train_emo > 0 for e in hist.epochs)
    assert all(e.train_total == pytest.approx(e.train_lm, abs=1e-12) for e in hist.epochs)


def test_train_with_c2_zero_leaves_emotion_head_untouched(small_split, small_vocab, lex):
    config = _config(small_vocab, c2=0.0)
    tc = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=5)
    params, _ = train(config, tc, small_split, lex, small_vocab)
    fresh = type(params)(config, seed=5)
    assert np.array_equal(params.emotion_head_weight.data, fresh.emotion_head_weight.data)


def test_train_history_not_longer_than_max_epochs(small_split, small_vocab, lex):
    config = _config(small_vocab)
    tc = TrainConfig(batch_size=8, max_epochs=4, patience=1, seed=2)
    _, hist = train(config, tc, small_split, lex, small_vocab)
    assert len(hist.epochs) <= 4
    assert 0 <= hist.best_epoch < len(hist.epochs)


def test_early_stopping_respects_patience(small_split, small_vocab, lex):
    config = _config(small_vocab)
    tc = TrainConfig(batch_size=8, max_epochs=40, patience=2, seed=9)
    _, hist = train(config, tc, small_split, lex, small_vocab)
    if len(hist.epochs) < 40:
        assert len(hist.epochs) - 1 - hist.best_epoch == 2


@pytest.mark.parametrize("valid_totals, best", [((5.0, 3.0, 4.0, 6.0), 1), ((5.0, 4.0, 3.0, 2.0), 3)])
def test_train_returns_the_best_epoch_weights(monkeypatch, small_split, small_vocab, lex, valid_totals, best):
    from emoexplain import trainer

    seen = []  # the weights each validation pass saw, and the losses it reports
    mean_losses = trainer._mean_losses

    def scripted(params, prepared, config, batch_size):
        seen.append([p.data.copy() for p in params.all()])
        if len(seen) == 1:  # the initial training loss
            return mean_losses(params, prepared, config, batch_size)
        return 0.0, 0.0, valid_totals[len(seen) - 2]

    monkeypatch.setattr(trainer, "_mean_losses", scripted)
    tc = TrainConfig(batch_size=8, max_epochs=4, patience=4, seed=5)
    params, hist = train(_config(small_vocab), tc, small_split, lex, small_vocab)
    assert hist.best_epoch == best and len(seen) == 5
    for p, want in zip(params.all(), seen[best + 1], strict=True):
        assert np.array_equal(p.data, want)


@pytest.mark.parametrize("valid_totals, max_epochs, patience, best, snapshots, restores", [
    ((5.0, 4.0, 3.0, 2.0), 4, 4, 3, 3, 0),  # the last allowed epoch is best: its weights are never copied
    ((5.0, 3.0, 4.0, 6.0), 10, 2, 1, 2, 1),  # training stops early, and the best epoch's weights come back
    ((5.0, 3.0, 4.0, 6.0), 4, 4, 1, 2, 1),  # every epoch runs, and an earlier one is best
])
def test_train_copies_weights_only_when_a_later_epoch_can_move_them(
        monkeypatch, small_split, small_vocab, lex, valid_totals, max_epochs, patience, best, snapshots, restores):
    from emoexplain import trainer
    from emoexplain.model import ModelParams

    seen = []
    mean_losses = trainer._mean_losses

    def scripted(params, prepared, config, batch_size):
        seen.append([p.data.copy() for p in params.all()])
        if len(seen) == 1:
            return mean_losses(params, prepared, config, batch_size)
        return 0.0, 0.0, valid_totals[len(seen) - 2]

    calls = {"snapshot": 0, "restore": 0}

    def counted(name):
        method = getattr(ModelParams, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    monkeypatch.setattr(trainer, "_mean_losses", scripted)
    for name in calls:
        monkeypatch.setattr(ModelParams, name, counted(name))
    tc = TrainConfig(batch_size=8, max_epochs=max_epochs, patience=patience, seed=5)
    params, hist = train(_config(small_vocab), tc, small_split, lex, small_vocab)
    assert hist.best_epoch == best
    assert calls == {"snapshot": snapshots, "restore": restores}
    for p, want in zip(params.all(), seen[best + 1], strict=True):
        assert np.array_equal(p.data, want)


def _losses(params, records, config, vocab, lex, batch_size: int = 8) -> tuple[float, float, float]:
    """(L_lm, L_emo, L_total) of ``params`` averaged over ``records``, as ``train`` measures validation."""
    return _mean_losses(params, _prepare(records, vocab, lex, config), config, batch_size)


def test_overfit_run_memorizes_its_training_records(overfit_setup, lex):
    params, config, vocab, split, _ = overfit_setup
    _, _, total = _losses(params, split.train, config, vocab, lex)
    assert total < 0.05


def test_returned_weights_score_the_best_epochs_validation_losses(small_split, small_vocab, lex):
    config = _config(small_vocab)
    tc = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=7)
    params, history = train(config, tc, small_split, lex, small_vocab)
    snapshot = params.snapshot()
    best = history.epochs[history.best_epoch]
    a = _losses(params, small_split.valid, config, small_vocab, lex, tc.batch_size)
    assert a == (best.valid_lm, best.valid_emo, best.valid_total)
    assert a == _losses(params, small_split.valid, config, small_vocab, lex, tc.batch_size)
    assert a[2] == pytest.approx(config.c1 * a[0] + config.c2 * a[1], abs=1e-12)
    for p, before in zip(params.all(), snapshot):
        assert np.array_equal(p.data, before)


def test_train_rejects_an_empty_validation_split(small_split, small_vocab, lex):
    tc = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=0)
    with pytest.raises(ValueError, match="must be non-empty"):
        train(_config(small_vocab), tc, replace(small_split, valid=()), lex, small_vocab)


def test_train_rejects_nonpositive_settings(small_vocab):
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        _config(small_vocab, c2=-0.5)


def test_diverging_run_names_the_batch(small_split, small_vocab, lex):
    # an absurd learning rate overflows the weights within a couple of steps
    config = _config(small_vocab)
    tc = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=1, learning_rate=1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"epoch \d+, batch \d+"):
            train(config, tc, small_split, lex, small_vocab)


def test_ablation_grid_shape_and_determinism(small_split, small_vocab, lex):
    config = _config(small_vocab)
    tc = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=31)
    rows = ablation_grid(config, tc, small_split, lex, small_vocab, max_tokens=6)
    assert len(rows) == 9
    combos = {(r["loss_setting"], r["intensity"]) for r in rows}
    assert combos == {(s, i) for s in ABLATION_LOSS_SETTINGS for i in ABLATION_INTENSITIES}
    for row in rows:
        for column in ("fmr", "fcr", "div", "usr", "bleu1", "bleu4",
                       "rouge1_p", "rouge1_r", "rouge1_f", "rouge2_p", "rouge2_r", "rouge2_f"):
            assert column in row

    # the (full, intensity=1) cell must match a standalone run with the same seeds
    full_cell = next(r for r in rows if r["loss_setting"] == "full" and r["intensity"] == 1.0)
    params, _ = train(replace(config, intensity=1.0), tc, small_split, lex, small_vocab)
    from emoexplain.generator import GenerationQuery, generate
    from emoexplain.metrics import EvaluationPair, build_report, report_to_dict
    from emoexplain.corpus import assign_emotion_tags

    tagged = assign_emotion_tags(list(small_split.test), lex)
    pairs = [
        EvaluationPair.from_texts(
            rec.explanation,
            " ".join(generate(params, replace(config, intensity=1.0), small_vocab, lex,
                              GenerationQuery(rec.user, rec.item, rec.features, rec.emotion,
                                              max_tokens=6))),
            rec.features)
        for rec in tagged
    ]
    standalone = report_to_dict(build_report(pairs, lex))
    for key, value in standalone.items():
        if key in ("header", "emotion_audit"):
            continue
        assert full_cell[key] == value, key


def test_ablation_disable_settings_zero_the_right_weight(small_split, small_vocab, lex):
    config = _config(small_vocab, c1=0.7, c2=0.3)
    tc = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=31)
    rows = ablation_grid(config, tc, small_split, lex, small_vocab, max_tokens=4)
    by_setting = {(r["loss_setting"], r["intensity"]): r for r in rows}
    assert by_setting[("disable_emotion", 1.0)]["c2"] == 0.0
    assert by_setting[("disable_emotion", 1.0)]["c1"] == 0.7
    assert by_setting[("disable_lm", 1.0)]["c1"] == 0.0
    assert by_setting[("disable_lm", 1.0)]["c2"] == 0.3


def test_pool_reports_equal_in_process_reports(lex):
    spec = pool_corpus_spec(12, 10, 120, BALANCED, min_words=3, max_words=5)
    split = split_dataset(generate_synthetic_corpus(spec, seed=13), seed=13)
    vocab = build_vocabulary(list(split.train))
    tc = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=31)
    # Without the LM loss one epoch leaves each cell's text its own, where with it all three decode alike.
    cells = [Cell(_config(vocab, embed_dim=8, ffn_dim=16, c1=0.0, c2=c2, intensity=intensity), tc, split, vocab,
                  lex, 6) for c2, intensity in ((1.0, 0.5), (0.0, 1.0), (1.0, 2.0))]
    reports = run_cells(cells)
    assert reports == [run_cell(cell) for cell in cells]
    assert len({report.audit.l1_distance for report in reports}) == len(cells)  # so input order shows


def test_train_with_more_items_than_tokens(lex):
    spec = pool_corpus_spec(4, 100, 300, BALANCED, min_words=3, max_words=5)
    split = split_dataset(generate_synthetic_corpus(spec, seed=5), seed=5)
    vocab = build_vocabulary(list(split.train))
    assert max(vocab.item_to_id.values()) >= vocab.n_tokens
    config = _config(vocab)
    tc = TrainConfig(batch_size=8, max_epochs=1, patience=1, seed=5)
    params, history = train(config, tc, split, lex, vocab)
    assert np.isfinite(history.epochs[0].valid_total)
    assert np.all(np.isfinite(_losses(params, split.test, config, vocab, lex)))
