"""Smoke tests for the committed scripts, so that they cannot rot unnoticed."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

from emoexplain import numerics as nm
from emoexplain.corpus import encode_example
from emoexplain.fixtures import write_fixture_lexicon
from emoexplain.model import ModelConfig, ModelParams, emotion_input_matrix, make_batch, total_loss
from emoexplain.trainer import run_cell

from .conftest import FIXTURE_LEXICON_PATH, REPO_ROOT, SMALL_RECORDS

SCRIPTS = sorted(path.stem for path in (REPO_ROOT / "scripts").glob("*.py"))


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_debias_sweep_runs_one_setting_under_both_orders(tmp_path, monkeypatch):
    sweep = _load_script("debias_sweep")
    per_slice, callers = sweep.per_slice_product, tmp_path / "per_slice_pids"

    def noting_its_process(w, a, g):
        with open(callers, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        per_slice(w, a, g)

    monkeypatch.setattr(sweep, "per_slice_product", noting_its_process)
    setting = sweep.run_setting(0.3, False, 1, seeds=(0,), embed_dim=8, ffn_dim=16)
    assert nm._accumulate_product is sweep._flat_product  # the per-slice patch does not outlive a run
    pids = set(callers.read_text().split())
    assert pids and str(os.getpid()) not in pids  # the patch set in this process ran in the forked workers
    for order, product in (("flat", sweep._flat_product), ("per_slice", per_slice)):
        monkeypatch.setattr(nm, "_accumulate_product", product)
        on, off = (run_cell(cell).audit.l1_distance for cell in sweep.setting_cells(0.3, False, 1, (0,), 8, 16))
        assert (setting["orders"][order]["l1_on"], setting["orders"][order]["l1_off"]) == ([on], [off]), order
    assert set(setting["orders"]) == set(sweep.ORDERS)
    for order in setting["orders"].values():
        assert len(order["l1_on"]) == len(order["l1_off"]) == 1
        assert order["wins"] + order["ties"] + order["losses"] == 1
    assert setting["max_order_gap"] >= 0.0
    assert sweep.select([setting, {**setting, "mask_emotion_tag": True, "worse_order_wins": 1}]) is setting


def test_every_layer_weight_gradient_reaches_the_per_slice_patch_as_stacks(monkeypatch, tiny_vocab, lex):
    """debias_sweep's per-slice order replaces ``nm._accumulate_product``; an op that handed it 2-d row views
    would leave that weight summed flat under both orders, so each one must arrive as (B, L, .) stacks."""
    config = ModelConfig(n_tokens=tiny_vocab.n_tokens, n_users=2, n_items=2, max_len=12, embed_dim=8, ffn_dim=16)
    params = ModelParams(config, seed=0)
    examples = [encode_example(rec, tiny_vocab, config.max_len) for rec in SMALL_RECORDS[:4]]
    batch, vnrc = make_batch([(ex, emotion_input_matrix(ex, tiny_vocab, lex)) for ex in examples])
    assert batch.context_ids.shape[0] == 4
    calls, flat = [], nm._accumulate_product
    monkeypatch.setattr(nm, "_accumulate_product", lambda w, a, g: (calls.append((w.name, a.ndim)), flat(w, a, g)))
    nm.backward(total_loss(batch, params, config, vnrc)[0])
    suffixes = (".attn.wq", ".attn.wk", ".attn.wv", ".attn.wo", ".ffn.w1", ".ffn.w2")
    layer_weights = [p.name for p in params.all() if p.name.endswith(suffixes)]
    assert len(layer_weights) == 6 * (2 * config.encoder_layers + config.decoder_layers)
    assert sorted(name for name, _ in calls if name in layer_weights) == sorted(layer_weights)
    assert all(ndim == 3 for name, ndim in calls if name in layer_weights)


def _result_line(stage3: float, setup: float = 0.5, correct: bool = True, failed: int = 0) -> str:
    """A perfbench result line, as ``perfbench/run.py`` prints it last."""
    metrics = {"setup_s": {"value": setup, "unit": "s"}, "stage3_per_s": {"value": stage3, "unit": "1/s"}}
    return json.dumps({"correct": correct, "attempted": 12, "failed": failed, "metrics": metrics})


def test_bench_pairs_alternates_sides_and_reports_every_run():
    bench = _load_script("bench_pairs")
    canned = {  # per side, one run's (exit code, stdout, stderr) per pair
        "parent": [(0, f"report\n{_result_line(s3)}\n", "") for s3 in (100.0, 101.0, 99.0, 102.0)],
        "change": [(0, f"report\n{_result_line(120.0, setup=0.4)}\n", ""),
                   (1, f"report\n{_result_line(121.0, correct=False, failed=1)}\n", ""),
                   (0, "", "Traceback\nValueError: boom\n"),
                   (0, _result_line(95.0), "")],
    }
    calls = []

    def run(side):
        calls.append(side)
        return bench.parse_run(*canned[side][sum(c == side for c in calls) - 1])

    results = bench.run_pairs(run, 4, log=lambda *args, **kwargs: None)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert results[2]["change"].problem == "exit 0, no result line (Traceback | ValueError: boom)"
    assert results[1]["change"].problem == "exit 1, correct=False, 1 of 12 operations failed"
    lines, problems = bench.report(results, {"stage3_per_s": "higher", "setup_s": "lower"})
    assert problems == 2
    rows = {line.split()[0]: line for line in lines}
    # The incorrect run still counts: the change wins pairs 1, 2 and loses pair 4; pair 3 has no change value.
    assert rows["stage3_per_s"].split()[-2:] == ["2/3", "yes"]
    assert "120 [" in rows["stage3_per_s"] and "100.5 [" in rows["stage3_per_s"]
    assert rows["setup_s"].split()[-2:] == ["1/3", "no"]
    assert "FAILED pair 2 change: exit 1, correct=False, 1 of 12 operations failed" in lines
    assert "FAILED pair 3 change: exit 0, no result line (Traceback | ValueError: boom)" in lines
    assert lines[-1] == "4 pairs, 2 of 8 runs failed or incorrect"


def test_bench_pairs_marks_metrics_worse_than_their_bound():
    bench = _load_script("bench_pairs")
    # stage3_per_s: change median 74 against 100, 26% worse; setup_s: 0.6 against 0.5, 20% worse.
    parent = [(0, _result_line(s3), "") for s3 in (99.0, 100.0, 101.0)]
    change = [(0, _result_line(s3, setup=0.6), "") for s3 in (73.0, 74.0, 75.0)]
    results = [{"parent": bench.parse_run(*p), "change": bench.parse_run(*c)} for p, c in zip(parent, change)]
    better = {"stage3_per_s": "higher", "setup_s": "lower"}
    lines, problems = bench.report(results, better, {"stage3_per_s": 0.25, "setup_s": 0.25})
    assert problems == 0
    rows = {line.split()[0]: line for line in lines}
    assert "past bound change wins" in " ".join(rows["metric"].split())
    assert rows["stage3_per_s"].split()[-3:] == ["yes", "0/3", "no"]
    assert rows["setup_s"].split()[-3:] == ["no", "0/3", "no"]
    assert lines[-2:] == ["past bound: stage3_per_s", "3 pairs, 0 of 6 runs failed or incorrect"]
    lines, _ = bench.report(results, better, {"stage3_per_s": 0.3, "setup_s": 0.1})
    assert lines[-2] == "past bound: setup_s"
    lines, _ = bench.report(results, better)
    assert lines[-2] == "past bound: none"


@pytest.mark.parametrize("name", SCRIPTS)
def test_every_script_imports(name):
    _load_script(name)


# Each experiment script's smallest run, and the report it writes last.
SMALL_RUNS = {
    "run_ablation_grid": (["--records", "30", "--epochs", "1"], "grid/ablation.txt"),
    "run_desk_experiment": (["--records", "36", "--epochs", "1"], "audit/audit.txt"),
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_experiment_script_runs_end_to_end(tmp_path, monkeypatch, name):
    argv, report = SMALL_RUNS[name]
    script = _load_script(name)
    monkeypatch.setattr(sys, "argv", [name, "--out", str(tmp_path / "out"), *argv])
    script.main()
    assert (tmp_path / "out" / report).read_text()


def test_committed_fixture_lexicon_is_what_the_fixture_writes(tmp_path):
    write_fixture_lexicon(tmp_path / "lexicon.tsv")
    assert (tmp_path / "lexicon.tsv").read_bytes() == FIXTURE_LEXICON_PATH.read_bytes()
