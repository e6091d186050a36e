"""Smoke tests for the committed scripts, so that they cannot rot unnoticed."""

from __future__ import annotations

import importlib.util
import sys

import pytest

from emoexplain import numerics as nm
from emoexplain.fixtures import write_fixture_lexicon

from .conftest import FIXTURE_LEXICON_PATH, REPO_ROOT

SCRIPTS = sorted(path.stem for path in (REPO_ROOT / "scripts").glob("*.py"))


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_debias_sweep_runs_one_setting_under_both_orders():
    sweep = _load_script("debias_sweep")
    setting = sweep.run_setting(0.3, False, 1, seeds=(0,), embed_dim=8, ffn_dim=16)
    assert nm.matmul is sweep._flat_matmul  # the per-slice patch does not outlive a run
    assert set(setting["orders"]) == set(sweep.ORDERS)
    for order in setting["orders"].values():
        assert len(order["l1_on"]) == len(order["l1_off"]) == 1
        assert order["wins"] + order["ties"] + order["losses"] == 1
    assert setting["max_order_gap"] >= 0.0
    assert sweep.select([setting, {**setting, "mask_emotion_tag": True, "worse_order_wins": 1}]) is setting


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
