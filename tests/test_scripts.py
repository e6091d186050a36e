"""Smoke tests for the committed scripts, so that they cannot rot unnoticed."""

from __future__ import annotations

import importlib.util

from emoexplain import numerics as nm

from .conftest import REPO_ROOT


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
