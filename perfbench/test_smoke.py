"""Smoke test of the benchmark harness at its smallest sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload emits each metric BENCHMARK.json names, with its
unit, that the layers a workload exercises read non-zero in a traced run, and
that tracing leaves generated tokens and training losses unchanged.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# One epoch at desk's learning rate of 1.0 ends above the initial loss (see
# README.md), so the one-epoch desk run trains at 0.1.
SMALLEST = {
    "desk": replace(workloads.WORKLOADS["desk"], n_users=2, n_items=5, batch_size=4, epochs=1,
                    n_queries=2, max_tokens=3, learning_rate=0.1),
    "paper": replace(workloads.WORKLOADS["paper"], n_queries=1, max_tokens=2),
    "evaluate_corpus": replace(workloads.WORKLOADS["evaluate_corpus"], n_users=10, n_items=10, n_records=100),
}
# End-to-end metrics each workload family reports under its own names.
NAMED = {
    "desk": {"setup_s", "train_examples_per_s", "train_valid_loss", "generate_tokens_per_s",
             "generate_single_tokens_per_s", "generate_query_ms_p50", "failed_share", "peak_rss_mb"},
    "evaluate_corpus": {"setup_s", "prepare_records_per_s", "evaluate_pairs_per_s", "audit_pairs_per_s",
                        "failed_share", "peak_rss_mb"},
}
NAMED["paper"] = NAMED["desk"]
# Per-layer metrics that must read non-zero where the workload exercises them.
# clip_share is left out: whether a step clips depends on the gradient norm.
MODEL_LAYERS = [m for m, _, _ in tracing.PER_LAYER
                if m.split(".")[0] in ("numerics", "model", "trainer") and m != "numerics.clip_share"] + [
    "generator.forward_ms", "generator.emotion_input_ms", "generator.self_ms", "generator.decode_steps",
    "generator.tokens", "generator.rows_per_step", "generator.useful_row_share",
    "corpus.encode_example.calls", "corpus.encode_example.ms", "lexicon.word_emotion.calls",
]
CORPUS_LAYERS = [m for m, _, _ in tracing.PER_LAYER if m.split(".")[0] in ("lexicon", "metrics", "cli")] + [
    "corpus.load_records_ms", "corpus.split_dataset_ms", "corpus.build_vocabulary_ms",
]
EXERCISED = {"desk": MODEL_LAYERS, "paper": MODEL_LAYERS, "evaluate_corpus": CORPUS_LAYERS}


@pytest.fixture(scope="module", params=sorted(SMALLEST))
def runs(request, tmp_path_factory):
    spec = SMALLEST[request.param]
    plain = harness.measure(spec, seed=3, seconds=0, trace=False, work_dir=tmp_path_factory.mktemp("plain"))
    traced = harness.measure(spec, seed=3, seconds=0, trace=True, work_dir=tmp_path_factory.mktemp("traced"))
    return request.param, plain, traced


def test_every_metric_is_emitted_with_its_unit(runs):
    name, plain, traced = runs
    assert plain.tally.failures == [] and traced.tally.failures == []
    assert {m: u for m, (_, u) in plain.end_to_end.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {m: u for m, (_, u) in traced.per_layer.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert NAMED[name] <= set(plain.named)
    assert all(unit for _, unit in plain.named.values())
    assert all(value > 0 for value, _ in plain.end_to_end.values())
    assert [m for m in EXERCISED[name] if traced.per_layer[m][0] <= 0] == []


def test_tracing_leaves_results_unchanged(runs):
    _, plain, traced = runs
    assert [r.traced for r in traced.rounds][:2] == [False, True]

    def results(round_):
        out = round_.outputs
        if "singles" not in out:
            return [text for _, _, text in out["evaluate"] + out["audit"]]
        tokens = [g.tokens for g in out["batch"]], [s[0] for s in out["singles"]]
        return tokens, out["history"].to_dict()

    expected = results(plain.rounds[0])
    assert all(results(r) == expected for r in traced.rounds + plain.rounds)
