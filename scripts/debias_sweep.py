#!/usr/bin/env python3
"""Paired-seed sweep: does the emotion loss lower the emotion audit's L1, beyond rounding?

For every setting (learning rate x ``mask_emotion_tag`` x epochs) and every
seed, a desk model is trained on acceptance-7's synthetic corpus with the
emotion loss (c2 = 1) and without it (c2 = 0); each decodes the test split
with ``batch_generate``, and the audit compares the generated emotion
distribution with the ground truth's.  Every run is repeated under two
summation orders of each weight gradient that ``numerics.matmul`` and
``numerics.attention`` take over a stack, all of them made by
``numerics._accumulate_product``: the library's one flattened GEMM ("flat")
and the sum of one GEMM per slice ("per_slice"), which this script patches
in.  The gap between the two orders is how much of a
result is rounding.

The setting acceptance-7 asserts on is chosen by SELECTION_RULE, fixed before
any run and written into the output.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python scripts/debias_sweep.py --workers 2
"""

from __future__ import annotations

import argparse
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from emoexplain import numerics as nm
from emoexplain.corpus import build_vocabulary, generate_synthetic_corpus, split_dataset
from emoexplain.fixtures import fixture_lexicon, pool_corpus_spec
from emoexplain.generator import GenerationQuery, batch_generate, record_queries
from emoexplain.metrics import emotion_audit
from emoexplain.model import config_for_vocab
from emoexplain.trainer import TrainConfig, train

REPO = Path(__file__).resolve().parents[1]
SKEW = (0.6, 0.05, 0.1, 0.1, 0.05, 0.1)
CORPUS = (12, 20, 240)  # users, items, records for pool_corpus_spec
LEARNING_RATES = (0.1, 0.3, 1.0)
MASKS = (False, True)
EPOCHS = (4, 8)
SEEDS = tuple(range(12))
ORDERS = ("flat", "per_slice")
SELECTION_RULE = (
    "Among settings with mask_emotion_tag off, pick the one with the most wins (seeds where the "
    "emotion loss gives the lower L1) under the worse of the two orders (the smaller count). "
    "Break ties by fewer max_epochs, then by the larger mean paired difference (L1 without minus "
    "L1 with) under the worse order (the smaller mean), then by the higher learning rate. "
    "The selected setting meets the bar if, under both orders, mean L1 with the loss is below "
    "mean L1 without it and the wins are a strict majority of the seeds."
)

_flat_product = nm._accumulate_product


def per_slice_product(w, a, g):
    """``nm._accumulate_product`` as one GEMM per slice of the stacks, each added to ``w``'s gradient in turn."""
    for a_slice, g_slice in zip(a.reshape(-1, *a.shape[-2:]), g.reshape(-1, *g.shape[-2:])):
        nm._accumulate(w, a_slice.T @ g_slice)


def audit_l1(job: tuple) -> float:
    """Audit L1 of one trained model; ``job`` is (order, lr, mask, epochs, seed, c2, embed_dim, ffn_dim)."""
    order, lr, mask, epochs, seed, c2, embed_dim, ffn_dim = job
    lex = fixture_lexicon()
    records = generate_synthetic_corpus(pool_corpus_spec(*CORPUS, SKEW), seed=seed)
    split = split_dataset(records, seed=seed)
    vocab = build_vocabulary(list(split.train))
    config = config_for_vocab(vocab, embed_dim=embed_dim, ffn_dim=ffn_dim, c2=c2, mask_emotion_tag=mask)
    tc = TrainConfig(batch_size=16, learning_rate=lr, clip=1.0, max_epochs=epochs, patience=epochs, seed=seed)
    nm._accumulate_product = per_slice_product if order == "per_slice" else _flat_product
    try:
        params, _ = train(config, tc, split, lex, vocab)
    finally:
        nm._accumulate_product = _flat_product
    results = batch_generate(params, config, vocab, lex, record_queries(split.test, lex, GenerationQuery.max_tokens))
    return emotion_audit([r.explanation for r in split.test], [" ".join(r.tokens) for r in results], lex).l1_distance


def _summary(on: list[float], off: list[float]) -> dict:
    diff = [b - a for a, b in zip(on, off)]  # positive: the emotion loss lowered L1
    n = len(diff)
    return {
        "l1_on": on, "l1_off": off, "diff_off_minus_on": diff,
        "wins": sum(d > 0 for d in diff), "ties": sum(d == 0 for d in diff), "losses": sum(d < 0 for d in diff),
        "mean_on": sum(on) / n, "mean_off": sum(off) / n, "mean_diff": sum(diff) / n,
    }


def run_setting(lr: float, mask: bool, epochs: int, seeds=SEEDS, embed_dim: int = 64, ffn_dim: int = 128,
                mapper=map) -> dict:
    """Both orders' paired results for one setting; ``mapper`` runs the jobs (``map`` or a pool's)."""
    jobs = [(order, lr, mask, epochs, seed, c2, embed_dim, ffn_dim)
            for order in ORDERS for c2 in (1.0, 0.0) for seed in seeds]
    values = iter(list(mapper(audit_l1, jobs)))
    l1 = {(order, c2): [next(values) for _ in seeds] for order in ORDERS for c2 in (1.0, 0.0)}
    orders = {order: _summary(l1[order, 1.0], l1[order, 0.0]) for order in ORDERS}
    gap = max(abs(x - y) for c2 in (1.0, 0.0) for x, y in zip(l1["flat", c2], l1["per_slice", c2]))
    worse_wins = min(o["wins"] for o in orders.values())
    worse_mean_diff = min(o["mean_diff"] for o in orders.values())
    return {
        "lr": lr, "mask_emotion_tag": mask, "max_epochs": epochs, "seeds": list(seeds),
        "orders": orders, "max_order_gap": gap,
        "worse_order_wins": worse_wins, "worse_order_mean_diff": worse_mean_diff,
        "meets_bar": all(o["mean_on"] < o["mean_off"] and 2 * o["wins"] > len(seeds) for o in orders.values()),
    }


def select(settings: list[dict]) -> dict:
    """The setting SELECTION_RULE picks."""
    visible = [s for s in settings if not s["mask_emotion_tag"]]
    return min(visible, key=lambda s: (-s["worse_order_wins"], s["max_epochs"], -s["worse_order_mean_diff"], -s["lr"]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=str(REPO / "results" / "debias_sweep.json"), help="JSON output path")
    parser.add_argument("--workers", type=int, default=1, help="training processes to run at once")
    args = parser.parse_args()

    with ProcessPoolExecutor(args.workers) as pool:
        settings = []
        for lr, mask, epochs in itertools.product(LEARNING_RATES, MASKS, EPOCHS):
            settings.append(run_setting(lr, mask, epochs, mapper=pool.map))
            s = settings[-1]
            print(f"lr {lr} mask {mask} epochs {epochs}: "
                  + ", ".join(f"{o} {v['wins']}/{v['ties']}/{v['losses']} {v['mean_on']:.3f} vs {v['mean_off']:.3f}"
                              for o, v in s["orders"].items())
                  + f", order gap {s['max_order_gap']:.3f}", flush=True)
    chosen = select(settings)
    out = {
        "selection_rule": SELECTION_RULE,
        "corpus": {"pool_corpus_spec": list(CORPUS), "skew": list(SKEW)},
        "model": {"embed_dim": 64, "ffn_dim": 128, "batch_size": 16, "clip": 1.0, "generation": "batch_generate"},
        "settings": settings,
        "selected": {key: chosen[key] for key in ("lr", "mask_emotion_tag", "max_epochs", "seeds", "meets_bar")},
    }
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"selected lr {chosen['lr']}, {chosen['max_epochs']} epochs (meets bar: {chosen['meets_bar']}); wrote {path}")


if __name__ == "__main__":
    main()
