#!/usr/bin/env python3
"""End-to-end desk-scale experiment on a synthetic skewed corpus.

Generates a corpus whose emotion distribution is dominated by "happy",
prepares splits, trains an emotion-aware model and a c2=0 baseline, generates
explanations with both, evaluates text metrics, and audits the emotion
distributions (the baseline feeds the debiasing column).

Both models train at acceptance-7's setting, lr 0.3 for 8 epochs with the tag
visible, the one ``results/debias_sweep.json`` selects.  At the desk default
lr 1.0 the sweep found no effect of the emotion loss beyond rounding.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from emoexplain.cli import main as cli
from emoexplain.corpus import generate_synthetic_corpus, save_records
from emoexplain.fixtures import pool_corpus_spec

REPO = Path(__file__).resolve().parents[1]
LEXICON = REPO / "data" / "fixture_lexicon.tsv"
SKEW = (0.6, 0.05, 0.1, 0.1, 0.05, 0.1)


def run(step: str, args: list[str]) -> None:
    print(f"== {step}: emoexplain {' '.join(args)}")
    code = cli(args)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="desk_experiment", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--records", type=int, default=240)
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "records.jsonl"
    spec = pool_corpus_spec(12, args.records // 12, args.records, SKEW)
    save_records(corpus_path, generate_synthetic_corpus(spec, args.seed))
    print(f"wrote {args.records} synthetic records to {corpus_path}")

    seed = str(args.seed)
    common = ["--lexicon", str(LEXICON), "--seed", seed]
    train_flags = ["--learning-rate", "0.3", "--max-epochs", str(args.epochs), "--patience", str(args.epochs)]

    run("prepare", ["prepare", "--records", str(corpus_path), "--out", str(out / "prep"), *common])
    run("train emotion-aware", [
        "train", "--data", str(out / "prep"), "--out", str(out / "model"), *common, *train_flags])
    run("train baseline (c2=0)", [
        "train", "--data", str(out / "prep"), "--out", str(out / "baseline"),
        "--c2", "0", *common, *train_flags])
    run("generate emotion-aware", [
        "generate", "--data", str(out / "prep"), "--checkpoint", str(out / "model" / "model.emot"),
        "--out", str(out / "gen"), *common])
    run("generate baseline", [
        "generate", "--data", str(out / "prep"), "--checkpoint", str(out / "baseline" / "model.emot"),
        "--out", str(out / "gen_baseline"), *common])
    run("evaluate", [
        "evaluate", "--data", str(out / "prep"), "--generated", str(out / "gen" / "generated.jsonl"),
        "--out", str(out / "eval"), *common])
    run("audit vs baseline", [
        "audit", "--data", str(out / "prep"), "--generated", str(out / "gen" / "generated.jsonl"),
        "--baseline", str(out / "gen_baseline" / "generated.jsonl"),
        "--out", str(out / "audit"), *common])
    print(f"done; reports under {out}/eval and {out}/audit")


if __name__ == "__main__":
    main()
