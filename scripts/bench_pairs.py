#!/usr/bin/env python3
"""Alternated benchmark pairs: a parent checkout against a changed one, run by run.

Each pair runs ``DIR/perfbench/run.py`` untraced once in each checkout, one
after the other; odd pairs run the parent first and even pairs the change,
so a drift of the machine's speed does not favour one side.  Per end-to-end
metric the script prints each side's median and quartiles over all runs, in
how many pairs the change did better (the direction comes from the change's
``BENCHMARK.json``), whether the change's median is better than the
parent's by more than the parent's interquartile range, and whether it is
worse than the parent's by more than the metric's ``bound`` there, a fraction
of the parent's median.  A closing line lists every metric past its bound.
Every run is kept: a run that exits non-zero, prints no result line or
reports a failed check is listed, and the script then exits 1.

    python3 scripts/bench_pairs.py --parent ../parent --change . --workload desk --pairs 10 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

SIDES = ("parent", "change")


class Run(NamedTuple):
    """One benchmark run: its end-to-end metrics and, when it does not count as clean, why."""

    metrics: dict[str, tuple[float, str]]  # name -> (value, unit)
    problem: str | None = None


def parse_run(code: int, stdout: str, stderr: str = "") -> Run:
    """A run from its exit code and output; perfbench prints its result as the last stdout line."""
    lines = stdout.strip().splitlines()
    try:
        payload = json.loads(lines[-1])
        metrics = {name: (float(m["value"]), m["unit"]) for name, m in payload["metrics"].items()}
        correct, failed, attempted = payload["correct"], payload["failed"], payload["attempted"]
    except (IndexError, ValueError, KeyError, TypeError):
        tail = " | ".join((stderr.strip().splitlines() or ["no stderr"])[-3:])
        return Run({}, f"exit {code}, no result line ({tail})")
    problem = None
    if code != 0 or not correct or failed:
        problem = f"exit {code}, correct={correct}, {failed} of {attempted} operations failed"
    return Run(metrics, problem)


def run_checkout(root: Path, workload: str, seed: int, seconds: float) -> Run:
    """One untraced ``perfbench/run.py`` run of the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    return parse_run(proc.returncode, proc.stdout, proc.stderr)


def run_pairs(run, pairs: int, log=print) -> list[dict[str, Run]]:
    """``pairs`` pairs of ``run(side)`` calls, the parent first in odd pairs and the change first in even ones."""
    results = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run(side)
            log(f"pair {i + 1}/{pairs} {side}: " + (pair[side].problem or "ok"), flush=True)
        results.append(pair)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(results: list[dict[str, Run]], better: dict[str, str],
           bounds: dict[str, float] | None = None) -> tuple[list[str], int]:
    """Report lines and the number of runs with a problem.

    ``better`` maps a metric to "higher" or "lower"; a metric missing from it counts no wins.
    ``bounds`` maps a metric to the fraction of the parent's median by which the change's
    median may be worse; a metric missing from it is not checked.
    """
    bounds = bounds or {}
    names = list(dict.fromkeys(name for pair in results for run in pair.values() for name in run.metrics))
    lines = [f"{'metric':<16} {'unit':<6} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
             f" {'past bound':>10} {'change wins':>12}  gain > parent IQR"]
    past = []
    for name in names:
        unit = next(run.metrics[name][1] for pair in results for run in pair.values() if name in run.metrics)
        values = {side: [pair[side].metrics[name][0] for pair in results if name in pair[side].metrics]
                  for side in SIDES}
        cells = []
        for side in SIDES:
            if values[side]:
                q1, median, q3 = quartiles(values[side])
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            else:
                cells.append("no runs")
        both = [(pair["parent"].metrics[name][0], pair["change"].metrics[name][0]) for pair in results
                if name in pair["parent"].metrics and name in pair["change"].metrics]
        direction = better.get(name)
        if direction in ("higher", "lower") and values["parent"] and values["change"]:
            sign = 1.0 if direction == "higher" else -1.0
            wins = f"{sum(sign * (c - p) > 0 for p, c in both)}/{len(both)}"
            q1, parent_median, q3 = quartiles(values["parent"])
            gain = sign * (quartiles(values["change"])[1] - parent_median)
            beyond = "yes" if gain > q3 - q1 else "no"
            bound = "-"
            if name in bounds:
                worse = -gain > bounds[name] * abs(parent_median)
                bound = "yes" if worse else "no"
                if worse:
                    past.append(name)
        else:
            wins, beyond, bound = "-", "-", "-"
        lines.append(f"{name:<16} {unit:<6} {cells[0]:>32} {cells[1]:>32} {bound:>10} {wins:>12}  {beyond}")
    problems = [(i, side, pair[side].problem) for i, pair in enumerate(results, start=1)
                for side in SIDES if pair[side].problem]
    for i, side, problem in problems:
        lines.append(f"FAILED pair {i} {side}: {problem}")
    lines.append("past bound: " + (", ".join(past) or "none"))
    lines.append(f"{len(results)} pairs, {len(problems)} of {2 * len(results)} runs failed or incorrect")
    return lines, len(problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--change", required=True, type=Path, help="checkout under test")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--pairs", required=True, type=int, help="number of alternated pairs")
    parser.add_argument("--seconds", required=True, type=float, help="length of each run's timed loop")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"--{side} {root}: no perfbench/run.py")
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}

    results = run_pairs(lambda side: run_checkout(roots[side], args.workload, args.seed, args.seconds), args.pairs)
    print(f"# {args.workload} seed {args.seed}, {args.seconds:g} s runs; parent {roots['parent']}, "
          f"change {roots['change']}")
    lines, problems = report(results, better, bounds)
    print("\n".join(lines))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
