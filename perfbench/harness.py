"""One benchmark run: set-up, timed rounds, checks, metrics and run metadata.

End-to-end metrics come from untraced rounds and are stated at reference
machine speed: the calibration loop in workloads.py runs before every timed
operation and once at the end, and each operation's time is divided by its
slowness to the workload's exponent (see rescaled_seconds).  With tracing
on, rounds alternate untraced and traced: per-layer metrics come from the
traced ones (as measured, not rescaled) and the tracing overhead is the gap
between the two kinds, per stage, as measured.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Set up at least this many times, and for at least this long; setup_s is the median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
MIN_ROUNDS = 2
# Which end-to-end metric each stage slot carries, per workload family.
# BENCHMARK.json gives one metric set to every workload, so each reports its
# three stage throughputs in the same three slots.
STAGE_SLOTS = {
    workloads.ModelBench: ("train_examples_per_s", "generate_tokens_per_s", "generate_single_tokens_per_s"),
    workloads.CorpusBench: ("prepare_records_per_s", "evaluate_pairs_per_s", "audit_pairs_per_s"),
}
# Wrappers each workload must fire in a traced round.
MUST_FIRE = {
    workloads.ModelBench: {
        *(name for name in tracing.SPANNED if name.split(".")[0] in ("numerics", "model", "trainer", "generator")),
        "corpus.encode_example", "corpus.assign_emotion_tags", "lexicon.word_emotion",
    },
    workloads.CorpusBench: {
        *(name for name in tracing.SPANNED if name.split(".")[0] in ("corpus", "lexicon", "metrics", "cli")),
        "lexicon.word_emotion",
    } - {"corpus.encode_example"},
}


@dataclass
class Result:
    meta: dict
    rounds: list[workloads.Round]
    tally: checks.Tally
    named: dict[str, tuple[float, str]]  # every end-to-end metric under its own name
    end_to_end: dict[str, tuple[float, str]]  # the BENCHMARK.json end_to_end set
    per_layer: dict[str, tuple[float, str]] | None
    tracer: tracing.Tracer | None
    timeline: list[tuple[str, float, float]]  # (label, calibration s, operation s), in order


def measure(spec, seed: int, seconds: float, trace: bool, work_dir: Path) -> Result:
    bench = workloads.bench_for(spec, seed, work_dir)
    setup_times: list[float] = []
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
        calibration = workloads.calibration_seconds()
        start = time.perf_counter()
        bench.setup()
        setup_times.append(time.perf_counter() - start)
        bench.timeline.append(("setup", calibration, setup_times[-1]))

    tracer = tracing.Tracer() if trace else None
    rounds: list[workloads.Round] = []
    gc.collect()  # set-up garbage is not the timed stages' cost
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rounds.append(bench.round(traced))
        finally:
            if traced:
                tracer.uninstall()

    bench.timeline.append(("end", workloads.calibration_seconds(), 0.0))
    tally = checks.Tally()
    bench.check(rounds, tally)
    untraced = [r for r in rounds if not r.traced]
    measured = {"setup_s": (statistics.median(setup_times), "s"), **bench.named_metrics(untraced)}
    op_seconds = rescaled_seconds(bench.timeline, spec.rescale_exponent)
    named = {
        "setup_s": (statistics.median(s for s, (label, _, _) in zip(op_seconds, bench.timeline) if label == "setup"), "s"),
        **bench.named_metrics([at_reference_speed(r, bench, op_seconds) for r in untraced]),
    }
    named["failed_share"] = (len(tally.failures) / tally.attempted, "share")
    named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    slots = STAGE_SLOTS[type(bench)]
    end_to_end = {
        "setup_s": named["setup_s"],
        "peak_rss_mb": named["peak_rss_mb"],
        **{f"stage{k}_per_s": named[slot] for k, slot in enumerate(slots, start=1)},
    }

    per_layer = None
    if trace:
        traced_rounds = [r for r in rounds if r.traced]
        derived = bench.derived(traced_rounds)
        for k in range(3):
            derived[f"stage{k + 1}_overhead_share"] = (
                workloads.median_rate(untraced, k) / workloads.median_rate(traced_rounds, k) - 1.0)
        per_layer = tracing.per_layer_metrics(tracer, len(traced_rounds), derived)
        missing = sorted(MUST_FIRE[type(bench)] - tracer.fired())
        tally.record("trace wrappers", f"never fired: {', '.join(missing)}" if missing else None)

    meta = run_metadata(spec, seed, seconds, trace)
    meta["run"] = {**bench.sizes(), "rounds": len(rounds), "traced_rounds": len(rounds) - len(untraced),
                   "stages": list(bench.STAGES), "stage_slots": list(slots), "setups": len(setup_times),
                   "calibrations": len(bench.timeline)}
    # The timing metrics as measured, before any rescaling.
    meta["measured"] = measured
    return Result(meta, rounds, tally, named, end_to_end, per_layer, tracer, bench.timeline)


def rescaled_seconds(timeline: list[tuple[str, float, float]], exponent: float) -> list[float]:
    """Each operation's seconds at reference machine speed.

    An operation's slowness is the mean of the calibrations just before and
    just after it, over the reference time; its time is divided by the
    slowness to the power ``exponent``.  The last entry is the closing
    calibration and gets no operation time.
    """
    return [
        seconds * (2.0 * workloads.CALIBRATION_REFERENCE_S / (calibration + timeline[i + 1][1])) ** exponent
        for i, (_, calibration, seconds) in enumerate(timeline[:-1])
    ] + [0.0]


def at_reference_speed(r: workloads.Round, bench, op_seconds: list[float]) -> workloads.Round:
    """``r`` with its stage times and query latencies taken from ``op_seconds``."""
    seconds = [0.0] * len(bench.STAGES)
    for i in r.ops:
        seconds[bench.STAGES.index(bench.timeline[i][0])] += op_seconds[i]
    query_ms = tuple(op_seconds[i] * 1000.0 for i in r.ops if bench.timeline[i][0] == "generate")
    return replace(r, seconds=tuple(seconds), query_ms=query_ms)


def _git_sha(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "emoexplain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(lib, symbol, None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                threads = get_threads()
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_metadata(spec, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "git_sha": _git_sha(ROOT),
        "src_sha256": _source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "spec": asdict(spec),
    }


def report_lines(result: Result) -> list[str]:
    """Human-readable report: metadata, named metrics, failed checks, per-layer metrics."""
    lines = ["# meta " + json.dumps(result.meta, sort_keys=True)]
    untraced = [r for r in result.rounds if not r.traced]
    for name, (value, unit) in result.named.items():
        lines.append(f"{name:<34} {value:>14.6g} {unit}")
    lines.append(f"{'attempted':<34} {result.tally.attempted:>14d} operations")
    lines.append(f"# {len(untraced)} untraced rounds; stage throughputs are medians over rounds")
    lines.append(f"# rates and times above are at reference machine speed, over {len(result.timeline)} "
                 f"calibrations; as measured:")
    for name, (value, unit) in result.meta["measured"].items():
        lines.append(f"#   {name:<32} {value:>14.6g} {unit}")
    for slot, (value, unit) in result.end_to_end.items():
        lines.append(f"# end_to_end {slot} = {value:.6g} {unit}")
    for failure in result.tally.failures[:20]:
        lines.append(f"# FAILED {failure}")
    if result.per_layer is not None:
        for name, (value, unit) in result.per_layer.items():
            lines.append(f"{name:<40} {value:>14.6g} {unit}")
    return lines


def write_outputs(result: Result, out_dir: Path) -> None:
    """The run's result (and, when traced, its spans) under ``out_dir``; the latest run per
    workload and trace mode is kept."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{result.meta['workload']}-trace{int(result.meta['trace'])}"
    payload = {
        "meta": result.meta,
        "named": result.named,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "attempted": result.tally.attempted,
        "failures": result.tally.failures,
        "rounds": [{"traced": r.traced, "seconds": r.seconds, "items": r.items} for r in result.rounds],
        "timeline": result.timeline,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if result.tracer is not None:
        result.tracer.save(out_dir / f"{stem}-spans.npz")


def final_line(result: Result) -> str:
    metrics = result.per_layer if result.per_layer is not None else result.end_to_end
    return json.dumps({
        "correct": not result.tally.failures,
        "attempted": result.tally.attempted,
        "failed": len(result.tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })
