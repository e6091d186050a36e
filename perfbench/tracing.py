"""Spans recorded from outside the package by wrapping its functions.

``Tracer.install`` replaces each function named in SPANNED, in every
emoexplain module that holds a reference to it, with a wrapper that records a
span: name, start, end, parent span and group.  Package code looks these names
up at call time (``nm.matmul`` through the numerics module, ``decode`` through
the globals of the module that imported it), so each wrapper sits exactly where
its callers look.  ``uninstall`` puts the original objects back, so untraced
rounds run the unmodified package.

A group ties together the spans of one training step (everything between two
optimizer steps of one ``train`` call), of one query (one ``generate`` call),
of one ``batch_generate`` call outside its queries, or of one CLI command.
Spans stay in memory; ``save`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

import emoexplain.cli  # noqa: F401  (imports every emoexplain module the wrappers patch)

NUMERIC_OPS = (
    "matmul", "add", "scalar_mul", "relu", "layer_norm",
    "embedding", "concat", "slice_rows", "attention", "cross_entropy",
)
MODEL_FUNCTIONS = (
    "emotion_input_matrix", "encode_emotion_from_matrix", "encode_context",
    "fuse", "decode", "lm_head", "emotion_head", "total_loss",
)
STACK_INPUTS = ("encode_emotion_from_matrix", "encode_context", "decode")
CLI_COMMANDS = ("prepare", "evaluate", "audit")

SPANNED = (
    *(f"numerics.{op}" for op in NUMERIC_OPS),
    "numerics.backward", "numerics.sgd_step",
    *(f"model.{fn}" for fn in MODEL_FUNCTIONS),
    "trainer.train", "trainer._prepare", "trainer._mean_losses",
    "generator.generate", "generator.batch_generate",
    "corpus.load_records", "corpus.split_dataset", "corpus.build_vocabulary",
    "corpus.encode_example", "corpus.assign_emotion_tags",
    "lexicon.load_lexicon", "lexicon.classify_explanation",
    "metrics.bleu", "metrics.rouge", "metrics.hypothesis_feature_sets", "metrics.div",
    "metrics.emotion_audit", "metrics.build_report",
    *(f"cli.cmd_{cmd}" for cmd in CLI_COMMANDS),
)
# Called once per token: a span each would cost more than the lookup itself.
COUNTED = ("lexicon.word_emotion",)

OUTSIDE, TRAIN, QUERY, BATCH, COMMAND = range(5)
OPENS_GROUP = {
    "trainer.train": TRAIN,
    "generator.generate": QUERY,
    "generator.batch_generate": BATCH,
    **{f"cli.cmd_{cmd}": COMMAND for cmd in CLI_COMMANDS},
}
# Rows passed through each transformer stack: (parameter name, rows of its value).
STACK_ROWS = {
    "model.encode_emotion_from_matrix": ("vnrc", lambda vnrc: vnrc.shape[0]),
    "model.encode_context": ("example", lambda example: len(example.context_ids)),
    "model.decode": ("hidden_merge", lambda hidden: hidden.data.shape[0]),
}

# Every per-layer metric: (name, unit, better).  Times and counts are per
# traced round, one pass over the workload's three stages.
PER_LAYER = (
    *((f"numerics.{op}.{kind}", unit, "lower")
      for op in NUMERIC_OPS for kind, unit in (("calls", "calls/round"), ("ms", "ms/round"))),
    ("numerics.backward.ms", "ms/round", "lower"),
    ("numerics.sgd_step.ms", "ms/round", "lower"),
    ("numerics.sgd_step.calls", "calls/round", "lower"),
    ("numerics.ops_per_example", "ops/example", "lower"),
    ("numerics.ops_per_token", "ops/token", "lower"),
    ("numerics.clip_share", "share", "lower"),
    *((f"model.{fn}.ms", "ms/round", "lower") for fn in MODEL_FUNCTIONS),
    ("model.rows_encoded", "rows/round", "lower"),
    ("trainer.prepare_ms", "ms/round", "lower"),
    ("trainer.forward_ms", "ms/round", "lower"),
    ("trainer.backward_ms", "ms/round", "lower"),
    ("trainer.sgd_ms", "ms/round", "lower"),
    ("trainer.valid_eval_ms", "ms/round", "lower"),
    ("trainer.self_ms", "ms/round", "lower"),
    ("trainer.steps", "steps/round", "higher"),
    ("trainer.examples", "examples/round", "higher"),
    ("generator.forward_ms", "ms/round", "lower"),
    ("generator.emotion_input_ms", "ms/round", "lower"),
    ("generator.self_ms", "ms/round", "lower"),
    ("generator.decode_steps", "steps/round", "lower"),
    ("generator.tokens", "tokens/round", "higher"),
    ("generator.failed", "queries/round", "lower"),
    ("generator.stop.eos", "queries/round", "lower"),
    ("generator.stop.max_tokens", "queries/round", "lower"),
    ("generator.stop.length_budget", "queries/round", "lower"),
    ("generator.rows_per_step", "rows/step", "lower"),
    ("generator.useful_row_share", "share", "higher"),
    ("corpus.load_records_ms", "ms/round", "lower"),
    ("corpus.split_dataset_ms", "ms/round", "lower"),
    ("corpus.build_vocabulary_ms", "ms/round", "lower"),
    ("corpus.encode_example.calls", "calls/round", "lower"),
    ("corpus.encode_example.ms", "ms/round", "lower"),
    ("lexicon.load_lexicon_ms", "ms/round", "lower"),
    ("lexicon.classify_explanation.calls", "calls/round", "lower"),
    ("lexicon.classify_explanation.ms", "ms/round", "lower"),
    ("lexicon.word_emotion.calls", "calls/round", "lower"),
    *((f"metrics.{fn}.ms", "ms/round", "lower")
      for fn in ("bleu", "rouge", "hypothesis_feature_sets", "div")),
    ("metrics.div.pairs", "pairs/round", "lower"),
    ("metrics.emotion_audit.ms", "ms/round", "lower"),
    ("metrics.build_report.ms", "ms/round", "lower"),
    *((f"cli.{cmd}.{kind}", "ms/round", "lower")
      for cmd in CLI_COMMANDS for kind in ("ms", "self_ms")),
    ("trace.spans", "spans/round", "lower"),
    *((f"trace.stage{k}_overhead_share", "share", "lower") for k in (1, 2, 3)),
)


def _module(qualified: str):
    module_name, fn_name = qualified.split(".")
    return sys.modules[f"emoexplain.{module_name}"], fn_name


class Tracer:
    """In-memory spans and counters for the traced rounds of one run."""

    def __init__(self):
        self.names = list(SPANNED)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.parent = array("i")
        self.group = array("i")
        self.group_kind = array("b", [OUTSIDE])
        self.current = 0
        self.stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.rows: Counter[int] = Counter()  # group kind -> rows through the stacks
        self.sgd_steps = 0
        self.clipped = 0
        self.div_pairs = 0
        self._wrappers = {name: self._spanned(name) for name in SPANNED}
        self._wrappers.update({name: self._counted(name) for name in COUNTED})
        self._patches: list[tuple[object, str, object]] = []

    def _open_group(self, kind: int) -> None:
        self.group_kind.append(kind)
        self.current = len(self.group_kind) - 1

    def _after_sgd_step(self, args, kwargs, norm) -> None:
        threshold = args[2] if len(args) > 2 else kwargs.get("clip_threshold", 1.0)
        self.sgd_steps += 1
        self.clipped += threshold is not None and norm > threshold
        if self.group_kind[self.current] == TRAIN:
            self._open_group(TRAIN)

    def _after_div(self, args, kwargs, _result) -> None:
        count = len(args[0] if args else kwargs["feature_sets"])
        threshold = args[1] if len(args) > 1 else kwargs.get("sample_threshold", 2000)
        sampled = args[2] if len(args) > 2 else kwargs.get("n_sample_pairs", 10**6)
        self.div_pairs += count * (count - 1) // 2 if count <= threshold else sampled

    def _spanned(self, name: str):
        module, fn_name = _module(name)
        fn = getattr(module, fn_name)
        nid = self._ids[name]
        opens = OPENS_GROUP.get(name)
        stack_rows = STACK_ROWS.get(name)
        after = {"numerics.sgd_step": self._after_sgd_step, "metrics.div": self._after_div}.get(name)
        name_ids, starts, ends, parents, groups, stack = (
            self.name_id, self.start_ns, self.end_ns, self.parent, self.group, self.stack)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            outer = self.current
            if opens is not None:
                self._open_group(opens)
            if stack_rows is not None:
                param, rows = stack_rows
                self.rows[self.group_kind[self.current]] += rows(args[0] if args else kwargs[param])
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            groups.append(self.current)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if opens is not None:
                    self.current = outer
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _counted(self, name: str):
        module, fn_name = _module(name)
        fn = getattr(module, fn_name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "emoexplain" or key.startswith("emoexplain.")]
        for name, wrapper in self._wrappers.items():
            original = wrapper.__wrapped__
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def fired(self) -> set[str]:
        """Names whose wrapper ran at least once."""
        counts = np.bincount(np.asarray(self.name_id, dtype=np.int64), minlength=len(self.names))
        return {name for name, n in zip(self.names, counts) if n} | {n for n, c in self.calls.items() if c}

    def save(self, path: Path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start_ns=np.asarray(self.start_ns, dtype=np.int64),
            end_ns=np.asarray(self.end_ns, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int32),
            group=np.asarray(self.group, dtype=np.int32),
            group_kind=np.asarray(self.group_kind, dtype=np.int8),
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, rounds: int, derived: dict) -> dict[str, tuple[float, str]]:
    """Every PER_LAYER metric from the spans of ``rounds`` traced rounds.

    ``derived`` carries what the benchmark reads off the outputs rather than
    the spans: generated tokens, failed queries, stop reasons, rows a query
    needs (its distinct positions in each of the three stacks), and the
    tracing overhead per stage.  Layers a workload never calls read 0.
    """
    ids = tracer._ids
    name = np.asarray(tracer.name_id, dtype=np.int64)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    dur = (np.asarray(tracer.end_ns, dtype=np.int64) - np.asarray(tracer.start_ns, dtype=np.int64)) / 1e6
    kind = np.asarray(tracer.group_kind, dtype=np.int64)[np.asarray(tracer.group, dtype=np.int64)]
    nested = parent >= 0
    self_ms = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    parent_name = np.full(len(dur), -1)
    parent_name[nested] = name[parent[nested]]

    def spans(fn: str, under: str | None = None):
        mask = name == ids[fn]
        return mask if under is None else mask & (parent_name == ids[under])

    def ms(mask, values=dur) -> float:
        return float(values[mask].sum()) / rounds

    def calls(mask) -> float:
        return float(mask.sum()) / rounds

    ops = np.isin(name, [ids[f"numerics.{op}"] for op in NUMERIC_OPS])
    loss_in_train = spans("model.total_loss") & (kind == TRAIN)
    steps_in_query = spans("model.decode", under="generator.generate")
    stacks_in_query = np.isin(name, [ids[f"model.{fn}"] for fn in (*STACK_INPUTS, "fuse")]) & (
        parent_name == ids["generator.generate"])

    m: dict[str, float] = {}
    for op in NUMERIC_OPS:
        m[f"numerics.{op}.calls"] = calls(spans(f"numerics.{op}"))
        m[f"numerics.{op}.ms"] = ms(spans(f"numerics.{op}"))
    m["numerics.backward.ms"] = ms(spans("numerics.backward"))
    m["numerics.sgd_step.ms"] = ms(spans("numerics.sgd_step"))
    m["numerics.sgd_step.calls"] = calls(spans("numerics.sgd_step"))
    m["numerics.ops_per_example"] = _ratio((ops & (kind == TRAIN)).sum(), loss_in_train.sum())
    m["numerics.ops_per_token"] = _ratio((ops & (kind == QUERY)).sum(), steps_in_query.sum())
    m["numerics.clip_share"] = _ratio(tracer.clipped, tracer.sgd_steps)
    for fn in MODEL_FUNCTIONS:
        m[f"model.{fn}.ms"] = ms(spans(f"model.{fn}"))
    m["model.rows_encoded"] = sum(tracer.rows.values()) / rounds
    m["trainer.prepare_ms"] = ms(spans("trainer._prepare"))
    m["trainer.forward_ms"] = ms(spans("model.total_loss", under="trainer.train"))
    m["trainer.backward_ms"] = ms(spans("numerics.backward", under="trainer.train"))
    m["trainer.sgd_ms"] = ms(spans("numerics.sgd_step", under="trainer.train"))
    m["trainer.valid_eval_ms"] = ms(spans("trainer._mean_losses", under="trainer.train"))
    m["trainer.self_ms"] = ms(spans("trainer.train"), self_ms)
    m["trainer.steps"] = calls(spans("numerics.sgd_step", under="trainer.train"))
    m["trainer.examples"] = calls(spans("model.total_loss", under="trainer.train"))
    m["generator.forward_ms"] = ms(stacks_in_query)
    m["generator.emotion_input_ms"] = ms(spans("model.emotion_input_matrix", under="generator.generate"))
    m["generator.self_ms"] = ms(spans("generator.generate"), self_ms)
    m["generator.decode_steps"] = calls(steps_in_query)
    for key in ("tokens", "failed", "stop.eos", "stop.max_tokens", "stop.length_budget"):
        m[f"generator.{key}"] = derived.get(key, 0) / rounds
    m["generator.rows_per_step"] = _ratio(tracer.rows[QUERY], steps_in_query.sum())
    m["generator.useful_row_share"] = _ratio(derived.get("needed_rows", 0), tracer.rows[QUERY])
    for fn in ("load_records", "split_dataset", "build_vocabulary"):
        m[f"corpus.{fn}_ms"] = ms(spans(f"corpus.{fn}"))
    m["corpus.encode_example.calls"] = calls(spans("corpus.encode_example"))
    m["corpus.encode_example.ms"] = ms(spans("corpus.encode_example"))
    m["lexicon.load_lexicon_ms"] = ms(spans("lexicon.load_lexicon"))
    m["lexicon.classify_explanation.calls"] = calls(spans("lexicon.classify_explanation"))
    m["lexicon.classify_explanation.ms"] = ms(spans("lexicon.classify_explanation"))
    m["lexicon.word_emotion.calls"] = tracer.calls["lexicon.word_emotion"] / rounds
    for fn in ("bleu", "rouge", "hypothesis_feature_sets", "div", "emotion_audit", "build_report"):
        m[f"metrics.{fn}.ms"] = ms(spans(f"metrics.{fn}"))
    m["metrics.div.pairs"] = tracer.div_pairs / rounds
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.ms"] = ms(spans(f"cli.cmd_{cmd}"))
        m[f"cli.{cmd}.self_ms"] = ms(spans(f"cli.cmd_{cmd}"), self_ms)
    m["trace.spans"] = len(dur) / rounds
    for k in (1, 2, 3):
        m[f"trace.stage{k}_overhead_share"] = derived[f"stage{k}_overhead_share"]
    return {metric: (float(m[metric]), unit) for metric, unit, _ in PER_LAYER}
