"""Command-line front end: prepare, train, generate, evaluate, audit, ablate, gradcheck.

Every command resolves its configuration as profile defaults < config file <
command-line flags, writes the resolved key=value config next to its outputs,
after them, and is reproducible from that file alone.  Exit codes: 0 success, 2 usage or
invalid input, 3 numeric failure, 4 threshold failure.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import re
import shutil
import sys
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import numerics as nm
from .corpus import (
    MAX_VOCAB_TOKENS,
    SPECIAL_TOKENS,
    DatasetSplit,
    Record,
    Vocabulary,
    assign_emotion_tags,
    build_vocabulary,
    encode_example,
    load_records,
    save_records,
    split_dataset,
    tokenize,
)
from .fixtures import fixture_lexicon
from .generator import GenerationQuery, batch_generate, record_queries
from .lexicon import CATEGORIES, Lexicon, load_lexicon, text_lines
from .metrics import (
    REPORT_COLUMNS,
    REPORT_KEYS,
    EvaluationPair,
    EvaluationReport,
    audit_table,
    audit_to_dict,
    build_report,
    compare_distributions,
    debiasing_score,
    emotion_audit,
    explanation_distribution,
    report_table,
    report_to_dict,
    verify_reference_debiasing,
)
from .model import ModelConfig, ModelParams, config_for_vocab, emotion_input_matrix, total_loss
from .trainer import TrainConfig, ablation_grid, train

PROFILES = {
    "desk": {"embed_dim": 64, "ffn_dim": 128, "batch_size": 16},
    "paper": {"embed_dim": 512, "ffn_dim": 2048, "batch_size": 128},
}


def _settable(cls) -> dict:
    """The fields of ``cls`` that have a default, each mapped to it."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


# ModelConfig and TrainConfig own their keys' names, types and defaults. ModelConfig's
# fields without a default, the table sizes, come from the vocabulary.
MODEL_KEYS = tuple(_settable(ModelConfig))
TRAIN_KEYS = tuple(_settable(TrainConfig))

BASE_DEFAULTS = {
    "profile": "desk", "splits": 1, "grad_samples": 200, "max_tokens": GenerationQuery.max_tokens,
    "vocab_cap": MAX_VOCAB_TOKENS, **_settable(ModelConfig), **_settable(TrainConfig),
}

KEY_TYPES = {
    "records": str, "lexicon": str, "data": str, "out": str, "checkpoint": str,
    "generated": str, "baseline": str, "profile": str, "emotion": str,
    "max_tokens": int, "vocab_cap": int, "splits": int, "grad_samples": int,
    **{key: kind for cls in (ModelConfig, TrainConfig) for key, kind in typing.get_type_hints(cls).items()
       if key in MODEL_KEYS + TRAIN_KEYS},
}

# Every integer key is a size, at least 1, except the counts, which may be 0.
LOWER_BOUNDS = {key: 0 if key in ("seed", "max_tokens", "vocab_cap") else 1
                for key, kind in KEY_TYPES.items() if kind is int}


BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(key: str, text: str):
    kind = KEY_TYPES[key]
    try:
        return BOOLEANS[text.strip().lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ValueError(f"config key {key!r}: cannot parse {kind.__name__} from {text!r}") from None


def _read_config_file(path: str) -> dict:
    out = {}
    for lineno, line in text_lines(path):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}: line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in KEY_TYPES:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        try:
            out[key] = _parse_value(key, value.strip())
        except ValueError as err:
            raise ValueError(f"{path}: line {lineno}: {err}") from None
    return out


def resolve_config(args: argparse.Namespace, command_defaults: dict | None = None, source: str = "") -> dict:
    """Resolve base defaults < profile < ``command_defaults`` (read from ``source``) < ``--config`` file < flags."""
    flags = {
        key: value
        for key, value in vars(args).items()
        if key in KEY_TYPES and value is not None
    }
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    profile = flags.get("profile") or file_values.get("profile") or BASE_DEFAULTS["profile"]
    if profile not in PROFILES:
        raise ValueError(f"{args.config}: unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    resolved = dict(BASE_DEFAULTS)
    resolved.update(PROFILES[profile])
    resolved.update(command_defaults or {})
    resolved.update(file_values)
    resolved.update(flags)
    resolved["profile"] = profile
    for key, low in LOWER_BOUNDS.items():
        if resolved[key] < low:
            where = (f"--{key.replace('_', '-')}" if key in flags
                     else f"{args.config if key in file_values else source}: {key}")
            kind = "non-negative" if low == 0 else "positive"
            raise ValueError(f"{where} must be a {kind} integer, got {resolved[key]}")
    return resolved


def _config_text(resolved: dict) -> str:
    return "".join(f"{key}={resolved[key]}\n" for key in sorted(resolved) if resolved[key] is not None)


@contextmanager
def output_lock(out_dir: Path):
    """Hold an exclusive ``flock`` on ``out_dir/.lock`` for the block, and remove the file after it.

    The kernel drops a ``flock`` when its holder exits, however it exits, so a lock file that no run
    holds never blocks. A run that locked a file its holder removed meanwhile opens the new one.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".lock"
    while True:
        handle = os.open(lock, os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(handle)
            raise ValueError(f"output directory {out_dir} is locked by another run") from None
        try:
            if os.path.samestat(os.stat(lock), os.fstat(handle)):
                break
        except FileNotFoundError:
            pass
        os.close(handle)  # its holder removed it after this run opened it: start again
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)
        os.close(handle)


@contextmanager
def _outputs(out_dir: Path, resolved: dict, names: tuple[str, ...]):
    """Hold ``out_dir``'s lock and yield ``stage(name)``, a temporary path for the output ``out_dir/name``.

    ``names`` are regular expressions that match the whole name of every top-level output the command can
    write, a directory's name followed by ``/``. Once the block completes, ``resolved`` is staged as
    ``config.txt``, each ``config.txt`` is removed, then every entry matching ``names`` that this run did
    not stage, and every staged file is renamed into place, each ``config.txt`` last: a ``config.txt`` is
    absent or describes every file beside it. Until then the earlier outputs stay as they were; no
    temporary file outlives the block. An ``out_dir`` that is the ``--data`` directory or the
    checkpoint's, whose files the commit would replace, is refused first.
    """
    for source in (resolved.get("data"), resolved.get("checkpoint") and Path(resolved["checkpoint"]).parent):
        if source and out_dir.resolve() == Path(source).resolve():
            raise ValueError(f"output directory {out_dir} is the input directory {source}; choose another --out")
    staged = {}
    names = (*names, r"config\.txt")

    def declared(entry: str) -> bool:
        return any(re.fullmatch(pattern, entry) for pattern in names)

    def stage(name: str) -> Path:
        top, sep, _ = name.partition("/")
        if not declared(top + sep):
            raise RuntimeError(f"{name} is not among the declared outputs {names}")
        path = out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        return staged.setdefault(path, path.with_name(f".{path.name}.tmp"))

    with output_lock(out_dir):
        try:
            yield stage
            _write_text(stage("config.txt"), _config_text(resolved))
            configs = [path for path in staged if path.name == "config.txt"]
            for path in configs:
                path.unlink(missing_ok=True)
            written = {path.relative_to(out_dir).parts[0] for path in staged}
            for stale in list(out_dir.iterdir()):
                is_dir = stale.is_dir() and not stale.is_symlink()
                if stale.name not in written and declared(stale.name + "/" * is_dir):
                    shutil.rmtree(stale) if is_dir else stale.unlink()
            for path in sorted(staged, key=lambda path: path in configs):
                os.replace(staged[path], path)
        finally:
            for tmp in staged.values():
                tmp.unlink(missing_ok=True)


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _require(resolved: dict, *keys: str) -> None:
    missing = [k for k in keys if not resolved.get(k)]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + k for k in missing)}")


# ---------------------------------------------------------------------------
# Shared loading helpers
# ---------------------------------------------------------------------------

SPLITS = ("train", "valid", "test")


def _load_split_dir(data_dir: Path, *names: str) -> list[tuple[Record, ...]]:
    """The records of each named split of a prepared directory; the other splits' files must exist, unread."""
    for name in SPLITS:
        if not (data_dir / f"{name}.jsonl").exists():
            raise ValueError(f"{data_dir} does not look like a prepared data directory (missing {name}.jsonl)")
    return [tuple(load_records(data_dir / f"{name}.jsonl")) for name in names]


def _load_vocab(path: Path) -> Vocabulary:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
        tables = [obj.get(key) if isinstance(obj, dict) else None for key in ("tokens", "users", "items")]
        if not all(isinstance(t, list) and all(isinstance(name, str) for name in t) for t in tables):
            raise ValueError('expected "tokens", "users" and "items" lists of strings')
        return Vocabulary(*map(tuple, tables))
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: {err}") from None


def _save_vocab(path: Path, vocab: Vocabulary) -> None:
    _write_json(path, {
        "tokens": list(vocab.id_to_token),
        "users": list(vocab.id_to_user),
        "items": list(vocab.id_to_item),
    })


def _model_config(resolved: dict, vocab: Vocabulary) -> ModelConfig:
    return config_for_vocab(vocab, **{key: resolved[key] for key in MODEL_KEYS})


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(**{key: resolved[key] for key in TRAIN_KEYS})


def _aligned_explanations(path: Path, references: tuple[Record, ...]) -> list[str]:
    """The explanations in a generated file whose rows match the test split's (user, item) one by one."""
    rows = []
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as err:  # also over-long integers and deep nesting
            raise ValueError(f"{path}: line {lineno}: invalid JSON ({getattr(err, 'msg', err)})") from None
        if not isinstance(row, dict) or not isinstance(row.get("explanation"), str):
            raise ValueError(f"{path}: line {lineno}: expected an object with a string \"explanation\"")
        rows.append((lineno, row))
    if not rows:
        raise ValueError(f"{path}: no generated explanations found")
    if len(rows) != len(references):
        raise ValueError(f"{path}: {len(rows)} generated explanations vs {len(references)} test records")
    for (lineno, row), rec in zip(rows, references):
        # Read as records read theirs: a present value as its str(), so 5 aligns with "5".
        ids = tuple(str(row[key]) if key in row else None for key in ("user", "item"))
        if ids != (rec.user, rec.item):
            raise ValueError(
                f"{path}: line {lineno}: generated row for ({row.get('user')!r}, {row.get('item')!r}) "
                f"does not align with test record ({rec.user!r}, {rec.item!r})")
    return [row["explanation"] for _, row in rows]


def _score(data_dir: Path, test: tuple[Record, ...], texts: list[str], lex: Lexicon | None) -> EvaluationReport:
    """The report on ``texts`` against the test records; an unmet metric precondition names ``test.jsonl``."""
    pairs = [EvaluationPair.from_texts(rec.explanation, text, rec.features) for rec, text in zip(test, texts)]
    try:
        return build_report(pairs, lex)
    except ValueError as err:  # the metrics' preconditions are on the test records, e.g. features to match
        raise ValueError(f"{data_dir / 'test.jsonl'}: {err}") from None


def _write_report(resolved: dict, stem: str, payload: dict, table: str) -> None:
    """Commit ``payload`` as ``stem.json`` and ``table`` as ``stem.txt`` to ``--out``, then print the table."""
    with _outputs(Path(resolved["out"]), resolved, (rf"{stem}\.json", rf"{stem}\.txt")) as stage:
        _write_json(stage(f"{stem}.json"), payload)
        _write_text(stage(f"{stem}.txt"), table)
    print(table, end="")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_prepare(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    _require(resolved, "records", "lexicon", "out")
    out_dir = Path(resolved["out"])
    records = load_records(resolved["records"])
    lex = load_lexicon(resolved["lexicon"])
    tagged = assign_emotion_tags(records, lex)
    split = split_dataset(tagged, resolved["seed"])
    vocab = build_vocabulary(list(split.train), resolved["vocab_cap"])

    users = {r.user for r in tagged}
    items = {r.item for r in tagged}
    features = {f for r in tagged for f in r.features}
    words = [len(tokenize(r.explanation)) for r in tagged]
    stats = {
        "users": len(users),
        "items": len(items),
        "features": len(features),
        "records": len(tagged),
        "words_per_explanation": sum(words) / len(words),
    }

    names = (*(rf"{name}\.jsonl" for name in SPLITS), r"vocab\.json", r"stats\.json")
    with _outputs(out_dir, resolved, names) as stage:
        for name in SPLITS:
            save_records(stage(f"{name}.jsonl"), list(getattr(split, name)))
        _save_vocab(stage("vocab.json"), vocab)
        _write_json(stage("stats.json"), stats)

    print(f"#users {stats['users']}")
    print(f"#items {stats['items']}")
    print(f"#features {stats['features']}")
    print(f"#records {stats['records']}")
    print(f"words/explanation {stats['words_per_explanation']:.2f}")
    return 0


def _train_once(resolved: dict, split: DatasetSplit, lex: Lexicon, vocab: Vocabulary, stage, run: str = "") -> float:
    """Train one model; stage its checkpoint, vocabulary and history under ``run``, "" or "runR/"."""
    params, history = train(_model_config(resolved, vocab), _train_config(resolved), split, lex, vocab)
    nm.save_checkpoint(stage(f"{run}model.emot"), params.all())
    _save_vocab(stage(f"{run}vocab.json"), vocab)
    _write_json(stage(f"{run}history.json"), history.to_dict())
    best = history.epochs[history.best_epoch]
    print(f"{Path(resolved['out']) / run}: best epoch {history.best_epoch} valid L_total {best.valid_total:.4f}")
    return best.valid_total


def cmd_train(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    _require(resolved, "data", "lexicon", "out")
    data_dir = Path(resolved["data"])
    out_dir = Path(resolved["out"])
    lex = load_lexicon(resolved["lexicon"])
    base_split = DatasetSplit(*_load_split_dir(data_dir, *SPLITS))
    n_repeats = resolved["splits"]
    # One run trains with the prepared vocabulary; each of several splits builds its own.
    vocab = _load_vocab(data_dir / "vocab.json") if n_repeats <= 1 else None

    names = (r"model\.emot", r"vocab\.json", r"history\.json", r"run\d+/", r"summary\.json")
    with _outputs(out_dir, resolved, names) as stage:
        if vocab is not None:
            _train_once(resolved, base_split, lex, vocab, stage)
        else:
            pool = list(base_split.records)
            finals = []
            for r in range(n_repeats):
                run = {**resolved, "seed": resolved["seed"] + r}
                split_r = split_dataset(pool, run["seed"])
                vocab_r = build_vocabulary(list(split_r.train), resolved["vocab_cap"])
                finals.append(_train_once(run, split_r, lex, vocab_r, stage, f"run{r}/"))
                _write_text(stage(f"run{r}/config.txt"), _config_text(run))
            _write_json(stage("summary.json"), {
                "runs": finals,
                "mean_valid_total": float(np.mean(finals)),
                "std_valid_total": float(np.std(finals)),
            })
    return 0


def _beside_checkpoint(checkpoint: Path, name: str) -> Path:
    path = checkpoint.parent / name
    if not path.exists():
        raise ValueError(f"cannot find {path} next to the checkpoint")
    return path


def cmd_generate(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    _require(resolved, "checkpoint", "data", "lexicon", "out")
    checkpoint = Path(resolved["checkpoint"])
    lex = load_lexicon(resolved["lexicon"])
    # The model keys of the checkpoint's config.txt rank above the profile and below the --config file and flags.
    config_path = _beside_checkpoint(checkpoint, "config.txt")
    stored = _read_config_file(str(config_path))
    resolved = resolve_config(args, {key: stored[key] for key in MODEL_KEYS if key in stored}, str(config_path))
    out_dir = Path(resolved["out"])
    vocab_path = _beside_checkpoint(checkpoint, "vocab.json")
    vocab = _load_vocab(vocab_path)
    state = nm.load_checkpoint(checkpoint)
    try:
        config = _model_config(resolved, vocab)
        params = ModelParams(config, state=state)
    except ValueError as err:
        sources = f"{args.config}, {config_path}" if args.config else config_path
        raise ValueError(f"{checkpoint}: {err} (model built from {sources} and {vocab_path})") from None

    (test,) = _load_split_dir(Path(resolved["data"]), "test")
    queries = record_queries(test, lex, resolved["max_tokens"], resolved.get("emotion"))
    results = batch_generate(params, config, vocab, lex, queries)
    done = [r for r in results if r.tokens is not None]
    failures = len(results) - len(done)
    summary = {
        "queries": len(results),
        "failed": failures,
        "tokens": sum(len(r.tokens) for r in done),
        "stop": {reason: sum(r.stop == reason for r in done) for reason in ("eos", "max_tokens", "length_budget")},
    }

    with (_outputs(out_dir, resolved, (r"generated\.jsonl", r"generation\.json")) as stage,
          open(stage("generated.jsonl"), "w", encoding="utf-8") as fh):
        for query, result in zip(queries, results):
            row = {"user": query.user, "item": query.item, "requested_emotion": query.emotion}
            if result.tokens is None:
                row["explanation"] = ""
                row["error"] = result.error
            else:
                row["explanation"] = " ".join(result.tokens)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
        _write_json(stage("generation.json"), summary)
    print(f"generated {len(results)} explanations ({failures} failed) -> {out_dir / 'generated.jsonl'}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    _require(resolved, "generated", "data", "out")
    data_dir = Path(resolved["data"])
    (test,) = _load_split_dir(data_dir, "test")
    texts = _aligned_explanations(Path(resolved["generated"]), test)
    lex = load_lexicon(resolved["lexicon"]) if resolved.get("lexicon") else None
    report = _score(data_dir, test, texts, lex)
    _write_report(resolved, "report", report_to_dict(report), report_table([("generated", report)]))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    _require(resolved, "generated", "data", "lexicon", "out")
    lex = load_lexicon(resolved["lexicon"])
    (test,) = _load_split_dir(Path(resolved["data"]), "test")
    audit = emotion_audit([rec.explanation for rec in test],
                          _aligned_explanations(Path(resolved["generated"]), test), lex)
    payload = {"audit": audit_to_dict(audit)}

    debias_column = None
    if resolved.get("baseline"):
        base_texts = _aligned_explanations(Path(resolved["baseline"]), test)
        base_audit = compare_distributions(audit.gt_distribution, explanation_distribution(base_texts, lex))
        debias_column = {}
        for k, name in enumerate(CATEGORIES):
            gt_pct = 100.0 * audit.gt_distribution[k]
            if gt_pct <= 0:
                debias_column[name] = None
            else:
                debias_column[name] = debiasing_score(
                    gt_pct, 100.0 * base_audit.gen_distribution[k], 100.0 * audit.gen_distribution[k])
        payload["baseline_audit"] = audit_to_dict(base_audit)
        payload["debiasing"] = debias_column

    if getattr(args, "reference_check", False):
        rows, warnings = verify_reference_debiasing()
        payload["reference_check"] = rows
        payload["reference_warnings"] = warnings
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)

    _write_report(resolved, "audit", payload, audit_table(audit, debias_column))
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    resolved = resolve_config(args)
    _require(resolved, "data", "lexicon", "out")
    data_dir = Path(resolved["data"])
    lex = load_lexicon(resolved["lexicon"])
    split = DatasetSplit(*_load_split_dir(data_dir, *SPLITS))
    # Every cell is scored against the test records: check them before any cell trains.
    _score(data_dir, split.test, [rec.explanation for rec in split.test], lex)
    vocab = _load_vocab(data_dir / "vocab.json")
    rows = ablation_grid(
        _model_config(resolved, vocab),
        _train_config(resolved),
        split, lex, vocab, max_tokens=resolved["max_tokens"],
    )

    lines = ["loss_setting      intensity  " + "  ".join(f"{c:>7}" for c in REPORT_COLUMNS)]
    for row in rows:
        lines.append(f"{row['loss_setting']:<16}  {row['intensity']:>9.1f}  "
                     + "  ".join(f"{row[key]:7.2f}" for key in REPORT_KEYS))
    _write_report(resolved, "ablation", {"cells": rows}, "\n".join(lines) + "\n")
    return 0


GRADCHECK_WORDS = ("bar", "lobby", "nice", "pool", "quiet", "room", "spa", "view", "walk", "warm")
# gradcheck's model is tiny unless its config file or flags say otherwise.
GRADCHECK_SIZES = {"max_len": 8, "embed_dim": 8, "ffn_dim": 16}


def cmd_gradcheck(args: argparse.Namespace) -> int:
    resolved = resolve_config(args, GRADCHECK_SIZES)
    vocab = Vocabulary(id_to_token=SPECIAL_TOKENS + GRADCHECK_WORDS,
                       id_to_user=("u000", "u001"), id_to_item=("i000", "i001"))
    config = _model_config(resolved, vocab)
    lex = fixture_lexicon()
    record = Record(user="u000", item="i001", features=("lobby",),
                    explanation="nice warm bar", emotion="happy")
    example = encode_example(record, vocab, config.max_len)
    vnrc = emotion_input_matrix(example, vocab, lex)
    params = ModelParams(config, resolved["seed"])

    error = nm.grad_check(
        lambda: total_loss(example, params, config, vnrc)[0],
        params.all(),
        n_samples=resolved["grad_samples"],
        seed=resolved["seed"],
    )
    print(f"gradcheck: max relative error {error:.3e} over >= {resolved['grad_samples']} coordinates")
    if resolved.get("out"):
        with _outputs(Path(resolved["out"]), resolved, (r"gradcheck\.json",)) as stage:
            _write_json(stage("gradcheck.json"), {
                "max_relative_error": error, "threshold": 1e-3, "passed": error < 1e-3})
    if error >= 1e-3:
        print("gradcheck: FAIL (threshold 1e-3)", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_typed(sub: argparse.ArgumentParser, *keys: str, **kwargs) -> None:
    """One ``--key-name`` flag per key, parsed as the key's type in ``KEY_TYPES``."""
    for key in keys:
        sub.add_argument("--" + key.replace("_", "-"), dest=key, type=KEY_TYPES[key], **kwargs)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--profile", choices=sorted(PROFILES), help="configuration profile")
    _add_typed(sub, "seed")
    sub.add_argument("--out", help="output directory")
    _add_typed(sub, "intensity", "c1", "c2")
    sub.add_argument("--records", help="JSON-lines record file")
    sub.add_argument("--lexicon", help="tab-separated lexicon file")
    _add_typed(sub, "splits", help="number of repeated random splits")
    _add_typed(sub, "max_len", "embed_dim", "ffn_dim", "attention_heads", "batch_size", "learning_rate",
               "clip", "max_epochs", "patience", "max_tokens", "vocab_cap")
    sub.add_argument("--mask-emotion-tag", dest="mask_emotion_tag", action="store_const", const=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emoexplain",
        description="Emotion-aware explanation generation for recommender systems.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    prepare = subs.add_parser("prepare", help="split, tag and encode a record corpus")
    prepare.set_defaults(func=cmd_prepare)

    train_cmd = subs.add_parser("train", help="train on a prepared data directory")
    train_cmd.set_defaults(func=cmd_train)

    generate = subs.add_parser("generate", help="greedy-generate explanations for the test split")
    generate.add_argument("--checkpoint", help="trained checkpoint (model.emot)")
    generate.add_argument("--emotion", choices=CATEGORIES, help="override the requested emotion tag")
    generate.set_defaults(func=cmd_generate)

    evaluate = subs.add_parser("evaluate", help="score generated explanations against the test split")
    evaluate.add_argument("--generated", help="generated.jsonl to score")
    evaluate.set_defaults(func=cmd_evaluate)

    audit = subs.add_parser("audit", help="compare emotion distributions of generated vs ground truth")
    audit.add_argument("--generated", help="generated.jsonl to audit")
    audit.add_argument("--baseline", help="baseline generated.jsonl for the debiasing column")
    audit.add_argument("--reference-check", action="store_true",
                       help="recompute the published reference debiasing tables and report mismatches")
    audit.set_defaults(func=cmd_audit)

    ablate = subs.add_parser("ablate", help="run the 3x3 loss-setting x intensity ablation grid")
    ablate.set_defaults(func=cmd_ablate)

    gradcheck = subs.add_parser("gradcheck", help="finite-difference check of the full loss gradient")
    _add_typed(gradcheck, "grad_samples")
    gradcheck.set_defaults(func=cmd_gradcheck)

    for sub in (prepare, train_cmd, generate, evaluate, audit, ablate, gradcheck):
        _add_common(sub)
        if sub not in (prepare, gradcheck):
            sub.add_argument("--data", help="directory produced by prepare")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FloatingPointError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
