"""The scoring commands, ``generate``, ``evaluate`` and ``audit``, read the test split alone.

``run_pipeline`` runs prepare, train, generate, evaluate and audit --baseline
on a fixture corpus.  Its scored outputs are pinned byte for byte to
``tests/golden/``, which holds the outputs of the same pipeline run by the
code from before these commands stopped reading ``train.jsonl`` and
``valid.jsonl``.  To recapture them, only when an output is meant to change::

    PYTHONPATH=src python -m tests.test_cli_scoring tests/golden
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from emoexplain import cli, metrics
from emoexplain.corpus import generate_synthetic_corpus, load_records, save_records
from emoexplain.fixtures import pool_corpus_spec

from .conftest import FIXTURE_LEXICON_PATH

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = {
    "generate": ("generated.jsonl", "generation.json"),
    "evaluate": ("report.json", "report.txt"),
    "audit": ("audit.json", "audit.txt"),
}
SCORING = tuple(GOLDEN)


def _main(argv) -> tuple[int, str]:
    """``cli.main`` on ``argv``, with its exit code and what it printed to stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, stderr.getvalue()


def scoring_argv(root: Path, command: str, data: Path, out: Path) -> list:
    """The pipeline's ``command`` on the prepared directory ``data``, writing to ``out``."""
    common = ["--data", data, "--lexicon", FIXTURE_LEXICON_PATH, "--out", out, "--seed", "41"]
    if command == "generate":
        return [command, *common, "--checkpoint", root / "run" / "model.emot", "--max-tokens", "6"]
    generated = root / "generate" / "generated.jsonl"
    if command == "evaluate":
        return [command, *common, "--generated", generated]
    return [command, *common, "--generated", generated, "--baseline", root / "baseline.jsonl"]


def run_pipeline(root: Path) -> None:
    """Prepare, train and run each scoring command into ``root/<command>``."""
    spec = pool_corpus_spec(6, 8, 100, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15), min_words=3, max_words=6)
    save_records(root / "records.jsonl", generate_synthetic_corpus(spec, seed=41))
    data = root / "data"
    assert _main(["prepare", "--records", root / "records.jsonl", "--lexicon", FIXTURE_LEXICON_PATH,
                  "--out", data, "--seed", "41"])[0] == 0
    # One epoch at a small learning rate keeps the model near its seeded init, which decodes to words.
    assert _main(["train", "--data", data, "--lexicon", FIXTURE_LEXICON_PATH, "--out", root / "run",
                  "--seed", "41", "--embed-dim", "16", "--ffn-dim", "32", "--batch-size", "8",
                  "--max-epochs", "1", "--patience", "1", "--learning-rate", "0.05"])[0] == 0
    # The baseline explains each test pair with a training record's explanation.
    train = load_records(data / "train.jsonl")
    (root / "baseline.jsonl").write_text("".join(
        json.dumps({"user": rec.user, "item": rec.item, "explanation": other.explanation}) + "\n"
        for rec, other in zip(load_records(data / "test.jsonl"), train)), encoding="utf-8")
    for command in SCORING:
        code, err = _main(scoring_argv(root, command, data, root / command))
        assert code == 0, err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("scoring")
    run_pipeline(root)
    return root


@pytest.mark.parametrize("command,name", [(c, n) for c, names in GOLDEN.items() for n in names])
def test_outputs_equal_the_golden_bytes(pipeline, command, name):
    assert (pipeline / command / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("command", SCORING)
def test_scoring_reads_only_test_jsonl(pipeline, tmp_path, monkeypatch, command):
    opened = []
    real = cli.load_records

    def spy(path):
        opened.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(cli, "load_records", spy)
    code, err = _main(scoring_argv(pipeline, command, pipeline / "data", tmp_path / "out"))
    assert code == 0, err
    assert opened == ["test.jsonl"]


@pytest.mark.parametrize("command", SCORING)
def test_damaged_train_and_valid_do_not_change_scoring(pipeline, tmp_path, command):
    data = shutil.copytree(pipeline / "data", tmp_path / "data")
    (data / "train.jsonl").write_bytes(b"\xff not records\n")
    (data / "valid.jsonl").write_text("[1, 2]\n", encoding="utf-8")
    code, err = _main(scoring_argv(pipeline, command, data, tmp_path / "out"))
    assert code == 0, err
    for name in GOLDEN[command]:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("missing", ["train.jsonl", "valid.jsonl", "test.jsonl"])
@pytest.mark.parametrize("command", SCORING)
def test_missing_split_file_exits_2_with_the_same_message(pipeline, tmp_path, command, missing):
    data = shutil.copytree(pipeline / "data", tmp_path / "data")
    (data / missing).unlink()
    code, err = _main(scoring_argv(pipeline, command, data, tmp_path / "out"))
    assert code == 2
    assert f"error: {data} does not look like a prepared data directory (missing {missing})\n" == err


@pytest.mark.parametrize("command", SCORING)
def test_malformed_test_line_exits_2_naming_path_and_line(pipeline, tmp_path, command):
    data = shutil.copytree(pipeline / "data", tmp_path / "data")
    lines = (data / "test.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(2, '{"user": "u000", "item": "i000", "features": "pool", "explanation": "nice"}\n')
    (data / "test.jsonl").write_text("".join(lines), encoding="utf-8")
    code, err = _main(scoring_argv(pipeline, command, data, tmp_path / "out"))
    assert code == 2
    assert f"{data / 'test.jsonl'}: line 3: " in err


def _renumbered(pipeline: Path, tmp_path: Path, bad_row: int | None = None) -> tuple[Path, Path, Path]:
    """The pipeline's test split with ids "0", "100", "1", "101", ..., and its generated and
    baseline files with the same ids as JSON numbers; ``bad_row``'s generated item is 999."""
    data = shutil.copytree(pipeline / "data", tmp_path / "data")
    save_records(data / "test.jsonl", [replace(rec, user=str(k), item=str(100 + k))
                                       for k, rec in enumerate(load_records(data / "test.jsonl"))])
    paths = []
    for source in (pipeline / "generate" / "generated.jsonl", pipeline / "baseline.jsonl"):
        rows = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
        for k, row in enumerate(rows):
            row.update(user=k, item=999 if k == bad_row and source.name == "generated.jsonl" else 100 + k)
        paths.append(tmp_path / source.name)
        paths[-1].write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return data, *paths


@pytest.mark.parametrize("command", ["evaluate", "audit"])
def test_generated_numeric_ids_align_as_records_read_them(pipeline, tmp_path, command):
    data, generated, baseline = _renumbered(pipeline, tmp_path)
    extra = ["--baseline", baseline] if command == "audit" else []
    code, err = _main([command, "--data", data, "--generated", generated, "--lexicon", FIXTURE_LEXICON_PATH,
                       "--out", tmp_path / "out", "--seed", "41", *extra])
    assert code == 0, err
    for name in GOLDEN[command]:
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("command", ["evaluate", "audit"])
def test_generated_id_mismatch_exits_2_naming_both_values(pipeline, tmp_path, command):
    data, generated, _ = _renumbered(pipeline, tmp_path, bad_row=3)
    code, err = _main([command, "--data", data, "--generated", generated, "--lexicon", FIXTURE_LEXICON_PATH,
                       "--out", tmp_path / "out"])
    assert code == 2
    assert f"{generated}: line 4: generated row for (3, 999) does not align with test record ('3', '103')" in err


@pytest.mark.parametrize("command", ["evaluate", "audit"])
def test_generated_id_mismatch_counts_the_blank_lines_before_it(pipeline, tmp_path, command):
    data, generated, _ = _renumbered(pipeline, tmp_path, bad_row=3)
    lines = generated.read_text(encoding="utf-8").splitlines(keepends=True)
    generated.write_text("".join([*lines[:3], "\n", *lines[3:]]), encoding="utf-8")
    code, err = _main([command, "--data", data, "--generated", generated, "--lexicon", FIXTURE_LEXICON_PATH,
                       "--out", tmp_path / "out"])
    assert code == 2
    assert f"{generated}: line 5: generated row for (3, 999) does not align with test record ('3', '103')" in err


def test_audit_with_baseline_classifies_each_explanation_once(pipeline, tmp_path, monkeypatch):
    calls = []
    real = metrics.classify_explanation

    def counting(lex, tokens, *args):
        calls.append(tokens)
        return real(lex, tokens, *args)

    monkeypatch.setattr(metrics, "classify_explanation", counting)
    code, err = _main(scoring_argv(pipeline, "audit", pipeline / "data", tmp_path / "out"))
    assert code == 0, err
    # ground truth, generated and baseline, once each
    assert len(calls) == 3 * len(load_records(pipeline / "data" / "test.jsonl"))


if __name__ == "__main__":
    dest = Path(sys.argv[1])
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        run_pipeline(Path(scratch))
        for command, names in GOLDEN.items():
            for name in names:
                shutil.copyfile(Path(scratch) / command / name, dest / name)
