"""A tiny desk ``train`` is pinned byte for byte: its checkpoint's sha256 and its ``history.json``.

Every trained weight rests on every model constant and every backward rule,
so a change to any of them shows here even when no semantic test moves.  The
pins hold for the numpy version and the single BLAS thread that CI pins.  To
recapture them, only when training arithmetic is meant to change::

    PYTHONPATH=src python -m tests.test_trained_bytes tests/golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from emoexplain import cli
from emoexplain.corpus import generate_synthetic_corpus, save_records
from emoexplain.fixtures import pool_corpus_spec

from .conftest import FIXTURE_LEXICON_PATH

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CHECKPOINT_DIGEST = "model.emot.sha256"


def train_desk(root: Path) -> Path:
    """Prepare a 60-record corpus and train the desk profile on it for 3 epochs; returns the run directory."""
    spec = pool_corpus_spec(5, 6, 60, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15), min_words=3, max_words=6)
    save_records(root / "records.jsonl", generate_synthetic_corpus(spec, seed=7))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["prepare", "--records", str(root / "records.jsonl"), "--lexicon", str(FIXTURE_LEXICON_PATH),
                         "--out", str(root / "data"), "--seed", "7"]) == 0
        assert cli.main(["train", "--data", str(root / "data"), "--lexicon", str(FIXTURE_LEXICON_PATH),
                         "--out", str(root / "run"), "--profile", "desk", "--seed", "7",
                         "--max-epochs", "3", "--patience", "3"]) == 0
    return root / "run"


def checkpoint_digest(run: Path) -> str:
    return hashlib.sha256((run / "model.emot").read_bytes()).hexdigest() + "\n"


@pytest.fixture(scope="module")
def run(tmp_path_factory) -> Path:
    return train_desk(tmp_path_factory.mktemp("desk"))


def test_history_equals_the_golden_bytes(run):
    assert (run / "history.json").read_bytes() == (GOLDEN_DIR / "history.json").read_bytes()


def test_checkpoint_equals_the_golden_digest(run):
    assert checkpoint_digest(run) == (GOLDEN_DIR / CHECKPOINT_DIGEST).read_text(encoding="utf-8")


if __name__ == "__main__":
    dest = Path(sys.argv[1])
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        trained = train_desk(Path(scratch))
        shutil.copyfile(trained / "history.json", dest / "history.json")
        (dest / CHECKPOINT_DIGEST).write_text(checkpoint_digest(trained), encoding="utf-8")
