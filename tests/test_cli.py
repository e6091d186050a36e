from __future__ import annotations

import fcntl
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from emoexplain import cli
from emoexplain import numerics as nm
from emoexplain.cli import main
from emoexplain.corpus import generate_synthetic_corpus, load_records, save_records, tokenize
from emoexplain.fixtures import pool_corpus_spec

from .conftest import FIXTURE_LEXICON_PATH

BALANCED = (0.25, 0.15, 0.15, 0.15, 0.15, 0.15)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "records.jsonl"
    spec = pool_corpus_spec(5, 6, 30, BALANCED, min_words=3, max_words=5)
    save_records(path, generate_synthetic_corpus(spec, seed=23))
    return path


@pytest.fixture(scope="module")
def prepared_dir(tmp_path_factory, corpus_file) -> Path:
    out = tmp_path_factory.mktemp("prep") / "out"
    code = main([
        "prepare", "--records", str(corpus_file), "--lexicon", str(FIXTURE_LEXICON_PATH),
        "--out", str(out), "--seed", "23",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, prepared_dir) -> Path:
    out = tmp_path_factory.mktemp("train") / "run"
    code = main([
        "train", "--data", str(prepared_dir), "--lexicon", str(FIXTURE_LEXICON_PATH),
        "--out", str(out), "--seed", "23", "--embed-dim", "16", "--ffn-dim", "32",
        "--batch-size", "8", "--max-epochs", "2", "--patience", "2",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def generated_dir(tmp_path_factory, prepared_dir, trained_dir) -> Path:
    out = tmp_path_factory.mktemp("gen") / "out"
    code = main([
        "generate", "--data", str(prepared_dir), "--checkpoint", str(trained_dir / "model.emot"),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "23",
        "--max-tokens", "6",
    ])
    assert code == 0
    return out


def test_prepare_outputs(prepared_dir, corpus_file, capsys):
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.json", "stats.json", "config.txt"):
        assert (prepared_dir / name).exists(), name
    stats = json.loads((prepared_dir / "stats.json").read_text())
    assert set(stats) == {"users", "items", "features", "records", "words_per_explanation"}

    # recount independently from the raw corpus
    records = load_records(corpus_file)
    assert stats["records"] == len(records)
    assert stats["users"] == len({r.user for r in records})
    assert stats["items"] == len({r.item for r in records})
    assert stats["features"] == len({f for r in records for f in r.features})
    words = [len(tokenize(r.explanation)) for r in records]
    assert stats["words_per_explanation"] == pytest.approx(sum(words) / len(words))


def test_prepare_rerun_is_byte_identical(tmp_path, corpus_file, prepared_dir):
    again = tmp_path / "again"
    code = main([
        "prepare", "--records", str(corpus_file), "--lexicon", str(FIXTURE_LEXICON_PATH),
        "--out", str(again), "--seed", "23",
    ])
    assert code == 0
    for name in ("train.jsonl", "valid.jsonl", "test.jsonl", "vocab.json", "stats.json"):
        assert (again / name).read_bytes() == (prepared_dir / name).read_bytes(), name


def test_prepare_invalid_records_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"user": "u", "item": "i"}\n', encoding="utf-8")
    code = main([
        "prepare", "--records", str(bad), "--lexicon", str(FIXTURE_LEXICON_PATH),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_train_outputs(trained_dir):
    assert (trained_dir / "model.emot").read_bytes()[:4] == b"EMOT"
    history = json.loads((trained_dir / "history.json").read_text())
    assert history["epochs"]
    assert "initial_train" in history
    config_text = (trained_dir / "config.txt").read_text()
    assert "embed_dim=16" in config_text
    assert "seed=23" in config_text


def test_generate_outputs_align_with_test_split(generated_dir, prepared_dir):
    rows = [json.loads(line) for line in (generated_dir / "generated.jsonl").read_text().splitlines()]
    refs = load_records(prepared_dir / "test.jsonl")
    assert len(rows) == len(refs)
    for row, rec in zip(rows, refs):
        assert row["user"] == rec.user
        assert row["item"] == rec.item
        assert set(row) <= {"user", "item", "explanation", "requested_emotion", "error"}


def test_generate_emotion_override(tmp_path, prepared_dir, trained_dir):
    out = tmp_path / "gen"
    code = main([
        "generate", "--data", str(prepared_dir), "--checkpoint", str(trained_dir / "model.emot"),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "23",
        "--emotion", "sad", "--max-tokens", "6",
    ])
    assert code == 0
    rows = [json.loads(line) for line in (out / "generated.jsonl").read_text().splitlines()]
    assert all(row["requested_emotion"] == "sad" for row in rows)


def test_evaluate_writes_report(tmp_path, prepared_dir, generated_dir):
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--data", str(prepared_dir), "--generated", str(generated_dir / "generated.jsonl"),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "23",
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("fmr", "fcr", "div", "usr", "bleu1", "bleu4", "rouge1_f", "rouge2_f", "emotion_audit"):
        assert key in report
    assert (out / "report.txt").read_text().startswith("#")


def test_evaluate_mismatched_lengths_exits_2(tmp_path, prepared_dir, generated_dir):
    clipped = tmp_path / "clipped.jsonl"
    lines = (generated_dir / "generated.jsonl").read_text().splitlines()
    clipped.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    code = main([
        "evaluate", "--data", str(prepared_dir), "--generated", str(clipped),
        "--out", str(tmp_path / "eval"), "--seed", "23",
    ])
    assert code == 2


def test_audit_with_baseline_and_reference_check(tmp_path, prepared_dir, generated_dir, capsys):
    out = tmp_path / "audit"
    code = main([
        "audit", "--data", str(prepared_dir), "--generated", str(generated_dir / "generated.jsonl"),
        "--baseline", str(generated_dir / "generated.jsonl"),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "23",
        "--reference-check",
    ])
    assert code == 0
    payload = json.loads((out / "audit.json").read_text())
    assert "audit" in payload and "debiasing" in payload and "reference_check" in payload
    # baseline == ours, so every defined debiasing entry is 0
    for value in payload["debiasing"].values():
        if value is not None:
            assert value == 0.0
    assert len(payload["reference_warnings"]) == 2
    captured = capsys.readouterr()
    assert "warning: text2emotion/happy" in captured.err
    assert "warning: text2emotion/sad" in captured.err


def test_unknown_config_key_exits_2(tmp_path, corpus_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("embed_dim=16\nnot_a_key=1\n", encoding="utf-8")
    code = main([
        "prepare", "--config", str(cfg), "--records", str(corpus_file),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "out"),
    ])
    assert code == 2


def test_config_file_flags_precedence(tmp_path, corpus_file):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nvocab_cap=17\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([
        "prepare", "--config", str(cfg), "--records", str(corpus_file),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "9",
    ])
    assert code == 0
    text = (out / "config.txt").read_text()
    assert "seed=9" in text        # flag wins over file
    assert "vocab_cap=17" in text  # file wins over defaults


def _prepare(corpus_file: Path, out: Path) -> int:
    return main(["prepare", "--records", str(corpus_file), "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out)])


def _is_locked(lock: Path) -> bool:
    """Whether some open file description holds an exclusive ``flock`` on ``lock``."""
    probe = os.open(lock, os.O_RDWR)
    try:
        fcntl.flock(probe, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return False
    except BlockingIOError:
        return True
    finally:
        os.close(probe)


def test_lock_file_blocks_concurrent_writers(tmp_path, corpus_file, capsys):
    """While another open file description holds the lock, a run exits 2 and writes nothing."""
    out = tmp_path / "out"
    out.mkdir()
    holder = os.open(out / ".lock", os.O_CREAT | os.O_RDWR)
    try:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert _prepare(corpus_file, out) == 2
        assert f"output directory {out} is locked by another run" in capsys.readouterr().err
        assert [entry.name for entry in out.iterdir()] == [".lock"]
    finally:
        os.close(holder)
    assert _prepare(corpus_file, out) == 0
    assert not (out / ".lock").exists()


def test_lock_file_is_gone_after_every_block(tmp_path):
    out = tmp_path / "out"
    with cli.output_lock(out):
        assert _is_locked(out / ".lock")
    assert not (out / ".lock").exists()
    with pytest.raises(RuntimeError, match="the block failed"):
        with cli.output_lock(out):
            raise RuntimeError("the block failed")
    assert not (out / ".lock").exists()


def test_a_killed_run_leaves_a_lock_that_never_blocks(tmp_path, corpus_file):
    out = tmp_path / "out"
    holder = ("import sys, time\nfrom pathlib import Path\nfrom emoexplain.cli import output_lock\n"
              "with output_lock(Path(sys.argv[1])):\n    print('held', flush=True)\n    time.sleep(600)\n")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen([sys.executable, "-c", holder, str(out)], stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert proc.stdout.readline() == "held\n"
        assert _prepare(corpus_file, out) == 2
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
    assert (out / ".lock").exists()  # the kill left the file; the kernel dropped the lock
    assert _prepare(corpus_file, out) == 0
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("content", ["", str(os.getpid())], ids=["empty", "live-pid"])
def test_a_lock_file_that_no_run_holds_never_blocks(tmp_path, corpus_file, content):
    """Whatever a lock file holds, even the pid of a live process, only a held ``flock`` blocks."""
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").write_text(content)
    assert _prepare(corpus_file, out) == 0
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("first_run_finishes", [False, True])
def test_two_runs_that_find_the_same_dead_lock_never_both_hold_it(tmp_path, monkeypatch, first_run_finishes):
    """Run B opens a lock file that no run holds, then run A takes it, and maybe finishes, before B locks
    it: B is refused while A holds the lock, and locks the file it creates anew once A has finished."""
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").touch()
    flock = fcntl.flock
    first = cli.output_lock(out)
    calls = []

    def interleaved(fd, operation):
        calls.append(fd)
        if len(calls) == 1:  # B has opened the file; A runs before B's flock
            first.__enter__()
            if first_run_finishes:
                first.__exit__(None, None, None)
        return flock(fd, operation)

    monkeypatch.setattr(fcntl, "flock", interleaved)
    if first_run_finishes:
        with cli.output_lock(out):
            assert len(calls) == 3  # B's first flock, A's, and B's on the new file
            assert _is_locked(out / ".lock")
        assert not (out / ".lock").exists()
    else:
        with pytest.raises(ValueError, match="is locked by another run"):
            with cli.output_lock(out):
                pass
        assert _is_locked(out / ".lock")  # A's lock is still in place
        first.__exit__(None, None, None)
    assert not (out / ".lock").exists()


def test_gradcheck_exits_zero(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_missing_required_flag_exits_2():
    assert main(["train", "--out", "/tmp/nowhere"]) == 2


def test_train_splits_repeat_flag(tmp_path, prepared_dir):
    out = tmp_path / "multi"
    code = main([
        "train", "--data", str(prepared_dir), "--lexicon", str(FIXTURE_LEXICON_PATH),
        "--out", str(out), "--seed", "23", "--splits", "2", "--embed-dim", "16",
        "--ffn-dim", "32", "--batch-size", "8", "--max-epochs", "1", "--patience", "1",
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["runs"]) == 2
    for r in range(2):
        assert (out / f"run{r}" / "model.emot").exists()
        assert (out / f"run{r}" / "vocab.json").exists()
        assert (out / f"run{r}" / "history.json").exists()
        assert f"seed={23 + r}\n" in (out / f"run{r}" / "config.txt").read_text()
    code = main([
        "generate", "--data", str(prepared_dir), "--checkpoint", str(out / "run0" / "model.emot"),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "gen"), "--max-tokens", "4",
    ])
    assert code == 0
    assert (tmp_path / "gen" / "generated.jsonl").exists()


def test_train_reproducible_from_resolved_config_alone(tmp_path, prepared_dir, trained_dir):
    out = tmp_path / "replay"
    code = main(["train", "--config", str(trained_dir / "config.txt"), "--out", str(out)])
    assert code == 0
    assert (out / "model.emot").read_bytes() == (trained_dir / "model.emot").read_bytes()
    assert (out / "history.json").read_bytes() == (trained_dir / "history.json").read_bytes()


def test_numeric_failure_exits_3(tmp_path, prepared_dir):
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "train", "--data", str(prepared_dir), "--lexicon", str(FIXTURE_LEXICON_PATH),
            "--out", str(tmp_path / "run"), "--seed", "23", "--embed-dim", "16", "--ffn-dim", "32",
            "--batch-size", "8", "--max-epochs", "3", "--patience", "3",
            "--learning-rate", "1e200",
        ])
    assert code == 3


def test_gradcheck_writes_report_when_out_given(tmp_path):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads((out / "gradcheck.json").read_text())
    assert payload["passed"] is True
    assert payload["max_relative_error"] < 1e-3
    assert (out / "config.txt").exists()


def _checkpoint_copy(trained_dir: Path, dest: Path, with_vocab: bool = True) -> Path:
    dest.mkdir()
    names = ("model.emot", "config.txt", "vocab.json") if with_vocab else ("model.emot", "config.txt")
    for name in names:
        (dest / name).write_bytes((trained_dir / name).read_bytes())
    return dest / "model.emot"


def test_generate_needs_vocab_beside_checkpoint(tmp_path, prepared_dir, trained_dir, capsys):
    checkpoint = _checkpoint_copy(trained_dir, tmp_path / "ckpt", with_vocab=False)
    code = main([
        "generate", "--data", str(prepared_dir), "--checkpoint", str(checkpoint),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "gen"),
    ])
    assert code == 2
    assert str(tmp_path / "ckpt" / "vocab.json") in capsys.readouterr().err


# (command, key, value, source). generate's --config file, whose error also names that file,
# and the checkpoint's config.txt are covered by the tests after this one.
NON_FINITE_CASES = [
    *((*case, source) for case in (
        ("gradcheck", "intensity", "nan"),
        ("gradcheck", "c2", "inf"),
        ("gradcheck", "c1", "-inf"),
        ("train", "learning_rate", "nan"),
        ("train", "clip", "inf"),
        ("train", "clip", "-inf"),
    ) for source in ("flag", "config")),
    ("generate", "intensity", "nan", "flag"),
]


@pytest.mark.parametrize("command,key,value,source", NON_FINITE_CASES)
def test_non_finite_float_exits_2_naming_the_field(tmp_path, prepared_dir, trained_dir, capsys,
                                                   command, key, value, source):
    lexicon = ["--lexicon", str(FIXTURE_LEXICON_PATH)]
    argv = {
        "gradcheck": ["gradcheck"],
        "train": ["train", "--data", str(prepared_dir), *lexicon, "--embed-dim", "8", "--ffn-dim", "16"],
        "generate": ["generate", "--data", str(prepared_dir), *lexicon,
                     "--checkpoint", str(trained_dir / "model.emot")],
    }[command]
    if source == "flag":
        argv.append(f"--{key.replace('_', '-')}={value}")
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n", encoding="utf-8")
        argv += ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"{key} must be a finite" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _generate_c2(tmp_path, prepared_dir, trained_dir, monkeypatch, config_text: str, *flags: str) -> list[float]:
    """The c2 of each model ``generate`` decodes with, given a ``--config`` file and ``flags``."""
    assert "c2=1.0\n" in (trained_dir / "config.txt").read_text(encoding="utf-8")
    used, real = [], cli.batch_generate

    def recording(params, config, *rest):
        used.append(config.c2)
        return real(params, config, *rest)

    monkeypatch.setattr(cli, "batch_generate", recording)
    cfg = tmp_path / "g.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    out = tmp_path / "gen"
    assert main(["generate", "--data", str(prepared_dir), "--checkpoint", str(trained_dir / "model.emot"),
                 "--lexicon", str(FIXTURE_LEXICON_PATH), "--config", str(cfg), *flags, "--out", str(out)]) == 0
    assert "c2=0.5\n" in (out / "config.txt").read_text(encoding="utf-8")
    return used


def test_generate_config_file_ranks_above_the_checkpoint_config(tmp_path, prepared_dir, trained_dir, monkeypatch):
    assert _generate_c2(tmp_path, prepared_dir, trained_dir, monkeypatch, "c2=0.5\nmax_tokens=3\n") == [0.5]


def test_generate_flag_ranks_above_the_checkpoint_config(tmp_path, prepared_dir, trained_dir, monkeypatch):
    assert _generate_c2(tmp_path, prepared_dir, trained_dir, monkeypatch, "max_tokens=3\n", "--c2", "0.5") == [0.5]


def test_generate_names_the_config_file_of_a_non_finite_model_key(tmp_path, prepared_dir, trained_dir, capsys):
    cfg = tmp_path / "g.cfg"
    cfg.write_text("intensity=nan\n", encoding="utf-8")
    out = tmp_path / "gen"
    assert main(["generate", "--data", str(prepared_dir), "--checkpoint", str(trained_dir / "model.emot"),
                 "--lexicon", str(FIXTURE_LEXICON_PATH), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "intensity must be a finite non-negative number, got nan" in err and str(cfg) in err
    assert not out.exists() or not any(out.iterdir())


def test_generate_refuses_a_checkpoint_with_more_layers_than_its_config(tmp_path, prepared_dir, trained_dir, capsys):
    assert "encoder_layers=2\n" in (trained_dir / "config.txt").read_text(encoding="utf-8")
    cfg = tmp_path / "g.cfg"
    cfg.write_text("encoder_layers=1\ndecoder_layers=1\n", encoding="utf-8")
    out = tmp_path / "gen"
    assert main(["generate", "--data", str(prepared_dir), "--checkpoint", str(trained_dir / "model.emot"),
                 "--lexicon", str(FIXTURE_LEXICON_PATH), "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint has parameter 'emotion_encoder.1.attn.wq'" in err
    assert str(trained_dir / "model.emot") in err and str(cfg) in err
    assert not out.exists() or not any(out.iterdir())


def test_generate_refuses_a_checkpoint_that_stores_a_parameter_twice(tmp_path, prepared_dir, trained_dir, capsys):
    checkpoint = _checkpoint_copy(trained_dir, tmp_path / "ckpt")
    params = [nm.Parameter(array, name) for name, array in nm.load_checkpoint(checkpoint).items()]
    nm.save_checkpoint(checkpoint, [*params, params[0]])
    out = tmp_path / "gen"
    assert main(["generate", "--data", str(prepared_dir), "--checkpoint", str(checkpoint),
                 "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{checkpoint}: parameter {params[0].name!r} is stored twice" in err
    assert not out.exists() or not any(out.iterdir())


def test_generate_refuses_a_non_finite_float_in_the_checkpoint_config(tmp_path, prepared_dir, trained_dir, capsys):
    checkpoint = _checkpoint_copy(trained_dir, tmp_path / "ckpt")
    config_path = tmp_path / "ckpt" / "config.txt"
    lines = config_path.read_text(encoding="utf-8").splitlines()
    config_path.write_text("".join(("c2=inf" if line.startswith("c2=") else line) + "\n" for line in lines),
                           encoding="utf-8")
    code = main([
        "generate", "--data", str(prepared_dir), "--checkpoint", str(checkpoint),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "gen"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "c2 must be a finite non-negative number, got inf" in err and str(config_path) in err


def test_generate_bounds_the_checkpoint_config_naming_it(tmp_path, prepared_dir, trained_dir, capsys):
    checkpoint = _checkpoint_copy(trained_dir, tmp_path / "ckpt")
    config_path = tmp_path / "ckpt" / "config.txt"
    lines = config_path.read_text(encoding="utf-8").splitlines()
    config_path.write_text("".join(("embed_dim=0" if line.startswith("embed_dim=") else line) + "\n"
                                   for line in lines), encoding="utf-8")
    out = tmp_path / "gen"
    assert main(["generate", "--data", str(prepared_dir), "--checkpoint", str(checkpoint),
                 "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out)]) == 2
    assert f"error: {config_path}: embed_dim must be a positive integer, got 0\n" == capsys.readouterr().err
    assert not out.exists()


def test_ablate_checks_the_test_split_before_training(tmp_path, prepared_dir, monkeypatch, capsys):
    from emoexplain import trainer

    data = shutil.copytree(prepared_dir, tmp_path / "data")
    records = load_records(data / "test.jsonl")
    save_records(data / "test.jsonl", [replace(records[0], features=("   ",)), *records[1:]])
    calls = []
    monkeypatch.setattr(trainer, "train", lambda *args: calls.append(args))
    assert main(["ablate", "--data", str(data), "--lexicon", str(FIXTURE_LEXICON_PATH),
                 "--out", str(tmp_path / "out"), *SMALL_MODEL]) == 2
    assert f"{data / 'test.jsonl'}: fmr requires every pair to carry at least one feature" in capsys.readouterr().err
    assert calls == []


def test_ablate_numeric_failure_in_a_cell_exits_3_naming_epoch_batch_and_op(tmp_path, prepared_dir, capsys):
    import re

    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["ablate", "--data", str(prepared_dir), "--lexicon", str(FIXTURE_LEXICON_PATH),
                     "--out", str(tmp_path / "out"), *SMALL_MODEL, "--learning-rate", "1e200"])
    assert code == 3
    err = capsys.readouterr().err
    found = re.search(r"at epoch \d+, batch \d+: non-finite values in the output of (\w+)", err)
    assert found, err
    assert callable(getattr(nm, found.group(1), None)), found.group(1)
    assert not (tmp_path / "out").exists()


def test_ablate_failed_generation_in_a_cell_exits_2_with_its_message(tmp_path, prepared_dir, capsys):
    data = shutil.copytree(prepared_dir, tmp_path / "data")
    records = load_records(data / "test.jsonl")
    save_records(data / "test.jsonl", [*records[:-1], replace(records[-1], user="nobody")])
    assert main(["ablate", "--data", str(data), "--lexicon", str(FIXTURE_LEXICON_PATH),
                 "--out", str(tmp_path / "out"), *SMALL_MODEL]) == 2
    assert capsys.readouterr().err == "error: unknown user 'nobody'\n"
    assert not (tmp_path / "out").exists()


def test_vocab_without_tokens_exits_2_naming_path(tmp_path, prepared_dir, trained_dir, capsys):
    checkpoint = _checkpoint_copy(trained_dir, tmp_path / "ckpt")
    vocab_path = tmp_path / "ckpt" / "vocab.json"
    vocab = json.loads(vocab_path.read_text())
    del vocab["tokens"]
    vocab_path.write_text(json.dumps(vocab), encoding="utf-8")
    code = main([
        "generate", "--data", str(prepared_dir), "--checkpoint", str(checkpoint),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "gen"),
    ])
    assert code == 2
    assert str(vocab_path) in capsys.readouterr().err


def _damage_vocab(path: Path, damage: str) -> None:
    vocab = json.loads(path.read_text())
    if damage == "specials_removed":
        vocab["tokens"] = vocab["tokens"][10:]
    elif damage == "specials_reordered":
        vocab["tokens"][0], vocab["tokens"][1] = vocab["tokens"][1], vocab["tokens"][0]
    else:
        vocab["users"].append(vocab["users"][0])
    path.write_text(json.dumps(vocab), encoding="utf-8")


@pytest.mark.parametrize("damage", ["specials_removed", "specials_reordered", "user_repeated"])
@pytest.mark.parametrize("command", ["train", "generate"])
def test_malformed_vocab_exits_2_naming_path_and_writes_nothing(
        tmp_path, prepared_dir, trained_dir, capsys, command, damage):
    """Without its special tokens first and in order, ``<bos>``, ``<eos>`` and ``<pad>`` would be plain words."""
    lexicon, out = str(FIXTURE_LEXICON_PATH), tmp_path / "out"
    if command == "train":
        data = tmp_path / "prep"
        shutil.copytree(prepared_dir, data)
        vocab_path = data / "vocab.json"
        argv = ["train", "--data", str(data), "--lexicon", lexicon, "--out", str(out), *SMALL_MODEL]
    else:
        checkpoint = _checkpoint_copy(trained_dir, tmp_path / "ckpt")
        vocab_path = tmp_path / "ckpt" / "vocab.json"
        argv = ["generate", "--data", str(prepared_dir), "--checkpoint", str(checkpoint), "--lexicon", lexicon,
                "--out", str(out), "--max-tokens", "3"]
    _damage_vocab(vocab_path, damage)
    assert main(argv) == 2
    assert str(vocab_path) in capsys.readouterr().err
    assert not out.exists()


def test_config_value_error_names_path_and_line(tmp_path, corpus_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vocab_cap=17\nseed=abc\n", encoding="utf-8")
    code = main([
        "prepare", "--config", str(cfg), "--records", str(corpus_file),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert f"{cfg}: line 2:" in capsys.readouterr().err


def test_negative_seed_flag_exits_2_naming_key(tmp_path, corpus_file, capsys):
    code = main([
        "prepare", "--records", str(corpus_file), "--lexicon", str(FIXTURE_LEXICON_PATH),
        "--out", str(tmp_path / "out"), "--seed", "-1",
    ])
    assert code == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_in_config_exits_2_naming_path(tmp_path, corpus_file, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("vocab_cap=17\nseed=-3\n", encoding="utf-8")
    code = main([
        "prepare", "--config", str(cfg), "--records", str(corpus_file),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert f"{cfg}: seed must be a non-negative integer, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--attention-heads", "0"), ("--attention-heads", "-2"),
                                        ("--embed-dim", "0"), ("--max-len", "0"), ("--ffn-dim", "0")])
def test_nonpositive_model_size_flag_exits_2_naming_key(capsys, flag, value):
    assert main(["gradcheck", flag, value]) == 2
    assert f"{flag} must be a positive integer, got {value}" in capsys.readouterr().err


def test_nonpositive_model_size_in_config_exits_2_naming_path(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nattention_heads=0\n", encoding="utf-8")
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    assert f"{cfg}: attention_heads must be a positive integer, got 0" in capsys.readouterr().err


def test_negative_max_tokens_exits_2_naming_key(tmp_path, prepared_dir, trained_dir, capsys):
    args = ["generate", "--data", str(prepared_dir), "--checkpoint", str(trained_dir / "model.emot"),
            "--lexicon", str(FIXTURE_LEXICON_PATH)]
    assert main([*args, "--out", str(tmp_path / "neg"), "--max-tokens", "-3"]) == 2
    assert "--max-tokens must be a non-negative integer, got -3" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()

    cfg = tmp_path / "gen.cfg"
    cfg.write_text("max_tokens=-3\n", encoding="utf-8")
    assert main([*args, "--out", str(tmp_path / "neg"), "--config", str(cfg)]) == 2
    assert f"{cfg}: max_tokens must be a non-negative integer, got -3" in capsys.readouterr().err

    assert main([*args, "--out", str(tmp_path / "zero"), "--max-tokens", "0"]) == 0
    rows = [json.loads(line) for line in (tmp_path / "zero" / "generated.jsonl").read_text().splitlines()]
    assert rows and all(row["explanation"] == "" for row in rows)


def test_numeric_failure_names_epoch_batch_and_op(tmp_path, prepared_dir, capsys):
    import re

    import numpy as np

    from emoexplain import numerics

    with np.errstate(over="ignore", invalid="ignore"):
        code = main([
            "train", "--data", str(prepared_dir), "--lexicon", str(FIXTURE_LEXICON_PATH),
            "--out", str(tmp_path / "run"), "--seed", "23", "--embed-dim", "16", "--ffn-dim", "32",
            "--batch-size", "8", "--max-epochs", "3", "--patience", "3",
            "--learning-rate", "1e200",
        ])
    assert code == 3
    err = capsys.readouterr().err
    found = re.search(r"at epoch \d+, batch \d+: non-finite values in the output of (\w+)", err)
    assert found, err
    assert callable(getattr(numerics, found.group(1), None)), found.group(1)


@pytest.mark.parametrize("command", ["evaluate", "audit"])
@pytest.mark.parametrize("bad_row", ["[1, 2]", '{"user": "u", "item": "i", "explanation": 5}'])
def test_malformed_generated_row_exits_2(tmp_path, prepared_dir, generated_dir, capsys, command, bad_row):
    lines = (generated_dir / "generated.jsonl").read_text().splitlines()
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join([lines[0], bad_row, *lines[2:]]) + "\n", encoding="utf-8")
    code = main([
        command, "--data", str(prepared_dir), "--generated", str(broken),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "out"), "--seed", "23",
    ])
    assert code == 2
    assert f"{broken}: line 2:" in capsys.readouterr().err


@pytest.mark.parametrize("command,option", [("evaluate", "--generated"), ("audit", "--generated"),
                                            ("audit", "--baseline")])
def test_generated_row_without_explanation_exits_2(tmp_path, prepared_dir, generated_dir, capsys, command, option):
    generated = generated_dir / "generated.jsonl"
    rows = [json.loads(line) for line in generated.read_text().splitlines()]
    del rows[1]["explanation"]
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    files = {"--generated": generated, **({"--baseline": generated} if command == "audit" else {}), option: broken}
    out = tmp_path / "out"
    code = main([
        command, "--data", str(prepared_dir), *(str(a) for kv in files.items() for a in kv),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "23",
    ])
    assert code == 2
    assert f"{broken}: line 2:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("reversed_option", ["--generated", "--baseline"])
def test_audit_reversed_file_exits_2(tmp_path, prepared_dir, generated_dir, capsys, reversed_option):
    generated = generated_dir / "generated.jsonl"
    lines = generated.read_text().splitlines()
    assert lines[::-1] != lines
    reversed_file = tmp_path / "reversed.jsonl"
    reversed_file.write_text("\n".join(lines[::-1]) + "\n", encoding="utf-8")
    files = {"--generated": generated, "--baseline": generated, reversed_option: reversed_file}
    code = main([
        "audit", "--data", str(prepared_dir), *(str(a) for kv in files.items() for a in kv),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "audit"), "--seed", "23",
    ])
    assert code == 2
    assert f"{reversed_file}: line 1: generated row for" in capsys.readouterr().err


def test_generate_writes_stop_reason_counts(generated_dir, prepared_dir, trained_dir):
    from types import SimpleNamespace

    from .test_generator import _stop_reason

    max_len = next(int(line.split("=")[1]) for line in (trained_dir / "config.txt").read_text().splitlines()
                   if line.startswith("max_len="))
    test_rows = [json.loads(line) for line in (prepared_dir / "test.jsonl").read_text().splitlines()]
    rows = [json.loads(line) for line in (generated_dir / "generated.jsonl").read_text().splitlines()]
    counts = {"eos": 0, "max_tokens": 0, "length_budget": 0}
    for rec, row in zip(test_rows, rows, strict=True):
        query = SimpleNamespace(features=tuple(rec["features"]), max_tokens=6)
        tokens = row["explanation"].split()
        counts[_stop_reason(SimpleNamespace(max_len=max_len), query, tokens)] += 1
    summary = json.loads((generated_dir / "generation.json").read_text())
    assert summary == {
        "queries": len(rows), "failed": 0, "stop": counts,
        "tokens": sum(len(row["explanation"].split()) for row in rows),
    }


def test_generate_counts_failures(tmp_path, prepared_dir, trained_dir):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(prepared_dir, data)
    records = [json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()]
    records[1]["user"] = "nobody"
    (data / "test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "gen"
    assert main([
        "generate", "--data", str(data), "--checkpoint", str(trained_dir / "model.emot"),
        "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "23", "--max-tokens", "3",
    ]) == 0
    rows = [json.loads(line) for line in (out / "generated.jsonl").read_text().splitlines()]
    assert [i for i, row in enumerate(rows) if "error" in row] == [1]
    summary = json.loads((out / "generation.json").read_text())
    assert summary["queries"] == len(rows) and summary["failed"] == 1
    assert sum(summary["stop"].values()) == len(rows) - 1


def test_generate_holds_one_copy_of_the_checkpoint(tmp_path, prepared_dir, trained_dir, monkeypatch):
    import tracemalloc

    from emoexplain import cli
    from emoexplain import numerics as nm
    from emoexplain.model import ModelParams, config_for_vocab

    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    (ckpt / "vocab.json").write_bytes((trained_dir / "vocab.json").read_bytes())
    (ckpt / "config.txt").write_text("embed_dim = 64\nffn_dim = 128\n", encoding="utf-8")
    config = config_for_vocab(cli._load_vocab(ckpt / "vocab.json"), embed_dim=64, ffn_dim=128)
    params = ModelParams(config, seed=5).all()
    nm.save_checkpoint(ckpt / "model.emot", params)
    weights = sum(p.data.nbytes for p in params)
    held = []
    inner = cli.batch_generate

    def traced(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return inner(*args)

    monkeypatch.setattr(cli, "batch_generate", traced)
    args = ["generate", "--data", str(prepared_dir), "--checkpoint", str(ckpt / "model.emot"),
            "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(tmp_path / "gen"), "--max-tokens", "1"]
    assert main(args) == 0  # the first run imports and caches what it needs
    tracemalloc.start()
    try:
        assert main(args) == 0
    finally:
        tracemalloc.stop()
    # When decoding starts, the loaded arrays are the weights: a second, randomly drawn set would double it.
    assert weights <= held[-1] < 1.25 * weights


def test_interrupted_generate_keeps_the_earlier_output(tmp_path, prepared_dir, trained_dir, monkeypatch):
    from emoexplain import cli

    out = tmp_path / "gen"
    args = ["generate", "--data", str(prepared_dir), "--checkpoint", str(trained_dir / "model.emot"),
            "--lexicon", str(FIXTURE_LEXICON_PATH), "--out", str(out), "--seed", "23"]
    assert main([*args, "--max-tokens", "2"]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert {"generated.jsonl", "generation.json"} <= set(before)

    dumps = json.dumps
    rows_written = []

    def dies_after_the_first_row(obj, **kwargs):
        if rows_written:
            raise KeyboardInterrupt("killed mid-write")
        rows_written.append(obj)
        return dumps(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dies_after_the_first_row)
    with pytest.raises(KeyboardInterrupt):
        main([*args, "--max-tokens", "5"])
    monkeypatch.undo()
    assert len(rows_written) == 1
    assert (out / "generated.jsonl").read_bytes() == before["generated.jsonl"]
    assert (out / "generation.json").read_bytes() == before["generation.json"]
    assert sorted(path.name for path in out.iterdir()) == sorted(before)


SMALL_MODEL = ["--embed-dim", "8", "--ffn-dim", "16", "--batch-size", "8", "--max-epochs", "1", "--patience", "1"]
COMMANDS = ("prepare", "train", "train-splits", "generate", "evaluate", "audit", "ablate", "gradcheck")


@pytest.fixture(scope="module")
def command_argv(tmp_path_factory, corpus_file, prepared_dir, trained_dir, generated_dir):
    """``argv(command, out, rerun)`` runs one of ``COMMANDS`` into ``out``; a rerun has another seed and inputs."""
    perfect = tmp_path_factory.mktemp("perfect") / "generated.jsonl"  # the references: another report and audit
    perfect.write_text("".join(json.dumps({"user": r.user, "item": r.item, "explanation": r.explanation}) + "\n"
                               for r in load_records(prepared_dir / "test.jsonl")), encoding="utf-8")
    lexicon = str(FIXTURE_LEXICON_PATH)
    generated = str(generated_dir / "generated.jsonl")

    def argv(command: str, out: Path, rerun: bool = False) -> list[str]:
        common = ["--out", str(out), "--seed", "24" if rerun else "23"]
        data = ["--data", str(prepared_dir), "--lexicon", lexicon, *common]
        scored = ["--generated", str(perfect) if rerun else generated]
        return {
            "prepare": ["prepare", "--records", str(corpus_file), "--lexicon", lexicon, *common],
            "train": ["train", *data, *SMALL_MODEL],
            "train-splits": ["train", *data, *SMALL_MODEL, "--splits", "2"],
            "generate": ["generate", *data, "--checkpoint", str(trained_dir / "model.emot"),
                         *(["--max-tokens", "0", "--emotion", "angry"] if rerun else ["--max-tokens", "3"])],
            "evaluate": ["evaluate", *data, *scored],
            "audit": ["audit", *data, *scored, "--baseline", generated],
            "ablate": ["ablate", *data, *SMALL_MODEL, "--max-tokens", "3"],
            "gradcheck": ["gradcheck", "--grad-samples", "5", *common],
        }[command]

    return argv


def _tree(out: Path) -> dict[str, bytes]:
    """Every file under ``out``, by its path relative to ``out``."""
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*") if path.is_file()}


@pytest.mark.parametrize("command", COMMANDS)
def test_failed_rerun_keeps_every_earlier_output(tmp_path, command_argv, monkeypatch, command):
    """A rerun that fails before its commit, e.g. after ``prepare``'s record files, changes no file, ``config.txt``
    included."""
    from emoexplain import cli

    out = tmp_path / "out"
    write_json = cli._write_json
    calls = []

    def counting(path, payload):
        calls.append(path)
        write_json(path, payload)

    monkeypatch.setattr(cli, "_write_json", counting)
    assert main(command_argv(command, out)) == 0
    before = _tree(out)
    assert "config.txt" in before and len(before) > 1
    writes = len(calls)
    assert writes >= 1

    for k in range(1, writes + 1):  # a rerun whose k-th JSON output fails
        calls.clear()

        def fails_on_the_kth(path, payload):
            calls.append(path)
            if len(calls) == k:
                raise OSError(f"{path}: no space left on device")
            write_json(path, payload)

        monkeypatch.setattr(cli, "_write_json", fails_on_the_kth)
        assert main(command_argv(command, out, rerun=True)) == 2
        assert _tree(out) == before, f"JSON write {k} of {writes}"


def _restore(out: Path, tree: dict[str, bytes]) -> None:
    shutil.rmtree(out)
    for name, data in tree.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_bytes(data)


@pytest.mark.parametrize("command", ["prepare", "evaluate", "train-splits"])
def test_interrupted_commit_leaves_no_config_newer_than_its_neighbours(tmp_path, command_argv, monkeypatch, command):
    """A rename failing mid-commit leaves each ``config.txt`` absent, or beside files of its own run only."""
    from emoexplain import cli

    out = tmp_path / "out"
    assert main(command_argv(command, out)) == 0
    first = _tree(out)
    assert main(command_argv(command, out, rerun=True)) == 0
    second = _tree(out)
    assert second.keys() == first.keys() and second["config.txt"] != first["config.txt"]
    replace = cli.os.replace
    for k in range(1, len(first) + 1):  # the commit renames each output once
        _restore(out, first)
        renames = []

        def fails_on_the_kth(src, dst):
            renames.append(dst)
            if len(renames) == k:
                raise OSError(f"{dst}: killed mid-commit")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", fails_on_the_kth)
        assert main(command_argv(command, out, rerun=True)) == 2
        monkeypatch.setattr(cli.os, "replace", replace)
        after = _tree(out)
        assert after.keys() <= first.keys(), "a temporary file was left behind"
        for config in (name for name in after if name.rsplit("/", 1)[-1] == "config.txt"):
            run = config[: -len("config.txt")]
            beside = {name: data for name, data in after.items() if name.startswith(run)}
            assert beside in ({name: first[name] for name in beside}, {name: second[name] for name in beside}), (
                f"{config} after rename {k} of {len(first)} failed")


@pytest.mark.parametrize("first,second", [("train-splits", "train"), ("train", "train-splits")])
def test_rerun_removes_the_outputs_it_did_not_write(tmp_path, command_argv, first, second):
    """After a rerun, ``out`` holds what the second command writes into an empty directory, plus foreign files."""
    out, alone = tmp_path / "out", tmp_path / "alone"
    assert main(command_argv(first, out)) == 0
    foreign = ("notes.txt", "run1.log", "run2notes/kept.txt")  # only directories named run<digits> are train's
    for name in foreign:
        (out / name).parent.mkdir(exist_ok=True)
        (out / name).write_text("kept\n")
    assert main(command_argv(second, out)) == 0
    assert main(command_argv(second, alone)) == 0
    entries = {path.relative_to(out).as_posix() for path in out.rglob("*")}
    assert entries == {path.relative_to(alone).as_posix() for path in alone.rglob("*")} | {*foreign, "run2notes"}
    assert all((out / name).read_text() == "kept\n" for name in foreign)


def test_out_that_is_an_input_directory_exits_2_and_changes_nothing(tmp_path, corpus_file, trained_dir, capsys):
    """``train --splits 2`` would remove ``prepare``'s vocab.json there; any command would replace its config.txt."""
    lexicon = str(FIXTURE_LEXICON_PATH)
    prep = tmp_path / "prep"
    assert main(["prepare", "--records", str(corpus_file), "--lexicon", lexicon, "--out", str(prep)]) == 0
    before = _tree(prep)
    capsys.readouterr()
    assert main(["train", "--data", str(prep), "--lexicon", lexicon, "--out", str(prep),
                 *SMALL_MODEL, "--splits", "2"]) == 2
    assert f"output directory {prep} is the input directory {prep}" in capsys.readouterr().err
    assert _tree(prep) == before

    run = tmp_path / "run"
    shutil.copytree(trained_dir, run)
    before = _tree(run)
    out = tmp_path / "prep" / ".." / "run"
    assert main(["generate", "--data", str(prep), "--checkpoint", str(run / "model.emot"), "--lexicon", lexicon,
                 "--out", str(out), "--max-tokens", "3"]) == 2
    assert f"output directory {out} is the input directory {run}" in capsys.readouterr().err
    assert _tree(run) == before


@pytest.mark.parametrize("command,artifact", [
    ("gradcheck", "config.txt"), ("evaluate", "config.txt"), ("evaluate", "report.txt"), ("audit", "audit.txt"),
    ("prepare", "train.jsonl"), ("prepare", "valid.jsonl"), ("prepare", "test.jsonl"), ("train", "model.emot"),
    ("train", "history.json"), ("train-splits", "run0/vocab.json"), ("train-splits", "run0/config.txt"),
    ("generate", "generated.jsonl"), ("generate", "generation.json"),
])
def test_write_torn_mid_file_keeps_the_earlier_output(tmp_path, command_argv, monkeypatch, command, artifact):
    from emoexplain import cli, corpus
    from emoexplain import numerics as nm

    out = tmp_path / "out"
    assert main(command_argv(command, out)) == 0
    before = _tree(out)
    assert artifact in before
    torn_path = (out / artifact).with_name(f".{Path(artifact).name}.tmp")

    real_open = open
    torn = []

    class TornFile:
        """Writes half of what it is given to the real file, then dies."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            torn.append(text)
            raise KeyboardInterrupt("killed mid-write")

    def open_tearing_the_artifact(path, *args, **kwargs):
        handle = real_open(path, *args, **kwargs)
        return TornFile(handle) if Path(path) == torn_path else handle

    for writer in (cli, corpus, nm):  # the modules whose writers open the temporary file
        monkeypatch.setattr(writer, "open", open_tearing_the_artifact, raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(command_argv(command, out, rerun=True))
    monkeypatch.undo()
    assert len(torn) == 1 and (torn[0] if isinstance(torn[0], bytes) else torn[0].encode()) != before[artifact]
    assert _tree(out) == before
