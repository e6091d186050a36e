"""Hostile-input fuzzers for the CLI readers.

Each property drives ``cli.main`` with arbitrary content in one input file: a
``generated.jsonl`` or the ``test.jsonl`` it is scored against (through
``evaluate`` and ``audit``), a ``--config`` file, a checkpoint or the
``vocab.json`` beside it (through ``generate``), or the records or lexicon file
of ``prepare``.  Whatever the content, the command exits 0 or 2, no exception
escapes, an exit-2 message names the file, and no temporary output is left.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from emoexplain import numerics as nm
from emoexplain.cli import KEY_TYPES, main
from emoexplain.corpus import generate_synthetic_corpus, load_records, save_records
from emoexplain.fixtures import pool_corpus_spec

from .conftest import FIXTURE_LEXICON_PATH

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["user", "item", "explanation", "tokens", "users", "items"]) | st.text(),
                      inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    """A prepared data directory and a one-epoch checkpoint, shared by every example."""
    root = tmp_path_factory.mktemp("fuzz")
    records = root / "records.jsonl"
    spec = pool_corpus_spec(4, 5, 30, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15), min_words=3, max_words=5)
    save_records(records, generate_synthetic_corpus(spec, seed=5))
    lexicon = str(FIXTURE_LEXICON_PATH)
    assert main(["prepare", "--records", str(records), "--lexicon", lexicon,
                 "--out", str(root / "data"), "--seed", "5"]) == 0
    assert main(["train", "--data", str(root / "data"), "--lexicon", lexicon, "--out", str(root / "run"),
                 "--seed", "5", "--embed-dim", "8", "--ffn-dim", "16", "--batch-size", "8",
                 "--max-epochs", "1", "--patience", "1"]) == 0
    return root


def _run(argv: list[str], path: Path) -> None:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    event(f"exit {code}")  # shown by --hypothesis-show-statistics
    assert code in (0, 2), stderr.getvalue()
    if code == 2:
        assert str(path) in stderr.getvalue()
    out = Path(argv[argv.index("--out") + 1])
    assert not list(out.rglob(".*.tmp")), "a temporary output was left behind"


def _test_rows(workspace: Path, explanation) -> str:
    rows = [{"user": r.user, "item": r.item, "explanation": explanation}
            for r in load_records(workspace / "data" / "test.jsonl")]
    return "".join(json.dumps(row) + "\n" for row in rows)


def _generated_text():
    """Arbitrary text, lines of arbitrary JSON, or test-aligned rows with an arbitrary explanation."""
    return st.one_of(
        st.text(),
        st.lists(JSON_VALUES.map(json.dumps), min_size=1, max_size=6).map("\n".join),
        st.tuples(st.just("aligned"), st.text() | JSON_VALUES),
    )


@pytest.mark.parametrize("command", ["evaluate", "audit"])
@FUZZ
@given(content=_generated_text())
@example(content="1" * 5000)
@example(content="[" * 100_000)
def test_generated_file_fuzz(workspace, command, content):
    if isinstance(content, tuple):
        content = _test_rows(workspace, content[1])
    path = workspace / f"generated-{command}.jsonl"
    path.write_text(content, encoding="utf-8")
    _run([command, "--data", workspace / "data", "--generated", path, "--lexicon", FIXTURE_LEXICON_PATH,
          "--out", workspace / f"out-{command}", "--seed", "5"], path)


CONFIG_LINES = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(sorted(KEY_TYPES)), st.text()).map("=".join),
    st.tuples(st.sampled_from(sorted(k for k, kind in KEY_TYPES.items() if kind is not str)),
              st.integers(0, 10**6).map(str) | st.sampled_from(["1.5", "true", "no", "1e3", "nan"])).map("=".join),
)


@FUZZ
@given(lines=st.lists(CONFIG_LINES, max_size=6))
def test_config_file_fuzz(workspace, lines):
    path = workspace / "fuzz.cfg"
    path.write_text("\n".join(lines), encoding="utf-8")
    _run(["prepare", "--config", path, "--records", workspace / "records.jsonl",
          "--lexicon", FIXTURE_LEXICON_PATH, "--out", workspace / "out-prepare"], path)


@FUZZ
@given(content=st.one_of(
    st.text(),
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({key: st.lists(st.text(max_size=3), max_size=30)
                           for key in ("tokens", "users", "items")}).map(json.dumps),
    st.tuples(st.just("shuffled"), st.randoms(use_true_random=False)),
))
@example(content="[" * 100_000)
def test_checkpoint_vocab_fuzz(workspace, content):
    ckpt = workspace / "ckpt"
    ckpt.mkdir(exist_ok=True)
    for name in ("model.emot", "config.txt"):
        (ckpt / name).write_bytes((workspace / "run" / name).read_bytes())
    if isinstance(content, tuple):  # the trained vocabulary with each table reordered
        vocab = json.loads((workspace / "run" / "vocab.json").read_text())
        for table in vocab.values():
            content[1].shuffle(table)
        content = json.dumps(vocab)
    path = ckpt / "vocab.json"
    path.write_text(content, encoding="utf-8")
    _run(["generate", "--data", workspace / "data", "--checkpoint", ckpt / "model.emot",
          "--lexicon", FIXTURE_LEXICON_PATH, "--out", workspace / "out-generate", "--max-tokens", "3"], path)


def _checkpoint_fields(data: bytes) -> tuple[list[tuple[int, int]], list[int]]:
    """The (offset, width) of each header field of a checkpoint, and the offset of each parameter's first value."""
    fields, values = [(4, 4)], []
    at = 8
    while at < len(data):
        (name_len,) = struct.unpack_from("<I", data, at)
        fields += [(at, 4), (at + 4, name_len)]
        at += 4 + name_len
        (rank,) = struct.unpack_from("<I", data, at)
        shape = struct.unpack_from(f"<{rank}Q", data, at + 4)
        fields += [(at, 4), *((at + 4 + 8 * i, 8) for i in range(rank))]
        at += 4 + 8 * rank
        values.append(at)
        at += 8 * math.prod(shape)
    return fields, values


def _damaged(data: bytes, damage: tuple) -> bytes:
    if damage[0] == "cut":
        return data[: damage[1] % (len(data) + 1)]
    fields, values = _checkpoint_fields(data)
    if damage[0] == "field":
        offset, width = fields[damage[1] % len(fields)]
        chunk = damage[2][:width]
    else:
        offset, chunk = values[damage[1] % len(values)], struct.pack("<d", damage[2])
    return data[:offset] + chunk + data[offset + len(chunk):]


@FUZZ
@given(damage=st.one_of(
    st.binary(),
    st.tuples(st.just("cut"), st.integers(min_value=0)),
    st.tuples(st.just("field"), st.integers(min_value=0), st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("value"), st.integers(min_value=0), st.sampled_from([math.nan, math.inf, -math.inf])),
))
@example(damage=b"EMOT\x01\x00\x00\x00")
@example(damage=("field", 2, b"\xff\xff\xff\xff"))
@example(damage=("field", 3, b"\x00\x01"))  # rank 256: extents whose product has over 4300 digits
@example(damage=("value", 0, math.nan))
def test_checkpoint_file_fuzz(workspace, damage):
    """Arbitrary bytes, or the trained checkpoint cut short, with a header field overwritten or a value non-finite."""
    real = (workspace / "run" / "model.emot").read_bytes()
    ckpt = workspace / "ckpt-fuzz"
    ckpt.mkdir(exist_ok=True)
    for name in ("vocab.json", "config.txt"):
        (ckpt / name).write_bytes((workspace / "run" / name).read_bytes())
    path = ckpt / "model.emot"
    path.write_bytes(damage if isinstance(damage, bytes) else _damaged(real, damage))
    try:
        assert isinstance(nm.load_checkpoint(path), dict)
    except ValueError as err:
        assert str(path) in str(err)
    _run(["generate", "--data", workspace / "data", "--checkpoint", path, "--lexicon", FIXTURE_LEXICON_PATH,
          "--out", workspace / "out-generate-ckpt", "--max-tokens", "3"], path)


def _record_lines():
    """Arbitrary bytes, or lines of arbitrary JSON that may form records."""
    record_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["user", "item", "features", "explanation", "emotion"]), inner, max_size=5),
        max_leaves=10,
    )
    return st.one_of(
        st.binary(),
        st.lists(record_values.map(json.dumps), min_size=1, max_size=6).map("\n".join).map(str.encode),
    )


@FUZZ
@given(content=_record_lines())
@example(content=b"[" * 100_000)
@example(content=b"1" * 5000)
@example(content=b'{"user": "u"}\n\xff\n')
def test_records_file_fuzz(workspace, content):
    path = workspace / "fuzz-records.jsonl"
    path.write_bytes(content)
    _run(["prepare", "--records", path, "--lexicon", FIXTURE_LEXICON_PATH,
          "--out", workspace / "out-prepare-records", "--seed", "5"], path)


@FUZZ
@given(content=st.one_of(
    st.binary(),
    st.lists(st.tuples(st.text(max_size=6), st.sampled_from(["joy", "anger", "fear", "trust"]) | st.text(max_size=6),
                       st.floats().map(str) | st.text(max_size=4)).map("\t".join),
             max_size=6).map("\n".join).map(str.encode),
))
@example(content=b"good\tjoy\t0.5\n\xc3\n")
def test_lexicon_file_fuzz(workspace, content):
    path = workspace / "fuzz-lexicon.tsv"
    path.write_bytes(content)
    _run(["prepare", "--records", workspace / "records.jsonl", "--lexicon", path,
          "--out", workspace / "out-prepare-lexicon", "--seed", "5"], path)


@pytest.mark.parametrize("command", ["evaluate", "audit"])
@FUZZ
@given(content=_record_lines())
@example(content=b"[" * 100_000)
@example(content=b'{"user": "u", "item": "i", "features": [""], "explanation": "no feature to match"}\n')
@example(content=b'{"user": "u", "item": "i", "features": ["pool"], "explanation": "pool"}\n\xff\n')
def test_test_split_fuzz(workspace, command, content):
    """Arbitrary bytes as the test split; the generated file aligns with whatever records it holds."""
    data = workspace / f"data-{command}"
    if not data.exists():
        shutil.copytree(workspace / "data", data)
    path = data / "test.jsonl"
    path.write_bytes(content)
    try:
        records = load_records(path)
    except ValueError:
        records = []
    generated = workspace / f"aligned-{command}.jsonl"
    generated.write_text("".join(json.dumps({"user": r.user, "item": r.item, "explanation": other.explanation}) + "\n"
                                 for r, other in zip(records, records[1:] + records[:1])), encoding="utf-8")
    _run([command, "--data", data, "--generated", generated, "--lexicon", FIXTURE_LEXICON_PATH,
          "--out", workspace / f"out-test-{command}", "--seed", "5"], path)
