"""How the CLI resolves its configuration: flags, keys, types, bounds and the recorded ``config.txt``."""

from __future__ import annotations

import argparse
import typing

import pytest

from emoexplain import cli
from emoexplain.cli import main
from emoexplain.corpus import MAX_VOCAB_TOKENS, generate_synthetic_corpus, save_records
from emoexplain.fixtures import pool_corpus_spec
from emoexplain.generator import GenerationQuery
from emoexplain.model import ModelConfig
from emoexplain.trainer import TrainConfig

from .conftest import FIXTURE_LEXICON_PATH

# option string -> (dest, type, action class, help, choices), as every subcommand's parser builds it
COMMON_OPTIONS = {
    "--config": ("config", None, "_StoreAction", "flat key=value config file", None),
    "--profile": ("profile", None, "_StoreAction", "configuration profile", ["desk", "paper"]),
    "--seed": ("seed", int, "_StoreAction", None, None),
    "--out": ("out", None, "_StoreAction", "output directory", None),
    "--intensity": ("intensity", float, "_StoreAction", None, None),
    "--c1": ("c1", float, "_StoreAction", None, None),
    "--c2": ("c2", float, "_StoreAction", None, None),
    "--records": ("records", None, "_StoreAction", "JSON-lines record file", None),
    "--lexicon": ("lexicon", None, "_StoreAction", "tab-separated lexicon file", None),
    "--splits": ("splits", int, "_StoreAction", "number of repeated random splits", None),
    "--max-len": ("max_len", int, "_StoreAction", None, None),
    "--embed-dim": ("embed_dim", int, "_StoreAction", None, None),
    "--ffn-dim": ("ffn_dim", int, "_StoreAction", None, None),
    "--attention-heads": ("attention_heads", int, "_StoreAction", None, None),
    "--batch-size": ("batch_size", int, "_StoreAction", None, None),
    "--learning-rate": ("learning_rate", float, "_StoreAction", None, None),
    "--clip": ("clip", float, "_StoreAction", None, None),
    "--max-epochs": ("max_epochs", int, "_StoreAction", None, None),
    "--patience": ("patience", int, "_StoreAction", None, None),
    "--max-tokens": ("max_tokens", int, "_StoreAction", None, None),
    "--vocab-cap": ("vocab_cap", int, "_StoreAction", None, None),
    "--mask-emotion-tag": ("mask_emotion_tag", None, "_StoreConstAction", None, None),
}
DATA = {"--data": ("data", None, "_StoreAction", "directory produced by prepare", None)}
COMMAND_OPTIONS = {
    "prepare": {},
    "train": DATA,
    "generate": {
        **DATA,
        "--checkpoint": ("checkpoint", None, "_StoreAction", "trained checkpoint (model.emot)", None),
        "--emotion": ("emotion", None, "_StoreAction", "override the requested emotion tag",
                      ("happy", "angry", "surprise", "sad", "fear", "neutral")),
    },
    "evaluate": {**DATA, "--generated": ("generated", None, "_StoreAction", "generated.jsonl to score", None)},
    "audit": {
        **DATA,
        "--generated": ("generated", None, "_StoreAction", "generated.jsonl to audit", None),
        "--baseline": ("baseline", None, "_StoreAction", "baseline generated.jsonl for the debiasing column", None),
        "--reference-check": ("reference_check", None, "_StoreTrueAction",
                              "recompute the published reference debiasing tables and report mismatches", None),
    },
    "ablate": DATA,
    "gradcheck": {"--grad-samples": ("grad_samples", int, "_StoreAction", None, None)},
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def test_every_subcommand_keeps_its_options():
    subparsers = _subparsers()
    assert sorted(subparsers) == sorted(COMMAND_OPTIONS)
    for command, sub in subparsers.items():
        table = {
            option: (a.dest, a.type, type(a).__name__, a.help, a.choices)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
            for option in a.option_strings
        }
        assert table == {**COMMAND_OPTIONS[command], **COMMON_OPTIONS}, command


def test_config_keys_carry_their_dataclass_types_and_defaults():
    for cls, keys in ((ModelConfig, cli.MODEL_KEYS), (TrainConfig, cli.TRAIN_KEYS)):
        hints = typing.get_type_hints(cls)
        for key in keys:
            assert cli.KEY_TYPES[key] is hints[key], key
            assert cli.BASE_DEFAULTS[key] == cls.__dataclass_fields__[key].default, key
    assert cli.MODEL_KEYS == ("max_len", "embed_dim", "ffn_dim", "encoder_layers", "decoder_layers",
                              "attention_heads", "intensity", "c1", "c2", "mask_emotion_tag")
    assert set(cli.TRAIN_KEYS) == set(TrainConfig.__dataclass_fields__)
    assert cli.BASE_DEFAULTS["max_tokens"] == GenerationQuery.__dataclass_fields__["max_tokens"].default == 20
    assert cli.BASE_DEFAULTS["vocab_cap"] == MAX_VOCAB_TOKENS == 20000


def test_int_keys_are_sizes_except_the_counts():
    sizes = ("max_len", "embed_dim", "ffn_dim", "encoder_layers", "decoder_layers", "attention_heads",
             "batch_size", "max_epochs", "patience", "splits", "grad_samples")
    assert cli.LOWER_BOUNDS == {"seed": 0, "max_tokens": 0, "vocab_cap": 0, **dict.fromkeys(sizes, 1)}


def test_flagless_prepare_config_round_trips(tmp_path):
    records = tmp_path / "records.jsonl"
    spec = pool_corpus_spec(4, 5, 20, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15), min_words=3, max_words=5)
    save_records(records, generate_synthetic_corpus(spec, seed=3))
    argv = ["prepare", "--records", str(records), "--lexicon", str(FIXTURE_LEXICON_PATH),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    resolved = cli.resolve_config(cli.build_parser().parse_args(argv))
    assert cli._read_config_file(str(tmp_path / "out" / "config.txt")) == resolved


BOUND_CASES = [
    # (command, key, value, kind); paths are never read, since the bound check comes first
    ("gradcheck", "grad_samples", "0", "positive"),
    ("gradcheck", "grad_samples", "-1", "positive"),
    ("prepare", "vocab_cap", "-1", "non-negative"),
    ("train", "splits", "-4", "positive"),
    ("train", "batch_size", "0", "positive"),
]
PATHS = {"prepare": ["--records", "r.jsonl", "--lexicon", "l.tsv"], "train": ["--data", "d", "--lexicon", "l.tsv"],
         "gradcheck": []}


@pytest.mark.parametrize("command,key,value,kind", BOUND_CASES)
def test_out_of_bound_flag_exits_2_naming_it(tmp_path, capsys, command, key, value, kind):
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "out"
    assert main([command, *PATHS[command], "--out", str(out), flag, value]) == 2
    assert f"{flag} must be a {kind} integer, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value,kind", BOUND_CASES)
def test_out_of_bound_config_key_exits_2_naming_the_file(tmp_path, capsys, command, key, value, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{key}={value}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, *PATHS[command], "--out", str(out), "--config", str(cfg)]) == 2
    assert f"{cfg}: {key} must be a {kind} integer, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_gradcheck_builds_and_records_the_configured_model(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("embed_dim=12\nmax_len=10\nencoder_layers=1\n", encoding="utf-8")
    built = []
    model_params = cli.ModelParams

    def spy(config, seed):
        built.append(config)
        return model_params(config, seed)

    monkeypatch.setattr(cli, "ModelParams", spy)
    first = tmp_path / "first"
    assert main(["gradcheck", "--config", str(cfg), "--grad-samples", "20", "--out", str(first)]) == 0
    report = capsys.readouterr().out
    (config,) = built
    assert (config.embed_dim, config.max_len, config.encoder_layers, config.ffn_dim) == (12, 10, 1, 16)

    recorded = cli._read_config_file(str(first / "config.txt"))
    assert {key: recorded[key] for key in ("embed_dim", "max_len", "encoder_layers", "ffn_dim")} == {
        "embed_dim": 12, "max_len": 10, "encoder_layers": 1, "ffn_dim": 16}

    second = tmp_path / "second"
    assert main(["gradcheck", "--config", str(first / "config.txt"), "--out", str(second)]) == 0
    assert capsys.readouterr().out == report
    assert built[1] == config
    assert (second / "gradcheck.json").read_bytes() == (first / "gradcheck.json").read_bytes()
