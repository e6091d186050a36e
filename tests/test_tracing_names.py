"""The benchmark tracer (perfbench/tracing.py) wraps package functions by name.

These tests load it read-only and check that the names it wraps still exist,
take the first argument it reads, and are reached by the model's callers, so a
refactor that renames or inlines one fails here instead of in a traced run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from emoexplain import generator, model
from emoexplain import numerics as nm
from emoexplain.corpus import Record, encode_example
from emoexplain.generator import GenerationQuery, generate
from emoexplain.model import ModelConfig, ModelParams, emotion_input_matrix, forward

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(qualified: str):
    module_name, fn_name = qualified.split(".")
    return getattr(importlib.import_module(f"emoexplain.{module_name}"), fn_name, None)


@pytest.fixture()
def tiny(tiny_vocab, lex):
    config = ModelConfig(n_tokens=tiny_vocab.n_tokens, n_users=2, n_items=2, max_len=8, embed_dim=8, ffn_dim=16)
    params = ModelParams(config, seed=0)
    example = encode_example(Record("u000", "i001", ("lobby",), "nice warm bar", "happy"), tiny_vocab, config.max_len)
    return config, params, example, emotion_input_matrix(example, tiny_vocab, lex)


def test_every_traced_name_is_a_package_function(tracing):
    for qualified in (*tracing.SPANNED, *tracing.COUNTED):
        assert callable(_function(qualified)), qualified


def test_stack_row_counters_read_the_first_parameter(tracing):
    for qualified, (param, _) in tracing.STACK_ROWS.items():
        assert next(iter(inspect.signature(_function(qualified)).parameters)) == param, qualified


def test_forward_lm_logits_cover_every_position(tiny):
    config, params, example, vnrc = tiny
    with nm.no_grad():
        state = forward(example, params, config, vnrc)
    assert state.lm_logits.data.shape == (config.max_len, config.n_tokens)


def test_training_and_generation_reach_every_traced_model_function(tracing, tiny, tiny_vocab, lex):
    config, params, example, vnrc = tiny
    tracer = tracing.Tracer()
    tracer.install()
    try:
        nm.backward(model.total_loss(example, params, config, vnrc)[0])
        generate(params, config, tiny_vocab, lex, GenerationQuery("u000", "i001", ("lobby",), "happy", max_tokens=2))
    finally:
        tracer.uninstall()
    expected = {f"model.{fn}" for fn in tracing.MODEL_FUNCTIONS}
    assert expected <= tracer.fired(), expected - tracer.fired()


# Positions each stack is fed, B x n, read from its first argument: (B, n, ·) inputs, (B, n) ids.
STACK_POSITIONS = {
    "encode_emotion_from_matrix": lambda vnrc: math.prod(vnrc.shape[:-1]),
    "encode_context": lambda batch: np.asarray(batch.context_ids).size,
    "decode": lambda hidden: math.prod(hidden.data.shape[:-1]),
}


@pytest.mark.parametrize("max_tokens", [0, 1, 3, 50])
def test_generate_decodes_once_per_step_and_feeds_each_position_once(
    monkeypatch, tracing, tiny, tiny_vocab, lex, max_tokens,
):
    config, params, _, _ = tiny
    query = GenerationQuery("u000", "i001", ("lobby",), "happy", max_tokens=max_tokens)
    fed = []
    for fn, positions in STACK_POSITIONS.items():
        def counted(first, *args, _fn=getattr(model, fn), _positions=positions, **kwargs):
            fed.append(_positions(first))
            return _fn(first, *args, **kwargs)
        monkeypatch.setattr(model, fn, counted)
    tracer = tracing.Tracer()  # installed over the counters, so it restores them
    tracer.install()
    try:
        tokens = generator.generate(params, config, tiny_vocab, lex, query)  # the wrapped function
    finally:
        tracer.uninstall()
    prefix_len = 4  # user, item, "lobby", tag
    budget = min(max_tokens, config.max_len - prefix_len - 1)
    steps = len(tokens) + (len(tokens) < budget)  # a step that emits <eos> emits no token
    decode_id = tracer.names.index("model.decode")
    assert sum(1 for i in tracer.name_id if i == decode_id) == steps
    # The first step feeds the prefix and <bos>, each later step one position, to each of the three stacks.
    assert sum(fed) == (3 * (prefix_len + steps) if steps else 0)
