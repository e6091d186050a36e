"""Graph ops per transformer layer and per emotion MLP, counted by wrapping the numerics functions.

Decoding a desk-sized batch costs per-op overhead more than arithmetic, so
these counts are pinned: a layer is attention (its q/k/v products and its
biased output projection included), a residual layer norm, the FFN's two
biased products around a ReLU, and a second residual layer norm, with or
without a decoding cache.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from emoexplain import model
from emoexplain import numerics as nm
from emoexplain.model import ModelConfig, ModelParams
from emoexplain.numerics import Tensor

LAYER_OPS = Counter(matmul=2, attention=1, layer_norm=2, relu=1)


@pytest.fixture()
def params():
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=8, embed_dim=8, ffn_dim=16, encoder_layers=1)
    return ModelParams(config, seed=0)


@pytest.mark.parametrize("shape", [(5, 8), (3, 5, 8)])
def test_a_layer_runs_six_ops_without_a_cache(params, op_calls, shape):
    x = Tensor(np.random.default_rng(0).normal(size=shape))
    model._encoder_stack(x, params.context_encoder, n_heads=2)
    assert op_calls == LAYER_OPS
    assert sum(op_calls.values()) == 6


def test_a_layer_runs_six_ops_with_a_cache(params, op_calls):
    rng = np.random.default_rng(1)
    cache = [nm.KVCache(8)]
    model._encoder_stack(Tensor(rng.normal(size=(3, 5, 8))), params.context_encoder, 2, cache)
    assert op_calls == LAYER_OPS
    op_calls.clear()
    model._encoder_stack(Tensor(rng.normal(size=(3, 1, 8))), params.context_encoder, 2, cache)
    assert op_calls == LAYER_OPS  # the step's K and V rows go into the cache's buffers, not through concat
    assert cache[0].length == 6


def test_the_emotion_mlp_runs_three_ops(params, op_calls):
    model.emotion_embed(params, Tensor(np.random.default_rng(2).uniform(size=(3, 5, 6))))
    assert op_calls == Counter(matmul=2, relu=1)
