"""Greedy explanation generation from trained parameters."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics as nm
from .corpus import BOS, EOS, PAD, EncodedExample, Vocabulary, tokenize
from .lexicon import Lexicon, category_index
from .model import (
    DecodeCache,
    ModelConfig,
    ModelParams,
    emotion_input_matrix,
    next_token_logits,
    token_emotion,
)


@dataclass(frozen=True)
class GenerationQuery:
    user: str
    item: str
    features: tuple[str, ...]
    emotion: str
    max_tokens: int = 20

    def __post_init__(self):
        if not self.features:
            raise ValueError("a generation query needs at least one feature")
        if self.max_tokens < 0:
            raise ValueError(f"max_tokens must be a non-negative integer, got {self.max_tokens}")


@dataclass(frozen=True)
class GeneratedText:
    tokens: tuple[str, ...] | None
    error: str | None = None


def generate(
    params: ModelParams, config: ModelConfig, vocab: Vocabulary, lex: Lexicon,
    query: GenerationQuery,
) -> list[str]:
    """Argmax decoding from the [user, item, features, tag, <bos>] prefix.

    Stops at <eos>, ``max_tokens`` words, or the model's length budget.  <pad>
    and <bos> are excluded from the argmax, and ties resolve to the lowest
    token id, so the output is a pure function of (params, query).
    """
    if query.user not in vocab.user_to_id:
        raise ValueError(f"unknown user {query.user!r}")
    if query.item not in vocab.item_to_id:
        raise ValueError(f"unknown item {query.item!r}")
    tag_index = category_index(query.emotion)

    feature_ids = [vocab.token_id(tok) for feat in query.features for tok in tokenize(feat)]
    prefix = [
        vocab.user_to_id[query.user],
        vocab.item_to_id[query.item],
        *feature_ids,
        vocab.emotion_token_id(query.emotion),
    ]
    prefix_len = len(prefix)
    if prefix_len + 2 > config.max_len:
        raise ValueError(f"prefix of {prefix_len} leaves no generation room within max_len {config.max_len}")

    # The first step feeds the prefix and <bos>; every later step feeds only
    # the token the step before emitted, and the cache supplies the rest.
    example = EncodedExample(
        context_ids=(*prefix, BOS), emotion_target=tag_index, prefix_len=prefix_len, text_len=0)
    vnrc = emotion_input_matrix(example, vocab, lex, config.mask_emotion_tag)
    cache = DecodeCache()
    generated: list[int] = []
    with nm.no_grad():
        while len(generated) < query.max_tokens and prefix_len + 1 + len(generated) < config.max_len:
            scores = next_token_logits(example, params, config, vnrc, cache)
            scores[PAD] = -np.inf
            scores[BOS] = -np.inf
            next_id = int(np.argmax(scores))
            if next_id == EOS:
                break
            generated.append(next_id)
            example = replace(example, context_ids=(next_id,))
            vnrc = np.array([token_emotion(next_id, vocab, lex)])
    return [vocab.id_to_token[i] for i in generated]


def batch_generate(
    params: ModelParams, config: ModelConfig, vocab: Vocabulary, lex: Lexicon,
    queries: list[GenerationQuery],
) -> list[GeneratedText]:
    """Elementwise ``generate``; per-query failures are collected, not raised."""
    results = []
    for query in queries:
        try:
            results.append(GeneratedText(tokens=tuple(generate(params, config, vocab, lex, query))))
        except ValueError as err:
            results.append(GeneratedText(tokens=None, error=str(err)))
    return results
