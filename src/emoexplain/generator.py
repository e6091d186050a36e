"""Greedy explanation generation from trained parameters."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .corpus import BOS, EOS, PAD, EncodedExample, Vocabulary, assign_emotion_tags, prefix_ids
from .lexicon import Lexicon, category_index
from .model import (
    DecodeCache,
    ModelConfig,
    ModelParams,
    emotion_input_matrix,
    make_batch,
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


def record_queries(records, lex: Lexicon, max_tokens: int, emotion: str | None = None) -> list[GenerationQuery]:
    """One query per record, for ``emotion`` or else the record's tag, which the lexicon assigns where it is unset."""
    return [GenerationQuery(rec.user, rec.item, rec.features, emotion or rec.emotion, max_tokens)
            for rec in assign_emotion_tags(list(records), lex)]


@dataclass(frozen=True)
class GeneratedText:
    tokens: tuple[str, ...] | None
    error: str | None = None
    # Why decoding ended: "eos", "max_tokens" or "length_budget" (None on error).
    # It follows from the tokens and the query, so equality leaves it out.
    stop: str | None = field(default=None, compare=False)


def _prefix_example(config: ModelConfig, vocab: Vocabulary, query: GenerationQuery) -> EncodedExample:
    """The [user, item, features, tag, <bos>] ids ``query`` decodes from.

    Raises ValueError for an unknown user, item or emotion, or a prefix that
    leaves no room to generate within ``config.max_len``.
    """
    prefix = prefix_ids(vocab, query.user, query.item, query.features, query.emotion)
    if len(prefix) + 2 > config.max_len:
        raise ValueError(f"prefix of {len(prefix)} leaves no generation room within max_len {config.max_len}")
    return EncodedExample(context_ids=(*prefix, BOS), emotion_target=category_index(query.emotion),
                          prefix_len=len(prefix), text_len=0)


def generate(
    params: ModelParams, config: ModelConfig, vocab: Vocabulary, lex: Lexicon,
    query: GenerationQuery,
) -> list[str]:
    """Argmax decoding from the [user, item, features, tag, <bos>] prefix, as ``_decode_group`` of one query.

    Stops at <eos>, ``max_tokens`` words, or the model's length budget.  <pad>
    and <bos> are excluded from the argmax, and ties resolve to the lowest
    token id, so the output is a pure function of (params, query).
    """
    example = _prefix_example(config, vocab, query)
    if query.max_tokens == 0:
        return []
    tokens, _ = _decode_group(params, config, vocab, lex, [query], [(0, example)])[0]
    return [vocab.id_to_token[i] for i in tokens]


def _decode_group(
    params: ModelParams, config: ModelConfig, vocab: Vocabulary, lex: Lexicon,
    queries: list[GenerationQuery], members: list[tuple[int, EncodedExample]],
) -> dict[int, tuple[list[int], str]]:
    """Greedy decoding of ``members``, (query index, prefix) pairs whose prefixes have one length
    and whose queries allow at least one token.

    The rows step in lock step as one (B, ·, d) stack: the first step feeds
    each prefix and <bos>, every later step only the token the step before
    emitted, and the cache supplies the rest.  A row stops on <eos>,
    ``max_tokens`` or the length budget, and then leaves the stack and every
    cached K/V.  Returns each member's token ids and stop reason.
    """
    budget = config.max_len - members[0][1].prefix_len - 1
    batch, vnrc = make_batch([(ex, emotion_input_matrix(ex, vocab, lex, config.mask_emotion_tag)) for _, ex in members])
    live = [i for i, _ in members]
    generated: dict[int, list[int]] = {i: [] for i in live}
    done: dict[int, tuple[list[int], str]] = {}
    cache = DecodeCache(config)
    with nm.no_grad():
        while True:
            scores = next_token_logits(batch, params, config, vnrc, cache)
            scores[:, [PAD, BOS]] = -np.inf
            next_ids = np.argmax(scores, axis=1)
            keep = []
            for row, (i, next_id) in enumerate(zip(live, next_ids.tolist())):
                tokens = generated[i]
                if next_id == EOS:
                    done[i] = (tokens, "eos")
                    continue
                tokens.append(next_id)
                if len(tokens) == queries[i].max_tokens:
                    done[i] = (tokens, "max_tokens")
                elif len(tokens) == budget:
                    done[i] = (tokens, "length_budget")
                else:
                    keep.append(row)
            if not keep:
                return done
            if len(keep) < len(live):
                cache.select(keep)
                batch, next_ids = batch.select(keep), next_ids[keep]
                live = [live[row] for row in keep]
            batch = replace(batch, context_ids=next_ids[:, None])
            vnrc = np.array([[token_emotion(t, vocab, lex)] for t in next_ids.tolist()])


def batch_generate(
    params: ModelParams, config: ModelConfig, vocab: Vocabulary, lex: Lexicon,
    queries: list[GenerationQuery],
) -> list[GeneratedText]:
    """``generate`` for every query, decoded in lock step; per-query failures are collected, not raised.

    Queries whose prefixes have the same length sit at the same positions at
    every step, so each such group decodes as one stack with one batched
    cache.  Results come back in query order, token for token those of
    ``generate``, each with its stop reason.
    """
    results: list[GeneratedText | None] = [None] * len(queries)
    groups: dict[int, list[tuple[int, EncodedExample]]] = {}
    for i, query in enumerate(queries):
        try:
            example = _prefix_example(config, vocab, query)
        except ValueError as err:
            results[i] = GeneratedText(tokens=None, error=str(err))
            continue
        if query.max_tokens == 0:
            results[i] = GeneratedText(tokens=(), stop="max_tokens")
        else:
            groups.setdefault(example.prefix_len, []).append((i, example))
    for members in groups.values():
        for i, (tokens, stop) in _decode_group(params, config, vocab, lex, queries, members).items():
            results[i] = GeneratedText(tokens=tuple(vocab.id_to_token[t] for t in tokens), stop=stop)
    return results
