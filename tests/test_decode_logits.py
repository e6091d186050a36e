"""Every decoding step is pinned bit for bit: the sha256 of each ``next_token_logits`` row.

A seeded-init desk-shaped model decodes a fixed set of queries, first with
``batch_generate`` and then one by one with ``generate``; every row of every
logits array the decoder reads is hashed, in call order.  Untrained weights
emit the same word at every step, so no token-level test can see a moved bit;
these digests do.  The queries cover three prefix lengths, rows that leave the
stack at different steps, and length-budget stops.  The pins hold for the
numpy version and the single BLAS thread that CI pins.  To recapture them,
only when decoding arithmetic is meant to change::

    PYTHONPATH=src python -m tests.test_decode_logits tests/golden
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

from emoexplain import generator
from emoexplain.corpus import build_vocabulary, generate_synthetic_corpus
from emoexplain.fixtures import fixture_lexicon, pool_corpus_spec
from emoexplain.generator import GenerationQuery, batch_generate, generate
from emoexplain.model import ModelParams, config_for_vocab

GOLDEN = Path(__file__).resolve().parent / "golden" / "decode_logits.sha256"


def decode_digests() -> str:
    """One sha256 per logits row, a line each, over ``batch_generate`` and then ``generate`` of every query."""
    records = generate_synthetic_corpus(
        pool_corpus_spec(5, 6, 60, (0.25, 0.15, 0.15, 0.15, 0.15, 0.15), min_words=3, max_words=6), seed=7)
    vocab = build_vocabulary(records)
    lex = fixture_lexicon()
    config = config_for_vocab(vocab, embed_dim=64, ffn_dim=128)
    params = ModelParams(config, seed=7)
    features = sorted({f for rec in records for f in rec.features})
    queries = [
        GenerationQuery(rec.user, rec.item, tuple(features[j % len(features)] for j in range(i % 3 + 1)),
                        rec.emotion, max_tokens=(3, 7, 20, 40)[i % 4])
        for i, rec in enumerate(records[:12])
    ]
    rows: list[str] = []
    step = generator.next_token_logits

    def recorded(*args, **kwargs):
        logits = step(*args, **kwargs)
        rows.extend(hashlib.sha256(np.asarray(row, dtype="<f8").tobytes()).hexdigest() for row in logits)
        return logits

    generator.next_token_logits = recorded
    try:
        batch_generate(params, config, vocab, lex, queries)
        for query in queries:
            generate(params, config, vocab, lex, query)
    finally:
        generator.next_token_logits = step
    return "".join(f"{digest}\n" for digest in rows)


def test_decode_logits_equal_the_golden_digests():
    assert decode_digests() == GOLDEN.read_text(encoding="ascii")


if __name__ == "__main__":
    dest = Path(sys.argv[1])
    dest.mkdir(parents=True, exist_ok=True)
    (dest / GOLDEN.name).write_text(decode_digests(), encoding="ascii")
