"""Correctness checks, run on the recorded outputs after the timed loop.

Each timed operation (a ``train`` call, a ``batch_generate`` call, one query,
one CLI command) is one attempt in a Tally; it fails when it raised or when
any check on its output fails.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from emoexplain import corpus, lexicon, model, numerics


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{what}: {problem}")


def prefix_ids(query, vocab) -> list[int]:
    """The [user, item, features, emotion-tag] prefix ``generate`` decodes from."""
    feature_ids = [vocab.token_id(tok) for feat in query.features for tok in corpus.tokenize(feat)]
    return [
        vocab.user_to_id[query.user],
        vocab.item_to_id[query.item],
        *feature_ids,
        vocab.emotion_token_id(query.emotion),
    ]


def stop_reason(query, n_tokens: int, prefix_len: int, max_len: int) -> str:
    """Why decoding stopped after ``n_tokens``: eos, max_tokens or length_budget."""
    budget = max_len - prefix_len - 1
    if n_tokens < min(query.max_tokens, budget):
        return "eos"
    return "max_tokens" if n_tokens == query.max_tokens else "length_budget"


def greedy_problem(params, config, vocab, lex, query, tokens) -> str | None:
    """Check a generated sequence against one teacher-forced forward pass.

    Every token, and the closing <eos> when decoding stopped on one, must be
    the argmax of the LM logits at the position before it, with <pad> and
    <bos> excluded and ties going to the lowest id.  The length must respect
    ``max_tokens`` and the max_len budget.
    """
    prefix = prefix_ids(query, vocab)
    p = len(prefix)
    limit = min(query.max_tokens, config.max_len - p - 1)
    if len(tokens) > limit:
        return f"{len(tokens)} tokens exceed the limit of {limit}"
    ends_on_eos = stop_reason(query, len(tokens), p, config.max_len) == "eos"
    ids = prefix + [corpus.BOS] + [vocab.token_to_id[t] for t in tokens] + [corpus.EOS] * ends_on_eos
    ids += [corpus.PAD] * (config.max_len - len(ids))
    example = corpus.EncodedExample(
        context_ids=tuple(ids),
        emotion_target=lexicon.category_index(query.emotion),
        prefix_len=p,
        text_len=len(tokens),
    )
    vnrc = model.emotion_input_matrix(example, vocab, lex, config.mask_emotion_tag)
    with numerics.no_grad():
        logits = model.forward(example, params, config, vnrc).lm_logits.data
    for step in range(len(tokens) + ends_on_eos):
        scores = logits[p + step].copy()
        scores[[corpus.PAD, corpus.BOS]] = -np.inf
        best = int(np.argmax(scores))
        if best != ids[p + 1 + step]:
            return f"step {step}: sequence has id {ids[p + 1 + step]}, teacher-forced argmax is {best}"
    return None


def history_problem(history, epochs: int) -> str | None:
    losses = [*history.initial_train]
    for e in history.epochs:
        losses += [e.train_lm, e.train_emo, e.train_total, e.valid_lm, e.valid_emo, e.valid_total]
    if not all(math.isfinite(x) for x in losses):
        return "non-finite loss in the history"
    if len(history.epochs) != epochs:
        return f"{len(history.epochs)} epochs ran, expected {epochs}"
    if not history.epochs[-1].train_total < history.initial_train[2]:
        return (f"final train loss {history.epochs[-1].train_total:.4f} is not below "
                f"the initial {history.initial_train[2]:.4f}")
    return None


def _not_counts(shares, n: int) -> bool:
    """True unless every share is a whole count out of ``n``."""
    return any(abs(s * n - round(s * n)) > 1e-6 for s in shares)


def _distribution_problem(label: str, dist, n: int) -> str | None:
    if abs(sum(dist) - 1.0) > 1e-9:
        return f"{label} distribution sums to {sum(dist)!r}"
    if _not_counts(dist, n):
        return f"{label} distribution is not a count over {n} pairs"
    return None


def report_problem(text: str, n_pairs: int, ground_truth) -> str | None:
    """report.json of ``emoexplain evaluate`` over ``n_pairs`` test pairs."""
    report = json.loads(text)
    if _not_counts([report["fmr"], report["usr"]], n_pairs):
        return f"FMR/USR are not counts over {n_pairs} pairs"
    audit = report["emotion_audit"]
    if not np.allclose(audit["ground_truth"], ground_truth, rtol=0, atol=1e-12):
        return "ground-truth distribution differs from the test split's tags"
    return (_distribution_problem("ground-truth", audit["ground_truth"], n_pairs)
            or _distribution_problem("generated", audit["generated"], n_pairs))


def audit_problem(text: str, n_pairs: int, ground_truth) -> str | None:
    """audit.json of ``emoexplain audit --baseline`` over ``n_pairs`` test pairs."""
    payload = json.loads(text)
    if not np.allclose(payload["audit"]["ground_truth"], ground_truth, rtol=0, atol=1e-12):
        return "ground-truth distribution differs from the test split's tags"
    for section in ("audit", "baseline_audit"):
        for side in ("ground_truth", "generated"):
            problem = _distribution_problem(f"{section}.{side}", payload[section][side], n_pairs)
            if problem:
                return problem
    if set(payload["debiasing"]) != set(lexicon.CATEGORIES):
        return "debiasing column does not cover the six categories"
    return None
