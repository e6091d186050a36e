"""Independent brute-force oracles for the evaluation metrics and for decoding.

The metric oracles deliberately share no code with emoexplain.metrics: n-grams
are enumerated with plain dicts and loops so the two implementations can only
agree by computing the same quantity.  ``generate_oracle`` is greedy decoding
without a cache: every step runs ``model.forward`` over all max_len positions.
``biased_matmul_oracle`` and ``residual_layer_norm_oracle`` are the unfused
compositions that ``matmul``'s ``bias`` and ``layer_norm``'s ``residual`` fold
into one op each, and ``attention_oracle`` is the five ops (three products,
``scaled_dot_product_oracle`` of q, k and v, the biased output projection)
that ``attention`` fuses.  ``clipped_overlap_oracle``, ``classify_oracle`` and
``emotion_input_oracle`` are the earlier formulas that ``EvaluationPair.overlap``,
``classify_explanation`` and ``emotion_input_matrix`` must reproduce bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from emoexplain import numerics as nm
from emoexplain.corpus import BOS, EOS, PAD, EncodedExample, tokenize
from emoexplain.lexicon import CATEGORIES, NEUTRAL_INDEX, NEUTRAL_VECTOR, category_index, word_emotion
from emoexplain.model import emotion_input_matrix, forward, token_emotion


def ngram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def count_into(table, grams):
    for gram in grams:
        table[gram] = table.get(gram, 0) + 1
    return table


def bleu_oracle(pairs, n):
    hyp_total_len = 0
    ref_total_len = 0
    matched = [0] * n
    possible = [0] * n
    for ref, hyp, _ in pairs:
        hyp_total_len += len(hyp)
        ref_total_len += len(ref)
        for order in range(1, n + 1):
            hyp_counts = count_into({}, ngram_list(hyp, order))
            ref_counts = count_into({}, ngram_list(ref, order))
            for gram, count in hyp_counts.items():
                matched[order - 1] += min(count, ref_counts.get(gram, 0))
                possible[order - 1] += count

    if hyp_total_len == 0:
        return 0.0
    log_sum = 0.0
    for order in range(n):
        if possible[order] == 0:
            continue
        if matched[order] == 0:
            return 0.0
        log_sum += math.log(matched[order] / possible[order]) / n
    if hyp_total_len > ref_total_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_total_len / hyp_total_len)
    return 100.0 * bp * math.exp(log_sum)


def rouge_oracle(pairs, n):
    precisions = []
    recalls = []
    f1s = []
    for ref, hyp, _ in pairs:
        hyp_counts = count_into({}, ngram_list(hyp, n))
        ref_counts = count_into({}, ngram_list(ref, n))
        overlap = sum(min(c, ref_counts.get(g, 0)) for g, c in hyp_counts.items())
        hyp_n = len(hyp) - n + 1 if len(hyp) >= n else 0
        ref_n = len(ref) - n + 1 if len(ref) >= n else 0
        p = overlap / hyp_n if hyp_n > 0 else 0.0
        r = overlap / ref_n if ref_n > 0 else 0.0
        f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    k = len(pairs)
    return (100 * sum(precisions) / k, 100 * sum(recalls) / k, 100 * sum(f1s) / k)


def usr_oracle(hyps):
    seen = []
    for hyp in hyps:
        sentence = " ".join(hyp)
        if sentence not in seen:
            seen.append(sentence)
    return len(seen) / len(hyps)


def fmr_oracle(pairs):
    hits = 0
    for _, hyp, features in pairs:
        if any(feature in hyp for feature in features):
            hits += 1
    return hits / len(pairs)


def fcr_oracle(pairs):
    all_features = set()
    for _, _, features in pairs:
        all_features.update(features)
    mentioned = set()
    for feature in all_features:
        for _, hyp, _ in pairs:
            if feature in hyp:
                mentioned.add(feature)
                break
    return len(mentioned) / len(all_features)


def div_oracle(sets):
    total = 0
    pairs = 0
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            total += len(set(sets[i]) & set(sets[j]))
            pairs += 1
    return total / pairs


def feature_sets_oracle(pairs):
    universe = set()
    for _, _, features in pairs:
        universe.update(features)
    return [set(f for f in universe if f in hyp) for _, hyp, _ in pairs]


def generate_oracle(params, config, vocab, lex, query):
    """(tokens, logits) of full-recompute greedy decoding.

    ``logits`` holds, for each step, the LM logits row the step's argmax
    reads, before <pad> and <bos> are masked out.
    """
    feature_ids = [vocab.token_id(tok) for feat in query.features for tok in tokenize(feat)]
    prefix = [vocab.user_to_id[query.user], vocab.item_to_id[query.item], *feature_ids,
              vocab.emotion_token_id(query.emotion)]
    prefix_len = len(prefix)
    generated, logits = [], []
    with nm.no_grad():
        while len(generated) < query.max_tokens and prefix_len + 1 + len(generated) < config.max_len:
            ids = prefix + [BOS] + generated
            ids.extend([PAD] * (config.max_len - len(ids)))
            example = EncodedExample(context_ids=tuple(ids), emotion_target=category_index(query.emotion),
                                     prefix_len=prefix_len, text_len=len(generated))
            vnrc = emotion_input_matrix(example, vocab, lex, config.mask_emotion_tag)
            row = forward(example, params, config, vnrc).lm_logits.data[prefix_len + len(generated)]
            logits.append(row.copy())
            row[[PAD, BOS]] = -np.inf
            next_id = int(np.argmax(row))
            if next_id == EOS:
                break
            generated.append(next_id)
    return [vocab.id_to_token[i] for i in generated], logits


def biased_matmul_oracle(a, w, bias, transpose_b=False):
    """``matmul(a, w, transpose_b, bias=bias)`` as two ops: the product, then ``add``."""
    return nm.add(nm.matmul(a, w, transpose_b), bias)


def residual_layer_norm_oracle(x, residual, gamma, beta):
    """``layer_norm(x, gamma, beta, residual=residual)`` as two ops: ``add``, then the norm."""
    return nm.layer_norm(nm.add(x, residual), gamma, beta)


def scaled_dot_product_oracle(q, k, v, n_heads):
    """The attention of projected ``q``, ``k`` and ``v`` as one op: k and v hold positions 0..n-1 and
    q the last m <= n of them, so the query row for position p attends to positions 0..p only."""
    m, dim = q.data.shape[-2:]
    n = k.data.shape[-2]
    dk = dim // n_heads
    scale = 1.0 / math.sqrt(dk)

    def split(x):  # (..., rows, dim) -> (..., heads, rows, dk)
        return x.reshape(*x.shape[:-1], n_heads, dk).swapaxes(-2, -3)

    def merge(x):  # (..., heads, rows, dk) -> (..., rows, dim)
        x = x.swapaxes(-2, -3)
        return x.reshape(*x.shape[:-2], dim)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if m > 1:
        scores = np.where(np.tril(np.ones((m, n), dtype=bool), k=n - m), scores, -np.inf)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    att = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        gh = split(g)
        if v.requires_grad:
            nm._accumulate(v, merge(att.swapaxes(-1, -2) @ gh))
        if q.requires_grad or k.requires_grad:
            datt = gh @ vh.swapaxes(-1, -2)
            ds = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
            if q.requires_grad:
                nm._accumulate(q, merge((ds @ kh) * scale))
            if k.requires_grad:
                nm._accumulate(k, merge((ds.swapaxes(-1, -2) @ qh) * scale))

    return nm._result("attention", merge(att @ vh), (q, k, v), backward_fn)


def attention_oracle(x, wq, wk, wv, wo, bo, n_heads, cache=None):
    """``attention(x, wq, wk, wv, wo, bo, n_heads, cache)`` as five ops, with ``concat`` for the cache.

    ``cache`` is a list, empty before the first call, that holds the keys and values of the positions
    fed so far as constants, as ``KVCache`` does.
    """
    q, k, v = (nm.matmul(x, w) for w in (wq, wk, wv))
    if cache is not None:
        if cache:
            k, v = (nm.concat([held, new], axis=-2) for held, new in zip(cache, (k, v)))
        cache[:] = [nm.Tensor(k.data), nm.Tensor(v.data)]
    return nm.matmul(scaled_dot_product_oracle(q, k, v, n_heads), wo, bias=bo)


def clipped_overlap_oracle(hyp, ref, n):
    """(clipped matches, hypothesis n-grams, reference n-grams) from one Counter per side."""
    hyp_counts = Counter(zip(*(hyp[i:] for i in range(n))))
    ref_counts = Counter(zip(*(ref[i:] for i in range(n))))
    matched = sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
    return matched, max(len(hyp) - n + 1, 0), max(len(ref) - n + 1, 0)


def classify_oracle(lexicon, tokens, threshold=0.2):
    """The category from five running sums kept in a list, argmax by (mean, -index)."""
    if not tokens:
        return CATEGORIES[NEUTRAL_INDEX]
    sums = [0.0] * 5
    for tok in tokens:
        vec = word_emotion(lexicon, tok)
        for k in range(5):
            sums[k] += vec[k]
    n = len(tokens)
    means = [s / n for s in sums]
    best = max(range(5), key=lambda k: (means[k], -k))
    if means[best] < threshold:
        return CATEGORIES[NEUTRAL_INDEX]
    return CATEGORIES[best]


def emotion_input_oracle(example, vocab, lex, mask_emotion_tag=False):
    """Emotion-encoder inputs built position by position, testing each position against the tag's."""
    rows = [NEUTRAL_VECTOR, NEUTRAL_VECTOR]
    for pos, token_id in enumerate(example.context_ids[2:], start=2):
        if pos == example.tag_position:
            if mask_emotion_tag:
                rows.append(NEUTRAL_VECTOR)
            else:
                one_hot = [0.0] * len(CATEGORIES)
                one_hot[example.emotion_target] = 1.0
                rows.append(tuple(one_hot))
        else:
            rows.append(token_emotion(token_id, vocab, lex))
    return np.array(rows, dtype=np.float64)
