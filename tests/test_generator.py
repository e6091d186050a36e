from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from emoexplain import generator
from emoexplain.corpus import Record, encode_example, tokenize
from emoexplain.generator import GeneratedText, GenerationQuery, batch_generate, generate
from emoexplain.model import ModelParams

from .oracles import generate_oracle


@pytest.fixture(scope="module")
def trained(overfit_setup):
    params, config, vocab, split, _ = overfit_setup
    return params, config, vocab, split


def test_generate_reproduces_overfit_record(trained, lex):
    params, config, vocab, split = trained
    rec = split.train[0]
    tokens = generate(params, config, vocab, lex,
                      GenerationQuery(rec.user, rec.item, rec.features, rec.emotion))
    assert " ".join(tokens) == rec.explanation


def test_generate_never_emits_pad_or_bos(trained, lex):
    params, config, vocab, split = trained
    for rec in split.train[:6]:
        tokens = generate(params, config, vocab, lex,
                          GenerationQuery(rec.user, rec.item, rec.features, rec.emotion))
        assert "<pad>" not in tokens
        assert "<bos>" not in tokens


def test_generate_deterministic(trained, lex):
    params, config, vocab, split = trained
    rec = split.train[1]
    query = GenerationQuery(rec.user, rec.item, rec.features, rec.emotion)
    assert generate(params, config, vocab, lex, query) == generate(params, config, vocab, lex, query)


def test_generate_respects_max_tokens(trained, lex):
    params, config, vocab, split = trained
    rec = split.train[2]
    tokens = generate(params, config, vocab, lex,
                      GenerationQuery(rec.user, rec.item, rec.features, rec.emotion, max_tokens=2))
    assert len(tokens) <= 2


def test_generate_unknown_feature_is_tolerated(trained, lex):
    params, config, vocab, split = trained
    rec = split.train[0]
    tokens = generate(params, config, vocab, lex,
                      GenerationQuery(rec.user, rec.item, ("zzzq",), rec.emotion))
    assert isinstance(tokens, list)


def test_generate_unknown_user_errors(trained, lex):
    params, config, vocab, _ = trained
    with pytest.raises(ValueError, match="unknown user"):
        generate(params, config, vocab, lex, GenerationQuery("nobody", "i000", ("f",), "happy"))


def test_generate_unknown_item_errors(trained, lex):
    params, config, vocab, _ = trained
    with pytest.raises(ValueError, match="unknown item"):
        generate(params, config, vocab, lex, GenerationQuery("u000", "nowhere", ("f",), "happy"))


@pytest.mark.parametrize("user,item", [("nobody", "i000"), ("u000", "nowhere")])
def test_unknown_user_or_item_reads_the_same_in_training_and_generation(trained, lex, user, item):
    params, config, vocab, _ = trained
    with pytest.raises(ValueError) as from_generate:
        generate(params, config, vocab, lex, GenerationQuery(user, item, ("f",), "happy"))
    with pytest.raises(ValueError) as from_encode:
        encode_example(Record(user, item, ("f",), "nice bar", "happy"), vocab, config.max_len)
    assert str(from_encode.value) == str(from_generate.value)


def test_query_requires_features():
    with pytest.raises(ValueError, match="at least one feature"):
        GenerationQuery("u", "i", (), "happy")


def test_query_rejects_negative_max_tokens():
    with pytest.raises(ValueError, match="max_tokens must be a non-negative integer, got -3"):
        GenerationQuery("u", "i", ("f",), "happy", max_tokens=-3)
    assert GenerationQuery("u", "i", ("f",), "happy", max_tokens=0).max_tokens == 0


def test_batch_of_one_equals_generate(trained, lex):
    params, config, vocab, split = trained
    rec = split.train[3]
    query = GenerationQuery(rec.user, rec.item, rec.features, rec.emotion)
    single = generate(params, config, vocab, lex, query)
    batch = batch_generate(params, config, vocab, lex, [query])
    assert batch == [GeneratedText(tokens=tuple(single))]


def test_batch_collects_errors_without_failing(trained, lex):
    params, config, vocab, split = trained
    rec = split.train[0]
    good = GenerationQuery(rec.user, rec.item, rec.features, rec.emotion)
    bad = GenerationQuery("nobody", rec.item, rec.features, rec.emotion)
    results = batch_generate(params, config, vocab, lex, [good, bad, good])
    assert results[0].tokens is not None
    assert results[1].tokens is None and "unknown user" in results[1].error
    assert results[2] == results[0]


def test_batch_permutation_permutes_outputs(trained, lex):
    params, config, vocab, split = trained
    queries = [GenerationQuery(r.user, r.item, r.features, r.emotion) for r in split.train[:5]]
    forward = batch_generate(params, config, vocab, lex, queries)
    backward = batch_generate(params, config, vocab, lex, list(reversed(queries)))
    assert forward == list(reversed(backward))


def test_batch_of_100_equals_sequential_calls(trained, lex):
    params, config, vocab, split = trained
    queries = [
        GenerationQuery(r.user, r.item, r.features, r.emotion)
        for k in range(100)
        for r in [split.train[k % len(split.train)]]
    ]
    batch = batch_generate(params, config, vocab, lex, queries)
    sequential = [tuple(generate(params, config, vocab, lex, q)) for q in queries]
    assert [r.tokens for r in batch] == sequential


def test_generate_stays_within_length_budget(trained, lex):
    params, config, vocab, split = trained
    rec = split.train[0]
    tokens = generate(params, config, vocab, lex,
                      GenerationQuery(rec.user, rec.item, rec.features, rec.emotion, max_tokens=500))
    assert len(tokens) <= config.max_len - 4  # prefix of >= 3 plus <bos>


def _generate_with_logits(monkeypatch, params, config, vocab, lex, query):
    """``generate``'s tokens and the logits row each of its steps read."""
    rows = []
    step = generator.next_token_logits

    def recorded(*args):
        out = step(*args)
        rows.append(out.copy())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(generator, "next_token_logits", recorded)
        tokens = generate(params, config, vocab, lex, query)
    return tokens, rows


def _assert_matches_oracle(monkeypatch, params, config, vocab, lex, query):
    tokens, rows = _generate_with_logits(monkeypatch, params, config, vocab, lex, query)
    oracle_tokens, oracle_rows = generate_oracle(params, config, vocab, lex, query)
    assert tokens == oracle_tokens
    assert len(rows) == len(oracle_rows)
    for row, oracle_row in zip(rows, oracle_rows):
        assert np.max(np.abs(row - oracle_row)) <= 1e-9
    return tokens


def test_cached_decoding_matches_full_recompute_on_overfit_records(monkeypatch, trained, lex):
    params, config, vocab, split = trained
    for rec in split.train + split.valid + split.test:
        query = GenerationQuery(rec.user, rec.item, rec.features, rec.emotion)
        _assert_matches_oracle(monkeypatch, params, config, vocab, lex, query)


def _stop_reason(config, query, tokens) -> str:
    prefix_len = 3 + sum(len(tokenize(f)) for f in query.features)  # user, item, features, tag
    budget = config.max_len - prefix_len - 1
    if len(tokens) < min(query.max_tokens, budget):
        return "eos"
    return "max_tokens" if len(tokens) == query.max_tokens else "length_budget"


def test_cached_decoding_matches_full_recompute_on_seeded_weights(monkeypatch, trained, lex):
    _, config, vocab, split = trained
    reasons = set()
    for mask in (False, True):
        masked = replace(config, mask_emotion_tag=mask)
        for seed in range(3):
            params = ModelParams(masked, seed)
            for rec in split.test[:3]:
                for max_tokens in (4, 500):
                    query = GenerationQuery(rec.user, rec.item, rec.features, rec.emotion, max_tokens=max_tokens)
                    tokens = _assert_matches_oracle(monkeypatch, params, masked, vocab, lex, query)
                    reasons.add((mask, _stop_reason(masked, query, tokens)))
    assert {(True, "max_tokens"), (True, "length_budget"), (False, "max_tokens"), (False, "length_budget")} <= reasons


def _prefix_len(query) -> int:
    return 3 + sum(len(tokenize(f)) for f in query.features)  # user, item, features, tag


def _lock_step(monkeypatch, params, config, vocab, lex, queries):
    """``batch_generate``'s results and, per query, the logits row each of its steps read.

    Rows are matched to queries by the lock-step layout: prefix-length groups
    in order of first appearance, and in each step the group's live queries
    in query order.  The batch size of every step must equal the number of
    queries that are still decoding.
    """
    blocks = []
    step = generator.next_token_logits

    def recorded(*args):
        out = step(*args)
        blocks.append(out.copy())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(generator, "next_token_logits", recorded)
        results = batch_generate(params, config, vocab, lex, queries)

    groups: dict[int, list[int]] = {}
    for i, (query, result) in enumerate(zip(queries, results)):
        if result.tokens is not None:
            groups.setdefault(_prefix_len(query), []).append(i)
    rows = {i: [] for members in groups.values() for i in members}
    blocks_iter = iter(blocks)
    for members in groups.values():
        # A query decodes one step per token, plus the step that emits <eos>.
        steps = {i: len(results[i].tokens) + (_stop_reason(config, queries[i], results[i].tokens) == "eos")
                 for i in members}
        sizes = []
        for s in range(max(steps.values())):
            live = [i for i in members if steps[i] > s]
            block = next(blocks_iter)
            assert block.shape == (len(live), config.n_tokens)
            sizes.append(len(live))
            for row, i in enumerate(live):
                rows[i].append(block[row])
        assert sizes == sorted(sizes, reverse=True)
    assert next(blocks_iter, None) is None
    return results, rows


def _assert_lock_step_matches(monkeypatch, params, config, vocab, lex, queries) -> set[str]:
    """Check ``batch_generate`` against ``generate`` and the oracle; returns the stop reasons seen."""
    results, rows = _lock_step(monkeypatch, params, config, vocab, lex, queries)
    reasons = set()
    for i, (query, result) in enumerate(zip(queries, results)):
        try:
            single = generate(params, config, vocab, lex, query)
        except ValueError as err:
            assert result == GeneratedText(tokens=None, error=str(err)) and result.stop is None
            continue
        oracle_tokens, oracle_rows = generate_oracle(params, config, vocab, lex, query)
        assert list(result.tokens) == single == oracle_tokens
        assert result.stop == _stop_reason(config, query, single)
        reasons.add(result.stop)
        assert len(rows[i]) == len(oracle_rows)
        for row, oracle_row in zip(rows[i], oracle_rows):
            assert np.max(np.abs(row - oracle_row)) <= 1e-9
    return reasons


def test_lock_step_matches_generate_and_oracle_on_overfit_records(monkeypatch, trained, lex):
    params, config, vocab, split = trained
    queries = [GenerationQuery(r.user, r.item, r.features, r.emotion) for r in split.train + split.valid + split.test]
    assert "eos" in _assert_lock_step_matches(monkeypatch, params, config, vocab, lex, queries)


def test_lock_step_matches_oracle_on_mixed_queries(monkeypatch, trained, lex):
    overfit, config, vocab, split = trained
    records = split.test[:2] + split.train[:2]
    queries = []
    for k, rec in enumerate(records):
        # Every other record gains a two-word feature, so two prefix lengths interleave.
        features = rec.features + (("lobby view",) if k % 2 else ())
        for max_tokens in (0, 1, 4, 500):
            queries.append(GenerationQuery(rec.user, rec.item, features, rec.emotion, max_tokens=max_tokens))
    queries.insert(3, GenerationQuery("nobody", records[0].item, records[0].features, records[0].emotion))
    queries.insert(9, GenerationQuery(records[1].user, "nowhere", records[1].features, records[1].emotion))
    assert len({_prefix_len(q) for q in queries}) >= 2
    reasons = set()
    for mask in (False, True):
        masked = replace(config, mask_emotion_tag=mask)
        for params in (overfit, *(ModelParams(masked, seed) for seed in range(3))):
            reasons |= _assert_lock_step_matches(monkeypatch, params, masked, vocab, lex, queries)
    assert reasons == {"eos", "max_tokens", "length_budget"}


def test_lock_step_matches_oracle_at_a_wider_model(monkeypatch, trained, lex):
    # Batched decode steps run one GEMM over the batch's rows where generate runs one
    # product per query; at d=256 their logits still agree within 1e-9 and pick the same tokens.
    _, config, vocab, split = trained
    queries = [GenerationQuery(r.user, r.item, r.features, r.emotion, max_tokens=m)
               for r in split.test[:2] + split.train[:2] for m in (3, 8)]
    for mask in (False, True):
        wide = replace(config, embed_dim=256, ffn_dim=512, mask_emotion_tag=mask)
        for seed in range(3):
            _assert_lock_step_matches(monkeypatch, ModelParams(wide, seed), wide, vocab, lex, queries)


def test_lock_step_drops_rows_that_stop_early(monkeypatch, trained, lex):
    _, config, vocab, split = trained
    params = ModelParams(config, 0)
    rec = split.test[0]
    queries = [GenerationQuery(rec.user, rec.item, rec.features, rec.emotion, max_tokens=n) for n in (3, 9, 0, 5, 9)]
    sizes = []
    step = generator.next_token_logits

    def recorded(*args):
        out = step(*args)
        sizes.append(out.shape[0])
        return out

    monkeypatch.setattr(generator, "next_token_logits", recorded)
    results = batch_generate(params, config, vocab, lex, queries)
    assert [len(r.tokens) for r in results] == [3, 9, 0, 5, 9]
    assert sizes == [4, 4, 4, 3, 3, 2, 2, 2, 2]


def test_argmax_ties_go_to_the_lowest_token_id(monkeypatch, trained, lex):
    # Two word ids share each step's maximum exactly; both decoders must take the lower one.
    params, config, vocab, split = trained
    low, high = len(vocab.id_to_token) - 2, len(vocab.id_to_token) - 1
    step = generator.next_token_logits

    def tied(*args):
        out = step(*args)
        out[:, [low, high]] = out.max() + 1.0
        return out

    monkeypatch.setattr(generator, "next_token_logits", tied)
    queries = [GenerationQuery(r.user, r.item, r.features, r.emotion, max_tokens=3) for r in split.test[:2]]
    expected = [vocab.id_to_token[low]] * 3
    assert [generate(params, config, vocab, lex, q) for q in queries] == [expected, expected]
    assert [list(r.tokens) for r in batch_generate(params, config, vocab, lex, queries)] == [expected, expected]
