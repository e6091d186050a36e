from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from emoexplain import model
from emoexplain import numerics as nm
from emoexplain.corpus import Record, build_vocabulary, encode_example
from emoexplain.generator import GenerationQuery, _prefix_example
from emoexplain.lexicon import NEUTRAL_VECTOR
from emoexplain.model import (
    Batch,
    ModelConfig,
    ModelParams,
    decode,
    emotion_embed,
    emotion_head,
    emotion_input_matrix,
    encode_context,
    encode_emotion_from_matrix,
    forward,
    fuse,
    lm_head,
    make_batch,
    total_loss,
)
from emoexplain.numerics import Tensor

from .oracles import emotion_input_oracle


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def tiny_config(tiny_vocab=None):
    return ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=8, embed_dim=8, ffn_dim=16)


@pytest.fixture(scope="module")
def tiny_record():
    return Record("u000", "i001", ("lobby",), "nice warm bar", "happy")


@pytest.fixture()
def tiny_setup(tiny_config, tiny_record, tiny_vocab, lex):
    params = ModelParams(tiny_config, seed=0)
    example = encode_example(tiny_record, tiny_vocab, tiny_config.max_len)
    vnrc = emotion_input_matrix(example, tiny_vocab, lex)
    return params, example, vnrc


@pytest.mark.parametrize("field", ["max_len", "embed_dim", "ffn_dim", "encoder_layers",
                                   "decoder_layers", "attention_heads"])
@pytest.mark.parametrize("value", [0, -2])
def test_config_rejects_nonpositive_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a positive integer, got {value}"):
        ModelConfig(n_tokens=20, n_users=2, n_items=2, **{field: value})


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="not divisible"):
        ModelConfig(n_tokens=20, n_users=2, n_items=2, embed_dim=10, attention_heads=4)


def test_parameters_come_in_creation_order(tiny_config):
    layer = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bo", "ln1.gamma", "ln1.beta",
             "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.gamma", "ln2.beta")
    stacks = (("emotion_encoder", 2), ("context_encoder", 2), ("decoder", 3))
    params = ModelParams(replace(tiny_config, decoder_layers=3), seed=0)
    assert [p.name for p in params.all()] == [
        "token_embedding", "user_embedding", "item_embedding", "positional",
        "emotion_mlp.w1", "emotion_mlp.b1", "emotion_mlp.w2", "emotion_mlp.b2",
        *(f"{stack}.{i}.{name}" for stack, depth in stacks for i in range(depth) for name in layer),
        "emotion_head",
    ]
    assert params.all()[0] is params.token_embedding and params.all()[-1] is params.emotion_head_weight
    assert params.all()[-2] is params.decoder[2].ln2_beta
    params.all().clear()  # a copy: the model keeps its list
    assert len(params.all()) == 8 + 13 * 7 + 1


def test_checkpoint_parameters_the_model_does_not_take_are_refused(tiny_config):
    deeper = ModelParams(replace(tiny_config, encoder_layers=3, decoder_layers=3), seed=0)
    state = {p.name: p.data for p in deeper.all()}
    with pytest.raises(ValueError, match=r"checkpoint has parameter 'emotion_encoder\.2\.attn\.wq', which the model"):
        ModelParams(tiny_config, state=state)
    loaded = ModelParams(replace(tiny_config, encoder_layers=3, decoder_layers=3), state=state)
    assert all(p.data is state[p.name] for p in loaded.all()) and len(loaded.all()) == len(state)


def test_emotion_embed_zero_weights_give_zero_output(tiny_config):
    params = ModelParams(tiny_config, seed=0)
    for p in (params.emo_w1, params.emo_b1, params.emo_w2, params.emo_b2):
        p.data[...] = 0.0
    out = emotion_embed(params, Tensor(np.array([NEUTRAL_VECTOR])))
    assert np.array_equal(out.data, np.zeros((1, tiny_config.embed_dim)))


def test_emotion_embed_output_width_is_embed_dim(tiny_config):
    params = ModelParams(tiny_config, seed=1)
    out = emotion_embed(params, Tensor(np.array([[0.5, 0, 0, 0.2, 0, 0.3]])))
    assert out.data.shape == (1, tiny_config.embed_dim)


def test_emotion_embed_gradient_matches_finite_differences(tiny_config):
    params = ModelParams(tiny_config, seed=2)
    vec = Tensor(np.array([[0.7, 0.0, 0.5, 0.0, 0.0, 0.0]]))
    mlp = [params.emo_w1, params.emo_b1, params.emo_w2, params.emo_b2]

    def loss():
        g = emotion_embed(params, vec)
        return nm.tensor_sum(nm.matmul(g, g, transpose_b=True))

    assert nm.grad_check(loss, mlp, n_samples=200, seed=0) < 1e-5


def test_emotion_input_matrix_layout(tiny_setup, tiny_vocab, lex):
    _, example, vnrc = tiny_setup
    assert vnrc.shape == (8, 6)
    assert tuple(vnrc[0]) == NEUTRAL_VECTOR  # user
    assert tuple(vnrc[1]) == NEUTRAL_VECTOR  # item
    assert tuple(vnrc[2]) == NEUTRAL_VECTOR  # "lobby" is lexicon-silent
    assert tuple(vnrc[3]) == (1.0, 0, 0, 0, 0, 0)  # happy one-hot at the tag slot
    assert tuple(vnrc[4]) == NEUTRAL_VECTOR  # <bos>
    assert vnrc[5][0] == 0.0  # "nice" is not in the fixture lexicon


def test_emotion_input_matrix_mask_flag(tiny_setup, tiny_vocab, lex):
    _, example, _ = tiny_setup
    masked = emotion_input_matrix(example, tiny_vocab, lex, mask_emotion_tag=True)
    assert tuple(masked[3]) == NEUTRAL_VECTOR


@pytest.mark.parametrize("mask_emotion_tag", [False, True])
def test_emotion_input_matrix_equals_the_per_position_oracle(small_records, lex, monkeypatch, mask_emotion_tag):
    vocab = build_vocabulary(small_records[:8])  # later records bring words outside the vocabulary
    config = ModelConfig(n_tokens=vocab.n_tokens, n_users=len(vocab.id_to_user), n_items=len(vocab.id_to_item),
                         max_len=12)
    examples = [encode_example(rec, vocab, config.max_len) for rec in small_records
                if rec.user in vocab.user_to_id and rec.item in vocab.item_to_id]
    examples += [_prefix_example(config, vocab, GenerationQuery(rec.user, rec.item, rec.features, emotion))
                 for rec, emotion in zip(small_records[:8], ("sad", "happy", "fear", "neutral") * 2)]
    lookups, real = [], model.word_emotion

    def counted(lexicon, word):
        lookups.append(word)
        return real(lexicon, word)

    monkeypatch.setattr(model, "word_emotion", counted)
    for example in examples:
        got = emotion_input_matrix(example, vocab, lex, mask_emotion_tag)
        seen = len(lookups)
        want = emotion_input_oracle(example, vocab, lex, mask_emotion_tag)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert lookups[:seen] == lookups[seen:]  # the same lexicon lookups, in the same order
        del lookups[:]


def test_mask_emotion_tag_hides_tag_from_both_encoders(tiny_config, tiny_vocab, lex):
    masked_config = replace(tiny_config, mask_emotion_tag=True)
    params = ModelParams(masked_config, seed=6)
    base = Record("u000", "i001", ("lobby",), "nice warm bar", "happy")
    relabeled = Record("u000", "i001", ("lobby",), "nice warm bar", "sad")
    outputs = []
    for rec in (base, relabeled):
        ex = encode_example(rec, tiny_vocab, masked_config.max_len)
        vnrc = emotion_input_matrix(ex, tiny_vocab, lex, mask_emotion_tag=True)
        outputs.append(forward(ex, params, masked_config, vnrc))
    # with the tag hidden everywhere, changing only the tag changes nothing
    assert np.array_equal(outputs[0].lm_logits.data, outputs[1].lm_logits.data)
    assert np.array_equal(outputs[0].emotion_logits.data, outputs[1].emotion_logits.data)


def test_encode_emotion_constant_input_before_position(tiny_config, tiny_vocab, lex):
    # all-neutral emotion inputs: every position receives the same MLP output
    params = ModelParams(tiny_config, seed=3)
    vnrc = np.tile(NEUTRAL_VECTOR, (8, 1))
    base = emotion_embed(params, Tensor(vnrc)).data
    assert np.allclose(base, base[0], atol=0)


def test_encode_emotion_shape_and_causality(tiny_setup, tiny_config, tiny_vocab, lex):
    params, example, vnrc = tiny_setup
    out = encode_emotion_from_matrix(vnrc, params, tiny_config)
    assert out.data.shape == (8, 8)

    # swapping the word at position 5 from happy-pool to fear-pool caps the
    # change to positions >= 5 under the causal mask
    changed = vnrc.copy()
    changed[5] = (0.0, 0.0, 0.0, 0.0, 0.8, 0.0)
    out_changed = encode_emotion_from_matrix(changed, params, tiny_config)
    assert np.array_equal(out.data[:5], out_changed.data[:5])
    assert not np.array_equal(out.data[5:], out_changed.data[5:])


def test_encode_emotion_rejects_bad_shape(tiny_setup, tiny_config):
    params, _, _ = tiny_setup
    with pytest.raises(ValueError, match="emotion input shape"):
        encode_emotion_from_matrix(np.zeros((4, 6)), params, tiny_config)


def test_encode_context_shape_and_determinism(tiny_setup, tiny_config):
    params, example, _ = tiny_setup
    a = encode_context(example, params, tiny_config)
    b = encode_context(example, params, tiny_config)
    assert a.data.shape == (8, 8)
    assert np.array_equal(a.data, b.data)


def test_encode_context_causality(tiny_setup, tiny_config, tiny_vocab):
    params, example, _ = tiny_setup
    other_ids = list(example.context_ids)
    other_ids[6] = tiny_vocab.token_to_id["pool"]  # differs at position 6 only
    other = replace(example, context_ids=tuple(other_ids))
    a = encode_context(example, params, tiny_config)
    b = encode_context(other, params, tiny_config)
    assert np.array_equal(a.data[:6], b.data[:6])
    assert not np.array_equal(a.data[6:], b.data[6:])


def test_fuse_intensity_zero_is_context_exactly(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    emo = encode_emotion_from_matrix(vnrc, params, tiny_config)
    ctx = encode_context(example, params, tiny_config)
    merged = fuse(emo, ctx, 0.0)
    assert np.array_equal(merged.data, ctx.data)


def test_fuse_doubles_equal_inputs():
    h = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(fuse(h, h, 1.0).data, 2 * h.data)


def test_fuse_affine_in_intensity(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    emo = encode_emotion_from_matrix(vnrc, params, tiny_config)
    ctx = encode_context(example, params, tiny_config)
    a = 1.7
    lhs = fuse(emo, ctx, a).data - fuse(emo, ctx, 0.0).data
    rhs = a * (fuse(emo, ctx, 1.0).data - fuse(emo, ctx, 0.0).data)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_fuse_shape_mismatch_errors():
    with pytest.raises(ValueError, match="fuse shape mismatch"):
        fuse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3))), 1.0)


def test_decode_shape_causality_determinism(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    merged = fuse(
        encode_emotion_from_matrix(vnrc, params, tiny_config),
        encode_context(example, params, tiny_config), 1.0)
    out = decode(merged, params, tiny_config)
    assert out.data.shape == (8, 8)
    assert np.array_equal(out.data, decode(merged, params, tiny_config).data)

    perturbed = Tensor(merged.data.copy())
    perturbed.data[4:] += 0.25
    out_p = decode(perturbed, params, tiny_config)
    assert np.array_equal(out.data[:4], out_p.data[:4])


def test_emotion_head_zero_matrix_gives_uniform(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    params.emotion_head_weight.data[...] = 0.0
    state = forward(example, params, tiny_config, vnrc)
    loss = emotion_head(state, example)
    probs = _softmax(state.emotion_logits.data)
    assert np.allclose(probs, 1 / 6, atol=1e-12)
    assert math.isclose(float(loss.data), math.log(6), rel_tol=1e-12)


def test_emotion_head_softmax_sums_to_one(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    state = forward(example, params, tiny_config, vnrc)
    assert math.isclose(_softmax(state.emotion_logits.data).sum(), 1.0, abs_tol=1e-9)


def test_emotion_head_loss_decreases_on_separable_batch(tiny_vocab, lex):
    # with the encoder frozen, the head alone is a softmax regression on
    # fixed (linearly separable) states, so small-step SGD descends smoothly
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=8,
                         embed_dim=8, ffn_dim=16, c1=0.0, c2=1.0)
    params = ModelParams(config, seed=4)
    params.emotion_head_weight.data[...] = 0.0
    records = [
        Record("u000", "i000", ("lobby",), "nice warm bar", "happy"),
        Record("u001", "i001", ("pool",), "quiet walk spa", "sad"),
        Record("u000", "i001", ("room",), "warm view walk", "fear"),
    ]
    batch = []
    for rec in records:
        ex = encode_example(rec, tiny_vocab, config.max_len)
        batch.append((ex, emotion_input_matrix(ex, tiny_vocab, lex)))

    losses = []
    for _ in range(50):
        total = None
        value = 0.0
        for ex, vnrc in batch:
            _, _, emo = total_loss(ex, params, config, vnrc)
            value += float(emo.data)
            total = emo if total is None else nm.add(total, emo)
        losses.append(value / len(batch))
        nm.backward(nm.scalar_mul(total, 1.0 / len(batch)))
        nm.sgd_step([params.emotion_head_weight], learning_rate=0.1, clip_threshold=math.inf)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_lm_head_zero_weights_give_log_vocab(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    params.token_embedding.data[...] = 0.0
    loss = lm_head(forward(example, params, tiny_config, vnrc), example)
    assert math.isclose(float(loss.data), math.log(tiny_config.n_tokens), rel_tol=1e-12)


def test_lm_head_supervises_bos_through_eos(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    state = forward(example, params, tiny_config, vnrc)
    logits = state.lm_logits.data[example.bos_position:example.eos_position]
    # three explanation words -> predictions for e_1, e_2, e_3 and <eos>
    assert logits.shape == (example.text_len + 1, tiny_config.n_tokens)
    targets = list(example.context_ids[example.bos_position + 1: example.eos_position + 1])
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -log_probs[np.arange(len(targets)), targets].mean()
    assert abs(float(lm_head(state, example).data) - expected) <= 1e-12


def test_lm_head_perplexity_at_least_one(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    loss = lm_head(forward(example, params, tiny_config, vnrc), example)
    assert math.exp(float(loss.data)) >= 1.0


def test_lm_head_memorizes_single_record(tiny_vocab, lex):
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=8,
                         embed_dim=16, ffn_dim=32, c1=1.0, c2=0.0)
    params = ModelParams(config, seed=5)
    rec = Record("u000", "i001", ("lobby",), "nice warm bar", "happy")
    ex = encode_example(rec, tiny_vocab, config.max_len)
    vnrc = emotion_input_matrix(ex, tiny_vocab, lex)
    for _ in range(200):
        loss, _, _ = total_loss(ex, params, config, vnrc)
        nm.backward(loss)
        nm.sgd_step(params.all(), learning_rate=1.0, clip_threshold=1.0)
    with nm.no_grad():
        state = forward(ex, params, config, vnrc)
    predicted = state.lm_logits.data[ex.bos_position:ex.eos_position].argmax(axis=1)
    expected = list(ex.context_ids[ex.bos_position + 1: ex.eos_position + 1])
    assert list(predicted) == expected


def test_total_loss_weighting(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    lm_only = replace(tiny_config, c1=1.0, c2=0.0)
    emo_only = replace(tiny_config, c1=0.0, c2=1.0)
    both = replace(tiny_config, c1=1.0, c2=1.0)
    t1, lm1, _ = total_loss(example, params, lm_only, vnrc)
    t2, _, emo2 = total_loss(example, params, emo_only, vnrc)
    t3, lm3, emo3 = total_loss(example, params, both, vnrc)
    assert float(t1.data) == float(lm1.data)
    assert float(t2.data) == float(emo2.data)
    assert abs(float(t3.data) - (float(lm3.data) + float(emo3.data))) < 1e-12


def test_forward_bitwise_reproducible(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    a = forward(example, params, tiny_config, vnrc)
    b = forward(example, params, tiny_config, vnrc)
    assert np.array_equal(a.lm_logits.data, b.lm_logits.data)
    assert np.array_equal(a.emotion_logits.data, b.emotion_logits.data)


def test_intensity_zero_makes_logits_invariant_to_emotion_input(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    config = replace(tiny_config, intensity=0.0)
    other = vnrc.copy()
    other[2:] = (0.0, 0.8, 0.0, 0.0, 0.0, 0.0)  # radically different emotion inputs
    a = forward(example, params, config, vnrc)
    b = forward(example, params, config, other)
    assert np.array_equal(a.lm_logits.data, b.lm_logits.data)
    assert np.array_equal(a.emotion_logits.data, b.emotion_logits.data)


def test_weight_tying_shared_storage(tiny_setup, tiny_config, tiny_vocab):
    params, example, vnrc = tiny_setup
    token = example.context_ids[5]
    before = forward(example, params, tiny_config, vnrc)
    context_before = encode_context(example, params, tiny_config)
    params.token_embedding.data[token, 0] += 0.5
    after = forward(example, params, tiny_config, vnrc)
    # the embedding change moves the hidden states...
    assert not np.array_equal(context_before.data, encode_context(example, params, tiny_config).data)
    # ...and the same storage feeds that token's logit column
    assert not np.array_equal(
        before.lm_logits.data[:, token], after.lm_logits.data[:, token])


def test_gradients_match_finite_differences_on_spec_config(tiny_setup, tiny_config):
    params, example, vnrc = tiny_setup
    err = nm.grad_check(
        lambda: total_loss(example, params, tiny_config, vnrc)[0],
        params.all(), n_samples=250, seed=1)
    assert err < 1e-3


# Records of 1 to 5 explanation words and 1 or 2 features: <eos> at positions
# 7 to 10, so a batch of them is cut to 11 of max_len 14 positions.
MIXED_RECORDS = [
    Record("u000", "i001", ("lobby",), "nice warm bar", "happy"),
    Record("u001", "i000", ("pool", "spa"), "quiet", "sad"),
    Record("u000", "i000", ("room",), "warm view walk spa nice", "fear"),
    Record("u001", "i001", ("bar", "view"), "walk", "neutral"),
]
# Batched and per-example arithmetic differ only in the order of sums, so each
# loss, and each parameter's gradient relative to its largest entry, agrees
# within 1e-12.
BATCH_TOL = 1e-12


def _mixed_batch(config, vocab, lex):
    prepared = []
    for rec in MIXED_RECORDS:
        ex = encode_example(rec, vocab, config.max_len)
        prepared.append((ex, emotion_input_matrix(ex, vocab, lex, config.mask_emotion_tag)))
    return prepared


def _within(got, want) -> bool:
    return np.max(np.abs(np.asarray(got) - want)) <= BATCH_TOL * np.max(np.abs(want))


@pytest.mark.parametrize("overrides", [{}, {"mask_emotion_tag": True}, {"c1": 0.0}, {"c2": 0.0}])
def test_batched_loss_and_gradients_equal_mean_over_examples(tiny_vocab, lex, overrides):
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=14, embed_dim=8, ffn_dim=16, **overrides)
    params = ModelParams(config, seed=7)
    prepared = _mixed_batch(config, tiny_vocab, lex)
    losses = []
    mean_grads = [np.zeros_like(p.data) for p in params.all()]
    for ex, vnrc in prepared:
        loss, lm, emo = total_loss(ex, params, config, vnrc)
        nm.backward(loss)
        losses.append((float(loss.data), float(lm.data), float(emo.data)))
        for acc, p in zip(mean_grads, params.all()):
            acc += p.grad / len(prepared)
            p.zero_grad()
    losses = np.array(losses)

    batch, vnrc = make_batch(prepared)
    assert batch.context_ids.shape == vnrc.shape[:2] == (4, 11)  # the cut is active
    loss, lm, emo = total_loss(batch, params, config, vnrc)
    nm.backward(loss)
    assert _within(float(loss.data), losses[:, 0].mean())
    assert _within(lm.data, losses[:, 1])
    assert _within(emo.data, losses[:, 2])
    for p, want in zip(params.all(), mean_grads):
        assert _within(p.grad, want), p.name


def test_cut_batch_gives_the_losses_of_the_full_length_batch(tiny_vocab, lex):
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=14, embed_dim=8, ffn_dim=16)
    params = ModelParams(config, seed=8)
    prepared = _mixed_batch(config, tiny_vocab, lex)
    cut, cut_vnrc = make_batch(prepared)
    full = Batch(
        context_ids=np.array([ex.context_ids for ex, _ in prepared]),
        emotion_target=cut.emotion_target, tag_position=cut.tag_position,
        bos_position=cut.bos_position, eos_position=cut.eos_position,
    )
    full_vnrc = np.stack([vnrc for _, vnrc in prepared])
    with nm.no_grad():
        cut_losses = total_loss(cut, params, config, cut_vnrc)
        full_losses = total_loss(full, params, config, full_vnrc)
    assert full.context_ids.shape[1] == config.max_len > cut.context_ids.shape[1]
    for got, want in zip(cut_losses, full_losses):
        assert _within(got.data, want.data)


def test_make_batch_needs_an_example():
    with pytest.raises(ValueError, match="at least one example"):
        make_batch([])


def test_losses_accept_item_ids_beyond_the_token_table(tiny_vocab, lex):
    # Position 1 holds an item-table id; with more items than tokens it is not
    # a valid token id, and it must never be taken as an LM target.
    vocab = replace(tiny_vocab, id_to_item=tuple(f"i{i:03d}" for i in range(30)))
    config = ModelConfig(n_tokens=vocab.n_tokens, n_users=2, n_items=30, max_len=14, embed_dim=8, ffn_dim=16)
    params = ModelParams(config, seed=9)
    prepared = _mixed_batch(config, vocab, lex)
    prepared = [(replace(ex, context_ids=(ex.context_ids[0], 25 + k, *ex.context_ids[2:])), vnrc)
                for k, (ex, vnrc) in enumerate(prepared)]
    batch, batch_vnrc = make_batch(prepared)
    for example, vnrc in [prepared[0], (batch, batch_vnrc)]:
        loss, _, _ = total_loss(example, params, config, vnrc)
        nm.backward(loss)
        assert np.isfinite(float(loss.data))
        for p in params.all():
            p.zero_grad()


def test_building_model_params_allocates_no_gradient_memory():
    config = ModelConfig(n_tokens=200, n_users=4, n_items=4, max_len=16, embed_dim=64, ffn_dim=128)
    ModelParams(config, seed=0)  # the first build imports what it needs; those modules stay
    tracemalloc.start()
    try:
        params = ModelParams(config, seed=0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    weights = sum(p.data.nbytes for p in params.all())
    assert weights <= held < 1.25 * weights  # a zero-filled gradient per parameter would double it


def test_backward_leaves_gradients_on_parameters_only(tiny_vocab, lex, op_calls):
    config = ModelConfig(n_tokens=20, n_users=2, n_items=2, max_len=14, embed_dim=8, ffn_dim=16)
    params = ModelParams(config, seed=7)
    batch, vnrc = make_batch(_mixed_batch(config, tiny_vocab, lex))
    op_calls.clear()
    loss, _, _ = total_loss(batch, params, config, vnrc)
    nm.backward(loss)
    interior, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
            if node._backward_fn is not None:
                interior.append(node)
    assert len(interior) == sum(op_calls.values())  # every op of the loss is on the graph the sweep walks
    assert all(node.grad is None for node in interior)
    for p in params.all():
        assert p.grad.any(), p.name
