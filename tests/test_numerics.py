from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emoexplain import numerics as nm
from emoexplain.numerics import Parameter, Tensor

from . import oracles


def test_matmul_identity():
    identity = Tensor(np.eye(3))
    a = Tensor(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(nm.matmul(identity, a).data, a.data)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError) as err:
        nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    assert "(2, 3)" in str(err.value)


def test_matmul_transpose_b_matches_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
    out = nm.matmul(Tensor(a), Tensor(b), transpose_b=True)
    assert np.allclose(out.data, a @ b.T)


def test_layer_norm_moments():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(50, 16)) * 3 + 1)
    gamma = Tensor(np.ones(16))
    beta = Tensor(np.zeros(16))
    out = nm.layer_norm(x, gamma, beta).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-9)


def test_embedding_gathers_rows_and_accumulates_duplicates():
    table = Parameter(np.arange(12.0).reshape(4, 3), "emb")
    out = nm.embedding(table, [1, 1, 3])
    assert np.array_equal(out.data, table.data[[1, 1, 3]])
    nm.backward(nm.tensor_sum(out))
    assert np.array_equal(table.grad[1], [2.0, 2.0, 2.0])
    assert np.array_equal(table.grad[3], [1.0, 1.0, 1.0])
    assert np.array_equal(table.grad[0], [0.0, 0.0, 0.0])


def test_embedding_id_out_of_range():
    table = Parameter(np.zeros((4, 3)), "emb")
    with pytest.raises(ValueError, match="out of range"):
        nm.embedding(table, [4])


def test_non_finite_creation_raises():
    with pytest.raises(FloatingPointError):
        Tensor([1.0, float("nan")])


def test_backward_sum_gives_all_ones():
    p = Parameter(np.ones((3, 2)), "p")
    nm.backward(nm.tensor_sum(p))
    assert np.array_equal(p.grad, np.ones((3, 2)))


def test_backward_cross_entropy_uniform_logits():
    t = 6
    logits = Parameter(np.zeros((1, t)), "logits")
    loss = nm.cross_entropy(logits, [2])
    assert math.isclose(float(loss.data), math.log(t), rel_tol=1e-12)
    nm.backward(loss)
    assert math.isclose(logits.grad[0, 2], 1 / t - 1, rel_tol=1e-12)
    assert math.isclose(logits.grad[0, 0], 1 / t, rel_tol=1e-12)


def test_backward_twice_errors():
    p = Parameter(np.ones(3), "p")
    loss = nm.tensor_sum(p)
    nm.backward(loss)
    with pytest.raises(RuntimeError, match="already ran"):
        nm.backward(loss)


def test_backward_unreachable_parameter_keeps_zero_gradient():
    used = Parameter(np.ones((2, 2)), "used")
    unused = Parameter(np.ones((2, 2)), "unused")
    nm.backward(nm.tensor_sum(nm.scalar_mul(used, 2.0)))
    assert np.array_equal(unused.grad, np.zeros((2, 2)))
    assert np.array_equal(used.grad, np.full((2, 2), 2.0))


def _attention_weights(rng, dim: int) -> list[Parameter]:
    """wq, wk, wv, wo and bo of one attention block, scaled as Glorot draws are."""
    scale = 1.0 / math.sqrt(dim)
    return [*(Parameter(rng.normal(size=(dim, dim)) * scale, name) for name in ("wq", "wk", "wv", "wo")),
            Parameter(rng.normal(size=dim) * scale, "bo")]


def test_attention_causal_mask():
    rng = np.random.default_rng(3)
    weights = _attention_weights(rng, 4)
    base = rng.normal(size=(6, 4))
    perturbed = base.copy()
    perturbed[4:] += 1.0
    out_a = nm.attention(Tensor(base), *weights, n_heads=2).data
    out_b = nm.attention(Tensor(perturbed), *weights, n_heads=2).data
    assert np.array_equal(out_a[:4], out_b[:4])
    assert not np.array_equal(out_a[4:], out_b[4:])


def _cached(x, weights, heads, spans):
    """The rows of ``x`` fed span by span through one cache, under ``no_grad``."""
    cache = nm.KVCache(x.shape[-2])
    with nm.no_grad():
        out = [nm.attention(Tensor(x[..., start:stop, :]), *weights, heads, cache).data for start, stop in spans]
    assert cache.length == x.shape[-2]
    return np.concatenate(out, axis=-2)


@pytest.mark.parametrize("m,n,heads", [(1, 1, 1), (1, 6, 2), (3, 6, 2), (5, 9, 3), (1, 32, 2), (7, 8, 4)])
def test_attention_last_rows_equal_full_attention(m, n, heads):
    """After a cached prefill of the first n - m rows, the last m rows, fed at once or one by one,
    give the rows of one full pass."""
    rng = np.random.default_rng(m * 100 + n)
    weights = _attention_weights(rng, 12)
    for batch in ((), (3,)):
        x = rng.normal(size=(*batch, n, 12))
        full = nm.attention(Tensor(x), *weights, n_heads=heads).data
        prefill = [(0, n - m)] if n > m else []
        for steps in ([(n - m, n)], [(p, p + 1) for p in range(n - m, n)]):
            assert np.max(np.abs(_cached(x, weights, heads, prefill + steps) - full)) <= 1e-12


def test_attention_last_rows_gradcheck():
    """The cached rows are constants to the backward, so probe what they do not depend on:
    the new rows' inputs, the query weights and the output projection."""
    rng = np.random.default_rng(11)
    weights = _attention_weights(rng, 4)
    prefix = rng.normal(size=(2, 4))
    last = Parameter(rng.normal(size=(3, 4)), "last")
    probe = _probe(rng, (3, 4))

    def cached():
        cache = nm.KVCache(5)
        with nm.no_grad():
            nm.attention(Tensor(prefix), *weights, 2, cache)
        return probe(nm.attention(last, *weights, 2, cache))

    wq, _, _, wo, bo = weights
    assert nm.grad_check(cached, [last, wq, wo, bo], n_samples=60) < 1e-3


def test_attention_rejects_indivisible_heads():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="not divisible"):
        nm.attention(Tensor(np.ones((4, 6))), *_attention_weights(rng, 6), n_heads=4)


def test_attention_rejects_weights_of_another_width():
    weights = _attention_weights(np.random.default_rng(5), 6)
    weights[2] = Parameter(np.ones((6, 4)), "wv")
    with pytest.raises(ValueError, match=r"attention shape mismatch: x \(4, 6\).*wv \(6, 4\)"):
        nm.attention(Tensor(np.ones((4, 6))), *weights, n_heads=2)


def test_concat_and_slice_round_trip():
    a = Parameter(np.ones((2, 3)), "a")
    b = Parameter(np.full((3, 3), 2.0), "b")
    joined = nm.concat([a, b], axis=0)
    assert joined.data.shape == (5, 3)
    sliced = nm.slice_rows(joined, 2, 5)
    nm.backward(nm.tensor_sum(sliced))
    assert np.array_equal(a.grad, np.zeros((2, 3)))
    assert np.array_equal(b.grad, np.ones((3, 3)))


def test_no_grad_disables_recording():
    p = Parameter(np.ones(3), "p")
    with nm.no_grad():
        out = nm.scalar_mul(p, 2.0)
    assert out._backward_fn is None
    assert not out.requires_grad


def test_non_finite_op_output_names_the_op():
    big = Tensor(np.full((2, 2), 1e200))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="in the output of matmul"):
        nm.matmul(big, big)


# --- stacks (B, L, d) ---------------------------------------------------------
# Each primitive on a stack must give its 2-d result on every slice (within
# 1e-12), gradcheck below 1e-3, and sum shared-weight gradients over the slices.

SLICE_TOL = 1e-12


def _probe(rng, shape):
    """A scalar of a (..., n, c) tensor whose gradient differs from row to row:
    summed cross-entropy against fixed random targets."""
    targets = rng.integers(0, shape[-1], size=shape[:-1])
    return lambda out: nm.tensor_sum(nm.cross_entropy(out, targets))


def _close(a, b) -> bool:
    return a.shape == b.shape and np.max(np.abs(a - b)) <= SLICE_TOL


def _stack_matmul_matches_slices(rng, a, b, transpose_b):
    """Each slice of the stack's output and input gradient matches its 2-d matmul, and the weight
    gradient matches the sum of the slices' weight gradients."""
    n = b.data.shape[0] if transpose_b else b.data.shape[1]
    targets = rng.integers(0, n, size=a.data.shape[:-1])
    out = nm.matmul(a, b, transpose_b)
    nm.backward(nm.tensor_sum(nm.cross_entropy(out, targets)))
    stacked_b_grad = b.grad.copy()
    summed = np.zeros_like(b.data)
    for i in range(a.data.shape[0]):
        b.zero_grad()
        a_i = Parameter(a.data[i], "a_i")
        out_i = nm.matmul(a_i, b, transpose_b)
        assert _close(out.data[i], out_i.data)
        nm.backward(nm.cross_entropy(out_i, targets[i]))
        summed += b.grad
        assert _close(a.grad[i], a_i.grad)
    assert np.max(np.abs(stacked_b_grad - summed)) <= SLICE_TOL


@pytest.mark.parametrize("transpose_b", [False, True])
def test_matmul_stack_matches_slices_and_sums_weight_gradient(transpose_b):
    rng = np.random.default_rng(20)
    a = Parameter(rng.normal(size=(3, 5, 4)), "a")
    b = Parameter(rng.normal(size=(6, 4) if transpose_b else (4, 6)), "b")
    _stack_matmul_matches_slices(rng, a, b, transpose_b)
    probe = _probe(rng, (3, 5, 6))
    assert nm.grad_check(lambda: probe(nm.matmul(a, b, transpose_b)), [a, b], n_samples=80) < 1e-3
    # The shapes desk training runs: a batch of 16 sequences of 14 positions at d=64, into a d=64
    # projection or (transposed) the tied LM head of a ~90-token vocabulary.
    a = Parameter(rng.normal(size=(16, 14, 64)), "a")
    b = Parameter(rng.normal(size=(90, 64) if transpose_b else (64, 64)), "b")
    _stack_matmul_matches_slices(rng, a, b, transpose_b)
    # The one-row decode steps batch_generate runs: 20 desk queries at d=64 and 6 paper queries
    # at d=512, into a projection or (transposed) the LM head of 39 or 90 tokens.
    for shape, n in (((20, 1, 64), 39), ((6, 1, 512), 90)):
        a = Parameter(rng.normal(size=shape), "a")
        b = Parameter(rng.normal(size=(n, shape[-1]) if transpose_b else (shape[-1], shape[-1])), "b")
        _stack_matmul_matches_slices(rng, a, b, transpose_b)


@pytest.mark.parametrize("m,n,heads", [(4, 4, 2), (2, 5, 2), (1, 3, 3)])
def test_attention_stack_matches_slices_and_gradchecks(m, n, heads):
    """A stack's last m rows, after a cached prefill of its first n - m, match each slice's 2-d call."""
    rng = np.random.default_rng(21 + m + n)
    x = Parameter(rng.normal(size=(3, n, 6)), "x")
    weights = _attention_weights(rng, 6)
    spans = [(0, n - m), (n - m, n)] if n > m else [(0, n)]
    out = _cached(x.data, weights, heads, spans)
    assert out.shape == (3, n, 6)
    for i in range(3):
        assert _close(out[i], _cached(x.data[i], weights, heads, spans))
    probe = _probe(rng, (3, n, 6))
    assert nm.grad_check(lambda: probe(nm.attention(x, *weights, n_heads=heads)), [x, *weights], n_samples=150) < 1e-3


def test_attention_stack_rejects_mismatched_batches():
    rng = np.random.default_rng(22)
    weights = _attention_weights(rng, 4)
    cache = nm.KVCache(3)
    nm.attention(Tensor(np.ones((2, 2, 4))), *weights, 2, cache)
    with pytest.raises(ValueError, match=r"\(3, 1, 4\) keys do not fit a cache of \(2, 3, 4\) holding 2 rows"):
        nm.attention(Tensor(np.ones((3, 1, 4))), *weights, 2, cache)


def test_layer_norm_stack_matches_slices_and_sums_affine_gradients():
    rng = np.random.default_rng(22)
    x = Parameter(rng.normal(size=(3, 4, 5)) * 2 + 1, "x")
    gamma = Parameter(rng.normal(size=5), "gamma")
    beta = Parameter(rng.normal(size=5), "beta")
    targets = rng.integers(0, 5, size=(3, 4))
    out = nm.layer_norm(x, gamma, beta)
    nm.backward(nm.tensor_sum(nm.cross_entropy(out, targets)))
    stacked = gamma.grad.copy(), beta.grad.copy()
    summed = np.zeros(5), np.zeros(5)
    for i in range(3):
        gamma.zero_grad()
        beta.zero_grad()
        out_i = nm.layer_norm(Tensor(x.data[i]), gamma, beta)
        assert _close(out.data[i], out_i.data)
        nm.backward(nm.cross_entropy(out_i, targets[i]))
        summed = summed[0] + gamma.grad, summed[1] + beta.grad
    for got, want in zip(stacked, summed):
        assert np.max(np.abs(got - want)) <= SLICE_TOL
    probe = _probe(rng, (3, 4, 5))
    assert nm.grad_check(lambda: probe(nm.layer_norm(x, gamma, beta)), [x, gamma, beta], n_samples=70) < 1e-3


def test_embedding_2d_ids_match_rows_and_accumulate():
    rng = np.random.default_rng(23)
    table = Parameter(rng.normal(size=(6, 4)), "emb")
    ids = np.array([[1, 3, 1], [5, 0, 3]])
    out = nm.embedding(table, ids)
    assert out.data.shape == (2, 3, 4)
    for i in range(2):
        assert np.array_equal(out.data[i], nm.embedding(table, ids[i]).data)
    nm.backward(nm.tensor_sum(out))
    assert np.array_equal(table.grad[:, 0], [1.0, 2.0, 0.0, 2.0, 0.0, 1.0])
    probe = _probe(rng, (2, 3, 4))
    assert nm.grad_check(lambda: probe(nm.embedding(table, ids)), [table], n_samples=24) < 1e-3


def test_gather_rows_on_rows_and_stacks():
    rng = np.random.default_rng(24)
    a = Parameter(rng.normal(size=(3, 5, 4)), "a")
    rows = np.array([[4, 0], [2, 2], [1, 3]])  # a repeated row accumulates
    out = nm.gather_rows(a, rows)
    assert out.data.shape == (3, 2, 4)
    for i in range(3):
        assert np.array_equal(out.data[i], nm.gather_rows(Tensor(a.data[i]), rows[i]).data)
        assert np.array_equal(out.data[i], a.data[i][rows[i]])
    nm.backward(nm.tensor_sum(out))
    assert np.array_equal(a.grad[1, :, 0], [0.0, 0.0, 2.0, 0.0, 0.0])
    probe = _probe(rng, (3, 2, 4))
    assert nm.grad_check(lambda: probe(nm.gather_rows(a, rows)), [a], n_samples=60) < 1e-3
    with pytest.raises(ValueError, match="out of range"):
        nm.gather_rows(a, [[5], [0], [0]])
    with pytest.raises(ValueError, match="does not fit"):
        nm.gather_rows(a, [1, 2])


def test_cross_entropy_stack_is_per_slice_mean():
    rng = np.random.default_rng(25)
    logits = Parameter(rng.normal(size=(3, 4, 5)), "logits")
    targets = rng.integers(0, 5, size=(3, 4))
    mask = np.array([[True, True, False, False], [False, True, True, True], [True, False, False, False]])
    plain = nm.cross_entropy(logits, targets)
    masked = nm.cross_entropy(logits, targets, mask)
    assert plain.data.shape == masked.data.shape == (3,)
    for i in range(3):
        assert _close(plain.data[i], nm.cross_entropy(Tensor(logits.data[i]), targets[i]).data)
        rows = Tensor(logits.data[i][mask[i]])
        assert _close(masked.data[i], nm.cross_entropy(rows, targets[i][mask[i]]).data)
    nm.backward(nm.tensor_sum(masked))
    assert not logits.grad[~mask].any()
    assert nm.grad_check(lambda: nm.tensor_sum(nm.cross_entropy(logits, targets, mask)), [logits], n_samples=60) < 1e-3


def test_cross_entropy_mask_keeps_2d_result_and_needs_a_row_per_slice():
    rng = np.random.default_rng(26)
    logits = rng.normal(size=(6, 5))
    targets = rng.integers(0, 5, size=6)
    mask = np.array([False, True, True, True, False, False])
    sliced = nm.cross_entropy(Tensor(logits[1:4]), targets[1:4]).data
    assert abs(nm.cross_entropy(Tensor(logits), targets, mask).data - sliced) <= 1e-12 * abs(sliced)
    with pytest.raises(ValueError, match="must mark a row"):
        nm.cross_entropy(Tensor(np.zeros((2, 3, 5))), np.zeros((2, 3)), [[True, False, False], [False] * 3])


# --- sgd ---------------------------------------------------------------------

def test_sgd_zero_gradients_leave_parameters_unchanged():
    p = Parameter(np.array([1.0, 2.0]), "p")
    nm.sgd_step([p], learning_rate=1.0, clip_threshold=1.0)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_sgd_clips_by_global_norm():
    p = Parameter(np.zeros(2), "p")
    p.grad[:] = [3.0, 4.0]
    nm.sgd_step([p], learning_rate=1.0, clip_threshold=1.0)
    assert np.allclose(p.data, [-0.6, -0.8], atol=1e-12)


def test_sgd_no_clip_below_threshold():
    p = Parameter(np.array([5.0]), "p")
    p.grad[:] = 0.5
    nm.sgd_step([p], learning_rate=1.0, clip_threshold=1.0)
    assert np.allclose(p.data, [4.5], atol=1e-15)


def test_sgd_clipping_preserves_direction():
    rng = np.random.default_rng(4)
    p = Parameter(np.zeros(10), "p")
    grad = rng.normal(size=10) * 5
    p.grad[:] = grad
    nm.sgd_step([p], learning_rate=1.0, clip_threshold=1.0)
    update = -p.data
    ratio = update / grad
    assert np.allclose(ratio, ratio[0])
    assert ratio[0] > 0


def test_sgd_zeroes_gradients_after_step():
    p = Parameter(np.zeros(2), "p")
    p.grad[:] = 1.0
    nm.sgd_step([p], learning_rate=0.1, clip_threshold=1.0)
    assert np.array_equal(p.grad, [0.0, 0.0])


def test_sgd_non_finite_gradient_errors_before_update():
    p = Parameter(np.array([1.0]), "p")
    p.grad[:] = np.inf
    with pytest.raises(FloatingPointError, match="p"):
        nm.sgd_step([p], learning_rate=1.0, clip_threshold=1.0)
    assert np.array_equal(p.data, [1.0])


def _three_parameters(seed=0, grad_scale=1.0):
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.normal(size=shape), f"p{k}") for k, shape in enumerate([(3, 4), (5,), (2, 2)])]
    for p in params:
        p.grad[...] = rng.normal(size=p.data.shape) * grad_scale
    return params


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sgd_non_finite_gradient_names_its_parameter_and_moves_none(bad):
    params = _three_parameters()
    params[1].grad[2] = bad
    before = [p.data.copy() for p in params]
    with pytest.raises(FloatingPointError, match="non-finite gradient in parameter 'p1'"):
        nm.sgd_step(params, learning_rate=0.5, clip_threshold=1.0)
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))


def _reference_sgd_step(params, learning_rate, clip_threshold):
    """The update as a plain out-of-place formula: the clipped step, scaled as lr * scale first."""
    norm = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
    scale = clip_threshold / norm if clip_threshold is not None and norm > clip_threshold else 1.0
    return norm, [p.data - learning_rate * scale * p.grad for p in params]


@pytest.mark.parametrize("grad_scale, clip", [(1.0, 1.0), (0.01, 1.0), (1.0, None), (1e200, 1.0)])
def test_sgd_update_is_bitwise_the_reference_formula(grad_scale, clip):
    params = _three_parameters(seed=3, grad_scale=grad_scale)
    with np.errstate(over="ignore"):  # squares of 1e200 overflow; the norm is then inf and the step 0
        norm, expected = _reference_sgd_step(params, 0.7, clip)
        # An infinite threshold never clips: the same bits as the unclipped formula.
        assert nm.sgd_step(params, learning_rate=0.7, clip_threshold=math.inf if clip is None else clip) == norm
    for p, want in zip(params, expected):
        assert np.array_equal(p.data, want)
        assert not p.grad.any()


# --- grad_check ----------------------------------------------------------------

# --- folded ops against their unfused compositions (tests/oracles.py) -------------

def _output_and_gradients(build, leaves, targets):
    """``build()``'s output and each leaf's gradient of its summed cross-entropy against ``targets``."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    nm.backward(nm.tensor_sum(nm.cross_entropy(out, targets)))
    return out.data.tobytes(), [leaf.grad.tobytes() for leaf in leaves]


def _assert_same_bits(folded, unfused, leaves, rng):
    targets = rng.integers(0, 6, size=folded().data.shape[:-1])
    (got, got_grads), (want, want_grads) = (_output_and_gradients(f, leaves, targets) for f in (folded, unfused))
    assert got == want
    for leaf, g, w in zip(leaves, got_grads, want_grads, strict=True):
        assert g == w, leaf.name


# (a, weight, bias) shapes; each weight is (k, 6) or, transposed, (6, k).
BIASED_MATMULS = [
    ((5, 4), (4, 6), (6,)),
    ((3, 5, 4), (4, 6), (6,)),
    ((3, 5, 4), (4, 6), (5, 6)),  # a per-row bias, shared by the slices
    ((16, 14, 64), (64, 6), (6,)),
]


@pytest.mark.parametrize("transpose_b", [False, True])
@pytest.mark.parametrize("a_shape,w_shape,bias_shape", BIASED_MATMULS)
def test_matmul_bias_is_bitwise_matmul_then_add(a_shape, w_shape, bias_shape, transpose_b):
    rng = np.random.default_rng(sum(a_shape) + transpose_b)
    a = Parameter(rng.normal(size=a_shape), "a")
    w = Parameter(rng.normal(size=w_shape[::-1] if transpose_b else w_shape), "w")
    bias = Parameter(rng.normal(size=bias_shape), "bias")
    folded = lambda: nm.matmul(a, w, transpose_b, bias=bias)  # noqa: E731
    _assert_same_bits(folded, lambda: oracles.biased_matmul_oracle(a, w, bias, transpose_b), [a, w, bias], rng)
    # An input that needs no gradient, as the emotion inputs are, leaves the others' unchanged.
    x = Tensor(a.data)
    _assert_same_bits(lambda: nm.matmul(x, w, transpose_b, bias=bias),
                      lambda: oracles.biased_matmul_oracle(x, w, bias, transpose_b), [w, bias], rng)
    if a.data.size <= 60:
        probe = _probe(rng, folded().data.shape)
        assert nm.grad_check(lambda: probe(folded()), [a, w, bias], n_samples=80) < 1e-3


def test_matmul_bias_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"bias shape \(4,\) does not fit output \(2, 3\)"):
        nm.matmul(Tensor(np.ones((2, 5))), Tensor(np.ones((5, 3))), bias=Tensor(np.ones(4)))


@pytest.mark.parametrize("shape", [(5, 6), (3, 5, 6), (16, 14, 6)])
def test_layer_norm_residual_is_bitwise_add_then_layer_norm(shape):
    rng = np.random.default_rng(sum(shape))
    x = Parameter(rng.normal(size=shape) * 2 + 1, "x")
    residual = Parameter(rng.normal(size=shape), "residual")
    gamma = Parameter(rng.normal(size=shape[-1]), "gamma")
    beta = Parameter(rng.normal(size=shape[-1]), "beta")
    leaves = [x, residual, gamma, beta]
    folded = lambda: nm.layer_norm(x, gamma, beta, residual=residual)  # noqa: E731
    _assert_same_bits(folded, lambda: oracles.residual_layer_norm_oracle(x, residual, gamma, beta), leaves, rng)
    if x.data.size <= 90:
        probe = _probe(rng, shape)
        assert nm.grad_check(lambda: probe(folded()), leaves, n_samples=80) < 1e-3


@pytest.mark.parametrize("shape", [(5, 6), (3, 5, 6), (16, 14, 64)])
def test_attention_is_bitwise_its_unfused_composition(shape):
    rng = np.random.default_rng(sum(shape) + 1)
    x = Parameter(rng.normal(size=shape), "x")
    weights = _attention_weights(rng, shape[-1])
    gamma = Parameter(rng.normal(size=shape[-1:]), "gamma")
    beta = Parameter(rng.normal(size=shape[-1:]), "beta")
    # x also reaches the loss through the residual, as in a layer, so its gradient's sum order shows.
    _assert_same_bits(lambda: nm.layer_norm(x, gamma, beta, residual=nm.attention(x, *weights, 2)),
                      lambda: nm.layer_norm(x, gamma, beta, residual=oracles.attention_oracle(x, *weights, 2)),
                      [x, *weights, gamma, beta], rng)
    # An input that needs no gradient leaves the weights' gradients unchanged.
    inputs = Tensor(x.data)
    _assert_same_bits(lambda: nm.attention(inputs, *weights, 2), lambda: oracles.attention_oracle(inputs, *weights, 2),
                      weights, rng)


def _cached_steps(x, weights, spans, targets, step):
    """Output and gradient bytes of each span of positions fed through ``step(x_span)``, a cached call."""
    out = []
    for start, stop in spans:
        x_span = Parameter(x[..., start:stop, :], "x")
        out.append(_output_and_gradients(lambda: step(x_span), [x_span, *weights], targets[..., start:stop]))
    return out


@pytest.mark.parametrize("batch", [(), (3,)])
def test_attention_cached_steps_are_bitwise_the_concat_composition(batch):
    """A prefill, then one-row steps until the last step fills the cache's last row, as a length-budget
    stop does; each step's output and gradients equal the composition that joins cached rows with ``concat``."""
    rng = np.random.default_rng(23 + len(batch))
    weights = _attention_weights(rng, 6)
    x = rng.normal(size=(*batch, 7, 6))
    targets = rng.integers(0, 6, size=(*batch, 7))
    spans = [(0, 4), (4, 5), (5, 6), (6, 7)]
    cache, held = nm.KVCache(7), []
    fused = _cached_steps(x, weights, spans, targets, lambda xs: nm.attention(xs, *weights, 2, cache))
    unfused = _cached_steps(x, weights, spans, targets,
                            lambda xs: oracles.attention_oracle(xs, *weights, 2, held))
    assert fused == unfused
    assert cache.length == cache.capacity == 7
    with pytest.raises(ValueError, match="holding 7 rows"):
        nm.attention(Tensor(x[..., 6:, :]), *weights, 2, cache)


def test_attention_cache_select_keeps_the_chosen_rows():
    """Rows that leave the batch leave the cache; the rows kept decode on as alone."""
    rng = np.random.default_rng(24)
    weights = _attention_weights(rng, 6)
    x = rng.normal(size=(4, 6, 6))
    keep = [3, 0]  # in that order
    cache, held = nm.KVCache(6), []
    with nm.no_grad():
        for span in (slice(0, 3), slice(3, 4)):
            nm.attention(Tensor(x[:, span]), *weights, 2, cache)
            oracles.attention_oracle(Tensor(x[:, span]), *weights, 2, held)
        cache.select(keep)
        held[:] = [Tensor(t.data[keep]) for t in held]
        got = [nm.attention(Tensor(x[keep, p:p + 1]), *weights, 2, cache).data for p in (4, 5)]
        want = [oracles.attention_oracle(Tensor(x[keep, p:p + 1]), *weights, 2, held).data for p in (4, 5)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert cache.keys.shape == (2, 6, 6)
    full = nm.attention(Tensor(x[keep]), *weights, n_heads=2).data
    assert np.max(np.abs(np.concatenate(got, axis=-2) - full[:, 4:])) <= 1e-12


def test_layer_norm_is_bitwise_the_np_mean_formula():
    rng = np.random.default_rng(23)
    x = Parameter(rng.normal(size=(4, 7, 9)) * 3 + 1, "x")
    gamma, beta = Parameter(rng.normal(size=9), "gamma"), Parameter(rng.normal(size=9), "beta")
    g = rng.normal(size=x.data.shape)
    out = nm.layer_norm(x, gamma, beta)
    out._backward_fn(g)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-12)
    xhat = centered * inv
    dxhat = g * gamma.data
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert out.data.tobytes() == (xhat * gamma.data + beta.data).tobytes()
    assert x.grad.tobytes() == dx.tobytes()


def test_layer_norm_residual_shape_must_match():
    with pytest.raises(ValueError, match="residual shape"):
        nm.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)), residual=Tensor(np.ones(3)))


def test_grad_check_quadratic():
    theta = Parameter(np.arange(1.0, 7.0).reshape(1, 6), "theta")
    err = nm.grad_check(lambda: nm.tensor_sum(nm.matmul(theta, theta, transpose_b=True)), [theta])
    assert err < 1e-7


def test_grad_check_relu_away_from_kink():
    rng = np.random.default_rng(5)
    values = rng.normal(size=(4, 4))
    values[np.abs(values) < 1e-3] = 0.5  # stay clear of the kink
    p = Parameter(values, "p")
    err = nm.grad_check(lambda: nm.tensor_sum(nm.relu(p)), [p])
    assert err < 1e-6


def test_grad_check_samples_at_most_requested():
    p = Parameter(np.random.default_rng(6).normal(size=(30, 30)), "p")
    err = nm.grad_check(lambda: nm.tensor_sum(nm.matmul(p, p)), [p], n_samples=50)
    assert err < 1e-6


# --- determinism -----------------------------------------------------------------

def test_primitives_bitwise_deterministic():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 8))
    weights = _attention_weights(rng, 8)
    a = nm.attention(Tensor(x), *weights, n_heads=2).data
    b = nm.attention(Tensor(x), *weights, n_heads=2).data
    assert np.array_equal(a, b)


# --- checkpoints -----------------------------------------------------------------

def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    params = [
        Parameter(rng.normal(size=(5, 3)), "alpha"),
        Parameter(rng.normal(size=(7,)), "beta.gamma"),
        Parameter(np.array(3.14159), "scalar"),
    ]
    path = tmp_path / "model.emot"
    nm.save_checkpoint(path, params)
    loaded = nm.load_checkpoint(path)
    assert set(loaded) == {"alpha", "beta.gamma", "scalar"}
    for p in params:
        assert loaded[p.name].shape == p.data.shape
        assert np.array_equal(loaded[p.name], p.data)
        assert loaded[p.name].tobytes() == p.data.tobytes()


def test_checkpoint_starts_with_magic(tmp_path):
    path = tmp_path / "model.emot"
    nm.save_checkpoint(path, [Parameter(np.ones(2), "p")])
    assert path.read_bytes()[:4] == b"EMOT"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.emot"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        nm.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.emot"
    nm.save_checkpoint(path, [Parameter(np.ones((4, 4)), "p")])
    clipped = tmp_path / "clipped.emot"
    clipped.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        nm.load_checkpoint(clipped)


def _crafted_checkpoint(path, name: bytes, shape: tuple[int, ...]):
    header = nm.CHECKPOINT_MAGIC + struct.pack("<I", nm.CHECKPOINT_VERSION)
    entry = struct.pack("<I", len(name)) + name + struct.pack("<I", len(shape))
    path.write_bytes(header + entry + b"".join(struct.pack("<Q", e) for e in shape) + bytes(64))
    return path


@pytest.mark.parametrize("shape", [(2**61,), (2**32, 2**32), (0, 2**62)],
                         ids=["huge_extent", "wrapping_product", "empty_but_huge"])
def test_checkpoint_rejects_hostile_extents(tmp_path, shape):
    path = _crafted_checkpoint(tmp_path / "hostile.emot", b"weights", shape)
    with pytest.raises(ValueError) as err:
        nm.load_checkpoint(path)
    assert str(path) in str(err.value)
    assert "weights" in str(err.value)


def test_checkpoint_rejects_non_utf8_name(tmp_path):
    path = _crafted_checkpoint(tmp_path / "hostile.emot", b"\xff\xfe", (2,))
    with pytest.raises(ValueError, match="not valid UTF-8") as err:
        nm.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_rejects_a_parameter_stored_twice(tmp_path):
    path = tmp_path / "twice.emot"
    nm.save_checkpoint(path, [Parameter(np.ones(2), "weights"), Parameter(np.ones(3), "bias"),
                              Parameter(np.zeros(2), "weights")])
    with pytest.raises(ValueError, match="parameter 'weights' is stored twice") as err:
        nm.load_checkpoint(path)
    assert str(path) in str(err.value)


@given(
    shapes=st.lists(
        st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=3),
        min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_checkpoint_round_trip_property(tmp_path_factory, shapes, seed):
    rng = np.random.default_rng(seed)
    params = [Parameter(rng.normal(size=tuple(shape)), f"p{i}") for i, shape in enumerate(shapes)]
    path = tmp_path_factory.mktemp("ckpt") / "model.emot"
    nm.save_checkpoint(path, params)
    loaded = nm.load_checkpoint(path)
    assert list(loaded) == [p.name for p in params]
    for p in params:
        assert loaded[p.name].shape == p.data.shape
        assert loaded[p.name].tobytes() == p.data.tobytes()
