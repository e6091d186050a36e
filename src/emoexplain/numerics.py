"""Dense float64 tensors with reverse-mode gradients, SGD, and a finite-difference checker.

Every primitive records itself on the implicit computation graph (unless
wrapped in ``no_grad``) so that ``backward`` can run a reverse sweep from a
scalar loss.  All arithmetic is double precision and deterministic; producing
a non-finite value raises ``FloatingPointError`` at the op that caused it.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"EMOT"
CHECKPOINT_VERSION = 1

_GRAD_ENABLED = True
_LN_EPS = 1e-12  # layer_norm's default, and the eps of ffn's norm


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / finite differences)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 array plus the bookkeeping needed for the reverse sweep."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward_fn", "_swept")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise FloatingPointError(f"non-finite values in tensor {name or '<anonymous>'}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None
        self._swept = False

    def zero_grad(self) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class Parameter(Tensor):
    """A named, learnable tensor; its gradient buffer is made on first use, so it reads as zeros until written.

    Weights that only run inference never touch ``grad`` and hold no gradient memory.
    """

    __slots__ = ("_grad",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True, name=name)

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value


def _accumulate(t: Tensor, g: np.ndarray, where=None) -> None:
    """Add ``g`` into ``t``'s gradient, made on first use; with ``where``, into ``t.grad[where]``, repeats summing."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    if where is None:
        t.grad += g
    else:
        np.add.at(t.grad, where, g)


def _accumulate_product(w: Tensor, a: np.ndarray, g: np.ndarray) -> None:
    """Add ``a.T @ g`` into ``w``'s gradient, summed over every row of the stacks ``a`` and ``g`` in one GEMM."""
    _accumulate(w, a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))


def _result(op: str, data, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    try:
        out = Tensor(data, requires_grad=track)
    except FloatingPointError:
        raise FloatingPointError(f"non-finite values in the output of {op}") from None
    if track:
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, transpose_b: bool = False, bias: Tensor | None = None) -> Tensor:
    """``a @ b`` (or ``a @ b.T``) for a 2-d ``b``; ``a`` is (n, k) or a stack (B, n, k).

    A ``bias`` is added to the product in place, with ``add``'s broadcast and gradient.
    """
    if a.data.ndim not in (2, 3) or b.data.ndim != 2:
        raise ValueError(f"matmul expects a 2-d or 3-d left and a 2-d right operand, "
                         f"got {a.data.shape} and {b.data.shape}")
    inner_b, cols = b.data.shape[::-1] if transpose_b else b.data.shape
    if a.data.shape[-1] != inner_b:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape} (transpose_b={transpose_b})")
    # A stack's rows all meet the same b, so each product is one 2-d GEMM over its B·n rows
    # (views of the contiguous stack), not one per slice; a 2-d ``a`` reshapes to itself.
    rows = a.data.reshape(-1, a.data.shape[-1])
    out_data = (rows @ (b.data.T if transpose_b else b.data)).reshape(*a.data.shape[:-1], cols)
    if bias is not None:
        try:
            out_data += bias.data
        except ValueError:
            raise ValueError(f"matmul bias shape {bias.data.shape} does not fit output {out_data.shape}") from None

    def backward_fn(g):
        g_rows = g.reshape(-1, g.shape[-1])
        if a.requires_grad:
            _accumulate(a, (g_rows @ b.data if transpose_b else g_rows @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            _accumulate_product(b, g, a.data) if transpose_b else _accumulate_product(b, a.data, g)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))

    return _result("matmul", out_data, (a, b) if bias is None else (a, b, bias), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}") from None

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result("add", out_data, (a, b), backward_fn)


def scalar_mul(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g * s)

    return _result("scalar_mul", a.data * s, (a,), backward_fn)


def relu(a: Tensor) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0))

    # Bitwise np.where(a > 0, a, 0.0), -0.0 included (np.maximum(0.0, a) keeps a -0.0), in a tenth of its time.
    return _result("relu", np.maximum(a.data, 0.0), (a,), backward_fn)


def tensor_sum(a: Tensor) -> Tensor:
    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, np.full_like(a.data, float(g)))

    return _result("tensor_sum", a.data.sum(), (a,), backward_fn)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)``, bit for bit, without ``np.mean``'s Python-level dispatch."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _normalized(summed: np.ndarray, gamma: Tensor, beta: Tensor, eps: float):
    """``layer_norm`` of ``summed``'s rows, and a backward that adds gamma's and beta's gradients and returns dx."""
    centered = summed - _row_mean(summed)
    var = _row_mean(centered * centered)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def backward(g):
        # gamma and beta are shared by the rows of every leading axis.
        rows = g.reshape(-1, g.shape[-1])
        if gamma.requires_grad:
            _accumulate(gamma, (rows * xhat.reshape(rows.shape)).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, rows.sum(axis=0))
        dxhat = g * gamma.data
        return inv * (dxhat - _row_mean(dxhat) - xhat * _row_mean(dxhat * xhat))

    return xhat * gamma.data + beta.data, backward


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = _LN_EPS, residual: Tensor | None = None) -> Tensor:
    """Normalize each row of ``x`` (of ``x + residual`` when given) to zero mean / unit variance,
    then scale and shift; both summands get the same gradient."""
    if gamma.data.shape != x.data.shape[-1:] or beta.data.shape != x.data.shape[-1:]:
        raise ValueError(f"layer_norm affine shape mismatch: x {x.data.shape}, gamma {gamma.data.shape}, "
                         f"beta {beta.data.shape}")
    if residual is not None and residual.data.shape != x.data.shape:
        raise ValueError(f"layer_norm residual shape {residual.data.shape} does not match x {x.data.shape}")
    out, norm_backward = _normalized(x.data if residual is None else x.data + residual.data, gamma, beta, eps)

    def backward_fn(g):
        dx = norm_backward(g)
        for t in (x, residual):
            if t is not None and t.requires_grad:
                _accumulate(t, dx)

    return _result("layer_norm", out, (x, gamma, beta) if residual is None else (x, gamma, beta, residual), backward_fn)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` for a 1-d or 2-d array of ids (duplicate ids accumulate gradient)."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim not in (1, 2):
        raise ValueError(f"embedding ids must be 1-d or 2-d, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(f"embedding id out of range for table of {table.data.shape[0]} rows")

    def backward_fn(g):
        if table.requires_grad:
            _accumulate(table, g, idx)

    return _result("embedding", table.data[idx], (table,), backward_fn)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]

    def backward_fn(g):
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                _accumulate(t, g[tuple(sl)])
            offset += size

    return _result("concat", np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward_fn)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= a.data.shape[0]:
        raise ValueError(f"slice [{start}:{stop}] out of range for shape {a.data.shape}")

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g, slice(start, stop))

    return _result("slice_rows", a.data[start:stop].copy(), (a,), backward_fn)


def gather_rows(a: Tensor, rows) -> Tensor:
    """Rows ``rows`` of an (n, d) ``a``, or per slice of a stack (B, n, d) with ``rows`` of shape (B, k)."""
    idx = np.asarray(rows, dtype=np.int64)
    if a.data.ndim not in (2, 3) or idx.shape[:-1] != a.data.shape[:-2] or idx.ndim != a.data.ndim - 1:
        raise ValueError(f"gather_rows index shape {idx.shape} does not fit tensor shape {a.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[-2]):
        raise ValueError(f"gather_rows row out of range for {a.data.shape[-2]} rows")
    # One index array per leading axis, then the rows: (batch ids, rows) for a stack.
    where = (*np.indices(idx.shape, sparse=True)[:-1], idx)

    def backward_fn(g):
        if a.requires_grad:
            _accumulate(a, g, where)

    return _result("gather_rows", a.data[where], (a,), backward_fn)


class KVCache:
    """One attention layer's keys and values of the positions fed so far, for incremental decoding.

    The two buffers hold ``capacity`` rows after the input's leading axes.  They are made at the
    first append and then written in place; attention reads views of their filled rows.
    """

    __slots__ = ("capacity", "keys", "values", "length")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.keys: np.ndarray | None = None
        self.values: np.ndarray | None = None
        self.length = 0

    def append(self, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write ``k`` and ``v`` after the rows held so far; returns views of every filled row."""
        if self.keys is None:
            shape = (*k.shape[:-2], self.capacity, k.shape[-1])
            self.keys, self.values = np.empty(shape), np.empty(shape)
        end = self.length + k.shape[-2]
        if k.shape[:-2] != self.keys.shape[:-2] or k.shape[-1] != self.keys.shape[-1] or end > self.capacity:
            raise ValueError(f"{k.shape} keys do not fit a cache of {self.keys.shape} "
                             f"holding {self.length} rows")
        self.keys[..., self.length:end, :] = k
        self.values[..., self.length:end, :] = v
        self.length = end
        return self.keys[..., :end, :], self.values[..., :end, :]

    def select(self, rows) -> None:
        """Keep only the batch rows ``rows``, in that order."""
        if self.keys is not None:
            self.keys, self.values = self.keys[rows], self.values[rows]


def _check_finite(op: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite values in the output of {op}")


def attention(
    x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, bo: Tensor, n_heads: int,
    cache: KVCache | None = None,
) -> Tensor:
    """The self-attention block: causal scaled dot-product attention over ``n_heads`` heads of
    the projections ``x @ wq``, ``x @ wk`` and ``x @ wv``, then ``@ wo + bo``.

    ``x`` is (rows, dim), or a stack (B, rows, dim) attended slice by slice, with dim divisible
    by n_heads; the weights are (dim, dim) and ``bo`` is (dim,).  The query row for position p
    attends to positions 0..p only.  With a ``cache``, the rows of ``x`` are the positions that
    follow the cached ones: their keys and values are appended to it, and the cached rows are
    constants to the backward.
    """
    shape = x.data.shape
    dim = shape[-1]
    if (x.data.ndim not in (2, 3) or {wq.data.shape, wk.data.shape, wv.data.shape, wo.data.shape} != {(dim, dim)}
            or bo.data.shape != (dim,)):
        raise ValueError(f"attention shape mismatch: x {shape}, wq {wq.data.shape}, wk {wk.data.shape}, "
                         f"wv {wv.data.shape}, wo {wo.data.shape}, bo {bo.data.shape}")
    if dim % n_heads:
        raise ValueError(f"dim {dim} not divisible by {n_heads} heads")
    dk = dim // n_heads
    scale = 1.0 / math.sqrt(dk)

    def split(a):  # (..., rows, dim) -> (..., heads, rows, dk)
        return a.reshape(*a.shape[:-1], n_heads, dk).swapaxes(-2, -3)

    def merge(a):  # (..., heads, rows, dk) -> (..., rows, dim)
        a = a.swapaxes(-2, -3)
        return a.reshape(*a.shape[:-2], dim)

    rows = x.data.reshape(-1, dim)
    qkv = np.empty((3, *shape))  # the three products side by side, so one check covers them
    for w, dst in zip((wq, wk, wv), qkv):
        np.matmul(rows, w.data, out=dst.reshape(-1, dim))
    _check_finite("attention", qkv)
    q, k, v = qkv
    if cache is not None:
        k, v = cache.append(k, v)
    m, n = shape[-2], k.shape[-2]
    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if m > 1:  # one query row is the last position, which sees every key
        scores = np.where(np.tril(np.ones((m, n), dtype=bool), k=n - m), scores, -np.inf)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    att = e / e.sum(axis=-1, keepdims=True)
    heads = merge(att @ vh)
    _check_finite("attention", heads)
    out = (heads.reshape(-1, dim) @ wo.data).reshape(shape)
    out += bo.data

    def backward_fn(g):
        gh = split((g.reshape(-1, dim) @ wo.data.T).reshape(shape))
        if wo.requires_grad:
            _accumulate_product(wo, heads, g)
        if bo.requires_grad:
            _accumulate(bo, _unbroadcast(g, bo.data.shape))
        dv = merge(att.swapaxes(-1, -2) @ gh)
        datt = gh @ vh.swapaxes(-1, -2)
        ds = att * (datt - (datt * att).sum(axis=-1, keepdims=True))
        dq = merge((ds @ kh) * scale)
        dk = merge((ds.swapaxes(-1, -2) @ qh) * scale)
        # Only the new rows' keys and values come from x; x's gradient sums in the unfused graph's q, k, v order.
        for w, dw in ((wq, dq), (wk, dk[..., n - m:, :]), (wv, dv[..., n - m:, :])):
            if x.requires_grad:
                _accumulate(x, (dw.reshape(-1, dim) @ w.data.T).reshape(shape))
            if w.requires_grad:
                _accumulate_product(w, x.data, dw)

    return _result("attention", out, (x, wq, wk, wv, wo, bo), backward_fn)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """The feed-forward sublayer and its post-LN, ``layer_norm(x + relu(x @ w1 + b1) @ w2 + b2)``, for a (rows, dim)
    or (B, rows, dim) ``x``: the products of ``matmul``, ``relu``, ``matmul`` and ``layer_norm``, in their order."""
    shape, (dim, hidden) = x.data.shape, w1.data.shape
    shapes = [t.data.shape for t in (x, w1, b1, w2, b2, gamma, beta)]
    if x.data.ndim not in (2, 3) or shapes[1:] != [(shape[-1], hidden), (hidden,), (hidden, dim), *[(dim,)] * 3]:
        raise ValueError(f"ffn shape mismatch: x, w1, b1, w2, b2, gamma and beta are {shapes}")
    h = (x.data.reshape(-1, dim) @ w1.data).reshape(*shape[:-1], hidden)
    h += b1.data
    _check_finite("ffn", h)  # the ReLU would zero a -inf; one past w2 makes its row of the norm nan
    np.maximum(h, 0.0, out=h)
    summed = (h.reshape(-1, hidden) @ w2.data).reshape(shape)
    summed += b2.data
    summed += x.data
    out, norm_backward = _normalized(summed, gamma, beta, _LN_EPS)

    def backward_fn(g):
        dpost = norm_backward(g)
        dpre = (dpost.reshape(-1, dim) @ w2.data.T).reshape(h.shape)
        dpre *= h > 0
        if x.requires_grad:  # the norm's gradient first, then the w1 path's, as the unfused graph adds them
            _accumulate(x, dpost)
            _accumulate(x, (dpre.reshape(-1, hidden) @ w1.data.T).reshape(shape))
        for w, b, a, d in ((w2, b2, h, dpost), (w1, b1, x.data, dpre)):
            if w.requires_grad:
                _accumulate_product(w, a, d)
            if b.requires_grad:
                _accumulate(b, _unbroadcast(d, b.data.shape))

    return _result("ffn", out, (x, w1, b1, w2, b2, gamma, beta), backward_fn)


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
    """Mean negative log-likelihood of integer targets under row softmax.

    ``logits`` is (n, classes), or a stack (B, n, classes) reduced slice by
    slice to a (B,) vector.  With a boolean ``mask`` shaped like ``targets``,
    each mean runs over the rows it marks only.
    """
    idx = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim not in (2, 3):
        raise ValueError(f"cross_entropy expects (n, classes) or (B, n, classes) logits, got {logits.data.shape}")
    n_classes = logits.data.shape[-1]
    if idx.shape != logits.data.shape[:-1]:
        raise ValueError(f"cross_entropy targets shape {idx.shape} does not match logits {logits.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n_classes):
        raise ValueError(f"cross_entropy target out of range for {n_classes} classes")
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    lse = m[..., 0] + np.log(e.sum(axis=-1))
    picked = (*np.indices(idx.shape, sparse=True), idx)  # each row's target entry
    if mask is None:
        mask = np.ones(idx.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != idx.shape or not mask.any(axis=-1).all():
            raise ValueError(f"cross_entropy mask of shape {mask.shape} must mark a row in every slice")
    counts = mask.sum(axis=-1)
    loss = ((lse - logits.data[picked]) * mask).sum(axis=-1) / counts

    def backward_fn(g):
        if logits.requires_grad:
            p = e / e.sum(axis=-1, keepdims=True)
            p[picked] -= 1.0
            row_scale = np.expand_dims(g / counts, -1) * mask
            _accumulate(logits, p * row_scale[..., None])

    return _result("cross_entropy", loss, (logits,), backward_fn)


# ---------------------------------------------------------------------------
# Reverse sweep, optimizer, gradient check
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate the gradients of the leaves and ``Parameter``s the scalar ``loss`` depends on.

    An interior node's gradient is freed as soon as its own backward function
    has consumed it, so after the sweep only leaves hold gradients.  Each
    node's backward function and parents stay until the graph is dropped.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._swept:
        raise RuntimeError("backward already ran for this loss; rebuild the graph before calling again")
    loss._swept = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None


def sgd_step(params: list[Parameter], learning_rate: float, clip_threshold: float = 1.0) -> float:
    """Global-norm clipping followed by a plain SGD update; gradients are zeroed.

    Returns the pre-clip gradient norm.
    """
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    if not math.isfinite(total):
        # Name the culprit; finite gradients whose squares overflow clip to a zero step.
        for p in params:
            if not np.isfinite(p.grad).all():
                raise FloatingPointError(f"non-finite gradient in parameter {p.name!r}")
    norm = math.sqrt(total)
    scale = 1.0
    if norm > clip_threshold:
        scale = clip_threshold / norm
    for p in params:
        p.grad *= learning_rate * scale
        p.data -= p.grad
        p.grad.fill(0.0)
    return norm


def grad_check(f, params: list[Parameter], epsilon: float = 1e-5, n_samples: int = 200, seed: int = 0) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    ``f`` must rebuild the loss from scratch at each call.  At least
    ``n_samples`` coordinates are probed (all of them when there are fewer);
    relative error is |a - b| / max(1e-8, |a| + |b|).
    """
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    coords = [(pi, ci) for pi, p in enumerate(params) for ci in range(p.data.size)]
    if len(coords) > n_samples:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(coords), size=n_samples, replace=False)
        coords = [coords[int(i)] for i in chosen]

    worst = 0.0
    with no_grad():
        for pi, ci in coords:
            p = params[pi]
            original = p.data.flat[ci]
            p.data.flat[ci] = original + epsilon
            up = float(f().data)
            p.data.flat[ci] = original - epsilon
            down = float(f().data)
            p.data.flat[ci] = original
            numeric = (up - down) / (2.0 * epsilon)
            exact = float(analytic[pi].flat[ci])
            rel = abs(exact - numeric) / max(1e-8, abs(exact) + abs(numeric))
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, params: list[Parameter]) -> None:
    """Versioned binary dump; float64 values round-trip bit-exactly."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        for p in params:
            name = p.name.encode("utf-8")
            arr = np.asarray(p.data, dtype="<f8")  # tobytes() serializes in C order
            fh.write(struct.pack("<I", len(name)))
            fh.write(name)
            fh.write(struct.pack("<I", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read_exact(count, what):
            # Lengths come from the file, so check them against what is left
            # before asking read() for that many bytes.
            left = size - fh.tell()
            if count > left:  # a damaged rank can declare a count too long to print
                raise ValueError(f"{path}: truncated checkpoint while reading {what} "
                                 f"({count if count < 2**64 else 'over 2**64'} bytes declared, {left} left)")
            return fh.read(count)

        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", read_exact(4, "version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        while fh.tell() < size:
            (name_len,) = struct.unpack("<I", read_exact(4, "name length"))
            try:
                name = read_exact(name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: name of parameter {len(out)} is not valid UTF-8") from None
            if name in out:
                raise ValueError(f"{path}: parameter {name!r} is stored twice")
            (rank,) = struct.unpack("<I", read_exact(4, f"rank of {name}"))
            shape = tuple(struct.unpack("<Q", read_exact(8, f"extent of {name}"))[0] for _ in range(rank))
            raw = read_exact(8 * math.prod(shape), f"values of {name}")
            try:
                out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError as err:  # a zero extent beside one too large for numpy
                raise ValueError(f"{path}: parameter {name!r} has unusable shape {shape}: {err}") from None
            if not np.isfinite(out[name]).all():  # training never saves one; decoding would stop at exit 3
                raise ValueError(f"{path}: parameter {name!r} holds non-finite values")
    return out
