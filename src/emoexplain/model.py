"""Two-encoder, two-head transformer for emotion-aware explanation generation.

One encoder reads per-position emotion intensity vectors mapped through a
small MLP; the other reads token/user/item embeddings.  Their states are fused
as ``intensity * emotion + context``, decoded by a causal transformer, and
projected by an emotion-classification head and a language-modeling head that
is weight-tied to the token embedding table.  All attention (both encoders and
the decoder) is causal so the next-token factorization stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import numerics as nm
from .corpus import DEFAULT_MAX_LEN, PAD, SPECIAL_TOKENS, UNK, EncodedExample, Vocabulary
from .lexicon import CATEGORIES, Lexicon, NEUTRAL_VECTOR, word_emotion
from .numerics import Parameter, Tensor

EMOTION_MLP_HIDDEN = 64
N_EMOTIONS = len(CATEGORIES)
N_SPECIAL = len(SPECIAL_TOKENS)


@dataclass(frozen=True)
class ModelConfig:
    n_tokens: int
    n_users: int
    n_items: int
    max_len: int = DEFAULT_MAX_LEN
    embed_dim: int = 512
    ffn_dim: int = 2048
    encoder_layers: int = 2
    decoder_layers: int = 2
    attention_heads: int = 2
    intensity: float = 1.0
    c1: float = 1.0
    c2: float = 1.0
    # Hides the emotion tag from both encoders (context sees <unk>, emotion
    # sees neutral) so the classification head cannot just copy its input.
    # Experiment knob, off by default.
    mask_emotion_tag: bool = False

    def __post_init__(self):
        for name in ("n_tokens", "n_users", "n_items", "max_len", "embed_dim", "ffn_dim",
                     "encoder_layers", "decoder_layers", "attention_heads"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be a positive integer, got {getattr(self, name)}")
        if self.embed_dim % self.attention_heads:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by {self.attention_heads} heads")
        for name in ("intensity", "c1", "c2"):
            if not 0 <= getattr(self, name) < np.inf:  # also false for nan
                raise ValueError(f"{name} must be a finite non-negative number, got {getattr(self, name)}")


def config_for_vocab(vocab: Vocabulary, **overrides) -> ModelConfig:
    return ModelConfig(
        n_tokens=vocab.n_tokens,
        n_users=len(vocab.id_to_user),
        n_items=len(vocab.id_to_item),
        **overrides,
    )


@dataclass
class LayerParams:
    # Q/K/V projections carry no bias: a key bias cancels inside the row
    # softmax, leaving a parameter with an exactly-zero gradient that finite
    # differences can only see as noise.
    wq: Parameter
    wk: Parameter
    wv: Parameter
    wo: Parameter
    bo: Parameter
    ln1_gamma: Parameter
    ln1_beta: Parameter
    ffn_w1: Parameter
    ffn_b1: Parameter
    ffn_w2: Parameter
    ffn_b2: Parameter
    ln2_gamma: Parameter
    ln2_beta: Parameter


def _uniform(rng, shape):
    return rng.uniform(-0.1, 0.1, size=shape)


def _glorot(rng, shape):
    limit = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-limit, limit, size=shape)


def _zeros(rng, shape):
    return np.zeros(shape)


def _ones(rng, shape):
    return np.ones(shape)


def _layer(param, prefix: str, d: int, ffn: int) -> LayerParams:
    return LayerParams(
        wq=param(f"{prefix}.attn.wq", (d, d), _glorot),
        wk=param(f"{prefix}.attn.wk", (d, d), _glorot),
        wv=param(f"{prefix}.attn.wv", (d, d), _glorot),
        wo=param(f"{prefix}.attn.wo", (d, d), _glorot),
        bo=param(f"{prefix}.attn.bo", (d,), _zeros),
        ln1_gamma=param(f"{prefix}.ln1.gamma", (d,), _ones),
        ln1_beta=param(f"{prefix}.ln1.beta", (d,), _zeros),
        ffn_w1=param(f"{prefix}.ffn.w1", (d, ffn), _glorot),
        ffn_b1=param(f"{prefix}.ffn.b1", (ffn,), _zeros),
        ffn_w2=param(f"{prefix}.ffn.w2", (ffn, d), _glorot),
        ffn_b2=param(f"{prefix}.ffn.b2", (d,), _zeros),
        ln2_gamma=param(f"{prefix}.ln2.gamma", (d,), _ones),
        ln2_beta=param(f"{prefix}.ln2.beta", (d,), _zeros),
    )


class ModelParams:
    """All learned weights. ``token_embedding`` doubles as the LM output matrix.

    Without ``state`` the weights are drawn from ``seed``.  With ``state`` (a
    loaded checkpoint) each parameter wraps that checkpoint's array itself:
    nothing is drawn or copied, and a parameter the model does not take is an
    error.  The order in which ``__init__`` creates the parameters is the RNG
    draw order, ``all()``'s order and the checkpoint order.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, state: dict[str, np.ndarray] | None = None):
        d = config.embed_dim
        rng = np.random.default_rng(seed)
        self._all: list[Parameter] = []

        def param(name, shape, init):
            if state is None:
                data = init(rng, shape)
            elif name not in state:
                raise ValueError(f"checkpoint is missing parameter {name!r}")
            elif (data := state[name]).shape != shape:
                raise ValueError(f"checkpoint shape {data.shape} for {name!r} does not match {shape}")
            self._all.append(Parameter(data, name))
            return self._all[-1]

        self.token_embedding = param("token_embedding", (config.n_tokens, d), _uniform)
        self.user_embedding = param("user_embedding", (config.n_users, d), _uniform)
        self.item_embedding = param("item_embedding", (config.n_items, d), _uniform)
        self.positional = param("positional", (config.max_len, d), _uniform)
        self.emo_w1 = param("emotion_mlp.w1", (N_EMOTIONS, EMOTION_MLP_HIDDEN), _glorot)
        self.emo_b1 = param("emotion_mlp.b1", (EMOTION_MLP_HIDDEN,), _zeros)
        self.emo_w2 = param("emotion_mlp.w2", (EMOTION_MLP_HIDDEN, d), _glorot)
        self.emo_b2 = param("emotion_mlp.b2", (d,), _zeros)
        self.emotion_encoder = [
            _layer(param, f"emotion_encoder.{i}", d, config.ffn_dim) for i in range(config.encoder_layers)]
        self.context_encoder = [
            _layer(param, f"context_encoder.{i}", d, config.ffn_dim) for i in range(config.encoder_layers)]
        self.decoder = [
            _layer(param, f"decoder.{i}", d, config.ffn_dim) for i in range(config.decoder_layers)]
        self.emotion_head_weight = param("emotion_head", (d, N_EMOTIONS), _glorot)
        if state is not None and len(state) > len(self._all):
            taken = {p.name for p in self._all}
            extra = next(name for name in state if name not in taken)
            raise ValueError(f"checkpoint has parameter {extra!r}, which the model does not take")

    def all(self) -> list[Parameter]:
        """Every parameter, in creation order."""
        return list(self._all)

    def snapshot(self, into: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """Copies of every parameter's values, written over the arrays of ``into`` when given."""
        if into is None:
            return [p.data.copy() for p in self.all()]
        for dst, p in zip(into, self.all(), strict=True):
            np.copyto(dst, p.data)
        return into

    def restore(self, arrays: list[np.ndarray]) -> None:
        for p, arr in zip(self.all(), arrays, strict=True):
            p.data[...] = arr


@dataclass
class ForwardState:
    """Head logits: LM logits at every position, emotion logits at the tag.

    For one example these are (max_len, n_tokens) and (1, 6); for a ``Batch``
    they carry its leading batch axis, (B, L, n_tokens) and (B, 1, 6).
    """

    lm_logits: Tensor
    emotion_logits: Tensor


@dataclass(frozen=True)
class Batch:
    """Encoded examples stacked for one pass: ``EncodedExample``'s fields with a leading batch axis.

    ``context_ids`` is (B, L), cut to the batch's longest sequence (its
    largest <eos> position + 1); the other fields are (B,) arrays.  All three
    stacks are causal, so the positions cut off never reach a supervised or
    tagged row.
    """

    context_ids: np.ndarray
    emotion_target: np.ndarray
    tag_position: np.ndarray
    bos_position: np.ndarray
    eos_position: np.ndarray

    def select(self, rows: np.ndarray) -> Batch:
        """The examples at ``rows``, in that order."""
        return Batch(*(getattr(self, f.name)[rows] for f in fields(self)))


def make_batch(prepared: list[tuple[EncodedExample, np.ndarray]]) -> tuple[Batch, np.ndarray]:
    """A ``Batch`` and its (B, L, 6) emotion inputs from (example, emotion input matrix) pairs."""
    if not prepared:
        raise ValueError("a batch needs at least one example")
    examples = [ex for ex, _ in prepared]
    length = max(ex.eos_position for ex in examples) + 1
    batch = Batch(
        context_ids=np.array([ex.context_ids[:length] for ex in examples], dtype=np.int64),
        emotion_target=np.array([ex.emotion_target for ex in examples]),
        tag_position=np.array([ex.tag_position for ex in examples]),
        bos_position=np.array([ex.bos_position for ex in examples]),
        eos_position=np.array([ex.eos_position for ex in examples]),
    )
    return batch, np.stack([vnrc[:length] for _, vnrc in prepared])


# One stack's keys and values: a cache per layer.
StackCache = list[nm.KVCache]


class DecodeCache:
    """Keys and values of the positions fed so far, for incremental decoding.

    Every layer of the three stacks has a ``KVCache`` of ``config.max_len``
    rows; decoding a ``Batch`` gives its buffers a leading batch axis.
    """

    def __init__(self, config: ModelConfig):
        self.emotion, self.context, self.decoder = (
            [nm.KVCache(config.max_len) for _ in range(n)]
            for n in (config.encoder_layers, config.encoder_layers, config.decoder_layers))

    def select(self, rows: np.ndarray) -> None:
        """Keep only the batch rows ``rows`` of every cached K/V."""
        for layer in (*self.emotion, *self.context, *self.decoder):
            layer.select(rows)


def _encoder_stack(x: Tensor, layers: list[LayerParams], n_heads: int, cache: StackCache | None = None) -> Tensor:
    """The rows of ``x`` through a causal stack.

    With a ``cache``, ``x`` holds the positions that follow the cached ones:
    each layer appends its new K/V rows to its cache and attends over all of
    them, so earlier positions are never recomputed.
    """
    for i, lp in enumerate(layers):
        att = nm.attention(x, lp.wq, lp.wk, lp.wv, lp.wo, lp.bo, n_heads, None if cache is None else cache[i])
        x = nm.layer_norm(x, lp.ln1_gamma, lp.ln1_beta, residual=att)
        h = nm.relu(nm.matmul(x, lp.ffn_w1, bias=lp.ffn_b1))
        h = nm.matmul(h, lp.ffn_w2, bias=lp.ffn_b2)
        x = nm.layer_norm(x, lp.ln2_gamma, lp.ln2_beta, residual=h)
    return x


def emotion_embed(params: ModelParams, intensities: Tensor) -> Tensor:
    """The emotion MLP g: rows of 6 intensities to rows of embed_dim."""
    h = nm.relu(nm.matmul(intensities, params.emo_w1, bias=params.emo_b1))
    return nm.matmul(h, params.emo_w2, bias=params.emo_b2)


def emotion_input_matrix(
    example: EncodedExample, vocab: Vocabulary, lex: Lexicon, mask_emotion_tag: bool = False
) -> np.ndarray:
    """Per-position 6-vector inputs for the emotion encoder.

    User, item and special-token positions are neutral; the tag position is the
    one-hot of the target category (neutral when masked); word positions carry
    their lexicon vector, so <unk> falls back to neutral.
    """
    rows = np.array([NEUTRAL_VECTOR, NEUTRAL_VECTOR, *(token_emotion(t, vocab, lex) for t in example.context_ids[2:])],
                    dtype=np.float64)
    if not mask_emotion_tag:  # the tag is a special token, so its row is neutral until set here
        rows[example.tag_position] = np.eye(N_EMOTIONS)[example.emotion_target]
    return rows


def token_emotion(token_id: int, vocab: Vocabulary, lex: Lexicon) -> tuple[float, ...]:
    """Emotion-encoder input at a token-table position: special tokens, the tag among them, are neutral."""
    return NEUTRAL_VECTOR if token_id < N_SPECIAL else word_emotion(lex, vocab.id_to_token[token_id])


def encode_emotion_from_matrix(
    vnrc: np.ndarray, params: ModelParams, config: ModelConfig,
    cache: StackCache | None = None, start: int = 0,
) -> Tensor:
    """The emotion encoder over all max_len rows of ``vnrc``, or with a ``cache``
    over rows for the positions ``start`` onward.

    A (B, L, 6) ``vnrc`` is a batch's stack, L <= max_len rows per example.
    """
    if (vnrc.ndim not in (2, 3) or vnrc.shape[-1] != N_EMOTIONS or not 0 < vnrc.shape[-2] <= config.max_len
            or (cache is None and vnrc.ndim == 2 and vnrc.shape[0] != config.max_len)):
        raise ValueError(f"emotion input shape {vnrc.shape}, expected ({config.max_len}, {N_EMOTIONS})")
    x = nm.add(emotion_embed(params, Tensor(vnrc)), nm.slice_rows(params.positional, start, start + vnrc.shape[-2]))
    return _encoder_stack(x, params.emotion_encoder, config.attention_heads, cache)


def encode_context(
    example: EncodedExample | Batch, params: ModelParams, config: ModelConfig,
    cache: StackCache | None = None, start: int = 0,
) -> Tensor:
    """The context encoder over all max_len ids of ``example``, or with a ``cache``
    over ids for the positions ``start`` onward.

    Positions 0 and 1 index the user and item tables, so a call with a
    ``start`` past 0 must start at a token position (2 or later);
    ``example.tag_position`` is absolute either way.  A ``Batch`` is encoded
    example by example as one stack.
    """
    ids = np.asarray(example.context_ids, dtype=np.int64)
    length = ids.shape[-1]
    if cache is None and ids.ndim == 1 and length != config.max_len:
        raise ValueError(f"context length {length} does not match max_len {config.max_len}")
    if config.mask_emotion_tag:
        tag = np.expand_dims(example.tag_position, -1)
        ids = np.where(np.arange(start, start + length) == tag, UNK, ids)
    if start == 0:
        user_vec = nm.embedding(params.user_embedding, ids[..., :1])
        item_vec = nm.embedding(params.item_embedding, ids[..., 1:2])
        token_vecs = nm.embedding(params.token_embedding, ids[..., 2:])
        x = nm.concat([user_vec, item_vec, token_vecs], axis=-2)
    else:
        x = nm.embedding(params.token_embedding, ids)
    x = nm.add(x, nm.slice_rows(params.positional, start, start + length))
    return _encoder_stack(x, params.context_encoder, config.attention_heads, cache)


def fuse(hidden_emo: Tensor, hidden_context: Tensor, intensity: float) -> Tensor:
    if hidden_emo.data.shape != hidden_context.data.shape:
        raise ValueError(f"fuse shape mismatch: {hidden_emo.data.shape} vs {hidden_context.data.shape}")
    return nm.add(nm.scalar_mul(hidden_emo, intensity), hidden_context)


def decode(hidden_merge: Tensor, params: ModelParams, config: ModelConfig, cache: StackCache | None = None) -> Tensor:
    return _encoder_stack(hidden_merge, params.decoder, config.attention_heads, cache)


def _decoded(
    example: EncodedExample | Batch, params: ModelParams, config: ModelConfig, vnrc: np.ndarray,
    cache: DecodeCache | None = None,
) -> Tensor:
    """Decoder states of the positions in ``example`` and ``vnrc``.

    The one composition of the two encoders, fusion and decoder: over all
    max_len positions without a cache, or over the positions that follow
    those already in ``cache``, which then holds them too.  A ``Batch`` runs
    the same layers on (B, L, d) stacks.
    """
    emotion, context, decoder = (None, None, None) if cache is None else (
        cache.emotion, cache.context, cache.decoder)
    start = 0 if cache is None else cache.decoder[0].length
    hidden_emo = encode_emotion_from_matrix(vnrc, params, config, emotion, start)
    hidden_context = encode_context(example, params, config, context, start)
    return decode(fuse(hidden_emo, hidden_context, config.intensity), params, config, decoder)


def forward(
    example: EncodedExample | Batch, params: ModelParams, config: ModelConfig, vnrc: np.ndarray
) -> ForwardState:
    """The path from inputs to head logits, shared by training and gradcheck."""
    decoded = _decoded(example, params, config, vnrc)
    tag_row = nm.gather_rows(decoded, np.expand_dims(example.tag_position, -1))
    return ForwardState(
        lm_logits=nm.matmul(decoded, params.token_embedding, transpose_b=True),
        emotion_logits=nm.matmul(tag_row, params.emotion_head_weight),
    )


def next_token_logits(
    batch: Batch, params: ModelParams, config: ModelConfig, vnrc: np.ndarray, cache: DecodeCache,
) -> np.ndarray:
    """(B, n_tokens) LM logits at the last of the positions that ``batch`` and ``vnrc`` append to ``cache``.

    Only each slice's last row goes through the LM head, and the emotion head
    is not computed: this is the decoding step, run under ``no_grad``.
    """
    decoded = _decoded(batch, params, config, vnrc, cache)
    last_row = np.full((len(decoded.data), 1), decoded.data.shape[1] - 1)
    return nm.matmul(nm.gather_rows(decoded, last_row), params.token_embedding, transpose_b=True).data[:, 0]


def emotion_head(state: ForwardState, example: EncodedExample | Batch) -> Tensor:
    """Cross-entropy of the tag-position logits against the record's emotion (per example for a batch)."""
    targets = np.reshape(example.emotion_target, state.emotion_logits.data.shape[:-1])
    return nm.cross_entropy(state.emotion_logits, targets)


def lm_head(state: ForwardState, example: EncodedExample | Batch) -> Tensor:
    """Mean next-token cross-entropy over the supervised positions (per example for a batch).

    Supervision runs from the <bos> position through the last explanation
    token, i.e. targets e_1 .. e_E and then <eos>; pad positions never count.
    """
    ids = np.asarray(example.context_ids)
    positions = np.arange(ids.shape[-1])
    supervised = ((positions >= np.expand_dims(example.bos_position, -1))
                  & (positions < np.expand_dims(example.eos_position, -1)))
    # Row p predicts the id at p + 1. Rows that are not supervised get PAD:
    # their successor may be an item id (row 0) or absent (the last row).
    targets = np.where(supervised, np.roll(ids, -1, axis=-1), PAD)
    return nm.cross_entropy(state.lm_logits, targets, supervised)


def total_loss(
    example: EncodedExample | Batch, params: ModelParams, config: ModelConfig, vnrc: np.ndarray
):
    """(c1 * L_lm + c2 * L_emo, L_lm, L_emo) for one example.

    For a ``Batch``, L_lm and L_emo are (B,) per-example losses and the
    combined loss is the mean of c1 * L_lm + c2 * L_emo over the batch.
    """
    state = forward(example, params, config, vnrc)
    lm_loss = lm_head(state, example)
    emo_loss = emotion_head(state, example)
    combined = nm.add(nm.scalar_mul(lm_loss, config.c1), nm.scalar_mul(emo_loss, config.c2))
    if combined.data.ndim:
        combined = nm.scalar_mul(nm.tensor_sum(combined), 1.0 / combined.data.shape[0])
    return combined, lm_loss, emo_loss
