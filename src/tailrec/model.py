"""Three-layer sequential recommender.

Layer one is a shared item-embedding table; layer two a sequence encoder
(bidirectional self-attention stack or a GRU); layer three scores every real
item by inner product against the *same* table plus a per-item bias. The
table is genuinely shared storage: mutating a row changes both what the
encoder sees and what the scorer produces.

Sequences are left-padded to ``max_len`` with the pad index; a [mask] token is
only ever an item of the input, never an extra column. The attention encoder's
callers name the (row, column) pairs they read and get those final states
only. Its blocks run on the live columns, skipping leading columns that are
padding in every row and left of every read (as the GRU skips leading pad
steps): every block but the last at all live columns, the last one keys and
values at all of them but everything else only at the pairs read. Cloze
training reads its masked slots, and the interpreter (``repair``) the [mask]
of each window. To rank, ``ranking_states`` keeps the last ``max_len - 1``
history items, places a [mask] directly after them inside the window, and
reads the user state at column ``max_len - 1`` -- the input cloze training
scores whenever it masks the last position (the BERT4Rec layout). Both pass
the state through the one head projection, ``head_states``. The GRU reads its
final hidden state over the last ``max_len`` items and never sees the [mask]
token; its whole recurrence is the one fused tape op ``tensor.gru_sequence``,
so a GRU training step records the same few ops whatever ``max_len`` is.

Parameters live in nested dataclasses. ``named_parameters`` walks their
fields in declaration order and is the only list of parameter names: the
optimizer, fingerprints, ``clone_model`` and the checkpoint container
(``artifacts``) all read it, for models and for the inference functions
``repair`` builds from the same parts. ``transformer_block`` is the one
self-attention block, shared by the encoder and the repair aggregator, which
mean-pools every position and so runs its blocks at all of them.
"""

from __future__ import annotations

import hashlib
import json
from copy import deepcopy
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from . import tensor as T
from .artifacts import FUNCTION_KIND, check_lineage, read_container, write_container
from .errors import ConfigError
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "EmbeddingTable",
    "BlockParams",
    "GruParams",
    "EncoderParams",
    "Model",
    "init_model",
    "pad_batch",
    "embed_sequence",
    "transformer_block",
    "encode_transformer",
    "encode_gru",
    "encode",
    "head_states",
    "ranking_states",
    "score",
    "score_candidates",
    "named_parameters",
    "clone_model",
    "save_checkpoint",
    "load_checkpoint",
    "catalog_hash",
    "params_fingerprint",
]

NEG_ATTENTION = -1e9  # additive logit for pad keys; large-finite keeps softmax NaN-free


@dataclass(frozen=True)
class ModelConfig:
    variant: str  # "transformer" | "gru"
    n_items: int
    d: int = 64
    n_blocks: int = 2
    n_heads: int = 2
    max_len: int = 50
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.variant not in ("transformer", "gru"):
            raise ConfigError(f"unknown encoder variant {self.variant!r}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be at least 2, got {self.max_len}")
        if self.variant == "transformer" and self.d % self.n_heads != 0:
            raise ConfigError(f"d={self.d} not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class EmbeddingTable:
    """(n_items + 2) x d lookup; row pad_index is all-zero, row mask_index is
    the [mask] token. ``positional`` has one row per input column (max_len)."""

    weights: Tensor
    item_bias: Tensor
    pad_index: int
    mask_index: int
    positional: Tensor | None = None
    ln_gain: Tensor | None = None
    ln_bias: Tensor | None = None

    @property
    def n_items(self) -> int:
        return self.pad_index

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    @property
    def has_positional(self) -> bool:
        return self.positional is not None


@dataclass
class BlockParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class GruParams:
    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wc: Tensor
    uc: Tensor
    bc: Tensor


@dataclass
class EncoderParams:
    variant: str
    n_heads: int
    blocks: list[BlockParams] = field(default_factory=list)
    gru: GruParams | None = None
    head_w: Tensor | None = None  # user-state projection, attention variant only
    head_b: Tensor | None = None
    frozen: bool = False


@dataclass
class Model:
    config: ModelConfig
    table: EmbeddingTable
    encoder: EncoderParams


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) with draws beyond 2 std resampled."""
    x = rng.standard_normal(shape) * std
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(x) > 2 * std
    return x


def _init_block(rng, d: int) -> BlockParams:
    tn = lambda *s: Tensor(trunc_normal(rng, s))
    zeros = lambda *s: Tensor(np.zeros(s))
    ones = lambda *s: Tensor(np.ones(s))
    return BlockParams(
        wq=tn(d, d), bq=zeros(d), wk=tn(d, d), bk=zeros(d), wv=tn(d, d), bv=zeros(d),
        wo=tn(d, d), bo=zeros(d),
        ln1_gain=ones(d), ln1_bias=zeros(d),
        w1=tn(d, 4 * d), b1=zeros(4 * d), w2=tn(4 * d, d), b2=zeros(d),
        ln2_gain=ones(d), ln2_bias=zeros(d),
    )


def init_model(config: ModelConfig, rng: np.random.Generator) -> Model:
    d, n = config.d, config.n_items
    weights = trunc_normal(rng, (n + 2, d))
    weights[n] = 0.0  # pad row
    if config.variant == "gru":
        weights[n + 1] = 0.0  # [mask] unused by the recurrent variant; keep it inert
        table = EmbeddingTable(
            weights=Tensor(weights),
            item_bias=Tensor(np.zeros(n)),
            pad_index=n,
            mask_index=n + 1,
        )
        gru = GruParams(
            wz=Tensor(trunc_normal(rng, (d, d))), uz=Tensor(trunc_normal(rng, (d, d))), bz=Tensor(np.zeros(d)),
            wr=Tensor(trunc_normal(rng, (d, d))), ur=Tensor(trunc_normal(rng, (d, d))), br=Tensor(np.zeros(d)),
            wc=Tensor(trunc_normal(rng, (d, d))), uc=Tensor(trunc_normal(rng, (d, d))), bc=Tensor(np.zeros(d)),
        )
        encoder = EncoderParams(variant="gru", n_heads=0, gru=gru)
    else:
        table = EmbeddingTable(
            weights=Tensor(weights),
            item_bias=Tensor(np.zeros(n)),
            pad_index=n,
            mask_index=n + 1,
            positional=Tensor(trunc_normal(rng, (config.max_len, d))),
            ln_gain=Tensor(np.ones(d)),
            ln_bias=Tensor(np.zeros(d)),
        )
        blocks = [_init_block(rng, d) for _ in range(config.n_blocks)]
        encoder = EncoderParams(
            variant="transformer",
            n_heads=config.n_heads,
            blocks=blocks,
            head_w=Tensor(trunc_normal(rng, (d, d))),
            head_b=Tensor(np.zeros(d)),
        )
    return Model(config=config, table=table, encoder=encoder)


def pad_batch(sequences, max_len: int, pad_index: int) -> np.ndarray:
    """Left-pad (and left-truncate) item index sequences to (B, max_len)."""
    batch = np.full((len(sequences), max_len), pad_index, dtype=np.int64)
    for i, seq in enumerate(sequences):
        seq = np.asarray(seq, dtype=np.int64)[-max_len:]
        if len(seq):
            batch[i, max_len - len(seq) :] = seq
    return batch


def embed_sequence(
    table: EmbeddingTable,
    seqs,
    max_len: int,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
):
    """Look up a (B, max_len) batch -> ((B, max_len, d) Tensor, bool pad mask).

    1-D input is treated as a single sequence and padded here. Positional
    embeddings, layer norm, and dropout apply only when the table carries
    them (the attention variant); the recurrent variant gets dropout only.
    """
    seqs = np.asarray(seqs, dtype=np.int64)
    if seqs.ndim == 1:
        batch = pad_batch([seqs], max_len, table.pad_index)
    else:
        batch = seqs
    if batch.min(initial=0) < 0 or batch.max(initial=0) > table.mask_index:
        raise IndexError(
            f"item index out of range [0, {table.mask_index}] in input batch"
        )
    real = batch != table.pad_index
    e = T.take_rows(table.weights, batch)
    if table.has_positional:
        e = T.add(e, T.take_rows(table.positional, np.arange(batch.shape[1])))
        if table.ln_gain is not None:
            e = T.layer_norm(e, table.ln_gain, table.ln_bias)
    if dropout_rate and training:
        e = T.dropout(e, dropout_rate, rng)
    return e, real


def _mha(
    block: BlockParams,
    h: Tensor,
    additive_mask: np.ndarray,
    n_heads: int,
    queries: Tensor | None = None,
    rows: np.ndarray | None = None,
) -> Tensor:
    """Multi-head self-attention over a (B, L, d) batch. Keys and values
    always cover all L columns. Without ``rows`` every column queries and the
    result is (B, L, d); given (n, d) ``queries`` and the batch row each one
    belongs to, each attends over its own row's keys and the result is (n, d)."""
    b, l, d = h.shape
    dh = d // n_heads

    def split(x, n, m):  # (n, m, d) -> (n, heads, m, dh)
        return T.transpose(T.reshape(x, (n, m, n_heads, dh)), (0, 2, 1, 3))

    queries = h if queries is None else queries
    n, m = (b, l) if rows is None else (queries.shape[0], 1)
    q = split(T.add(T.matmul(queries, block.wq), block.bq), n, m)
    k = split(T.add(T.matmul(h, block.wk), block.bk), b, l)
    v = split(T.add(T.matmul(h, block.wv), block.bv), b, l)
    if rows is not None:
        k, v, additive_mask = T.take_rows(k, rows), T.take_rows(v, rows), additive_mask[rows]
    logits = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    logits = T.add(logits, additive_mask)
    attn = T.softmax(logits, axis=-1)
    ctx = T.matmul(attn, v)  # (n, heads, m, dh)
    merged = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), queries.shape)
    return T.add(T.matmul(merged, block.wo), block.bo)


def transformer_block(
    block: BlockParams,
    h: Tensor,
    additive_mask: np.ndarray,
    n_heads: int,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    read: tuple[np.ndarray, np.ndarray] | None = None,
    drawn: tuple[np.ndarray, int] | None = None,
) -> Tensor:
    """Post-norm block: attention, dropout, residual, layer norm, then the
    GELU feed-forward, dropout, residual, layer norm. Dropout is drawn only
    when ``dropout_rate`` is nonzero, attention output first.

    By default the block runs at every column of the (B, L, d) input and
    returns (B, L, d). ``read`` = (flat ``row * L + column`` indices, their
    rows) runs everything after the keys and values at those n positions
    only and returns their (n, d) states. Dropout masks are drawn at the full
    (B, L, d) shape, or at (n_rows, d) for ``drawn`` = (the computed positions'
    indices in those rows, n_rows), so the rng stream does not depend on them.
    """
    b, l, d = h.shape
    x, flat, rows = h, None, None
    if read is not None:
        flat, rows = read
        x = T.take_rows(T.reshape(h, (b * l, d)), flat)
    keep, n_rows = drawn if drawn is not None else (flat, b * l)
    a = _mha(block, h, additive_mask, n_heads, x, rows)
    if dropout_rate:
        a = T.dropout(a, dropout_rate, rng, rows=keep, n_rows=n_rows)
    a = T.layer_norm(T.add(x, a), block.ln1_gain, block.ln1_bias)
    f = T.add(T.matmul(T.gelu(T.add(T.matmul(a, block.w1), block.b1)), block.w2), block.b2)
    if dropout_rate:
        f = T.dropout(f, dropout_rate, rng, rows=keep, n_rows=n_rows)
    return T.layer_norm(T.add(a, f), block.ln2_gain, block.ln2_bias)


def encode_transformer(
    encoder: EncoderParams,
    e: Tensor,
    real: np.ndarray,
    rows,
    columns,
    dropout_rate: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the block stack over the live columns, from the first that holds
    an item in any row or is read; pad columns are masked out as keys, so
    skipping them moves states by rounding only. Returns the final states at
    the (row, column) pairs, (n, d): every block but the last runs at all live
    columns, the last only at the pairs read. Dropout is drawn over all L."""
    if encoder.variant != "transformer":
        raise ConfigError(f"encode_transformer got variant {encoder.variant!r}")
    b, l, d = e.shape
    rows, columns = np.asarray(rows, dtype=np.intp), np.asarray(columns, dtype=np.intp)
    live = np.flatnonzero(real.any(axis=0))
    start = int(min(live[0] if live.size else l - 1, columns.min(initial=l - 1)))
    grid = np.arange(b * l).reshape(b, l)[:, start:] if start else None
    h = T.take_rows(T.reshape(e, (b * l, d)), grid) if start else e
    additive = np.where(real[:, start:], 0.0, NEG_ATTENTION)[:, None, None, :]  # over keys
    rate = dropout_rate if training else 0.0
    for block in encoder.blocks[:-1]:
        h = transformer_block(block, h, additive, encoder.n_heads, rate, rng, drawn=(grid, b * l))
    flat = rows * (l - start) + columns - start
    if not encoder.blocks:
        return T.take_rows(T.reshape(h, (b * (l - start), d)), flat)
    return transformer_block(encoder.blocks[-1], h, additive, encoder.n_heads, rate, rng,
                             (flat, rows), (rows * l + columns, b * l))


def encode_gru(encoder: EncoderParams, e: Tensor, real: np.ndarray) -> Tensor:
    """Left-to-right gated recurrence from a zero state, as one
    ``tensor.gru_sequence`` op; pad steps are skipped by gating the state
    update, so left padding cannot change the outcome. Returns the final
    state (B, d): the op keeps per-step states for its own backward pass and
    exposes none of them."""
    if encoder.variant != "gru":
        raise ConfigError(f"encode_gru got variant {encoder.variant!r}")
    g = encoder.gru
    return T.gru_sequence(e, real, g.wz, g.uz, g.bz, g.wr, g.ur, g.br, g.wc, g.uc, g.bc)


def encode(
    model: Model,
    batch: np.ndarray,
    at: tuple | None = None,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Embed + run the variant-appropriate encoder. batch: (B, max_len) padded.
    The transformer needs ``at`` = (rows, columns) and returns the (n, d)
    final states at those pairs; the GRU takes no ``at`` and returns its
    (B, d) final state."""
    cfg = model.config
    if (at is None) != (cfg.variant == "gru"):
        raise ValueError("the transformer reads (rows, columns) pairs, the GRU none")
    rate = cfg.dropout_rate if training else 0.0
    e, real = embed_sequence(model.table, batch, cfg.max_len, rate, training, rng)
    if cfg.variant == "transformer":
        return encode_transformer(model.encoder, e, real, *at, rate, training, rng)
    return encode_gru(model.encoder, e, real)


def head_states(encoder: EncoderParams, states: Tensor) -> Tensor:
    """The user-state projection gelu(state @ head_w + head_b) that cloze
    training scores and ranking ranks with."""
    return T.gelu(T.add(T.matmul(states, encoder.head_w), encoder.head_b))


def ranking_states(model: Model, histories) -> Tensor:
    """(B, d) user states that ranking scores candidates with (inference mode).

    GRU: the final state over the last ``max_len`` items of each history.
    Transformer: the input row is ``[h[-(max_len - 1):], MASK]``, left-padded,
    and the state is read at the [mask] column ``max_len - 1``. That is the
    state cloze training scores when it masks the last position.
    """
    cfg, table = model.config, model.table
    batch = pad_batch(histories, cfg.max_len, table.pad_index)
    if cfg.variant == "gru":
        return encode(model, batch)
    batch[:, :-1] = batch[:, 1:]
    batch[:, -1] = table.mask_index
    states = encode(model, batch, (np.arange(len(batch)), cfg.max_len - 1))
    return head_states(model.encoder, states)


def score(m: Tensor, table: EmbeddingTable) -> Tensor:
    """Relevance over all real items: r[j] = <m, e_j> + bias_j (shared table)."""
    items = T.take_rows(table.weights, slice(table.n_items))
    return T.add(T.matmul(m, T.transpose(items, (1, 0))), table.item_bias)


def score_candidates(m: Tensor, table: EmbeddingTable, candidates: np.ndarray) -> np.ndarray:
    """(B, C) scores of explicit candidate lists as one batched product; no tape."""
    rows = table.weights.values[candidates]  # (B, C, d)
    return (rows @ m.values[:, :, None])[:, :, 0] + table.item_bias.values[candidates]


def named_parameters(tree, prefix: str = "") -> list[tuple[str, Tensor]]:
    """(dotted name, Tensor) for every tensor in a parameter dataclass tree.

    Fields are visited in declaration order, list items by index, and
    fields holding None or plain values are skipped, so a model yields
    ``table.*`` then ``encoder.blocks.{i}.*``/``encoder.head_*`` (attention)
    or ``encoder.gru.*`` (GRU). This order drives the optimizer, the
    fingerprints and the checkpoint container.
    """
    out = []
    for f in fields(tree):
        value, name = getattr(tree, f.name), prefix + f.name
        if isinstance(value, Tensor):
            out.append((name, value))
        elif isinstance(value, list):
            for i, item in enumerate(value):
                out += named_parameters(item, f"{name}.{i}.")
        elif is_dataclass(value):
            out += named_parameters(value, name + ".")
    return out


def clone_model(tree):
    """Deep copy of a model (or any parameter tree) with fresh numpy buffers:
    bitwise-equal values, no shared storage, no gradients."""
    copy = deepcopy(tree)
    for _, t in named_parameters(copy):
        t.grad = None
    return copy


def params_fingerprint(pairs) -> str:
    """sha256 over raw float64 bytes of (name, Tensor) pairs, order-stable."""
    h = hashlib.sha256()
    for name, t in pairs:
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.values).tobytes())
    return h.hexdigest()


def catalog_hash(item_ids) -> str:
    payload = json.dumps(list(item_ids), separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def save_checkpoint(path, model: Model, cat_hash: str, kind: str, meta: dict | None = None) -> None:
    """Write the model config, catalog hash and every parameter as an
    ``artifacts`` container; ``kind`` labels the stage that wrote it."""
    write_container(path, kind, asdict(model.config), named_parameters(model), cat_hash, meta)


def load_checkpoint(path, expected_catalog_hash: str | None = None):
    """Load a checkpoint -> (Model, meta dict, kind, catalog_hash).

    Refuses inference-function files, files written for a different catalog
    when an expected hash is given, and any malformed container.
    """
    model, doc = read_container(
        path, "checkpoint", lambda kind: isinstance(kind, str) and kind != FUNCTION_KIND,
        lambda config: init_model(ModelConfig(**config), np.random.default_rng(0)),
        named_parameters)
    check_lineage(path, doc["catalog_hash"], expected_catalog_hash,
                  "checkpoint was built for a different catalog")
    return model, doc["meta"], doc["kind"], doc["catalog_hash"]
