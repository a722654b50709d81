"""Context-based repair of low-quality item embeddings.

A pretrained recommender embeds rarely-seen items badly. This module trains
an embedding-inference function on the *frequently* seen items — where the
pretrained rows are trustworthy targets — and then overwrites the rare-item
rows with inferred vectors. The function is two-stage:

  interpreter  one context window -> one semantic vector. Reuses the
               pretrained encoder's structure (and usually its frozen
               weights): reading the state at a masked slot is the same
               job as reading the user state during pretraining.
  aggregator   a set of window vectors -> one embedding. A stack of the
               encoder's own ``transformer_block`` without positional
               encoding (the set is unordered), mean pooled, then one
               affine layer back to d.

Both parts are parameter dataclasses, so ``model.named_parameters`` names
them (``interpreter.*``, then ``agg.blocks.{i}.*``, ``agg.out_w``,
``agg.out_b``) and ``model.clone_model`` copies them. A trained function is
stored in the same ``artifacts`` container as a model checkpoint, with kind
``inference_function`` and the fingerprint of the base checkpoint it
reproduces.

Training is few-shot on purpose: each step sees only a handful of windows
per target item, mimicking how little context the rare items actually have.
New items never seen in training get a row appended the same way, with no
gradient step anywhere.

A window's eval-mode vector depends only on the window and the interpreter,
so ``_encode_missing`` is the one way to encode windows outside the tape: it
encodes each window once, in batches of two or more rows, and keeps it
keyed by (item, window index). Every caller picks its windows first and then
encodes all those not yet kept in a few batched calls: inference picks the
windows of every item, and training draws every epoch's picks before its
first step, so a frozen interpreter encodes everything the steps and the
end-of-epoch probe read at once. The eval-mode aggregation of those picks
(inference and the probe) is one ``aggregate`` call per pick size, over the
stack of all same-size sets; training stays one item per step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .artifacts import FUNCTION_KIND, check_lineage, read_container, write_container
from .data import ContextSet, ContextWindow
from .errors import ConfigError, DataError, TrainingError
from .model import (
    BlockParams,
    EncoderParams,
    Model,
    ModelConfig,
    _init_block,
    clone_model,
    embed_sequence,
    encode_gru,
    encode_transformer,
    init_model,
    named_parameters,
    params_fingerprint,
    transformer_block,
    trunc_normal,
)
from .optim import AdamState, adam_step
from .tensor import Tensor

__all__ = [
    "FewShotConfig",
    "InferenceTrainConfig",
    "Aggregator",
    "InferenceFunction",
    "InferredEmbedding",
    "derive_window_sizes",
    "init_inference_function",
    "trainable_inference_parameters",
    "inference_fingerprint",
    "interpret_context",
    "aggregate",
    "infer_one",
    "train_inference_function",
    "infer_embeddings",
    "apply_embeddings",
    "infer_new_items",
    "save_inference_function",
    "load_inference_function",
]


def derive_window_sizes(variant: str, max_len: int) -> tuple[int, int]:
    """Window extents (left, right) around a target occurrence.

    The attention variant reads a masked center, so the window is symmetric
    and must fit in max_len alongside the center slot. The recurrent variant
    only ever consumes left context (it predicts forward), so the right
    extent is zero.
    """
    if variant == "gru":
        return max_len - 1, 0
    return (max_len - 2) // 2, (max_len - 2) // 2


@dataclass(frozen=True)
class FewShotConfig:
    kappa_max: int = 10
    few_shot: bool = True  # off = feed every window each step (ablation)
    omega1: int | None = None  # None -> derived from the encoder variant
    omega2: int | None = None

    def __post_init__(self):
        if self.kappa_max < 1:
            raise ConfigError(f"kappa_max must be >= 1, got {self.kappa_max}")
        for name in ("omega1", "omega2"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ConfigError(f"{name} must be >= 0, got {v}")

    def resolved_windows(self, variant: str, max_len: int) -> tuple[int, int]:
        w1, w2 = derive_window_sizes(variant, max_len)
        if self.omega1 is not None:
            w1 = self.omega1
        if self.omega2 is not None:
            w2 = self.omega2
        if w1 + w2 < 1:
            raise ConfigError("context windows must cover at least one item")
        return w1, w2


@dataclass(frozen=True)
class InferenceTrainConfig:
    epochs: int = 50
    learning_rate: float = 0.001
    warmup_steps: int = 100
    l2_coefficient: float = 0.0001
    dropout_rate: float = 0.1
    n_agg_blocks: int = 2
    n_agg_heads: int = 4
    seed: int = 0
    phi_alpha_init: str = "pretrained"  # "pretrained" | "scratch"
    phi_alpha_frozen: bool = True
    context_batch_cap: int = 64

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.n_agg_blocks < 1:
            raise ConfigError(f"need at least one aggregator block, got {self.n_agg_blocks}")
        if self.phi_alpha_init not in ("pretrained", "scratch"):
            raise ConfigError(f"unknown interpreter init {self.phi_alpha_init!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.context_batch_cap < 1:
            raise ConfigError(f"context_batch_cap must be >= 1, got {self.context_batch_cap}")


@dataclass
class Aggregator:
    """Self-attention blocks over the window set, then an affine output."""

    blocks: list[BlockParams]
    n_heads: int
    out_w: Tensor
    out_b: Tensor


@dataclass
class InferenceFunction:
    """Trained embedding-inference function: interpreter + aggregator."""

    variant: str
    d: int
    max_len: int
    omega1: int
    omega2: int
    kappa_max: int
    interpreter: EncoderParams  # .frozen controls whether training may touch it
    agg: Aggregator
    init_source: str = "pretrained"


@dataclass
class InferredEmbedding:
    item: int
    vector: np.ndarray
    provenance: str  # "original" | "inferred"


def _init_aggregator(rng, d: int, n_blocks: int, n_heads: int) -> Aggregator:
    blocks = [_init_block(rng, d) for _ in range(n_blocks)]
    return Aggregator(blocks=blocks, n_heads=n_heads,
                      out_w=Tensor(trunc_normal(rng, (d, d))), out_b=Tensor(np.zeros(d)))


def init_inference_function(
    model: Model,
    few_shot: FewShotConfig,
    cfg: InferenceTrainConfig,
    rng: np.random.Generator,
) -> InferenceFunction:
    d = model.config.d
    if d % cfg.n_agg_heads != 0:
        raise ConfigError(f"d={d} not divisible by n_agg_heads={cfg.n_agg_heads}")
    w1, w2 = few_shot.resolved_windows(model.config.variant, model.config.max_len)
    if cfg.phi_alpha_init == "pretrained":
        interpreter = clone_model(model.encoder)
    else:
        interpreter = init_model(model.config, rng).encoder
    interpreter.frozen = cfg.phi_alpha_frozen
    return InferenceFunction(
        variant=model.config.variant,
        d=d,
        max_len=model.config.max_len,
        omega1=w1,
        omega2=w2,
        kappa_max=few_shot.kappa_max,
        interpreter=interpreter,
        agg=_init_aggregator(rng, d, cfg.n_agg_blocks, cfg.n_agg_heads),
        init_source=cfg.phi_alpha_init,
    )


def trainable_inference_parameters(fn: InferenceFunction) -> list[tuple[str, Tensor]]:
    """Aggregator always trains; the interpreter joins only when unfrozen.
    The interpreter's user-state head is dead weight here (never on the
    forward path), so it is excluded even when unfrozen."""
    skip = ("interpreter.",) if fn.interpreter.frozen else ("interpreter.head_",)
    return [(name, t) for name, t in named_parameters(fn) if not name.startswith(skip)]


def inference_fingerprint(fn: InferenceFunction) -> str:
    return params_fingerprint(named_parameters(fn))


def _trim(fn: InferenceFunction, window: ContextWindow) -> tuple[tuple, tuple]:
    left = window.left[-fn.omega1:] if fn.omega1 else ()
    right = window.right[: fn.omega2] if fn.omega2 else ()
    return left, right


def _usable(fn: InferenceFunction, window: ContextWindow) -> bool:
    left, right = _trim(fn, window)
    if fn.variant == "gru":
        return len(left) > 0
    return len(left) + len(right) > 0


def interpret_context(
    fn: InferenceFunction,
    model: Model,
    windows,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """Encode context windows -> (K, d) semantic vectors.

    Attention variant: the window is laid out [left .. MASK .. right] and the
    final hidden state at the masked slot is read — the target's own row
    never enters the input. Recurrent variant: only the left context is fed
    and the final state is read. Item embeddings always come from the base
    model's table (a frozen featurizer); only fn.interpreter weights differ
    from the base encoder when scratch-initialized or fine-tuned.
    """
    if isinstance(windows, ContextWindow):
        windows = [windows]
    if not windows:
        raise DataError("no context windows to interpret")
    table = model.table
    ml = fn.max_len
    n = len(windows)
    rows = np.full((n, ml), table.pad_index, dtype=np.int64)
    centers = np.zeros(n, dtype=np.int64)
    for i, w in enumerate(windows):
        left, right = _trim(fn, w)
        if fn.variant == "gru":
            if len(left) == 0:
                raise DataError("empty context window (no left context for the recurrent variant)")
            rows[i, ml - len(left):] = left
        else:
            if len(left) == 0 and len(right) == 0:
                raise DataError("empty context window")
            seq = list(left) + [table.mask_index] + list(right)
            rows[i, ml - len(seq):] = seq
            centers[i] = ml - len(seq) + len(left)
    rate = dropout_rate if training else 0.0
    e, real = embed_sequence(table, rows, ml, rate, training, rng)
    if fn.variant == "gru":
        return encode_gru(fn.interpreter, e, real)
    return encode_transformer(fn.interpreter, e, real, np.arange(n), centers, rate, training, rng)


def aggregate(
    fn: InferenceFunction,
    reprs: Tensor,
    training: bool = False,
    rng: np.random.Generator | None = None,
    dropout_rate: float = 0.0,
) -> Tensor:
    """Combine (K, d) window vectors into one (1, d) embedding, or a
    (P, K, d) stack of P same-size sets into (P, d), one row per set.

    No positional encoding and a mean pool keep the stage permutation
    invariant: window order carries no information. A set's row does not
    depend on the sets stacked beside it, except that a one-row output
    product rounds differently; so in eval mode a lone set runs beside a
    copy of itself and only its row is kept, as ``_encode_missing`` does.
    """
    h = reprs if reprs.ndim == 3 else T.reshape(reprs, (1,) + reprs.shape)
    lone = h.shape[0] == 1 and not training
    if lone:
        h = T.take_rows(h, [0, 0])
    additive = np.zeros((1, 1, 1, h.shape[1]))
    rate = dropout_rate if training else 0.0
    agg = fn.agg
    for block in agg.blocks:
        h = transformer_block(block, h, additive, agg.n_heads, rate, rng)
    out = T.linear(T.mean_(h, axis=1), agg.out_w, agg.out_b)
    return T.take_rows(out, [0]) if lone else out


def _aggregate_picks(fn: InferenceFunction, picks, kept: dict) -> list[np.ndarray]:
    """The eval-mode embedding of every (key, windows, pick) triple whose
    window vectors are all in ``kept``: one ``aggregate`` call per pick size,
    over the stack of all picks of that size."""
    by_size: dict[int, list[int]] = {}
    for j, (_, _, pick) in enumerate(picks):
        by_size.setdefault(len(pick), []).append(j)
    out: list = [None] * len(picks)
    for rows in by_size.values():
        stack = np.array([[kept[(picks[j][0], int(i))] for i in picks[j][2]] for j in rows])
        for j, vec in zip(rows, aggregate(fn, Tensor._wrap(stack)).values):
            out[j] = vec
    return out


# Windows per interpret_context call when the read path encodes many at
# once: few calls, so the per-op overhead of the tape ops is paid rarely,
# and the (windows, max_len, d) activations of one call stay small.
_ENCODE_CHUNK = 1024


def _pick(fn: InferenceFunction, windows, rng, context_batch_cap: int):
    """-> (usable windows, sorted indices of the ones to encode).

    Items with more usable windows than the cap get a uniform subsample drawn
    from ``rng`` (a fresh ``default_rng(0)`` when None); the cap is a memory
    guard, not a modeling choice. Items within the cap draw nothing.
    """
    usable = [w for w in windows if _usable(fn, w)]
    if len(usable) <= context_batch_cap:
        return usable, np.arange(len(usable))
    if rng is None:
        rng = np.random.default_rng(0)
    return usable, np.sort(rng.choice(len(usable), size=context_batch_cap, replace=False))


def _encode_missing(fn: InferenceFunction, model: Model, requests, kept: dict) -> None:
    """Put the eval-mode ``interpret_context`` vector of every window of
    ``requests`` -- (key, windows, pick) triples -- into ``kept`` unless it
    is there, keyed (key, window index).

    A row of a product with two or more rows does not depend on the rows
    beside it, but a one-row product takes another BLAS path and can round
    differently. So a chunk that would hold one window is encoded beside a
    copy of itself and only its first row is kept: a kept vector is the row
    any batch of two or more windows gives it.
    """
    todo = {}
    for key, wins, pick in requests:
        todo.update(((key, int(i)), wins[i]) for i in pick if (key, int(i)) not in kept)
    keys = list(todo)
    for lo in range(0, len(keys), _ENCODE_CHUNK):
        chunk = keys[lo:lo + _ENCODE_CHUNK]
        windows = [todo[k] for k in chunk] * (2 if len(chunk) == 1 else 1)
        kept.update(zip(chunk, interpret_context(fn, model, windows).values))


def _kept_rows(kept: dict, key, pick) -> Tensor:
    return Tensor(np.stack([kept[(key, int(i))] for i in pick]))


def _infer_picks(fn: InferenceFunction, model: Model, picks, kept: dict) -> list[np.ndarray]:
    """One eval-mode embedding per (item, windows, pick), after every window
    the picks lack in ``kept`` is encoded in batches. A function whose
    products overflow gives a one-line DataError, not a warning and an
    infinite row."""
    with np.errstate(over="ignore", invalid="ignore"):
        _encode_missing(fn, model, picks, kept)
        vectors = _aggregate_picks(fn, picks, kept)
    for (item, _, _), vec in zip(picks, vectors):
        if not np.isfinite(vec).all():
            raise DataError(f"inferred vector for item {item} is not finite")
    return vectors


def infer_one(
    fn: InferenceFunction,
    model: Model,
    windows,
    rng: np.random.Generator | None = None,
    context_batch_cap: int = 64,
) -> np.ndarray:
    """Deterministic (eval-mode) embedding from a window list -> (d,) array.
    At most ``context_batch_cap`` usable windows are read (see ``_pick``)."""
    wins, pick = _pick(fn, windows, rng, context_batch_cap)
    if not wins:
        raise DataError("no usable context windows")
    return _infer_picks(fn, model, [(0, wins, pick)], {})[0]


def train_inference_function(
    model: Model,
    context_sets: list[ContextSet],
    few_shot: FewShotConfig,
    cfg: InferenceTrainConfig,
):
    """Fit the inference function so it reproduces the base model's embedding
    rows for the given target items from their contexts alone.

    Per epoch and per target item: draw kappa uniform in {1..min(K, kappa_max)},
    sample that many windows without replacement, minimize the squared L2
    distance to the item's pretrained lookup row (positional table excluded —
    the target is the row itself). Items with zero usable windows are skipped
    with a warning.

    Returns (fn, curve, skipped). curve[e] is a deterministic end-of-epoch
    measurement: eval-mode mean squared distance over a per-item window
    subset that is fixed up front, so the curve reflects optimization
    progress rather than the kappa-sampling noise of the training batches.
    """
    init_rng = np.random.default_rng([cfg.seed, 0])
    fn = init_inference_function(model, few_shot, cfg, init_rng)
    sample_rng = np.random.default_rng([cfg.seed, 1])
    drop_rng = np.random.default_rng([cfg.seed, 2])
    probe_rng = np.random.default_rng([cfg.seed, 3])

    usable: list[tuple[int, list[ContextWindow]]] = []
    skipped: list[int] = []
    for cs in context_sets:
        wins = [w for w in cs.windows if _usable(fn, w)]
        if wins:
            usable.append((cs.item, wins))
        else:
            skipped.append(cs.item)
    if skipped:
        warnings.warn(
            f"skipping {len(skipped)} target item(s) with no usable context windows",
            stacklevel=2,
        )
    if not usable:
        raise TrainingError("every target item has zero usable context windows")

    targets = {item: model.table.weights.values[item].copy() for item, _ in usable}
    # every epoch's (order, kappa, pick), drawn up front: sample_rng is fed by
    # nothing that training changes, so these are the picks of drawing per step
    plan = []
    for _ in range(cfg.epochs):
        steps = []
        for idx in sample_rng.permutation(len(usable)):
            k_avail = len(usable[idx][1])
            if few_shot.few_shot:
                kappa = int(sample_rng.integers(1, min(k_avail, few_shot.kappa_max) + 1))
            else:
                kappa = min(k_avail, cfg.context_batch_cap)
            steps.append((idx, sample_rng.choice(k_avail, size=kappa, replace=False)))
        plan.append(steps)
    # fixed per-item probe subsets for the reported curve (chosen once so the
    # end-of-epoch measurement is deterministic given the seed)
    probe = []
    for idx, (_, wins) in enumerate(usable):
        if len(wins) > few_shot.kappa_max:
            pick = np.sort(probe_rng.choice(len(wins), size=few_shot.kappa_max, replace=False))
        else:
            pick = np.arange(len(wins))
        probe.append((idx, wins, pick))
    trainable = [t for _, t in trainable_inference_parameters(fn)]
    opt = AdamState(
        peak_lr=cfg.learning_rate,
        warmup_steps=cfg.warmup_steps,
        l2_coefficient=cfg.l2_coefficient,
    )
    base_params = named_parameters(model)
    frozen = fn.interpreter.frozen
    kept: dict[tuple[int, int], np.ndarray] = {}
    if frozen and plan:
        # the interpreter never changes: encode every window read, once
        _encode_missing(fn, model, [(idx, usable[idx][1], pick) for steps in plan
                                    for idx, pick in steps] + probe, kept)
    curve: list[float] = []

    for epoch, steps in enumerate(plan):
        for idx, pick in steps:
            item, wins = usable[idx]
            if frozen:
                # outside the tape: gradient provably cannot reach the interpreter
                reps = _kept_rows(kept, idx, pick)
            with T.Tape() as tape:
                if not frozen:
                    reps = interpret_context(
                        fn, model, [wins[i] for i in pick],
                        training=True, rng=drop_rng, dropout_rate=cfg.dropout_rate,
                    )
                e_hat = aggregate(fn, reps, training=True, rng=drop_rng,
                                  dropout_rate=cfg.dropout_rate)
                diff = T.sub(e_hat, targets[item][None, :])
                loss = T.sum_(T.mul(diff, diff))
                value = loss.item()
                if not np.isfinite(value):
                    raise TrainingError(f"distance diverged (epoch {epoch}, item {item})")
                tape.backward(loss)
            try:
                adam_step(opt, trainable)
            except FloatingPointError as exc:
                raise TrainingError(f"training diverged (epoch {epoch}, item {item})") from exc
            if not frozen:
                # lookups route gradient into the base table; drop it, the
                # featurizer is not part of the trained function
                T.reset_grads([t for _, t in base_params])
        if not frozen:
            kept.clear()
            _encode_missing(fn, model, probe, kept)
        dists = []
        for (idx, _, _), vec in zip(probe, _aggregate_picks(fn, probe, kept)):
            delta = vec - targets[usable[idx][0]]
            dists.append(float(np.dot(delta, delta)))
        curve.append(float(np.mean(dists)))
    return fn, curve, skipped


def infer_embeddings(
    fn: InferenceFunction,
    model: Model,
    tail_context_sets: list[ContextSet],
    partition,
    rng: np.random.Generator | None = None,
    context_batch_cap: int = 64,
    cache: dict | None = None,
) -> list[InferredEmbedding]:
    """One entry per catalog item. Head rows pass through bitwise-original;
    tail rows with at least one usable window are replaced by the inferred
    vector; tail rows with none keep the pretrained row (still original).

    Every tail item's windows are picked first, in item order, with the cap
    subsample drawn from ``rng`` by ``_pick``; then all picks are encoded in
    batches and aggregated per item. ``cache`` keeps the window
    vectors for later calls that pass the same windows per item, as every
    value of a sweep does.
    """
    by_item = {cs.item: cs for cs in tail_context_sets}
    head = set(partition.head_set)
    picks = []
    for item in range(model.config.n_items):
        if item in head or item not in by_item:
            continue
        wins, pick = _pick(fn, by_item[item].windows, rng, context_batch_cap)
        if wins:
            picks.append((item, wins, pick))
    kept = {} if cache is None else cache
    inferred = dict(zip([p[0] for p in picks], _infer_picks(fn, model, picks, kept)))
    return [InferredEmbedding(item, inferred[item], "inferred") if item in inferred
            else InferredEmbedding(item, model.table.weights.values[item].copy(), "original")
            for item in range(model.config.n_items)]


def apply_embeddings(model: Model, inferred: list[InferredEmbedding]) -> Model:
    """Fresh model with inferred rows written into the shared table.

    Only rows whose provenance is "inferred" change; every other parameter —
    including the scoring biases — is a bitwise copy. No fine-tuning happens
    after injection, so scores change exactly through the overwritten rows.
    """
    out = clone_model(model)
    d = model.config.d
    for entry in inferred:
        if entry.provenance != "inferred":
            continue
        vec = np.asarray(entry.vector, dtype=np.float64)
        if vec.shape != (d,):
            raise DataError(
                f"inferred vector for item {entry.item} has shape {vec.shape}, expected ({d},)"
            )
        if not 0 <= entry.item < model.config.n_items:
            raise DataError(f"inferred item index {entry.item} outside catalog")
        if not np.isfinite(vec).all():
            raise DataError(f"inferred vector for item {entry.item} is not finite")
        out.table.weights.values[entry.item] = vec
    return out


def infer_new_items(
    fn: InferenceFunction,
    model: Model,
    window_lists,
    seed=0,
    context_batch_cap: int = 64,
):
    """Zero-gradient embeddings for items the base model never saw, one per
    window list, their windows encoded together.

    Windows may reference only known real items. Each list draws its cap
    subsample from a fresh ``default_rng(seed)``, so an item's vector does
    not depend on the other lists. Returns (entries, extended model): the
    new items take the next dense indices in list order, their biases start
    at 0, and the pad/[mask] rows shift up past them. The input model is
    untouched.
    """
    n = model.config.n_items
    picks = []
    for k, windows in enumerate(window_lists):
        if not windows:
            raise DataError("no context windows for the new item")
        for w in windows:
            for idx in list(w.left) + list(w.right):
                if not 0 <= idx < n:
                    raise DataError(f"context window references unknown item index {idx}")
        wins, pick = _pick(fn, windows, np.random.default_rng(seed), context_batch_cap)
        if not wins:
            raise DataError("no usable context windows")
        picks.append((n + k, wins, pick))
    vectors = _infer_picks(fn, model, picks, {})

    m = len(vectors)
    extended = clone_model(model)
    extended.config = replace(model.config, n_items=n + m)
    table = extended.table
    w = table.weights.values  # the new rows go before the pad and [mask] rows
    table.weights.values = np.concatenate([w[:n], np.reshape(vectors, (m, model.config.d)), w[n:]])
    table.item_bias.values = np.append(table.item_bias.values, np.zeros(m))
    table.pad_index, table.mask_index = n + m, n + m + 1
    return [InferredEmbedding(n + k, vec, "inferred") for k, vec in enumerate(vectors)], extended


def save_inference_function(
    path,
    fn: InferenceFunction,
    source_fingerprint: str,
    catalog_hash: str = "",
    meta: dict | None = None,
) -> None:
    """The model checkpoint container, kind ``inference_function``, tagged
    with the fingerprint of the base checkpoint the function was trained
    against."""
    config = {
        "variant": fn.variant,
        "d": fn.d,
        "max_len": fn.max_len,
        "omega1": fn.omega1,
        "omega2": fn.omega2,
        "kappa_max": fn.kappa_max,
        "agg_heads": fn.agg.n_heads,
        "n_agg_blocks": len(fn.agg.blocks),
        "frozen": fn.interpreter.frozen,
        "init_source": fn.init_source,
        "interp_blocks": len(fn.interpreter.blocks),
        "interp_heads": fn.interpreter.n_heads,
    }
    write_container(path, FUNCTION_KIND, config, named_parameters(fn), catalog_hash, meta,
                    source_fingerprint=source_fingerprint)


def _skeleton(config: dict) -> InferenceFunction:
    """An InferenceFunction of the recorded structure; the loader fills it."""
    rng = np.random.default_rng(0)
    d = config["d"]
    interpreter = init_model(ModelConfig(
        variant=config["variant"], n_items=1, d=d, n_blocks=config["interp_blocks"],
        n_heads=config["interp_heads"], max_len=config["max_len"]), rng).encoder
    interpreter.frozen = config["frozen"]
    return InferenceFunction(
        variant=config["variant"], d=d, max_len=config["max_len"],
        omega1=config["omega1"], omega2=config["omega2"], kappa_max=config["kappa_max"],
        interpreter=interpreter,
        agg=_init_aggregator(rng, d, config["n_agg_blocks"], config["agg_heads"]),
        init_source=config["init_source"],
    )


def load_inference_function(path, expected_source_fingerprint: str | None = None):
    """Load -> (fn, meta, source_fingerprint, catalog_hash). Refuses files
    whose recorded base-checkpoint fingerprint does not match the expected
    one — an inference function is only valid against the table it was
    trained to reproduce."""
    fn, doc = read_container(path, "inference function", lambda kind: kind == FUNCTION_KIND,
                             _skeleton, named_parameters, lineage=("source_fingerprint",))
    check_lineage(path, doc["source_fingerprint"], expected_source_fingerprint,
                  "trained against a different base checkpoint")
    return fn, doc["meta"], doc["source_fingerprint"], doc["catalog_hash"]
