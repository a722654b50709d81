"""Phase 1: train the recommender end-to-end on the leave-one-out train split.

The attention variant learns a cloze objective — random sequence positions
are replaced by [mask] and predicted from bidirectional context. The GRU
variant learns classic next-item prediction over every prefix. Both share
the full-softmax negative log-likelihood and Adam with linear warmup, and
both report validation HR/MRR per epoch; the checkpoint with the best
validation MRR (earliest epoch on ties) is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import Catalog, LeaveOneOutSplit, sample_negatives
from .errors import ConfigError, TrainingError
from .evaluate import ModelRanker, _group_metrics, rank_cases
from .model import (
    Model,
    ModelConfig,
    clone_model,
    encode,
    head_states,
    init_model,
    named_parameters,
    score,
    states_at,
)
from .optim import AdamState, adam_step
from .tensor import Tape, Tensor

__all__ = [
    "PretrainConfig",
    "make_masked_examples",
    "make_next_item_examples",
    "nll_loss",
    "pretrain",
    "validate",
]


@dataclass(frozen=True)
class PretrainConfig:
    variant: str
    max_len: int = 50
    d: int = 64
    n_blocks: int = 2
    n_heads: int = 2
    dropout_rate: float = 0.1
    mask_probability: float = 0.2
    learning_rate: float = 0.001
    warmup_steps: int = 100
    l2_coefficient: float = 0.0001
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0
    n_negatives: int = 100

    def __post_init__(self):
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if not 0.0 < self.mask_probability < 1.0:
            raise ConfigError(
                f"mask_probability must be in (0, 1), got {self.mask_probability}"
            )
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")

    def model_config(self, n_items: int) -> ModelConfig:
        return ModelConfig(
            variant=self.variant,
            n_items=n_items,
            d=self.d,
            n_blocks=self.n_blocks,
            n_heads=self.n_heads,
            max_len=self.max_len,
            dropout_rate=self.dropout_rate,
        )


def _windows(items: np.ndarray, max_len: int) -> list[np.ndarray]:
    """Non-overlapping windows of up to max_len items, aligned to the end."""
    out = []
    hi = len(items)
    while hi > 0:
        lo = max(0, hi - max_len)
        out.append(items[lo:hi])
        hi = lo
    return out


def make_masked_examples(
    split: LeaveOneOutSplit,
    config: PretrainConfig,
    rng: np.random.Generator,
    pad_index: int,
    mask_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Cloze examples for one epoch: (inputs (N, max_len), targets (N, max_len)).

    Each non-pad position is independently masked with probability
    mask_probability (resampled until at least one mask lands). Targets hold
    the original item at masked slots and -1 elsewhere.
    """
    inputs, targets = [], []
    ml = config.max_len
    for items in split.train:
        for window in _windows(items, ml):
            n = len(window)
            masked = rng.random(n) < config.mask_probability
            while not masked.any():
                masked = rng.random(n) < config.mask_probability
            row = np.full(ml, pad_index, dtype=np.int64)
            tgt = np.full(ml, -1, dtype=np.int64)
            row[ml - n :] = np.where(masked, mask_index, window)
            tgt[ml - n :] = np.where(masked, window, -1)
            inputs.append(row)
            targets.append(tgt)
    if not inputs:
        raise TrainingError("no training windows: every train prefix is empty")
    return np.stack(inputs), np.stack(targets)


def make_next_item_examples(
    split: LeaveOneOutSplit, config: PretrainConfig, pad_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Next-item examples: every position t >= 1 of each train prefix yields
    (last max_len items before t) -> item at t. Returns (inputs, truths)."""
    inputs, truths = [], []
    ml = config.max_len
    for items in split.train:
        for t in range(1, len(items)):
            prefix = items[max(0, t - ml) : t]
            row = np.full(ml, pad_index, dtype=np.int64)
            row[ml - len(prefix) :] = prefix
            inputs.append(row)
            truths.append(int(items[t]))
    if not inputs:
        raise TrainingError("no training examples: every train prefix has length < 2")
    return np.stack(inputs), np.array(truths, dtype=np.int64)


def nll_loss(scores: Tensor, truth) -> Tensor:
    """Mean full-softmax negative log-likelihood: mean(logsumexp(r) - r[truth])."""
    truth = np.atleast_1d(np.asarray(truth, dtype=np.int64))
    b, n = scores.shape
    lse = T.logsumexp(scores, axis=-1)
    flat = T.reshape(scores, (b * n, 1))
    picked = T.reshape(T.take_rows(flat, np.arange(b) * n + truth), (b,))
    return T.mean_(T.sub(lse, picked))


def _masked_positions_loss(model: Model, inputs, targets, rng) -> Tensor:
    """Forward a masked batch and average NLL over every masked slot."""
    h = encode(model, inputs, training=True, rng=rng)
    ex, pos = np.nonzero(targets >= 0)
    m = head_states(model.encoder, states_at(h, ex, pos))
    return nll_loss(score(m, model.table), targets[ex, pos])


def _next_item_loss(model: Model, inputs, truths, rng) -> Tensor:
    m = encode(model, inputs, training=True, rng=rng)
    return nll_loss(score(m, model.table), truths)


def validate(
    model: Model,
    split: LeaveOneOutSplit,
    candidates: np.ndarray,
    batch_size: int = 256,
) -> dict:
    """Rank the validation item among fixed candidates; truth sits at column 0.

    Each user's train prefix is ranked by ``evaluate.ModelRanker`` through
    the batch loop ``evaluate.evaluate`` uses, so validation reads the state
    evaluation ranks with: the GRU reads the last ``max_len`` items, the
    transformer keeps the last ``max_len - 1`` and reads the [mask] placed
    directly after them. Ties break toward lower item index, which can only
    hurt the truth item. Returns {"hr5", "hr10", "mrr"}.
    """
    ranks = rank_cases(ModelRanker(model), list(split.train), candidates, batch_size)
    metrics = _group_metrics(ranks)
    del metrics["support"]
    return metrics


def build_validation_candidates(
    split: LeaveOneOutSplit, catalog: Catalog, n_negatives: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_users, 1 + n_negatives): validation truth first, then fixed negatives."""
    out = np.empty((split.n_users, 1 + n_negatives), dtype=np.int64)
    for u in range(split.n_users):
        out[u, 0] = split.valid[u]
        out[u, 1:] = sample_negatives(split.full_sequence(u), catalog, n_negatives, rng)
    return out


def pretrain(
    split: LeaveOneOutSplit,
    catalog: Catalog,
    config: PretrainConfig,
    initial_model: Model | None = None,
    epoch_offset: int = 0,
) -> tuple[Model, list[dict]]:
    """Run phase-1 training; returns (best model by validation MRR, history).

    History rows: {"epoch", "train_loss", "val_hr5", "val_hr10", "val_mrr"}.
    Zero epochs returns the freshly initialized model untouched.

    ``initial_model``/``epoch_offset`` continue from a checkpoint: random
    streams are re-derived from the offset so any two resumes from the same
    checkpoint replay identically (a resumed run is deterministic, but not
    bitwise equal to one uninterrupted run — the streams differ).
    """
    stream = lambda k: ([config.seed, k, epoch_offset] if epoch_offset else [config.seed, k])
    init_rng = np.random.default_rng(stream(0))
    example_rng = np.random.default_rng(stream(1))
    dropout_rng = np.random.default_rng(stream(2))
    negative_rng = np.random.default_rng(stream(3))

    if initial_model is None:
        model = init_model(config.model_config(catalog.n_items), init_rng)
    else:
        model = clone_model(initial_model)
    if config.epochs == 0:
        return model, []

    candidates = build_validation_candidates(split, catalog, config.n_negatives, negative_rng)
    opt = AdamState(
        peak_lr=config.learning_rate,
        warmup_steps=config.warmup_steps,
        l2_coefficient=config.l2_coefficient,
    )
    params = named_parameters(model)
    tensors = [t for _, t in params]
    pad, mask = catalog.n_items, catalog.n_items + 1

    static_examples = None
    if config.variant == "gru":
        static_examples = make_next_item_examples(split, config, pad)

    history: list[dict] = []
    best_mrr, best_model = -1.0, None
    for epoch in range(epoch_offset, epoch_offset + config.epochs):
        if config.variant == "transformer":
            inputs, targets = make_masked_examples(split, config, example_rng, pad, mask)
        else:
            inputs, targets = static_examples
        order = example_rng.permutation(len(inputs))
        losses = []
        for step, lo in enumerate(range(0, len(order), config.batch_size)):
            sel = order[lo : lo + config.batch_size]
            T.reset_grads(tensors)
            with Tape() as tape:
                if config.variant == "transformer":
                    loss = _masked_positions_loss(model, inputs[sel], targets[sel], dropout_rng)
                else:
                    loss = _next_item_loss(model, inputs[sel], targets[sel], dropout_rng)
            value = loss.item()
            if not np.isfinite(value):
                raise TrainingError(f"loss diverged (epoch {epoch}, step {step}): {value}")
            tape.backward(loss)
            w = model.table.weights
            if w.grad is not None:
                w.grad[model.table.pad_index] = 0.0
                if config.variant == "gru":
                    w.grad[model.table.mask_index] = 0.0
            try:
                adam_step(opt, tensors)
            except FloatingPointError as exc:
                raise TrainingError(f"training diverged (epoch {epoch}, step {step}): {exc}") from exc
            losses.append(value)
        metrics = validate(model, split, candidates)
        history.append(
            {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "val_hr5": metrics["hr5"],
                "val_hr10": metrics["hr10"],
                "val_mrr": metrics["mrr"],
            }
        )
        if metrics["mrr"] > best_mrr:
            best_mrr = metrics["mrr"]
            best_model = clone_model(model)
    return best_model, history
