"""Reproduction measurements of a trained inference function, used by the
repair and acceptance tests to judge how close inferred rows come to the
base model's own."""

from __future__ import annotations

import numpy as np

from tailrec.data import ContextSet
from tailrec.errors import DataError
from tailrec.model import Model
from tailrec.repair import InferenceFunction, _usable, infer_one


def reproduction_stats(
    fn: InferenceFunction,
    model: Model,
    context_sets: list[ContextSet],
    kappa: int | None = None,
    rng: np.random.Generator | None = None,
    context_batch_cap: int = 64,
) -> dict:
    """Eval-mode reproduction quality against the base model's rows.

    kappa=None uses every usable window (up to the cap); an integer samples
    that many per item, which is how the few-shot robustness of a trained
    function is probed. Items without usable windows are ignored.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    sq, cos = [], []
    for cs in context_sets:
        wins = [w for w in cs.windows if _usable(fn, w)]
        if not wins:
            continue
        if kappa is not None and len(wins) > kappa:
            pick = rng.choice(len(wins), size=kappa, replace=False)
            wins = [wins[i] for i in np.sort(pick)]
        vec = infer_one(fn, model, wins, rng=rng, context_batch_cap=context_batch_cap)
        target = model.table.weights.values[cs.item]
        sq.append(float(np.sum((vec - target) ** 2)))
        denom = np.linalg.norm(vec) * np.linalg.norm(target)
        cos.append(float(np.dot(vec, target) / denom) if denom > 0 else 0.0)
    if not sq:
        raise DataError("no items with usable context windows to evaluate")
    return {
        "n_items": len(sq),
        "mean_sq_distance": float(np.mean(sq)),
        "mean_cosine": float(np.mean(cos)),
    }


def nearest_head_distance(weights: np.ndarray, partition) -> float:
    """Mean Euclidean distance from each tail row to its closest head row."""
    head = weights[np.asarray(partition.head_set)]
    tail = weights[np.asarray(partition.tail_set)]
    # (T, H) pairwise distances; corpora here are small enough to do it flat
    d2 = np.sum(tail**2, axis=1)[:, None] - 2 * tail @ head.T + np.sum(head**2, axis=1)[None, :]
    return float(np.mean(np.sqrt(np.maximum(d2, 0.0)).min(axis=1)))
