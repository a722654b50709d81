"""Leave-one-out ranking evaluation and classical baselines.

Every test case ranks the ground-truth item against sampled negatives
(101 candidates total by default). Score ties break toward the lower item
index — deterministic, and conservative in that it can only push the truth
down, never up. Metrics are reported per ground-truth group (head / tail /
all) plus the slice of head-truth cases whose input sequence contains at
least one tail item.
"""

from __future__ import annotations

import numpy as np

from .data import Catalog, LeaveOneOutSplit, PopularityPartition, sample_negatives
from .errors import DataError
from .model import Model, pad_batch, ranking_states, score_candidates

__all__ = [
    "rank_of_truth",
    "rank_cases",
    "build_test_candidates",
    "evaluate",
    "ModelRanker",
    "PopRanker",
    "SPopRanker",
    "FomcRanker",
    "RerankByPopularity",
    "transition_counts",
    "make_baseline",
]


def _ranks(scores: np.ndarray, candidates: np.ndarray, truth_column: int) -> np.ndarray:
    """(B,) 1-based ranks of one column of each (B, C) row: 1 + the
    candidates that score strictly higher + those tied at a lower item index
    (+ the same item tied at an earlier column). That is the truth's position
    in a stable descending-score, ascending-index sort of finite scores."""
    scores = np.asarray(scores, dtype=np.float64)
    ts = scores[:, truth_column, None]
    tc = candidates[:, truth_column, None]
    earlier = np.arange(scores.shape[1]) < truth_column
    ahead = (scores > ts) | ((scores == ts) & ((candidates < tc) | ((candidates == tc) & earlier)))
    return ahead.sum(axis=1) + 1


def rank_of_truth(scores: np.ndarray, candidates: np.ndarray, truth_column: int = 0) -> int:
    """1-based rank of the truth candidate under descending score, ties by
    ascending item index."""
    return int(_ranks(np.asarray(scores)[None], np.asarray(candidates)[None], truth_column)[0])


def rank_cases(ranker, histories: list, candidates: np.ndarray, batch_size: int) -> np.ndarray:
    """1-based rank of column 0 of every candidate row, scoring and ranking
    ``batch_size`` cases per ``ranker.score_batch`` call."""
    ranks = np.empty(len(histories), dtype=np.int64)
    for lo in range(0, len(histories), batch_size):
        hi = min(lo + batch_size, len(histories))
        scores = ranker.score_batch(histories[lo:hi], candidates[lo:hi])
        ranks[lo:hi] = _ranks(scores, candidates[lo:hi], 0)
    return ranks


class ModelRanker:
    """Scores candidate lists with a trained model (inference mode)."""

    def __init__(self, model: Model):
        self.model = model

    def score_batch(self, histories: list[np.ndarray], candidates: np.ndarray) -> np.ndarray:
        return score_candidates(ranking_states(self.model, histories), self.model.table, candidates)


class PopRanker:
    """Global training popularity, identical for every user."""

    def __init__(self, catalog: Catalog):
        self.popularity = catalog.train_popularity.astype(np.float64)

    def score_batch(self, histories, candidates):
        return self.popularity[candidates]


class SPopRanker:
    """In-sequence popularity first, global POP as tiebreak.

    Scalarized as seq_count * (max_global + 1) + global so one descending
    sort realizes the two-key order.
    """

    def __init__(self, catalog: Catalog):
        self.popularity = catalog.train_popularity.astype(np.float64)
        self.scale = float(self.popularity.max()) + 1.0

    def score_batch(self, histories, candidates):
        held = pad_batch(histories, max(map(len, histories)), -1)  # -1 matches no item
        counts = (held[:, None, :] == candidates[:, :, None]).sum(axis=2)
        return counts * self.scale + self.popularity[candidates]


def transition_counts(split: LeaveOneOutSplit, n_items: int) -> np.ndarray:
    """First-order bigram counts over consecutive pairs of the train prefixes."""
    counts = np.zeros((n_items, n_items), dtype=np.int64)
    for seq in split.train:
        if len(seq) > 1:
            np.add.at(counts, (seq[:-1], seq[1:]), 1)
    return counts


class FomcRanker:
    """First-order Markov chain: rank by count(last -> j), POP tiebreak; a last
    item with no observed outgoing transition falls back to POP entirely."""

    def __init__(self, catalog: Catalog, split: LeaveOneOutSplit):
        self.popularity = catalog.train_popularity.astype(np.float64)
        self.scale = float(self.popularity.max()) + 1.0
        self.transitions = transition_counts(split, catalog.n_items)

    def score_batch(self, histories, candidates):
        # no outgoing transition: all counts are 0, so the row is exactly POP
        last = np.array([h[-1] for h in histories], dtype=np.int64)
        counts = self.transitions[last[:, None], candidates].astype(np.float64)
        return counts * self.scale + self.popularity[candidates]


class RerankByPopularity:
    """Wrap a base ranker: its top-5k candidates are reordered by ascending
    popularity; everything below keeps the base order. Scores are replaced by
    descending position so downstream ranking reproduces the final list."""

    def __init__(self, base, catalog: Catalog, k: int = 10):
        self.base = base
        self.popularity = catalog.train_popularity.astype(np.float64)
        self.k = k

    def score_batch(self, histories, candidates):
        base_scores = self.base.score_batch(histories, candidates)
        order = np.lexsort((candidates, -base_scores))  # each row's base ranking
        window = order[:, : 5 * self.k]
        pop = self.popularity[np.take_along_axis(candidates, window, axis=1)]
        window[:] = np.take_along_axis(window, np.argsort(pop, axis=1, kind="stable"), axis=1)
        out = np.empty(candidates.shape, dtype=np.float64)
        np.put_along_axis(out, order, np.arange(candidates.shape[1], 0, -1, dtype=np.float64)[None], 1)
        return out


def make_baseline(name: str, catalog: Catalog, split: LeaveOneOutSplit, base=None, k: int = 10):
    if name == "pop":
        return PopRanker(catalog)
    if name == "spop":
        return SPopRanker(catalog)
    if name == "fomc":
        return FomcRanker(catalog, split)
    if name == "rerank":
        if base is None:
            raise DataError("rerank baseline needs a base ranker")
        return RerankByPopularity(base, catalog, k=k)
    raise DataError(f"unknown baseline {name!r}")


def _group_metrics(ranks: np.ndarray) -> dict:
    """HR@5, HR@10 and MRR of 1-based ranks, plus their count; zeros if none."""
    if len(ranks) == 0:
        return {"hr5": 0.0, "hr10": 0.0, "mrr": 0.0, "support": 0}
    return {
        "hr5": float((ranks <= 5).mean()),
        "hr10": float((ranks <= 10).mean()),
        "mrr": float((1.0 / ranks).mean()),
        "support": int(len(ranks)),
    }


def build_test_candidates(
    truths,
    excluded,
    catalog: Catalog,
    n_negatives: int,
    rng: np.random.Generator,
    negative_source: str = "full",
) -> np.ndarray:
    """(len(truths), 1 + n_negatives) candidate rows: ``truths[i]`` in column
    0, then ``sample_negatives`` of the items outside ``excluded[i]``, drawn
    from ``rng`` row by row.

    The only place candidates are drawn: validation, the paired test
    evaluation and new-item ranking all build their rows here, and a command
    builds its matrix once, so every ranker it compares meets the same
    negatives.
    """
    candidates = np.empty((len(truths), 1 + n_negatives), dtype=np.int64)
    candidates[:, 0] = truths
    for i, items in enumerate(excluded):
        candidates[i, 1:] = sample_negatives(items, catalog, n_negatives, rng, source=negative_source)
    return candidates


def evaluate(
    ranker,
    split: LeaveOneOutSplit,
    partition: PopularityPartition,
    catalog: Catalog,
    candidates: np.ndarray,
    max_len: int = 50,
    batch_size: int = 256,
) -> dict:
    """Run the leave-one-out protocol and return the grouped metrics report.

    ``candidates`` is the (n_users, 1 + n_negatives) matrix
    ``build_test_candidates`` draws with truth ``split.test``, truth in column
    0. The input for each user is everything before the test item (train
    prefix plus validation item), capped to the last ``max_len`` entries; the
    head-with-tail slice is taken over that capped history. A model ranker
    (``model.ranking_states``) reads all of it for the GRU, while the
    transformer keeps the last ``max_len - 1`` items and reads its state at a
    [mask] placed directly after them.
    """
    tail_mask = np.zeros(catalog.n_items, dtype=bool)
    tail_mask[partition.tail_set] = True

    # every user's train prefix and validation item, each cut to its last max_len
    lengths = np.fromiter(map(len, split.train), np.int64, split.n_users) + 1
    flat = np.insert(np.concatenate(split.train), np.cumsum(lengths - 1), split.valid)
    flat = flat[np.repeat(np.cumsum(lengths), lengths) - np.arange(len(flat)) <= max_len]
    starts = [0, *np.cumsum(np.minimum(lengths, max_len))[:-1].tolist()]
    histories = np.split(flat, starts[1:])
    ranks = rank_cases(ranker, histories, candidates, batch_size)

    truth_is_tail = tail_mask[split.test]
    has_tail_input = np.logical_or.reduceat(tail_mask[flat], starts)
    head_slice = _group_metrics(ranks[~truth_is_tail & has_tail_input])
    return {
        "all": _group_metrics(ranks),
        "head": _group_metrics(ranks[~truth_is_tail]),
        "tail": _group_metrics(ranks[truth_is_tail]),
        "head_with_tail_in_sequence": {"hr10": head_slice["hr10"], "support": head_slice["support"]},
    }
