"""Interaction logs to sequences: ingestion, leave-one-out split, popularity
partition, context-window extraction, and evaluation negative sampling.

Item and user identifiers from the input log are opaque strings; everything
downstream of :func:`build_sequences` works with dense integer indices. Real
items occupy ``[0, n_items)``; two reserved rows follow them — ``pad_index ==
n_items`` and ``mask_index == n_items + 1`` — so embedding tables can be
allocated as ``(n_items + 2, d)`` with no index translation anywhere.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = [
    "Interaction",
    "Catalog",
    "UserSequence",
    "LeaveOneOutSplit",
    "PopularityPartition",
    "ContextWindow",
    "ContextSet",
    "ingest",
    "build_sequences",
    "split_leave_one_out",
    "partition_head_tail",
    "extract_context_sets",
    "sample_negatives",
]


@dataclass(frozen=True)
class Interaction:
    user: str
    item: str
    timestamp: int


@dataclass
class Catalog:
    """Bidirectional item-id mapping plus popularity counts.

    ``train_popularity`` and ``test_popularity`` are zero until
    :func:`split_leave_one_out` fills them; ``full_popularity`` counts every
    interaction that survived filtering.
    """

    item_ids: list[str]
    index_of: dict[str, int] = field(repr=False)
    full_popularity: np.ndarray = field(repr=False)
    train_popularity: np.ndarray = field(repr=False)
    test_popularity: np.ndarray = field(repr=False)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def pad_index(self) -> int:
        return self.n_items

    @property
    def mask_index(self) -> int:
        return self.n_items + 1

    def item_of(self, index: int) -> str:
        return self.item_ids[index]


@dataclass(frozen=True)
class UserSequence:
    user: str
    items: np.ndarray  # time-ordered dense indices


@dataclass
class LeaveOneOutSplit:
    """Per-user (train prefix, validation item, test item).

    ``train[u] + [valid[u], test[u]]`` reassembles the full sequence.
    """

    users: list[str]
    train: list[np.ndarray]
    valid: np.ndarray
    test: np.ndarray

    @property
    def n_users(self) -> int:
        return len(self.users)

    def full_sequences(self) -> list[np.ndarray]:
        """Each user's whole sequence: the items ranking never offers as negatives."""
        return [np.concatenate([t, [v, s]]) for t, v, s in zip(self.train, self.valid, self.test)]


@dataclass(frozen=True)
class PopularityPartition:
    tau: float
    head_set: np.ndarray  # ascending dense indices
    tail_set: np.ndarray
    threshold_count: int  # train popularity of the most popular tail item


@dataclass(frozen=True)
class ContextWindow:
    """One occurrence of a target item with its surrounding training context.

    ``left`` holds up to ω1 indices preceding the occurrence and ``right`` up
    to ω2 following it, truncated (never padded) at sequence boundaries.
    ``user_index``/``position`` locate the occurrence in the split for
    traceability.
    """

    left: np.ndarray
    right: np.ndarray
    user_index: int
    position: int


@dataclass(frozen=True)
class ContextSet:
    item: int
    windows: tuple[ContextWindow, ...]

    @property
    def k(self) -> int:
        return len(self.windows)


def ingest(path, format: str = "csv") -> tuple[list[Interaction], int]:
    """Read an interaction log, returning (rows in file order, malformed count).

    CSV files need a ``user,item,timestamp`` header; JSONL files carry one
    object per line with the same keys. A row is malformed if a field is
    missing/empty or the timestamp is not a nonnegative integer. More than
    50% malformed rows is treated as a wrong-format file.
    """
    if format not in ("csv", "jsonl"):
        raise DataError(f"unknown log format {format!r} (expected csv or jsonl)")
    rows: list[Interaction] = []
    malformed = 0
    total = 0
    with open(path, encoding="utf-8") as fh:
        if format == "csv":
            reader = csv.DictReader(fh)
            for rec in reader:
                total += 1
                parsed = _parse_record(rec)
                if parsed is None:
                    malformed += 1
                else:
                    rows.append(parsed)
        else:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                total += 1
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    malformed += 1
                    continue
                parsed = _parse_record(rec if isinstance(rec, dict) else None)
                if parsed is None:
                    malformed += 1
                else:
                    rows.append(parsed)
    if total > 0 and malformed * 2 > total:
        raise DataError(
            f"{path}: {malformed} of {total} rows malformed; wrong format or corrupt file"
        )
    return rows, malformed


def _parse_record(rec) -> Interaction | None:
    if not rec:
        return None
    user = rec.get("user")
    item = rec.get("item")
    ts = rec.get("timestamp")
    if user is None or item is None or ts is None:
        return None
    user, item = str(user).strip(), str(item).strip()
    if not user or not item:
        return None
    try:
        ts = int(ts)
    except (TypeError, ValueError):
        return None
    if ts < 0:
        return None
    return Interaction(user, item, ts)


def build_sequences(
    interactions: list[Interaction], min_actions: int = 5
) -> tuple[Catalog, list[UserSequence]]:
    """Group interactions into per-user, timestamp-ascending item sequences.

    Users with fewer than ``min_actions`` interactions are dropped; the
    catalog covers only items appearing in surviving sequences, indexed in
    order of first appearance. Timestamp ties keep input order (stable sort).
    """
    by_user: dict[str, list[Interaction]] = {}
    for it in interactions:
        by_user.setdefault(it.user, []).append(it)

    survivors = {u: its for u, its in by_user.items() if len(its) >= min_actions}
    if not survivors:
        raise DataError(
            f"no users with at least {min_actions} interactions; dataset is empty after filtering"
        )

    index_of: dict[str, int] = {}
    item_ids: list[str] = []
    for it in interactions:
        if it.user in survivors and it.item not in index_of:
            index_of[it.item] = len(item_ids)
            item_ids.append(it.item)

    sequences = []
    full_pop = np.zeros(len(item_ids), dtype=np.int64)
    for user, its in survivors.items():  # dict preserves first-appearance order
        ordered = sorted(its, key=lambda x: x.timestamp)  # stable
        idx = np.array([index_of[x.item] for x in ordered], dtype=np.int64)
        np.add.at(full_pop, idx, 1)
        sequences.append(UserSequence(user=user, items=idx))

    catalog = Catalog(
        item_ids=item_ids,
        index_of=index_of,
        full_popularity=full_pop,
        train_popularity=np.zeros(len(item_ids), dtype=np.int64),
        test_popularity=np.zeros(len(item_ids), dtype=np.int64),
    )
    return catalog, sequences


def split_leave_one_out(catalog: Catalog, sequences: list[UserSequence]) -> LeaveOneOutSplit:
    """Hold out each user's last item as test, second-to-last as validation.

    Also recomputes ``catalog.train_popularity`` from the train prefixes and
    ``catalog.test_popularity`` from the held-out test items.
    """
    users, train, valid, test = [], [], [], []
    train_pop = np.zeros(catalog.n_items, dtype=np.int64)
    test_pop = np.zeros(catalog.n_items, dtype=np.int64)
    for seq in sequences:
        n = len(seq.items)
        if n < 3:
            raise DataError(f"user {seq.user!r} has only {n} interactions; need at least 3 to split")
        users.append(seq.user)
        prefix = seq.items[:-2].copy()
        train.append(prefix)
        valid.append(int(seq.items[-2]))
        test.append(int(seq.items[-1]))
        np.add.at(train_pop, prefix, 1)
        test_pop[seq.items[-1]] += 1
    catalog.train_popularity = train_pop
    catalog.test_popularity = test_pop
    return LeaveOneOutSplit(
        users=users,
        train=train,
        valid=np.array(valid, dtype=np.int64),
        test=np.array(test, dtype=np.int64),
    )


def partition_head_tail(catalog: Catalog, tau: float) -> PopularityPartition:
    """Split the catalog at the popularity cut: bottom ``ceil(tau * n)`` items
    by train popularity form the tail. Ties break by ascending dense index,
    so the partition is deterministic and seed-free.
    """
    if not 0.0 < tau < 1.0:
        raise DataError(f"tau must lie strictly between 0 and 1, got {tau}")
    n = catalog.n_items
    pop = catalog.train_popularity
    order = np.lexsort((np.arange(n), -pop))  # popularity desc, index asc on ties
    n_tail = int(np.ceil(tau * n))
    tail = order[n - n_tail :]
    head = order[: n - n_tail]
    return PopularityPartition(
        tau=tau,
        head_set=np.sort(head),
        tail_set=np.sort(tail),
        threshold_count=int(pop[tail[0]]) if n_tail else 0,
    )


def extract_context_sets(
    split: LeaveOneOutSplit, items, omega1: int, omega2: int
) -> dict[int, ContextSet]:
    """Collect every training-sequence occurrence of each requested item.

    One window per occurrence; an item repeating within one sequence yields
    one window per repeat. Items never seen in training map to an empty
    ContextSet (K = 0). The occurrences are found with one mask over the
    concatenated sequences, and every window is a read-only view of that
    one copy.
    """
    if omega1 < 0 or omega2 < 0:
        raise DataError(f"window sizes must be nonnegative, got {omega1}, {omega2}")
    wanted = set(int(i) for i in items)
    found: dict[int, list[ContextWindow]] = {i: [] for i in wanted}
    flat = np.concatenate(split.train) if split.train else np.zeros(0, dtype=np.int64)
    flat.flags.writeable = False
    lengths = np.array([len(seq) for seq in split.train], dtype=np.int64)
    ends = np.cumsum(lengths)
    hit = np.zeros(int(flat.max(initial=-1)) + 1, dtype=bool)
    hit[[i for i in wanted if 0 <= i < hit.size]] = True
    at = np.flatnonzero(hit[flat])  # flat positions of the occurrences
    user = np.searchsorted(ends, at, side="right")
    start = (ends - lengths)[user]
    lo, hi = np.maximum(start, at - omega1), np.minimum(ends[user], at + 1 + omega2)
    for item, p, u, s, a, z in zip(*(v.tolist() for v in (flat[at], at, user, start, lo, hi))):
        found[item].append(ContextWindow(flat[a:p], flat[p + 1:z], u, p - s))
    return {i: ContextSet(item=i, windows=tuple(ws)) for i, ws in found.items()}


def sample_negatives(
    user_items: np.ndarray,
    catalog: Catalog,
    n: int,
    rng: np.random.Generator,
    source: str = "full",
) -> np.ndarray:
    """Draw ``n`` distinct non-interacted items, popularity-proportional,
    without replacement.

    ``source`` picks the popularity measure: "full" (whole log; every real
    item has a nonzero count) or "test" (held-out test items only). Zero-count
    items are undrawable under proportional weights, so if fewer than ``n``
    eligible items have positive weight the weights are Laplace-smoothed by 1.
    The loop is ``Generator.choice(eligible, n, replace=False, p=w / w.sum(),
    shuffle=False)`` written out; it ends as at least ``n`` weights are > 0.
    """
    if source == "full":
        pop = catalog.full_popularity
    elif source == "test":
        pop = catalog.test_popularity
    else:
        raise DataError(f"unknown popularity source {source!r}")
    user_items = np.asarray(user_items, dtype=np.int64)
    if user_items.size and not (user_items.min() >= 0 and user_items.max() < catalog.n_items):
        raise DataError(f"user item index outside the catalog [0, {catalog.n_items})")
    keep = np.ones(catalog.n_items, dtype=bool)
    keep[user_items] = False
    eligible = keep.nonzero()[0]
    if len(eligible) < n:
        raise DataError(f"need {n} negatives but only {len(eligible)} eligible items exist")
    w = pop[eligible].astype(np.float64)
    if np.count_nonzero(w) < n:
        w = w + 1.0
    p, found = w / w.sum(), np.empty(0, dtype=np.int64)
    while len(found) < n:
        cdf = p.cumsum()  # array methods: the np.* wrappers cost more than the work here
        new = (cdf / cdf[-1]).searchsorted(rng.random(n - len(found)), side="right")
        order = new.argsort(kind="stable")  # each item's first draw leads its run
        first = order[np.concatenate(([True], new[order[1:]] != new[order[:-1]]))]
        first.sort()  # the first draws, in draw order
        new = new[first]
        p[new] = 0.0
        found = np.concatenate([found, new])
    return eligible[found]
