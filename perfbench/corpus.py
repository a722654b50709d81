"""Seeded synthetic interaction logs for the benchmark workloads.

The generator is the benchmark's own, so a change to the program cannot
change what the program is fed. Popularity is Zipf-skewed and every item has
a fixed successor, so sequences carry learnable next-item signal on top of a
long popularity tail. The program only ever sees the files written here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Corpus:
    """Per-user item-id sequences in log order, plus withheld new items."""

    users: list[str]
    sequences: list[list[str]]
    item_ids: list[str]  # dense index order: first appearance in the log
    new_item_payload: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return sum(len(s) for s in self.sequences)


def generate(
    seed: int,
    n_users: int,
    n_items: int,
    min_len: int,
    max_len: int,
    n_new: int = 0,
    omega1: int = 19,
    omega2: int = 0,
    min_actions: int = 5,
    zipf_s: float = 1.2,
    transition_prob: float = 0.75,
) -> Corpus:
    """Draw a corpus from ``seed``; the same arguments give the same corpus.

    ``n_new`` mid-popularity items are withheld from the log. Their earlier
    occurrences become inference windows and their later ones become test
    cases, both written as item ids in the payload ``new-item`` reads. Users
    left with fewer than ``min_actions`` rows are dropped here, so the log
    holds exactly the users the program keeps.
    """
    rng = np.random.default_rng([seed, 1729])
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks**-zipf_s
    weights /= weights.sum()
    successor = rng.permutation(n_items)
    lengths = rng.integers(min_len, max_len + 1, size=n_users)
    first = rng.choice(n_items, size=n_users, p=weights)
    fresh = rng.choice(n_items, size=int(lengths.sum()), p=weights)
    follow = rng.random(len(fresh)) < transition_prob

    width = len(str(n_items - 1))
    names = [f"i{i:0{width}d}" for i in range(n_items)]
    raw: list[list[str]] = []
    k = 0
    for u, length in enumerate(lengths):
        item = int(first[u])
        seq = []
        for _ in range(int(length)):
            seq.append(names[item])
            item = int(successor[item]) if follow[k] else int(fresh[k])
            k += 1
        raw.append(seq)

    payload: dict = {}
    kept = raw
    if n_new:
        withheld = _pick_withheld(raw, n_new, rng)
        dropped = set(withheld)
        kept = [[x for x in seq if x not in dropped] for seq in raw]

    uwidth = len(str(n_users - 1))
    survivors = [u for u, seq in enumerate(kept) if len(seq) >= min_actions]
    if n_new:
        payload = _new_item_payload([raw[u] for u in survivors], withheld, omega1, omega2)
    sequences = [kept[u] for u in survivors]
    seen: dict[str, None] = {}
    for seq in sequences:
        for item in seq:
            seen.setdefault(item, None)
    return Corpus(users=[f"u{u:0{uwidth}d}" for u in survivors], sequences=sequences,
                  item_ids=list(seen), new_item_payload=payload)


def _pick_withheld(raw, n_new, rng) -> list[str]:
    """Mid-popularity items: frequent enough to have contexts, rare enough
    that removing them leaves the corpus intact."""
    counts: dict[str, int] = {}
    for seq in raw:
        for item in seq:
            counts[item] = counts.get(item, 0) + 1
    ranked = sorted(counts, key=lambda i: (-counts[i], i))
    middle = [i for i in ranked[len(ranked) // 5: len(ranked) // 2] if counts[i] >= 6]
    if len(middle) < n_new:
        raise ValueError(f"only {len(middle)} mid-popularity items to withhold, need {n_new}")
    return sorted(middle[j] for j in rng.choice(len(middle), size=n_new, replace=False))


def _new_item_payload(raw, withheld, omega1, omega2) -> dict:
    """Windows and test histories for each withheld item, over kept items only.

    The earlier half of an item's occurrences (in log order) become inference
    windows, the later half test cases with at least two history items.
    """
    dropped = set(withheld)
    items = []
    for target in withheld:
        occurrences = []
        for seq in raw:
            kept = [x for x in seq if x not in dropped]
            pos = 0  # number of kept items before the current one
            for x in seq:
                if x == target:
                    left = kept[max(0, pos - omega1): pos]
                    right = kept[pos: pos + omega2]
                    if left or right:
                        occurrences.append(({"left": left, "right": right}, kept[:pos]))
                elif x not in dropped:
                    pos += 1
        half = max(1, (len(occurrences) + 1) // 2)
        windows = [w for w, _ in occurrences[:half]]
        if not windows:
            raise ValueError(f"withheld item {target} has no context windows")
        items.append({
            "item": target,
            "windows": windows,
            "test_cases": [{"history": h} for _, h in occurrences[half:] if len(h) >= 2],
        })
    return {"omega1": omega1, "omega2": omega2, "items": items}


def write_inputs(corpus: Corpus, log_path: str, payload_path: str | None) -> None:
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.write("user,item,timestamp\n")
        for user, seq in zip(corpus.users, corpus.sequences):
            for t, item in enumerate(seq):
                fh.write(f"{user},{item},{t}\n")
    if payload_path:
        with open(payload_path, "w", encoding="utf-8") as fh:
            json.dump(corpus.new_item_payload, fh)


def partition(corpus: Corpus, tau: float) -> tuple[set[str], set[str]]:
    """(head ids, tail ids): the bottom ceil(tau * n) items by train-prefix
    popularity are tail, ties broken by dense index, as the paper's split."""
    index = {item: k for k, item in enumerate(corpus.item_ids)}
    pop = np.zeros(len(index), dtype=np.int64)
    for seq in corpus.sequences:
        for item in seq[:-2]:
            pop[index[item]] += 1
    n = len(index)
    order = np.lexsort((np.arange(n), -pop))
    n_tail = math.ceil(tau * n)
    ids = corpus.item_ids
    return ({ids[i] for i in order[: n - n_tail]}, {ids[i] for i in order[n - n_tail:]})


def facts(corpus: Corpus, variant: str, max_len: int, tau: float) -> dict:
    """The work units behind each throughput metric, counted from the corpus.

    Training examples per epoch: one per next-item prefix for the recurrent
    variant, one per non-overlapping ``max_len`` window for the cloze
    variant. A head item is a usable inference target when some train-prefix
    occurrence has context the variant reads: left context for the recurrent
    variant, either side for the cloze variant.
    """
    head, tail = partition(corpus, tau)
    prefixes = [seq[:-2] for seq in corpus.sequences]
    if variant == "gru":
        examples = sum(max(0, len(p) - 1) for p in prefixes)
    else:
        examples = sum(math.ceil(len(p) / max_len) for p in prefixes)
    usable = set()
    for p in prefixes:
        for pos, item in enumerate(p):
            if item in head and (pos > 0 or (variant != "gru" and pos < len(p) - 1)):
                usable.add(item)
    new_cases = sum(len(e["test_cases"]) for e in corpus.new_item_payload.get("items", []))
    return {
        "rows": corpus.n_rows,
        "users": len(corpus.users),
        "items": len(corpus.item_ids),
        "head_items": len(head),
        "tail_items": len(tail),
        "usable_head_targets": len(usable),
        "train_examples_per_epoch": examples,
        "new_items": len(corpus.new_item_payload.get("items", [])),
        "new_item_cases": new_cases,
    }
