"""Ingestion, splitting, partitioning, context windows, negative sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrec.data import (
    Catalog,
    Interaction,
    build_sequences,
    extract_context_sets,
    ingest,
    partition_head_tail,
    sample_negatives,
    split_leave_one_out,
)
from tailrec.errors import DataError
from tailrec.synthetic import synthetic_interactions


def make_catalog(full_pop, train_pop=None, test_pop=None):
    n = len(full_pop)
    ids = [f"i{j}" for j in range(n)]
    return Catalog(
        item_ids=ids,
        index_of={x: j for j, x in enumerate(ids)},
        full_popularity=np.asarray(full_pop, dtype=np.int64),
        train_popularity=np.asarray(train_pop if train_pop is not None else full_pop, dtype=np.int64),
        test_popularity=np.asarray(test_pop if test_pop is not None else np.zeros(n), dtype=np.int64),
    )


# ---------------------------------------------------------------- ingest


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("user,item,timestamp\n")
    rows, malformed = ingest(p, "csv")
    assert rows == [] and malformed == 0


def test_ingest_three_valid_csv_rows(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("user,item,timestamp\nu1,a,3\nu1,b,1\nu2,a,2\n")
    rows, malformed = ingest(p, "csv")
    assert malformed == 0
    assert rows == [
        Interaction("u1", "a", 3),
        Interaction("u1", "b", 1),
        Interaction("u2", "a", 2),
    ]


def test_ingest_counts_malformed(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("user,item,timestamp\nu1,a,1\nu1,,2\nu1,b,3\nu1,c,4\n")
    rows, malformed = ingest(p, "csv")
    assert len(rows) == 3 and malformed == 1


def test_ingest_jsonl(tmp_path):
    p = tmp_path / "log.jsonl"
    p.write_text('{"user":"u","item":"a","timestamp":1}\nnot json\n{"user":"u","item":"b","timestamp":"2"}\n')
    rows, malformed = ingest(p, "jsonl")
    assert [r.item for r in rows] == ["a", "b"] and malformed == 1


def test_ingest_negative_timestamp_is_malformed(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("user,item,timestamp\nu1,a,-5\nu1,b,1\nu1,c,2\n")
    rows, malformed = ingest(p, "csv")
    assert len(rows) == 2 and malformed == 1


def test_ingest_mostly_malformed_rejected(tmp_path):
    p = tmp_path / "log.csv"
    p.write_text("user,item,timestamp\nu1,a,x\nu1,b,y\nu1,c,1\n")
    with pytest.raises(DataError):
        ingest(p, "csv")


def test_ingest_missing_file(tmp_path):
    with pytest.raises(OSError):
        ingest(tmp_path / "absent.csv", "csv")


def test_ingest_unknown_format():
    with pytest.raises(DataError):
        ingest("whatever", "parquet")


# ---------------------------------------------------------------- build_sequences


def rows_for(user, items, t0=0):
    return [Interaction(user, it, t0 + k) for k, it in enumerate(items)]


def test_short_user_dropped_empty_dataset():
    with pytest.raises(DataError):
        build_sequences(rows_for("u1", list("abcd")))


def test_out_of_order_timestamps_sorted():
    rows = [
        Interaction("u", "a", 50),
        Interaction("u", "b", 10),
        Interaction("u", "c", 30),
        Interaction("u", "d", 20),
        Interaction("u", "e", 40),
    ]
    catalog, seqs = build_sequences(rows)
    named = [catalog.item_of(i) for i in seqs[0].items]
    assert named == ["b", "d", "c", "e", "a"]


def test_timestamp_ties_keep_input_order():
    rows = [Interaction("u", x, 7) for x in "abcde"]
    catalog, seqs = build_sequences(rows)
    assert [catalog.item_of(i) for i in seqs[0].items] == list("abcde")


def test_catalog_round_trip():
    rows = rows_for("u1", list("abcde")) + rows_for("u2", list("cdefg"))
    catalog, _ = build_sequences(rows)
    for idx in range(catalog.n_items):
        assert catalog.index_of[catalog.item_of(idx)] == idx
    assert catalog.pad_index == catalog.n_items
    assert catalog.mask_index == catalog.n_items + 1


def test_synthetic_lengths_match_group_count_oracle():
    rows = synthetic_interactions(n_users=100, n_items=40, seed=3)
    counts = {}
    for r in rows:
        counts[r.user] = counts.get(r.user, 0) + 1
    catalog, seqs = build_sequences(rows)
    surviving = {u: c for u, c in counts.items() if c >= 5}
    assert {s.user: len(s.items) for s in seqs} == surviving
    assert int(catalog.full_popularity.sum()) == sum(surviving.values())


# ---------------------------------------------------------------- split


def test_split_five_items():
    catalog, seqs = build_sequences(rows_for("u", list("abcde")))
    split = split_leave_one_out(catalog, seqs)
    assert [catalog.item_of(i) for i in split.train[0]] == ["a", "b", "c"]
    assert catalog.item_of(split.valid[0]) == "d"
    assert catalog.item_of(split.test[0]) == "e"
    np.testing.assert_array_equal(split.full_sequences()[0], seqs[0].items)


def test_split_minimum_length_three():
    catalog, seqs = build_sequences(rows_for("u", list("abc")), min_actions=3)
    split = split_leave_one_out(catalog, seqs)
    assert len(split.train[0]) == 1


def test_split_too_short_names_user():
    catalog, seqs = build_sequences(rows_for("solo", list("ab")), min_actions=2)
    with pytest.raises(DataError, match="solo"):
        split_leave_one_out(catalog, seqs)


def test_test_only_item_has_zero_train_popularity():
    # 'z' appears once, as the last (test) action
    catalog, seqs = build_sequences(rows_for("u", ["a", "b", "a", "b", "z"]))
    split_leave_one_out(catalog, seqs)
    assert catalog.train_popularity[catalog.index_of["z"]] == 0
    assert catalog.test_popularity[catalog.index_of["z"]] == 1


# ---------------------------------------------------------------- partition


def test_partition_simple_counts():
    cat = make_catalog([5, 4, 2, 1])
    part = partition_head_tail(cat, 0.5)
    np.testing.assert_array_equal(part.head_set, [0, 1])
    np.testing.assert_array_equal(part.tail_set, [2, 3])
    assert part.threshold_count == 2


def test_partition_all_ties_by_index():
    cat = make_catalog([3, 3, 3, 3])
    part = partition_head_tail(cat, 0.5)
    np.testing.assert_array_equal(part.head_set, [0, 1])
    np.testing.assert_array_equal(part.tail_set, [2, 3])


def test_partition_zipf_matches_sort_oracle():
    rng = np.random.default_rng(0)
    pop = rng.zipf(1.7, size=101).astype(np.int64)
    cat = make_catalog(pop)
    part = partition_head_tail(cat, 0.5)
    order = sorted(range(101), key=lambda i: (-pop[i], i))
    n_tail = int(np.ceil(0.5 * 101))
    expected_tail = sorted(order[101 - n_tail :])
    np.testing.assert_array_equal(part.tail_set, expected_tail)
    assert part.threshold_count == pop[order[101 - n_tail]]
    assert len(part.tail_set) == n_tail


def test_partition_widening_tau_is_monotone():
    rng = np.random.default_rng(1)
    cat = make_catalog(rng.integers(0, 50, size=60))
    narrow = set(partition_head_tail(cat, 0.3).tail_set.tolist())
    wide = set(partition_head_tail(cat, 0.7).tail_set.tolist())
    assert narrow <= wide


def test_partition_rejects_bad_tau():
    cat = make_catalog([1, 2])
    for tau in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DataError):
            partition_head_tail(cat, tau)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=2, max_size=40),
       st.floats(min_value=0.05, max_value=0.95))
def test_partition_is_a_partition(pop, tau):
    cat = make_catalog(pop)
    part = partition_head_tail(cat, tau)
    merged = np.sort(np.concatenate([part.head_set, part.tail_set]))
    np.testing.assert_array_equal(merged, np.arange(len(pop)))
    hp = cat.train_popularity[part.head_set]
    tp = cat.train_popularity[part.tail_set]
    if len(hp) and len(tp):
        assert hp.min() >= tp.max()  # no tail item outranks any head item


# ---------------------------------------------------------------- context windows


def seq_split(*seqs):
    """Build a split whose train portions are exactly the given sequences."""
    from tailrec.data import LeaveOneOutSplit

    return LeaveOneOutSplit(
        users=[f"u{i}" for i in range(len(seqs))],
        train=[np.array(s, dtype=np.int64) for s in seqs],
        valid=np.zeros(len(seqs), dtype=np.int64),
        test=np.zeros(len(seqs), dtype=np.int64),
    )


def test_window_mid_sequence():
    split = seq_split([1, 2, 3, 4, 5])
    cs = extract_context_sets(split, [3], 2, 2)[3]
    assert cs.k == 1
    np.testing.assert_array_equal(cs.windows[0].left, [1, 2])
    np.testing.assert_array_equal(cs.windows[0].right, [4, 5])


def test_window_truncates_at_start():
    split = seq_split([3, 1, 2])
    w = extract_context_sets(split, [3], 2, 2)[3].windows[0]
    assert len(w.left) == 0
    np.testing.assert_array_equal(w.right, [1, 2])


def test_one_window_per_occurrence_across_users():
    split = seq_split([7, 1, 2], [3, 7, 4], [5, 6, 7])
    cs = extract_context_sets(split, [7], 1, 1)[7]
    # brute-force occurrence scan
    occurrences = sum(int(x == 7) for s in split.train for x in s)
    assert cs.k == occurrences == 3


def test_repeats_in_one_sequence_each_get_windows():
    split = seq_split([9, 1, 9, 2, 9])
    cs = extract_context_sets(split, [9], 1, 1)[9]
    assert cs.k == 3


def test_zero_occurrences_empty_set():
    split = seq_split([1, 2, 3])
    assert extract_context_sets(split, [42], 2, 2)[42].k == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
def test_windows_are_contiguous_slices(seq, w1, w2):
    split = seq_split(seq)
    target = seq[len(seq) // 2]
    for w in extract_context_sets(split, [target], w1, w2)[target].windows:
        rebuilt = np.concatenate([w.left, [target], w.right]).astype(np.int64)
        p = w.position
        expected = np.asarray(seq[max(0, p - w1) : p + 1 + w2], dtype=np.int64)
        np.testing.assert_array_equal(rebuilt, expected)
        assert seq[p] == target
        assert len(w.left) <= w1 and len(w.right) <= w2


# ---------------------------------------------------------------- negatives


def test_single_eligible_item():
    cat = make_catalog([4, 2, 9])
    rng = np.random.default_rng(0)
    out = sample_negatives(np.array([0, 2]), cat, 1, rng)
    np.testing.assert_array_equal(out, [1])


def test_negatives_exclude_user_items():
    cat = make_catalog(np.arange(1, 21))
    rng = np.random.default_rng(1)
    user = np.array([3, 7, 11])
    for _ in range(300):
        out = sample_negatives(user, cat, 10, rng)
        assert len(np.intersect1d(out, user)) == 0
        assert len(np.unique(out)) == 10


def test_not_enough_eligible_items():
    cat = make_catalog([1, 1, 1])
    with pytest.raises(DataError):
        sample_negatives(np.array([0]), cat, 3, np.random.default_rng(0))


@pytest.mark.parametrize("user,source", [
    ([3, 7, 7, 11], "full"),
    ([], "full"),
    ([0, 39], "full"),
    ([5], "test"),
])
def test_negative_draws_match_the_setdiff_form(user, source):
    # the keep-mask must give the eligible array np.setdiff1d gave, so the
    # same rng draws the same negatives
    full = np.arange(1, 41)
    test = np.where(np.arange(40) % 3 == 0, 2, 0)
    cat = make_catalog(full, test_pop=test)
    user = np.asarray(user, dtype=np.int64)
    got = sample_negatives(user, cat, 20, np.random.default_rng(8), source=source)
    eligible = np.setdiff1d(np.arange(cat.n_items), user)
    w = (full if source == "full" else test)[eligible].astype(np.float64)
    if np.count_nonzero(w) < 20:
        w = w + 1.0
    want = np.random.default_rng(8).choice(eligible, size=20, replace=False, p=w / w.sum(),
                                           shuffle=False)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bad", [[40], [-1], [2, 10**6]])
def test_negatives_reject_out_of_catalog_user_items(bad):
    cat = make_catalog(np.arange(1, 41))
    with pytest.raises(DataError, match="outside the catalog"):
        sample_negatives(np.array(bad), cat, 3, np.random.default_rng(0))


def test_popularity_proportional_monte_carlo():
    # items 1 and 2 eligible with full-log popularity 3:1
    cat = make_catalog([10, 3, 1])
    rng = np.random.default_rng(42)
    user = np.array([0])
    hits = 0
    trials = 100_000
    for _ in range(trials):
        hits += int(sample_negatives(user, cat, 1, rng)[0] == 1)
    assert abs(hits / trials - 0.75) < 0.01


def test_zero_popularity_smoothing_under_test_source():
    cat = make_catalog([5, 5, 5, 5], test_pop=[1, 0, 0, 0])
    rng = np.random.default_rng(2)
    out = sample_negatives(np.array([0]), cat, 3, rng, source="test")
    assert sorted(out.tolist()) == [1, 2, 3]
