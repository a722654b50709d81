"""Metric oracles, protocol behavior, and baseline fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailrec.data import (
    LeaveOneOutSplit,
    build_sequences,
    partition_head_tail,
    split_leave_one_out,
)
from tailrec.errors import DataError
from tailrec.evaluate import (
    FomcRanker,
    ModelRanker,
    PopRanker,
    RerankByPopularity,
    SPopRanker,
    _group_metrics,
    evaluate,
    rank_cases,
    make_baseline,
    rank_of_truth,
    transition_counts,
)
from tailrec.model import ModelConfig, encode, init_model, named_parameters
from tailrec.pretrain import _masked_positions_loss
from tailrec.synthetic import synthetic_interactions

from test_data import make_catalog


def brute_force_rank(scores, candidates, truth_column=0):
    """Reference ranking: sort by (-score, item index), locate the truth."""
    keyed = sorted(range(len(scores)), key=lambda i: (-scores[i], candidates[i]))
    return keyed.index(truth_column) + 1


def uniform_split(n_users, n_items, rng):
    train = [rng.integers(0, n_items, size=3) for _ in range(n_users)]
    return LeaveOneOutSplit(
        users=[f"u{i}" for i in range(n_users)],
        train=train,
        valid=rng.integers(0, n_items, size=n_users),
        test=rng.integers(0, n_items, size=n_users),
    )


class ConstRanker:
    def __init__(self, fn):
        self.fn = fn

    def score_batch(self, histories, candidates):
        return np.stack([self.fn(c) for c in candidates])


# ------------------------------------------------------------ point metrics


def test_hit_ratio_points():
    assert _group_metrics(np.array([1]))["hr5"] == 1.0
    assert _group_metrics(np.array([7]))["hr5"] == 0.0
    assert _group_metrics(np.array([7]))["hr10"] == 1.0
    assert _group_metrics(np.array([5]))["hr5"] == 1.0


def test_reciprocal_rank_points():
    assert _group_metrics(np.array([1]))["mrr"] == 1.0
    assert _group_metrics(np.array([4]))["mrr"] == 0.25
    assert abs(_group_metrics(np.array([1, 2, 4]))["mrr"] - 7 / 12) < 1e-12


def test_rank_matches_brute_force_on_random_lists():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        c = rng.choice(500, size=21, replace=False)
        s = np.round(rng.standard_normal(21), 1)  # rounding forces real ties
        assert rank_of_truth(s, c) == brute_force_rank(s, c)


def lexsort_rank(scores, candidates, truth_column=0):
    """Reference: position of the truth in one stable lexsort per row."""
    order = np.lexsort((candidates, -np.asarray(scores, dtype=np.float64)))
    return int(np.nonzero(order == truth_column)[0][0]) + 1


class FixedScores:
    """A ranker that returns rows of a fixed score matrix, in call order."""

    def __init__(self, scores):
        self.scores, self.at = scores, 0

    def score_batch(self, histories, candidates):
        out = self.scores[self.at : self.at + len(histories)]
        self.at += len(histories)
        return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 9), st.integers(1, 12), st.integers(1, 5), st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
def test_batched_ranks_equal_lexsort_ranks(rows, cols, levels, batch_size, seed):
    # few score levels force ties and few item ids force duplicate candidates
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=(rows, cols)) / 2.0
    candidates = rng.integers(0, max(2, cols // 2), size=(rows, cols))
    ranks = rank_cases(FixedScores(scores), [None] * rows, candidates, batch_size)
    assert ranks.tolist() == [lexsort_rank(s, c) for s, c in zip(scores, candidates)]
    truth_column = int(rng.integers(cols))
    assert [rank_of_truth(s, c, truth_column) for s, c in zip(scores, candidates)] == [
        lexsort_rank(s, c, truth_column) for s, c in zip(scores, candidates)]


def test_tie_break_prefers_lower_index():
    cand = np.array([9, 3, 5])
    scores = np.array([1.0, 1.0, 1.0])
    # all tied: ascending index order is 3, 5, 9 -> truth (item 9) ranks 3rd
    assert rank_of_truth(scores, cand, truth_column=0) == 3


# ------------------------------------------------------------ evaluate protocol


def eval_fixture(n_users=40, n_items=120, seed=0):
    rng = np.random.default_rng(seed)
    split = uniform_split(n_users, n_items, rng)
    cat = make_catalog(rng.integers(1, 30, size=n_items))
    part = partition_head_tail(cat, 0.5)
    return split, part, cat


def test_perfect_oracle_scores_one_everywhere():
    split, part, cat = eval_fixture()

    class Oracle:
        def score_batch(self, histories, candidates):
            s = np.zeros(candidates.shape)
            s[:, 0] = 1.0  # truth is always column 0
            return s

    report = evaluate(Oracle(), split, part, cat, rng=np.random.default_rng(1))
    for group in ("head", "tail", "all"):
        if report[group]["support"]:
            assert report[group]["hr5"] == 1.0
            assert report[group]["hr10"] == 1.0
            assert report[group]["mrr"] == 1.0


def test_adversarial_model_truth_always_last():
    split, part, cat = eval_fixture()

    class Worst:
        def score_batch(self, histories, candidates):
            s = np.ones(candidates.shape)
            s[:, 0] = 0.0
            return s

    report = evaluate(Worst(), split, part, cat, rng=np.random.default_rng(1))
    assert report["all"]["hr10"] == 0.0
    assert abs(report["all"]["mrr"] - 1 / 101) < 1e-12


def test_uniform_random_matches_analytic_expectation():
    split, part, cat = eval_fixture(n_users=1000, n_items=150, seed=3)
    rng = np.random.default_rng(9)

    class Uniform:
        def score_batch(self, histories, candidates):
            return rng.random(candidates.shape)

    report = evaluate(Uniform(), split, part, cat, rng=np.random.default_rng(2))
    assert abs(report["all"]["hr10"] - 10 / 101) < 0.03
    harmonic = np.sum(1.0 / np.arange(1, 102))
    assert abs(report["all"]["mrr"] - harmonic / 101) < 0.01


def test_supports_sum_and_slice_definition():
    split, part, cat = eval_fixture(n_users=60)
    rng = np.random.default_rng(4)

    class R:
        def score_batch(self, histories, candidates):
            return rng.random(candidates.shape)

    report = evaluate(R(), split, part, cat, rng=np.random.default_rng(5))
    assert report["head"]["support"] + report["tail"]["support"] == report["all"]["support"]
    assert report["all"]["support"] == split.n_users
    assert report["head_with_tail_in_sequence"]["support"] <= report["head"]["support"]


def test_monotone_transform_invariance():
    split, part, cat = eval_fixture()
    base = np.random.default_rng(11).random((split.n_users, 101))

    class Affine:
        def __init__(self, a, b):
            self.a, self.b = a, b
            self.row = 0

        def score_batch(self, histories, candidates):
            n = len(candidates)
            out = self.a * base[self.row : self.row + n] + self.b
            self.row += n
            return out

    r1 = evaluate(Affine(1.0, 0.0), split, part, cat, candidates=_fixed_candidates(split, cat))
    r2 = evaluate(Affine(3.0, 7.0), split, part, cat, candidates=_fixed_candidates(split, cat))
    assert r1 == r2


def _fixed_candidates(split, cat):
    rng = np.random.default_rng(77)
    out = np.empty((split.n_users, 101), dtype=np.int64)
    for u in range(split.n_users):
        out[u, 0] = split.test[u]
        pool = np.setdiff1d(np.arange(cat.n_items), split.full_sequence(u))
        out[u, 1:] = rng.choice(pool, size=100, replace=False)
    return out


def test_seeded_evaluation_is_reproducible():
    split, part, cat = eval_fixture()
    pop = PopRanker(cat)
    a = evaluate(pop, split, part, cat, rng=np.random.default_rng(123))
    b = evaluate(pop, split, part, cat, rng=np.random.default_rng(123))
    assert a == b


# ------------------------------------------------------------ model ranker


def test_transformer_ranks_from_the_slot_cloze_training_scores():
    """The transformer ranks a history h with the head projection of the final
    hidden state at column max_len - 1 of the cloze row [h[-(max_len-1):], MASK]:
    the state _masked_positions_loss scores whenever the last slot is masked."""
    from scipy.special import erf, logsumexp

    ml, n_items = 6, 9
    model = init_model(ModelConfig("transformer", n_items=n_items, d=8, n_blocks=2,
                                   n_heads=2, max_len=ml, dropout_rate=0.0),
                       np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for _, t in named_parameters(model):  # move off the near-zero initialization
        t.values = t.values + rng.normal(0.0, 0.3, t.values.shape)
    pad, mask = model.table.pad_index, model.table.mask_index
    # longer than the window, exactly max_len - 1 items, and short
    histories = [np.array([0, 1, 2, 3, 4, 5, 6, 7]), np.array([4, 1, 3, 5, 8]), np.array([2, 7])]
    rows = np.full((len(histories), ml), pad, dtype=np.int64)
    for i, h in enumerate(histories):
        kept = h[-(ml - 1):]
        rows[i, ml - 1 - len(kept):] = np.append(kept, mask)

    state = encode(model, rows).values[:, ml - 1]
    pre = state @ model.encoder.head_w.values + model.encoder.head_b.values
    m = pre * 0.5 * (1.0 + erf(pre / np.sqrt(2.0)))
    candidates = np.tile(np.arange(n_items), (len(histories), 1))
    expected = m @ model.table.weights.values[:n_items].T + model.table.item_bias.values

    got = ModelRanker(model).score_batch(histories, candidates)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    # and the cloze loss with the last slot masked is the NLL of those scores
    truths = np.array([8, 0, 6])
    targets = np.full(rows.shape, -1, dtype=np.int64)
    targets[:, ml - 1] = truths
    loss = _masked_positions_loss(model, rows, targets, np.random.default_rng(0)).item()
    nll = logsumexp(got, axis=1) - got[np.arange(len(truths)), truths]
    assert loss == pytest.approx(float(nll.mean()), abs=1e-12)


# ------------------------------------------------------------ baselines


def test_pop_order_fixture():
    # counts {a:3, b:1, c:2} -> a, c, b
    cat = make_catalog([3, 1, 2])
    scores = PopRanker(cat).score_batch([np.array([0])], np.array([[0, 1, 2]]))[0]
    order = np.lexsort((np.array([0, 1, 2]), -scores))
    assert order.tolist() == [0, 2, 1]


def test_pop_all_zero_counts_index_order():
    cat = make_catalog([0, 0, 0])
    scores = PopRanker(cat).score_batch([np.array([0])], np.array([[2, 0, 1]]))[0]
    order = np.lexsort((np.array([2, 0, 1]), -scores))
    # positions of items 0,1,2 in candidate list: 1, 2, 0
    assert np.array([2, 0, 1])[order].tolist() == [0, 1, 2]


def test_spop_fixture():
    # sequence [a,a,b]; global popularity b > c > a
    cat = make_catalog([1, 5, 3])  # a=0, b=1, c=2
    hist = np.array([0, 0, 1])
    cand = np.array([[0, 1, 2]])
    scores = SPopRanker(cat).score_batch([hist], cand)[0]
    order = cand[0][np.lexsort((cand[0], -scores))]
    assert order.tolist() == [0, 1, 2]  # a (2 in seq), b (1 in seq), c (global only)


def test_spop_all_distinct_falls_back_to_pop():
    cat = make_catalog([1, 5, 3])
    hist = np.array([0, 1, 2])
    cand = np.array([[0, 1, 2]])
    scores = SPopRanker(cat).score_batch([hist], cand)[0]
    order = cand[0][np.lexsort((cand[0], -scores))]
    assert order.tolist() == [1, 2, 0]  # pure global popularity


def test_spop_matches_two_key_sort_oracle():
    rng = np.random.default_rng(6)
    cat = make_catalog(rng.integers(0, 40, size=30))
    ranker = SPopRanker(cat)
    for _ in range(50):
        hist = rng.integers(0, 30, size=12)
        cand = rng.choice(30, size=8, replace=False)
        scores = ranker.score_batch([hist], cand[None, :])[0]
        got = cand[np.lexsort((cand, -scores))]
        counts = np.bincount(hist, minlength=30)
        expected = sorted(cand, key=lambda j: (-counts[j], -cat.train_popularity[j], j))
        assert got.tolist() == expected


def test_fomc_fixture():
    # transitions a->b twice, a->c once; last item a
    split = LeaveOneOutSplit(
        users=["u"],
        train=[np.array([0, 1, 0, 1, 0, 2])],
        valid=np.array([0]),
        test=np.array([0]),
    )
    cat = make_catalog([9, 1, 1])
    ranker = FomcRanker(cat, split)
    cand = np.array([[1, 2, 0]])
    scores = ranker.score_batch([np.array([3, 0])], cand)[0]
    order = cand[0][np.lexsort((cand[0], -scores))]
    assert order.tolist()[:2] == [1, 2]  # b then c


def test_fomc_unseen_last_item_falls_back_to_pop():
    split = LeaveOneOutSplit(
        users=["u"], train=[np.array([0, 1])], valid=np.array([0]), test=np.array([0])
    )
    cat = make_catalog([2, 5, 9])
    ranker = FomcRanker(cat, split)
    cand = np.array([[0, 1, 2]])
    scores = ranker.score_batch([np.array([2])], cand)[0]  # item 2 never transitions
    order = cand[0][np.lexsort((cand[0], -scores))]
    assert order.tolist() == [2, 1, 0]


def test_transition_counts_match_bigram_oracle():
    rng = np.random.default_rng(8)
    seqs = [rng.integers(0, 12, size=rng.integers(2, 20)) for _ in range(30)]
    split = LeaveOneOutSplit(
        users=[str(i) for i in range(30)],
        train=seqs,
        valid=np.zeros(30, dtype=np.int64),
        test=np.zeros(30, dtype=np.int64),
    )
    counts = transition_counts(split, 12)
    brute = np.zeros((12, 12), dtype=np.int64)
    for s in seqs:
        for a, b in zip(s[:-1], s[1:]):
            brute[a, b] += 1
    np.testing.assert_array_equal(counts, brute)


def reranked(pre_ranked, k, popularity):
    """Final order RerankByPopularity gives a base ranking ``pre_ranked``."""
    cand = np.asarray(pre_ranked)[None, :]

    class Base:
        def score_batch(self, histories, candidates):
            return -np.arange(candidates.shape[1], dtype=np.float64)[None, :]

    ranker = RerankByPopularity(Base(), make_catalog(popularity), k=k)
    scores = ranker.score_batch([np.array([0])], cand)[0]
    return cand[0][np.lexsort((cand[0], -scores))]


def test_rerank_k1_picks_least_popular():
    pop = np.zeros(10)
    pop[[7, 8, 9]] = [9, 1, 5]
    out = reranked(np.array([7, 8, 9]), 1, pop)
    assert out[:1].tolist() == [8]


def test_rerank_equal_popularity_keeps_base_order():
    pop = np.ones(10)
    pre = np.array([4, 2, 9, 0, 5])
    out = reranked(pre, 1, pop)
    assert out[:1].tolist() == [4]
    np.testing.assert_array_equal(out, pre)


def test_rerank_output_subset_of_input():
    rng = np.random.default_rng(10)
    pop = rng.integers(0, 100, size=200)
    pre = rng.choice(200, size=60, replace=False)
    out = reranked(pre, 10, pop)
    assert len(out) == 60
    assert set(out[:10].tolist()) <= set(pre[:50].tolist())
    np.testing.assert_array_equal(out[50:], pre[50:])  # below the window: base order


def test_rerank_list_shorter_than_window_is_reordered_whole():
    pop = np.array([3, 1, 2, 0, 9])
    out = reranked(np.arange(4), 10, pop)
    assert out.tolist() == [3, 1, 2, 0]


def test_rerank_ranker_orders_least_popular_first_in_window():
    split, part, cat = eval_fixture(n_users=10)

    class Base:
        # base model prefers low item indices
        def score_batch(self, histories, candidates):
            return -candidates.astype(np.float64)

    wrapped = RerankByPopularity(Base(), cat, k=10)
    cand = _fixed_candidates(split, cat)
    scores = wrapped.score_batch([split.train[u] for u in range(10)], cand[:10])
    for i in range(10):
        order = cand[i][np.lexsort((cand[i], -scores[i]))]
        base_top = np.sort(cand[i])[:50]  # base top-50 = the 50 smallest indices
        assert set(order[:50].tolist()) == set(base_top.tolist())
        pops = cat.train_popularity[order[:50]]
        assert np.all(pops[:-1] <= pops[1:])  # ascending popularity inside the window


def test_make_baseline_names():
    split, part, cat = eval_fixture(n_users=5)
    for name in ("pop", "spop", "fomc"):
        assert make_baseline(name, cat, split) is not None
    assert make_baseline("rerank", cat, split, base=PopRanker(cat)) is not None
    with pytest.raises(DataError):
        make_baseline("rerank", cat, split)
    with pytest.raises(DataError):
        make_baseline("svd", cat, split)


def test_baselines_deterministic_on_synthetic_corpus():
    rows = synthetic_interactions(n_users=60, n_items=80, seed=5)
    catalog, seqs = build_sequences(rows)
    split = split_leave_one_out(catalog, seqs)
    part = partition_head_tail(catalog, 0.5)
    for name in ("pop", "spop", "fomc"):
        ranker = make_baseline(name, catalog, split)
        a = evaluate(ranker, split, part, catalog, n_negatives=20, rng=np.random.default_rng(3))
        b = evaluate(ranker, split, part, catalog, n_negatives=20, rng=np.random.default_rng(3))
        assert a == b
