"""Acceptance battery: every top-level claim, one test per criterion.

Fast numerical contracts run first (gradients, metrics, baselines); the
directional claims run against the session-scoped synthetic corpus fixtures
in conftest.py (two pretrained variants, trained inference functions,
paired before/after reports). Budgets are asserted where a criterion
states one.
"""

import json
import math
import time

import numpy as np
import pytest

import tailrec.model as M
import tailrec.tensor as T
from conftest import (
    EVAL_SEED,
    MAX_LEN,
    TAU,
    context_sets_for,
    phase2_config,
)
from repair_metrics import nearest_head_distance, reproduction_stats
from tailrec.cli import _window_from_ids, main as cli_main
from tailrec.data import (
    Interaction,
    PopularityPartition,
    build_sequences,
    split_leave_one_out,
)
from tailrec.evaluate import (
    FomcRanker,
    ModelRanker,
    PopRanker,
    RerankByPopularity,
    SPopRanker,
    build_test_candidates,
    evaluate,
    rank_cases,
    rank_of_truth,
)
from tailrec.model import Model, ModelConfig, embed_sequence, encode_gru, init_model
from tailrec.repair import (
    FewShotConfig,
    aggregate,
    apply_embeddings,
    infer_embeddings,
    infer_new_items,
    init_inference_function,
    train_inference_function,
)
from tailrec.synthetic import synthetic_interactions, write_log_csv

pytestmark = pytest.mark.acceptance


# ------------------------------------------------------------------
# gradient suite: every layer against central finite differences
# ------------------------------------------------------------------


def _fd_grad_inplace(param, forward, eps=1e-6):
    """Central finite differences of scalar forward() w.r.t. param.values."""
    base = param.values.copy()
    grad = np.zeros_like(base)
    flat_v = param.values.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_v.size):
        orig = flat_v[i]
        flat_v[i] = orig + eps
        up = forward()
        flat_v[i] = orig - eps
        dn = forward()
        flat_v[i] = orig
        flat_g[i] = (up - dn) / (2 * eps)
    param.values = base
    return grad


def _check_layer(name, params, forward_t, failures):
    """Tape gradient vs finite differences for each named parameter.

    Grads accumulate across tapes, so every checked tensor is cleared first
    (inputs like the hidden state are shared between layer checks).
    """
    tensors = [p for _, p in params]
    T.reset_grads(tensors)
    with T.Tape() as tape:
        loss = forward_t()
        tape.backward(loss)
    grads = [np.zeros_like(p.values) if p.grad is None else p.grad.copy()
             for p in tensors]
    T.reset_grads(tensors)
    for (pname, p), got in zip(params, grads):
        ref = _fd_grad_inplace(p, lambda: float(forward_t().values))
        rel = np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-12)
        if rel >= 1e-4:
            failures.append(f"{name}/{pname}: rel err {rel:.2e}")


def test_gradient_suite_every_layer_matches_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(0)
    failures = []

    tr = init_model(ModelConfig("transformer", n_items=6, d=8, n_blocks=1,
                                n_heads=2, max_len=3), rng)
    gru = init_model(ModelConfig("gru", n_items=6, d=8, n_blocks=1,
                                 n_heads=2, max_len=3), rng)
    batch = np.array([[0, 3, 5], [2, 6, 1]])  # includes a pad slot (index 6)
    w_embed = np.linspace(0.5, 1.5, 2 * 3 * 8).reshape(2, 3, 8)

    def fwd_embed():
        e, _ = embed_sequence(tr.table, batch, 3)
        return T.sum_(T.mul(e, w_embed))

    _check_layer("embedding(+positional+ln)", [
        ("weights", tr.table.weights), ("positional", tr.table.positional),
    ], fwd_embed, failures)

    e_in = T.Tensor(rng.standard_normal((2, 3, 8)) * 0.3)
    real = np.array([[True, True, True], [True, True, False]])
    w_state = np.linspace(-1.0, 1.0, 2 * 8).reshape(2, 8)
    g = gru.encoder.gru

    def fwd_gru():
        h = encode_gru(gru.encoder, e_in, real)
        return T.sum_(T.mul(h, w_state))

    _check_layer("gru-cell", [
        ("wz", g.wz), ("uz", g.uz), ("bz", g.bz), ("wr", g.wr), ("ur", g.ur), ("br", g.br),
        ("wc", g.wc), ("uc", g.uc), ("bc", g.bc), ("input", e_in),
    ], fwd_gru, failures)

    blk = tr.encoder.blocks[0]
    h_in = T.Tensor(rng.standard_normal((1, 4, 8)) * 0.5)
    zeros_mask = np.zeros((1, 1, 1, 4))
    w_attn = np.linspace(0.2, 1.1, 4 * 8).reshape(1, 4, 8)

    def fwd_mha():
        out = T.attention(h_in, h_in, blk.wq, blk.bq, blk.wk, blk.bk, blk.wv, blk.bv,
                          blk.wo, blk.bo, zeros_mask, 2)
        return T.sum_(T.mul(out, w_attn))

    # bk is left out: softmax is shift-invariant along the keys, and bk adds
    # the same q . bk to every key's logit, so its true gradient is 0
    _check_layer("multi-head-attention", [
        ("wq", blk.wq), ("wk", blk.wk), ("wv", blk.wv), ("wo", blk.wo),
        ("bq", blk.bq), ("bv", blk.bv), ("bo", blk.bo), ("input", h_in),
    ], fwd_mha, failures)

    h_two = T.Tensor(rng.standard_normal((2, 4, 8)))  # unit scale: wq, wk grads above FD noise
    key_mask = np.where([[True] * 4, [False, True, True, True]], 0.0, M.NEG_ATTENTION)
    read_rows = np.array([0, 1, 1])
    read = (read_rows * 4 + np.array([3, 1, 3]), read_rows)
    w_read = np.linspace(-0.7, 0.9, 3 * 8).reshape(3, 8)

    def fwd_last_block():
        out = M.transformer_block(blk, h_two, key_mask[:, None, None, :], 2, read=read)
        return T.sum_(T.mul(out, w_read))

    _check_layer("last block at read rows", [
        ("wq", blk.wq), ("wk", blk.wk), ("wv", blk.wv), ("wo", blk.wo), ("bq", blk.bq),
        ("ln1_gain", blk.ln1_gain), ("w1", blk.w1), ("w2", blk.w2), ("ln2_bias", blk.ln2_bias),
        ("input", h_two),
    ], fwd_last_block, failures)

    def fwd_pwff():
        inner = T.gelu(T.linear(h_in, blk.w1, blk.b1))
        return T.sum_(T.mul(T.linear(inner, blk.w2, blk.b2), w_attn))

    _check_layer("position-wise-ff", [
        ("w1", blk.w1), ("b1", blk.b1), ("w2", blk.w2), ("input", h_in),
    ], fwd_pwff, failures)

    def fwd_ln():
        return T.sum_(T.mul(T.layer_norm(h_in, blk.ln1_gain, blk.ln1_bias), w_attn))

    _check_layer("layer-norm", [
        ("gain", blk.ln1_gain), ("bias", blk.ln1_bias), ("input", h_in),
    ], fwd_ln, failures)

    def fwd_gelu():
        return T.sum_(T.mul(T.gelu(h_in), w_attn))

    _check_layer("gelu", [("input", h_in)], fwd_gelu, failures)

    fn = init_inference_function(
        gru, FewShotConfig(), phase2_config(n_agg_heads=4),
        np.random.default_rng(1))
    reps = T.Tensor(rng.standard_normal((5, 8)) * 0.4)
    w_agg = np.linspace(0.3, 1.2, 8).reshape(1, 8)
    agg = fn.agg.blocks[0]

    def fwd_agg():
        return T.sum_(T.mul(aggregate(fn, reps), w_agg))

    _check_layer("aggregator", [
        ("attn.wv", agg.wv), ("ff.w1", agg.w1), ("out_w", fn.agg.out_w),
        ("out_b", fn.agg.out_b), ("input", reps),
    ], fwd_agg, failures)

    # the probe and the read path aggregate a (P, K, d) stack of sets at once
    stack = T.Tensor(rng.standard_normal((3, 4, 8)) * 0.4)
    w_stack = rng.standard_normal((3, 8))

    def fwd_agg_stack():
        return T.sum_(T.mul(aggregate(fn, stack), w_stack))

    _check_layer("aggregator-stack", [
        ("attn.wv", agg.wv), ("ln2.gain", agg.ln2_gain), ("out_w", fn.agg.out_w),
        ("input", stack),
    ], fwd_agg_stack, failures)

    elapsed = time.time() - t0
    assert not failures, "; ".join(failures)
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ------------------------------------------------------------------
# ranking metrics vs brute force and the analytic random floor
# ------------------------------------------------------------------


def test_ranking_metrics_match_brute_force_and_random_floor():
    rng = np.random.default_rng(2)
    n_lists, n_cand = 1000, 101
    scores = rng.standard_normal((n_lists, n_cand))
    # ties included on purpose: every fifth list duplicates the truth score
    scores[::5, 7] = scores[::5, 0]
    candidates = np.array([rng.permutation(500)[:n_cand] for _ in range(n_lists)])

    ranks = np.array([rank_of_truth(s, c) for s, c in zip(scores, candidates)])
    brute = []
    for s, c in zip(scores, candidates):
        higher = sum(1 for j in range(1, n_cand) if s[j] > s[0])
        tied_lower = sum(1 for j in range(1, n_cand) if s[j] == s[0] and c[j] < c[0])
        brute.append(1 + higher + tied_lower)
    assert ranks.tolist() == brute

    # HR is a 0/1 mean -> exact; MRR compared at float-sum reassociation level
    hr5 = float((ranks <= 5).mean())
    hr10 = float((ranks <= 10).mean())
    mrr = float((1.0 / ranks).mean())
    assert hr5 == sum(1 for r in brute if r <= 5) / n_lists
    assert hr10 == sum(1 for r in brute if r <= 10) / n_lists
    assert abs(mrr - math.fsum(1.0 / r for r in brute) / n_lists) < 1e-12

    # uniform-random scores: truth rank uniform on 1..101
    uni = np.array([
        rank_of_truth(r, np.arange(n_cand))
        for r in np.random.default_rng(3).random((1000, n_cand))
    ])
    uni_hr10 = float((uni <= 10).mean())
    uni_mrr = float((1.0 / uni).mean())
    expected_mrr = sum(1.0 / k for k in range(1, n_cand + 1)) / n_cand  # 0.0514
    assert abs(uni_hr10 - 10 / 101) < 0.03
    assert abs(uni_mrr - expected_mrr) < 0.01


# ------------------------------------------------------------------
# baseline rankings on a 5-item hand-computed fixture
# ------------------------------------------------------------------


def _baseline_fixture():
    rows = []
    seqs = {
        "u0": ["i0", "i1", "i2", "i0"],
        "u1": ["i1", "i0", "i3", "i1"],
        "u2": ["i2", "i0", "i0", "i2"],
        "u3": ["i3", "i4", "i0", "i3"],
    }
    for user, items in seqs.items():
        for t, item in enumerate(items):
            rows.append(Interaction(user=user, item=item, timestamp=t))
    catalog, sequences = build_sequences(rows, min_actions=4)
    split = split_leave_one_out(catalog, sequences)
    # train prefixes: [0,1], [1,0], [2,0], [3,4] -> popularity [3,2,1,1,1]
    assert catalog.train_popularity.tolist() == [3, 2, 1, 1, 1]
    return catalog, split


def _ranking(ranker, history, candidates):
    scores = ranker.score_batch([np.asarray(history)], np.asarray([candidates]))
    order = np.lexsort((candidates, -scores[0]))
    return np.asarray(candidates)[order].tolist()


def test_baseline_rankings_match_hand_computed_fixtures():
    catalog, split = _baseline_fixture()
    cands = [0, 1, 2, 3, 4]

    assert _ranking(PopRanker(catalog), [4, 4, 2], cands) == [0, 1, 2, 3, 4]
    # s-pop: in-sequence counts 4:2, 2:1 dominate, then global pop
    assert _ranking(SPopRanker(catalog), [4, 4, 2], cands) == [4, 2, 0, 1, 3]
    # fomc: observed transitions 0->1, 1->0, 2->0, 3->4
    fomc = FomcRanker(catalog, split)
    assert _ranking(fomc, [2, 0], cands) == [1, 0, 2, 3, 4]
    assert _ranking(fomc, [0, 4], cands) == [0, 1, 2, 3, 4]  # no row: POP fallback
    # rerank: whole 101>5*k window -> ascending popularity, stable on ties
    rerank = RerankByPopularity(PopRanker(catalog), catalog, k=10)
    assert _ranking(rerank, [4, 4, 2], cands) == [2, 3, 4, 1, 0]

    # determinism: identical rankings on a second pass
    assert _ranking(SPopRanker(catalog), [4, 4, 2], cands) == [4, 2, 0, 1, 3]
    assert _ranking(rerank, [4, 4, 2], cands) == [2, 3, 4, 1, 0]


# ------------------------------------------------------------------
# phase-2 reproduction fidelity on held-out head items
# ------------------------------------------------------------------


def test_heldout_head_reproduction_fidelity_and_curve(acceptance_corpus, gru_base):
    # 30 epochs, not the repair schedule: past ~30 the per-epoch probe
    # bounces inside its noise floor and window means stop descending
    cfg = phase2_config(epochs=30)
    assert cfg.epochs <= 50
    model = gru_base["model"]
    head_sets = context_sets_for(acceptance_corpus, "gru",
                                 acceptance_corpus["partition"].head_set)
    n_hold = len(head_sets) // 5
    holdout, train_sets = head_sets[:n_hold], head_sets[n_hold:]

    t0 = time.time()
    fn, curve, skipped = train_inference_function(
        model, train_sets, FewShotConfig(), cfg)
    stats = reproduction_stats(fn, model, holdout)
    elapsed = time.time() - t0

    assert not skipped
    assert stats["n_items"] == n_hold
    assert stats["mean_cosine"] > 0.8, f"held-out cosine {stats['mean_cosine']:.4f}"

    window_means = [float(np.mean(curve[i:i + 5])) for i in range(0, len(curve), 5)]
    drops = list(zip(window_means, window_means[1:]))
    assert all(b <= a for a, b in drops), f"5-epoch means not monotone: {window_means}"
    assert elapsed < 900.0, f"fidelity phase took {elapsed:.1f}s"


# ------------------------------------------------------------------
# replacement / re-scoring contracts
# ------------------------------------------------------------------


def test_apply_rescore_contracts(acceptance_corpus, gru_base, gru_repair,
                                 test_candidates):
    base, repaired = gru_base["model"], gru_repair["repaired"]
    part = acceptance_corpus["partition"]
    inferred = {e.item: e.vector for e in gru_repair["inferred"]
                if e.provenance == "inferred"}

    w_base = base.table.weights.values
    w_rep = repaired.table.weights.values
    for i in part.head_set:
        assert np.array_equal(w_base[i], w_rep[i]), f"head row {i} changed"
    for i in (base.table.pad_index, base.table.mask_index):
        assert np.array_equal(w_base[i], w_rep[i]), "utility row changed"
    for i, vec in inferred.items():
        assert np.array_equal(w_rep[i], vec), f"tail row {i} != inferred vector"

    base_params = dict(M.named_parameters(base))
    for name, t in M.named_parameters(repaired):
        if name == "table.weights":
            continue
        assert np.array_equal(t.values, base_params[name].values), \
            f"non-embedding parameter {name} changed"

    # empty tail set -> apply is the identity -> metrics identical
    catalog = acceptance_corpus["catalog"]
    all_head = PopularityPartition(
        tau=TAU, head_set=np.arange(catalog.n_items),
        tail_set=np.array([], dtype=np.int64), threshold_count=0)
    noop = apply_embeddings(base, infer_embeddings(
        gru_repair["fn"], base, [], all_head,
        rng=np.random.default_rng([EVAL_SEED, 9])))
    kwargs = dict(max_len=MAX_LEN, candidates=test_candidates)
    split = acceptance_corpus["split"]
    rep_a = evaluate(ModelRanker(base), split, all_head, catalog, **kwargs)
    rep_b = evaluate(ModelRanker(noop), split, all_head, catalog, **kwargs)
    assert rep_a == rep_b
    assert rep_a["tail"]["support"] == 0


# ------------------------------------------------------------------
# directional repair claims on the synthetic corpus
# ------------------------------------------------------------------


def _assert_tail_up_head_flat(base, repair, reports):
    before, after = reports["before"], reports["after"]
    d_tail = after["tail"]["hr10"] - before["tail"]["hr10"]
    d_head = after["head"]["hr10"] - before["head"]["hr10"]
    total = base["elapsed"] + repair["elapsed"] + reports["elapsed"]
    assert d_tail >= 0.02, (
        f"tail hr10 {before['tail']['hr10']:.4f} -> {after['tail']['hr10']:.4f} "
        f"(delta {d_tail:+.4f} < +0.02)")
    assert d_head > -0.02, f"head hr10 degraded by {-d_head:.4f}"
    assert total < 1800.0, f"variant pipeline took {total:.1f}s"


def test_tail_repair_direction_gru(gru_base, gru_repair, gru_reports):
    _assert_tail_up_head_flat(gru_base, gru_repair, gru_reports)


def test_tail_repair_direction_transformer(transformer_base, transformer_repair,
                                            transformer_reports):
    _assert_tail_up_head_flat(transformer_base, transformer_repair,
                              transformer_reports)


def test_head_predictions_with_tail_context_gru(gru_reports):
    before = gru_reports["before"]["head_with_tail_in_sequence"]
    after = gru_reports["after"]["head_with_tail_in_sequence"]
    assert before["support"] == after["support"] > 0
    assert after["hr10"] >= before["hr10"], (
        f"hwt hr10 {before['hr10']:.4f} -> {after['hr10']:.4f}")


# ------------------------------------------------------------------
# ablation switches: all reachable; training on every item degrades tail
# ------------------------------------------------------------------


def test_ablation_switches_reachable_and_all_targets_degrades_tail(
        acceptance_corpus, gru_base, gru_repair, gru_reports, test_candidates):
    model = gru_base["model"]
    small = gru_repair["head_sets"][:12]
    for overrides, few in [
        (dict(phi_alpha_init="scratch"), FewShotConfig()),
        (dict(phi_alpha_frozen=False), FewShotConfig()),
        (dict(), FewShotConfig(few_shot=False)),
    ]:
        fn, curve, _ = train_inference_function(
            model, small, few, phase2_config(epochs=2, **overrides))
        assert len(curve) == 2 and np.all(np.isfinite(curve))

    # target set = every item: undertrained tail rows become regression
    # targets and poison the function
    part = acceptance_corpus["partition"]
    all_sets = context_sets_for(acceptance_corpus, "gru",
                                range(acceptance_corpus["catalog"].n_items))
    fn_all, _, _ = train_inference_function(
        model, all_sets, FewShotConfig(), phase2_config())
    inferred = infer_embeddings(fn_all, model, gru_repair["tail_sets"], part,
                                rng=np.random.default_rng([EVAL_SEED, 9]))
    repaired_all = apply_embeddings(model, inferred)
    report = evaluate(ModelRanker(repaired_all), acceptance_corpus["split"], part,
                      acceptance_corpus["catalog"], test_candidates, max_len=MAX_LEN)
    default_tail = gru_reports["after"]["tail"]["hr10"]
    assert report["tail"]["hr10"] < default_tail, (
        f"all-items targets gave tail hr10 {report['tail']['hr10']:.4f}, "
        f"head-only gave {default_tail:.4f}")


# ------------------------------------------------------------------
# inferred tail rows move toward the head region
# ------------------------------------------------------------------


def test_inferred_tail_rows_approach_head_region(acceptance_corpus, gru_base,
                                                 gru_repair):
    part = acceptance_corpus["partition"]
    before = nearest_head_distance(gru_base["model"].table.weights.values, part)
    after = nearest_head_distance(gru_repair["repaired"].table.weights.values, part)
    assert after < before, f"nearest-head distance {before:.4f} -> {after:.4f}"


# ------------------------------------------------------------------
# withheld new items beat the random-ranking floor
# ------------------------------------------------------------------


def test_withheld_new_items_beat_random_floor(acceptance_corpus, gru_base,
                                              gru_repair):
    catalog = acceptance_corpus["catalog"]
    payload = acceptance_corpus["new_item_payload"]
    fn = gru_repair["fn"]
    neg_rng = np.random.default_rng([EVAL_SEED, 5])

    windows = [[_window_from_ids(w, catalog.index_of) for w in entry["windows"]]
               for entry in payload["items"]]
    entries, extended = infer_new_items(fn, gru_base["model"], windows, seed=[EVAL_SEED, 9])
    cases = [(emb.item, np.array([catalog.index_of[s] for s in case["history"]]))
             for entry, emb in zip(payload["items"], entries) for case in entry["test_cases"]]
    candidates = build_test_candidates([item for item, _ in cases], [h for _, h in cases],
                                       catalog, 100, neg_rng)
    ranks = rank_cases(ModelRanker(extended), [h[-MAX_LEN:] for _, h in cases], candidates,
                       batch_size=1)

    assert len(ranks) >= 30, f"only {len(ranks)} usable new-item test cases"
    hr10 = float(np.mean(np.asarray(ranks) <= 10))
    assert hr10 > 0.099, f"new-item hr10 {hr10:.4f} at/below the 10/101 floor"


# ------------------------------------------------------------------
# same-seed pipeline runs are byte-identical
# ------------------------------------------------------------------


def test_same_seed_pipeline_is_byte_identical(tmp_path):
    rows = synthetic_interactions(n_users=300, n_items=100, zipf_s=1.2,
                                  transition_prob=0.75, min_len=5, max_len=12,
                                  seed=2)
    log = tmp_path / "log.csv"
    write_log_csv(log, rows)

    def pipeline(out):
        config = tmp_path / f"{out.name}.json"
        config.write_text(json.dumps({
            "dataset": {"path": str(log)},
            "variant": "gru",
            "seed": 9,
            "out": str(out),
            "pretrain": {"max_len": 12, "d": 16, "n_blocks": 1, "epochs": 3,
                         "n_negatives": 50, "warmup_steps": 20},
            "cities": {"epochs": 3},
            "evaluate": {"n_negatives": 50},
        }))
        for command in ("ingest", "pretrain", "train-cities", "apply-eval",
                        "baseline"):
            assert cli_main(["--config", str(config), command]) == 0
        return out

    a = pipeline(tmp_path / "a")
    b = pipeline(tmp_path / "b")
    artifacts = sorted(p.name for p in a.iterdir()
                       if not p.name.startswith("manifest_"))
    assert "report_after_gru.json" in artifacts and "store.json" in artifacts
    for name in artifacts:
        assert (a / name).read_bytes() == (b / name).read_bytes(), \
            f"{name} differs between same-seed runs"
