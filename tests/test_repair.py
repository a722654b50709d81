"""Embedding repair: interpreter/aggregator mechanics, few-shot training,
row injection, and new-item inference."""

import numpy as np
import pytest

import tailrec.repair as repair
import tailrec.tensor as T
from tailrec.data import ContextSet, ContextWindow, PopularityPartition
from tailrec.errors import ConfigError, DataError, TrainingError
from tailrec.model import (
    ModelConfig,
    embed_sequence,
    encode_transformer,
    init_model,
    named_parameters,
    pad_batch,
    params_fingerprint,
    ranking_states,
    score,
)
from tailrec.repair import (
    FewShotConfig,
    InferenceTrainConfig,
    InferredEmbedding,
    aggregate,
    apply_embeddings,
    derive_window_sizes,
    infer_embeddings,
    infer_new_items,
    infer_one,
    inference_fingerprint,
    init_inference_function,
    interpret_context,
    load_inference_function,
    save_inference_function,
    train_inference_function,
    trainable_inference_parameters,
    _frozen_context_reader,
)

from repair_metrics import nearest_head_distance, reproduction_stats

D = 8
ML = 10
N_ITEMS = 20


def tiny_model(variant, seed=0):
    cfg = ModelConfig(variant=variant, n_items=N_ITEMS, d=D, n_blocks=1,
                      n_heads=2, max_len=ML, dropout_rate=0.0)
    return init_model(cfg, np.random.default_rng(seed))


def win(left, right=()):
    return ContextWindow(left=np.asarray(left, dtype=np.int64),
                         right=np.asarray(right, dtype=np.int64),
                         user_index=0, position=len(left))


def default_fn(model, **cfg_kwargs):
    few = FewShotConfig()
    cfg = InferenceTrainConfig(dropout_rate=0.0, **cfg_kwargs)
    return init_inference_function(model, few, cfg, np.random.default_rng(7))


# ---------------------------------------------------------------- configs


def test_window_sizes_transformer_symmetric():
    assert derive_window_sizes("transformer", 50) == (24, 24)
    assert derive_window_sizes("transformer", 20) == (9, 9)


def test_window_sizes_gru_left_only():
    assert derive_window_sizes("gru", 50) == (49, 0)
    assert derive_window_sizes("gru", 10) == (9, 0)


def test_fewshot_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        FewShotConfig(kappa_max=0)
    with pytest.raises(ConfigError):
        FewShotConfig(omega1=-1)
    with pytest.raises(ConfigError):
        FewShotConfig(omega1=0, omega2=0).resolved_windows("transformer", 10)


def test_fewshot_overrides_win():
    assert FewShotConfig(omega1=3, omega2=5).resolved_windows("transformer", 50) == (3, 5)
    assert FewShotConfig().resolved_windows("gru", 12) == (11, 0)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        InferenceTrainConfig(epochs=-1)
    with pytest.raises(ConfigError):
        InferenceTrainConfig(n_agg_blocks=0)
    with pytest.raises(ConfigError):
        InferenceTrainConfig(phi_alpha_init="magic")
    with pytest.raises(ConfigError):
        InferenceTrainConfig(context_batch_cap=0)


def test_heads_must_divide_dimension():
    model = tiny_model("transformer")
    with pytest.raises(ConfigError):
        init_inference_function(model, FewShotConfig(),
                                InferenceTrainConfig(n_agg_heads=3),
                                np.random.default_rng(0))


# ------------------------------------------------------- initialization


def test_pretrained_init_copies_encoder_bitwise():
    model = tiny_model("transformer")
    fn = default_fn(model)
    base = dict(named_parameters(model))
    for name, t in named_parameters(fn):
        if name.startswith("interpreter."):
            src = base[name.replace("interpreter.", "encoder.")]
            assert np.array_equal(t.values, src.values)
            assert t.values is not src.values  # fresh storage


def test_scratch_init_differs_from_encoder():
    model = tiny_model("transformer")
    fn = default_fn(model, phi_alpha_init="scratch")
    base = dict(named_parameters(model))
    diffs = 0
    for name, t in named_parameters(fn):
        if name.startswith("interpreter.blocks"):
            src = base[name.replace("interpreter.", "encoder.")]
            diffs += int(not np.array_equal(t.values, src.values))
    assert diffs > 0


def test_trainable_set_respects_freeze():
    model = tiny_model("transformer")
    frozen = default_fn(model, phi_alpha_frozen=True)
    assert all(n.startswith("agg.") for n, _ in trainable_inference_parameters(frozen))

    loose = default_fn(model, phi_alpha_frozen=False)
    names = [n for n, _ in trainable_inference_parameters(loose)]
    assert any(n.startswith("interpreter.blocks") for n in names)
    assert not any(n.startswith("interpreter.head_") for n in names)


def test_trainable_set_gru_unfrozen():
    model = tiny_model("gru")
    loose = default_fn(model, phi_alpha_frozen=False)
    names = [n for n, _ in trainable_inference_parameters(loose)]
    assert "interpreter.gru.wz" in names and "agg.out_w" in names


# ------------------------------------------------------ interpretation


def test_transformer_interpretation_reuses_encoder_weights():
    # the trained base encoder run on [left, MASK, right] must give the same
    # hidden state at the masked slot as the interpreter does: phase two
    # starts from the exact weights phase one produced
    model = tiny_model("transformer", seed=3)
    fn = default_fn(model)
    left, right = [4, 7, 2], [9, 1]
    rep = interpret_context(fn, model, [win(left, right)]).values[0]

    seq = left + [model.table.mask_index] + right
    rows = pad_batch([seq], ML, model.table.pad_index)
    e, real = embed_sequence(model.table, rows, ML)
    center = ML - len(seq) + len(left)
    expected = encode_transformer(model.encoder, e, real).values[0, center]
    assert np.array_equal(rep, expected)


def test_gru_single_step_matches_hand_rolled_cell():
    model = tiny_model("gru", seed=5)
    fn = default_fn(model)
    rep = interpret_context(fn, model, [win([6])]).values[0]

    g = model.encoder.gru
    x = model.table.weights.values[6]
    z = 1 / (1 + np.exp(-(x @ g.wz.values + g.bz.values)))
    c = np.tanh(x @ g.wc.values + g.bc.values)  # r gates a zero state away
    assert np.allclose(rep, z * c, atol=1e-12)


def test_interpretation_is_batch_independent():
    for variant in ("transformer", "gru"):
        model = tiny_model(variant, seed=1)
        fn = default_fn(model)
        a, b = win([3, 5], [8]), win([11, 2, 2], [4, 9])
        both = interpret_context(fn, model, [a, b]).values
        alone = interpret_context(fn, model, [a]).values[0]
        # batched BLAS reassociates sums, so exact bitwise equality is not
        # guaranteed across batch shapes — only agreement to rounding error
        assert np.allclose(both[0], alone, atol=1e-12, rtol=0)


def test_window_trim_respects_extents():
    model = tiny_model("transformer")
    few = FewShotConfig(omega1=2, omega2=1)
    cfg = InferenceTrainConfig(dropout_rate=0.0)
    fn = init_inference_function(model, few, cfg, np.random.default_rng(7))
    wide = win([1, 2, 3, 4, 5], [6, 7, 8])
    narrow = win([4, 5], [6])
    assert np.array_equal(
        interpret_context(fn, model, [wide]).values,
        interpret_context(fn, model, [narrow]).values,
    )


def test_empty_windows_rejected():
    tr = tiny_model("transformer")
    fn = default_fn(tr)
    with pytest.raises(DataError):
        interpret_context(fn, tr, [win([], [])])
    with pytest.raises(DataError):
        interpret_context(fn, tr, [])

    gr = tiny_model("gru")
    gfn = default_fn(gr)
    with pytest.raises(DataError):
        # right-only context is useless to a forward-only encoder
        interpret_context(gfn, gr, [win([], [5])])


# --------------------------------------------------------- aggregation


def test_aggregation_permutation_invariant():
    model = tiny_model("transformer")
    fn = default_fn(model)
    rng = np.random.default_rng(11)
    reps = T.Tensor(rng.standard_normal((6, D)))
    base = aggregate(fn, reps).values
    for _ in range(5):
        perm = rng.permutation(6)
        shuffled = T.Tensor(reps.values[perm])
        assert np.allclose(aggregate(fn, shuffled).values, base, atol=1e-10)


def test_aggregation_duplication_invariant():
    model = tiny_model("transformer")
    fn = default_fn(model)
    v = np.random.default_rng(2).standard_normal(D)
    outs = [
        aggregate(fn, T.Tensor(np.tile(v, (k, 1)))).values[0]
        for k in (1, 5, 10)
    ]
    assert np.allclose(outs[0], outs[1], atol=1e-10)
    assert np.allclose(outs[0], outs[2], atol=1e-10)


def test_single_window_aggregation_deterministic():
    model = tiny_model("gru")
    fn = default_fn(model)
    rep = T.Tensor(np.random.default_rng(3).standard_normal((1, D)))
    a = aggregate(fn, rep).values
    b = aggregate(fn, rep).values
    assert np.array_equal(a, b)
    assert a.shape == (1, D)


# ------------------------------------------------------------ training


def small_sets(n_targets=4, k=3, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    sets = []
    for item in range(n_targets):
        wins = tuple(
            win(list(rng.integers(0, N_ITEMS, size=3)),
                list(rng.integers(0, N_ITEMS, size=2)))
            for _ in range(k)
        )
        sets.append(ContextSet(item=item, windows=wins))
    return sets


def test_zero_epochs_returns_initialization():
    model = tiny_model("transformer")
    few, cfg = FewShotConfig(), InferenceTrainConfig(epochs=0, seed=9)
    fn, curve, skipped = train_inference_function(model, small_sets(), few, cfg)
    ref = init_inference_function(model, few, cfg, np.random.default_rng([9, 0]))
    assert curve == [] and skipped == []
    assert inference_fingerprint(fn) == inference_fingerprint(ref)


def test_frozen_interpreter_never_moves():
    model = tiny_model("transformer")
    cfg = InferenceTrainConfig(epochs=3, dropout_rate=0.0, phi_alpha_frozen=True)
    fn, _, _ = train_inference_function(model, small_sets(), FewShotConfig(), cfg)
    interp = [(n, t) for n, t in named_parameters(fn) if n.startswith("interpreter.")]
    base = dict(named_parameters(model))
    for name, t in interp:
        assert np.array_equal(t.values, base[name.replace("interpreter.", "encoder.")].values)


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_frozen_reader_gives_the_vectors_of_encoding_each_pick(variant):
    # training reads a frozen interpreter's window vectors from this cache;
    # each read must be bitwise what encoding the pick itself gives, or the
    # trained function would drift from the uncached one
    model = tiny_model(variant, seed=2)
    fn = default_fn(model)
    usable = [(cs.item, list(cs.windows)) for cs in small_sets(n_targets=2, k=6)]
    read = _frozen_context_reader(fn, model, usable)
    for idx, pick in [(0, [4]), (0, [1, 3, 5]), (0, [3, 0]), (0, [4]), (0, [5, 2, 1, 0, 3, 4]),
                      (1, [2, 5]), (1, [5]), (1, [5, 2])]:
        direct = interpret_context(fn, model, [usable[idx][1][i] for i in pick]).values
        assert np.array_equal(read(idx, np.array(pick)).values, direct), (idx, pick)


def test_unfrozen_interpreter_moves_but_base_model_does_not():
    model = tiny_model("gru")
    before = params_fingerprint(named_parameters(model))
    cfg = InferenceTrainConfig(epochs=3, dropout_rate=0.0, phi_alpha_frozen=False,
                               warmup_steps=0, learning_rate=0.01)
    fn, _, _ = train_inference_function(model, small_sets(), FewShotConfig(), cfg)
    assert params_fingerprint(named_parameters(model)) == before
    base = dict(named_parameters(model))
    moved = any(
        not np.array_equal(t.values, base[n.replace("interpreter.", "encoder.")].values)
        for n, t in named_parameters(fn)
        if n.startswith("interpreter.gru")
    )
    assert moved


def test_training_is_seed_deterministic():
    model = tiny_model("transformer")
    cfg = InferenceTrainConfig(epochs=2, seed=4)
    a, curve_a, _ = train_inference_function(model, small_sets(), FewShotConfig(), cfg)
    b, curve_b, _ = train_inference_function(model, small_sets(), FewShotConfig(), cfg)
    assert curve_a == curve_b
    assert inference_fingerprint(a) == inference_fingerprint(b)


def test_overfit_single_context():
    # one item, one window: the function should drive the squared distance
    # into the floor, which exercises every gradient path at once
    model = tiny_model("transformer", seed=13)
    sets = [ContextSet(item=5, windows=(win([1, 2, 3], [4, 6]),))]
    cfg = InferenceTrainConfig(epochs=500, learning_rate=0.01, warmup_steps=10,
                               l2_coefficient=0.0, dropout_rate=0.0, seed=1)
    fn, curve, _ = train_inference_function(model, sets, FewShotConfig(), cfg)
    assert curve[-1] < 1e-3
    vec = infer_one(fn, model, sets[0].windows)
    target = model.table.weights.values[5]
    assert np.sum((vec - target) ** 2) < 1e-3


def test_all_targets_skipped_is_a_training_error():
    model = tiny_model("gru")
    dead = [ContextSet(item=0, windows=(win([], [3]),))]
    with pytest.warns(UserWarning), pytest.raises(TrainingError):
        train_inference_function(model, dead, FewShotConfig(),
                                 InferenceTrainConfig(epochs=1))


def test_contextless_target_skipped_with_warning():
    model = tiny_model("gru")
    sets = small_sets(n_targets=2) + [ContextSet(item=17, windows=())]
    with pytest.warns(UserWarning, match="skipping 1"):
        fn, curve, skipped = train_inference_function(
            model, sets, FewShotConfig(),
            InferenceTrainConfig(epochs=1, dropout_rate=0.0))
    assert skipped == [17]
    assert len(curve) == 1 and np.isfinite(curve[0])


def test_without_few_shot_uses_all_windows_and_trains():
    model = tiny_model("transformer")
    few = FewShotConfig(few_shot=False)
    fn, curve, _ = train_inference_function(
        model, small_sets(k=6), few,
        InferenceTrainConfig(epochs=2, dropout_rate=0.0))
    assert len(curve) == 2 and all(np.isfinite(v) for v in curve)


def test_ablation_matrix_runs():
    model = tiny_model("gru")
    sets = small_sets(n_targets=2)
    for init in ("pretrained", "scratch"):
        for frozen in (True, False):
            cfg = InferenceTrainConfig(epochs=1, dropout_rate=0.0,
                                       phi_alpha_init=init, phi_alpha_frozen=frozen)
            fn, curve, _ = train_inference_function(model, sets, FewShotConfig(), cfg)
            assert len(curve) == 1


def test_reproduction_stats_counts_usable_items():
    model = tiny_model("transformer")
    fn = default_fn(model)
    sets = small_sets(n_targets=3) + [ContextSet(item=19, windows=())]
    stats = reproduction_stats(fn, model, sets)
    assert stats["n_items"] == 3
    assert np.isfinite(stats["mean_sq_distance"])
    assert -1.0 <= stats["mean_cosine"] <= 1.0
    with pytest.raises(DataError):
        reproduction_stats(fn, model, [ContextSet(item=0, windows=())])


# ------------------------------------------------- inference, injection


def head_tail_partition(head, tail):
    return PopularityPartition(tau=0.5,
                               head_set=np.asarray(sorted(head)),
                               tail_set=np.asarray(sorted(tail)),
                               threshold_count=1)


def test_infer_embeddings_head_passthrough_and_tail_replacement():
    model = tiny_model("transformer", seed=2)
    fn = default_fn(model)
    part = head_tail_partition(head=range(10), tail=range(10, N_ITEMS))
    wins = (win([1, 2], [3]), win([4], [5, 6]), win([7, 8, 9], []))
    sets = [ContextSet(item=12, windows=wins)]
    entries = infer_embeddings(fn, model, sets, part)
    assert len(entries) == N_ITEMS

    for e in entries:
        if e.item in set(range(10)):
            assert e.provenance == "original"
            assert np.array_equal(e.vector, model.table.weights.values[e.item])

    twelve = entries[12]
    assert twelve.provenance == "inferred"
    reps = interpret_context(fn, model, list(wins))
    assert np.array_equal(twelve.vector, aggregate(fn, reps).values[0])

    # contextless tail item keeps its pretrained row
    thirteen = entries[13]
    assert thirteen.provenance == "original"
    assert np.array_equal(thirteen.vector, model.table.weights.values[13])


def test_infer_embeddings_caps_window_count():
    model = tiny_model("gru")
    fn = default_fn(model)
    part = head_tail_partition(head=range(10), tail=range(10, N_ITEMS))
    many = tuple(win([i % N_ITEMS, (i * 3) % N_ITEMS]) for i in range(30))
    sets = [ContextSet(item=11, windows=many)]
    entries = infer_embeddings(fn, model, sets, part,
                               rng=np.random.default_rng(0), context_batch_cap=4)
    assert entries[11].provenance == "inferred"
    assert np.all(np.isfinite(entries[11].vector))


def mixed_tail_sets():
    """Tail items with one window (11), four (12), twelve (13, capped in the
    tests below) and none (14)."""
    rng = np.random.default_rng(5)

    def some(k):
        return tuple(win(list(rng.integers(0, N_ITEMS, size=3)),
                         list(rng.integers(0, N_ITEMS, size=2))) for _ in range(k))
    return [ContextSet(item=11, windows=some(1)), ContextSet(item=12, windows=some(4)),
            ContextSet(item=13, windows=some(12)), ContextSet(item=14, windows=())]


def spy_interpret(monkeypatch):
    sizes = []

    def spy(fn, model, windows, *args, **kwargs):
        sizes.append(len(windows))
        return interpret_context(fn, model, windows, *args, **kwargs)
    monkeypatch.setattr(repair, "interpret_context", spy)
    return sizes


@pytest.mark.parametrize("chunk", [1024, 4, 2])
@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_batched_inference_is_bitwise_the_per_item_loop(monkeypatch, variant, chunk):
    # picks of 4 and 5 windows give 9 to batch: with a chunk of 2 or 4 the
    # last chunk would hold one window, which must be folded into the one
    # before it; the one-window item is still encoded alone
    model = tiny_model(variant, seed=3)
    fn = default_fn(model)
    part = head_tail_partition(head=range(10), tail=range(10, N_ITEMS))
    sets = mixed_tail_sets()
    for seed in (21, None):
        rng = None if seed is None else np.random.default_rng(seed)
        want = {cs.item: infer_one(fn, model, cs.windows, rng=rng, context_batch_cap=5)
                for cs in sets if cs.windows}
        after_loop = None if rng is None else rng.random()

        monkeypatch.setattr(repair, "_ENCODE_CHUNK", chunk)
        sizes = spy_interpret(monkeypatch)
        rng = None if seed is None else np.random.default_rng(seed)
        entries = infer_embeddings(fn, model, sets, part, rng=rng, context_batch_cap=5)
        monkeypatch.undo()

        sizes.sort()
        assert sizes[0] == 1 and sizes[1] >= 2  # only the one-window pick runs alone
        assert sum(sizes) == 1 + 4 + 5 and sizes[-1] <= chunk + 1
        if rng is not None:
            assert rng.random() == after_loop  # the same draws, in the same order
        for e in entries:
            if e.item in want:
                assert e.provenance == "inferred"
                assert np.array_equal(e.vector, want[e.item]), (seed, e.item)
            else:
                assert e.provenance == "original"
                assert np.array_equal(e.vector, model.table.weights.values[e.item])


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_shared_window_cache_gives_the_entries_of_fresh_calls(monkeypatch, variant):
    # a sweep keeps one cache across its values: caps change the picks and
    # tau changes which items are tail, but a kept vector is always the one
    # a fresh call would encode
    model = tiny_model(variant, seed=4)
    fn = default_fn(model)
    sets = mixed_tail_sets()
    wide = head_tail_partition(head=range(10), tail=range(10, N_ITEMS))
    narrow = head_tail_partition(head=range(12), tail=range(12, N_ITEMS))
    cache = {}
    for part in (wide, narrow):
        for cap in (3, 64):
            shared = infer_embeddings(fn, model, sets, part, rng=np.random.default_rng(6),
                                      context_batch_cap=cap, cache=cache)
            fresh = infer_embeddings(fn, model, sets, part, rng=np.random.default_rng(6),
                                     context_batch_cap=cap)
            for a, b in zip(shared, fresh, strict=True):
                assert a.provenance == b.provenance
                assert np.array_equal(a.vector, b.vector), (part.head_set.size, cap, a.item)
    assert {k[0] for k in cache} == {11, 12, 13}
    # everything is kept now: a repeated call encodes nothing
    sizes = spy_interpret(monkeypatch)
    infer_embeddings(fn, model, sets, wide, rng=np.random.default_rng(6), context_batch_cap=3,
                     cache=cache)
    assert sizes == []


def test_apply_embeddings_empty_list_is_identity():
    model = tiny_model("transformer")
    out = apply_embeddings(model, [])
    assert params_fingerprint(named_parameters(out)) == params_fingerprint(named_parameters(model))
    assert out.table.weights.values is not model.table.weights.values


def test_apply_embeddings_touches_only_inferred_rows():
    model = tiny_model("gru", seed=8)
    vec = np.full(D, 0.25)
    out = apply_embeddings(model, [InferredEmbedding(14, vec, "inferred"),
                                   InferredEmbedding(3, np.ones(D), "original")])
    assert np.array_equal(out.table.weights.values[14], vec)
    assert np.array_equal(out.table.weights.values[3], model.table.weights.values[3])
    for name, t in named_parameters(out):
        if name == "table.weights":
            continue
        assert np.array_equal(t.values, dict(named_parameters(model))[name].values)


def test_apply_embeddings_scores_through_shared_table():
    # a head-only history leaves the user state untouched, so the score delta
    # for an overwritten row is exactly the inner product with the new row
    model = tiny_model("transformer", seed=4)
    vec = np.linspace(-0.5, 0.5, D)
    out = apply_embeddings(model, [InferredEmbedding(15, vec, "inferred")])
    m = ranking_states(out, [[0, 1, 2, 3]])
    expected = m.values[0] @ vec + out.table.item_bias.values[15]
    got = score(m, out.table).values[0, 15]
    assert np.allclose(got, expected, atol=1e-12)


def test_apply_embeddings_rejects_bad_rows():
    model = tiny_model("transformer")
    with pytest.raises(DataError):
        apply_embeddings(model, [InferredEmbedding(2, np.ones(D + 1), "inferred")])
    with pytest.raises(DataError):
        apply_embeddings(model, [InferredEmbedding(N_ITEMS, np.ones(D), "inferred")])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apply_embeddings_rejects_non_finite_rows(bad):
    model = tiny_model("gru", seed=8)
    before = model.table.weights.values.copy()
    vec = np.full(D, 0.25)
    vec[3] = bad
    with pytest.raises(DataError, match="not finite"):
        apply_embeddings(model, [InferredEmbedding(5, np.ones(D), "inferred"),
                                 InferredEmbedding(14, vec, "inferred")])
    assert np.array_equal(model.table.weights.values, before)


def test_new_item_row_appended_without_touching_base():
    model = tiny_model("transformer", seed=6)
    before = params_fingerprint(named_parameters(model))
    fn = default_fn(model)
    (entry,), extended = infer_new_items(fn, model, [[win([1, 2], [3, 4])]])

    assert params_fingerprint(named_parameters(model)) == before
    assert entry.item == N_ITEMS
    assert extended.config.n_items == N_ITEMS + 1
    w_old, w_new = model.table.weights.values, extended.table.weights.values
    assert np.array_equal(w_new[:N_ITEMS], w_old[:N_ITEMS])
    assert np.array_equal(w_new[N_ITEMS], entry.vector)
    assert np.array_equal(w_new[N_ITEMS + 1], w_old[N_ITEMS])      # pad
    assert np.array_equal(w_new[N_ITEMS + 2], w_old[N_ITEMS + 1])  # [mask]
    assert extended.table.item_bias.values[N_ITEMS] == 0.0
    assert np.array_equal(
        extended.encoder.blocks[0].wq.values, model.encoder.blocks[0].wq.values)

    # the vector is the plain eval-mode output over the given windows
    assert np.array_equal(entry.vector, infer_one(fn, model, [win([1, 2], [3, 4])]))


def test_new_item_scores_immediately():
    model = tiny_model("gru", seed=9)
    fn = default_fn(model)
    _, extended = infer_new_items(fn, model, [[win([5, 6, 7])]])
    m = ranking_states(extended, [[0, 1, 2]])
    s = score(m, extended.table).values
    assert s.shape == (1, N_ITEMS + 1)
    assert np.all(np.isfinite(s))


def test_new_item_input_validation():
    model = tiny_model("transformer")
    fn = default_fn(model)
    with pytest.raises(DataError):
        infer_new_items(fn, model, [[]])
    with pytest.raises(DataError):
        infer_new_items(fn, model, [[win([N_ITEMS], [2])]])  # pad index leaked in


def test_nearest_head_distance_hand_fixture():
    weights = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 0.0], [10.0, 0.0],
                        [0.0, 0.0], [0.0, 0.0]])
    part = head_tail_partition(head=[0, 1], tail=[2, 3])
    # tail row 2 is 1 away from head 0; tail row 3 is 6 away from head 1
    assert nearest_head_distance(weights, part) == pytest.approx(3.5)


# --------------------------------------------------------- persistence


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_inference_checkpoint_round_trip(tmp_path, variant):
    model = tiny_model(variant, seed=3)
    fn = default_fn(model)
    src = params_fingerprint(named_parameters(model))
    path = tmp_path / "fn.json"
    save_inference_function(path, fn, src, catalog_hash="abc", meta={"note": 1})
    loaded, meta, got_src, cat = load_inference_function(path, expected_source_fingerprint=src)
    assert inference_fingerprint(loaded) == inference_fingerprint(fn)
    assert loaded.interpreter.frozen == fn.interpreter.frozen
    assert (loaded.omega1, loaded.omega2) == (fn.omega1, fn.omega2)
    assert meta == {"note": 1} and got_src == src and cat == "abc"

    wins = [win([1, 2], [3])] if variant == "transformer" else [win([1, 2])]
    assert np.array_equal(infer_one(loaded, model, wins), infer_one(fn, model, wins))


def test_inference_checkpoint_lineage_refusal(tmp_path):
    model = tiny_model("transformer")
    fn = default_fn(model)
    path = tmp_path / "fn.json"
    save_inference_function(path, fn, "deadbeef" * 8)
    with pytest.raises(DataError, match="different base checkpoint"):
        load_inference_function(path, expected_source_fingerprint="f00dcafe" * 8)
