"""Example construction, loss values, and end-to-end training behavior."""

import numpy as np
import pytest

from tailrec.data import (
    LeaveOneOutSplit,
    build_sequences,
    split_leave_one_out,
)
from tailrec.errors import ConfigError, TrainingError
from tailrec.evaluate import ModelRanker, PopRanker, build_test_candidates, rank_of_truth
from tailrec.model import ModelConfig, init_model, named_parameters, params_fingerprint
from tailrec.optim import AdamState, adam_step
from tailrec.pretrain import (
    PretrainConfig,
    make_masked_examples,
    make_next_item_examples,
    _masked_positions_loss,
    _next_item_loss,
    nll_loss,
    pretrain,
    validate,
)
from tailrec.synthetic import synthetic_interactions
from tailrec.tensor import Tape, Tensor

PAD, MASK = 1000, 1001


def split_of(*trains, valid=None, test=None):
    n = len(trains)
    return LeaveOneOutSplit(
        users=[f"u{i}" for i in range(n)],
        train=[np.asarray(t, dtype=np.int64) for t in trains],
        valid=np.asarray(valid if valid is not None else np.zeros(n), dtype=np.int64),
        test=np.asarray(test if test is not None else np.zeros(n), dtype=np.int64),
    )


def validation_candidates(split, catalog, n_negatives, rng):
    """The candidate rows ``pretrain`` validates on: truth ``split.valid``."""
    return build_test_candidates(
        split.valid, split.full_sequences(), catalog,
        n_negatives, rng)


def cfg(variant, **kw):
    defaults = dict(max_len=8, d=8, n_blocks=1, n_heads=2, dropout_rate=0.0,
                    warmup_steps=5, epochs=2, batch_size=16, seed=0, n_negatives=5)
    defaults.update(kw)
    return PretrainConfig(variant=variant, **defaults)


# ------------------------------------------------- masked example construction


def test_masked_slots_carry_mask_token_and_targets():
    split = split_of([3, 4, 5, 6, 7])
    inputs, targets = make_masked_examples(split, cfg("transformer"), np.random.default_rng(0), PAD, MASK)
    assert inputs.shape == targets.shape == (1, 8)
    row, tgt = inputs[0], targets[0]
    np.testing.assert_array_equal(row[:3], [PAD, PAD, PAD])
    original = np.array([3, 4, 5, 6, 7])
    masked = row[3:] == MASK
    assert masked.any()  # at least one slot masked
    np.testing.assert_array_equal(tgt[3:][masked], original[masked])
    np.testing.assert_array_equal(row[3:][~masked], original[~masked])
    assert np.all(tgt[3:][~masked] == -1)
    assert np.all(tgt[:3] == -1)


def test_mask_probability_near_one_masks_everything():
    split = split_of([3, 4, 5, 6, 7])
    config = cfg("transformer", mask_probability=0.999)
    inputs, targets = make_masked_examples(split, config, np.random.default_rng(1), PAD, MASK)
    assert np.all(inputs[0][3:] == MASK)
    np.testing.assert_array_equal(targets[0][3:], [3, 4, 5, 6, 7])


def test_long_history_produces_sliding_windows():
    split = split_of(np.arange(20))
    inputs, _ = make_masked_examples(split, cfg("transformer"), np.random.default_rng(2), PAD, MASK)
    assert len(inputs) == 3  # 20 items at window 8: [12..20), [4..12), [0..4)
    tail_window = inputs[0]
    real = tail_window != PAD
    reconstructed = np.where(tail_window[real] == MASK, -1, tail_window[real])
    # windows align to the end of the history
    assert reconstructed[-1] in (-1, 19)


def test_empirical_mask_rate_monte_carlo():
    split = split_of(np.arange(1000) % 37)
    config = cfg("transformer", max_len=50, mask_probability=0.2)
    rng = np.random.default_rng(3)
    masked = total = 0
    for _ in range(5):
        inputs, _ = make_masked_examples(split, config, rng, PAD, MASK)
        real = inputs != PAD
        masked += int(((inputs == MASK) & real).sum())
        total += int(real.sum())
    assert total == 5000
    assert abs(masked / total - 0.2) < 0.005 * 4  # 4x the 1e5-sample band: only 5e3 positions here


def test_mask_rate_large_sample():
    # the 1e5-position version, run at the stated tolerance
    split = split_of(*[np.arange(50) for _ in range(40)])
    config = cfg("transformer", max_len=50, mask_probability=0.2)
    rng = np.random.default_rng(4)
    masked = total = 0
    for _ in range(50):
        inputs, _ = make_masked_examples(split, config, rng, PAD, MASK)
        real = inputs != PAD
        masked += int(((inputs == MASK) & real).sum())
        total += int(real.sum())
    assert total == 100_000
    assert abs(masked / total - 0.2) < 0.005


# ------------------------------------------------- next-item examples


def test_next_item_pairs():
    split = split_of([10, 11, 12])
    inputs, truths = make_next_item_examples(split, cfg("gru"), PAD)
    assert len(inputs) == 2
    np.testing.assert_array_equal(inputs[0][-1:], [10])
    assert truths[0] == 11
    np.testing.assert_array_equal(inputs[1][-2:], [10, 11])
    assert truths[1] == 12
    assert np.all(inputs[0][:-1] == PAD)


def test_single_item_train_portion_yields_nothing():
    split = split_of([10, 11, 12], [5])
    inputs, truths = make_next_item_examples(split, cfg("gru"), PAD)
    assert len(inputs) == 2  # only the first user contributes


def test_example_count_matches_counting_oracle():
    rows = synthetic_interactions(n_users=50, n_items=25, seed=7)
    catalog, seqs = build_sequences(rows)
    split = split_leave_one_out(catalog, seqs)
    inputs, _ = make_next_item_examples(split, cfg("gru", max_len=10), catalog.pad_index)
    expected = sum(max(0, len(t) - 1) for t in split.train)
    assert len(inputs) == expected


def test_prefix_capped_at_max_len():
    split = split_of(np.arange(30))
    config = cfg("gru", max_len=8)
    inputs, truths = make_next_item_examples(split, config, PAD)
    last = inputs[-1]
    assert truths[-1] == 29
    np.testing.assert_array_equal(last, np.arange(21, 29))


# ------------------------------------------------- loss


def test_nll_two_class_value():
    s = Tensor(np.array([[2.0, 0.0]]))
    loss = nll_loss(s, [0]).item()
    assert abs(loss - np.log(1 + np.exp(-2.0))) < 1e-12
    assert abs(loss - 0.1269) < 1e-4


def test_nll_uniform_scores_log_n():
    for n in (2, 7, 101):
        s = Tensor(np.zeros((1, n)))
        assert abs(nll_loss(s, [3 % n]).item() - np.log(n)) < 1e-12


def test_nll_decreases_as_truth_score_rises():
    others = np.array([0.3, -0.2, 1.0])
    prev = np.inf
    for truth_score in (-1.0, 0.0, 1.0, 3.0):
        s = Tensor(np.concatenate([[truth_score], others])[None, :])
        cur = nll_loss(s, [0]).item()
        assert cur < prev
        prev = cur


def test_nll_batched_is_mean_of_singletons():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((4, 9))
    truth = rng.integers(0, 9, size=4)
    batch = nll_loss(Tensor(scores), truth).item()
    singles = [nll_loss(Tensor(scores[i : i + 1]), [truth[i]]).item() for i in range(4)]
    assert abs(batch - np.mean(singles)) < 1e-12


# ------------------------------------------------- training loop


def small_corpus(n_users=30, n_items=15, seed=0):
    rows = synthetic_interactions(
        n_users=n_users, n_items=n_items, transition_prob=0.7, min_len=5, max_len=12, seed=seed
    )
    catalog, seqs = build_sequences(rows)
    split = split_leave_one_out(catalog, seqs)
    return catalog, split


def test_zero_epochs_returns_initialization():
    catalog, split = small_corpus()
    config = cfg("gru", epochs=0)
    model, history = pretrain(split, catalog, config)
    fresh, _ = pretrain(split, catalog, config)
    assert history == []
    assert params_fingerprint(named_parameters(model)) == params_fingerprint(named_parameters(fresh))


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_same_seed_same_checkpoint(variant):
    catalog, split = small_corpus()
    config = cfg(variant, epochs=2, dropout_rate=0.1)
    a, ha = pretrain(split, catalog, config)
    b, hb = pretrain(split, catalog, config)
    assert ha == hb
    assert params_fingerprint(named_parameters(a)) == params_fingerprint(named_parameters(b))


def test_pad_row_stays_zero_and_gru_mask_row_untouched():
    catalog, split = small_corpus()
    model, _ = pretrain(split, catalog, cfg("gru", epochs=2))
    np.testing.assert_array_equal(model.table.weights.values[model.table.pad_index], 0.0)
    np.testing.assert_array_equal(model.table.weights.values[model.table.mask_index], 0.0)
    tmodel, _ = pretrain(split, catalog, cfg("transformer", epochs=1))
    np.testing.assert_array_equal(tmodel.table.weights.values[tmodel.table.pad_index], 0.0)
    assert np.abs(tmodel.table.weights.values[tmodel.table.mask_index]).max() > 0


def test_history_schema_and_length():
    catalog, split = small_corpus()
    _, history = pretrain(split, catalog, cfg("gru", epochs=3))
    assert [h["epoch"] for h in history] == [0, 1, 2]
    for h in history:
        assert set(h) == {"epoch", "train_loss", "val_hr5", "val_hr10", "val_mrr"}
        assert np.isfinite(h["train_loss"])


def test_no_leakage_of_heldout_items():
    # items 96/97 exist only at validation/test positions; examples must not see them
    split = split_of([1, 2, 3, 1, 2], [2, 3, 1, 2, 1],
                     valid=[96, 96], test=[97, 97])
    inputs, targets = make_masked_examples(split, cfg("transformer"), np.random.default_rng(0), PAD, MASK)
    assert not np.isin([96, 97], inputs).any()
    assert not np.isin([96, 97], targets).any()
    gi, gt = make_next_item_examples(split, cfg("gru"), PAD)
    assert not np.isin([96, 97], gi).any()
    assert not np.isin([96, 97], gt).any()


def test_overfit_single_example():
    # one user, one training pair, many epochs: loss must collapse
    split = split_of([4, 9])
    catalog_pop = np.zeros(12, dtype=np.int64)
    from tailrec.data import Catalog

    catalog = Catalog(
        item_ids=[f"i{k}" for k in range(12)],
        index_of={f"i{k}": k for k in range(12)},
        full_popularity=np.ones(12, dtype=np.int64),
        train_popularity=catalog_pop,
        test_popularity=np.zeros(12, dtype=np.int64),
    )
    config = cfg("gru", epochs=300, learning_rate=0.01, warmup_steps=10,
                 l2_coefficient=0.0, n_negatives=5)
    model, history = pretrain(split, catalog, config)
    losses = [h["train_loss"] for h in history]
    assert losses[-1] < 0.01
    after_warmup = losses[20:]
    increases = [b - a for a, b in zip(after_warmup, after_warmup[1:]) if b > a]
    assert not increases or max(increases) < 0.05  # near-monotone descent


def test_divergence_raises_training_error():
    # an absurd learning rate overflows the attention stack within a step or two
    catalog, split = small_corpus()
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch"):
        pretrain(
            split, catalog,
            cfg("transformer", learning_rate=1e300, epochs=2, warmup_steps=0, l2_coefficient=0.0),
        )


def test_config_validation():
    with pytest.raises(ConfigError):
        PretrainConfig(variant="gru", max_len=1)
    with pytest.raises(ConfigError):
        PretrainConfig(variant="gru", mask_probability=0.0)
    with pytest.raises(ConfigError):
        PretrainConfig(variant="gru", mask_probability=1.0)


def test_gru_beats_pop_on_planted_transitions():
    rows = synthetic_interactions(
        n_users=120, n_items=60, transition_prob=0.75, min_len=6, max_len=20, seed=11
    )
    catalog, seqs = build_sequences(rows)
    split = split_leave_one_out(catalog, seqs)
    config = cfg("gru", d=16, max_len=10, epochs=12, learning_rate=0.005,
                 warmup_steps=20, batch_size=64, n_negatives=30)
    model, history = pretrain(split, catalog, config)

    candidates = validation_candidates(split, catalog, 30, np.random.default_rng([0, 3]))
    pop = PopRanker(catalog)
    scores = pop.score_batch([split.train[u] for u in range(split.n_users)], candidates)
    pop_ranks = np.array([rank_of_truth(scores[u], candidates[u]) for u in range(split.n_users)])
    pop_hr10 = float((pop_ranks <= 10).mean())
    best_model_hr10 = max(h["val_hr10"] for h in history)
    assert best_model_hr10 > pop_hr10, f"GRU {best_model_hr10:.3f} vs POP {pop_hr10:.3f}"


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_validate_ranks_from_the_evaluation_state(variant):
    # validate picks the checkpoint, so it must rank from the state evaluation uses
    catalog, split = small_corpus()
    model, _ = pretrain(split, catalog, cfg(variant, epochs=1, max_len=5))
    candidates = validation_candidates(split, catalog, 5, np.random.default_rng(1))
    scores = ModelRanker(model).score_batch(split.train, candidates)
    ranks = np.array([rank_of_truth(s, c) for s, c in zip(scores, candidates)])
    metrics = validate(model, split, candidates, batch_size=7)
    assert metrics == {
        "hr5": float((ranks <= 5).mean()),
        "hr10": float((ranks <= 10).mean()),
        "mrr": float((1.0 / ranks).mean()),
    }


def _tape_tensors(tape):
    """Every Tensor a recorded closure holds: the ops' inputs and outputs."""
    found = {}
    for fn in tape._records:
        for cell in fn.__closure__ or ():
            if isinstance(cell.cell_contents, Tensor):
                found[id(cell.cell_contents)] = cell.cell_contents
    return list(found.values())


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_no_two_tensors_share_a_gradient_buffer(variant):
    n, ml = 30, 7
    cfg = ModelConfig(variant=variant, n_items=n, d=8, n_blocks=2, n_heads=2, max_len=ml,
                      dropout_rate=0.2)
    model = init_model(cfg, np.random.default_rng(0))
    params = [t for _, t in named_parameters(model)]
    opt = AdamState(peak_lr=1e-3)
    rng = np.random.default_rng(1)
    items = rng.integers(0, n, (6, ml))
    items[:, :2] = n  # two leading all-pad columns
    targets = np.where((rng.random(items.shape) < 0.4) & (items < n), items, -1)
    targets[:, -1] = items[:, -1]
    for step in range(2):  # the second step accumulates into the optimizer's store
        with Tape() as tape:
            if variant == "transformer":
                loss = _masked_positions_loss(model, np.where(targets >= 0, n + 1, items),
                                              targets, rng)
            else:
                loss = _next_item_loss(model, items[:, :-1], items[:, -1], rng)
        tape.backward(loss)
        if step == 1:
            grads = [t.grad for t in _tape_tensors(tape) if t.grad is not None]
            assert len(grads) > len(params)
            spans = sorted(np.lib.array_utils.byte_bounds(g) for g in grads)
            for (_, end), (begin, _) in zip(spans, spans[1:]):
                assert end <= begin  # no two gradient buffers overlap
            assert all(p.grad.base is opt.grad for p in params)
        adam_step(opt, params)
