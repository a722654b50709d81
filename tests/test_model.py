"""Encoder forward/backward behavior, weight sharing, checkpoints."""

import numpy as np
import pytest

from tailrec import tensor as T
from tailrec.errors import ConfigError, DataError
from tailrec.model import (
    ModelConfig,
    catalog_hash,
    clone_model,
    embed_sequence,
    encode,
    encode_gru,
    init_model,
    load_checkpoint,
    named_parameters,
    pad_batch,
    params_fingerprint,
    ranking_states,
    save_checkpoint,
    score,
    score_candidates,
)
from tailrec.pretrain import _next_item_loss
from tailrec.tensor import Tape, Tensor


def tiny(variant, n_items=9, d=8, n_blocks=1, n_heads=2, max_len=6, seed=0, dropout=0.0):
    cfg = ModelConfig(variant=variant, n_items=n_items, d=d, n_blocks=n_blocks,
                      n_heads=n_heads, max_len=max_len, dropout_rate=dropout)
    return init_model(cfg, np.random.default_rng(seed))


# ------------------------------------------------------------ embedding layer


def test_pad_batch_left_pads_and_truncates():
    out = pad_batch([[1, 2, 3], [4, 5, 6, 7, 8, 9, 10]], 5, 99)
    np.testing.assert_array_equal(out[0], [99, 99, 1, 2, 3])
    np.testing.assert_array_equal(out[1], [6, 7, 8, 9, 10])


def test_zero_table_embeds_to_zero():
    m = tiny("gru")
    m.table.weights.values[:] = 0.0
    e, real = embed_sequence(m.table, np.array([1, 2]), m.config.max_len)
    np.testing.assert_array_equal(e.values, np.zeros((1, 6, 8)))
    np.testing.assert_array_equal(real[0], [False, False, False, False, True, True])


def test_lookup_stacks_named_rows():
    m = tiny("gru", max_len=2)
    e, _ = embed_sequence(m.table, np.array([2, 7]), 2)
    np.testing.assert_array_equal(e.values[0, 0], m.table.weights.values[2])
    np.testing.assert_array_equal(e.values[0, 1], m.table.weights.values[7])


def test_short_sequence_pads_with_zero_rows():
    m = tiny("gru", max_len=5)
    e, real = embed_sequence(m.table, np.array([1, 2, 3]), 5)
    np.testing.assert_array_equal(e.values[0, :2], np.zeros((2, 8)))
    assert real[0].tolist() == [False, False, True, True, True]


def test_out_of_range_index_rejected():
    m = tiny("gru")
    with pytest.raises(IndexError):
        embed_sequence(m.table, np.array([m.table.mask_index + 1]), 6)
    with pytest.raises(IndexError):
        embed_sequence(m.table, np.array([-1]), 6)


# ------------------------------------------------------------ transformer


def test_zero_weight_transformer_collapses_to_head_bias():
    m = tiny("transformer", n_blocks=1)
    for name, t in named_parameters(m):
        t.values[:] = 0.0
        if name.endswith("gain"):
            t.values[:] = 1.0
    b = np.linspace(-1.0, 1.0, m.config.d)
    m.encoder.head_b.values[:] = b
    out = ranking_states(m, [[1, 2, 3]])
    from scipy.special import erf

    expected = b * 0.5 * (1 + erf(b / np.sqrt(2)))
    np.testing.assert_allclose(out.values[0], expected, atol=1e-12)


def test_transformer_activation_shapes():
    # one hidden state per input column, no extra column; the user state is
    # one d-vector per history
    m = tiny("transformer", max_len=6, n_blocks=2)
    histories = [[1, 2, 3, 4, 5, 6], [7, 8]]
    assert encode(m, pad_batch(histories, 6, m.table.pad_index)).shape == (2, 6, 8)
    assert m.table.positional.shape == (6, 8)
    assert ranking_states(m, histories).shape == (2, 8)


def test_pad_row_content_cannot_leak_into_state():
    m = tiny("transformer")
    batch = pad_batch([[1, 2]], 6, m.table.pad_index)
    before, hidden_before = ranking_states(m, [[1, 2]]), encode(m, batch)
    m.table.weights.values[m.table.pad_index] = 1e3  # garbage in the pad row
    after, hidden_after = ranking_states(m, [[1, 2]]), encode(m, batch)
    np.testing.assert_allclose(after.values, before.values, atol=1e-9)
    real = batch[0] != m.table.pad_index
    np.testing.assert_allclose(hidden_after.values[0, real], hidden_before.values[0, real],
                               atol=1e-9)


def test_gru_pad_row_content_cannot_leak():
    m = tiny("gru")
    batch = pad_batch([[1, 2]], 6, m.table.pad_index)
    before = encode(m, batch)
    m.table.weights.values[m.table.pad_index] = -7.0
    after = encode(m, batch)
    np.testing.assert_allclose(after.values, before.values, atol=0)


def test_eval_mode_forward_is_bitwise_deterministic():
    for variant in ("transformer", "gru"):
        m = tiny(variant, dropout=0.3)
        batch = pad_batch([[1, 2, 3, 4]], 6, m.table.pad_index)
        np.testing.assert_array_equal(encode(m, batch, training=False).values,
                                      encode(m, batch, training=False).values)
        np.testing.assert_array_equal(ranking_states(m, [[1, 2, 3, 4]]).values,
                                      ranking_states(m, [[1, 2, 3, 4]]).values)


def test_bad_head_count_rejected():
    with pytest.raises(ConfigError):
        ModelConfig(variant="transformer", n_items=5, d=9, n_heads=2)
    with pytest.raises(ConfigError):
        ModelConfig(variant="lstm", n_items=5)


# ------------------------------------------------------------ gru


def test_zero_weight_gru_outputs_zero_state():
    m = tiny("gru")
    for _, t in named_parameters(m):
        t.values[:] = 0.0
    out = encode(m, pad_batch([[1, 2, 3]], 6, m.table.pad_index))
    np.testing.assert_array_equal(out.values, np.zeros((1, 8)))


def test_single_step_gru_matches_hand_arithmetic():
    # d=1 so every gate is scalar arithmetic we can do by hand
    cfg = ModelConfig(variant="gru", n_items=3, d=1, max_len=2)
    m = init_model(cfg, np.random.default_rng(0))
    g = m.encoder.gru
    x = 0.7
    m.table.weights.values[1] = x
    wz, uz, bz = 0.3, -0.4, 0.1
    wr, ur, br = 0.2, 0.5, -0.1
    wc, uc, bc = 0.9, 0.6, 0.05
    g.wz.values[:] = wz; g.uz.values[:] = uz; g.bz.values[:] = bz
    g.wr.values[:] = wr; g.ur.values[:] = ur; g.br.values[:] = br
    g.wc.values[:] = wc; g.uc.values[:] = uc; g.bc.values[:] = bc

    h = 0.0
    z = 1 / (1 + np.exp(-(x * wz + h * uz + bz)))
    c = np.tanh(x * wc + (1 / (1 + np.exp(-(x * wr + h * ur + br)))) * h * uc + bc)
    expected = h + z * (c - h)

    out = encode(m, pad_batch([[1]], 2, m.table.pad_index))
    np.testing.assert_allclose(out.values[0, 0], expected, atol=1e-12)


def test_next_item_tape_does_not_grow_with_max_len():
    # the GRU recurrence is one tape record however many steps it runs
    records = []
    for max_len in (4, 16):
        m = tiny("gru", max_len=max_len)
        batch = pad_batch([[1, 2, 3], [4, 5, 6, 7, 8, 1, 2]], max_len, m.table.pad_index)
        with Tape() as tape:
            _next_item_loss(m, batch, np.array([4, 3]), np.random.default_rng(0))
        records.append(len(tape))
    assert records[0] == records[1]


def test_gru_prefix_padding_is_identity():
    m = tiny("gru", max_len=8)
    seq = np.array([1, 2, 3])
    e_short, real_short = embed_sequence(m.table, pad_batch([seq], 3, m.table.pad_index), 3)
    e_long, real_long = embed_sequence(m.table, pad_batch([seq], 8, m.table.pad_index), 8)
    short = encode_gru(m.encoder, e_short, real_short)
    long = encode_gru(m.encoder, e_long, real_long)
    np.testing.assert_allclose(short.values, long.values, atol=1e-12)


# ------------------------------------------------------------ scoring


def test_score_inner_products():
    m = tiny("gru", n_items=2, d=2)
    m.table.weights.values[0] = [1.0, 0.0]
    m.table.weights.values[1] = [0.0, 1.0]
    m.table.item_bias.values[:] = 0.0
    out = score(Tensor(np.array([[1.0, 0.0]])), m.table)
    np.testing.assert_allclose(out.values, [[1.0, 0.0]])


def test_zero_state_scores_equal_bias():
    m = tiny("gru", n_items=4, d=3)
    m.table.item_bias.values[:] = [0.5, -1.0, 2.0, 0.0]
    out = score(Tensor(np.zeros((1, 3))), m.table)
    np.testing.assert_allclose(out.values[0], m.table.item_bias.values)


def test_ranking_matches_brute_force_dot_sort():
    rng = np.random.default_rng(7)
    m = tiny("gru", n_items=5, d=4)
    state = rng.standard_normal((1, 4))
    out = score(Tensor(state), m.table).values[0]
    brute = np.array([
        state[0] @ m.table.weights.values[j] + m.table.item_bias.values[j] for j in range(5)
    ])
    np.testing.assert_allclose(out, brute, atol=1e-12)
    assert np.argsort(-out).tolist() == np.argsort(-brute).tolist()


def test_score_candidates_matches_full_score():
    rng = np.random.default_rng(3)
    m = tiny("transformer", n_items=7, d=8)
    state = Tensor(rng.standard_normal((2, 8)))
    cand = np.array([[0, 3, 5], [6, 1, 2]])
    full = score(state, m.table).values
    sub = score_candidates(state, m.table, cand).values
    np.testing.assert_allclose(sub, np.take_along_axis(full, cand, axis=1), atol=1e-12)


def test_weight_sharing_one_storage():
    m = tiny("gru", n_items=4, d=3, max_len=2)
    state = Tensor(np.ones((1, 3)))
    before_score = score(state, m.table).values[0, 2]
    before_embed, _ = embed_sequence(m.table, np.array([2]), 2)
    m.table.weights.values[2] += 1.0
    after_score = score(state, m.table).values[0, 2]
    after_embed, _ = embed_sequence(m.table, np.array([2]), 2)
    assert after_score != before_score
    assert not np.allclose(after_embed.values[0, -1], before_embed.values[0, -1])


# ------------------------------------------------------------ gradients reach the table


def _loss_for(m, histories, truth):
    s = score(ranking_states(m, histories), m.table)
    lse = T.logsumexp(s, axis=-1)
    picked = T.take_rows(T.transpose(s, (1, 0)), np.asarray(truth))
    return T.sub(T.mean_(lse), T.mean_(picked))


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_gradient_reaches_every_non_pad_input_row(variant):
    m = tiny(variant)
    with Tape() as tape:
        loss = _loss_for(m, [[1, 2, 3]], [4])
    tape.backward(loss)
    g = m.table.weights.grad
    for row in (1, 2, 3):
        assert np.abs(g[row]).max() > 0, f"row {row} got no gradient"


def test_mask_row_gradient_only_for_transformer():
    # ranking feeds the transformer a [mask] after the history; the GRU never
    mt = tiny("transformer")
    with Tape() as tape:
        loss = _loss_for(mt, [[1, 2, 3]], [4])
    tape.backward(loss)
    assert np.abs(mt.table.weights.grad[mt.table.mask_index]).max() > 0

    mg = tiny("gru")
    with Tape() as tape:
        loss = _loss_for(mg, [[1, 2, 3]], [4])
    tape.backward(loss)
    g = mg.table.weights.grad
    assert np.abs(g[mg.table.mask_index]).max() == 0.0


@pytest.mark.parametrize("variant", ["transformer", "gru"])
def test_end_to_end_finite_difference(variant):
    """Whole-model gradient check through encoder + shared-table scoring."""
    m = tiny(variant, n_items=6, d=4, max_len=4, n_heads=2)
    history = [[1, 2, 3]]
    params = named_parameters(m)
    with Tape() as tape:
        loss = _loss_for(m, history, [5])
    tape.backward(loss)

    rng = np.random.default_rng(0)
    eps = 1e-5
    for name, t in params:
        flat = t.values.reshape(-1)
        gflat = (t.grad if t.grad is not None else np.zeros_like(t.values)).reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            up = _loss_for(m, history, [5]).item()
            flat[i] = orig - eps
            dn = _loss_for(m, history, [5]).item()
            flat[i] = orig
            fd = (up - dn) / (2 * eps)
            # floor the denominator at the FD noise scale so tiny true
            # gradients don't fail on difference-quotient roundoff
            rel = abs(gflat[i] - fd) / max(abs(fd), abs(gflat[i]), 1e-5)
            assert rel < 1e-4, f"{name}[{i}]: analytic {gflat[i]:.3e} vs fd {fd:.3e}"


def test_numerical_stability_random_parameter_smoke():
    """All activations stay finite for random parameter draws in [-1, 1]."""
    rng = np.random.default_rng(0)
    for variant in ("transformer", "gru"):
        m = tiny(variant, n_items=5, d=4, max_len=4, n_blocks=1, n_heads=2)
        batch = pad_batch([[1, 2, 3, 4]], 4, m.table.pad_index)
        for _ in range(5000):
            for _, t in named_parameters(m):
                t.values[:] = rng.uniform(-1, 1, t.values.shape)
            hidden = encode(m, batch)
            out = ranking_states(m, [[1, 2, 3, 4]])
            s = score(out, m.table)
            assert np.all(np.isfinite(hidden.values))
            assert np.all(np.isfinite(out.values))
            assert np.all(np.isfinite(s.values))


# ------------------------------------------------------------ checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    m = tiny("transformer", seed=5)
    h = catalog_hash([f"i{k}" for k in range(9)])
    p = tmp_path / "model.ckpt.json"
    save_checkpoint(p, m, h, "pretrain", meta={"seed": 5})
    loaded, meta, kind, stored_hash = load_checkpoint(p, expected_catalog_hash=h)
    assert kind == "pretrain" and meta == {"seed": 5} and stored_hash == h
    assert params_fingerprint(named_parameters(loaded)) == params_fingerprint(named_parameters(m))


def test_checkpoint_rejects_wrong_catalog(tmp_path):
    m = tiny("gru")
    p = tmp_path / "m.json"
    save_checkpoint(p, m, catalog_hash(["a", "b"]), "pretrain")
    with pytest.raises(DataError):
        load_checkpoint(p, expected_catalog_hash=catalog_hash(["a", "c"]))


def test_same_seed_same_init():
    a = tiny("transformer", seed=11)
    b = tiny("transformer", seed=11)
    assert params_fingerprint(named_parameters(a)) == params_fingerprint(named_parameters(b))


def test_clone_is_independent_storage():
    m = tiny("gru")
    c = clone_model(m)
    assert params_fingerprint(named_parameters(m)) == params_fingerprint(named_parameters(c))
    c.table.weights.values[0] += 1.0
    assert params_fingerprint(named_parameters(m)) != params_fingerprint(named_parameters(c))


def test_pad_and_mask_rows_initialized_inert():
    mt = tiny("transformer")
    np.testing.assert_array_equal(mt.table.weights.values[mt.table.pad_index], 0.0)
    mg = tiny("gru")
    np.testing.assert_array_equal(mg.table.weights.values[mg.table.pad_index], 0.0)
    np.testing.assert_array_equal(mg.table.weights.values[mg.table.mask_index], 0.0)
