"""Windowed decay attention kernels: filter, rounding, shifts, scores."""

import numpy as np
import pytest

from ds2ta.errors import (ConfigError, DimensionError, InputError,
                          PrecisionError)
from ds2ta.tasa import (AttentionScores, attention_scores, decay_factors,
                        explicit_sta_oracle, merge_heads, shift_decay_apply,
                        split_heads, tau_round_ste, temporal_filter)
from ds2ta.tensorcore import (Tape, check_gradients, make_rng, mul, reduce_mean,
                              reduce_sum)


def test_decay_factors():
    assert np.array_equal(decay_factors(1.0, 3), [1.0, 0.5, 0.25])
    assert np.array_equal(decay_factors(0.0, 4), np.ones(4))
    assert np.allclose(decay_factors(2.0, 3), [1.0, 0.25, 0.0625])


# -------------------------------------------------------------- the filter


def test_filter_hand_computed_window():
    # x = [1, 0, 1], window 3, tau = 2 (per-lag factors 1, 1/4, 1/16):
    #   out[0] = 1
    #   out[1] = 0 + 1/4 * 1          = 0.25
    #   out[2] = 1 + 1/4 * 0 + 1/16   = 1.0625
    tape = Tape()
    x = tape.leaf(np.array([[1.0], [0.0], [1.0]]))
    out = temporal_filter(x, 3, 2)
    assert np.array_equal(out.value.data.ravel(), [1.0, 0.25, 1.0625])


def test_filter_window_one_is_identity():
    rng = make_rng(1)
    x = rng.normal(size=(4, 2, 3))
    tape = Tape()
    out = temporal_filter(tape.leaf(x), 1, 3)
    assert np.array_equal(out.value.data, x)
    assert out.value.data is not x  # fresh buffer, not a view


def test_filter_window_clips_to_sequence_length():
    tape = Tape()
    x = tape.leaf(np.array([[1.0], [1.0]]))
    a = temporal_filter(x, 8, 1.0).value.data
    b = temporal_filter(x, 2, 1.0).value.data
    assert np.array_equal(a, b)
    assert np.array_equal(a.ravel(), [1.0, 1.5])


def test_filter_float32_equals_float64_on_integer_inputs():
    # Spikes and small residual sums stay exact in float32 under the
    # power-of-two decay, so the float32 filter, its input gradient and
    # its exponent gradient equal the float64 ones cast to float32.
    rng = make_rng(4)
    for trial in range(40):
        shape = (int(rng.integers(1, 9)), 3, 5)
        high = 2 if trial % 2 else 4  # spikes, then residual sums 0..3
        x = rng.integers(0, high, size=shape).astype(np.float64)
        g = rng.integers(-3, 4, size=shape).astype(np.float64)
        t_aw, tau = int(rng.integers(1, 5)), float(rng.integers(0, 7))
        results = {}
        for dtype in (np.float32, np.float64):
            tape = Tape()
            xs = tape.leaf(x, dtype=dtype)
            taus = tape.leaf(np.asarray(tau), dtype=dtype)
            out = temporal_filter(xs, t_aw, taus)
            tape.backward(reduce_sum(mul(out, tape.leaf(g, dtype=dtype))))
            results[dtype] = (out.value.data, xs.grad.data, taus.grad.data)
        for got, want in zip(results[np.float32], results[np.float64]):
            assert got.dtype == np.float32
            assert np.array_equal(got, want.astype(np.float32)), (trial, t_aw, tau)


def test_filter_gradient_with_respect_to_input():
    rng = make_rng(2)
    rep = check_gradients(lambda x: reduce_mean(temporal_filter(x, 3, 1.5)),
                          [rng.random(size=(5, 2, 3))])
    assert rep.passed, rep.max_rel_err


def test_filter_gradient_with_respect_to_exponent():
    rng = make_rng(3)
    rep = check_gradients(lambda x, tau: reduce_mean(temporal_filter(x, 3, tau)),
                          [rng.random(size=(5, 2, 3)), np.asarray(2.0)])
    assert rep.passed, rep.max_rel_err


def test_filter_exponent_gradient_hand_value():
    # x = [1, 1], window 2, tau = 1, loss = sum(out):
    # out[1] = x[1] + 2^-tau * x[0], so d loss / d tau = -ln(2) * 2^-1.
    tape = Tape()
    x = tape.leaf(np.array([[1.0], [1.0]]))
    tau = tape.leaf(np.asarray(1.0))
    tape.backward(reduce_sum(temporal_filter(x, 2, tau)))
    assert np.isclose(float(tau.grad.data), -np.log(2.0) / 2.0)


def test_filter_rejects_bad_arguments():
    tape = Tape()
    x = tape.leaf(np.ones((3, 2)))
    with pytest.raises(ConfigError):
        temporal_filter(x, 0, 1)
    with pytest.raises(ConfigError):
        temporal_filter(x, 2, -0.5)


# ---------------------------------------------------------------- rounding


def test_tau_round_half_away_and_clamp():
    tape = Tape()
    for cont, want in ((1.5, 2.0), (2.4, 2.0), (0.4, 0.0), (7.9, 6.0), (6.5, 6.0)):
        out = tau_round_ste(tape.leaf(np.asarray(cont)), tau_max=6)
        assert float(out.value.data) == want, cont


def test_tau_round_straight_through_gradient():
    tape = Tape()
    inside = tape.leaf(np.asarray(2.2))
    tape.backward(tau_round_ste(inside, 6))
    assert float(inside.grad.data) == 1.0

    clamped = tape.leaf(np.asarray(9.0))
    tape.backward(tau_round_ste(clamped, 6))
    assert float(clamped.grad.data) == 0.0


def test_tau_round_requires_scalar():
    tape = Tape()
    with pytest.raises(DimensionError):
        tau_round_ste(tape.leaf(np.ones(2)), 6)


# ------------------------------------------------------ replica equivalence


def test_oracle_window_start_boundary():
    # At t=0 only lag 0 contributes regardless of the window length.
    s = np.eye(4)[:, None, :].reshape(4, 1, 4)
    w = np.eye(4)
    out = explicit_sta_oracle(s, w, 4, 1)
    assert np.array_equal(out[0, 0], s[0, 0])


# ------------------------------------------------------------ shift decay


def test_shift_hand_values():
    assert shift_decay_apply(np.array([8]), 1, 2).item() == 2.0
    assert shift_decay_apply(np.array([1]), 3, 1).item() == 0.125
    assert shift_decay_apply(np.array([5]), 0, 3).item() == 5.0
    assert shift_decay_apply(np.array([7]), 2, 0).item() == 7.0


def test_shift_equals_float_multiply_bitwise():
    rng = make_rng(6)
    acc = rng.integers(0, 2 ** 10 + 1, size=257)
    for tau in (0, 2, 5):
        for delta in (0, 1, 3):
            got = shift_decay_apply(acc, tau, delta)
            want = acc.astype(np.float64) * 2.0 ** (-tau * delta)
            assert np.array_equal(got, want)


def test_shift_input_validation():
    with pytest.raises(InputError):
        shift_decay_apply(np.array([1.5]), 1, 1)
    with pytest.raises(InputError):
        shift_decay_apply(np.array([-3]), 1, 1)
    with pytest.raises(ConfigError):
        shift_decay_apply(np.array([3]), -1, 1)
    with pytest.raises(ConfigError):
        shift_decay_apply(np.array([3]), 1, -2)


def test_shift_past_fraction_bits_is_an_error():
    with pytest.raises(PrecisionError):
        shift_decay_apply(np.array([1]), 6, 6)  # 36 > 32 fraction bits


def test_shift_overflow_guard():
    # 32 fraction bits leave 31 integer bits in a signed 64-bit word.
    with pytest.raises(PrecisionError):
        shift_decay_apply(np.array([2 ** 31]), 1, 1)
    shift_decay_apply(np.array([2 ** 31 - 1]), 1, 1)  # largest legal value


def test_shift_narrow_fraction_mode():
    # With 16 fraction bits the acceptance grid tau=6, delta=3 cannot be
    # represented; the wider default exists exactly for that reason.
    with pytest.raises(PrecisionError):
        shift_decay_apply(np.array([3]), 6, 3, frac_bits=16)
    got = shift_decay_apply(np.array([3]), 2, 2, frac_bits=16)
    assert got.item() == 3.0 * 2.0 ** -4


# ------------------------------------------------------------ head plumbing


def test_split_merge_heads_roundtrip():
    rng = make_rng(7)
    x = rng.normal(size=(3, 2, 5, 8))
    tape = Tape()
    leaf = tape.leaf(x)
    parted = split_heads(leaf, 4)
    assert parted.shape == (3, 2, 4, 5, 2)
    back = merge_heads(parted)
    assert np.array_equal(back.value.data, x)


def test_split_heads_divisibility():
    tape = Tape()
    with pytest.raises(ConfigError):
        split_heads(tape.leaf(np.ones((2, 1, 3, 7))), 2)


def test_scores_match_coactivation_counts():
    """Binary inputs make each score a query/key co-activation popcount."""
    rng = make_rng(8)
    t, b, n, d, heads = 3, 2, 4, 8, 2
    q = (rng.random((t, b, n, d)) < 0.5).astype(np.float64)
    k = (rng.random((t, b, n, d)) < 0.5).astype(np.float64)
    tape = Tape()
    sc = attention_scores(tape.leaf(q), tape.leaf(k), heads)
    assert sc.head_dim == d // heads
    got = sc.scores.value.data
    assert got.shape == (t, b, heads, n, n)

    hd = d // heads
    for ti in range(t):
        for bi in range(b):
            for h in range(heads):
                for i in range(n):
                    for j in range(n):
                        qv = q[ti, bi, i, h * hd:(h + 1) * hd]
                        kv = k[ti, bi, j, h * hd:(h + 1) * hd]
                        count = int(np.sum(qv.astype(bool) & kv.astype(bool)))
                        assert got[ti, bi, h, i, j] == count

    assert np.array_equal(got, got.astype(np.int64))
    assert got.min() >= 0 and got.max() <= hd


def test_scores_shape_validation():
    tape = Tape()
    q = tape.leaf(np.ones((2, 1, 3, 4)))
    with pytest.raises(DimensionError):
        attention_scores(q, tape.leaf(np.ones((2, 1, 3, 6))), 2)
    with pytest.raises(DimensionError):
        attention_scores(tape.leaf(np.ones((2, 3, 4))), tape.leaf(np.ones((2, 3, 4))), 2)
