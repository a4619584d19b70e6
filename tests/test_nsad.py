"""Attention denoiser: table materialization, invariants, gradient routing."""

import numpy as np
import pytest

from ds2ta.errors import ConfigError, ScoreRangeError
from ds2ta.nsad import (GATE_TEMP, NsadHead, _train_partials, build_table,
                        denoise, f_eval, g_eval)
from ds2ta.tasa import AttentionScores
from ds2ta.tensorcore import Tape, make_rng, reduce_mean, round_half_away


def _head(d=8, **params):
    tape = Tape()
    head = NsadHead(tape, d, u_init=params.pop("u", 1.5))
    if params:
        head.set_params(**params)
    return head, tape


def test_init_is_near_identity():
    head, _ = _head(d=8)
    p = head.param_floats()
    assert p["a"] == 1.0 and p["b"] == 0.0 and p["c"] == 0.0
    assert p["dw"] == 0.0 and p["e"] == 4.0 and p["u"] == 1.5


def test_init_validation():
    tape = Tape()
    with pytest.raises(ConfigError):
        NsadHead(tape, 0)
    with pytest.raises(ConfigError):
        NsadHead(tape, 4, u_init=-0.1)


def test_table_identity_above_threshold():
    # Default shape parameters give g(s) = s; with u = 3 every score up to
    # 3 is zeroed and everything above passes through unchanged.
    head, _ = _head(d=8, u=3.0)
    assert head.table.tolist() == [0, 0, 0, 0, 4, 5, 6, 7, 8]
    assert head.table.dtype == np.int64


def test_table_has_head_dim_plus_one_entries():
    for d in (1, 4, 32):
        head, _ = _head(d=d)
        assert head.table.shape == (d + 1,)


def test_zero_score_always_maps_to_zero():
    rng = make_rng(0)
    for _ in range(50):
        head, _ = _head(
            d=int(rng.integers(1, 33)),
            a=float(rng.normal()), b=float(rng.normal(0, 0.3)),
            c=float(rng.normal()), dw=float(rng.normal(0, 2)),
            e=float(rng.uniform(0, 8)), u=float(rng.uniform(0, 4)))
        assert head.table[0] == 0


def test_table_function_consistency():
    head, _ = _head(d=10, a=0.8, b=0.05, c=1.0, dw=2.0, e=3.0, u=1.2)
    grid = np.arange(11, dtype=np.float64)
    want = np.maximum(0.0, round_half_away(f_eval(grid, head, "eval"))).astype(np.int64)
    assert np.array_equal(head.table, want)


def test_table_rounds_ties_away_from_zero():
    head, _ = _head(d=4, a=0.5, u=0.0)
    # g(s) = 0.5 s, so f(1) = 0.5 rounds up to 1 and f(3) = 1.5 rounds to 2.
    assert head.table.tolist() == [0, 1, 1, 2, 2]


def test_table_clamps_negative_responses():
    head, _ = _head(d=4, a=-1.0, u=0.0)
    assert head.table.tolist() == [0, 0, 0, 0, 0]


def test_threshold_is_strict():
    head, _ = _head(d=8, u=2.0)
    assert f_eval(2.0, head) == 0.0
    assert f_eval(2.0 + 1e-9, head) > 0.0
    assert head.table[2] == 0
    assert head.table[3] == 3


def test_raising_threshold_only_adds_zeros():
    """Monotone sparsification: a higher threshold never revives an entry."""
    rng = make_rng(1)
    for _ in range(50):
        d = int(rng.integers(2, 17))
        shape = dict(a=float(rng.normal(1, 0.5)), b=float(rng.normal(0, 0.2)),
                     c=float(rng.normal()), dw=float(rng.normal(0, 2)),
                     e=float(rng.uniform(0, d)))
        u_lo = float(rng.uniform(0, d / 2))
        u_hi = u_lo + float(rng.uniform(0, d / 2))
        lo, _ = _head(d=d, u=u_lo, **shape)
        hi, _ = _head(d=d, u=u_hi, **shape)
        zero_lo = set(np.flatnonzero(lo.table == 0).tolist())
        zero_hi = set(np.flatnonzero(hi.table == 0).tolist())
        assert zero_lo <= zero_hi


def test_g_eval_formula():
    head, _ = _head(d=8, a=2.0, b=0.5, c=1.0, dw=3.0, e=2.0, u=0.0)
    s = np.array([0.0, 1.0, 4.0])
    want = 2.0 * s + 0.5 * (s - 1.0) ** 2 + 3.0 / (1.0 + np.exp(s - 2.0))
    assert np.allclose(g_eval(s, head), want)


def test_train_mode_is_gated_response():
    head, _ = _head(d=8, u=2.0)
    s = np.array([0.0, 2.0, 5.0])
    gate = 1.0 / (1.0 + np.exp(-(s - 2.0) / GATE_TEMP))
    assert np.allclose(f_eval(s, head, "train"), gate * g_eval(s, head))
    # Far above the threshold the gate saturates to the raw response.
    assert np.isclose(f_eval(8.0, head, "train"), g_eval(8.0, head), rtol=1e-4)


def test_f_eval_unknown_mode():
    head, _ = _head()
    with pytest.raises(ConfigError):
        f_eval(1.0, head, "both")


def test_set_params_rebuilds_and_validates():
    head, _ = _head(d=4)
    before = head.table.copy()
    head.set_params(a=2.0)
    assert not np.array_equal(head.table, before)
    with pytest.raises(ConfigError):
        head.set_params(z=1.0)


# ----------------------------------------------------------------- denoise


def _scores(arr, d, tape):
    return AttentionScores(tape.leaf(np.asarray(arr, dtype=np.float64)), d)


def test_denoise_reads_each_heads_table():
    rng = make_rng(2)
    tape = Tape()
    d = 6
    h0 = NsadHead(tape, d, u_init=1.0)
    h1 = NsadHead(tape, d, u_init=3.0)
    h1.set_params(a=2.0)
    raw = rng.integers(0, d + 1, size=(2, 3, 2, 4, 4)).astype(np.float64)
    out = denoise(_scores(raw, d, tape), [h0, h1]).value.data
    assert np.array_equal(out[:, :, 0], h0.table[raw[:, :, 0].astype(int)])
    assert np.array_equal(out[:, :, 1], h1.table[raw[:, :, 1].astype(int)])


def test_denoise_range_and_shape_validation():
    tape = Tape()
    head = NsadHead(tape, 4)
    with pytest.raises(ScoreRangeError):
        denoise(_scores(-np.ones((1, 1, 1, 2, 2)), 4, tape), [head])
    with pytest.raises(ScoreRangeError):
        denoise(_scores(np.full((1, 1, 1, 2, 2), 5.0), 4, tape), [head])
    with pytest.raises(ScoreRangeError):
        denoise(_scores(np.full((1, 1, 1, 2, 2), 0.5), 4, tape), [head])
    with pytest.raises(ScoreRangeError):
        denoise(AttentionScores(tape.leaf(np.ones((2, 2))), 4), [head])
    with pytest.raises(ConfigError):
        denoise(_scores(np.ones((1, 1, 2, 2, 2)), 4, tape), [head])


def test_denoise_continuous_accepts_fractional_scores():
    tape = Tape()
    head = NsadHead(tape, 4, u_init=1.0)
    raw = np.full((1, 1, 1, 2, 2), 2.5)
    out = denoise(_scores(raw, 4, tape), [head], continuous=True).value.data
    assert np.allclose(out, f_eval(2.5, head, "train"))


def test_denoise_passes_no_gradient_to_scores():
    tape = Tape()
    head = NsadHead(tape, 8, u_init=2.0)
    leaf = tape.leaf(make_rng(3).integers(0, 9, size=(2, 1, 1, 3, 3)).astype(np.float64))
    out = reduce_mean(denoise(AttentionScores(leaf, 8), [head]))
    tape.backward(out)
    assert leaf.grad is None
    for _, dt in head.named_params():
        assert dt.grad is not None


def test_table_and_continuous_paths_share_one_backward():
    """Quantizing the forward must not change the parameter gradients."""
    rng = make_rng(4)
    raw = rng.integers(0, 9, size=(2, 2, 1, 3, 3)).astype(np.float64)

    def grads(continuous):
        tape = Tape()
        head = NsadHead(tape, 8, u_init=2.0)
        head.set_params(b=0.1, dw=1.5, c=0.5)
        out = reduce_mean(denoise(AttentionScores(tape.leaf(raw), 8), [head],
                                  continuous=continuous))
        tape.backward(out)
        return {name: float(dt.grad.data) for name, dt in head.named_params()}

    g_table, g_cont = grads(False), grads(True)
    for name in NsadHead.PARAM_NAMES:
        assert g_table[name] == g_cont[name], name


@pytest.mark.parametrize("continuous", [False, True])
def test_score_histogram_backward_matches_per_entry_sum(continuous):
    """The backward sums the upstream gradient per (head, score) before
    weighting it by the partials; that must equal weighting every entry."""
    rng = make_rng(8)
    d, n_heads = 8, 3
    tape = Tape()
    heads = [NsadHead(tape, d, u_init=1.0 + h) for h in range(n_heads)]
    heads[1].set_params(b=0.1, c=0.5, dw=1.5)
    heads[2].set_params(a=0.7, b=-0.05, c=2.0, dw=-0.8, e=3.0)
    raw = rng.integers(0, d + 1, size=(3, 2, n_heads, 5, 5)).astype(np.float64)
    out = denoise(_scores(raw, d, tape), heads, continuous=continuous)
    g = rng.normal(0.0, 1.0, size=raw.shape)
    grads = tape.nodes[-1].backward(g)
    assert grads[0] is None
    for h, head in enumerate(heads):
        parts = _train_partials(raw[:, :, h], head.param_floats(), GATE_TEMP)
        for i, name in enumerate(NsadHead.PARAM_NAMES):
            terms = g[:, :, h] * parts[name]
            want = float(np.sum(terms))
            got = float(grads[1 + 6 * h + i])
            # Relative to the magnitude of the terms, since they cancel.
            assert abs(got - want) <= 1e-12 * float(np.sum(np.abs(terms))), \
                (h, name, got, want)
    assert out.value.data.shape == raw.shape


def test_denoiser_parameter_gradients_match_finite_differences():
    rng = make_rng(5)
    raw = rng.integers(0, 9, size=(2, 1, 1, 3, 3)).astype(np.float64)
    tape = Tape()
    head = NsadHead(tape, 8, u_init=2.0)
    head.set_params(a=0.9, b=0.05, c=0.3, dw=1.0, e=3.0)
    out = reduce_mean(denoise(AttentionScores(tape.leaf(raw), 8), [head],
                              continuous=True))
    tape.backward(out)

    eps = 1e-6
    for name, dt in head.named_params():
        base = float(dt.value.data)
        samples = []
        for delta in (eps, -eps):
            head.set_params(**{name: base + delta})
            t2 = Tape()
            val = reduce_mean(denoise(AttentionScores(t2.leaf(raw), 8), [head],
                                      continuous=True)).value.data
            samples.append(float(val))
        head.set_params(**{name: base})
        numeric = (samples[0] - samples[1]) / (2 * eps)
        analytic = float(dt.grad.data)
        assert abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic)) < 1e-5, name


def test_table_storage_for_wide_configuration():
    # Twelve heads of width 32 store 12 * 33 = 396 integers in total.
    tape = Tape()
    heads = [NsadHead(tape, 32) for _ in range(12)]
    assert sum(h.table.size for h in heads) == 396
