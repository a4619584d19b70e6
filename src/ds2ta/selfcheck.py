"""Kernel checks shared by the release gate and ``ds2ta selftest``.

Each function is one acceptance criterion (1-3 in
``tests/test_acceptance.py``): it raises ``AssertionError`` with a message
naming the failing case and otherwise returns the figure the gate
reports.  The windowed projection is checked through the calls the
encoder block makes (rounding, filter, product) and the fused spiking
projection it then runs, so the gate covers the path the model runs.
"""

from __future__ import annotations

import numpy as np

from .model import ModelConfig, SpikingTransformer
from .neuron import LifParams, lif_forward, lif_linear
from .nsad import NsadHead, denoise
from .tasa import (AttentionScores, explicit_sta_oracle, shift_decay_apply,
                   tau_round_ste, temporal_filter)
from .tensorcore import (Tape, add, bias_add, check_gradients,
                         cross_entropy_logits, make_rng, matmul, mul,
                         reduce_mean, reduce_sum, reshape, scale, sub,
                         transpose)


def gradient_suite() -> float:
    """Criterion 1: tape gradients against central differences.

    Returns the worst relative error over all checks.
    """
    rng = make_rng(31)
    worst = 0.0

    def check(fn, inputs, tol):
        nonlocal worst
        rep = check_gradients(fn, inputs, tol=tol)
        assert rep.passed, f"max rel err {rep.max_rel_err:.3e} exceeds {tol}"
        worst = max(worst, rep.max_rel_err)

    # primitive operations at 1e-6
    check(lambda a, b: reduce_mean(matmul(a, b)),
          [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))], 1e-6)
    check(lambda a, b: reduce_mean(mul(add(a, b), sub(a, scale(b, 1.7)))),
          [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))], 1e-6)
    check(lambda a, b: reduce_mean(bias_add(a, b)),
          [rng.normal(size=(3, 4)), rng.normal(size=4)], 1e-6)
    check(lambda x: reduce_mean(mul(reduce_sum(x, axes=(0, 2)),
                                    reduce_sum(x, axes=(0, 2)))),
          [rng.normal(size=(2, 3, 4))], 1e-6)
    check(lambda x: reduce_mean(mul(transpose(reshape(x, (2, 6)), (1, 0)),
                                    transpose(reshape(x, (2, 6)), (1, 0)))),
          [rng.normal(size=(3, 4))], 1e-6)

    # cross entropy involves exp/log, still far inside the 1e-4 budget
    labels = rng.integers(0, 3, size=5)
    check(lambda x: cross_entropy_logits(x, labels),
          [rng.normal(size=(5, 3))], 1e-5)

    # relaxed spike dynamics at 1e-4
    check(lambda x: reduce_mean(lif_forward(x, LifParams(), smooth=True)),
          [rng.normal(0.8, 0.5, size=(4, 2, 3))], 1e-4)

    # decay filter, including the gradient of the real-valued exponent
    check(lambda x, tau: reduce_mean(temporal_filter(x, 3, tau)),
          [rng.random(size=(5, 2, 3)), np.asarray(1.7)], 1e-6)

    worst = max(worst, _denoiser_param_fd(rng))
    return max(worst, _full_model_fd(rng))


def _denoiser_param_fd(rng):
    """Central differences on the six head scalars in the training relaxation."""
    scores = rng.integers(0, 9, size=(2, 1, 1, 3, 3)).astype(np.float64)

    def loss_with(head):
        tape = Tape()
        leaf = tape.leaf(scores)
        out = reduce_mean(denoise(AttentionScores(leaf, 8), [head],
                                  continuous=True))
        return tape, out

    tape = Tape()
    head = NsadHead(tape, 8, u_init=2.0)
    head.set_params(b=0.05, dw=1.0)
    t, out = loss_with(head)
    t.backward(out)
    worst, eps = 0.0, 1e-6
    for name, dt in head.named_params():
        base = float(dt.value.data)
        vals = []
        for delta in (eps, -eps):
            head.set_params(**{name: base + delta})
            vals.append(float(loss_with(head)[1].value.data))
        head.set_params(**{name: base})
        numeric = (vals[0] - vals[1]) / (2 * eps)
        analytic = float(dt.grad.data)
        err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
        assert err < 1e-5, f"denoiser d/d{name} rel err {err:.3e}"
        worst = max(worst, err)
    return worst


def _full_model_fd(rng):
    """End-to-end check through the relaxed network on a micro geometry.

    The exponent rounding and the denoiser's score gate are straight
    through estimators whose forward is locally flat, so they cannot
    match finite differences by construction; their continuous
    counterparts are checked above.  Here the denoiser is off and the
    rounded exponent is left untouched, and every remaining parameter
    path must agree with central differences.
    """
    cfg = ModelConfig(timesteps=3, blocks=1, embed_dim=8, heads=2, mlp_ratio=2,
                      img_size=8, patch_size=4, n_classes=2, seed=0, t_aw=2,
                      nsad_enabled=False)
    model = SpikingTransformer(cfg, dtype=np.float64)
    shape = (cfg.timesteps, 2, cfg.in_channels, cfg.img_size, cfg.img_size)
    frames = (make_rng(5, 97).random(shape) < 0.25).astype(np.float64)
    labels = np.array([0, 1])

    def loss():
        model.tape.clear()
        return cross_entropy_logits(model.forward(frames, smooth=True), labels)

    out = loss()
    model.zero_grads()
    model.tape.backward(out)
    # the denoiser scalars are unreachable with the denoiser off, and the
    # rounded exponent is the straight-through case excluded above
    names = [n for n in model.params
             if not n.endswith(".tau") and ".nsad" not in n]
    grads = {name: model.params[name].grad.data.copy() for name in names}

    worst, eps = 0.0, 1e-5
    for name in names:
        p = model.params[name]
        flat_index = int(rng.integers(p.value.data.size))
        idx = np.unravel_index(flat_index, p.value.data.shape)
        saved = p.value.data[idx]
        vals = []
        for delta in (eps, -eps):
            p.value.data[idx] = saved + delta
            vals.append(float(loss().value.data))
        p.value.data[idx] = saved
        numeric = (vals[0] - vals[1]) / (2 * eps)
        analytic = float(grads[name][idx])
        err = abs(numeric - analytic) / max(1.0, abs(numeric), abs(analytic))
        assert err < 1e-4, f"model d/d{name}[{idx}] rel err {err:.3e}"
        worst = max(worst, err)
    return worst


def replica_sweep() -> float:
    """Criterion 2: the windowed projection equals the per-lag replica sum.

    Builds each projection exactly as the encoder block does (round and
    clamp the exponent, filter, multiply) on 100 random configurations,
    half of them with fractional exponents.  On each, the fused spiking
    projection ``lif_linear`` the block runs must also give bitwise the
    spikes of ``lif_forward`` over that product, and its depth-2 residual
    chain (the MLP's form) bitwise the output of the ``add``,
    ``lif_forward`` and ``matmul`` composition.  The chain's weights come
    from a stream of their own, so the other draws do not depend on it.
    Returns the worst absolute difference.
    """
    rng = make_rng(37)
    chain_rng = make_rng(37, 1)
    worst = 0.0
    for trial in range(100):
        t = int(rng.integers(1, 7))
        n = int(rng.integers(1, 9))
        d_in = int(rng.integers(1, 17))
        d_out = int(rng.integers(1, 17))
        tau = float(rng.uniform(0.0, 4.0)) if trial % 2 else float(rng.integers(0, 5))
        t_aw = int(rng.integers(1, 5))
        s = (rng.random((t, n, d_in)) < 0.3).astype(np.float64)
        w = rng.normal(size=(d_in, d_out))
        tape = Tape()
        tau_int = tau_round_ste(tape.leaf(np.asarray(tau)), ModelConfig.tau_max)
        filtered, weight = temporal_filter(tape.leaf(s), t_aw, tau_int), tape.leaf(w)
        projected = matmul(filtered, weight)
        fast = projected.value.data
        slow = explicit_sta_oracle(s, w, t_aw, tau_int)
        diff = float(np.max(np.abs(fast - slow)))
        assert diff <= 1e-12, f"trial {trial}: max diff {diff:.3e}"
        fused = lif_linear(filtered, weight).value.data
        assert np.array_equal(fused, lif_forward(projected).value.data), \
            f"trial {trial}: lif_linear spikes differ from lif_forward(matmul(...))"
        hidden = int(chain_rng.integers(1, 17))
        w1 = tape.leaf(chain_rng.normal(size=(d_in, hidden)))
        w2 = tape.leaf(chain_rng.normal(size=(hidden, d_in)))
        chained = lif_linear(filtered, (w1, w2), residual=filtered).value.data
        composed = add(filtered, lif_forward(matmul(lif_forward(matmul(filtered, w1)), w2)))
        assert np.array_equal(chained, composed.value.data), \
            f"trial {trial}: residual lif_linear chain differs from its composition"
        worst = max(worst, diff)
    return worst


def shift_sweep() -> int:
    """Criterion 3: the fixed-point shift equals float decay bitwise.

    Returns the number of (tau, delta) combinations checked.
    """
    acc = np.arange(2 ** 10 + 1, dtype=np.int64)
    combos = 0
    for tau in range(7):
        for delta in range(4):
            got = shift_decay_apply(acc, tau, delta)
            want = acc.astype(np.float64) * 2.0 ** (-tau * delta)
            assert np.array_equal(got, want), f"tau={tau} delta={delta}"
            combos += 1
    return combos


CHECKS = (
    ("acceptance 1: gradient suite", gradient_suite),
    ("acceptance 2: windowed projection matches per-lag replica oracle", replica_sweep),
    ("acceptance 3: fixed-point shift equals float decay bitwise", shift_sweep),
)
