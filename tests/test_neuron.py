"""Spiking neuron recurrence: hand-traced oracles and surrogate behavior."""

import warnings

import numpy as np
import pytest

from ds2ta.errors import ConfigError, DimensionError, NumericError
from ds2ta.neuron import (LifParams, lif_forward, lif_linear, surrogate_grad,
                          surrogate_primitive)
from ds2ta.tensorcore import Tape, add, check_gradients, make_rng, matmul, reduce_mean


def _run(stream, params=None, smooth=False):
    tape = Tape()
    out, state = lif_forward(tape.leaf(np.asarray(stream, dtype=np.float64)),
                             params, smooth=smooth, return_state=True)
    return out, state, tape


def test_params_validation():
    with pytest.raises(ConfigError):
        LifParams(tau_m=1.0)
    with pytest.raises(ConfigError):
        LifParams(theta=0.0)
    with pytest.raises(ConfigError):
        LifParams(surrogate_alpha=-1.0)
    for name in ("tau_m", "theta", "surrogate_alpha"):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                LifParams(**{name: value})


def test_leak_from_membrane_constant():
    assert LifParams(tau_m=2.0).leak == 0.5
    assert np.isclose(LifParams(tau_m=4.0).leak, 0.75)


def test_subthreshold_integration_trace():
    # tau_m=2, theta=1, input 0.6 then 0.6:
    #   V1 = 0.6            -> below threshold
    #   V2 = 0.5*0.6 + 0.6  = 0.9 -> still below
    _, state, _ = _run([0.6, 0.6])
    assert np.allclose(state.membrane, [0.6, 0.9])
    assert np.array_equal(state.spikes, [0.0, 0.0])


def test_spike_and_hard_reset_trace():
    # Input 1.2 fires at t=0; the reset wipes the membrane so t=1 restarts
    # from its own input: V = [1.2, 0.5, 0.5*0.5 + 0.3 = 0.55].
    out, state, _ = _run([1.2, 0.5, 0.3])
    assert np.allclose(state.membrane, [1.2, 0.5, 0.55])
    assert np.array_equal(state.spikes, [1.0, 0.0, 0.0])
    assert np.array_equal(out.value.data, state.spikes)


def test_fires_exactly_at_threshold():
    _, state, _ = _run([1.0])
    assert state.spikes[0] == 1.0


def test_leak_halves_silent_membrane():
    _, state, _ = _run([0.8, 0.0, 0.0])
    assert np.allclose(state.membrane, [0.8, 0.4, 0.2])


def test_spikes_are_binary_in_hard_mode():
    rng = make_rng(3)
    out, _, _ = _run(rng.normal(0.5, 1.0, size=(6, 4, 5)))
    vals = np.unique(out.value.data)
    assert set(vals.tolist()) <= {0.0, 1.0}


def test_smooth_mode_lies_in_unit_interval():
    rng = make_rng(4)
    out, _, _ = _run(rng.normal(0.5, 1.0, size=(5, 3)), smooth=True)
    assert np.all(out.value.data > 0.0)
    assert np.all(out.value.data < 1.0)


def test_refractory_independence_after_spike():
    """After a spike the next membrane value is the new input alone."""
    _, state, _ = _run([2.0, 0.7])
    assert state.membrane[1] == 0.7


def test_surrogate_peak_and_symmetry():
    # The arctan surrogate derivative peaks at alpha/2 on the threshold.
    assert surrogate_grad(0.0, alpha=2.0) == 1.0
    v = np.linspace(-3, 3, 31)
    assert np.allclose(surrogate_grad(v), surrogate_grad(-v))


def test_surrogate_primitive_matches_derivative():
    v = np.linspace(-2, 2, 9)
    eps = 1e-6
    numeric = (surrogate_primitive(v + eps) - surrogate_primitive(v - eps)) / (2 * eps)
    assert np.allclose(numeric, surrogate_grad(v), atol=1e-7)
    assert surrogate_primitive(0.0) == 0.5


def test_zero_upstream_gradient_gives_zero_input_gradient():
    out, _, tape = _run([0.9, 1.1, 0.4])
    leaf = tape.nodes[0].inputs[0]
    out.accumulate_grad(np.zeros_like(out.value.data))
    grads = tape.nodes[0].backward(out.grad.data)
    assert np.array_equal(grads[0], np.zeros(3))


def test_relaxed_recurrence_gradient_check():
    rng = make_rng(5)
    stream = rng.normal(0.8, 0.5, size=(4, 2, 3))
    rep = check_gradients(
        lambda x: reduce_mean(lif_forward(x, LifParams(), smooth=True)),
        [stream], tol=1e-4)
    assert rep.passed, rep.max_rel_err


def test_relaxed_gradient_with_other_constants():
    rng = make_rng(6)
    stream = rng.normal(0.5, 0.8, size=(3, 4))
    params = LifParams(tau_m=3.0, theta=0.7, surrogate_alpha=1.5)
    rep = check_gradients(
        lambda x: reduce_mean(lif_forward(x, params, smooth=True)),
        [stream], tol=1e-4)
    assert rep.passed, rep.max_rel_err


def test_nonfinite_input_names_the_timestep():
    stream = np.ones((4, 2))
    stream[2, 1] = np.nan
    tape = Tape()
    with pytest.raises(NumericError, match="timestep 2"):
        lif_forward(tape.leaf(stream))
    # Finite float32 currents whose sum overflows are valid input.
    big = np.full((4, 2), 3e38, dtype=np.float32)
    with np.errstate(over="ignore"):
        assert not np.isfinite(big.sum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spikes = lif_forward(tape.leaf(big)).value.data
    assert spikes.dtype == np.float32 and np.all(spikes == 1.0)


def test_rank_zero_input_rejected():
    tape = Tape()
    with pytest.raises(ConfigError):
        lif_forward(tape.leaf(np.asarray(1.0)))


def test_forward_is_deterministic():
    rng = make_rng(7)
    stream = rng.normal(0.6, 0.7, size=(5, 3, 2))
    a, _, _ = _run(stream)
    b, _, _ = _run(stream)
    assert np.array_equal(a.value.data, b.value.data)


def _reference_lif(x, params, smooth, g):
    """The LIF forward and backward as one plain loop of whole-array
    expressions: the kernel in ``lif_forward`` must reproduce it bitwise."""
    steps = x.shape[0]
    leak, theta, alpha = params.leak, params.theta, params.surrogate_alpha
    membrane = np.empty_like(x)
    spikes = np.empty_like(x)
    v = np.zeros_like(x[0])
    s = np.zeros_like(x[0])
    for t in range(steps):
        v = leak * v * (1.0 - s) + x[t]
        s = surrogate_primitive(v - theta, alpha) if smooth else (v >= theta).astype(x.dtype)
        membrane[t] = v
        spikes[t] = s

    d_in = np.empty_like(x)
    a_next = np.zeros_like(x[0])  # dL/dV[t+1]
    for t in range(steps - 1, -1, -1):
        a_spike = g[t] - a_next * (leak * membrane[t])
        local = surrogate_grad(membrane[t] - theta, alpha)
        a_v = a_spike * local + a_next * (leak * (1.0 - spikes[t]))
        d_in[t] = a_v
        a_next = a_v
    return spikes, membrane, d_in


@pytest.mark.parametrize("shape", [(9,), (6, 3, 4, 5)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("params", [LifParams(),
                                    LifParams(tau_m=3.0, theta=0.75, surrogate_alpha=1.5)])
def test_kernel_matches_reference_recurrence_bitwise(shape, dtype, smooth, params):
    rng = make_rng(11, len(shape))
    # Quarter steps put some membranes exactly on the threshold.  The
    # default leak of 1/2 makes every product by it exact; a leak of 2/3
    # exposes any change in the order of the operations.
    x = (np.round(rng.normal(0.6, 0.7, size=shape) * 4) / 4).astype(dtype)
    g = rng.normal(0.0, 1.0, size=shape).astype(dtype)
    tape = Tape()
    out, state = lif_forward(tape.leaf(x), params, smooth=smooth, return_state=True)
    (d_in,) = tape.nodes[-1].backward(g)

    ref_spikes, ref_membrane, ref_d_in = _reference_lif(x, params, smooth, g)
    assert out.value.data.dtype == d_in.dtype == np.dtype(dtype)
    assert np.array_equal(out.value.data, ref_spikes)
    assert np.array_equal(state.spikes, ref_spikes)
    assert np.array_equal(state.membrane, ref_membrane)
    assert np.array_equal(d_in, ref_d_in)
    if not smooth:
        assert 0 < ref_spikes.sum() < ref_spikes.size


# ------------------------------------------------ fused spiking projection


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("params", [LifParams(),
                                    LifParams(tau_m=3.0, theta=0.75, surrogate_alpha=1.5)])
def test_lif_linear_equals_lif_forward_of_matmul_bitwise(dtype, smooth, params):
    """One fused node gives the spikes, input gradient and weight gradient
    of the two-node composition, bit for bit (leak 1/2 and 2/3)."""
    rng = make_rng(12)
    x = (rng.random((6, 3, 5, 8)) < 0.4).astype(dtype)
    w = rng.normal(0.0, 1.0, size=(8, 7)).astype(dtype)
    g = rng.normal(0.0, 1.0, size=(6, 3, 5, 7)).astype(dtype)
    results = []
    for fused in (False, True):
        tape = Tape()
        xl, wl = tape.leaf(x), tape.leaf(w)
        out = (lif_linear(xl, wl, params, smooth=smooth) if fused
               else lif_forward(matmul(xl, wl), params, smooth=smooth))
        out.accumulate_grad(g)
        for node in reversed(tape.nodes):
            tape._run(node)
        results.append((out.value.data, xl.grad.data, wl.grad.data))
    for got, want in zip(results[1], results[0]):
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert np.array_equal(got, want)
    if not smooth:
        assert 0 < results[1][0].sum() < results[1][0].size


def _chain_case(dtype, depth, residual, smooth, fused, recording=True):
    """Output and input gradients of a residual spiking chain, fused or as
    its ``add``/``lif_forward``/``matmul`` composition.  The hidden width 9
    differs from the input and output width 5."""
    rng = make_rng(13, depth)
    params = LifParams(tau_m=3.0, theta=0.75, surrogate_alpha=1.5)
    x = (rng.random((6, 3, 4, 5)) < 0.4).astype(dtype)
    other = rng.integers(0, 3, size=(6, 3, 4, 5)).astype(dtype)
    widths = [5, 9, 5][:depth] + [5]
    ws = [rng.normal(0.0, 1.0, size=(a, b)).astype(dtype) for a, b in zip(widths, widths[1:])]
    g = rng.normal(0.0, 1.0, size=(6, 3, 4, 5)).astype(dtype)
    tape = Tape()
    tape.recording = recording
    xl, ol = tape.leaf(x), tape.leaf(other)
    wl = [tape.leaf(w) for w in ws]
    res = {"none": None, "x": xl, "other": ol}[residual]
    if fused:
        out = lif_linear(xl, wl, params, smooth=smooth, residual=res)
    else:
        out = xl
        for w in wl:
            out = lif_forward(matmul(out, w), params, smooth=smooth)
        if res is not None:
            out = add(res, out)
    if not recording:
        assert not tape.nodes
        return (out.value.data,)
    out.accumulate_grad(g)
    for node in reversed(tape.nodes):
        tape._run(node)
    leaves = [xl] + wl + ([ol] if residual == "other" else [])
    return (out.value.data,) + tuple(leaf.grad.data for leaf in leaves)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("residual", ["none", "x", "other"])
def test_lif_linear_chain_equals_its_composition_bitwise(dtype, smooth, depth, residual):
    """The one-node chain gives the output and every input gradient of
    ``add(residual, lif_forward(matmul(...)))`` bit for bit, though it keeps
    no spikes and re-fires the hidden ones and the reset from membranes."""
    want = _chain_case(dtype, depth, residual, smooth, fused=False)
    got = _chain_case(dtype, depth, residual, smooth, fused=True)
    assert len(got) == len(want) == 2 + depth + (residual == "other")
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.dtype(dtype)
        assert np.array_equal(a, b)
    if not smooth and residual == "none":
        assert 0 < got[0].sum() < got[0].size


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("smooth", [False, True])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("residual", ["none", "x", "other"])
def test_lif_linear_without_recording_gives_the_recorded_output(dtype, smooth, depth,
                                                                residual):
    """With recording off, the spikes overwrite each current and the
    membrane lives in two rows; the output is bitwise the recorded one."""
    (got,) = _chain_case(dtype, depth, residual, smooth, fused=True, recording=False)
    want = _chain_case(dtype, depth, residual, smooth, fused=True)[0]
    assert np.array_equal(got, want)


def test_lif_linear_constant_input_gets_no_gradient():
    """A plain-array input is not a node input: the node returns only the
    weight gradient, bitwise the one a leaf input gives."""
    rng = make_rng(14)
    x = (rng.random((5, 2, 3, 4)) < 0.5).astype(np.float32)
    w = rng.normal(0.0, 1.0, size=(4, 6)).astype(np.float32)
    g = rng.normal(0.0, 1.0, size=(5, 2, 3, 6)).astype(np.float32)
    dws = []
    for constant in (True, False):
        tape = Tape()
        wl = tape.leaf(w)
        lif_linear(x if constant else tape.leaf(x), wl)
        node = tape.nodes[-1]
        assert len(node.inputs) == (1 if constant else 2)
        dws.append(node.backward(g)[-1])
    assert np.array_equal(dws[0], dws[1])


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_lif_linear_nonfinite_current_names_the_timestep():
    x = np.ones((4, 2, 3))
    w = np.ones((3, 2))
    x[2, 1, 0] = np.inf
    tape = Tape()
    with pytest.raises(NumericError, match="non-finite synaptic input at timestep 2"):
        lif_linear(tape.leaf(x), tape.leaf(w))


def test_lif_linear_shape_validation():
    tape = Tape()
    with pytest.raises(DimensionError):
        lif_linear(tape.leaf(np.ones((4, 3))), tape.leaf(np.ones((2, 2))))
    with pytest.raises(DimensionError):
        lif_linear(tape.leaf(np.ones(3)), tape.leaf(np.ones((3, 2))))
    # a chain whose widths do not meet, and a residual of the wrong shape
    x, w = tape.leaf(np.ones((4, 3))), tape.leaf(np.ones((3, 2)))
    with pytest.raises(DimensionError):
        lif_linear(x, (w, tape.leaf(np.ones((3, 2)))))
    with pytest.raises(DimensionError):
        lif_linear(x, w, residual=x)
