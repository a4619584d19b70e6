"""Leaky integrate-and-fire dynamics with a surrogate spike gradient.

The membrane recurrence uses a hard reset gated by the previous spike:

    V[t] = (1 - 1/tau_m) * V[t-1] * (1 - S[t-1]) + I[t]
    S[t] = 1 if V[t] >= theta else 0

Firing is exactly at-threshold inclusive (V == theta fires).  The backward
pass unrolls the recurrence through time; the Heaviside step is replaced by
an arctan surrogate derivative, and the reset factor (1 - S[t-1]) uses the
same surrogate for its spike dependence.

For gradient checking the step can be relaxed to the smooth primitive of
the surrogate (``smooth=True``), which makes the whole recurrence
differentiable so central finite differences agree with the tape.

The model drives every LIF site through a projection, so it calls
:func:`lif_linear`: one tape node for a chain of projections, each into a
LIF, plus an optional residual sum.  Each current is a local array that
its membrane overwrites in place.  A spike is a function of its membrane
(``V >= theta``, or the surrogate primitive when smooth), so the node
saves membranes and no spike train: the backward re-fires the reset
factor from V, and a chain's hidden spikes only while it forms their
weight gradient.  With the tape not recording, the spikes overwrite the
current and the membrane keeps two rolling rows.  :func:`lif_forward`
runs the same kernels on a given current.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .tensorcore import (DiffTensor, _tape_of, dense_forward, dense_input_grad,
                         dense_weight_grad)

DEFAULT_TAU_M = 2.0
DEFAULT_THETA = 1.0
DEFAULT_ALPHA = 2.0


@dataclass(frozen=True)
class LifParams:
    tau_m: float = DEFAULT_TAU_M
    theta: float = DEFAULT_THETA
    surrogate_alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        # An infinity passes the bounds below (theta=inf would build a
        # network that never fires), so finiteness is checked first.
        for name in ("tau_m", "theta", "surrogate_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.tau_m > 1.0:
            raise ConfigError(f"tau_m must exceed 1, got {self.tau_m}")
        if not self.theta > 0.0:
            raise ConfigError(f"theta must be positive, got {self.theta}")
        if not self.surrogate_alpha > 0.0:
            raise ConfigError(f"surrogate_alpha must be positive, got {self.surrogate_alpha}")

    @property
    def leak(self) -> float:
        return 1.0 - 1.0 / self.tau_m


@dataclass
class LifState:
    """Membrane and spike trajectories saved from a forward pass."""

    membrane: np.ndarray  # V, [T, ...]
    spikes: np.ndarray    # S, [T, ...]


def surrogate_grad(v, alpha: float = DEFAULT_ALPHA):
    """Arctan surrogate derivative of the spike step at v = V - theta."""
    return (alpha / 2.0) / (1.0 + (np.pi * alpha * v / 2.0) ** 2)


def surrogate_primitive(v, alpha: float = DEFAULT_ALPHA):
    """Smooth primitive of :func:`surrogate_grad`; maps R onto (0, 1)."""
    return np.arctan(np.pi * alpha * v / 2.0) / np.pi + 0.5


def _check_current(x: np.ndarray) -> None:
    if x.ndim < 1:
        raise ConfigError("synaptic input needs a leading time axis")
    # A sum with a non-finite term is not finite, so one reduction clears the
    # hot path without a boolean mask.  A sum of finite terms can overflow,
    # so only the mask, built on failure, decides and locates the bad step.
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(x, axis=None)
    if not np.isfinite(total):
        bad_steps = ~np.isfinite(x).reshape(x.shape[0], -1).all(axis=1)
        if bad_steps.any():
            raise NumericError(f"non-finite synaptic input at timestep "
                               f"{int(np.argmax(bad_steps))}")


def _fire(v: np.ndarray, params: LifParams, smooth: bool, out: np.ndarray) -> np.ndarray:
    """Write the spikes of the membrane ``v`` into ``out``."""
    if smooth:
        out[...] = surrogate_primitive(v - params.theta, params.surrogate_alpha)
    else:
        np.greater_equal(v, params.theta, out=out)
    return out


def _recurrence(x: np.ndarray, params: LifParams, smooth: bool,
                keep_membrane: bool) -> np.ndarray:
    """Run the recurrence over the current ``x`` in place; return the spikes.

    With ``keep_membrane`` the membrane V overwrites ``x`` and the spikes
    are a fresh array.  Without it the spikes overwrite ``x`` and V lives
    in two rolling rows.  Either way row t of the current is read only to
    write row t of the result.
    """
    steps = x.shape[0]
    leak = params.leak
    # The kernels below work on [T, M] views, whose rows are arrays even
    # for a 1-D input.
    xf = x.reshape(steps, -1)
    if keep_membrane:
        spikes = np.empty_like(x)
        vf = xf
    else:
        spikes = x
        vf = np.empty((2,) + xf.shape[1:], dtype=x.dtype)
    sf = spikes.reshape(steps, -1)
    rows = len(vf)
    # V[t] = (leak * V[t-1]) * (1 - S[t-1]) + I[t], the product formed in
    # a scratch row and then added to I[t] (addition commutes bitwise);
    # from rest, V[0] = I[0] + 0.
    reset = np.empty_like(xf[0])
    decayed = np.empty_like(xf[0])
    for t in range(steps):
        v = vf[t % rows]
        if t == 0:
            np.add(xf[0], 0.0, out=v)
        else:
            np.subtract(1.0, sf[t - 1], out=reset)
            np.multiply(vf[(t - 1) % rows], leak, out=decayed)
            np.multiply(decayed, reset, out=decayed)
            np.add(decayed, xf[t], out=v)
        _fire(v, params, smooth, sf[t])
    return spikes


def _recurrence_backward(g: np.ndarray, membrane: np.ndarray, params: LifParams,
                         smooth: bool, out: np.ndarray | None = None) -> np.ndarray:
    """dL/dI for the upstream spike gradient ``g``, unrolled through time.

    The reset factor 1 - S[t] is re-fired from V[t], bitwise the spikes
    the forward produced.  The result goes to ``out``, which may be ``g``
    itself: row t of ``g`` is read before row t of the result is written.
    """
    steps = g.shape[0]
    leak, theta, alpha = params.leak, params.theta, params.surrogate_alpha
    # surrogate_grad(v) with its constants folded: halving is exact, so
    # (pi*alpha*v)/2 == (pi*alpha/2)*v bitwise.
    peak, slope = alpha / 2.0, np.pi * alpha / 2.0
    # Per timestep, in the order of the unfused expressions
    #   a_spike = g[t] - a_next * (leak * V[t])
    #   a_v = a_spike * surrogate_grad(V[t] - theta)
    #         + a_next * (leak * (1 - S[t]))
    # with a_next = dL/dV[t+1], written into rows of d_in and two scratch
    # rows.  At the last step a_next is zero.
    d_in = np.empty_like(membrane) if out is None else out
    df = d_in.reshape(steps, -1)
    gf = g.reshape(steps, -1)
    vf = membrane.reshape(steps, -1)
    a_spike = np.empty_like(vf[0])
    tmp = np.empty_like(vf[0])
    for t in range(steps - 1, -1, -1):
        a_v, v = df[t], vf[t]
        np.subtract(v, theta, out=tmp)
        np.multiply(tmp, slope, out=tmp)
        np.square(tmp, out=tmp)
        np.add(tmp, 1.0, out=tmp)
        np.divide(peak, tmp, out=tmp)
        if t == steps - 1:
            np.multiply(gf[t], tmp, out=a_v)
            continue
        a_next = df[t + 1]
        np.multiply(v, leak, out=a_spike)
        np.multiply(a_next, a_spike, out=a_spike)
        np.subtract(gf[t], a_spike, out=a_spike)
        np.multiply(a_spike, tmp, out=a_spike)
        np.subtract(1.0, _fire(v, params, smooth, tmp), out=tmp)
        np.multiply(tmp, leak, out=tmp)
        np.multiply(a_next, tmp, out=tmp)
        np.add(a_spike, tmp, out=a_v)
    return d_in


def lif_forward(current: DiffTensor, params: LifParams | None = None, *,
                smooth: bool = False, return_state: bool = False):
    """Run the LIF recurrence over the leading time axis of ``current``.

    Returns the spike train as a DiffTensor (binary in hard mode, in (0, 1)
    in smooth mode).  With ``return_state=True`` also returns the saved
    :class:`LifState` for inspection.
    """
    if params is None:
        params = LifParams()
    x = current.value.data
    _check_current(x)
    membrane = x.copy()
    spikes = _recurrence(membrane, params, smooth, keep_membrane=True)

    def backward(g):
        return (_recurrence_backward(g, membrane, params, smooth),)

    out = current.tape.record("lif", (current,), spikes, backward)
    if return_state:
        return out, LifState(membrane, spikes)
    return out


def lif_linear(x, ws, params: LifParams | None = None, *, smooth: bool = False,
               residual: DiffTensor | None = None) -> DiffTensor:
    """A chain of spiking projections, plus an optional residual, as one node.

    ``ws`` is one weight or a sequence of them: the first projects ``x``,
    each later one the spikes of the layer before, and every projection
    drives a LIF.  The output is the last layer's spikes, plus ``residual``
    if given.  Output and gradients are bitwise those of
    ``add(residual, lif_forward(matmul(... lif_forward(matmul(x, w1)) ..., wn)))``.
    ``x`` may be a plain array, a constant that gets no gradient.

    While the tape records, each current is a local array that its
    membrane overwrites in place, and the node saves the input and the
    membranes and nothing else: the backward re-fires the hidden spikes
    from their membranes only to form the weight gradients.  While it does
    not record, the spikes overwrite each current and the membrane lives
    in two rolling rows, so a site holds one array.
    """
    if params is None:
        params = LifParams()
    ws = (ws,) if isinstance(ws, DiffTensor) else tuple(ws)
    constant = not isinstance(x, DiffTensor)
    xv = x if constant else x.value.data
    width = xv.shape[-1] if xv.ndim >= 2 else None
    for w in ws:
        if w.value.data.ndim != 2 or w.shape[0] != width:
            raise DimensionError(f"cannot project {xv.shape} through weights "
                                 f"{[w.shape for w in ws]}")
        width = w.shape[1]
    inputs = ws if constant else (x,) + ws
    if residual is not None:
        if residual.shape != xv.shape[:-1] + (width,):
            raise DimensionError(f"residual {residual.shape} does not match the "
                                 f"output {xv.shape[:-1] + (width,)}")
        if residual is not x:
            inputs += (residual,)
    tape = _tape_of(*inputs)
    membranes = []
    spikes = xv
    for w in ws:
        current = dense_forward(spikes, w.value.data)
        _check_current(current)
        spikes = _recurrence(current, params, smooth, keep_membrane=tape.recording)
        if tape.recording:
            membranes.append(current)
    if residual is not None:
        np.add(spikes, residual.value.data, out=spikes)

    def backward(g):
        dws = [None] * len(ws)
        dv = _recurrence_backward(g, membranes[-1], params, smooth)
        for i in range(len(ws) - 1, 0, -1):
            # The hidden spikes live only for their weight gradient.
            v = membranes[i - 1]
            dws[i] = dense_weight_grad(_fire(v, params, smooth, np.empty_like(v)), dv)
            dv = dense_input_grad(dv, ws[i].value.data)
            _recurrence_backward(dv, v, params, smooth, out=dv)
        dws[0] = dense_weight_grad(xv, dv)
        grads = dws if constant else [dense_input_grad(dv, ws[0].value.data)] + dws
        if residual is x:
            np.add(grads[0], g, out=grads[0])
        elif residual is not None:
            grads.append(g)
        return grads

    return tape.record("lif_linear", inputs, spikes, backward)
