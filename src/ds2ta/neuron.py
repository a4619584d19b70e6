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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensorcore import DiffTensor

DEFAULT_TAU_M = 2.0
DEFAULT_THETA = 1.0
DEFAULT_ALPHA = 2.0


@dataclass(frozen=True)
class LifParams:
    tau_m: float = DEFAULT_TAU_M
    theta: float = DEFAULT_THETA
    surrogate_alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
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
    if x.ndim < 1:
        raise ConfigError("synaptic input needs a leading time axis")
    # min + max is finite iff every element is; this avoids materialising a
    # boolean mask on the hot path.  Locate the offending step only on failure.
    if not np.isfinite(x.min() + x.max()):
        bad = ~np.isfinite(x)
        t = int(np.argwhere(bad.reshape(x.shape[0], -1).any(axis=1))[0, 0])
        raise NumericError(f"non-finite synaptic input at timestep {t}")

    steps = x.shape[0]
    leak, theta, alpha = params.leak, params.theta, params.surrogate_alpha
    membrane = np.empty_like(x)
    spikes = np.empty_like(x)
    # The kernels below work on [T, M] views, whose rows are arrays even
    # for a 1-D input.
    xf = x.reshape(steps, -1)
    vf = membrane.reshape(steps, -1)
    sf = spikes.reshape(steps, -1)
    # V[t] = (leak * V[t-1]) * (1 - S[t-1]) + I[t], written in place into
    # the rows of the saved trajectories; from rest, V[0] = 0 + I[0].
    reset = np.empty_like(xf[0])
    for t in range(steps):
        v = vf[t]
        if t == 0:
            np.add(xf[0], 0.0, out=v)
        else:
            np.subtract(1.0, sf[t - 1], out=reset)
            np.multiply(vf[t - 1], leak, out=v)
            np.multiply(v, reset, out=v)
            np.add(v, xf[t], out=v)
        if smooth:
            sf[t] = surrogate_primitive(v - theta, alpha)
        else:
            np.greater_equal(v, theta, out=sf[t])

    # surrogate_grad(v) with its constants folded: halving is exact, so
    # (pi*alpha*v)/2 == (pi*alpha/2)*v bitwise.
    peak, slope = alpha / 2.0, np.pi * alpha / 2.0

    def backward(g):
        # Per timestep, in the order of the unfused expressions
        #   a_spike = g[t] - a_next * (leak * V[t])
        #   a_v = a_spike * surrogate_grad(V[t] - theta)
        #         + a_next * (leak * (1 - S[t]))
        # with a_next = dL/dV[t+1], written into rows of d_in and two
        # scratch rows.  At the last step a_next is zero.
        d_in = np.empty_like(x)
        df = d_in.reshape(steps, -1)
        gf = g.reshape(steps, -1)
        a_spike = np.empty_like(xf[0])
        tmp = np.empty_like(xf[0])
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
            np.subtract(1.0, sf[t], out=tmp)
            np.multiply(tmp, leak, out=tmp)
            np.multiply(a_next, tmp, out=tmp)
            np.add(a_spike, tmp, out=a_v)
        return (d_in,)

    out = current.tape.record("lif", (current,), spikes, backward)
    if return_state:
        return out, LifState(membrane, spikes)
    return out
