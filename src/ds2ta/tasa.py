"""Temporally attenuated spatiotemporal attention kernels.

A projection attends over a sliding window of past timesteps whose
contributions decay by powers of two:

    s_filt[t] = sum_{lag=0}^{min(t_aw, t+1)-1}  2^(-tau * lag) * s[t - lag]

Because the decay over the window equals a single shared weight matrix
scaled per lag, the fast path filters the spike train once and applies the
weights once; :func:`explicit_sta_oracle` materializes the per-lag weight
replicas and computes the literal double sum for equivalence testing.

The decay exponent ``tau`` is a small non-negative integer at inference
time so the attenuation is implementable as a bit shift;
:func:`shift_decay_apply` is that fixed-point path and must agree bitwise
with float multiplication by 2^(-tau*lag).  During training ``tau`` is the
straight-through rounding of a continuous parameter.

Attention runs per head on [T, B, H, N, D/H] strided views of the
[T, B, N, D] activations: :func:`attention_scores` and :func:`attend`
neither copy heads apart nor merge them back, and their backwards write
into head views of fresh arrays.  :func:`split_heads` and
:func:`merge_heads` are the copying composition they reproduce bitwise
(for the scores, on spike queries and keys, as the model gives them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InputError, PrecisionError
from .tensorcore import DiffTensor, _tape_of, reshape, round_half_away, transpose

LN2 = float(np.log(2.0))


def decay_factors(tau: float, count: int) -> np.ndarray:
    """[2^0, 2^-tau, 2^-2*tau, ...] with ``count`` entries."""
    return 2.0 ** (-float(tau) * np.arange(count, dtype=np.float64))


def _tau_value(tau) -> float:
    v = float(tau.value.data) if isinstance(tau, DiffTensor) else float(tau)
    if v < 0:
        raise ConfigError(f"decay exponent must be >= 0, got {v}")
    return v


def temporal_filter(s: DiffTensor, t_aw: int, tau=0) -> DiffTensor:
    """Apply the power-of-two decay window over the leading time axis.

    ``tau`` may be a scalar DiffTensor (its gradient is the exact
    derivative of the decay factors at the current value) or a plain
    number.  A window of 1 is the identity filter.  The factors are cast
    to the dtype of ``s`` so a float32 filter computes in float32; at an
    integral exponent they are powers of two, exact in either dtype.
    """
    if t_aw < 1:
        raise ConfigError(f"t_aw must be >= 1, got {t_aw}")
    tau_dt = tau if isinstance(tau, DiffTensor) else None
    tau_val = _tau_value(tau)
    x = s.value.data
    steps = x.shape[0]
    lags = min(t_aw, steps)
    factors = decay_factors(tau_val, lags).astype(x.dtype)
    out = x.copy()  # lag 0 carries factor 2^0 = 1
    for lag in range(1, lags):
        out[lag:] += factors[lag] * x[: steps - lag]

    def backward(g):
        ds = g.copy()
        for lag in range(1, lags):
            ds[: steps - lag] += factors[lag] * g[lag:]
        if tau_dt is None:
            return (ds,)
        dtau = 0.0
        for lag in range(1, lags):
            dot = float(np.vdot(g[lag:], x[: steps - lag]))
            dtau += (-lag * LN2 * float(factors[lag])) * dot
        return ds, np.asarray(dtau, dtype=x.dtype)

    inputs = (s,) if tau_dt is None else (s, tau_dt)
    return s.tape.record("temporal_filter", inputs, out, backward)


def tau_round_ste(tau_cont: DiffTensor, tau_max: int) -> DiffTensor:
    """Round the continuous decay parameter and clamp to [0, tau_max].

    The backward pass is straight-through: identity while the rounded
    value lies inside the clamp range, zero once the clamp is active.
    """
    if tau_cont.value.data.ndim != 0:
        raise DimensionError(f"decay parameter must be a scalar, got shape {tau_cont.shape}")
    rounded = float(round_half_away(float(tau_cont.value.data)))
    clamped = min(max(rounded, 0.0), float(tau_max))
    passthrough = rounded == clamped

    def backward(g):
        return (g if passthrough else np.zeros_like(g),)

    return tau_cont.tape.record("tau_round_ste", (tau_cont,),
                                np.asarray(clamped, dtype=tau_cont.value.dtype), backward)


def explicit_sta_oracle(s_prev: np.ndarray, weight: np.ndarray, t_aw: int, tau) -> np.ndarray:
    """Literal windowed double sum with materialized per-lag weight replicas.

    Test oracle for the filter-then-project path of the encoder block:
    small shapes only, no tape.  ``tau`` is the decay exponent after
    rounding.  Each lag uses its own weight matrix W * 2^(-tau*lag), so
    this path never reuses the factored filter-then-project shortcut.
    """
    tau = _tau_value(tau)
    s_prev = np.asarray(s_prev, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    steps = s_prev.shape[0]
    replicas = [weight * f for f in decay_factors(tau, t_aw)]
    out = np.zeros(s_prev.shape[:-1] + (weight.shape[1],), dtype=np.float64)
    for t in range(steps):
        for lag in range(min(t_aw, t + 1)):
            out[t] += s_prev[t - lag] @ replicas[lag]
    return out


def shift_decay_apply(acc, tau_int: int, delta: int, frac_bits: int = 32) -> np.ndarray:
    """Attenuate integer accumulations by 2^(-tau*delta) via a right shift.

    The accumulators are widened to a fixed-point representation with
    ``frac_bits`` fractional bits and shifted right by tau*delta bits; the
    result converted back to float64 equals float multiplication by
    2^(-tau*delta) bitwise.  Shifting past the fractional bits would drop
    significant bits and raises :class:`PrecisionError` instead.
    """
    arr = np.asarray(acc)
    if not np.issubdtype(arr.dtype, np.integer):
        raise InputError(f"accumulators must be integers, got dtype {arr.dtype}")
    if arr.size and arr.min() < 0:
        raise InputError("accumulators must be non-negative")
    if tau_int < 0 or delta < 0:
        raise ConfigError(f"tau ({tau_int}) and delta ({delta}) must be >= 0")
    shift = int(tau_int) * int(delta)
    if shift > frac_bits:
        raise PrecisionError(f"shift by {shift} bits exceeds {frac_bits} fraction bits")
    if arr.size and int(arr.max()) >= 2 ** (63 - frac_bits):
        raise PrecisionError(f"accumulator {int(arr.max())} overflows "
                             f"{63 - frac_bits} integer bits")
    fixed = arr.astype(np.int64) << frac_bits
    return (fixed >> shift).astype(np.float64) / float(2 ** frac_bits)


@dataclass
class AttentionScores:
    """Per-head spike co-activation counts, integer-valued in [0, head_dim]."""

    scores: DiffTensor  # [T, B, H, N, N]
    head_dim: int


def split_heads(x: DiffTensor, heads: int) -> DiffTensor:
    """[T, B, N, D] -> [T, B, H, N, D/H]."""
    t, b, n, d = x.shape
    if d % heads != 0:
        raise ConfigError(f"embedding dim {d} not divisible by {heads} heads")
    parted = reshape(x, (t, b, n, heads, d // heads))
    return transpose(parted, (0, 1, 3, 2, 4))


def merge_heads(x: DiffTensor) -> DiffTensor:
    """[T, B, H, N, d] -> [T, B, N, H*d]."""
    t, b, h, n, d = x.shape
    return reshape(transpose(x, (0, 1, 3, 2, 4)), (t, b, n, h * d))


def _head_view(x: np.ndarray, heads: int) -> np.ndarray:
    """[T, B, N, D] array -> [T, B, H, N, D/H] strided view, no copy."""
    t, b, n, d = x.shape
    return x.reshape(t, b, n, heads, d // heads).transpose(0, 1, 3, 2, 4)


def attention_scores(q: DiffTensor, k: DiffTensor, heads: int) -> AttentionScores:
    """Raw per-head, per-timestep score matrices Q_h[t] @ K_h[t]^T.

    With binary spike inputs each score is a popcount of query/key
    co-activations, so no softmax and no 1/sqrt(d) scaling is applied;
    values stay exact integers in [0, head_dim].  Heads are read through
    strided views of ``q`` and ``k`` and the gradients are written into
    head views of fresh [T, B, N, D] arrays, so neither direction copies
    the heads apart.  The scores of spike queries and keys are exact
    counts, bitwise those of
    ``matmul(split_heads(q), transpose(split_heads(k), (0, 1, 2, 4, 3)))``.
    Real-valued products (the gradients, smooth-mode scores) run the same
    sums through another BLAS operand layout; they matched bitwise at the
    default sizes, but BLAS may round them differently at others.
    """
    if q.shape != k.shape:
        raise DimensionError(f"query shape {q.shape} differs from key shape {k.shape}")
    if len(q.shape) != 4:
        raise DimensionError(f"expected [T, B, N, D] activations, got {q.shape}")
    if q.shape[-1] % heads != 0:
        raise ConfigError(f"embedding dim {q.shape[-1]} not divisible by {heads} heads")
    qv, kv = q.value.data, k.value.data
    qh, kh = _head_view(qv, heads), _head_view(kv, heads)
    scores = np.matmul(qh, kh.swapaxes(-1, -2))

    def backward(g):
        dq, dk = np.empty_like(qv), np.empty_like(kv)
        np.matmul(g, kh, out=_head_view(dq, heads))
        np.matmul(qh.swapaxes(-1, -2), g, out=_head_view(dk, heads).swapaxes(-1, -2))
        return dq, dk

    out = _tape_of(q, k).record("attention_scores", (q, k), scores, backward)
    return AttentionScores(out, head_dim=q.shape[-1] // heads)


def attend(att: DiffTensor, v: DiffTensor, heads: int) -> DiffTensor:
    """Mix values by the attention maps: ``merge_heads(att @ split_heads(v))``.

    ``att`` is [T, B, H, N, N] and ``v`` is [T, B, N, D].  Each head's
    product is written through a head view into one [T, B, N, D] output,
    and the backward reads the upstream gradient through head views too,
    so no head is copied apart or merged back.  Each product has the
    operand layout of the split/matmul/merge composition, whose values and
    gradients it reproduces bitwise.
    """
    a, x = att.value.data, v.value.data
    if a.ndim != 5 or x.ndim != 4 or a.shape[2] != heads or x.shape[-1] % heads \
            or a.shape[:2] != x.shape[:2] or a.shape[-1] != x.shape[2]:
        raise DimensionError(f"attention maps {a.shape} do not fit values {x.shape} "
                             f"with {heads} heads")
    vh = _head_view(x, heads)
    out = np.empty_like(x)
    np.matmul(a, vh, out=_head_view(out, heads))

    def backward(g):
        gh = _head_view(g, heads)
        datt = np.matmul(gh, vh.swapaxes(-1, -2))
        dv = np.empty_like(x)
        np.matmul(a.swapaxes(-1, -2), gh, out=_head_view(dv, heads))
        return datt, dv

    return _tape_of(att, v).record("attend", (att, v), out, backward)
