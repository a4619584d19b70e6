"""Nonlinear spiking attention denoiser backed by per-head lookup tables.

Each head owns six continuous scalars (a, b, c, dw, e, u) defining

    g(s) = a*s + b*(s - c)^2 + dw / (1 + exp(s - e))
    f(s) = g(s) if s > u else 0            (inference, strict threshold)

Attention scores are integers in [0, head_dim], so inference never
evaluates f: it reads a materialized table AD[s] = max(0, round(f(s)))
with one entry per possible score (head_dim + 1 entries, ties rounded
away from zero).  The table is rebuilt from the continuous parameters
after every optimizer step.

Training keeps the quantized forward (table values) but routes gradients
through the continuous relaxation

    f_train(s) = sigmoid((s - u) / GATE_TEMP) * g(s)

straight through the rounding.  Gradients flow to the six scalars only;
the scores themselves are integer spike counts and are treated as
constants by this operation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ScoreRangeError
from .tensorcore import DiffTensor, Tape, round_half_away
from .tasa import AttentionScores

GATE_TEMP = 0.5


def _sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class NsadHead:
    """Learnable denoiser scalars for one attention head, plus its table."""

    PARAM_NAMES = ("a", "b", "c", "dw", "e", "u")

    def __init__(self, tape: Tape, head_dim: int, u_init: float = 1.5, dtype=np.float64):
        if head_dim < 1:
            raise ConfigError(f"head_dim must be >= 1, got {head_dim}")
        if u_init < 0:
            raise ConfigError(f"threshold init must be >= 0, got {u_init}")
        self.head_dim = head_dim
        # Near-identity start: pass scores through untouched above the
        # threshold, with the quadratic and sigmoid terms switched off.
        init = {"a": 1.0, "b": 0.0, "c": 0.0, "dw": 0.0,
                "e": head_dim / 2.0, "u": float(u_init)}
        for name in self.PARAM_NAMES:
            setattr(self, name, tape.leaf(np.asarray(init[name], dtype=dtype)))
        self.table: np.ndarray | None = None
        self.rebuild()

    def named_params(self):
        for name in self.PARAM_NAMES:
            yield name, getattr(self, name)

    def param_floats(self) -> dict[str, float]:
        return {name: float(getattr(self, name).value.data) for name in self.PARAM_NAMES}

    def rebuild(self) -> None:
        self.table = build_table(self, self.head_dim)

    def set_params(self, **values) -> None:
        """Overwrite parameter values in place (testing convenience)."""
        for name, value in values.items():
            if name not in self.PARAM_NAMES:
                raise ConfigError(f"unknown denoiser parameter {name!r}")
            dt = getattr(self, name)
            dt.value.data[...] = value
        self.rebuild()


def g_eval(s, head: NsadHead):
    """Continuous response a*s + b*(s-c)^2 + dw/(1+exp(s-e))."""
    p = head.param_floats()
    s = np.asarray(s, dtype=np.float64)
    return p["a"] * s + p["b"] * (s - p["c"]) ** 2 + p["dw"] * _sigmoid(p["e"] - s)


def f_eval(s, head: NsadHead, mode: str = "eval", gate_temp: float = GATE_TEMP):
    """Thresholded response: hard strict gate in eval, sigmoid gate in train."""
    s = np.asarray(s, dtype=np.float64)
    g = g_eval(s, head)
    if mode == "eval":
        return np.where(s > float(head.u.value.data), g, 0.0)
    if mode == "train":
        return _sigmoid((s - float(head.u.value.data)) / gate_temp) * g
    raise ConfigError(f"unknown mode {mode!r}")


def build_table(head: NsadHead, d: int) -> np.ndarray:
    """Materialize AD[s] for s = 0..d: clamp-at-zero rounded eval response.

    AD[0] is always 0 because the threshold u is kept non-negative and the
    eval gate is strict.
    """
    grid = np.arange(d + 1, dtype=np.float64)
    return np.maximum(0.0, round_half_away(f_eval(grid, head, "eval"))).astype(np.int64)


def _train_partials(s: np.ndarray, params: dict[str, float], gate_temp: float):
    """Partial derivatives of f_train(s) with respect to each head scalar."""
    a, b, c, dw, e, u = (params[k] for k in NsadHead.PARAM_NAMES)
    gate = _sigmoid((s - u) / gate_temp)
    q = _sigmoid(e - s)  # the dw term is dw * q
    g = a * s + b * (s - c) ** 2 + dw * q
    return {
        "a": gate * s,
        "b": gate * (s - c) ** 2,
        "c": gate * (-2.0 * b * (s - c)),
        "dw": gate * q,
        "e": gate * (dw * q * (1.0 - q)),
        "u": -gate * (1.0 - gate) / gate_temp * g,
    }


def denoise(scores: AttentionScores, heads: list[NsadHead], *,
            continuous: bool = False) -> DiffTensor:
    """Map raw scores through each head's denoiser.

    The quantized path looks every integer score up in the head's table.
    ``continuous=True`` evaluates the train-mode relaxation instead (used
    for the relaxed gradient checks and the continuous-forward ablation);
    it also accepts non-integer scores in [0, head_dim].  Both paths share
    one backward: accumulate into the six scalars of each head through the
    train-mode form, nothing into the scores.
    """
    s_dt = scores.scores
    s_arr = s_dt.value.data
    if s_arr.ndim != 5:
        raise ScoreRangeError(f"expected [T, B, H, N, N] scores, got shape {s_arr.shape}")
    if s_arr.shape[2] != len(heads):
        raise ConfigError(f"{len(heads)} heads supplied for {s_arr.shape[2]} score planes")
    d = scores.head_dim
    if s_arr.size == 0:
        raise ScoreRangeError("empty score tensor")
    lo, hi = float(s_arr.min()), float(s_arr.max())
    if lo < 0.0 or hi > d:
        raise ScoreRangeError(
            f"score outside [0, {d}]: min {lo}, max {hi} "
            f"(upstream query/key activations are not binary spikes)")

    # Integral scores take one of d + 1 values per head, so both the table
    # read and the backward work on flat indices s + h*(d + 1) into the
    # [H, d + 1] grid of (head, score) pairs, saved in the narrowest
    # unsigned type that holds them (uint8 at the default sizes).
    s_int = s_arr.astype(np.int64)
    integral = np.array_equal(s_int, s_arr)
    if integral:
        index_type = np.min_scalar_type(len(heads) * (d + 1))
        s_int = s_int.astype(index_type)
        s_int += (np.arange(len(heads), dtype=index_type) * (d + 1)).reshape(-1, 1, 1)
    if continuous:
        out = np.stack([f_eval(s_arr[:, :, h], head, "train")
                        for h, head in enumerate(heads)], axis=2)
        out = out.astype(s_arr.dtype)
    elif not integral:
        raise ScoreRangeError(
            "non-integer attention score on the quantized path "
            "(upstream query/key activations are not binary spikes)")
    else:
        tables = np.stack([head.table for head in heads]).astype(s_arr.dtype)
        out = tables.reshape(-1).take(s_int)

    frozen = [head.param_floats() for head in heads]
    grid = np.arange(d + 1, dtype=np.float64)

    def backward(g):
        grads: list[np.ndarray | None] = [None]  # scores: integer counts, no gradient
        if integral:
            # Sum the upstream gradient per (head, score), then weight each
            # sum by the partials at that score: d + 1 evaluations per head
            # instead of one per score entry.
            hist = np.bincount(s_int.reshape(-1), weights=g.reshape(-1),
                               minlength=len(heads) * (d + 1)).reshape(len(heads), d + 1)
        for h, params in enumerate(frozen):
            if integral:
                parts = _train_partials(grid, params, GATE_TEMP)
                sums = [hist[h] @ parts[name] for name in NsadHead.PARAM_NAMES]
            else:
                parts = _train_partials(s_arr[:, :, h].astype(np.float64), params, GATE_TEMP)
                gh = g[:, :, h]
                sums = [np.sum(gh * parts[name]) for name in NsadHead.PARAM_NAMES]
            grads.extend(np.asarray(v, dtype=s_arr.dtype) for v in sums)
        return grads

    inputs = [s_dt]
    for head in heads:
        inputs.extend(dt for _, dt in head.named_params())
    return s_dt.tape.record("denoise", tuple(inputs), out, backward)

