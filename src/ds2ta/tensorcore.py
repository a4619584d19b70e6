"""Dense tensors and a minimal reverse-mode differentiation tape.

Array payloads are contiguous row-major numpy arrays of rank at most 5.
A :class:`Tape` records one node per produced value, in execution order;
``Tape.backward`` replays the nodes in strict reverse insertion order,
which is a valid topological order because every node is appended at the
moment its output is computed and each :class:`DiffTensor` is the output
of at most one node (operations always allocate a fresh output).

The tape holds memory only while something can still read it.  Backward
consumes the graph: it pops each node as it runs it, so the node's saved
arrays and its output's gradient are freed once the gradient has been
passed on, and only the leaves keep gradients.  A tape with recording
switched off (inference, see ``SpikingTransformer.forward_logits``)
appends no node at all, so each activation is freed as soon as the
forward stops referring to it.  A backward closure hands its returned
arrays over to the tape, which stores a fresh one as the input's gradient
without copying it (the contract is on :meth:`Tape.record`).

Tensors hold float32 or float64.  The model trains and infers in float32;
the gradient checks run in float64 (:func:`check_gradients` always builds
float64 leaves).  With a fixed seed, dtype and operation sequence, values
and gradients are bitwise reproducible at a fixed BLAS thread count.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AxisError, DimensionError, LabelError

MAX_RANK = 5

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

# glibc mallopt parameters and the values set below.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's ceiling for this setting on 64-bit
_TRIM_THRESHOLD_BYTES = 1 << 30


def _keep_freed_heap() -> bool:
    """Keep freed arrays' pages in the heap for reuse by the next step.

    A training step frees and reallocates the same few hundred arrays of
    up to a few MiB.  By default glibc serves the larger ones with mmap
    (its threshold adapts upward only as far as the largest block freed so
    far) and trims the heap top after frees, so every step faults the same
    pages back in from the kernel.  Fixing the mmap threshold at 32 MiB and
    the trim threshold at 1 GiB keeps those pages mapped.  Both are needed:
    setting the trim threshold alone also freezes the mmap threshold at its
    128 KiB default, which sends every larger array to mmap.
    Returns False, changing nothing, where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
                and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES))


HEAP_KEPT = _keep_freed_heap()


def make_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based random generator (Philox) for a seed and stream key.

    The optional ``key`` integers select independent streams of the same
    seed, so substreams (parameter init, data shuffling, ...) can be split
    without coupling their draws.  The pair (seed, key) fully determines
    every draw, which is what checkpoints and manifests record.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def round_half_away(x):
    """Round to nearest integer with ties away from zero.

    numpy's ``round`` rounds ties to even; the quantization steps in this
    package (decay exponents, denoiser tables) use the away-from-zero
    convention instead, so it lives here as the single shared definition.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


class Tensor:
    """Contiguous row-major float tensor with every extent >= 1, rank <= 5."""

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.asarray(data)
        if dtype is None:
            dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float64
        # np.ascontiguousarray would promote 0-d arrays to rank 1; asarray
        # with an order keeps scalars scalar and still yields C layout.
        arr = np.asarray(arr, dtype=dtype, order="C")
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if arr.ndim > MAX_RANK:
            raise DimensionError(f"rank {arr.ndim} exceeds the maximum of {MAX_RANK}")
        if any(extent < 1 for extent in arr.shape):
            raise DimensionError(f"zero-sized extent in shape {arr.shape}")
        self.data = arr

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())

    @classmethod
    def zeros(cls, shape, dtype=np.float64) -> "Tensor":
        return cls(np.zeros(shape, dtype=dtype))

    @classmethod
    def full(cls, shape, value, dtype=np.float64) -> "Tensor":
        return cls(np.full(shape, value, dtype=dtype))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


class DiffTensor:
    """A tensor value bound to a tape, with a lazily materialized gradient."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value: Tensor, tape: "Tape"):
        self.value = value
        self.grad: Tensor | None = None
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def data(self) -> np.ndarray:
        return self.value.data

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.value.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match value shape {self.value.data.shape}"
            )
        if self.grad is None:
            # One owned copy in the value's dtype: the caller may reuse or
            # mutate ``g``, and one array may be the gradient of two inputs.
            self.grad = Tensor(np.array(g, dtype=self.value.data.dtype, order="C"))
        else:
            self.grad.data += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"DiffTensor(shape={self.shape}, dtype={self.value.dtype})"


@dataclass
class TapeNode:
    name: str
    inputs: tuple[DiffTensor, ...]
    output: DiffTensor
    backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Tape:
    """Ordered record of differentiable operations.

    The tape owns all saved forward state; a single tape is meant to be
    used from a single thread.  ``backward`` consumes the recorded nodes;
    ``clear`` drops whatever is left, such as a graph that was never
    differentiated.  Previously created leaves (parameters) stay usable,
    so a training loop records a fresh graph per step over long-lived
    leaves.  While ``recording`` is False, operations compute their
    outputs but append no node.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.recording = True

    def leaf(self, value, dtype=None) -> DiffTensor:
        """Bind a value to this tape without recording a node."""
        if not isinstance(value, Tensor):
            value = Tensor(value, dtype=dtype)
        return DiffTensor(value, self)

    def record(self, name, inputs, out_data, backward) -> DiffTensor:
        """Wrap ``out_data`` as an output and, while recording, append its node.

        ``backward`` maps the output's gradient to one gradient (or None)
        per input.  Contract: it returns only arrays that neither it nor
        any other closure reads again, that is fresh arrays or views of the
        upstream gradient, never a saved forward array.  The tape may store
        a fresh returned array as the input's gradient and later add other
        gradients into it in place.
        """
        out = DiffTensor(Tensor(out_data), self)
        if self.recording:
            self.nodes.append(TapeNode(name, tuple(inputs), out, backward))
        return out

    def backward(self, root: DiffTensor) -> None:
        """Accumulate gradients of ``root`` into every leaf it reaches.

        The root is seeded with ones.  Nodes are popped and run in strict
        reverse insertion order, so the graph is consumed: the tape is
        empty afterwards, nodes whose output never received a gradient
        (unreachable from the root) are dropped unrun, and every node
        output's gradient is released once passed on.  Leaves keep their
        gradients.
        """
        if root.tape is not self:
            raise ValueError("root does not belong to this tape")
        root.accumulate_grad(np.ones_like(root.value.data))
        while self.nodes:
            self._run(self.nodes.pop())

    @staticmethod
    def _run(node: TapeNode) -> None:
        # One call per node, so that the node, its upstream gradient and
        # the returned list are released on return, not at the next node.
        out = node.output
        if out.grad is None:
            return
        upstream = out.grad.data
        out.grad = None
        grads = node.backward(upstream)
        if len(grads) != len(node.inputs):
            raise ValueError(f"node {node.name} returned {len(grads)} gradients "
                             f"for {len(node.inputs)} inputs")
        grads = [None if g is None else np.asarray(g) for g in grads]
        for i, (inp, g) in enumerate(zip(node.inputs, grads)):
            if g is None:
                continue
            want = inp.value.data
            if (inp.grad is None and g.dtype == want.dtype and g.shape == want.shape
                    and g.flags.c_contiguous and not np.may_share_memory(g, upstream)
                    and not any(other is not None and j != i
                                and np.may_share_memory(g, other)
                                for j, other in enumerate(grads))):
                # A fresh array no closure reads again: hand it over as is.
                inp.grad = Tensor(g)
            else:
                inp.accumulate_grad(g)

    def clear(self) -> None:
        self.nodes.clear()


def _tape_of(*tensors: DiffTensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands belong to different tapes")
    return tape


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def dense_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for shared 2-D weights: the batch extents of ``x`` are
    collapsed into one GEMM instead of looping many small ones."""
    flat = x.reshape(-1, x.shape[-1])
    return (flat @ w).reshape(x.shape[:-1] + (w.shape[-1],))


def dense_input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """dx of :func:`dense_forward` for the upstream ``g``."""
    return (g.reshape(-1, w.shape[-1]) @ w.T).reshape(g.shape[:-1] + (w.shape[0],))


def dense_weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dw of :func:`dense_forward` for the upstream ``g``."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Batched matrix product; leading extents broadcast (equal or 1)."""
    tape = _tape_of(a, b)
    x, y = a.value.data, b.value.data
    if x.ndim < 2 or y.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {x.shape} and {y.shape}")
    if x.shape[-1] != y.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {x.shape} x {y.shape}")
    for xa, ya in zip(x.shape[-3::-1], y.shape[-3::-1]):
        if xa != ya and 1 not in (xa, ya):
            raise DimensionError(f"matmul batch extents incompatible: {x.shape} x {y.shape}")

    if y.ndim == 2:
        out = dense_forward(x, y)

        def backward(g):
            return dense_input_grad(g, y), dense_weight_grad(x, g)
    else:
        out = x @ y

        def backward(g):
            da = _unbroadcast(g @ y.swapaxes(-1, -2), x.shape)
            db = _unbroadcast(x.swapaxes(-1, -2) @ g, y.shape)
            return da, db

    return tape.record("matmul", (a, b), out, backward)


def _ewise(name, a, b, fwd, bwd):
    tape = _tape_of(a, b)
    x, y = a.value.data, b.value.data
    if x.shape != y.shape:
        raise DimensionError(f"{name} operand shapes differ: {x.shape} vs {y.shape}")
    return tape.record(name, (a, b), fwd(x, y), lambda g: bwd(g, x, y))


def add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _ewise("add", a, b, lambda x, y: x + y, lambda g, x, y: (g, g))


def sub(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _ewise("sub", a, b, lambda x, y: x - y, lambda g, x, y: (g, -g))


def mul(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    return _ewise("mul", a, b, lambda x, y: x * y, lambda g, x, y: (g * y, g * x))


def scale(a: DiffTensor, c: float) -> DiffTensor:
    """Multiply by a python scalar constant (the only implicit broadcast)."""
    c = float(c)
    return a.tape.record("scale", (a,), a.value.data * c, lambda g: (g * c,))


def _normalize_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    norm = []
    for ax in axes:
        if not -ndim <= ax < ndim:
            raise AxisError(f"axis {ax} out of range for rank {ndim}")
        norm.append(ax % ndim)
    if len(set(norm)) != len(norm):
        raise AxisError(f"repeated axis in {tuple(axes)}")
    return tuple(sorted(norm))


def _reduce(name, a, axes, mean: bool):
    tape = a.tape
    x = a.value.data
    axes = _normalize_axes(axes, x.ndim)
    count = int(np.prod([x.shape[ax] for ax in axes])) if axes else 1
    out = x.mean(axis=axes) if mean else x.sum(axis=axes)

    def backward(g):
        gk = np.expand_dims(g, axes) if axes else g
        full = np.broadcast_to(gk, x.shape).astype(x.dtype, copy=True)
        if mean:
            full /= count
        return (full,)

    return tape.record(name, (a,), out, backward)


def reduce_sum(a: DiffTensor, axes=None) -> DiffTensor:
    return _reduce("reduce_sum", a, axes, mean=False)


def reduce_mean(a: DiffTensor, axes=None) -> DiffTensor:
    return _reduce("reduce_mean", a, axes, mean=True)


def reshape(a: DiffTensor, shape) -> DiffTensor:
    x = a.value.data
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} to {shape}")
    if len(shape) > MAX_RANK:
        raise DimensionError(f"rank {len(shape)} exceeds the maximum of {MAX_RANK}")
    return a.tape.record("reshape", (a,), x.reshape(shape),
                         lambda g: (g.reshape(x.shape),))


def transpose(a: DiffTensor, axes) -> DiffTensor:
    x = a.value.data
    axes = tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise AxisError(f"{axes} is not a permutation of rank {x.ndim}")
    inverse = tuple(int(ax) for ax in np.argsort(axes))
    return a.tape.record("transpose", (a,), np.ascontiguousarray(x.transpose(axes)),
                         lambda g: (np.ascontiguousarray(g.transpose(inverse)),))


def bias_add(a: DiffTensor, b: DiffTensor) -> DiffTensor:
    """Add a rank-1 bias along the trailing extent of ``a``."""
    tape = _tape_of(a, b)
    x, y = a.value.data, b.value.data
    if y.ndim != 1 or x.shape[-1] != y.shape[0]:
        raise DimensionError(f"bias of shape {y.shape} does not fit trailing extent of {x.shape}")

    def backward(g):
        return g, g.reshape(-1, y.shape[0]).sum(axis=0)

    return tape.record("bias_add", (a, b), x + y, backward)


def cross_entropy_logits(logits: DiffTensor, labels) -> DiffTensor:
    """Mean cross-entropy of integer labels against raw logits.

    Stabilized by per-row max subtraction; the backward pass is the closed
    form (softmax - one_hot) / batch.
    """
    x = logits.value.data
    if x.ndim != 2:
        raise DimensionError(f"logits must be [batch, classes], got {x.shape}")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
        raise LabelError(f"labels shape {labels.shape} does not match batch {x.shape[0]}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise LabelError(f"labels must be integers, got dtype {labels.dtype}")
    n, c = x.shape
    if labels.min() < 0 or labels.max() >= c:
        raise LabelError(f"label outside [0, {c}): {labels.min()}..{labels.max()}")
    z = x - x.max(axis=1, keepdims=True)
    ez = np.exp(z)
    softmax = ez / ez.sum(axis=1, keepdims=True)
    log_probs = z - np.log(ez.sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()

    def backward(g):
        grad = softmax.copy()
        grad[np.arange(n), labels] -= 1.0
        return (grad * (g / n),)

    return logits.tape.record("cross_entropy_logits", (logits,), np.asarray(loss), backward)


@dataclass
class GradCheckFailure:
    input_index: int
    flat_index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    failures: list[GradCheckFailure]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_gradients(fn, inputs, eps: float = 1e-5, tol: float = 1e-6) -> GradCheckReport:
    """Compare tape gradients of a scalar program against central differences.

    ``fn`` receives one DiffTensor leaf per entry of ``inputs`` (always
    float64, on a fresh tape) and must return a scalar DiffTensor.  The
    relative error of an element is |analytic - numeric| divided by
    max(1, |analytic|, |numeric|).
    """
    arrays = [np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64) for x in inputs]

    def run(arrs):
        tape = Tape()
        leaves = [tape.leaf(a) for a in arrs]
        out = fn(*leaves)
        if out.value.data.ndim != 0:
            raise DimensionError(f"gradient check requires a scalar output, got {out.shape}")
        return tape, leaves, out

    tape, leaves, out = run(arrays)
    tape.backward(out)
    analytic = [leaf.grad.data.copy() if leaf.grad is not None else np.zeros_like(a)
                for leaf, a in zip(leaves, arrays)]

    max_rel = 0.0
    failures: list[GradCheckFailure] = []
    for i, base in enumerate(arrays):
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = float(run(arrays)[2].value.data)
            flat[j] = orig - eps
            f_minus = float(run(arrays)[2].value.data)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a_val = float(analytic[i].reshape(-1)[j])
            rel = abs(a_val - numeric) / max(1.0, abs(a_val), abs(numeric))
            max_rel = max(max_rel, rel)
            if rel > tol:
                failures.append(GradCheckFailure(i, j, a_val, numeric, rel))
    return GradCheckReport(max_rel, tol, failures)
