"""Span tracer that wraps the ds2ta package from outside.

``Tracer.install`` replaces public functions and methods of the package
with timing wrappers, in every ``ds2ta.*`` module that binds them, and
wraps each backward closure as ``Tape.record`` stores it, so backward time
is attributed to the op that recorded the node.  The package's source is
not touched; ``uninstall`` puts every original back.

Spans nest on a stack.  A span's self time is its duration minus the
time of the spans it encloses.  Counters (elements, spikes, flops, map
zeros) are taken outside the spans, and their cost is charged to no span.

Statistics are kept per phase.  A phase is one kind of timed call of the
benchmark ("train", "eval"); spans outside a phase go to the "other"
phase, which the per-call file metrics also read.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

OTHER = "other"

# (module attribute, span name) for plain functions: every ds2ta module that
# binds the same function object gets the wrapper.
FUNCTIONS = (
    ("tensorcore.matmul", "tensorcore.matmul"),
    ("tensorcore.transpose", "tensorcore.transpose"),
    ("tensorcore.cross_entropy_logits", "tensorcore.cross_entropy_logits"),
    ("neuron.lif_forward", "neuron.lif"),
    ("tasa.temporal_filter", "tasa.temporal_filter"),
    ("tasa.attention_scores", "tasa.attention_scores"),
    ("tasa.split_heads", "tasa.split_heads"),
    ("tasa.merge_heads", "tasa.merge_heads"),
    ("nsad.denoise", "nsad.denoise"),
    ("model.save_checkpoint", "model.save_checkpoint"),
    ("model.load_checkpoint", "model.load_checkpoint"),
    ("data.read_evtb", "data.read_evtb"),
    ("data.write_evtb", "data.write_evtb"),
    ("data.gen_temporal_order", "data.gen_temporal_order"),
    ("train.train", "train.train"),
    ("train.evaluate", "train.evaluate"),
    ("train.clip_global_norm", "train.clip"),
    ("train.apply_projections", "train.projections"),
    ("analyze.measure", "analyze.measure"),
)

# (module, class, method, span name)
METHODS = (
    ("model", "SpikingTransformer", "forward", "model.forward"),
    ("model", "SpikingTransformer", "forward_logits", "model.forward_logits"),
    ("model", "SpikingTransformer", "rebuild_tables", "nsad.rebuild_tables"),
    ("train", "AdamW", "step", "train.adamw"),
    ("tensorcore", "Tape", "backward", "tensorcore.tape_backward"),
)


def _module(name: str):
    # ``ds2ta.train`` the attribute is the train() function; the module is
    # only reachable through sys.modules.
    return sys.modules[f"ds2ta.{name}"]


def _matmul_flop(x_shape, y_shape) -> int:
    batch = np.broadcast_shapes(tuple(x_shape[:-2]), tuple(y_shape[:-2]))
    return 2 * int(np.prod(batch, dtype=np.int64)) * x_shape[-2] * x_shape[-1] * y_shape[-1]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []            # [name, start, child seconds]
        self.phase = OTHER
        self.self_s = defaultdict(float)       # (phase, span) -> self seconds
        self.total_s = defaultdict(float)      # (phase, span) -> inclusive seconds
        self.calls = defaultdict(int)          # (phase, span) -> calls
        self.under_s = defaultdict(float)      # (phase, parent, span) -> inclusive seconds
        self.counts = defaultdict(float)       # (phase, counter) -> value
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans
    def _enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        key = (self.phase, name)
        self.calls[key] += 1
        self.total_s[key] += dur
        self.self_s[key] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
            self.under_s[(self.phase, self.stack[-1][0], name)] += dur

    @contextmanager
    def untimed(self):
        """Counter work: charged to no span, so no self time absorbs it."""
        start = time.perf_counter()
        try:
            yield
        finally:
            if self.stack:
                self.stack[-1][2] += time.perf_counter() - start

    @contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    def wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                with tracer.untimed():
                    after(out, args, kwargs)
            return out

        return functools.wraps(fn)(traced)

    # ------------------------------------------------------- installation
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ds2ta" or n.startswith("ds2ta."))]
        after = {
            "tensorcore.matmul": self._after_matmul,
            "neuron.lif": self._after_lif,
            "tasa.attention_scores": self._after_scores,
            "model.forward_logits": self._after_forward_logits,
        }
        for path, span in FUNCTIONS:
            mod, attr = path.split(".")
            original = getattr(_module(mod), attr)
            wrapped = self.wrap(span, original, after.get(span))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        for mod, cls_name, meth, span in METHODS:
            cls = getattr(_module(mod), cls_name)
            self._patch(cls, meth, self.wrap(span, getattr(cls, meth), after.get(span)))
        tape_cls = _module("tensorcore").Tape
        self._patch(tape_cls, "record", self._record_wrapper(tape_cls.record))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ counters
    def _record_wrapper(self, record):
        tracer = self

        def traced_record(tape, name, inputs, out_data, backward):
            tracer.count("tensorcore.tape_nodes", 1)
            flop = 0
            if name == "matmul":
                x, y = inputs[0].value.data, inputs[1].value.data
                flop = 2 * _matmul_flop(x.shape, y.shape)  # da and db
            span = "bwd." + name

            def traced_backward(g):
                tracer._enter(span)
                try:
                    return backward(g)
                finally:
                    tracer._exit()
                    if flop:
                        tracer.count("tensorcore.matmul.flop", flop)

            return record(tape, name, inputs, out_data, traced_backward)

        return traced_record

    def _after_matmul(self, out, args, kwargs) -> None:
        self.count("tensorcore.matmul.flop",
                   _matmul_flop(args[0].value.data.shape, args[1].value.data.shape))

    def _after_lif(self, out, args, kwargs) -> None:
        spikes = out.value.data
        self.count("neuron.lif.elements", spikes.size)
        self.count("neuron.lif.spikes", float(spikes.sum()))

    def _after_scores(self, out, args, kwargs) -> None:
        self.count("tasa.score_entries", out.scores.value.data.size)

    def _after_forward_logits(self, out, args, kwargs) -> None:
        capture = kwargs.get("capture")
        if not capture:
            return
        for cap in capture:
            self.count(f"nsad.raw_zero.b{cap.block}", int(np.count_nonzero(cap.raw == 0)))
            self.count(f"nsad.denoised_zero.b{cap.block}",
                       int(np.count_nonzero(cap.denoised == 0)))
            self.count(f"nsad.entries.b{cap.block}", cap.raw.size)

    # ------------------------------------------------------------- readers
    def self_ms(self, phase: str, span: str) -> float:
        return 1e3 * self.self_s[(phase, span)]

    def total_ms(self, phase: str, span: str) -> float:
        return 1e3 * self.total_s[(phase, span)]

    def under_ms(self, phase: str, parent: str, span: str) -> float:
        """Inclusive time of ``span`` where ``parent`` directly encloses it."""
        return 1e3 * self.under_s[(phase, parent, span)]

    def n_calls(self, phase: str, span: str) -> int:
        return self.calls[(phase, span)]

    def counter(self, phase: str, name: str) -> float:
        return self.counts[(phase, name)]

    def per_call_ms(self, span: str) -> float:
        """Mean inclusive time of a span over every phase; 0 if never called."""
        calls = sum(n for (_, s), n in self.calls.items() if s == span)
        total = sum(t for (_, s), t in self.total_s.items() if s == span)
        return 1e3 * total / calls if calls else 0.0


BLOCKS = 2  # ModelConfig's default block count, which every workload uses

# Per-layer metrics in BENCHMARK.json order: name -> unit.
PER_LAYER = {
    "train.forward_ms": "ms", "train.backward_ms": "ms", "train.optimizer_ms": "ms",
    "tensorcore.matmul.fwd_ms": "ms", "tensorcore.matmul.bwd_ms": "ms",
    "tensorcore.matmul.calls": "count", "tensorcore.matmul.gflop": "GFLOP",
    "tensorcore.transpose.fwd_ms": "ms", "tensorcore.transpose.bwd_ms": "ms",
    "tensorcore.tape_backward_self_ms": "ms", "tensorcore.tape_nodes": "count",
    "neuron.lif.fwd_ms": "ms", "neuron.lif.bwd_ms": "ms", "neuron.lif.calls": "count",
    "neuron.lif.elements": "count", "neuron.lif.spike_rate": "fraction",
    "tasa.temporal_filter.fwd_ms": "ms", "tasa.temporal_filter.bwd_ms": "ms",
    "tasa.temporal_filter.calls": "count", "tasa.attention_scores.fwd_ms": "ms",
    "tasa.split_merge_ms": "ms", "tasa.score_entries": "count",
    "nsad.denoise.fwd_ms": "ms", "nsad.denoise.bwd_ms": "ms", "nsad.denoise.calls": "count",
    "nsad.rebuild_tables_ms": "ms",
    **{f"nsad.{kind}_sparsity.b{b}": "fraction"
       for kind in ("raw", "denoised") for b in range(BLOCKS)},
    "model.forward_logits_ms": "ms", "model.load_checkpoint_ms": "ms",
    "model.save_checkpoint_ms": "ms",
    "data.read_evtb_ms": "ms", "data.write_evtb_ms": "ms", "data.gen_temporal_order_ms": "ms",
    "analyze.measure_ms": "ms",
    "trace.overhead_ms": "ms",
}


def layer_metrics(tr: Tracer, phase: str, units: int, overhead_ms: float) -> dict:
    """Per-layer metrics of one phase, per unit of work (step or batch).

    Times and counts are divided by ``units``; ratios are not; the file and
    set-up spans (model.*_checkpoint, data.*, analyze.measure) are the mean
    time of one call over the whole run.
    """
    def per(x):
        return x / units

    def fwd_bwd(span, op):
        return per(tr.self_ms(phase, span)), per(tr.self_ms(phase, "bwd." + op))

    train = "train.train"
    values = {
        "train.forward_ms": per(tr.under_ms(phase, train, "model.forward")
                                + tr.under_ms(phase, train, "tensorcore.cross_entropy_logits")),
        "train.backward_ms": per(tr.under_ms(phase, train, "tensorcore.tape_backward")),
        "train.optimizer_ms": per(sum(tr.under_ms(phase, train, s) for s in
                                      ("train.clip", "train.adamw", "train.projections"))),
        "tensorcore.matmul.calls": per(tr.n_calls(phase, "tensorcore.matmul")),
        "tensorcore.matmul.gflop": per(tr.counter(phase, "tensorcore.matmul.flop")) / 1e9,
        "tensorcore.tape_backward_self_ms": per(tr.self_ms(phase, "tensorcore.tape_backward")),
        "tensorcore.tape_nodes": per(tr.counter(phase, "tensorcore.tape_nodes")),
        "neuron.lif.calls": per(tr.n_calls(phase, "neuron.lif")),
        "neuron.lif.elements": per(tr.counter(phase, "neuron.lif.elements")),
        "neuron.lif.spike_rate": (tr.counter(phase, "neuron.lif.spikes")
                                  / max(1.0, tr.counter(phase, "neuron.lif.elements"))),
        "tasa.temporal_filter.calls": per(tr.n_calls(phase, "tasa.temporal_filter")),
        "tasa.attention_scores.fwd_ms": per(tr.self_ms(phase, "tasa.attention_scores")),
        "tasa.split_merge_ms": per(tr.total_ms(phase, "tasa.split_heads")
                                   + tr.total_ms(phase, "tasa.merge_heads")),
        "tasa.score_entries": per(tr.counter(phase, "tasa.score_entries")),
        "nsad.denoise.calls": per(tr.n_calls(phase, "nsad.denoise")),
        "nsad.rebuild_tables_ms": per(tr.total_ms(phase, "nsad.rebuild_tables")),
        "model.forward_logits_ms": per(tr.total_ms(phase, "model.forward_logits")),
        "trace.overhead_ms": overhead_ms,
    }
    for metric, span, op in (("tensorcore.matmul", "tensorcore.matmul", "matmul"),
                             ("tensorcore.transpose", "tensorcore.transpose", "transpose"),
                             ("neuron.lif", "neuron.lif", "lif"),
                             ("tasa.temporal_filter", "tasa.temporal_filter", "temporal_filter"),
                             ("nsad.denoise", "nsad.denoise", "denoise")):
        values[f"{metric}.fwd_ms"], values[f"{metric}.bwd_ms"] = fwd_bwd(span, op)
    for b in range(BLOCKS):
        entries = max(1.0, tr.counter(phase, f"nsad.entries.b{b}"))
        for kind in ("raw", "denoised"):
            values[f"nsad.{kind}_sparsity.b{b}"] = tr.counter(phase, f"nsad.{kind}_zero.b{b}") / entries
    for name in ("model.load_checkpoint", "model.save_checkpoint", "data.read_evtb",
                 "data.write_evtb", "data.gen_temporal_order", "analyze.measure"):
        values[name + "_ms"] = tr.per_call_ms(name)
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def backward_ms(tr: Tracer, phase: str) -> float:
    """Self time of every backward closure in a phase."""
    return sum(1e3 * t for (p, span), t in tr.self_s.items()
               if p == phase and span.startswith("bwd."))


def render_table(tr: Tracer, phase: str, units: int, unit_name: str) -> str:
    """Every span of a phase: calls and self/inclusive ms per unit, by self time."""
    rows = sorted(((span, n) for (p, span), n in tr.calls.items() if p == phase),
                  key=lambda row: -tr.self_s[(phase, row[0])])
    lines = [f"# spans of phase {phase}, per {unit_name}, over {units} of them",
             f"# {'span':<36} {'calls':>9} {'self_ms':>10} {'total_ms':>10}"]
    for span, n in rows:
        lines.append(f"  {span:<36} {n / units:9.2f} {tr.self_ms(phase, span) / units:10.3f} "
                     f"{tr.total_ms(phase, span) / units:10.3f}")
    return "\n".join(lines)
