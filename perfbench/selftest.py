"""Self-tests of the benchmark: tiny runs of every workload, and proof that
each correctness check rejects a corrupted output.

    python3 perfbench/selftest.py

Takes about 20 s.  Exit code 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

import ds2ta  # noqa: E402
from perfbench import checks, trace, workloads  # noqa: E402
from perfbench.checks import CheckError  # noqa: E402

# Too little training to beat chance: the margin is checked in ChecksRejectCorruption.
TINY = workloads.Size(train_samples=64, epochs=2, eval_samples=128, chance_margin=-1.0)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _workdir(name: str) -> Path:
    path = ROOT / ".perfbench_work" / f"selftest-{name}-{os.getpid()}"
    path.mkdir(parents=True)
    return path


def _run(workload: str, traced: bool):
    workdir = _workdir(workload)
    tracer = trace.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        return workloads.train_workload(workload == "train_spatial", 3, 1, workdir,
                                        size=TINY, tracer=tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir)


class TinyRuns(unittest.TestCase):
    """Each workload runs to its end at a tiny size and reports every metric."""

    def check_outcome(self, outcome, spec_key):
        self.assertTrue(outcome.correct)
        self.assertGreaterEqual(outcome.attempted, 1)
        self.assertEqual(outcome.failed, 0)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual({k: u for k, (_, u) in outcome.metrics.items()}, expected)
        for name, (value, _) in outcome.metrics.items():
            self.assertTrue(np.isfinite(value), name)

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in workloads_in_spec():
            with self.subTest(workload=workload):
                outcome = _run(workload, traced=False)
                self.check_outcome(outcome, "end_to_end")
                for name, (value, _) in outcome.metrics.items():
                    self.assertGreater(value, 0.0, name)

    def test_traced_runs_report_every_per_layer_metric_and_bypasses(self):
        got = {}
        for workload in workloads_in_spec():
            with self.subTest(workload=workload):
                outcome = _run(workload, traced=True)
                self.check_outcome(outcome, "per_layer")
                got[workload] = {k: v for k, (v, _) in outcome.metrics.items()}
        spatial, full = got["train_spatial"], got["train_ds2ta"]
        for name in ("nsad.denoise.calls", "tasa.temporal_filter.calls",
                     "nsad.denoise.bwd_ms", "tasa.temporal_filter.bwd_ms"):
            self.assertEqual(spatial[name], 0.0, name)
            self.assertGreater(full[name], 0.0, name)


def workloads_in_spec():
    return [w["name"] for w in SPEC["workloads"]]


class _Model:
    """A small untrained model and its outputs on a few samples."""

    def __init__(self):
        self.ds = ds2ta.gen_temporal_order(16, seed=11)
        self.model = ds2ta.SpikingTransformer(ds2ta.ModelConfig(seed=5))
        self.captures: list = []
        self.logits = self.model.forward_logits(ds2ta.data.time_major(self.ds.frames),
                                                capture=self.captures)
        self.tables = [[h.table for h in blk.heads] for blk in self.model.blocks]
        self.result = ds2ta.evaluate(self.model, self.ds, batch_size=16)


class ChecksRejectCorruption(unittest.TestCase):
    """Every check passes on true outputs and fails on a corrupted copy."""

    @classmethod
    def setUpClass(cls):
        cls.m = _Model()

    def test_loss_must_be_finite_and_fall(self):
        good = [{"train_loss": 0.7}, {"train_loss": 0.6}]
        checks.loss_falls(good)
        for bad in ([{"train_loss": 0.6}, {"train_loss": 0.7}],
                    [{"train_loss": 0.7}, {"train_loss": float("nan")}],
                    [{"train_loss": 0.7}]):
            with self.assertRaises(CheckError):
                checks.loss_falls(bad)

    def test_accuracy_recount_rejects_a_flipped_prediction(self):
        m = self.m
        checks.accuracy_matches(m.logits, m.ds.labels, 2, m.result.accuracy, "acc")
        bad = m.logits.copy()
        pred = int(np.argmax(bad[0]))
        bad[0, 1 - pred] = bad[0, pred] + 1.0
        with self.assertRaises(CheckError):
            checks.accuracy_matches(bad, m.ds.labels, 2, m.result.accuracy, "acc")

    def test_bitwise_equality_rejects_one_flipped_bit(self):
        bad = self.m.logits.copy()
        bad.view(np.uint64)[0, 0] ^= 1
        checks.bitwise_equal(self.m.logits, self.m.logits.copy(), "logits")
        with self.assertRaises(CheckError):
            checks.bitwise_equal(bad, self.m.logits, "logits")

    def test_chance_margin(self):
        checks.above_chance(0.75, 2, 0.2)
        with self.assertRaises(CheckError):
            checks.above_chance(0.65, 2, 0.2)

    def test_eval_result_recount_rejects_altered_figures(self):
        m = self.m
        raw_s, den_s = checks.sparsity(checks.count_zeros(m.captures, m.model.cfg.blocks))
        _, per_class = checks.recount_accuracy(m.logits, m.ds.labels, 2)
        checks.eval_result_matches(m.result, per_class, raw_s, den_s)
        for field in ("per_class", "raw_sparsity", "denoised_sparsity"):
            bad = copy.deepcopy(m.result)
            getattr(bad, field)[0] += 1.0 / 1024
            with self.subTest(field=field), self.assertRaises(CheckError):
                checks.eval_result_matches(bad, per_class, raw_s, den_s)

    def test_table_check_rejects_one_flipped_entry(self):
        blk = self.m.model.blocks[0]
        scalars = [h.param_floats() for h in blk.heads]
        d = self.m.model.cfg.embed_dim // self.m.model.cfg.heads
        checks.tables_match_scalars([h.table for h in blk.heads], scalars, d)
        bad = [h.table.copy() for h in blk.heads]
        bad[1][d] += 1
        with self.assertRaises(CheckError):
            checks.tables_match_scalars(bad, scalars, d)

    def test_gather_check_rejects_a_changed_map_entry_and_an_unzeroed_zero(self):
        m = self.m
        checks.denoised_is_gather(m.captures, m.tables)
        bad = copy.deepcopy(m.captures)
        cap = bad[0]
        hit = np.argwhere(cap.denoised[:, :, 0] > 0)[0]
        cap.denoised[(hit[0], hit[1], 0, hit[2], hit[3])] += 1
        with self.assertRaises(CheckError):
            checks.denoised_is_gather(bad, m.tables)
        bad = copy.deepcopy(m.captures)
        cap = bad[0]
        zero = np.argwhere(cap.raw[:, :, 0] == 0)[0]
        cap.denoised[(zero[0], zero[1], 0, zero[2], zero[3])] = 1.0
        with self.assertRaises(CheckError):
            checks.denoised_is_gather(bad, m.tables)

    def test_energy_check_rejects_a_wrong_energy(self):
        m = self.m
        cfg = m.model.cfg
        report = ds2ta.measure(m.model, m.ds, e_ac_pj=workloads.E_AC_PJ, batch_size=16)
        _, den_s = checks.sparsity(checks.count_zeros(m.captures, cfg.blocks))
        args = (workloads.E_AC_PJ, cfg.timesteps, cfg.heads,
                (cfg.img_size // cfg.patch_size) ** 2, cfg.embed_dim // cfg.heads)
        checks.energy_matches(report, *args, den_s)
        bad = copy.deepcopy(report)
        bad.blocks[1].energy *= 1.0 + 1e-9
        with self.assertRaises(CheckError):
            checks.energy_matches(bad, *args, den_s)


class Command(unittest.TestCase):
    def test_fails_without_package_source(self):
        """In a directory with only BENCHMARK.json and perfbench/ it exits non-zero."""
        bare = _workdir("bare")
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(SPEC["command"] + ["--workload", "train_ds2ta", "--seed", "1",
                                                     "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_names_and_bounds_of_the_spec(self):
        self.assertEqual([m["name"] for m in SPEC["per_layer"]], list(trace.PER_LAYER))
        for m in SPEC["per_layer"]:
            self.assertEqual(m["unit"], trace.PER_LAYER[m["name"]])
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
