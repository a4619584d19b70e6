"""The benchmark's self-test, run as part of the suite.

perfbench wraps package functions by name (the ``ds2ta.train`` module's
functions, ``tasa.split_heads``, ``neuron.lif_forward`` and others) and
checks each workload's outputs against an independent path.  Running its
self-test here makes a rename that breaks the benchmark fail the suite.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
