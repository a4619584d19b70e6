"""numpy stays the only runtime dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports every module of the package and runs one micro training step, then
# prints the top-level names of the modules that this loaded from files.
# Modules without a file are made in memory by an extension that was itself
# loaded from a file, such as the Cython runtime of numpy.random.
PROBE = """
import json, sys
before = set(sys.modules)
import ds2ta, ds2ta.cli, ds2ta.selfcheck
cfg = ds2ta.ModelConfig(timesteps=4, blocks=1, embed_dim=8, heads=2, mlp_ratio=2,
                        img_size=8, patch_size=4, n_classes=2)
data = ds2ta.gen_temporal_order(8, timesteps=4, grid=8, seed=0)
ds2ta.train(ds2ta.SpikingTransformer(cfg), data, ds2ta.TrainConfig(epochs=1, batch_size=8))
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before
                         if getattr(sys.modules[name], "__file__", None)})))
"""


@pytest.mark.skipif(sys.version_info < (3, 10), reason="needs sys.stdlib_module_names")
def test_import_and_training_load_only_stdlib_and_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    loaded = set(json.loads(out))
    assert {"ds2ta", "numpy"} <= loaded
    foreign = sorted(loaded - set(sys.stdlib_module_names) - {"ds2ta", "numpy"})
    assert not foreign, f"modules outside the standard library and numpy: {foreign}"
