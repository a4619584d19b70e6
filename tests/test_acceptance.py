"""Release gate: the ten checks a build must pass, with stated tolerances.

Each test prints one ``ACCEPTANCE n: PASS`` line through the
``acceptance_report`` fixture; the conftest hook replays those lines in
the terminal summary.  The two training checks share one session fixture
so the six desk-scale runs happen only once.
"""

import time

import numpy as np
import pytest

from ds2ta import selfcheck
from ds2ta.data import gen_temporal_order, read_evtb, write_evtb
from ds2ta.errors import FormatError
from ds2ta.model import (ModelConfig, SpikingTransformer, load_checkpoint,
                         save_checkpoint)
from ds2ta.nsad import NsadHead, f_eval
from ds2ta.tensorcore import Tape, make_rng, round_half_away
from ds2ta.train import TrainConfig, evaluate, train


def micro_config(**overrides):
    base = dict(timesteps=3, blocks=1, embed_dim=8, heads=2, mlp_ratio=2,
                img_size=8, patch_size=4, n_classes=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def binary_frames(cfg, batch, seed):
    rng = make_rng(seed, 97)
    shape = (cfg.timesteps, batch, cfg.in_channels, cfg.img_size, cfg.img_size)
    return (rng.random(shape) < 0.25).astype(np.float64)


# ------------------------------------------ 1-3 kernel checks (selfcheck)
# The check bodies live in ds2ta.selfcheck, shared with `ds2ta selftest`.


def test_criterion_1_gradient_suite(acceptance_report):
    t0 = time.monotonic()
    worst = selfcheck.gradient_suite()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    acceptance_report(f"ACCEPTANCE 1: PASS (gradient suite, worst rel err "
                      f"{worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_replica_equivalence(acceptance_report):
    t0 = time.monotonic()
    worst = selfcheck.replica_sweep()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"
    acceptance_report(f"ACCEPTANCE 2: PASS (100 random configs, max abs diff "
                      f"{worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_shift_exactness(acceptance_report):
    combos = selfcheck.shift_sweep()
    acceptance_report(f"ACCEPTANCE 3: PASS (shift decay bitwise over "
                      f"{combos} tau/delta combinations, accumulations to 2^10)")


# ------------------------------------------------- 4 degeneration bitwise


def test_criterion_4_degenerations_bitwise(acceptance_report):
    for seed in range(10):
        frames = binary_frames(micro_config(), 2, seed=seed)

        windowed = SpikingTransformer(
            micro_config(seed=seed, t_aw=1, nsad_enabled=False))
        spatial = SpikingTransformer(
            micro_config(seed=seed, attention_mode="spatial_only",
                         nsad_enabled=False))
        assert np.array_equal(windowed.forward_logits(frames),
                              spatial.forward_logits(frames)), f"seed {seed}"

        identity = SpikingTransformer(micro_config(seed=seed, u_init=0.0))
        for blk in identity.blocks:
            for head in blk.heads:
                assert np.array_equal(head.table,
                                      np.arange(head.head_dim + 1))
        disabled = SpikingTransformer(micro_config(seed=seed,
                                                   nsad_enabled=False))
        assert np.array_equal(identity.forward_logits(frames),
                              disabled.forward_logits(frames)), f"seed {seed}"
    acceptance_report("ACCEPTANCE 4: PASS (window 1 == spatial only and "
                      "identity table == denoiser off, bitwise on 10 seeds)")


# ------------------------------------------------------- 5 table invariants


def test_criterion_5_denoiser_invariants(acceptance_report):
    rng = make_rng(41)
    tape = Tape()
    for trial in range(1000):
        d = int(rng.integers(2, 33))
        head = NsadHead(tape, d, u_init=float(rng.uniform(0.0, d)))
        head.set_params(a=float(rng.uniform(-2, 2)),
                        b=float(rng.uniform(-0.5, 0.5)),
                        c=float(rng.uniform(0, d)),
                        dw=float(rng.uniform(-4, 4)),
                        e=float(rng.uniform(0, d)))
        table = head.table
        assert table[0] == 0, f"trial {trial}: AD[0] = {table[0]}"
        assert table.shape == (d + 1,)
        for s in range(d + 1):
            want = max(0.0, float(round_half_away(f_eval(float(s), head))))
            assert table[s] == want, f"trial {trial}: AD[{s}]"

        raw = rng.integers(0, d + 1, size=(4, 4))
        den = table[raw]
        assert np.all(den[raw == 0] == 0), f"trial {trial}: zero not preserved"
    acceptance_report("ACCEPTANCE 5: PASS (AD[0]=0, table/function "
                      "consistency, zero preservation over 1000 draws)")


# ------------------------------------------------------------ 6 energy math


def test_criterion_6_energy_ratios(acceptance_report):
    from ds2ta.analyze import energy_nj
    pairs = [(74.26, 96.99, 88.3), (76.82, 97.82, 90.6),
             (78.98, 98.14, 91.1), (82.64, 98.59, 91.9)]
    ops = 1_000_000
    savings = []
    for raw_pct, den_pct, want in pairs:
        base = energy_nj(ops, raw_pct / 100.0)
        reduced = energy_nj(ops, den_pct / 100.0)
        saving = 100.0 * (1.0 - reduced / base)
        assert abs(saving - want) <= 0.15, \
            f"{raw_pct}->{den_pct}: got {saving:.2f}, want {want}"
        savings.append(round(saving, 1))
    acceptance_report(f"ACCEPTANCE 6: PASS (energy reductions {savings} "
                      "within 0.15pp of 88.3/90.6/91.1/91.9)")


# --------------------------------------- 7 + 8 desk-scale training effects


@pytest.fixture(scope="session")
def separation_runs():
    """Six desk-scale training runs: 3 seeds x {full model, spatial only}."""
    t0 = time.monotonic()
    train_ds = gen_temporal_order(4000, seed=100)
    eval_ds = gen_temporal_order(1000, seed=200)
    results = {"full": [], "spatial": []}
    for seed in (0, 1, 2):
        for tag, overrides in (
                ("full", {}),
                ("spatial", {"attention_mode": "spatial_only",
                             "nsad_enabled": False})):
            model = SpikingTransformer(ModelConfig(seed=seed, **overrides))
            cfg = TrainConfig(epochs=5, batch_size=32, lr_init=2e-3,
                              lr_min=2e-5, seed=seed, eval_every=5)
            train(model, train_ds, cfg)
            results[tag].append(evaluate(model, eval_ds))
    return results, time.monotonic() - t0


@pytest.mark.slow
def test_criterion_7_learning_separation(separation_runs, acceptance_report):
    results, elapsed = separation_runs
    full = [r.accuracy for r in results["full"]]
    spatial = [r.accuracy for r in results["spatial"]]
    gap = 100.0 * (np.mean(full) - np.mean(spatial))
    assert np.mean(full) > 0.55, f"full model mean {np.mean(full):.3f}"
    assert np.mean(spatial) > 0.55, f"spatial mean {np.mean(spatial):.3f}"
    assert gap >= 5.0, f"separation {gap:.1f} points"
    assert elapsed < 900.0, f"training took {elapsed:.0f}s"
    acceptance_report(
        f"ACCEPTANCE 7: PASS (mean accuracy {100 * np.mean(full):.1f}% vs "
        f"{100 * np.mean(spatial):.1f}% spatial only, gap {gap:.1f} points, "
        f"{elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_8_sparsification_effect(separation_runs, acceptance_report):
    results, _ = separation_runs
    gaps = []
    for res in results["full"]:
        assert np.all(res.denoised_sparsity > res.raw_sparsity), \
            (res.raw_sparsity, res.denoised_sparsity)
        gaps.append(100.0 * float(
            (res.denoised_sparsity - res.raw_sparsity).mean()))
    acceptance_report(
        f"ACCEPTANCE 8: PASS (denoised sparsity above raw in every block "
        f"of all 3 runs, mean gain {np.mean(gaps):.2f}pp)")


# ------------------------------------------------------- 9 format fidelity


def test_criterion_9_format_round_trips(acceptance_report, tmp_path):
    ds = gen_temporal_order(20, timesteps=4, grid=8, seed=5)
    p1, p2 = tmp_path / "a.evtb", tmp_path / "b.evtb"
    write_evtb(p1, ds)
    back = read_evtb(p1)
    assert np.array_equal(back.frames, ds.frames)
    assert np.array_equal(back.labels, ds.labels)
    write_evtb(p2, back)
    assert p1.read_bytes() == p2.read_bytes()

    raw = bytearray(p1.read_bytes())
    bad_magic = tmp_path / "magic.evtb"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError, match="offset 0"):
        read_evtb(bad_magic)
    bad_version = tmp_path / "version.evtb"
    raw2 = bytearray(raw)
    raw2[4:8] = (99).to_bytes(4, "little")
    bad_version.write_bytes(bytes(raw2))
    with pytest.raises(FormatError, match="offset 4"):
        read_evtb(bad_version)

    model = SpikingTransformer(micro_config(seed=3))
    c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(model, c1)
    loaded = load_checkpoint(c1)
    for name, p in model.params.items():
        assert np.array_equal(loaded.params[name].value.data, p.value.data), name
    for blk_a, blk_b in zip(model.blocks, loaded.blocks):
        for ha, hb in zip(blk_a.heads, blk_b.heads):
            assert np.array_equal(ha.table, hb.table)
    save_checkpoint(loaded, c2)
    assert c1.read_bytes() == c2.read_bytes()

    craw = bytearray(c1.read_bytes())
    bad = tmp_path / "magic.ckpt"
    bad.write_bytes(b"XXXX" + bytes(craw[4:]))
    with pytest.raises(FormatError, match="offset 0"):
        load_checkpoint(bad)
    craw2 = bytearray(craw)
    craw2[4:8] = (99).to_bytes(4, "little")
    bad2 = tmp_path / "version.ckpt"
    bad2.write_bytes(bytes(craw2))
    with pytest.raises(FormatError, match="offset 4"):
        load_checkpoint(bad2)

    acceptance_report("ACCEPTANCE 9: PASS (event file and checkpoint round "
                      "trips bitwise, corrupted headers rejected with offsets)")


# ------------------------------------------------------ 10 storage claim


def test_criterion_10_table_storage_count(acceptance_report):
    cfg = ModelConfig(timesteps=2, blocks=1, embed_dim=384, heads=12,
                      mlp_ratio=1, img_size=16, patch_size=4, n_classes=2,
                      seed=0)
    assert cfg.head_dim == 32
    model = SpikingTransformer(cfg)
    tables = [head.table for blk in model.blocks for head in blk.heads]
    assert len(tables) == 12
    assert all(t.shape == (33,) for t in tables)
    total = sum(t.size for t in tables)
    assert total == 396
    # One entry per head more than a d-entry convention would count: the
    # zero-score slot, which is pinned to zero but still stored.
    assert total - 384 == 12 == len(tables)
    acceptance_report("ACCEPTANCE 10: PASS (12 heads x 33 entries = 396 "
                      "stored integers, 12 above a 384 count: one pinned "
                      "zero-score slot per head)")
