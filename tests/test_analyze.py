"""Sparsity measurement, the energy model, and attention-map export."""

import numpy as np
import pytest

from ds2ta.analyze import (count_attention_ops, energy_nj, export_attention,
                           measure, render_report, sparsity, write_pgm)
from ds2ta.data import gen_temporal_order, time_major
from ds2ta.errors import InputError
from ds2ta.model import ModelConfig, SpikingTransformer


def desk_model(**overrides):
    base = dict(timesteps=4, blocks=1, embed_dim=8, heads=2, mlp_ratio=2,
                img_size=8, patch_size=4, n_classes=2, seed=0)
    base.update(overrides)
    return SpikingTransformer(ModelConfig(**base))


# ----------------------------------------------------------------- sparsity


def test_sparsity_is_the_zero_fraction():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert sparsity(x) == 0.75
    assert sparsity(np.ones(5)) == 0.0
    assert sparsity(np.zeros(5)) == 1.0


def test_sparsity_rejects_empty_input():
    with pytest.raises(InputError):
        sparsity(np.zeros((0, 3)))


# ------------------------------------------------------------- energy model


def test_attention_op_count_hand_value():
    # 2 * T * H * N^2 * d for 16 steps, 4 heads, 16 tokens, width 8
    assert count_attention_ops(n_tokens=16, head_dim=8, heads=4,
                               timesteps=16) == 262_144


def test_energy_hand_value():
    # 1000 accumulates at 0.9 pJ each, 90% of them skipped: 0.09 nJ
    assert np.isclose(energy_nj(1000, 0.9, e_ac_pj=0.9), 0.09)
    assert energy_nj(1000, 1.0) == 0.0


def test_energy_validation():
    with pytest.raises(InputError):
        energy_nj(100, 1.5)
    with pytest.raises(InputError):
        energy_nj(100, -0.1)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            energy_nj(100, 0.5, e_ac_pj=bad)


def test_energy_ratio_from_sparsity_pair():
    # raising sparsity from 74.26% to 96.99% removes 88.3% of the
    # remaining active accumulates, independent of the op count
    base = energy_nj(10_000, 0.7426)
    denoised = energy_nj(10_000, 0.9699)
    saving = 100.0 * (1.0 - denoised / base)
    assert abs(saving - 88.3) < 0.15


# ------------------------------------------------------------------ measure


def test_measure_fields_and_energy_consistency():
    model = desk_model()
    ds = gen_temporal_order(12, timesteps=4, grid=8, seed=5)
    report = measure(model, ds, batch_size=8)

    cfg = model.cfg
    want_ops = count_attention_ops(cfg.tokens, cfg.head_dim, cfg.heads,
                                   cfg.timesteps)
    assert report.denoiser_active
    assert len(report.blocks) == cfg.blocks
    for blk in report.blocks:
        assert blk.op_count == want_ops
        assert 0.0 <= blk.raw_sparsity <= 1.0
        assert blk.denoised_sparsity >= blk.raw_sparsity - 1e-12
        # with the denoiser on, energy is charged at the denoised sparsity
        want = energy_nj(want_ops, blk.denoised_sparsity, report.e_ac_pj)
        assert np.isclose(blk.energy, want)


def test_measure_without_denoiser_charges_raw_sparsity():
    model = desk_model(nsad_enabled=False)
    ds = gen_temporal_order(12, timesteps=4, grid=8, seed=5)
    report = measure(model, ds, batch_size=8)
    assert not report.denoiser_active
    for blk in report.blocks:
        assert blk.denoised_sparsity == blk.raw_sparsity
        want = energy_nj(blk.op_count, blk.raw_sparsity, report.e_ac_pj)
        assert np.isclose(blk.energy, want)


def test_render_report_mentions_the_key_numbers():
    model = desk_model()
    ds = gen_temporal_order(8, timesteps=4, grid=8, seed=6)
    report = measure(model, ds, batch_size=8)
    text = render_report(report)
    assert "e_ac_pj=0.9" in text
    assert "denoiser_active=true" in text
    for i in range(model.cfg.blocks):
        assert f"[block {i}]" in text
    assert f"op_count={report.blocks[0].op_count}" in text
    assert "energy_nj=" in text


# ------------------------------------------------------------------- export


def test_write_pgm_layout(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.array([[0.0, 1.0], [2.0, 4.0]]), value_ceiling=4)
    raw = path.read_bytes()
    header = b"P5\n2 2\n255\n"
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert pixels.tolist() == [0, 64, 128, 255]


def test_write_pgm_clips_above_the_ceiling(tmp_path):
    path = tmp_path / "hot.pgm"
    write_pgm(path, np.array([[9.0, 2.0]]), value_ceiling=4)
    assert path.read_bytes().endswith(bytes([255, 128]))
    with pytest.raises(InputError):
        write_pgm(tmp_path / "bad.pgm", np.zeros(3), value_ceiling=4)


def test_export_attention_files(tmp_path):
    model = desk_model()
    ds = gen_temporal_order(4, timesteps=4, grid=8, seed=7)
    sample = ds.frames[0]  # [T, C, H, W]
    written = export_attention(model, sample, tmp_path / "attn")

    cfg = model.cfg
    per_format = 2 * cfg.blocks * cfg.heads * cfg.timesteps  # raw + den
    assert len(written) == 2 * per_format  # csv + pgm
    names = {p.name for p in written}
    assert "attn_b0_h0_t0_raw.csv" in names
    assert "attn_b0_h1_t3_den.pgm" in names
    for p in written:
        assert p.exists() and p.stat().st_size > 0

    # spot-check one CSV against a fresh capture of the same sample
    capture = []
    model.forward_logits(time_major(sample[None, ...]), capture=capture)
    got = np.loadtxt(tmp_path / "attn_b0_h0_t2_raw.csv", delimiter=",")
    assert np.array_equal(got, capture[0].raw[2, 0, 0])
    den = np.loadtxt(tmp_path / "attn_b0_h0_t2_den.csv", delimiter=",")
    assert np.array_equal(den, capture[0].denoised[2, 0, 0])


def test_export_attention_rejects_batched_input(tmp_path):
    model = desk_model()
    with pytest.raises(InputError):
        export_attention(model, np.zeros((2, 4, 1, 8, 8)), tmp_path / "x")
