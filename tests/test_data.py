"""Synthetic event generators and the bit-packed dataset container."""

import struct

import numpy as np
import pytest

from ds2ta.data import (EVTB_MAGIC, PATTERN_SIZE, PATTERNS, EventDataset,
                        gen_static_patterns, gen_temporal_order, order_label,
                        pack_sample, read_evtb, time_major, unpack_sample,
                        write_evtb)
from ds2ta.errors import FormatError, GenerationError, InputError


def test_patterns_are_distinct_binary_glyphs():
    seen = set()
    for name, pat in PATTERNS.items():
        assert pat.shape == (PATTERN_SIZE, PATTERN_SIZE), name
        assert set(np.unique(pat).tolist()) <= {0, 1}, name
        seen.add(pat.tobytes())
    assert len(seen) == len(PATTERNS)


def test_order_task_patterns_are_complementary():
    total = PATTERNS["checker"] + PATTERNS["checker_inv"]
    assert np.array_equal(total, np.ones((4, 4), dtype=total.dtype))


def test_order_label():
    assert order_label(1, 3) == 0
    assert order_label(5, 2) == 1
    with pytest.raises(GenerationError):
        order_label(4, 4)


def _flash_times(sample):
    """Locate the two flash frames of a noise-free sample.

    Returns (t_checker, t_checker_inv) by matching the stamped 4x4 block
    against the two glyphs.
    """
    timesteps, _, grid = sample.shape[0], sample.shape[1], sample.shape[2]
    found = {}
    for t in range(timesteps):
        frame = sample[t, 0]
        if not frame.any():
            continue
        for r in range(0, grid, PATTERN_SIZE):
            for c in range(0, grid, PATTERN_SIZE):
                block = frame[r:r + PATTERN_SIZE, c:c + PATTERN_SIZE]
                if not block.any():
                    continue
                if np.array_equal(block, PATTERNS["checker"]):
                    found["checker"] = t
                elif np.array_equal(block, PATTERNS["checker_inv"]):
                    found["checker_inv"] = t
                else:
                    raise AssertionError(f"unexpected block at t={t}")
    assert set(found) == {"checker", "checker_inv"}
    return found["checker"], found["checker_inv"]


def test_temporal_order_labels_match_flash_times():
    ds = gen_temporal_order(60, timesteps=8, grid=16, noise_rate=0.0, seed=11)
    assert ds.frames.shape == (60, 8, 1, 16, 16)
    assert ds.n_classes == 2
    for i in range(len(ds)):
        t_a, t_b = _flash_times(ds.frames[i])
        assert ds.labels[i] == (0 if t_a < t_b else 1)
        gap = abs(t_a - t_b)
        assert 1 <= gap <= 4  # default largest separation is T / 2


def test_temporal_order_flashes_are_single_and_disjoint():
    ds = gen_temporal_order(40, noise_rate=0.0, seed=7)
    for sample in ds.frames:
        active = [t for t in range(sample.shape[0]) if sample[t].any()]
        assert len(active) == 2
        for t in active:
            assert sample[t].sum() == 8  # one 8-pixel glyph per flash frame


def test_temporal_order_is_roughly_balanced():
    ds = gen_temporal_order(400, seed=3)
    rate = ds.labels.mean()
    assert 0.4 < rate < 0.6


def test_temporal_order_noise_never_erases_the_glyphs():
    # noise is OR-ed on top of the flashes, so every glyph pixel survives:
    # each glyph is fully contained in some patch-aligned block somewhere
    ds = gen_temporal_order(20, noise_rate=0.1, seed=13)
    grid = ds.frames.shape[-1]
    for sample in ds.frames:
        for glyph in (PATTERNS["checker"], PATTERNS["checker_inv"]):
            hit = any(
                np.array_equal(sample[t, 0, r:r + PATTERN_SIZE,
                                      c:c + PATTERN_SIZE] & glyph, glyph)
                for t in range(sample.shape[0])
                for r in range(0, grid, PATTERN_SIZE)
                for c in range(0, grid, PATTERN_SIZE))
            assert hit


def test_temporal_order_gap_limit_respected():
    ds = gen_temporal_order(30, timesteps=8, noise_rate=0.0, t_gap_max=1, seed=5)
    for sample in ds.frames:
        t_a, t_b = _flash_times(sample)
        assert abs(t_a - t_b) == 1


def test_temporal_order_determinism():
    a = gen_temporal_order(10, seed=21)
    b = gen_temporal_order(10, seed=21)
    c = gen_temporal_order(10, seed=22)
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.frames, c.frames)


def test_temporal_order_validation():
    with pytest.raises(GenerationError, match="sample count"):
        gen_temporal_order(-1)
    with pytest.raises(GenerationError):
        gen_temporal_order(4, timesteps=3)
    with pytest.raises(GenerationError):
        gen_temporal_order(4, grid=10)
    with pytest.raises(GenerationError):
        gen_temporal_order(4, grid=4)  # no room for two glyphs
    with pytest.raises(GenerationError):
        gen_temporal_order(4, noise_rate=1.0)
    with pytest.raises(GenerationError):
        gen_temporal_order(4, t_gap_max=0)
    with pytest.raises(GenerationError):
        gen_temporal_order(4, timesteps=8, t_gap_max=8)


def test_static_patterns_repeat_every_timestep():
    ds = gen_static_patterns(30, timesteps=5, grid=8, classes=4,
                             noise_rate=0.0, seed=9)
    glyphs = list(PATTERNS.values())
    for i in range(len(ds)):
        want = np.zeros((8, 8), dtype=np.uint8)
        want[:4, :4] = glyphs[ds.labels[i]]
        for t in range(5):
            assert np.array_equal(ds.frames[i, t, 0], want)


def test_static_patterns_validation():
    with pytest.raises(GenerationError, match="sample count"):
        gen_static_patterns(-1)
    with pytest.raises(GenerationError):
        gen_static_patterns(4, classes=1)
    with pytest.raises(GenerationError):
        gen_static_patterns(4, classes=len(PATTERNS) + 1)
    with pytest.raises(GenerationError):
        gen_static_patterns(4, timesteps=0)


def test_dataset_validate():
    frames = np.zeros((3, 2, 1, 4, 4), dtype=np.uint8)
    labels = np.array([0, 1, 0], dtype=np.int64)
    EventDataset(frames, labels, 2).validate()
    with pytest.raises(InputError):
        EventDataset(frames[0], labels, 2).validate()
    with pytest.raises(InputError):
        EventDataset(frames, labels[:2], 2).validate()
    with pytest.raises(InputError):
        EventDataset(frames + 2, labels, 2).validate()
    with pytest.raises(InputError):
        EventDataset(frames, labels + 5, 2).validate()


# ---------------------------------------------------------------- container


def test_pack_sample_is_msb_first():
    frames = np.array([1, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8).reshape(1, 1, 2, 4)
    assert pack_sample(frames) == b"\x81"


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(5)
    for shape in ((2, 1, 4, 4), (3, 2, 5, 7), (1, 1, 1, 1)):
        frames = (rng.random(shape) < 0.4).astype(np.uint8)
        payload = pack_sample(frames)
        assert len(payload) == (int(np.prod(shape)) + 7) // 8
        assert np.array_equal(unpack_sample(payload, shape), frames)


def test_evtb_roundtrip_bitwise(tmp_path):
    ds = gen_temporal_order(12, seed=4)
    path = tmp_path / "order.evtb"
    write_evtb(path, ds)
    again = read_evtb(path)
    assert np.array_equal(again.frames, ds.frames)
    assert np.array_equal(again.labels, ds.labels)
    assert again.n_classes == ds.n_classes


def test_evtb_file_size_formula(tmp_path):
    ds = gen_temporal_order(10, timesteps=8, grid=16, seed=1)
    path = tmp_path / "sized.evtb"
    write_evtb(path, ds)
    per_sample = 2 + (8 * 1 * 16 * 16 + 7) // 8  # u16 label + packed payload
    assert path.stat().st_size == 22 + 10 * per_sample


def test_evtb_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.evtb"
    write_evtb(path, gen_temporal_order(2, seed=0))
    buf = bytearray(path.read_bytes())
    buf[:4] = b"NOPE"
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError) as err:
        read_evtb(path)
    assert err.value.offset == 0


def test_evtb_rejects_bad_version(tmp_path):
    path = tmp_path / "ver.evtb"
    write_evtb(path, gen_temporal_order(2, seed=0))
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 4, 12)
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError) as err:
        read_evtb(path)
    assert err.value.offset == 4


def test_evtb_rejects_size_mismatch(tmp_path):
    path = tmp_path / "cut.evtb"
    write_evtb(path, gen_temporal_order(3, seed=0))
    buf = path.read_bytes()
    path.write_bytes(buf[:-5])
    with pytest.raises(FormatError, match="size"):
        read_evtb(path)
    path.write_bytes(buf[:10])
    with pytest.raises(FormatError, match="header"):
        read_evtb(path)


def test_evtb_rejects_label_outside_classes(tmp_path):
    ds = gen_temporal_order(2, seed=0)
    path = tmp_path / "label.evtb"
    write_evtb(path, ds)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<H", buf, 22, 7)  # first label, classes is 2
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError, match="label"):
        read_evtb(path)


def test_evtb_header_field_bounds():
    frames = np.zeros((1, 2, 1, 2, 2), dtype=np.uint8)
    ds = EventDataset(frames, np.zeros(1, dtype=np.int64), n_classes=2 ** 16)
    with pytest.raises(FormatError, match="classes"):
        write_evtb("/dev/null", ds)


def test_time_major_layout():
    rng = np.random.default_rng(2)
    frames = (rng.random((3, 4, 1, 2, 2)) < 0.5).astype(np.uint8)
    out = time_major(frames)
    assert out.shape == (4, 3, 1, 2, 2)
    assert out.dtype == np.float64
    assert np.array_equal(out, frames.transpose(1, 0, 2, 3, 4).astype(np.float64))
