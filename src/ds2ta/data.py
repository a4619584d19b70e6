"""Synthetic spatiotemporal event datasets and the EVTB container format.

Two generators:

* ``gen_temporal_order``: two distinct 4x4 patterns flash for a single
  timestep each, at random non-overlapping patch-aligned locations; the
  label says which pattern flashed first.  Flash times are drawn so the
  gap is between 1 and ``t_gap_max``, and which pattern leads is a fair
  coin flip, so the label is statistically independent of positions and
  of any single frame's content.
* ``gen_static_patterns``: one class-identifying pattern shown at a fixed
  location on every timestep.

Both overlay independent per-pixel background spike noise.

EVTB files hold binary event tensors bit-packed MSB-first in row-major
order: magic ``EVTB``, u32 version, u32 sample count, u16 T/C/H/W/classes,
then per sample a u16 label and ceil(T*C*H*W / 8) payload bytes.  The
round trip through disk is bitwise lossless.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, GenerationError, InputError
from .tensorcore import make_rng

EVTB_MAGIC = b"EVTB"
EVTB_VERSION = 1
_HEADER = struct.Struct("<4sIIHHHHH")  # magic, version, count, T, C, H, W, classes

PATTERN_SIZE = 4


def _pattern(rows: str) -> np.ndarray:
    grid = [[1 if ch == "#" else 0 for ch in row] for row in rows.split()]
    return np.asarray(grid, dtype=np.uint8)


# Distinct 4x4 binary glyphs; the first two are used by the temporal-order
# task (complementary checkerboards: equally salient, maximally different).
PATTERNS: dict[str, np.ndarray] = {
    "checker":     _pattern("#.#. .#.# #.#. .#.#"),
    "checker_inv": _pattern(".#.# #.#. .#.# #.#."),
    "solid":       _pattern("#### #### #### ####"),
    "ring":        _pattern("#### #..# #..# ####"),
    "cross":       _pattern(".##. #..# #..# .##."),
    "stripes_h":   _pattern("#### .... #### ...."),
    "stripes_v":   _pattern("#.#. #.#. #.#. #.#."),
    "corners":     _pattern("#..# .... .... #..#"),
}

ORDER_FIRST_PATTERN = "checker"
ORDER_SECOND_PATTERN = "checker_inv"


@dataclass
class EventDataset:
    frames: np.ndarray   # uint8 in {0, 1}, [count, T, C, H, W]
    labels: np.ndarray   # int64, [count]
    n_classes: int
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.frames.shape[0]

    def validate(self) -> None:
        if self.frames.ndim != 5:
            raise InputError(f"frames must be [count, T, C, H, W], got {self.frames.shape}")
        if self.frames.shape[0] != self.labels.shape[0]:
            raise InputError(f"{self.frames.shape[0]} samples but {self.labels.shape[0]} labels")
        if self.frames.size and self.frames.max() > 1:
            raise InputError("frames must be binary")
        if len(self) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise InputError(f"label outside [0, {self.n_classes})")


def order_label(t_first_pattern: int, t_second_pattern: int) -> int:
    """0 when the first pattern flashes before the second, else 1."""
    if t_first_pattern == t_second_pattern:
        raise GenerationError("flash times must differ")
    return 0 if t_first_pattern < t_second_pattern else 1


def _slot_origin(slot: int, grid: int) -> tuple[int, int]:
    per_row = grid // PATTERN_SIZE
    return (slot // per_row) * PATTERN_SIZE, (slot % per_row) * PATTERN_SIZE


def _stamp(frame: np.ndarray, pattern: np.ndarray, slot: int, grid: int) -> None:
    r, c = _slot_origin(slot, grid)
    frame[r:r + PATTERN_SIZE, c:c + PATTERN_SIZE] |= pattern


def gen_temporal_order(n: int, timesteps: int = 8, grid: int = 16,
                       noise_rate: float = 0.02, seed: int = 0,
                       t_gap_max: int | None = None) -> EventDataset:
    """Order-discrimination task: label 0 iff the checker flash leads."""
    if n < 0:
        raise GenerationError(f"sample count must be >= 0, got {n}")
    if timesteps < 4:
        raise GenerationError(f"need at least 4 timesteps, got {timesteps}")
    if grid % PATTERN_SIZE or grid < 2 * PATTERN_SIZE:
        raise GenerationError(f"grid {grid} must be a multiple of {PATTERN_SIZE} "
                              f"with room for two patterns")
    if not 0.0 <= noise_rate < 1.0:
        raise GenerationError(f"noise_rate must be in [0, 1), got {noise_rate}")
    if t_gap_max is None:
        t_gap_max = timesteps // 2
    if not 1 <= t_gap_max < timesteps:
        raise GenerationError(f"t_gap_max {t_gap_max} must be in [1, {timesteps})")

    rng = make_rng(seed)
    slots = (grid // PATTERN_SIZE) ** 2
    pat_a = PATTERNS[ORDER_FIRST_PATTERN]
    pat_b = PATTERNS[ORDER_SECOND_PATTERN]
    frames = np.zeros((n, timesteps, 1, grid, grid), dtype=np.uint8)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        slot_a, slot_b = rng.choice(slots, size=2, replace=False)
        gap = int(rng.integers(1, t_gap_max + 1))
        t_early = int(rng.integers(0, timesteps - gap))
        if rng.integers(2) == 0:
            t_a, t_b = t_early, t_early + gap
        else:
            t_a, t_b = t_early + gap, t_early
        labels[i] = order_label(t_a, t_b)
        _stamp(frames[i, t_a, 0], pat_a, int(slot_a), grid)
        _stamp(frames[i, t_b, 0], pat_b, int(slot_b), grid)
        if noise_rate > 0.0:
            frames[i] |= rng.random(frames[i].shape) < noise_rate
    meta = {"generator": "temporal_order", "seed": seed, "noise_rate": noise_rate,
            "t_gap_max": t_gap_max}
    return EventDataset(frames, labels, n_classes=2, metadata=meta)


def gen_static_patterns(n: int, timesteps: int = 8, grid: int = 16,
                        classes: int = 2, noise_rate: float = 0.02,
                        seed: int = 0) -> EventDataset:
    """Pattern-identity task: the class glyph repeats every timestep."""
    if n < 0:
        raise GenerationError(f"sample count must be >= 0, got {n}")
    if timesteps < 1:
        raise GenerationError(f"need at least 1 timestep, got {timesteps}")
    if grid % PATTERN_SIZE:
        raise GenerationError(f"grid {grid} must be a multiple of {PATTERN_SIZE}")
    if not 2 <= classes <= len(PATTERNS):
        raise GenerationError(f"classes must be in [2, {len(PATTERNS)}], got {classes}")
    if not 0.0 <= noise_rate < 1.0:
        raise GenerationError(f"noise_rate must be in [0, 1), got {noise_rate}")

    rng = make_rng(seed)
    glyphs = list(PATTERNS.values())[:classes]
    frames = np.zeros((n, timesteps, 1, grid, grid), dtype=np.uint8)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    for i in range(n):
        for t in range(timesteps):
            _stamp(frames[i, t, 0], glyphs[labels[i]], 0, grid)
        if noise_rate > 0.0:
            frames[i] |= rng.random(frames[i].shape) < noise_rate
    meta = {"generator": "static_patterns", "seed": seed, "noise_rate": noise_rate}
    return EventDataset(frames, labels, n_classes=classes, metadata=meta)


def pack_sample(frames: np.ndarray) -> bytes:
    """Bit-pack one binary sample [T, C, H, W], MSB first, row-major."""
    return np.packbits(frames.reshape(-1).astype(np.uint8), bitorder="big").tobytes()


def unpack_sample(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    count = int(np.prod(shape))
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count, bitorder="big")
    return bits.reshape(shape)


def write_evtb(path, ds: EventDataset) -> None:
    ds.validate()
    count, t, c, h, w = ds.frames.shape
    if count >= 2 ** 32:
        raise FormatError(f"sample count {count} does not fit the u32 header field")
    for name, value in (("T", t), ("C", c), ("H", h), ("W", w), ("classes", ds.n_classes)):
        if value >= 2 ** 16:
            raise FormatError(f"{name} = {value} does not fit its u16 header field")
    chunks = [_HEADER.pack(EVTB_MAGIC, EVTB_VERSION, count, t, c, h, w, ds.n_classes)]
    for i in range(count):
        chunks.append(struct.pack("<H", int(ds.labels[i])))
        chunks.append(pack_sample(ds.frames[i]))
    Path(path).write_bytes(b"".join(chunks))


def read_evtb(path) -> EventDataset:
    buf = Path(path).read_bytes()
    if len(buf) < _HEADER.size:
        raise FormatError(f"file too short for a header ({len(buf)} bytes)", offset=len(buf))
    magic, version, count, t, c, h, w, classes = _HEADER.unpack_from(buf, 0)
    if magic != EVTB_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {EVTB_MAGIC!r}", offset=0)
    if version != EVTB_VERSION:
        raise FormatError(f"unsupported version {version}; this reader supports "
                          f"{EVTB_VERSION}", offset=4)
    sample_bits = t * c * h * w
    payload_len = (sample_bits + 7) // 8
    expected = _HEADER.size + count * (2 + payload_len)
    if len(buf) != expected:
        raise FormatError(f"file size {len(buf)} does not match header "
                          f"(expected {expected})", offset=min(len(buf), expected))
    frames = np.empty((count, t, c, h, w), dtype=np.uint8)
    labels = np.empty(count, dtype=np.int64)
    pos = _HEADER.size
    for i in range(count):
        label = struct.unpack_from("<H", buf, pos)[0]
        if label >= classes:
            raise FormatError(f"sample {i} label {label} outside [0, {classes})", offset=pos)
        labels[i] = label
        pos += 2
        frames[i] = unpack_sample(buf[pos:pos + payload_len], (t, c, h, w))
        pos += payload_len
    return EventDataset(frames, labels, n_classes=classes, metadata={"path": str(path)})


def time_major(frames: np.ndarray) -> np.ndarray:
    """[B, T, C, H, W] batch -> float64 [T, B, C, H, W] network input."""
    return np.ascontiguousarray(frames.transpose(1, 0, 2, 3, 4), dtype=np.float64)
