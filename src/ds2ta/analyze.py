"""Attention sparsity measurement, the energy model, and map export.

Spiking attention accumulates instead of multiplying, so the energy model
charges one accumulate per non-zero operand:

    energy = E_AC * op_count * (1 - sparsity)

``op_count`` counts the accumulates of both attention products per
sample, the score product Q K^T and the map-value product A V, which is
2 * T * H * N^2 * d.  E_AC defaults to 0.9 pJ per accumulate and is
configurable; reported absolute energies are indicative, the quantity of
interest is the relative reduction between sparsity levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import EventDataset, time_major
from .errors import InputError
from .model import SpikingTransformer
from .train import evaluate

E_AC_PJ_DEFAULT = 0.9
OPS_CONVENTION = "accumulates for the score product and the map-value product"


def sparsity(a: np.ndarray) -> float:
    """Fraction of exactly zero entries."""
    a = np.asarray(a)
    if a.size == 0:
        raise InputError("cannot measure sparsity of an empty array")
    return float((a == 0).sum() / a.size)


def count_attention_ops(n_tokens: int, head_dim: int, heads: int, timesteps: int) -> int:
    """Accumulate count per sample: 2 * T * H * N^2 * d."""
    return 2 * timesteps * heads * n_tokens * n_tokens * head_dim


def energy_nj(op_count: int, sparsity_value: float, e_ac_pj: float = E_AC_PJ_DEFAULT) -> float:
    """Energy in nanojoule for a given accumulate count and zero fraction."""
    if not 0.0 <= sparsity_value <= 1.0:
        raise InputError(f"sparsity must be in [0, 1], got {sparsity_value}")
    if not (math.isfinite(e_ac_pj) and e_ac_pj > 0):
        raise InputError(f"per-accumulate energy must be positive and finite, got {e_ac_pj}")
    return e_ac_pj * op_count * (1.0 - sparsity_value) / 1000.0


@dataclass
class BlockEnergy:
    block: int
    raw_sparsity: float
    denoised_sparsity: float
    op_count: int
    energy: float  # nJ, computed from the sparsity the model actually runs with


@dataclass
class EnergyReport:
    e_ac_pj: float
    denoiser_active: bool
    blocks: list[BlockEnergy]


def measure(model: SpikingTransformer, dataset: EventDataset,
            e_ac_pj: float = E_AC_PJ_DEFAULT, batch_size: int = 64) -> EnergyReport:
    """Evaluate the dataset and derive per-block sparsity and energy."""
    result = evaluate(model, dataset, batch_size=batch_size)
    cfg = model.cfg
    ops = count_attention_ops(cfg.tokens, cfg.head_dim, cfg.heads, cfg.timesteps)
    blocks = []
    for i in range(cfg.blocks):
        active = result.denoised_sparsity[i] if cfg.nsad_enabled else result.raw_sparsity[i]
        blocks.append(BlockEnergy(
            block=i,
            raw_sparsity=float(result.raw_sparsity[i]),
            denoised_sparsity=float(result.denoised_sparsity[i]),
            op_count=ops,
            energy=energy_nj(ops, float(active), e_ac_pj),
        ))
    return EnergyReport(e_ac_pj=e_ac_pj, denoiser_active=cfg.nsad_enabled, blocks=blocks)


def render_report(report: EnergyReport) -> str:
    lines = [
        "# attention energy report",
        f"# op_count convention: {OPS_CONVENTION}",
        f"e_ac_pj={report.e_ac_pj}",
        f"denoiser_active={'true' if report.denoiser_active else 'false'}",
    ]
    for blk in report.blocks:
        lines.append(f"[block {blk.block}]")
        lines.append(f"raw_sparsity={blk.raw_sparsity:.6f}")
        lines.append(f"denoised_sparsity={blk.denoised_sparsity:.6f}")
        lines.append(f"op_count={blk.op_count}")
        lines.append(f"energy_nj={blk.energy:.9g}")
    return "\n".join(lines) + "\n"


def write_pgm(path, grid: np.ndarray, value_ceiling: int) -> None:
    """8-bit binary portable graymap, values scaled by 255 / value_ceiling."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 2:
        raise InputError(f"graymap needs a 2-d grid, got shape {grid.shape}")
    scaled = np.clip(np.rint(grid * (255.0 / value_ceiling)), 0, 255).astype(np.uint8)
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + scaled.tobytes())


def export_attention(model: SpikingTransformer, frames: np.ndarray, prefix) -> list[Path]:
    """Dump every attention map of one sample as CSV text and PGM image.

    ``frames`` is a single sample [T, C, H, W].  For each block, head and
    timestep the raw scores and the denoised map are written, so each
    format gets 2 * L * H * T files:
    ``{prefix}_b{l}_h{h}_t{t}_{raw|den}.{csv,pgm}``.
    """
    frames = np.asarray(frames)
    if frames.ndim != 4:
        raise InputError(f"expected one sample [T, C, H, W], got shape {frames.shape}")
    capture: list = []
    model.forward_logits(time_major(frames[None, ...]), capture=capture)
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    ceiling = model.cfg.head_dim
    written: list[Path] = []
    for cap in capture:
        steps, _, heads = cap.raw.shape[:3]
        for h in range(heads):
            for t in range(steps):
                for tag, stack in (("raw", cap.raw), ("den", cap.denoised)):
                    grid = stack[t, 0, h]
                    base = f"{prefix.name}_b{cap.block}_h{h}_t{t}_{tag}"
                    csv_path = prefix.with_name(base + ".csv")
                    np.savetxt(csv_path, grid, fmt="%g", delimiter=",")
                    pgm_path = prefix.with_name(base + ".pgm")
                    write_pgm(pgm_path, grid, ceiling)
                    written.extend([csv_path, pgm_path])
    return written
