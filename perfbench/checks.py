"""Correctness checks on the outputs of the benchmark workloads.

Each check takes outputs and raises :class:`CheckError` when they are
wrong.  Expected values come from an independent path (a recount, a second
model, a formula written out here) or from a property of the method,
never from a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """A workload produced a wrong output."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def bitwise_equal(a: np.ndarray, b: np.ndarray, what: str) -> None:
    a, b = np.asarray(a), np.asarray(b)
    require(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
            f"{what}: not bitwise equal")


def loss_falls(records: list[dict]) -> None:
    """Every epoch loss is finite and the last epoch is below the first."""
    losses = [r["train_loss"] for r in records]
    require(len(losses) >= 2, f"need at least two epochs to see the loss fall, got {losses}")
    require(all(math.isfinite(x) for x in losses), f"non-finite training loss: {losses}")
    require(losses[-1] < losses[0], f"training loss did not fall: {losses}")


def recount_accuracy(logits: np.ndarray, labels: np.ndarray, n_classes: int):
    """Accuracy and per-class accuracy from argmax predictions."""
    require(logits.shape == (labels.shape[0], n_classes),
            f"logits of shape {logits.shape} for {labels.shape[0]} samples")
    pred = np.argmax(logits, axis=1)
    hits = np.bincount(labels[pred == labels], minlength=n_classes).astype(np.int64)
    totals = np.bincount(labels, minlength=n_classes).astype(np.int64)
    per_class = np.divide(hits, totals, out=np.zeros(n_classes), where=totals > 0)
    return float(hits.sum() / totals.sum()), per_class


def accuracy_matches(logits: np.ndarray, labels: np.ndarray, n_classes: int,
                     reported: float, what: str):
    """Recount accuracy from argmax; it must equal the program's figure exactly."""
    accuracy, per_class = recount_accuracy(logits, labels, n_classes)
    require(reported == accuracy, f"{what} {reported!r} != recount {accuracy!r}")
    return accuracy, per_class


def above_chance(accuracy: float, n_classes: int, margin: float) -> None:
    chance = 1.0 / n_classes
    require(accuracy >= chance + margin,
            f"accuracy {accuracy:.4f} is not {margin:.2f} above chance {chance:.2f}")


def count_zeros(captures, blocks: int) -> np.ndarray:
    """[raw zeros, denoised zeros, entries] per block of one batch's captures."""
    counts = np.zeros((3, blocks), dtype=np.int64)
    for cap in captures:
        counts[:, cap.block] += (np.count_nonzero(cap.raw == 0),
                                 np.count_nonzero(cap.denoised == 0), cap.raw.size)
    return counts


def sparsity(counts: np.ndarray):
    """Raw and denoised zero fractions per block from summed ``count_zeros``."""
    require(bool(np.all(counts[2] > 0)), "a block produced no attention maps")
    return counts[0] / counts[2], counts[1] / counts[2]


def eval_result_matches(result, per_class, raw_sparsity, den_sparsity) -> None:
    bitwise_equal(result.per_class, per_class, "evaluate per-class accuracy vs recount")
    bitwise_equal(result.raw_sparsity, raw_sparsity, "evaluate raw sparsity vs recount")
    bitwise_equal(result.denoised_sparsity, den_sparsity,
                  "evaluate denoised sparsity vs recount")


def _round_half_away(x):
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def denoiser_table(a, b, c, dw, e, u, head_dim: int) -> np.ndarray:
    """AD[s] = max(0, round(f(s))) with f(s) = g(s) for s > u, else 0."""
    s = np.arange(head_dim + 1, dtype=np.float64)
    g = a * s + b * (s - c) ** 2 + dw / (1.0 + np.exp(s - e))
    return np.maximum(0.0, _round_half_away(np.where(s > u, g, 0.0))).astype(np.int64)


def tables_match_scalars(tables, scalars, head_dim: int) -> None:
    """Each stored table equals the table rebuilt here from its six scalars."""
    for h, (table, p) in enumerate(zip(tables, scalars)):
        expected = denoiser_table(p["a"], p["b"], p["c"], p["dw"], p["e"], p["u"], head_dim)
        bitwise_equal(np.asarray(table, dtype=np.int64), expected,
                      f"head {h} table vs its scalars")


def denoised_is_gather(captures, tables_per_block) -> None:
    """Every denoised map is ``table[raw]`` of its head and keeps each zero."""
    for cap in captures:
        for h, table in enumerate(tables_per_block[cap.block]):
            raw = cap.raw[:, :, h]
            den = cap.denoised[:, :, h]
            scores = raw.astype(np.int64)
            require(np.array_equal(scores, raw),
                    f"block {cap.block} head {h}: non-integer raw score")
            require(np.array_equal(den, np.asarray(table)[scores].astype(den.dtype)),
                    f"block {cap.block} head {h}: denoised map is not table[raw]")
            require(not np.any(den[raw == 0]),
                    f"block {cap.block} head {h}: a zero score was un-zeroed")


def energy_matches(report, e_ac_pj: float, timesteps: int, heads: int, tokens: int,
                   head_dim: int, sparsity_per_block) -> None:
    """E_AC * 2*T*H*N^2*d * (1 - s) / 1000 nJ per block, within float rounding."""
    ops = 2 * timesteps * heads * tokens * tokens * head_dim
    require(len(report.blocks) == len(sparsity_per_block),
            f"{len(report.blocks)} blocks in the energy report")
    for blk, s in zip(report.blocks, sparsity_per_block):
        expected = e_ac_pj * ops * (1.0 - float(s)) / 1000.0
        require(blk.op_count == ops, f"block {blk.block}: op count {blk.op_count} != {ops}")
        require(math.isclose(blk.energy, expected, rel_tol=1e-12, abs_tol=0.0),
                f"block {blk.block}: energy {blk.energy!r} nJ != {expected!r} nJ")
