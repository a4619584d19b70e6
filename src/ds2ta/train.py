"""Surrogate-gradient training loop: AdamW, cosine schedule, evaluation.

Per step: forward, cross-entropy, backward, global-norm gradient clip,
AdamW update (decoupled weight decay, scaled by the current lr), then the
feasibility projections (denoiser thresholds clamped to u >= 0, decay
exponents clamped into [0, tau_max]) and a rebuild of the denoiser
tables.  The denoiser scalars and the decay exponents train at a
multiple of the base learning rate and are excluded from weight decay.

Metrics are line-delimited JSON records, one per epoch.  Besides loss,
accuracy and map sparsity, each record reports gradient health: the mean
and largest pre-clip gradient norm, the fraction of clipped steps, and the
parameters that got no gradient in any step of the epoch.  A fixed seed and
config reproduce training curves exactly in a single-threaded run; a
non-finite loss aborts with the epoch, batch, and worst parameter norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import EventDataset, time_major
from .errors import ConfigError, InputError, NumericError
from .model import SpikingTransformer, save_checkpoint
from .tensorcore import DiffTensor, cross_entropy_logits, make_rng


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr_init: float = 1e-3
    lr_min: float = 1e-5
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    nsad_lr_mult: float = 10.0
    seed: int = 0
    eval_every: int = 1
    checkpoint_path: str | None = None
    log_path: str | None = None

    def validate(self) -> None:
        # NaN passes every comparison below and inf satisfies them, so
        # finiteness is checked first.
        for name in ("lr_init", "lr_min", "weight_decay", "grad_clip", "nsad_lr_mult"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs ({self.epochs}) and batch_size "
                              f"({self.batch_size}) must be >= 1")
        if self.lr_init <= 0 or self.lr_min < 0 or self.lr_min > self.lr_init:
            raise ConfigError(f"need 0 <= lr_min <= lr_init, got "
                              f"{self.lr_min} and {self.lr_init}")
        if self.weight_decay < 0 or self.grad_clip <= 0 or self.nsad_lr_mult <= 0:
            raise ConfigError("weight_decay must be >= 0; grad_clip and "
                              "nsad_lr_mult must be > 0")


def cosine_lr(epoch: int, total_epochs: int, lr_init: float, lr_min: float) -> float:
    """Half-cosine from lr_init (first epoch) down to lr_min (last epoch)."""
    if total_epochs <= 1:
        return lr_init
    frac = epoch / (total_epochs - 1)
    return lr_min + 0.5 * (lr_init - lr_min) * (1.0 + math.cos(math.pi * frac))


def _is_scalar_knob(name: str) -> bool:
    # Denoiser scalars and decay exponents: no decay, boosted lr.
    return ".nsad" in name or name.endswith(".tau")


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

        m <- b1*m + (1-b1)*g          v <- b2*v + (1-b2)*g^2
        p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)

    Weight decay is multiplied by the current learning rate, so lr = 0
    leaves every parameter untouched.
    """

    def __init__(self, named_params, weight_decay: float = 0.0,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 lr_mult: float = 1.0):
        self.named_params: list[tuple[str, DiffTensor]] = list(named_params)
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.lr_mult = lr_mult
        self.step_count = 0
        self.m = [np.zeros_like(p.value.data) for _, p in self.named_params]
        self.v = [np.zeros_like(p.value.data) for _, p in self.named_params]

    def step(self, lr: float) -> None:
        self.step_count += 1
        t = self.step_count
        for i, (name, p) in enumerate(self.named_params):
            g = p.grad.data if p.grad is not None else np.zeros_like(p.value.data)
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** t)
            eff_lr = lr * (self.lr_mult if _is_scalar_knob(name) else 1.0)
            decay = 0.0 if _is_scalar_knob(name) else self.weight_decay
            p.value.data[...] -= eff_lr * (m_hat / (np.sqrt(v_hat) + self.eps)
                                           + decay * p.value.data)

    def state_tensors(self):
        """Named arrays for checkpointing."""
        yield "opt.step", np.asarray(self.step_count, dtype=np.int64)
        for (name, _), m, v in zip(self.named_params, self.m, self.v):
            yield f"opt.m.{name}", m
            yield f"opt.v.{name}", v


def clip_global_norm(named_params, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``."""
    total = 0.0
    for _, p in named_params:
        if p.grad is not None:
            total += float(np.sum(p.grad.data.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0.0:
        ratio = max_norm / norm
        for _, p in named_params:
            if p.grad is not None:
                p.grad.data *= ratio
    return norm


def apply_projections(model: SpikingTransformer) -> None:
    """Clamp denoiser thresholds to u >= 0 and decay exponents to range."""
    for blk in model.blocks:
        np.clip(blk.tau.value.data, 0.0, float(model.cfg.tau_max), out=blk.tau.value.data)
        for head in blk.heads:
            np.clip(head.u.value.data, 0.0, None, out=head.u.value.data)


@dataclass
class EvalResult:
    accuracy: float
    per_class: np.ndarray            # accuracy per class
    raw_sparsity: np.ndarray         # zero fraction of score maps, per block
    denoised_sparsity: np.ndarray    # zero fraction of denoised maps, per block


def evaluate(model: SpikingTransformer, dataset: EventDataset,
             batch_size: int = 64) -> EvalResult:
    if len(dataset) == 0:
        raise InputError("cannot evaluate on an empty dataset")
    n_classes = model.cfg.n_classes
    hits = np.zeros(n_classes, dtype=np.int64)
    totals = np.zeros(n_classes, dtype=np.int64)
    zero_raw = np.zeros(model.cfg.blocks, dtype=np.float64)
    zero_den = np.zeros(model.cfg.blocks, dtype=np.float64)
    entries = np.zeros(model.cfg.blocks, dtype=np.float64)
    for start in range(0, len(dataset), batch_size):
        frames = dataset.frames[start:start + batch_size]
        labels = dataset.labels[start:start + batch_size]
        capture: list = []
        logits = model.forward_logits(time_major(frames), capture=capture)
        pred = logits.argmax(axis=1)
        for cls in range(n_classes):
            sel = labels == cls
            totals[cls] += int(sel.sum())
            hits[cls] += int((pred[sel] == cls).sum())
        for cap in capture:
            zero_raw[cap.block] += float((cap.raw == 0).sum())
            zero_den[cap.block] += float((cap.denoised == 0).sum())
            entries[cap.block] += cap.raw.size
    per_class = np.divide(hits, totals, out=np.zeros(n_classes), where=totals > 0)
    return EvalResult(
        accuracy=float(hits.sum() / totals.sum()),
        per_class=per_class,
        raw_sparsity=zero_raw / entries,
        denoised_sparsity=zero_den / entries,
    )


def train(model: SpikingTransformer, dataset: EventDataset, cfg: TrainConfig,
          eval_dataset: EventDataset | None = None) -> list[dict]:
    """Run the full loop; returns the per-epoch metric records."""
    cfg.validate()
    if len(dataset) == 0:
        raise InputError("cannot train on an empty dataset")
    dataset.validate()
    opt = AdamW(model.parameters(), weight_decay=cfg.weight_decay,
                lr_mult=cfg.nsad_lr_mult)
    named = opt.named_params
    shuffle_rng = make_rng(cfg.seed, 1)
    metrics: list[dict] = []
    log_file = open(cfg.log_path, "w", encoding="utf-8") if cfg.log_path else None
    try:
        for epoch in range(cfg.epochs):
            lr = cosine_lr(epoch, cfg.epochs, cfg.lr_init, cfg.lr_min)
            order = shuffle_rng.permutation(len(dataset))
            losses, correct, seen = [], 0, 0
            norms: list[float] = []
            reached: set[str] = set()
            for start in range(0, len(dataset), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                frames = time_major(dataset.frames[batch])
                labels = dataset.labels[batch]
                logits = model.forward(frames)
                loss = cross_entropy_logits(logits, labels)
                loss_val = float(loss.value.data)
                if not math.isfinite(loss_val):
                    name, norm = _worst_param(model)
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} batch {start // cfg.batch_size}; "
                        f"largest parameter norm {norm:.3e} ({name})")
                model.zero_grads()
                model.tape.backward(loss)
                reached.update(name for name, p in named if p.grad is not None)
                norms.append(clip_global_norm(named, cfg.grad_clip))
                opt.step(lr)
                apply_projections(model)
                model.rebuild_tables()
                model.tape.clear()
                losses.append(loss_val * len(batch))
                correct += int((logits.value.data.argmax(axis=1) == labels).sum())
                seen += len(batch)
            record = {
                "epoch": epoch,
                "lr": lr,
                "train_loss": float(sum(losses) / seen),
                "train_acc": correct / seen,
                "eval_acc": None,
                "sparsity": [float(s) for s in
                             _probe_sparsity(model, dataset, cfg.batch_size)],
                # Pre-clip global gradient norms; a step is clipped when its
                # norm exceeds grad_clip (clip_global_norm's own test).
                "grad_norm_mean": sum(norms) / len(norms),
                "grad_norm_max": max(norms),
                "clip_frac": sum(n > cfg.grad_clip for n in norms) / len(norms),
                "no_grad_params": [name for name, _ in named if name not in reached],
            }
            last = epoch == cfg.epochs - 1
            if eval_dataset is not None and ((epoch + 1) % cfg.eval_every == 0 or last):
                record["eval_acc"] = evaluate(model, eval_dataset,
                                              batch_size=cfg.batch_size).accuracy
            metrics.append(record)
            if log_file:
                log_file.write(json.dumps(record) + "\n")
                log_file.flush()
    finally:
        if log_file:
            log_file.close()
    if cfg.checkpoint_path:
        save_checkpoint(model, cfg.checkpoint_path, optimizer=opt)
    return metrics


def _probe_sparsity(model: SpikingTransformer, dataset: EventDataset,
                    batch_size: int) -> np.ndarray:
    """Denoised-map sparsity on a fixed leading slice of the dataset."""
    frames = dataset.frames[:min(batch_size, len(dataset))]
    capture: list = []
    model.forward_logits(time_major(frames), capture=capture)
    out = np.zeros(model.cfg.blocks)
    for cap in capture:
        out[cap.block] = float((cap.denoised == 0).mean())
    return out


def _worst_param(model: SpikingTransformer) -> tuple[str, float]:
    worst_name, worst_norm = "", -1.0
    for name, p in model.parameters():
        norm = float(np.linalg.norm(p.value.data))
        if norm > worst_norm:
            worst_name, worst_norm = name, norm
    return worst_name, worst_norm
