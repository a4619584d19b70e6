"""Optimizer arithmetic, schedule, projections, and the training loop."""

import json
import math
import sys

import numpy as np
import pytest

from ds2ta.data import gen_temporal_order, time_major
from ds2ta.errors import ConfigError, InputError, NumericError
from ds2ta.model import ModelConfig, SpikingTransformer, load_checkpoint
from ds2ta import tensorcore
from ds2ta.tensorcore import Tape, cross_entropy_logits
from ds2ta.train import (AdamW, TrainConfig, apply_projections,
                         clip_global_norm, cosine_lr, evaluate, train)


def micro_model(**overrides):
    base = dict(timesteps=4, blocks=1, embed_dim=8, heads=2, mlp_ratio=2,
                img_size=8, patch_size=4, n_classes=2, seed=0)
    base.update(overrides)
    return SpikingTransformer(ModelConfig(**base))


def micro_data(n=24, seed=0):
    return gen_temporal_order(n, timesteps=4, grid=8, noise_rate=0.02, seed=seed)


# ----------------------------------------------------------------- schedule


def test_cosine_endpoints_and_midpoint():
    assert cosine_lr(0, 11, 1e-2, 1e-4) == 1e-2
    assert np.isclose(cosine_lr(10, 11, 1e-2, 1e-4), 1e-4)
    assert np.isclose(cosine_lr(5, 11, 1e-2, 1e-4), (1e-2 + 1e-4) / 2)


def test_cosine_single_epoch():
    assert cosine_lr(0, 1, 3e-3, 1e-5) == 3e-3


def test_cosine_is_monotone_decreasing():
    values = [cosine_lr(e, 20, 1e-2, 1e-5) for e in range(20)]
    assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------- optimizer


def _leaf_param(name, value):
    tape = Tape()
    return name, tape.leaf(np.asarray(value, dtype=np.float64))


def test_adamw_three_step_hand_trace():
    # Constant gradient 1 makes both bias-corrected moments exactly 1 at
    # every step, so each update subtracts lr / (1 + eps):
    #   p_3 = 1 - 3 * 0.1 / (1 + 1e-8)
    name, p = _leaf_param("w", 1.0)
    opt = AdamW([(name, p)], weight_decay=0.0)
    for _ in range(3):
        p.zero_grad()
        p.accumulate_grad(np.asarray(1.0))
        opt.step(0.1)
    want = 1.0 - 3 * (0.1 / (1.0 + 1e-8))
    assert abs(float(p.value.data) - want) < 1e-12


def test_adamw_decay_is_decoupled():
    # With zero gradient the moments stay zero and only the decay term
    # acts: p shrinks by exactly lr * wd * p per step.
    name, p = _leaf_param("w", 2.0)
    opt = AdamW([(name, p)], weight_decay=0.1)
    for _ in range(2):
        p.zero_grad()
        p.accumulate_grad(np.asarray(0.0))
        opt.step(0.1)
    assert np.isclose(float(p.value.data), 2.0 * 0.99 ** 2)


def test_adamw_zero_lr_is_a_no_op():
    name, p = _leaf_param("w", 1.5)
    opt = AdamW([(name, p)], weight_decay=0.5)
    p.accumulate_grad(np.asarray(1.0))
    opt.step(0.0)
    assert float(p.value.data) == 1.5


def test_scalar_knobs_get_boosted_lr_and_no_decay():
    knob = _leaf_param("block0.attn.tau", 1.0)
    dense = _leaf_param("block0.attn.wq", 1.0)
    opt = AdamW([knob, dense], weight_decay=0.1, lr_mult=10.0)
    for _, p in (knob, dense):
        p.accumulate_grad(np.asarray(1.0))
    opt.step(0.01)
    knob_step = 1.0 - float(knob[1].value.data)
    dense_step = 1.0 - float(dense[1].value.data)
    # the dense step includes the decay term 0.01 * 0.1 * 1.0
    assert np.isclose(dense_step, 0.01 / (1 + 1e-8) + 0.001)
    assert np.isclose(knob_step, 0.1 / (1 + 1e-8))

    thresh = _leaf_param("block1.attn.nsad3.u", 1.0)
    opt2 = AdamW([thresh], weight_decay=0.1, lr_mult=10.0)
    opt2.step(0.01)  # no gradient, and scalar knobs skip decay
    assert float(thresh[1].value.data) == 1.0


def test_adamw_missing_gradient_counts_as_zero():
    name, p = _leaf_param("w", 1.0)
    opt = AdamW([(name, p)], weight_decay=0.0)
    opt.step(0.1)
    assert float(p.value.data) == 1.0


# ------------------------------------------------------- clip / projections


def test_clip_scales_down_only_when_needed():
    a = _leaf_param("a", np.array([3.0, 4.0]))  # norm 5
    a[1].accumulate_grad(np.array([3.0, 4.0]))
    norm = clip_global_norm([a], max_norm=2.5)
    assert np.isclose(norm, 5.0)
    assert np.allclose(a[1].grad.data, [1.5, 2.0])

    b = _leaf_param("b", np.array([0.3, 0.4]))
    b[1].accumulate_grad(np.array([0.3, 0.4]))
    clip_global_norm([b], max_norm=2.5)
    assert np.allclose(b[1].grad.data, [0.3, 0.4])


def test_projections_clamp_tau_and_threshold():
    model = micro_model()
    model.blocks[0].tau.value.data[...] = -0.5
    model.blocks[0].heads[0].u.value.data[...] = -3.0
    model.blocks[0].heads[1].u.value.data[...] = 2.0
    apply_projections(model)
    assert float(model.blocks[0].tau.value.data) == 0.0
    assert float(model.blocks[0].heads[0].u.value.data) == 0.0
    assert float(model.blocks[0].heads[1].u.value.data) == 2.0

    model.blocks[0].tau.value.data[...] = 99.0
    apply_projections(model)
    assert float(model.blocks[0].tau.value.data) == model.cfg.tau_max

    # A spatial-only block has no exponent and no thresholds to clamp.
    spatial = micro_model(attention_mode="spatial_only", nsad_enabled=False)
    before = {name: p.value.data.copy() for name, p in spatial.parameters()}
    apply_projections(spatial)
    assert all(np.array_equal(p.value.data, before[name])
               for name, p in spatial.parameters())


# ------------------------------------------------------------ training loop


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr_init=1e-4, lr_min=1e-3).validate()
    with pytest.raises(ConfigError):
        TrainConfig(grad_clip=0.0).validate()
    # NaN passes the range tests and inf satisfies them
    for name in ("lr_init", "lr_min", "weight_decay", "grad_clip", "nsad_lr_mult"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                TrainConfig(**{name: bad}).validate()


def test_train_records_and_log(tmp_path):
    model = micro_model()
    log_path = tmp_path / "metrics.jsonl"
    ckpt_path = tmp_path / "model.ckpt"
    cfg = TrainConfig(epochs=3, batch_size=8, lr_init=1e-3, lr_min=1e-5,
                      seed=0, eval_every=2, log_path=str(log_path),
                      checkpoint_path=str(ckpt_path))
    records = train(model, micro_data(), cfg, eval_dataset=micro_data(seed=1))

    assert [r["epoch"] for r in records] == [0, 1, 2]
    for r in records:
        assert set(r) >= {"epoch", "lr", "train_loss", "train_acc",
                          "eval_acc", "sparsity"}
        assert len(r["sparsity"]) == model.cfg.blocks
        assert math.isfinite(r["train_loss"])
    # cadence: every second epoch, and always the last one
    assert records[0]["eval_acc"] is None
    assert records[1]["eval_acc"] is not None
    assert records[2]["eval_acc"] is not None

    logged = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert logged == records
    assert load_checkpoint(ckpt_path).cfg.embed_dim == model.cfg.embed_dim


def test_train_is_reproducible():
    def run():
        model = micro_model()
        cfg = TrainConfig(epochs=2, batch_size=8, seed=3)
        return train(model, micro_data(), cfg)

    a, b = run(), run()
    assert [r["train_loss"] for r in a] == [r["train_loss"] for r in b]
    assert [r["train_acc"] for r in a] == [r["train_acc"] for r in b]


def test_epoch_records_report_gradient_health():
    def run(grad_clip, **overrides):
        cfg = TrainConfig(epochs=2, batch_size=8, seed=3, grad_clip=grad_clip)
        return train(micro_model(**overrides), micro_data(), cfg)

    records = run(5.0)
    assert records == run(5.0)  # deterministic, new fields included
    for r in records:
        assert 0.0 < r["grad_norm_mean"] <= r["grad_norm_max"]
        assert 0.0 <= r["clip_frac"] <= 1.0
        # The denoiser passes no gradient to the scores, so the query and
        # key projections get none.
        assert r["no_grad_params"] == ["block0.attn.wq", "block0.attn.wk"]
    assert {r["clip_frac"] for r in run(1e-9)} == {1.0}
    assert {r["clip_frac"] for r in run(1e9)} == {0.0}
    # With the denoiser off the model builds no head scalars, and every
    # parameter it builds gets a gradient.
    off = run(5.0, nsad_enabled=False)[0]["no_grad_params"]
    assert off == []


def test_train_moves_the_denoiser_tables():
    model = micro_model()
    before = [head.table.copy() for head in model.blocks[0].heads]
    train(model, micro_data(48), TrainConfig(epochs=2, batch_size=8, lr_init=5e-3))
    after = [head.table for head in model.blocks[0].heads]
    assert any(not np.array_equal(b, a) for b, a in zip(before, after))


def test_train_rejects_empty_dataset():
    ds = micro_data(4)
    ds.frames = ds.frames[:0]
    ds.labels = ds.labels[:0]
    with pytest.raises(InputError):
        train(micro_model(), ds, TrainConfig(epochs=1))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_train_reports_nonfinite_loss():
    model = micro_model()
    model.params["head.w"].value.data[...] = np.inf
    with pytest.raises(NumericError, match="epoch 0"):
        train(model, micro_data(), TrainConfig(epochs=1, batch_size=8))


# ---------------------------------------------------------------- evaluate


def test_evaluate_matches_manual_argmax():
    model = micro_model()
    ds = micro_data(20, seed=2)
    result = evaluate(model, ds, batch_size=8)
    logits = np.concatenate([
        model.forward_logits(time_major(ds.frames[i:i + 8]))
        for i in range(0, 20, 8)])
    want = float((logits.argmax(axis=1) == ds.labels).mean())
    assert np.isclose(result.accuracy, want)
    assert result.per_class.shape == (2,)
    assert result.raw_sparsity.shape == (model.cfg.blocks,)
    assert np.all(result.raw_sparsity >= 0) and np.all(result.raw_sparsity <= 1)
    assert np.all(result.denoised_sparsity >= result.raw_sparsity - 1e-12)


def test_evaluate_rejects_empty_dataset():
    ds = micro_data(4)
    ds.frames, ds.labels = ds.frames[:0], ds.labels[:0]
    with pytest.raises(InputError):
        evaluate(micro_model(), ds)


# ------------------------------------------------------------ precision


def test_default_training_step_is_float32():
    """A default-config step computes, differentiates and updates in float32."""
    model = SpikingTransformer(ModelConfig())
    data = gen_temporal_order(32, seed=3)
    opt = AdamW(model.parameters(), weight_decay=1e-4, lr_mult=10.0)
    loss = cross_entropy_logits(model.forward(time_major(data.frames)), data.labels)
    returned = set()

    def watch(backward):
        def wrapped(g):
            grads = backward(g)
            returned.update(np.asarray(x).dtype for x in grads if x is not None)
            return grads
        return wrapped

    for node in model.tape.nodes:
        node.backward = watch(node.backward)
    # backward consumes the nodes, so collect their outputs first
    outputs = [node.output for node in model.tape.nodes]
    model.zero_grads()
    model.tape.backward(loss)
    clip_global_norm(opt.named_params, 5.0)
    opt.step(1e-3)
    f32 = np.dtype(np.float32)
    assert {out.value.dtype for out in outputs} == {f32}
    assert returned == {f32}
    assert {p.grad.dtype for _, p in model.parameters() if p.grad is not None} == {f32}
    assert {p.value.dtype for _, p in model.parameters()} == {f32}
    assert {a.dtype for a in opt.m + opt.v} == {f32}


# ------------------------------------------------------------ page faults


@pytest.mark.skipif(not sys.platform.startswith("linux") or not tensorcore.HEAP_KEPT,
                    reason="needs Linux and glibc's mallopt")
def test_training_steps_reuse_heap_pages():
    """Steady-state steps take their arrays from pages already mapped.

    Without the allocator setting in ``tensorcore`` every default-config
    step faults in 15k-52k freshly trimmed or mmapped pages.
    """
    model = SpikingTransformer(ModelConfig())
    data = gen_temporal_order(4 * 32, seed=3)
    opt = AdamW(model.parameters(), weight_decay=1e-4, lr_mult=10.0)

    def step(i):
        frames = time_major(data.frames[32 * i:32 * (i + 1)])
        loss = cross_entropy_logits(model.forward(frames), data.labels[32 * i:32 * (i + 1)])
        model.zero_grads()
        model.tape.backward(loss)
        clip_global_norm(opt.named_params, 5.0)
        opt.step(1e-3)
        apply_projections(model)
        model.rebuild_tables()
        model.tape.clear()

    import resource  # Unix only, like the allocator setting under test

    step(0)  # warm-up: the heap grows to one step's working set
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(1, 4):
        step(i)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 2000, f"{faults} minor page faults in three steps"
