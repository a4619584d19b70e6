"""Model assembly, ablation equivalences, and the checkpoint container."""

import gc
import struct
import tracemalloc

import numpy as np
import pytest

from ds2ta.errors import ConfigError, FormatError
from ds2ta.model import (CKPT_MAGIC, CKPT_VERSION, ModelConfig,
                         SpikingTransformer, config_from_dict, config_from_text,
                         config_to_text, load_checkpoint, parse_config_text,
                         patchify, save_checkpoint)
from ds2ta.nsad import build_table
from ds2ta.tensorcore import cross_entropy_logits, make_rng
from ds2ta.train import AdamW


def micro_config(**overrides):
    base = dict(timesteps=3, blocks=1, embed_dim=8, heads=2, mlp_ratio=2,
                img_size=8, patch_size=4, n_classes=2, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def random_frames(cfg, batch=2, seed=0, rate=0.15):
    rng = make_rng(seed, 9)
    shape = (cfg.timesteps, batch, cfg.in_channels, cfg.img_size, cfg.img_size)
    return (rng.random(shape) < rate).astype(np.float64)


# ------------------------------------------------------------ configuration


def test_config_derived_sizes():
    cfg = ModelConfig()
    assert cfg.tokens == 16
    assert cfg.head_dim == 16
    assert cfg.patch_values == 16


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(embed_dim=30, heads=4).validate()
    with pytest.raises(ConfigError):
        ModelConfig(img_size=10, patch_size=4).validate()
    with pytest.raises(ConfigError):
        ModelConfig(attention_mode="dense").validate()
    with pytest.raises(ConfigError):
        ModelConfig(tau_max=-1).validate()
    with pytest.raises(ConfigError):
        ModelConfig(t_aw=0).validate()
    with pytest.raises(ConfigError):
        ModelConfig(n_classes=1).validate()
    with pytest.raises(ConfigError):
        ModelConfig(tau_m=0.5).validate()
    for key in ("tau_init", "u_init", "tau_m", "theta", "surrogate_alpha"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                ModelConfig(**{key: value}).validate()
    with pytest.raises(ConfigError, match="float32 or float64"):
        SpikingTransformer(micro_config(), dtype=np.int64)


@pytest.mark.parametrize("key", ["heads", "embed_dim", "patch_size", "img_size",
                                 "in_channels"])
@pytest.mark.parametrize("value", [0, -4])
def test_config_rejects_nonpositive_sizes(key, value):
    # Checked before any modulo by these sizes.
    with pytest.raises(ConfigError, match=f"{key} must be >= 1"):
        ModelConfig(**{key: value}).validate()


def test_config_text_roundtrip():
    cfg = micro_config(nsad_enabled=False, tau_init=0.75, attention_mode="spatial_only")
    text = config_to_text(cfg)
    again = config_from_text(text)
    assert vars(again) == vars(cfg)
    # canonical form: sorted keys, one per line, lowercase booleans
    keys = [line.split("=")[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)
    assert "nsad_enabled=false" in text


def test_config_text_parsing_rules():
    parsed = parse_config_text("# comment\n\n t_aw = 2 \nseed=5\n")
    assert parsed == {"t_aw": "2", "seed": "5"}
    with pytest.raises(ConfigError):
        parse_config_text("no equals sign here")
    with pytest.raises(ConfigError):
        config_from_dict({"not_a_key": "1"})
    with pytest.raises(ConfigError):
        config_from_dict({"nsad_enabled": "yes"})


@pytest.mark.parametrize("key,raw", [("embed_dim", "abc"), ("heads", "2.5"),
                                     ("tau_init", "fast"), ("seed", "")])
def test_config_text_bad_number_names_key_and_value(key, raw):
    with pytest.raises(ConfigError) as exc:
        config_from_text(f"{key}={raw}\n")
    assert key in str(exc.value) and repr(raw) in str(exc.value)


# ----------------------------------------------------------------- patchify


def test_patchify_layout():
    frame = np.arange(16, dtype=np.float64).reshape(1, 1, 1, 4, 4)
    tokens = patchify(frame, 2)
    assert tokens.shape == (1, 1, 4, 4)
    assert tokens[0, 0].tolist() == [[0, 1, 4, 5], [2, 3, 6, 7],
                                     [8, 9, 12, 13], [10, 11, 14, 15]]


def test_patchify_validation():
    with pytest.raises(ConfigError):
        patchify(np.zeros((1, 1, 1, 5, 5)), 2)
    with pytest.raises(ConfigError):
        patchify(np.zeros((1, 1, 4, 4)), 2)


# ------------------------------------------------------------------ forward


def test_forward_shapes_and_capture():
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    frames = random_frames(cfg, batch=2)
    capture = []
    logits = model.forward(frames, capture=capture)
    assert logits.shape == (2, cfg.n_classes)
    assert len(capture) == cfg.blocks
    cap = capture[0]
    assert cap.raw.shape == (cfg.timesteps, 2, cfg.heads, cfg.tokens, cfg.tokens)
    assert cap.denoised.shape == cap.raw.shape
    assert cap.output.shape == (cfg.timesteps, 2, cfg.tokens, cfg.embed_dim)
    # raw scores are integer co-activation counts within [0, head_dim]
    assert np.array_equal(cap.raw, np.rint(cap.raw))
    assert cap.raw.min() >= 0 and cap.raw.max() <= cfg.head_dim


def test_denoised_capture_matches_tables():
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    capture = []
    model.forward(random_frames(cfg), capture=capture)
    cap = capture[0]
    for h, head in enumerate(model.blocks[0].heads):
        want = head.table[cap.raw[:, :, h].astype(np.int64)]
        assert np.array_equal(cap.denoised[:, :, h], want)


def test_captures_hold_arrays_nothing_rewrites():
    """Captures keep the forward's own arrays, not copies; a later
    inference call and a training step leave them unchanged."""
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    frames = random_frames(cfg, batch=3)
    capture = []
    model.forward_logits(frames, capture=capture)
    saved = [(c.raw.copy(), c.denoised.copy(), c.output.copy()) for c in capture]
    model.forward_logits(random_frames(cfg, batch=3, seed=1), capture=[])
    opt = AdamW(model.parameters(), lr_mult=10.0)
    loss = cross_entropy_logits(model.forward(random_frames(cfg, batch=3, seed=2)),
                                np.array([0, 1, 0]))
    model.tape.backward(loss)
    opt.step(1e-2)
    model.rebuild_tables()
    for cap, arrays in zip(capture, saved):
        for got, want in zip((cap.raw, cap.denoised, cap.output), arrays):
            assert np.array_equal(got, want)


def test_training_forward_holds_only_what_backward_reads():
    """A default-config batch-32 training forward holds at most 60 MiB.

    It held 85 MiB while the LIF input currents, the head split/merge
    copies and an int64 score index stayed alive on the tape.
    """
    cfg = ModelConfig()
    model = SpikingTransformer(cfg)
    frames = random_frames(cfg, batch=32, rate=0.05)
    labels = np.arange(32) % cfg.n_classes
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = cross_entropy_logits(model.forward(frames), labels)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 60 * 2 ** 20, f"training forward holds {held / 2 ** 20:.1f} MiB"
    model.tape.backward(loss)
    assert model.params["block0.attn.wv"].grad is not None


def _traced_peak(run) -> float:
    """Peak traced memory of ``run()`` in MiB, above what was live before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode, bound", [("tasa", 50.0), ("spatial_only", 44.0)])
def test_training_step_keeps_membranes_not_spike_trains(mode, bound):
    """A default-config batch-32 forward and backward peaks at most at
    ``bound`` MiB.

    It peaked at 59.9 MiB (spatial only: 53.4) while every LIF site kept its
    spike train next to its membrane, the residual adds held the output
    projection's and the MLP's spikes, and the input frames were a leaf
    that received a gradient.
    """
    cfg = ModelConfig(attention_mode=mode, nsad_enabled=mode == "tasa")
    model = SpikingTransformer(cfg)
    frames = random_frames(cfg, batch=32, rate=0.05)
    labels = np.arange(32) % cfg.n_classes

    def step():
        model.tape.backward(cross_entropy_logits(model.forward(frames), labels))

    peak = _traced_peak(step)
    assert peak <= bound, f"training step peaks at {peak:.1f} MiB"
    assert model.params["block1.mlp.w1"].grad is not None


def test_inference_holds_one_array_per_spiking_site():
    """``forward_logits`` at batch 64 with a capture peaks at most at 40 MiB.

    It peaked at 43.5 MiB while each site kept its whole membrane next to
    its spikes.
    """
    cfg = ModelConfig()
    model = SpikingTransformer(cfg)
    frames = random_frames(cfg, batch=64, rate=0.05)
    capture = []
    peak = _traced_peak(lambda: model.forward_logits(frames, capture=capture))
    assert peak <= 40.0, f"forward_logits peaks at {peak:.1f} MiB"
    assert len(capture) == cfg.blocks


def test_forward_rejects_wrong_geometry():
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    bad_t = np.zeros((cfg.timesteps + 1, 1, 1, cfg.img_size, cfg.img_size))
    with pytest.raises(ConfigError):
        model.forward(bad_t)
    bad_hw = np.zeros((cfg.timesteps, 1, 1, 12, 12))
    with pytest.raises(ConfigError):
        model.forward(bad_hw)


def test_parameter_names():
    model = SpikingTransformer(micro_config())
    names = {name for name, _ in model.parameters()}
    assert "embed.w" in names
    assert "block0.attn.wq" in names and "block0.mlp.w2" in names
    assert "block0.attn.tau" in names
    assert "block0.attn.nsad0.a" in names and "block0.attn.nsad1.u" in names
    assert "head.w" in names and "head.b" in names


def test_init_is_seeded():
    a = SpikingTransformer(micro_config(seed=3))
    b = SpikingTransformer(micro_config(seed=3))
    c = SpikingTransformer(micro_config(seed=4))
    assert np.array_equal(a.params["embed.w"].value.data, b.params["embed.w"].value.data)
    assert not np.array_equal(a.params["embed.w"].value.data,
                              c.params["embed.w"].value.data)


def test_forward_logits_leaves_tape_clean(monkeypatch):
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    tape = model.tape
    record = tape.record
    sizes = []

    def spy(*args):
        out = record(*args)
        sizes.append(len(tape.nodes))
        return out

    monkeypatch.setattr(tape, "record", spy)
    values = model.forward_logits(random_frames(cfg))
    # no node appended at any point of the call, not only by its end
    assert sizes and set(sizes) == {0}
    assert values.shape == (2, cfg.n_classes)
    assert np.array_equal(model.forward(random_frames(cfg)).value.data, values)
    assert len(tape.nodes) == sizes[-1] > 0


def test_forward_logits_that_raises_leaves_recording_on():
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    with pytest.raises(ConfigError, match="geometry"):
        model.forward_logits(random_frames(micro_config(timesteps=4)))
    assert model.tape.recording
    model.forward(random_frames(cfg))
    assert model.tape.nodes


# ----------------------------------------------------- ablation equivalence


def test_window_one_equals_spatial_only():
    """A length-1 window degenerates bitwise into the spatial baseline."""
    for seed in range(3):
        cfg_win = micro_config(seed=seed, t_aw=1, nsad_enabled=False)
        cfg_spatial = micro_config(seed=seed, attention_mode="spatial_only",
                                   nsad_enabled=False)
        frames = random_frames(cfg_win, seed=seed)
        out_win = SpikingTransformer(cfg_win).forward_logits(frames)
        out_spatial = SpikingTransformer(cfg_spatial).forward_logits(frames)
        assert np.array_equal(out_win, out_spatial)


def test_identity_table_equals_no_denoiser():
    for seed in range(3):
        cfg_on = micro_config(seed=seed, nsad_enabled=True)
        cfg_off = micro_config(seed=seed, nsad_enabled=False)
        model_on = SpikingTransformer(cfg_on)
        for head in model_on.blocks[0].heads:
            head.set_params(a=1.0, b=0.0, c=0.0, dw=0.0, u=0.0)
            assert np.array_equal(head.table, np.arange(cfg_on.head_dim + 1))
        frames = random_frames(cfg_on, seed=seed)
        out_on = model_on.forward_logits(frames)
        out_off = SpikingTransformer(cfg_off).forward_logits(frames)
        assert np.array_equal(out_on, out_off)


# --------------------------------------------------------------- checkpoint


def _records(buf):
    """Parse the tensor records after the header; returns (header, records)."""
    pos = 8
    cfg_len = struct.unpack_from("<I", buf, pos)[0]
    pos += 4 + cfg_len
    header, records = buf[:pos], []
    while pos < len(buf):
        (name_len,) = struct.unpack_from("<H", buf, pos)
        start = pos
        pos += 2
        name = buf[pos:pos + name_len].decode()
        pos += name_len
        code, rank = buf[pos], buf[pos + 1]
        pos += 2
        shape = struct.unpack_from(f"<{rank}I", buf, pos)
        pos += 4 * rank
        itemsize = {0: 8, 1: 4, 2: 8}[code]
        count = int(np.prod(shape)) if rank else 1
        payload = buf[pos:pos + count * itemsize]
        pos += len(payload)
        records.append((name, code, shape, payload, buf[start:pos]))
    return header, records


def test_checkpoint_roundtrip_bitwise(tmp_path):
    cfg = micro_config(seed=5)
    model = SpikingTransformer(cfg)
    frames = random_frames(cfg, seed=5)
    before = model.forward_logits(frames)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    _, records = _records(path.read_bytes())
    assert [name for name, _, _, _, _ in records] == list(model.params)
    assert {code for _, code, _, _, _ in records} == {1}  # f4: float32 by default

    again = load_checkpoint(path)
    assert again.dtype == np.float32
    assert vars(again.cfg) == vars(cfg)
    for name, p in model.parameters():
        assert np.array_equal(p.value.data, again.params[name].value.data), name
    for blk_a, blk_b in zip(model.blocks, again.blocks):
        for ha, hb in zip(blk_a.heads, blk_b.heads):
            assert np.array_equal(ha.table, hb.table)
    assert np.array_equal(again.forward_logits(frames), before)


def test_checkpoint_roundtrip_with_optimizer(tmp_path):
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    opt = AdamW(model.parameters(), weight_decay=0.01)
    for _, p in opt.named_params:
        p.accumulate_grad(np.ones_like(p.value.data))
    opt.step(1e-3)
    path = tmp_path / "with_opt.ckpt"
    save_checkpoint(model, path, optimizer=opt)
    _, state = load_checkpoint(path, with_optimizer=True)
    assert int(state["opt.step"]) == 1
    assert np.array_equal(state["opt.m.embed.w"], opt.m[0])
    assert np.array_equal(state["opt.v.embed.w"], opt.v[0])


def test_checkpoint_roundtrip_float64(tmp_path):
    cfg = micro_config(seed=5)
    model = SpikingTransformer(cfg, dtype=np.float64)
    frames = random_frames(cfg, seed=5)
    before = model.forward_logits(frames)
    assert before.dtype == np.float64
    path = tmp_path / "model64.ckpt"
    save_checkpoint(model, path)
    _, records = _records(path.read_bytes())
    assert {code for _, code, _, _, _ in records} == {0}  # f8

    again = load_checkpoint(path)
    assert again.dtype == np.float64
    for name, p in model.parameters():
        got = again.params[name].value.data
        assert got.dtype == np.float64 and np.array_equal(got, p.value.data), name
    assert np.array_equal(again.forward_logits(frames), before)


@pytest.mark.parametrize("model_dtype", [np.float32, np.float64])
def test_checkpoint_rejects_dtype_mismatch(tmp_path, model_dtype):
    model = SpikingTransformer(micro_config(), dtype=model_dtype)
    path = tmp_path / "mixed.ckpt"
    save_checkpoint(model, path)
    header, records = _records(path.read_bytes())
    other = np.float64 if model_dtype == np.float32 else np.float32
    out, offset = [header], None
    for name, code, shape, payload, raw in records:
        if name == "block0.attn.wv":
            offset = sum(len(chunk) for chunk in out)
            arr = np.frombuffer(payload, dtype=model_dtype).astype(other)
            name_b = name.encode()
            out.append(struct.pack("<H", len(name_b)) + name_b
                       + bytes([{np.float64: 0, np.float32: 1}[other], len(shape)])
                       + struct.pack(f"<{len(shape)}I", *shape) + arr.tobytes())
        else:
            out.append(raw)
    path.write_bytes(b"".join(out))
    want, got = np.dtype(model_dtype).name, np.dtype(other).name
    with pytest.raises(FormatError, match=f"block0.attn.wv has dtype {got}, "
                                          f"model expects {want}") as err:
        load_checkpoint(path)
    assert err.value.offset == offset


def test_checkpoint_rejects_bad_magic(tmp_path):
    model = SpikingTransformer(micro_config())
    path = tmp_path / "bad_magic.ckpt"
    save_checkpoint(model, path)
    buf = bytearray(path.read_bytes())
    buf[0] ^= 0xFF
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 0


@pytest.mark.parametrize("version", [1, CKPT_VERSION + 9])
def test_checkpoint_rejects_unknown_version(tmp_path, version):
    model = SpikingTransformer(micro_config())
    path = tmp_path / "bad_version.ckpt"
    save_checkpoint(model, path)
    buf = bytearray(path.read_bytes())
    struct.pack_into("<I", buf, 4, version)
    path.write_bytes(bytes(buf))
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert err.value.offset == 4


def test_checkpoint_rejects_truncation(tmp_path):
    model = SpikingTransformer(micro_config())
    path = tmp_path / "short.ckpt"
    save_checkpoint(model, path)
    buf = path.read_bytes()
    path.write_bytes(buf[:-10])
    with pytest.raises(FormatError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_record(tmp_path):
    model = SpikingTransformer(micro_config())
    path = tmp_path / "extra.ckpt"
    save_checkpoint(model, path)
    name = b"mystery"
    extra = struct.pack("<H", len(name)) + name + bytes([0, 1]) + struct.pack("<I", 1)
    extra += struct.pack("<d", 0.0)
    path.write_bytes(path.read_bytes() + extra)
    with pytest.raises(FormatError, match="mystery"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_tensor(tmp_path):
    model = SpikingTransformer(micro_config())
    path = tmp_path / "missing.ckpt"
    save_checkpoint(model, path)
    header, records = _records(path.read_bytes())
    kept = b"".join(raw for name, _, _, _, raw in records if name != "head.b")
    path.write_bytes(header + kept)
    with pytest.raises(FormatError, match="head.b"):
        load_checkpoint(path)


def test_checkpoint_rejects_nonfinite_config_value(tmp_path):
    path = tmp_path / "nonfinite.ckpt"
    save_checkpoint(SpikingTransformer(micro_config()), path)
    buf = path.read_bytes()
    for key, good, bad in (("tau_init", b"1.0", b"nan"), ("theta", b"1.0", b"inf")):
        line = f"\n{key}=".encode()
        assert buf.count(line + good + b"\n") == 1
        path.write_bytes(buf.replace(line + good + b"\n", line + bad + b"\n"))
        with pytest.raises(FormatError, match=f"{key} must be finite") as err:
            load_checkpoint(path)
        assert err.value.offset == 12  # the config blob, after magic, version and length


def test_checkpoint_rejects_duplicate_record(tmp_path):
    model = SpikingTransformer(micro_config())
    path = tmp_path / "twice.ckpt"
    save_checkpoint(model, path)
    buf = path.read_bytes()
    _, records = _records(buf)
    second = next(raw for name, _, _, _, raw in records if name == "head.b")
    path.write_bytes(buf + second)
    with pytest.raises(FormatError, match="duplicate tensor record 'head.b'") as err:
        load_checkpoint(path)
    assert err.value.offset == len(buf)


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = SpikingTransformer(micro_config())
    path = tmp_path / "reshaped.ckpt"
    save_checkpoint(model, path)
    header, records = _records(path.read_bytes())
    out = [header]
    for name, code, shape, payload, raw in records:
        if name == "head.b":
            name_b = name.encode()
            out.append(struct.pack("<H", len(name_b)) + name_b + bytes([code, 1]))
            out.append(struct.pack("<I", 3) + struct.pack("<3d", 0.0, 0.0, 0.0))
        else:
            out.append(raw)
    path.write_bytes(b"".join(out))
    with pytest.raises(FormatError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_rebuilds_missing_tables(tmp_path):
    cfg = micro_config()
    model = SpikingTransformer(cfg)
    model.blocks[0].heads[0].set_params(a=1.7, u=2.5)
    path = tmp_path / "no_tables.ckpt"
    save_checkpoint(model, path)
    _, records = _records(path.read_bytes())
    assert not [name for name, _, _, _, _ in records if name.endswith(".table")]
    again = load_checkpoint(path)
    head = again.blocks[0].heads[0]
    assert head.param_floats() == model.blocks[0].heads[0].param_floats()
    assert head.param_floats() != SpikingTransformer(cfg).blocks[0].heads[0].param_floats()
    assert np.array_equal(head.table, build_table(head, cfg.head_dim))
    assert np.array_equal(head.table, model.blocks[0].heads[0].table)


def test_checkpoint_magic_constant():
    assert CKPT_MAGIC == b"DS2T"
    assert len(CKPT_MAGIC) == 4
