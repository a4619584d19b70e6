"""Spiking transformer assembly, configuration, and checkpoint format.

Pipeline: patchify event frames -> linear embedding -> LIF -> L encoder
blocks -> mean pool over time and tokens -> linear classifier.  Each
encoder block runs windowed-decay attention (query/key/value projections
through LIF, integer score matrices, optional table denoiser, value
mixing, output projection through LIF, spike residual) followed by a
two-layer LIF MLP with its own spike residual.  Each spiking site is one
``lif_linear`` node: the embedding, query, key and value are single
projections, and the output projection and the MLP take their residual
into the node, so the node keeps membranes and no spike train.  The
frames are a constant input that gets no gradient, and the attention
reads its heads through strided views, so a training forward holds only
arrays that some backward reads.  The forward itself holds no activation
past its last reader: each half of a block (attention, MLP) is one call
that releases its input once the residual sum has read it, so an
inference forward, whose tape keeps nothing, frees each activation as
soon as it is dead.  Residual sums are plain elementwise
sums of spike trains, so activations between blocks are small
non-negative integers rather than strictly binary.

The model trains and infers in float32 by default; ``dtype=np.float64``
builds it in double precision, which the end-to-end gradient check uses.

Checkpoints are a flat little-endian binary container: magic ``DS2T``,
format version, a canonical-text config blob, then named tensor records.
Each record carries its dtype code, and a loaded model takes the dtype of
its first record.  There is one record per parameter the configuration
builds (a spatial-only model stores no ``tau``, a denoiser-off model no
head scalars), and loading rejects any other record.  Denoiser tables are
not stored; loading rebuilds them from the head scalars.  A round trip
through disk reproduces forward outputs bitwise.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .neuron import LifParams, lif_linear
from .nsad import NsadHead, denoise
from .tasa import attend, attention_scores, tau_round_ste, temporal_filter
from .tensorcore import (FLOAT_DTYPES, DiffTensor, Tape, bias_add, make_rng, matmul,
                         reduce_mean)

CKPT_MAGIC = b"DS2T"
CKPT_VERSION = 2

_DTYPE_CODES: dict[int, np.dtype] = {
    0: np.dtype("<f8"),
    1: np.dtype("<f4"),
    2: np.dtype("<i8"),
}
_CODE_FOR_KIND = {"f8": 0, "f4": 1, "i8": 2}

ATTENTION_MODES = ("tasa", "spatial_only")

# Projection init: normal with std INIT_GAIN / sqrt(fan_in).  Inputs are
# sparse binary spike trains, so plain 1/sqrt(fan_in) leaves pre-activations
# far below the firing threshold and the network starts silent; the gain
# puts typical membrane inputs near the threshold instead, which also gives
# pattern tokens attention scores well above the single co-activations that
# background noise produces.
INIT_GAIN = 3.0


@dataclass
class ModelConfig:
    timesteps: int = 8        # T
    blocks: int = 2           # L, encoder blocks
    embed_dim: int = 64       # D
    heads: int = 4            # H
    mlp_ratio: int = 4
    t_aw: int = 3             # attention window length
    tau_init: float = 1.0     # continuous decay exponent init, one per block
    tau_max: int = 6
    u_init: float = 1.5       # denoiser threshold init
    tau_m: float = 2.0        # LIF membrane constant
    theta: float = 1.0        # LIF firing threshold
    surrogate_alpha: float = 2.0
    attention_mode: str = "tasa"
    nsad_enabled: bool = True
    img_size: int = 16
    patch_size: int = 4
    in_channels: int = 1
    n_classes: int = 2
    seed: int = 0

    @property
    def tokens(self) -> int:
        return (self.img_size // self.patch_size) ** 2

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def patch_values(self) -> int:
        return self.in_channels * self.patch_size * self.patch_size

    def validate(self) -> None:
        if self.timesteps < 1 or self.blocks < 1 or self.n_classes < 2:
            raise ConfigError(f"degenerate model sizes: timesteps={self.timesteps}, "
                              f"blocks={self.blocks}, n_classes={self.n_classes}")
        for name in ("heads", "embed_dim", "patch_size", "img_size", "in_channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim % self.heads != 0:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.img_size % self.patch_size != 0:
            raise ConfigError(f"img_size {self.img_size} not divisible by patch {self.patch_size}")
        if self.t_aw < 1:
            raise ConfigError(f"t_aw must be >= 1, got {self.t_aw}")
        for name in ("tau_init", "u_init"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau_max < 0 or self.tau_init < 0 or self.u_init < 0:
            raise ConfigError("decay and threshold parameters must be >= 0")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ConfigError(f"attention_mode must be one of {ATTENTION_MODES}, "
                              f"got {self.attention_mode!r}")
        # Construct LifParams for its own validation side effects.
        LifParams(self.tau_m, self.theta, self.surrogate_alpha)


def config_to_text(cfg: ModelConfig) -> str:
    """Canonical key=value serialization: sorted keys, one per line."""
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def config_from_dict(values: dict[str, str], base: ModelConfig | None = None) -> ModelConfig:
    cfg = ModelConfig(**vars(base)) if base is not None else ModelConfig()
    types = {f.name: f.type for f in fields(ModelConfig)}
    for key, raw in values.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        kind = types[key]
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ConfigError(f"config key {key}: expected true/false, got {raw!r}")
            value = raw == "true"
        elif kind in ("int", "float"):
            try:
                value = int(raw) if kind == "int" else float(raw)
            except ValueError:
                raise ConfigError(f"config key {key}: expected {kind}, got {raw!r}") from None
        else:
            value = raw
        setattr(cfg, key, value)
    return cfg


def config_from_text(text: str) -> ModelConfig:
    return config_from_dict(parse_config_text(text))


def patchify(frames: np.ndarray, patch: int, dtype=np.float64) -> np.ndarray:
    """[T, B, C, H, W] event frames -> [T, B, N, C*patch*patch] tokens.

    The tokens are one contiguous copy in ``dtype``.
    """
    frames = np.asarray(frames)
    if frames.ndim != 5:
        raise ConfigError(f"expected [T, B, C, H, W] frames, got shape {frames.shape}")
    t, b, c, h, w = frames.shape
    if h % patch or w % patch:
        raise ConfigError(f"frame size {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    x = frames.reshape(t, b, c, gh, patch, gw, patch)
    x = x.transpose(0, 1, 3, 5, 2, 4, 6)
    return np.ascontiguousarray(x.reshape(t, b, gh * gw, c * patch * patch), dtype=dtype)


@dataclass
class BlockAttentionCapture:
    """Attention maps and output spikes recorded from one encoder block."""

    block: int
    raw: np.ndarray        # scores S, [T, B, H, N, N]
    denoised: np.ndarray   # maps A after the denoiser (== raw when disabled)
    output: np.ndarray     # block output activations, [T, B, N, D]


@dataclass
class EncoderBlock:
    """One block's parameters; ``tau`` and ``heads`` exist only in the
    configurations that run the decay filter and the denoiser."""

    wq: DiffTensor
    wk: DiffTensor
    wv: DiffTensor
    wo: DiffTensor
    w1: DiffTensor
    w2: DiffTensor
    tau: DiffTensor | None = None
    heads: list[NsadHead] = field(default_factory=list)


class SpikingTransformer:
    """The assembled network; owns its parameters and their tape.

    It builds only the parameters its configuration runs: a block has a
    decay exponent ``tau`` only with ``attention_mode="tasa"`` and denoiser
    heads only with ``nsad_enabled``.  Neither draws from the init stream,
    so the weights of every configuration come from the same draws.  Every
    parameter, and every value the forward pass computes, has
    ``dtype`` (float32 or float64).  Initial values are drawn in float64
    and then cast, so both precisions start from the same draws.
    """

    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        cfg.validate()
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        if self.dtype not in FLOAT_DTYPES:
            raise ConfigError(f"model dtype must be float32 or float64, got {self.dtype}")
        self.tape = Tape()
        self.params: dict[str, DiffTensor] = {}
        rng = make_rng(cfg.seed)
        d_model = cfg.embed_dim
        hidden = cfg.mlp_ratio * d_model

        def weight(name, fan_in, fan_out):
            data = rng.normal(0.0, INIT_GAIN / np.sqrt(fan_in), size=(fan_in, fan_out))
            self.params[name] = self.tape.leaf(data, dtype=self.dtype)
            return self.params[name]

        weight("embed.w", cfg.patch_values, d_model)
        self.blocks: list[EncoderBlock] = []
        for l in range(cfg.blocks):
            blk = EncoderBlock(
                wq=weight(f"block{l}.attn.wq", d_model, d_model),
                wk=weight(f"block{l}.attn.wk", d_model, d_model),
                wv=weight(f"block{l}.attn.wv", d_model, d_model),
                wo=weight(f"block{l}.attn.wo", d_model, d_model),
                w1=weight(f"block{l}.mlp.w1", d_model, hidden),
                w2=weight(f"block{l}.mlp.w2", hidden, d_model),
            )
            if cfg.attention_mode == "tasa":
                blk.tau = self.tape.leaf(np.asarray(float(cfg.tau_init)), dtype=self.dtype)
                self.params[f"block{l}.attn.tau"] = blk.tau
            for h in range(cfg.heads if cfg.nsad_enabled else 0):
                head = NsadHead(self.tape, cfg.head_dim, u_init=cfg.u_init,
                                dtype=self.dtype)
                blk.heads.append(head)
                for pname, dt in head.named_params():
                    self.params[f"block{l}.attn.nsad{h}.{pname}"] = dt
            self.blocks.append(blk)
        weight("head.w", d_model, cfg.n_classes)
        self.params["head.b"] = self.tape.leaf(np.zeros(cfg.n_classes, dtype=self.dtype))

    def parameters(self):
        return self.params.items()

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def rebuild_tables(self) -> None:
        for blk in self.blocks:
            for head in blk.heads:
                head.rebuild()

    def forward(self, frames: np.ndarray, capture: list | None = None,
                smooth: bool = False) -> DiffTensor:
        """Compute class logits for time-major frames [T, B, C, H, W].

        ``capture`` collects one :class:`BlockAttentionCapture` per block.
        ``smooth=True`` relaxes the spike step and the denoiser gate to
        their continuous forms so the tape gradient matches finite
        differences (gradient checking only).
        """
        cfg = self.cfg
        # The frames are a constant input: they get no gradient.
        x = patchify(frames, cfg.patch_size, self.dtype)
        if x.shape[0] != cfg.timesteps or x.shape[2] != cfg.tokens \
                or x.shape[3] != cfg.patch_values:
            raise ConfigError(f"frames of shape {frames.shape} do not match the "
                              f"configured geometry {cfg.timesteps}x{cfg.in_channels}"
                              f"x{cfg.img_size}x{cfg.img_size}")
        lifp = LifParams(cfg.tau_m, cfg.theta, cfg.surrogate_alpha)
        s = lif_linear(x, self.params["embed.w"], lifp, smooth=smooth)
        del x
        # Each half of a block is one call, so that its input is released
        # as soon as its residual sum has read it.
        for idx, blk in enumerate(self.blocks):
            maps = None if capture is None else []
            s = self._attention(s, blk, lifp, maps, smooth)
            s = lif_linear(s, (blk.w1, blk.w2), lifp, smooth=smooth, residual=s)
            if capture is not None:
                capture.append(BlockAttentionCapture(idx, *maps, s.value.data))
        pooled = reduce_mean(s, axes=(0, 2))
        return bias_add(matmul(pooled, self.params["head.w"]), self.params["head.b"])

    def _attention(self, s, blk, lifp, maps, smooth) -> DiffTensor:
        """The attention half of an encoder block, residual included.

        Each activation is dropped after its last reader, so a forward that
        does not record holds only what is still to be read.  ``maps``, if
        given, receives the raw and the denoised maps as they are produced:
        the arrays themselves, as nothing writes to a node's output.
        """
        cfg = self.cfg
        tasa_on = blk.tau is not None
        if tasa_on:
            tau_int = tau_round_ste(blk.tau, cfg.tau_max)
            f = temporal_filter(s, cfg.t_aw, tau_int)
        else:
            f = s
        q = lif_linear(f, blk.wq, lifp, smooth=smooth)
        k = lif_linear(f, blk.wk, lifp, smooth=smooth)
        v = lif_linear(f, blk.wv, lifp, smooth=smooth)
        del f
        sc = attention_scores(q, k, cfg.heads)
        del q, k
        if maps is not None:
            maps.append(sc.scores.value.data)
        att = denoise(sc, blk.heads, continuous=smooth) if blk.heads else sc.scores
        del sc
        if maps is not None:
            maps.append(att.value.data)
        ctx = attend(att, v, cfg.heads)
        del att, v
        if tasa_on:
            ctx = temporal_filter(ctx, cfg.t_aw, tau_int)
        return lif_linear(ctx, blk.wo, lifp, smooth=smooth, residual=s)

    def forward_logits(self, frames: np.ndarray, capture: list | None = None) -> np.ndarray:
        """Inference: the logits array of ``forward``, recording no graph.

        Recording is off for the whole call, so the tape gains no node and
        nothing but the forward's own locals refers to an activation; the
        forward drops each of them after its last reader, so the live set
        is at most a few site arrays (the MLP's hidden spikes at the
        largest).  A ``capture`` keeps the maps and block outputs it
        receives.  Recording is restored even if the forward raises.
        """
        tape = self.tape
        was_recording, tape.recording = tape.recording, False
        try:
            return self.forward(frames, capture=capture).value.data
        finally:
            tape.recording = was_recording


def save_checkpoint(model: SpikingTransformer, path, optimizer=None) -> None:
    """Write config and all named tensors; see module docstring for layout."""
    chunks = [CKPT_MAGIC, struct.pack("<I", CKPT_VERSION)]
    blob = config_to_text(model.cfg).encode("utf-8")
    chunks.append(struct.pack("<I", len(blob)))
    chunks.append(blob)

    def record(name: str, arr: np.ndarray):
        kind = {"float64": "f8", "float32": "f4", "int64": "i8"}.get(arr.dtype.name)
        if kind is None:
            raise ConfigError(f"tensor {name} has unsupported dtype {arr.dtype}")
        code = _CODE_FOR_KIND[kind]
        name_b = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<BB", code, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())

    for name, p in model.parameters():
        record(name, p.value.data)
    if optimizer is not None:
        for name, arr in optimizer.state_tensors():
            record(name, arr)
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(f"truncated checkpoint while reading {what}", offset=self.pos)
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    @property
    def at_end(self) -> bool:
        return self.pos == len(self.buf)


def load_checkpoint(path, with_optimizer: bool = False):
    """Rebuild a model from disk; bitwise-faithful to the saved tensors.

    The model takes the dtype of the first record (``save_checkpoint``
    writes the parameters first), and every parameter record must have
    the dtype of its parameter.  Denoiser tables are rebuilt from the
    loaded head scalars.  Raises :class:`FormatError` (with the byte
    offset) on a bad magic, unsupported version, truncation, a config blob
    that is not UTF-8 or holds an invalid configuration, a record name that
    is not UTF-8, or any unknown, duplicate or mismatched record; no
    partially restored model is ever returned.
    """
    rdr = _Reader(Path(path).read_bytes())
    magic = rdr.take(4, "magic")
    if magic != CKPT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}, expected {CKPT_MAGIC!r}", offset=0)
    version = rdr.u32("version")
    if version != CKPT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}; "
                          f"this reader supports {CKPT_VERSION}", offset=4)
    blob = rdr.take(rdr.u32("config length"), "config blob")
    blob_at = rdr.pos - len(blob)
    try:
        cfg = config_from_text(blob.decode("utf-8"))
        cfg.validate()
    except UnicodeDecodeError as exc:
        raise FormatError(f"config blob is not valid UTF-8 ({exc.reason} at byte {exc.start})",
                          offset=blob_at) from None
    except ConfigError as exc:
        raise FormatError(f"invalid config blob: {exc}", offset=blob_at) from None
    model: SpikingTransformer | None = None
    params: dict[str, DiffTensor] = {}
    opt_state: dict[str, np.ndarray] = {}
    seen: set[str] = set()
    while not rdr.at_end:
        start = rdr.pos
        try:
            name = rdr.take(rdr.u16("name length"), "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"tensor record name is not valid UTF-8 ({exc.reason} "
                              f"at byte {exc.start})", offset=start) from None
        if name in seen:
            raise FormatError(f"duplicate tensor record {name!r}", offset=start)
        code = rdr.u8("dtype code")
        if code not in _DTYPE_CODES:
            raise FormatError(f"unknown dtype code {code} for tensor {name}", offset=start)
        dtype = _DTYPE_CODES[code]
        rank = rdr.u8("rank")
        shape = tuple(struct.unpack(f"<{rank}I", rdr.take(4 * rank, "dims")))
        count = int(np.prod(shape)) if rank else 1
        payload = rdr.take(count * dtype.itemsize, f"payload of {name}")
        arr = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
        if model is None:
            if dtype not in FLOAT_DTYPES:
                raise FormatError(f"first tensor {name} has dtype {dtype.name}; "
                                  f"a model is float32 or float64", offset=start)
            model = SpikingTransformer(cfg, dtype=dtype)
            params = dict(model.parameters())
        if name in params:
            want = params[name].value.data
            if arr.shape != want.shape:
                raise FormatError(f"tensor {name} has shape {arr.shape}, model expects "
                                  f"{want.shape}", offset=start)
            if arr.dtype != want.dtype:
                raise FormatError(f"tensor {name} has dtype {arr.dtype.name}, model "
                                  f"expects {want.dtype.name}", offset=start)
            want[...] = arr
        elif name.startswith("opt."):
            opt_state[name] = arr
        else:
            raise FormatError(f"unknown tensor record {name!r}", offset=start)
        seen.add(name)
    if model is None:
        raise FormatError("checkpoint holds no tensors", offset=rdr.pos)
    missing = sorted(set(params) - seen)
    if missing:
        raise FormatError(f"checkpoint is missing tensors: {', '.join(missing)}",
                          offset=rdr.pos)
    model.rebuild_tables()
    if with_optimizer:
        return model, opt_state
    return model
