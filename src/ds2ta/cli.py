"""Command line front end.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 on data
or format errors, 3 on numeric failures.  Every produced artifact gets a
``<artifact>.manifest.json`` written atomically next to it with the
resolved configuration, seeds, inputs, outputs, tool version, wall
clock and environment (Python, numpy and BLAS versions, the BLAS thread
variables and the CPU count), so a run can be reproduced from the
manifest alone and its timings compared with the benchmark's.

Precedence for settings: command line flags override the config file,
which overrides built-in defaults.  The seed additionally falls back to
the ``DS2TA_SEED`` environment variable before the default of 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analyze import (E_AC_PJ_DEFAULT, export_attention, measure, render_report)
from .data import gen_static_patterns, gen_temporal_order, read_evtb, write_evtb
from .errors import (ConfigError, FormatError, GenerationError, InputError,
                     LabelError, NumericError, PrecisionError, ScoreRangeError)
from .model import (ModelConfig, SpikingTransformer, config_from_dict,
                    load_checkpoint, parse_config_text)
from .train import TrainConfig, evaluate, train

# --mode -> (attention_mode, nsad_enabled): the four combinations of the
# decay window and the denoiser.
MODES = {
    "ds2ta": ("tasa", True),
    "window-only": ("tasa", False),
    "nsad-only": ("spatial_only", True),
    "spatial-only": ("spatial_only", False),
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (default: config file, then DS2TA_SEED, then 0)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ds2ta",
                     description="spiking transformer with windowed decay attention "
                                 "and a lookup-table attention denoiser")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        return p

    p = cmd("gen-data", "generate a synthetic event dataset")
    p.add_argument("--task", choices=("temporal-order", "static-patterns"),
                   default="temporal-order", help="which generator to run")
    p.add_argument("--out", required=True, help="output .evtb path")
    p.add_argument("--count", type=int, default=1000, help="number of samples")
    p.add_argument("--timesteps", type=int, default=8, help="frames per sample")
    p.add_argument("--grid", type=int, default=16, help="frame height and width")
    p.add_argument("--noise", type=float, default=0.02,
                   help="background spike probability per pixel per timestep")
    p.add_argument("--classes", type=int, default=2,
                   help="class count (static-patterns only)")
    p.add_argument("--gap-max", type=int, default=None,
                   help="largest flash separation (temporal-order only; default T/2)")
    _add_seed(p)
    p.set_defaults(func=_cmd_gen_data)

    p = cmd("train", "train a model on an EVTB dataset")
    p.add_argument("--data", required=True, help="training .evtb file")
    p.add_argument("--eval-data", default=None, help="held-out .evtb file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", default=None,
                   help="metrics log path (default: <out>.log.jsonl)")
    p.add_argument("--config", default=None, help="key=value model config file")
    p.add_argument("--mode", choices=MODES, default="ds2ta",
                   help="ds2ta: windowed attention + denoiser; window-only: "
                        "the window without the denoiser; nsad-only: the "
                        "denoiser without the window; spatial-only: neither")
    p.add_argument("--t-aw", type=int, default=None, help="attention window override")
    p.add_argument("--tau-init", type=float, default=None, help="decay exponent init")
    p.add_argument("--u-init", type=float, default=None, help="denoiser threshold init")
    p.add_argument("--epochs", type=int, default=None, help="training epochs")
    p.add_argument("--batch-size", type=int, default=None, help="samples per step")
    p.add_argument("--lr", type=float, default=None, help="initial learning rate")
    _add_seed(p)
    p.set_defaults(func=_cmd_train)

    p = cmd("eval", "evaluate a checkpoint on an EVTB dataset")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help=".evtb file")
    p.set_defaults(func=_cmd_eval)

    p = cmd("analyze", "measure attention sparsity and estimated energy")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help=".evtb file")
    p.add_argument("--out", required=True, help="report output path")
    p.add_argument("--e-ac", type=float, default=E_AC_PJ_DEFAULT,
                   help="energy per accumulate, picojoule")
    p.set_defaults(func=_cmd_analyze)

    p = cmd("export-attn", "dump attention maps of one sample as CSV and PGM")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help=".evtb file")
    p.add_argument("--sample", type=int, default=0, help="sample index")
    p.add_argument("--out", required=True, help="output file prefix")
    p.set_defaults(func=_cmd_export)

    p = cmd("selftest", "run the kernel checks of acceptance criteria 1-3")
    p.set_defaults(func=_cmd_selftest)
    return parser


def _resolve_seed(flag_seed, config_values: dict[str, str] | None) -> int:
    if flag_seed is not None:
        return int(flag_seed)
    if config_values and "seed" in config_values:
        return config_from_dict({"seed": config_values["seed"]}).seed
    env = os.environ.get("DS2TA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"DS2TA_SEED must be an integer, got {env!r}") from exc
    return 0


def _environment() -> dict:
    """The host facts that step times depend on, named as the benchmark names them."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }


def _write_manifest(artifact_path, command: str, resolved: dict, seeds: dict,
                    inputs: list, outputs: list, started: float) -> Path:
    manifest = {
        "environment": _environment(),
        "subcommand": command,
        "config": resolved,
        "seeds": seeds,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "started_utc": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "wall_clock_s": round(time.time() - started, 3),
    }
    path = Path(f"{artifact_path}.manifest.json")
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return path


def _cmd_gen_data(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed, None)
    if args.task == "temporal-order":
        ds = gen_temporal_order(args.count, timesteps=args.timesteps, grid=args.grid,
                                noise_rate=args.noise, seed=seed, t_gap_max=args.gap_max)
    else:
        ds = gen_static_patterns(args.count, timesteps=args.timesteps, grid=args.grid,
                                 classes=args.classes, noise_rate=args.noise, seed=seed)
    write_evtb(args.out, ds)
    resolved = {"task": args.task, "count": args.count, "timesteps": args.timesteps,
                "grid": args.grid, "noise": args.noise, "classes": ds.n_classes,
                "gap_max": ds.metadata.get("t_gap_max")}
    _write_manifest(args.out, "gen-data", resolved, {"seed": seed}, [], [args.out], started)
    print(f"wrote {len(ds)} samples to {args.out}")
    return 0


def _model_config_for(args, dataset, config_values: dict[str, str], seed: int) -> ModelConfig:
    cfg = config_from_dict(config_values)
    _, t, c, h, w = dataset.frames.shape
    if h != w:
        raise ConfigError(f"frames must be square, got {h}x{w}")
    cfg.timesteps, cfg.in_channels, cfg.img_size = t, c, h
    cfg.n_classes = dataset.n_classes
    cfg.attention_mode, cfg.nsad_enabled = MODES[args.mode]
    if args.t_aw is not None:
        cfg.t_aw = args.t_aw
    if args.tau_init is not None:
        cfg.tau_init = args.tau_init
    if args.u_init is not None:
        cfg.u_init = args.u_init
    cfg.seed = seed
    return cfg


def _read_config_file(path) -> dict[str, str]:
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8 "
                          f"({exc.reason} at byte {exc.start})") from None
    return parse_config_text(text)


def _cmd_train(args) -> int:
    started = time.time()
    config_values = _read_config_file(args.config) if args.config else {}
    seed = _resolve_seed(args.seed, config_values)
    dataset = read_evtb(args.data)
    eval_dataset = read_evtb(args.eval_data) if args.eval_data else None
    model_cfg = _model_config_for(args, dataset, config_values, seed)
    model = SpikingTransformer(model_cfg)
    tcfg = TrainConfig(seed=seed, checkpoint_path=args.out,
                       log_path=args.log or f"{args.out}.log.jsonl")
    if args.epochs is not None:
        tcfg.epochs = args.epochs
    if args.batch_size is not None:
        tcfg.batch_size = args.batch_size
    if args.lr is not None:
        tcfg.lr_init = args.lr
    metrics = train(model, dataset, tcfg, eval_dataset=eval_dataset)
    resolved = {"model": vars(model_cfg), "train": vars(tcfg), "mode": args.mode}
    inputs = [args.data] + ([args.eval_data] if args.eval_data else [])
    _write_manifest(args.out, "train", resolved, {"seed": seed}, inputs,
                    [args.out, tcfg.log_path], started)
    last = metrics[-1]
    print(f"trained {tcfg.epochs} epochs; final train_acc "
          f"{last['train_acc']:.4f}, loss {last['train_loss']:.4f}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    dataset = read_evtb(args.data)
    result = evaluate(model, dataset)
    print(f"accuracy {result.accuracy:.4f}")
    for cls, acc in enumerate(result.per_class):
        print(f"class {cls} accuracy {acc:.4f}")
    for i, (raw, den) in enumerate(zip(result.raw_sparsity, result.denoised_sparsity)):
        print(f"block {i} sparsity raw {raw:.4f} denoised {den:.4f}")
    return 0


def _cmd_analyze(args) -> int:
    started = time.time()
    model = load_checkpoint(args.ckpt)
    dataset = read_evtb(args.data)
    report = measure(model, dataset, e_ac_pj=args.e_ac)
    text = render_report(report)
    Path(args.out).write_text(text, encoding="utf-8")
    _write_manifest(args.out, "analyze", {"e_ac_pj": args.e_ac},
                    {"seed": model.cfg.seed}, [args.ckpt, args.data], [args.out], started)
    sys.stdout.write(text)
    return 0


def _cmd_export(args) -> int:
    started = time.time()
    model = load_checkpoint(args.ckpt)
    dataset = read_evtb(args.data)
    if not 0 <= args.sample < len(dataset):
        raise InputError(f"sample {args.sample} outside [0, {len(dataset)})")
    written = export_attention(model, dataset.frames[args.sample], args.out)
    _write_manifest(args.out, "export-attn", {"sample": args.sample},
                    {"seed": model.cfg.seed}, [args.ckpt, args.data],
                    [str(p) for p in written], started)
    print(f"wrote {len(written)} files with prefix {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    from .selfcheck import CHECKS  # loaded only when the checks run

    failures = 0
    for label, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and keep going
            print(f"FAIL {label}: {exc}")
            failures += 1
        else:
            print(f"ok   {label}")
    if failures:
        print(f"{failures} check(s) failed")
        return 3
    print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ds2ta: configuration error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, GenerationError, InputError, LabelError, OSError) as exc:
        print(f"ds2ta: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, PrecisionError, ScoreRangeError) as exc:
        print(f"ds2ta: numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
