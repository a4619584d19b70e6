"""End-to-end command line runs, exercised in process via cli.main."""

import json

import numpy as np
import pytest

from ds2ta import cli
from ds2ta.data import read_evtb
from ds2ta.errors import ConfigError
from ds2ta.model import (ModelConfig, SpikingTransformer, load_checkpoint,
                         save_checkpoint)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def tiny_data(workdir):
    path = workdir / "train.evtb"
    rc = cli.main(["gen-data", "--out", str(path), "--count", "24",
                   "--timesteps", "4", "--grid", "8", "--seed", "1"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def ckpt(workdir):
    cfg = ModelConfig(timesteps=4, blocks=1, embed_dim=8, heads=2,
                      mlp_ratio=2, img_size=8, patch_size=4, n_classes=2,
                      seed=0)
    path = workdir / "model.ckpt"
    save_checkpoint(SpikingTransformer(cfg), path)
    return path


# ------------------------------------------------------------ parser basics


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data", "--count", "4"])
    assert exc.value.code == 1


# ----------------------------------------------------------------- gen-data


def test_gen_data_writes_dataset_and_manifest(tiny_data):
    ds = read_evtb(tiny_data)
    assert len(ds) == 24
    assert ds.frames.shape == (24, 4, 1, 8, 8)

    manifest = json.loads((tiny_data.parent / "train.evtb.manifest.json").read_text())
    assert manifest["subcommand"] == "gen-data"
    assert manifest["seeds"] == {"seed": 1}
    assert manifest["config"]["count"] == 24
    assert str(tiny_data) in manifest["outputs"]
    assert {"tool_version", "started_utc", "wall_clock_s"} <= set(manifest)
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "blas", "thread_vars", "cpu_count"}
    assert env["numpy"] == np.__version__
    assert set(env["thread_vars"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS"}


def test_gen_data_same_seed_is_byte_identical(workdir):
    paths = [workdir / "rep_a.evtb", workdir / "rep_b.evtb"]
    for p in paths:
        rc = cli.main(["gen-data", "--out", str(p), "--count", "10",
                       "--timesteps", "4", "--grid", "8", "--seed", "4"])
        assert rc == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("task", ["temporal-order", "static-patterns"])
def test_gen_data_negative_count_is_one_line_data_error(workdir, capsys, task):
    rc = cli.main(["gen-data", "--task", task, "--out", str(workdir / "neg.evtb"),
                   "--count", "-3"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "data error: sample count must be >= 0, got -3" in err[0]
    assert not (workdir / "neg.evtb").exists()


def test_gen_data_static_patterns(workdir):
    path = workdir / "static.evtb"
    rc = cli.main(["gen-data", "--task", "static-patterns", "--out", str(path),
                   "--count", "12", "--timesteps", "4", "--grid", "8",
                   "--classes", "4", "--seed", "2"])
    assert rc == 0
    ds = read_evtb(path)
    assert ds.n_classes == 4
    assert set(np.unique(ds.labels)) <= {0, 1, 2, 3}


# ------------------------------------------------------------------- seeds


def test_seed_resolution_order(monkeypatch):
    monkeypatch.delenv("DS2TA_SEED", raising=False)
    assert cli._resolve_seed(None, None) == 0
    assert cli._resolve_seed(3, {"seed": "7"}) == 3
    assert cli._resolve_seed(None, {"seed": "7"}) == 7
    monkeypatch.setenv("DS2TA_SEED", "9")
    assert cli._resolve_seed(None, {}) == 9
    assert cli._resolve_seed(None, {"seed": "7"}) == 7
    monkeypatch.setenv("DS2TA_SEED", "abc")
    with pytest.raises(ConfigError):
        cli._resolve_seed(None, None)


def test_seed_env_reaches_the_manifest(workdir, monkeypatch):
    monkeypatch.setenv("DS2TA_SEED", "9")
    path = workdir / "env_seed.evtb"
    rc = cli.main(["gen-data", "--out", str(path), "--count", "4",
                   "--timesteps", "4", "--grid", "8"])
    assert rc == 0
    manifest = json.loads((workdir / "env_seed.evtb.manifest.json").read_text())
    assert manifest["seeds"] == {"seed": 9}


def test_bad_seed_env_is_a_config_error(workdir, monkeypatch, capsys):
    monkeypatch.setenv("DS2TA_SEED", "abc")
    rc = cli.main(["gen-data", "--out", str(workdir / "x.evtb"), "--count", "4",
                   "--timesteps", "4", "--grid", "8"])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


# -------------------------------------------------------------------- train


def test_train_smoke(workdir, tiny_data, capsys):
    out = workdir / "trained.ckpt"
    rc = cli.main(["train", "--data", str(tiny_data), "--eval-data", str(tiny_data),
                   "--out", str(out), "--epochs", "1", "--batch-size", "8",
                   "--config", str(_model_cfg_file(workdir)), "--seed", "0"])
    assert rc == 0
    assert "trained 1 epochs" in capsys.readouterr().out
    assert out.exists()

    log_lines = (workdir / "trained.ckpt.log.jsonl").read_text().splitlines()
    record = json.loads(log_lines[-1])
    assert record["epoch"] == 0 and record["eval_acc"] is not None

    manifest = json.loads((workdir / "trained.ckpt.manifest.json").read_text())
    assert manifest["config"]["model"]["embed_dim"] == 8
    assert manifest["config"]["train"]["epochs"] == 1
    assert len(manifest["inputs"]) == 2

    reloaded = load_checkpoint(out)
    assert reloaded.cfg.timesteps == 4 and reloaded.cfg.img_size == 8


def _model_cfg_file(workdir):
    path = workdir / "model.cfg"
    if not path.exists():
        path.write_text("embed_dim=8\nheads=2\nblocks=1\nmlp_ratio=2\n"
                        "patch_size=4\n")
    return path


def test_train_nsad_identity_disables_the_denoiser(workdir, tiny_data):
    out = workdir / "identity.ckpt"
    rc = cli.main(["train", "--data", str(tiny_data), "--out", str(out),
                   "--epochs", "1", "--batch-size", "8", "--nsad-identity",
                   "--config", str(_model_cfg_file(workdir)), "--seed", "0"])
    assert rc == 0
    manifest = json.loads((workdir / "identity.ckpt.manifest.json").read_text())
    assert manifest["config"]["model"]["nsad_enabled"] is False
    assert manifest["config"]["nsad_identity"] is True


def test_train_config_file_seed_beats_env(workdir, tiny_data, monkeypatch):
    monkeypatch.setenv("DS2TA_SEED", "9")
    cfg = workdir / "seeded.cfg"
    cfg.write_text("embed_dim=8\nheads=2\nblocks=1\nmlp_ratio=2\n"
                   "patch_size=4\nseed=7\n")
    out = workdir / "seeded.ckpt"
    rc = cli.main(["train", "--data", str(tiny_data), "--out", str(out),
                   "--epochs", "1", "--batch-size", "8", "--config", str(cfg)])
    assert rc == 0
    manifest = json.loads((workdir / "seeded.ckpt.manifest.json").read_text())
    assert manifest["seeds"] == {"seed": 7}


def test_train_unknown_config_key_is_a_config_error(workdir, tiny_data, capsys):
    cfg = workdir / "broken.cfg"
    cfg.write_text("embed_dim=8\nwibble=1\n")
    rc = cli.main(["train", "--data", str(tiny_data),
                   "--out", str(workdir / "broken.ckpt"), "--config", str(cfg)])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["embed_dim=abc", "seed=abc", "heads=0", "tau_init=nan",
                                  "theta=inf",
                                  pytest.param(b"heads=\xff", id="not-utf8")])
def test_train_bad_config_value_is_one_line_config_error(workdir, tiny_data, capsys, line):
    cfg = workdir / "bad_value.cfg"
    if isinstance(line, bytes):
        cfg.write_bytes(line + b"\n")
        named = [f"config file {cfg}", "not valid UTF-8", "at byte 6"]
    else:
        cfg.write_text(f"{line}\n")
        named = [line.split("=")[0]]
    rc = cli.main(["train", "--data", str(tiny_data),
                   "--out", str(workdir / "bad_value.ckpt"), "--config", str(cfg)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("ds2ta: configuration error:")
    assert len(err.splitlines()) == 1
    for text in named:
        assert text in err


@pytest.mark.parametrize("flag, value", [("--tau-init", "nan"), ("--u-init", "inf")])
def test_train_nonfinite_init_flag_is_a_config_error(workdir, tiny_data, capsys, flag, value):
    rc = cli.main(["train", "--data", str(tiny_data),
                   "--out", str(workdir / "nonfinite.ckpt"), flag, value])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert f"configuration error: {flag[2:].replace('-', '_')} must be finite" in err[0]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_nonfinite_lr_is_a_config_error(workdir, tiny_data, capsys, value):
    out = workdir / "nonfinite_lr.ckpt"
    rc = cli.main(["train", "--data", str(tiny_data), "--out", str(out),
                   "--epochs", "1", "--batch-size", "8", "--lr", value])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"ds2ta: configuration error: lr_init must be finite, got {value}"]
    assert not out.exists()


# --------------------------------------------------- eval / analyze / export


def test_eval_prints_accuracy_and_sparsity(ckpt, tiny_data, capsys):
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(tiny_data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy " in out
    assert "class 0 accuracy" in out and "class 1 accuracy" in out
    assert "block 0 sparsity raw" in out


def test_eval_missing_file_is_a_data_error(ckpt, workdir, capsys):
    rc = cli.main(["eval", "--ckpt", str(ckpt),
                   "--data", str(workdir / "nope.evtb")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_eval_corrupt_magic_is_a_data_error(ckpt, tiny_data, workdir, capsys):
    bad = workdir / "bad_magic.evtb"
    raw = tiny_data.read_bytes()
    bad.write_bytes(b"XXXX" + raw[4:])
    rc = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(bad)])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


def test_eval_config_blob_not_utf8_is_a_data_error(ckpt, tiny_data, workdir, capsys):
    bad = workdir / "bad_blob.ckpt"
    raw = bytearray(ckpt.read_bytes())
    raw[12] = 0xFF  # first byte of the config blob, after magic, version, length
    bad.write_bytes(bytes(raw))
    rc = cli.main(["eval", "--ckpt", str(bad), "--data", str(tiny_data)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "config blob is not valid UTF-8" in err[0]
    assert "byte offset 12" in err[0]


def test_eval_record_name_not_utf8_is_a_data_error(ckpt, tiny_data, workdir, capsys):
    bad = workdir / "bad_name.ckpt"
    raw = bytearray(ckpt.read_bytes())
    first = 12 + int.from_bytes(raw[8:12], "little")  # first record, after the config blob
    raw[first + 2] = 0xFF  # first byte of its name, after the u16 name length
    bad.write_bytes(bytes(raw))
    rc = cli.main(["eval", "--ckpt", str(bad), "--data", str(tiny_data)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "tensor record name is not valid UTF-8" in err[0]
    assert f"byte offset {first}" in err[0]


def test_eval_config_blob_bad_value_is_a_data_error(ckpt, tiny_data, workdir, capsys):
    bad = workdir / "bad_heads.ckpt"
    raw = ckpt.read_bytes()
    assert raw.count(b"\nheads=2\n") == 1
    bad.write_bytes(raw.replace(b"\nheads=2\n", b"\nheads=0\n"))
    rc = cli.main(["eval", "--ckpt", str(bad), "--data", str(tiny_data)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "data error: invalid config blob: heads must be >= 1, got 0" in err[0]
    assert "byte offset 12" in err[0]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_eval_nonfinite_weights_is_a_numeric_error(ckpt, tiny_data, workdir, capsys):
    model = load_checkpoint(ckpt)
    model.params["embed.w"].value.data[...] = np.inf
    poisoned = workdir / "poisoned.ckpt"
    save_checkpoint(model, poisoned)
    rc = cli.main(["eval", "--ckpt", str(poisoned), "--data", str(tiny_data)])
    assert rc == 3
    assert "numeric error" in capsys.readouterr().err


def test_analyze_writes_report(ckpt, tiny_data, workdir, capsys):
    out = workdir / "report.txt"
    rc = cli.main(["analyze", "--ckpt", str(ckpt), "--data", str(tiny_data),
                   "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "e_ac_pj=0.9" in text and "[block 0]" in text
    assert text in capsys.readouterr().out  # report is mirrored to stdout
    assert (workdir / "report.txt.manifest.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_analyze_rejects_a_nonpositive_or_nonfinite_energy(ckpt, tiny_data, workdir,
                                                          capsys, value):
    out = workdir / f"report_{value}.txt"
    rc = cli.main(["analyze", "--ckpt", str(ckpt), "--data", str(tiny_data),
                   "--out", str(out), "--e-ac", value])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "data error: per-accumulate energy must be positive and finite" in err[0]
    assert not out.exists()


def test_export_attn_writes_files(ckpt, tiny_data, workdir, capsys):
    prefix = workdir / "maps" / "attn"
    rc = cli.main(["export-attn", "--ckpt", str(ckpt), "--data", str(tiny_data),
                   "--sample", "1", "--out", str(prefix)])
    assert rc == 0
    files = sorted((workdir / "maps").glob("attn_*"))
    # blocks * heads * timesteps maps, each as raw + den, csv + pgm
    assert len(files) == 1 * 2 * 4 * 2 * 2
    assert f"wrote {len(files)} files" in capsys.readouterr().out


def test_export_attn_sample_out_of_range(ckpt, tiny_data, workdir, capsys):
    rc = cli.main(["export-attn", "--ckpt", str(ckpt), "--data", str(tiny_data),
                   "--sample", "99", "--out", str(workdir / "oops")])
    assert rc == 2
    assert "data error" in capsys.readouterr().err


# ----------------------------------------------------------------- selftest


def test_selftest_passes(capsys):
    rc = cli.main(["selftest"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_selftest_reports_a_broken_kernel(capsys, monkeypatch):
    from ds2ta import selfcheck
    monkeypatch.setattr(selfcheck, "shift_decay_apply",
                        lambda acc, tau, delta: acc.astype(np.float64))
    rc = cli.main(["selftest"])
    assert rc == 3
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert "fixed-point shift" in fails[0]
    assert "1 check(s) failed" in out
