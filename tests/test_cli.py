"""Command line interface: config files, subcommands, artifacts, exit codes."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from graphrde import cli
from graphrde import data as D
from graphrde.config import RunConfig, load_config, parse_config_text, render_config
from graphrde.errors import ConfigError

# ---------------------------------------------------------------------------
# Config file format
# ---------------------------------------------------------------------------


def test_config_parsing_with_comments_and_spacing():
    text = """
    # a comment line
    dim_h = 16   # trailing comment
    lr=5e-4
      epochs =  7
    variant = temporal_only
    """
    overrides = parse_config_text(text)
    assert overrides == {"dim_h": 16, "lr": 5e-4, "epochs": 7, "variant": "temporal_only"}


def test_config_rejects_unknown_duplicate_and_mistyped_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("no_such_knob = 1")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("dim_h = 1\ndim_h = 2")
    with pytest.raises(ConfigError, match="expects int"):
        parse_config_text("dim_h = large")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")


def test_config_render_round_trip(tmp_path):
    cfg = RunConfig(values_path="v.csv", dim_h=24, lr=3.3e-4, ratios="7:2:1", seed=9)
    path = tmp_path / "c.cfg"
    path.write_text(render_config(cfg))
    back = load_config(str(path))
    assert back == cfg


def test_config_cli_overrides_win(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("values_path = a.csv\ndim_h = 8\n")
    cfg = load_config(str(path), {"dim_h": 32, "variant": "spatial_only"})
    assert cfg.dim_h == 32 and cfg.variant == "spatial_only"
    assert cfg.values_path == "a.csv"


def test_config_validation_catches_bad_enums(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("variant = spooky\n")
    with pytest.raises(ConfigError, match="variant"):
        load_config(str(path))
    path.write_text("ratios = 6:2\n")
    with pytest.raises(ConfigError, match="ratios"):
        load_config(str(path))
    path.write_text("drop_rate = 1.5\n")
    with pytest.raises(ConfigError, match="drop_rate"):
        load_config(str(path))


def test_config_split_plan_and_model_builders():
    cfg = RunConfig(values_path="v.csv", split="blocked_cv", ratios="6:2:2", folds=3)
    plan = cfg.split_plan()
    assert plan.kind == "blocked_cv" and plan.ratios == (6, 2, 2) and plan.folds == 3
    model = cfg.model_config(num_nodes=5)
    assert model.num_nodes == 5 and model.in_channels == cfg.channels
    cfg.num_nodes = 7
    with pytest.raises(ConfigError, match="num_nodes"):
        cfg.model_config(num_nodes=5)
    with pytest.raises(ConfigError, match="values_path"):
        RunConfig().dataset_spec()


# ---------------------------------------------------------------------------
# One small end-to-end run shared by the artifact tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["synth", "--nodes", "5", "--timesteps", "90", "--seed", "4",
                     "--out", str(root / "data")]) == 0
    cfg = RunConfig(
        values_path=str(root / "data" / "values.csv"),
        adjacency_path=str(root / "data" / "adjacency.csv"),
        dim_h=8, dim_z=8, epochs=2, batch_size=32, lr=1e-2, weight_decay=0.0,
        patience=5, seed=0, method="euler", steps_per_window=1,
    )
    cfg_path = root / "run.cfg"
    cfg_path.write_text(render_config(cfg))
    out = root / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    return {"root": root, "cfg_path": cfg_path, "out": out}


def test_synth_writes_deterministic_files(workdir):
    root = workdir["root"]
    assert cli.main(["synth", "--nodes", "5", "--timesteps", "90", "--seed", "4",
                     "--out", str(root / "data2")]) == 0
    a = (root / "data" / "values.csv").read_text()
    b = (root / "data2" / "values.csv").read_text()
    assert a == b
    assert cli.main(["synth", "--nodes", "1", "--timesteps", "50",
                     "--out", str(root / "bad")]) == 1


def test_train_writes_all_artifacts(workdir):
    out = workdir["out"]
    for name in ("model.ckpt", "history.csv", "metrics.json", "config.resolved.cfg"):
        assert (out / name).exists(), name
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"train", "val", "test", "ha_test", "best_epoch"}
    history = (out / "history.csv").read_text().strip().split("\n")
    assert history[0] == "epoch,train_loss,val_mae"
    assert len(history) == 1 + metrics["epochs_run"]


def test_rerun_is_bit_identical(workdir):
    root, out = workdir["root"], workdir["out"]
    assert cli.main(["train", "--config", str(workdir["cfg_path"]),
                     "--out", str(root / "rerun")]) == 0
    assert (out / "history.csv").read_bytes() == (root / "rerun" / "history.csv").read_bytes()
    assert (out / "metrics.json").read_bytes() == (root / "rerun" / "metrics.json").read_bytes()
    # the resolved config alone reproduces the run
    assert cli.main(["train", "--config", str(out / "config.resolved.cfg"),
                     "--out", str(root / "rerun2")]) == 0
    assert (out / "history.csv").read_bytes() == (root / "rerun2" / "history.csv").read_bytes()


def test_eval_reproduces_training_metrics(workdir, capsys):
    out = workdir["out"]
    metrics = json.loads((out / "metrics.json").read_text())
    for split in ("val", "test"):
        code = cli.main(["eval", "--checkpoint", str(out / "model.ckpt"),
                         "--data", str(workdir["root"] / "data" / "values.csv"),
                         "--split", split])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report == metrics[split]  # same code path, bit-equal floats


def test_eval_rejects_mismatched_data(workdir, tmp_path):
    other = tmp_path / "other"
    assert cli.main(["synth", "--nodes", "7", "--timesteps", "60", "--out", str(other)]) == 0
    code = cli.main(["eval", "--checkpoint", str(workdir["out"] / "model.ckpt"),
                     "--data", str(other / "values.csv")])
    assert code == 2


def test_predict_row_count_and_format(workdir, tmp_path):
    out_csv = tmp_path / "preds.csv"
    assert cli.main(["predict", "--checkpoint", str(workdir["out"] / "model.ckpt"),
                     "--data", str(workdir["root"] / "data" / "values.csv"),
                     "--split", "test", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "window,node,horizon,value"
    values = D.load_values(str(workdir["root"] / "data" / "values.csv"), 1)
    windows = D.make_windows(values, 12, 12)
    _, _, test = D.chronological_split(windows)
    assert len(lines) - 1 == len(test) * 5 * 12  # windows x nodes x horizon
    cells = lines[1].split(",")
    assert len(cells) == 4 and np.isfinite(float(cells[3]))


def test_split_all_applies_each_stored_drop(workdir, tmp_path):
    root = workdir["root"]
    out = root / "drop"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]),
                     "--drop-rate", "0.3", "--out", str(out)]) == 0
    data = str(root / "data" / "values.csv")
    forecasts = {}
    for split in ("all", "test"):
        path = tmp_path / f"{split}.csv"
        assert cli.main(["predict", "--checkpoint", str(out / "model.ckpt"), "--data", data,
                         "--split", split, "--out", str(path)]) == 0
        forecasts[split] = path.read_text().strip().split("\n")[1:]
    first_test = forecasts["test"][0].split(",")[0]
    rows = forecasts["all"]
    start = next(i for i, row in enumerate(rows) if row.split(",")[0] == first_test)
    assert rows[start:start + len(forecasts["test"])] == forecasts["test"]


def test_undefined_mape_is_null_in_json_and_skipped_in_fold_stats():
    from graphrde import training as TR

    target = np.zeros((1, 1, 2, 1))
    report = TR.compute_metrics(target + 1.0, target)
    assert math.isnan(report.mape)
    doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert doc["mape"] is None and doc["per_horizon"]["mape"] == [None, None]
    assert doc["mae"] == 1.0
    folds = [{"test": {"mae": m, "rmse": m, "mape": p}} for m, p in ((1.0, None), (3.0, 0.5))]
    summary = cli.summarize_folds(folds)
    assert summary["mean"] == {"mae": 2.0, "rmse": 2.0, "mape": 0.5}
    assert summary["std"]["mape"] == 0.0
    none = cli.summarize_folds([{"test": {"mae": 1.0, "rmse": 1.0, "mape": None}}] * 2)
    assert none["mean"]["mape"] is None and none["std"]["mape"] is None
    json.dumps(none, allow_nan=False)


def test_variant_flag_maps_to_config(workdir):
    root = workdir["root"]
    out = root / "spatial"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]),
                     "--variant", "spatial", "--out", str(out)]) == 0
    resolved = (out / "config.resolved.cfg").read_text()
    assert "variant = spatial_only" in resolved


def test_cv_mode_writes_fold_artifacts(workdir):
    root = workdir["root"]
    out = root / "cv"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]),
                     "--cv", "blocked", "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["folds"]) == 4
    assert set(metrics["mean"]) == {"mae", "rmse", "mape"}
    assert set(metrics["std"]) == {"mae", "rmse", "mape"}
    for k in range(4):
        assert (out / f"model_fold{k}.ckpt").exists()
        assert (out / f"history_fold{k}.csv").exists()
    mean = np.mean([f["test"]["mae"] for f in metrics["folds"]])
    assert metrics["mean"]["mae"] == pytest.approx(mean, rel=1e-12)


def test_logsig_dump_column_count(workdir, tmp_path):
    data = str(workdir["root"] / "data" / "values.csv")
    out = tmp_path / "dump.csv"
    # depth 2 on a 2-channel path (data + time) has 3 basis coordinates
    assert cli.main(["logsig", "--data", data, "--depth", "2", "--subpath", "2",
                     "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "window,node,coord_0,coord_1,coord_2"
    # input_len 12 -> 11 knot intervals -> 6 windows of 5 nodes
    assert len(lines) - 1 == 6 * 5
    # depth 1 keeps only increments: one coordinate per path channel
    assert cli.main(["logsig", "--data", data, "--depth", "1", "--subpath", "2",
                     "--out", str(out)]) == 0
    assert out.read_text().strip().split("\n")[0] == "window,node,coord_0,coord_1"


def test_logsig_dump_is_byte_stable(tmp_path):
    # digests of the dump written by the original per-cell front end
    cases = [
        (3, 14, 1, [], "cfe1e54c9157960eb4872103fc16cb228390cc9e705f8c9256a04b711e9c7f6b"),
        (2, 16, 2, ["--depth", "3", "--subpath", "3", "--input-len", "15"],
         "4e9580a2b4305df21bb90fbf03149d2f0effb7a4314b4e4ae2c299216716aeb9"),
    ]
    for nodes, steps, channels, flags, digest in cases:
        data, out = tmp_path / "v.csv", tmp_path / "o.csv"
        rows = [
            ",".join(repr(round(math.sin(0.7 * t + 1.3 * col) * (1 + col) + 0.1 * t, 6))
                     for col in range(nodes * channels))
            for t in range(steps)
        ]
        data.write_text("\n".join(rows) + "\n")
        assert cli.main(["logsig", "--data", str(data), "--channels", str(channels),
                         "--out", str(out)] + flags) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_logsig_constant_data_has_null_data_coordinates(tmp_path):
    path = tmp_path / "const.csv"
    rows = ["5.0,5.0,5.0"] * 20
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "dump.csv"
    assert cli.main(["logsig", "--data", str(path), "--depth", "2", "--subpath", "2",
                     "--out", str(out)]) == 0
    body = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    data_coord = np.array([float(r[2]) for r in body])  # coord_0 = data channel
    time_coord = np.array([float(r[3]) for r in body])  # coord_1 = time channel
    assert np.abs(data_coord).max() < 1e-12
    assert np.abs(time_coord).min() > 0.0


def test_exit_codes(tmp_path, workdir):
    assert cli.main(["logsig", "--data", "nope.csv", "--depth", "0",
                     "--out", str(tmp_path / "x.csv")]) == 1  # usage before data
    assert cli.main(["logsig", "--data", "nope.csv", "--depth", "2",
                     "--out", str(tmp_path / "x.csv")]) == 2  # unreadable data
    assert cli.main(["train", "--config", "missing.cfg", "--out", str(tmp_path / "x")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    fake = tmp_path / "fake.ckpt"
    fake.write_bytes(b"not a checkpoint at all")
    assert cli.main(["eval", "--checkpoint", str(fake),
                     "--data", str(workdir["root"] / "data" / "values.csv")]) == 2
    with pytest.raises(SystemExit):
        cli.main(["--help"])


def test_commands_do_not_mutate_inputs(workdir, tmp_path):
    data = workdir["root"] / "data" / "values.csv"
    before = data.read_bytes()
    cli.main(["logsig", "--data", str(data), "--depth", "2",
              "--out", str(tmp_path / "d.csv")])
    cli.main(["eval", "--checkpoint", str(workdir["out"] / "model.ckpt"),
              "--data", str(data), "--split", "test"])
    assert data.read_bytes() == before


def test_verify_command(capsys):
    assert cli.main(["verify", "--suite", "solver"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] euler convergence order" in out
    assert "[PASS] rk4 convergence order" in out
    assert "2/2 checks passed" in out


def test_preset_files_are_bundled():
    import graphrde

    preset_dir = os.path.join(os.path.dirname(graphrde.__file__), "presets")
    names = sorted(os.listdir(preset_dir))
    assert names == [
        "pemsd3.cfg", "pemsd4.cfg", "pemsd7.cfg", "pemsd7l.cfg",
        "pemsd7m.cfg", "pemsd8.cfg", "synth.cfg",
    ]
    for name in names:
        overrides = parse_config_text(open(os.path.join(preset_dir, name)).read())
        RunConfig(**overrides).validate()  # every preset parses and validates
