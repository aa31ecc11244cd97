"""Command line interface: config files, subcommands, artifacts, exit codes."""

import hashlib
import json
import math
import os
import shutil
import struct
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from graphrde import cli
from graphrde import data as D
from graphrde.config import RunConfig, load_config, parse_config_text, render_config
from graphrde.errors import ConfigError, DataError
from graphrde.model import ModelConfig, ParamStore, load_checkpoint, save_checkpoint
from test_model import _with_header

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


def test_config_split_plan_and_model_builders(tmp_path):
    cfg = RunConfig(values_path="v.csv", ratios="7:2:1")
    assert cfg.split_plan() == (7, 2, 1)
    model = cfg.model_config(num_nodes=5)
    assert model.num_nodes == 5 and model.in_channels == cfg.channels
    cfg.num_nodes = 7
    with pytest.raises(ConfigError, match="num_nodes"):
        cfg.model_config(num_nodes=5)
    with pytest.raises(ConfigError, match="values_path"):
        cli.run_training(RunConfig(), str(tmp_path / "run"))


@pytest.mark.parametrize("fault,match", [
    ({"variant": "spooky"}, "variant"),
    ({"lr": math.nan}, "lr"),
    ({"values_path": "a#b/values.csv"}, "#"),
])
def test_run_training_checks_its_config_before_writing(tmp_path, fault, match):
    values, _ = D.synth_series(4, 80, seed=0)
    for sub in ("data", "a#b"):
        (tmp_path / sub).mkdir()
        D.save_values(str(tmp_path / sub / "values.csv"), values)
    run = RunConfig(values_path=str(tmp_path / "data" / "values.csv"), epochs=1)
    if "values_path" in fault:
        fault = {"values_path": str(tmp_path / fault["values_path"])}
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=match):
        cli.run_training(replace(run, **fault), str(out))
    assert not out.exists()


def test_run_training_checks_its_data_before_writing(tmp_path):
    values, _ = D.synth_series(4, 80, seed=0)
    values[:, :60] = 1.0  # channel 0 is constant over the training range only
    D.save_values(str(tmp_path / "values.csv"), values)
    run = RunConfig(values_path=str(tmp_path / "values.csv"), epochs=1)
    out = tmp_path / "run"
    with pytest.raises(DataError, match="constant over the training range"):
        cli.run_training(run, str(out))
    assert not out.exists()


def test_run_training_leaves_its_config_as_given(tmp_path):
    # num_nodes = 0 infers the nodes from the data, so one config serves both series
    paths = {}
    for nodes in (5, 6):
        values, _ = D.synth_series(nodes, 60, seed=0)
        paths[nodes] = tmp_path / f"values{nodes}.csv"
        D.save_values(str(paths[nodes]), values)
    run = RunConfig(values_path=str(paths[5]), dim_h=4, dim_z=4, epochs=1, method="euler")
    given = replace(run)
    for nodes in (5, 6):
        run.values_path = str(paths[nodes])
        given.values_path = run.values_path
        out = tmp_path / f"run{nodes}"
        cli.run_training(run, str(out))
        assert run == given
        assert f"\nnum_nodes = {nodes}\n" in (out / "config.resolved.cfg").read_text()


_OTHER_TEXT = {
    "variant": "temporal_only",
    "method": "euler",
    "ratios": "7:2:1",
}


def _sections(run: RunConfig) -> dict:
    built = {
        "ModelConfig": run.model_config(run.num_nodes or 3),
        "TrainConfig": run.train_config(),
        "SolveSpec": run.solve_spec(),
    }
    found = {(cls, k): v for cls, obj in built.items() for k, v in asdict(obj).items()}
    return {**found, ("split_plan", "ratios"): run.split_plan()}


def test_every_section_field_has_exactly_one_config_key():
    base = RunConfig(channels=2)
    before = _sections(base)
    reached: dict = {field: [] for field in before}
    unused = []
    for f in fields(RunConfig):
        old = getattr(base, f.name)
        if f.type == "int":
            new = old + 1
        elif f.type == "float":
            new = 2 * old + 0.25
        else:
            new = _OTHER_TEXT.get(f.name, "x")
        after = _sections(replace(base, **{f.name: new}))
        changed = [field for field in before if after[field] != before[field]]
        for field in changed:
            reached[field].append(f.name)
        if not changed:
            unused.append(f.name)
    assert {field: keys for field, keys in reached.items() if len(keys) != 1} == {}
    assert unused == ["values_path", "drop_rate"]  # read by the run itself


# A rendering change rewrites every run's config.resolved.cfg: update these
# only on purpose, and say so in CHANGES.md.
_PRESET_SHA256 = {
    "pemsd3.cfg": "7c2a0d37b41b1cbd0cf9737ffea1367984c43995463a14567b4ab5d952ac92a3",
    "pemsd4.cfg": "95207daedd17a3aa726a09343c4060da9daff6f34eaf081731e0e148accdcbc9",
    "pemsd7.cfg": "781b29e7223c1041f4147d2fbaa740e1c9a2b4abb7c0a2df9cb6c3c421774863",
    "pemsd7l.cfg": "60516326799e5b6b2c347f9de745b35b16d29fcea1d50048f1b46d19e059a002",
    "pemsd7m.cfg": "2372b112ba0f797f5820bf416d412880db0a1a1c3c60c6d11d4da7cd7dc0c618",
    "pemsd8.cfg": "9ee49c1d95df79c00044752b0081bf04599e3f034fb697c28ce5c6c36e79b036",
    "synth.cfg": "5ba8e8a285ca6c124771fde8705a09a300a2b19383c1da6427ba0c01b4978e2a",
}


@pytest.mark.parametrize("name", sorted(_PRESET_SHA256))
def test_preset_rendering_is_frozen(name):
    preset = os.path.join(os.path.dirname(cli.__file__), "presets", name)
    text = render_config(load_config(preset))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _PRESET_SHA256[name], text


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


# sha256 of the files the workdir run writes: a change to training's
# arithmetic, or to how a file is formatted, moves them
_WORKDIR_SHA256 = {
    "model.ckpt": "685fd61957c3a7f333148894c04f7a34ae420fa16d5e0b7a8da0f4c08176c35e",
    "history.csv": "365923dbb8f9e2e3343afbce9fb3a2a298d71c8d90825614c82763e9950eb468",
    "metrics.json": "55940c0572cda8adfbf7ce42afba239bbd2e9990522ef34fb4778f06da2b7ab6",
}


def test_train_writes_the_frozen_bytes(workdir):
    for name, digest in _WORKDIR_SHA256.items():
        assert hashlib.sha256((workdir["out"] / name).read_bytes()).hexdigest() == digest, name


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
    assert (out / "model.ckpt").read_bytes() == (root / "rerun" / "model.ckpt").read_bytes()
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


def test_eval_rejects_a_checkpoint_naming_the_removed_attention_mixer(workdir, tmp_path, capsys):
    # the workdir checkpoint rewritten as the attention mixer once stored it,
    # and as it was stored while the config named its graph mixer
    raw = (workdir["out"] / "model.ckpt").read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    blob = raw[16 + n :]
    extra = np.random.default_rng(0).normal(size=(2, 8))  # attn_self, attn_neigh: (dim_z, 1)

    def attention(header):
        header["config"]["gnn_kind"] = "attention"
        for k, name in enumerate(("attn_self", "attn_neigh")):
            header["tensors"].append({"name": name, "shape": [8, 1], "offset": len(blob) + 64 * k})

    forged = {
        "attention": _with_header(raw, attention) + extra.astype("<f8").tobytes(),
        "adaptive": _with_header(raw, lambda header: header["config"].update(gnn_kind="adaptive")),
    }
    for kind, body in forged.items():
        path = tmp_path / f"{kind}.ckpt"
        path.write_bytes(body)
        code = cli.main(["eval", "--checkpoint", str(path),
                         "--data", str(workdir["root"] / "data" / "values.csv"), "--split", "test"])
        assert code == 2, kind
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "keys: ['gnn_kind']" in err, err
        assert "Traceback" not in err


def test_a_checkpoint_with_the_old_fold_key_gives_the_same_output(workdir, tmp_path, capsys):
    # checkpoints written while training had cross-validation folds store "fold": 0
    new = workdir["out"] / "model.ckpt"
    old = tmp_path / "old.ckpt"
    old.write_bytes(_with_header(new.read_bytes(), lambda h: h["extra"].update(fold=0)))
    assert load_checkpoint(str(old))[2]["fold"] == 0
    data = str(workdir["root"] / "data" / "values.csv")
    outputs = []
    for ckpt in (new, old):
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", data,
                         "--split", "test"]) == 0
        report = capsys.readouterr().out
        forecasts = tmp_path / f"{ckpt.stem}.csv"
        assert cli.main(["predict", "--checkpoint", str(ckpt), "--data", data,
                         "--split", "all", "--out", str(forecasts)]) == 0
        outputs.append((report, forecasts.read_bytes()))
    assert outputs[0] == outputs[1]


def _set_extra(*keys, value):
    def mutate(header):
        target = header["extra"]
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return mutate


_FORGED_EXTRA = {
    "normalizer mean not a list": _set_extra("normalizer", "mean", value="x"),
    "normalizer mean too short": _set_extra("normalizer", "mean", value=[]),
    "normalizer std not finite": _set_extra("normalizer", "std", value=[float("nan")]),
    "normalizer std zero": _set_extra("normalizer", "std", value=[0.0]),
    "normalizer missing": lambda h: h["extra"].pop("normalizer"),
    "split range not a pair": _set_extra("split_offsets", "test", value=5),
    "split range of floats": _set_extra("split_offsets", "test", value=[1.0, 9.0]),
    "split ranges not an object": _set_extra("split_offsets", value=[0, 1]),
    "drop rate of one": _set_extra("drop", "rate", value=1.0),
    "drop rate a string": _set_extra("drop", "rate", value="0.1"),
    "drop seed missing": lambda h: h["extra"]["drop"].update(rate=0.2, seeds={"train": 1}),
    "drop seed negative": lambda h: h["extra"]["drop"].update(
        rate=0.2, seeds={"train": 1, "val": 2, "test": -3}),
    "solver method not a string": _set_extra("solve", "method", value=3),
    "solver method unknown": _set_extra("solve", "method", value="midpoint"),
    "solver key unknown": _set_extra("solve", "order", value=4),
}


@pytest.mark.parametrize("case", sorted(_FORGED_EXTRA))
def test_eval_rejects_a_forged_extra_block(workdir, tmp_path, capsys, case):
    path = tmp_path / "forged.ckpt"
    raw = (workdir["out"] / "model.ckpt").read_bytes()
    path.write_bytes(_with_header(raw, _FORGED_EXTRA[case]))
    code = cli.main(["eval", "--checkpoint", str(path),
                     "--data", str(workdir["root"] / "data" / "values.csv"), "--split", "test"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: checkpoint")


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


_PREDICT_CSV_SHA256 = {  # by drop rate, then split
    0.0: {
        "test": "ec93cf1f649f84749b61a16dd3c0076af7e10fc4fcd515b53e1e67d10048ac18",
        "all": "4b3b6e5ace34ee3275a68dab12204054c838053427c3197b9b8ac6f4a91dd37b",
    },
    0.3: {
        "test": "9b14dde1172b2c9064ce5aa78a3e010d968dee20b50384bdf4228d5a59dcd613",
        "val": "d2b6bce659199877cd8138fc598fa55c3af968aaba4aa6020cf58c10c22965fe",
        "all": "ba4c81668c253e4e5939e2101acc94fffd1219f0798863ac6615629e57076f54",
    },
}


def test_predict_csv_is_byte_stable(workdir, tmp_path):
    # digests of the CSVs the row-by-row formatter wrote; the model is
    # untrained, so the values depend on the forward pass alone
    _, _, extra = load_checkpoint(str(workdir["out"] / "model.ckpt"))
    config = ModelConfig(num_nodes=5, input_len=12, horizon=12, dim_h=4, dim_z=4)
    for rate, digests in _PREDICT_CSV_SHA256.items():
        ckpt = tmp_path / f"m{rate}.ckpt"
        drop = {"rate": rate, "seeds": {"train": 1, "val": 2, "test": 3}}
        save_checkpoint(str(ckpt), ParamStore(config, seed=3), extra={**extra, "drop": drop})
        for split, digest in digests.items():
            out = tmp_path / f"{split}.csv"
            assert cli.main(["predict", "--checkpoint", str(ckpt),
                             "--data", str(workdir["root"] / "data" / "values.csv"),
                             "--split", split, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (rate, split)


def test_predict_csv_is_the_same_in_one_window_chunks(workdir, tmp_path, monkeypatch):
    args = ["predict", "--checkpoint", str(workdir["out"] / "model.ckpt"),
            "--data", str(workdir["root"] / "data" / "values.csv"), "--split", "all"]
    assert cli.main(args + ["--out", str(tmp_path / "whole.csv")]) == 0
    monkeypatch.setattr(cli, "FORECAST_CHUNK_ROWS", 1)  # one window per chunk
    assert cli.main(args + ["--out", str(tmp_path / "chunked.csv")]) == 0
    whole, chunked = (tmp_path / "whole.csv").read_bytes(), (tmp_path / "chunked.csv").read_bytes()
    assert hashlib.sha256(chunked).hexdigest() == hashlib.sha256(whole).hexdigest()
    assert whole.count(b"\n") > 1 + 5 * 12  # more than one window's rows


def test_predict_rejects_a_multi_channel_checkpoint(tmp_path, capsys):
    # the forecast CSV has one value column, which would drop channel 1
    config = ModelConfig(num_nodes=3, in_channels=2, out_channels=2, input_len=5, horizon=2,
                         dim_h=2, dim_z=2)
    extra = {"normalizer": {"mean": [0.0, 0.0], "std": [1.0, 1.0]},
             "solve": {"method": "euler", "steps_per_window": 1}}
    ckpt, data, out_csv = tmp_path / "m.ckpt", tmp_path / "values.csv", tmp_path / "preds.csv"
    save_checkpoint(str(ckpt), ParamStore(config, seed=0), extra=extra)
    D.save_values(str(data), np.random.default_rng(0).normal(size=(3, 10, 2)))
    code = cli.main(["predict", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out_csv)])
    assert code == 1
    assert "out_channels = 2" in capsys.readouterr().err
    assert not out_csv.exists()
    # refused before --data is read, so a path that does not exist changes nothing
    code = cli.main(["predict", "--checkpoint", str(ckpt), "--data", str(tmp_path / "missing.csv"),
                     "--out", str(out_csv)])
    assert code == 1
    assert "out_channels = 2" in capsys.readouterr().err
    assert not out_csv.exists()
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0


@pytest.fixture(scope="module")
def drop_out(workdir):
    """The workdir run again at drop rate 0.3."""
    out = workdir["root"] / "drop"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]),
                     "--drop-rate", "0.3", "--out", str(out)]) == 0
    return out


def test_eval_reproduces_each_split_of_a_run_with_drop(workdir, drop_out, capsys):
    metrics = json.loads((drop_out / "metrics.json").read_text())
    for split in ("train", "val", "test"):
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(drop_out / "model.ckpt"),
                         "--data", str(workdir["root"] / "data" / "values.csv"),
                         "--split", split]) == 0
        assert json.loads(capsys.readouterr().out) == metrics[split], split


def test_split_all_applies_each_stored_drop(workdir, drop_out, tmp_path):
    data = str(workdir["root"] / "data" / "values.csv")
    forecasts = {}
    for split in ("all", "test"):
        path = tmp_path / f"{split}.csv"
        assert cli.main(["predict", "--checkpoint", str(drop_out / "model.ckpt"), "--data", data,
                         "--split", split, "--out", str(path)]) == 0
        forecasts[split] = path.read_text().strip().split("\n")[1:]
    first_test = forecasts["test"][0].split(",")[0]
    rows = forecasts["all"]
    start = next(i for i, row in enumerate(rows) if row.split(",")[0] == first_test)
    assert rows[start:start + len(forecasts["test"])] == forecasts["test"]


def test_stored_drop_draws_masks_from_views_of_the_windows(monkeypatch):
    windows = D.make_windows(np.random.default_rng(0).normal(size=(3, 40, 1)), 6, 3)
    ranges = {"train": [0, 10], "val": [10, 20], "test": [20, 40]}
    extra = {"drop": {"rate": 0.3, "seeds": {"train": 1, "val": 2, "test": 3}},
             "split_offsets": ranges}
    draw, drawn_from = D.drop_observations, []

    def spy(subset, rate, seed):
        drawn_from.append(subset)
        return draw(subset, rate, seed)

    monkeypatch.setattr(D, "drop_observations", spy)
    for which in ("all", "test"):
        got = cli._stored_split(windows, extra, which)
        # the masks a boolean subset (a copy) of each stored range draws
        want = windows.masks.copy()
        for name in ranges if which == "all" else [which]:
            keep = (windows.offsets >= ranges[name][0]) & (windows.offsets < ranges[name][1])
            want[keep] = draw(windows.take(keep), 0.3, extra["drop"]["seeds"][name]).masks
        # a named split keeps only the windows in its range
        assert np.array_equal(got.masks, want if which == "all" else want[keep]), which
    assert len(drawn_from) == 4
    for result in drawn_from + [got]:
        assert np.shares_memory(result.inputs, windows.inputs)
        assert np.shares_memory(result.targets, windows.targets)


def test_select_split_takes_a_view_of_the_windows():
    windows = D.make_windows(np.random.default_rng(0).normal(size=(3, 40, 1)), 6, 3)
    ranges = {"train": [0, 10], "val": [10, 20], "test": [20, 40], "none": [100, 200]}
    for which in ("train", "val", "test"):
        got = cli._stored_split(windows, {"split_offsets": ranges}, which)
        lo, hi = ranges[which]
        assert np.array_equal(got.offsets, windows.offsets[(windows.offsets >= lo)
                                                            & (windows.offsets < hi)])
        assert np.shares_memory(got.inputs, windows.inputs)
    with pytest.raises(DataError, match="no windows fall"):
        cli._stored_split(windows, {"split_offsets": ranges}, "none")


def test_undefined_mape_is_null_in_json():
    from graphrde import training as TR

    target = np.zeros((1, 1, 2, 1))
    report = TR.compute_metrics(target + 1.0, target)
    assert math.isnan(report.mape)
    doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert doc["mape"] is None and doc["per_horizon"]["mape"] == [None, None]
    assert doc["mae"] == 1.0


def test_variant_flag_maps_to_config(workdir):
    root = workdir["root"]
    out = root / "spatial"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]),
                     "--variant", "spatial", "--out", str(out)]) == 0
    resolved = (out / "config.resolved.cfg").read_text()
    assert "variant = spatial_only" in resolved


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


@pytest.mark.parametrize("input_len", ["-3", "0", "1"])
def test_logsig_input_len_below_two_is_a_usage_error(workdir, tmp_path, input_len):
    out = tmp_path / "dump.csv"
    assert cli.main(["logsig", "--data", str(workdir["root"] / "data" / "values.csv"),
                     "--input-len", input_len, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("data", ["values", "missing"])
def test_logsig_subpath_longer_than_the_window_is_a_usage_error(workdir, tmp_path, capsys, data):
    # 12 timesteps give 11 knot intervals, as train's config check counts them; the flags
    # are checked before --data is read, so a missing file does not turn this into exit 2
    path = workdir["root"] / "data" / "values.csv" if data == "values" else tmp_path / "no.csv"
    out = tmp_path / "dump.csv"
    assert cli.main(["logsig", "--data", str(path), "--subpath", "12", "--input-len", "12",
                     "--out", str(out)]) == 1
    assert "--subpath 12" in capsys.readouterr().err
    assert not out.exists()


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


# rows the adjacency reader rejected: the flag is gone with it, so train stops
# at its arguments, whatever the file holds
@pytest.mark.parametrize("row", ["0,1,nan", "0,1,inf", "0,1,1e309", "inf,1,1.0", "0.5,1,1.0"])
def test_train_rejects_a_malformed_adjacency_before_writing(workdir, tmp_path, capsys, row):
    adjacency = tmp_path / "adj.csv"
    adjacency.write_text(f"src,dst,weight\n1,2,0.5\n{row}\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]), "--adjacency",
                     str(adjacency), "--out", str(out)]) == 1
    assert "--adjacency" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_first_values_row_mixing_numbers_and_text(workdir, tmp_path, capsys):
    lines = (workdir["root"] / "data" / "values.csv").read_text().splitlines()
    lines[0] = "abc," + lines[0].split(",", 1)[1]  # once read as a header, losing a timestep
    values = tmp_path / "values.csv"
    values.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]), "--data", str(values),
                     "--out", str(out)]) == 2
    assert "row 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which", ["values", "config"])
def test_train_rejects_a_non_utf8_file_before_writing(workdir, tmp_path, capsys, which):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe1,2\n")
    flag = {"values": "--data", "config": "--config"}[which]
    out = tmp_path / "run"  # a repeated --config takes the last one
    code = cli.main(["train", "--config", str(workdir["cfg_path"]), flag, str(bad),
                     "--out", str(out)])
    assert code == (1 if which == "config" else 2)
    assert "can't decode" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_negative_seed_before_writing(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    text = workdir["cfg_path"].read_text()
    assert "\nseed = 0\n" in text
    cfg.write_text(text.replace("\nseed = 0\n", "\nseed = -1\n"))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def _train_stops_on_a_removed_key(workdir, tmp_path, capsys, line):
    """train on the workdir config plus ``line``, whose key is gone: it stops
    before anything is written"""
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(workdir["cfg_path"].read_text() + line + "\n")
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# keys of the removed graph mixers in an old config
@pytest.mark.parametrize("line", ["gnn_kind = adaptive", "adjacency_path = x"])
def test_train_rejects_a_removed_graph_key_before_writing(workdir, tmp_path, capsys, line):
    _train_stops_on_a_removed_key(workdir, tmp_path, capsys, line)


def test_train_rejects_the_removed_attention_mixer_before_writing(workdir, tmp_path, capsys):
    _train_stops_on_a_removed_key(workdir, tmp_path, capsys, "gnn_kind = attention")


@pytest.mark.parametrize("kind", ["chebyshev", "plain_gcn"])
def test_train_rejects_a_graph_mixer_without_an_adjacency_before_writing(
    workdir, tmp_path, capsys, kind
):
    _train_stops_on_a_removed_key(workdir, tmp_path, capsys, f"gnn_kind = {kind}")


# keys of the removed cross-validation in an old config
@pytest.mark.parametrize("line", ["split = chronological", "split = rolling_cv", "folds = 4"])
def test_train_rejects_a_removed_split_key_before_writing(workdir, tmp_path, capsys, line):
    _train_stops_on_a_removed_key(workdir, tmp_path, capsys, line)


def test_train_rejects_the_removed_cv_flag_before_writing(workdir, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(workdir["cfg_path"]), "--cv", "rolling",
                     "--out", str(out)]) == 1
    assert "--cv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line", ["lr = nan", "lr = inf", "weight_decay = nan",
                                  "weight_decay = inf"])
def test_train_rejects_a_non_finite_step_size_before_writing(workdir, tmp_path, capsys, line):
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    lines = workdir["cfg_path"].read_text().split("\n")
    assert sum(ln.startswith(f"{key} = ") for ln in lines) == 1
    cfg.write_text("\n".join(line if ln.startswith(f"{key} = ") else ln for ln in lines))
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["d#1/values.csv", "values.csv ", "val\nues.csv"])
def test_train_rejects_a_path_the_resolved_config_cannot_hold_before_writing(
    workdir, tmp_path, capsys, name
):
    # config.resolved.cfg would read back another path: '#' starts a comment,
    # a line break ends the line and the parser strips blanks at either end
    values = tmp_path / name
    values.parent.mkdir(exist_ok=True)
    values.write_bytes((workdir["root"] / "data" / "values.csv").read_bytes())
    out = tmp_path / "run"
    code = cli.main(["train", "--config", str(workdir["cfg_path"]), "--data", str(values),
                     "--out", str(out)])
    assert code == 1
    assert "config key 'values_path' cannot hold" in capsys.readouterr().err
    assert not out.exists()


def _diverging_config(workdir, tmp_path) -> Path:
    """The workdir config at a step size that overflows in the first step."""
    cfg = tmp_path / "diverge.cfg"
    text = workdir["cfg_path"].read_text()
    assert "\nlr = 0.01\n" in text
    cfg.write_text(text.replace("\nlr = 0.01\n", "\nlr = 1e300\n"))
    return cfg


def test_an_aborted_run_leaves_no_earlier_run_files(workdir, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(workdir["out"], out)  # an earlier run's outputs
    assert cli.main(["train", "--config", str(_diverging_config(workdir, tmp_path)),
                     "--out", str(out)]) == 3
    assert "training aborted at epoch 0" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["config.resolved.cfg"]
    assert "\nlr = 1.0000000000000001e+300\n" in (out / "config.resolved.cfg").read_text()


def test_a_diverging_run_is_exit_3_with_warnings_as_errors(workdir, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["train", "--config", str(_diverging_config(workdir, tmp_path)),
                         "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_synth_rejects_a_negative_seed(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["synth", "--nodes", "4", "--timesteps", "30", "--seed", "-1",
                     "--out", str(out)]) == 1
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["synth", "logsig", "train", "predict"])
def test_an_output_that_cannot_be_written_is_exit_1(workdir, tmp_path, capsys, command):
    data = str(workdir["root"] / "data" / "values.csv")
    a_file = tmp_path / "file"
    a_file.write_text("")
    no_dir = str(tmp_path / "missing" / "x.csv")
    argv = {
        "synth": ["synth", "--nodes", "4", "--timesteps", "30", "--out", str(a_file / "sub")],
        "logsig": ["logsig", "--data", data, "--out", no_dir],
        "train": ["train", "--config", str(workdir["cfg_path"]), "--out", str(a_file)],
        "predict": ["predict", "--checkpoint", str(workdir["out"] / "model.ckpt"),
                    "--data", data, "--split", "test", "--out", no_dir],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert ".tmp" not in err  # the message names the path given, not atomic_write's temp file
    assert not list(tmp_path.rglob("*.tmp"))


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
        overrides = parse_config_text(Path(preset_dir, name).read_text())
        RunConfig(**overrides).validate()  # every preset parses and validates
