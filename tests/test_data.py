"""Dataset io, windowing, splits, masking and the synthetic generator."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphrde import data as D
from graphrde.config import RunConfig
from graphrde.errors import ConfigError, DataError

# ---------------------------------------------------------------------------
# CSV round trips and parse errors
# ---------------------------------------------------------------------------


def test_values_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(5, 13, 2)) * np.pi  # irrational-ish, full mantissas
    path = str(tmp_path / "values.csv")
    D.save_values(path, values)
    back = D.load_values(path, channels=2)
    assert back.shape == values.shape
    assert np.array_equal(back, values)  # bitwise, thanks to 17 significant digits


def test_values_column_layout_is_channel_blocked(tmp_path):
    # column index = channel * nodes + node
    path = str(tmp_path / "v.csv")
    path2 = str(tmp_path / "v2.csv")
    values = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)  # 2 nodes, 3 steps, 2 ch
    D.save_values(path, values)
    first_row = Path(path).read_text().splitlines()[0].split(",")
    # timestep 0: [ch0 node0, ch0 node1, ch1 node0, ch1 node1]
    assert [float(x) for x in first_row] == [
        values[0, 0, 0],
        values[1, 0, 0],
        values[0, 0, 1],
        values[1, 0, 1],
    ]
    D.save_values(path2, values)
    assert Path(path).read_bytes() == Path(path2).read_bytes()


def test_header_line_is_auto_detected(tmp_path):
    bare = tmp_path / "bare.csv"
    bare.write_text("1.0,2.0\n3.0,4.0\n")
    headed = tmp_path / "headed.csv"
    headed.write_text("node_0,node_1\n1.0,2.0\n3.0,4.0\n")
    a = D.load_values(str(bare), channels=1)
    b = D.load_values(str(headed), channels=1)
    assert np.array_equal(a, b)
    assert a.shape == (2, 2, 1)


def test_a_first_row_mixing_numbers_and_text_is_not_a_header(tmp_path):
    values = tmp_path / "v.csv"
    values.write_text("1.0,abc,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
    with pytest.raises(DataError, match="row 1"):
        D.load_values(str(values))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("1.0,2.0\n3.0\n", "row 2"),  # ragged
        ("1.0,2.0\n3.0,oops\n", "row 2"),  # non-numeric
        ("1.0,2.0\nnan,4.0\n", "row 2"),  # non-finite
        ("hdr_a,hdr_b\n1.0,2.0\n3.0,inf\n", "row 3"),  # header shifts row numbers
    ],
)
def test_parse_errors_name_the_row(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=fragment):
        D.load_values(str(path), channels=1)


def test_empty_and_header_only_files_are_rejected(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DataError, match="empty"):
        D.load_values(str(empty))
    header_only = tmp_path / "h.csv"
    header_only.write_text("col_a,col_b\n")
    with pytest.raises(DataError, match="no data rows"):
        D.load_values(str(header_only))
    with pytest.raises(DataError, match="cannot read"):
        D.load_values(str(tmp_path / "missing.csv"))


def test_width_must_divide_by_channels(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(DataError, match="not divisible"):
        D.load_values(str(path), channels=2)


def test_atomic_write_failure_keeps_the_target_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")

    def chunks():
        yield "new,"
        raise ValueError("chunk failed")

    with pytest.raises(ValueError, match="chunk failed"):
        D.atomic_write(str(path), chunks())
    with pytest.raises(TypeError):  # a write that fails: not str or bytes
        D.atomic_write(str(path), ["new,", 3])
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------


def test_windows_are_read_only_views_of_the_series():
    values = np.random.default_rng(5).normal(size=(3, 30, 2))
    windows = D.make_windows(values, input_len=6, horizon=4, out_channels=1)
    count = 30 - 6 - 4 + 1
    inputs = np.stack([values[:, o : o + 6] for o in range(count)])
    targets = np.stack([values[:, o + 6 : o + 10, :1] for o in range(count)])
    assert np.array_equal(windows.inputs, inputs) and np.array_equal(windows.targets, targets)
    for view in (windows.inputs, windows.targets):
        assert np.shares_memory(view, values)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0] = 1.0


def test_window_count_and_contents():
    values = np.arange(40, dtype=float).reshape(1, 40, 1)
    windows = D.make_windows(values, input_len=12, horizon=12)
    assert len(windows) == 40 - 12 - 12 + 1 == 17
    assert windows.inputs.shape == (17, 1, 12, 1)
    assert windows.targets.shape == (17, 1, 12, 1)
    # window o covers inputs [o, o+12) and targets [o+12, o+24)
    assert np.array_equal(windows.inputs[3, 0, :, 0], np.arange(3, 15))
    assert np.array_equal(windows.targets[3, 0, :, 0], np.arange(15, 27))
    assert windows.masks.all()


@given(
    steps=st.integers(10, 60),
    input_len=st.integers(2, 8),
    horizon=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_window_count_formula(steps, input_len, horizon):
    values = np.zeros((2, steps, 1))
    count = steps - input_len - horizon + 1
    if count < 1:
        with pytest.raises(DataError, match="too short"):
            D.make_windows(values, input_len, horizon)
    else:
        assert len(D.make_windows(values, input_len, horizon)) == count


def test_targets_keep_only_leading_channels():
    values = np.stack(
        [np.arange(20, dtype=float), 100 + np.arange(20, dtype=float)], axis=-1
    )[None]  # (1, 20, 2)
    windows = D.make_windows(values, input_len=4, horizon=2, out_channels=1)
    assert windows.inputs.shape[-1] == 2
    assert windows.targets.shape[-1] == 1
    assert np.array_equal(windows.targets[0, 0, :, 0], [4.0, 5.0])
    with pytest.raises(ConfigError, match="out_channels"):
        D.make_windows(values, input_len=4, horizon=2, out_channels=3)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def _toy_windows(n):
    return D.make_windows(np.zeros((1, n + 2, 1)), input_len=2, horizon=1)


def test_chronological_split_exact_ratio():
    train, val, test = D.chronological_split(_toy_windows(10))
    assert (len(train), len(val), len(test)) == (6, 2, 2)
    assert np.array_equal(train.offsets, np.arange(0, 6))
    assert np.array_equal(val.offsets, np.arange(6, 8))
    assert np.array_equal(test.offsets, np.arange(8, 10))


def test_chronological_split_straddling_window_goes_earlier():
    # 11 windows: boundaries at 6.6 and 8.8 round up, so the straddling
    # windows 6 and 8 land in train and val respectively.
    train, val, test = D.chronological_split(_toy_windows(11))
    assert (len(train), len(val), len(test)) == (7, 2, 2)
    assert train.offsets[-1] == 6 and val.offsets[0] == 7 and test.offsets[0] == 9


def test_chronological_split_too_few_windows():
    with pytest.raises(DataError, match="cannot be split"):
        D.chronological_split(_toy_windows(4))


@given(n=st.integers(10, 200))
@settings(max_examples=50, deadline=None)
def test_chronological_split_partitions_everything(n):
    windows = _toy_windows(n)
    train, val, test = D.chronological_split(windows)
    assert len(train) + len(val) + len(test) == n
    assert train.offsets[-1] < val.offsets[0] < test.offsets[0]
    # each part is at least its fair floor share
    assert len(train) >= math.floor(n * 6 / 10)


def test_split_dispatch_and_plan_validation():
    windows = _toy_windows(40)
    (parts,) = D.split(windows, RunConfig(ratios="7:2:1").split_plan())
    for got, want in zip(parts, D.chronological_split(windows, (7, 2, 1))):
        assert np.array_equal(got.offsets, want.offsets)
    for ratios in ("6:2", "6:2:2:1", "6:0:2", "6:-2:2"):
        with pytest.raises(ConfigError, match="ratios"):
            RunConfig(ratios=ratios).split_plan()


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------


def test_normalizer_uses_training_range_only():
    rng = np.random.default_rng(1)
    values = rng.normal(size=(3, 50, 2))
    windows = D.make_windows(values, input_len=4, horizon=2)
    train, _, _ = D.chronological_split(windows)
    end = D.train_range_end(train)
    assert end == int(train.offsets[-1]) + 4 + 2
    norm = D.fit_normalizer(values, end)
    assert np.allclose(norm.mean, values[:, :end, :].mean(axis=(0, 1)))
    assert np.allclose(norm.std, values[:, :end, :].std(axis=(0, 1)))
    # corrupting data beyond the training range must not change the stats
    tampered = values.copy()
    tampered[:, end:, :] = 1e6
    norm2 = D.fit_normalizer(tampered, end)
    assert np.array_equal(norm.mean, norm2.mean) and np.array_equal(norm.std, norm2.std)


def test_normalizer_round_trip_and_channel_slicing():
    norm = D.Normalizer(mean=np.array([1.0, -2.0]), std=np.array([3.0, 0.5]))
    x = np.random.default_rng(2).normal(size=(4, 5, 2))
    assert np.allclose(norm.invert(norm.apply(x)), x, atol=1e-12)
    y = x[..., :1]
    assert np.allclose(norm.apply(y), (y - 1.0) / 3.0)  # stats sliced to one channel
    assert np.allclose(norm.apply(x, channels=1)[..., 0], (x[..., 0] - 1.0) / 3.0)


def test_constant_channel_is_rejected():
    values = np.ones((2, 30, 1))
    with pytest.raises(DataError, match="channel 0 is constant"):
        D.fit_normalizer(values, 20)


# ---------------------------------------------------------------------------
# Observation dropping
# ---------------------------------------------------------------------------


def test_drop_rate_matches_statistics():
    windows = D.make_windows(np.random.default_rng(3).normal(size=(5, 50, 1)), 12, 2)
    dropped = D.drop_observations(windows, rate=0.3, seed=0)
    interior = dropped.masks[:, :, 1:-1]
    observed = interior.mean()
    assert abs(observed - 0.7) < 0.01  # 37 * 5 * 10 = 1850 draws; generous band
    assert dropped.masks[:, :, 0].all() and dropped.masks[:, :, -1].all()
    # only the masks are new; the argument's stay as they were
    assert dropped.inputs is windows.inputs and dropped.targets is windows.targets
    assert dropped.offsets is windows.offsets and windows.masks.all()


def test_drop_is_deterministic_per_seed():
    windows = D.make_windows(np.zeros((3, 30, 1)), 8, 2)
    a = D.drop_observations(windows, 0.5, seed=7)
    b = D.drop_observations(windows, 0.5, seed=7)
    c = D.drop_observations(windows, 0.5, seed=8)
    assert np.array_equal(a.masks, b.masks)
    assert not np.array_equal(a.masks, c.masks)


def test_drop_rate_bounds():
    windows = D.make_windows(np.zeros((2, 20, 1)), 8, 2)
    assert D.drop_observations(windows, 0.0, seed=0).masks.all()
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ConfigError, match="drop rate"):
            D.drop_observations(windows, bad, seed=0)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def test_synth_series_formula_without_noise():
    values, info = D.synth_series(nodes=6, timesteps=48, seed=0, noise_sigma=0.0)
    t = np.arange(48)
    for v in range(6):
        base = lambda u: 10.0 * np.sin(2 * np.pi * t / 24.0 + 2 * np.pi * u / 6)
        expected = base(v) + 0.15 * (base((v - 1) % 6) + base((v + 1) % 6))
        assert np.allclose(values[v, :, 0], expected, atol=1e-12)
    # exactly periodic with the configured period
    assert np.allclose(values[:, :24, 0], values[:, 24:48, 0], atol=1e-9)
    assert abs(values[0].max() - info.amplitude) < 1e-3  # peak hits the amplitude


def test_synth_amplitude_formula():
    info = D.SynthInfo(nodes=8, timesteps=10, seed=0)
    assert info.amplitude == pytest.approx(10.0 * (1 + 0.3 * math.cos(2 * math.pi / 8)))
    solo = D.synth_series(nodes=4, timesteps=30, seed=0, coupling=0.0, noise_sigma=0.0)[0]
    assert abs(np.abs(solo).max() - 10.0) < 0.2  # uncoupled nodes are pure sinusoids


def test_synth_noise_level():
    noisy, info = D.synth_series(nodes=8, timesteps=2000, seed=5)
    clean, _ = D.synth_series(nodes=8, timesteps=2000, seed=5, noise_sigma=0.0)
    residual = noisy - clean
    assert info.noise_sigma == pytest.approx(0.5)
    assert abs(residual.std() - 0.5) < 0.02
    assert abs(residual.mean()) < 0.02


def test_synth_values_stay_bounded():
    values, info = D.synth_series(nodes=8, timesteps=600, seed=0)
    assert np.abs(values).max() <= info.amplitude + 6 * info.noise_sigma


def test_synth_dataset_is_byte_deterministic(tmp_path):
    values1, info1 = D.synth(5, 60, seed=11, out_dir=str(tmp_path / "a"))
    values2, info2 = D.synth(5, 60, seed=11, out_dir=str(tmp_path / "b"))
    values3, _ = D.synth(5, 60, seed=12, out_dir=str(tmp_path / "c"))
    assert Path(values1).read_bytes() == Path(values2).read_bytes()
    assert Path(values1).read_bytes() != Path(values3).read_bytes()
    assert info1.amplitude == info2.amplitude
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["values.csv"]
    values = D.load_values(values1, channels=1)
    assert values.shape == (5, 60, 1)


def test_synth_argument_validation():
    with pytest.raises(ConfigError, match="at least 2 nodes"):
        D.synth_series(1, 10, seed=0)
    with pytest.raises(ConfigError, match="at least 2 timesteps"):
        D.synth_series(4, 1, seed=0)


def test_windowset_take_and_validation():
    windows = _toy_windows(10)
    sub = windows.take(slice(2, 5))
    assert len(sub) == 3 and np.array_equal(sub.offsets, [2, 3, 4])
    with pytest.raises(DataError, match="strictly chronological"):
        D.WindowSet(
            inputs=windows.inputs[:3],
            masks=windows.masks[:3],
            targets=windows.targets[:3],
            offsets=np.array([0, 2, 1]),
        )
    with pytest.raises(DataError, match="disagree"):
        D.WindowSet(
            inputs=windows.inputs[:3],
            masks=windows.masks[:2],
            targets=windows.targets[:3],
            offsets=windows.offsets[:3],
        )
