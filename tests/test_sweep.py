"""Tests for the eavesdropper-position sweep and its path-loss geometry."""

import importlib

import numpy as np
import pytest

from secrecy_rates import (
    RawMacChannel,
    RawTwChannel,
    Scene,
    default_scene,
    gains_from_geometry,
    sweep,
)
from secrecy_rates.sweep import SWEEP_COLUMNS

# the package exports the sweep function under the module's name
sweep_module = importlib.import_module("secrecy_rates.sweep")

BOUNDS = (-1.0, 1.0, -1.0, 1.0)


def test_gain_law_examples():
    scene = Scene(transmitter_positions=((0.0, 0.0), (3.0, 0.0)), receiver_position=(1.0, 0.0))
    raw = gains_from_geometry(scene, (0.0, 2.0))
    assert raw.main_gains[0] == 1.0  # d = 1
    assert raw.tap_gains[0] == 0.25  # d = 2, inverse square
    at_tx = gains_from_geometry(scene, (0.0, 0.0))
    assert at_tx.tap_gains[0] == 1e6  # distance floor 1e-3


def test_gain_law_exponent():
    scene = Scene(
        transmitter_positions=((0.0, 0.0), (3.0, 0.0)),
        receiver_position=(1.0, 0.0),
        path_loss_exponent=3.0,
    )
    raw = gains_from_geometry(scene, (0.0, 2.0))
    assert np.isclose(raw.tap_gains[0], 2.0 ** -3.0, rtol=0, atol=1e-15)


def test_mode_inference():
    with_rx = default_scene()
    assert isinstance(gains_from_geometry(with_rx, (1.0, 1.0)), RawMacChannel)
    assert isinstance(gains_from_geometry(with_rx, (1.0, 1.0), "tw"), RawTwChannel)
    no_rx = Scene(transmitter_positions=((-0.5, 0.0), (0.5, 0.0)))
    assert isinstance(gains_from_geometry(no_rx, (1.0, 1.0)), RawTwChannel)
    with pytest.raises(ValueError):
        gains_from_geometry(no_rx, (1.0, 1.0), "mac")


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(transmitter_positions=((0.0, 0.0),))
    with pytest.raises(ValueError):
        Scene(transmitter_positions=((0.0, 0.0), (1.0, 0.0)), path_loss_exponent=0.0)
    with pytest.raises(ValueError):
        Scene(transmitter_positions=((0.0, 0.0), (np.inf, 0.0)))


@pytest.mark.parametrize(
    "field, value",
    [
        ("raw_power_caps", (1.0, 2.0, 3.0)),
        ("raw_power_caps", (1.0,)),
        ("raw_power_caps", (1.0, np.nan)),
        ("raw_power_caps", (-1.0, 2.0)),
        ("raw_power_caps", 2.0),
        ("receiver_noises", (1.0, np.inf)),
        ("receiver_noises", (1.0, 0.0)),
        ("receiver_noises", (1.0, 1.0, 1.0)),
        ("main_noise", -1.0),
        ("main_noise", 0.0),
        ("main_noise", np.nan),
        ("main_noise", "1"),
        ("tap_noise", 0.0),
        ("tap_noise", np.inf),
        ("transmitter_positions", [[0.0], [1.0, 0.0]]),
        ("transmitter_positions", 5),
        ("transmitter_positions", [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]]),
        ("transmitter_positions", [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        ("transmitter_positions", [[0.0, "0"], [1.0, 0.0]]),
        ("receiver_position", (0.0, 0.0, 1.0)),
        ("receiver_position", (np.nan, 0.0)),
        ("receiver_position", 0.0),
        ("path_loss_exponent", "2"),
        ("path_loss_exponent", np.inf),
        ("path_loss_exponent", -2.0),
        ("reference_gain", "1"),
        ("reference_gain", np.nan),
        ("reference_gain", 0.0),
        ("distance_floor", np.inf),
        ("distance_floor", -1e-3),
        ("distance_floor", None),
        ("path_loss_exponent", 400),
        ("path_loss_exponent", 2000),
    ],
)
def test_scene_rejects_bad_caps_and_noises(field, value):
    kwargs = {"transmitter_positions": ((0.0, 0.0), (1.0, 0.0)), field: value}
    with pytest.raises(ValueError, match=field):
        Scene(**kwargs)


def test_scene_rejects_overflowing_path_loss():
    """The largest gain, at distance_floor, must be a finite float."""
    tx = ((-0.5, 0.0), (0.5, 0.0))
    for exponent in (400, 2000, 103):
        with pytest.raises(ValueError, match="path_loss_exponent"):
            Scene(transmitter_positions=tx, path_loss_exponent=exponent)
    # the power alone overflows here, although the product would be 1e305
    with pytest.raises(ValueError, match="path_loss_exponent"):
        Scene(transmitter_positions=tx, path_loss_exponent=105, reference_gain=1e-10)
    with pytest.raises(ValueError, match="path_loss_exponent"):
        Scene(transmitter_positions=tx, path_loss_exponent=100, reference_gain=1e10)
    for exponent, largest in ((2, 1e6), (3, 1e9), (4, 1e12), (102, 1e306)):
        scene = Scene(
            transmitter_positions=tx, receiver_position=(0.0, 0.0), path_loss_exponent=exponent
        )
        gain = gains_from_geometry(scene, tx[0]).tap_gains[0]
        assert np.isclose(gain, largest, rtol=1e-12, atol=0)


def test_scene_accepts_zero_cap_and_keeps_values():
    scene = Scene(
        transmitter_positions=((0.0, 0.0), (1.0, 0.0)),
        raw_power_caps=[0.0, 3],
        receiver_noises=np.array([0.5, 2.0]),
    )
    assert scene.raw_power_caps == (0.0, 3)
    assert scene.to_json()["raw_power_caps"] == [0.0, 3]
    assert scene.to_json()["receiver_noises"] == [0.5, 2.0]


def test_sweep_argument_validation():
    scene = default_scene()
    with pytest.raises(ValueError):
        sweep(scene, BOUNDS, 1, "MAC-CJ")
    with pytest.raises(ValueError):
        sweep(scene, (1.0, -1.0, -1.0, 1.0), 8, "MAC-CJ")
    with pytest.raises(ValueError):
        sweep(scene, BOUNDS, 8, "sideways")


def test_sweep_receiver_cell_and_transmitter_cells():
    """Qualitative structure: silence at the receiver, jamming at a sender."""
    result = sweep(default_scene(), BOUNDS, 9, "MAC-CJ")
    ix0 = int(np.flatnonzero(np.isclose(result.xs, 0.0))[0])
    iy0 = int(np.flatnonzero(np.isclose(result.ys, 0.0))[0])
    assert result.sum_rate[iy0, ix0] == 0.0
    ixt = int(np.flatnonzero(np.isclose(result.xs, -0.5))[0])
    assert result.tx_power[iy0, ixt, 0] == 0.0
    assert result.jam_power[iy0, ixt, 0] > 0.0
    assert result.tx_power[iy0, ixt, 1] > 0.0
    assert not result.error.any()
    assert result.error_messages == []
    assert (result.sum_rate >= 0.0).all()


def test_sweep_powers_stay_within_caps():
    scene = default_scene()
    for mode in ("MAC-CJ", "TW-CJ"):
        result = sweep(scene, BOUNDS, 9, mode)
        total = result.tx_power + result.jam_power
        for u in range(2):
            assert (total[:, :, u] <= scene.raw_power_caps[u] + 1e-9).all(), (
                f"{mode} user {u + 1} exceeds its cap"
            )


def test_sweep_far_eavesdropper_limit():
    """A distant eavesdropper leaves the plain full-power MAC rate."""
    result = sweep(default_scene(), (1000.0, 1001.0, 1000.0, 1001.0), 2, "MAC-CJ")
    # standardized caps are 4 * 2 = 8 per user, so the ceiling is log2(17)/2
    ceiling = 0.5 * np.log2(17.0)
    assert np.all(np.abs(result.sum_rate - ceiling) < 1e-3), f"rates {result.sum_rate}"
    assert np.allclose(result.tx_power, 2.0, rtol=0, atol=1e-9)
    assert np.all(result.jam_power == 0.0)


def test_sweep_mac_symmetry_bit_exact():
    result = sweep(default_scene(), BOUNDS, 33, "MAC-CJ")
    assert np.array_equal(result.sum_rate, result.sum_rate[:, ::-1])
    assert np.array_equal(result.sum_rate, result.sum_rate[::-1, :])
    # mirroring x swaps the two transmitters
    assert np.array_equal(result.tx_power, result.tx_power[:, ::-1, ::-1])
    assert np.array_equal(result.jam_power, result.jam_power[:, ::-1, ::-1])
    assert np.array_equal(result.tx_power, result.tx_power[::-1, :, :])
    assert np.array_equal(result.jam_power, result.jam_power[::-1, :, :])


def test_sweep_tw_symmetry_bit_exact():
    result = sweep(default_scene(), BOUNDS, 33, "TW-CJ")
    assert np.array_equal(result.sum_rate, result.sum_rate[:, ::-1])
    assert np.array_equal(result.sum_rate, result.sum_rate[::-1, :])
    assert np.array_equal(result.tx_power, result.tx_power[::-1, :, :])
    assert np.array_equal(result.jam_power, result.jam_power[::-1, :, :])
    # off the centerline the x-mirror swaps the terminals exactly; on it the
    # two gains tie and the documented tie-break always jams terminal 2
    off = np.flatnonzero(~np.isclose(result.xs, 0.0))
    mirrored_tx = result.tx_power[:, ::-1, ::-1]
    mirrored_jam = result.jam_power[:, ::-1, ::-1]
    assert np.array_equal(result.tx_power[:, off], mirrored_tx[:, off])
    assert np.array_equal(result.jam_power[:, off], mirrored_jam[:, off])
    center = np.flatnonzero(np.isclose(result.xs, 0.0))
    for ix in center:
        for iy in range(len(result.ys)):
            assert result.jam_power[iy, ix, 0] == 0.0, "tie must jam terminal 2"


def test_sweep_tw_positive_cells_cover_mac():
    mac = sweep(default_scene(), BOUNDS, 17, "MAC-CJ")
    tw = sweep(default_scene(), BOUNDS, 17, "TW-CJ")
    mac_pos = mac.sum_rate > 1e-9
    assert tw.sum_rate[mac_pos].min() > 1e-9, "a MAC-positive cell lost secrecy in TW"
    assert int(tw.sum_rate.size - np.count_nonzero(tw.sum_rate > 1e-9)) <= int(
        mac.sum_rate.size - np.count_nonzero(mac_pos)
    )


def test_sweep_csv_and_metadata():
    result = sweep(default_scene(), BOUNDS, 5, "MAC-CJ")
    text = result.csv_text()
    lines = text.splitlines()
    assert lines[0] == "x,y,p1_tx,p2_tx,p1_jam,p2_jam,sum_rate_bits,branch"
    assert len(lines) == 1 + 25
    again = sweep(default_scene(), BOUNDS, 5, "MAC-CJ")
    assert again.csv_text() == text, "sweep output must be byte-stable"
    meta = result.metadata_json()
    for key in (
        "scene",
        "path_loss_exponent",
        "resolution",
        "mode",
        "grid_bounds",
        "distance_floor",
        "library_version",
    ):
        assert key in meta, f"metadata missing {key}"
    assert "workers" not in meta
    assert meta["resolution"] == 5
    assert meta["mode"] == "MAC-CJ"



def test_sweep_keeps_failed_cell_messages(monkeypatch):
    """Cells whose solve raises are flagged with a reason.

    The planted gain raises for an eavesdropper on a transmitter, as
    d ** -400 did before Scene rejected exponents that overflow.
    """
    real_gain = sweep_module._gain

    def gain(scene, a, b):
        if tuple(a) == tuple(b):
            raise OverflowError("(34, 'Numerical result out of range')")
        return real_gain(scene, a, b)

    monkeypatch.setattr(sweep_module, "_gain", gain)
    scene = default_scene()
    result = sweep(scene, BOUNDS, 5, "MAC-CJ")
    failed = [(float(result.xs[ix]), float(result.ys[iy])) for iy, ix in np.argwhere(result.error)]
    assert failed == [(-0.5, 0.0), (0.5, 0.0)]
    assert len(result.error_messages) == 2
    for (x, y), message in zip(failed, result.error_messages):
        assert f"x={x:.12g}, y={y:.12g}" in message
        assert "OverflowError" in message
    for iy, ix in np.argwhere(result.error):
        assert result.branch[iy][ix] == "error"
        assert result.sum_rate[iy, ix] == 0.0
        assert not result.tx_power[iy, ix].any() and not result.jam_power[iy, ix].any()
    assert sum(row.count("error") for row in result.branch) == 2


def test_sweep_rows_follow_columns():
    result = sweep(default_scene(), BOUNDS, 3, "MAC-CJ")
    rows = list(result.rows())
    assert len(SWEEP_COLUMNS) == 8 and all(len(row) == 8 for row in rows)
    assert [row[:2] for row in rows[:4]] == [(-1.0, -1.0), (0.0, -1.0), (1.0, -1.0), (-1.0, 0.0)]
    x, y, p1_tx, p2_tx, p1_jam, p2_jam, rate, branch = rows[5]
    assert (x, y) == (1.0, 0.0)
    assert (p1_tx, p2_tx) == tuple(result.tx_power[1, 2])
    assert (p1_jam, p2_jam) == tuple(result.jam_power[1, 2])
    assert rate == result.sum_rate[1, 2] and branch == result.branch[1][2]
    assert result.csv_text().splitlines()[0] == ",".join(SWEEP_COLUMNS)
