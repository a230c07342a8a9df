"""Tests for the eavesdropper-position sweep and its path-loss geometry."""

import importlib
from types import SimpleNamespace

import numpy as np
import pytest

from secrecy_rates import (
    RawMacChannel,
    RawTwChannel,
    Scene,
    default_scene,
    gains_from_geometry,
    mac_cj_optimal,
    standardize_mac,
    standardize_tw,
    sweep,
    tw_cj_optimal,
)
from secrecy_rates.jamming import RATE_TIE_TOL
from secrecy_rates.sweep import SWEEP_COLUMNS

from reference import _gain, random_tied_mac_row, reference_mac_secrecy_bits, reference_ordered_ranking

# the package exports the sweep function under the module's name
sweep_module = importlib.import_module("secrecy_rates.sweep")
real_gains = sweep_module._gains

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


def test_gains_match_the_scalar_gain_law_bit_for_bit():
    """sweep._gains against the scalar reference _gain, compared as bits:
    random points, points at distance_floor and on a transmitter,
    coordinates near +-1e150, exponent 102, and gains that underflow to
    subnormal values and to 0."""
    rng = np.random.default_rng(8)
    tx = ((-0.5, 0.0), (0.5, 0.0))
    near = [tx[0], tx[1], (-0.5 + 1e-3, 0.0), (0.5, -1e-3), (0.5 + 0.9e-3, 0.0), (0.5, 0.0011)]
    # distances 1,100 to 1,900 at exponent 100: gains from 1e-304 through the subnormals to 0
    far = 1100.0 + 800.0 * rng.random(300)
    angle = rng.uniform(0.0, 2.0 * np.pi, 300)
    cases = [
        (2.0, rng.uniform(-3.0, 3.0, (300, 2))),
        (float(rng.uniform(2.0, 4.0)), rng.uniform(-3.0, 3.0, (300, 2))),
        (3, np.array(near)),
        (102, np.vstack([near, rng.uniform(-1.0, 1.0, (50, 2))])),
        (2.5, rng.uniform(-1.0, 1.0, (300, 2)) * 1e150),
        (102, rng.uniform(-1.0, 1.0, (50, 2)) * 1e150),
        (100, np.column_stack([far * np.cos(angle), far * np.sin(angle)]) + [0.5, 0.0]),
    ]
    got_all = []
    for exponent, points in cases:
        scene = Scene(transmitter_positions=tx, path_loss_exponent=exponent)
        for target in tx + ((1e150, -1e150),):
            got = sweep_module._gains(scene, points, target).tolist()
            want = [_gain(scene, target, p) for p in points.tolist()]
            assert [g.hex() for g in got] == [w.hex() for w in want], (exponent, target)
            got_all += got
    assert any(0.0 < g < np.finfo(float).tiny for g in got_all), "no subnormal gain"
    assert 0.0 in got_all and max(got_all) == _gain(Scene(tx, path_loss_exponent=102), tx[0], tx[0])


def test_gains_from_geometry_follow_the_scalar_gain_law():
    """Tap, main and cross gains of one point equal the reference _gain
    bit for bit, whichever end of each link _gains measures from."""
    rng = np.random.default_rng(9)
    for seed in range(20):
        scene = _moved_scene(seed)
        t1, t2 = scene.transmitter_positions
        eve = tuple(rng.uniform(-1.5, 1.5, 2).tolist())
        mac = gains_from_geometry(scene, eve, "mac")
        tw = gains_from_geometry(scene, eve, "tw")
        taps = [_gain(scene, t, eve) for t in (t1, t2)]
        assert mac.tap_gains.tolist() == taps and tw.tap_gains.tolist() == taps
        assert mac.main_gains.tolist() == [_gain(scene, t, scene.receiver_position) for t in (t1, t2)]
        assert tw.main_gains.tolist() == [_gain(scene, t1, t2)] * 2


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


@pytest.mark.parametrize(
    "bounds, resolution, name",
    [
        ((-1.0, 1.0, -1.0), 3, "grid_bounds"),
        ((-1.0, 1.0, -1.0, 1.0, 2.0), 3, "grid_bounds"),
        (5, 3, "grid_bounds"),
        (("a", 1.0, -1.0, 1.0), 3, "grid_bounds"),
        (BOUNDS, 2.9, "resolution"),
        (BOUNDS, "abc", "resolution"),
        (BOUNDS, None, "resolution"),
    ],
)
def test_sweep_rejects_malformed_arguments_naming_them(bounds, resolution, name):
    """grid_bounds must hold four numbers and resolution must be an integer
    (2.9 is not truncated to a 2 x 2 grid)."""
    with pytest.raises(ValueError, match=name):
        sweep(default_scene(), bounds, resolution, "MAC-CJ")


# Inputs that fail every cell: (scene fields, grid bounds, mode, field named).
WHOLE_GRID_FAULTS = [
    ({}, (-np.inf, 1.0, -1.0, 1.0), "MAC-CJ", "grid_bounds"),
    ({}, (-1e308, 1e308, -1.0, 1.0), "MAC-CJ", "grid_bounds"),
    ({"receiver_position": None}, BOUNDS, "MAC-CJ", "receiver_position"),
    ({"receiver_position": (1e200, 0.0)}, BOUNDS, "MAC-CJ", "receiver_position"),
    (
        {"transmitter_positions": ((-1e200, 0.0), (1e200, 0.0))},
        BOUNDS,
        "TW-CJ",
        "transmitter_positions",
    ),
    pytest.param(
        {"raw_power_caps": (1e307, 1.0), "main_noise": 0.01},
        BOUNDS,
        "MAC-CJ",
        r"raw_power_caps \[1e\+307, 1.0\] and main_noise 0.01",
        id="mac-cap-overflow",
    ),
]


@pytest.mark.parametrize("fields, bounds, mode, name", WHOLE_GRID_FAULTS)
def test_sweep_rejects_whole_grid_faults_naming_the_field(fields, bounds, mode, name):
    """Conditions that hold for the whole grid raise before any cell runs,
    instead of failing every cell."""
    kwargs = {"transmitter_positions": ((-0.5, 0.0), (0.5, 0.0)), "receiver_position": (0.0, 0.0)}
    with pytest.raises(ValueError, match=name):
        sweep(Scene(**{**kwargs, **fields}), bounds, 3, mode)


def test_sweep_rejects_a_two_way_channel_that_does_not_standardize():
    """A raw cap of 1e307 heard over receiver noise 0.01 overflows user 1's
    standardized cap in every cell."""
    scene = Scene(
        transmitter_positions=((-0.5, 0.0), (0.5, 0.0)),
        raw_power_caps=(1e307, 1.0),
        receiver_noises=(1.0, 0.01),
    )
    with pytest.raises(ValueError, match=r"raw_power_caps \[1e\+307, 1.0\]: standardized power cap of user 1"):
        sweep(scene, BOUNDS, 3, "TW-CJ")


def test_sweep_two_way_tiny_cross_gain_matches_per_cell():
    """A cross gain of 1e-300 with receiver noises 1e-5 and 1e5 leaves
    finite gains and caps in every cell: the sweep answers each one as the
    per-cell path does."""
    scene = Scene(
        transmitter_positions=((-5e149, 0.0), (5e149, 0.0)), receiver_noises=(1e-5, 1e5)
    )
    result = sweep(scene, (1e149, 1.1e149, -1.0, 1.0), 3, "TW-CJ")
    assert not result.error.any()
    _assert_matches_per_cell(result, scene, "TW-CJ")


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


def test_sweep_csv_is_strict_with_newline_ends(tmp_path):
    """The sweep's CSV is channels._csv_table's, as the CLI's other CSV is:
    "\n" line ends, and a NaN cell is a FloatingPointError naming its
    column and row, with no file written."""
    result = sweep(default_scene(), BOUNDS, 3, "TW-CJ")
    target = tmp_path / "map.csv"
    result.to_csv(target)
    assert target.read_bytes() == result.csv_text().encode()
    assert "\r" not in result.csv_text() and result.csv_text().count("\n") == 1 + 9
    result.sum_rate[1, 0] = float("nan")
    with pytest.raises(FloatingPointError, match="column sum_rate_bits of row 4"):
        result.csv_text()
    with pytest.raises(FloatingPointError):
        result.to_csv(tmp_path / "nan.csv")
    assert not (tmp_path / "nan.csv").exists()



def _gains_huge_on_transmitters(scene, points, target):
    """The planted fault: an eavesdropper on a transmitter hears it with gain
    1e300 (as at path_loss_exponent 100), so the pivot quadratic's c2 ** 2
    overflows in those cells."""
    on = (np.asarray(points, dtype=float) == target).all(axis=1)
    return np.where(on, 1e300, real_gains(scene, points, target))


def test_sweep_keeps_failed_cell_messages(monkeypatch):
    """Cells whose solve raises are flagged with the reason the per-cell
    path raises.  The planted gain overflows the solve for an eavesdropper
    on a transmitter, as path_loss_exponent 100 does."""
    monkeypatch.setattr(sweep_module, "_gains", _gains_huge_on_transmitters)
    scene = default_scene()
    result = sweep(scene, BOUNDS, 5, "MAC-CJ")
    _assert_matches_per_cell(result, scene, "MAC-CJ")
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


@pytest.mark.parametrize("mode", ["MAC-CJ", "TW-CJ"])
def test_sweep_cells_whose_gains_do_not_standardize_fail_with_its_message(mode):
    """With tap_noise 1e-300 the standardized eavesdropper gain overflows on
    each transmitter; those cells fail with standardize_*'s ValueError,
    which names the user and the raw fields."""
    scene = Scene(
        transmitter_positions=((-0.5, 0.0), (0.5, 0.0)),
        receiver_position=(0.0, 0.0),
        path_loss_exponent=4,
        tap_noise=1e-300,
    )
    result = sweep(scene, BOUNDS, 5, mode)
    _assert_matches_per_cell(result, scene, mode)
    assert len(result.error_messages) == 2
    for user, message in enumerate(result.error_messages):
        assert f"ValueError: standardized eve gain of user {user + 1} is not finite: tap_gains" in message


_RAW_CAPS = "raw_power_caps [1e+200, 1e+200]"


def _assert_overflow_cells_match_per_cell(scene):
    """Every cell of the MAC sweep equals the per-cell path.  A failed cell
    carries the per-cell path's exception, or, where that path only reports
    infinite raw-domain powers (split_back's p * c / c overflows), an
    OverflowError naming raw_power_caps.  Returns the failed cells' messages."""
    result = sweep(scene, BOUNDS, 5, "MAC-CJ")
    messages = iter(result.error_messages)
    for iy, y in enumerate(result.ys.tolist()):
        for ix, x in enumerate(result.xs.tolist()):
            cell = f"cell (x={x:.12g}, y={y:.12g}): "
            try:
                with np.errstate(over="ignore"):
                    tx, jam, rate, branch = _cell_reference(scene, x, y, "MAC-CJ")
            except Exception as exc:
                assert result.error[iy, ix] and next(messages) == f"{cell}{type(exc).__name__}: {exc}"
                continue
            if result.error[iy, ix]:
                assert not np.isfinite(tx + jam).all()
                raw = f"OverflowError: raw-domain powers overflow with {_RAW_CAPS}"
                assert next(messages) == cell + raw
                continue
            assert np.array_equal(result.tx_power[iy, ix], tx)
            assert np.array_equal(result.jam_power[iy, ix], jam)
            assert result.sum_rate[iy, ix] == rate and result.branch[iy][ix] == branch
    assert next(messages, None) is None
    return result.error_messages


def test_sweep_raw_power_overflow_is_a_failed_cell():
    """With raw_power_caps 1e200, 24 of 25 MAC cells fail: most where the
    winner's pivot quadratic overflows, which mac_cj_optimal refuses naming
    power_caps, the rest where the mapping back to raw powers overflows
    (split_back's p * c / c), which the per-cell path reports as an
    infinite power; the sweep fails those naming raw_power_caps.  Every
    other cell equals the per-cell path."""
    scene = Scene(
        transmitter_positions=((-0.5, 0.0), (0.5, 0.0)),
        receiver_position=(0.0, 0.0),
        raw_power_caps=(1e200, 1e200),
    )
    messages = _assert_overflow_cells_match_per_cell(scene)
    assert len(messages) == 24
    assert any(_RAW_CAPS in m for m in messages) and any("power_caps are too large" in m for m in messages)
    assert not sweep(scene, BOUNDS, 5, "TW-CJ").error.any()


def test_sweep_raw_power_overflow_without_jammers_names_raw_power_caps():
    """An eavesdropper far from both transmitters, behind a path-loss
    exponent of 100, hears next to nothing: in every cell both users
    transmit and no pivot is reported (case no-jam).  At raw_power_caps
    1e200 every MAC cell then fails in the mapping back to raw powers,
    naming raw_power_caps."""
    scene = Scene(
        transmitter_positions=((99.5, 100.0), (100.5, 100.0)),
        receiver_position=(100.0, 100.0),
        raw_power_caps=(1e200, 1e200),
        path_loss_exponent=100,
    )
    messages = _assert_overflow_cells_match_per_cell(scene)
    assert len(messages) == 25 and all(m.endswith(_RAW_CAPS) for m in messages)
    for y in np.linspace(-1.0, 1.0, 5).tolist():
        for x in np.linspace(-1.0, 1.0, 5).tolist():
            sol = mac_cj_optimal(standardize_mac(gains_from_geometry(scene, (x, y), "mac")))
            assert sol.diagnostics["case"] == "no-jam" and sol.pivot_user is None


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


def _cell_reference(scene, x, y, mode):
    """One cell through the public per-cell API: gains_from_geometry, then
    standardize_*, then *_cj_optimal, then the raw-domain power mapping."""
    raw = gains_from_geometry(scene, (x, y), mode)
    tx, jam = np.zeros(2), np.zeros(2)
    if mode == "MAC-CJ":
        std = standardize_mac(raw)
        sol = mac_cj_optimal(std)
        split = std.split_back(sol.allocation.powers)
        for mi, group in enumerate(std.permutation):
            for orig in group:
                power = split[orig] * scene.main_noise / raw.main_gains[orig]
                if mi in sol.transmit_set:
                    tx[orig] = power
                elif mi in sol.jam_set:
                    jam[orig] = power
    else:
        sol = tw_cj_optimal(standardize_tw(raw))
        noises = (scene.receiver_noises[1], scene.receiver_noises[0])
        for u in range(2):
            power = sol.allocation.powers[u] * noises[u] / raw.main_gains[u]
            if u in sol.transmit_set:
                tx[u] = power
            elif u in sol.jam_set:
                jam[u] = power
    return tx, jam, sol.sum_rate, sol.diagnostics["branch"]


def _assert_matches_per_cell(result, scene, mode):
    """Every cell of a sweep equals its per-cell solve exactly (== on floats),
    and a failed cell fails per cell with the same message."""
    messages = []
    for iy, y in enumerate(result.ys.tolist()):
        for ix, x in enumerate(result.xs.tolist()):
            where = f"{mode} cell ({x}, {y})"
            try:
                tx, jam, rate, branch = _cell_reference(scene, x, y, mode)
            except Exception as exc:
                assert result.error[iy, ix], where
                messages.append(f"cell (x={x:.12g}, y={y:.12g}): {type(exc).__name__}: {exc}")
                continue
            assert not result.error[iy, ix], where
            assert np.array_equal(result.tx_power[iy, ix], tx), where
            assert np.array_equal(result.jam_power[iy, ix], jam), where
            assert result.sum_rate[iy, ix] == rate, where
            assert result.branch[iy][ix] == branch, where
    assert result.error_messages == messages


def _moved_scene(seed, **fields):
    """default_scene() with every terminal moved by up to 0.2 per axis."""
    rng = np.random.default_rng(seed)
    moved = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]) + rng.uniform(-0.2, 0.2, (3, 2))
    return Scene(
        transmitter_positions=(tuple(moved[0]), tuple(moved[1])),
        receiver_position=tuple(moved[2]),
        path_loss_exponent=float(rng.uniform(2.0, 4.0)),
        **fields,
    )


# With these caps and noises, merge_tied_users' singleton gain h * c / c moves
# some standardized gains by an ulp, which the default caps and noises never do.
ODD_UNITS = dict(
    raw_power_caps=(1.3, 2.9), main_noise=0.7, tap_noise=1.9, receiver_noises=(0.6, 1.7)
)


# Far from the grid: every eavesdropper gain of transmitter 2 underflows to
# 0, and those of transmitter 1 are about 1e-300.
FAR_FIELD = Scene(
    transmitter_positions=((1000.0, 0.0), (1800.0, 0.0)),
    receiver_position=(1400.0, 0.0),
    path_loss_exponent=100,
)


# path_loss_exponent 100: an eavesdropper near a transmitter overflows the
# pivot quadratic, which fails 8 MAC cells of a 64 x 64 grid
STEEP = Scene(
    transmitter_positions=((-0.5, 0.0), (0.5, 0.0)),
    receiver_position=(0.0, 0.0),
    path_loss_exponent=100,
)


@pytest.mark.parametrize("resolution", [16, 17])
@pytest.mark.parametrize("mode", ["MAC-CJ", "TW-CJ"])
def test_sweep_matches_per_cell_solvers_exactly(mode, resolution):
    """The batched sweep is bit-identical to the per-cell path (== on every
    float, and the same message for a failed cell), tied MAC gains included:
    the x = 0 column of an odd grid on default_scene(), where the two users
    merge into one, with unequal caps to split back under ODD_UNITS."""
    odd = Scene(**{**default_scene().to_json(), **ODD_UNITS})
    runs = [(default_scene(), resolution)] + [(_moved_scene(seed), resolution) for seed in (1, 2, 3)]
    runs += [(_moved_scene(4, **ODD_UNITS), resolution), (FAR_FIELD, resolution), (odd, resolution)]
    if resolution == 17:
        runs += [(STEEP, r) for r in (5, 17, 64)]
    for scene, res in runs:
        result = sweep(scene, BOUNDS, res, mode)
        _assert_matches_per_cell(result, scene, mode)
        assert result.error.any() == (scene is STEEP and mode == "MAC-CJ"), (scene, res)
        if scene.receiver_position == (0.0, 0.0) and scene is not STEEP:
            # default_scene() geometry ties exactly on x = 0, a column of odd grids only
            tied = [
                (x, y)
                for y in result.ys.tolist()
                for x in result.xs.tolist()
                if standardize_mac(gains_from_geometry(scene, (x, y), "MAC-CJ")).k_users == 1
            ]
            assert tied == ([(0.0, y) for y in result.ys.tolist()] if res % 2 else [])
    if resolution == 17 and mode == "MAC-CJ":
        assert int(sweep(STEEP, BOUNDS, 64, mode).error.sum()) == 8


def test_sweep_overflow_cells_fail_loudly_or_beat_a_tiny_jammer():
    """At path_loss_exponent 100 an eavesdropper on a transmitter has gain
    1e300.  Each of those two cells either fails with its OverflowError, or
    reports at least the rate of that transmitter jamming at power 1e-20
    while the other transmits at cap (about 50.5 bits; RATE_TIE_TOL allows
    for the rounding of a different evaluation).  A result such as 49.71
    bits with nobody jamming is wrong and must not pass."""
    tx = ((-0.5, 0.0), (0.5, 0.0))
    scene = Scene(transmitter_positions=tx, receiver_position=(0.0, 0.0), path_loss_exponent=100)
    result = sweep(scene, BOUNDS, 5, "MAC-CJ")
    _assert_matches_per_cell(result, scene, "MAC-CJ")
    iy = int(np.flatnonzero(result.ys == 0.0)[0])
    for user, (x, _) in enumerate(tx):
        ix = int(np.flatnonzero(result.xs == x)[0])
        if result.error[iy, ix]:
            assert any(
                f"x={x:.12g}, y=0" in m and "OverflowError" in m for m in result.error_messages
            )
            continue
        std = standardize_mac(gains_from_geometry(scene, (x, 0.0), "MAC-CJ"))
        jammer = next(mi for mi, group in enumerate(std.permutation) if user in group)
        powers = std.power_caps.copy()
        powers[jammer] = 1e-20
        floor = reference_mac_secrecy_bits(powers, std.eve_gains, [mi for mi in range(std.k_users) if mi != jammer])
        assert floor > 50.0
        assert result.sum_rate[iy, ix] >= floor - RATE_TIE_TOL


def _assert_mac_rows_match_per_cell(eve, caps):
    """_mac_cells on eavesdropper gains ``eve`` with unit main gains and
    noises (so the eavesdropper gains are the standardized ones) equals
    standardize_mac -> mac_cj_optimal -> split_back on every row."""
    scene = Scene(
        transmitter_positions=((-1.0, 0.0), (1.0, 0.0)),
        receiver_position=(0.0, 0.0),
        raw_power_caps=caps,
    )
    tx, jam, rate, branch, faults = sweep_module._mac_cells(scene, np.ones(2), eve)
    assert faults == {}
    for i in range(len(eve)):
        std = standardize_mac(RawMacChannel([1.0, 1.0], eve[i], 1.0, 1.0, caps))
        sol = mac_cj_optimal(std)
        assert rate[i] == sol.sum_rate and branch[i] == sol.diagnostics["branch"], i
        powers = std.split_back(sol.allocation.powers)
        sends = [orig for mi in sol.transmit_set for orig in std.permutation[mi]]
        jams = [orig for mi in sol.jam_set for orig in std.permutation[mi]]
        assert np.array_equal(tx[i], [powers[u] if u in sends else 0.0 for u in range(2)]), i
        assert np.array_equal(jam[i], [powers[u] if u in jams else 0.0 for u in range(2)]), i


def test_mac_batch_settles_tied_finalists():
    """Gains (0.2, 3) at unit caps give two role patterns whose ranking
    rates tie within RATE_TIE_TOL (user 2 jams, or nobody does); the batch
    settles them by the tie rule, as mac_cj_optimal does, in every row."""
    pools = []
    for gains in ([0.2, 3.0], [0.3, 3.0]):
        rates = [rate for _, _, rate, _, _ in reference_ordered_ranking(gains, [1.0, 1.0])]
        pools.append(sum(rate >= max(rates) - RATE_TIE_TOL for rate in rates))
    assert pools == [2, 1]
    _assert_mac_rows_match_per_cell(np.array([[0.2, 3.0], [3.0, 0.2], [0.3, 3.0], [3.0, 0.3]]), (1.0, 1.0))


def test_mac_batch_merges_tied_gains_as_merge_tied_users():
    """Gains within GAIN_MERGE_RTOL merge into one user with the summed cap
    and the cap-weighted mean gain, np.vecdot on each group's C-contiguous
    row in the one merge that merge_tied_users and the sweep share (it
    rounds as np.dot; a hand-written a * b + c * d differs on many rows),
    and its power splits back by caps."""
    rng = np.random.default_rng(31)
    g = rng.uniform(0.05, 3.0, 300)
    eve = np.column_stack([g, g * (1.0 + rng.uniform(-5e-10, 5e-10, 300))])
    assert all(standardize_mac(RawMacChannel([1.0, 1.0], e, 1.0, 1.0, [1.0, 1.0])).k_users == 1 for e in eve)
    _assert_mac_rows_match_per_cell(eve, (1.3, 2.9))


@pytest.mark.parametrize("raw_caps", [(1.3, 2.9, 0.6), (1.3, 0.0, 2.9), (0.0, 0.0, 2.0)])
def test_mac_cells_of_three_users_match_per_cell(raw_caps):
    """_mac_cells on three users, which the sweep's two-transmitter Scene
    never gives it: with odd main gains and noises, every row equals
    standardize_mac -> mac_cj_optimal -> split_back -> raw mapping (== on
    every float, the same label, the same exception), for rows of distinct
    gains, 2- and 3-way ties, zero caps, huge gains, and a standardized
    gain that overflows."""
    rng = np.random.default_rng(37)
    units = SimpleNamespace(raw_power_caps=raw_caps, main_noise=0.7, tap_noise=1.9)
    main = np.array([0.8, 1.7, 0.25])
    gains = [random_tied_mac_row(rng, 3)[0] for _ in range(600)] + [[1e300, 0.5, 2.0], [1e300, 1e300, 3.0]]
    eve = np.vstack([np.array(gains) * main * units.tap_noise / units.main_noise, [1.0, 1.0, 1.5e308]])
    tx, jam, rate, branch, faults = sweep_module._mac_cells(units, main, eve)
    widths = []
    for i, row in enumerate(eve):
        raw = RawMacChannel(main, row, units.main_noise, units.tap_noise, raw_caps)
        try:
            ch = standardize_mac(raw)
            sol = mac_cj_optimal(ch)
        except Exception as exc:
            assert (type(faults[i]), str(faults[i])) == (type(exc), str(exc)), i
            continue
        assert i not in faults, i
        widths.append(ch.k_users)
        assert rate[i] == sol.sum_rate and branch[i] == sol.diagnostics["branch"], i
        split = ch.split_back(sol.allocation.powers)
        want_tx, want_jam = np.zeros(3), np.zeros(3)
        for mi, group in enumerate(ch.permutation):
            for orig in group:
                power = split[orig] * units.main_noise / main[orig]
                if mi in sol.transmit_set:
                    want_tx[orig] = power
                elif mi in sol.jam_set:
                    want_jam[orig] = power
        assert np.array_equal(tx[i], want_tx) and np.array_equal(jam[i], want_jam), i
    assert set(widths) == {1, 2, 3} and len(faults) == len(eve) - len(widths) > 0


@pytest.mark.parametrize("mode", ["MAC-CJ", "TW-CJ"])
def test_sweep_with_no_batched_cell_matches_per_cell(mode):
    """With both transmitters at one point every MAC cell ties, so every
    cell is solved as one merged user; the two-way sweep is unaffected."""
    scene = Scene(transmitter_positions=((0.0, 0.0), (0.0, 0.0)), receiver_position=(1.0, 0.0))
    _assert_matches_per_cell(sweep(scene, BOUNDS, 5, mode), scene, mode)
