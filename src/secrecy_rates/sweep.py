"""Geographic sweeps: optimal jamming behavior versus eavesdropper position.

A Scene fixes transmitter/receiver locations and a path-loss law; the
sweep moves a hypothetical eavesdropper over a 2-D grid, derives the raw
channel for each cell, standardizes it, runs the matching
cooperative-jamming optimizer, and records per-user transmit/jam powers
(mapped back to raw-domain watts) plus the secrecy sum rate.

Conditions that fail every cell (see sweep) raise a ValueError before
any cell runs.  The grid is then solved as arrays, 2,048 cells per pass
on the calling thread, through the per-cell path's own array code: the
gains (_gains, the one path-loss law, np.hypot and np.power over the
whole grid); standardization, with the MAC tie-merge of merge_tied_users;
the solve (the one jamming pass ``jamming._mac_cj_batch``, which rates
every role pattern by channels.secrecy_bits and reports the winner's
entry, and which mac_cj_optimal calls with a batch of one, or the two-way
rule ``jamming._tw_cj_rule``) and its roles; the split of split_back and the
raw-domain mapping.  So every cell equals gains_from_geometry ->
standardize_* -> *_cj_optimal bit for bit, and a failed cell records the
exception that path raises.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .channels import (
    _MAC_GAIN,
    _TW_GAIN,
    RawMacChannel,
    RawTwChannel,
    _csv_table,
    _merge_groups,
    _not_finite_error,
    _split_power,
    _tie_groups,
    standardize_tw,
    to_jsonable,
)
from .jamming import _FAILURES, TW_BRANCHES, _mac_cj_batch, _mac_roles, _tw_cj_rule

SWEEP_COLUMNS = ("x", "y", "p1_tx", "p2_tx", "p1_jam", "p2_jam", "sum_rate_bits", "branch")

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Cells per batched pass.  It bounds a pass's temporaries on any grid: a
# 64 x 64 sweep raises peak memory by about 2 MB in passes of 2,048 cells
# and 5 MB in one pass of 4,096, and a 512 x 512 grid in one pass by 430 MB.
_BLOCK = 2048

MODE_MAC = "MAC-CJ"
MODE_TW = "TW-CJ"


def _check_mode(mode: str) -> None:
    if mode not in (MODE_MAC, MODE_TW):
        raise ValueError(f"unknown sweep mode {mode!r}; use {MODE_MAC} or {MODE_TW}")


def _is_finite_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _finite_pair(values, name: str) -> tuple:
    pair = tuple(values) if isinstance(values, (list, tuple, np.ndarray)) else ()
    if len(pair) != 2 or not all(_is_finite_number(v) for v in pair):
        raise ValueError(f"{name} must be exactly two finite numbers, got {values!r}")
    return pair


@dataclass
class Scene:
    """Fixed geometry, path-loss law, and power/noise parameters.

    ``receiver_position`` is the MAC receiver; two-way sweeps ignore it
    (the transmitters are each other's receivers).  Gains follow
    reference_gain * max(d, distance_floor) ** (-path_loss_exponent).
    """

    transmitter_positions: Tuple[Tuple[float, float], Tuple[float, float]]
    receiver_position: Optional[Tuple[float, float]] = None
    path_loss_exponent: float = 2.0
    reference_gain: float = 1.0
    raw_power_caps: Tuple[float, float] = (2.0, 2.0)
    main_noise: float = 1.0
    receiver_noises: Tuple[float, float] = (1.0, 1.0)
    tap_noise: float = 1.0
    distance_floor: float = 1e-3

    def __post_init__(self):
        positions = self.transmitter_positions
        if not isinstance(positions, (list, tuple, np.ndarray)) or len(positions) != 2:
            raise ValueError(f"transmitter_positions must be exactly two positions, got {positions!r}")
        self.transmitter_positions = tuple(
            tuple(float(c) for c in _finite_pair(p, "transmitter_positions")) for p in positions
        )
        if self.receiver_position is not None:
            self.receiver_position = tuple(
                float(c) for c in _finite_pair(self.receiver_position, "receiver_position")
            )
        for name in ("path_loss_exponent", "reference_gain", "distance_floor", "main_noise", "tap_noise"):
            value = getattr(self, name)
            if not (_is_finite_number(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        # The largest gain is at distance_floor; beyond the float range
        # _gains' distance_floor ** -path_loss_exponent would be inf.
        log_power = -self.path_loss_exponent * math.log(self.distance_floor)
        if max(log_power, log_power + math.log(self.reference_gain)) >= _LOG_FLOAT_MAX:
            raise ValueError(
                f"path_loss_exponent {self.path_loss_exponent!r} overflows the gain "
                f"reference_gain * distance_floor ** -path_loss_exponent "
                f"(reference_gain {self.reference_gain!r}, distance_floor {self.distance_floor!r})"
            )
        self.raw_power_caps = _finite_pair(self.raw_power_caps, "raw_power_caps")
        if min(self.raw_power_caps) < 0:
            raise ValueError(f"raw_power_caps must be nonnegative, got {list(self.raw_power_caps)}")
        self.receiver_noises = _finite_pair(self.receiver_noises, "receiver_noises")
        if min(self.receiver_noises) <= 0:
            raise ValueError(f"receiver_noises must be positive, got {list(self.receiver_noises)}")

    def to_json(self) -> Dict:
        return to_jsonable(asdict(self))


def default_scene() -> Scene:
    """Two transmitters half a unit either side of a receiver at the origin."""
    return Scene(
        transmitter_positions=((-0.5, 0.0), (0.5, 0.0)),
        receiver_position=(0.0, 0.0),
    )


def _gains(scene: Scene, points, target) -> np.ndarray:
    """The scene's path-loss gain from ``target`` to each of the (N, 2)
    ``points``, by np.hypot and np.power over the whole array; far points
    underflow to 0, as do those whose distance overflows."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    with np.errstate(over="ignore"):
        dx, dy = target[0] - points[:, 0], target[1] - points[:, 1]
        d = np.maximum(np.hypot(dx, dy), scene.distance_floor)
    return scene.reference_gain * np.power(d, -scene.path_loss_exponent)


def gains_from_geometry(scene: Scene, eve_position, mode: Optional[str] = None):
    """Raw channel for an eavesdropper location under the scene's path loss.

    ``mode`` picks the channel model, MODE_MAC ("MAC-CJ") or MODE_TW
    ("TW-CJ"); by default MAC when the scene has a receiver, two-way
    otherwise.
    """
    eve = (float(eve_position[0]), float(eve_position[1]))
    if not all(math.isfinite(c) for c in eve):
        raise ValueError("eve_position must be finite")
    if mode is None:
        mode = MODE_MAC if scene.receiver_position is not None else MODE_TW
    _check_mode(mode)
    transmitters, caps = scene.transmitter_positions, np.asarray(scene.raw_power_caps, dtype=float)
    tap_gains = _gains(scene, transmitters, eve)
    if mode == MODE_TW:
        cross = np.repeat(_gains(scene, transmitters[1:], transmitters[0]), 2)
        noises = np.asarray(scene.receiver_noises, dtype=float)
        return RawTwChannel(cross, tap_gains, noises, scene.tap_noise, caps)
    if scene.receiver_position is None:
        raise ValueError("scene has no receiver_position for a MAC sweep")
    main = _gains(scene, transmitters, scene.receiver_position)
    return RawMacChannel(main, tap_gains, scene.main_noise, scene.tap_noise, caps)


@dataclass
class SweepResult:
    """Grid of per-cell optimal powers (raw domain) and secrecy sum rates.

    ``error`` flags the cells whose solve raised; ``error_messages`` holds
    one message per flagged cell, in row order, naming the cell's (x, y).
    """

    xs: np.ndarray
    ys: np.ndarray
    tx_power: np.ndarray
    jam_power: np.ndarray
    sum_rate: np.ndarray
    branch: List[List[str]]
    error: np.ndarray
    mode: str
    scene: Scene
    metadata: Dict = field(default_factory=dict)
    error_messages: List[str] = field(default_factory=list)

    def rows(self) -> Iterator[tuple]:
        """Yield one row per cell, y-major, with the fields of SWEEP_COLUMNS."""
        for iy, y in enumerate(self.ys.tolist()):
            for ix, x in enumerate(self.xs.tolist()):
                tx = self.tx_power[iy, ix].tolist()
                jam = self.jam_power[iy, ix].tolist()
                rate = float(self.sum_rate[iy, ix])
                yield (x, y, tx[0], tx[1], jam[0], jam[1], rate, self.branch[iy][ix])

    def to_csv(self, target) -> None:
        """Write csv_text to a path or an open text file."""
        text = self.csv_text()
        if isinstance(target, (str, os.PathLike)):
            with open(target, "w", newline="") as handle:
                handle.write(text)
        else:
            target.write(text)

    def csv_text(self) -> str:
        """A SWEEP_COLUMNS header and one row per cell, by channels._csv_table."""
        return _csv_table(SWEEP_COLUMNS, self.rows())

    def metadata_json(self) -> Dict:
        return to_jsonable(self.metadata)


def _main_gains(scene: Scene, mode: str) -> np.ndarray:
    """The raw main gains every cell shares: the transmitters to the MAC
    receiver, or the cross gain twice.  Raises the ValueErrors of sweep."""
    transmitters = scene.transmitter_positions
    if mode == MODE_MAC:
        rx = scene.receiver_position
        if rx is None:
            raise ValueError("scene has no receiver_position for a MAC sweep")
        main = _gains(scene, transmitters, rx)
        if not (main > 0).all():
            raise ValueError(
                f"receiver_position {list(rx)} gives main gains {main.tolist()}; both must be > 0"
            )
        with np.errstate(all="ignore"):  # the standardized caps of every cell
            caps = main * np.asarray(scene.raw_power_caps, dtype=float) / float(scene.main_noise)
        if not np.isfinite(caps).all():
            raise ValueError(
                f"raw_power_caps {list(scene.raw_power_caps)} and main_noise {scene.main_noise!r} "
                f"give standardized caps {caps.tolist()} (main gains {main.tolist()}); both must be finite"
            )
        return main
    main = np.repeat(_gains(scene, transmitters[1:], transmitters[0]), 2)
    noises, caps = list(scene.receiver_noises), list(scene.raw_power_caps)
    try:
        with np.errstate(all="ignore"):  # the cross gain and caps of every cell
            standardize_tw(RawTwChannel(main, np.zeros(2), noises, scene.tap_noise, caps))
    except ValueError as exc:
        raise ValueError(
            f"no cell of a two-way sweep standardizes with transmitter_positions "
            f"{[list(t) for t in transmitters]} (cross gain {main[0].tolist()}), receiver_noises "
            f"{noises}, tap_noise {scene.tap_noise!r} and raw_power_caps {caps}: {exc}"
        ) from exc
    return main


def _mac_cells(scene: Scene, main: np.ndarray, eve: np.ndarray) -> tuple:
    """The per-cell path (gains_from_geometry -> standardize_mac ->
    mac_cj_optimal -> split_back -> raw-domain powers) for every row of the
    (N, K) eavesdropper gains, given the positive main gains of _main_gains.

    The rows go through the code of that path, as arrays: standardize_mac's
    h and caps; the tie-merge of merge_tied_users (_tie_groups and
    _merge_groups); _mac_cj_batch once per merged width; the roles and
    labels of _partition_solution (_mac_roles); the split of split_back
    (_split_power); the raw mapping.  Returns tx, jam, rate, branch labels
    and, by row, the first exception of the path: a standardized or merged
    gain or cap that is not finite, or the _FAILURES entry of the batch's
    status, which mac_cj_optimal raises.
    """
    n, k = eve.shape
    mn, tn = float(scene.main_noise), float(scene.tap_noise)
    caps = main * np.asarray(scene.raw_power_caps, dtype=float) / mn
    with np.errstate(all="ignore"):
        std = eve * mn / (main * tn)
        order, h, first = _tie_groups(std)
        caps = caps[order]
        gains, group_caps = _merge_groups(h.ravel(), caps.ravel(), np.append(first, True).nonzero()[0])
        # each sorted user's merged user, and each row's merged width
        group = np.cumsum(first).reshape(n, k) - 1
        width = first.sum(axis=1)
        power, sends, jams = np.zeros(len(gains)), np.zeros(len(gains), bool), np.zeros(len(gains), bool)
        rate, status, branch = np.zeros(n), np.zeros(n, dtype=int), np.empty(n, dtype=object)
        for w in set(width.tolist()):
            rows = np.flatnonzero(width == w)
            merged = group[rows, :1] + np.arange(w)
            solved = _mac_cj_batch(gains[merged], group_caps[merged])
            t, p, power[merged], rate[rows], _, _, status[rows] = solved
            sends[merged], jams[merged], branch[rows] = _mac_roles(t, p, power[merged], rate[rows])
        raw = _split_power(power[group], caps, group_caps[group]) * mn / main[order]
    # StdMacChannel's checks of the merged channel
    bad_gains = ~np.isfinite(gains[group]).all(axis=1)
    bad_caps = ~np.isfinite(group_caps[group]).all(axis=1)
    tx, jam = np.zeros((n, k)), np.zeros((n, k))
    np.put_along_axis(tx, order, np.where(sends[group], raw, 0.0), axis=1)
    np.put_along_axis(jam, order, np.where(jams[group], raw, 0.0), axis=1)
    bad_std = ~np.isfinite(std).all(axis=1)
    faults = {}
    for i in np.flatnonzero(bad_std | bad_gains | bad_caps | (status > 0)).tolist():
        if bad_std[i]:
            faults[i] = _not_finite_error(_MAC_GAIN, std[i], eve[i], mn, main, tn)
        elif bad_gains[i] or bad_caps[i]:
            faults[i] = ValueError(f"{'eve_gains' if bad_gains[i] else 'power_caps'} must be finite")
        else:
            error, message = _FAILURES[status[i]]
            faults[i] = error(message)
    return tx, jam, rate, branch.tolist(), faults


def _tw_cells(scene: Scene, main: np.ndarray, eve: np.ndarray) -> tuple:
    """The per-cell path (gains_from_geometry -> standardize_tw ->
    tw_cj_optimal -> raw-domain powers) for every row of the (N, 2)
    eavesdropper gains, given the cross gains of _main_gains, in the
    per-cell operation order.  Returns tx, jam, rate, branch labels and, by
    row, the exception of a standardized gain that is not finite.
    """
    # terminal u is heard at the other terminal's receiver
    noise = np.asarray(scene.receiver_noises, dtype=float)[::-1]
    caps = main * np.asarray(scene.raw_power_caps, dtype=float) / noise
    tn = float(scene.tap_noise)
    with np.errstate(all="ignore"):
        h = eve * noise / (main * tn)
        powers, sends, jams, rate, branch, _, _ = _tw_cj_rule(h, np.broadcast_to(caps, h.shape))
        raw = powers * noise / main
    rows = np.flatnonzero(~np.isfinite(h).all(axis=1)).tolist()
    faults = {i: _not_finite_error(_TW_GAIN, h[i], eve[i], noise, main, tn) for i in rows}
    tx, jam = np.where(sends, raw, 0.0), np.where(jams, raw, 0.0)
    return tx, jam, rate, [TW_BRANCHES[i] for i in branch.tolist()], faults


def sweep(scene: Scene, grid_bounds, resolution: int, mode: str) -> SweepResult:
    """Run the cooperative-jamming optimizer over an eavesdropper grid.

    Args:
        scene: geometry and channel parameters.
        grid_bounds: (xmin, xmax, ymin, ymax) of the eavesdropper area.
        resolution: points per axis, at least 2.
        mode: "MAC-CJ" or "TW-CJ".

    Returns:
        SweepResult with per-cell raw-domain powers, rates and branch
        labels, equal to the per-cell path bit for bit (see the module
        docstring).  A cell whose solve raises, or whose raw-domain power
        overflows, is recorded as zero powers, zero rate and branch
        "error"; it is flagged in ``error`` and its message, naming the
        cell's (x, y), is kept in ``error_messages``.

    Raises:
        ValueError: naming the field, before any cell runs, where every
            cell would fail: grid_bounds not four numbers, or they or their
            span not finite, a resolution that is not an integer, a MAC
            scene with no receiver_position, a zero main gain or a
            standardized cap that overflows, a two-way scene with a zero
            cross gain or a channel that cannot standardize.
    """
    _check_mode(mode)
    if not isinstance(resolution, numbers.Integral):
        raise ValueError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    try:
        bounds = [float(v) for v in grid_bounds]
    except (TypeError, ValueError):
        bounds = []
    if len(bounds) != 4:
        raise ValueError(f"grid_bounds must be four numbers (xmin, xmax, ymin, ymax), got {grid_bounds!r}")
    xmin, xmax, ymin, ymax = bounds
    if not all(map(math.isfinite, bounds + [xmax - xmin, ymax - ymin])):
        raise ValueError(f"grid_bounds and their span must be finite, got {bounds}")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("grid_bounds must satisfy xmax > xmin and ymax > ymin")
    main = _main_gains(scene, mode)
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    points = np.column_stack([np.tile(xs, resolution), np.repeat(ys, resolution)])
    n = len(points)
    solve_cells = _mac_cells if mode == MODE_MAC else _tw_cells
    eve = np.column_stack([_gains(scene, points, t) for t in scene.transmitter_positions])
    tx, jam, rate = np.zeros((n, 2)), np.zeros((n, 2)), np.zeros(n)
    branch, faults = [], {}
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        tx[block], jam[block], rate[block], labels, failed = solve_cells(scene, main, eve[block])
        branch += labels
        faults.update((lo + i, exc) for i, exc in failed.items())
    # the per-cell path would report these powers as infinite
    overflow = f"raw-domain powers overflow with raw_power_caps {list(scene.raw_power_caps)}"
    for i in np.flatnonzero(~np.isfinite(tx + jam).all(axis=1)).tolist():
        faults.setdefault(i, OverflowError(overflow))
    error = np.zeros(n, dtype=bool)
    messages = []
    for i, exc in sorted(faults.items()):  # a failed cell is zero and flagged
        x, y = points[i].tolist()
        tx[i], jam[i], rate[i], branch[i], error[i] = 0.0, 0.0, 0.0, "error", True
        messages.append(f"cell (x={x:.12g}, y={y:.12g}): {type(exc).__name__}: {exc}")
    shape = (resolution, resolution)
    tx, jam = tx.reshape(shape + (2,)), jam.reshape(shape + (2,))
    rate, error = rate.reshape(shape), error.reshape(shape)
    branch = [branch[i : i + resolution] for i in range(0, len(branch), resolution)]
    from . import __version__

    metadata = {
        "scene": scene.to_json(),
        "path_loss_exponent": scene.path_loss_exponent,
        "resolution": resolution,
        "mode": mode,
        "grid_bounds": [xmin, xmax, ymin, ymax],
        "distance_floor": scene.distance_floor,
        "library_version": __version__,
    }
    return SweepResult(xs, ys, tx, jam, rate, branch, error, mode, scene, metadata, messages)
