"""Geographic sweeps: optimal jamming behavior versus eavesdropper position.

A Scene fixes transmitter/receiver locations and a path-loss law; the
sweep moves a hypothetical eavesdropper over a 2-D grid, derives the raw
channel for each cell, standardizes it, runs the matching
cooperative-jamming optimizer, and records per-user transmit/jam powers
(mapped back to raw-domain watts) plus the secrecy sum rate.

Conditions that fail every cell (see sweep) raise a ValueError before
any cell runs.  The grid is then solved as arrays, 2,048 cells per pass
on the calling thread: the gains (_gains, the one path-loss law), then
standardization, the MAC role ranking and winner evaluation
(``jamming._finalists`` and ``jamming._evaluate_patterns``, which
mac_cj_optimal calls with a batch of one), or the two-way rule
(``jamming._tw_cj_rule``), then the raw-domain mapping.  Each step repeats
the per-cell path's floating-point operations in the same order
(logarithms through math.log1p), so every cell equals gains_from_geometry
-> standardize_* -> *_cj_optimal bit for bit.  A cell the batch cannot
show to be equal takes that per-cell route instead, which also reports
its failure: two MAC gains that tie and merge into one user, a MAC cell
with more than one finalist, and any non-finite gain, coefficient,
discriminant, root, rate or power.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
import sys
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .channels import (
    RawMacChannel,
    RawTwChannel,
    _tied_neighbors,
    standardize_mac,
    standardize_tw,
    to_jsonable,
)
from .jamming import (
    TW_BRANCHES,
    _evaluate_patterns,
    _finalists,
    _tw_cj_rule,
    mac_cj_optimal,
    tw_cj_optimal,
)

SWEEP_COLUMNS = ("x", "y", "p1_tx", "p2_tx", "p1_jam", "p2_jam", "sum_rate_bits", "branch")

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Cells per batched pass.  It bounds a pass's temporaries on any grid: a
# 64 x 64 sweep raises peak memory by about 2 MB in passes of 2,048 cells
# and 5 MB in one pass of 4,096, and a 512 x 512 grid in one pass by 430 MB.
_BLOCK = 2048

MODE_MAC = "MAC-CJ"
MODE_TW = "TW-CJ"
_MODE_ALIASES = {
    "mac-cj": MODE_MAC,
    "mac": MODE_MAC,
    "tw-cj": MODE_TW,
    "tw": MODE_TW,
}


def _normalize_mode(mode: str) -> str:
    key = str(mode).strip().lower()
    if key not in _MODE_ALIASES:
        raise ValueError(f"unknown sweep mode {mode!r}; use {MODE_MAC} or {MODE_TW}")
    return _MODE_ALIASES[key]


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
        # The largest gain is at distance_floor; _gains raises computing
        # distance_floor ** -path_loss_exponent beyond the float range.
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
    ``points``, with math.hypot and ``**`` per element (np.hypot and
    np.power may differ from them by an ulp); far points underflow to 0."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    dx, dy = (target[0] - points[:, 0]).tolist(), (target[1] - points[:, 1]).tolist()
    d = np.maximum(np.fromiter(map(math.hypot, dx, dy), float, len(dx)), scene.distance_floor)
    power = list(map(pow, d.tolist(), repeat(-scene.path_loss_exponent)))
    return scene.reference_gain * np.array(power)


def gains_from_geometry(scene: Scene, eve_position, mode: Optional[str] = None):
    """Raw channel for an eavesdropper location under the scene's path loss.

    ``mode`` picks the channel model ("mac" or "tw"); by default MAC when
    the scene has a receiver, two-way otherwise.
    """
    eve = (float(eve_position[0]), float(eve_position[1]))
    if not all(math.isfinite(c) for c in eve):
        raise ValueError("eve_position must be finite")
    if mode is None:
        mode = MODE_MAC if scene.receiver_position is not None else MODE_TW
    mode = _normalize_mode(mode)
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
        """Write a SWEEP_COLUMNS header and one row per cell, floats to 12 digits."""
        own = isinstance(target, (str, os.PathLike))
        handle = open(target, "w", newline="") if own else target
        try:
            writer = csv.writer(handle)
            writer.writerow(SWEEP_COLUMNS)
            for *values, branch in self.rows():
                writer.writerow([f"{v:.12g}" for v in values] + [branch])
        finally:
            if own:
                handle.close()

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def metadata_json(self) -> Dict:
        return to_jsonable(self.metadata)


def _solve_mac_cell(scene: Scene, x: float, y: float) -> tuple:
    raw = gains_from_geometry(scene, (x, y), MODE_MAC)
    std = standardize_mac(raw)
    sol = mac_cj_optimal(std)
    split = std.split_back(sol.allocation.powers)
    tx = np.zeros(2)
    jam = np.zeros(2)
    for mi, group in enumerate(std.permutation):
        if mi in sol.transmit_set:
            bucket = tx
        elif mi in sol.jam_set:
            bucket = jam
        else:
            continue
        for orig in group:
            bucket[orig] = split[orig] * scene.main_noise / raw.main_gains[orig]
    return tx, jam, sol.sum_rate, sol.diagnostics["branch"]


def _solve_tw_cell(scene: Scene, x: float, y: float) -> tuple:
    raw = gains_from_geometry(scene, (x, y), MODE_TW)
    std = standardize_tw(raw)
    sol = tw_cj_optimal(std)
    noises = (scene.receiver_noises[1], scene.receiver_noises[0])
    tx = np.zeros(2)
    jam = np.zeros(2)
    for u in range(2):
        raw_p = sol.allocation.powers[u] * noises[u] / raw.main_gains[u]
        if u in sol.transmit_set:
            tx[u] = raw_p
        elif u in sol.jam_set:
            jam[u] = raw_p
    return tx, jam, sol.sum_rate, sol.diagnostics["branch"]


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
        with np.errstate(all="ignore"):  # the cross gain, self gains and caps of every cell
            standardize_tw(RawTwChannel(main, np.zeros(2), noises, scene.tap_noise, caps))
    except ValueError as exc:
        raise ValueError(
            f"no cell of a two-way sweep standardizes with transmitter_positions "
            f"{[list(t) for t in transmitters]} (cross gain {main[0].tolist()}), receiver_noises "
            f"{noises}, tap_noise {scene.tap_noise!r} and raw_power_caps {caps}: {exc}"
        ) from exc
    return main


# two-user MAC branch labels, indexed 3 t + (pivot + 1, or 0 without jammers),
# then all-silent
_MAC_LABELS = [f"T={t},J={j}" for t in range(3) for j in ("none", "1", "2")] + ["all-silent"]
_MAC_SILENT = len(_MAC_LABELS) - 1


def _mac_cells(scene: Scene, main: np.ndarray, eve: np.ndarray) -> tuple:
    """_solve_mac_cell for every row of the (N, 2) eavesdropper gains at
    once, given the two positive main gains of _main_gains.

    Each step repeats the per-cell floating-point operations in their
    order: standardize_mac's h and caps, merge_tied_users' sort and
    singleton gain h * c / c, _finalists over the whole batch, then
    _evaluate_patterns, mac_cj_optimal's own evaluator, for the winner, then
    split_back and the raw-domain mapping.  Returns tx, jam, rate, branch
    labels and the mask of the rows solved.  The other rows take the
    per-cell route: rows whose gains tie before or after the merge (the two
    users become one), have a non-finite gain, more or fewer than one
    finalist, or a non-finite coefficient, rate or power.
    """
    n = len(eve)
    tx, jam, rate = np.zeros((n, 2)), np.zeros((n, 2)), np.zeros(n)
    labels = np.full(n, _MAC_SILENT)
    solved = np.zeros(n, dtype=bool)
    mn, tn = float(scene.main_noise), float(scene.tap_noise)
    caps = main * np.asarray(scene.raw_power_caps, dtype=float) / mn
    with np.errstate(all="ignore"):
        h = eve * mn / (main * tn)
        # merge_tied_users: a stable sort of each pair, and each singleton's gain h * c / c
        perm = np.where((h[:, 0] > h[:, 1])[:, None], [1, 0], [0, 1])
        h, caps, main = np.take_along_axis(h, perm, axis=1), caps[perm], main[perm]
        gains = np.where(caps > 0, h * caps / caps, h)
        untied = ~_tied_neighbors(h)[:, 0] & ~_tied_neighbors(gains)[:, 0]
        # mac_cj_optimal, for the cells with a single finalist
        cells = np.flatnonzero(np.isfinite(gains).all(axis=1) & untied)
        finalists = _finalists(gains[cells], caps[cells]).reshape(len(cells), 9)
        single = finalists.sum(axis=1) == 1
        cells = cells[single]
        t, p = np.divmod(np.argmax(finalists[single], axis=1), 3)
        powers, r, ok, _, _ = _evaluate_patterns(gains[cells], caps[cells], t, p)
        # _partition_solution, split_back and the raw-domain mapping
        users = np.arange(2)
        active = (powers > 0) & (r > 0.0)[:, None]
        sends, jams = active & (users < t[:, None]), active & (users >= p[:, None])
        c = caps[cells]
        raw = np.where(c > 0, powers * c / c, 0.0) * mn / main[cells]
    ok &= np.isfinite(raw).all(axis=1)
    cells = cells[ok]
    back = perm[cells]  # each sort is its own inverse
    tx[cells] = np.take_along_axis(np.where(sends, raw, 0.0)[ok], back, axis=1)
    jam[cells] = np.take_along_axis(np.where(jams, raw, 0.0)[ok], back, axis=1)
    rate[cells] = r[ok]
    code = np.where(r > 0.0, 3 * t + np.where(jams.any(axis=1), p + 1, 0), _MAC_SILENT)
    labels[cells] = code[ok]
    solved[cells] = True
    return tx, jam, rate, [_MAC_LABELS[i] for i in labels.tolist()], solved


def _tw_cells(scene: Scene, main: np.ndarray, eve: np.ndarray) -> tuple:
    """_solve_tw_cell for every row of the (N, 2) eavesdropper gains at once,
    given the cross gains of _main_gains: standardize_tw's formulas,
    _tw_cj_rule and the raw-domain mapping, in the per-cell operation
    order.  Returns tx, jam, rate, branch labels and the mask of the rows
    solved; rows with a non-finite gain, rate or power take the per-cell
    route.
    """
    n = len(eve)
    tx, jam, rate = np.zeros((n, 2)), np.zeros((n, 2)), np.zeros(n)
    labels = np.full(n, len(TW_BRANCHES) - 1)
    solved = np.zeros(n, dtype=bool)
    # terminal u is heard at the other terminal's receiver
    noise = np.asarray(scene.receiver_noises, dtype=float)[::-1]
    caps = main * np.asarray(scene.raw_power_caps, dtype=float) / noise
    with np.errstate(all="ignore"):
        h = eve * noise / (main * float(scene.tap_noise))
    cells = np.flatnonzero(np.isfinite(h).all(axis=1))
    powers, sends, jams, r, branch, _, _ = _tw_cj_rule(
        h[cells], np.broadcast_to(caps, (len(cells), 2))
    )
    with np.errstate(all="ignore"):
        raw = powers * noise / main
    ok = np.isfinite(r) & np.isfinite(raw).all(axis=1)
    cells = cells[ok]
    tx[cells] = np.where(sends, raw, 0.0)[ok]
    jam[cells] = np.where(jams, raw, 0.0)[ok]
    rate[cells] = r[ok]
    labels[cells] = branch[ok]
    solved[cells] = True
    return tx, jam, rate, [TW_BRANCHES[i] for i in labels.tolist()], solved


def sweep(scene: Scene, grid_bounds, resolution: int, mode: str) -> SweepResult:
    """Run the cooperative-jamming optimizer over an eavesdropper grid.

    Args:
        scene: geometry and channel parameters.
        grid_bounds: (xmin, xmax, ymin, ymax) of the eavesdropper area.
        resolution: points per axis, at least 2.
        mode: "MAC-CJ" or "TW-CJ".

    Returns:
        SweepResult with per-cell raw-domain powers, rates and branch
        labels.  A cell whose solve raises is recorded as zero powers,
        zero rate and branch "error"; it is flagged in ``error`` and its
        message, naming the cell's (x, y), is kept in ``error_messages``.

    Raises:
        ValueError: naming the field, before any cell runs, where every
            cell would fail: grid_bounds or their span not finite, a MAC
            scene with no receiver_position, a zero main gain or a
            standardized cap that overflows, a two-way scene with a zero
            cross gain or a channel that cannot standardize.

    The cells are solved in batched passes (see the module docstring) and
    equal the per-cell solvers bit for bit; the cells a pass leaves
    unsolved (ties, overflow) are then solved one at a time, in row order,
    by the per-cell path.
    """
    mode = _normalize_mode(mode)
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    bounds = [float(v) for v in grid_bounds]
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
    if mode == MODE_MAC:
        solve_cells, solve = _mac_cells, _solve_mac_cell
    else:
        solve_cells, solve = _tw_cells, _solve_tw_cell
    eve = np.column_stack([_gains(scene, points, t) for t in scene.transmitter_positions])
    tx, jam, rate = np.zeros((n, 2)), np.zeros((n, 2)), np.zeros(n)
    solved = np.zeros(n, dtype=bool)
    branch = []
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        tx[block], jam[block], rate[block], labels, solved[block] = solve_cells(
            scene, main, eve[block]
        )
        branch += labels
    error = np.zeros(n, dtype=bool)
    messages = []
    for i in np.flatnonzero(~solved).tolist():
        x, y = points[i].tolist()
        try:
            tx[i], jam[i], rate[i], branch[i] = solve(scene, x, y)
        except Exception as exc:  # a failed cell stays zero and is flagged
            tx[i], jam[i], rate[i] = 0.0, 0.0, 0.0
            error[i] = True
            branch[i] = "error"
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
