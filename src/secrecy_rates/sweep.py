"""Geographic sweeps: optimal jamming behavior versus eavesdropper position.

A Scene fixes transmitter/receiver locations and a path-loss law; the
sweep moves a hypothetical eavesdropper over a 2-D grid, derives the raw
channel for each cell, standardizes it, runs the matching
cooperative-jamming optimizer, and records per-user transmit/jam powers
(mapped back to raw-domain watts) plus the secrecy sum rate.  Cells are
evaluated in order, row by row, on the calling thread.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .channels import (
    RawMacChannel,
    RawTwChannel,
    standardize_mac,
    standardize_tw,
    to_jsonable,
)
from .jamming import mac_cj_optimal, tw_cj_optimal

SWEEP_COLUMNS = ("x", "y", "p1_tx", "p2_tx", "p1_jam", "p2_jam", "sum_rate_bits", "branch")

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

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
        # The largest gain is at distance_floor; _gain raises computing
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
        return to_jsonable(
            {
                "transmitter_positions": [list(p) for p in self.transmitter_positions],
                "receiver_position": None
                if self.receiver_position is None
                else list(self.receiver_position),
                "path_loss_exponent": self.path_loss_exponent,
                "reference_gain": self.reference_gain,
                "raw_power_caps": list(self.raw_power_caps),
                "main_noise": self.main_noise,
                "receiver_noises": list(self.receiver_noises),
                "tap_noise": self.tap_noise,
                "distance_floor": self.distance_floor,
            }
        )


def default_scene() -> Scene:
    """Two transmitters half a unit either side of a receiver at the origin."""
    return Scene(
        transmitter_positions=((-0.5, 0.0), (0.5, 0.0)),
        receiver_position=(0.0, 0.0),
    )


def _gain(scene: Scene, a: Sequence[float], b: Sequence[float]) -> float:
    d = math.hypot(a[0] - b[0], a[1] - b[1])
    d = max(d, scene.distance_floor)
    return scene.reference_gain * d ** (-scene.path_loss_exponent)


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
    t1, t2 = scene.transmitter_positions
    tap_gains = np.array([_gain(scene, t1, eve), _gain(scene, t2, eve)])
    if mode == MODE_MAC:
        if scene.receiver_position is None:
            raise ValueError("scene has no receiver_position for a MAC sweep")
        rx = scene.receiver_position
        main_gains = np.array([_gain(scene, t1, rx), _gain(scene, t2, rx)])
        return RawMacChannel(
            main_gains,
            tap_gains,
            scene.main_noise,
            scene.tap_noise,
            np.asarray(scene.raw_power_caps, dtype=float),
        )
    cross = _gain(scene, t1, t2)
    return RawTwChannel(
        np.array([cross, cross]),
        tap_gains,
        np.asarray(scene.receiver_noises, dtype=float),
        scene.tap_noise,
        np.asarray(scene.raw_power_caps, dtype=float),
    )


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
    """
    mode = _normalize_mode(mode)
    resolution = int(resolution)
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    xmin, xmax, ymin, ymax = (float(v) for v in grid_bounds)
    if not (xmax > xmin and ymax > ymin):
        raise ValueError("grid_bounds must satisfy xmax > xmin and ymax > ymin")
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    solve = _solve_mac_cell if mode == MODE_MAC else _solve_tw_cell
    tx = np.zeros((resolution, resolution, 2))
    jam = np.zeros((resolution, resolution, 2))
    rate = np.zeros((resolution, resolution))
    branch = [["" for _ in range(resolution)] for _ in range(resolution)]
    error = np.zeros((resolution, resolution), dtype=bool)
    messages = []
    for iy, y in enumerate(ys.tolist()):
        for ix, x in enumerate(xs.tolist()):
            try:
                tx[iy, ix], jam[iy, ix], rate[iy, ix], branch[iy][ix] = solve(scene, x, y)
            except Exception as exc:  # a failed cell stays zero and is flagged
                error[iy, ix] = True
                branch[iy][ix] = "error"
                messages.append(f"cell (x={x:.12g}, y={y:.12g}): {type(exc).__name__}: {exc}")
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
