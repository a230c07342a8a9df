"""Geographic sweeps: optimal jamming behavior versus eavesdropper position.

A Scene fixes transmitter/receiver locations and a path-loss law; the
sweep moves a hypothetical eavesdropper over a 2-D grid, derives the raw
channel for each cell, standardizes it, runs the matching
cooperative-jamming optimizer, and records per-user transmit/jam powers
(mapped back to raw-domain watts) plus the secrecy sum rate.  Cells are
independent and evaluated in parallel with ordered, deterministic
assembly.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channels import (
    RawMacChannel,
    RawTwChannel,
    canonical_float,
    standardize_mac,
    standardize_tw,
    to_jsonable,
)
from .jamming import mac_cj_optimal, tw_cj_optimal

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
        self.transmitter_positions = tuple(
            (float(p[0]), float(p[1])) for p in self.transmitter_positions
        )
        if len(self.transmitter_positions) != 2:
            raise ValueError("exactly two transmitter positions are required")
        if self.receiver_position is not None:
            self.receiver_position = (
                float(self.receiver_position[0]),
                float(self.receiver_position[1]),
            )
        coords = [c for p in self.transmitter_positions for c in p]
        if self.receiver_position is not None:
            coords.extend(self.receiver_position)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError("positions must be finite")
        if not self.path_loss_exponent > 0:
            raise ValueError("path_loss_exponent must be positive")
        if not self.distance_floor > 0:
            raise ValueError("distance_floor must be positive")
        if not self.reference_gain > 0:
            raise ValueError("reference_gain must be positive")
        self.raw_power_caps = _finite_pair(self.raw_power_caps, "raw_power_caps")
        if min(self.raw_power_caps) < 0:
            raise ValueError(f"raw_power_caps must be nonnegative, got {list(self.raw_power_caps)}")
        self.receiver_noises = _finite_pair(self.receiver_noises, "receiver_noises")
        if min(self.receiver_noises) <= 0:
            raise ValueError(f"receiver_noises must be positive, got {list(self.receiver_noises)}")
        for name in ("main_noise", "tap_noise"):
            value = getattr(self, name)
            if not (_is_finite_number(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")

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
    """Grid of per-cell optimal powers (raw domain) and secrecy sum rates."""

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

    def to_csv(self, target) -> None:
        """Write rows x,y,p1_tx,p2_tx,p1_jam,p2_jam,sum_rate_bits,branch."""
        own = isinstance(target, (str, os.PathLike))
        handle = open(target, "w", newline="") if own else target
        try:
            writer = csv.writer(handle)
            writer.writerow(
                ["x", "y", "p1_tx", "p2_tx", "p1_jam", "p2_jam", "sum_rate_bits", "branch"]
            )
            for iy, y in enumerate(self.ys):
                for ix, x in enumerate(self.xs):
                    writer.writerow(
                        [
                            f"{float(x):.12g}",
                            f"{float(y):.12g}",
                            f"{self.tx_power[iy, ix, 0]:.12g}",
                            f"{self.tx_power[iy, ix, 1]:.12g}",
                            f"{self.jam_power[iy, ix, 0]:.12g}",
                            f"{self.jam_power[iy, ix, 1]:.12g}",
                            f"{self.sum_rate[iy, ix]:.12g}",
                            self.branch[iy][ix],
                        ]
                    )
        finally:
            if own:
                handle.close()

    def csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    def metadata_json(self) -> Dict:
        return to_jsonable(self.metadata)


def _solve_mac_cell(scene: Scene, x: float, y: float) -> Dict:
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
    return {"tx": tx, "jam": jam, "rate": sol.sum_rate, "branch": sol.diagnostics["branch"]}


def _solve_tw_cell(scene: Scene, x: float, y: float) -> Dict:
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
    return {"tx": tx, "jam": jam, "rate": sol.sum_rate, "branch": sol.diagnostics["branch"]}


def _solve_cell(scene: Scene, mode: str, x: float, y: float) -> Dict:
    try:
        if mode == MODE_MAC:
            return _solve_mac_cell(scene, x, y)
        return _solve_tw_cell(scene, x, y)
    except Exception as exc:  # per-cell failures become flagged zero cells
        return {
            "tx": np.zeros(2),
            "jam": np.zeros(2),
            "rate": 0.0,
            "branch": "error",
            "error": str(exc),
        }


def _worker_count() -> int:
    env = os.environ.get("SECRECY_RATES_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise ValueError("SECRECY_RATES_THREADS must be an integer") from exc
        return max(1, n)
    return max(1, min(8, os.cpu_count() or 1))


def sweep(scene: Scene, grid_bounds, resolution: int, mode: str) -> SweepResult:
    """Run the cooperative-jamming optimizer over an eavesdropper grid.

    Args:
        scene: geometry and channel parameters.
        grid_bounds: (xmin, xmax, ymin, ymax) of the eavesdropper area.
        resolution: points per axis, at least 2.
        mode: "MAC-CJ" or "TW-CJ".

    Returns:
        SweepResult with per-cell raw-domain powers, rates, branch labels,
        and error flags (a failed cell is recorded as zero rate).
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
    cells = [(iy, ix, float(ys[iy]), float(xs[ix])) for iy in range(resolution) for ix in range(resolution)]
    workers = _worker_count()
    if workers == 1:
        results = [_solve_cell(scene, mode, x, y) for (_, _, y, x) in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda c: _solve_cell(scene, mode, c[3], c[2]), cells))
    tx = np.zeros((resolution, resolution, 2))
    jam = np.zeros((resolution, resolution, 2))
    rate = np.zeros((resolution, resolution))
    branch = [["" for _ in range(resolution)] for _ in range(resolution)]
    error = np.zeros((resolution, resolution), dtype=bool)
    for (iy, ix, _, _), res in zip(cells, results):
        tx[iy, ix] = res["tx"]
        jam[iy, ix] = res["jam"]
        rate[iy, ix] = res["rate"]
        branch[iy][ix] = res["branch"]
        error[iy, ix] = "error" in res
    from . import __version__

    metadata = {
        "scene": scene.to_json(),
        "path_loss_exponent": scene.path_loss_exponent,
        "resolution": resolution,
        "mode": mode,
        "grid_bounds": [xmin, xmax, ymin, ymax],
        "distance_floor": scene.distance_floor,
        "library_version": __version__,
        "workers": workers,
    }
    return SweepResult(xs, ys, tx, jam, rate, branch, error, mode, scene, metadata)
