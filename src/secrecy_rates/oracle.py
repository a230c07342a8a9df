"""Brute-force grid oracles for cross-checking the closed-form solvers.

These searches know nothing about prefix structures or quadratic
coefficient algebra: they sweep power grids (and, for jamming, every
transmit/jam/silent role assignment) and keep the best cell.  Corner
points are always on the grid, which makes the oracles exact for the
superposition and two-way objectives whose optima sit at corners.  For
jamming, candidate pivot powers are recovered independently by fitting a
quadratic through three evaluations of rho along the jammer's axis and
injecting its real roots as extra grid points.

Vectorized numpy evaluation stands in for cell-level parallelism; the
reduction is an argmax whose C-order first-hit rule makes ties resolve to
the lexicographically smallest power vector regardless of evaluation
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .channels import (
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
)
from .allocation import SumRateSolution
from .jamming import JammingSolution, rho_eval

MAX_GRID_CELLS = 10**8

_TRANSMIT, _JAM, _SILENT = "T", "J", "S"


@dataclass
class GridSpec:
    """Grid density for the oracles: points per power axis, corners included."""

    points_per_axis: int = 101

    def __post_init__(self):
        self.points_per_axis = int(self.points_per_axis)
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")


def _axis(cap: float, spec: GridSpec, extras: Sequence[float] = ()) -> np.ndarray:
    cap = float(cap)
    if cap <= 0:
        return np.zeros(1)
    good_extras = [x for x in extras if 0.0 < x < cap and math.isfinite(x)]
    return np.unique(np.concatenate([np.linspace(0.0, cap, spec.points_per_axis), good_extras]))


def _guard_size(axes: Sequence[np.ndarray]) -> None:
    size = 1
    for ax in axes:
        size *= len(ax)
    if size > MAX_GRID_CELLS:
        raise ValueError(f"grid too large: {size} cells exceeds the {MAX_GRID_CELLS} guard")


def _broadcast_axes(axes: Sequence[np.ndarray]) -> List[np.ndarray]:
    k = len(axes)
    out = []
    for i, ax in enumerate(axes):
        shape = [1] * k
        shape[i] = len(ax)
        out.append(ax.reshape(shape))
    return out


def _first_argmax_alloc(rate: np.ndarray, axes: Sequence[np.ndarray]) -> Tuple[np.ndarray, float]:
    """Allocation of the C-order-first maximum cell; lex-smallest among ties."""
    flat_idx = int(np.argmax(rate))
    idx = np.unravel_index(flat_idx, rate.shape)
    alloc = np.array([float(axes[d][i]) for d, i in enumerate(idx)])
    return alloc, float(rate[idx])


def grid_max_mac_sup(ch: StdMacChannel, spec: GridSpec) -> Tuple[PowerAllocation, float]:
    """Exhaustive superposition search over the power box.

    Supports up to 4 users.  Returns the best allocation and its clamped
    rate; all-zero when nothing achieves a positive rate.
    """
    k = ch.k_users
    if k > 4:
        raise ValueError("grid_max_mac_sup supports at most 4 users")
    axes = [_axis(ch.power_caps[i], spec) for i in range(k)]
    _guard_size(axes)
    grids = _broadcast_axes(axes)
    h = ch.eve_gains
    total_p = sum(grids)
    total_hp = sum(float(h[i]) * grids[i] for i in range(k))
    rate = 0.5 * (np.log2(1.0 + total_p) - np.log2(1.0 + total_hp))
    alloc, best = _first_argmax_alloc(rate, axes)
    if best <= 0.0:
        return PowerAllocation.zeros(k), 0.0
    return PowerAllocation(alloc), best


def _rho_fit_roots(ch: StdMacChannel, t_set, jam_users, pivot: int, caps: np.ndarray) -> List[float]:
    """Pivot-power candidates from a quadratic fit of rho along one axis.

    rho is evaluated at three pivot powers with everyone else at their
    partition-fixed values (caps for transmitters and fellow jammers, zero
    for silent users); the interpolating quadratic is exact because rho is
    a quadratic in the pivot power.
    """
    cap_j = float(caps[pivot])
    if cap_j <= 0:
        return []
    powers = np.zeros(ch.k_users)
    for u in t_set:
        powers[u] = caps[u]
    for u in jam_users:
        powers[u] = caps[u]
    step = max(cap_j, 1.0) / 2.0
    samples = []
    for x in (0.0, step, 2.0 * step):
        powers[pivot] = x
        samples.append(rho_eval(ch, t_set, jam_users, powers, pivot))
    r0, r1, r2 = samples
    c1 = (r2 - 2.0 * r1 + r0) / (2.0 * step * step)
    c3 = r0
    c2 = (r1 - c3 - c1 * step * step) / step
    roots = np.roots([c1, c2, c3]) if (c1 != 0 or c2 != 0) else np.array([])
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and 0.0 < r.real < cap_j:
            out.append(float(r.real))
    return out


def _threshold_candidates(ch: StdMacChannel, t_set, pivot: int, cap_j: float) -> List[float]:
    h = ch.eve_gains
    out = []
    for i in t_set:
        den = float(h[pivot] - h[i])
        if den != 0.0:
            thr = (float(h[i]) - 1.0) / den
            if 0.0 < thr < cap_j:
                out.append(thr)
    return out


def _cj_rate_grid(h: np.ndarray, grids, t_set, jam_users) -> np.ndarray:
    total_p = sum(grids)
    total_hp = sum(float(h[i]) * g for i, g in enumerate(grids))
    comp = [i for i in range(len(grids)) if i not in set(t_set)]
    comp_p = sum(grids[i] for i in comp) if comp else 0.0
    comp_hp = sum(float(h[i]) * grids[i] for i in comp) if comp else 0.0
    # rate = 1/2 [ log2(phi over complement) - log2(phi over everyone) ]
    return 0.5 * (
        np.log2(1.0 + comp_hp)
        - np.log2(1.0 + comp_p)
        + np.log2(1.0 + total_p)
        - np.log2(1.0 + total_hp)
    )


def grid_max_mac_cj(ch: StdMacChannel, spec: GridSpec) -> JammingSolution:
    """Exhaustive cooperative-jamming search over roles and powers.

    Supports up to 3 users.  Every transmit/jam/silent role assignment is
    swept over a full power grid (silent users pinned to zero); analytic
    pivot candidates come from the rho quadratic fit and the two-user
    branch thresholds (h_i - 1)/(h_j - h_i).
    """
    k = ch.k_users
    if k > 3:
        raise ValueError("grid_max_mac_cj supports at most 3 users")
    caps = ch.power_caps
    h = ch.eve_gains
    best_rate = -np.inf
    best_alloc = None
    best_roles = None
    for roles in itertools.product((_TRANSMIT, _JAM, _SILENT), repeat=k):
        t_set = tuple(i for i in range(k) if roles[i] == _TRANSMIT)
        jam_users = tuple(i for i in range(k) if roles[i] == _JAM)
        axes = []
        for i in range(k):
            if roles[i] == _SILENT:
                axes.append(np.zeros(1))
                continue
            extras: List[float] = []
            if roles[i] == _JAM:
                extras.extend(_rho_fit_roots(ch, t_set, jam_users, i, caps))
                extras.extend(_threshold_candidates(ch, t_set, i, float(caps[i])))
            axes.append(_axis(caps[i], spec, extras))
        _guard_size(axes)
        rate = _cj_rate_grid(h, _broadcast_axes(axes), t_set, jam_users)
        alloc, rate_max = _first_argmax_alloc(rate, axes)
        if rate_max > best_rate or (
            rate_max == best_rate and tuple(alloc) < tuple(best_alloc)
        ):
            best_rate = rate_max
            best_alloc = alloc
            best_roles = roles
    if best_rate <= 0.0:
        return JammingSolution(
            (), (), tuple(range(k)), PowerAllocation.zeros(k), 0.0,
            diagnostics={"branch": "all-silent", "oracle": "grid"},
        )
    transmit = tuple(i for i in range(k) if best_roles[i] == _TRANSMIT and best_alloc[i] > 0)
    jam = tuple(i for i in range(k) if best_roles[i] == _JAM and best_alloc[i] > 0)
    silent = tuple(i for i in range(k) if i not in transmit and i not in jam)
    return JammingSolution(
        transmit,
        jam,
        silent,
        PowerAllocation(best_alloc),
        float(best_rate),
        diagnostics={
            "branch": "oracle",
            "oracle": "grid",
            "points_per_axis": spec.points_per_axis,
        },
    )


def grid_max_tw(ch: StdTwChannel, spec: GridSpec) -> SumRateSolution:
    """Exhaustive two-way search over the power box."""
    axes = [_axis(ch.power_caps[i], spec) for i in range(2)]
    _guard_size(axes)
    g1, g2 = _broadcast_axes(axes)
    h1, h2 = float(ch.eve_gains[0]), float(ch.eve_gains[1])
    rate = 0.5 * (
        np.log2(1.0 + g1) + np.log2(1.0 + g2) - np.log2(1.0 + h1 * g1 + h2 * g2)
    )
    alloc, best = _first_argmax_alloc(rate, axes)
    if best <= 0.0:
        return SumRateSolution(PowerAllocation.zeros(2), (), 0.0, "TW", None, "oracle")
    transmit = tuple(i for i in range(2) if alloc[i] > 0)
    return SumRateSolution(PowerAllocation(alloc), transmit, float(best), "TW", None, "oracle")


def grid_max_tw_cj(ch: StdTwChannel, spec: GridSpec) -> JammingSolution:
    """Exhaustive two-way cooperative-jamming search over roles and powers."""
    caps = ch.power_caps
    h = ch.eve_gains
    best_rate = -np.inf
    best_alloc = None
    best_roles = None
    for roles in itertools.product((_TRANSMIT, _JAM, _SILENT), repeat=2):
        t_set = tuple(i for i in range(2) if roles[i] == _TRANSMIT)
        axes = [
            _axis(caps[i], spec) if roles[i] != _SILENT else np.zeros(1) for i in range(2)
        ]
        _guard_size(axes)
        g1, g2 = _broadcast_axes(axes)
        grids = (g1, g2)
        gross = sum(np.log2(1.0 + grids[i]) for i in t_set) if t_set else 0.0
        seen = sum(float(h[i]) * grids[i] for i in t_set) if t_set else 0.0
        comp = [i for i in range(2) if i not in t_set]
        cover = sum(float(h[i]) * grids[i] for i in comp) if comp else 0.0
        rate = 0.5 * gross - 0.5 * np.log2(1.0 + seen / (1.0 + cover))
        rate = np.broadcast_to(rate, (len(axes[0]), len(axes[1])))
        alloc, rate_max = _first_argmax_alloc(rate, axes)
        if rate_max > best_rate or (
            rate_max == best_rate and tuple(alloc) < tuple(best_alloc)
        ):
            best_rate = rate_max
            best_alloc = alloc
            best_roles = roles
    if best_rate <= 0.0:
        return JammingSolution(
            (), (), (0, 1), PowerAllocation.zeros(2), 0.0,
            diagnostics={"branch": "all-silent", "oracle": "grid"},
        )
    transmit = tuple(i for i in range(2) if best_roles[i] == _TRANSMIT and best_alloc[i] > 0)
    jam = tuple(i for i in range(2) if best_roles[i] == _JAM and best_alloc[i] > 0)
    silent = tuple(i for i in range(2) if i not in transmit and i not in jam)
    return JammingSolution(
        transmit,
        jam,
        silent,
        PowerAllocation(best_alloc),
        float(best_rate),
        diagnostics={
            "branch": "oracle",
            "oracle": "grid",
            "points_per_axis": spec.points_per_axis,
        },
    )
