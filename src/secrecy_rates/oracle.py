"""Brute-force grid oracles for cross-checking the closed-form solvers.

All four oracles are one exhaustive search, _search, over one power mesh
on which it evaluates the objective of every transmit set it is given; an
oracle supplies only its objective and its transmit sets.  The
superposition and two-way oracles search the one set in which everyone
transmits, and the MAC superposition oracle is the MAC jamming objective
on that set.  The cooperative-jamming oracles search all 2^K transmit
sets, every other user jamming: a silent user is a jammer at power 0,
which is on every axis, so the one mesh holds every cell of every
transmit/jam/silent role.
The search knows nothing about prefix structures or quadratic
coefficient algebra.  Corner points are always on the grid, which makes
the oracles exact for the superposition and two-way objectives whose
optima sit at corners.  For MAC jamming, each user's axis also carries
that user's candidate pivot powers (_pivot_candidates): for every
(transmit set, jammers, pivot) row of the 3^K roles, the real roots of a
quadratic fitted through three evaluations of rho along the pivot's axis.
They come from one array pass over the rows: rho as masked sums, the roots
by one np.linalg.eigvals over the stacked companion matrices, each bit for
bit the scalar fit's.

The mesh is evaluated in k-dimensional tiles of at most _TILE_CELLS
cells, so the temporaries stay cache-sized and peak memory does not grow
with the grid.  The search keeps its best cell as (rate, index in the
mesh, transmit set), an equal rate going to the smaller index and then to
the earlier transmit set.  That is the C-order first maximum in any tile
order: ties resolve to the lexicographically smallest power vector.

The MAC jamming objective also has a box form, its own operations with
each sum taken at the corner of a box that raises the rate, which is the
rate itself on a one-cell box.  Float addition, multiplication by a gain
and subtraction are monotone, so only np.log2's rounding can lift a cell
above its box's value; a slack of _SLACK_ULPS ulps of the largest
logarithm covers it.  On a mesh of several tiles, the search bounds each
transmit set on each tile from sub-blocks of _BLOCK points per axis,
visits the tiles in order of decreasing bound and evaluates in each only
the transmit sets whose bound reaches the best rate found so far.  A
skipped cell can neither win nor tie, so the answer is that of the
unpruned search.  Caps at which the objective would overflow are rejected
before the search, so no cell is NaN or infinite.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .channels import (
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
)
from .allocation import SumRateSolution
from .jamming import JammingSolution, _all_silent_solution, _role_solution

MAX_GRID_CELLS = 10**8
# Cells per tile of the mesh: each float64 temporary of an objective is
# 128 KB, small enough to stay in cache instead of being page-faulted afresh.
_TILE_CELLS = 16384
# Points per axis of the sub-blocks whose box bounds are reduced to a tile's.
_BLOCK = 4
# Ulps of the largest logarithm allowed for np.log2's rounding in a bound.
_SLACK_ULPS = 32


@dataclass
class GridSpec:
    """Grid density for the oracles: points per power axis, corners included."""

    points_per_axis: int = 101

    def __post_init__(self):
        if not isinstance(self.points_per_axis, numbers.Integral) or self.points_per_axis < 2:
            raise ValueError(f"points_per_axis must be an integer of at least 2, got {self.points_per_axis!r}")
        self.points_per_axis = int(self.points_per_axis)


def _axis(cap: float, spec: GridSpec, extras: Sequence[float] = ()) -> np.ndarray:
    cap = float(cap)
    if cap <= 0:
        return np.zeros(1)
    good_extras = [x for x in extras if 0.0 < x < cap and math.isfinite(x)]
    return np.unique(np.concatenate([np.linspace(0.0, cap, spec.points_per_axis), good_extras]))


def _guard_shape(shape: Sequence[int]) -> None:
    size = math.prod(shape)
    if size > MAX_GRID_CELLS:
        raise ValueError(f"grid too large: {size} cells exceeds the {MAX_GRID_CELLS} guard")


def _check_corner(ch, rate_grid) -> None:
    """Raise a ValueError naming power_caps if any cell of the search overflows.

    Every sum an objective forms, for any transmit set and cell, is of
    nonnegative terms and at most one that it forms at the caps corner
    with every user transmitting, itself a cell of every search.  Float
    addition and multiplication are monotone, so the objective evaluated
    there, in its own order of operations, overflows exactly when some cell
    would.
    """
    caps = [float(c) for c in ch.power_caps]
    try:
        with np.errstate(over="raise"):
            list(rate_grid(ch.eve_gains, np.ix_(*([c] for c in caps)), [tuple(range(ch.k_users))]))
    except FloatingPointError:
        raise ValueError(
            f"power_caps are too large for the grid oracle: its objective overflows at {caps}"
        ) from None


def _tile_sides(shape: Sequence[int]) -> List[int]:
    """Points per axis of a tile of a mesh of the given shape.

    Every axis gets the same multiple of _BLOCK points, or the whole axis
    where that is shorter, the largest for which a tile holds at most
    _TILE_CELLS cells.  A mesh of at most _TILE_CELLS cells is one tile.
    """
    if math.prod(shape) <= _TILE_CELLS:
        return list(shape)
    lo, hi = 1, -(-max(shape) // _BLOCK)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.prod(min(mid * _BLOCK, n) for n in shape) <= _TILE_CELLS:
            lo = mid
        else:
            hi = mid - 1
    return [min(lo * _BLOCK, n) for n in shape]


def _unravel(flat: int, shape: Sequence[int]) -> List[int]:
    """The C-order multi-index of a flat index into shape, in Python ints."""
    index = []
    for n in reversed(shape):
        flat, i = divmod(flat, n)
        index.append(i)
    return index[::-1]


def _tile_bounds(h, bound, axes, sides, t_sets) -> np.ndarray:
    """Per transmit set and tile (C order), an upper bound on the rate.

    bound(h, lo, hi, t_sets) is evaluated once on the open mesh of the
    sub-blocks of _BLOCK points per axis, lo and hi being each sub-block's
    first and last points, and each transmit set's sub-block bounds are
    reduced to its tiles' maxima.
    """
    starts = [np.arange(0, len(ax), _BLOCK) for ax in axes]
    lo = np.ix_(*(ax[s] for ax, s in zip(axes, starts)))
    hi = np.ix_(*(ax[np.minimum(s + _BLOCK, len(ax)) - 1] for ax, s in zip(axes, starts)))
    shape = tuple(len(s) for s in starts)
    out = []
    for block in bound(h, lo, hi, t_sets):
        block = np.broadcast_to(block, shape)
        for d, (ax, side) in enumerate(zip(axes, sides)):
            block = np.maximum.reduceat(block, np.arange(0, len(ax), side) // _BLOCK, axis=d)
        out.append(block.ravel())
    return np.array(out)


def _search(ch, spec: GridSpec, rate_grid, t_sets, extras=None) -> Tuple[float, np.ndarray, tuple]:
    """Best (rate, allocation, transmit set) over the transmit sets t_sets.

    One mesh serves every transmit set: user i's axis is _axis of its cap
    with extras[i] as extra points, evaluated one tile at a time
    (_tile_sides).  rate_grid(h, grids, t_sets) evaluates the objective on
    a tile's open mesh and yields a new rate array for each transmit set in
    t_sets.  The best cell is kept as (rate, index in the mesh, position in
    t_sets), an equal rate going to the smaller index and then to the
    earlier transmit set: the C-order first maximum, whatever order the
    tiles come in, which is the lexicographically smallest allocation.

    If rate_grid has a ``bound`` attribute, its box form plus a slack for
    rounding (_tile_bounds), a mesh of several tiles visits them in order
    of decreasing bound, and evaluates in each only the transmit sets whose
    bound reaches the best rate so far.  A cell it skips is below that
    rate, so it can neither win nor tie.
    """
    _check_corner(ch, rate_grid)
    axes = [_axis(cap, spec, () if extras is None else extras[i]) for i, cap in enumerate(ch.power_caps)]
    shape = [len(ax) for ax in axes]
    _guard_shape(shape)
    sides = _tile_sides(shape)
    counts = [-(-n // side) for n, side in zip(shape, sides)]
    order = range(math.prod(counts))
    bound = getattr(rate_grid, "bound", None)
    bounds = None
    if bound is not None and len(order) > 1:
        bounds = _tile_bounds(ch.eve_gains, bound, axes, sides, t_sets)
        order = np.argsort(-bounds.max(axis=0), kind="stable").tolist()
    best = None
    for tile in order:
        live = range(len(t_sets))
        if bounds is not None and best is not None:
            live = [t for t, b in enumerate(bounds[:, tile].tolist()) if b >= best[0]]
            if not live:
                continue
        corner = [i * side for i, side in zip(_unravel(tile, counts), sides)]
        grids = np.ix_(*(ax[c : c + side] for ax, c, side in zip(axes, corner, sides)))
        for t, rate in zip(live, rate_grid(ch.eve_gains, grids, [t_sets[t] for t in live])):
            flat = int(np.argmax(rate))
            value = float(rate.flat[flat])
            if best is None or value >= best[0]:
                cell = tuple(c + i for c, i in zip(corner, _unravel(flat, rate.shape)))
                if best is None or value > best[0] or (cell, t) < best[1:]:
                    best = (value, cell, t)
    rate, cell, t = best
    return rate, np.array([float(ax[i]) for ax, i in zip(axes, cell)]), t_sets[t]


def _jamming_solution(ch, spec: GridSpec, rate_grid, extras=None) -> JammingSolution:
    """The best cell of _search over every transmit set, as a solution.

    The sets come in product order, transmit before jam; a user outside
    the winning set jams if its power is positive.
    """
    k = ch.k_users
    t_sets = [tuple(itertools.compress(range(k), sends)) for sends in itertools.product((True, False), repeat=k)]
    best_rate, best_alloc, t_set = _search(ch, spec, rate_grid, t_sets, extras)
    if best_rate <= 0.0:
        return _all_silent_solution(k, {"branch": "all-silent", "oracle": "grid"})
    sends, shown = np.isin(np.arange(k), t_set), best_alloc > 0
    diagnostics = {"branch": "oracle", "oracle": "grid", "points_per_axis": spec.points_per_axis}
    return _role_solution(sends & shown, ~sends & shown, best_alloc, float(best_rate), diagnostics)


def grid_max_mac_sup(ch: StdMacChannel, spec: GridSpec) -> Tuple[PowerAllocation, float]:
    """Exhaustive superposition search over the power box.

    Supports up to 4 users.  Returns the best allocation and its clamped
    rate; all-zero when nothing achieves a positive rate.
    """
    k = ch.k_users
    if k > 4:
        raise ValueError("grid_max_mac_sup supports at most 4 users")
    best, alloc, _ = _search(ch, spec, _mac_cj_rate, [tuple(range(k))])
    if best <= 0.0:
        return PowerAllocation.zeros(k), 0.0
    return PowerAllocation(alloc), best


def _pivot_candidates(ch: StdMacChannel) -> List[np.ndarray]:
    """Per user, the sorted distinct pivot-power candidates of its rows.

    One row per jammer of every transmit/jam/silent role, in role order.
    rho, the derivative indicator of the pivot's power, is evaluated at
    pivot powers 0, s and 2s (s = max(cap, 1)/2), everyone else at their
    role's fixed powers (caps for transmitters and fellow jammers, zero for
    silent users); the quadratic through the three is exact, since rho is
    quadratic in the pivot power.  A row's candidates are its real roots in
    (0, cap); a pivot with no power has none.
    The first row, in role order, whose fit fails raises: np.roots' error,
    or a ValueError naming power_caps where the fit is not finite.

    Every row is one array pass: the sums of rho are masked sums over an
    (R, 3, K) array, which for K <= 3 add the same nonnegative terms in the
    same order as sums over index sets (+0.0 changes none), and the roots
    of the companion matrices of all full quadratics come from one
    np.linalg.eigvals, as np.roots takes them one at a time.  Rows with a
    zero leading or constant coefficient, which np.roots strips, or whose
    companion is not finite, call np.roots itself.
    """
    pivot, sends, on = _jammer_rows(ch.k_users)
    h, caps = ch.eve_gains, ch.power_caps
    cap = caps[pivot]
    step = np.maximum(cap, 1.0) / 2.0
    powers = np.repeat(np.where(on, caps, 0.0)[:, None, :], 3, axis=1)
    powers[np.arange(len(pivot)), :, pivot] = step[:, None] * np.array([0.0, 1.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hp = h * powers
        inside = sends[:, None]
        p_t, hp_t = (np.where(inside, v, 0.0).sum(axis=2) for v in (powers, hp))
        p_n, hp_n = (np.where(inside, 0.0, v).sum(axis=2) for v in (powers, hp))
        hj = h[pivot]
        rho = -hj[:, None] * (1.0 + powers.sum(axis=2)) * (1.0 + p_n) * hp_t + (
            (1.0 + hp.sum(axis=2)) * (1.0 + hp_n) * p_t
        )
        r0, r1, r2 = rho.T
        c1 = (r2 - 2.0 * r1 + r0) / (2.0 * step * step)
        c3 = r0
        c2 = (r1 - c3 - c1 * step * step) / step
        companion = np.stack([-c2 / c1, -c3 / c1], axis=1)
    fails = (cap > 0) & ~(np.isfinite(rho).all(axis=1) & np.isfinite(c1) & np.isfinite(c2))
    first_fail = int(np.argmax(fails)) if fails.any() else len(pivot)
    fits = (cap > 0) & ((c1 != 0) | (c2 != 0)) & (np.arange(len(pivot)) < first_fail)
    full = fits & (c1 != 0) & (c3 != 0) & np.isfinite(companion).all(axis=1)
    matrices = np.zeros((int(full.sum()), 2, 2))
    matrices[:, 0] = companion[full]
    matrices[:, 1, 0] = 1.0
    rows, roots = [np.repeat(np.flatnonzero(full), 2)], [np.linalg.eigvals(matrices).ravel()]
    # fits holds only rows before the first fit that is not finite, so an
    # np.roots error raised here is the first failure in row order
    for r in np.flatnonzero(fits & ~full).tolist():
        roots.append(np.roots([c1[r], c2[r], c3[r]]))
        rows.append(np.full(len(roots[-1]), r))
    if first_fail < len(pivot):
        raise ValueError(
            f"power_caps are too large for the grid oracle: the rho fit along user {pivot[first_fail] + 1}'s "
            "axis is not finite"
        )
    rows, roots = np.concatenate(rows), np.concatenate(roots)
    real = roots.real
    keep = (np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(real))) & (0.0 < real) & (real < cap[rows])
    users, values = pivot[rows[keep]], real[keep]
    return [np.unique(values[users == i]) for i in range(ch.k_users)]


@functools.lru_cache(maxsize=None)
def _jammer_rows(k: int):
    """One row per jammer of every transmit/jam/silent role of k users, in
    role order: the pivots, and masks of each row's transmitters and of its
    transmitters and jammers."""
    codes = np.array(list(itertools.product(range(3), repeat=k)))  # 0 transmit, 1 jam, 2 silent
    role, pivot = np.nonzero(codes == 1)
    out = (pivot, codes[role] == 0, codes[role] < 2)
    for arr in out:
        arr.flags.writeable = False
    return out


def _mac_cj_box(h: np.ndarray, lo, hi, t_sets) -> Iterator[np.ndarray]:
    """Each transmit set's jamming rate, bounded over the boxes [lo, hi].

    The rate's own operations in its own order, with each sum taken at the
    corner of the box that raises the rate: everyone's power and the
    non-transmitters' h-weighted power at hi, everyone's h-weighted power
    and the non-transmitters' power at lo.  Float addition, multiplication
    by h >= 0, subtraction and halving are monotone, so only np.log2's
    rounding can lift a cell above its box's value.  At lo = hi it is the
    rate itself; the full-mesh logarithms are shared by the transmit sets.
    """
    log_p = np.log2(1.0 + sum(hi))
    log_hp = np.log2(1.0 + sum(float(h[i]) * g for i, g in enumerate(lo)))
    for t_set in t_sets:
        comp = [i for i in range(len(lo)) if i not in set(t_set)]
        comp_p = sum(lo[i] for i in comp) if comp else 0.0
        comp_hp = sum(float(h[i]) * hi[i] for i in comp) if comp else 0.0
        # rate = 1/2 [ log2(phi over complement) - log2(phi over everyone) ]
        yield 0.5 * (np.log2(1.0 + comp_hp) - np.log2(1.0 + comp_p) + log_p - log_hp)


def _mac_cj_rate(h: np.ndarray, grids, t_sets) -> Iterator[np.ndarray]:
    """The jamming rate of each transmit set; the full-mesh logarithms are shared."""
    return _mac_cj_box(h, grids, grids, t_sets)


def _mac_cj_bound(h: np.ndarray, lo, hi, t_sets) -> Iterator[np.ndarray]:
    """_mac_cj_box plus _SLACK_ULPS ulps of the largest logarithm it can form.

    That logarithm is of the largest sum, at the boxes' top corner: np.log2
    is within a few ulps of the exact logarithm, so every cell of a box is
    at most its bound.
    """
    top = [float(np.max(g)) for g in hi]
    largest = math.log2(1.0 + max(sum(top), sum(float(h[i]) * c for i, c in enumerate(top))))
    slack = _SLACK_ULPS * math.ulp(largest)
    return (box + slack for box in _mac_cj_box(h, lo, hi, t_sets))


_mac_cj_rate.bound = _mac_cj_bound


def grid_max_mac_cj(ch: StdMacChannel, spec: GridSpec) -> JammingSolution:
    """Exhaustive cooperative-jamming search over transmit sets and powers.

    Supports up to 3 users.  Every transmit set is swept over one power
    mesh, every other user jamming (a silent user jams at power 0); each
    user's axis carries its pivot candidates, the roots of the rho
    quadratic fits.  Caps at which the objective overflows are refused
    before any fit.
    """
    if ch.k_users > 3:
        raise ValueError("grid_max_mac_cj supports at most 3 users")
    _check_corner(ch, _mac_cj_rate)
    return _jamming_solution(ch, spec, _mac_cj_rate, _pivot_candidates(ch))


def _tw_rate(h: np.ndarray, grids, t_sets) -> Iterator[np.ndarray]:
    g1, g2 = grids
    h1, h2 = float(h[0]), float(h[1])
    yield 0.5 * (
        np.log2(1.0 + g1) + np.log2(1.0 + g2) - np.log2(1.0 + h1 * g1 + h2 * g2)
    )


def grid_max_tw(ch: StdTwChannel, spec: GridSpec) -> SumRateSolution:
    """Exhaustive two-way search over the power box."""
    best, alloc, _ = _search(ch, spec, _tw_rate, [(0, 1)])
    if best <= 0.0:
        return SumRateSolution(PowerAllocation.zeros(2), (), 0.0, "TW", None, "oracle")
    transmit = tuple(i for i in range(2) if alloc[i] > 0)
    return SumRateSolution(PowerAllocation(alloc), transmit, float(best), "TW", None, "oracle")


def _tw_cj_rate(h: np.ndarray, grids, t_sets) -> Iterator[np.ndarray]:
    for t_set in t_sets:
        gross = sum(np.log2(1.0 + grids[i]) for i in t_set) if t_set else 0.0
        seen = sum(float(h[i]) * grids[i] for i in t_set) if t_set else 0.0
        comp = [i for i in range(2) if i not in t_set]
        cover = sum(float(h[i]) * grids[i] for i in comp) if comp else 0.0
        yield 0.5 * gross - 0.5 * np.log2(1.0 + seen / (1.0 + cover))


def grid_max_tw_cj(ch: StdTwChannel, spec: GridSpec) -> JammingSolution:
    """Exhaustive two-way cooperative-jamming search over roles and powers."""
    return _jamming_solution(ch, spec, _tw_cj_rate)
