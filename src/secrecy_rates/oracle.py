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

The search keeps its best cell as (rate, index in the mesh, transmit
set), an equal rate going to the smaller index and then to the earlier
transmit set.  That is the C-order first maximum in any order of
evaluation: ties resolve to the lexicographically smallest power vector.
Caps at which the objective would overflow are rejected before the
search, once per oracle call, so no cell is NaN or infinite.

Without a bound, or on a mesh of one tile, the mesh is evaluated in
k-dimensional tiles of at most _TILE_CELLS cells, so the temporaries stay
cache-sized.  The MAC jamming objective also has a slope bound
(_mac_cj_bound): its value at a box's lower corner, itself a cell of the
mesh, plus each power's width times a bound on the rate's slope along it
over the box, by the mean-value theorem, plus a slack that covers every
rounding.  On a mesh of several tiles the search is a branch-and-bound
over a pyramid of boxes, _TOP points per axis at the top and halved per
level down to blocks of _BLOCK points.  Each level bounds every live
(transmit set, box) pair in array passes of cache-sized chunks, offers
the objective at the pairs' lower corners as candidate cells, and splits
only the pairs whose bound reaches the best rate found so far.  The cells of the blocks that
survive are evaluated in chunks of at most _TILE_CELLS cells.  A skipped
cell can neither win nor tie, so the answer is that of the unpruned
search; a bound that is NaN prunes nothing.
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
# Points per axis of the bounded search's top boxes, and of its smallest
# blocks, whose cells it evaluates; each level halves the boxes.  A level
# costs some fifty numpy calls whatever its size, so coarser top levels,
# which hold few boxes on meshes of about 100 points per axis and prune
# little, would cost more than they save.
_TOP = 16
_BLOCK = 4
# The slope bound's margins for rounding: ulps of its largest logarithm (at
# least 1), and a relative margin of its slope terms.
_SLACK_ULPS = 128
_ETA = 2.0**-44


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


def _search(ch, spec: GridSpec, rate_grid, t_sets, extras=None) -> Tuple[float, np.ndarray, tuple]:
    """Best (rate, allocation, transmit set) over the transmit sets t_sets.

    One mesh serves every transmit set: user i's axis is _axis of its cap
    with extras[i] as extra points.  rate_grid(h, grids, t_sets) evaluates
    the objective on powers that broadcast, one array per user, and yields
    a new rate array for each transmit set in t_sets.  The caller has
    checked that no cell overflows (_check_corner).  The best cell is kept
    as (rate, index in the mesh, position in t_sets), an equal rate going
    to the smaller index and then to the earlier transmit set: the C-order
    first maximum, whatever order the cells come in, which is the
    lexicographically smallest allocation.

    Without a ``bound`` attribute on rate_grid, or on a mesh of one tile,
    the mesh is evaluated one tile at a time (_tile_sides), for every
    transmit set.  Otherwise the search is _pyramid's branch-and-bound.
    bound(h, lo, hi, sends) is given the lower and upper corners of boxes of
    the mesh as (users, pairs) arrays, sends[i, p] true where user i is in
    pair p's transmit set, and returns for each (transmit set, box) pair
    the objective at lo, bit for bit its value at that cell, and an upper
    bound on it over the box.  A cell it skips is below the best rate, so
    it can neither win nor tie; a NaN bound skips nothing.
    """
    axes = [_axis(cap, spec, () if extras is None else extras[i]) for i, cap in enumerate(ch.power_caps)]
    shape = [len(ax) for ax in axes]
    _guard_shape(shape)
    sides = _tile_sides(shape)
    h = ch.eve_gains
    best = None

    def offer(value, cell, t):
        nonlocal best
        if best is None or value > best[0] or (value == best[0] and (cell, t) < best[1:]):
            best = (value, cell, t)

    bound = getattr(rate_grid, "bound", None)
    if bound is None or sides == shape:
        for start in itertools.product(*(range(0, n, side) for n, side in zip(shape, sides))):
            grids = np.ix_(*(ax[a:a + side] for ax, a, side in zip(axes, start, sides)))
            for t, rate in enumerate(rate_grid(h, grids, t_sets)):
                flat = int(np.argmax(rate))
                value = float(rate.flat[flat])
                if best is None or value >= best[0]:
                    offer(value, tuple(a + i for a, i in zip(start, _unravel(flat, rate.shape))), t)
    else:
        _pyramid(axes, h, rate_grid, bound, t_sets, offer, lambda: -math.inf if best is None else best[0])
    rate, cell, t = best
    return rate, np.array([float(ax[i]) for ax, i in zip(axes, cell)]), t_sets[t]


def _pyramid(axes, h, rate_grid, bound, t_sets, offer, best_rate) -> None:
    """_search's branch-and-bound over the block pyramid of the mesh of axes.

    The top boxes, _TOP points per axis, each paired with every transmit
    set, are bounded in one call of bound per _TILE_CELLS // k pairs, so
    that each (users, pairs) temporary stays cache-sized.  The objective at
    the pairs' lower corners is offered as cells, the pairs whose bound is
    below the best rate are dropped, and the others are split into boxes of
    half the side, bounded in the same way, and so on down to blocks of
    _BLOCK points.  The cells of the blocks that remain are evaluated in
    order of decreasing bound, in chunks of at most _TILE_CELLS cells, each
    chunk for its blocks whose bound still reaches the best rate, one
    objective call per transmit set.  offer(rate, cell, t) offers a cell of
    transmit set t_sets[t], and best_rate() is the best rate offered so
    far.  A cell is kept, per user, as an index into values, all the axes
    end to end.
    """
    shape, k = [len(ax) for ax in axes], len(axes)
    values, offsets = np.concatenate(axes), np.cumsum([0] + shape[:-1])[:, None]
    ends = offsets + np.array(shape)[:, None] - 1
    strides = np.cumprod([1] + shape[:0:-1])[::-1]

    def offer_ties(top, cells, sets):
        """Offer the cells, one column per cell, that all reach the rate top,
        for the transmit sets at positions sets."""
        index, t = divmod(int((strides @ (cells - offsets) * len(t_sets) + sets).min()), len(t_sets))
        offer(float(top), tuple(_unravel(index, shape)), t)

    sends = np.array([[i in t_set for t_set in t_sets] for i in range(k)], dtype=bool).reshape(k, len(t_sets))
    halves = np.array(list(itertools.product((0, 1), repeat=k))).T[:, :, None]
    tops = np.indices([-(-n // _TOP) for n in shape]).reshape(k, -1) * _TOP + offsets
    # each live (transmit set, box) pair: its position in t_sets and the box's first cell
    t, first = np.repeat(np.arange(len(t_sets)), tops.shape[1]), np.tile(tops, len(t_sets))
    side, per_pass = _TOP, _TILE_CELLS // k
    while True:
        passes = []
        for at in range(0, len(t), per_pass):
            f = first[:, at:at + per_pass]
            last = np.minimum(f + (side - 1), ends)
            passes.append(bound(h, values.take(f), values.take(last), sends.take(t[at:at + per_pass], axis=1)))
        anchor, ub = (np.concatenate(x) for x in zip(*passes))
        top = anchor.max()
        if not top < best_rate():
            tied = np.flatnonzero(anchor == top)
            offer_ties(top, first.take(tied, axis=1), t.take(tied))
        live = ~(ub < best_rate())
        t, first, ub = t.compress(live), first.compress(live, axis=1), ub.compress(live)
        if side == _BLOCK or not len(t):
            break
        side //= 2
        first = (first[:, None, :] + side * halves).reshape(k, -1)
        inside = (first <= ends).all(axis=0)
        t, first = np.tile(t, halves.shape[1]).compress(inside), first.compress(inside, axis=1)
    # the blocks' cells, in order of decreasing bound
    order = np.argsort(-ub, kind="stable")
    t, first, ub = t.take(order), first.take(order, axis=1), ub.take(order)
    steps, per_chunk = np.arange(_BLOCK)[:, None], max(1, _TILE_CELLS // _BLOCK**k)
    for at in range(0, len(t), per_chunk):
        live = at + np.flatnonzero(~(ub[at:at + per_chunk] < best_rate()))
        for s in np.unique(t.take(live)).tolist():
            # the blocks' cells as an open mesh, the blocks on the last axis; a
            # block that overhangs the mesh repeats its last cells
            blocks = first.take(live.compress(t.take(live) == s), axis=1)
            index = np.minimum(blocks[:, None, :] + steps, ends[:, :, None])
            points = values.take(index)
            grids = [points[i].reshape((1,) * i + (_BLOCK,) + (1,) * (k - 1 - i) + (-1,)) for i in range(k)]
            (rate,) = rate_grid(h, grids, [t_sets[s]])
            top = rate.max()
            if not top < best_rate():
                *c, b = np.nonzero(np.broadcast_to(rate, (_BLOCK,) * k + (points.shape[2],)) == top)
                offer_ties(top, np.array([index[i, c[i], b] for i in range(k)]), s)


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
    _check_corner(ch, _mac_cj_rate)
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


def _mac_cj_rate(h: np.ndarray, grids, t_sets) -> Iterator[np.ndarray]:
    """The jamming rate of each transmit set; the full-mesh logarithms are shared."""
    log_p = np.log2(1.0 + sum(grids))
    log_hp = np.log2(1.0 + sum(float(h[i]) * g for i, g in enumerate(grids)))
    for t_set in t_sets:
        comp = [i for i in range(len(grids)) if i not in set(t_set)]
        comp_p = sum(grids[i] for i in comp) if comp else 0.0
        comp_hp = sum(float(h[i]) * grids[i] for i in comp) if comp else 0.0
        # rate = 1/2 [ log2(phi over complement) - log2(phi over everyone) ]
        yield 0.5 * (np.log2(1.0 + comp_hp) - np.log2(1.0 + comp_p) + log_p - log_hp)


def _mac_cj_bound(h: np.ndarray, lo: np.ndarray, hi: np.ndarray, sends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each (transmit set, box) pair's jamming rate at the box's lower corner
    and slope bound on its jamming rate over the box [lo, hi].

    lo and hi hold one row per user and one column per pair, and
    sends[i, p] is true where user i transmits in pair p; every other user
    jams.  The rate at lo is _mac_cj_rate's at that cell, bit for bit: the
    masked sums over the rows add the same nonnegative terms in the same
    order as its sums over index sets (+0.0 changes none).

    With S and H the sums of P and of h P over everyone, S_T and H_T over
    the transmitters and S_J and H_J over the jammers, the rate is
    f = 1/2 [log2(1 + H_J) - log2(1 + S_J) + log2(1 + S) - log2(1 + H)],
    whose slope along P_i is g_i / (2 ln 2) with
    g_i = 1/(1 + S) - h_i/(1 + H) for a transmitter and
    g_i = h_i H_T/((1 + H_J)(1 + H)) - S_T/((1 + S_J)(1 + S)) for a jammer,
    which is 0 where nobody transmits.  On a box every sum is smallest at
    lo and largest at hi, so g_i <= ub_i, each fraction taken at the
    corners that raise it: ub_i = 1/(1 + S(lo)) - h_i/(1 + H(hi)) for a
    transmitter and
    ub_i = h_i H_T(hi)/((1 + H_J(lo))(1 + H(lo))) - S_T(lo)/((1 + S_J(hi))(1 + S(hi)))
    for a jammer.  Every cell P of the box is at least lo, so by the
    mean-value theorem f(P) <= f(lo) + sum_i max(0, ub_i) (hi_i - lo_i) / (2 ln 2),
    and the bound is that sum plus a slack: in floats, three roundings are
    covered.

    - The bound's own rounding.  Each 1 + (sum) has at most four
      nonnegative terms, each a product or a power, so it is within a
      relative 8 ulps of its exact value; each fraction is at most three
      such sums and four more correctly rounded operations, dividing by
      one denominator at a time, so it is within a relative 30 ulps of its
      exact value; the widths, the products and the sum of nonnegative
      terms add a few more.  The raising fractions are scaled by 1 + _ETA,
      the lowering ones by 1 - _ETA and the constant 1/(2 ln 2) by
      1 + _ETA, more than ten times those errors, so the slope term
      computed is at least the exact one.  A fraction that underflows
      loses at most a few 2^-1075, which times a width below 2^1024 is a
      few ulps of 1, within the slack; one that overflows makes the bound
      infinite or NaN, which prunes nothing.
    - The rate computed at a cell, at P and at the anchor lo alike.  Each
      logarithm's argument 1 + (sum) is within a relative 5 ulps of its
      exact value, which moves the logarithm by at most 4 ulps of 1;
      np.log2 adds a few ulps of its result; the three additions of
      logarithms round by ulps of their magnitude.  With L the largest
      logarithm formed on the boxes, at their top corner, the computed
      rate is within 40 ulps of max(1, L) of the exact one.
    - The bound's last two additions, which lose ulps of max(1, L) and a
      relative 2^-53 of the slope term, within its 1 + _ETA.

    _SLACK_ULPS ulps of max(1, L) covers twice the second and the rest, so
    every cell of a box is at most its bound.  At lo = hi, or for the empty
    transmit set, the slope term is 0 and the bound is the rate plus the
    slack.
    """
    up, down = 1.0 + _ETA, 1.0 - _ETA
    h = h[:, None]
    jams = ~sends
    hp_lo, hp_hi = h * lo, h * hi
    one_s, one_h, one_hj = 1.0 + lo.sum(axis=0), 1.0 + hp_lo.sum(axis=0), 1.0 + np.where(jams, hp_lo, 0.0).sum(axis=0)
    one_sj = 1.0 + np.where(jams, lo, 0.0).sum(axis=0)
    anchor = 0.5 * (np.log2(one_hj) - np.log2(one_sj) + np.log2(one_s) - np.log2(one_h))
    with np.errstate(over="ignore", invalid="ignore"):
        sender = up / one_s - (down * h) * (1.0 / (1.0 + hp_hi.sum(axis=0)))
        # h_j H_T(hi)/((1 + H_J(lo))(1 + H(lo))) and S_T(lo)/((1 + S_J(hi))(1 + S(hi)))
        rise = up * np.where(sends, hp_hi, 0.0).sum(axis=0) / one_hj / one_h
        fall = down * np.where(sends, lo, 0.0).sum(axis=0) / (1.0 + np.where(jams, hi, 0.0).sum(axis=0))
        fall /= 1.0 + hi.sum(axis=0)
        total = (np.maximum(np.where(sends, sender, h * rise - fall), 0.0) * (hi - lo)).sum(axis=0)
    top = hi.max(axis=1)
    largest = math.log2(1.0 + max(float(top.sum()), float(top @ h[:, 0])))
    slack = _SLACK_ULPS * math.ulp(max(1.0, largest))
    return anchor, anchor + slack + (up / (2.0 * math.log(2.0))) * total


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
    _check_corner(ch, _tw_rate)
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
    _check_corner(ch, _tw_cj_rate)
    return _jamming_solution(ch, spec, _tw_cj_rate)
