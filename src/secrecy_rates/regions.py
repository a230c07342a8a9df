"""Achievable secrecy-rate regions and their two-user projections.

A region is a list of rate constraints over user subsets plus, for two
users, the vertex polygon of the projection onto the secrecy-rate plane
(R_s1, R_s2).  Superposition and TDMA regions are built for a fixed power
allocation or share vector; the hull builder samples both families over
grids and returns the convex closure of everything it saw.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .channels import (
    StdMacChannel,
    StdTwChannel,
    _powers_of,
    gaussian_bits_each,
    secrecy_bits,
    to_jsonable,
    tw_secrecy_bits,
)

REGION_TOL = 1e-9

KIND_TOTAL = "total-rate"
KIND_SECRECY = "secrecy-rate"
KIND_USER_TOTAL = "per-user-total"
KIND_USER_SECRECY = "per-user-secrecy"
_KINDS = (KIND_TOTAL, KIND_SECRECY, KIND_USER_TOTAL, KIND_USER_SECRECY)

_PROVENANCES = ("SUP", "TDMA", "TW", "HULL")


@dataclass
class RateConstraint:
    """One linear bound on the rates of a user subset.

    ``clamped`` records that the raw bound was negative and has been
    clamped to zero, so callers can tell "zero by clamp" from "zero by
    geometry".
    """

    subset: Tuple[int, ...]
    kind: str
    bound: float
    clamped: bool = False

    def __post_init__(self):
        self.subset = tuple(int(k) for k in self.subset)
        if not self.subset:
            raise ValueError("constraint subset must be nonempty")
        if self.kind not in _KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        self.bound = float(self.bound)
        if self.bound < 0:
            raise ValueError("constraint bound must be nonnegative")


@dataclass
class TdmaShares:
    """Time shares on the simplex: each in [0, 1], summing to 1."""

    shares: np.ndarray

    def __post_init__(self):
        self.shares = np.asarray(self.shares, dtype=float)
        if self.shares.ndim != 1 or len(self.shares) == 0:
            raise ValueError("shares must be a nonempty 1-D sequence")
        if not np.all((self.shares >= 0) & (self.shares <= 1)):  # NaN fails both
            raise ValueError("shares must be finite and lie in [0, 1]")
        if abs(float(self.shares.sum()) - 1.0) > 1e-12:
            raise ValueError("shares must sum to 1 within 1e-12")


@dataclass
class SecrecyRegion:
    """Constraint system plus optional two-user secrecy polygon."""

    constraints: List[RateConstraint]
    vertices2d: Optional[List[Tuple[float, float]]]
    provenance: str
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")

    def to_json(self) -> Dict:
        doc = {
            "provenance": self.provenance,
            "constraints": [
                {
                    "subset": [k + 1 for k in c.subset],
                    "kind": c.kind,
                    "bound_bits": c.bound,
                    "clamped": c.clamped,
                }
                for c in self.constraints
            ],
            "vertices2d": self.vertices2d,
            "metadata": self.metadata,
        }
        return to_jsonable(doc)


def _nonempty_subsets(k: int) -> List[Tuple[int, ...]]:
    out = []
    for mask in range(1, 1 << k):
        out.append(tuple(i for i in range(k) if mask >> i & 1))
    return out


def _half_hull(pts: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """One monotone chain over ``pts``: before each point is kept, the last
    kept point is dropped while the turn into the new point is not strictly
    counterclockwise (cross product <= 0)."""
    chain: List[Tuple[float, float]] = []
    for p in pts:
        px, py = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _sorted_hull(pts: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Convex hull of distinct points already in ascending (x, y) order."""
    if len(pts) <= 2:
        return pts
    hull = _half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1]
    return hull if hull else pts[:1]


def convex_hull_2d(points: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Monotone-chain convex hull, counterclockwise, collinear points dropped."""
    return _sorted_hull(sorted(set((float(x), float(y)) for x, y in points)))


def _pentagon_points(b1: np.ndarray, b2: np.ndarray, b12: np.ndarray) -> np.ndarray:
    """Candidate vertices of the pentagons {x,y >= 0, x <= b1, y <= b2, x+y <= b12}.

    Every vertex is a crossing of two of the five bounding lines.  For each
    (b1, b2, b12) element the eight crossings of non-parallel pairs are
    listed, the feasible ones kept and clamped into the box [0, b1] x [0, b2],
    and all of them returned as one (M, 2) array.  The clamp follows Python's
    ``min(max(v, 0.0), b) + 0.0`` exactly, NaN bounds included.
    """
    b1, b2, b12 = (np.asarray(b, dtype=float)[:, None] for b in (b1, b2, b12))
    zero = np.zeros_like(b1)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for Python floats
        x = np.hstack([zero, zero, zero, b1, b12, b1, b1, b12 - b2])
        y = np.hstack([zero, b2, b12, zero, zero, b2, b12 - b1, b2])
        infeasible = (
            (x < -REGION_TOL) | (y < -REGION_TOL)
            | (x > b1 + REGION_TOL) | (y > b2 + REGION_TOL) | (x + y > b12 + REGION_TOL)
        )
    x = np.where(x < 0.0, 0.0, x)
    y = np.where(y < 0.0, 0.0, y)
    x = np.where(b1 < x, b1, x) + 0.0
    y = np.where(b2 < y, b2, y) + 0.0
    keep = ~infeasible
    return np.stack([x[keep], y[keep]], axis=1)


def _secrecy_pentagon(b1: float, b2: float, b12: float) -> List[Tuple[float, float]]:
    """Vertices of {x,y >= 0, x <= b1, y <= b2, x+y <= b12}, counterclockwise."""
    points = _pentagon_points([b1], [b2], [b12]).tolist()
    return convex_hull_2d(points + [(0.0, 0.0)])


def mac_sup_region(ch: StdMacChannel, alloc) -> SecrecyRegion:
    """Superposition region at a fixed allocation.

    For every nonempty user subset S there is a total-rate bound (the
    receiver's sum capacity over S) and a secrecy bound, the excess of that
    capacity over what the eavesdropper collects from S treating the rest
    as noise, clamped at zero: secrecy_bits(P_S, 0.0, H_S, H_rest), with
    each sum over its own index set.
    """
    powers = _powers_of(alloc)
    k = ch.k_users
    if len(powers) != k:
        raise ValueError(f"allocation length must match k_users {k}, got powers of length {len(powers)}")
    subsets = _nonempty_subsets(k)
    hp = ch.eve_gains * powers
    sums = [(powers[list(s)].sum(), hp[list(s)].sum(), np.delete(hp, s).sum()) for s in subsets]
    p_s, hp_s, hp_rest = np.array(sums).T
    raw, totals = secrecy_bits(p_s, 0.0, hp_s, hp_rest), gaussian_bits_each(p_s).tolist()
    secrecy = np.where(raw < 0, 0.0, raw).tolist()
    constraints: List[RateConstraint] = []
    for subset, total, bound, clamped in zip(subsets, totals, secrecy, (raw < 0).tolist()):
        constraints.append(RateConstraint(subset, KIND_TOTAL, total))
        constraints.append(RateConstraint(subset, KIND_SECRECY, bound, clamped))
    # two users' subsets are (0,), (1,) and (0, 1)
    vertices = _secrecy_pentagon(*secrecy) if k == 2 else None
    return SecrecyRegion(constraints, vertices, "SUP", {"allocation": list(powers)})


def _tdma_user_bounds(h, cap, share) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(total, secrecy, clamped) of TDMA users at full cap in their slots,
    elementwise over arrays: share * C(cap / share), and that less
    share * C(h cap / share) clamped at 0; 0 where share or cap is not > 0."""
    off = (share <= 0) | (cap <= 0)
    with np.errstate(all="ignore"):
        burst = cap / np.where(off, 1.0, share)
        total = share * gaussian_bits_each(burst)
        raw = total - share * gaussian_bits_each(h * burst)
    return np.where(off, 0.0, total), np.where(off | (raw < 0), 0.0, raw), ~off & (raw < 0)


def mac_tdma_region(ch: StdMacChannel, shares) -> SecrecyRegion:
    """TDMA region for the given time shares, each user bursting at cap."""
    if not isinstance(shares, TdmaShares):
        shares = TdmaShares(np.asarray(shares, dtype=float))
    alpha = shares.shares
    k = ch.k_users
    if len(alpha) != k:
        raise ValueError("shares length must match k_users")
    constraints: List[RateConstraint] = []
    bounds = _tdma_user_bounds(ch.eve_gains, ch.power_caps, alpha)
    totals, secrecy_bounds, clamps = (b.tolist() for b in bounds)
    for u, (total, secrecy, clamped) in enumerate(zip(totals, secrecy_bounds, clamps)):
        constraints.append(RateConstraint((u,), KIND_USER_TOTAL, total))
        constraints.append(RateConstraint((u,), KIND_USER_SECRECY, secrecy, clamped))
    vertices = None
    if k == 2:
        b1, b2 = secrecy_bounds
        vertices = convex_hull_2d([(0.0, 0.0), (b1, 0.0), (b1, b2), (0.0, b2)])
    return SecrecyRegion(constraints, vertices, "TDMA", {"shares": list(alpha)})


def tw_region(ch: StdTwChannel, alloc) -> SecrecyRegion:
    """Two-way region at a fixed allocation.

    Each terminal's total rate is bounded by its own link capacity; every
    subset's secrecy rate is bounded by the clamped excess of those
    capacities over the eavesdropper's view of the subset.
    """
    powers = _powers_of(alloc)
    subsets = _nonempty_subsets(2)
    raw = tw_secrecy_bits(powers, ch.eve_gains, np.array([[u in s for u in range(2)] for s in subsets]))
    totals = gaussian_bits_each(powers).tolist()
    constraints = [RateConstraint((u,), KIND_USER_TOTAL, totals[u]) for u in range(2)]
    secrecy = np.where(raw < 0, 0.0, raw).tolist()
    for subset, bound, clamped in zip(subsets, secrecy, (raw < 0).tolist()):
        constraints.append(RateConstraint(subset, KIND_SECRECY, bound, clamped))
    vertices = _secrecy_pentagon(*secrecy)
    return SecrecyRegion(constraints, vertices, "TW", {"allocation": list(powers)})


def _sup_grid_bounds(ch: StdMacChannel, resolution: int):
    """Secrecy bounds (b1, b2, b12) of ``mac_sup_region`` at every power pair of
    the resolution x resolution grid, as flat arrays in the same arithmetic."""
    h1, h2 = (float(g) for g in ch.eve_gains)
    axes = (np.linspace(0.0, float(c), resolution) for c in ch.power_caps)
    p1, p2 = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    hp1, hp2 = h1 * p1, h2 * p2
    # the subsets {1}, {2} and {1, 2}, each with the rest heard as noise
    p_s, hp_s, hp_rest = np.array(((p1, p2, p1 + p2), (hp1, hp2, hp1 + hp2), (hp2, hp1, np.zeros_like(p1))))
    raw = secrecy_bits(p_s, 0.0, hp_s, hp_rest)
    return tuple(np.where(raw < 0, 0.0, raw))


def _distinct_ascending(points: np.ndarray) -> List[Tuple[float, float]]:
    """``sorted(set(...))`` of an (M, 2) array of finite points without
    negative zeros, as tuples of Python floats."""
    points = points[np.lexsort((points[:, 1], points[:, 0]))]
    fresh = np.ones(len(points), dtype=bool)
    fresh[1:] = (points[1:] != points[:-1]).any(axis=1)
    return list(zip(points[fresh, 0].tolist(), points[fresh, 1].tolist()))


def mac_hull_region(
    ch: StdMacChannel,
    power_grid_resolution: int = 33,
    share_grid_resolution: int = 33,
    schemes: Tuple[str, ...] = ("SUP", "TDMA"),
) -> SecrecyRegion:
    """Convex closure of superposition and TDMA regions over sample grids.

    Supports one or two users.  The closure over a continuum of power
    allocations is approximated by uniform grids whose resolutions are
    recorded in the metadata; ``schemes`` restricts which families are
    sampled.
    """
    resolutions = {"power_grid_resolution": power_grid_resolution, "share_grid_resolution": share_grid_resolution}
    for name, value in resolutions.items():
        if not isinstance(value, numbers.Integral) or value < 2:
            raise ValueError(f"{name} must be an integer of at least 2, got {value!r}")
    unknown = set(schemes) - {"SUP", "TDMA"}
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown)}")
    k = ch.k_users
    if k > 2:
        raise ValueError("vertex enumeration supports at most 2 users")
    meta = {
        "power_grid_resolution": power_grid_resolution,
        "share_grid_resolution": share_grid_resolution,
        "schemes": list(schemes),
    }
    if k == 1:
        (bound,) = _tdma_user_bounds(ch.eve_gains, ch.power_caps, np.ones(1))[1].tolist()
        vertices = [(0.0, 0.0)] if bound == 0 else [(0.0, 0.0), (bound, 0.0)]
        constraints = [RateConstraint((0,), KIND_SECRECY, bound)]
        return SecrecyRegion(constraints, vertices, "HULL", meta)

    a1 = np.linspace(0.0, 1.0, share_grid_resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        sup = _sup_grid_bounds(ch, power_grid_resolution) if "SUP" in schemes else ()
    # each user's TDMA secrecy bound at every share pair (a, 1 - a)
    tdma = _tdma_user_bounds(ch.eve_gains[:, None], ch.power_caps[:, None], np.array((a1, 1.0 - a1)))[1]
    tdma = tuple(tdma) if "TDMA" in schemes else ()
    if not all(np.isfinite(b).all() for b in sup + tdma):
        raise ValueError(
            "power_caps are too large for the hull: a sampled secrecy-rate bound is not finite"
        )
    points = [np.zeros((1, 2))]
    if sup:
        points.append(_pentagon_points(*sup))
    if tdma:
        b1, b2 = tdma
        zero = np.zeros_like(b1)
        points.append(np.stack([zero, zero, b1, zero, b1, b2, zero, b2], axis=1).reshape(-1, 2))
    hull = _sorted_hull(_distinct_ascending(np.concatenate(points)))
    max_x = max(p[0] for p in hull)
    max_y = max(p[1] for p in hull)
    max_sum = max(p[0] + p[1] for p in hull)
    constraints = [
        RateConstraint((0,), KIND_USER_SECRECY, max_x),
        RateConstraint((1,), KIND_USER_SECRECY, max_y),
        RateConstraint((0, 1), KIND_SECRECY, max_sum),
    ]
    return SecrecyRegion(constraints, hull, "HULL", meta)
