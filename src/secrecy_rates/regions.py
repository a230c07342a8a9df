"""Achievable secrecy-rate regions and their two-user projections.

A region is a list of rate constraints over user subsets plus, for two
users, the vertex polygon of the projection onto the secrecy-rate plane
(R_s1, R_s2).  Superposition and TDMA regions are built for a fixed power
allocation or share vector; the hull builder samples both families over
grids and returns the convex closure of everything it saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .channels import (
    StdMacChannel,
    StdTwChannel,
    _powers_of,
    cap_eve_tilde,
    cap_main,
    gaussian_bits,
    to_jsonable,
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
        if np.any(self.shares < 0) or np.any(self.shares > 1):
            raise ValueError("shares must lie in [0, 1]")
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


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Monotone-chain convex hull, counterclockwise, collinear points dropped."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts
    lower: List[Tuple[float, float]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[float, float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if hull else pts[:1]


def _secrecy_pentagon(b1: float, b2: float, b12: float) -> List[Tuple[float, float]]:
    """Vertices of {x,y >= 0, x <= b1, y <= b2, x+y <= b12}, counterclockwise.

    Every vertex is a crossing of two of the five bounding lines; the eight
    crossings of non-parallel pairs are listed below, and the feasible ones
    are kept (at most five vertices).
    """
    crossings = [
        (0.0, 0.0), (0.0, b2), (0.0, b12), (b1, 0.0), (b12, 0.0),
        (b1, b2), (b1, b12 - b1), (b12 - b2, b2),
    ]
    feas = []
    for x, y in crossings:
        if x < -REGION_TOL or y < -REGION_TOL:
            continue
        if x > b1 + REGION_TOL or y > b2 + REGION_TOL or x + y > b12 + REGION_TOL:
            continue
        feas.append((min(max(x, 0.0), b1) + 0.0, min(max(y, 0.0), b2) + 0.0))
    feas.append((0.0, 0.0))
    return convex_hull_2d(feas)


def mac_sup_region(ch: StdMacChannel, alloc) -> SecrecyRegion:
    """Superposition region at a fixed allocation.

    For every nonempty user subset S there is a total-rate bound (the
    receiver's sum capacity over S) and a secrecy bound, the excess of that
    capacity over what the eavesdropper collects from S treating the rest
    as noise, clamped at zero.
    """
    powers = _powers_of(alloc)
    k = ch.k_users
    if len(powers) != k:
        raise ValueError("allocation length must match k_users")
    constraints: List[RateConstraint] = []
    bounds = {}
    for subset in _nonempty_subsets(k):
        total = cap_main(powers, subset)
        raw = total - cap_eve_tilde(powers, ch, subset)
        clamped = raw < 0
        secrecy = 0.0 if clamped else raw
        constraints.append(RateConstraint(subset, KIND_TOTAL, total))
        constraints.append(RateConstraint(subset, KIND_SECRECY, secrecy, clamped))
        bounds[subset] = secrecy
    vertices = None
    if k == 2:
        vertices = _secrecy_pentagon(bounds[(0,)], bounds[(1,)], bounds[(0, 1)])
    return SecrecyRegion(constraints, vertices, "SUP", {"allocation": list(powers)})


def _tdma_user_bounds(h: float, cap: float, share: float) -> Tuple[float, float, bool]:
    """(total, secrecy, clamped) for one TDMA user at full cap in its slot."""
    if share <= 0 or cap <= 0:
        return 0.0, 0.0, False
    burst = cap / share
    total = share * gaussian_bits(burst)
    raw = total - share * gaussian_bits(h * burst)
    return total, max(raw, 0.0), raw < 0


def mac_tdma_region(ch: StdMacChannel, shares) -> SecrecyRegion:
    """TDMA region for the given time shares, each user bursting at cap."""
    if not isinstance(shares, TdmaShares):
        shares = TdmaShares(np.asarray(shares, dtype=float))
    alpha = shares.shares
    k = ch.k_users
    if len(alpha) != k:
        raise ValueError("shares length must match k_users")
    constraints: List[RateConstraint] = []
    secrecy_bounds = []
    for u in range(k):
        total, secrecy, clamped = _tdma_user_bounds(
            float(ch.eve_gains[u]), float(ch.power_caps[u]), float(alpha[u])
        )
        constraints.append(RateConstraint((u,), KIND_USER_TOTAL, total))
        constraints.append(RateConstraint((u,), KIND_USER_SECRECY, secrecy, clamped))
        secrecy_bounds.append(secrecy)
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
    if len(powers) != 2:
        raise ValueError("allocation length must be 2")
    constraints: List[RateConstraint] = []
    totals = [gaussian_bits(float(powers[u])) for u in range(2)]
    for u in range(2):
        constraints.append(RateConstraint((u,), KIND_USER_TOTAL, totals[u]))
    bounds = {}
    for subset in _nonempty_subsets(2):
        raw = sum(totals[u] for u in subset) - cap_eve_tilde(powers, ch, subset)
        clamped = raw < 0
        secrecy = 0.0 if clamped else raw
        constraints.append(RateConstraint(subset, KIND_SECRECY, secrecy, clamped))
        bounds[subset] = secrecy
    vertices = _secrecy_pentagon(bounds[(0,)], bounds[(1,)], bounds[(0, 1)])
    return SecrecyRegion(constraints, vertices, "TW", {"allocation": list(powers)})


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
    if power_grid_resolution < 2 or share_grid_resolution < 2:
        raise ValueError("grid resolutions must be at least 2")
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
        _, bound, _ = _tdma_user_bounds(float(ch.eve_gains[0]), float(ch.power_caps[0]), 1.0)
        vertices = [(0.0, 0.0)] if bound == 0 else [(0.0, 0.0), (bound, 0.0)]
        constraints = [RateConstraint((0,), KIND_SECRECY, bound)]
        return SecrecyRegion(constraints, vertices, "HULL", meta)

    points: List[Tuple[float, float]] = [(0.0, 0.0)]
    if "SUP" in schemes:
        axis1 = np.linspace(0.0, float(ch.power_caps[0]), power_grid_resolution)
        axis2 = np.linspace(0.0, float(ch.power_caps[1]), power_grid_resolution)
        for p1 in axis1:
            for p2 in axis2:
                region = mac_sup_region(ch, np.array([p1, p2]))
                points.extend(region.vertices2d)
    if "TDMA" in schemes:
        for a1 in np.linspace(0.0, 1.0, share_grid_resolution):
            region = mac_tdma_region(ch, np.array([a1, 1.0 - a1]))
            points.extend(region.vertices2d)
    hull = convex_hull_2d(points)
    max_x = max(p[0] for p in hull)
    max_y = max(p[1] for p in hull)
    max_sum = max(p[0] + p[1] for p in hull)
    constraints = [
        RateConstraint((0,), KIND_USER_SECRECY, max_x),
        RateConstraint((1,), KIND_USER_SECRECY, max_y),
        RateConstraint((0, 1), KIND_SECRECY, max_sum),
    ]
    return SecrecyRegion(constraints, hull, "HULL", meta)
