"""Paper-notation references and seeded instance generators for the tests.

Tekin & Yener state their optima in two-user notation: the disadvantage
ratios phi and psi, the two-user superposition corner rule and the
two-user cooperative-jamming closed form.  The library computes every
optimum with the general K-user solvers, so these forms live here, where
the tests use them as independent references, together with the scalar
pivot quadratic and candidate loop that the cooperative-jamming pass is
checked against, the scalar form of that pass's ranking, the 80-digit
rate check, the membership test for rate regions, the seeded random channel
generators, the scalar path-loss law of the sweep, the line-pair
intersection form of the two-user secrecy pentagon, the per-cell
sampling loop of the two-user hull and its chain over every sampled
point, the single-pass form of the grid oracles' search, an exhaustive
search over every transmit/jam/silent role and the per-role search that
the one mesh replaced, the scalar rho fit that the MAC jamming oracle's
one-pass pivot candidates are checked against, the two-user branch
thresholds shown to change no oracle answer,
the equal-gain test ``is_degraded`` under which the cap-proportional TDMA
shares are optimal, the nested TDMA share search (Newton on
the multiplier around a full burst solve per step), the per-group loops
that merge tied users and split their power back, and the secrecy-rate
arithmetic that each solver, region and jamming site wrote out for
itself before they shared one function per scheme, with the scalar
log1p kernel and subset capacities that arithmetic was built from.
Nothing in ``secrecy_rates`` imports this module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from secrecy_rates import allocation, regions
from secrecy_rates.allocation import _MAX_BURST, SumRateSolution, _solution, _tdma_rate, sup_sum_rate
from secrecy_rates.channels import (
    GAIN_MERGE_RTOL,
    TOL_ABS,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    _LN2,
    _as_float_array,
    _gains_of,
    _powers_of,
    _tied_neighbors,
    gaussian_bits_each,
)
from secrecy_rates.jamming import (
    RATE_TIE_TOL,
    JammingSolution,
    _all_silent_solution,
)
from secrecy_rates.oracle import GridSpec, _axis, _guard_shape
from secrecy_rates.sweep import Scene
from secrecy_rates.regions import (
    KIND_SECRECY,
    KIND_TOTAL,
    KIND_USER_SECRECY,
    KIND_USER_TOTAL,
    REGION_TOL,
    RateConstraint,
    SecrecyRegion,
    TdmaShares,
    convex_hull_2d,
)


def gaussian_bits(snr: float) -> float:
    """Gaussian capacity C(snr) = 1/2 log2(1 + snr) in bits of one SNR, by
    np.log1p on the scalar."""
    return 0.5 * float(np.log1p(snr)) / _LN2


def cap_main(alloc, subset: Iterable[int]) -> float:
    """Receiver-side Gaussian sum capacity of a user subset, in bits.

    Returns C(sum of subset powers); the empty subset gives 0.
    """
    powers = _powers_of(alloc)
    idx = list(subset)
    return gaussian_bits(float(powers[idx].sum()))


def cap_eve_tilde(alloc, gains, subset: Iterable[int]) -> float:
    """Eavesdropper capacity of a subset with everyone else heard as noise."""
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    inside = float((h[idx] * powers[idx]).sum())
    members = set(idx)
    comp = [k for k in range(len(powers)) if k not in members]
    outside = float((h[comp] * powers[comp]).sum()) if comp else 0.0
    return gaussian_bits(inside / (1.0 + outside))


def cap_eve(alloc, gains, subset: Iterable[int]) -> float:
    """Eavesdropper-side sum capacity of a subset, other users absent."""
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    return gaussian_bits(float((h[idx] * powers[idx]).sum()))


def phi(alloc, gains, subset: Iterable[int]) -> float:
    """Eavesdropper-to-receiver disadvantage ratio over a subset.

    (1 + sum h_k P_k) / (1 + sum P_k), the quantity whose minimization over
    the power box is equivalent to maximizing the superposition secrecy
    sum-rate.  Empty subsets and all-zero powers give 1.
    """
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    if not idx:
        return 1.0
    num = 1.0 + float((h[idx] * powers[idx]).sum())
    den = 1.0 + float(powers[idx].sum())
    return num / den


def psi(alloc, gains, subset: Iterable[int]) -> float:
    """Two-way analogue of phi with a product denominator.

    (1 + sum h_k P_k) / prod (1 + P_k); empty subsets give 1.
    """
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    if not idx:
        return 1.0
    num = 1.0 + float((h[idx] * powers[idx]).sum())
    den = float(np.prod(1.0 + powers[idx]))
    return num / den


def mac_two_user_closed_form(ch: StdMacChannel) -> SumRateSolution:
    """Two-user corner rule for the superposition optimum.

    Branches: both at caps when h1 < 1 and h2 < (1+h1*c1)/(1+c1); user 1
    alone at cap when h1 < 1 and h2 at or above that threshold; otherwise
    nobody transmits.  Equal gains need no special case: the threshold then
    collapses to h < 1.  Comparisons are strict with tolerance 1e-12 and
    match mac_sup_optimal bit for bit.
    """
    if ch.k_users != 2:
        raise ValueError("mac_two_user_closed_form requires exactly 2 users")
    h1, h2 = float(ch.eve_gains[0]), float(ch.eve_gains[1])
    c1, c2 = float(ch.power_caps[0]), float(ch.power_caps[1])
    threshold = (1.0 + h1 * c1) / (1.0 + c1)
    if h1 < 1.0 - TOL_ABS and h2 < threshold - TOL_ABS:
        powers = np.array([c1, c2])
        branch = "both-transmit"
    elif h1 < 1.0 - TOL_ABS:
        powers = np.array([c1, 0.0])
        branch = "single-user"
    else:
        powers = np.zeros(2)
        branch = "all-silent"
    return _solution(powers, sup_sum_rate(powers, ch.eve_gains), "SUP", branch)


def cj_objective_mac(ch: StdMacChannel, alloc, transmit_set: Iterable[int]) -> float:
    """Ratio phi(all users) / phi(non-transmitters), the structure behind the rate.

    Smaller is better: jamming power inflates the denominator, discounting
    the eavesdropper's gain on the jammers.  The rate, -1/2 log2 of this
    ratio clamped at 0, is computed by reference_mac_secrecy_bits without
    forming it.
    """
    powers = _powers_of(alloc)
    t_set = set(transmit_set)
    complement = [k for k in range(ch.k_users) if k not in t_set]
    return phi(powers, ch, range(ch.k_users)) / phi(powers, ch, complement)


def _quadratic_plus_root(c1: float, c2: float, c3: float) -> Optional[float]:
    """Largest root of c1 x^2 + c2 x + c3 (the "+sqrt" branch), if positive.

    Uses the cancellation-free form when c2 > 0.  Returns None when the
    discriminant is negative or the root is not strictly positive.
    """
    disc = c2 * c2 - 4.0 * c1 * c3
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    if c2 <= 0.0:
        root = (-c2 + s) / (2.0 * c1)
    else:
        den = -c2 - s
        if den == 0.0:
            return None
        root = 2.0 * c3 / den
    return root if root > 0.0 else None


def pivot_quadratic(
    ch: StdMacChannel, transmit_set, jam_set, pivot: int, fixed_alloc
) -> Tuple[float, float, float, Optional[float]]:
    """Coefficients and candidate power for the one partial-power jammer.

    With every other power held at its fixed value, rho_pivot is an exact
    quadratic c1 P^2 + c2 P + c3 in the pivot's power.  Returns the
    coefficients and the "+sqrt" root, or None when no positive real root
    exists (then the pivot should stay at 0).  Degenerate c1 = 0 reduces to
    the linear equation; if c2 = 0 too the objective is flat in the pivot
    and power is conserved by returning None.
    """
    if pivot not in set(jam_set):
        raise ValueError("pivot must belong to jam_set")
    powers = _powers_of(fixed_alloc).copy()
    powers[pivot] = 0.0
    t_set = sorted(set(transmit_set))
    in_t = set(t_set)
    comp_mj = [k for k in range(ch.k_users) if k not in in_t and k != pivot]
    h = ch.eve_gains
    hj = float(h[pivot])
    sum_p_t = float(powers[t_set].sum()) if t_set else 0.0
    sum_hp_t = float((h[t_set] * powers[t_set]).sum()) if t_set else 0.0
    sum_p_all_mj = float(powers.sum())
    sum_hp_all_mj = float((h * powers).sum())
    sum_p_comp_mj = float(powers[comp_mj].sum()) if comp_mj else 0.0
    sum_hp_comp_mj = float((h[comp_mj] * powers[comp_mj]).sum()) if comp_mj else 0.0

    c1 = hj * (hj * sum_p_t - sum_hp_t)
    c2 = hj * (2.0 + sum_hp_all_mj + sum_hp_comp_mj) * sum_p_t - hj * (
        2.0 + sum_p_all_mj + sum_p_comp_mj
    ) * sum_hp_t
    c3 = (1.0 + sum_hp_all_mj) * (1.0 + sum_hp_comp_mj) * sum_p_t - hj * (
        1.0 + sum_p_all_mj
    ) * (1.0 + sum_p_comp_mj) * sum_hp_t

    if c1 == 0.0:
        if c2 == 0.0:
            root = None
        else:
            linear = -c3 / c2
            root = linear if linear > 0.0 else None
    else:
        root = _quadratic_plus_root(c1, c2, c3)
    return c1, c2, c3, root


def mac_cj_two_user(ch: StdMacChannel) -> JammingSolution:
    """Two-user closed form for cooperative jamming.

    With h1 < 1, user 2 transmits below the superposition threshold, stays
    silent while its gain is at most 1, and jams with power
    [min(p, cap2)]^+ above that, where p solves the pivot quadratic in
    closed form.  With h1 >= 1 < h2, both users act only if jamming at
    min(p, cap2) actually buys a positive rate, else everyone is silent.
    Equal gains never jam: both transmit if the common gain is below 1.
    """
    if ch.k_users != 2:
        raise ValueError("mac_cj_two_user requires exactly 2 users")
    h1, h2 = float(ch.eve_gains[0]), float(ch.eve_gains[1])
    cap1, cap2 = float(ch.power_caps[0]), float(ch.power_caps[1])
    diagnostics: Dict = {}

    def jam_power() -> float:
        d = h1 * h2 * (h2 - 1.0) * ((h2 - 1.0) + (h2 - h1) * cap1)
        p = (h1 - 1.0) / (h2 - h1) + math.sqrt(max(d, 0.0)) / (h2 * (h2 - h1))
        diagnostics["p"] = p
        return p

    if not ch.has_strictly_ascending_gains():
        if h1 < 1.0 - TOL_ABS:
            powers = np.array([cap1, cap2])
            t_count, branch = 2, "both-transmit"
        else:
            powers = np.zeros(2)
            t_count, branch = 0, "all-silent"
        pivot = None
    elif h1 < 1.0 - TOL_ABS:
        threshold = (1.0 + h1 * cap1) / (1.0 + cap1)
        if h2 < threshold - TOL_ABS:
            powers = np.array([cap1, cap2])
            t_count, branch, pivot = 2, "both-transmit", None
        elif h2 <= 1.0 + TOL_ABS:
            powers = np.array([cap1, 0.0])
            t_count, branch, pivot = 1, "partner-silent", None
        else:
            p2 = max(min(jam_power(), cap2), 0.0)
            if p2 < TOL_ABS:
                p2 = 0.0
            powers = np.array([cap1, p2])
            t_count, branch, pivot = 1, "partner-jams", 1
    else:
        p2 = max(min(jam_power(), cap2), 0.0)
        if p2 < TOL_ABS:
            p2 = 0.0
        powers = np.array([cap1, p2])
        t_count, branch, pivot = 1, "jam-or-quit", 1

    rate = reference_mac_secrecy_bits(powers, ch.eve_gains, range(t_count))
    diagnostics["branch"] = branch
    if rate <= RATE_TIE_TOL:
        diagnostics["case"] = "no-positive-rate"
        return _all_silent_solution(2, diagnostics)
    transmit = tuple(i for i in range(t_count) if powers[i] > 0)
    jam = (1,) if pivot == 1 and powers[1] > 0 else ()
    silent = tuple(i for i in range(2) if i not in transmit and i not in jam)
    pivot_active = pivot is not None and powers[1] > 0
    diagnostics["case"] = "closed-form"
    return JammingSolution(
        transmit,
        jam,
        silent,
        PowerAllocation(powers),
        rate,
        1 if pivot_active else None,
        None,
        float(powers[1]) if pivot_active else None,
        diagnostics,
    )


@dataclass
class RatePoint:
    """Per-user secrecy and open rates, all nonnegative, in bits."""

    secrecy_rates: np.ndarray
    open_rates: np.ndarray

    def __post_init__(self):
        self.secrecy_rates = np.asarray(self.secrecy_rates, dtype=float)
        self.open_rates = np.asarray(self.open_rates, dtype=float)
        if self.secrecy_rates.shape != self.open_rates.shape:
            raise ValueError("secrecy_rates and open_rates must have equal length")
        if np.any(self.secrecy_rates < 0) or np.any(self.open_rates < 0):
            raise ValueError("rates must be nonnegative")


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _point_in_convex_polygon(poly: Sequence[Tuple[float, float]], pt, tol=REGION_TOL) -> bool:
    if not poly:
        return False
    if len(poly) == 1:
        return abs(pt[0] - poly[0][0]) <= tol and abs(pt[1] - poly[0][1]) <= tol
    if len(poly) == 2:
        a, b = poly
        if abs(_cross(a, b, pt)) > tol * max(1.0, abs(b[0] - a[0]) + abs(b[1] - a[1])):
            return False
        lo_x, hi_x = sorted((a[0], b[0]))
        lo_y, hi_y = sorted((a[1], b[1]))
        return lo_x - tol <= pt[0] <= hi_x + tol and lo_y - tol <= pt[1] <= hi_y + tol
    for i in range(len(poly)):
        if _cross(poly[i], poly[(i + 1) % len(poly)], pt) < -tol:
            return False
    return True


def region_contains(region: SecrecyRegion, pt: RatePoint, tol: float = REGION_TOL) -> bool:
    """True iff the point satisfies every constraint within tolerance.

    For HULL regions with a stored polygon the secrecy pair must also lie
    inside the polygon; HULL regions carry no total-rate information, so
    open rates are unconstrained there.
    """
    rs = pt.secrecy_rates
    ro = pt.open_rates
    n = len(rs)
    for c in region.constraints:
        if any(u >= n for u in c.subset):
            raise ValueError("rate point dimension does not match region constraints")
        if c.kind in (KIND_TOTAL, KIND_USER_TOTAL):
            value = float(sum(rs[u] + ro[u] for u in c.subset))
        else:
            value = float(sum(rs[u] for u in c.subset))
        if value > c.bound + tol:
            return False
    if region.provenance == "HULL" and region.vertices2d is not None and n == 2:
        return _point_in_convex_polygon(region.vertices2d, (float(rs[0]), float(rs[1])), tol)
    return True


def reference_ordered_ranking(h, caps) -> List[Tuple[int, int, float, int, float]]:
    """The ranking keys of ``jamming._mac_cj_batch`` for one channel, as a
    scalar loop: (t, p, rate, active jammers, total power) of every ordered
    role pattern in scan order.  Users [0, t) transmit at cap, user p >= t
    is the pivot at its "+sqrt" root clamped to [0, cap] and the users after
    it jam at cap (p = K: no jammer).  The sums are running sums from the
    front for the transmitters and from the back for the jammers, the
    rates np.log1p of the same SNRs, clamped at 0."""
    k = len(caps)
    caps, h = [float(c) for c in caps], [float(g) for g in h]
    front = [(0.0, 0.0)]
    for c, g in zip(caps, h):
        front.append((front[-1][0] + c, front[-1][1] + g * c))
    # the sums over the users after each pivot, and how many have a positive cap
    back = [(0.0, 0.0, 0)] * (k + 1)
    for u in range(k - 2, -1, -1):
        r, gr, m = back[u + 1]
        c = caps[u + 1]
        back[u] = (r + c, gr + h[u + 1] * c, m + (c > 0))
    keys, heard, leaked = [], [], []
    for t in range(k + 1):
        p_t, hp_t = front[t]
        for p in range(t, k + 1):
            r, gr, m = back[p]
            h_p, cap = (h[p], caps[p]) if p < k else (0.0, 0.0)
            one_r, one_g = 1.0 + r, 1.0 + gr
            c1 = h_p * (h_p * p_t - hp_t)
            half_c2 = h_p * (one_g * p_t - one_r * hp_t)
            c3 = (hp_t + one_g) * one_g * p_t - (p_t + one_r) * (h_p * one_r) * hp_t
            if c1 == 0.0:
                root = math.nan if half_c2 == 0.0 else -0.5 * c3 / half_c2
            else:
                disc = half_c2 * half_c2 - c1 * c3
                s = math.sqrt(disc) if disc >= 0.0 else math.nan
                root = (s - half_c2) / c1 if half_c2 <= 0.0 else c3 / (-half_c2 - s)
            pivot = min(root, cap) if root > 0.0 else 0.0
            heard.append(p_t / (1.0 + (pivot + r)))
            leaked.append(hp_t / (1.0 + (h_p * pivot + gr)))
            keys.append((t, p, int(pivot > 0.0) + m, p_t + (pivot + r)))
    rates = [max(gaussian_bits(a) - gaussian_bits(b), 0.0) for a, b in zip(heard, leaked)]
    return [(t, p, rate, n_jam, total) for (t, p, n_jam, total), rate in zip(keys, rates)]


def reference_ordered_winner(h, caps) -> Tuple[int, int]:
    """The (t, p) that the tie rule picks from reference_ordered_ranking:
    rates within RATE_TIE_TOL of the best tie, then fewest active jammers,
    then least total power, then scan order."""
    ranking = reference_ordered_ranking(h, caps)
    best = max(rate for _, _, rate, _, _ in ranking)
    pool = [(n_jam, total, i) for i, (_, _, rate, n_jam, total) in enumerate(ranking) if rate >= best - RATE_TIE_TOL]
    return ranking[min(pool)[2]][:2]


def dec_bits(snr: Decimal) -> Decimal:
    """C(snr) = 1/2 log2(1 + snr) in the current decimal context."""
    return (1 + snr).ln() / (2 * Decimal(2).ln())


def assert_near_reference(got: float, rate: Decimal, scale: Decimal) -> None:
    """got matches the clamped reference rate within 1e-12 of scale, the summed size
    of the capacities the rate subtracts: the rate itself unless those nearly cancel,
    where no double evaluation of the difference keeps more relative accuracy."""
    assert abs(Decimal(got) - max(rate, 0)) <= Decimal("1e-12") * scale, (got, rate, scale)


def random_mac_instance(
    rng: np.random.Generator,
    k_users: int,
    gain_range: Tuple[float, float] = (0.0, 2.0),
    cap_range: Tuple[float, float] = (0.1, 10.0),
) -> StdMacChannel:
    """Standardized MAC instance with strictly ascending random gains."""
    for _ in range(100):
        h = np.sort(rng.uniform(gain_range[0], gain_range[1], k_users))
        spacing_ok = all(
            h[i + 1] - h[i] > GAIN_MERGE_RTOL * max(h[i + 1], 1.0) for i in range(k_users - 1)
        )
        if spacing_ok:
            break
    caps = rng.uniform(cap_range[0], cap_range[1], k_users)
    return StdMacChannel(h, caps)


def random_degraded_mac_instance(
    rng: np.random.Generator,
    k_users: int,
    cap_range: Tuple[float, float] = (0.1, 10.0),
) -> StdMacChannel:
    """Standardized MAC instance with one common gain below 1."""
    h = float(rng.uniform(0.02, 0.98))
    caps = rng.uniform(cap_range[0], cap_range[1], k_users)
    return StdMacChannel(np.full(k_users, h), caps)


def is_degraded(ch: StdMacChannel) -> bool:
    """True when all gains are equal (within merge tolerance) and below 1:
    then the cap-proportional TDMA shares are optimal."""
    h = ch.eve_gains
    span = float(h[-1] - h[0])
    if span > GAIN_MERGE_RTOL * max(abs(h[-1]), abs(h[0]), 1e-300):
        return False
    return float(h.mean()) < 1.0


def random_tied_mac_row(rng: np.random.Generator, k_users: int) -> Tuple[np.ndarray, np.ndarray]:
    """Unsorted gains and caps of K users in groups of 1 to 4 whose gains lie
    within 2e-10 of a common value, relative, so each group ties; about one
    cap in ten is 0, and now and then all of a group's caps are."""
    h, caps = [], []
    while len(h) < k_users:
        size = min(int(rng.integers(1, 5)), k_users - len(h))
        h += (rng.uniform(0.05, 3.0) * (1.0 + rng.uniform(-2e-10, 2e-10, size))).tolist()
        group_caps = rng.uniform(0.1, 5.0, size) * (rng.random(size) >= 0.1)
        caps += (group_caps * (rng.random() >= 0.1)).tolist()
    order = rng.permutation(k_users)
    return np.array(h)[order], np.array(caps)[order]


def random_tw_instance(
    rng: np.random.Generator,
    gain_range: Tuple[float, float] = (0.0, 2.0),
    cap_range: Tuple[float, float] = (0.1, 10.0),
) -> StdTwChannel:
    """Standardized two-way instance with random gains and caps."""
    h = rng.uniform(gain_range[0], gain_range[1], 2)
    caps = rng.uniform(cap_range[0], cap_range[1], 2)
    return StdTwChannel(h, caps)


def reference_merge_tied_users(eve_gains, power_caps) -> StdMacChannel:
    """merge_tied_users as a loop over one channel's tie groups: a stable
    sort, cuts where neighbours do not tie, then per group the gain
    np.dot(gh, gc) / cap_sum (the plain mean when the caps sum to 0; a
    user in no tie keeps its own) and the summed cap gc.sum()."""
    h = _as_float_array(eve_gains, "eve_gains")
    caps = _as_float_array(power_caps, "power_caps")
    if len(h) != len(caps):
        raise ValueError("eve_gains and power_caps must have equal length")
    order = np.argsort(h, kind="stable")
    h_sorted = h[order]
    caps_sorted = caps[order]
    cuts = (np.flatnonzero(~_tied_neighbors(h_sorted)) + 1).tolist()
    groups = zip([0] + cuts, cuts + [len(h)]) if len(h) else ()

    merged_h = []
    merged_caps = []
    permutation = []
    source_caps = []
    for lo, hi in groups:
        gh = h_sorted[lo:hi]
        gc = caps_sorted[lo:hi]
        cap_sum = gc.sum()
        if hi - lo == 1:
            gain = float(gh[0])
        else:
            gain = float(np.dot(gh, gc) / cap_sum) if cap_sum > 0 else float(gh.mean())
        merged_h.append(gain)
        merged_caps.append(float(cap_sum))
        permutation.append(tuple(order[lo:hi].tolist()))
        source_caps.append(tuple(gc.tolist()))
    return StdMacChannel(
        np.array(merged_h),
        np.array(merged_caps),
        tuple(permutation),
        tuple(source_caps),
    )


def reference_split_back(ch: StdMacChannel, powers) -> np.ndarray:
    """StdMacChannel.split_back as a loop over the channel's groups: each
    original user gets power * cap / group_cap (0 where the group's caps sum
    to 0), with the caps cap / len(group) when source_caps is None."""
    powers = np.asarray(powers, dtype=float)
    if len(powers) != ch.k_users:
        raise ValueError("powers length must match k_users")
    n_orig = sum(len(g) for g in ch.permutation)
    out = np.zeros(n_orig)
    for i, group in enumerate(ch.permutation):
        if ch.source_caps is not None:
            caps = np.asarray(ch.source_caps[i], dtype=float)
        else:
            caps = np.full(len(group), ch.power_caps[i] / max(len(group), 1))
        total = float(powers[i])
        cap_sum = caps.sum()
        for j, orig in enumerate(group):
            out[orig] = total * caps[j] / cap_sum if cap_sum > 0 else 0.0
    return out


def _gain(scene: Scene, a: Sequence[float], b: Sequence[float]) -> float:
    d = float(np.hypot(a[0] - b[0], a[1] - b[1]))
    d = max(d, scene.distance_floor)
    return scene.reference_gain * float(np.power(d, -scene.path_loss_exponent))


def _secrecy_pentagon(b1: float, b2: float, b12: float) -> List[Tuple[float, float]]:
    """Vertices of {x,y >= 0, x <= b1, y <= b2, x+y <= b12}, counterclockwise.

    Intersects every pair of bounding lines and keeps the feasible points,
    which is exact for this five-halfplane family (at most five vertices).
    """
    lines = [
        (1.0, 0.0, 0.0),   # x = 0
        (0.0, 1.0, 0.0),   # y = 0
        (1.0, 0.0, b1),    # x = b1
        (0.0, 1.0, b2),    # y = b2
        (1.0, 1.0, b12),   # x + y = b12
    ]
    cands = []
    for i in range(len(lines)):
        a1, b1_, c1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, b2_, c2 = lines[j]
            det = a1 * b2_ - a2 * b1_
            if abs(det) < 1e-15:
                continue
            x = (c1 * b2_ - c2 * b1_) / det
            y = (a1 * c2 - a2 * c1) / det
            cands.append((x, y))
    feas = []
    for x, y in cands:
        if x < -REGION_TOL or y < -REGION_TOL:
            continue
        if x > b1 + REGION_TOL or y > b2 + REGION_TOL or x + y > b12 + REGION_TOL:
            continue
        feas.append((min(max(x, 0.0), b1) + 0.0, min(max(y, 0.0), b2) + 0.0))
    feas.append((0.0, 0.0))
    return convex_hull_2d(feas)


# The rate arithmetic of each site as it was written out before the sites
# shared channels.secrecy_bits, channels.tw_secrecy_bits and the array form
# of regions._tdma_user_bounds.  The library must stay == to these.


def reference_mac_secrecy_bits(powers: np.ndarray, h: np.ndarray, transmit: Iterable[int]) -> float:
    """MAC secrecy sum rate [C(P_T / (1 + P_N)) - C(H_T / (1 + H_N))]^+ in bits.

    T is the transmit set and N the rest, heard as noise; P sums powers, H
    gain-weighted powers.  The sums are masked over all users, so a silent
    N gives the same bits as T = everyone.
    """
    in_t = np.zeros(len(powers), dtype=bool)
    in_t[list(transmit)] = True
    hp = h * powers
    p_t, hp_t = powers * in_t, hp * in_t
    heard = gaussian_bits(float(p_t.sum()) / (1.0 + float((powers - p_t).sum())))
    return max(heard - gaussian_bits(float(hp_t.sum()) / (1.0 + float((hp - hp_t).sum()))), 0.0)


def reference_tw_secrecy_bits(powers: np.ndarray, h: np.ndarray, transmit: Iterable[int]) -> float:
    """Two-way secrecy sum rate [sum_T C(P_k) - C(H_T / (1 + H_N))]^+ in bits."""
    t = sorted(set(transmit))
    return max(sum(gaussian_bits(float(powers[k])) for k in t) - cap_eve_tilde(powers, h, t), 0.0)


def reference_tw_rule_rates(h: np.ndarray, powers: np.ndarray, transmit: np.ndarray) -> np.ndarray:
    """The unclamped rate of ``jamming._tw_cj_rule`` for (N, 2) rows."""
    with np.errstate(all="ignore"):
        # sum_T C(P_k) - C(H_T / (1 + H_N))
        gross = np.where(transmit, gaussian_bits_each(powers), 0.0)
        hp = h * powers
        inside, outside = np.where(transmit, hp, 0.0), np.where(transmit, 0.0, hp)
        gross, inside, outside = (v[:, 0] + v[:, 1] for v in (gross, inside, outside))
        rate = gross - gaussian_bits_each(inside / (1.0 + outside))
    return rate


def reference_tdma_user_bounds(h: float, cap: float, share: float) -> Tuple[float, float, bool]:
    """(total, secrecy, clamped) for one TDMA user at full cap in its slot."""
    if share <= 0 or cap <= 0:
        return 0.0, 0.0, False
    burst = cap / share
    total = share * gaussian_bits(burst)
    raw = total - share * gaussian_bits(h * burst)
    return total, max(raw, 0.0), raw < 0


def reference_tdma_rate(h: np.ndarray, caps: np.ndarray, shares: np.ndarray) -> float:
    """TDMA sum rate in bits: each user's clamped slot secrecy rate at cap / share."""
    users = zip(h.tolist(), caps.tolist(), shares.tolist())
    return sum(reference_tdma_user_bounds(hk, ck, sk)[1] for hk, ck, sk in users)


def reference_mac_sup_region(ch: StdMacChannel, alloc) -> SecrecyRegion:
    """Superposition region at a fixed allocation, one subset at a time."""
    powers = _powers_of(alloc)
    k = ch.k_users
    if len(powers) != k:
        raise ValueError("allocation length must match k_users")
    constraints: List[RateConstraint] = []
    bounds = {}
    for subset in regions._nonempty_subsets(k):
        total = cap_main(powers, subset)
        raw = total - cap_eve_tilde(powers, ch, subset)
        clamped = raw < 0
        secrecy = 0.0 if clamped else raw
        constraints.append(RateConstraint(subset, KIND_TOTAL, total))
        constraints.append(RateConstraint(subset, KIND_SECRECY, secrecy, clamped))
        bounds[subset] = secrecy
    vertices = None
    if k == 2:
        vertices = regions._secrecy_pentagon(bounds[(0,)], bounds[(1,)], bounds[(0, 1)])
    return SecrecyRegion(constraints, vertices, "SUP", {"allocation": list(powers)})


def reference_mac_tdma_region(ch: StdMacChannel, shares) -> SecrecyRegion:
    """TDMA region for the given time shares, one user at a time."""
    if not isinstance(shares, TdmaShares):
        shares = TdmaShares(np.asarray(shares, dtype=float))
    alpha = shares.shares
    k = ch.k_users
    if len(alpha) != k:
        raise ValueError("shares length must match k_users")
    constraints: List[RateConstraint] = []
    secrecy_bounds = []
    for u in range(k):
        total, secrecy, clamped = reference_tdma_user_bounds(
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


def reference_tw_region(ch: StdTwChannel, alloc) -> SecrecyRegion:
    """Two-way region at a fixed allocation, one subset at a time."""
    powers = _powers_of(alloc)
    if len(powers) != 2:
        raise ValueError("allocation length must be 2")
    constraints: List[RateConstraint] = []
    totals = [gaussian_bits(float(powers[u])) for u in range(2)]
    for u in range(2):
        constraints.append(RateConstraint((u,), KIND_USER_TOTAL, totals[u]))
    bounds = {}
    for subset in regions._nonempty_subsets(2):
        raw = sum(totals[u] for u in subset) - cap_eve_tilde(powers, ch, subset)
        clamped = raw < 0
        secrecy = 0.0 if clamped else raw
        constraints.append(RateConstraint(subset, KIND_SECRECY, secrecy, clamped))
        bounds[subset] = secrecy
    vertices = regions._secrecy_pentagon(bounds[(0,)], bounds[(1,)], bounds[(0, 1)])
    return SecrecyRegion(constraints, vertices, "TW", {"allocation": list(powers)})


def reference_sup_grid_bounds(ch: StdMacChannel, resolution: int):
    """Secrecy bounds (b1, b2, b12) of ``mac_sup_region`` at every power pair of
    the resolution x resolution grid, as flat arrays in the same arithmetic."""
    h1, h2 = (float(g) for g in ch.eve_gains)
    axis1 = np.linspace(0.0, float(ch.power_caps[0]), resolution)
    axis2 = np.linspace(0.0, float(ch.power_caps[1]), resolution)
    p1, p2 = (a.ravel() for a in np.meshgrid(axis1, axis2, indexing="ij"))
    hp1, hp2 = h1 * p1, h2 * p2
    own1 = np.repeat(gaussian_bits_each(axis1), resolution)
    own2 = np.tile(gaussian_bits_each(axis2), resolution)
    raw1 = own1 - gaussian_bits_each(hp1 / (1.0 + hp2))
    raw2 = own2 - gaussian_bits_each(hp2 / (1.0 + hp1))
    raw12 = gaussian_bits_each(p1 + p2) - gaussian_bits_each(hp1 + hp2)
    return tuple(np.where(raw < 0, 0.0, raw) for raw in (raw1, raw2, raw12))


def reference_mac_hull_region(
    ch: StdMacChannel,
    power_grid_resolution: int = 33,
    share_grid_resolution: int = 33,
    schemes: Tuple[str, ...] = ("SUP", "TDMA"),
) -> SecrecyRegion:
    """Convex closure of superposition and TDMA regions over sample grids.

    The per-cell form of ``mac_hull_region``: one superposition region per
    power pair and one TDMA region per share, each in the scalar arithmetic
    above, contributing its vertex polygon to the hull.
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
        _, bound, _ = reference_tdma_user_bounds(float(ch.eve_gains[0]), float(ch.power_caps[0]), 1.0)
        vertices = [(0.0, 0.0)] if bound == 0 else [(0.0, 0.0), (bound, 0.0)]
        constraints = [RateConstraint((0,), KIND_SECRECY, bound)]
        return SecrecyRegion(constraints, vertices, "HULL", meta)

    points: List[Tuple[float, float]] = [(0.0, 0.0)]
    if "SUP" in schemes:
        axis1 = np.linspace(0.0, float(ch.power_caps[0]), power_grid_resolution)
        axis2 = np.linspace(0.0, float(ch.power_caps[1]), power_grid_resolution)
        for p1 in axis1:
            for p2 in axis2:
                region = reference_mac_sup_region(ch, np.array([p1, p2]))
                points.extend(region.vertices2d)
    if "TDMA" in schemes:
        for a1 in np.linspace(0.0, 1.0, share_grid_resolution):
            region = reference_mac_tdma_region(ch, np.array([a1, 1.0 - a1]))
            points.extend(region.vertices2d)
    return _hull_region(convex_hull_2d(points), meta)


def _hull_region(hull: List[Tuple[float, float]], meta: Dict) -> SecrecyRegion:
    """The hull region of two users with these vertices: each user's largest
    rate and the largest sum over them."""
    max_x = max(p[0] for p in hull)
    max_y = max(p[1] for p in hull)
    max_sum = max(p[0] + p[1] for p in hull)
    constraints = [
        RateConstraint((0,), KIND_USER_SECRECY, max_x),
        RateConstraint((1,), KIND_USER_SECRECY, max_y),
        RateConstraint((0, 1), KIND_SECRECY, max_sum),
    ]
    return SecrecyRegion(constraints, hull, "HULL", meta)


def reference_hull_of_every_point(
    ch: StdMacChannel,
    power_grid_resolution: int = 33,
    share_grid_resolution: int = 33,
    schemes: Tuple[str, ...] = ("SUP", "TDMA"),
) -> SecrecyRegion:
    """``mac_hull_region`` of two users as one monotone chain over every
    distinct point of every sampled pentagon and rectangle, in the array
    arithmetic of the library, before the Pareto frontier reduced them."""
    meta = {
        "power_grid_resolution": power_grid_resolution,
        "share_grid_resolution": share_grid_resolution,
        "schemes": list(schemes),
    }
    points = [np.zeros((1, 2))]
    if "SUP" in schemes:
        with np.errstate(over="ignore", invalid="ignore"):
            points.append(regions._pentagon_points(*regions._sup_grid_bounds(ch, power_grid_resolution)))
    if "TDMA" in schemes:
        a1 = np.linspace(0.0, 1.0, share_grid_resolution)
        bounds = regions._tdma_user_bounds(ch.eve_gains[:, None], ch.power_caps[:, None], np.array((a1, 1.0 - a1)))
        b1, b2 = bounds[1]
        zero = np.zeros_like(b1)
        points.append(np.stack([zero, zero, b1, zero, b1, b2, zero, b2], axis=1).reshape(-1, 2))
    return _hull_region(convex_hull_2d(np.concatenate(points).tolist()), meta)


def _guard_size(axes: Sequence[np.ndarray]) -> None:
    """The grid oracles' size guard on the mesh of these axes."""
    _guard_shape([len(ax) for ax in axes])


def _mesh_axes(ch, spec: GridSpec, extras=None) -> List[np.ndarray]:
    """The grid oracles' one mesh: each user's axis with its extra points."""
    return [_axis(cap, spec, () if extras is None else extras[i]) for i, cap in enumerate(ch.power_caps)]


def _best_role(ch, rate_grid, role_sets, axes_of) -> Tuple[float, np.ndarray, tuple]:
    """Best (rate, allocation, roles) over the transmit/jam/silent role
    strings in role_sets ("T", "J" or "S" per user).

    Each role's whole open mesh, on the axes axes_of(roles), is evaluated
    at once, rate_grid yielding the rate of the role's transmit set alone,
    and reduced by one argmax: within a role the C-order first maximum
    wins.  The first role is the incumbent, even when its maximum is NaN; a
    later role replaces it with a strictly higher rate, or with an equal
    rate at a lexicographically smaller allocation.
    """
    best = None
    for roles in role_sets:
        t_set = tuple(i for i, r in enumerate(roles) if r == "T")
        axes = axes_of(roles)
        _guard_size(axes)
        (rate,) = rate_grid(ch.eve_gains, np.ix_(*axes), [t_set])
        idx = np.unravel_index(int(np.argmax(rate)), rate.shape)
        alloc = np.array([float(axes[d][i]) for d, i in enumerate(idx)])
        rate_max = float(rate[idx])
        if best is None or rate_max > best[0] or (
            rate_max == best[0] and tuple(alloc) < tuple(best[1])
        ):
            best = (rate_max, alloc, roles)
    return best


def reference_search(ch, spec: GridSpec, rate_grid, t_sets, extras=None) -> Tuple[float, np.ndarray, tuple]:
    """Best (rate, allocation, transmit set) over the transmit sets t_sets.

    The single-pass form of ``oracle._search``: no tiles and no bounds.
    Each transmit set's whole open mesh, every user's axis with its extra
    points, is evaluated at once and reduced by one argmax; transmit sets
    are then taken in order, as in ``_best_role``.
    """
    axes = _mesh_axes(ch, spec, extras)
    roles = {"".join("T" if i in t_set else "J" for i in range(ch.k_users)): t_set for t_set in t_sets}
    rate, alloc, won = _best_role(ch, rate_grid, roles, lambda _: axes)
    return rate, alloc, roles[won]


def role_search(ch, spec: GridSpec, rate_grid, extras=None) -> Tuple[float, np.ndarray, tuple]:
    """Best (rate, allocation, roles) of an exhaustive search over all 3^K
    transmit/jam/silent roles, each on the per-user axes of the oracles'
    one mesh, silent users pinned to 0."""
    axes = _mesh_axes(ch, spec, extras)
    roles = itertools.product("TJS", repeat=ch.k_users)
    return _best_role(ch, rate_grid, roles, lambda r: [np.zeros(1) if x == "S" else ax for x, ax in zip(r, axes)])


def per_role_search(ch, spec: GridSpec, rate_grid, role_sets, extras=None) -> Tuple[float, np.ndarray, tuple]:
    """Best (rate, allocation, roles) over the role strings in role_sets,
    each role on its own axes: the grid oracles' search before one mesh
    served every transmit set.  Silent users get the single point 0,
    jammer i the plain axis plus extras(t_set, jam_users, i), and
    transmitters the plain axis."""

    def axes_of(roles):
        t_set = tuple(i for i, r in enumerate(roles) if r == "T")
        jam_users = tuple(i for i, r in enumerate(roles) if r == "J")
        axes = []
        for i, (r, cap) in enumerate(zip(roles, ch.power_caps)):
            if r == "S":
                axes.append(np.zeros(1))
            elif r == "J" and extras is not None:
                axes.append(_axis(cap, spec, extras(t_set, jam_users, i)))
            else:
                axes.append(_axis(cap, spec))
        return axes

    return _best_role(ch, rate_grid, role_sets, axes_of)


def scalar_pivot_candidates(ch: StdMacChannel, t_set, jam_users, pivot: int) -> List[float]:
    """One row's pivot candidates by the scalar form: the rho fit's roots."""
    return rho_fit_roots(ch, t_set, jam_users, pivot, ch.power_caps)


def rho_terms(ch: StdMacChannel, transmit_set, jam_set, alloc, j: int) -> Tuple[float, float]:
    """The two summands of rho_j, the derivative indicator for jammer j's
    power: the objective ratio falls in P_j exactly while their sum is < 0,
    so an interior pivot has rho_j = 0.  Each alone sets the scale for a
    relative comparison of the sum with 0."""
    powers = _powers_of(alloc)
    t_set = sorted(set(transmit_set))
    if j not in set(jam_set):
        raise ValueError("rho is defined for jamming users only")
    in_t = set(t_set)
    comp = [k for k in range(ch.k_users) if k not in in_t]
    h = ch.eve_gains
    hj = float(h[j])
    sum_p_all = float(powers.sum())
    sum_hp_all = float((h * powers).sum())
    sum_p_comp = float(powers[comp].sum())
    sum_hp_comp = float((h[comp] * powers[comp]).sum())
    sum_p_t = float(powers[t_set].sum()) if t_set else 0.0
    sum_hp_t = float((h[t_set] * powers[t_set]).sum()) if t_set else 0.0
    term_neg = -hj * (1.0 + sum_p_all) * (1.0 + sum_p_comp) * sum_hp_t
    term_pos = (1.0 + sum_hp_all) * (1.0 + sum_hp_comp) * sum_p_t
    return term_neg, term_pos


def rho_fit_roots(ch: StdMacChannel, t_set, jam_users, pivot: int, caps: np.ndarray) -> List[float]:
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
        term_neg, term_pos = rho_terms(ch, t_set, jam_users, powers, pivot)
        samples.append(term_neg + term_pos)
    r0, r1, r2 = samples
    c1 = (r2 - 2.0 * r1 + r0) / (2.0 * step * step)
    c3 = r0
    c2 = (r1 - c3 - c1 * step * step) / step
    if not all(math.isfinite(x) for x in (r0, r1, r2, c1, c2, c3)):
        raise ValueError(
            f"power_caps are too large for the grid oracle: the rho fit along user {pivot + 1}'s axis "
            "is not finite"
        )
    roots = np.roots([c1, c2, c3]) if (c1 != 0 or c2 != 0) else np.array([])
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * max(1.0, abs(r.real)) and 0.0 < r.real < cap_j:
            out.append(float(r.real))
    return out


def threshold_candidates(ch: StdMacChannel, t_set, pivot: int, cap_j: float) -> List[float]:
    """The two-user branch thresholds (h_i - 1)/(h_pivot - h_i) in (0, cap_j)
    over the transmitters i: pivot candidates that the rho fit's roots make
    redundant, kept to show that adding them changes no oracle answer."""
    h = ch.eve_gains
    out = []
    for i in t_set:
        den = float(h[pivot] - h[i])
        if den != 0.0:
            thr = (float(h[i]) - 1.0) / den
            if 0.0 < thr < cap_j:
                out.append(thr)
    return out


def _marginal(x: np.ndarray, h: np.ndarray):
    """The library's TDMA marginal m with its slope dm/dx in the nested search's form."""
    hx1, x1 = 1.0 + h * x, 1.0 + x
    return allocation._marginal(x, h)[0], x * (1.0 - h) * (1.0 + h + 2.0 * h * x) / (x1 * hx1) ** 2


def _bursts(lam: float, h: np.ndarray, g_inf: np.ndarray, x: np.ndarray):
    """Bursts solving m_k(x_k) = lam < ln(1/h_k) for all users, and the slopes there.

    Newton in 1/x from the warm start x inside a bracket, falling back to its
    geometric midpoint.  The bracket starts at sqrt(2 lam / (1-h^2)), since
    m(x) <= (1-h^2) x^2 / 2, and at 2(1-h) / (h (ln(1/h) - lam)), since
    ln(1/h) - m(x) < 2(1-h) / (h x), or at expm1(lam + 1) when h = 0.
    """
    lo = np.sqrt(2.0 * lam / (1.0 - h * h))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hi = np.where(h > 0.0, 2.0 * (1.0 - h) / (h * (g_inf - lam)), math.expm1(lam + 1.0))
    hi = np.minimum(hi, _MAX_BURST)
    x = np.clip(x, lo, hi)
    for _ in range(200):
        m, dm = _marginal(x, h)
        lo = np.where(m < lam, x, lo)
        hi = np.where(m > lam, x, hi)
        step = x / (1.0 + (m - lam) / (x * dm))
        nxt = np.where((lo <= step) & (step <= hi), step, np.sqrt(lo) * np.sqrt(hi))
        if np.all((np.abs(nxt - x) <= 1e-10 * x) | (np.abs(m - lam) <= 1e-15 * lam)):
            return nxt, dm
        x = nxt
    return x, dm


def nested_tdma_share_search(ch: StdMacChannel):
    """Optimal TDMA time shares from the KKT conditions, solved in the dual.

    The nested form of ``allocation.tdma_share_search``: Newton on the
    multiplier lam, with every user's burst solved to convergence at each
    step.

    The rate sum_k a_k g_k(c_k / a_k), g_k(x) = 1/2 log2((1+x)/(1+h_k x)), is
    a sum of perspectives of concave functions, so the optimum water-fills:
    users with h_k < 1 and a positive cap share one marginal
    g_k(x_k) - x_k g_k'(x_k) = lam at their bursts x_k = c_k / a_k, except
    those silenced by lam >= g_k(inf) = 1/2 log2(1/h_k).  The total share
    S(lam) = sum_k c_k / x_k(lam) falls with lam; S(lam) = 1 is bracketed by
    the marginals at the cap-proportional shares, where Newton on S
    (bisection as safeguard) starts and, with equal gains, ends.

    Returns:
        (shares, rate): the share vector over all users and the rate in bits.
    """
    h, caps, k = ch.eve_gains, ch.power_caps, ch.k_users
    active = np.flatnonzero((h < 1.0) & (caps > 0))
    if len(active) == 0:
        return np.full(k, 1.0 / k), 0.0
    ha, c = h[active], caps[active]
    with np.errstate(divide="ignore"):
        g_inf = -np.log(ha)
    # Past bursts of about 1e154 the slopes overflow to NaN, 0 or inf, and
    # Newton falls back to bisection; caps near the float limit can leave no
    # finite share vector or rate, which is an input error.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cap_total = float(c.sum())
        x = np.full(len(c), min(cap_total, _MAX_BURST))
        at_prop, _ = _marginal(x, ha)
        lo, hi = float(at_prop.min()), float(at_prop.max())
        lam = float(np.dot(c, at_prop) / cap_total)
        # Every marginal, so lo too, lies below each saturation level ln(1/h).
        # A lo rounded to within an ulp of the lowest level, or past it,
        # leaves no float between them, and the search would silence the
        # users at that level.  If the others cannot fill the time there, the
        # optimum lies within that ulp: the users at the level take the time
        # the others leave at it.
        g_min = float(g_inf.min())
        below = math.nextafter(g_min, 0.0)
        rest = g_inf > g_min
        fill = lo >= below and (
            float(np.sum(c[rest] / _bursts(g_min, ha[rest], g_inf[rest], x[rest])[0])) < 1.0
        )
        if fill:
            lam = lo = hi = below
        for _ in range(100):
            on = g_inf > lam
            x[~on] = np.inf
            x[on], dm = _bursts(lam, ha[on], g_inf[on], x[on])
            total = float(np.sum(c / x))
            lo, hi = (lam, hi) if total > 1.0 else (lo, lam)
            slope = float(np.sum(c[on] / (x[on] ** 2 * dm)))
            step = (total - 1.0) / slope if slope != 0.0 and math.isfinite(slope) else math.inf
            if abs(step) <= 1e-15 * lam or hi - lo <= 1e-15 * lam:
                break
            lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
        shares = np.zeros(k)
        shares[active] = c / x
        if fill:
            level = active[~rest]
            shares[level] *= max(1.0 - shares[active[rest]].sum(), 0.0) / shares[level].sum()
        share_total = shares.sum()
    if np.isfinite(shares).all() and share_total > 0:
        shares /= share_total
        rate = _tdma_rate(h, caps, shares)
        if math.isfinite(rate):
            return shares, rate
    raise ValueError("power_caps are too large for the TDMA share search")
