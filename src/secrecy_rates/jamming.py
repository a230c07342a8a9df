"""Cooperative jamming: secrecy-sum-rate maximization with helpful noise.

Users either transmit, stay silent, or jam (send Gaussian noise that hurts
the eavesdropper more than the receiver).  For the MAC wiretap channel the
optimum has an ordered structure: a prefix of the gain-sorted users
transmits at cap, a gap stays silent, and a suffix jams at cap except for
at most one "pivot" jammer whose power solves a quadratic.  Every sum a
pattern's quadratic and rate need is then a prefix or suffix sum, so the
solver ranks all (prefix, pivot) patterns at once as O(K^2) arrays and
evaluates only the winner, with any pattern tied with it to rounding, by
the scalar pivot quadratic and rate, which give the reported solution.
The two-way variant only ever jams at full power, decided by a
five-branch rule.  The rates are the superposition and two-way rate
expressions of ``allocation`` with jammers counted as noise, so they take
their logarithms in the one kernel, ``channels.gaussian_bits``, or in its
array form for the ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .channels import (
    TOL_ABS,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    _powers_of,
    gaussian_bits_array,
    phi,
    to_jsonable,
)
from .allocation import _mac_secrecy_bits, _require_strict_gains, _tw_secrecy_bits

# Rates closer than this count as equal when ranking candidate role
# patterns; see mac_cj_optimal.
RATE_TIE_TOL = 1e-12


@dataclass
class JammingSolution:
    """Role partition, allocation, rate, and pivot diagnostics."""

    transmit_set: Tuple[int, ...]
    jam_set: Tuple[int, ...]
    silent_set: Tuple[int, ...]
    allocation: PowerAllocation
    sum_rate: float
    pivot_user: Optional[int] = None
    quad_coeffs: Optional[Tuple[float, float, float]] = None
    pivot_power: Optional[float] = None
    diagnostics: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        return to_jsonable(
            {
                "transmit_set": [k + 1 for k in self.transmit_set],
                "jam_set": [k + 1 for k in self.jam_set],
                "silent_set": [k + 1 for k in self.silent_set],
                "powers": self.allocation.powers,
                "sum_rate_bits": self.sum_rate,
                "pivot_user": None if self.pivot_user is None else self.pivot_user + 1,
                "pivot_power": self.pivot_power,
                "quad_coeffs": self.quad_coeffs,
                "diagnostics": self.diagnostics,
            }
        )


def cj_objective_mac(ch: StdMacChannel, alloc, transmit_set: Iterable[int]) -> float:
    """Ratio phi(all users) / phi(non-transmitters), the structure behind the rate.

    Smaller is better: jamming power inflates the denominator, discounting
    the eavesdropper's gain on the jammers.  The rate, -1/2 log2 of this
    ratio clamped at 0, is computed by mac_cj_rate without forming it.
    """
    powers = _powers_of(alloc)
    t_set = set(transmit_set)
    complement = [k for k in range(ch.k_users) if k not in t_set]
    return phi(powers, ch, range(ch.k_users)) / phi(powers, ch, complement)


def mac_cj_rate(ch: StdMacChannel, alloc, transmit_set: Iterable[int]) -> float:
    """Clamped cooperative-jamming secrecy sum rate in bits; sup_sum_rate's expression."""
    return _mac_secrecy_bits(_powers_of(alloc), ch.eve_gains, transmit_set)


def tw_cj_rate(ch: StdTwChannel, alloc, transmit_set: Iterable[int]) -> float:
    """Clamped two-way cooperative-jamming secrecy sum rate in bits."""
    return _tw_secrecy_bits(_powers_of(alloc), ch.eve_gains, transmit_set)


def rho_terms(ch: StdMacChannel, transmit_set, jam_set, alloc, j: int) -> Tuple[float, float]:
    """The two summands of rho_j, useful for relative-scale comparisons."""
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


def rho_eval(ch: StdMacChannel, transmit_set, jam_set, alloc, j: int) -> float:
    """Derivative indicator for jammer j's power: the objective ratio falls
    in P_j exactly while rho_j < 0, so an interior pivot has rho_j = 0."""
    term_neg, term_pos = rho_terms(ch, transmit_set, jam_set, alloc, j)
    return term_neg + term_pos


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


def _all_silent_solution(k: int, diagnostics: Dict) -> JammingSolution:
    return JammingSolution(
        (), (), tuple(range(k)), PowerAllocation.zeros(k), 0.0, None, None, None, diagnostics
    )


def _partition_solution(
    ch: StdMacChannel,
    powers: np.ndarray,
    t_count: int,
    rate: float,
    pivot_idx: Optional[int],
    coeffs: Optional[Tuple[float, float, float]],
    case: str,
) -> JammingSolution:
    k = ch.k_users
    transmit = tuple(i for i in range(t_count) if powers[i] > 0)
    jam_start = k if pivot_idx is None else pivot_idx
    jam = tuple(i for i in range(jam_start, k) if powers[i] > 0)
    active = set(transmit).union(jam)
    silent = tuple(i for i in range(k) if i not in active)
    pivot_active = pivot_idx is not None and powers[pivot_idx] > 0
    jam_label = str(jam_start + 1) if jam else "none"
    diagnostics = {"branch": f"T={t_count},J={jam_label}", "case": case}
    if coeffs is not None:
        diagnostics["discriminant"] = coeffs[1] ** 2 - 4.0 * coeffs[0] * coeffs[2]
    return JammingSolution(
        transmit,
        jam,
        silent,
        PowerAllocation(powers),
        rate,
        pivot_idx if pivot_active else None,
        coeffs if pivot_active else None,
        float(powers[pivot_idx]) if pivot_active else None,
        diagnostics,
    )


def _finalists(h: np.ndarray, caps: np.ndarray) -> List[Tuple[int, int]]:
    """(t, p) of the best ordered role pattern, ranked as arrays over all of
    them, and of the patterns whose tie-break keys match it to rounding.

    Cell (t, p) of the (K+1) x (K+1) grid transmits users [0, t) at cap and
    makes user p >= t the pivot, with every user after it jamming at cap;
    column K is the no-jam pattern, a pivot of gain 0 and cap 0.  With P, H
    the transmitters' sums of caps and h * caps, and R, G those of the
    jammers after the pivot, pivot_quadratic's coefficients are
        c1 = h_p (h_p P - H),  c2 = 2 h_p ((1 + G) P - (1 + R) H),
        c3 = (1 + H + G)(1 + G) P - h_p (1 + P + R)(1 + R) H,
    and the root is taken with c2 / 2, an exact scaling.  R and G
    accumulate from the back, so a pivot at cap and the next pivot at 0
    give bit-identical jam totals, keys and rates for one power vector.
    """
    k = len(caps)
    # rows: caps, h * caps, and 1 for each user with a positive cap
    terms = np.empty((3, k))
    terms[0] = caps
    np.multiply(h, caps, out=terms[1])
    terms[2] = caps > 0
    prefix = np.zeros((3, k + 1, 1))
    np.add.accumulate(terms, axis=1, out=prefix[:, 1:, 0])
    # per pivot column: the three sums over the users after it, then its h and cap
    after = np.zeros((5, 1, k + 1))
    after[:3, 0, : k - 1] = np.add.accumulate(terms[:, :0:-1], axis=1)[:, ::-1]
    after[3:, 0, :k] = h, caps
    p_t, hp_t = prefix[0], prefix[1]
    p_after, hp_after, n_after, h_p, cap_p = after
    one_r, one_g = 1.0 + p_after, 1.0 + hp_after
    with np.errstate(all="ignore"):
        c1 = h_p * (h_p * p_t - hp_t)
        half_c2 = h_p * (one_g * p_t - one_r * hp_t)
        c3 = (hp_t + one_g) * one_g * p_t - (p_t + one_r) * (h_p * one_r) * hp_t
        # the "+sqrt" root, NaN where the discriminant is negative (-c2 - s < 0 when c2 > 0)
        s = np.sqrt(half_c2 * half_c2 - c1 * c3)
        root = np.where(half_c2 <= 0.0, (s - half_c2) / c1, c3 / (-half_c2 - s))
        root = np.where(c1 == 0.0, np.where(half_c2 == 0.0, np.nan, -0.5 * c3 / half_c2), root)
        pivot = np.where(root > 0.0, np.minimum(root, cap_p), 0.0)
        jam = pivot + p_after
        heard = gaussian_bits_array(p_t / (1.0 + jam))
        leaked = gaussian_bits_array(hp_t / (1.0 + (h_p * pivot + hp_after)))
        rate = np.maximum(heard - leaked, 0.0)
    users = np.arange(k + 1)
    rate[users[:, None] > users] = -np.inf
    pool = (rate >= rate.max() - RATE_TIE_TOL).ravel().nonzero()[0]
    if len(pool) == 1:
        return [divmod(int(pool[0]), k + 1)]
    n_jam = (pivot > 0.0) + n_after
    total = p_t + jam
    n_pool, total_pool = n_jam.ravel()[pool], total.ravel()[pool]
    root_pool, cap_pool = root.ravel()[pool], cap_p[0, pool % (k + 1)]
    # flat index order is scan order (t outer, p inner)
    first = np.lexsort((pool, total_pool, n_pool))[0]
    n_best, total_best = n_pool[first], total_pool[first]
    # A root within rounding of its cap or of 0 may clamp the other way in
    # the scalar evaluation, moving a total by ulps or dropping a jammer, so
    # patterns whose keys tie the winner's up to such a move are finalists.
    # Exact key ties without such a root keep the winner: scan order.
    edge = (np.abs(root_pool - cap_pool) <= 1e-9 * cap_pool) | (
        (root_pool > 0.0) & (root_pool <= 1e-12 * total_pool)
    )
    exact = (n_pool == n_best) & (total_pool == total_best)
    near = (total_pool < total_best * (1.0 + 1e-12)) & (
        (n_pool == n_best) | ((n_pool == n_best + 1) & edge)
    )
    near &= ~exact | edge | edge[first]
    near[first] = True
    return [divmod(int(i), k + 1) for i in pool[near]]


def _evaluate_pattern(ch: StdMacChannel, t_count: int, pivot_idx: int):
    """Powers, rate, pivot coefficients and case of role pattern (t, p),
    computed by the scalar pivot_quadratic and mac_cj_rate."""
    k = ch.k_users
    caps = ch.power_caps
    powers = np.zeros(k)
    powers[:t_count] = caps[:t_count]
    coeffs = None
    case = "no-jam"
    if pivot_idx < k:
        powers[pivot_idx + 1 :] = caps[pivot_idx + 1 :]
        c1, c2, c3, root = pivot_quadratic(
            ch, tuple(range(t_count)), tuple(range(pivot_idx, k)), pivot_idx, powers
        )
        coeffs = (c1, c2, c3)
        if root is None:
            pivot_power = 0.0
            case = "pivot-zero"
        elif root >= float(caps[pivot_idx]):
            pivot_power = float(caps[pivot_idx])
            case = "pivot-at-cap"
        else:
            pivot_power = root
            case = "pivot-interior"
        powers[pivot_idx] = pivot_power
    return powers, mac_cj_rate(ch, powers, range(t_count)), coeffs, case


def mac_cj_optimal(ch: StdMacChannel) -> JammingSolution:
    """Best cooperative-jamming solution over all ordered role patterns.

    Candidates: transmitters are the first t users at cap, the next block
    is silent, and users from the pivot onward jam at cap with the pivot
    itself at its quadratic root clamped to [0, cap].  Including t = 0 and
    the no-jammer pattern makes the no-jam optimum a candidate, so the
    result never loses to plain superposition.  Candidates on an exact
    branch boundary are mathematically tied but their rates land a few
    ulps apart, so rates within RATE_TIE_TOL of the best count as ties and
    resolve toward fewer active jammers, then less total power, then scan
    order.  All (K+1)(K+2)/2 candidates are ranked as arrays in O(K^2).
    Only the winner, and any pattern whose tie-break keys match it to
    rounding (usually none), is then evaluated with pivot_quadratic and
    mac_cj_rate; the tie rule on their scalar keys picks the solution, and
    they give the reported powers, rate and coefficients.
    """
    _require_strict_gains(ch)
    k = ch.k_users
    finalists = [
        (t, p, *_evaluate_pattern(ch, t, p)) for t, p in _finalists(ch.eve_gains, ch.power_caps)
    ]
    if len(finalists) > 1:
        # the tie rule on the scalar keys; the sort is stable, so scan order breaks exact ties
        finalists.sort(key=lambda f: (int(np.count_nonzero(f[2][f[1] :] > 0)), float(f[2].sum())))
    t_count, pivot_idx, powers, rate, coeffs, case = finalists[0]
    if rate <= 0.0:
        return _all_silent_solution(k, {"branch": "all-silent", "case": "no-positive-rate"})
    return _partition_solution(
        ch,
        powers,
        t_count,
        rate,
        pivot_idx if pivot_idx < k else None,
        coeffs,
        case,
    )


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
        diagnostics["discriminant"] = d
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

    rate = mac_cj_rate(ch, powers, range(t_count))
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


def tw_cj_optimal(ch: StdTwChannel) -> JammingSolution:
    """Five-branch cooperative-jamming rule for the two-way channel.

    With users relabeled so h1 <= h2: both transmit at caps while h2 <= 1;
    user 2 jams at cap once its gain passes 1 while user 1's does not; with
    both gains above 1 the user with the larger single-user psi value jams
    (at cap, if the other user's transmission stays useful), ties breaking
    toward user 2; otherwise all silent.  Jamming at full power is optimal
    whenever jamming at all: psi of the jam set exceeds 1 exactly when the
    jammer's gain does.
    """
    h = ch.eve_gains
    caps = ch.power_caps
    swap = float(h[0]) > float(h[1])
    order = [1, 0] if swap else [0, 1]
    h1, h2 = float(h[order[0]]), float(h[order[1]])
    c1, c2 = float(caps[order[0]]), float(caps[order[1]])

    psi1 = (1.0 + h1 * c1) / (1.0 + c1)
    psi2 = (1.0 + h2 * c2) / (1.0 + c2)
    psi_tie = abs(psi1 - psi2) <= TOL_ABS * max(psi1, psi2)
    diagnostics: Dict = {
        "psi_1": psi1 if not swap else psi2,
        "psi_2": psi2 if not swap else psi1,
        "psi_tie": bool(psi_tie),
    }

    if h2 <= 1.0 + TOL_ABS:
        local_powers = (c1, c2)
        local_transmit, local_jam = [0, 1], []
        branch_kind = "both-transmit"
    elif h1 <= 1.0 + TOL_ABS:
        local_powers = (c1, c2)
        local_transmit, local_jam = [0], [1]
        branch_kind = "jam"
    elif h1 < 1.0 + h2 * c2 - TOL_ABS and psi2 >= psi1:
        local_powers = (c1, c2)
        local_transmit, local_jam = [0], [1]
        branch_kind = "jam"
    elif h2 < 1.0 + h1 * c1 - TOL_ABS and psi1 > psi2:
        local_powers = (c1, c2)
        local_transmit, local_jam = [1], [0]
        branch_kind = "jam"
    else:
        local_powers = (0.0, 0.0)
        local_transmit, local_jam = [], []
        branch_kind = "all-silent"

    powers = np.zeros(2)
    powers[order[0]], powers[order[1]] = local_powers
    transmit = tuple(sorted(order[u] for u in local_transmit if powers[order[u]] > 0))
    jam = tuple(sorted(order[u] for u in local_jam if powers[order[u]] > 0))
    rate = tw_cj_rate(ch, powers, transmit)
    if branch_kind == "both-transmit":
        diagnostics["branch"] = "both-transmit"
    elif branch_kind == "jam":
        diagnostics["branch"] = f"jam-user-{order[local_jam[0]] + 1}"
    else:
        diagnostics["branch"] = "all-silent"
    if rate <= 0.0:
        diagnostics["branch"] = "all-silent"
        diagnostics["case"] = "no-positive-rate"
        return _all_silent_solution(2, diagnostics)
    silent = tuple(i for i in range(2) if i not in transmit and i not in jam)
    return JammingSolution(
        transmit,
        jam,
        silent,
        PowerAllocation(powers),
        rate,
        None,
        None,
        None,
        diagnostics,
    )
