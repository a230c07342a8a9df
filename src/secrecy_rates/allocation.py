"""Secrecy-sum-rate maximizing power allocations.

Three maximizers live here: the superposition solver for the standardized
MAC wiretap channel (the optimum is a cap-or-zero prefix of the gain
ordering), the TDMA share optimizer (closed form when all gains are equal
and below 1; otherwise the water-filling KKT point, found by Newton on the
dual multiplier with every user's burst power solved at once), and the
two-way solver (a three-branch corner rule).  Each returns a
SumRateSolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channels import (
    TOL_ABS,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    _powers_of,
    is_degraded,
    to_jsonable,
)
from .regions import TdmaShares


@dataclass
class SumRateSolution:
    """Optimal allocation, the users transmitting, and the rate in bits."""

    allocation: PowerAllocation
    transmit_set: Tuple[int, ...]
    sum_rate: float
    mode: str
    shares: Optional[TdmaShares] = None
    branch: Optional[str] = None

    def to_json(self) -> dict:
        return to_jsonable(
            {
                "mode": self.mode,
                "powers": self.allocation.powers,
                "shares": None if self.shares is None else self.shares.shares,
                "transmit_set": [k + 1 for k in self.transmit_set],
                "sum_rate_bits": self.sum_rate,
            }
        )


def sup_sum_rate(alloc, gains) -> float:
    """Clamped superposition secrecy sum rate at an allocation, in bits."""
    powers = _powers_of(alloc)
    h = gains.eve_gains if isinstance(gains, StdMacChannel) else np.asarray(gains, dtype=float)
    raw = 0.5 * (math.log2(1.0 + float(powers.sum())) - math.log2(1.0 + float((h * powers).sum())))
    return max(raw, 0.0)


def tw_sum_rate(alloc, gains) -> float:
    """Clamped two-way secrecy sum rate at an allocation, in bits."""
    powers = _powers_of(alloc)
    h = gains.eve_gains if isinstance(gains, StdTwChannel) else np.asarray(gains, dtype=float)
    raw = 0.5 * (
        math.log2(1.0 + float(powers[0]))
        + math.log2(1.0 + float(powers[1]))
        - math.log2(1.0 + float((h * powers).sum()))
    )
    return max(raw, 0.0)


def _require_strict_gains(ch: StdMacChannel) -> None:
    if not ch.has_strictly_ascending_gains():
        raise ValueError(
            "gains must be strictly ascending; merge tied users first "
            "(standardize_mac / merge_tied_users do this)"
        )


def _solution(powers: np.ndarray, rate: float, mode: str, branch: str, shares=None):
    """The solution at these powers; a rate clamped to 0 means all-zero powers."""
    k = len(powers)
    if rate <= 0.0:
        return SumRateSolution(PowerAllocation.zeros(k), (), 0.0, mode, shares, branch)
    transmit = tuple(i for i in range(k) if powers[i] > 0)
    return SumRateSolution(PowerAllocation(powers), transmit, rate, mode, shares, branch)


def mac_sup_optimal(ch: StdMacChannel) -> SumRateSolution:
    """Optimal superposition allocation: the largest useful gain prefix at caps.

    Scanning users in ascending gain order, user l joins the transmit set
    while its gain stays below the running advantage ratio
    phi(prefix before l); by the mediant inequality this is equivalent to
    comparing against phi(prefix including l), and the condition can only
    fail once, so the scan stops at the first failure.  Boundary cases
    (gain within 1e-12 of the ratio) leave the user silent, which costs no
    rate and conserves power.
    """
    _require_strict_gains(ch)
    h = ch.eve_gains
    caps = ch.power_caps
    k = ch.k_users
    sum_p = 0.0
    sum_hp = 0.0
    prefix = 0
    for l in range(k):
        ratio = (1.0 + sum_hp) / (1.0 + sum_p)
        if h[l] < ratio - TOL_ABS:
            prefix = l + 1
            sum_p += float(caps[l])
            sum_hp += float(h[l] * caps[l])
        else:
            break
    powers = np.zeros(k)
    powers[:prefix] = caps[:prefix]
    return _solution(powers, sup_sum_rate(powers, h), "SUP", f"T={prefix}")


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


def _tdma_rate(h: np.ndarray, caps: np.ndarray, shares: np.ndarray) -> float:
    """TDMA sum rate in bits; each user bursts at cap / share in its slot, clamped at 0."""
    total = 0.0
    for hk, ck, sk in zip(h.tolist(), caps.tolist(), shares.tolist()):
        if sk > 0.0 and ck > 0.0:
            burst = ck / sk
            total += max(0.5 * sk * (math.log2(1.0 + burst) - math.log2(1.0 + hk * burst)), 0.0)
    return total


def _marginal(x: np.ndarray, h: np.ndarray):
    """Marginal m = G - x G' of G(x) = ln((1+x)/(1+hx)), twice the slot rate in nats, and m'."""
    hx1 = 1.0 + h * x
    z = (1.0 - h) * x / hx1
    dm = x * (1.0 - h) * (1.0 + h + 2.0 * h * x) / ((1.0 + x) * hx1) ** 2
    return np.log1p(z) - z / (1.0 + x), dm


def _bursts(lam: float, h: np.ndarray, g_inf: np.ndarray, x: np.ndarray):
    """Bursts solving m_k(x_k) = lam < ln(1/h_k) for all users, and the slopes there.

    Newton in 1/x from the warm start x inside a bracket, falling back to its
    geometric midpoint.  The bracket starts at sqrt(2 lam / (1-h^2)), since
    m(x) <= (1-h^2) x^2 / 2, and at 2(1-h) / (h (ln(1/h) - lam)), since
    ln(1/h) - m(x) < 2(1-h) / (h x), or at expm1(lam + 1) when h = 0.
    """
    lo = np.sqrt(2.0 * lam / (1.0 - h * h))
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.where(h > 0.0, 2.0 * (1.0 - h) / (h * (g_inf - lam)), math.expm1(lam + 1.0))
    x = np.clip(x, lo, hi)
    for _ in range(200):
        m, dm = _marginal(x, h)
        lo = np.where(m < lam, x, lo)
        hi = np.where(m > lam, x, hi)
        step = x / (1.0 + (m - lam) / (x * dm))
        nxt = np.where((lo <= step) & (step <= hi), step, np.sqrt(lo * hi))
        if np.all((np.abs(nxt - x) <= 1e-10 * x) | (np.abs(m - lam) <= 1e-15 * lam)):
            return nxt, dm
        x = nxt
    return x, dm


def tdma_share_search(ch: StdMacChannel):
    """Optimal TDMA time shares from the KKT conditions, solved in the dual.

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
    x = np.full(len(c), float(c.sum()))
    at_prop, _ = _marginal(x, ha)
    lo, hi = float(at_prop.min()), float(at_prop.max())
    lam = float(np.dot(c, at_prop) / c.sum())
    for _ in range(100):
        on = g_inf > lam
        x[~on] = np.inf
        x[on], dm = _bursts(lam, ha[on], g_inf[on], x[on])
        total = float(np.sum(c / x))
        lo, hi = (lam, hi) if total > 1.0 else (lo, lam)
        step = (total - 1.0) / float(np.sum(c[on] / (x[on] ** 2 * dm)))
        if abs(step) <= 1e-15 * lam or hi - lo <= 1e-15 * lam:
            break
        lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
    shares = np.zeros(k)
    shares[active] = c / x
    shares /= shares.sum()
    return shares, _tdma_rate(h, caps, shares)


def mac_tdma_optimal(ch: StdMacChannel) -> SumRateSolution:
    """Best TDMA solution: closed-form shares when degraded, numeric otherwise.

    When all gains are equal and below 1 the optimal share is exactly the
    user's fraction of the total cap.  The reported allocation gives cap
    power to every user with a positive share (each bursts at cap during
    its slot); with no useful user the shares are reported uniform and the
    rate is 0.
    """
    h = ch.eve_gains
    caps = ch.power_caps
    k = ch.k_users
    cap_sum = float(caps.sum())
    if is_degraded(ch) and cap_sum > 0:
        shares = caps / cap_sum
        rate = _tdma_rate(h, caps, shares)
        branch = "degraded-closed-form"
    else:
        shares, rate = tdma_share_search(ch)
        branch = "numeric"
    if rate <= 0.0:
        shares = np.full(k, 1.0 / k)
    return _solution(np.where(shares > 0, caps, 0.0), rate, "TDMA", branch, TdmaShares(shares))


def mac_best_sum_rate(ch: StdMacChannel) -> SumRateSolution:
    """Better of the superposition and TDMA optima; ties go to superposition."""
    sup = mac_sup_optimal(ch)
    tdma = mac_tdma_optimal(ch)
    return tdma if tdma.sum_rate > sup.sum_rate else sup


def tw_optimal(ch: StdTwChannel) -> SumRateSolution:
    """Two-way corner rule.

    With users relabeled so h1 <= h2: user 1 alone at cap when h1 < 1 and
    h2 reaches 1 + h1*c1 (the partner's transmission hurts more than it
    carries); both at caps when h1 <= 1 + h2*c2 and h2 < 1 + h1*c1;
    otherwise nobody transmits.  A clamped-to-zero rate is normalized to
    the all-zero allocation.
    """
    h = ch.eve_gains
    caps = ch.power_caps
    swap = h[0] > h[1]
    order = [1, 0] if swap else [0, 1]
    h1, h2 = float(h[order[0]]), float(h[order[1]])
    c1, c2 = float(caps[order[0]]), float(caps[order[1]])
    if h1 < 1.0 - TOL_ABS and h2 >= 1.0 + h1 * c1 - TOL_ABS:
        local = np.array([c1, 0.0])
        branch = "single-user"
    elif h1 < 1.0 + h2 * c2 + TOL_ABS and h2 < 1.0 + h1 * c1 - TOL_ABS:
        local = np.array([c1, c2])
        branch = "both-transmit"
    else:
        local = np.zeros(2)
        branch = "all-silent"
    powers = np.empty(2)
    powers[order[0]] = local[0]
    powers[order[1]] = local[1]
    return _solution(powers, tw_sum_rate(powers, h), "TW", branch)
