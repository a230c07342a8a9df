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
from typing import Iterable, Optional, Tuple

import numpy as np

from .channels import (
    TOL_ABS,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    _gains_of,
    _powers_of,
    cap_eve_tilde,
    gaussian_bits,
    is_degraded,
    to_jsonable,
)
from .regions import TdmaShares, _tdma_user_bounds


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


def _mac_secrecy_bits(powers: np.ndarray, h: np.ndarray, transmit: Iterable[int]) -> float:
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


def _tw_secrecy_bits(powers: np.ndarray, h: np.ndarray, transmit: Iterable[int]) -> float:
    """Two-way secrecy sum rate [sum_T C(P_k) - C(H_T / (1 + H_N))]^+ in bits."""
    t = sorted(set(transmit))
    return max(sum(gaussian_bits(float(powers[k])) for k in t) - cap_eve_tilde(powers, h, t), 0.0)


def sup_sum_rate(alloc, gains) -> float:
    """Clamped superposition secrecy sum rate at an allocation, in bits."""
    powers = _powers_of(alloc)
    return _mac_secrecy_bits(powers, _gains_of(gains), range(len(powers)))


def tw_sum_rate(alloc, gains) -> float:
    """Clamped two-way secrecy sum rate at an allocation, in bits."""
    return _tw_secrecy_bits(_powers_of(alloc), _gains_of(gains), (0, 1))


_TIED_GAINS = "gains must be strictly ascending; merge tied users first (standardize_mac / merge_tied_users do this)"


def _require_strict_gains(ch: StdMacChannel) -> None:
    if not ch.has_strictly_ascending_gains():
        raise ValueError(_TIED_GAINS)


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


def _tdma_rate(h: np.ndarray, caps: np.ndarray, shares: np.ndarray) -> float:
    """TDMA sum rate in bits: each user's clamped slot secrecy rate at cap / share."""
    users = zip(h.tolist(), caps.tolist(), shares.tolist())
    return sum(_tdma_user_bounds(hk, ck, sk)[1] for hk, ck, sk in users)


def _marginal(x: np.ndarray, h: np.ndarray):
    """Marginal m = G - x G' of G(x) = ln((1+x)/(1+hx)), twice the slot rate in nats, and m'.

    m = ln(1+z) - z/(1+x) with z = (1-h) x / (1+hx).  Below z = 0.1 the two
    terms cancel, so m is summed there as (ln(1+z) - z) + z x / (1+x), with
    ln(1+z) - z = 2 u^3 sum_k u^2k / (2k+3) - z^2 / (2+z) for u = z / (2+z),
    from ln(1+z) = 2 atanh(u); five terms leave a relative error below 1e-15.
    """
    hx1 = 1.0 + h * x
    x1 = 1.0 + x
    z = (1.0 - h) * x / hx1
    dm = x * (1.0 - h) * (1.0 + h + 2.0 * h * x) / (x1 * hx1) ** 2
    m = np.log1p(z) - z / x1
    small = z < 0.1
    if small.any():
        zs, z2 = z[small], 2.0 + z[small]
        u = zs / z2
        w = u * u
        tail = 1.0 / 3.0 + w * (1.0 / 5.0 + w * (1.0 / 7.0 + w * (1.0 / 9.0 + w / 11.0)))
        m[small] = (2.0 * u * w * tail - zs * zs / z2) + zs * x[small] / x1[small]
    return m, dm


# Bursts beyond the float range mean a share of 0; a finite bracket keeps the
# geometric midpoint finite.
_MAX_BURST = np.finfo(float).max


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
    with np.errstate(over="ignore"):
        cap_sum = float(caps.sum())
    if is_degraded(ch) and 0 < cap_sum < math.inf:
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
