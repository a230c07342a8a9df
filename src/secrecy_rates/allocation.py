"""Secrecy-sum-rate maximizing power allocations.

Three maximizers live here: the superposition solver for the standardized
MAC wiretap channel (the optimum is a cap-or-zero prefix of the gain
ordering), the TDMA share optimizer (closed form when all gains are equal
and below 1; otherwise the water-filling KKT point, found by Newton on the
shares and their multiplier inside a certified multiplier bracket), and the
two-way solver (a three-branch corner rule).  Each returns a SumRateSolution.
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
    _gains_of,
    _powers_of,
    is_degraded,
    secrecy_bits,
    to_jsonable,
    tw_secrecy_bits,
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


def sup_sum_rate(alloc, gains) -> float:
    """Clamped superposition secrecy sum rate [C(P) - C(H)]^+ at an
    allocation, in bits: everyone transmits, P sums the powers and H the
    gain-weighted powers."""
    powers = _powers_of(alloc)
    return max(float(secrecy_bits(powers.sum(), 0.0, (_gains_of(gains) * powers).sum(), 0.0)), 0.0)


def tw_sum_rate(alloc, gains) -> float:
    """Clamped two-way secrecy sum rate at an allocation, in bits."""
    return max(float(tw_secrecy_bits(_powers_of(alloc), _gains_of(gains), True)), 0.0)


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
    """TDMA sum rate in bits: the users' clamped slot rates at cap / share, added in order."""
    return sum(_tdma_user_bounds(h, caps, shares)[1].tolist())


def _marginal(x: np.ndarray, h: np.ndarray, c=1.0):
    """Marginal m = G - x G' of G(x) = ln((1+x)/(1+hx)), twice the slot rate in nats, and c / (x^2 m').

    m = ln(1+z) - z/(1+x) with z = (1-h) x / (1+hx).  Below z = 0.1 the two
    terms cancel, so m is summed there as (ln(1+z) - z) + z x / (1+x), with
    ln(1+z) - z = 2 u^3 sum_k u^2k / (2k+3) - z^2 / (2+z) for u = z / (2+z),
    from ln(1+z) = 2 atanh(u); five terms leave a relative error below 1e-15.
    x^2 m' underflows below bursts of 1e-103, so c meets its inverted factors one at a time.
    """
    hx1 = 1.0 + h * x
    x1 = 1.0 + x
    z = (1.0 - h) * x / hx1
    weight = c * (x1 / x) * (x1 / x) * (hx1 / x) / ((1.0 - h) * (1.0 + h * x1 / hx1))
    m = np.log1p(z) - z / x1
    small = z < 0.1
    if small.any():
        zs, z2 = z[small], 2.0 + z[small]
        u = zs / z2
        w = u * u
        tail = 1.0 / 3.0 + w * (1.0 / 5.0 + w * (1.0 / 7.0 + w * (1.0 / 9.0 + w / 11.0)))
        m[small] = (2.0 * u * w * tail - zs * zs / z2) + zs * x[small] / x1[small]
    return m, weight


# Bursts beyond the float range mean a share of 0; this bound keeps them finite.
_MAX_BURST = np.finfo(float).max
_CAPS_TOO_LARGE = "power_caps are too large for the TDMA share search"


def _share_floor(nu, c, h):
    """c (r - h)^+ / (1 - r), r = e^-(nu+1), below the share at m = nu, as m(x) > G(x) - 1."""
    r = math.exp(-nu - 1.0)
    return c * np.maximum(r - h, 0.0) / (1.0 - r)


def _newton_shares(a, m, w, c, h, g_inf, unit, lo, hi):
    """One Newton step on the KKT system from the shares a, and its multiplier nu.

    The step a_k + (m_k - nu) w_k unit, nu the w-weighted mean marginal, keeps
    the shares' sum; the user of largest weight takes what the others leave.
    Where m grows like ln x, Newton moves a share by a factor near 1 + m - nu,
    so steps are clipped to the share's bounds at nu: ``_share_floor`` and, as
    m(x) <= ln(1+x), c / expm1(nu).  A user sent to a share <= 0 is silenced
    if g(inf) <= nu, else takes the lesser of half its share and that ceiling,
    and nu is formed again over the others.  A nu outside the bracket [lo, hi]
    becomes its midpoint, where every share takes its step for the caller to
    rescale.
    """
    new, free = np.zeros(len(a)), np.ones(len(a), dtype=bool)
    while free.any():
        wk = w[free]
        nu = float((np.dot(wk, m[free]) - (1.0 - new.sum() - a[free].sum()) / unit) / wk.sum())
        newton = lo - 1e-15 * hi <= nu <= hi * (1.0 + 1e-15)
        nu = nu if newton else 0.5 * (lo + hi)
        ceil = np.fmin(c / min(np.expm1(max(nu, 0.0)), _MAX_BURST), 1.0)
        step = np.where(free, a + (m - nu) * w * unit, new)
        step = np.where(free & (step > 0.0), np.fmin(np.fmax(step, _share_floor(nu, c, h)), ceil), step)
        if newton:
            j = np.flatnonzero(free)[np.argmax(wk)]
            step[j] = 0.0
            step[j] = 1.0 - float(step.sum())
        low = free & ~(step > 0.0)
        if not low.any():
            return step, nu
        new[low] = np.where(g_inf[low] > nu * (1.0 + 1e-15), np.fmin(0.5 * a, ceil)[low], 0.0)
        if not newton:
            return np.where(low, new, step), nu
        free &= ~low
    return new, nu


def tdma_share_search(ch: StdMacChannel):
    """Optimal TDMA time shares by Newton on the KKT system in (shares, lam).

    The rate sum_k a_k g_k(c_k / a_k), g_k(x) = 1/2 log2((1+x)/(1+h_k x)),
    is concave in y_k = a_k / c_k with a diagonal Hessian and one linear
    constraint, sum_k c_k y_k = 1.  At the optimum the users with h_k < 1, a
    positive cap and lam < g_k(inf) = 1/2 log2(1/h_k) share one marginal
    m_k = g_k(x_k) - x_k g_k'(x_k) = lam at their bursts x_k = c_k / a_k.
    Feasible-start Newton (Boyd & Vandenberghe 10.2), one marginal evaluation
    per step, runs from the cap-proportional shares, optimal for equal gains.
    As m_k rises with x_k, each iterate brackets lam by the marginals of the
    users with time and the silent users' g(inf).  It stops when the bracket
    closes to 1e-15 relative or no share moves by 1e-13 of itself.
    Returns (shares, rate in bits).  A ValueError names ``power_caps`` where
    the start's cap sum and sum_k c_k m_k both overflow or no rate is finite.
    """
    h, caps, k = ch.eve_gains, ch.power_caps, ch.k_users
    active = np.flatnonzero((h < 1.0) & (caps > 0))
    if len(active) == 0:
        return np.full(k, 1.0 / k), 0.0
    ha, c = h[active], caps[active]
    unit = max(float(c.max()), 1.0)  # the unit of the Newton weights c_k / (x_k^2 m'_k)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g_inf = -np.log(ha)
        if math.isinf(c.sum()) and math.isinf(np.dot(c, _marginal(np.full(len(c), _MAX_BURST), ha)[0])):
            raise ValueError(_CAPS_TOO_LARGE)
        a = c / c.max()
        a /= a.sum()
        lo, hi = 0.0, math.log(len(c)) + math.log1p(c.max())  # some share >= 1/K has m <= ln(1 + K c)
        for _ in range(100):
            on = a > 0.0
            a_on, c_on = a[on], c[on]
            m, w = _marginal(np.minimum(c_on / a_on, _MAX_BURST), ha[on], c_on / unit)
            lo = max(lo, float(m.min()))
            hi = min(hi, float(np.max(m, initial=g_inf[~on].max(initial=-math.inf))))
            if hi - lo <= 1e-15 * lo:
                break
            new, nu = _newton_shares(a_on, m, w, c_on, ha[on], g_inf[on], unit, lo, hi)
            a[on] = new
            # Users re-enter below their share at nu: ln(1/h) - m(x) < 2(1-h) / (h x).
            enter = (a == 0.0) & (g_inf > nu * (1.0 + 1e-15))
            if enter.any():
                floor = np.fmax(c * ha * (g_inf - nu) / (2.0 * (1.0 - ha)), _share_floor(nu, c, ha))
                a[enter] = np.fmin(floor, 1.0)[enter]
            if not a.sum() > 0.0:  # every share at nu underflows, so lam < nu
                a[on], hi = a_on, nu
                continue
            a /= a.sum()
            if not enter.any() and np.all(np.abs(new - a_on) <= 1e-13 * new):
                break
        shares = np.zeros(k)
        shares[active] = np.where(c / a <= _MAX_BURST, a, 0.0)
    if np.isfinite(shares).all() and shares.sum() > 0:
        shares /= shares.sum()
        rate = _tdma_rate(h, caps, shares)
        if math.isfinite(rate):
            return shares, rate
    raise ValueError(_CAPS_TOO_LARGE)


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
