"""Secrecy-sum-rate maximizing power allocations.

Three maximizers live here: the superposition solver for the standardized
MAC wiretap channel (the optimum is a cap-or-zero prefix of the gain
ordering), the TDMA share optimizer (the water-filling KKT point, found by
one-pass Newton steps on the shares and their multiplier that bisect a
certified multiplier bracket where Newton leaves it), and the two-way solver
(a three-branch corner rule).  Each returns a SumRateSolution.
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


def _powers_and_gains(alloc, gains) -> Tuple[np.ndarray, np.ndarray]:
    """The checked powers of ``alloc`` and the gains, one power per gain."""
    powers, h = _powers_of(alloc), _gains_of(gains)
    if len(powers) != len(h):
        raise ValueError(f"allocation length must be {len(h)}, one per gain, got powers of length {len(powers)}")
    return powers, h


def sup_sum_rate(alloc, gains) -> float:
    """Clamped superposition secrecy sum rate [C(P) - C(H)]^+ at an
    allocation, in bits: everyone transmits, P sums the powers and H the
    gain-weighted powers."""
    powers, h = _powers_and_gains(alloc, gains)
    return max(float(secrecy_bits(powers.sum(), 0.0, (h * powers).sum(), 0.0)), 0.0)


def tw_sum_rate(alloc, gains) -> float:
    """Clamped two-way secrecy sum rate at an allocation, in bits."""
    return max(float(tw_secrecy_bits(*_powers_and_gains(alloc, gains), True)), 0.0)


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


def _multiplier(a, m, w, unit):
    """The nu at which the positive parts of the steps a_k + (m_k - nu) w_k unit sum to 1: running
    sums over the users sorted by their kinks b_k = m_k + a_k / (w_k unit) give each prefix's nu,
    and the first prefix whose nu reaches the next user's b is kept."""
    b = m + a / (w * unit)
    order = (-b).argsort()  # users without weight (NaN) go last
    nus = (((a / unit + m * w)[order]).cumsum() - 1.0 / unit) / w[order].cumsum()
    return float(nus[np.count_nonzero(nus[:-1] < b[order][1:])])


def _newton_shares(a, on, m, w, c, h, g_inf, sat, unit, lo, hi):
    """One Newton step on the KKT system from the shares a, in one array pass.

    The users with time (``on``) step to a_k + (m_k - nu) w_k unit, nu formed
    once by ``_multiplier``.  As Newton moves a share by a factor near
    1 + m - nu where m grows like ln x, shares are clipped to their bounds at
    nu: c / expm1(nu) above, as m(x) <= ln(1+x); below, c (r - h)^+ / (1 - r),
    r = e^-(nu+1), as m(x) > G(x) - 1, and sat (g(inf) - nu), sat = c h / (2(1-h)),
    as g(inf) - m(x) < 2(1-h) / (h x).  A step that would cross 0 is cut to half
    the share (fraction to the boundary), to 0 where g(inf) <= nu; silent users
    with g(inf) > nu enter at their lower bound.  The user of largest weight
    whose g(inf) reaches nu takes what the others leave, if positive.  A nu
    outside the bracket [lo, hi] becomes its midpoint, where the bracket is
    bisected on the sign of the shares' sum less 1 and the caller rescales
    them.  Returns the shares, nu and the bracket.
    """
    w = np.where(on, w, 0.0)
    nu = lo + _multiplier(a, m - lo, w, unit)  # running sums of m - lo stay small near the optimum
    newton = lo - 1e-15 * hi <= nu <= hi * (1.0 + 1e-15)
    nu = nu if newton else 0.5 * (lo + hi)
    live = g_inf > nu * (1.0 + 1e-15)
    r = math.exp(-nu - 1.0)
    floor = np.fmax(sat * (g_inf - nu), c * np.maximum(r - h, 0.0) / (1.0 - r))
    ceil = np.fmin(c / min(np.expm1(max(nu, 0.0)), _MAX_BURST), 1.0)
    step = a + (m - nu) * w * unit
    cut = np.where(live, np.fmin(np.fmax(0.5 * a, floor), ceil), 0.0)
    new = np.where(step > 0.0, np.fmin(np.fmax(step, floor), ceil), cut)
    if newton:
        j = np.where(g_inf >= nu * (1.0 - 1e-15), w, -1.0).argmax()
        rest = 1.0 - float(new.sum() - new[j])
        new[j] = rest if rest > 0.0 else cut[j]
    else:
        lo, hi = (nu, hi) if float(np.sum(new, where=live)) > 1.0 else (lo, nu)
    return new, nu, lo, hi


def tdma_share_search(ch: StdMacChannel):
    """Optimal TDMA time shares by Newton on the KKT system in (shares, lam).

    The rate sum_k a_k g_k(c_k / a_k), g_k(x) = 1/2 log2((1+x)/(1+h_k x)),
    is concave in y_k = a_k / c_k with a diagonal Hessian and one linear
    constraint, sum_k c_k y_k = 1.  At the optimum the users with h_k < 1, a
    positive cap and lam < g_k(inf) = 1/2 log2(1/h_k) share one marginal
    m_k = g_k(x_k) - x_k g_k'(x_k) = lam at their bursts x_k = c_k / a_k.
    Feasible-start Newton (Boyd & Vandenberghe 10.2) runs from cap-proportional
    shares, optimal for equal gains, at one marginal evaluation and one
    ``_newton_shares`` pass over fixed-size arrays per step.  Each iterate
    brackets lam by the marginals of the users with time and the silent
    users' g(inf); the search stops when the bracket closes to 1e-15 relative
    or no share moves by 1e-13 of itself.  Returns (shares, rate in bits); a
    ValueError names ``power_caps`` where no share or rate is finite.
    """
    h, caps, k = ch.eve_gains, ch.power_caps, ch.k_users
    active = np.flatnonzero((h < 1.0) & (caps > 0))
    if len(active) == 0:
        return np.full(k, 1.0 / k), 0.0
    ha, c = h[active], caps[active]
    unit = max(float(c.max()), 1.0)  # the unit of the Newton weights c_k / (x_k^2 m'_k)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g_inf, sat, c_unit = -np.log(ha), c * ha / (2.0 * (1.0 - ha)), c / unit
        # lam >= m_k(c_k) > G_k(c_k) - 1 for every k, so users whose g(inf) lies below start silent.
        a = np.where(g_inf > float((np.log1p(c) - np.log1p(ha * c)).max()) - 1.0, c / c.max(), 0.0)
        a /= a.sum()
        lo, hi = 0.0, math.log(len(c)) + math.log1p(c.max())  # some share >= 1/K has m <= ln(1 + K c)
        for _ in range(100):
            on = a > 0.0
            # Silent users are evaluated as deaf at the largest burst, where m is finite, then masked.
            m, w = _marginal(np.minimum(c / a, _MAX_BURST), np.where(on, ha, 0.0), c_unit)
            lo = max(lo, float(np.where(on, m, math.inf).min()))
            hi = min(hi, float(np.where(on, m, g_inf).max()))
            if hi - lo <= 1e-15 * lo:
                break
            new, nu, lo, hi = _newton_shares(a, on, m, w, c, ha, g_inf, sat, unit, lo, hi)
            total = float(new.sum())
            if total > 0.0:  # else every share at nu underflows, so lam < nu: retry from a
                a, done = new / total, (abs(new - a) <= 1e-13 * new).all()
                if done:
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
    """Best TDMA solution, by the share search (tdma_share_search).

    Equal gains below 1 need no closed form: the search starts from the
    cap-proportional shares, which are then optimal.  The reported
    allocation gives cap power to every user with a positive share (each
    bursts at cap during its slot); with no useful user the shares are
    reported uniform and the rate is 0.
    """
    caps = ch.power_caps
    k = ch.k_users
    shares, rate = tdma_share_search(ch)
    if rate <= 0.0:
        shares = np.full(k, 1.0 / k)
    return _solution(np.where(shares > 0, caps, 0.0), rate, "TDMA", "numeric", TdmaShares(shares))


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
