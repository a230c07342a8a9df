"""Tests for the sum-rate maximizing power allocations."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_rates import (
    GridSpec,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    grid_max_mac_sup,
    is_degraded,
    mac_best_sum_rate,
    mac_sup_optimal,
    mac_tdma_optimal,
    merge_tied_users,
    sup_sum_rate,
    tdma_share_search,
    tw_optimal,
    tw_region,
    tw_sum_rate,
)
from secrecy_rates import allocation
from secrecy_rates.allocation import _marginal
from secrecy_rates.channels import secrecy_bits, tw_secrecy_bits
from reference import assert_near_reference as _assert_near_reference
from reference import dec_bits as _dec_bits
from reference import (
    mac_two_user_closed_form,
    nested_tdma_share_search,
    phi,
    random_mac_instance,
    random_tw_instance,
)

RATE_TOL = 1e-9


def test_mac_sup_optimal_prefix_example():
    ch = StdMacChannel([0.1, 0.3], [4.0, 4.0])
    sol = mac_sup_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 0.0], rtol=0, atol=0)
    assert sol.transmit_set == (0,)
    assert np.isclose(sol.sum_rate, 0.9182506338585603, rtol=0, atol=1e-12)
    assert np.isclose(
        sol.sum_rate, 0.5 * np.log2(5.0) - 0.5 * np.log2(1.4), rtol=0, atol=1e-12
    )
    assert sol.mode == "SUP"


def test_mac_sup_optimal_no_weak_users():
    sol = mac_sup_optimal(StdMacChannel([1.0, 1.4], [4.0, 4.0]))
    assert sol.transmit_set == ()
    assert sol.sum_rate == 0.0
    assert np.all(sol.allocation.powers == 0.0)


def test_mac_sup_optimal_all_transmit():
    ch = StdMacChannel([0.1, 0.2], [4.0, 4.0])
    sol = mac_sup_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 4.0], rtol=0, atol=0)
    # cross-check against the brute-force oracle on the same instance
    alloc, rate = grid_max_mac_sup(ch, GridSpec(points_per_axis=101))
    assert np.allclose(alloc.powers, sol.allocation.powers, rtol=0, atol=0)
    assert np.isclose(rate, sol.sum_rate, rtol=0, atol=RATE_TOL)


def test_mac_sup_threshold_sandwich():
    """Returned prefix T obeys h_T < phi(1..T) and h_{T+1} >= phi(1..T+1)."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        ch = random_mac_instance(rng, int(rng.integers(2, 4)))
        sol = mac_sup_optimal(ch)
        t = len(sol.transmit_set)
        caps = PowerAllocation(ch.power_caps)
        if t > 0:
            assert ch.eve_gains[t - 1] < phi(caps, ch, range(t)) + 1e-12
        if t < ch.k_users:
            assert ch.eve_gains[t] >= phi(caps, ch, range(t + 1)) - 1e-12


def test_mac_sup_transmit_set_is_prefix():
    rng = np.random.default_rng(32)
    for _ in range(300):
        ch = random_mac_instance(rng, int(rng.integers(2, 5)))
        sol = mac_sup_optimal(ch)
        t = len(sol.transmit_set)
        assert sol.transmit_set == tuple(range(t)), f"non-prefix set {sol.transmit_set}"
        assert np.all(sol.allocation.powers[:t] == ch.power_caps[:t])
        assert np.all(sol.allocation.powers[t:] == 0.0)


def test_mac_sup_prefix_ratios_nonincreasing():
    rng = np.random.default_rng(33)
    for _ in range(200):
        ch = random_mac_instance(rng, 3)
        sol = mac_sup_optimal(ch)
        caps = PowerAllocation(ch.power_caps)
        ratios = [phi(caps, ch, range(s)) for s in range(1, len(sol.transmit_set) + 1)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-12


def test_two_user_closed_form_examples():
    sol = mac_two_user_closed_form(StdMacChannel([0.1, 0.3], [4.0, 4.0]))
    assert np.allclose(sol.allocation.powers, [4.0, 0.0], rtol=0, atol=0)
    both = mac_two_user_closed_form(StdMacChannel([0.1, 0.25], [4.0, 4.0]))
    assert np.allclose(both.allocation.powers, [4.0, 4.0], rtol=0, atol=0)
    none = mac_two_user_closed_form(StdMacChannel([1.5, 2.0], [4.0, 4.0]))
    assert np.all(none.allocation.powers == 0.0) and none.sum_rate == 0.0


def test_two_user_closed_form_matches_general_solver():
    rng = np.random.default_rng(34)
    for _ in range(400):
        ch = random_mac_instance(rng, 2)
        a = mac_two_user_closed_form(ch)
        b = mac_sup_optimal(ch)
        assert np.array_equal(a.allocation.powers, b.allocation.powers)
        assert a.sum_rate == b.sum_rate, f"rates differ: {a.sum_rate} vs {b.sum_rate}"


def test_two_user_closed_form_wrong_count():
    with pytest.raises(ValueError):
        mac_two_user_closed_form(StdMacChannel([0.1, 0.2, 0.3], [1.0, 1.0, 1.0]))


def test_tdma_degraded_closed_form():
    ch = StdMacChannel([0.5, 0.5], [4.0, 2.0])
    assert is_degraded(ch)
    sol = mac_tdma_optimal(ch)
    assert np.allclose(sol.shares.shares, [2.0 / 3.0, 1.0 / 3.0], rtol=0, atol=0)
    assert sol.mode == "TDMA"


def test_tdma_numeric_matches_dense_scan():
    """One-dimensional scan over the user-1 share brackets the optimizer."""
    ch = StdMacChannel([0.1, 0.3], [4.0, 4.0])
    sol = mac_tdma_optimal(ch)

    alphas = np.linspace(1e-9, 1.0 - 1e-9, 1_000_001)
    caps, h = ch.power_caps, ch.eve_gains

    def slot(a, cap, gain):
        burst = cap / a
        return 0.5 * a * np.maximum(np.log2(1 + burst) - np.log2(1 + gain * burst), 0.0)

    rates = slot(alphas, caps[0], h[0]) + slot(1.0 - alphas, caps[1], h[1])
    best = int(np.argmax(rates))
    assert abs(sol.shares.shares[0] - alphas[best]) < 1e-6, (
        f"share {sol.shares.shares[0]} vs scan {alphas[best]}"
    )
    assert sol.sum_rate >= rates[best] - 1e-9
    assert np.isclose(sol.sum_rate, 0.9616084009085192, rtol=0, atol=1e-9)


def test_tdma_strong_eavesdropper_zero():
    sol = mac_tdma_optimal(StdMacChannel([1.2, 1.4], [4.0, 4.0]))
    assert sol.sum_rate == 0.0
    assert np.allclose(sol.shares.shares, [0.5, 0.5], rtol=0, atol=0)


def test_tdma_share_search_three_users():
    ch = StdMacChannel([0.1, 0.3, 0.6], [4.0, 4.0, 4.0])
    shares, rate = tdma_share_search(ch)
    assert np.isclose(shares.sum(), 1.0, rtol=0, atol=1e-12)
    assert rate > 0
    sol = mac_tdma_optimal(ch)
    assert np.isclose(sol.sum_rate, rate, rtol=0, atol=1e-12)


# TDMA optimum of StdMacChannel([0.1, 0.3], [4, 4]): user 1's time share and
# the sum rate, from a root of the first-order condition found in 50-digit
# arithmetic (mpmath, which the tests do not import).
TWO_USER_SHARE = 0.72629894911399024478634
TWO_USER_RATE = 0.96160840090851905969156


def _tdma_marginals(h, caps, shares):
    """Marginal g(x) - x g'(x) in bits at each user's burst x = cap / share."""
    x = caps / shares
    g = 0.5 * np.log2((1.0 + x) / (1.0 + h * x))
    slope = 0.5 / np.log(2.0) * (1.0 - h) / ((1.0 + x) * (1.0 + h * x))
    return g - x * slope


def _half_weak_channel(rng, k):
    """K users, half of them with gain below 1, caps spread over 0.1..10."""
    low = k // 2
    h = np.concatenate(
        [np.sort(rng.uniform(0.02, 0.98, low)), np.sort(rng.uniform(1.02, 2.0, k - low))]
    )
    return StdMacChannel(h, rng.uniform(0.1, 10.0, k))


@pytest.mark.parametrize("k", [4, 8, 32, 128])
def test_tdma_kkt_certificate(k):
    """Active users share one marginal; silent users could not earn more."""
    rng = np.random.default_rng(40 + k)
    for _ in range(5):
        ch = _half_weak_channel(rng, k)
        h, caps = ch.eve_gains, ch.power_caps
        shares, _ = tdma_share_search(ch)
        assert abs(shares.sum() - 1.0) <= 1e-12
        on = shares > 0
        marg = _tdma_marginals(h[on], caps[on], shares[on])
        lam = float(np.mean(marg))
        assert lam > 0
        assert np.max(np.abs(marg - lam)) <= 1e-9 * lam, f"marginals {marg}"
        with np.errstate(divide="ignore"):
            ceiling = -0.5 * np.log2(h[~on])
        assert np.all(ceiling <= lam * (1.0 + 1e-9)), f"silent ceilings {ceiling} above {lam}"


def test_tdma_two_user_exact_optimum():
    ch = StdMacChannel([0.1, 0.3], [4.0, 4.0])
    shares, rate = tdma_share_search(ch)
    assert abs(shares[0] - TWO_USER_SHARE) <= 1e-12, repr(shares[0])
    assert abs(shares[1] - (1.0 - TWO_USER_SHARE)) <= 1e-12
    assert abs(rate - TWO_USER_RATE) <= 1e-12
    sol = mac_tdma_optimal(ch)
    assert sol.branch == "numeric"
    assert abs(sol.shares.shares[0] - TWO_USER_SHARE) <= 1e-12


def test_tdma_equal_gains_numeric_path_is_cap_proportional():
    """The degraded closed form falls out of the general solver."""
    rng = np.random.default_rng(41)
    for k in (2, 3, 5, 8, 32):
        for _ in range(10):
            h = float(rng.uniform(0.0, 0.99))
            caps = rng.uniform(0.1, 10.0, k)
            shares, rate = tdma_share_search(StdMacChannel(np.full(k, h), caps))
            assert np.max(np.abs(shares - caps / caps.sum())) <= 1e-12, (h, caps, shares)
            assert rate > 0


def test_tdma_three_users_simplex_grid_never_beats_solver():
    steps = np.arange(1001) / 1000.0
    a1, a2 = np.meshgrid(steps, steps, indexing="ij")
    a3 = 1.0 - a1 - a2
    keep = a3 >= -1e-12
    grid = np.stack([a1[keep], a2[keep], np.maximum(a3[keep], 0.0)])

    def slot(a, cap, gain):
        with np.errstate(divide="ignore", invalid="ignore"):
            burst = cap / a
            rate = 0.5 * a * np.log2((1.0 + burst) / (1.0 + gain * burst))
        return np.where(a > 0, np.maximum(rate, 0.0), 0.0)

    rng = np.random.default_rng(42)
    for i in range(6):
        h = np.sort(rng.uniform(0.0, 1.0 if i % 2 == 0 else 1.3, 3))
        caps = rng.uniform(0.1, 10.0, 3)
        _, rate = tdma_share_search(StdMacChannel(h, caps))
        best = sum(slot(grid[u], caps[u], h[u]) for u in range(3)).max()
        assert best <= rate + 1e-12, f"grid {best!r} beats solver {rate!r} at h={h}, caps={caps}"


def test_tdma_deaf_silent_and_capless_users():
    """h = 0 never saturates; zero caps, h >= 1 and saturated users get no time."""
    ch = StdMacChannel([0.0, 0.1, 0.2, 0.9, 1.5], [2.0, 0.0, 3.0, 1.0, 5.0])
    shares, rate = tdma_share_search(ch)
    assert abs(shares.sum() - 1.0) <= 1e-12
    assert shares[0] > 0 and shares[2] > 0
    assert shares[1] == 0.0 and shares[3] == 0.0 and shares[4] == 0.0
    marg = _tdma_marginals(ch.eve_gains[[0, 2]], ch.power_caps[[0, 2]], shares[[0, 2]])
    lam = float(marg.mean())
    assert np.max(np.abs(marg - lam)) <= 1e-9 * lam
    assert -0.5 * np.log2(0.9) <= lam
    assert rate > 0


@pytest.mark.parametrize("caps", [[1e308, 1e308], [1e200, 1e200], [1e308, 1e-3]])
def test_tdma_search_at_caps_near_the_float_limit(caps):
    """Bursts past about 1e154 overflow the marginal's slope, so Newton's
    denominator is NaN, 0 or inf there and the search bisects.  User 1 alone
    at cap bounds the rate from below, 1/2 log2(1/h1) from above, and no
    RuntimeWarning escapes."""
    shares, rate = tdma_share_search(StdMacChannel([0.9, 0.95], caps))
    assert abs(shares.sum() - 1.0) <= 1e-12
    lower = 0.5 * np.log2((1.0 + caps[0]) / (1.0 + 0.9 * caps[0]))
    assert lower - 1e-12 <= rate <= 0.5 * np.log2(1.0 / 0.9) + 1e-12


def _two_user_scan_best(h, caps):
    """Best rate of a dense two-user share scan, linear plus log-spaced near
    0 and 1, with each slot's rate written as log1p((1-h) / (a/c + h))."""
    a = np.concatenate(
        [np.linspace(0.0, 1.0, 20_001), np.logspace(-300, -1, 2_000), 1.0 - np.logspace(-16, -1, 500)]
    )
    shares = np.stack([a, 1.0 - a], axis=1)
    rates = (0.5 * shares * np.log1p((1.0 - h) / (shares / caps + h)) / np.log(2.0)).sum(axis=1)
    return float(rates.max())


@pytest.mark.parametrize("e", [5, 10, 15, 17, 20, 50, 100, 150, 200, 250, 300, 307])
def test_tdma_never_loses_to_a_share_scan_at_large_cap_ratios(e):
    """With caps 1e-3 and 10^e, user 2's marginal at the cap-proportional
    start rounds to within an ulp of its saturation level ln(1/h2), and so
    does the optimum.  The solver keeps user 2 on and still gives user 1
    its share: it matches the dense share scan of ``_two_user_scan_best``."""
    h, caps = np.array([0.9, 0.95]), np.array([1e-3, 10.0**e])
    sol = mac_tdma_optimal(StdMacChannel(h, caps))
    best = _two_user_scan_best(h, caps)
    assert sol.sum_rate >= best * (1.0 - 1e-9), (sol.sum_rate, best, sol.shares.shares)


@pytest.mark.parametrize("gains", [[0.1, 0.3], [0.5, 0.5]])
def test_tdma_search_without_finite_result_names_power_caps(gains):
    """At caps 1e308 the shares of gains (0.1, 0.3) come out all zero, and
    the tied gains (0.5, 0.5), whose cap sum overflows, get finite shares
    but bursts of inf and a NaN rate; the search reports the field instead."""
    with pytest.raises(ValueError, match="power_caps"):
        mac_tdma_optimal(StdMacChannel(gains, [1e308, 1e308]))


def test_tdma_never_loses_to_a_share_scan_at_random_cap_scales():
    """Two users with caps 10^U(-5, 308), after gains (0.235, 0.887) with caps
    (2.4e14, 2.0e182): there user 2's marginal at its burst rounds to its
    level ln(1/h2), and the optimum is user 1 alone, whose marginal lies
    2.7e-14 below ln(1/h1).  The search refuses caps only where the cap sum
    and sum_k c_k m_k both overflow, which needs sum_k c_k ln(1/h_k) to."""
    rng = np.random.default_rng(47)
    channels = [(np.array([0.235, 0.887]), np.array([2.4e14, 2.0e182]))] + [
        (np.sort(rng.uniform(0.0, 1.0, 2)), 10.0 ** rng.uniform(-5.0, 308.0, 2)) for _ in range(200)
    ]
    for h, caps in channels:
        try:
            _, rate = tdma_share_search(StdMacChannel(h, caps))
        except ValueError as err:
            assert "power_caps" in str(err)
            assert not np.isfinite(caps.sum()) and not np.isfinite(np.dot(caps, -np.log(h))), (h, caps)
            continue
        best = _two_user_scan_best(h, caps)
        assert rate >= best * (1.0 - 1e-9), (h, caps, rate, best)


def _slot_bits(h, caps, shares):
    """TDMA rate as a sum of per-user log1p terms, accurate to the rate itself."""
    on = shares > 0
    x = caps[on] / shares[on]
    return float(np.sum(0.5 * shares[on] * np.log1p((1.0 - h[on]) * x / (1.0 + h[on] * x)) / np.log(2.0)))


def _agreement_channels():
    """Half-weak channels, gains below 1 with caps 10^U(-3, 3), and caps
    10^U(-150, -100), where x^2 m' underflows at the bursts."""
    rng = np.random.default_rng(48)
    yield StdMacChannel([0.1, 0.3], [1e-150, 1e-160])
    for k in (2, 3, 8, 32, 128):
        for _ in range(6):
            yield _half_weak_channel(rng, k)
            yield StdMacChannel(np.sort(rng.uniform(0.0, 1.0, k)), 10.0 ** rng.uniform(-3.0, 3.0, k))
        yield StdMacChannel(np.sort(rng.uniform(0.0, 1.0, k)), 10.0 ** rng.uniform(-150.0, -100.0, k))


def test_tdma_search_agrees_with_the_nested_reference():
    """Shares within 1e-11 of the nested multiplier search, which solves every
    burst at each step, and a rate no lower than its rate by more than 1e-14
    relative.  The rates are compared in ``_slot_bits``' form, since the
    reported rate rounds at about 1e-16 of the terms C(x) and C(hx)."""
    for ch in _agreement_channels():
        h, caps = ch.eve_gains, ch.power_caps
        shares, _ = tdma_share_search(ch)
        ref_shares, _ = nested_tdma_share_search(ch)
        assert np.max(np.abs(shares - ref_shares)) <= 1e-11, (h, caps)
        ref = _slot_bits(h, caps, ref_shares)
        assert _slot_bits(h, caps, shares) >= ref * (1.0 - 1e-14), (h, caps)


def test_tdma_single_active_user_at_a_huge_cap_takes_all_the_time():
    """Only user 1 has h < 1; c ln(1/h) overflows at its cap, but one user
    needs no search.  Superposition ties and is reported."""
    ch = StdMacChannel([0.1, 1.5], [1e308, 1.0])
    shares, rate = tdma_share_search(ch)
    assert shares.tolist() == [1.0, 0.0]
    assert abs(rate - 0.5 * np.log2(1.0 / 0.1)) <= 1e-12
    best = mac_best_sum_rate(ch)
    assert best.mode == "SUP" and best.sum_rate == rate


def _extreme_channel(rng, mix):
    k = int(rng.choice([2, 3, 4, 8]))
    if mix == 0:  # caps near the float limit
        h, caps = rng.uniform(0.0, 1.5, k), 10.0 ** rng.uniform(300.0, 308.25, k)
    elif mix == 1:  # deaf users beside caps up to the float limit
        h = np.where(rng.random(k) < 0.3, 0.0, rng.uniform(0.0, 1.0, k))
        caps = np.where(rng.random(k) < 0.5, np.finfo(float).max, 10.0 ** rng.uniform(-3.0, 308.0, k))
    elif mix == 2:  # deaf and nearly deaf users, caps 10^U(-5, 200)
        h = np.where(rng.random(k) < 0.3, 0.0, 10.0 ** rng.uniform(-30.0, 0.0, k))
        caps = 10.0 ** rng.uniform(-5.0, 200.0, k)
    elif mix == 3:  # gains 10^U(-300, 0), caps 10^U(-5, 300)
        h, caps = 10.0 ** rng.uniform(-300.0, 0.0, k), 10.0 ** rng.uniform(-5.0, 300.0, k)
    else:  # gains and caps from the float range's extremes, subnormal caps included
        h = rng.choice([0.0, 0.5, 0.9, 1.0 - 2.0**-53], k)
        caps = rng.choice([1e-320, 1e-300, 1.0, 1e300, np.finfo(float).max], k)
    return StdMacChannel(np.sort(h), caps)


def test_tdma_search_matches_the_nested_reference_at_extreme_scales():
    """Over channels at the edges of the float range, the search refuses
    only where the nested reference refuses too (it answers some of those),
    and gets at least the reference's rate where both answer.  A deaf user
    whose cap lies 1e255 below another's, such as gains (0, 0.437) with caps
    (2.7e53, 1.8e308), needs its share raised by that factor: Newton alone
    moves it about 700-fold per step.  With a cap of 1e-320 beside 1.8e308
    the start leaves a deaf user silent, and with gains down to 1e-314 the
    midpoint multiplier can leave one user holding all the time, or every
    share underflowing.  With gains (1.24e-282, ..., 3.79e-15) a midpoint
    silences the users who hold the optimum's time while the others' shares
    underflow, so the iterate cannot narrow the bracket: the midpoint has to
    bisect it."""
    rng = np.random.default_rng(50)
    big = np.finfo(float).max
    channels = [
        StdMacChannel([0.0, 0.437], [2.7e53, big]),
        StdMacChannel([0.0, 0.0, 0.9, 1.0 - 2.0**-53], [1e300, 1e-320, big, 1e300]),
        StdMacChannel([3.85e-314, 5.89e-191, 3.54e-141, 1.79e-76], [1.0e26, 4.6e97, 8.1e-281, 1.08e290]),
        StdMacChannel(
            [1.30e-230, 3.57e-183, 2.49e-175, 2.74e-136, 1.10e-128, 1.20e-54],
            [6.72e-256, 2.41e-187, 9.68e147, 9.62e50, 4.92e260, 2.84e-147],
        ),
        StdMacChannel(
            [1.24e-282, 1.43e-266, 1.03e-231, 9.96e-201, 2.39e-23, 3.79e-15],
            [9.1e-67, 6.6e-233, 1.01e220, 2.68e294, 4.27e-89, 3.0e-67],
        ),
    ]
    channels += [_extreme_channel(rng, i % 5) for i in range(40)]
    for ch in channels:
        h, caps = ch.eve_gains, ch.power_caps
        try:
            shares, _ = tdma_share_search(ch)
        except ValueError as err:
            assert "power_caps" in str(err)
            with pytest.raises(ValueError, match="power_caps"):
                nested_tdma_share_search(ch)
            continue
        try:
            ref_shares, _ = nested_tdma_share_search(ch)
        except ValueError:
            continue
        ref = _slot_bits(h, caps, ref_shares)
        assert _slot_bits(h, caps, shares) >= ref - 1e-13 * abs(ref), (h, caps)


@pytest.mark.parametrize("k", [2, 3, 8, 32, 128])
def test_tdma_search_evaluates_the_marginal_at_most_15_times(k, monkeypatch):
    """One marginal evaluation per Newton step."""
    calls = []
    real = allocation._marginal

    def counted(x, h, *weight_caps):
        calls.append(len(x))
        return real(x, h, *weight_caps)

    monkeypatch.setattr(allocation, "_marginal", counted)
    rng = np.random.default_rng(49 + k)
    for _ in range(20):
        calls.clear()
        tdma_share_search(_half_weak_channel(rng, k))
        assert 1 <= len(calls) <= 15, len(calls)


@pytest.mark.parametrize("k, mean_calls, max_calls", [(8, 4.84, 8), (32, 6.08, 7), (128, 6.35, 9)])
def test_tdma_search_forms_one_multiplier_per_newton_step(k, mean_calls, max_calls, monkeypatch):
    """Each Newton step forms its multiplier once, and that costs no steps:
    on these 200 channels per K the search evaluates the marginal no more
    often than one that formed the multiplier again after each halving,
    which took 4.84 / 6.08 / 6.35 evaluations per solve on average at
    K = 8 / 32 / 128, and at most 8 / 7 / 9."""
    counts = {}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in ("_marginal", "_multiplier", "_newton_shares"):
        monkeypatch.setattr(allocation, name, counted(name, getattr(allocation, name)))
    rng = np.random.default_rng(49 + k)
    calls = []
    for _ in range(200):
        counts.update(_marginal=0, _multiplier=0, _newton_shares=0)
        tdma_share_search(_half_weak_channel(rng, k))
        assert counts["_multiplier"] == counts["_newton_shares"], counts
        calls.append(counts["_marginal"])
    assert np.mean(calls) <= mean_calls and max(calls) <= max_calls, (np.mean(calls), max(calls))


def test_tdma_marginal_newton_weight_is_finite_and_matches_the_slope():
    """The weight c / (x^2 m'(x)) agrees with the slope written as one
    fraction where that fraction neither overflows nor underflows, and stays
    finite and positive from bursts of 1e-150, where x^2 m' underflows, to
    the float limit, where the fraction is 0 or NaN."""
    for h in (0.0, 0.1, 0.5, 0.9, 1.0 - 1e-9):
        x = np.logspace(-6, 50, 113)
        _, w = _marginal(x, np.full_like(x, h), 2.0 * x)
        slope = x * (1.0 - h) * (1.0 + h + 2.0 * h * x) / ((1.0 + x) * (1.0 + h * x)) ** 2
        assert np.allclose(w, 2.0 * x / (x * x * slope), rtol=1e-13, atol=0.0), h
        for x, c in ((np.logspace(50, 308, 100), 1.0), (np.logspace(-150, -100, 100), 1e-160)):
            _, w = _marginal(x, np.full_like(x, h), c)
            assert np.all(np.isfinite(w) & (w > 0.0)), h


def test_best_sum_rate_degraded_prefers_sup():
    """Equal-gain users merge to one, the schemes tie, and ties go to SUP."""
    rng = np.random.default_rng(35)
    for _ in range(30):
        ch = merge_tied_users(
            np.full(2, float(rng.uniform(0.05, 0.95))), rng.uniform(0.1, 10.0, 2)
        )
        assert is_degraded(ch)
        best = mac_best_sum_rate(ch)
        assert best.mode == "SUP"
        assert best.sum_rate >= mac_tdma_optimal(ch).sum_rate - 1e-12


def test_best_sum_rate_tdma_can_win():
    """With unequal gains the TDMA branch may strictly beat superposition."""
    ch = StdMacChannel([0.1, 0.3], [4.0, 4.0])
    best = mac_best_sum_rate(ch)
    assert best.mode == "TDMA"
    assert np.isclose(best.sum_rate, 0.9616084009085192, rtol=0, atol=1e-9)
    assert best.sum_rate > mac_sup_optimal(ch).sum_rate


def test_best_sum_rate_is_max_of_branches():
    ch = StdMacChannel([0.9, 5.0], [1.0, 1.0])
    best = mac_best_sum_rate(ch)
    expect = max(mac_sup_optimal(ch).sum_rate, mac_tdma_optimal(ch).sum_rate)
    assert best.sum_rate == expect


def test_tw_optimal_both_at_caps():
    ch = StdTwChannel([0.3, 0.7], [4.0, 2.0])
    sol = tw_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 2.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 1.0294468445267841, rtol=0, atol=1e-12)
    assert sol.mode == "TW"


def test_tw_optimal_single_user_branch():
    ch = StdTwChannel([0.5, 4.0], [4.0, 2.0])
    sol = tw_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 0.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 0.36848279708310305, rtol=0, atol=1e-12)
    assert np.isclose(
        sol.sum_rate, 0.5 * np.log2(5.0) - 0.5 * np.log2(3.0), rtol=0, atol=1e-12
    )


def test_tw_optimal_all_silent():
    sol = tw_optimal(StdTwChannel([3.0, 5.0], [0.1, 0.1]))
    assert np.all(sol.allocation.powers == 0.0)
    assert sol.sum_rate == 0.0
    assert sol.transmit_set == ()


def test_tw_optimal_boundary_goes_single_user():
    # h2 exactly 1 + h1*P1 belongs to the user-1-only branch
    ch = StdTwChannel([0.5, 3.0], [4.0, 2.0])
    sol = tw_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 0.0], rtol=0, atol=0)


def test_all_zero_caps():
    sol = mac_sup_optimal(StdMacChannel([0.1, 0.3], [0.0, 0.0]))
    assert sol.transmit_set == () and sol.sum_rate == 0.0
    tw = tw_optimal(StdTwChannel([0.3, 0.7], [0.0, 0.0]))
    assert tw.transmit_set == () and tw.sum_rate == 0.0


def test_transmit_set_matches_positive_powers():
    rng = np.random.default_rng(36)
    for _ in range(100):
        ch = random_mac_instance(rng, 3)
        sol = mac_sup_optimal(ch)
        assert sol.transmit_set == tuple(np.flatnonzero(sol.allocation.powers > 0))
    for _ in range(100):
        tw = tw_optimal(random_tw_instance(rng))
        assert tw.transmit_set == tuple(np.flatnonzero(tw.allocation.powers > 0))


def test_two_way_rates_refuse_an_allocation_of_other_than_two_powers():
    """A third power used to be counted as noise by one rate function and
    dropped by another; every two-way rate now refuses it by name."""
    ch = StdTwChannel([0.1, 0.2], [1.0, 2.0])
    for rate in (
        lambda: tw_sum_rate([1.0, 2.0, 3.0], [0.1, 0.2, 0.3]),
        lambda: tw_sum_rate([1.0, 2.0, 3.0], ch),
        lambda: tw_region(ch, [1.0, 2.0, 3.0]),
        lambda: tw_region(ch, [1.0]),
    ):
        with pytest.raises(ValueError, match="allocation length must be 2"):
            rate()


def test_rate_helpers_clamp():
    assert sup_sum_rate([1.0, 1.0], np.array([2.0, 3.0])) == 0.0
    assert tw_sum_rate([1.0, 1.0], np.array([4.0, 4.0])) == 0.0
    assert sup_sum_rate([4.0, 0.0], np.array([0.1, 0.3])) == pytest.approx(
        0.9182506338585603, abs=1e-12
    )


@st.composite
def _low_to_high_snr_users(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    exponents = draw(st.lists(st.floats(-15.0, 15.0), min_size=k, max_size=k))
    gains = draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k))
    transmit = draw(st.sets(st.integers(0, k - 1)))
    return np.array([10.0**e for e in exponents]), np.sort(gains), sorted(transmit)


@settings(max_examples=300, deadline=None)
@given(_low_to_high_snr_users())
def test_rates_match_high_precision_reference(users):
    """SUP, CJ, TW and TDMA rates against an 80-digit evaluation of their formulas,
    for powers from 1e-15 to 1e15."""
    powers, h, transmit = users
    k = len(powers)
    ch = StdMacChannel(h, powers)
    shares, tdma_rate = tdma_share_search(ch)
    with localcontext() as ctx:
        ctx.prec = 80
        p = [Decimal(v) for v in powers.tolist()]
        hp = [Decimal(g) * v for g, v in zip(h.tolist(), p)]

        def mac(t):
            n = [i for i in range(k) if i not in t]
            heard = _dec_bits(sum(p[i] for i in t) / (1 + sum(p[i] for i in n)))
            leaked = _dec_bits(sum(hp[i] for i in t) / (1 + sum(hp[i] for i in n)))
            return heard - leaked, heard + leaked

        _assert_near_reference(sup_sum_rate(powers, h), *mac(range(k)))
        in_t, gained = np.isin(np.arange(k), transmit), h * powers
        cj = secrecy_bits(powers[in_t].sum(), powers[~in_t].sum(), gained[in_t].sum(), gained[~in_t].sum())
        _assert_near_reference(max(float(cj), 0.0), *mac(transmit))

        slots = []
        for a, c, g in zip(shares.tolist(), powers.tolist(), h.tolist()):
            if a > 0:
                burst = Decimal(c) / Decimal(a)
                heard, leaked = _dec_bits(burst), _dec_bits(Decimal(g) * burst)
                slots.append((Decimal(a) * max(heard - leaked, 0), Decimal(a) * (heard + leaked)))
        _assert_near_reference(tdma_rate, sum(r for r, _ in slots), sum(s for _, s in slots))

        if k >= 2:
            t = [i for i in transmit if i < 2]
            gross = sum(_dec_bits(p[i]) for i in t)
            cover = sum(hp[i] for i in range(2) if i not in t)
            leaked = _dec_bits(sum(hp[i] for i in t) / (1 + cover))
            tw_cj = max(float(tw_secrecy_bits(powers[:2], h[:2], np.isin([0, 1], t))), 0.0)
            _assert_near_reference(tw_cj, gross - leaked, gross + leaked)
            both = _dec_bits(p[0]) + _dec_bits(p[1])
            leaked = _dec_bits(hp[0] + hp[1])
            _assert_near_reference(tw_sum_rate(powers[:2], h[:2]), both - leaked, both + leaked)


def test_tdma_marginal_relative_accuracy():
    """m(x) = ln(1+z) - z/(1+x) to 1e-13 relative for bursts from 1e-12 to 1e6.

    The reference carries 80 digits because, for h within 1e-16 of 1 and
    x = 1e-12, its two terms agree to about 12 digits below 1e-28."""
    x = np.logspace(-12, 6, 181)
    for h in (0.0, 1e-12, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 2.0**-52):
        m, _ = _marginal(x, np.full_like(x, h))
        with localcontext() as ctx:
            ctx.prec = 80
            for xv, mv in zip(x.tolist(), m.tolist()):
                xd, hd = Decimal(xv), Decimal(h)
                z = (1 - hd) * xd / (1 + hd * xd)
                ref = (1 + z).ln() - z / (1 + xd)
                assert abs(Decimal(mv) - ref) <= Decimal("1e-13") * ref, (xv, h, mv, ref)
