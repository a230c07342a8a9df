"""Tests for the sum-rate maximizing power allocations."""

import numpy as np
import pytest

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
    mac_two_user_closed_form,
    merge_tied_users,
    phi,
    random_mac_instance,
    random_tw_instance,
    sup_sum_rate,
    tdma_share_search,
    tw_optimal,
    tw_sum_rate,
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
    ch = StdTwChannel([0.3, 0.7], [1.0, 1.0], [4.0, 2.0])
    sol = tw_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 2.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 1.0294468445267841, rtol=0, atol=1e-12)
    assert sol.mode == "TW"


def test_tw_optimal_single_user_branch():
    ch = StdTwChannel([0.5, 4.0], [1.0, 1.0], [4.0, 2.0])
    sol = tw_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 0.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 0.36848279708310305, rtol=0, atol=1e-12)
    assert np.isclose(
        sol.sum_rate, 0.5 * np.log2(5.0) - 0.5 * np.log2(3.0), rtol=0, atol=1e-12
    )


def test_tw_optimal_all_silent():
    sol = tw_optimal(StdTwChannel([3.0, 5.0], [1.0, 1.0], [0.1, 0.1]))
    assert np.all(sol.allocation.powers == 0.0)
    assert sol.sum_rate == 0.0
    assert sol.transmit_set == ()


def test_tw_optimal_boundary_goes_single_user():
    # h2 exactly 1 + h1*P1 belongs to the user-1-only branch
    ch = StdTwChannel([0.5, 3.0], [1.0, 1.0], [4.0, 2.0])
    sol = tw_optimal(ch)
    assert np.allclose(sol.allocation.powers, [4.0, 0.0], rtol=0, atol=0)


def test_all_zero_caps():
    sol = mac_sup_optimal(StdMacChannel([0.1, 0.3], [0.0, 0.0]))
    assert sol.transmit_set == () and sol.sum_rate == 0.0
    tw = tw_optimal(StdTwChannel([0.3, 0.7], [1.0, 1.0], [0.0, 0.0]))
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


def test_rate_helpers_clamp():
    assert sup_sum_rate([1.0, 1.0], np.array([2.0, 3.0])) == 0.0
    assert tw_sum_rate([1.0, 1.0], np.array([4.0, 4.0])) == 0.0
    assert sup_sum_rate([4.0, 0.0], np.array([0.1, 0.3])) == pytest.approx(
        0.9182506338585603, abs=1e-12
    )
