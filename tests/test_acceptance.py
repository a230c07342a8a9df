"""Acceptance suite: oracle equivalence, closed-form agreement, fixed points.

Each test prints one labeled pass/fail line; run with
`python3 -m pytest tests/test_acceptance.py -v -s` to see them.
"""

import time

import numpy as np

from secrecy_rates import (
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    TdmaShares,
    default_scene,
    mac_cj_optimal,
    mac_sup_optimal,
    mac_sup_region,
    mac_tdma_optimal,
    mac_tdma_region,
    sweep,
    tw_cj_optimal,
    tw_optimal,
    tw_region,
)
from secrecy_rates.allocation import tdma_share_search, tw_sum_rate
from secrecy_rates.oracle import (
    GridSpec,
    grid_max_mac_cj,
    grid_max_mac_sup,
    grid_max_tw,
    grid_max_tw_cj,
)
from reference import (
    RatePoint,
    mac_cj_two_user,
    mac_two_user_closed_form,
    random_degraded_mac_instance,
    random_mac_instance,
    random_tw_instance,
    region_contains,
    rho_terms,
)

RATE_TOL = 1e-9
CJ_ORACLE_TOL = 1e-6
FIXED_POINT_TOL = 1e-4
RHO_REL_TOL = 1e-9

# Closed form for the fourth fixed point, h=(0.5, 4.2), caps (2, 2): terminal 2
# jams at cap, so the rate is (1/2)log2(1 + 2) - (1/2)log2(1 + 1/9.4).  The
# grid oracle in criterion 5 confirms the same number independently.
TWCJ_FIXED_RATE = 0.7195558171288506


def _report(ok: bool, label: str) -> None:
    print(("✓" if ok else "✗"), label)
    assert ok, label


def test_criterion_01_sup_oracle_equivalence():
    seed = 101
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    for i in range(500):
        k = 2 if i % 2 == 0 else 3
        ch = random_mac_instance(rng, k)
        sol = mac_sup_optimal(ch)
        spec = GridSpec(points_per_axis=31 if k == 2 else 17)
        oracle_alloc, oracle_rate = grid_max_mac_sup(ch, spec)
        assert np.array_equal(sol.allocation.powers, oracle_alloc.powers), (
            f"allocation mismatch at h={ch.eve_gains}, caps={ch.power_caps}: "
            f"{sol.allocation.powers} vs {oracle_alloc.powers}"
        )
        assert abs(sol.sum_rate - oracle_rate) <= RATE_TOL
    elapsed = time.perf_counter() - start
    _report(
        elapsed < 30.0,
        f"criterion 1: superposition solver == grid oracle on 500 instances, "
        f"K in {{2,3}} (seed {seed}, {elapsed:.1f}s)",
    )


def test_criterion_02_tw_oracle_equivalence():
    seed = 202
    rng = np.random.default_rng(seed)
    spec = GridSpec(points_per_axis=51)
    start = time.perf_counter()
    for _ in range(1000):
        ch = random_tw_instance(rng)
        sol = tw_optimal(ch)
        oracle = grid_max_tw(ch, spec)
        assert np.array_equal(sol.allocation.powers, oracle.allocation.powers), (
            f"allocation mismatch at h={ch.eve_gains}, caps={ch.power_caps}"
        )
        assert abs(sol.sum_rate - oracle.sum_rate) <= RATE_TOL
    elapsed = time.perf_counter() - start
    _report(
        elapsed < 10.0,
        f"criterion 2: two-way solver == grid oracle on 1000 instances "
        f"(seed {seed}, {elapsed:.1f}s)",
    )


def test_criterion_03_cj_oracle_equivalence():
    seed = 303
    rng = np.random.default_rng(seed)
    spec = GridSpec(points_per_axis=101)
    interior = 0
    worst_rho = 0.0
    start = time.perf_counter()
    for i in range(250):
        k = 2 if i < 200 else 3
        ch = random_mac_instance(rng, k)
        sol = mac_cj_optimal(ch)
        oracle = grid_max_mac_cj(ch, spec)
        assert sol.sum_rate >= oracle.sum_rate - CJ_ORACLE_TOL, (
            f"oracle beat the solver at h={ch.eve_gains}, caps={ch.power_caps}: "
            f"{sol.sum_rate} vs {oracle.sum_rate}"
        )
        assert abs(sol.sum_rate - oracle.sum_rate) <= CJ_ORACLE_TOL
        if sol.pivot_user is not None and sol.pivot_power is not None:
            cap = ch.power_caps[sol.pivot_user]
            if RATE_TOL < sol.pivot_power < cap - RATE_TOL:
                interior += 1
                t1, t2 = rho_terms(
                    ch, sol.transmit_set, sol.jam_set, sol.allocation, sol.pivot_user
                )
                value = t1 + t2
                rel = abs(value) / max(abs(t1), abs(t2))
                worst_rho = max(worst_rho, rel)
                assert rel < RHO_REL_TOL, f"rho residual {rel} at h={ch.eve_gains}"
    elapsed = time.perf_counter() - start
    _report(
        elapsed < 120.0 and interior > 0,
        f"criterion 3: jamming solver vs grid oracle on 200 K=2 + 50 K=3 "
        f"instances, {interior} interior pivots, worst |rho| {worst_rho:.2e} "
        f"(seed {seed}, {elapsed:.1f}s)",
    )


def _random_search_mac_cj(ch: StdMacChannel, rng, samples: int) -> float:
    """Best CJ rate found by random powers, over all 2^K transmit sets.

    Transmitters sit at cap; every other user takes 0, its cap, or a
    uniform power in [0, cap], a third of the time each.  The rate is
    written out with np.log2 and shares no code with the solver.
    """
    k = ch.k_users
    h, caps = ch.eve_gains, ch.power_caps
    in_t = ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(bool)[:, None, :]
    kind = rng.integers(0, 3, (2 ** k, samples, k))
    frac = np.where(kind == 0, 0.0, np.where(kind == 1, 1.0, rng.random((2 ** k, samples, k))))
    powers = np.where(in_t, 1.0, frac) * caps
    p_t, p_n = (powers * in_t).sum(-1), (powers * ~in_t).sum(-1)
    hp = powers * h
    hp_t, hp_n = (hp * in_t).sum(-1), (hp * ~in_t).sum(-1)
    rate = 0.5 * (np.log2(1.0 + p_t / (1.0 + p_n)) - np.log2(1.0 + hp_t / (1.0 + hp_n)))
    return float(rate.max())


def test_criterion_03b_cj_random_search_many_users():
    """Past the grid oracle's K <= 3: no transmit set and no jamming powers
    found by random search beat the solver for K = 4 ... 8."""
    seed = 304
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    worst = -np.inf
    checked = jammed = 0
    for k in range(4, 9):
        for _ in range(10):
            ch = random_mac_instance(rng, k)
            sol = mac_cj_optimal(ch)
            found = _random_search_mac_cj(ch, rng, 256)
            assert found <= sol.sum_rate + CJ_ORACLE_TOL, (
                f"random search beat the solver at h={ch.eve_gains}, caps={ch.power_caps}: "
                f"{found} vs {sol.sum_rate}"
            )
            worst = max(worst, found - sol.sum_rate)
            checked += 1
            jammed += bool(sol.jam_set)
    elapsed = time.perf_counter() - start
    _report(
        jammed > 0,
        f"criterion 3b: jamming solver vs random search over all transmit sets on "
        f"{checked} instances with K=4..8, {jammed} jamming, largest excess "
        f"{worst:.2e} (seed {seed}, {elapsed:.1f}s)",
    )


def test_criterion_04_two_user_closed_forms_exhaustive():
    caps_values = (0.5, 2.0, 8.0)
    h_values = [i / 10.0 for i in range(21)]
    cases = 0
    start = time.perf_counter()
    for i, h1 in enumerate(h_values):
        for h2 in h_values[i + 1:]:
            for c1 in caps_values:
                for c2 in caps_values:
                    ch = StdMacChannel([h1, h2], [c1, c2])
                    a = mac_two_user_closed_form(ch)
                    b = mac_sup_optimal(ch)
                    assert a.transmit_set == b.transmit_set
                    assert np.array_equal(a.allocation.powers, b.allocation.powers)
                    assert a.sum_rate == b.sum_rate
                    ja = mac_cj_two_user(ch)
                    jb = mac_cj_optimal(ch)
                    assert ja.transmit_set == jb.transmit_set, (
                        f"transmit sets differ at h=({h1},{h2}), caps=({c1},{c2})"
                    )
                    assert ja.jam_set == jb.jam_set, (
                        f"jam sets differ at h=({h1},{h2}), caps=({c1},{c2})"
                    )
                    assert np.allclose(
                        ja.allocation.powers, jb.allocation.powers, rtol=0, atol=1e-9
                    )
                    assert abs(ja.sum_rate - jb.sum_rate) <= RATE_TOL
                    cases += 1
    elapsed = time.perf_counter() - start
    _report(
        cases == 210 * 9,
        f"criterion 4: two-user closed forms match the general solvers on all "
        f"{cases} grid cases ({elapsed:.1f}s)",
    )


def test_criterion_05_fixed_points():
    a = mac_sup_optimal(StdMacChannel([0.1, 0.3], [4.0, 4.0]))
    assert np.array_equal(a.allocation.powers, [4.0, 0.0])
    assert abs(a.sum_rate - 0.91830) < FIXED_POINT_TOL

    b = tw_optimal(StdTwChannel([0.3, 0.7], [4.0, 2.0]))
    assert np.array_equal(b.allocation.powers, [4.0, 2.0])
    assert abs(b.sum_rate - 1.02947) < FIXED_POINT_TOL

    c = mac_cj_optimal(StdMacChannel([1.1, 1.4], [2.0, 2.0]))
    assert c.jam_set == (1,) and c.allocation.powers[1] == 2.0
    assert abs(c.sum_rate - 0.03901) < FIXED_POINT_TOL

    ch_d = StdTwChannel([0.5, 4.2], [2.0, 2.0])
    d = tw_cj_optimal(ch_d)
    assert d.jam_set == (1,)
    assert abs(d.sum_rate - TWCJ_FIXED_RATE) < FIXED_POINT_TOL
    oracle_d = grid_max_tw_cj(ch_d, GridSpec())
    assert abs(d.sum_rate - oracle_d.sum_rate) <= RATE_TOL

    _report(
        True,
        f"criterion 5: fixed points a={a.sum_rate:.6f} b={b.sum_rate:.6f} "
        f"c={c.sum_rate:.6f} d={d.sum_rate:.6f} (d from the jam-at-cap closed "
        f"form, grid oracle agrees to {abs(d.sum_rate - oracle_d.sum_rate):.1e})",
    )


def test_criterion_06_degraded_tdma_shares():
    seed = 606
    rng = np.random.default_rng(seed)
    worst = 0.0
    start = time.perf_counter()
    for i in range(100):
        ch = random_degraded_mac_instance(rng, 2 if i % 2 == 0 else 3)
        caps = np.asarray(ch.power_caps)
        expected = caps / caps.sum()
        shares, rate = tdma_share_search(ch)
        gap = float(np.max(np.abs(shares - expected)))
        worst = max(worst, gap)
        assert gap <= 1e-6, f"shares {shares} vs {expected} at caps={ch.power_caps}"
        closed = mac_tdma_optimal(ch)
        assert abs(rate - closed.sum_rate) <= RATE_TOL
    elapsed = time.perf_counter() - start
    _report(
        True,
        f"criterion 6: time shares track the power fractions on 100 equal-gain "
        f"instances, worst gap {worst:.2e} (seed {seed}, {elapsed:.1f}s)",
    )


def test_criterion_07_region_properties():
    seed = 707
    rng = np.random.default_rng(seed)
    share_grid = np.linspace(0.0, 1.0, 9)
    for _ in range(100):
        ch = random_degraded_mac_instance(rng, 2)
        sup = mac_sup_region(ch, PowerAllocation(list(ch.power_caps)))
        for a in share_grid:
            tdma = mac_tdma_region(ch, TdmaShares(np.array([a, 1.0 - a])))
            for pt in tdma.vertices2d:
                pt = RatePoint(list(pt), [0.0, 0.0])
                assert region_contains(sup, pt, tol=RATE_TOL), (
                    f"TDMA point {pt} escapes at h={ch.eve_gains}, "
                    f"caps={ch.power_caps}, share {a}"
                )

    # Growth in power enlarges the two-way region only while both gains
    # stay at or below one; past that the sum bound can shrink (its p1
    # slope turns negative once h2*p2 < h1 - 1), so the nested pairs are
    # drawn from the regime where both terminals keep positive secrecy.
    for _ in range(100):
        ch = random_tw_instance(rng, gain_range=(0.0, 1.0))
        caps = np.asarray(ch.power_caps)
        small = caps * rng.uniform(0.0, 1.0, 2)
        big = small + (caps - small) * rng.uniform(0.0, 1.0, 2)
        inner = tw_region(ch, PowerAllocation(list(small)))
        outer = tw_region(ch, PowerAllocation(list(big)))
        for pt in inner.vertices2d:
            pt = RatePoint(list(pt), [0.0, 0.0])
            assert region_contains(outer, pt, tol=RATE_TOL), (
                f"region shrank when power grew at h={ch.eve_gains}: {pt}"
            )

    identity_worst = 0.0
    for _ in range(1000):
        h = rng.uniform(0.0, 2.0, 2)
        p = rng.uniform(0.1, 10.0, 2)
        lhs = (
            0.5 * np.log2(1 + p[0])
            + 0.5 * np.log2(1 + p[1])
            - 0.5 * np.log2(1 + h[0] * p[0] + h[1] * p[1])
        )
        mid = 0.5 * np.log2(1 + p[0]) - 0.5 * np.log2(1 + h[0] * p[0]) + (
            0.5 * np.log2(1 + p[1])
            - 0.5 * np.log2(1 + h[1] * p[1] / (1 + h[0] * p[0]))
        )
        rhs = (
            0.5 * np.log2(1 + p[0])
            - 0.5 * np.log2(1 + h[0] * p[0])
            + 0.5 * np.log2(1 + p[1])
            - 0.5 * np.log2(1 + h[1] * p[1])
        )
        identity_worst = max(identity_worst, abs(lhs - mid))
        assert abs(lhs - mid) <= RATE_TOL
        assert lhs >= rhs - RATE_TOL
    _report(
        True,
        f"criterion 7: TDMA-in-superposition containment (100), two-way region "
        f"monotonicity (100), two-way advantage identity and inequality (1000), "
        f"worst identity gap {identity_worst:.2e} (seed {seed})",
    )


def test_criterion_08_symmetric_tw_asymptote():
    cap = 1.0e6
    bound = tw_sum_rate([cap, cap], [1.0, 1.0])
    gap = bound - 0.5 * np.log2(cap / 2.0)
    assert 0.0 < gap < 2.0e-6
    assert np.isclose(gap, 1.0820206490791406e-06, rtol=0, atol=1e-12)
    _report(
        True,
        f"criterion 8: symmetric two-way sum bound sits {gap:.3e} bits above "
        f"(1/2)log2(P/2) at P=1e6",
    )


def test_criterion_09_sweep_structure():
    scene = default_scene()
    # 64 points per axis with these bounds put the receiver and both
    # transmitters exactly on grid samples (spacing 1/31).
    bounds = (-1.0, 32.0 / 31.0, -1.0, 32.0 / 31.0)
    start = time.perf_counter()
    mac = sweep(scene, bounds, 64, "MAC-CJ")
    tw = sweep(scene, bounds, 64, "TW-CJ")
    elapsed = time.perf_counter() - start

    xs, ys = mac.xs, mac.ys
    width = xs[1] - xs[0]
    ix0 = int(np.flatnonzero(np.isclose(xs, 0.0))[0])
    iy0 = int(np.flatnonzero(np.isclose(ys, 0.0))[0])
    receiver_rate = mac.sum_rate[iy0, ix0]
    assert receiver_rate < 1e-3, f"receiver cell rate {receiver_rate}"

    for k, (txx, txy) in enumerate(scene.transmitter_positions):
        near = (np.abs(xs[None, :] - txx) <= width + 1e-12) & (
            np.abs(ys[:, None] - txy) <= width + 1e-12
        )
        assert near.sum() >= 6
        worst = mac.tx_power[:, :, k][near].max()
        assert worst == 0.0, f"user {k + 1} transmits {worst} next to itself"

    mac_positive = mac.sum_rate > 0.0
    tw_positive = tw.sum_rate > 0.0
    leaks = int(np.sum(mac_positive & ~tw_positive))
    assert leaks == 0, f"{leaks} cells positive under MAC-CJ but not TW-CJ"
    _report(
        elapsed < 60.0,
        f"criterion 9: receiver cell rate {receiver_rate:.1e}, transmit power 0 "
        f"beside both transmitters, TW-CJ positive set covers MAC-CJ "
        f"({int(mac_positive.sum())} of {mac.sum_rate.size} cells, {elapsed:.1f}s)",
    )


def _split_rate(h, caps, f1, f2):
    tx = np.array([caps[0] * f1, caps[1] * f2])
    jam = caps - tx
    gross = np.log2(1.0 + tx.sum() / (1.0 + jam.sum()))
    leak = np.log2(1.0 + (h * tx).sum() / (1.0 + (h * jam).sum()))
    return max(0.5 * (gross - leak), 0.0)


def test_criterion_10_no_split_property():
    seed = 1010
    rng = np.random.default_rng(seed)
    fractions = np.linspace(0.0, 1.0, 21)
    worst = -1.0
    start = time.perf_counter()
    for _ in range(200):
        ch = random_mac_instance(rng, 2)
        best = mac_cj_optimal(ch).sum_rate
        h = np.asarray(ch.eve_gains)
        caps = np.asarray(ch.power_caps)
        for f1 in fractions:
            for f2 in fractions:
                split = _split_rate(h, caps, f1, f2)
                worst = max(worst, split - best)
                assert split <= best + RATE_TOL, (
                    f"split ({f1}, {f2}) beats the optimum at h={ch.eve_gains}, "
                    f"caps={ch.power_caps}: {split} vs {best}"
                )
    elapsed = time.perf_counter() - start
    _report(
        True,
        f"criterion 10: no transmit/jam split beats the all-or-nothing optimum "
        f"on 200 instances, max excess {worst:.2e} (seed {seed}, {elapsed:.1f}s)",
    )
