"""Tests for cooperative jamming: objective, pivot quadratic, and solvers."""

import numpy as np
import pytest

from secrecy_rates import (
    GridSpec,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    cj_objective_mac,
    grid_max_tw_cj,
    mac_cj_optimal,
    mac_cj_rate,
    mac_cj_two_user,
    mac_sup_optimal,
    pivot_quadratic,
    psi,
    random_mac_instance,
    random_tw_instance,
    rho_eval,
    rho_terms,
    tw_cj_optimal,
    tw_cj_rate,
    tw_optimal,
)
from secrecy_rates.jamming import (
    RATE_TIE_TOL,
    _all_silent_solution,
    _partition_solution,
    _require_strict_gains,
)

RATE_TOL = 1e-9

FIG6_CH = StdMacChannel([1.1, 1.4], [2.0, 2.0])


def _two_user_roots(h1, h2, cap1):
    """Closed-form roots of the two-user pivot quadratic, plus-root first."""
    d = h1 * h2 * (h2 - 1.0) * ((h2 - 1.0) + (h2 - h1) * cap1)
    if d < 0:
        return None, None, d
    base = (h1 - 1.0) / (h2 - h1)
    off = np.sqrt(d) / (h2 * (h2 - h1))
    return base + off, base - off, d


def test_cj_objective_examples():
    ch = StdMacChannel([0.1, 0.3], [4.0, 4.0])
    full = PowerAllocation([4.0, 4.0])
    # with nobody jamming the denominator is 1 and the ratio is plain phi
    assert np.isclose(cj_objective_mac(ch, full, [0, 1]), 2.6 / 9.0, rtol=0, atol=1e-12)
    ratio = cj_objective_mac(FIG6_CH, PowerAllocation([2.0, 2.0]), [0])
    assert np.isclose(ratio, 18.0 / 19.0, rtol=0, atol=1e-12), f"ratio {ratio}"
    rate = mac_cj_rate(FIG6_CH, PowerAllocation([2.0, 2.0]), [0])
    assert np.isclose(rate, 0.039001256000636524, rtol=0, atol=1e-12)


def test_cj_objective_unit_gains_never_below_one():
    ch = StdMacChannel([1.0, 1.0], [4.0, 4.0])
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = PowerAllocation(rng.uniform(0, 4, 2))
        for t in ([], [0], [1], [0, 1]):
            assert cj_objective_mac(ch, p, t) >= 1.0 - 1e-12
            assert mac_cj_rate(ch, p, t) == 0.0


def test_pivot_quadratic_matches_two_user_factored_form():
    """Coefficients match the factored quadratic whose roots are p and pbar."""
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(300):
        h1 = float(rng.uniform(0.0, 2.0))
        h2 = float(rng.uniform(h1 + 0.05, h1 + 2.0))
        cap1 = float(rng.uniform(0.1, 10.0))
        ch = StdMacChannel([h1, h2], [cap1, 10.0])
        c1, c2, c3, _ = pivot_quadratic(ch, (0,), (1,), 1, PowerAllocation([cap1, 0.0]))
        p_plus, p_minus, d = _two_user_roots(h1, h2, cap1)
        if p_plus is None:
            continue
        scale = max(abs(c1), abs(c2), abs(c3))
        for r in (p_plus, p_minus):
            residual = c1 * r * r + c2 * r + c3
            assert abs(residual) <= 1e-9 * scale * max(1.0, r * r), (
                f"root {r} residual {residual} at h=({h1}, {h2}), cap1={cap1}"
            )
        checked += 1
    assert checked > 100


def test_pivot_quadratic_hand_case():
    c1, c2, c3, root = pivot_quadratic(
        FIG6_CH, (0,), (1,), 1, PowerAllocation([2.0, 0.0])
    )
    assert np.allclose([c1, c2, c3], [0.84, -0.56, -2.84], rtol=0, atol=1e-12)
    p_plus, _, _ = _two_user_roots(1.1, 1.4, 2.0)
    assert np.isclose(root, p_plus, rtol=1e-12, atol=0)
    assert np.isclose(root, 2.2020397019379616, rtol=0, atol=1e-9)
    assert root > 2.0  # clamps to the cap downstream


def test_pivot_quadratic_no_positive_root():
    ch = StdMacChannel([0.1, 0.25], [4.0, 4.0])
    c1, c2, c3, root = pivot_quadratic(ch, (0,), (1,), 1, PowerAllocation([4.0, 0.0]))
    assert root is None
    assert np.allclose([c1, c2, c3], [0.15, 1.7999999999999998, 5.1], rtol=0, atol=1e-12)


def test_pivot_quadratic_requires_pivot_in_jam_set():
    with pytest.raises(ValueError):
        pivot_quadratic(FIG6_CH, (0,), (1,), 0, PowerAllocation([2.0, 0.0]))


def test_rho_zero_with_no_transmitters():
    rng = np.random.default_rng(43)
    for _ in range(20):
        ch = random_mac_instance(rng, 3)
        alloc = PowerAllocation(rng.uniform(0, 1, 3) * ch.power_caps)
        val = rho_eval(ch, (), (0, 1, 2), alloc, 2)
        assert val == 0.0


def test_rho_vanishes_at_interior_pivot():
    rng = np.random.default_rng(44)
    seen = 0
    for _ in range(400):
        ch = random_mac_instance(rng, int(rng.integers(2, 4)))
        sol = mac_cj_optimal(ch)
        if sol.pivot_user is None or sol.pivot_power >= ch.power_caps[sol.pivot_user]:
            continue
        if sol.pivot_power <= 0.0:
            continue
        t1, t2 = rho_terms(ch, sol.transmit_set, sol.jam_set, sol.allocation, sol.pivot_user)
        rho = rho_eval(ch, sol.transmit_set, sol.jam_set, sol.allocation, sol.pivot_user)
        scale = max(abs(t1), abs(t2), 1e-300)
        assert abs(rho) / scale < 1e-9, f"stationarity violated: {rho} vs scale {scale}"
        seen += 1
    assert seen >= 5, f"only {seen} interior pivots sampled"


def test_rho_vanishes_at_closed_form_jam_power():
    ch = StdMacChannel([0.5, 1.4], [2.0, 2.0])
    sol = mac_cj_two_user(ch)
    assert sol.jam_set == (1,)
    assert np.isclose(sol.pivot_power, 0.06734656731265343, rtol=0, atol=1e-12)
    t1, t2 = rho_terms(ch, (0,), (1,), sol.allocation, 1)
    rho = rho_eval(ch, (0,), (1,), sol.allocation, 1)
    assert abs(rho) / max(abs(t1), abs(t2)) < 1e-9


def test_mac_cj_no_jam_matches_superposition():
    ch = StdMacChannel([0.1, 0.3], [4.0, 4.0])
    cj = mac_cj_optimal(ch)
    sup = mac_sup_optimal(ch)
    assert cj.jam_set == ()
    assert cj.transmit_set == sup.transmit_set
    assert np.allclose(cj.allocation.powers, sup.allocation.powers, rtol=0, atol=0)
    assert abs(cj.sum_rate - sup.sum_rate) <= 1e-12


def test_rates_without_jammers_equal_plain_solvers_exactly():
    """A no-jam CJ solution is the plain scheme and shares its rate expression."""
    rng = np.random.default_rng(53)
    mac_hits = tw_hits = 0
    for _ in range(1000):
        ch = random_mac_instance(rng, 2)
        cj = mac_cj_optimal(ch)
        if not cj.jam_set:
            mac_hits += 1
            assert cj.sum_rate == mac_sup_optimal(ch).sum_rate, ch
        tw = random_tw_instance(rng)
        cj = tw_cj_optimal(tw)
        if len(cj.transmit_set) == 2:
            tw_hits += 1
            assert cj.sum_rate == tw_optimal(tw).sum_rate, tw
    assert mac_hits > 200 and tw_hits > 200, (mac_hits, tw_hits)


def _reference_mac_cj(ch):
    """The scalar candidate loop mac_cj_optimal ranked with before its array form."""
    _require_strict_gains(ch)
    k = ch.k_users
    caps = ch.power_caps
    cands = []
    for t_count in range(k + 1):
        for pivot_idx in range(t_count, k + 1):
            powers = np.zeros(k)
            powers[:t_count] = caps[:t_count]
            coeffs = None
            case = "no-jam"
            if pivot_idx < k:
                powers[pivot_idx + 1 :] = caps[pivot_idx + 1 :]
                jam_users = tuple(range(pivot_idx, k))
                c1, c2, c3, root = pivot_quadratic(
                    ch, tuple(range(t_count)), jam_users, pivot_idx, powers
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
            rate = mac_cj_rate(ch, powers, range(t_count))
            n_jam = int(np.count_nonzero(powers[pivot_idx:] > 0)) if pivot_idx < k else 0
            cands.append(
                (rate, n_jam, float(powers.sum()), len(cands), powers.copy(), t_count, pivot_idx, coeffs, case)
            )
    # Candidates on an exact branch boundary are mathematically tied but
    # their rates land a few ulps apart; rates within RATE_TIE_TOL of the
    # best count as ties and resolve toward fewer jammers, then less spent
    # power, then scan order.
    best_rate = max(c[0] for c in cands)
    pool = [c for c in cands if c[0] >= best_rate - RATE_TIE_TOL]
    rate, _, _, _, powers, t_count, pivot_idx, coeffs, case = min(
        pool, key=lambda c: (c[1], c[2], c[3])
    )
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


def _assert_same_solution(a, b, ch):
    where = f"h={ch.eve_gains.tolist()}, caps={ch.power_caps.tolist()}"
    for name in ("transmit_set", "jam_set", "silent_set", "pivot_user", "pivot_power", "quad_coeffs"):
        assert getattr(a, name) == getattr(b, name), (name, where)
    assert a.diagnostics == b.diagnostics, where
    assert a.sum_rate == b.sum_rate, where
    assert np.array_equal(a.allocation.powers, b.allocation.powers), where


def test_mac_cj_matches_scalar_reference_exactly():
    """The array ranking picks the reference loop's candidate, field for field."""
    rng = np.random.default_rng(54)
    for _ in range(2000):
        ch = random_mac_instance(rng, int(rng.integers(1, 17)))
        _assert_same_solution(mac_cj_optimal(ch), _reference_mac_cj(ch), ch)
    # ties on a lattice: gains on a 0.1 grid including exactly 1.0, zero caps
    gains = np.arange(21) / 10.0
    jammed = 0
    for _ in range(1500):
        k = int(rng.integers(1, 7))
        ch = StdMacChannel(
            np.sort(rng.choice(gains, size=k, replace=False)),
            rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=k),
        )
        sol = mac_cj_optimal(ch)
        _assert_same_solution(sol, _reference_mac_cj(ch), ch)
        jammed += bool(sol.jam_set)
    assert jammed > 100, jammed
    # the pivot's root lands on its cap to the ulp, so the rate ties with the
    # next-earlier pivot at 0 and at the same jammer count less power wins
    for gains, caps in (
        ([1.4, 1.7, 2.0], [3.0, 4.0, 3.0]),
        ([1.2, 1.45, 1.6], [0.5, 0.5, 2.0]),
        ([1.3, 1.4, 1.95, 2.0], [0.0, 3.0, 2.0, 3.0]),
        ([0.3, 0.8, 1.0, 1.5, 1.8], [0.0, 0.5, 1.0, 2.0, 1.0]),
    ):
        ch = StdMacChannel(gains, caps)
        sol = mac_cj_optimal(ch)
        _assert_same_solution(sol, _reference_mac_cj(ch), ch)
        assert sol.diagnostics["case"] == "pivot-interior"
        assert caps[-1] - 1e-12 < sol.pivot_power < caps[-1]
    # user 2's root is 0 to the ulp: the pattern where it is the pivot and
    # stays silent comes first in scan order and wins
    ch = StdMacChannel([1.0, 1.6, 2.0], [1.0, 2.0, 0.5])
    sol = mac_cj_optimal(ch)
    _assert_same_solution(sol, _reference_mac_cj(ch), ch)
    assert sol.diagnostics["branch"] == "T=1,J=2" and sol.diagnostics["case"] == "pivot-zero"


def test_mac_cj_enables_secrecy_above_unit_gains():
    sol = mac_cj_optimal(FIG6_CH)
    assert sol.transmit_set == (0,)
    assert sol.jam_set == (1,)
    assert np.allclose(sol.allocation.powers, [2.0, 2.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 0.039001256000636524, rtol=0, atol=1e-9)
    assert sol.diagnostics["branch"] == "T=1,J=2"
    assert sol.quad_coeffs is not None
    assert np.allclose(sol.quad_coeffs, [0.84, -0.56, -2.84], rtol=0, atol=1e-12)
    assert sol.pivot_power == 2.0
    # no jamming means no secrecy at all here
    assert mac_sup_optimal(FIG6_CH).sum_rate == 0.0


def test_mac_cj_all_silent_when_jamming_cannot_pay():
    sol = mac_cj_optimal(StdMacChannel([1.5, 1.6], [0.1, 0.1]))
    assert sol.transmit_set == () and sol.jam_set == ()
    assert sol.sum_rate == 0.0
    assert np.all(sol.allocation.powers == 0.0)


def test_mac_cj_partition_is_ordered():
    """Transmitters occupy the low-gain prefix, jammers the high-gain tail."""
    rng = np.random.default_rng(45)
    for _ in range(300):
        ch = random_mac_instance(rng, int(rng.integers(2, 4)))
        sol = mac_cj_optimal(ch)
        roles = set(sol.transmit_set) | set(sol.jam_set) | set(sol.silent_set)
        assert roles == set(range(ch.k_users))
        assert len(sol.transmit_set) + len(sol.jam_set) + len(sol.silent_set) == ch.k_users
        if sol.transmit_set and sol.jam_set:
            top_tx = max(ch.eve_gains[list(sol.transmit_set)])
            low_jam = min(ch.eve_gains[list(sol.jam_set)])
            assert top_tx < low_jam, f"roles out of order: {sol.transmit_set} {sol.jam_set}"


def test_mac_cj_never_loses_to_superposition():
    rng = np.random.default_rng(46)
    for _ in range(400):
        ch = random_mac_instance(rng, int(rng.integers(2, 4)))
        cj = mac_cj_optimal(ch)
        sup = mac_sup_optimal(ch)
        assert cj.sum_rate >= sup.sum_rate - 1e-12, (
            f"jamming lost: {cj.sum_rate} < {sup.sum_rate} at h={ch.eve_gains}"
        )


def test_mac_cj_two_user_examples():
    silent = mac_cj_two_user(StdMacChannel([0.5, 0.8], [4.0, 4.0]))
    assert np.allclose(silent.allocation.powers, [4.0, 0.0], rtol=0, atol=0)
    assert silent.jam_set == ()
    assert silent.diagnostics["branch"] == "partner-silent"

    jam = mac_cj_two_user(StdMacChannel([0.5, 1.4], [2.0, 2.0]))
    assert jam.transmit_set == (0,) and jam.jam_set == (1,)
    assert np.isclose(jam.allocation.powers[1], 0.06734656731265343, rtol=0, atol=1e-12)
    assert jam.diagnostics["branch"] == "partner-jams"

    tied = mac_cj_two_user(StdMacChannel([1.2, 1.2], [4.0, 4.0]))
    assert tied.transmit_set == () and tied.jam_set == ()
    assert tied.sum_rate == 0.0


def test_mac_cj_two_user_wrong_count():
    with pytest.raises(ValueError):
        mac_cj_two_user(StdMacChannel([0.1, 0.2, 0.3], [1.0, 1.0, 1.0]))


def test_mac_cj_closed_form_matches_general_solver():
    rng = np.random.default_rng(47)
    for _ in range(400):
        ch = random_mac_instance(rng, 2)
        a = mac_cj_two_user(ch)
        b = mac_cj_optimal(ch)
        assert a.transmit_set == b.transmit_set and a.jam_set == b.jam_set, (
            f"partition differs at h={ch.eve_gains}, caps={ch.power_caps}"
        )
        assert np.allclose(a.allocation.powers, b.allocation.powers, rtol=0, atol=1e-9)
        assert abs(a.sum_rate - b.sum_rate) <= 1e-9


def test_mac_cj_boundary_tie_prefers_fewer_jammers():
    # h2 equals phi_1 exactly; transmitting alone and jamming tie to the ulp
    # and the solver must report the no-jam pattern
    for caps in ([8.0, 0.5], [8.0, 2.0], [8.0, 8.0]):
        ch = StdMacChannel([0.1, 0.2], caps)
        for sol in (mac_cj_optimal(ch), mac_cj_two_user(ch)):
            assert sol.jam_set == (), f"caps {caps} jammed: {sol.jam_set}"
            assert np.allclose(sol.allocation.powers, [8.0, 0.0], rtol=0, atol=0)


def _split_rate(h, caps, f1, f2):
    """Secrecy sum rate when user k signals f_k of its cap and jams the rest.

    Jam components are noise at the receiver and at the eavesdropper alike,
    which is what makes the endpoint assignments optimal.
    """
    tx = np.array([caps[0] * f1, caps[1] * f2])
    jam = caps - tx
    gross = np.log2(1.0 + tx.sum() / (1.0 + jam.sum()))
    leak = np.log2(1.0 + (h * tx).sum() / (1.0 + (h * jam).sum()))
    return max(0.5 * (gross - leak), 0.0)


def test_no_split_beats_all_or_nothing():
    """Splitting one user's power between signal and noise never helps.

    The total received and overheard powers do not move with the split, so
    the optimum sits at an endpoint; checked on a 21-point split grid per
    user, silent endpoints included via the solver's own optimum.
    """
    rng = np.random.default_rng(48)
    fracs = np.linspace(0.0, 1.0, 21)
    for _ in range(30):
        ch = random_mac_instance(rng, 2)
        best = mac_cj_optimal(ch).sum_rate
        caps = ch.power_caps
        for f1 in fracs:
            for f2 in fracs:
                rate = _split_rate(ch.eve_gains, caps, f1, f2)
                assert rate <= best + 1e-9, (
                    f"split {f1}, {f2} beat the optimum: {rate} > {best} "
                    f"at h={ch.eve_gains}, caps={caps}"
                )


def test_tw_cj_both_transmit_matches_plain_solver():
    ch = StdTwChannel([0.3, 0.7], [1.0, 1.0], [4.0, 2.0])
    cj = tw_cj_optimal(ch)
    plain = tw_optimal(ch)
    assert cj.jam_set == ()
    assert np.allclose(cj.allocation.powers, plain.allocation.powers, rtol=0, atol=0)
    assert abs(cj.sum_rate - plain.sum_rate) <= 1e-12
    assert cj.diagnostics["branch"] == "both-transmit"


def test_tw_cj_strong_eavesdropper_jams():
    ch = StdTwChannel([0.5, 4.2], [1.0, 1.0], [2.0, 2.0])
    sol = tw_cj_optimal(ch)
    assert sol.transmit_set == (0,) and sol.jam_set == (1,)
    assert np.allclose(sol.allocation.powers, [2.0, 2.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 0.7195558171288506, rtol=0, atol=1e-9), (
        f"rate {sol.sum_rate}"
    )
    assert np.isclose(
        sol.sum_rate,
        0.5 * np.log2(3.0) - 0.5 * np.log2(1.0 + 1.0 / (1.0 + 8.4)),
        rtol=0,
        atol=1e-12,
    )
    # jamming beats the best no-jam play, which sacrifices user 2 entirely
    assert tw_optimal(ch).sum_rate < sol.sum_rate


def test_tw_cj_all_silent():
    sol = tw_cj_optimal(StdTwChannel([3.0, 5.0], [1.0, 1.0], [0.1, 0.1]))
    assert sol.transmit_set == () and sol.jam_set == ()
    assert sol.sum_rate == 0.0


def test_tw_cj_can_jam_user_one():
    # both gains above 1 and user 1 is the better jammer
    ch = StdTwChannel([3.0, 1.2], [1.0, 1.0], [4.0, 4.0])
    sol = tw_cj_optimal(ch)
    assert sol.jam_set == (0,), f"expected user 1 jamming, got {sol.jam_set}"
    assert sol.transmit_set == (1,)
    oracle = grid_max_tw_cj(ch, GridSpec(points_per_axis=101))
    assert abs(sol.sum_rate - oracle.sum_rate) <= 1e-6


def test_tw_cj_never_loses_to_plain_two_way():
    rng = np.random.default_rng(49)
    for _ in range(400):
        ch = random_tw_instance(rng)
        cj = tw_cj_optimal(ch)
        plain = tw_optimal(ch)
        assert cj.sum_rate >= plain.sum_rate - 1e-12, (
            f"jamming lost: {cj.sum_rate} < {plain.sum_rate} at h={ch.eve_gains}"
        )


def test_tw_jam_advantage_iff_gain_above_one():
    """psi of a solo jammer exceeds 1 exactly when its gain does, and the
    operational advantage over both-transmit follows the same line."""
    rng = np.random.default_rng(50)
    for _ in range(200):
        h2 = float(rng.uniform(0.05, 3.0))
        cap = float(rng.uniform(0.1, 10.0))
        val = psi(PowerAllocation([0.0, cap]), np.array([0.5, h2]), [1])
        if h2 > 1:
            assert val > 1.0
        elif h2 < 1:
            assert val < 1.0
    for _ in range(200):
        h1 = float(rng.uniform(0.05, 0.95))
        h2 = float(rng.uniform(0.05, 3.0))
        caps = rng.uniform(0.5, 5.0, 2)
        ch = StdTwChannel([h1, h2], [1.0, 1.0], caps)
        both = tw_cj_rate(ch, PowerAllocation(caps.copy()), (0, 1))
        jammed = tw_cj_rate(ch, PowerAllocation(caps.copy()), (0,))
        if h2 > 1 + 1e-9:
            assert jammed > both - 1e-12, f"h2={h2}: jamming should help"
        elif h2 < 1 - 1e-9:
            assert jammed <= both + 1e-12, f"h2={h2}: jamming should not help"


def test_tw_cj_matches_grid_oracle():
    rng = np.random.default_rng(51)
    for _ in range(25):
        ch = random_tw_instance(rng)
        sol = tw_cj_optimal(ch)
        oracle = grid_max_tw_cj(ch, GridSpec(points_per_axis=101))
        assert abs(sol.sum_rate - oracle.sum_rate) <= 1e-6, (
            f"h={ch.eve_gains}, caps={ch.power_caps}: "
            f"{sol.sum_rate} vs oracle {oracle.sum_rate}"
        )
