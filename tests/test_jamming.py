"""Tests for cooperative jamming: objective, pivot quadratic, and solvers."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from secrecy_rates import (
    GridSpec,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    grid_max_tw_cj,
    mac_cj_optimal,
    mac_sup_optimal,
    tw_cj_optimal,
    tw_optimal,
)
from secrecy_rates.jamming import (
    RATE_TIE_TOL,
    _all_silent_solution,
    _mac_cj_batch,
    _partition_solution,
)
from secrecy_rates.allocation import _require_strict_gains
from reference import (
    assert_near_reference,
    cj_objective_mac,
    dec_bits,
    mac_cj_two_user,
    pivot_quadratic,
    psi,
    random_mac_instance,
    random_tw_instance,
    reference_mac_secrecy_bits,
    reference_ordered_winner,
    reference_tw_secrecy_bits,
    rho_terms,
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
    rate = reference_mac_secrecy_bits(np.array([2.0, 2.0]), FIG6_CH.eve_gains, [0])
    assert np.isclose(rate, 0.039001256000636524, rtol=0, atol=1e-12)


def test_cj_objective_unit_gains_never_below_one():
    ch = StdMacChannel([1.0, 1.0], [4.0, 4.0])
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = PowerAllocation(rng.uniform(0, 4, 2))
        for t in ([], [0], [1], [0, 1]):
            assert cj_objective_mac(ch, p, t) >= 1.0 - 1e-12
            assert reference_mac_secrecy_bits(p.powers, ch.eve_gains, t) == 0.0


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
        t1, t2 = rho_terms(ch, (), (0, 1, 2), alloc, 2)
        assert t1 + t2 == 0.0


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
        rho = t1 + t2
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
    rho = t1 + t2
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


def _reference_pattern(ch, t_count, pivot_idx):
    """Powers, rate, pivot coefficients and case of role pattern (t, p),
    computed by the scalar pivot_quadratic and reference_mac_secrecy_bits."""
    k = ch.k_users
    caps = ch.power_caps
    powers = np.zeros(k)
    powers[:t_count] = caps[:t_count]
    coeffs = None
    case = "no-jam"
    if pivot_idx < k:
        powers[pivot_idx + 1 :] = caps[pivot_idx + 1 :]
        jam_users = tuple(range(pivot_idx, k))
        c1, c2, c3, root = pivot_quadratic(ch, tuple(range(t_count)), jam_users, pivot_idx, powers)
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
    return powers, reference_mac_secrecy_bits(powers, ch.eve_gains, range(t_count)), coeffs, case


def _reference_mac_cj(ch):
    """The scalar candidate loop mac_cj_optimal ranked with before its array form."""
    _require_strict_gains(ch)
    k = ch.k_users
    cands = []
    for t_count in range(k + 1):
        for pivot_idx in range(t_count, k + 1):
            powers, rate, coeffs, case = _reference_pattern(ch, t_count, pivot_idx)
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


def _where(ch):
    return f"h={ch.eve_gains.tolist()}, caps={ch.power_caps.tolist()}"


def _assert_rate_at_own_powers(sol, ch):
    """The reported rate is the secrecy rate of the solver's own allocation:
    == the written-out masked sums for K <= 3, where prefix and suffix sums
    group like them, and within 1e-12 of the summed capacities of an
    80-digit evaluation for every K."""
    powers, h, t_set = sol.allocation.powers, ch.eve_gains, sol.transmit_set
    if ch.k_users <= 3:
        assert sol.sum_rate == reference_mac_secrecy_bits(powers, h, t_set), _where(ch)
    with localcontext() as ctx:
        ctx.prec = 80
        p = [Decimal(v) for v in powers.tolist()]
        hp = [Decimal(g) * v for g, v in zip(h.tolist(), p)]
        noise = [u for u in range(ch.k_users) if u not in t_set]
        heard = dec_bits(sum((p[u] for u in t_set), Decimal(0)) / (1 + sum((p[u] for u in noise), Decimal(0))))
        leaked = dec_bits(sum((hp[u] for u in t_set), Decimal(0)) / (1 + sum((hp[u] for u in noise), Decimal(0))))
        assert_near_reference(sol.sum_rate, heard - leaked, heard + leaked)


def _assert_tie_rule_on_own_keys(ch):
    """The pass's winner is the one the tie rule picks from its own ranking
    keys (reference_ordered_ranking)."""
    t, p, *_ = _mac_cj_batch(ch.eve_gains[None], ch.power_caps[None])
    assert (int(t[0]), int(p[0])) == reference_ordered_winner(ch.eve_gains, ch.power_caps), _where(ch)


def _assert_same_roles(sol, want, ch):
    """The same roles, pivot, branch and case as the scalar reference loop."""
    for name in ("transmit_set", "jam_set", "silent_set", "pivot_user"):
        assert getattr(sol, name) == getattr(want, name), (name, _where(ch))
    for key in ("branch", "case"):
        assert sol.diagnostics[key] == want.diagnostics[key], (key, _where(ch))


def _assert_matches_scalar_reference(ch):
    sol, want = mac_cj_optimal(ch), _reference_mac_cj(ch)
    _assert_same_roles(sol, want, ch)
    assert np.allclose(sol.allocation.powers, want.allocation.powers, rtol=1e-12, atol=0), _where(ch)
    _assert_tie_rule_on_own_keys(ch)
    _assert_rate_at_own_powers(sol, ch)
    return sol


def test_mac_cj_matches_scalar_reference_exactly():
    """The one array pass picks the reference loop's roles, pivot, branch
    and case, by the tie rule on its own ranking keys, and reports the rate
    of its own allocation."""
    rng = np.random.default_rng(54)
    for _ in range(2000):
        _assert_matches_scalar_reference(random_mac_instance(rng, int(rng.integers(1, 17))))
    # ties on a lattice: gains on a 0.1 grid including exactly 1.0, zero caps
    gains = np.arange(21) / 10.0
    jammed = 0
    for _ in range(1500):
        k = int(rng.integers(1, 7))
        ch = StdMacChannel(
            np.sort(rng.choice(gains, size=k, replace=False)),
            rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=k),
        )
        jammed += bool(_assert_matches_scalar_reference(ch).jam_set)
    assert jammed > 100, jammed
    # The pivot's root lands on its cap to the ulp, so the rate ties with the
    # next-earlier pivot at 0 and at the same jammer count less power wins.
    # The reference loop sums index sets, the pass prefix and suffix sums;
    # where their ulps order a tie the other way, the pass labels the same
    # allocation differently (listed with its label and case).
    relabelled = {
        (0.3, 0.8, 1.0, 1.5, 1.8): ("T=3,J=4", "pivot-zero"),
        (1.0, 1.6, 2.0): ("T=1,J=3", "pivot-at-cap"),
    }
    for gains, caps in (
        ([1.4, 1.7, 2.0], [3.0, 4.0, 3.0]),
        ([1.2, 1.45, 1.6], [0.5, 0.5, 2.0]),
        ([1.3, 1.4, 1.95, 2.0], [0.0, 3.0, 2.0, 3.0]),
        ([0.3, 0.8, 1.0, 1.5, 1.8], [0.0, 0.5, 1.0, 2.0, 1.0]),
        # user 2's root is 0 to the ulp
        ([1.0, 1.6, 2.0], [1.0, 2.0, 0.5]),
    ):
        ch = StdMacChannel(gains, caps)
        label = relabelled.get(tuple(gains))
        if label is None:
            sol = _assert_matches_scalar_reference(ch)
            assert sol.diagnostics["case"] == "pivot-interior"
            assert caps[-1] - 1e-12 < sol.pivot_power < caps[-1]
            continue
        sol, want = mac_cj_optimal(ch), _reference_mac_cj(ch)
        assert (sol.diagnostics["branch"], sol.diagnostics["case"]) == label
        assert (sol.transmit_set, sol.jam_set) == (want.transmit_set, want.jam_set)
        assert np.allclose(sol.allocation.powers, want.allocation.powers, rtol=1e-12, atol=0)
        assert abs(sol.sum_rate - want.sum_rate) <= RATE_TIE_TOL
        _assert_tie_rule_on_own_keys(ch)
        _assert_rate_at_own_powers(sol, ch)


def _solve_or_exception_type(solve, ch):
    try:
        return solve(ch)
    except Exception as exc:
        return type(exc)


def test_mac_cj_keeps_its_answer_at_huge_caps():
    """Gains (1.1, 1.4) at equal caps 10^e.  The pass never raises, and
    wherever the scalar reference loop (index-set sums) still finds a
    positive rate, the pass finds at least as much; up to 1e85 that is the
    rate of every smaller cap.  Past that the arithmetic in absolute power
    units drifts."""
    for e in range(40, 161):
        ch = StdMacChannel([1.1, 1.4], [10.0**e, 10.0**e])
        got = mac_cj_optimal(ch)
        want = _solve_or_exception_type(_reference_mac_cj, ch)
        if not isinstance(want, type) and want.sum_rate > 0.0:
            assert got.sum_rate >= want.sum_rate - RATE_TIE_TOL, (e, got.sum_rate, want.sum_rate)
        if e <= 85:
            assert got.sum_rate == pytest.approx(0.1739616517101581, rel=1e-12, abs=0), e


def test_mac_batch_winners_match_the_scalar_ranking():
    """The tie rule on the pass's own ranking keys, written as a scalar loop,
    picks each row's winner: 25 channels of each K = 1...16 as one batch per
    K, and a batch of 600 two-user channels, as the sweep's are."""
    rng = np.random.default_rng(56)
    batches = [[random_mac_instance(rng, k) for _ in range(25)] for k in range(1, 17)]
    batches.append([random_mac_instance(rng, 2) for _ in range(600)])
    for rows in batches:
        h, caps = np.array([ch.eve_gains for ch in rows]), np.array([ch.power_caps for ch in rows])
        t, p, *_ = _mac_cj_batch(h, caps)
        for ch, t_win, p_win in zip(rows, t.tolist(), p.tolist()):
            assert (t_win, p_win) == reference_ordered_winner(ch.eve_gains, ch.power_caps), _where(ch)


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


def test_mac_cj_nan_ranking_raises_by_name():
    """Caps near the float limit overflow every candidate rate to NaN; the
    solver says so instead of failing on an empty candidate list."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="NaN"):
            mac_cj_optimal(StdMacChannel([0.5, 2.0], [1e308, 1e308]))


def test_mac_cj_overflowing_caps_raise_by_name_without_errstate():
    """The ranking's products and sums overflow inside its own errstate
    block, so no overflow warning comes before the named error."""
    with pytest.raises(FloatingPointError, match="NaN"):
        mac_cj_optimal(StdMacChannel([0.5, 2.0], [1e308, 1e308]))


def test_mac_cj_overflow_status_at_the_float_power_boundary():
    """The batch gives status 3 where the winner's c2 squares past the float
    range: exactly where Python's float power raises OverflowError, from
    |c2| = 2 ** 512, the square root of the float maximum (about 1.3408e154),
    and mac_cj_optimal raises there.  The winner here (user 1 transmits,
    user 2 is a pivot at 0) has c2 = 12 h_2."""
    outcomes = set()
    for i in range(-6, 7):
        h2 = 2.0**512 / 12 * (1 + i * 2e-16)
        *_, coeffs, _, status = _mac_cj_batch(np.array([[0.25, h2]]), np.array([[8.0, 8.0]]))
        c2 = float(coeffs[0, 1])
        assert abs(c2 / math.sqrt(sys.float_info.max) - 1) < 1e-14, c2
        try:
            c2**2
            overflows = False
        except OverflowError:
            overflows = True
        assert status.tolist() == [3 if overflows else 0], c2.hex()
        ch = StdMacChannel([0.25, h2], [8.0, 8.0])
        if overflows:
            with pytest.raises(OverflowError):
                mac_cj_optimal(ch)
        else:
            assert mac_cj_optimal(ch).diagnostics["branch"] == "T=1,J=none"
        outcomes.add(overflows)
    assert outcomes == {False, True}


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
    ch = StdTwChannel([0.3, 0.7], [4.0, 2.0])
    cj = tw_cj_optimal(ch)
    plain = tw_optimal(ch)
    assert cj.jam_set == ()
    assert np.allclose(cj.allocation.powers, plain.allocation.powers, rtol=0, atol=0)
    assert abs(cj.sum_rate - plain.sum_rate) <= 1e-12
    assert cj.diagnostics["branch"] == "both-transmit"


def test_tw_cj_strong_eavesdropper_jams():
    ch = StdTwChannel([0.5, 4.2], [2.0, 2.0])
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
    sol = tw_cj_optimal(StdTwChannel([3.0, 5.0], [0.1, 0.1]))
    assert sol.transmit_set == () and sol.jam_set == ()
    assert sol.sum_rate == 0.0


def test_tw_cj_can_jam_user_one():
    # both gains above 1 and user 1 is the better jammer
    ch = StdTwChannel([3.0, 1.2], [4.0, 4.0])
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
        ch = StdTwChannel([h1, h2], caps)
        both = reference_tw_secrecy_bits(caps, ch.eve_gains, (0, 1))
        jammed = reference_tw_secrecy_bits(caps, ch.eve_gains, (0,))
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
