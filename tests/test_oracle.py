"""Tests for the brute-force grid oracles and the instance generators."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_rates import (
    GridSpec,
    StdMacChannel,
    StdTwChannel,
    grid_max_mac_cj,
    grid_max_mac_sup,
    grid_max_tw,
    grid_max_tw_cj,
    mac_sup_optimal,
    tw_optimal,
)
from secrecy_rates import oracle
from reference import (
    per_role_search,
    random_degraded_mac_instance,
    random_mac_instance,
    random_tw_instance,
    reference_search,
    rho_fit_roots,
    role_search,
    scalar_pivot_candidates,
    threshold_candidates,
)

SPEC_101 = GridSpec(points_per_axis=101)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(points_per_axis=1)


@pytest.mark.parametrize("points", [2.7, 101.0, "x", "101", None])
def test_grid_spec_rejects_non_integer_points_naming_the_field(points):
    """A fractional size would be truncated to fewer points than asked for."""
    with pytest.raises(ValueError, match="points_per_axis must be an integer"):
        GridSpec(points)
    assert GridSpec(np.int64(5)).points_per_axis == 5


def test_grid_max_mac_sup_examples():
    ch = StdMacChannel([0.1, 0.3], [4.0, 4.0])
    alloc, rate = grid_max_mac_sup(ch, SPEC_101)
    assert np.allclose(alloc.powers, [4.0, 0.0], rtol=0, atol=0)
    assert np.isclose(rate, 0.9182506338585603, rtol=0, atol=1e-12)

    alloc0, rate0 = grid_max_mac_sup(StdMacChannel([1.2, 1.5], [4.0, 4.0]), SPEC_101)
    assert rate0 == 0.0
    assert np.all(alloc0.powers == 0.0)

    alloc1, rate1 = grid_max_mac_sup(StdMacChannel([0.5], [4.0]), SPEC_101)
    assert alloc1.powers[0] == 4.0
    assert np.isclose(rate1, 0.5 * np.log2(5.0) - 0.5 * np.log2(3.0), rtol=0, atol=1e-12)


def test_grid_max_mac_sup_tie_breaks_lexicographically():
    alloc, rate = grid_max_mac_sup(StdMacChannel([1.0, 1.0], [4.0, 4.0]), SPEC_101)
    assert rate == 0.0
    assert np.all(alloc.powers == 0.0)


def test_grid_max_mac_sup_size_guards():
    big = StdMacChannel([0.1, 0.2, 0.3, 0.4], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="grid too large"):
        grid_max_mac_sup(big, GridSpec(points_per_axis=101))
    five = StdMacChannel([0.1, 0.2, 0.3, 0.4, 0.5], np.ones(5))
    with pytest.raises(ValueError, match="at most 4"):
        grid_max_mac_sup(five, GridSpec(points_per_axis=3))
    # a coarse four-user grid stays under the guard and works
    alloc, rate = grid_max_mac_sup(big, GridSpec(points_per_axis=11))
    assert rate > 0


def test_grid_max_mac_cj_examples():
    sol = grid_max_mac_cj(StdMacChannel([1.1, 1.4], [2.0, 2.0]), SPEC_101)
    assert sol.transmit_set == (0,) and sol.jam_set == (1,)
    assert np.allclose(sol.allocation.powers, [2.0, 2.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 0.039001256000636524, rtol=0, atol=1e-9)

    quiet = grid_max_mac_cj(StdMacChannel([0.1, 0.25], [4.0, 4.0]), SPEC_101)
    assert quiet.jam_set == ()
    assert np.allclose(quiet.allocation.powers, [4.0, 4.0], rtol=0, atol=0)

    zero = grid_max_mac_cj(StdMacChannel([0.1, 0.3], [0.0, 0.0]), SPEC_101)
    assert zero.sum_rate == 0.0
    assert np.all(zero.allocation.powers == 0.0)


def test_grid_max_mac_cj_user_guard():
    four = StdMacChannel([0.1, 0.2, 0.3, 0.4], np.ones(4))
    with pytest.raises(ValueError):
        grid_max_mac_cj(four, GridSpec(points_per_axis=5))


def test_grid_max_tw_examples():
    sol = grid_max_tw(StdTwChannel([0.3, 0.7], [4.0, 2.0]), SPEC_101)
    assert np.allclose(sol.allocation.powers, [4.0, 2.0], rtol=0, atol=0)
    assert np.isclose(sol.sum_rate, 1.0294468445267841, rtol=0, atol=1e-12)


def test_grid_max_tw_cj_examples():
    sol = grid_max_tw_cj(StdTwChannel([0.5, 4.2], [2.0, 2.0]), SPEC_101)
    assert sol.transmit_set == (0,) and sol.jam_set == (1,)
    assert sol.allocation.powers[1] == 2.0
    assert np.isclose(sol.sum_rate, 0.7195558171288506, rtol=0, atol=1e-9)

    zero = grid_max_tw_cj(StdTwChannel([3.0, 5.0], [0.1, 0.1]), SPEC_101)
    assert zero.sum_rate == 0.0


def test_oracle_determinism():
    ch = random_mac_instance(np.random.default_rng(61), 2)
    a1, r1 = grid_max_mac_sup(ch, SPEC_101)
    a2, r2 = grid_max_mac_sup(ch, SPEC_101)
    assert np.array_equal(a1.powers, a2.powers)
    assert r1 == r2
    s1 = grid_max_mac_cj(ch, GridSpec(points_per_axis=41))
    s2 = grid_max_mac_cj(ch, GridSpec(points_per_axis=41))
    assert np.array_equal(s1.allocation.powers, s2.allocation.powers)
    assert s1.sum_rate == s2.sum_rate


def test_oracle_refinement_never_decreases():
    rng = np.random.default_rng(62)
    for _ in range(25):
        ch = random_mac_instance(rng, 2)
        coarse = grid_max_mac_sup(ch, GridSpec(points_per_axis=51))[1]
        fine = grid_max_mac_sup(ch, GridSpec(points_per_axis=102))[1]
        assert fine >= coarse - 1e-15
    for _ in range(10):
        tw = random_tw_instance(rng)
        coarse = grid_max_tw(tw, GridSpec(points_per_axis=51)).sum_rate
        fine = grid_max_tw(tw, GridSpec(points_per_axis=102)).sum_rate
        assert fine >= coarse - 1e-15
    for _ in range(5):
        ch = random_mac_instance(rng, 2)
        coarse = grid_max_mac_cj(ch, GridSpec(points_per_axis=21)).sum_rate
        fine = grid_max_mac_cj(ch, GridSpec(points_per_axis=42)).sum_rate
        assert fine >= coarse - 1e-15


def test_corner_inclusive_oracle_is_exact_for_corner_optima():
    """Coarse grids still find the exact optimum because it is a corner."""
    rng = np.random.default_rng(63)
    for _ in range(40):
        ch = random_mac_instance(rng, 3)
        got = grid_max_mac_sup(ch, GridSpec(points_per_axis=11))[1]
        want = mac_sup_optimal(ch).sum_rate
        assert abs(got - want) <= 1e-12, f"{got} vs {want} at h={ch.eve_gains}"
    for _ in range(40):
        ch = random_tw_instance(rng)
        got = grid_max_tw(ch, GridSpec(points_per_axis=11)).sum_rate
        want = tw_optimal(ch).sum_rate
        assert abs(got - want) <= 1e-12


def test_random_mac_instance_shape():
    rng = np.random.default_rng(64)
    for k in (2, 3):
        for _ in range(50):
            ch = random_mac_instance(rng, k)
            assert ch.k_users == k
            assert np.all(np.diff(ch.eve_gains) > 0)
            assert np.all(ch.eve_gains >= 0.0) and np.all(ch.eve_gains <= 2.0)
            assert np.all(ch.power_caps >= 0.1) and np.all(ch.power_caps <= 10.0)
            assert ch.has_strictly_ascending_gains()


def test_random_degraded_mac_instance_shape():
    rng = np.random.default_rng(65)
    for _ in range(50):
        ch = random_degraded_mac_instance(rng, 2)
        assert ch.eve_gains[0] == ch.eve_gains[1]
        assert 0.0 < ch.eve_gains[0] < 1.0


def test_random_tw_instance_shape():
    rng = np.random.default_rng(66)
    for _ in range(50):
        ch = random_tw_instance(rng)
        assert ch.k_users == 2
        assert np.all(ch.power_caps >= 0.1)


def test_generators_are_seed_stable():
    a = random_mac_instance(np.random.default_rng(1234), 3)
    b = random_mac_instance(np.random.default_rng(1234), 3)
    assert np.array_equal(a.eve_gains, b.eve_gains)
    assert np.array_equal(a.power_caps, b.power_caps)


# Exact outputs of the four oracles on fixed channels, pinned bit for bit:
# the rate by ==, every power by ==, the role sets and the diagnostics in
# key order.  The K=3 jamming cases but k3-zero-cap win with injected pivot
# powers that no linspace point holds; the zero-cap cases and the all-silent
# two-way case have several roles tied at one rate.  The tied-gain MAC cases
# reach their best rate at two allocations: in two roles (k3-tied-roles,
# where the lexicographically smaller allocation wins) or in two cells of
# one role (k3-two-jammers, where the C-order first cell wins).  In the
# two-way case with gains 0 and 1, several cells of one role round to the
# best rate.  The 101-point K=3 case spans 125 tiles of the search; its
# superposition optimum sits in a short tile at the end of the first axis.
_MAC_PINS = [
    (
        ([1.1, 1.4], [2.0, 2.0], 101),
        ([0.0, 0.0], 0.0),
        ([2.0, 2.0], 0.03900125600063653, (0,), (1,), ()),
    ),
    (
        ([0.5, 1.2, 1.6], [1.0, 2.0, 3.0], 41),
        ([1.0, 0.0, 0.0], 0.2075187496394219),
        ([1.0, 0.0, 0.05870862684710068], 0.2081838948915875, (0,), (2,), (1,)),
    ),
    (
        ([0.1, 0.3, 0.6], [4.0, 0.0, 2.5], 21),
        ([4.0, 0.0, 0.0], 0.9182506338585603),
        ([4.0, 0.0, 0.0], 0.9182506338585603, (0,), (), (1, 2)),
    ),
    (
        ([1.1, 1.4, 1.4], [4.0, 4.0, 4.0], 21),
        ([0.0, 0.0, 0.0], 0.0),
        ([4.0, 0.0, 2.6970806944744536], 0.05792483936826387, (0,), (2,), (1,)),
    ),
    (
        ([1.1, 1.4, 1.4], [2.0, 2.0, 2.0], 21),
        ([0.0, 0.0, 0.0], 0.0),
        ([2.0, 0.20203970193796156, 2.0], 0.03912216664747925, (0,), (1, 2), ()),
    ),
    (
        ([0.7, 1.1, 1.9], [3.0, 2.0, 1.0], 101),
        ([3.0, 0.0, 0.0], 0.18386589225024363),
        ([3.0, 0.0, 0.767931338807444], 0.27033716696049104, (0,), (2,), (1,)),
    ),
]

_TW_PINS = [
    (
        ([0.5, 4.2], [2.0, 2.0], 101),
        ([2.0, 0.0], 0.29248125036057804, (0,)),
        ([2.0, 2.0], 0.7195558171288506, (0,), (1,), ()),
    ),
    (
        ([3.0, 5.0], [0.1, 0.1], 11),
        ([0.0, 0.0], 0.0, ()),
        ([0.0, 0.0], 0.0, (), (), (0, 1)),
    ),
    (
        ([0.3, 0.7], [4.0, 0.0], 41),
        ([4.0, 0.0], 0.5922122855687135, (0,)),
        ([4.0, 0.0], 0.5922122855687135, (0,), (), (1,)),
    ),
    (
        ([0.0, 1.0], [2.0, 2.0], 21),
        ([2.0, 1.4000000000000001], 0.7924812503605781, (0, 1)),
        ([2.0, 1.4000000000000001], 0.7924812503605781, (0, 1), (), ()),
    ),
]


def _assert_jamming_pin(sol, pin, points):
    powers, rate, transmit, jam, silent = pin
    assert sol.sum_rate == rate
    assert sol.allocation.powers.tolist() == powers
    assert (sol.transmit_set, sol.jam_set, sol.silent_set) == (transmit, jam, silent)
    if rate > 0.0:
        diagnostics = [("branch", "oracle"), ("oracle", "grid"), ("points_per_axis", points)]
    else:
        diagnostics = [("branch", "all-silent"), ("oracle", "grid")]
    assert list(sol.diagnostics.items()) == diagnostics


@pytest.mark.parametrize("case", _MAC_PINS, ids=["k2-jam", "k3-injected-pivot", "k3-zero-cap", "k3-tied-roles", "k3-two-jammers", "k3-101-points"])
def test_mac_oracles_are_pinned_bit_for_bit(case):
    (gains, caps, points), (sup_powers, sup_rate), cj = case
    ch, spec = StdMacChannel(gains, caps), GridSpec(points_per_axis=points)
    alloc, rate = grid_max_mac_sup(ch, spec)
    assert rate == sup_rate and type(rate) is float
    assert alloc.powers.tolist() == sup_powers
    _assert_jamming_pin(grid_max_mac_cj(ch, spec), cj, points)


@pytest.mark.parametrize("case", _TW_PINS, ids=["jam", "all-silent", "zero-cap", "rounding-ties"])
def test_tw_oracles_are_pinned_bit_for_bit(case):
    (gains, caps, points), (powers, rate, transmit), cj = case
    ch, spec = StdTwChannel(gains, caps), GridSpec(points_per_axis=points)
    sol = grid_max_tw(ch, spec)
    assert sol.sum_rate == rate and type(sol.sum_rate) is float
    assert sol.allocation.powers.tolist() == powers
    assert (sol.transmit_set, sol.mode, sol.shares, sol.branch) == (transmit, "TW", None, "oracle")
    _assert_jamming_pin(grid_max_tw_cj(ch, spec), cj, points)


def _values(out):
    """An oracle's output as plain values: rate, powers, role sets, diagnostics."""
    if isinstance(out, tuple):
        alloc, rate = out
        return rate, alloc.powers.tolist()
    roles = (out.transmit_set, getattr(out, "jam_set", None), getattr(out, "silent_set", None))
    return out.sum_rate, out.allocation.powers.tolist(), roles, getattr(out, "diagnostics", None)


def _assert_tiles_match_reference(monkeypatch, oracle_fn, ch, spec):
    got = _values(oracle_fn(ch, spec))
    with monkeypatch.context() as m:
        m.setattr(oracle, "_search", reference_search)
        want = _values(oracle_fn(ch, spec))
    assert got == want, f"h={ch.eve_gains}, caps={ch.power_caps}, points={spec.points_per_axis}"


def _tile_sides(k, points):
    return oracle._tile_sides((points,) * k)


# (users, points per axis): one tile, and several tiles with sides that do not
# divide their axes
_TILE_CASES = [(1, 5), (1, 70001), (2, 5), (2, 400), (3, 5), (3, 41), (3, 101)]


def _scalar_pivot_candidates(ch):
    """Per user, the union of the scalar fit's roots over the user's rows,
    every jammer of every transmit/jam/silent role; or the text of the
    ValueError that the first row in role order whose fit fails raises."""
    caps = ch.power_caps
    found = [set() for _ in range(ch.k_users)]
    for roles in itertools.product("TJS", repeat=ch.k_users):
        t_set = tuple(i for i, r in enumerate(roles) if r == "T")
        jam = tuple(i for i, r in enumerate(roles) if r == "J")
        for i in jam:
            try:
                found[i].update(rho_fit_roots(ch, t_set, jam, i, caps))
            except ValueError as exc:
                return str(exc)
    return [sorted(c) for c in found]


def test_each_users_candidates_equal_the_union_of_the_scalar_fits_over_its_rows(monkeypatch):
    """For every user at K = 1...3, the one-pass candidates are the distinct
    values of the scalar fit's roots over the rows in which the user is the
    pivot, bit for bit, or the first failing row's
    ValueError; the channels reach a zero-cap pivot, roles with no
    transmitter (c1 = c2 = 0), c3 = 0, c1 = 0, complex roots and fits that
    are not finite."""
    rng = np.random.default_rng(2020)
    channels = [random_mac_instance(rng, k) for k in (1, 2, 3) for _ in range(30)]
    channels += [random_degraded_mac_instance(rng, k) for k in (1, 2, 3)]
    channels += [
        StdMacChannel([0.3, 0.9, 1.5], [0.0, 2.0, 3.0]),  # zero-cap pivot
        StdMacChannel([0.5, 4 / 3], [2.0, 1.0]),  # rho is exactly 0 at pivot power 0: c3 = 0
        StdMacChannel([0.5, 0.5, 0.5], [1.0, 2.0, 4.0]),  # tied gains: c1 = 0
        StdMacChannel([0.5, 1.2, 1.6], [1.0, 2.0, 3.0]),  # complex roots
        StdMacChannel([1.1, 1.4], [1e104, 1e104]),  # not finite
        StdMacChannel([0.5, 0.7, 0.9], [1e120, 1e120, 1.0]),  # finite for the first jammer only
    ]
    fits = []
    numpy_roots = np.roots

    def recorded(p):
        fits.append((list(p), numpy_roots(p)))
        return fits[-1][1]

    errors = 0
    for ch in channels:
        with monkeypatch.context() as m:
            m.setattr(np, "roots", recorded)
            want = _scalar_pivot_candidates(ch)
        if isinstance(want, str):
            with pytest.raises(ValueError) as raised:
                oracle._pivot_candidates(ch)
            assert type(raised.value) is ValueError and str(raised.value) == want, ch
            errors += 1
            continue
        got = oracle._pivot_candidates(ch)
        assert [c.tolist() for c in got] == want, ch
        assert all(c.dtype == np.float64 for c in got)
    assert errors
    assert any(len(c) > 1 for ch in channels[:90] for c in oracle._pivot_candidates(ch))
    assert any(c1 == 0 and c2 != 0 for (c1, c2, _), _ in fits)
    assert any(c1 != 0 and c3 == 0 for (c1, _, c3), _ in fits)
    assert any(np.iscomplexobj(r) and np.any(r.imag != 0) for _, r in fits)
    assert any(ch.power_caps[i] == 0.0 for ch in channels for i in range(ch.k_users))


def _candidates_with_thresholds(pivot_candidates):
    """pivot_candidates with the two-user branch thresholds of every row of
    every transmit/jam/silent role added to each user's candidates."""

    def candidates(ch):
        found = [set(c.tolist()) for c in pivot_candidates(ch)]
        for roles in itertools.product("TJS", repeat=ch.k_users):
            t_set = tuple(i for i, r in enumerate(roles) if r == "T")
            for i in (i for i, r in enumerate(roles) if r == "J"):
                found[i].update(threshold_candidates(ch, t_set, i, float(ch.power_caps[i])))
        return [np.array(sorted(c)) for c in found]

    return candidates


def test_branch_thresholds_on_the_axes_change_no_mac_jamming_answer(monkeypatch):
    """The oracle's axes carry the rho fits' roots alone.  Adding the
    two-user branch thresholds (h_i - 1)/(h_pivot - h_i) of every row to
    each user's candidates gives the same rate, powers, roles and
    diagnostics, on seeded K = 2 and 3 channels at 11, 21 and 101 points,
    gains near 1 and zero caps among them, and on the pinned channels."""
    rng = np.random.default_rng(2525)
    cases = []
    for k in (2, 3):
        for points in (11, 21, 101):
            chans = [random_mac_instance(rng, k) for _ in range(12)]
            chans += [random_mac_instance(rng, k, gain_range=(0.9, 1.1)) for _ in range(3)]
            zero = random_mac_instance(rng, k)
            chans.append(StdMacChannel(zero.eve_gains, np.r_[zero.power_caps[:-1], 0.0]))
            cases += [(ch, points) for ch in chans]
    cases += [(StdMacChannel(gains, caps), points) for (gains, caps, points), _, _ in _MAC_PINS]
    cases += [
        (StdMacChannel(gains, caps), 101)
        for gains, caps in (([0.5, 1.2, 1.6], [1.0, 2.0, 3.0]), ([0.33, 1.85], [2.3, 2.8]), ([2, 2.1, 2.2], [1, 1, 1]))
    ]
    with_thresholds = _candidates_with_thresholds(oracle._pivot_candidates)

    def answer(ch, spec):
        sol = grid_max_mac_cj(ch, spec)
        return sol.sum_rate, sol.allocation.powers.tolist(), sol.transmit_set, sol.jam_set, sol.diagnostics

    grown = 0
    for ch, points in cases:
        spec = GridSpec(points_per_axis=points)
        want = answer(ch, spec)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_pivot_candidates", with_thresholds)
            assert answer(ch, spec) == want, (ch, points)
        grown += sum(map(len, with_thresholds(ch))) > sum(map(len, oracle._pivot_candidates(ch)))
    assert grown >= len(cases) // 2


@pytest.mark.parametrize(
    "ch, user",
    [(StdMacChannel([1.1, 1.4], [1e104, 1e104]), 2), (StdMacChannel([0.5, 0.7, 0.9], [1e120, 1e120, 1.0]), 2)],
)
def test_mac_jamming_oracle_names_the_first_fit_that_is_not_finite(monkeypatch, ch, user):
    """The oracle raises the scalar fit's ValueError for the first jammer in
    role order whose fit is not finite, as the per-role search does."""
    message = f"power_caps are too large for the grid oracle: the rho fit along user {user}'s axis is not finite"
    with pytest.raises(ValueError) as raised:
        grid_max_mac_cj(ch, SPEC_101)
    assert str(raised.value) == message
    roles = itertools.product("TJS", repeat=ch.k_users)
    with pytest.raises(ValueError) as raised:
        per_role_search(ch, SPEC_101, oracle._mac_cj_rate, roles, functools.partial(scalar_pivot_candidates, ch))
    assert str(raised.value) == message


def _objective_calls(monkeypatch, oracle_fn, ch, spec):
    """oracle_fn's output, and for each call of the MAC jamming objective or of
    its bound, the cells of the mesh it was given and its number of transmit
    sets."""
    calls = []
    rate_grid = oracle._mac_cj_rate

    def size(grids):
        return math.prod(np.broadcast_shapes(*(np.shape(g) for g in grids)))

    def counted(h, grids, t_sets):
        calls.append((size(grids), len(t_sets)))
        return rate_grid(h, grids, t_sets)

    def counted_bound(h, lo, hi, t_sets):
        calls.append((size(lo), len(t_sets)))
        return rate_grid.bound(h, lo, hi, t_sets)

    counted.bound = counted_bound
    with monkeypatch.context() as m:
        m.setattr(oracle, "_mac_cj_rate", counted)
        out = oracle_fn(ch, spec)
    return out, calls


@pytest.mark.parametrize("k, points", _TILE_CASES)
def test_mac_oracles_match_the_single_pass_search(monkeypatch, k, points):
    if points ** k > oracle._TILE_CELLS:
        assert any(points % side for side in _tile_sides(k, points))
    rng = np.random.default_rng(70 + 10 * k + points % 7)
    channels = [random_mac_instance(rng, k) for _ in range(2)]
    channels.append(random_degraded_mac_instance(rng, k))
    zero_first = random_mac_instance(rng, k)
    channels.append(StdMacChannel(zero_first.eve_gains, np.r_[0.0, zero_first.power_caps[1:]]))
    spec = GridSpec(points_per_axis=points)
    if (k, points) == (3, 101):
        # gains on (0, 2) and caps on (0.5, 5), the ranges of the perfbench
        # two-user-report draws; in some, a user's axis carries several pivot
        # candidates, so its tiles are uneven
        report_like = [random_mac_instance(rng, 3, cap_range=(0.5, 5.0)) for _ in range(12)]
        assert any(len(c) > 1 for ch in report_like for c in oracle._pivot_candidates(ch))
        channels += report_like
        # where pruning is weakest: a flat channel with a low rate, and one whose
        # best rate, 1.7e-18, is far below the bound's slack
        channels.append(StdMacChannel([0.768, 0.953, 1.279], [0.86, 4.29, 1.5]))
        channels.append(StdMacChannel([2.0, 2.1, 2.2], [1.0, 1.0, 1.0]))
    if (k, points) == (2, 400):
        # several tiles per role, some of them pruned
        pruned = StdMacChannel([0.5, 1.4], [2.0, 3.0])
        for oracle_fn, roles in ((grid_max_mac_sup, 1), (grid_max_mac_cj, 4)):
            _, calls = _objective_calls(monkeypatch, oracle_fn, pruned, spec)
            assert sum(cells * n for cells, n in calls) < roles * points**2 / 2
        channels.append(pruned)
    for ch in channels:
        _assert_tiles_match_reference(monkeypatch, grid_max_mac_sup, ch, spec)
        _assert_tiles_match_reference(monkeypatch, grid_max_mac_cj, ch, spec)


@pytest.mark.parametrize("points", [5, 17, 31])
def test_four_user_superposition_matches_the_single_pass_search(monkeypatch, points):
    if points ** 4 > oracle._TILE_CELLS:
        assert any(points % side for side in _tile_sides(4, points))
    rng = np.random.default_rng(90 + points)
    for ch in [random_mac_instance(rng, 4) for _ in range(3)] + [random_degraded_mac_instance(rng, 4)]:
        _assert_tiles_match_reference(monkeypatch, grid_max_mac_sup, ch, GridSpec(points_per_axis=points))


@pytest.mark.parametrize("points", [5, 101, 400])
def test_tw_oracles_match_the_single_pass_search(monkeypatch, points):
    rng = np.random.default_rng(95 + points)
    channels = [random_tw_instance(rng) for _ in range(4)]
    channels.append(StdTwChannel([0.0, 1.0], [2.0, 2.0]))
    channels.append(StdTwChannel([0.3, 0.7], [0.0, 4.0]))
    spec = GridSpec(points_per_axis=points)
    for ch in channels:
        _assert_tiles_match_reference(monkeypatch, grid_max_tw, ch, spec)
        _assert_tiles_match_reference(monkeypatch, grid_max_tw_cj, ch, spec)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tied_transmit_sets_go_to_the_first_in_product_order(k):
    """Where every transmit set reaches the best rate at the same cell, the
    first set in product order, transmit before jam, wins: everyone
    transmits, as in the exhaustive search over every role."""
    ch = StdMacChannel([0.2, 0.5, 0.8][:k], [1.0, 2.0, 3.0][:k])
    spec = GridSpec(points_per_axis=5)

    def same_for_every_set(h, grids, t_sets):
        for _ in t_sets:
            yield sum(grids)

    sol = oracle._jamming_solution(ch, spec, same_for_every_set)
    assert sol.allocation.powers.tolist() == [1.0, 2.0, 3.0][:k]
    assert (sol.transmit_set, sol.jam_set) == (tuple(range(k)), ())
    assert role_search(ch, spec, same_for_every_set)[2] == ("T",) * k


def test_tile_search_keeps_the_first_of_tied_cells_in_different_tiles():
    """Tied best cells in two later tiles: the C-order first one wins, as in
    one argmax over the whole mesh, also when a bound has the search visit the
    later tile first; and a flat objective keeps the very first cell."""
    ch = StdMacChannel([0.2, 0.5, 0.8], [10.0, 10.0, 10.0])
    spec = GridSpec(points_per_axis=101)
    axis = np.linspace(0.0, 10.0, 101)
    side = _tile_sides(3, 101)[0]
    early, late = axis[side + 1], axis[3 * side + 3]

    def two_peaks(h, grids, t_sets):
        yield -np.minimum(np.abs(grids[0] - early), np.abs(grids[0] - late)) + 0.0 * (grids[1] + grids[2])

    def late_first(h, lo, hi, t_sets):
        yield np.where(hi[0] >= late, 1.0, 0.0) + 0.0 * (hi[1] + hi[2])

    def late_first_peaks(h, grids, t_sets):
        return two_peaks(h, grids, t_sets)

    late_first_peaks.bound = late_first
    t_sets = [(0, 1, 2)]
    want_rate, want_alloc, _ = reference_search(ch, spec, two_peaks, t_sets)
    for rate_grid in (two_peaks, late_first_peaks):
        rate, alloc, _ = oracle._search(ch, spec, rate_grid, t_sets)
        assert rate == 0.0 and alloc.tolist() == [early, 0.0, 0.0]
        assert (rate, alloc.tolist()) == (want_rate, want_alloc.tolist())

    flat = StdMacChannel([1.0, 1.0, 1.0], [4.0, 4.0, 4.0])
    rate, alloc, _ = oracle._search(flat, spec, oracle._mac_cj_rate, t_sets)
    assert rate == 0.0 and alloc.tolist() == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("user", [0, 1])
def test_every_transmit_set_is_searched_on_each_users_candidates(user):
    """A user's candidate x* is on its axis for every transmit set, also the
    one in which the user transmits: the all-transmit set, which peaks at
    x*, reports it, where the per-role search gives x* to the jamming role
    only and so reports the nearest point of the plain axis."""
    ch = StdMacChannel([0.5, 0.8], [1.0, 1.0])
    spec = GridSpec(points_per_axis=400)
    x_star = 0.77
    t_sets = [(0, 1), (1 - user,)]
    extras = [[x_star] if i == user else [] for i in range(2)]

    def peak_at_x_star(h, grids, t_sets):
        for t_set in t_sets:
            if len(t_set) == 2:
                yield -np.abs(grids[user] - x_star) + 0.0 * grids[1 - user]
            else:
                yield np.full(np.broadcast_shapes(grids[0].shape, grids[1].shape), -1.0)

    rate, alloc, won = oracle._search(ch, spec, peak_at_x_star, t_sets, extras)
    assert won == (0, 1) and rate == 0.0
    assert alloc[user] == x_star and alloc[1 - user] == 0.0
    want_rate, want_alloc, want_t_set = reference_search(ch, spec, peak_at_x_star, t_sets, extras)
    assert (rate, alloc.tolist(), won) == (want_rate, want_alloc.tolist(), want_t_set)

    axis = np.linspace(0.0, 1.0, 400)
    nearest = axis[np.argmin(np.abs(axis - x_star))]
    roles = [tuple("J" if i == user else "T" for i in range(2)), ("T", "T")]
    old_rate, old_alloc, old_roles = per_role_search(ch, spec, peak_at_x_star, roles, lambda t, j, i: [x_star])
    assert old_roles == ("T", "T") and old_rate == -abs(nearest - x_star) < rate
    assert old_alloc[user] == nearest


def test_size_guard_counts_each_distinct_candidate_once_per_user_axis(monkeypatch):
    """A user's candidates that repeat each other, lie on its plain axis or
    fall outside (0, cap) add no grid point, and every transmit set shares
    the one mesh, so neither counts toward the size guard, as in the
    single-pass search; each distinct candidate inside the axis does."""
    ch = StdMacChannel([0.5, 0.8], [1.0, 2.0])
    spec = GridSpec(points_per_axis=11)
    on_axis = float(np.linspace(0.0, 2.0, 11)[1])
    monkeypatch.setattr(oracle, "MAX_GRID_CELLS", 11 * 12)
    t_sets = [(0, 1), (0,), (1,), ()]
    one_new_point = [[], [0.5, 0.5, on_axis, 2.0, 3.0, float("nan")]]
    two_new_points = [[], [0.5, 0.7, on_axis]]

    def rate(h, grids, t_sets):
        for _ in t_sets:
            yield -np.abs(grids[1] - 0.5) + 0.0 * grids[0]

    got = oracle._search(ch, spec, rate, t_sets, one_new_point)
    want = reference_search(ch, spec, rate, t_sets, one_new_point)
    assert (got[0], got[1].tolist(), got[2]) == (want[0], want[1].tolist(), want[2]) == (0.0, [0.0, 0.5], (0, 1))
    for search in (oracle._search, reference_search):
        with pytest.raises(ValueError, match="grid too large: 143 cells"):
            search(ch, spec, rate, t_sets, two_new_points)


def test_mac_jamming_oracle_shares_the_full_mesh_terms_of_a_group(monkeypatch):
    """All 8 transmit sets are one group on one mesh: without its bound, the
    objective is called once per tile for all of them, so its full-mesh
    terms come to one mesh, 1,060,904 cells for this channel, besides the
    1-cell calls at the caps corner; one mesh per transmit/jam/silent role
    came to 8,396,334, and the mesh with the two-user branch thresholds on
    its axes to 1,071,105."""
    calls = []
    rate_grid = oracle._mac_cj_rate

    def unbounded(h, grids, t_sets):
        calls.append((math.prod(np.broadcast_shapes(*(np.shape(g) for g in grids))), len(t_sets)))
        return rate_grid(h, grids, t_sets)

    monkeypatch.setattr(oracle, "_mac_cj_rate", unbounded)
    ch = StdMacChannel([0.5, 1.2, 1.6], [1.0, 2.0, 3.0])
    sol = grid_max_mac_cj(ch, SPEC_101)
    assert sol.allocation.powers.tolist() == [1.0, 0.0, 0.05870862684710068]
    mesh = math.prod(len(oracle._axis(c, SPEC_101, x)) for c, x in zip(ch.power_caps, oracle._pivot_candidates(ch)))
    assert mesh == 1_060_904
    assert sum(cells for cells, n in calls if n == 8) == mesh
    assert all(call == (1, 1) for call in calls if call[1] != 8)


def test_mac_jamming_oracle_prunes_most_cells_by_its_bound(monkeypatch):
    """Summed over the calls of the objective and of its bound, the cells come
    to at most a third of the 1,060,904 that the unpruned search evaluates
    for this channel."""
    ch = StdMacChannel([0.5, 1.2, 1.6], [1.0, 2.0, 3.0])
    sol, calls = _objective_calls(monkeypatch, grid_max_mac_cj, ch, SPEC_101)
    assert sol.allocation.powers.tolist() == [1.0, 0.0, 0.05870862684710068]
    assert sum(cells for cells, _ in calls) <= 1_060_904 // 3


def _seeded_jamming_channels():
    """Seeded MAC channels at K = 1...3 and two-way channels, with tied gains,
    zero caps and the pinned channels among them, each with a grid size."""
    rng = np.random.default_rng(2323)
    cases = []
    for k in (1, 2, 3):
        for points in (5, 11, 21, 41):
            cases += [(random_mac_instance(rng, k), points) for _ in range(4)]
            cases.append((random_degraded_mac_instance(rng, k), points))
            zero = random_mac_instance(rng, k)
            cases.append((StdMacChannel(zero.eve_gains, np.r_[0.0, zero.power_caps[1:]]), points))
    cases += [(StdMacChannel(gains, caps), points) for (gains, caps, points), _, _ in _MAC_PINS]
    for points in (5, 11, 21, 41):
        cases += [(random_tw_instance(rng), points) for _ in range(4)]
    cases += [(StdTwChannel(gains, caps), points) for (gains, caps, points), _, _ in _TW_PINS]
    return cases


def _objective_and_candidates(ch):
    if isinstance(ch, StdTwChannel):
        return grid_max_tw_cj, oracle._tw_cj_rate, None, None
    scalar = functools.partial(scalar_pivot_candidates, ch)
    return grid_max_mac_cj, oracle._mac_cj_rate, oracle._pivot_candidates(ch), scalar


def test_jamming_oracles_equal_an_exhaustive_search_over_every_role():
    """Every transmit/jam/silent role searched on the same per-user axes,
    silent users pinned to 0, gives the oracle's rate, allocation and role
    sets: a silent user is a jammer at power 0, so the transmit sets on one
    mesh hold every cell of every role."""
    for ch, points in _seeded_jamming_channels():
        oracle_fn, rate_grid, candidates, _ = _objective_and_candidates(ch)
        spec = GridSpec(points_per_axis=points)
        sol = oracle_fn(ch, spec)
        rate, alloc, roles = role_search(ch, spec, rate_grid, candidates)
        if rate <= 0.0:
            rate, alloc = 0.0, np.zeros(ch.k_users)
        shown = [i for i in range(ch.k_users) if alloc[i] > 0]
        assert sol.sum_rate == rate and sol.allocation.powers.tolist() == alloc.tolist(), (ch, points)
        assert sol.transmit_set == tuple(i for i in shown if roles[i] == "T"), (ch, points)
        assert sol.jam_set == tuple(i for i in shown if roles[i] == "J"), (ch, points)


def _assert_never_loses_to_the_per_role_search(ch, spec, same_rate):
    oracle_fn, rate_grid, _, scalar = _objective_and_candidates(ch)
    roles = itertools.product("TJS", repeat=ch.k_users)
    old_rate, old_alloc, _ = per_role_search(ch, spec, rate_grid, roles, scalar)
    if old_rate <= 0.0:
        old_rate, old_alloc = 0.0, np.zeros(ch.k_users)
    sol = oracle_fn(ch, spec)
    assert sol.sum_rate >= old_rate, (ch, spec)
    if same_rate:
        assert sol.sum_rate == old_rate, (ch, spec)
    if sol.sum_rate == old_rate:
        assert sol.allocation.powers.tolist() <= old_alloc.tolist(), (ch, spec)


def test_jamming_oracles_match_the_per_role_search_on_seeded_channels():
    """On the seeded channels the one mesh finds the per-role search's rate,
    at the same allocation or a lexicographically smaller tied one."""
    for ch, points in _seeded_jamming_channels():
        _assert_never_loses_to_the_per_role_search(ch, GridSpec(points_per_axis=points), same_rate=True)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.2, 2.5]) | st.floats(0.0, 3.0), min_size=k, max_size=k),
            st.lists(st.sampled_from([0.0, 1.0, 4.0]) | st.floats(0.0, 100.0), min_size=k, max_size=k),
        )
    ),
    st.sampled_from([2, 5, 11]),
)
def test_mac_jamming_oracle_never_loses_to_the_per_role_search(gains_caps, points):
    """Every cell of every role is a cell of the one mesh, evaluated by the
    same operations, so the oracle's rate is at least the per-role
    search's, and at an equal rate its allocation is no larger."""
    gains, caps = gains_caps
    ch = StdMacChannel(np.sort(gains), caps)
    _assert_never_loses_to_the_per_role_search(ch, GridSpec(points_per_axis=points), same_rate=False)


@st.composite
def _mac_sub_boxes(draw):
    """Gains, a sorted grid per axis from 0 to a cap up to 1e300, and a sub-box
    of it as index ranges."""
    k = draw(st.integers(1, 3))
    gains = draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k))
    axes, box = [], []
    for _ in range(k):
        cap = draw(st.floats(0.0, 1e300))
        fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
        axis = np.unique(np.r_[0.0, cap, cap * np.array(fractions)])
        first = draw(st.integers(0, len(axis) - 1))
        box.append(slice(first, draw(st.integers(first + 1, len(axis)))))
        axes.append(axis)
    return np.sort(gains), axes, box


@settings(max_examples=300, deadline=None)
@given(_mac_sub_boxes())
def test_mac_jamming_box_form_bounds_every_cell_of_its_box(sub_box):
    """For every transmit set, the box form at lo = hi is the rate, and every
    cell of a box is at most its bound, the box form plus the slack."""
    h, axes, box = sub_box
    k = len(axes)
    t_sets = [t for n in range(k + 1) for t in itertools.combinations(range(k), n)]
    grids = np.ix_(*(ax[b] for ax, b in zip(axes, box)))
    lo = np.ix_(*(ax[b][:1] for ax, b in zip(axes, box)))
    hi = np.ix_(*(ax[b][-1:] for ax, b in zip(axes, box)))
    rates = list(oracle._mac_cj_rate(h, grids, t_sets))
    for at_cells, rate in zip(oracle._mac_cj_box(h, grids, grids, t_sets), rates):
        assert np.array_equal(at_cells, rate)
    for corner, cell in ((lo, (0,) * k), (hi, (-1,) * k)):
        for at_corner, rate in zip(oracle._mac_cj_box(h, corner, corner, t_sets), rates):
            assert at_corner.item() == np.broadcast_to(rate, np.broadcast_shapes(*(g.shape for g in grids)))[cell]
    for bound, rate, t_set in zip(oracle._mac_cj_bound(h, lo, hi, t_sets), rates, t_sets):
        assert np.all(rate <= bound), (t_set, rate.max(), bound)


@pytest.mark.parametrize(
    "oracle_fn, ch",
    [
        (grid_max_mac_sup, StdMacChannel([0.9, 0.95], [1e308, 1e308])),
        (grid_max_mac_cj, StdMacChannel([0.9, 0.95], [1e308, 1e308])),
        (grid_max_tw, StdTwChannel([1.2, 1.5], [1e308, 1e308])),
        (grid_max_tw_cj, StdTwChannel([1.2, 1.5], [1e308, 1e308])),
        (grid_max_mac_cj, StdMacChannel([1.1, 1.4], [1e104, 1e104])),
        (grid_max_mac_cj, StdMacChannel([0.5, 0.7], [1e200, 1e200])),
    ],
    ids=["sup-1e308", "mac-cj-1e308", "tw-1e308", "tw-cj-1e308", "mac-cj-1e104", "mac-cj-1e200"],
)
def test_oracles_name_power_caps_when_they_would_overflow(oracle_fn, ch):
    with pytest.raises(ValueError, match="power_caps"):
        oracle_fn(ch, SPEC_101)


def test_overflow_check_follows_each_objective(monkeypatch):
    """The caps sum overflows, but the two-way objective never forms it, and
    no cell of its search overflows: the oracle answers, as the single-pass
    search does."""
    ch = StdTwChannel([0.1, 0.1], [1e308, 1e308])
    _assert_tiles_match_reference(monkeypatch, grid_max_tw, ch, SPEC_101)
    assert grid_max_tw(ch, SPEC_101).allocation.powers.tolist() == [1e308, 1e308]
