"""Tests for region construction, vertex enumeration, and containment."""

import numpy as np
import pytest

from secrecy_rates import (
    KIND_SECRECY,
    KIND_TOTAL,
    KIND_USER_SECRECY,
    KIND_USER_TOTAL,
    PowerAllocation,
    RateConstraint,
    StdMacChannel,
    StdTwChannel,
    TdmaShares,
    convex_hull_2d,
    mac_hull_region,
    mac_sup_region,
    mac_tdma_region,
    merge_tied_users,
    tw_region,
)
from secrecy_rates.regions import _secrecy_pentagon
from reference import (
    RatePoint,
    _secrecy_pentagon as line_pair_pentagon,
    is_degraded,
    random_mac_instance,
    random_tw_instance,
    reference_mac_hull_region,
    region_contains,
)

TOL = 1e-9

FIG4_CH = StdMacChannel([0.1, 0.3], [4.0, 4.0])
FIG4_FULL = PowerAllocation([4.0, 4.0])


def _bound(region, kind, subset):
    subset = tuple(subset)
    for c in region.constraints:
        if c.kind == kind and c.subset == subset:
            return c.bound
    raise AssertionError(f"no {kind} constraint for subset {subset}")


def _check_vertices(region):
    """Every vertex must satisfy every constraint and wind counterclockwise."""
    if not region.vertices2d:
        return
    for x, y in region.vertices2d:
        pt = RatePoint([x, y], [0.0, 0.0])
        assert region_contains(region, pt), f"vertex ({x}, {y}) escapes its own region"
    v = region.vertices2d
    for i in range(len(v) - 2):
        ox, oy = v[i]
        ax, ay = v[i + 1]
        bx, by = v[i + 2]
        assert (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) >= -TOL


def test_mac_sup_region_hand_values():
    reg = mac_sup_region(FIG4_CH, FIG4_FULL)
    sum_secrecy = _bound(reg, KIND_SECRECY, (0, 1))
    assert np.isclose(sum_secrecy, 0.8957066890942912, rtol=0, atol=TOL), f"sum {sum_secrecy}"
    assert np.isclose(
        sum_secrecy, 0.5 * np.log2(9.0) - 0.5 * np.log2(2.6), rtol=0, atol=1e-12
    )
    user1 = _bound(reg, KIND_SECRECY, (0,))
    assert np.isclose(user1, 1.0404599976917837, rtol=0, atol=TOL)
    assert np.isclose(
        user1, 0.5 * np.log2(5.0) - 0.5 * np.log2(1 + 0.4 / 2.2), rtol=0, atol=1e-12
    )
    assert _bound(reg, KIND_TOTAL, (0, 1)) == pytest.approx(0.5 * np.log2(9.0), abs=1e-12)
    _check_vertices(reg)


def test_mac_sup_region_fig4_vertices():
    reg = mac_sup_region(FIG4_CH, FIG4_FULL)
    want = [
        (0.0, 0.0),
        (0.8957066890942912, 0.0),
        (0.1812850396923541, 0.7144216494019371),
        (0.0, 0.7144216494019371),
    ]
    got = reg.vertices2d
    assert len(got) == len(want), f"vertex count {len(got)}"
    for (gx, gy), (wx, wy) in zip(got, want):
        assert np.isclose(gx, wx, rtol=0, atol=TOL) and np.isclose(gy, wy, rtol=0, atol=TOL)
    # never a negative zero in the published polygon
    for x, y in got:
        assert str(x)[0] != "-" and str(y)[0] != "-"


def test_mac_sup_region_unit_gains_degenerate():
    ch = StdMacChannel([1.0, 1.0], [4.0, 4.0])
    reg = mac_sup_region(ch, PowerAllocation([4.0, 4.0]))
    assert _bound(reg, KIND_SECRECY, (0, 1)) == 0.0
    assert reg.vertices2d == [(0.0, 0.0)]


def test_mac_sup_region_zero_power():
    reg = mac_sup_region(FIG4_CH, PowerAllocation([0.0, 0.0]))
    for c in reg.constraints:
        assert c.bound == 0.0


def test_clamped_flag_distinguishes_zero_by_clamp():
    # h2 > 1 + h1*P1, so the eavesdropper decodes user 2 even with user 1
    # treated as noise and the singleton bound clamps
    ch = StdMacChannel([0.2, 2.0], [4.0, 4.0])
    reg = mac_sup_region(ch, PowerAllocation([4.0, 4.0]))
    user2 = [c for c in reg.constraints if c.kind == KIND_SECRECY and c.subset == (1,)][0]
    assert user2.bound == 0.0 and user2.clamped
    zero = mac_sup_region(ch, PowerAllocation([0.0, 0.0]))
    user2z = [c for c in zero.constraints if c.kind == KIND_SECRECY and c.subset == (1,)][0]
    assert user2z.bound == 0.0 and not user2z.clamped


def test_mac_tdma_region_hand_values():
    reg = mac_tdma_region(FIG4_CH, TdmaShares(np.array([0.5, 0.5])))
    user1 = _bound(reg, KIND_USER_SECRECY, (0,))
    assert np.isclose(user1, 0.5804820237218405, rtol=0, atol=TOL), f"user1 {user1}"
    assert np.isclose(user1, 0.25 * (np.log2(9.0) - np.log2(1.8)), rtol=0, atol=1e-12)
    _check_vertices(reg)


def test_mac_tdma_region_strong_eavesdropper_zero():
    ch = StdMacChannel([1.0, 1.3], [4.0, 4.0])
    for a in (0.1, 0.5, 0.9):
        reg = mac_tdma_region(ch, TdmaShares(np.array([a, 1.0 - a])))
        assert _bound(reg, KIND_USER_SECRECY, (0,)) == 0.0
        assert _bound(reg, KIND_USER_SECRECY, (1,)) == 0.0


def test_mac_tdma_region_degenerate_share():
    reg = mac_tdma_region(FIG4_CH, TdmaShares(np.array([1.0, 0.0])))
    assert np.isclose(
        _bound(reg, KIND_USER_SECRECY, (0,)),
        0.5 * np.log2(5.0) - 0.5 * np.log2(1.4),
        rtol=0,
        atol=1e-12,
    )
    assert _bound(reg, KIND_USER_TOTAL, (1,)) == 0.0
    assert _bound(reg, KIND_USER_SECRECY, (1,)) == 0.0


def test_tw_region_hand_values():
    ch = StdTwChannel([0.3, 0.7], [4.0, 2.0])
    reg = tw_region(ch, PowerAllocation([4.0, 2.0]))
    sum_secrecy = _bound(reg, KIND_SECRECY, (0, 1))
    assert np.isclose(sum_secrecy, 1.0294468445267841, rtol=0, atol=TOL)
    assert np.isclose(
        sum_secrecy,
        0.5 * np.log2(5.0) + 0.5 * np.log2(3.0) - 0.5 * np.log2(3.6),
        rtol=0,
        atol=1e-12,
    )
    assert _bound(reg, KIND_USER_TOTAL, (0,)) == pytest.approx(0.5 * np.log2(5.0), abs=1e-12)
    _check_vertices(reg)


def test_tw_region_deaf_eavesdropper():
    ch = StdTwChannel([0.0, 0.0], [4.0, 2.0])
    reg = tw_region(ch, PowerAllocation([4.0, 2.0]))
    for u in range(2):
        assert _bound(reg, KIND_SECRECY, (u,)) == _bound(reg, KIND_USER_TOTAL, (u,))


def test_tw_region_zero_power():
    ch = StdTwChannel([0.3, 0.7], [4.0, 2.0])
    reg = tw_region(ch, PowerAllocation([0.0, 0.0]))
    for c in reg.constraints:
        assert c.bound == 0.0


def test_secrecy_bounds_never_exceed_totals():
    rng = np.random.default_rng(21)
    for _ in range(50):
        ch = random_mac_instance(rng, 2)
        alloc = PowerAllocation(rng.uniform(0, 1, 2) * ch.power_caps)
        reg = mac_sup_region(ch, alloc)
        for subset in ((0,), (1,), (0, 1)):
            assert _bound(reg, KIND_SECRECY, subset) <= _bound(reg, KIND_TOTAL, subset) + 1e-12


def test_secrecy_pentagon_equals_the_line_pair_intersections():
    """The eight listed crossings give the vertices of intersecting all ten
    pairs of bounding lines, bit for bit, on random bounds and on bounds at
    the REGION_TOL edge of every feasibility test."""
    edge = [0.0, 1e-12, 3e-10, 1.0 - 5e-10, 1.0, 1.0 + 5e-10]
    triples = []
    for b1 in edge:
        for b2 in edge:
            for d in (0.0, 1e-10, -1e-10, 5e-9, -5e-9):
                triples.append((b1, b2, b1 + b2 + d))
            triples.extend((b1, b2, b12) for b12 in edge + [b1, b2])
    rng = np.random.default_rng(67)
    for _ in range(3000):
        b1, b2 = rng.uniform(0.0, 2.0, 2) * (rng.random(2) < 0.9)
        triples.append((float(b1), float(b2), float(rng.uniform(0.0, 1.2) * (b1 + b2))))
    for b1, b2, b12 in triples:
        assert _secrecy_pentagon(b1, b2, b12) == line_pair_pentagon(b1, b2, b12), (b1, b2, b12)


def test_region_contains_examples():
    reg = mac_sup_region(FIG4_CH, FIG4_FULL)
    origin = RatePoint([0.0, 0.0], [0.0, 0.0])
    assert region_contains(reg, origin)
    for x, y in reg.vertices2d:
        assert region_contains(reg, RatePoint([x, y], [0.0, 0.0]))
    # nudging the sum-rate corner outward must leave the region
    bad = RatePoint([0.8957066890942912 + 1e-3, 1e-3], [0.0, 0.0])
    assert not region_contains(reg, bad)


def test_region_contains_checks_totals_too():
    reg = mac_sup_region(FIG4_CH, FIG4_FULL)
    big_open = RatePoint([0.1, 0.1], [5.0, 5.0])
    assert not region_contains(reg, big_open)


def test_hull_contains_both_schemes():
    hull = mac_hull_region(FIG4_CH)
    sup = mac_sup_region(FIG4_CH, FIG4_FULL)
    for x, y in sup.vertices2d:
        assert region_contains(hull, RatePoint([x, y], [0.0, 0.0])), f"SUP vertex ({x}, {y})"
    # a share on the sampled grid: its rectangle corners are hull inputs
    tdma = mac_tdma_region(FIG4_CH, TdmaShares(np.array([22.0 / 32.0, 10.0 / 32.0])))
    for x, y in tdma.vertices2d:
        assert region_contains(hull, RatePoint([x, y], [0.0, 0.0])), f"TDMA vertex ({x}, {y})"
    assert hull.provenance == "HULL"
    best = max(x + y for x, y in hull.vertices2d)
    assert np.isclose(best, 0.9615756979742955, rtol=0, atol=TOL), f"hull max sum {best}"
    _check_vertices(hull)


def test_hull_idempotent():
    hull = mac_hull_region(FIG4_CH)
    assert convex_hull_2d(hull.vertices2d) == hull.vertices2d


def test_hull_no_secrecy_collapses_to_origin():
    hull = mac_hull_region(StdMacChannel([1.1, 1.2], [4.0, 4.0]))
    assert hull.vertices2d == [(0.0, 0.0)]


def test_hull_single_user_segment():
    ch = merge_tied_users([0.5, 0.5], [3.0, 1.0])
    hull = mac_hull_region(ch)
    top = 0.5 * np.log2(5.0) - 0.5 * np.log2(3.0)
    assert len(hull.vertices2d) == 2
    assert hull.vertices2d[0] == (0.0, 0.0)
    assert np.isclose(hull.vertices2d[1][0], top, rtol=0, atol=1e-12)


@pytest.mark.parametrize("field", ["power_grid_resolution", "share_grid_resolution"])
@pytest.mark.parametrize("value", [2.5, 33.0, "33"])
def test_hull_rejects_non_integer_resolutions_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        mac_hull_region(FIG4_CH, **{field: value})


def test_hull_rejects_three_users():
    ch = StdMacChannel([0.1, 0.2, 0.3], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        mac_hull_region(ch)


def _hull_channels(count, seed):
    """Two-user channels with caps from 1e-3 to 1e3 and gains on both sides
    of 1, with zero caps, zero gains, tied gains and unit gains mixed in."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        h = np.sort(rng.uniform(0.0, 2.0, 2))
        caps = 10.0 ** rng.uniform(-3.0, 3.0, 2)
        edge = i % 10
        if edge == 1:
            caps[rng.integers(2)] = 0.0
        elif edge == 2:
            h[0] = 0.0
        elif edge == 3:
            h[1] = h[0]
        elif edge == 4:
            h[rng.integers(2)] = 1.0
            h = np.sort(h)
        out.append(StdMacChannel(h, caps))
    return out


def _hull_bits(region):
    return region.vertices2d, [(c.subset, c.kind, c.bound, c.clamped) for c in region.constraints]


ALL_SCHEMES = [("SUP",), ("TDMA",), ("SUP", "TDMA")]


@pytest.mark.parametrize("resolution", [(2, 2), (3, 5)], ids=["2x2", "3x5"])
def test_hull_equals_the_per_cell_reference_on_coarse_grids(resolution):
    for ch in _hull_channels(240, 31):
        for schemes in ALL_SCHEMES:
            got = mac_hull_region(ch, *resolution, schemes=schemes)
            want = reference_mac_hull_region(ch, *resolution, schemes=schemes)
            assert _hull_bits(got) == _hull_bits(want), (ch, schemes)


@pytest.mark.parametrize("resolution", [(33, 33), (34, 65)], ids=["33x33", "34x65"])
def test_hull_equals_the_per_cell_reference_on_fine_grids(resolution):
    """Every channel on the TDMA share grid; the first eight also on the
    power grid, whose per-cell reference takes about 0.2 s a call."""
    for i, ch in enumerate(_hull_channels(240, 32)):
        for schemes in ALL_SCHEMES if i < 8 else [("TDMA",)]:
            got = mac_hull_region(ch, *resolution, schemes=schemes)
            want = reference_mac_hull_region(ch, *resolution, schemes=schemes)
            assert _hull_bits(got) == _hull_bits(want), (ch, schemes)


@pytest.mark.parametrize("schemes", ALL_SCHEMES, ids=["SUP", "TDMA", "both"])
def test_hull_with_overflowing_caps_names_power_caps(schemes):
    """Caps near the float limit overflow the sampled bounds (p1 + p2 or
    cap / share is inf); no RuntimeWarning escapes and the error says which
    field is at fault."""
    ch = StdMacChannel([0.1, 0.3], [1e308, 1e308])
    with pytest.raises(ValueError, match="power_caps"):
        mac_hull_region(ch, schemes=schemes)


def test_degraded_tdma_inside_sup_hull():
    rng = np.random.default_rng(22)
    for _ in range(20):
        ch = random_mac_instance(rng, 2)
        ch = StdMacChannel(
            np.full(2, float(rng.uniform(0.05, 0.95))), ch.power_caps
        )
        assert is_degraded(ch)
        sup_hull = mac_hull_region(ch, schemes=("SUP",))
        shares = rng.uniform(0.05, 0.95)
        tdma = mac_tdma_region(ch, TdmaShares(np.array([shares, 1.0 - shares])))
        for x, y in tdma.vertices2d:
            pt = RatePoint([x, y], [0.0, 0.0])
            assert region_contains(sup_hull, pt), f"TDMA vertex ({x}, {y}) outside SUP hull"


def test_tw_region_monotone_in_power():
    # Monotonicity needs both gains <= 1: the sum-secrecy bound loses
    # d/dp1 >= 0 exactly when h2*p2 < h1 - 1, so a gain above one lets
    # extra power shrink the region (e.g. h=(1.51, 0.08)).
    rng = np.random.default_rng(23)
    for _ in range(50):
        ch = random_tw_instance(rng, gain_range=(0.0, 1.0))
        frac = rng.uniform(0.1, 0.9, 2)
        small = PowerAllocation(frac * ch.power_caps)
        large = PowerAllocation(np.minimum(frac * 1.5, 1.0) * ch.power_caps)
        lo = tw_region(ch, small)
        hi = tw_region(ch, large)
        for c_lo, c_hi in zip(lo.constraints, hi.constraints):
            assert c_lo.kind == c_hi.kind and c_lo.subset == c_hi.subset
            assert c_lo.bound <= c_hi.bound + 1e-12


def test_two_way_advantage_display_form():
    """The two-way sum bound splits into single-user terms that dominate
    the naive single-user wiretap rates, before any clamping."""
    rng = np.random.default_rng(24)
    for _ in range(200):
        h = rng.uniform(0.0, 2.0, 2)
        p = rng.uniform(0.1, 10.0, 2)
        lhs = (
            0.5 * np.log2(1 + p[0])
            + 0.5 * np.log2(1 + p[1])
            - 0.5 * np.log2(1 + h[0] * p[0] + h[1] * p[1])
        )
        mid = 0.5 * np.log2(1 + p[0]) - 0.5 * np.log2(1 + h[0] * p[0]) + (
            0.5 * np.log2(1 + p[1]) - 0.5 * np.log2(1 + h[1] * p[1] / (1 + h[0] * p[0]))
        )
        rhs = (
            0.5 * np.log2(1 + p[0])
            - 0.5 * np.log2(1 + h[0] * p[0])
            + 0.5 * np.log2(1 + p[1])
            - 0.5 * np.log2(1 + h[1] * p[1])
        )
        assert np.isclose(lhs, mid, rtol=0, atol=1e-9), f"identity broke: {lhs} vs {mid}"
        assert lhs >= rhs - 1e-9


def test_tdma_shares_validation():
    with pytest.raises(ValueError):
        TdmaShares(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        TdmaShares(np.array([-0.1, 1.1]))


@pytest.mark.parametrize("shares", [[np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0]])
def test_tdma_shares_reject_non_finite_values(shares):
    """A NaN passed the range and sum checks, which compared false, and gave
    NaN bounds; the region refuses it by name."""
    with pytest.raises(ValueError, match="shares must be finite"):
        TdmaShares(shares)
    with pytest.raises(ValueError, match="shares must be finite"):
        mac_tdma_region(FIG4_CH, shares)


def test_rate_point_rejects_negative():
    with pytest.raises(ValueError):
        RatePoint([-0.1, 0.0], [0.0, 0.0])


def test_rate_constraint_rejects_empty_subset():
    with pytest.raises(ValueError):
        RateConstraint((), KIND_SECRECY, 0.1)
