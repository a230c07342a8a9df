"""Tests for channel descriptions, standardization, and the rate helpers."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_rates import (
    GAIN_MERGE_RTOL,
    NonStandardizableChannel,
    PowerAllocation,
    RawMacChannel,
    RawTwChannel,
    StdMacChannel,
    StdTwChannel,
    channel_from_json,
    channel_to_json,
    is_degraded,
    mac_cj_optimal,
    merge_tied_users,
    standardize_mac,
    standardize_tw,
)
from secrecy_rates.allocation import _tdma_rate, sup_sum_rate, tw_sum_rate
from secrecy_rates.channels import secrecy_bits, tw_secrecy_bits
from secrecy_rates.jamming import _tw_cj_rule
from secrecy_rates.regions import (
    _sup_grid_bounds,
    _tdma_user_bounds,
    mac_hull_region,
    mac_sup_region,
    mac_tdma_region,
    tw_region,
)
from reference import (
    cap_eve,
    cap_eve_tilde,
    cap_main,
    phi,
    psi,
    random_tied_mac_row,
    reference_mac_hull_region,
    reference_mac_secrecy_bits,
    reference_mac_sup_region,
    reference_mac_tdma_region,
    reference_merge_tied_users,
    reference_split_back,
    reference_sup_grid_bounds,
    reference_tdma_rate,
    reference_tdma_user_bounds,
    reference_tw_region,
    reference_tw_rule_rates,
    reference_tw_secrecy_bits,
)

TOL = 1e-12


def test_standardize_mac_identity_gains_merge():
    raw = RawMacChannel([1.0, 1.0], [1.0, 1.0], 1.0, 1.0, [4.0, 2.0])
    ch = standardize_mac(raw)
    assert ch.k_users == 1
    assert np.isclose(ch.eve_gains[0], 1.0, rtol=0, atol=TOL)
    assert np.isclose(ch.power_caps[0], 6.0, rtol=0, atol=TOL), f"merged cap {ch.power_caps[0]}"
    assert ch.permutation == ((0, 1),)


def test_standardize_mac_hand_values():
    raw = RawMacChannel([2.0, 1.0], [1.0, 1.0], 1.0, 2.0, [2.0, 4.0])
    ch = standardize_mac(raw)
    assert np.allclose(ch.eve_gains, [0.25, 0.5], rtol=0, atol=TOL)
    assert np.allclose(ch.power_caps, [4.0, 4.0], rtol=0, atol=TOL)


def test_standardize_mac_zero_main_gain_rejected():
    raw = RawMacChannel([0.0, 1.0], [1.0, 1.0], 1.0, 1.0, [4.0, 2.0])
    with pytest.raises(NonStandardizableChannel):
        standardize_mac(raw)


def test_standardize_mac_records_sort_permutation():
    # descending raw eavesdropper advantage must come out ascending
    raw = RawMacChannel([1.0, 1.0], [0.9, 0.2], 1.0, 1.0, [1.0, 7.0])
    ch = standardize_mac(raw)
    assert np.all(np.diff(ch.eve_gains) > 0)
    assert ch.permutation == ((1,), (0,))
    assert np.allclose(ch.power_caps, [7.0, 1.0])


def test_standardize_tw_identity():
    raw = RawTwChannel([1.0, 1.0], [1.0, 1.0], [1.0, 1.0], 1.0, [4.0, 2.0])
    ch = standardize_tw(raw)
    assert np.allclose(ch.eve_gains, [1.0, 1.0], rtol=0, atol=TOL)
    assert np.allclose(ch.power_caps, [4.0, 2.0], rtol=0, atol=TOL)


def test_standardize_tw_hand_values():
    raw = RawTwChannel([1.0, 2.0], [1.0, 1.0], [1.0, 2.0], 1.0, [1.0, 1.0])
    ch = standardize_tw(raw)
    assert np.allclose(ch.eve_gains, [2.0, 0.5], rtol=0, atol=TOL)
    assert np.allclose(ch.power_caps, [0.5, 2.0], rtol=0, atol=TOL)


def test_standardize_tw_zero_main_gain_rejected():
    raw = RawTwChannel([1.0, 0.0], [1.0, 1.0], [1.0, 1.0], 1.0, [1.0, 1.0])
    with pytest.raises(NonStandardizableChannel):
        standardize_tw(raw)


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            RawMacChannel([1e-300, 1.0], [1e10, 1.0], 1.0, 1.0, [1.0, 1.0]),
            "eve gain of user 1 is not finite: tap_gains 10000000000.0 * main_noise 1.0"
            " / (main_gains 1e-300 * tap_noise 1.0)",
        ),
        (
            RawMacChannel([1.0, 1e-300], [1.0, 1e10], 2.0, 0.5, [1.0, 1.0]),
            "eve gain of user 2 is not finite: tap_gains 10000000000.0 * main_noise 2.0"
            " / (main_gains 1e-300 * tap_noise 0.5)",
        ),
        # tap_gains * main_noise and main_gains * tap_noise both overflow: a NaN
        (
            RawMacChannel([1e300, 1.0], [1e300, 1.0], 1e10, 1e10, [1.0, 1.0]),
            "eve gain of user 1 is not finite: tap_gains 1e+300 * main_noise 10000000000.0"
            " / (main_gains 1e+300 * tap_noise 10000000000.0)",
        ),
        (
            RawMacChannel([1e300, 1.0], [1.0, 1.0], 1.0, 1.0, [1e10, 1.0]),
            "power cap of user 1 is not finite: main_gains 1e+300 * power_caps 10000000000.0"
            " / main_noise 1.0",
        ),
        (
            RawTwChannel([1e-300, 1.0], [1e10, 1.0], [1.0, 3.0], 1.0, [1.0, 1.0]),
            "eve gain of user 1 is not finite: tap_gains 10000000000.0 * receiver_noises 3.0"
            " / (main_gains 1e-300 * tap_noise 1.0)",
        ),
        (
            RawTwChannel([1.0, 1e300], [1.0, 1.0], [0.5, 1.0], 1.0, [1.0, 1e10]),
            "power cap of user 2 is not finite: main_gains 1e+300 * power_caps 10000000000.0"
            " / receiver_noises 0.5",
        ),
    ],
)
def test_standardize_names_the_user_and_raw_fields_of_an_overflow(raw, message):
    """A standardized gain or cap that is not finite is a ValueError that
    names the user and its raw fields, with no RuntimeWarning before it."""
    standardize = standardize_mac if isinstance(raw, RawMacChannel) else standardize_tw
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"standardized {message}")):
            standardize(raw)


def test_cap_main_examples():
    alloc = PowerAllocation([4.0, 2.0])
    assert np.isclose(cap_main(alloc, [0, 1]), 0.5 * np.log2(7.0), rtol=0, atol=TOL)
    assert cap_main(alloc, []) == 0.0
    assert cap_main(PowerAllocation([0.0, 0.0]), [0, 1]) == 0.0


def test_cap_eve_and_tilde_examples():
    gains = np.array([0.1, 0.3])
    alloc = PowerAllocation([4.0, 4.0])
    full = cap_eve(alloc, gains, [0, 1])
    assert np.isclose(full, 0.5 * np.log2(2.6), rtol=0, atol=TOL), f"cap_eve {full}"
    assert np.isclose(full, 0.6892558116268649, rtol=0, atol=TOL)
    assert cap_eve_tilde(alloc, gains, [0, 1]) == full
    single = cap_eve_tilde(alloc, gains, [0])
    assert np.isclose(single, 0.5 * np.log2(1 + 0.4 / 2.2), rtol=0, atol=TOL)
    assert np.isclose(single, 0.12050404975189749, rtol=0, atol=TOL)


def test_deaf_eavesdropper_rates_zero():
    alloc = PowerAllocation([4.0, 4.0])
    gains = np.zeros(2)
    for subset in ([0], [1], [0, 1]):
        assert cap_eve(alloc, gains, subset) == 0.0
        assert cap_eve_tilde(alloc, gains, subset) == 0.0


def test_phi_examples():
    gains = np.array([0.1, 0.3])
    assert phi(PowerAllocation([4.0, 0.0]), gains, [0]) == pytest.approx(0.28, abs=TOL)
    assert phi(PowerAllocation([0.0, 0.0]), gains, [0, 1]) == 1.0
    assert phi(PowerAllocation([3.0, 5.0]), np.ones(2), [0, 1]) == 1.0
    assert phi(PowerAllocation([3.0, 5.0]), gains, []) == 1.0


def test_psi_examples():
    assert psi(PowerAllocation([4.0, 2.0]), np.array([0.3, 0.7]), [0, 1]) == pytest.approx(
        0.24, abs=TOL
    )
    assert psi(PowerAllocation([0.0, 0.0]), np.array([0.3, 0.7]), [0, 1]) == 1.0
    got = psi(PowerAllocation([4.0, 2.0]), np.array([0.3, 4.2]), [1])
    assert np.isclose(got, 9.4 / 3.0, rtol=0, atol=TOL), f"psi single {got}"
    assert psi(PowerAllocation([4.0, 2.0]), np.array([0.3, 0.7]), []) == 1.0


def test_is_degraded():
    assert is_degraded(StdMacChannel([0.4, 0.4], [1.0, 1.0]))
    assert not is_degraded(StdMacChannel([0.4, 0.5], [1.0, 1.0]))
    assert not is_degraded(StdMacChannel([1.2, 1.2], [1.0, 1.0]))


def test_merge_tied_users_sums_caps_and_splits_back():
    ch = merge_tied_users([0.5, 0.5], [3.0, 1.0])
    assert ch.k_users == 1
    assert ch.power_caps[0] == 4.0
    assert ch.permutation == ((0, 1),)
    assert ch.source_caps == ((3.0, 1.0),)
    # split-back is proportional to the original caps
    assert np.allclose(ch.split_back([4.0]), [3.0, 1.0], rtol=0, atol=TOL)
    assert np.allclose(ch.split_back([2.0]), [1.5, 0.5], rtol=0, atol=TOL)


def test_merge_keeps_distinct_gains_apart():
    ch = merge_tied_users([0.2, 0.5, 0.5 + 1e-6], [1.0, 2.0, 3.0])
    assert ch.k_users == 3
    ch2 = merge_tied_users([0.2, 0.5, 0.5 * (1 + 1e-12)], [1.0, 2.0, 3.0])
    assert ch2.k_users == 2
    assert ch2.power_caps[1] == 5.0
    # spacing exactly GAIN_MERGE_RTOL times the larger gain ties; one ulp wider does not
    lo, hi = 0.3000000245221113, 0.3000000248221113
    assert hi - lo == GAIN_MERGE_RTOL * hi
    for a, tied in ((lo, True), (np.nextafter(lo, 1.0), True), (np.nextafter(lo, 0.0), False)):
        merged = merge_tied_users([hi, a], [1.0, 2.0])
        assert merged.k_users == (1 if tied else 2)
        assert StdMacChannel([a, hi], [1.0, 2.0]).has_strictly_ascending_gains() is not tied
    # zero gains tie only with each other, equal gains always
    for gains, groups in (([0.0, 0.0], 1), ([0.0, 1e-300], 2), ([0.7, 0.7, 0.7], 1)):
        merged = merge_tied_users(gains, np.ones(len(gains)))
        assert merged.k_users == groups
        assert StdMacChannel(gains, np.ones(len(gains))).has_strictly_ascending_gains() is (
            groups == len(gains)
        )


def test_merge_keeps_a_singleton_gain_as_given():
    """A user in no tie keeps its gain bit for bit; the cap-weighted mean
    h * c / c of a group of one would move 0.1 and 0.7 at cap 3 by an ulp
    each, and near the tie boundary break the merged channel's strict
    order."""
    assert merge_tied_users([0.1, 0.7], [3, 3]).eve_gains.tolist() == [0.1, 0.7]
    rng = np.random.default_rng(19)
    h, caps = rng.uniform(0.0, 2.0, (500, 4)), rng.uniform(0.1, 10.0, (500, 4))
    for gains, cap in zip(h, caps):
        assert np.array_equal(merge_tied_users(gains, cap).eve_gains, np.sort(gains))
    lo, hi = 0.3000000245221112, 0.3000000248221113
    assert merge_tied_users([lo, hi], [6.773061453610659, 1.0]).has_strictly_ascending_gains()


def _assert_same_channel(ch, ref):
    assert np.array_equal(ch.eve_gains, ref.eve_gains) and np.array_equal(ch.power_caps, ref.power_caps)
    assert ch.permutation == ref.permutation and ch.source_caps == ref.source_caps


def test_merge_and_split_back_equal_the_per_group_loops():
    """merge_tied_users and split_back, one array code over the tie groups,
    equal the per-group loops of reference.py (== on every float) on seeded
    channels of 1 to 8 users (and some of 9 to 16) with 2-, 3- and 4-way
    ties and groups whose caps sum to 0 (the plain-mean gain), with and
    without source_caps."""
    rng = np.random.default_rng(16)
    sizes, zero_groups = set(), 0
    for trial in range(3000):
        h, caps = random_tied_mac_row(rng, 1 + trial % 8 if trial < 2800 else int(rng.integers(9, 17)))
        ch = merge_tied_users(h, caps)
        _assert_same_channel(ch, reference_merge_tied_users(h, caps))
        sizes.update(map(len, ch.permutation))
        zero_groups += int((ch.power_caps == 0).sum())
        powers = rng.uniform(0.0, 3.0, ch.k_users) * (rng.random(ch.k_users) >= 0.2)
        bare = StdMacChannel(ch.eve_gains, ch.power_caps, ch.permutation)
        for channel in (ch, bare):
            assert np.array_equal(channel.split_back(powers), reference_split_back(channel, powers))
    assert {1, 2, 3, 4} <= sizes and zero_groups > 100


def test_split_back_of_a_json_channel_without_source_caps():
    """A standardized channel read from JSON with no source_caps splits each
    group's power by cap / group size, as the per-group loop does (six
    times 1/6 sums to 1 - 2**-53, so the group's cap is not the cap)."""
    doc = {
        "form": "standardized",
        "model": "mac",
        "eve_gains": [0.3, 0.7, 1.4],
        "power_caps": [1.0, 5.0, 0.0],
        "permutation": [[2, 4, 5, 7, 8, 9], [1, 6], [3]],
    }
    ch = channel_from_json(doc)
    assert ch.source_caps is None and np.full(6, 1.0 / 6).sum() == 1.0 - 2.0**-53
    for powers in ([1.7, 0.3, 0.0], [1.0, 5.0, 2.0], [0.1, 0.0, 0.4]):
        assert np.array_equal(ch.split_back(powers), reference_split_back(ch, powers))
    assert ch.split_back([1.0, 5.0, 2.0])[[0, 5, 2]].tolist() == [2.5, 2.5, 0.0]
    with pytest.raises(ValueError, match="source_caps"):
        StdMacChannel([0.3], [3.0], ((0, 1),), ((1.0, 1.0, 1.0),)).split_back([1.0])


@pytest.mark.parametrize(
    "permutation",
    [[[1], [1]], [[1], [5]], [[1, 2], []]],
    ids=["repeated-user", "unknown-user", "empty-group"],
)
def test_std_channel_permutation_must_partition_the_original_users(permutation):
    """A permutation that repeats, skips or leaves empty an original user is
    refused by name, instead of splitting power to the wrong users, raising
    IndexError, or averaging an empty group."""
    doc = {"form": "standardized", "model": "mac", "eve_gains": [0.3, 0.7], "power_caps": [1.0, 2.0]}
    with pytest.raises(ValueError, match="permutation"):
        channel_from_json({**doc, "permutation": permutation})
    assert channel_from_json({**doc, "permutation": [[2], [1]]}).split_back([1.0, 2.0]).tolist() == [2.0, 1.0]


def test_std_channel_requires_ascending_gains():
    with pytest.raises(ValueError):
        StdMacChannel([0.5, 0.3], [1.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    h_main=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=2, max_size=4),
)
def test_standardization_scale_invariance(scale, h_main):
    """Scaling the main noise and all main gains together changes nothing."""
    k = len(h_main)
    h_tap = [0.3 + 0.2 * i for i in range(k)]
    caps = [1.0 + i for i in range(k)]
    base = standardize_mac(RawMacChannel(h_main, h_tap, 1.0, 1.0, caps))
    scaled = standardize_mac(
        RawMacChannel([g * scale for g in h_main], h_tap, scale, 1.0, caps)
    )
    assert np.allclose(base.eve_gains, scaled.eve_gains, rtol=0, atol=1e-12)
    assert np.allclose(base.power_caps, scaled.power_caps, rtol=1e-12, atol=1e-12)


def test_rate_monotonicity_in_power():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(2, 4))
        gains = rng.uniform(0.0, 2.0, k)
        p = rng.uniform(0.0, 5.0, k)
        j = int(rng.integers(0, k))
        bumped = p.copy()
        bumped[j] += rng.uniform(0.01, 2.0)
        subset = [i for i in range(k) if rng.random() < 0.7] or [j]
        a, b = PowerAllocation(p), PowerAllocation(bumped)
        assert cap_main(b, subset) >= cap_main(a, subset) - TOL
        assert cap_eve(b, gains, subset) >= cap_eve(a, gains, subset) - TOL
        if j in subset:
            assert cap_eve_tilde(b, gains, subset) >= cap_eve_tilde(a, gains, subset) - TOL
        else:
            assert cap_eve_tilde(b, gains, subset) <= cap_eve_tilde(a, gains, subset) + TOL


def test_tilde_never_exceeds_cap_eve():
    rng = np.random.default_rng(12)
    for _ in range(200):
        k = int(rng.integers(2, 5))
        gains = rng.uniform(0.0, 2.0, k)
        alloc = PowerAllocation(rng.uniform(0.0, 5.0, k))
        subset = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
        lo = cap_eve_tilde(alloc, gains, subset)
        hi = cap_eve(alloc, gains, subset)
        assert lo <= hi + TOL
        outside = sum(gains[i] * alloc.powers[i] for i in range(k) if i not in subset)
        if outside == 0.0:
            assert np.isclose(lo, hi, rtol=0, atol=TOL)


@settings(max_examples=80, deadline=None)
@given(
    h1=st.floats(min_value=0.0, max_value=3.0),
    h2=st.floats(min_value=0.0, max_value=3.0),
    p1=st.floats(min_value=0.0, max_value=10.0),
    p2=st.floats(min_value=0.0, max_value=10.0),
)
def test_phi_bounds(h1, h2, p1, p2):
    gains = np.array([h1, h2])
    val = phi(PowerAllocation([p1, p2]), gains, [0, 1])
    lo = min(h1, h2, 1.0)
    hi = max(h1, h2, 1.0)
    assert lo - 1e-9 <= val <= hi + 1e-9, f"phi {val} outside [{lo}, {hi}]"


def test_mac_channel_json_round_trip():
    raw = RawMacChannel([2.0, 1.0], [1.0, 1.0], 1.0, 2.0, [2.0, 4.0])
    doc = channel_to_json(raw)
    for key in ("main_gains", "tap_gains", "main_noise", "tap_noise", "power_caps"):
        assert key in doc, f"raw JSON missing {key}"
    back = channel_from_json(doc)
    assert isinstance(back, RawMacChannel)
    assert np.allclose(back.main_gains, raw.main_gains)
    assert np.allclose(back.power_caps, raw.power_caps)

    std = standardize_mac(raw)
    doc2 = channel_to_json(std)
    for key in ("eve_gains", "power_caps", "permutation"):
        assert key in doc2
    back2 = channel_from_json(doc2)
    assert isinstance(back2, StdMacChannel)
    assert np.allclose(back2.eve_gains, std.eve_gains)
    assert back2.permutation == std.permutation


def test_tw_channel_json_round_trip():
    raw = RawTwChannel([1.0, 2.0], [1.0, 1.0], [1.0, 2.0], 1.0, [1.0, 1.0])
    std = standardize_tw(raw)
    back = channel_from_json(channel_to_json(std))
    assert isinstance(back, StdTwChannel)
    assert np.allclose(back.eve_gains, std.eve_gains)
    assert np.allclose(back.power_caps, std.power_caps)


def test_std_tw_document_with_self_gains_loads_and_reemits_without_them():
    """A standardized two-way document that still carries self_gains loads:
    like any key the class has no field for, they are ignored, and the
    channel is written back without them."""
    doc = {"form": "standardized", "model": "tw", "eve_gains": [0.5, 4.2], "self_gains": [0.0, 0.25],
           "power_caps": [2.0, 2.0]}
    ch = channel_from_json(doc)
    assert isinstance(ch, StdTwChannel)
    assert channel_to_json(ch) == {"form": "standardized", "model": "tw", "eve_gains": [0.5, 4.2],
                                   "power_caps": [2.0, 2.0]}


def test_channel_json_missing_field_names_it():
    doc = channel_to_json(StdMacChannel([0.1, 0.3], [4.0, 4.0]))
    del doc["power_caps"]
    with pytest.raises(ValueError, match="power_caps"):
        channel_from_json(doc)


# One channel of each class (the standardized MAC channel with and without
# source_caps) and its JSON document, keys in the order they are written.
JSON_CHANNELS = [
    (
        RawMacChannel([2.0, 1.0], [1.0, 0.5], 1.0, 2.0, [2.0, 4.0]),
        {"form": "raw", "model": "mac", "main_gains": [2.0, 1.0], "tap_gains": [1.0, 0.5],
         "main_noise": 1.0, "tap_noise": 2.0, "power_caps": [2.0, 4.0]},
    ),
    (
        merge_tied_users([0.5, 0.3, 0.5], [1.0, 2.0, 3.0]),
        {"form": "standardized", "model": "mac", "eve_gains": [0.3, 0.5], "power_caps": [2.0, 4.0],
         "permutation": [[2], [1, 3]], "source_caps": [[2.0], [1.0, 3.0]]},
    ),
    (
        StdMacChannel([0.1, 0.3], [4.0, 4.0]),
        {"form": "standardized", "model": "mac", "eve_gains": [0.1, 0.3], "power_caps": [4.0, 4.0],
         "permutation": [[1], [2]]},
    ),
    (
        RawTwChannel([1.0, 2.0], [1.0, 0.5], [1.0, 2.0], 1.5, [1.0, 3.0]),
        {"form": "raw", "model": "tw", "main_gains": [1.0, 2.0], "tap_gains": [1.0, 0.5],
         "receiver_noises": [1.0, 2.0], "tap_noise": 1.5, "power_caps": [1.0, 3.0]},
    ),
    (
        StdTwChannel([0.5, 4.2], [2.0, 2.0]),
        {"form": "standardized", "model": "tw", "eve_gains": [0.5, 4.2], "power_caps": [2.0, 2.0]},
    ),
]


@pytest.mark.parametrize(
    "ch, want", JSON_CHANNELS, ids=["raw-mac", "std-mac-merged", "std-mac", "raw-tw", "std-tw"]
)
def test_channel_json_fields_and_missing_field_errors(ch, want):
    """Each channel class writes its fields in a fixed order and reads them
    back; a document without any one required field is refused naming it,
    and one without all of them names the first."""
    doc = channel_to_json(ch)
    assert list(doc.items()) == list(want.items())
    assert channel_to_json(channel_from_json(doc)) == doc
    required = [key for key in want if key not in ("permutation", "source_caps")]
    for key in required:
        partial = {k: v for k, v in want.items() if k != key}
        with pytest.raises(ValueError, match=re.escape(f"channel JSON is missing field '{key}'")):
            channel_from_json(partial)
    with pytest.raises(ValueError, match=re.escape(f"channel JSON is missing field '{required[2]}'")):
        channel_from_json({"form": want["form"], "model": want["model"]})


def _scaled_powers(rng, k):
    """k powers at one scale drawn from 1e-8 to 1e8, about a quarter of them 0."""
    return 10.0 ** rng.uniform(-8.0, 8.0) * rng.uniform(0.0, 1.0, k) * (rng.random(k) > 0.25)


def _shares(rng, k):
    """Time shares on the simplex, about a quarter of them 0 (never all)."""
    w = rng.uniform(0.0, 1.0, k) * (rng.random(k) > 0.25)
    w[rng.integers(k)] += 0.5
    return w / w.sum()


def _region_bits(region):
    return region.constraints, region.vertices2d


TW_TRANSMIT_SETS = ((), (0,), (1,), (0, 1))


def test_secrecy_rate_sites_equal_their_written_out_forms():
    """Every site that evaluates a secrecy rate is == to the arithmetic it
    wrote out before the rates had one function per scheme (reference.py):
    the MAC rate and its solvers, the jamming pass for K <= 3 (where its
    prefix and suffix sums group like masked sums), the superposition
    region's subset bounds, whose index-set sums group differently from a
    masked sum's from K = 8 on, its 2-user grid, the TDMA slot bounds and
    rate, the 1-user hull, and the two-way rule, rate and region on all four
    transmit sets.  K runs from 1 to 12 at power scales from 1e-8 to 1e8,
    and the TDMA rate also at K = 128."""
    rng = np.random.default_rng(18)
    for draw in range(480):
        k = draw % 12 + 1
        h, powers = np.sort(rng.uniform(0.0, 2.0, k)), _scaled_powers(rng, k)
        ch = StdMacChannel(h, powers)
        transmit = np.flatnonzero(rng.random(k) < 0.5).tolist()
        in_t, hp = np.isin(np.arange(k), transmit), h * powers
        p_t, hp_t = powers * in_t, hp * in_t
        masked = secrecy_bits(p_t.sum(), (powers - p_t).sum(), hp_t.sum(), (hp - hp_t).sum())
        assert max(float(masked), 0.0) == reference_mac_secrecy_bits(powers, h, transmit)
        assert sup_sum_rate(powers, h) == reference_mac_secrecy_bits(powers, h, range(k))
        if k <= 3:  # the jamming pass at its own allocation, with the powers as caps
            sol = mac_cj_optimal(ch)
            assert sol.sum_rate == reference_mac_secrecy_bits(sol.allocation.powers, h, sol.transmit_set)
        if k <= 10 and draw % 3 == 0:
            assert _region_bits(mac_sup_region(ch, powers)) == _region_bits(reference_mac_sup_region(ch, powers))
        shares = _shares(rng, k)
        want = [reference_tdma_user_bounds(*u) for u in zip(h.tolist(), powers.tolist(), shares.tolist())]
        assert list(zip(*(b.tolist() for b in _tdma_user_bounds(h, powers, shares)))) == want
        assert _region_bits(mac_tdma_region(ch, shares)) == _region_bits(reference_mac_tdma_region(ch, shares))
        assert _tdma_rate(h, powers, shares) == reference_tdma_rate(h, powers, shares)
        if k == 1:
            assert _region_bits(mac_hull_region(ch)) == _region_bits(reference_mac_hull_region(ch))
        if k == 2:
            got, want = _sup_grid_bounds(ch, 9), reference_sup_grid_bounds(ch, 9)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            two_way = StdTwChannel(h[rng.permutation(2)], powers)
            gains = two_way.eve_gains
            for t_set in TW_TRANSMIT_SETS:
                mask = np.isin(np.arange(2), t_set)
                rate = tw_secrecy_bits(powers, gains, mask)
                assert max(float(rate), 0.0) == reference_tw_secrecy_bits(powers, gains, t_set)
                assert rate == reference_tw_rule_rates(gains[None], powers[None], mask)
            assert tw_sum_rate(powers, gains) == reference_tw_secrecy_bits(powers, gains, (0, 1))
            assert _region_bits(tw_region(two_way, powers)) == _region_bits(reference_tw_region(two_way, powers))
    for _ in range(10):
        h, caps = np.sort(rng.uniform(0.0, 1.2, 128)), _scaled_powers(rng, 128)
        shares = _shares(rng, 128)
        assert _tdma_rate(h, caps, shares) == reference_tdma_rate(h, caps, shares)
    # the two-way rule on channels on both sides of every threshold; its
    # rates are reported where positive, and those rows keep their powers
    h = rng.uniform(0.0, 3.0, (2000, 2))
    caps = 10.0 ** rng.uniform(-8.0, 8.0, (2000, 1)) * rng.uniform(0.0, 1.0, (2000, 2))
    powers, transmit, _, rate, *_ = _tw_cj_rule(h, caps)
    shown = rate > 0.0
    assert shown.sum() > 500
    assert np.array_equal(rate[shown], reference_tw_rule_rates(h, powers, transmit)[shown])
