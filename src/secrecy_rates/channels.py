"""Channel descriptions and elementary rate primitives.

Raw channels carry physical gains and noise variances for the Gaussian
multiple-access wiretap setup (K transmitters, one receiver, one
eavesdropper) and the two-way wiretap setup (two terminals that are each
other's receivers).  Standardization rescales either setup to unit main
gains and unit noise, condensing the eavesdropper's advantage for user k
into a single dimensionless gain h_k.  Everything downstream (regions,
optimizers, oracles) works on the standardized form, and all rates are
reported in bits per channel use.  Every solver and region rate takes its
logarithm in one kernel, ``gaussian_bits`` (C(snr) = 1/2 log2(1 + snr)
through log1p, so small SNRs keep their relative accuracy), or in its
array form ``gaussian_bits_array``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Absolute tolerance for threshold comparisons (strict inequalities are
# evaluated as a < b - TOL_ABS so that boundary cases fall on the
# power-conserving side).
TOL_ABS = 1e-12

# Relative tolerance under which two standardized gains count as equal and
# their users are merged into one super-user with the summed power cap.
GAIN_MERGE_RTOL = 1e-9

_LN2 = math.log(2.0)


class NonStandardizableChannel(ValueError):
    """Raised when a raw channel has a zero main gain and cannot be rescaled."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D sequence, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass
class RawMacChannel:
    """Physical multiple-access wiretap channel before standardization.

    Args:
        main_gains: power gain from each transmitter to the receiver.
        tap_gains: power gain from each transmitter to the eavesdropper.
        main_noise: receiver noise variance.
        tap_noise: eavesdropper noise variance.
        power_caps: per-user transmit power limits.
    """

    main_gains: np.ndarray
    tap_gains: np.ndarray
    main_noise: float
    tap_noise: float
    power_caps: np.ndarray

    def __post_init__(self):
        self.main_gains = _as_float_array(self.main_gains, "main_gains")
        self.tap_gains = _as_float_array(self.tap_gains, "tap_gains")
        self.power_caps = _as_float_array(self.power_caps, "power_caps")
        self.main_noise = float(self.main_noise)
        self.tap_noise = float(self.tap_noise)
        k = len(self.main_gains)
        if len(self.tap_gains) != k or len(self.power_caps) != k:
            raise ValueError("main_gains, tap_gains and power_caps must have equal length")
        if k == 0:
            raise ValueError("main_gains must contain at least one user")
        if np.any(self.main_gains < 0) or np.any(self.tap_gains < 0):
            raise ValueError("main_gains and tap_gains must be nonnegative")
        if self.main_noise <= 0 or self.tap_noise <= 0:
            raise ValueError("main_noise and tap_noise must be positive")
        if np.any(self.power_caps < 0):
            raise ValueError("power_caps must be nonnegative")

    @property
    def k_users(self) -> int:
        return len(self.main_gains)


@dataclass
class StdMacChannel:
    """Standardized multiple-access wiretap channel.

    Users are stored sorted by ascending eavesdropper gain.  ``permutation``
    records, for each stored user, the tuple of original user indices it
    represents (more than one after a tie merge); ``source_caps`` keeps the
    per-original-user standardized caps so merged power can be split back
    proportionally.  Channels built directly (not via ``standardize_mac``)
    may contain tied gains; the prefix-structured optimizers require the
    merged form and will say so.
    """

    eve_gains: np.ndarray
    power_caps: np.ndarray
    permutation: Tuple[Tuple[int, ...], ...] = ()
    source_caps: Optional[Tuple[Tuple[float, ...], ...]] = None

    def __post_init__(self):
        self.eve_gains = _as_float_array(self.eve_gains, "eve_gains")
        self.power_caps = _as_float_array(self.power_caps, "power_caps")
        if len(self.eve_gains) != len(self.power_caps):
            raise ValueError("eve_gains and power_caps must have equal length")
        if len(self.eve_gains) == 0:
            raise ValueError("eve_gains must contain at least one user")
        if np.any(self.eve_gains < 0):
            raise ValueError("eve_gains must be nonnegative")
        if np.any(self.power_caps < 0):
            raise ValueError("power_caps must be nonnegative")
        if np.any(np.diff(self.eve_gains) < 0):
            raise ValueError("eve_gains must be sorted ascending")
        if not self.permutation:
            self.permutation = tuple((k,) for k in range(len(self.eve_gains)))
        else:
            self.permutation = tuple(tuple(int(i) for i in g) for g in self.permutation)
        if len(self.permutation) != len(self.eve_gains):
            raise ValueError("permutation must list one group per stored user")
        if self.source_caps is not None:
            self.source_caps = tuple(tuple(float(c) for c in g) for g in self.source_caps)

    @property
    def k_users(self) -> int:
        return len(self.eve_gains)

    def has_strictly_ascending_gains(self) -> bool:
        h = self.eve_gains
        for i in range(len(h) - 1):
            if h[i + 1] - h[i] <= GAIN_MERGE_RTOL * max(abs(h[i + 1]), abs(h[i])):
                return False
        return True

    def split_back(self, powers) -> np.ndarray:
        """Distribute per-stored-user powers over the original users.

        A merged super-user's power is split proportionally to the original
        standardized caps of its members (any split achieves the same rate).
        """
        powers = np.asarray(powers, dtype=float)
        if len(powers) != self.k_users:
            raise ValueError("powers length must match k_users")
        n_orig = sum(len(g) for g in self.permutation)
        out = np.zeros(n_orig)
        for i, group in enumerate(self.permutation):
            if self.source_caps is not None:
                caps = np.asarray(self.source_caps[i], dtype=float)
            else:
                caps = np.full(len(group), self.power_caps[i] / max(len(group), 1))
            total = float(powers[i])
            cap_sum = caps.sum()
            for j, orig in enumerate(group):
                out[orig] = total * caps[j] / cap_sum if cap_sum > 0 else 0.0
        return out


@dataclass
class RawTwChannel:
    """Physical two-way wiretap channel before standardization.

    ``main_gains[k]`` is the gain of terminal k's signal at the other
    terminal's receiver; ``receiver_noises[k]`` is the noise variance at
    terminal k's own receiver.
    """

    main_gains: np.ndarray
    tap_gains: np.ndarray
    receiver_noises: np.ndarray
    tap_noise: float
    power_caps: np.ndarray

    def __post_init__(self):
        self.main_gains = _as_float_array(self.main_gains, "main_gains")
        self.tap_gains = _as_float_array(self.tap_gains, "tap_gains")
        self.receiver_noises = _as_float_array(self.receiver_noises, "receiver_noises")
        self.power_caps = _as_float_array(self.power_caps, "power_caps")
        self.tap_noise = float(self.tap_noise)
        for name, arr in (
            ("main_gains", self.main_gains),
            ("tap_gains", self.tap_gains),
            ("receiver_noises", self.receiver_noises),
            ("power_caps", self.power_caps),
        ):
            if len(arr) != 2:
                raise ValueError(f"{name} must have length 2")
        if np.any(self.main_gains < 0) or np.any(self.tap_gains < 0):
            raise ValueError("main_gains and tap_gains must be nonnegative")
        if np.any(self.receiver_noises <= 0) or self.tap_noise <= 0:
            raise ValueError("receiver_noises and tap_noise must be positive")
        if np.any(self.power_caps < 0):
            raise ValueError("power_caps must be nonnegative")

    @property
    def k_users(self) -> int:
        return 2


@dataclass
class StdTwChannel:
    """Standardized two-way wiretap channel.

    ``self_gains`` are the residual gains each terminal sees on its own
    echo; receivers subtract their own transmission, so these never enter
    any rate expression.  They are kept for serialization fidelity.
    """

    eve_gains: np.ndarray
    self_gains: np.ndarray
    power_caps: np.ndarray

    def __post_init__(self):
        self.eve_gains = _as_float_array(self.eve_gains, "eve_gains")
        self.self_gains = _as_float_array(self.self_gains, "self_gains")
        self.power_caps = _as_float_array(self.power_caps, "power_caps")
        for name, arr in (
            ("eve_gains", self.eve_gains),
            ("self_gains", self.self_gains),
            ("power_caps", self.power_caps),
        ):
            if len(arr) != 2:
                raise ValueError(f"{name} must have length 2")
            if np.any(arr < 0):
                raise ValueError(f"{name} must be nonnegative")

    @property
    def k_users(self) -> int:
        return 2


@dataclass
class PowerAllocation:
    """Per-user transmit powers, valid when 0 <= P_k <= cap_k."""

    powers: np.ndarray

    def __post_init__(self):
        self.powers = _as_float_array(self.powers, "powers")
        if np.any(self.powers < 0):
            raise ValueError("powers must be nonnegative")

    @classmethod
    def zeros(cls, k: int) -> "PowerAllocation":
        return cls(np.zeros(k))

    def validate_against(self, caps) -> None:
        caps = np.asarray(caps, dtype=float)
        if np.any(self.powers > caps + TOL_ABS):
            raise ValueError("powers exceed the channel's power caps")


def _powers_of(alloc) -> np.ndarray:
    if isinstance(alloc, PowerAllocation):
        return alloc.powers
    return np.asarray(alloc, dtype=float)


def _gains_of(gains) -> np.ndarray:
    if isinstance(gains, (StdMacChannel, StdTwChannel)):
        return gains.eve_gains
    return np.asarray(gains, dtype=float)


def merge_tied_users(eve_gains, power_caps) -> StdMacChannel:
    """Sort users by gain and merge ties into super-users.

    Gains whose relative spacing is at most ``GAIN_MERGE_RTOL`` are treated
    as equal.  The merged user carries the cap-weighted mean gain (plain
    mean when the caps sum to zero) and the summed cap; the constituent
    original indices and caps are recorded for splitting power back.
    """
    h = _as_float_array(eve_gains, "eve_gains")
    caps = _as_float_array(power_caps, "power_caps")
    if len(h) != len(caps):
        raise ValueError("eve_gains and power_caps must have equal length")
    order = np.argsort(h, kind="stable")
    h_sorted = h[order]
    caps_sorted = caps[order]

    groups: List[List[int]] = []
    for pos in range(len(order)):
        if groups:
            prev = h_sorted[groups[-1][-1]]
            cur = h_sorted[pos]
            if cur - prev <= GAIN_MERGE_RTOL * max(abs(cur), abs(prev)):
                groups[-1].append(pos)
                continue
        groups.append([pos])

    merged_h = []
    merged_caps = []
    permutation = []
    source_caps = []
    for grp in groups:
        gh = h_sorted[grp]
        gc = caps_sorted[grp]
        cap_sum = gc.sum()
        gain = float(np.dot(gh, gc) / cap_sum) if cap_sum > 0 else float(gh.mean())
        merged_h.append(gain)
        merged_caps.append(float(cap_sum))
        permutation.append(tuple(int(order[p]) for p in grp))
        source_caps.append(tuple(float(c) for c in gc))
    return StdMacChannel(
        np.array(merged_h),
        np.array(merged_caps),
        tuple(permutation),
        tuple(source_caps),
    )


def standardize_mac(raw: RawMacChannel) -> StdMacChannel:
    """Rescale a raw MAC wiretap channel to the unit-gain, unit-noise form.

    The eavesdropper gain becomes h_k = tap_gain_k * main_noise /
    (main_gain_k * tap_noise) and the cap becomes main_gain_k * raw_cap_k /
    main_noise.  Users come out sorted ascending by h_k with tied users
    merged.

    Raises:
        NonStandardizableChannel: if any main gain is zero.
    """
    for k, g in enumerate(raw.main_gains):
        if g == 0:
            raise NonStandardizableChannel(
                f"main gain of user {k + 1} is zero; the channel cannot be standardized"
            )
    h = raw.tap_gains * raw.main_noise / (raw.main_gains * raw.tap_noise)
    caps = raw.main_gains * raw.power_caps / raw.main_noise
    return merge_tied_users(h, caps)


def standardize_tw(raw: RawTwChannel) -> StdTwChannel:
    """Rescale a raw two-way wiretap channel to the standard form.

    Terminal k's power is normalized by the noise at the opposite receiver,
    so the standardized cap is main_gain_k * raw_cap_k / other_noise and the
    eavesdropper gain is tap_gain_k * other_noise / (main_gain_k *
    tap_noise).  Self gains are recorded but never used in rate math.
    """
    g1, g2 = raw.main_gains
    if g1 == 0 or g2 == 0:
        bad = 1 if g1 == 0 else 2
        raise NonStandardizableChannel(
            f"main gain of user {bad} is zero; the channel cannot be standardized"
        )
    s1, s2 = raw.receiver_noises
    sw = raw.tap_noise
    h1 = raw.tap_gains[0] * s2 / (g1 * sw)
    h2 = raw.tap_gains[1] * s1 / (g2 * sw)
    a1 = s2 / (g1 * s1)
    a2 = s1 / (g2 * s2)
    p1 = g1 * raw.power_caps[0] / s2
    p2 = g2 * raw.power_caps[1] / s1
    return StdTwChannel(np.array([h1, h2]), np.array([a1, a2]), np.array([p1, p2]))


def gaussian_bits(snr: float) -> float:
    """Gaussian capacity C(snr) = 1/2 log2(1 + snr) in bits, computed with log1p."""
    return 0.5 * math.log1p(snr) / _LN2


def gaussian_bits_array(snr: np.ndarray) -> np.ndarray:
    """gaussian_bits of every element of an array of SNRs (np.log1p)."""
    return 0.5 * np.log1p(snr) / _LN2


def cap_main(alloc, subset: Iterable[int]) -> float:
    """Receiver-side Gaussian sum capacity of a user subset, in bits.

    Returns C(sum of subset powers); the empty subset gives 0.
    """
    powers = _powers_of(alloc)
    idx = list(subset)
    return gaussian_bits(float(powers[idx].sum()))


def cap_eve(alloc, gains, subset: Iterable[int]) -> float:
    """Eavesdropper-side sum capacity of a subset, other users absent."""
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    return gaussian_bits(float((h[idx] * powers[idx]).sum()))


def cap_eve_tilde(alloc, gains, subset: Iterable[int]) -> float:
    """Eavesdropper capacity of a subset with everyone else heard as noise."""
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    inside = float((h[idx] * powers[idx]).sum())
    members = set(idx)
    comp = [k for k in range(len(powers)) if k not in members]
    outside = float((h[comp] * powers[comp]).sum()) if comp else 0.0
    return gaussian_bits(inside / (1.0 + outside))


def phi(alloc, gains, subset: Iterable[int]) -> float:
    """Eavesdropper-to-receiver disadvantage ratio over a subset.

    (1 + sum h_k P_k) / (1 + sum P_k), the quantity whose minimization over
    the power box is equivalent to maximizing the superposition secrecy
    sum-rate.  Empty subsets and all-zero powers give 1.
    """
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    if not idx:
        return 1.0
    num = 1.0 + float((h[idx] * powers[idx]).sum())
    den = 1.0 + float(powers[idx].sum())
    return num / den


def psi(alloc, gains, subset: Iterable[int]) -> float:
    """Two-way analogue of phi with a product denominator.

    (1 + sum h_k P_k) / prod (1 + P_k); empty subsets give 1.
    """
    powers = _powers_of(alloc)
    h = _gains_of(gains)
    idx = list(subset)
    if not idx:
        return 1.0
    num = 1.0 + float((h[idx] * powers[idx]).sum())
    den = float(np.prod(1.0 + powers[idx]))
    return num / den


def is_degraded(ch: StdMacChannel) -> bool:
    """True when all gains are equal (within merge tolerance) and below 1."""
    h = ch.eve_gains
    span = float(h[-1] - h[0])
    if span > GAIN_MERGE_RTOL * max(abs(h[-1]), abs(h[0]), 1e-300):
        return False
    return float(h.mean()) < 1.0


# ---------------------------------------------------------------------------
# Serialization helpers.  Channels and solutions travel as JSON documents
# with a "form" field (raw or standardized) and a "model" field (mac or tw);
# user indices inside JSON are 1-based.

def canonical_float(x: float) -> float:
    """Round to 12 significant digits for byte-stable serialized output."""
    if x == 0:
        return 0.0
    return float(f"{float(x):.12g}")


def to_jsonable(obj):
    """Recursively convert numpy containers and round floats for output."""
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return canonical_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def channel_to_json(ch) -> Dict:
    """Serialize any channel type to a plain JSON-ready dictionary."""
    if isinstance(ch, RawMacChannel):
        doc = {
            "form": "raw",
            "model": "mac",
            "main_gains": ch.main_gains,
            "tap_gains": ch.tap_gains,
            "main_noise": ch.main_noise,
            "tap_noise": ch.tap_noise,
            "power_caps": ch.power_caps,
        }
    elif isinstance(ch, StdMacChannel):
        doc = {
            "form": "standardized",
            "model": "mac",
            "eve_gains": ch.eve_gains,
            "power_caps": ch.power_caps,
            "permutation": [[i + 1 for i in grp] for grp in ch.permutation],
        }
        if ch.source_caps is not None:
            doc["source_caps"] = [list(grp) for grp in ch.source_caps]
    elif isinstance(ch, RawTwChannel):
        doc = {
            "form": "raw",
            "model": "tw",
            "main_gains": ch.main_gains,
            "tap_gains": ch.tap_gains,
            "receiver_noises": ch.receiver_noises,
            "tap_noise": ch.tap_noise,
            "power_caps": ch.power_caps,
        }
    elif isinstance(ch, StdTwChannel):
        doc = {
            "form": "standardized",
            "model": "tw",
            "eve_gains": ch.eve_gains,
            "self_gains": ch.self_gains,
            "power_caps": ch.power_caps,
        }
    else:
        raise TypeError(f"not a channel type: {type(ch)!r}")
    return to_jsonable(doc)


def _require(doc: Dict, key: str):
    if key not in doc:
        raise ValueError(f"channel JSON is missing field '{key}'")
    return doc[key]


def channel_from_json(doc):
    """Rebuild a channel from a dictionary or JSON string.

    Documents that wrap a channel under a "channel" key (as solver outputs
    do) are unwrapped, so any emitted JSON round-trips as input.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid channel JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("channel JSON must be an object")
    if "channel" in doc and "form" not in doc:
        doc = doc["channel"]
    form = _require(doc, "form")
    model = _require(doc, "model")
    if form not in ("raw", "standardized"):
        raise ValueError(f"channel JSON field 'form' must be raw or standardized, got {form!r}")
    if model not in ("mac", "tw"):
        raise ValueError(f"channel JSON field 'model' must be mac or tw, got {model!r}")
    if form == "raw" and model == "mac":
        return RawMacChannel(
            _require(doc, "main_gains"),
            _require(doc, "tap_gains"),
            _require(doc, "main_noise"),
            _require(doc, "tap_noise"),
            _require(doc, "power_caps"),
        )
    if form == "raw" and model == "tw":
        return RawTwChannel(
            _require(doc, "main_gains"),
            _require(doc, "tap_gains"),
            _require(doc, "receiver_noises"),
            _require(doc, "tap_noise"),
            _require(doc, "power_caps"),
        )
    if model == "mac":
        permutation = tuple(
            tuple(i - 1 for i in grp) for grp in doc.get("permutation", [])
        )
        source_caps = doc.get("source_caps")
        if source_caps is not None:
            source_caps = tuple(tuple(grp) for grp in source_caps)
        return StdMacChannel(
            _require(doc, "eve_gains"),
            _require(doc, "power_caps"),
            permutation,
            source_caps,
        )
    return StdTwChannel(
        _require(doc, "eve_gains"),
        _require(doc, "self_gains"),
        _require(doc, "power_caps"),
    )
