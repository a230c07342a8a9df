"""Channel descriptions and elementary rate primitives.

Raw channels carry physical gains and noise variances for the Gaussian
multiple-access wiretap setup (K transmitters, one receiver, one
eavesdropper) and the two-way wiretap setup (two terminals that are each
other's receivers).  Standardization rescales either setup to unit main
gains and unit noise, condensing the eavesdropper's advantage for user k
into a single dimensionless gain h_k.  Everything downstream (regions,
optimizers, oracles) works on the standardized form, and all rates are
reported in bits per channel use.  Each scheme's secrecy rate is written
once, for every solver, region and jamming site: ``secrecy_bits`` (MAC),
``tw_secrecy_bits`` (two-way) and ``regions._tdma_user_bounds`` (TDMA).
They take each logarithm in one kernel, ``gaussian_bits_each`` (C(snr) =
1/2 log2(1 + snr) by math.log1p per element, so small SNRs keep their
relative accuracy).  Only the jamming pass's ranking (np.log1p by
``gaussian_bits_array``; it reports its winner's rate through
``secrecy_bits`` on the same sums) and the grid oracles (np.log2, the
independent check) take their own.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from itertools import chain
from typing import Dict, Iterable, Optional, Sequence, Tuple

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


def _tied_neighbors(h: np.ndarray) -> np.ndarray:
    """Whether each adjacent pair of ascending gains (along the last axis)
    counts as equal: their spacing is at most ``GAIN_MERGE_RTOL`` times the
    larger magnitude."""
    size = np.abs(h)
    return h[..., 1:] - h[..., :-1] <= GAIN_MERGE_RTOL * np.maximum(size[..., 1:], size[..., :-1])


def _tie_groups(h: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable ascending order of each row of the (N, K) gains ``h``, the
    sorted rows, and the mask of the sorted users that start a tie group."""
    order = np.argsort(h, axis=1, kind="stable")
    h = np.take_along_axis(h, order, axis=1)
    first = np.ones(h.shape, dtype=bool)
    first[:, 1:] = ~_tied_neighbors(h)
    return order, h, first


def _merge_groups(h: np.ndarray, caps: np.ndarray, bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The merged gain np.vecdot(gh, gc) / cap_sum (the plain mean where the
    caps sum to 0; a group of one keeps its gain) and cap, the sum, of each
    group [bounds[i], bounds[i + 1]) of the flat sorted ``h`` and ``caps``.
    A group is gathered as one C-contiguous row, so both round as np.dot and
    sum on it alone."""
    starts, sizes = bounds[:-1], np.diff(bounds)
    gains, group_caps = np.empty(len(starts)), np.empty(len(starts))
    with np.errstate(all="ignore"):
        for size in np.bincount(sizes).nonzero()[0].tolist():
            of_size = sizes == size
            members = starts[of_size][:, None] + np.arange(size)
            gh, gc = h[members], caps[members]
            group_caps[of_size] = cap_sum = gc.sum(axis=1)
            if size == 1:
                gains[of_size] = gh[:, 0]
            else:
                gains[of_size] = np.where(cap_sum > 0, np.vecdot(gh, gc) / cap_sum, gh.mean(axis=1))
    return gains, group_caps


def _split_power(power: np.ndarray, caps: np.ndarray, group_caps: np.ndarray) -> np.ndarray:
    """Each user's share power * caps / group_caps of its merged user's
    power, or 0 where the group's caps sum to 0."""
    return np.divide(power * caps, group_caps, out=np.zeros(caps.shape), where=group_caps > 0)


def _as_float(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number") from None


def _as_float_array(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a 1-D sequence of numbers") from None
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
        self.main_noise = _as_float(self.main_noise, "main_noise")
        self.tap_noise = _as_float(self.tap_noise, "tap_noise")
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
        groups = tuple(map(tuple, self.permutation))
        if not all(isinstance(i, numbers.Integral) for g in groups for i in g):
            raise ValueError("permutation entries must be integer user indices")
        self.permutation = tuple(tuple(int(i) for i in g) for g in groups)
        if len(self.permutation) != len(self.eve_gains):
            raise ValueError("permutation must list one group per stored user")
        members = sorted(chain.from_iterable(self.permutation))
        if not all(self.permutation) or members != list(range(len(members))):
            raise ValueError("permutation must list each original user exactly once, in non-empty groups")
        if self.source_caps is not None:
            try:
                self.source_caps = tuple(tuple(float(c) for c in g) for g in self.source_caps)
            except (TypeError, ValueError):
                raise ValueError("source_caps must list groups of numbers") from None
            if list(map(len, self.source_caps)) != list(map(len, self.permutation)):
                raise ValueError("source_caps must list one cap per member of each permutation group")
            caps = np.fromiter(chain.from_iterable(self.source_caps), float, len(members))
            if not np.all(np.isfinite(caps)) or np.any(caps < 0):
                raise ValueError("source_caps must be finite and nonnegative")

    @property
    def k_users(self) -> int:
        return len(self.eve_gains)

    def has_strictly_ascending_gains(self) -> bool:
        return not _tied_neighbors(self.eve_gains).any()

    def split_back(self, powers) -> np.ndarray:
        """Distribute per-stored-user powers over the original users.

        A merged super-user's power is split proportionally to the original
        standardized caps of its members (any split achieves the same rate);
        without ``source_caps`` each member counts cap / group size.
        """
        powers = np.asarray(powers, dtype=float)
        if len(powers) != self.k_users:
            raise ValueError("powers length must match k_users")
        sizes = np.fromiter(map(len, self.permutation), int, self.k_users)
        if self.source_caps is None:
            caps = np.repeat(self.power_caps / np.maximum(sizes, 1), sizes)
        else:
            caps = np.fromiter(chain.from_iterable(self.source_caps), float, sizes.sum())
        # each group's cap, summed as the merge sums it
        _, group_caps = _merge_groups(caps, caps, np.append(0, np.cumsum(sizes)))
        group = np.repeat(np.arange(self.k_users), sizes)
        out = np.zeros(len(caps))
        members = np.fromiter(chain.from_iterable(self.permutation), int, len(caps))
        out[members] = _split_power(powers[group], caps, group_caps[group])
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
        self.tap_noise = _as_float(self.tap_noise, "tap_noise")
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

    Each terminal subtracts its own signal, so every rate depends only on
    the eavesdropper gains and the caps.
    """

    eve_gains: np.ndarray
    power_caps: np.ndarray

    def __post_init__(self):
        self.eve_gains = _as_float_array(self.eve_gains, "eve_gains")
        self.power_caps = _as_float_array(self.power_caps, "power_caps")
        for name, arr in (("eve_gains", self.eve_gains), ("power_caps", self.power_caps)):
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
    mean when the caps sum to zero) and the summed cap; a user in no tie
    keeps its gain as given.  The constituent original indices and caps
    are recorded for splitting power back.  This is the eavesdropper
    sweep's merge (_tie_groups, then _merge_groups) on one row.
    """
    h = _as_float_array(eve_gains, "eve_gains")
    caps = _as_float_array(power_caps, "power_caps")
    if len(h) != len(caps):
        raise ValueError("eve_gains and power_caps must have equal length")
    (order,), h, first = _tie_groups(h[None])
    caps, bounds = caps[order], np.append(first, True).nonzero()[0]
    gains, group_caps = _merge_groups(h[0], caps, bounds)
    return StdMacChannel(gains, group_caps, np.split(order, bounds[1:-1]), np.split(caps, bounds[1:-1]))


# Each standardized quantity of one user, as a formula over its raw fields
# (a terminal of the two-way channel is heard at the other's receiver).
_MAC_GAIN = "eve gain of user {} is not finite: tap_gains {} * main_noise {} / (main_gains {} * tap_noise {})"
_MAC_CAP = "power cap of user {} is not finite: main_gains {} * power_caps {} / main_noise {}"
_TW_GAIN = "eve gain of user {} is not finite: tap_gains {} * receiver_noises {} / (main_gains {} * tap_noise {})"
_TW_CAP = "power cap of user {} is not finite: main_gains {} * power_caps {} / receiver_noises {}"


def _not_finite_error(quantity: str, values: np.ndarray, *fields) -> Optional[ValueError]:
    """The ValueError naming the first user whose standardized ``values``
    (one of the quantities above) are not finite, with its raw ``fields``
    (per-user arrays or scalars); None if all are finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if not len(bad):
        return None
    k = int(bad[0])
    terms = (repr(float(np.broadcast_to(f, values.shape)[k])) for f in fields)
    return ValueError("standardized " + quantity.format(k + 1, *terms))


def standardize_mac(raw: RawMacChannel) -> StdMacChannel:
    """Rescale a raw MAC wiretap channel to the unit-gain, unit-noise form.

    The eavesdropper gain becomes h_k = tap_gain_k * main_noise /
    (main_gain_k * tap_noise) and the cap becomes main_gain_k * raw_cap_k /
    main_noise.  Users come out sorted ascending by h_k with tied users
    merged.

    Raises:
        NonStandardizableChannel: if any main gain is zero.
        ValueError: naming the user and its raw fields, if a standardized
            gain or cap is not finite.
    """
    for k, g in enumerate(raw.main_gains):
        if g == 0:
            raise NonStandardizableChannel(
                f"main gain of user {k + 1} is zero; the channel cannot be standardized"
            )
    with np.errstate(all="ignore"):
        h = raw.tap_gains * raw.main_noise / (raw.main_gains * raw.tap_noise)
        caps = raw.main_gains * raw.power_caps / raw.main_noise
    error = _not_finite_error(
        _MAC_GAIN, h, raw.tap_gains, raw.main_noise, raw.main_gains, raw.tap_noise
    ) or _not_finite_error(_MAC_CAP, caps, raw.main_gains, raw.power_caps, raw.main_noise)
    if error:
        raise error
    return merge_tied_users(h, caps)


def standardize_tw(raw: RawTwChannel) -> StdTwChannel:
    """Rescale a raw two-way wiretap channel to the standard form.

    Terminal k's power is normalized by the noise at the opposite receiver,
    so the standardized cap is main_gain_k * raw_cap_k / other_noise and the
    eavesdropper gain is tap_gain_k * other_noise / (main_gain_k *
    tap_noise).  A standardized gain or cap that is not finite is a
    ValueError naming the user and its raw fields.
    """
    g1, g2 = raw.main_gains
    if g1 == 0 or g2 == 0:
        bad = 1 if g1 == 0 else 2
        raise NonStandardizableChannel(
            f"main gain of user {bad} is zero; the channel cannot be standardized"
        )
    # each terminal is heard at the other one's receiver
    other = raw.receiver_noises[::-1]
    with np.errstate(all="ignore"):
        h = raw.tap_gains * other / (raw.main_gains * raw.tap_noise)
        caps = raw.main_gains * raw.power_caps / other
    error = _not_finite_error(
        _TW_GAIN, h, raw.tap_gains, other, raw.main_gains, raw.tap_noise
    ) or _not_finite_error(_TW_CAP, caps, raw.main_gains, raw.power_caps, other)
    if error:
        raise error
    return StdTwChannel(h, caps)


def gaussian_bits_array(snr: np.ndarray) -> np.ndarray:
    """C(snr) of every element of an array of SNRs by np.log1p, which may
    differ from gaussian_bits_each by an ulp."""
    return 0.5 * np.log1p(snr) / _LN2


def gaussian_bits_each(snr: np.ndarray) -> np.ndarray:
    """Gaussian capacity C(snr) = 1/2 log2(1 + snr) in bits of every element.

    The logarithm is math.log1p per element: np.log1p may differ from it by
    an ulp, while numpy's multiply and divide round exactly as Python's, so
    each element equals 0.5 * math.log1p(snr) / ln 2 bit for bit.
    """
    logs = np.fromiter(map(math.log1p, np.ravel(snr).tolist()), float, np.size(snr))
    return 0.5 * logs.reshape(np.shape(snr)) / _LN2


def secrecy_bits(p_t, p_n, h_t, h_n):
    """The GGMAC-WT secrecy rate C(p_t / (1 + p_n)) - C(h_t / (1 + h_n)) in
    bits, unclamped and elementwise, from the sums of the powers (p) and of
    h_k P_k (h) over the transmitters (t) and over the users heard as noise
    (n).  The callers form the sums; p_n = 0 gives C(p_t) bit for bit.  Both
    logarithms are taken in one gaussian_bits_each call, on the stacked
    (heard, leaked) pair broadcast to one shape."""
    with np.errstate(all="ignore"):  # inf / inf and inf - inf are NaN, as for Python floats
        heard, leaked = np.divide(p_t, 1.0 + p_n), np.divide(h_t, 1.0 + h_n)
        if np.shape(heard) != np.shape(leaked):
            heard, leaked = np.broadcast_arrays(heard, leaked)
        heard, leaked = gaussian_bits_each(np.array([heard, leaked]))
        return heard - leaked


def tw_secrecy_bits(powers, h, transmit):
    """The GTW-WT secrecy rate sum_T C(P_k) - C(H_T / (1 + H_N)) in bits,
    unclamped, of two-terminal rows (arrays broadcasting over (..., 2)) with
    T the mask ``transmit``; H_T and H_N sum h_k P_k over T and the rest."""
    if np.shape(powers)[-1] != 2:
        raise ValueError("allocation length must be 2")
    with np.errstate(all="ignore"):
        gross = np.where(transmit, gaussian_bits_each(powers), 0.0)
        hp = h * powers
        inside, outside = np.where(transmit, hp, 0.0), np.where(transmit, 0.0, hp)
        gross, inside, outside = (v[..., 0] + v[..., 1] for v in (gross, inside, outside))
        return gross - gaussian_bits_each(inside / (1.0 + outside))


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


def _csv_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """CSV text with "\n" line ends, floats to 12 significant digits; a NaN
    or infinity is an internal failure (FloatingPointError), named by its
    column and row, and no text is returned."""
    lines = [",".join(header)]
    for r, values in enumerate(rows, start=1):
        out = []
        for column, v in zip(header, values):
            if isinstance(v, float) and not math.isfinite(v):
                raise FloatingPointError(
                    f"non-finite value in column {column} of row {r}; not writing invalid CSV"
                )
            text = f"{v:.12g}" if isinstance(v, float) else str(v)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            out.append(text)
        lines.append(",".join(out))
    return "\n".join(lines) + "\n"


# The channel class of each (form, model) pair.  A document's fields are
# the class's dataclass fields, in their order; only StdMacChannel's
# permutation is rewritten, to 1-based user indices.
_CHANNEL_TYPES = {
    ("raw", "mac"): RawMacChannel,
    ("standardized", "mac"): StdMacChannel,
    ("raw", "tw"): RawTwChannel,
    ("standardized", "tw"): StdTwChannel,
}


def channel_to_json(ch) -> Dict:
    """Serialize any channel type to a plain JSON-ready dictionary."""
    kind = next((kind for kind, cls in _CHANNEL_TYPES.items() if isinstance(ch, cls)), None)
    if kind is None:
        raise TypeError(f"not a channel type: {type(ch)!r}")
    doc = {"form": kind[0], "model": kind[1]}
    for f in fields(ch):
        value = getattr(ch, f.name)
        if f.name == "permutation":
            value = [[i + 1 for i in grp] for grp in value]
        if value is not None:  # a StdMacChannel without source_caps
            doc[f.name] = value
    return to_jsonable(doc)


def _require(doc: Dict, key: str):
    if key not in doc:
        raise ValueError(f"channel JSON is missing field '{key}'")
    return doc[key]


def channel_from_json(doc):
    """Rebuild a channel from a dictionary or JSON string.

    Documents that wrap a channel under a "channel" key (as solver outputs
    do) are unwrapped, so any emitted JSON round-trips as input.  Keys that
    the channel class has no field for are ignored.
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
    cls = _CHANNEL_TYPES[form, model]
    values = {}
    for f in fields(cls):
        if f.default is MISSING:
            values[f.name] = _require(doc, f.name)
        elif f.name in doc:
            values[f.name] = doc[f.name]
    if "permutation" in values:
        try:
            values["permutation"] = tuple(tuple(i - 1 for i in grp) for grp in values["permutation"])
        except TypeError:
            raise ValueError(
                "channel JSON field 'permutation' must list groups of 1-based user indices"
            ) from None
    return cls(**values)
