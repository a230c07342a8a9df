"""Cooperative jamming: secrecy-sum-rate maximization with helpful noise.

Users either transmit, stay silent, or jam (send Gaussian noise that hurts
the eavesdropper more than the receiver).  For the MAC wiretap channel the
optimum has an ordered structure: a prefix of the gain-sorted users
transmits at cap, a gap stays silent, and a suffix jams at cap except for
at most one "pivot" jammer whose power solves a quadratic.  Every sum a
pattern's quadratic and rate need is then a prefix or suffix sum, so one
batched pass, ``_mac_cj_batch``, rates all (prefix, pivot) patterns of N
channels as O(K^2) arrays each, settles ties by one lexsort of its own
ranking keys, reports each channel's winner with its rate from that
ranking, and gives each channel the status of the exception a single solve
raises.
mac_cj_optimal is that pass for one channel, the eavesdropper sweep for a
grid.  The two-way variant only ever jams at full power, decided by a
five-branch rule written once over arrays of channels.  Every reported
rate is ``channels.secrecy_bits`` or ``channels.tw_secrecy_bits`` with
jammers counted as noise, as ``allocation``'s solvers report theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Dict, Optional, Tuple

import numpy as np

from .channels import (
    TOL_ABS,
    PowerAllocation,
    StdMacChannel,
    StdTwChannel,
    _tied_neighbors,
    secrecy_bits,
    to_jsonable,
    tw_secrecy_bits,
)
from .allocation import _TIED_GAINS

# Rates closer than this count as equal when ranking candidate role
# patterns; see mac_cj_optimal.
RATE_TIE_TOL = 1e-12


@dataclass
class JammingSolution:
    """Role partition, allocation, rate, and pivot diagnostics."""

    transmit_set: Tuple[int, ...]
    jam_set: Tuple[int, ...]
    silent_set: Tuple[int, ...]
    allocation: PowerAllocation
    sum_rate: float
    pivot_user: Optional[int] = None
    quad_coeffs: Optional[Tuple[float, float, float]] = None
    pivot_power: Optional[float] = None
    diagnostics: Dict = field(default_factory=dict)

    def to_json(self) -> Dict:
        return to_jsonable(
            {
                "transmit_set": [k + 1 for k in self.transmit_set],
                "jam_set": [k + 1 for k in self.jam_set],
                "silent_set": [k + 1 for k in self.silent_set],
                "powers": self.allocation.powers,
                "sum_rate_bits": self.sum_rate,
                "pivot_user": None if self.pivot_user is None else self.pivot_user + 1,
                "pivot_power": self.pivot_power,
                "quad_coeffs": self.quad_coeffs,
                "diagnostics": self.diagnostics,
            }
        )


def _role_solution(sends, jams, powers, rate, diagnostics: Dict, pivot=None, coeffs=None) -> JammingSolution:
    """The solution in which the users set in the masks ``sends`` and
    ``jams`` transmit and jam and the rest stay silent; ``pivot`` names the
    pivot jammer, whose quadratic has ``coeffs``."""
    users = range(len(powers))
    return JammingSolution(
        tuple(compress(users, sends.tolist())),
        tuple(compress(users, jams.tolist())),
        tuple(compress(users, (~(sends | jams)).tolist())),
        PowerAllocation(powers),
        rate,
        pivot,
        coeffs,
        None if pivot is None else float(powers[pivot]),
        diagnostics,
    )


def _all_silent_solution(k: int, diagnostics: Dict) -> JammingSolution:
    silent = np.zeros(k, dtype=bool)
    return _role_solution(silent, silent, np.zeros(k), 0.0, diagnostics)


def _mac_roles(t: np.ndarray, p: np.ndarray, powers: np.ndarray, rate: np.ndarray):
    """The transmit and jam masks and the branch label "T=t,J=j" (j the
    1-based pivot, or "none" without a jammer) of N solved role patterns
    (t, p), one per row of the (N, K) ``powers``: users before t transmit
    and users from p on jam, if their power is positive.  A row whose rate
    is <= 0 is all silent, labelled "all-silent" (one whose rate is NaN is
    not)."""
    k = powers.shape[1]
    silent = rate <= 0.0
    shown = (powers > 0.0) & ~silent[:, None]
    users = np.arange(k)
    sends, jams = shown & (users < t[:, None]), shown & (users >= p[:, None])
    # (K + 1) t + (pivot + 1, or 0 without jammers), and -1 for all-silent
    code = (k + 1) * t + (p + 1) * jams.any(axis=1)
    code[silent] = -1
    code = code.tolist()
    label = {c: f"T={c // (k + 1)},J={c % (k + 1) or 'none'}" for c in set(code)}
    label[-1] = "all-silent"
    return sends, jams, [label[c] for c in code]


def _partition_solution(
    ch: StdMacChannel, powers: np.ndarray, t_count: int, rate: float, pivot_idx: Optional[int], coeffs, case: str
) -> JammingSolution:
    p = ch.k_users if pivot_idx is None else pivot_idx
    (sends,), (jams,), (branch,) = _mac_roles(np.array([t_count]), np.array([p]), powers[None], np.array([rate]))
    diagnostics = {"branch": branch, "case": case}
    if pivot_idx is None or not powers[pivot_idx] > 0:
        return _role_solution(sends, jams, powers, rate, diagnostics)
    return _role_solution(sends, jams, powers, rate, diagnostics, pivot_idx, coeffs)


def _pivot_root(p_t, hp_t, p_after, hp_after, h_p):
    """The pivot quadratic's c1, c2 / 2 and c3, and its "+sqrt" root (NaN
    where there is none), elementwise.  Users [0, t) transmit at cap, the
    pivot p >= t has gain h_p, and the users after it jam at cap.  With P,
    H the transmitters' sums of caps and h * caps, and R, G the jammers',
    rho_p is exactly c1 x^2 + c2 x + c3 in the pivot's power x:
        c1 = h_p (h_p P - H),  c2 = 2 h_p ((1 + G) P - (1 + R) H),
        c3 = (1 + H + G)(1 + G) P - h_p (1 + P + R)(1 + R) H.
    The root takes c2 / 2, an exact scaling, and the cancellation-free form
    when c2 > 0; c1 = 0 leaves the linear equation, and with c2 = 0 too
    the objective is flat in the pivot, which stays at 0 (as in the no-jam
    pattern, a pivot of gain 0 and cap 0).
    """
    one_r, one_g = 1.0 + p_after, 1.0 + hp_after
    c1 = h_p * (h_p * p_t - hp_t)
    half_c2 = h_p * (one_g * p_t - one_r * hp_t)
    c3 = (hp_t + one_g) * one_g * p_t - (p_t + one_r) * (h_p * one_r) * hp_t
    # NaN where the discriminant is negative (-c2 - s < 0 when c2 > 0)
    s = np.sqrt(half_c2 * half_c2 - c1 * c3)
    root = np.where(half_c2 <= 0.0, (s - half_c2) / c1, c3 / (-half_c2 - s))
    root = np.where(c1 == 0.0, np.where(half_c2 == 0.0, np.nan, -0.5 * c3 / half_c2), root)
    return c1, half_c2, c3, root


# the case of each solved pattern, indexed as _mac_cj_batch reports it
_CASES = ("no-jam", "pivot-zero", "pivot-at-cap", "pivot-interior")

# What mac_cj_optimal raises, by the status _mac_cj_batch gives a channel
# (0: none).  3 is a positive winner whose pivot quadratic leaves the float
# range (c2 * c2 is not finite): there its roots, and so the ranking, are
# not to be trusted, since a root <= 0 can hide a jamming optimum.
_FAILURES = (
    None,
    (ValueError, _TIED_GAINS),  # 1: two gains tie
    (FloatingPointError, "cooperative-jamming candidate rates overflow to NaN"),  # 2
    (  # 3: the winner's c2 * c2 is not finite
        OverflowError,
        "power_caps are too large for the jamming solver: its pivot quadratic's c2 squares past the float range",
    ),
)


def _mac_cj_batch(h: np.ndarray, caps: np.ndarray):
    """mac_cj_optimal for the N channels in the rows of the (N, K) ``h`` and
    ``caps`` (gains ascending): each row's winning t, p, powers, rate,
    pivot coefficients (c1, c2, c3), index into _CASES, and its status.

    Patterns are flat indices t (K+1) + p in scan order: users [0, t)
    transmit at cap and user p >= t is the pivot (_pivot_root); p = K is the
    no-jam pattern.  Every sum is a prefix sum or a suffix sum accumulated
    from the back, so a pivot at cap and the next pivot at 0 give
    bit-identical jam totals, keys and rates for one power vector.  Each
    pattern's rate is channels.secrecy_bits on its sums, clamped at 0; rates
    within RATE_TIE_TOL of the best tie, and the tie goes to fewest active
    jammers, then least total power, then scan order.  The winner reports
    its own entry of that ranking.  Every operation is elementwise along the
    batch axis.
    """
    n, k = caps.shape
    rows, users = np.arange(n), np.arange(k + 1)
    size = (k + 1) * (k + 1)
    # Inside, the batch axis is the last one, so numpy's inner loops run
    # over the channels rather than over the K + 1 pivots.
    with np.errstate(all="ignore"):
        # rows: caps, h * caps, and 1 for each user with a positive cap
        terms = np.array((caps.T, h.T * caps.T, caps.T > 0), dtype=float)
        prefix = np.zeros((3, k + 1, 1, n))
        np.add.accumulate(terms, axis=1, out=prefix[:, 1:, 0])
        # per pivot column: the three sums over the users after it, then its h and cap
        after = np.zeros((5, 1, k + 1, n))
        np.add.accumulate(terms[:, :0:-1], axis=1, out=after[:3, 0, : k - 1][:, ::-1])
        after[3, 0, :k] = h.T
        after[4, 0, :k] = caps.T
        p_t, hp_t = prefix[0], prefix[1]
        p_after, hp_after, n_after, h_p, cap_p = after
        # the coefficients hold (K+1)^2 doubles per channel each; over a
        # sweep pass they set its peak memory, so only the root is kept
        root = _pivot_root(p_t, hp_t, p_after, hp_after, h_p)[3]
        pivot = np.where(root > 0.0, np.minimum(root, cap_p), 0.0)
        del root
        jam = pivot + p_after
        rate = secrecy_bits(p_t, jam, hp_t, h_p * pivot + hp_after)
        np.maximum(rate, 0.0, out=rate)  # which keeps a NaN
        np.copyto(rate, -np.inf, where=(users[:, None] > users)[:, :, None])
        rate = np.ascontiguousarray(rate.reshape(size, n).T)
        best = rate.max(axis=1, keepdims=True)
        pool = rate >= best - RATE_TIE_TOL
        unranked = np.isnan(best[:, 0])
        pool[unranked, 0] = True
        members = pool.ravel().nonzero()[0]
        # every row has a member; with one each, that is the winner
        win = members % size
        if len(members) > n:
            member_rows, idx = np.divmod(members, size)
            n_jam = ((pivot > 0.0) + n_after).reshape(size, n)[idx, member_rows]
            total = (p_t + jam).reshape(size, n)[idx, member_rows]
            # sorted by row first, so each row's winner heads its run
            win = idx[np.lexsort((idx, total, n_jam, member_rows))[member_rows.searchsorted(rows)]]
        t, p = np.divmod(win, k + 1)
        rate = rate[rows, win]
        p_t, hp_t = prefix[:2, t, 0, rows]
        p_after, hp_after, _, h_p, cap_p = after[:, 0, p, rows]
        c1, half_c2, c3, root = _pivot_root(p_t, hp_t, p_after, hp_after, h_p)
        positive = root > 0.0
        at_cap = positive & (root >= cap_p)
        pivot = np.where(positive, np.minimum(root, cap_p), 0.0)
        c2 = 2.0 * half_c2
        ok = np.isfinite(c2 * c2) | ~np.isfinite(c2)
    columns = np.arange(k)
    powers = np.where((columns < t[:, None]) | (columns > p[:, None]), caps, 0.0)
    powers = np.where(columns == p[:, None], pivot[:, None], powers)
    case = np.where(p < k, np.where(at_cap, 2, np.where(positive, 3, 1)), 0)
    status = np.where(ok | (rate <= 0.0), 0, 3)
    status[unranked] = 2
    status[_tied_neighbors(h).any(axis=1)] = 1
    return t, p, powers, rate, np.array((c1, c2, c3)).T, case, status


def mac_cj_optimal(ch: StdMacChannel) -> JammingSolution:
    """Best cooperative-jamming solution over all ordered role patterns.

    Candidates: transmitters are the first t users at cap, the next block
    is silent, and users from the pivot onward jam at cap with the pivot
    itself at its quadratic root clamped to [0, cap].  Including t = 0 and
    the no-jammer pattern makes the no-jam optimum a candidate, so the
    result never loses to plain superposition.  Candidates on an exact
    branch boundary are mathematically tied but their rates land a few
    ulps apart, so rates within RATE_TIE_TOL of the best count as ties and
    resolve toward fewer active jammers, then less total power, then scan
    order.  All (K+1)(K+2)/2 candidates are ranked, and the winner
    reported, in one O(K^2) array pass: _mac_cj_batch on a batch of one.

    Raises:
        ValueError: if two gains tie (merge them first).
        FloatingPointError: if the ranking rates overflow to NaN.
        OverflowError: naming power_caps, if the winner's pivot quadratic's
            c2 squares past the float range.
    """
    k = ch.k_users
    t, p, powers, rate, coeffs, case, status = _mac_cj_batch(ch.eve_gains[None], ch.power_caps[None])
    if status[0]:
        error, message = _FAILURES[status[0]]
        raise error(message)
    if rate[0] <= 0.0:
        return _all_silent_solution(k, {"branch": "all-silent", "case": "no-positive-rate"})
    pivot = int(p[0]) if p[0] < k else None
    coeffs = None if pivot is None else tuple(coeffs[0].tolist())
    return _partition_solution(ch, powers[0], int(t[0]), float(rate[0]), pivot, coeffs, _CASES[case[0]])


TW_BRANCHES = ("both-transmit", "jam-user-1", "jam-user-2", "all-silent")


def _tw_cj_rule(h: np.ndarray, caps: np.ndarray):
    """tw_cj_optimal's five-branch rule for N two-way channels, one per row
    of the (N, 2) ``h`` and ``caps``.

    Returns the powers, the transmit and jam masks of the users with
    positive power, the rate (channels.tw_secrecy_bits), each row's index
    into TW_BRANCHES, the single-user psi values and whether they tie.
    Rows whose rate is not positive come out all silent.
    """
    swap = h[:, 0] > h[:, 1]
    # original index of each row's lower-gain user, and the sorted pairs
    low = swap.astype(int)
    h1, h2 = np.where(swap, h[:, 1], h[:, 0]), np.where(swap, h[:, 0], h[:, 1])
    c1, c2 = np.where(swap, caps[:, 1], caps[:, 0]), np.where(swap, caps[:, 0], caps[:, 1])
    with np.errstate(all="ignore"):
        psi = (1.0 + h * caps) / (1.0 + caps)
        psi1, psi2 = np.where(swap, psi[:, 1], psi[:, 0]), np.where(swap, psi[:, 0], psi[:, 1])
        psi_tie = np.abs(psi1 - psi2) <= TOL_ABS * np.maximum(psi1, psi2)
        both = h2 <= 1.0 + TOL_ABS
        useful = (h1 < 1.0 + h2 * c2 - TOL_ABS) & (psi2 >= psi1)
        jam_high = ~both & ((h1 <= 1.0 + TOL_ABS) | useful)
        jam_low = ~both & ~jam_high & (h2 < 1.0 + h1 * c1 - TOL_ABS) & (psi1 > psi2)
        jams = jam_high | jam_low
        jammer = np.where(jam_high, 1 - low, low)
        users = np.arange(2)
        powers = np.where((both | jams)[:, None], caps, 0.0)
        transmit = (both[:, None] | (jams[:, None] & (users != jammer[:, None]))) & (powers > 0)
        jam = jams[:, None] & (users == jammer[:, None]) & (powers > 0)
    rate = tw_secrecy_bits(powers, h, transmit)
    branch = np.where(both, 0, np.where(jams, 1 + jammer, 3))
    silent = rate <= 0.0
    branch[silent] = 3
    powers[silent] = 0.0
    transmit[silent] = jam[silent] = False
    rate[silent] = 0.0
    return powers, transmit, jam, rate, branch, psi, psi_tie


def tw_cj_optimal(ch: StdTwChannel) -> JammingSolution:
    """Five-branch cooperative-jamming rule for the two-way channel.

    With users relabeled so h1 <= h2: both transmit at caps while h2 <= 1;
    user 2 jams at cap once its gain passes 1 while user 1's does not; with
    both gains above 1 the user with the larger single-user psi value jams
    (at cap, if the other user's transmission stays useful), ties breaking
    toward user 2; otherwise all silent.  Jamming at full power is optimal
    whenever jamming at all: psi of the jam set exceeds 1 exactly when the
    jammer's gain does.  The rule is _tw_cj_rule on a batch of one channel,
    the call the eavesdropper sweep makes for a whole grid.
    """
    powers, transmit, jam, rate, branch, psi, psi_tie = _tw_cj_rule(
        ch.eve_gains[None], ch.power_caps[None]
    )
    diagnostics: Dict = {
        "psi_1": float(psi[0, 0]),
        "psi_2": float(psi[0, 1]),
        "psi_tie": bool(psi_tie[0]),
        "branch": TW_BRANCHES[branch[0]],
    }
    if rate[0] <= 0.0:  # the rule leaves such a channel all silent
        diagnostics["case"] = "no-positive-rate"
    return _role_solution(transmit[0], jam[0], powers[0], float(rate[0]), diagnostics)
