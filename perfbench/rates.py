"""Reference secrecy rates for checking the library's answers.

Every formula here is written with ``log1p`` from the model's definitions
and shares no code with ``secrecy_rates``, so a defect in the library's own
rate functions cannot hide itself.  Powers and gains are in the
standardized domain (unit main gains and noise) unless a docstring says
otherwise.  All rates are in bits and clamped at zero, as the library's are.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)

# Tolerances copied from the test suite and the library, never loosened here:
# RATE_TOL and CJ_ORACLE_TOL are tests/test_acceptance.py's, RATE_TIE_TOL is
# secrecy_rates.jamming.RATE_TIE_TOL.
RATE_TOL = 1e-9
CJ_ORACLE_TOL = 1e-6
RATE_TIE_TOL = 1e-12
# Relative allowance on power caps for powers that went through a unit
# change (raw <-> standardized) or 12-significant-digit serialization.
CAP_RTOL = 1e-9
# Largest relative error of a value the CLI rounded to 12 significant digits.
SERIAL_RTOL = 5e-12


def _bits(nats):
    return np.maximum(np.asarray(nats, dtype=float) / LN2, 0.0)


def sup_rate(h, p) -> float:
    """Superposition: 1/2 [log(1 + sum P) - log(1 + sum h P)]."""
    h, p = np.asarray(h, float), np.asarray(p, float)
    return float(_bits(0.5 * (math.log1p(p.sum()) - math.log1p((h * p).sum()))))


def tdma_rate(h, caps, shares) -> float:
    """TDMA: user k bursts at cap_k / share_k during its share of time."""
    total = 0.0
    for hk, ck, sk in zip(np.asarray(h, float), np.asarray(caps, float), np.asarray(shares, float)):
        if sk > 0.0 and ck > 0.0:
            burst = ck / sk
            total += float(_bits(0.5 * sk * (math.log1p(burst) - math.log1p(hk * burst))))
    return total


def mac_cj_rate(h, p, transmit) -> float:
    """MAC cooperative jamming: non-transmitters' power is noise to both ends."""
    h, p = np.asarray(h, float), np.asarray(p, float)
    noise = np.ones(len(p), dtype=bool)
    noise[list(transmit)] = False
    nats = 0.5 * (
        math.log1p(p.sum())
        - math.log1p(p[noise].sum())
        - math.log1p((h * p).sum())
        + math.log1p((h * p)[noise].sum())
    )
    return float(_bits(nats))


def tw_rate(h, p) -> float:
    """Two-way: each terminal decodes the other; the eavesdropper hears both."""
    h, p = np.asarray(h, float), np.asarray(p, float)
    nats = 0.5 * (math.log1p(p[0]) + math.log1p(p[1]) - math.log1p((h * p).sum()))
    return float(_bits(nats))


def tw_cj_rate(h, p, transmit) -> float:
    """Two-way cooperative jamming: the non-transmitter's power covers the rest."""
    h, p = np.asarray(h, float), np.asarray(p, float)
    t = np.zeros(len(p), dtype=bool)
    t[list(transmit)] = True
    gross = sum(0.5 * math.log1p(x) for x in p[t])
    leak = 0.5 * math.log1p((h * p)[t].sum() / (1.0 + (h * p)[~t].sum()))
    return float(_bits(gross - leak))


def sup_optimum(h, caps) -> float:
    """Best superposition rate over every cap-or-zero prefix of the gain order."""
    h, caps = np.asarray(h, float), np.asarray(caps, float)
    sum_p = np.concatenate([[0.0], np.cumsum(caps)])
    sum_hp = np.concatenate([[0.0], np.cumsum(h * caps)])
    return float(_bits(0.5 * (np.log1p(sum_p) - np.log1p(sum_hp))).max())


def tdma_feasible(h, caps) -> float:
    """TDMA rate at cap-proportional shares over the users with h < 1.

    A feasible point, so it bounds the TDMA optimum from below.
    """
    h, caps = np.asarray(h, float), np.asarray(caps, float)
    useful = (h < 1.0) & (caps > 0.0)
    if not useful.any():
        return 0.0
    shares = np.where(useful, caps, 0.0) / caps[useful].sum()
    return tdma_rate(h, caps, shares)


def tw_optimum(h, caps) -> float:
    """Best two-way rate over the four cap-or-zero corners."""
    return max(tw_rate(h, np.asarray(caps, float) * np.array(c)) for c in ((0, 0), (1, 0), (0, 1), (1, 1)))


def power_faults(powers, caps) -> list:
    """Reasons the powers leave the box 0 <= P <= cap, if any."""
    p, c = np.asarray(powers, float), np.asarray(caps, float)
    faults = []
    if p.shape != c.shape:
        faults.append(f"power vector shape {p.shape} does not match caps {c.shape}")
    elif not np.all(np.isfinite(p)):
        faults.append("non-finite power")
    else:
        if np.any(p < 0.0):
            faults.append(f"negative power {p.min():.6g}")
        if np.any(p > c * (1.0 + CAP_RTOL)):
            faults.append(f"power above cap by {np.max(p - c):.6g}")
    return faults


def rate_fault(name: str, reported: float, reference: float, tol: float = RATE_TOL):
    """A reason when a reported rate differs from its reference by more than tol."""
    if not (math.isfinite(reported) and abs(reported - reference) <= tol):
        return f"{name}: reported {reported!r} vs reference {reference!r}"
    return None


# ---------------------------------------------------------------------------
# Raw-domain sweep grids.  A sweep reports per-cell raw powers (watts) and
# the secrecy sum rate; these recompute the rate from the scene geometry.


def path_gain(scene, a, xs, ys):
    """reference_gain * max(distance, floor) ** -exponent from point a to every cell."""
    d = np.hypot(xs - a[0], ys - a[1])
    return scene.reference_gain * np.maximum(d, scene.distance_floor) ** (-scene.path_loss_exponent)


def sweep_grid_faults(scene, mode: str, xs, ys, tx, jam, rate, rounding: float = 0.0) -> list:
    """Check a sweep's raw-domain output cell by cell.

    ``xs``/``ys`` are the axes, ``tx``/``jam`` are (ny, nx, 2) raw powers and
    ``rate`` is (ny, nx).  Returns reasons for failure (empty when correct):
    the rate recomputed from the powers, the power caps, and the cooperative
    jamming rate never losing to the best no-jam corner.  ``rounding`` is
    the relative error the reported rates may carry from serialization.
    """
    gx, gy = np.meshgrid(np.asarray(xs, float), np.asarray(ys, float))
    tx, jam, rate = np.asarray(tx, float), np.asarray(jam, float), np.asarray(rate, float)
    t1, t2 = scene.transmitter_positions
    eve = np.stack([path_gain(scene, t1, gx, gy), path_gain(scene, t2, gx, gy)], axis=-1)
    eve = eve / scene.tap_noise
    caps = np.asarray(scene.raw_power_caps, float)
    corners = [np.array(c, float) * caps for c in ((1, 0), (0, 1), (1, 1))]
    if mode == "MAC-CJ":
        rx = scene.receiver_position
        main = np.array([path_gain(scene, t, np.array(rx[0]), np.array(rx[1])) for t in (t1, t2)])
        main = main / scene.main_noise
        total = tx + jam
        ref = 0.5 * (
            np.log1p((main * total).sum(-1))
            - np.log1p((main * jam).sum(-1))
            - np.log1p((eve * total).sum(-1))
            + np.log1p((eve * jam).sum(-1))
        )
        no_jam = [0.5 * (np.log1p((main * c).sum()) - np.log1p((eve * c).sum(-1))) for c in corners]
    else:
        cross = float(path_gain(scene, t1, np.array(t2[0]), np.array(t2[1])))
        # Terminal u's signal is decoded at the other terminal's receiver.
        main = cross / np.array([scene.receiver_noises[1], scene.receiver_noises[0]])
        gross = 0.5 * np.log1p(main * tx).sum(-1)
        leak = 0.5 * np.log1p((eve * tx).sum(-1) / (1.0 + (eve * jam).sum(-1)))
        ref = gross - leak
        no_jam = [
            0.5 * (np.log1p(main * c).sum() - np.log1p((eve * c).sum(-1))) for c in corners
        ]
    ref = _bits(ref)
    best_no_jam = _bits(np.max(no_jam, axis=0))
    faults = []
    bad = ~(np.abs(rate - ref) <= RATE_TOL)
    if bad.any():
        faults.append(f"{int(bad.sum())} cells disagree with the recomputed rate (max gap {np.nanmax(np.abs(rate - ref)):.3g})")
    power = np.concatenate([tx, jam], axis=-1)
    if not np.all(np.isfinite(power)) or np.any(power < 0.0):
        faults.append("negative or non-finite cell power")
    elif np.any(tx + jam > caps * (1.0 + CAP_RTOL)):
        faults.append("cell power above cap")
    short = rate < best_no_jam - RATE_TIE_TOL - rounding * best_no_jam
    if short.any():
        faults.append(f"{int(short.sum())} cells rate below the no-jam optimum")
    return faults
