"""The four benchmark workloads.

Each workload turns a seed into an endless sequence of *cycles*, lists of
items with a fixed composition, so that a run made of whole cycles always
has the same mix.  ``run`` makes the timed library calls for one item;
``check`` then decides, outside the timed span, whether the answers are
right, using only ``rates``' independent formulas, the power caps and the
grid oracles.  ``secrecy_rates`` must be importable before this module is.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import secrecy_rates as sr
from secrecy_rates.channels import to_jsonable

import rates
from speed import FRESH_PROCESS, MIXED, NUMPY, PYTHON
from rates import (
    CJ_ORACLE_TOL,
    RATE_TIE_TOL,
    RATE_TOL,
    power_faults,
    rate_fault,
)

ORACLE_SPEC = sr.GridSpec(points_per_axis=101)
HULL_RESOLUTION = 33


def _jam_span(k: int) -> str:
    return "jamming.k2" if k <= 2 else "jamming.kn"


def _shares(frac: Counter) -> dict:
    total = sum(frac.values())
    return {key: round(n / total, 6) for key, n in sorted(frac.items())} if total else {}


# ---------------------------------------------------------------------------
# Checks shared by the in-process workloads.


def mac_faults(ch, best, cj, sup=None) -> list:
    """Faults in MAC answers for a standardized channel.

    ``best`` is mac_best_sum_rate's answer, ``cj`` mac_cj_optimal's and
    ``sup`` (optional) mac_sup_optimal's.  Rates are recomputed from the
    returned allocations; ``best`` must equal max(SUP, TDMA) as far as that
    can be seen without a second TDMA solve: at least the exact SUP optimum
    and at least a feasible TDMA point, and equal to the SUP optimum when it
    reports SUP.
    """
    h, caps = ch.eve_gains, ch.power_caps
    faults = []
    for name, sol in (("best", best), ("cj", cj), ("sup", sup)):
        if sol is not None:
            faults += [f"{name}: {f}" for f in power_faults(sol.allocation.powers, caps)]
    if faults:
        return faults
    if best.mode == "TDMA":
        best_ref = rates.tdma_rate(h, best.allocation.powers, best.shares.shares)
    else:
        best_ref = rates.sup_rate(h, best.allocation.powers)
    sup_opt = rates.sup_optimum(h, caps)
    checks = [
        rate_fault("best rate", best.sum_rate, best_ref),
        rate_fault("cj rate", cj.sum_rate, rates.mac_cj_rate(h, cj.allocation.powers, cj.transmit_set)),
    ]
    if sup is not None:
        checks.append(rate_fault("sup rate", sup.sum_rate, rates.sup_rate(h, sup.allocation.powers)))
        checks.append(rate_fault("sup optimum", sup.sum_rate, sup_opt))
    faults += [c for c in checks if c]
    if cj.sum_rate < sup_opt - RATE_TIE_TOL:
        faults.append(f"cj rate {cj.sum_rate!r} below the SUP optimum {sup_opt!r}")
    floor = max(sup_opt, rates.tdma_feasible(h, caps))
    if best.sum_rate < floor - RATE_TOL:
        faults.append(f"best rate {best.sum_rate!r} below max(SUP, feasible TDMA) {floor!r}")
    if best.mode == "SUP" and abs(best.sum_rate - sup_opt) > RATE_TOL:
        faults.append(f"best reports SUP at {best.sum_rate!r}, SUP optimum is {sup_opt!r}")
    return faults


def tw_faults(ch, best, cj) -> list:
    """Faults in two-way answers: tw_optimal's ``best`` and tw_cj_optimal's ``cj``."""
    h, caps = ch.eve_gains, ch.power_caps
    faults = [f"best: {f}" for f in power_faults(best.allocation.powers, caps)]
    faults += [f"cj: {f}" for f in power_faults(cj.allocation.powers, caps)]
    if faults:
        return faults
    no_jam = rates.tw_optimum(h, caps)
    checks = [
        rate_fault("tw rate", best.sum_rate, rates.tw_rate(h, best.allocation.powers)),
        rate_fault("tw optimum", best.sum_rate, no_jam),
        rate_fault("tw cj rate", cj.sum_rate, rates.tw_cj_rate(h, cj.allocation.powers, cj.transmit_set)),
    ]
    faults += [c for c in checks if c]
    if cj.sum_rate < no_jam - RATE_TIE_TOL:
        faults.append(f"tw cj rate {cj.sum_rate!r} below the no-jam optimum {no_jam!r}")
    return faults


def count_mac_work(ch, tr) -> None:
    """Computed counts for one mac_best_sum_rate + mac_cj_optimal pair."""
    k = ch.k_users
    tr.count("allocation.tdma_eligible_users", int(np.sum(ch.eve_gains < 1.0)))
    tr.count("jamming.candidates", (k + 1) * (k + 2) // 2)


# ---------------------------------------------------------------------------


class Workload:
    """Common shape: seeded cycles of items, timed ``run``, untimed ``check``."""

    name = ""
    tail_pct = 50
    tmpdir = None  # a scratch directory inside the checkout, set by run.py
    # The reference task that item times are scaled by (see speed.py).
    reference = PYTHON

    def __init__(self, seed: int, root: str):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.traffic = Counter()

    def cycles(self):
        while True:
            yield self.cycle()

    def label(self, item) -> str:
        """The item's class, for per-class latency in the run's info."""
        raise NotImplementedError

    def cycle(self) -> list:
        raise NotImplementedError

    def run(self, item, tr):
        raise NotImplementedError

    def check(self, item, out) -> list:
        raise NotImplementedError

    def trace_item(self, item, out, tr) -> None:
        """Untimed extra work for the traced run, after an item succeeded."""

    def trace_end(self, tr) -> None:
        """Untimed extra measurements for the traced run, after the last item."""

    def traffic_report(self) -> dict:
        return {}


class ManyUsers(Workload):
    name = "many-users"
    tail_pct = 90
    # (K, items per cycle).  The one K=128 channel takes about half of a
    # cycle's time, so both the large-K and the mid-K regime show.  The
    # counts put the median inside the K=8 class and p90 inside the K=32
    # class, away from the class boundaries, and give p90 ten samples
    # beyond it within a single cycle.
    MIX = ((128, 1), (32, 16), (8, 84))

    def channel(self, k: int):
        """Gains stratified so that exactly half the users have h < 1."""
        rng = self.rng
        low = k // 2
        h = np.concatenate(
            [
                (np.arange(low) + rng.uniform(0.05, 0.95, low)) / low,
                1.0 + (np.arange(k - low) + rng.uniform(0.05, 0.95, k - low)) / (k - low),
            ]
        )
        caps = rng.permutation(0.1 + 9.9 * (np.arange(k) + rng.uniform(0.0, 1.0, k)) / k)
        return sr.StdMacChannel(h, caps)

    def cycle(self):
        ks = [k for k, n in self.MIX for _ in range(n)]
        self.rng.shuffle(ks)
        return [self.channel(k) for k in ks]

    def label(self, ch):
        return f"K={ch.k_users}"

    def run(self, ch, tr):
        best = tr.call("allocation", sr.mac_best_sum_rate, ch)
        cj = tr.call(_jam_span(ch.k_users), sr.mac_cj_optimal, ch)
        return best, cj

    def trace_item(self, ch, out, tr):
        count_mac_work(ch, tr)

    def check(self, ch, out):
        self.traffic["users"] += ch.k_users
        self.traffic["users_h_below_1"] += int(np.sum(ch.eve_gains < 1.0))
        self.traffic["users_h_above_1"] += int(np.sum(ch.eve_gains > 1.0))
        return mac_faults(ch, *out)

    def traffic_report(self):
        t = self.traffic
        return {
            "share_users_h_below_1": round(t["users_h_below_1"] / max(t["users"], 1), 6),
            "share_users_h_above_1": round(t["users_h_above_1"] / max(t["users"], 1), 6),
        }


class SweepMap(Workload):
    name = "sweep-map"
    tail_pct = 50
    reference = NUMPY
    RESOLUTION = 64
    BOUNDS = (-1.0, 1.0, -1.0, 1.0)
    REPLAY_CELLS = 64

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.replay_rng = np.random.default_rng([seed, 1])

    def variant(self):
        """default_scene() with every terminal moved by up to 0.2 per axis."""
        moved = np.array([[-0.5, 0.0], [0.5, 0.0], [0.0, 0.0]]) + self.rng.uniform(-0.2, 0.2, (3, 2))
        return sr.Scene(
            transmitter_positions=(tuple(moved[0]), tuple(moved[1])),
            receiver_position=tuple(moved[2]),
            path_loss_exponent=float(self.rng.uniform(2.0, 4.0)),
        )

    def cycle(self):
        items = []
        for scene in (sr.default_scene(), self.variant()):
            items += [(scene, "MAC-CJ"), (scene, "TW-CJ")]
        return items

    def label(self, item):
        return item[1]

    def run(self, item, tr):
        scene, mode = item
        return tr.call("sweep", sr.sweep, scene, self.BOUNDS, self.RESOLUTION, mode)

    def check(self, item, res):
        scene, mode = item
        self.traffic.update((mode, label) for row in res.branch for label in row)
        faults = []
        errors = int(np.sum(res.error))
        if errors:
            faults.append(f"{errors} cells flagged error")
        xs = np.linspace(self.BOUNDS[0], self.BOUNDS[1], self.RESOLUTION)
        ys = np.linspace(self.BOUNDS[2], self.BOUNDS[3], self.RESOLUTION)
        if not (np.array_equal(res.xs, xs) and np.array_equal(res.ys, ys)):
            return faults + ["sweep axes differ from the requested grid"]
        return faults + rates.sweep_grid_faults(scene, mode, xs, ys, res.tx_power, res.jam_power, res.sum_rate)

    def trace_item(self, item, res, tr):
        """Replay a seeded subsample of the sweep's cells from outside.

        ``sweep`` hides its per-cell calls, so the same cells are solved
        again through gains_from_geometry -> standardize -> cooperative
        jamming, which gives the per-cell cost without the sweep's pool.
        """
        scene, mode = item
        n = self.RESOLUTION
        tr.count("sweep.cells", n * n)
        tr.count("sweep.error_cells", int(np.sum(res.error)))
        picks = self.replay_rng.choice(n * n, size=self.REPLAY_CELLS, replace=False)
        standardize, solve = (
            (sr.standardize_mac, sr.mac_cj_optimal) if mode == "MAC-CJ" else (sr.standardize_tw, sr.tw_cj_optimal)
        )

        def cell(x, y):
            raw = sr.gains_from_geometry(scene, (x, y), mode)
            std = tr.call("channels.standardize", standardize, raw)
            return tr.call(_jam_span(std.k_users), solve, std)

        for flat in picks:
            iy, ix = divmod(int(flat), n)
            tr.call("sweep.replay", cell, float(res.xs[ix]), float(res.ys[iy]))
        tr.count("sweep.replayed_cells", self.REPLAY_CELLS)

    def traffic_report(self):
        modes = sorted({mode for mode, _ in self.traffic})
        return {
            "branch_share": {
                mode: _shares(Counter({label: n for (m, label), n in self.traffic.items() if m == mode}))
                for mode in modes
            }
        }


class TwoUserReport(Workload):
    name = "two-user-report"
    tail_pct = 90
    reference = MIXED
    # (model, K, items per cycle)
    MIX = (("tw", 2, 2), ("mac", 2, 4), ("mac", 3, 2))

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.gap_max = 0.0
        self.mismatches = 0

    def raw_channel(self, model: str, k: int):
        """Raw channel whose standardized gains are uniform on (0, 2)."""
        rng = self.rng
        h = rng.uniform(0.0, 2.0, k)
        main = rng.uniform(0.5, 2.0, k)
        caps = rng.uniform(0.5, 5.0, k)
        tap_noise = float(rng.uniform(0.5, 2.0))
        if model == "mac":
            noise = float(rng.uniform(0.5, 2.0))
            return sr.RawMacChannel(main, h * main * tap_noise / noise, noise, tap_noise, caps)
        rx_noises = rng.uniform(0.5, 2.0, 2)
        # Terminal k is heard at the other terminal's receiver.
        other = rx_noises[::-1]
        return sr.RawTwChannel(main, h * main * tap_noise / other, rx_noises, tap_noise, caps)

    def cycle(self):
        items = [(model, k) for model, k, n in self.MIX for _ in range(n)]
        self.rng.shuffle(items)
        return [(model, self.raw_channel(model, k)) for model, k in items]

    def label(self, item):
        return f"{item[0].upper()} K={item[1].k_users}"

    def run(self, item, tr):
        model, raw = item
        out = {}
        if model == "mac":
            std = out["std"] = tr.call("channels.standardize", sr.standardize_mac, raw)
            if std.k_users == 2:  # mac_hull_region enumerates vertices for at most 2 users
                out["region"] = tr.call("regions", sr.mac_hull_region, std, HULL_RESOLUTION, HULL_RESOLUTION)
            out["best"] = tr.call("allocation", sr.mac_best_sum_rate, std)
            out["sup"] = tr.call("allocation", sr.mac_sup_optimal, std)
            out["cj"] = tr.call(_jam_span(std.k_users), sr.mac_cj_optimal, std)
            _, out["sup_oracle"] = tr.call("oracle", sr.grid_max_mac_sup, std, ORACLE_SPEC)
            out["cj_oracle"] = tr.call("oracle", sr.grid_max_mac_cj, std, ORACLE_SPEC).sum_rate
        else:
            std = out["std"] = tr.call("channels.standardize", sr.standardize_tw, raw)
            out["region"] = tr.call("regions", sr.tw_region, std, std.power_caps)
            out["best"] = tr.call("allocation", sr.tw_optimal, std)
            out["cj"] = tr.call("jamming.k2", sr.tw_cj_optimal, std)
            out["sup_oracle"] = tr.call("oracle", sr.grid_max_tw, std, ORACLE_SPEC).sum_rate
            out["cj_oracle"] = tr.call("oracle", sr.grid_max_tw_cj, std, ORACLE_SPEC).sum_rate
        out["text"] = tr.call("channels.serialize", self.report, out)
        return out

    def trace_item(self, item, out, tr):
        """Work counts computed from the input sizes."""
        std = out["std"]
        k = std.k_users
        if item[0] == "mac":
            count_mac_work(std, tr)
        if "region" in out:
            tr.count("regions.sample_points", HULL_RESOLUTION**2 + HULL_RESOLUTION if item[0] == "mac" else 1)
        # Oracle grids: points^K for the sum-rate search, and per user
        # (points transmit + points jam + 1 silent) over the role patterns.
        points = ORACLE_SPEC.points_per_axis
        tr.count("oracle.grid_cells", points**k + (2 * points + 1) ** k)

    @staticmethod
    def report(out) -> str:
        """The verify + region document, serialized the way the CLI does it."""
        sumrate = out.get("sup", out["best"])
        doc = {
            "channel": sr.channel_to_json(out["std"]),
            "region": out["region"].to_json() if "region" in out else None,
            "sumrate": {
                "solution": sumrate.to_json(),
                "best": out["best"].to_json(),
                "verify": {"oracle_sum_rate_bits": out["sup_oracle"], "difference_bits": sumrate.sum_rate - out["sup_oracle"]},
            },
            "jam": {
                "solution": out["cj"].to_json(),
                "verify": {"oracle_sum_rate_bits": out["cj_oracle"], "difference_bits": out["cj"].sum_rate - out["cj_oracle"]},
            },
        }
        return json.dumps(to_jsonable(doc), indent=2, sort_keys=True) + "\n"

    def check(self, item, out):
        model, raw = item
        std = out["std"]
        faults = standardize_faults(model, raw, std)
        if faults:
            return faults
        if model == "mac":
            faults += mac_faults(std, out["best"], out["cj"], out["sup"])
            solver_sup = out["sup"].sum_rate
        else:
            faults += tw_faults(std, out["best"], out["cj"])
            solver_sup = out["best"].sum_rate
        for name, solver, oracle in (("sum-rate", solver_sup, out["sup_oracle"]), ("jamming", out["cj"].sum_rate, out["cj_oracle"])):
            gap = abs(solver - oracle)
            self.gap_max = max(self.gap_max, gap)
            if not gap <= CJ_ORACLE_TOL:
                self.mismatches += 1
                faults.append(f"{name} solver {solver!r} vs oracle {oracle!r}")
        if "region" in out:
            faults += region_faults(out["region"], floor=solver_sup if model == "mac" else 0.0, ceiling=max(out["best"].sum_rate, solver_sup))
        doc = json.loads(out["text"])
        if abs(doc["jam"]["solution"]["sum_rate_bits"] - out["cj"].sum_rate) > RATE_TOL:
            faults.append("serialized jamming rate differs from the solution")
        return faults

    def trace_end(self, tr):
        tr.counts["oracle.gap_max_bits"] = self.gap_max
        tr.counts["oracle.mismatches"] = self.mismatches


def standardize_faults(model: str, raw, std) -> list:
    """Compare the library's standardization with the formulas it documents."""
    if model == "mac":
        h = raw.tap_gains * raw.main_noise / (raw.main_gains * raw.tap_noise)
        caps = raw.main_gains * raw.power_caps / raw.main_noise
        order = np.argsort(h, kind="stable")
        h, caps = h[order], caps[order]
    else:
        other = raw.receiver_noises[::-1]
        h = raw.tap_gains * other / (raw.main_gains * raw.tap_noise)
        caps = raw.main_gains * raw.power_caps / other
    if len(std.eve_gains) != len(h):
        return ["standardization merged users that are not tied"]
    if not (np.allclose(std.eve_gains, h, rtol=1e-12, atol=0) and np.allclose(std.power_caps, caps, rtol=1e-12, atol=0)):
        return ["standardized gains or caps differ from the documented formulas"]
    return []


def region_faults(region, floor: float, ceiling: float) -> list:
    """A two-user region's vertices: non-negative, and the largest sum rate
    between ``floor`` and ``ceiling`` (the best achievable sum rate)."""
    pts = np.asarray(region.vertices2d, float)
    if pts.ndim != 2 or pts.shape[1] != 2 or not np.all(np.isfinite(pts)):
        return ["region vertices are not finite pairs"]
    faults = []
    if np.any(pts < -RATE_TOL):
        faults.append("region has a negative vertex")
    top = float(pts.sum(axis=1).max())
    if not (floor - RATE_TOL <= top <= ceiling + RATE_TOL):
        faults.append(f"region sum rate {top!r} outside [{floor!r}, {ceiling!r}]")
    return faults


# ---------------------------------------------------------------------------


class CliCold(Workload):
    name = "cli-cold"
    tail_pct = 75
    reference = FRESH_PROCESS
    COMMANDS = ("sumrate", "jam", "region", "verify", "sweep")
    SWEEP_GRID = 16
    STARTUP_ROUNDS = 15

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.n_cycle = 0
        self.env = {k: v for k, v in os.environ.items() if k != "SECRECY_RATES_THREADS"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.peak_rss_kb = 0

    def argv(self, command: str, model: str) -> list:
        rng = self.rng
        if command == "sweep":
            lo = rng.uniform(-1.2, -0.8, 2)
            bounds = [lo[0], -lo[0] + rng.uniform(-0.2, 0.2), lo[1], -lo[1] + rng.uniform(-0.2, 0.2)]
            return ["sweep", "--model", model, "--grid", str(self.SWEEP_GRID), f"--bounds={_floats(bounds)}"]
        caps = _floats(rng.uniform(0.5, 8.0, 2))
        gains = _floats(rng.uniform(0.0, 2.0, 2))
        argv = [command, "--model", model, "--caps", caps, "--eve-gains", gains]
        return argv + ["--verify"] if command == "jam" else argv

    def cycle(self):
        c = self.n_cycle
        self.n_cycle += 1
        return [self.argv(cmd, ("mac", "tw")[(c + j) % 2]) for j, cmd in enumerate(self.COMMANDS)]

    def label(self, argv):
        return f"{argv[0]} {argv[2]}"

    def run(self, argv, tr):
        """One ``python -m secrecy_rates.cli`` process, waited for with its rusage."""
        out = os.path.join(self.tmpdir, "out.json")
        err = os.path.join(self.tmpdir, "err.txt")
        if os.path.exists(out):
            os.remove(out)
        with open(err, "wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-m", "secrecy_rates.cli", *argv, "--format", "json", "--out", out],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err_file,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        tr.count("cli.invocations")
        tr.count("cli.nonzero_exits", int(proc.returncode != 0))
        return proc.returncode, out, err

    def check(self, argv, result):
        code, out, err = result
        if code != 0:
            with open(err, errors="replace") as handle:
                return [f"exit {code}: {handle.read().strip()[-200:]}"]
        try:
            with open(out) as handle:
                text = handle.read()
            doc = json.loads(text)
            return cli_doc_faults(argv, doc, self.SWEEP_GRID)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def trace_item(self, argv, result, tr):
        tr.count("cli.output_bytes", os.path.getsize(result[1]))

    def trace_end(self, tr):
        """Start-up costs: a bare interpreter, and ``import secrecy_rates``
        beyond ``import numpy``.

        The three probes run in rounds, in an order that rotates from round
        to round, so that a drift of the host's speed falls on all of them
        alike; the import cost is the median of the per-round differences.
        """
        probes = ("pass", "import numpy", "import secrecy_rates")
        interp, extra = [], []
        for r in range(self.STARTUP_ROUNDS):
            times = {}
            for code in probes[r % 3:] + probes[: r % 3]:
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root, check=True,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                times[code] = time.perf_counter() - t0
            interp.append(times["pass"])
            extra.append(times["import secrecy_rates"] - times["import numpy"])
        tr.counts["cli.interp_s"] = statistics.median(interp)
        tr.counts["cli.import_s"] = statistics.median(extra)


def _floats(values) -> str:
    """Comma-separated floats that parse back to exactly the same values."""
    return ",".join(repr(float(v)) for v in values)


def cli_doc_faults(argv, doc, sweep_grid: int) -> list:
    """Check one CLI JSON document against the independent formulas."""
    command, model = argv[0], argv[2]
    if command == "sweep":
        rows = doc["rows"]
        n = sweep_grid
        if len(rows) != n * n:
            return [f"sweep has {len(rows)} rows, expected {n * n}"]
        if any(row[7] == "error" for row in rows):
            return ["sweep has error cells"]
        bounds = [float(v) for v in argv[-1].split("=", 1)[1].split(",")]
        xs, ys = np.linspace(bounds[0], bounds[1], n), np.linspace(bounds[2], bounds[3], n)
        grid = np.array([row[:7] for row in rows], dtype=float).reshape(n, n, 7)
        scene = sr.default_scene()
        mode = "MAC-CJ" if model == "mac" else "TW-CJ"
        return rates.sweep_grid_faults(
            scene, mode, xs, ys, grid[..., 2:4], grid[..., 4:6], grid[..., 6], rounding=rates.SERIAL_RTOL
        )
    if command == "region":
        pts = np.asarray(doc["region"]["vertices2d"], float)
        ok = pts.ndim == 2 and len(pts) > 0 and np.all(np.isfinite(pts)) and np.all(pts >= -RATE_TOL)
        return [] if ok else ["region vertices missing, non-finite or negative"]
    ch = doc["channel"]
    h, caps = np.asarray(ch["eve_gains"], float), np.asarray(ch["power_caps"], float)
    faults = []
    if command == "verify":
        blocks = [("sum", doc["sumrate"]), ("jam", doc["jam"])]
    else:
        blocks = [("sum" if command == "sumrate" else "jam", doc)]
    for kind, block in blocks:
        sol = block["solution"]
        powers = np.asarray(sol["powers"], float)
        faults += power_faults(powers, caps)
        if kind == "jam":
            transmit = [i - 1 for i in sol["transmit_set"]]
            ref = rates.mac_cj_rate(h, powers, transmit) if model == "mac" else rates.tw_cj_rate(h, powers, transmit)
        elif model == "tw":
            ref = rates.tw_rate(h, powers)
        elif sol["mode"] == "TDMA":
            ref = rates.tdma_rate(h, powers, sol["shares"])
        else:
            ref = rates.sup_rate(h, powers)
        fault = rate_fault(f"{command} {kind} rate", sol["sum_rate_bits"], ref)
        if fault:
            faults.append(fault)
        if "verify" in block and not abs(block["verify"]["difference_bits"]) <= CJ_ORACLE_TOL:
            faults.append(f"{command} {kind} differs from its oracle by {block['verify']['difference_bits']!r}")
    return faults


WORKLOADS = {w.name: w for w in (ManyUsers, SweepMap, TwoUserReport, CliCold)}
