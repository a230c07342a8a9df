"""Benchmark for the secrecy-rates library in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and README.md) against ``src/`` of
the checkout this file lives in, in a closed loop: one item at a time, no
threads of the benchmark's own.  The timed phase is made of whole cycles of
items and lasts until the items' own time reaches ``--seconds``.  Times
are reported at a fixed reference speed of the host (see ``speed.py``);
``info.as_measured`` has them unscaled.  ``items_per_s`` is the median
over cycles of items per second.  Every
item's answer is checked; an item fails when a call raises, a check fails,
a sweep cell is flagged ``error`` or a CLI process exits non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is an ``info`` object with the environment, the traffic of
the run and the sample counts.  Exits 1 without a result when the checkout
has no ``src/secrecy_rates``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

from speed import FRESH_PROCESS, SpeedGauge
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
# Stop after the item in flight once the run has taken this long, so that a
# very slow checkout still finishes well inside the 180 s a run may take.
WALL_LIMIT_S = 120.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# BENCHMARK.json is the one list of workloads and metrics.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and not (args.seconds and args.seconds > 0):
        parser.error("--seconds must be a positive number")
    return args


def load_library():
    """Import the checkout's own package, with the thread knob cleared.

    Returns (workloads module, inherited SECRECY_RATES_THREADS value).
    """
    if not os.path.isfile(os.path.join(SRC, "secrecy_rates", "__init__.py")):
        raise SystemExit(f"perfbench: no secrecy_rates package under {SRC}")
    inherited = os.environ.pop("SECRECY_RATES_THREADS", None)
    sys.path.insert(0, SRC)
    import secrecy_rates

    if os.path.dirname(os.path.dirname(os.path.abspath(secrecy_rates.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported secrecy_rates from {secrecy_rates.__file__}, not {SRC}")
    import workloads

    return workloads, inherited


def setup_seconds(args, gauge):
    """Median time from starting a fresh process to its first item being
    ready, as (at reference speed, as measured)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        ref = gauge.before()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - t0)
        scaled.append(gauge.scale(raw[-1], ref))
    return statistics.median(scaled), statistics.median(raw)


def tail(latencies, preferred: float):
    """(percentile, value): ``preferred`` if at least 10 samples lie beyond
    it, else the highest ladder step that has them (p50 at the least)."""
    n = len(latencies)
    steps = [preferred] + [p for p in TAIL_LADDER if p < preferred]
    pct = next((p for p in steps if n * (100.0 - p) / 100.0 >= 10.0), 50.0)
    if n == 1:
        return pct, latencies[0]
    return pct, statistics.quantiles(latencies, n=1000, method="inclusive")[round(pct * 10) - 1]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# Per-layer figures that are not sums over items, so not divided per cycle.
NOT_PER_CYCLE = {"jamming.k2_call_us", "oracle.gap_max_bits", "cli.interp_s", "cli.import_s", "trace.items_per_s"}


def layer_metrics(tr, items_per_s: float, cycles: float) -> dict:
    """Per-layer figures.  Sums (times, calls, computed counts) are per
    cycle, so that they measure a layer's cost on a fixed mix of items and
    not the length of the run."""
    jam = ("jamming.k2", "jamming.kn")
    k2_calls = tr.calls("jamming.k2")
    replayed = tr.counts["sweep.replayed_cells"]
    replay = tr.busy("sweep.replay") / replayed * tr.counts["sweep.cells"] if replayed else 0.0
    values = {
        "channels.standardize_calls": tr.calls("channels.standardize"),
        "channels.standardize_s": tr.busy("channels.standardize"),
        "channels.serialize_s": tr.busy("channels.serialize"),
        "allocation.calls": tr.calls("allocation"),
        "allocation.busy_s": tr.busy("allocation"),
        "jamming.calls": tr.calls(*jam),
        "jamming.busy_s": tr.busy(*jam),
        "jamming.k2_call_us": tr.busy("jamming.k2") / k2_calls * 1e6 if k2_calls else 0.0,
        "regions.calls": tr.calls("regions"),
        "regions.busy_s": tr.busy("regions"),
        "oracle.calls": tr.calls("oracle"),
        "oracle.busy_s": tr.busy("oracle"),
        "sweep.calls": tr.calls("sweep"),
        "sweep.busy_s": tr.busy("sweep"),
        "sweep.cell_replay_s": replay,
        "sweep.overhead_s": tr.busy("sweep") - replay,
        "trace.items_per_s": items_per_s,
    }
    units = dict(PER_LAYER)
    out = {}
    for name, unit in units.items():
        value = values.get(name, tr.counts[name])
        out[name] = {"value": value if name in NOT_PER_CYCLE else value / cycles, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, inherited = load_library()
    if args.setup_probe:
        next(workloads.WORKLOADS[args.workload](args.seed, ROOT).cycles())
        return 0

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.trace:
        setup_s = raw_setup_s = setup_gauge = None
    else:
        setup_gauge = SpeedGauge(FRESH_PROCESS)
        setup_s, raw_setup_s = setup_seconds(args, setup_gauge)
    gauge = SpeedGauge(wl.reference)
    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl.tmpdir = tmpdir
        tr = Tracer(bool(args.trace))
        # Item times at reference speed, and as measured.
        latencies, raw_latencies, faults, by_class = [], [], [], {}
        failed = 0
        timed = 0.0
        cycle_rates = []
        cycle_len = 0
        wall0 = time.perf_counter()
        for cycle in wl.cycles():
            cycle_len = len(cycle)
            cycle_time = 0.0
            for item in cycle:
                tr.item = len(latencies)
                ref = gauge.before()
                t0 = time.perf_counter()
                try:
                    out, error = wl.run(item, tr), None
                except Exception as exc:  # a raising call is a failed item, not a crash
                    out, error = None, f"{type(exc).__name__}: {exc}"
                raw = time.perf_counter() - t0
                latency = gauge.scale(raw, ref)
                latencies.append(latency)
                raw_latencies.append(raw)
                by_class.setdefault(wl.label(item), []).append(latency)
                timed += raw
                cycle_time += latency
                item_faults = [error] if error else wl.check(item, out)
                if item_faults:
                    failed += 1
                    faults.append(item_faults[0])
                elif args.trace:
                    wl.trace_item(item, out, tr)
                if time.perf_counter() - wall0 > WALL_LIMIT_S:
                    break
            else:
                cycle_rates.append(len(cycle) / cycle_time)
            if timed >= args.seconds or time.perf_counter() - wall0 > WALL_LIMIT_S:
                break
        wall = time.perf_counter() - wall0
        if args.trace:
            wl.trace_end(tr)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    n = len(latencies)
    pct, tail_s = tail(latencies, wl.tail_pct)
    items_per_s = statistics.median(cycle_rates) if cycle_rates else n / sum(latencies)
    if args.trace:
        # Whole cycles, or a fraction of one if the wall-time limit cut the run.
        metrics = layer_metrics(tr, items_per_s, cycles=n / cycle_len)
    else:
        if args.workload == "cli-cold":
            rss_kb = wl.peak_rss_kb
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_mb = rss_kb / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)
        values = {
            "items_per_s": items_per_s,
            "item_p50_ms": statistics.median(latencies) * 1e3,
            "item_tail_ms": tail_s * 1e3,
            "ok_frac": (n - failed) / n,
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "items": n,
        "cycles": n / cycle_len,
        "timed_s": timed,
        "wall_s": wall,
        "tail_percentile": pct,
        "reference_ms": gauge.median_ms(),
        "setup_reference_ms": setup_gauge.median_ms() if setup_gauge else None,
        "as_measured": {
            "items_per_s": n / timed,
            "item_p50_ms": statistics.median(raw_latencies) * 1e3,
            "item_tail_ms": tail(raw_latencies, pct)[1] * 1e3,
            "setup_s": raw_setup_s,
        },
        "classes": {
            label: {"items": len(v), "share": round(len(v) / n, 6), "p50_ms": statistics.median(v) * 1e3}
            for label, v in sorted(by_class.items())
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "git_commit": git_commit(),
            "seed": args.seed,
            "secrecy_rates_threads_inherited": inherited,
            "secrecy_rates_threads_seen": os.environ.get("SECRECY_RATES_THREADS"),
        },
        "traffic": wl.traffic_report(),
        "first_faults": faults[:5],
    }
    for fault in faults[:5]:
        print(f"perfbench: failed item: {fault}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
