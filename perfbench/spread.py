"""Run the benchmark over several seeds and summarise run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--sets 2] [--trace-seeds 1-3]
                                [--workloads many-users,cli-cold] [--out FILE]

Every run lasts the benchmark's own ``run_seconds``.  For each workload and
metric it reports the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread, the
distance between the quartiles as a share of the median.  Runs go one at a
time, seed by seed, with the workloads interleaved so that a slow spell of
the machine falls on all of them alike.  Untraced runs give the end-to-end
metrics.  ``--sets N`` runs the whole list of seeds N times and reports,
for every set after the first, the shift of each median against the
first set's, as a share of it.  ``--trace-seeds`` adds traced runs for the
per-layer metrics, and the tracing overhead: the untraced ``items_per_s``
median over the traced ``trace.items_per_s`` median, minus one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarise(results) -> dict:
    """Median, quartiles and spread per metric over a list of result lines."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{os.cpu_count()} CPUs, {model}, {platform.system()} {platform.release()}"


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace-seeds", type=seed_list, default=[])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    seconds = spec["run_seconds"]

    # (workload, set) -> [(info, result)]; set None holds the traced runs.
    runs = {(name, s): [] for name in names for s in [*range(args.sets), None]}
    passes = [(s, 0, args.seeds) for s in range(args.sets)] + [(None, 1, args.trace_seeds)]
    for s, trace, seeds in passes:
        for seed in seeds:
            for name in names:
                info, result = run_once(name, seed, seconds, trace)
                runs[name, s].append((info, result))
                short = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"{name} set {s} seed {seed} trace {trace}: failed {result['failed']}/{result['attempted']} {short}",
                      file=sys.stderr, flush=True)

    summary = {}
    for name in names:
        sets = [runs[name, s] for s in range(args.sets) if runs[name, s]]
        traced = runs[name, None]
        entry = {}
        if sets:
            plain = sets[0]
            entry["end_to_end"] = summarise([r for _, r in plain])
            entry["failed"] = sum(r["failed"] for _, r in plain)
            entry["attempted"] = sum(r["attempted"] for _, r in plain)
            entry["items_per_run"] = [i["items"] for i, _ in plain]
            entry["tail_percentile"] = sorted({i["tail_percentile"] for i, _ in plain})
            entry["classes"] = plain[0][0]["classes"]
            entry["traffic"] = [i["traffic"] for i, _ in plain]
        if len(sets) > 1:
            entry["later_sets"] = []
            for later in sets[1:]:
                stats = summarise([r for _, r in later])
                for metric, s in stats.items():
                    first = entry["end_to_end"][metric]["median"]
                    s["median_shift"] = (s["median"] - first) / first if first else 0.0
                entry["later_sets"].append(
                    {"end_to_end": stats, "failed": sum(r["failed"] for _, r in later),
                     "attempted": sum(r["attempted"] for _, r in later)}
                )
        if traced:
            entry["per_layer"] = summarise([r for _, r in traced])
            if sets:
                plain_rate = entry["end_to_end"]["items_per_s"]["median"]
                entry["trace_overhead"] = plain_rate / entry["per_layer"]["trace.items_per_s"]["median"] - 1.0
        summary[name] = entry
    first_run = next(runs[key][0][0] for key in runs if runs[key])
    cmdline = list(sys.argv[1:] if argv is None else argv)
    if "--out" in cmdline:
        del cmdline[cmdline.index("--out"):cmdline.index("--out") + 2]
    doc = {
        "what": " ".join(["python3 perfbench/spread.py", *(a for a in cmdline if not a.startswith("--out="))]),
        "machine": machine(),
        "commit": first_run["environment"]["git_commit"],
        "seeds": args.seeds,
        "sets": args.sets,
        "trace_seeds": args.trace_seeds,
        "run_seconds": seconds,
        "environment": first_run["environment"],
        "workloads": summary,
    }
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    for name, entry in summary.items():
        shifts = [s["end_to_end"] for s in entry.get("later_sets", [])]
        for metric, s in entry.get("end_to_end", {}).items():
            line = f"{name:16s} {metric:14s} median {s['median']:.5g} {s['unit']:5s} spread {s['spread']:.3f}"
            for later in shifts:
                line += f" | spread {later[metric]['spread']:.3f} shift {later[metric]['median_shift']:+.3f}"
            print(line)
        if "trace_overhead" in entry:
            print(f"{name:16s} trace overhead {entry['trace_overhead']:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
