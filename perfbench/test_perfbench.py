"""Tests of the benchmark itself.

Planted wrong answers must be counted as failed, inputs must depend on the
seed and on nothing else, and the output must match BENCHMARK.json.  Run
from the repository root with ``python3 -m pytest perfbench -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import secrecy_rates as sr  # noqa: E402
import rates  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OFF = Tracer(False)


def _many_users_item(seed=3, k=8):
    wl = workloads.ManyUsers(seed, ROOT)
    ch = wl.channel(k)
    return wl, ch, wl.run(ch, OFF)


def test_many_users_correct_answers_pass():
    wl, ch, out = _many_users_item()
    assert wl.check(ch, out) == []


@pytest.mark.parametrize("field", ["best", "cj"])
def test_perturbed_rate_fails(field):
    wl, ch, (best, cj) = _many_users_item()
    sol = best if field == "best" else cj
    sol.sum_rate += 1e-7
    assert wl.check(ch, (best, cj))


def test_over_cap_power_fails():
    wl, ch, (best, cj) = _many_users_item()
    cj.allocation.powers[0] = ch.power_caps[0] * 1.01
    assert any("above cap" in f for f in wl.check(ch, (best, cj)))


def test_best_below_sup_optimum_fails():
    wl, ch, (best, cj) = _many_users_item()
    zero = sr.SumRateSolution(sr.PowerAllocation.zeros(ch.k_users), (), 0.0, "SUP")
    assert rates.sup_optimum(ch.eve_gains, ch.power_caps) > 0
    assert wl.check(ch, (zero, cj))


def test_two_user_report_oracle_mismatch_fails():
    wl = workloads.TwoUserReport(5, ROOT)
    item = ("mac", wl.raw_channel("mac", 2))
    out = wl.run(item, OFF)
    assert wl.check(item, out) == []
    out["cj_oracle"] += 1e-5
    assert any("oracle" in f for f in wl.check(item, out))
    assert wl.mismatches == 1


def test_two_user_report_tw_correct_and_perturbed():
    wl = workloads.TwoUserReport(6, ROOT)
    item = ("tw", wl.raw_channel("tw", 2))
    out = wl.run(item, OFF)
    assert wl.check(item, out) == []
    out["best"].sum_rate *= 1.001
    assert wl.check(item, out)


@pytest.mark.parametrize("mode", ["MAC-CJ", "TW-CJ"])
def test_sweep_checks(mode):
    wl = workloads.SweepMap(7, ROOT)
    wl.RESOLUTION = 8
    item = (wl.variant(), mode)
    res = wl.run(item, OFF)
    assert wl.check(item, res) == []
    res.sum_rate[3, 4] += 1e-6
    assert any("recomputed rate" in f for f in wl.check(item, res))
    res.sum_rate[3, 4] -= 1e-6
    res.jam_power[2, 2, 0] = 10.0 * item[0].raw_power_caps[0]
    assert wl.check(item, res)
    res.jam_power[2, 2, 0] = 0.0
    res.error[0, 0] = True
    assert any("flagged error" in f for f in wl.check(item, res))


def test_cli_nonzero_exit_fails(tmp_path):
    wl = workloads.CliCold(8, ROOT)
    wl.tmpdir = str(tmp_path)
    argv = ["sumrate", "--model", "mac", "--caps", "-1,2", "--eve-gains", "0.1,0.2"]
    result = wl.run(argv, OFF)
    assert result[0] != 0
    assert wl.check(argv, result)


def test_cli_outputs_pass_and_perturbed_output_fails(tmp_path):
    wl = workloads.CliCold(9, ROOT)
    wl.tmpdir = str(tmp_path)
    for argv in wl.cycle():
        result = wl.run(argv, OFF)
        assert wl.check(argv, result) == [], argv
    argv = wl.argv("jam", "mac")
    code, out, _ = wl.run(argv, OFF)
    with open(out) as handle:
        doc = json.load(handle)
    doc["solution"]["sum_rate_bits"] += 1e-6
    assert workloads.cli_doc_faults(argv, doc, wl.SWEEP_GRID)


def test_speed_gauge_scales_to_the_reference():
    ref = speed.PYTHON
    gauge = speed.SpeedGauge(ref)
    assert gauge.scale(0.01, 2 * ref.nominal_s) == pytest.approx(0.005)
    before = len(gauge.samples)
    gauge.scale(2 * ref.every_s, ref.nominal_s)
    assert len(gauge.samples) == before + 1  # long items are bracketed by a second sample


def test_layer_sums_are_per_cycle():
    tr = Tracer(True)
    tr.spans += [("allocation", 0.0, 3.0, 0), ("jamming.k2", 0.0, 2e-4, 0), ("jamming.k2", 0.0, 4e-4, 1)]
    tr.count("jamming.candidates", 60)
    tr.counts["cli.import_s"] = 0.05
    metrics = {k: v["value"] for k, v in run.layer_metrics(tr, 5.0, cycles=2.0).items()}
    assert metrics["allocation.busy_s"] == pytest.approx(1.5)
    assert metrics["allocation.calls"] == 0.5
    assert metrics["jamming.calls"] == 1.0
    assert metrics["jamming.candidates"] == 30.0
    assert metrics["jamming.k2_call_us"] == pytest.approx(300.0)  # a mean per call, not a sum
    assert metrics["cli.import_s"] == 0.05
    assert metrics["trace.items_per_s"] == 5.0


def _fingerprint(items) -> str:
    def plain(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return obj

    return json.dumps(plain(items))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    def first_cycles(seed):
        gen = workloads.WORKLOADS[name](seed, ROOT).cycles()
        return _fingerprint([next(gen) for _ in range(2)])

    assert first_cycles(11) == first_cycles(11)
    assert first_cycles(11) != first_cycles(12)


def test_every_benchmark_workload_is_implemented():
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _run("--workload", "two-user-report", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(names)


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "many-users", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
