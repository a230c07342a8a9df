"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import importlib
import json
import math
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from secrecy_rates import Scene, allocation, cli, default_scene
from secrecy_rates.channels import canonical_float

from test_sweep import ODD_UNITS, _cell_reference

# the package exports the sweep function under the module's name
sweep_module = importlib.import_module("secrecy_rates.sweep")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_region_csv_vertices(capsys):
    code, out, err = run_cli(
        capsys, "region", "--model", "mac", "--caps", "4,4", "--eve-gains", "0.1,0.3",
        "--format", "csv",
    )
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "rs1,rs2"
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert len(rows) == 15
    assert any(
        np.isclose(x, 0.918250633859, rtol=0, atol=1e-9) and y == 0.0 for x, y in rows
    ), "superposition sum-rate corner missing from the hull"
    best = max(x + y for x, y in rows)
    assert np.isclose(best, 0.961575697975, rtol=0, atol=1e-9), f"max vertex sum {best}"


def test_region_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--model", "tw", "--caps", "4,2", "--eve-gains", "0.3,0.7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["region"]["provenance"] == "TW"
    kinds = {c["kind"] for c in doc["region"]["constraints"]}
    assert "secrecy-rate" in kinds


def test_jam_tw_example(capsys):
    code, out, _ = run_cli(
        capsys, "jam", "--model", "tw", "--caps", "2,2", "--eve-gains", "0.5,4.2"
    )
    assert code == 0
    doc = json.loads(out)
    sol = doc["solution"]
    assert sol["jam_set"] == [2]
    assert sol["transmit_set"] == [1]
    assert np.isclose(sol["sum_rate_bits"], 0.7195558171288506, rtol=0, atol=1e-9)
    assert sol["powers"] == [2.0, 2.0]


def test_jam_mac_csv(capsys):
    code, out, _ = run_cli(
        capsys, "jam", "--model", "mac", "--caps", "2,2", "--eve-gains", "1.1,1.4",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p1_tx,p2_tx,p1_jam,p2_jam,sum_rate_bits,branch"
    cells = next(csv.reader([lines[1]]))
    assert cells[:4] == ["2", "0", "0", "2"]
    assert np.isclose(float(cells[4]), 0.039001256000636524, rtol=0, atol=1e-9)
    assert cells[5] == "T=1,J=2"


def test_sumrate_zero_case(capsys):
    code, out, _ = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "4,4", "--eve-gains", "1.2,1.5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"]["sum_rate_bits"] == 0.0
    assert doc["solution"]["transmit_set"] == []


def test_sumrate_low_snr_prefers_tdma(capsys):
    """At caps 1e-10 TDMA wins by about 1e-22 bits, which log1p resolves."""
    code, out, _ = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "1e-10,1e-10", "--eve-gains", "0.1,0.3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"]["mode"] == "TDMA"
    assert doc["solution"]["sum_rate_bits"] == 1.15415603257e-10


def test_sumrate_eight_users_numeric_tdma_bytes(capsys):
    """Eight users with distinct gains below 1 take the numeric TDMA search;
    the printed document is pinned byte for byte."""
    code, out, err = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "1,2,3,4,5,6,7,8",
        "--eve-gains", "0.05,0.15,0.3,0.45,0.6,0.75,0.85,0.95",
    )
    assert code == 0, err
    caps = [float(c) for c in range(1, 9)]
    doc = {
        "channel": {
            "eve_gains": [0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95],
            "form": "standardized",
            "model": "mac",
            "permutation": [[k] for k in range(1, 9)],
            "power_caps": caps,
            "source_caps": [[c] for c in caps],
        },
        "solution": {
            "mode": "TDMA",
            "powers": [1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "shares": [0.242247795771, 0.411292632673, 0.346459571556, 0.0, 0.0, 0.0, 0.0, 0.0],
            "sum_rate_bits": 0.86188986615,
            "transmit_set": [1, 2, 3],
        },
    }
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_sumrate_32_users_half_weak_numeric_tdma_bytes(capsys):
    """A many-users-shaped channel: 32 users, 16 gains below 1 and 16 above,
    caps 1..32 in a shuffled order.  TDMA beats superposition and the
    numeric search gives the time to three users; the document is pinned
    byte for byte."""
    caps = [float(c) for c in (1, 8, 15, 22, 29, 4, 11, 18, 25, 32, 7, 14, 21, 28, 3, 10,
                               17, 24, 31, 6, 13, 20, 27, 2, 9, 16, 23, 30, 5, 12, 19, 26)]
    gains = [round(0.03 + 0.06 * i, 2) for i in range(16)] + [round(1.05 + 0.06 * i, 2) for i in range(16)]
    code, out, err = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", ",".join(f"{c:g}" for c in caps),
        "--eve-gains", ",".join(repr(g) for g in gains),
    )
    assert code == 0, err
    doc = {
        "channel": {
            "eve_gains": gains,
            "form": "standardized",
            "model": "mac",
            "permutation": [[k] for k in range(1, 33)],
            "power_caps": caps,
            "source_caps": [[c] for c in caps],
        },
        "solution": {
            "mode": "TDMA",
            "powers": [1.0, 8.0, 15.0] + [0.0] * 29,
            "shares": [0.0818731206491, 0.479158871421, 0.43896800793] + [0.0] * 29,
            "sum_rate_bits": 1.36349691515,
            "transmit_set": [1, 2, 3],
        },
    }
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_sumrate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sumrate", "--model", "tw", "--caps", "4,2", "--eve-gains", "0.3,0.7",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,p1,p2,sum_rate_bits"
    cells = lines[1].split(",")
    assert cells[0] == "TW" and cells[1] == "4" and cells[2] == "2"
    assert np.isclose(float(cells[3]), 1.0294468445267841, rtol=0, atol=1e-9)


def test_raw_input_standardizes(capsys):
    """Raw gains and noises give the same answer as the standardized form."""
    code_raw, out_raw, _ = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "2,4",
        "--main-gains", "2,1", "--eve-gains", "1,1", "--noises", "1,2",
    )
    assert code_raw == 0
    code_std, out_std, _ = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "4,4", "--eve-gains", "0.25,0.5"
    )
    assert code_std == 0
    raw_doc, std_doc = json.loads(out_raw), json.loads(out_std)
    assert raw_doc["solution"] == std_doc["solution"]
    assert raw_doc["channel"]["eve_gains"] == [0.25, 0.5]


def test_verify_flag_sumrate(capsys):
    code, out, _ = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "4,4", "--eve-gains", "0.1,0.2",
        "--verify",
    )
    assert code == 0
    verify = json.loads(out)["verify"]
    assert verify["objective"] == "superposition"
    assert abs(verify["difference_bits"]) <= 1e-9
    assert verify["oracle_powers"] == [4.0, 4.0]


@pytest.mark.parametrize(
    "caps, gains, mode", [("4,4", "0.5,2", "SUP"), ("4,4", "0.1,0.2", "TDMA")]
)
def test_sumrate_verify_solves_superposition_once(capsys, monkeypatch, caps, gains, mode):
    """The oracle checks the superposition optimum that the answer was chosen
    against, solved once; the solution is the one printed without --verify."""
    calls = []
    solve = allocation.mac_sup_optimal

    def counted(ch):
        calls.append(ch)
        return solve(ch)

    monkeypatch.setattr(allocation, "mac_sup_optimal", counted)
    monkeypatch.setattr(cli, "mac_sup_optimal", counted)
    argv = ("sumrate", "--model", "mac", "--caps", caps, "--eve-gains", gains)
    code, out, _ = run_cli(capsys, *argv, "--verify", "--grid", "21")
    assert code == 0 and len(calls) == 1
    doc = json.loads(out)
    assert doc["solution"]["mode"] == mode
    assert doc["verify"]["solver_sum_rate_bits"] == canonical_float(solve(calls[0]).sum_rate)
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(plain)["solution"] == doc["solution"]


def test_verify_flag_jam(capsys):
    code, out, _ = run_cli(
        capsys, "jam", "--model", "mac", "--caps", "2,2", "--eve-gains", "1.1,1.4",
        "--verify",
    )
    assert code == 0
    verify = json.loads(out)["verify"]
    assert verify["objective"] == "cooperative-jamming"
    assert abs(verify["difference_bits"]) <= 1e-6


def test_verify_command_runs_both(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--model", "tw", "--caps", "4,2", "--eve-gains", "0.3,0.7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sumrate"]["verify"]["objective"] == "two-way"
    assert doc["jam"]["verify"]["objective"] == "cooperative-jamming"
    assert abs(doc["sumrate"]["verify"]["difference_bits"]) <= 1e-9
    assert abs(doc["jam"]["verify"]["difference_bits"]) <= 1e-9


def test_verify_three_user_mac_bytes(capsys):
    """Three users, one of them jamming at an interior pivot power: the MAC
    jamming oracle finds that power as a rho-fit candidate on the jammer's
    axis, and the printed document is pinned byte for byte."""
    code, out, err = run_cli(
        capsys, "verify", "--model", "mac", "--caps", "1,2,3", "--eve-gains", "0.5,1.2,1.6"
    )
    assert code == 0, err
    doc = {
        "channel": {
            "eve_gains": [0.5, 1.2, 1.6],
            "form": "standardized",
            "model": "mac",
            "permutation": [[1], [2], [3]],
            "power_caps": [1.0, 2.0, 3.0],
            "source_caps": [[1.0], [2.0], [3.0]],
        },
        "jam": {
            "solution": {
                "diagnostics": {"branch": "T=1,J=3", "case": "pivot-interior"},
                "jam_set": [3],
                "pivot_power": 0.0587086268471,
                "pivot_user": 3,
                "powers": [1.0, 0.0, 0.0587086268471],
                "quad_coeffs": [1.76, 1.6, -0.1],
                "silent_set": [2],
                "sum_rate_bits": 0.208183894892,
                "transmit_set": [1],
            },
            "verify": {
                "difference_bits": -5.55111512313e-17,
                "objective": "cooperative-jamming",
                "oracle_powers": [1.0, 0.0, 0.0587086268471],
                "oracle_sum_rate_bits": 0.208183894892,
                "solver_sum_rate_bits": 0.208183894892,
            },
        },
        "sumrate": {
            "solution": {
                "mode": "SUP",
                "powers": [1.0, 0.0, 0.0],
                "shares": None,
                "sum_rate_bits": 0.207518749639,
                "transmit_set": [1],
            },
            "verify": {
                "difference_bits": 0.0,
                "objective": "superposition",
                "oracle_powers": [1.0, 0.0, 0.0],
                "oracle_sum_rate_bits": 0.207518749639,
                "solver_sum_rate_bits": 0.207518749639,
            },
        },
    }
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_output_is_byte_stable(capsys):
    args = ("jam", "--model", "mac", "--caps", "4,4", "--eve-gains", "0.5,1.4")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_channel_round_trip(capsys, tmp_path):
    """A channel block emitted by one command feeds the next one."""
    _, out, _ = run_cli(
        capsys, "jam", "--model", "tw", "--caps", "2,2", "--eve-gains", "0.5,4.2"
    )
    channel_doc = json.loads(out)["channel"]
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(channel_doc))
    code, out2, err = run_cli(capsys, "jam", "--channel", str(path))
    assert code == 0, err
    assert json.loads(out2)["solution"] == json.loads(out)["solution"]


def test_exit_one_on_bad_flag_values(capsys):
    code, _, err = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "4,4", "--eve-gains", "0.1"
    )
    assert code == 1
    assert "invalid --eve-gains: expected 2 values, got 1" in err


def test_exit_one_on_missing_channel_field(capsys, tmp_path):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"form": "standardized", "model": "mac", "eve_gains": [0.1, 0.3]}))
    code, _, err = run_cli(capsys, "sumrate", "--channel", str(path))
    assert code == 1
    assert "power_caps" in err


def test_exit_one_on_a_permutation_that_repeats_a_user(capsys, tmp_path):
    path = tmp_path / "chan.json"
    doc = {"form": "standardized", "model": "mac", "eve_gains": [0.3, 0.7], "power_caps": [1.0, 2.0]}
    path.write_text(json.dumps({**doc, "permutation": [[1], [1]]}))
    code, out, err = run_cli(capsys, "jam", "--channel", str(path))
    assert code == 1 and out == ""
    assert "permutation" in err


@pytest.mark.parametrize(
    "fields, name",
    [
        ('"source_caps": [[NaN], [4]]', "source_caps"),
        ('"source_caps": [[-3], [4]]', "source_caps"),
        ('"source_caps": [[1, 2], [4]], "permutation": [[1], [2]]', "source_caps"),
        ('"source_caps": [1, 2]', "source_caps"),
        ('"permutation": "12"', "permutation"),
        ('"permutation": [[1.5], [2]]', "permutation"),
    ],
    ids=[
        "nan-cap", "negative-cap", "group-size", "ungrouped-caps", "string-permutation",
        "fractional-index",
    ],
)
def test_exit_one_on_a_malformed_standardized_mac_field(capsys, fields, name):
    """A standardized MAC document whose source_caps or permutation is malformed
    is an input error naming the field, not an internal failure or a silent
    echo of a repaired value."""
    doc = '{"form": "standardized", "model": "mac", "eve_gains": [0.1, 0.3], "power_caps": [4, 4], '
    code, out, err = run_cli(capsys, "jam", "--channel", doc + fields + "}")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and name in err


def test_exit_one_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "sumrate", "--channel", "no-such-channel.json")
    assert code == 1
    assert "channel file not found" in err


def test_exit_two_on_internal_failure(capsys, monkeypatch):
    """A failure inside a solver, not in the input, is an internal error."""

    def broken(ch):
        raise RuntimeError("solver failed")

    monkeypatch.setattr(cli, "mac_best_sum_rate", broken)
    code, out, err = run_cli(capsys, "sumrate", "--caps", "4,4", "--eve-gains", "0.1,0.3")
    assert code == 2 and out == ""
    assert err == "internal error: solver failed\n"


_RAW_MAC = {"form": "raw", "model": "mac", "main_gains": [1, 1], "tap_gains": [0.1, 0.3], "main_noise": 1,
            "tap_noise": 1, "power_caps": [4, 4]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**_RAW_MAC, "main_noise": [1]}, "main_noise must be a number"),
        ({**_RAW_MAC, "main_noise": "x"}, "main_noise must be a number"),
        ({**_RAW_MAC, "tap_noise": None}, "tap_noise must be a number"),
        (
            {"form": "standardized", "model": "tw", "eve_gains": [0.5, "a"], "power_caps": [2, 2]},
            "eve_gains must be a 1-D sequence of numbers",
        ),
        (
            {"form": "standardized", "model": "mac", "eve_gains": {"a": 1}, "power_caps": [4, 4]},
            "eve_gains must be a 1-D sequence of numbers",
        ),
        (
            {"form": "raw", "model": "tw", "main_gains": [1, 1], "tap_gains": [0.1, 0.3], "receiver_noises": [1, [1]],
             "tap_noise": 1, "power_caps": [2, 2]},
            "receiver_noises must be a 1-D sequence of numbers",
        ),
    ],
    ids=["list-noise", "string-noise", "null-tap-noise", "string-gain", "object-gains", "ragged-noises"],
)
def test_exit_one_on_a_channel_field_of_the_wrong_type(capsys, tmp_path, doc, message):
    """A channel JSON field that is not a number, or not a list of numbers, is
    an input error naming the field, and nothing is written."""
    out_file = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "sumrate", "--channel", json.dumps(doc), "--out", str(out_file))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not out_file.exists()


def test_sumrate_just_outside_the_tie_boundary_exits_zero(capsys):
    """Two gains one ulp wider apart than GAIN_MERGE_RTOL stay two users, and
    the merge keeps their gains as given, so the channel stays strictly
    ascending and the solvers run."""
    argv = ("sumrate", "--caps", "6.773061453610659,1", "--eve-gains", "0.3000000245221112,0.3000000248221113")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    solution = json.loads(out)["solution"]
    assert (solution["mode"], solution["sum_rate_bits"]) == ("TDMA", 0.698363603571)


def test_nonfinite_json_exits_two_naming_the_key(capsys, tmp_path):
    """At eve gains (0.25, 2.5e149) user 1 transmits alone, as
    mac_sup_optimal gives.  At two-way caps 1e308 user 2's psi value
    (1 + h c) / (1 + c) overflows; strict JSON refuses it.  At caps 1e155
    the winner's pivot quadratic overflows, and the solver refuses it
    naming power_caps."""
    out_file = tmp_path / "jam.json"
    code, out, err = run_cli(capsys, "jam", "--caps", "8,8", "--eve-gains", "0.25,2.5e149")
    assert (code, err) == (0, "")
    solution = json.loads(out)["solution"]
    assert (solution["transmit_set"], solution["sum_rate_bits"]) == ([1], 0.792481250361)
    argv = ("jam", "--model", "tw", "--caps", "1e308,1e308", "--eve-gains", "1.2,2")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "internal error" in err and "solution.diagnostics.psi_2" in err
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 2 and not out_file.exists()
    argv = ("jam", "--caps", "1e155,1e155", "--eve-gains", "0.5,2", "--out", str(out_file))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and not out_file.exists()
    assert err.startswith("internal error: power_caps are too large"), err
    with pytest.raises(FloatingPointError, match=r"rows\[1\]\[0\]"):
        cli._dump_json({"rows": [[0.0, 1.0], [float("-inf"), 2.0]]})
    assert cli._dump_json({"b": [1e155, 0.5], "a": None}) == (
        '{\n  "a": null,\n  "b": [\n    1e+155,\n    0.5\n  ]\n}\n'
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_region_with_overflowing_caps_exits_one_naming_power_caps(capsys, tmp_path, fmt):
    out_file = tmp_path / f"region.{fmt}"
    argv = ("region", "--model", "mac", "--caps", "1e308,1e308", "--eve-gains", "0.1,0.3",
            "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "power_caps" in err
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 1 and not out_file.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("sumrate", "--verify", "--model", "mac", "--caps", "1e308,1e308", "--eve-gains", "0.9,0.95"),
        ("jam", "--verify", "--model", "tw", "--caps", "1e308,1e308", "--eve-gains", "1.2,1.5"),
        ("jam", "--verify", "--model", "mac", "--caps", "1e104,1e104", "--eve-gains", "1.1,1.4"),
    ],
    ids=["sumrate-mac-1e308", "jam-tw-1e308", "jam-mac-1e104"],
)
def test_verify_with_overflowing_caps_exits_one_naming_power_caps(capsys, argv):
    """Caps at which the grid oracle would overflow are an input error."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "power_caps" in err


def test_nonfinite_csv_exits_two_naming_the_column(capsys, tmp_path, monkeypatch):
    """CSV is as strict as JSON: a NaN vertex is an internal failure and
    nothing is written."""
    real = cli.mac_hull_region

    def nan_vertex(*args, **kwargs):
        region = real(*args, **kwargs)
        region.vertices2d[1] = (region.vertices2d[1][0], float("nan"))
        return region

    monkeypatch.setattr(cli, "mac_hull_region", nan_vertex)
    out_file = tmp_path / "region.csv"
    argv = ("region", "--caps", "4,4", "--eve-gains", "0.1,0.3", "--format", "csv")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "internal error" in err and "column rs2 of row 2" in err
    code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 2 and not out_file.exists()
    with pytest.raises(FloatingPointError, match="column sum_rate_bits of row 1"):
        cli._csv_table(["mode", "p1", "sum_rate_bits"], [["SUP", 1.0, float("nan")]])
    assert cli._csv_table(["a", "b"], [["x,y", 0.1], ["z", 2.0]]) == 'a,b\n"x,y",0.1\nz,2\n'


def test_sumrate_at_caps_near_the_float_limit(capsys):
    """The TDMA search's Newton slope is 0 or not finite at these caps and
    falls back to bisection.  The rate lies between user 1's single-user
    secrecy rate at cap and 1/2 log2(1/h1), which bounds every superposition
    and TDMA rate; no RuntimeWarning escapes (they are errors here)."""
    code, out, err = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "1e308,1e308", "--eve-gains", "0.9,0.95"
    )
    assert code == 0, err
    rate = json.loads(out)["solution"]["sum_rate_bits"]
    lower = 0.5 * math.log2((1.0 + 1e308) / (1.0 + 0.9e308))
    assert lower - 1e-12 <= rate <= 0.5 * math.log2(1.0 / 0.9) + 1e-12


def test_sumrate_single_weak_user_at_a_huge_cap(capsys):
    """Only user 1 has a gain below 1, and c ln(1/h) overflows at its cap;
    TDMA gives it all the time, ties superposition, and SUP is printed."""
    code, out, err = run_cli(
        capsys, "sumrate", "--model", "mac", "--caps", "1e308,1", "--eve-gains", "0.1,1.5"
    )
    assert code == 0, err
    solution = json.loads(out)["solution"]
    assert solution["mode"] == "SUP"
    assert solution["powers"] == [1e308, 0.0]
    assert solution["sum_rate_bits"] == 1.66096404744


def test_sweep_csv_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "mac", "--grid", "4", "--bounds=-1,1,-1,1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,p1_tx,p2_tx,p1_jam,p2_jam,sum_rate_bits,branch"
    assert len(lines) == 1 + 16


def test_sweep_out_writes_csv_and_metadata(capsys, tmp_path):
    target = tmp_path / "map.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--model", "tw", "--grid", "3", "--bounds=-1,1,-1,1",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert target.exists()
    meta = json.loads((tmp_path / "map.csv.meta.json").read_text())
    for key in ("scene", "mode", "resolution", "grid_bounds", "library_version"):
        assert key in meta
    assert meta["mode"] == "TW-CJ"
    assert meta["resolution"] == 3


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--model", "mac", "--grid", "3", "--bounds=-1,1,-1,1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == [
        "x", "y", "p1_tx", "p2_tx", "p1_jam", "p2_jam", "sum_rate_bits", "branch",
    ]
    assert len(doc["rows"]) == 9


def test_sweep_scene_file(capsys, tmp_path):
    scene = {
        "transmitter_positions": [[-1.0, 0.0], [1.0, 0.0]],
        "receiver_position": [0.0, 0.0],
        "raw_power_caps": [1.0, 1.0],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code, out, _ = run_cli(
        capsys, "sweep", "--scene", str(path), "--grid", "3", "--bounds=-2,2,-2,2",
        "--format", "csv",
    )
    assert code == 0
    bad = dict(scene, wrong_field=1)
    path.write_text(json.dumps(bad))
    code2, _, err = run_cli(
        capsys, "sweep", "--scene", str(path), "--grid", "3", "--format", "csv"
    )
    assert code2 == 1
    assert "wrong_field" in err


def test_sweep_scene_with_bad_noise_exits_one(capsys, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(
        json.dumps({"transmitter_positions": [[-1.0, 0.0], [1.0, 0.0]], "main_noise": -1})
    )
    code, out, err = run_cli(capsys, "sweep", "--scene", str(path), "--grid", "3")
    assert code == 1
    assert out == ""
    assert "main_noise" in err


@pytest.mark.parametrize("exponent", [400, 2000])
def test_sweep_scene_with_overflowing_path_loss_exits_one(capsys, tmp_path, exponent):
    path = tmp_path / "scene.json"
    path.write_text(
        json.dumps(
            {
                "transmitter_positions": [[-0.5, 0.0], [0.5, 0.0]],
                "receiver_position": [0.0, 0.0],
                "path_loss_exponent": exponent,
            }
        )
    )
    code, out, err = run_cli(capsys, "sweep", "--scene", str(path), "--grid", "5")
    assert code == 1
    assert out == ""
    assert f"path_loss_exponent {exponent} overflows" in err


def test_sweep_scene_with_bad_position_exits_one(capsys, tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"transmitter_positions": [[0.0], [1.0, 0.0]]}))
    code, out, err = run_cli(capsys, "sweep", "--scene", str(path), "--grid", "3")
    assert code == 1
    assert out == ""
    assert "transmitter_positions" in err


@pytest.mark.parametrize("doc", ["5", "null", "[1, 2]", '"abc"'])
def test_sweep_scene_that_is_not_an_object_exits_one(capsys, tmp_path, doc):
    path = tmp_path / "scene.json"
    path.write_text(doc)
    code, out, err = run_cli(capsys, "sweep", "--scene", str(path), "--grid", "3")
    assert code == 1
    assert out == ""
    assert f"scene JSON in {path} must be an object, got {doc}" in err


def test_overflowing_standardization_exits_one_naming_the_user(capsys):
    """No RuntimeWarning comes before the error, so this holds with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "sumrate", "--main-gains", "1e-300,1", "--eve-gains", "1e10,1", "--caps", "1,1"
        )
        assert code == 1 and out == ""
        assert "standardized eve gain of user 1 is not finite: tap_gains 10000000000.0" in err
        code, out, err = run_cli(
            capsys, "sumrate", "--main-gains", "1e300,1", "--eve-gains", "1,1", "--caps", "1e10,1"
        )
        assert code == 1 and out == ""
        assert "standardized power cap of user 1 is not finite: main_gains 1e+300" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_raw_power_overflow_exits_two(capsys, tmp_path, fmt):
    """raw_power_caps of 1e200 fail 24 of 25 MAC cells: the winner's pivot
    quadratic overflows (naming power_caps) or the raw-domain powers do
    (naming raw_power_caps)."""
    path = tmp_path / "scene.json"
    doc = {"transmitter_positions": [[-0.5, 0], [0.5, 0]], "receiver_position": [0, 0]}
    path.write_text(json.dumps(dict(doc, raw_power_caps=[1e200, 1e200])))
    code, out, err = run_cli(capsys, "sweep", "--scene", str(path), "--grid", "5", "--format", fmt)
    assert code == 2
    assert "inf" not in out
    scene = Scene(**dict(doc, raw_power_caps=[1e200, 1e200]))
    with pytest.raises(OverflowError) as first:
        _cell_reference(scene, -1.0, -1.0, "MAC-CJ")
    assert err == f"internal error: 24 of 25 cells failed; first: cell (x=-1, y=-1): OverflowError: {first.value}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_failed_cells_writes_output_and_exits_two(capsys, tmp_path, monkeypatch, fmt):
    """A planted gain that overflows the solve for an eavesdropper on a
    transmitter: 2 of 25 cells."""
    real_gains = sweep_module._gains

    def gains(scene, points, target):
        # 1e300 where the eavesdropper is on a transmitter: its pivot quadratic overflows
        on = (np.asarray(points, dtype=float) == target).all(axis=1)
        return np.where(on, 1e300, real_gains(scene, points, target))

    monkeypatch.setattr(sweep_module, "_gains", gains)
    path = tmp_path / "scene.json"
    path.write_text(
        json.dumps(
            {
                "transmitter_positions": [[-0.5, 0.0], [0.5, 0.0]],
                "receiver_position": [0.0, 0.0],
            }
        )
    )
    code, out, err = run_cli(
        capsys, "sweep", "--scene", str(path), "--grid", "5", "--format", fmt
    )
    assert code == 2
    if fmt == "csv":
        branches = [row[-1] for row in csv.reader(out.splitlines()[1:])]
    else:
        branches = [row[-1] for row in json.loads(out)["rows"]]
    assert len(branches) == 25
    assert branches.count("error") == 2
    assert "2 of 25 cells failed" in err
    assert "x=-0.5, y=0" in err and "OverflowError" in err



@pytest.mark.parametrize(
    "model, digest, tied_rows",
    [
        (
            "mac",
            "6c15d92d81cf61d44f3b797155ad02f2c605b11fbe06dd27c1863ba49d630492",
            ['0,-1,1.3,2.9,0,0,1.58739640441,"T=1,J=none"',
             '0,-0.875,1.3,2.9,0,0,1.48820494808,"T=1,J=none"'],
        ),
        (
            "tw",
            "5ed31c3a7d2a32929a34bd52120de4befd0c01a090d63e5b4f97571d3a43d449",
            ["0,-1,1.3,2.9,0,0,0.94734244481,both-transmit",
             "0,-0.875,1.3,2.9,0,0,0.848150988488,both-transmit"],
        ),
    ],
)
def test_sweep_csv_bytes_with_odd_units(capsys, tmp_path, model, digest, tied_rows):
    """A 17 x 17 sweep of the default geometry with unequal caps and noises
    (ODD_UNITS), pinned byte for byte by its SHA-256.  The x = 0 column of
    the odd grid holds the MAC cells whose two users tie, merge into one and
    split their power back by caps, and these units move some singleton
    gains by an ulp."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**default_scene().to_json(), **ODD_UNITS}))
    code, out, err = run_cli(
        capsys, "sweep", "--model", model, "--grid", "17", "--format", "csv", "--scene", str(path)
    )
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 1 + 17 * 17
    assert [line for line in lines if line.startswith("0,")][:2] == tied_rows
    assert hashlib.sha256(out.encode()).hexdigest() == digest


DEFAULT_TRANSMITTERS = [[-0.5, 0.0], [0.5, 0.0]]


@pytest.mark.parametrize(
    "scene, args, name",
    [
        (None, ["--bounds=-inf,1,-1,1"], "grid_bounds"),
        (None, ["--bounds=-1e308,1e308,-1,1"], "grid_bounds"),
        ({"transmitter_positions": DEFAULT_TRANSMITTERS}, ["--model", "mac"], "receiver_position"),
        (
            {"transmitter_positions": DEFAULT_TRANSMITTERS, "receiver_position": [1e200, 0.0]},
            ["--model", "mac"],
            "receiver_position",
        ),
        (
            {"transmitter_positions": [[-1e200, 0.0], [1e200, 0.0]]},
            ["--model", "tw"],
            "transmitter_positions",
        ),
        pytest.param(
            {
                "transmitter_positions": DEFAULT_TRANSMITTERS,
                "receiver_position": [0.0, 0.0],
                "raw_power_caps": [1e307, 1],
                "main_noise": 0.01,
            },
            ["--model", "mac"],
            "raw_power_caps [1e+307, 1] and main_noise 0.01",
            id="mac-cap-overflow",
        ),
    ],
)
def test_sweep_whole_grid_faults_exit_one_naming_the_field(capsys, tmp_path, scene, args, name):
    """Inputs that would fail every cell are rejected as input errors."""
    if scene is not None:
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        args = args + ["--scene", str(path)]
    code, out, err = run_cli(capsys, "sweep", "--grid", "3", *args)
    assert code == 1
    assert out == ""
    assert name in err and "cells failed" not in err


def test_sweep_scene_with_unknown_fields_exits_one_naming_them(capsys, tmp_path):
    path = tmp_path / "scene.json"
    doc = sweep_module.default_scene().to_json()
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "sweep", "--grid", "2", "--scene", str(path))
    assert code == 0, err  # every field to_json writes is a known scene field
    path.write_text(json.dumps(dict(doc, wrong_field=1, noise=2.0)))
    code, out, err = run_cli(capsys, "sweep", "--grid", "2", "--scene", str(path))
    assert code == 1
    assert out == ""
    assert "unknown scene fields: ['noise', 'wrong_field']" in err


@pytest.mark.parametrize("model", ["mac", "tw"])
def test_sweep_json_and_csv_rows_agree(capsys, model):
    argv = ("sweep", "--model", model, "--grid", "4", "--bounds=-1,1,-1,1")
    code_csv, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
    code_json, out_json, _ = run_cli(capsys, *argv, "--format", "json")
    assert code_csv == 0 and code_json == 0
    csv_rows = list(csv.reader(out_csv.splitlines()))
    doc = json.loads(out_json)
    assert csv_rows[0] == doc["columns"]
    assert len(csv_rows) - 1 == len(doc["rows"]) == 16
    for csv_row, json_row in zip(csv_rows[1:], doc["rows"]):
        assert csv_row[-1] == json_row[-1]
        for text, value in zip(csv_row[:-1], json_row[:-1]):
            assert float(text) == float(f"{value:.12g}")

@pytest.mark.parametrize("grid", ["0", "-3", "1"])
@pytest.mark.parametrize("command", ["sweep", "region", "sumrate"])
def test_bad_grid_exits_one_naming_the_flag(capsys, command, grid):
    # a sweep takes its channels from its scene, so it has no channel flags
    channel = [] if command == "sweep" else ["--caps", "4,4", "--eve-gains", "0.1,0.3"]
    code, out, err = run_cli(capsys, command, *channel, f"--grid={grid}")
    assert code == 1
    assert out == ""
    assert "invalid --grid" in err and grid in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--channel", "nonsense"),
        ("--caps", "1,2"),
        ("--eve-gains", "5,5"),
        ("--main-gains", "1,1"),
        ("--noises", "1,1"),
        ("--self-gains", "0,0"),
    ],
)
def test_sweep_refuses_channel_flags(capsys, tmp_path, flag, value):
    """A sweep would ignore the channel flags, so it refuses them: a usage
    error, exit 1, naming the flag, with nothing written."""
    out_path = tmp_path / "map.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--grid", "2", flag, value, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == "" and not out_path.exists()
    assert f"unrecognized arguments: {flag} {value}" in captured.err


_STD_MAC = '{"form": "standardized", "model": "mac", "eve_gains": [0.1, 0.3], "power_caps": [4, 4]}'


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--noises", ["--caps", "4,4", "--eve-gains", "0.1,0.3", "--noises", "5,7"]),
        ("--noises", ["--model", "tw", "--caps", "2,2", "--eve-gains", "0.5,4.2", "--noises", "1,1,1"]),
        ("--caps", ["--channel", _STD_MAC, "--caps", "4,4"]),
        ("--eve-gains", ["--channel", _STD_MAC, "--eve-gains", "0.1,0.3"]),
        ("--main-gains", ["--channel", _STD_MAC, "--main-gains", "1,1"]),
        ("--noises", ["--channel", _STD_MAC, "--noises", "1,1"]),
    ],
    ids=[
        "noises-std-mac", "noises-std-tw",
        "channel-caps", "channel-eve-gains", "channel-main-gains", "channel-noises",
    ],
)
@pytest.mark.parametrize("command", ["region", "sumrate", "jam", "verify"])
def test_channel_flags_the_form_would_not_read_exit_one_naming_the_flag(capsys, tmp_path, command, flag, argv):
    """A channel flag that the chosen channel form would not read is an
    input error, not ignored: exit 1, the flag named, nothing written."""
    out_path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, command, *argv, "--out", str(out_path))
    assert code == 1 and out == "" and not out_path.exists()
    assert err.startswith(f"error: {flag} ")


@pytest.mark.parametrize(
    "argv",
    [
        ["--caps", "4,4", "--eve-gains", "0.1,0.3", "--self-gains", "3,3"],
        ["--model", "tw", "--caps", "2,2", "--eve-gains", "0.5,4.2", "--self-gains", "3,3"],
        ["--model", "tw", "--caps", "2,2", "--main-gains", "1,1", "--eve-gains", "0.5,0.5", "--self-gains", "3,3"],
        ["--channel", _STD_MAC, "--self-gains", "3,3"],
    ],
    ids=["std-mac", "std-tw", "raw-tw", "channel"],
)
@pytest.mark.parametrize("command", ["region", "sumrate", "jam", "verify"])
def test_self_gains_flag_is_refused_as_unknown(capsys, tmp_path, command, argv):
    """No rate reads a terminal's own gain, so there is no --self-gains
    flag: argparse refuses it, exit 1, naming it, with nothing written."""
    out_path = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *argv, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == "" and not out_path.exists()
    assert "unrecognized arguments: --self-gains 3,3" in captured.err


@pytest.mark.parametrize("command", ["sumrate", "jam"])
def test_verify_with_csv_format_exits_one_naming_both_flags(capsys, tmp_path, command):
    """The oracle report has no CSV form, so the pair is refused before any
    solve: exit 1, nothing written, both flags named."""
    out_path = tmp_path / "out.csv"
    for extra in ((), ("--out", str(out_path))):
        code, out, err = run_cli(
            capsys, command, "--caps", "4,4", "--eve-gains", "0.1,0.3", "--format", "csv",
            "--verify", *extra,
        )
        assert code == 1 and out == "" and not out_path.exists()
        assert "--verify" in err and "--format csv" in err


def test_verify_command_takes_json_format_only(capsys, tmp_path):
    out_path = tmp_path / "verify.csv"
    argv = ["verify", "--caps", "4,4", "--eve-gains", "0.1,0.3"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "csv", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == "" and not out_path.exists()
    assert "argument --format: invalid choice" in captured.err
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and "jam" in json.loads(out)


def test_usage_errors_exit_one_and_help_exits_zero(capsys):
    for argv in (["bogus"], ["jam", "--model", "xx"], ["sumrate", "--grid", "two"], []):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1, argv
        assert "usage: secrecy-rates" in capsys.readouterr().err
    for argv in (["--help"], ["sweep", "--help"], ["jam", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0, argv
        assert "usage: secrecy-rates" in capsys.readouterr().out


def test_negative_grid_as_separate_argument(capsys):
    code, _, err = run_cli(capsys, "sweep", "--grid", "-3")
    assert code == 1
    assert "invalid --grid" in err


def test_module_entry_point():
    proc = subprocess.run(
        [
            sys.executable, "-m", "secrecy_rates.cli",
            "sumrate", "--model", "mac", "--caps", "4,4", "--eve-gains", "0.1,0.3",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["solution"]["mode"] in ("SUP", "TDMA")


def test_readme_quick_start(capsys):
    """The README's Python block runs and prints what its comments say ("..." ends a prefix)."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(), re.S).group(1)
    expected = re.findall(r"^print\(.*#\s*(.+?)\s*$", block, re.M)
    exec(compile(block, str(readme), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 2, (printed, expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want, (got, want)
