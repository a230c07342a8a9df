"""End-to-end tests for the command-line interface."""

import csv
import importlib
import json
import subprocess
import sys

import numpy as np
import pytest

from secrecy_rates import cli

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


def test_exit_one_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "sumrate", "--channel", "no-such-channel.json")
    assert code == 1
    assert "channel file not found" in err


def test_exit_two_on_internal_failure(capsys, tmp_path):
    path = tmp_path / "chan.json"
    path.write_text(
        json.dumps(
            {
                "form": "standardized",
                "model": "mac",
                "eve_gains": {"a": 1},
                "power_caps": [4, 4],
            }
        )
    )
    code, _, err = run_cli(capsys, "sumrate", "--channel", str(path))
    assert code == 2
    assert "internal error" in err


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_failed_cells_writes_output_and_exits_two(capsys, tmp_path, monkeypatch, fmt):
    """A planted gain that raises for an eavesdropper on a transmitter: 2 of 25 cells."""
    real_gain = sweep_module._gain

    def gain(scene, a, b):
        if tuple(a) == tuple(b):
            raise OverflowError("(34, 'Numerical result out of range')")
        return real_gain(scene, a, b)

    monkeypatch.setattr(sweep_module, "_gain", gain)
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
    code, out, err = run_cli(
        capsys, command, "--caps", "4,4", "--eve-gains", "0.1,0.3", f"--grid={grid}"
    )
    assert code == 1
    assert out == ""
    assert "invalid --grid" in err and grid in err


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
