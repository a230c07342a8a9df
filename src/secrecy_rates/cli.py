"""Command-line interface.

Subcommands: region, sumrate, jam, sweep, verify.  Channels come either
from --channel (inline JSON or a file path, raw or standardized form) or
from the --caps/--eve-gains/--main-gains/--noises flags; raw channels are
standardized automatically.  All output is deterministic: floats are
rounded to 12 significant digits before serialization, JSON keys are
sorted, and rates carry a _bits suffix.  JSON and CSV output are strict:
a NaN or infinity anywhere in them is an internal failure, named by its
key path or CSV column, and nothing is written.  The channel flags belong
to region, sumrate, jam and verify; a sweep takes its channels from
--scene, and a channel flag that the chosen form would not read is
refused.  The oracle reports are JSON only.
Exit codes: 0 success, 1 validation error (an unknown flag, a flag the
channel form would not read, or --format csv with --verify, included), 2
internal numerical failure; a sweep with failed cells writes its output,
then exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from typing import Dict, List, Optional, Sequence, Tuple

from .channels import (
    NonStandardizableChannel,
    RawMacChannel,
    RawTwChannel,
    StdMacChannel,
    StdTwChannel,
    _csv_table,
    channel_from_json,
    channel_to_json,
    merge_tied_users,
    standardize_mac,
    standardize_tw,
    to_jsonable,
)
from .allocation import mac_best_sum_rate, mac_sup_optimal, tw_optimal
from .jamming import mac_cj_optimal, tw_cj_optimal
from .oracle import (
    GridSpec,
    grid_max_mac_cj,
    grid_max_mac_sup,
    grid_max_tw,
    grid_max_tw_cj,
)
from .regions import mac_hull_region, tw_region
from .sweep import MODE_MAC, MODE_TW, SWEEP_COLUMNS, Scene, default_scene, sweep


def _parse_floats(text: str, flag: str, expect: Optional[int] = None) -> List[float]:
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"invalid {flag}: {text!r} is not a comma-separated float list") from exc
    if not values:
        raise ValueError(f"invalid {flag}: empty list")
    if expect is not None and len(values) != expect:
        raise ValueError(f"invalid {flag}: expected {expect} values, got {len(values)}")
    return values


def _load_channel_doc(source: str) -> Dict:
    text = source.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid --channel JSON: {exc}") from exc
    if not os.path.exists(source):
        raise ValueError(f"channel file not found: {source}")
    with open(source) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid channel JSON in {source}: {exc}") from exc


def _standardized(ch):
    if isinstance(ch, RawMacChannel):
        return "mac", standardize_mac(ch)
    if isinstance(ch, RawTwChannel):
        return "tw", standardize_tw(ch)
    if isinstance(ch, StdMacChannel):
        return "mac", ch
    return "tw", ch


# argparse destinations of the channel flags: --caps, --eve-gains, ...
_CHANNEL_FLAGS = ("caps", "eve_gains", "main_gains", "noises")


def _channel_from_args(args) -> Tuple[str, object]:
    """Build (model, standardized channel) from CLI flags.

    A flag that the chosen form would not read is refused, naming it: any
    channel flag beside --channel, and --noises without --main-gains.
    """
    model = args.model
    if args.channel:
        for name in _CHANNEL_FLAGS:
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} cannot be combined with --channel, which holds the whole channel")
        return _standardized(channel_from_json(_load_channel_doc(args.channel)))
    if args.noises is not None and args.main_gains is None:
        raise ValueError("--noises needs --main-gains: noise variances belong to the raw form")
    if args.caps is None:
        raise ValueError("missing --caps (or provide --channel)")
    caps = _parse_floats(args.caps, "--caps")
    if args.eve_gains is None:
        raise ValueError("missing --eve-gains (or provide --channel)")
    eve = _parse_floats(args.eve_gains, "--eve-gains", expect=len(caps))
    if args.main_gains is not None:
        main = _parse_floats(args.main_gains, "--main-gains", expect=len(caps))
        if model == "mac":
            noises = _parse_floats(args.noises, "--noises", expect=2) if args.noises else [1.0, 1.0]
            raw = RawMacChannel(main, eve, noises[0], noises[1], caps)
        else:
            if len(caps) != 2:
                raise ValueError("invalid --caps: the tw model takes exactly 2 users")
            noises = (
                _parse_floats(args.noises, "--noises", expect=3) if args.noises else [1.0, 1.0, 1.0]
            )
            raw = RawTwChannel(main, eve, noises[:2], noises[2], caps)
        return _standardized(raw)
    if model == "mac":
        return "mac", merge_tied_users(eve, caps)
    if len(caps) != 2:
        raise ValueError("invalid --caps: the tw model takes exactly 2 users")
    return "tw", StdTwChannel(eve, caps)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _nonfinite_path(obj, path: str = "") -> Optional[str]:
    """Key path, such as ``solution.diagnostics.psi_2``, of the first
    NaN or infinity in a JSON-ready document (``powers[1]`` for a list
    item), in sorted-key order; None if it has none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = [(f"{path}.{key}" if path else key, value) for key, value in sorted(obj.items())]
    elif isinstance(obj, list):
        items = [(f"{path}[{i}]", value) for i, value in enumerate(obj)]
    else:
        return None
    for where, value in items:
        found = _nonfinite_path(value, where)
        if found is not None:
            return found
    return None


def _dump_json(doc: Dict) -> str:
    """Strict JSON, keys sorted; a NaN or infinity is an internal failure (exit 2)."""
    doc = to_jsonable(doc)
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # to_jsonable output fails only on NaN or infinity
        path = _nonfinite_path(doc)
        raise FloatingPointError(f"non-finite value at {path}; not writing invalid JSON") from None


def _cmd_region(args) -> None:
    model, ch = _channel_from_args(args)
    if model == "mac":
        res = args.grid or 33
        region = mac_hull_region(ch, power_grid_resolution=res, share_grid_resolution=res)
    else:
        region = tw_region(ch, ch.power_caps)
    if args.format == "csv":
        rows = [[float(x), float(y)] for x, y in region.vertices2d or []]
        _emit(_csv_table(["rs1", "rs2"], rows), args.out)
        return
    _emit(_dump_json({"channel": channel_to_json(ch), "region": region.to_json()}), args.out)


def _verify_sumrate(model: str, ch, solution, grid: Optional[int]) -> Dict:
    """The grid oracle's check of ``solution``: the superposition optimum
    for the MAC, the two-way optimum otherwise."""
    spec = GridSpec(points_per_axis=grid or 101)
    if model == "mac":
        alloc, rate = grid_max_mac_sup(ch, spec)
        objective = "superposition"
    else:
        oracle = grid_max_tw(ch, spec)
        alloc, rate = oracle.allocation, oracle.sum_rate
        objective = "two-way"
    return {
        "objective": objective,
        "solver_sum_rate_bits": solution.sum_rate,
        "oracle_sum_rate_bits": rate,
        "difference_bits": solution.sum_rate - rate,
        "oracle_powers": alloc.powers,
    }


def _cmd_sumrate(args) -> None:
    model, ch = _channel_from_args(args)
    solution = mac_best_sum_rate(ch) if model == "mac" else tw_optimal(ch)
    if args.format == "csv":
        powers = [float(p) for p in solution.allocation.powers]
        header = ["mode"] + [f"p{i + 1}" for i in range(len(powers))] + ["sum_rate_bits"]
        line = [solution.mode] + powers + [solution.sum_rate]
        _emit(_csv_table(header, [line]), args.out)
        return
    doc = {"channel": channel_to_json(ch), "solution": solution.to_json()}
    if args.verify:
        checked = mac_sup_optimal(ch) if model == "mac" else solution
        doc["verify"] = _verify_sumrate(model, ch, checked, args.grid)
    _emit(_dump_json(doc), args.out)


def _verify_jam(model: str, ch, solution, grid: Optional[int]) -> Dict:
    spec = GridSpec(points_per_axis=grid or 101)
    oracle = grid_max_mac_cj(ch, spec) if model == "mac" else grid_max_tw_cj(ch, spec)
    return {
        "objective": "cooperative-jamming",
        "solver_sum_rate_bits": solution.sum_rate,
        "oracle_sum_rate_bits": oracle.sum_rate,
        "difference_bits": solution.sum_rate - oracle.sum_rate,
        "oracle_powers": oracle.allocation.powers,
    }


def _cmd_jam(args) -> None:
    model, ch = _channel_from_args(args)
    solution = mac_cj_optimal(ch) if model == "mac" else tw_cj_optimal(ch)
    if args.format == "csv":
        k = ch.k_users
        powers = solution.allocation.powers
        tx = [float(powers[i]) if i in solution.transmit_set else 0.0 for i in range(k)]
        jam = [float(powers[i]) if i in solution.jam_set else 0.0 for i in range(k)]
        header = (
            [f"p{i + 1}_tx" for i in range(k)]
            + [f"p{i + 1}_jam" for i in range(k)]
            + ["sum_rate_bits", "branch"]
        )
        line = tx + jam + [solution.sum_rate, solution.diagnostics.get("branch", "")]
        _emit(_csv_table(header, [line]), args.out)
        return
    doc = {"channel": channel_to_json(ch), "solution": solution.to_json()}
    if args.verify:
        doc["verify"] = _verify_jam(model, ch, solution, args.grid)
    _emit(_dump_json(doc), args.out)


def _scene_from_args(args) -> Scene:
    if not args.scene:
        return default_scene()
    if not os.path.exists(args.scene):
        raise ValueError(f"scene file not found: {args.scene}")
    with open(args.scene) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid scene JSON in {args.scene}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"scene JSON in {args.scene} must be an object, got {json.dumps(doc)}")
    known = {f.name for f in fields(Scene)}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown scene fields: {sorted(unknown)}")
    if "transmitter_positions" not in doc:
        raise ValueError("scene JSON is missing field 'transmitter_positions'")
    return Scene(**doc)


def _cmd_sweep(args) -> None:
    scene = _scene_from_args(args)
    mode = MODE_MAC if args.model == "mac" else MODE_TW
    bounds = _parse_floats(args.bounds, "--bounds", expect=4)
    resolution = args.grid or 64
    result = sweep(scene, bounds, resolution, mode)
    if args.format == "json":
        doc = {"metadata": result.metadata_json(), "columns": SWEEP_COLUMNS, "rows": list(result.rows())}
        _emit(_dump_json(doc), args.out)
    elif args.out:
        result.to_csv(args.out)
        with open(args.out + ".meta.json", "w") as handle:
            handle.write(_dump_json(result.metadata_json()))
    else:
        _emit(result.csv_text(), None)
    if result.error_messages:
        raise RuntimeError(
            f"{len(result.error_messages)} of {result.error.size} cells failed; "
            f"first: {result.error_messages[0]}"
        )


def _cmd_verify(args) -> None:
    model, ch = _channel_from_args(args)
    if model == "mac":
        sum_solution = mac_sup_optimal(ch)
        jam_solution = mac_cj_optimal(ch)
    else:
        sum_solution = tw_optimal(ch)
        jam_solution = tw_cj_optimal(ch)
    doc = {
        "channel": channel_to_json(ch),
        "sumrate": {
            "solution": sum_solution.to_json(),
            "verify": _verify_sumrate(model, ch, sum_solution, args.grid),
        },
        "jam": {
            "solution": jam_solution.to_json(),
            "verify": _verify_jam(model, ch, jam_solution, args.grid),
        },
    }
    _emit(_dump_json(doc), args.out)


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error as exit 1, the code of invalid input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="secrecy-rates",
        description="Secrecy-rate regions and optimal power allocations for "
        "Gaussian multiple-access and two-way wiretap channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_channel=True, with_verify=True, formats=("json", "csv")):
        p.add_argument("--model", choices=("mac", "tw"), default="mac")
        if with_channel:
            p.add_argument("--channel", help="channel JSON (inline or file path)")
            p.add_argument("--caps", help="per-user power caps, comma separated")
            p.add_argument("--eve-gains", dest="eve_gains", help="eavesdropper gains (tap gains when --main-gains is present)")
            p.add_argument("--main-gains", dest="main_gains", help="raw main-channel gains; switches input to raw form")
            p.add_argument("--noises", help="noise variances: mac 'main,tap', tw 'rx1,rx2,tap'")
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--grid", type=int, help="grid resolution (oracle points per axis, hull sampling, or sweep cells)")
        p.add_argument("--out", help="write output to this file instead of stdout")
        if with_verify:
            p.add_argument("--verify", action="store_true", help="run the matching brute-force oracle and report the difference")

    p_region = sub.add_parser("region", help="secrecy-rate region vertices and constraints")
    add_common(p_region, with_verify=False)
    p_region.set_defaults(func=_cmd_region)

    p_sumrate = sub.add_parser("sumrate", help="optimal no-jamming secrecy sum rate")
    add_common(p_sumrate)
    p_sumrate.set_defaults(func=_cmd_sumrate)

    p_jam = sub.add_parser("jam", help="optimal cooperative-jamming solution")
    add_common(p_jam)
    p_jam.set_defaults(func=_cmd_jam)

    p_sweep = sub.add_parser("sweep", help="eavesdropper-position sweep over a 2-D grid")
    add_common(p_sweep, with_channel=False, with_verify=False)
    p_sweep.add_argument("--scene", help="scene JSON file (default: two transmitters at (-0.5,0) and (0.5,0), receiver at the origin)")
    p_sweep.add_argument("--bounds", default="-1,1,-1,1", help="xmin,xmax,ymin,ymax")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run solvers and oracles side by side")
    add_common(p_verify, with_verify=False, formats=("json",))
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.grid is not None and args.grid < 2:
            raise ValueError(f"invalid --grid: expected at least 2 points per axis, got {args.grid}")
        if getattr(args, "verify", False) and args.format == "csv":
            raise ValueError("--verify cannot be combined with --format csv: the oracle report is JSON only")
        args.func(args)
    except (ValueError, NonStandardizableChannel, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical or internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
