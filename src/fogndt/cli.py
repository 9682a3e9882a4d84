"""Command-line front end: bound evaluation, sweeps, simulation, gap scans.

Output is deterministic: CSV uses '.' decimals, ',' separators, and LF line
endings; floats print with repr (shortest round-trip form).  Exit codes:
0 ok, 2 configuration error, 3 decode failure, 4 gap violation.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import cache
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import bounds as bounds_mod
from .model import ConfigError, DemandVector, NetworkConfig, config_from_dict
from .scheduler import build_schedule

_DEFAULT_GAP_MU = (0.1, 0.3, 0.5, 0.7, 0.9)
_DEFAULT_GAP_R = (0.1, 1.0, 10.0)


def _add_config_flags(parser):
    parser.add_argument("--config", type=Path, help="JSON file with configuration values")
    parser.add_argument("--nt", type=int, help="number of edge nodes")
    parser.add_argument("--nr", type=int, help="number of users")
    parser.add_argument("--nfiles", type=int, help="library size (default: number of users)")
    parser.add_argument("--mut", type=float, help="edge-node cache fraction")
    parser.add_argument("--mur", type=float, help="user cache fraction")
    parser.add_argument("--r", type=float, help="fronthaul power scaling")


def _config_from_args(args) -> NetworkConfig:
    values = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ConfigError("config", f"configuration file must hold a JSON object: {args.config}")
        values.update(doc)
    overrides = {
        "num_ens": args.nt,
        "num_ues": args.nr,
        "num_files": args.nfiles,
        "mu_t": args.mut,
        "mu_r": args.mur,
        "fronthaul_r": args.r,
    }
    for key, value in overrides.items():
        if value is not None:
            values[key] = value
    if values.get("num_files") is None and values.get("num_ues") is not None:
        values["num_files"] = values["num_ues"]
    return config_from_dict(values)


def _demand_from_args(args, cfg: NetworkConfig) -> DemandVector:
    if args.demand is None:
        return DemandVector.distinct(cfg)
    try:
        demands = tuple(int(tok) for tok in args.demand.split(","))
    except ValueError:
        raise ValueError(f"demand must be a comma list of file ids: {args.demand!r}") from None
    return DemandVector(demands).validated(cfg)


def _emit(pieces, out: Path | None) -> None:
    """Write the text pieces, then one LF, to stdout or to the file ``out``, opened once."""
    if out is None:
        fh = sys.stdout
        fh.writelines(pieces)
        fh.write("\n")
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)
        fh.write("\n")


_CONTAINERS = (list, tuple, dict)


def _json_key(k) -> str:
    return json.dumps({k: 0})[1:-4]  # json's own key conversion, and its TypeError


def _json_text(doc) -> str:
    """``json.dumps`` of ``doc`` at indent 2, byte for byte, in far fewer calls than its pure-Python
    indent encoder."""

    def value(o, pad):
        t = type(o)
        if t not in _CONTAINERS:
            if t is str:
                return _json_str(o)
            if t is int or t is float and math.isfinite(o):
                return t.__repr__(o)
            if not isinstance(o, _CONTAINERS):
                return json.dumps(o)  # None, bools, NaN, infinities, subclasses and refusals as json has them
        if not o:
            return "{}" if isinstance(o, dict) else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(o, dict):
            items = [(_json_str(k) if type(k) is str else _json_key(k)) + ": " + value(v, inner) for k, v in o.items()]
            return "{\n" + inner + sep.join(items) + "\n" + pad + "}"
        return "[\n" + inner + sep.join([value(x, inner) for x in o]) + "\n" + pad + "]"

    return value(doc, "")


def _number_list(spec: str, flag: str) -> list[float]:
    """The numbers of a comma list; an empty entry among others is refused, as in ``--demand``.
    A list with no entry at all is empty, and each command says why it needs one."""
    tokens = spec.split(",")
    if not any(tokens):
        return []
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{flag} must be a comma list of numbers: {spec!r}") from None


def _parse_values(spec: str) -> list[float]:
    """Explicit 'a,b,c' list or 'lin:start:stop:count' / 'geom:start:stop:count' grid."""
    if spec.startswith(("lin:", "geom:")):
        try:
            kind, start, stop, count = spec.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:
            raise ValueError(
                f"--values grid must be kind:start:stop:count with numeric ends and a whole count: {spec!r}"
            ) from None
        if count < 1:
            raise ValueError(f"--values grid count must be at least 1: {spec!r}")
        if count == 1:
            return [start]
        if kind == "lin":
            step = (stop - start) / (count - 1)
            return [start + k * step for k in range(count)]
        if start <= 0 or stop <= 0:
            raise ValueError(f"--values geometric grids need positive endpoints: {spec!r}")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio ** k for k in range(count)]
    return _number_list(spec, "--values")


def _cmd_bounds(args) -> int:
    cfg = _config_from_args(args)
    report = bounds_mod.bounds_report(cfg)
    if args.format == "csv":
        _emit([bounds_mod.CSV_HEADER, "\n", report.to_csv_row()], args.out)
    else:
        _emit([_json_text(report.to_dict())], args.out)
    return 0


_AXIS_FIELD = {"r": "fronthaul_r", "mu_t": "mu_t", "mu_r": "mu_r"}


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    values = _parse_values(args.values)
    if not values:
        raise ConfigError("values", "sweep needs at least one value in --values")
    lines = [bounds_mod.CSV_HEADER]
    for value in values:
        point = replace(cfg, **{_AXIS_FIELD[args.axis]: value})
        lines.append(bounds_mod.bounds_report(point).to_csv_row())
    _emit(["\n".join(lines)], args.out)
    return 0


# The oracle and placement need numpy, so only `simulate` imports them, on its
# first call.  These two stay module-level names that `_cmd_simulate` looks up
# when it runs: perfbench's tracer wraps them here for its per-layer metrics.
def sample_placement(cfg, file_size_bits, seed):
    from .placement import sample_placement

    return sample_placement(cfg, file_size_bits, seed)


def execute_schedule(placement, demand, schedule):
    from .oracle import execute_schedule

    return execute_schedule(placement, demand, schedule)


def _cmd_simulate(args) -> int:
    # Loads numpy and both modules before any placement exists; loaded after
    # sampling, the oracle's import raised peak RSS by about 1 MB.
    from .oracle import DecodeFailure

    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer: {args.seed}")
    cfg = _config_from_args(args)
    demand = _demand_from_args(args, cfg)
    schedule = build_schedule(cfg, demand)
    placement = sample_placement(cfg, args.file_bits, args.seed)
    try:
        report = execute_schedule(placement, demand, schedule)
    except DecodeFailure as exc:
        _emit([_json_text({"error": str(exc)})], args.out)
        return 3
    failures = [q for q, ok in enumerate(report.per_ue_success, start=1) if not ok]
    doc = {
        "report": report.to_dict(),
        "analytic": {
            "tau_f": schedule.breakdown.total_f,
            "tau_a": schedule.breakdown.total_a,
            "tau": schedule.breakdown.total,
        },
        "delta": {
            "tau_f": report.empirical_tau_f - schedule.breakdown.total_f,
            "tau_a": report.empirical_tau_a - schedule.breakdown.total_a,
            "tau": (report.empirical_tau_f + report.empirical_tau_a) - schedule.breakdown.total,
        },
        "failed_ues": failures,
    }
    _emit([_json_text(doc)], args.out)
    return 3 if failures else 0


def _cmd_schedule_export(args) -> int:
    cfg = _config_from_args(args)
    demand = _demand_from_args(args, cfg)
    schedule = build_schedule(cfg, demand)
    _emit(schedule.json_chunks(), args.out)
    return 0


def _parse_range(spec: str, flag: str) -> range:
    """The inclusive range 'lo:hi'; 'lo' and 'lo:' are the one value lo."""
    lo, _, hi = spec.partition(":")
    try:
        return range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise ValueError(f"{flag} must be lo:hi or lo with whole-number ends: {spec!r}") from None


def _cmd_gap_scan(args) -> int:
    mu_values = _DEFAULT_GAP_MU if args.mu_values is None else _number_list(args.mu_values, "--mu-values")
    r_values = _DEFAULT_GAP_R if args.r_values is None else _number_list(args.r_values, "--r-values")
    nts, nrs = _parse_range(args.nt_range, "--nt-range"), _parse_range(args.nr_range, "--nr-range")
    for flag, axis in (("--nt-range", nts), ("--nr-range", nrs), ("--mu-values", mu_values), ("--r-values", r_values)):
        if not axis:
            raise ConfigError("grid", f"gap-scan grid is empty: {flag} has no value")
    rows = []
    worst = (-math.inf, None)
    violated = False
    for nt in nts:
        for nr in nrs:
            for mu_t in mu_values:
                for mu_r in mu_values:
                    for r in r_values:
                        cfg = NetworkConfig(nt, nr, nr, mu_t, mu_r, r)
                        report = bounds_mod.bounds_report(cfg)
                        degenerate = report.tau_lower == 0.0
                        if not degenerate:
                            if report.gap > worst[0]:
                                worst = (report.gap, cfg)
                            if report.gap > 12.0:
                                violated = True
                        rows.append((-report.gap, report.to_csv_row(), "1" if degenerate else "0"))
    rows.sort()
    lines = [bounds_mod.CSV_HEADER + ",degenerate"]
    lines.extend(f"{row},{flag}" for _gap, row, flag in rows)
    _emit(["\n".join(lines)], args.out)
    if worst[1] is not None:
        c = worst[1]
        print(
            f"max gap {worst[0]!r} at n_t={c.num_ens} n_r={c.num_ues} "
            f"mu_t={c.mu_t!r} mu_r={c.mu_r!r} r={c.fronthaul_r!r}",
            file=sys.stderr,
        )
    return 4 if violated else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The five-subcommand parser, built once per process; each parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="fogndt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate both delivery-time bounds")
    _add_config_flags(p_bounds)
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.add_argument("--out", type=Path)

    p_sweep = sub.add_parser("sweep", help="bounds along one parameter axis, CSV per point")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=tuple(_AXIS_FIELD), required=True)
    p_sweep.add_argument(
        "--values",
        required=True,
        help="comma list, or lin:start:stop:count / geom:start:stop:count",
    )
    p_sweep.add_argument("--out", type=Path)

    p_sim = sub.add_parser("simulate", help="finite-file delivery with decode verification")
    _add_config_flags(p_sim)
    p_sim.add_argument("--file-bits", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--demand", help="comma list of file ids, one per user")
    p_sim.add_argument("--out", type=Path)

    p_exp = sub.add_parser("schedule-export", help="emit the full delivery schedule as JSON")
    _add_config_flags(p_exp)
    p_exp.add_argument("--demand", help="comma list of file ids, one per user")
    p_exp.add_argument("--out", type=Path)

    p_gap = sub.add_parser("gap-scan", help="scan a config grid for the worst bound gap")
    p_gap.add_argument("--nt-range", default="2:6", help="lo:hi inclusive")
    p_gap.add_argument("--nr-range", default="2:6", help="lo:hi inclusive")
    p_gap.add_argument("--mu-values", help="comma list for both cache fractions")
    p_gap.add_argument("--r-values", help="comma list of fronthaul scalings")
    p_gap.add_argument("--out", type=Path)
    return parser


_HANDLERS = {
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "schedule-export": _cmd_schedule_export,
    "gap-scan": _cmd_gap_scan,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
