"""Command-line front door for the adiabat library.

Subcommands cover the exact layer (spinc, fix, count), the braid layer
(braid-census, braid-make), and the numerical layer (vortex, transport,
newton, check-identities).  Output is JSON by default, CSV where tabular
via --format csv.  Exit codes: 0 success, 1 validation error, 2 numerical
non-convergence; library errors surface as machine-readable JSON on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .errors import AdiabatError
from .zlattice import IntMatrix, int_tuple
from .topology import (count_large_d, jacobian_fixed_points, spinc_classes,
                       validate_mapping_class)
from .braid import (TorusBraid, braid_census, braid_construct,
                    braid_validate)
from .vortexfield import (FlatBundleFamily, FlatCurve, invariant_modulus,
                          moment_residual, save_vortex_config, vortex_solve)
from .transport import match_strands, transport_stack, vortex_seed
from .monopole import (adiabatic_config, config_norm_diff, identity_check,
                       newton_refine, save_config3d)


def parse_matrix(text: str) -> IntMatrix:
    """Row-major integer matrix syntax: "a,b;c,d"."""
    try:
        rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ValueError(f"bad --matrix syntax {text!r}: {exc}") from exc
    return IntMatrix.from_rows(rows)


def parse_floats(text: str):
    """Comma-separated finite floats."""
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad number list {text!r}: {exc}") from exc
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite number in {text!r}")
    return vals


def parse_holonomies(text: str) -> np.ndarray:
    """Per-summand holonomies "a,b;c,d;..." as a finite (N, 2) array."""
    rows = [parse_floats(row) for row in text.split(";")]
    if any(len(row) != 2 for row in rows):
        raise ValueError(f"bad --holonomies {text!r}: each summand needs "
                         "two numbers a,b")
    return np.array(rows)


def _json(obj) -> str:
    """Strict JSON: a non-finite float raises instead of printing NaN."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def _error(payload: dict) -> None:
    sys.stderr.write(json.dumps(payload, sort_keys=True, allow_nan=False)
                     + "\n")


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _csv_rows(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _read_targets(path: str) -> dict:
    """Target counts per class from a JSON list of {"class": [..], "count": k}
    objects; counts of a repeated class add up."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not all(isinstance(t, dict) for t in raw):
        raise ValueError('targets must be a JSON list of {"class": [..], '
                         '"count": k} objects')
    targets = {}
    for item in raw:
        c = int_tuple(item.get("class"), "a target class")
        n = item.get("count")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError("a target count must be a non-negative integer, "
                             f"got {n!r}")
        targets[c] = targets.get(c, 0) + n
    return targets


def _load_braid(path: str) -> TorusBraid:
    with open(path) as fh:
        return braid_validate(TorusBraid.from_json(fh.read()))


def _curve(args, fstar=((1, 0), (0, 1))) -> FlatCurve:
    """The curve of --grid and --modulus; without --modulus, one whose flat
    structure f* preserves."""
    mod = complex(*args.modulus) if args.modulus else invariant_modulus(fstar)
    return FlatCurve(modulus=mod, n=args.grid)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_spinc(args) -> int:
    mc = validate_mapping_class(args.genus, parse_matrix(args.matrix))
    classes = spinc_classes(mc, args.degree)
    if args.format == "csv":
        payload = _csv_rows(
            ["degree", "torsion_class"],
            [[s.degree, " ".join(str(x) for x in s.torsion_class)]
             for s in classes])
    else:
        payload = _json(
            [{"degree": s.degree, "torsion_class": list(s.torsion_class)}
             for s in classes])
    _emit(payload, args.out)
    return 0


def cmd_fix(args) -> int:
    mc = validate_mapping_class(args.genus, parse_matrix(args.matrix))
    pts = jacobian_fixed_points(mc)
    if args.format == "csv":
        payload = _csv_rows(
            ["fixed_point", "torsion_class"],
            [[" ".join(str(c) for c in x.coordinates),
              " ".join(str(c) for c in lab)] for x, lab in pts])
    else:
        payload = _json(
            [{"fixed_point": [str(c) for c in x.coordinates],
              "torsion_class": list(lab)} for x, lab in pts])
    _emit(payload, args.out)
    return 0


def cmd_count(args) -> int:
    mc = validate_mapping_class(args.genus, parse_matrix(args.matrix))
    table = count_large_d(mc, args.rank, args.degree)
    payload = table.to_csv() if args.format == "csv" else table.to_json()
    _emit(payload, args.out)
    return 0


def cmd_braid_census(args) -> int:
    census = braid_census(_load_braid(args.braid))
    if args.format == "csv":
        payload = _csv_rows(
            ["class", "count"],
            [[" ".join(str(x) for x in c), n]
             for c, n in sorted(census.per_class_counts.items())])
    else:
        payload = census.to_json()
    _emit(payload, args.out)
    return 0


def cmd_braid_make(args) -> int:
    mc = validate_mapping_class(args.genus, parse_matrix(args.matrix))
    braid = braid_construct(mc, _read_targets(args.targets), args.rank)
    _emit(braid.to_json(), args.out)
    return 0


def cmd_vortex(args) -> int:
    curve = _curve(args)
    hol = parse_holonomies(args.holonomies)
    cfg, increments = vortex_solve(curve, hol, args.component, args.tau)
    res = moment_residual(cfg, args.tau)
    report = {
        "n": curve.n,
        "modulus": [curve.modulus.real, curve.modulus.imag],
        "component": args.component,
        "holonomy": list(cfg.holonomy()),
        "moment_residual": res,
        "phi_l2_sq": cfg.phi_l2_sq(),
        "newton_increments": increments,
    }
    if args.out:
        save_vortex_config(args.out, cfg, 0.0)
    _emit(_json(report), None)
    return 0


def cmd_transport(args) -> int:
    braid = _load_braid(args.braid)
    family = FlatBundleFamily.from_braid(braid, tau_bar=args.tau)
    curve = _curve(args, braid.mc.fstar.to_lists())
    # the stacked run of numeric_monodromy, keeping strand 0's trace lines
    # so that its trace is written without transporting it again
    starts = [vortex_seed(curve, family, k) for k in range(family.N)]
    lines = []
    for states in transport_stack(curve, family, starts, args.tsteps,
                                  args.tolerance):
        if args.out:
            lines.append(states[0].to_json() + "\n")
    perm = match_strands(family, [s.holonomy for s in states], args.tsteps)
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    report = {"permutation": list(perm),
              "braid_permutation": list(braid.closing_permutation),
              "match": list(perm) == list(braid.closing_permutation)}
    _emit(_json(report), None)
    return 0


def _assemble(args):
    braid = _load_braid(args.braid)
    family = FlatBundleFamily.from_braid(braid, tau_bar=args.tau)
    return adiabatic_config(_curve(args, braid.mc.fstar.to_lists()), family,
                            args.slices, args.tsteps, args.tolerance)


def cmd_newton(args) -> int:
    eps_list = parse_floats(args.eps)
    Xi0 = _assemble(args)
    rows = []
    for eps in eps_list:
        Xi_eps, log = newton_refine(Xi0, eps)
        diff = config_norm_diff(Xi_eps, Xi0, eps, 2, 1).value
        rows.append({"eps": eps,
                     "residual_0_2_eps": log[0]["residual_0_2_eps"],
                     "distance_1_2_eps": diff, "iterations": log})
        if args.out:
            save_config3d(f"{args.out}_eps{eps:g}", Xi_eps, eps)
    _emit(_json(rows), None)
    return 0


def cmd_check_identities(args) -> int:
    Xi0 = _assemble(args)
    report = identity_check(Xi0, samples=args.samples, seed=args.seed)
    _emit(_json(report), None)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_matrix_flags(p):
    p.add_argument("--matrix", required=True,
                   help='integer matrix, row-major: "a,b;c,d"')
    p.add_argument("--genus", type=int, default=1)


def _add_out_flag(p):
    p.add_argument("--out", default=None, help="write output to a file")


def _add_table_flags(p):
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _add_out_flag(p)


def _add_numeric_flags(p):
    p.add_argument("--grid", type=int, default=16,
                   help="spatial grid resolution n")
    p.add_argument("--modulus", type=float, nargs=2, metavar=("RE", "IM"),
                   help="curve modulus (default: one that f* preserves, "
                        "i for vortex)")
    p.add_argument("--tau", type=float, default=2.0)


def _add_family_flags(p, tsteps):
    """The braid family, its transport and its curve."""
    p.add_argument("--braid", required=True)
    p.add_argument("--tsteps", type=int, default=tsteps)
    _add_numeric_flags(p)
    p.add_argument("--tolerance", type=float, default=1e-6)


# counts and tolerances: zero or a negative value is an input error
POSITIVE_FLAGS = ("rank", "tsteps", "slices", "samples", "tolerance")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which ``main`` reports as JSON."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="adiabat",
        description="multi-monopole counts and adiabatic realization on "
                    "genus-1 mapping tori")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spinc", help="enumerate degree-d spin^c classes")
    _add_matrix_flags(p)
    p.add_argument("--degree", type=int, required=True)
    _add_table_flags(p)
    p.set_defaults(func=cmd_spinc)

    p = sub.add_parser("fix", help="Jacobian fixed points with classes")
    _add_matrix_flags(p)
    _add_table_flags(p)
    p.set_defaults(func=cmd_fix)

    p = sub.add_parser("count", help="large-degree signed count table")
    _add_matrix_flags(p)
    p.add_argument("--rank", type=int, required=True, help="spinor rank N")
    p.add_argument("--degree", type=int, required=True)
    _add_table_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("braid-census", help="census of a braid file")
    p.add_argument("--braid", required=True)
    _add_table_flags(p)
    p.set_defaults(func=cmd_braid_census)

    p = sub.add_parser("braid-make",
                       help="construct a braid hitting target class counts")
    _add_matrix_flags(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--targets", required=True,
                   help='JSON file: [{"class": [..], "count": k}, ...]')
    _add_out_flag(p)
    p.set_defaults(func=cmd_braid_make)

    p = sub.add_parser("vortex", help="single framed multi-vortex solve")
    p.add_argument("--holonomies", required=True,
                   help='per-summand holonomies "a,b;c,d;..."')
    p.add_argument("--component", type=int, default=0,
                   help="summand carrying the holomorphic section")
    _add_numeric_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_vortex)

    p = sub.add_parser("transport",
                       help="numeric monodromy of a braid family")
    _add_family_flags(p, tsteps=200)
    _add_out_flag(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("newton",
                       help="adiabatic assembly plus refinement over eps")
    _add_family_flags(p, tsteps=128)
    p.add_argument("--slices", type=int, default=16,
                   help="t-slices m of the 3D configuration")
    p.add_argument("--eps", default="0.2,0.1,0.05",
                   help="comma-separated eps list")
    _add_out_flag(p)
    p.set_defaults(func=cmd_newton)

    p = sub.add_parser("check-identities",
                       help="operator identity residuals at a solution")
    _add_family_flags(p, tsteps=128)
    p.add_argument("--slices", type=int, default=16)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_check_identities)

    return ap


def report_errors(run, *args) -> int:
    """``run(*args)``, with a library or input error reported as the CLI
    reports it: one JSON object on stderr, and the error's exit code.
    The scripts under ``scripts/`` run their ``main`` through it."""
    try:
        return run(*args) or 0
    except AdiabatError as exc:
        _error(exc.to_json())
        return exc.exit_code
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        _error({"error": type(exc).__name__, "message": str(exc)})
        return 1


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    for name, val in vars(args).items():
        # argparse drops a value "--" (--matrix=--) and leaves a list
        if val == []:
            raise ValueError(f"--{name} needs a value")
        vals = val if isinstance(val, list) else [val]
        if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
            raise ValueError(f"--{name} must be finite")
        if name in POSITIVE_FLAGS and not val > 0:
            raise ValueError(f"--{name} must be positive")
    return args.func(args)


def main(argv=None) -> int:
    return report_errors(_run, argv)


if __name__ == "__main__":
    sys.exit(main())
