"""Command-line interface.

Subcommands: analyze, coeff, table1, scan, validate, channel.
Exit codes: 0 success, 2 input error, 3 unphysical state, 4 output I/O error.
A reader that closes the pipe early is not an I/O error: exit 0, silently.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from .angular import (EulerAngles, clebsch_gordan_exact, wigner_6j_exact,
                      wigner_9j, wigner_d)
from .channel import (channel_squeezing, compare_correlations, correlations,
                      correlations_oracle, couple_spin1)
from .density import (check_positivity, classify_orientation, load_state_file,
                      purity_residual)
from .errors import SchemaError, UnphysicalStateError
from .halfint import HalfInt
# rows_as_dicts, run_scan and write_csv are unused here; they stay as
# attributes of this module because perfbench/spans.py patches them here.
from .scan import (MAX_SCAN_ROWS, ScanConfig, rows_as_dicts,  # noqa: F401
                   run_scan, stream_scan, write_csv)
from .squeezing import analyze
from .table1 import evaluate_table

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNPHYSICAL = 3
EXIT_IO = 4


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


# default --theta: the full physical range in degrees, with or without --degrees
DEFAULT_THETA_DEG = "0:180:1"

# step of a scan range written without one: angles in the unit of the
# other angle inputs, magnitudes in polarization units
DEFAULT_ANGLE_STEP = 1.0
DEFAULT_P_STEP = 0.005

# Largest analyze --phi-points: each sample is a dict in the report, about
# 25 MB of Python objects at this bound.
MAX_PHI_POINTS = 100_000

# Largest rank of coeff d. Each rank caches its spin matrices and the
# eigenvectors of S_y for the life of the process, four (2k+1)^2 complex
# arrays, about 420 kB at k = 40.
MAX_D_RANK = 40

# Largest |value| of every argument of coeff cg, 6j and 9j. The exact
# sums grow with j; the slowest symbol at this bound, a 9-j with all nine
# j = 100, takes about 0.3 s.
MAX_J = 100


def _parse_axis(spec: str, default_step: float, scale=lambda x: x) -> np.ndarray:
    """Parse 'value' or 'start:stop[:step]' into a grid array."""
    parts = spec.split(":")
    if len(parts) not in (1, 2, 3):
        raise SchemaError(f"bad range {spec!r}; expected START:STOP[:STEP]")
    values = [float(x) for x in parts]
    if not all(math.isfinite(x) for x in values):
        raise SchemaError(f"non-finite value in {spec!r}")
    if len(values) == 1:
        return np.array([scale(values[0])])
    start, stop = values[0], values[1]
    step = values[2] if len(values) == 3 else default_step
    if step <= 0:
        raise SchemaError(f"step must be positive in {spec!r}")
    if stop < start:
        raise SchemaError(f"empty range {spec!r}")
    count = (stop - start) / step
    if not math.isfinite(count):
        raise SchemaError(f"too many values in {spec!r}")
    count = int(math.floor(count + 1e-9)) + 1
    if count > MAX_SCAN_ROWS:
        raise SchemaError(f"{count} values in {spec!r} exceed the scan limit "
                          f"of {MAX_SCAN_ROWS} rows")
    return scale(start + step * np.arange(count))


def cmd_analyze(args) -> int:
    if args.phi_points > MAX_PHI_POINTS:
        raise SchemaError(f"--phi-points {args.phi_points} exceeds the limit "
                          f"of {MAX_PHI_POINTS}")
    _, rho = load_state_file(args.state)
    report = analyze(rho)
    json.dump(report.as_dict(phi_points=args.phi_points), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _format_exact(sign: int, square) -> str:
    if sign == 0:
        return "0"
    prefix = "-" if sign < 0 else ""
    if square.denominator == 1 and math.isqrt(square.numerator) ** 2 == square.numerator:
        return f"{prefix}{math.isqrt(square.numerator)}"
    return f"{prefix}sqrt({square.numerator}/{square.denominator})"


def cmd_coeff(args) -> int:
    kind = args.kind
    vals = args.values
    counts = {"cg": 6, "6j": 6, "9j": 9, "d": 6}
    if len(vals) != counts[kind]:
        raise SchemaError(f"{kind} expects {counts[kind]} arguments, got {len(vals)}")
    if kind != "d":
        nums = [HalfInt.of(v) for v in vals]
        if any(abs(n.twice) > 2 * MAX_J for n in nums):
            raise SchemaError(f"{kind} arguments are limited to {MAX_J} "
                              "in magnitude")
        if kind == "9j":
            print(f"{wigner_9j(*nums):.15g}")
        else:
            exact = clebsch_gordan_exact if kind == "cg" else wigner_6j_exact
            sign, square = exact(*nums)
            print(f"{sign * math.sqrt(square):.15g}")
            print(f"exact: {_format_exact(sign, square)}")
    else:
        k, qp, q = (HalfInt.of(v) for v in vals[:3])
        if k.twice > 2 * MAX_D_RANK:
            raise SchemaError(f"rank {k} exceeds the limit of {MAX_D_RANK}")
        a, b, g = (_angle(float(v), args.degrees) for v in vals[3:])
        val = wigner_d(k, qp, q, EulerAngles(a, b, g))
        print(f"{val.real:.15g}{val.imag:+.15g}j")
    return EXIT_OK


def cmd_table1(args) -> int:
    results = evaluate_table()
    labels = ("Var_x0", "Var_y0", "Sz0/2")
    print(f"{'spin':>4} {'t2_0':>6} {'t2_2':>6} {'t1_0':>6}  "
          + "  ".join(f"{lab:>22}" for lab in labels))
    discrepant = 0
    for res in results:
        cells = []
        for i in range(3):
            flag = "match" if res.matches[i] else "DISCREPANT"
            cells.append(f"{res.computed[i]:8.4f} vs {res.row.printed[i]:>6} {flag:<10}")
            if not res.matches[i]:
                discrepant += 1
        print(f"{res.row.spin:>4} {res.row.t20:6.2f} {res.row.t22:6.2f} "
              f"{res.row.t10:6.2f}  " + "  ".join(cells))
    print(f"{discrepant} discrepant cell(s); closed-form expressions are "
          "authoritative, printed values kept for the record")
    return EXIT_OK


def cmd_scan(args) -> int:
    angle = np.radians if args.degrees else (lambda x: x)
    if args.theta is None:
        theta = _parse_axis(DEFAULT_THETA_DEG, DEFAULT_ANGLE_STEP, scale=np.radians)
    else:
        theta = _parse_axis(args.theta, DEFAULT_ANGLE_STEP, scale=angle)
    config = ScanConfig(
        p1=_parse_axis(args.p1, DEFAULT_P_STEP),
        p2=_parse_axis(args.p2, DEFAULT_P_STEP),
        theta=theta,
        phi=_parse_axis(args.phi, DEFAULT_ANGLE_STEP, scale=angle),
    )
    if args.output == "-":
        stream_scan(config, sys.stdout, args.format)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            stream_scan(config, fh, args.format)
    return EXIT_OK


def cmd_validate(args) -> int:
    params, rho = load_state_file(args.state)
    pos = check_positivity(rho)
    orient = classify_orientation(rho)
    report = {
        "spin": str(rho.spin),
        "trace": rho.trace,
        "eigenvalues": [float(x) for x in pos.eigenvalues],
        "psd": pos.psd,
        "purity_residual": purity_residual(params),
        "oriented": orient.oriented,
        "orientation_axis": None if orient.axis is None else [float(x) for x in orient.axis],
        "populations": None if orient.populations is None else [float(x) for x in orient.populations],
    }
    if pos.spin1_bounds is not None:
        report["spin1_bounds"] = [
            {"name": b.name, "value": b.value, "lower": b.lower,
             "upper": b.upper, "satisfied": b.satisfied}
            for b in pos.spin1_bounds
        ]
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def cmd_channel(args) -> int:
    for name in ("p1", "p2", "theta", "phi"):
        if not math.isfinite(getattr(args, name)):
            raise SchemaError(f"--{name} must be finite")
    theta = _angle(args.theta, args.degrees)
    phi = _angle(args.phi, args.degrees)
    # a one-point scan grid applies the scan's domain check and messages
    ScanConfig(p1=args.p1, p2=args.p2, theta=theta, phi=phi)
    p1 = args.p1 * np.array([0.0, 0.0, 1.0])
    p2 = args.p2 * np.array([math.sin(theta), 0.0, math.cos(theta)])
    state = couple_spin1(p1, p2)
    sq = channel_squeezing(p1, p2, phi)
    closed = correlations(p1, p2, phi)
    oracle = correlations_oracle(p1, p2, phi)
    mismatches = compare_correlations(closed, oracle, p1, p2, phi)
    report = {
        "p1_mag": args.p1, "p2_mag": args.p2,
        "theta_rad": theta, "phi_rad": phi,
        "weight": state.weight,
        "triplet_probability": state.triplet_probability,
        "tensors": {f"t{k}_{q}": [v.real, v.imag]
                    for (k, q), v in state.params.items()},
        "variance_perp": sq.variance_perp,
        "sz_expect": sq.sz_expect,
        "q_value": sq.q_value,
        "squeezed": sq.squeezed,
        "correlations_closed_form": closed.as_dict(),
        "correlations_oracle": oracle.as_dict(),
        "correlation_mismatches": [str(m) for m in mismatches],
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Squeezing analysis of mixed spin states and coupled "
                    "spin-1/2 pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="squeezing report for a state file")
    p.add_argument("state", help="JSON state file")
    p.add_argument("--phi-points", type=int, default=73,
                   help="samples of the transverse variance curve")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coeff", help="coupling coefficients and rotation elements")
    p.add_argument("kind", choices=["cg", "6j", "9j", "d"])
    p.add_argument("values", nargs="+",
                   help="half-integers as '3/2' or '1.5'; for d: k q' q alpha beta gamma")
    p.add_argument("--degrees", action="store_true", help="angles in degrees")
    # argparse takes a word that starts with "-" as a value only if it
    # matches this pattern and no option does; argparse's own pattern
    # misses -1/2. Every such word is a value here, so a negative
    # projection needs no "--" ahead of it (checked on Python 3.10-3.13).
    p._negative_number_matcher = re.compile("-")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("table1", help="regression against the tabulated reference states")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("scan", help="channel-pair sweep to CSV/JSON")
    p.add_argument("--p1", default="0.9", help="magnitude or START:STOP[:STEP]")
    p.add_argument("--p2", default="0.85", help="magnitude or START:STOP[:STEP]")
    p.add_argument("--theta", default=None,
                   help="angle or range between the polarizations, in [0, pi] "
                        f"(default: {DEFAULT_THETA_DEG} degrees)")
    p.add_argument("--phi", default="0", help="transverse azimuth or range")
    p.add_argument("--degrees", action="store_true", help="angles in degrees")
    p.add_argument("--output", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    # perfbench passes --jobs 1 on every scan, so the flag stays accepted
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; the scan runs on one "
                        "thread and the value changes neither output nor speed")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("validate", help="positivity/purity/orientation report")
    p.add_argument("state", help="JSON state file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("channel", help="single-point channel squeezing + correlations")
    p.add_argument("--p1", type=float, required=True, help="|p1| in [0, 1]")
    p.add_argument("--p2", type=float, required=True, help="|p2| in [0, 1]")
    p.add_argument("--theta", type=float, required=True,
                   help="angle between the polarizations")
    p.add_argument("--phi", type=float, default=0.0, help="transverse azimuth")
    p.add_argument("--degrees", action="store_true", help="angles in degrees")
    p.set_defaults(func=cmd_channel)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for arg in argv:
        # argparse (3.11) drops the value of --name=-- as an end of
        # options and hands the option an empty list
        if arg.startswith("--") and arg.endswith("=--"):
            print(f"error: {arg}: missing value", file=sys.stderr)
            return EXIT_INPUT
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnphysicalStateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.eigenvalues is not None:
            print("eigenvalues: "
                  + " ".join(f"{x:.12g}" for x in exc.eigenvalues), file=sys.stderr)
        return EXIT_UNPHYSICAL
    except ValueError as exc:    # every input error of the package is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader has all it wants; point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
