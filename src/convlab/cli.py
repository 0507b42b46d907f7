"""Command-line entry points.

Exit codes are part of the contract: 0 when everything asked for passed,
1 when a check ran to completion and failed, 2 when a numerical routine gave
up (divergent integral, exhausted panels, singular gram matrix, ...), and
3 for bad invocations -- unknown scenarios, malformed arguments, bad files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bergman, prekopa
from .errors import (ConvlabError, InvalidParam, UnknownName, UnknownScenario)
from .geometry import full_space
from .scenarios import list_scenarios, run_scenario, scenario_names
from .weights import stock_weight

_USAGE_ERRORS = (UnknownScenario, UnknownName, InvalidParam)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="convlab",
        description="Numerical verification lab for fibered convexity "
                    "and kernel localization claims.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the registered scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one scenario, or all of them")
    p_run.add_argument("scenario", nargs="?",
                       help="scenario name (see 'convlab list')")
    p_run.add_argument("--all", action="store_true",
                       help="run every registered scenario")
    p_run.add_argument("--json", metavar="PATH",
                       help="write the JSON report to PATH ('-' for stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_marg = sub.add_parser(
        "marginal", help="sample the dent-weight marginal and audit convexity")
    p_marg.add_argument("--eps", type=float, default=0.1)
    p_marg.add_argument("--lo", type=float, default=-0.5)
    p_marg.add_argument("--hi", type=float, default=0.5)
    p_marg.add_argument("--n", type=int, default=101)
    p_marg.add_argument("--tol", type=float, default=1e-7)
    p_marg.add_argument("--csv", metavar="PATH",
                        help="write the sampled curve as CSV")
    p_marg.set_defaults(func=_cmd_marginal)

    p_berg = sub.add_parser(
        "bergman", help="log dent fiber masses: moments and both curve routes")
    p_berg.add_argument("--eps", type=float, default=0.3)
    p_berg.add_argument("--z", type=float, nargs="+", default=[0.0, 0.15, 0.3, 0.6])
    p_berg.add_argument("--moments", type=int, default=3)
    p_berg.set_defaults(func=_cmd_bergman)

    p_conv = sub.add_parser(
        "check-convex", help="midpoint convexity audit of a t,value CSV file")
    p_conv.add_argument("path")
    p_conv.add_argument("--tol", type=float, default=1e-9)
    p_conv.set_defaults(func=_cmd_check_convex)

    p_psh = sub.add_parser(
        "check-psh", help="submean audit of the closed-form log dent curve")
    p_psh.add_argument("--eps", type=float, default=0.3)
    p_psh.add_argument("--centers", type=int, default=25)
    p_psh.add_argument("--radii", type=float, nargs="+", default=[0.05, 0.1])
    p_psh.add_argument("--angles", type=int, default=2048)
    p_psh.add_argument("--tol", type=float, default=1e-7)
    p_psh.add_argument("--seed", type=int, default=20210921)
    p_psh.set_defaults(func=_cmd_check_psh)

    return ap


def _cmd_list(args) -> int:
    width = max(len(name) for name, _ in list_scenarios())
    for name, summary in list_scenarios():
        print(f"{name:<{width}}  {summary}")
    return 0


def _print_report(report) -> None:
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"  [{mark}] {check.name}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{report.scenario}: {verdict}  ({report.wall_time:.2f}s)")


def _cmd_run(args) -> int:
    if args.all == (args.scenario is not None):
        raise InvalidParam("give a scenario name or --all, not both or neither")
    names = scenario_names() if args.all else [args.scenario]
    reports = [run_scenario(name) for name in names]
    if args.json != "-":  # keep stdout pure JSON in pipe mode
        for report in reports:
            _print_report(report)
    if args.json:
        payload = (reports[0].to_jsonable() if len(reports) == 1
                   else [r.to_jsonable() for r in reports])
        text = json.dumps(payload, sort_keys=True, indent=2)
        if args.json == "-":
            print(text)
        else:
            _write_text(args.json, text + "\n")
    return 0 if all(r.passed for r in reports) else 1


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParam(f"cannot write the output file: {exc}") from exc


def _cmd_marginal(args) -> int:
    if args.n < 3 or not (args.lo < args.hi):
        raise InvalidParam("need lo < hi and at least 3 samples")
    w = stock_weight("prekopa_cex", args.eps)
    line = full_space((1, 1))
    ts = np.linspace(args.lo, args.hi, args.n)
    curve = prekopa.sample_marginal_curve(w, line, ts)
    if args.csv:
        _write_text(args.csv, curve.to_csv())
    rep = curve.convexity(tol=args.tol)
    print(f"samples: {args.n}   checked midpoint triples: {rep.checked}")
    print(f"worst violation: {rep.worst_violation:.3e}   tol: {rep.tol:.1e}")
    print("convex: " + ("yes" if rep.verdict else "NO"))
    return 0 if rep.verdict else 1


def _cmd_bergman(args) -> int:
    closed = [bergman.berndtsson_phi_closed(z, args.eps) for z in args.z]
    quad = bergman.berndtsson_phi_curve(args.eps, args.z)
    print("z      curve(quad)        curve(closed)      gap")
    for z, q, c in zip(args.z, quad, closed):
        print(f"{z:<6g} {q:<18.12f} {c:<18.12f} {abs(q - c):.2e}")
    mt = bergman.radial_moments(
        bergman.berndtsson_profile(complex(args.z[0], 0.0), args.eps),
        args.moments)
    print(f"moments at |z|={args.z[0]:g}:")
    sys.stdout.write(mt.to_csv())
    return 0


def _cmd_check_convex(args) -> int:
    ts, vals = [], []
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "t,value":
                raise InvalidParam(f"expected a 't,value' header, got {header!r}")
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                a, b = line.split(",")
                ts.append(float(a))
                vals.append(float(b))
    except OSError as exc:
        raise InvalidParam(f"cannot read {args.path}: {exc}") from exc
    except ValueError as exc:
        raise InvalidParam(f"malformed CSV row: {exc}") from exc
    rep = prekopa.convexity_check(ts, vals, tol=args.tol)
    print(f"checked: {rep.checked}   skipped: {rep.skipped}")
    print(f"worst violation: {rep.worst_violation:.3e}   tol: {rep.tol:.1e}")
    if rep.witness is not None:
        print(f"witness triple: {rep.witness}")
    print("convex: " + ("yes" if rep.verdict else "NO"))
    return 0 if rep.verdict else 1


def _cmd_check_psh(args) -> int:
    if args.centers < 1:
        raise InvalidParam("need at least one center")
    rng = np.random.default_rng(args.seed)
    pts = rng.uniform(-0.6, 0.6, size=(args.centers, 2))
    centers = [complex(a, b) for a, b in pts]
    u = lambda z: bergman.berndtsson_phi_closed(abs(z), args.eps)
    rep = bergman.psh_mean_value_check(u, centers, args.radii,
                                       n_angles=args.angles, tol=args.tol)
    print(f"checked: {rep.checked}   worst deficit: {rep.worst_deficit:.3e}")
    print("submean: " + ("yes" if rep.verdict else "NO"))
    return 0 if rep.verdict else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return 0 if code == 0 else 3
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConvlabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
