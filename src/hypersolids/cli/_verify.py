"""``verify``: the exhaustive identity sweeps."""

from __future__ import annotations

import argparse

from ..kernel import DEFAULT_BOUNDS, SUITES
from . import Result, _integer

_BOUNDS = ("vmax", "dmax", "nmax", "cmax", "smax")  # verify flags; GridBounds calls vmax v_max


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    for flag in _BOUNDS:
        p.add_argument(f"--{flag}", type=_integer, default=DEFAULT_BOUNDS[f"{flag[0]}_max"])
    p.add_argument("--jobs", type=_integer, default=1, metavar="N",
                   help="sweeps run in one thread; N >= 1 is accepted for compatibility")


def run(args: argparse.Namespace) -> Result:
    from ..verify import GridBounds, run_suites

    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    given = {flag: getattr(args, flag) for flag in _BOUNDS}
    bounds = GridBounds(**{f"{flag[0]}_max": value for flag, value in given.items()})
    outcomes = run_suites(args.suite, bounds=bounds, jobs=args.jobs)
    ok = all(outcome.ok for outcome in outcomes)
    query = {"command": "verify", "suite": args.suite, "jobs": args.jobs, "bounds": given}

    if args.format == "json":
        suites = [{"suite": o.suite, "cases_run": o.cases_run,
                   "failures": [{"case": case, "expected": expected, "actual": actual}
                                for case, expected, actual in o.failures]}
                  for o in outcomes]
        return query, ok, {"suites": suites}
    if args.format == "csv":
        rows: list[list[object]] = [["suite", "cases_run", "failures"]]
        rows += [[o.suite, o.cases_run, len(o.failures)] for o in outcomes]
        rows += [["failure", o.suite, *failure] for o in outcomes for failure in o.failures]
        return query, ok, rows
    lines = []
    for o in outcomes:
        lines.append(f"{o.suite}: {o.cases_run} cases, {len(o.failures)} failures")
        lines += [f"  FAIL {case}: expected {expected}, got {actual}"
                  for case, expected, actual in o.failures]
    lines.append("ok" if ok else "FAILED")
    return query, ok, lines
