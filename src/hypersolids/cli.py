"""Command line front end.

Subcommands: eval, table, triangle, sums, verify, represent.  Each accepts
``--format {text,csv,json}`` and ``--output PATH``.  Exit codes: 0 on
success (and on verified consistency), 1 when a verification or consistency
check fails, 2 on malformed usage or an ``--output`` path that cannot be
written.

CSV output is deterministic: comma-separated fields, every row newline
terminated, no quoting (fields are decimal digits or fixed labels).  JSON
output is one object with ``query``, ``result`` and ``consistent`` fields;
values that can exceed 64 bits are rendered as decimal strings.

Start-up imports only the kernel; each command imports the modules it
uses, so a call pays only for its own command.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .kernel import COORD_LIMIT, DEFAULT_BOUNDS, METHODS, SUITES, _check, hypersolid


def _json_doc(query: dict, result: object, consistent: bool) -> str:
    import json

    return json.dumps({"query": query, "result": result, "consistent": consistent}) + "\n"


def _csv(rows: list[list[object]]) -> str:
    return "".join(",".join(str(field) for field in row) + "\n" for row in rows)


def _emit(text: str, output: str | None) -> None:
    if not output:
        sys.stdout.write(text)
        return
    if os.path.exists(output) and not os.path.isfile(output):
        # a device or a pipe such as /dev/stdout cannot be replaced: write into it
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    # Write a temporary file beside the target, then rename it over the
    # target: a reader never sees half a file, and a failed write leaves
    # the old file as it was.  The symlink (if any) is kept, its file replaced.
    target = os.path.realpath(output)
    temporary = f"{target}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, target)
    except OSError as exc:
        try:
            os.remove(temporary)
        except OSError:
            pass  # never created
        raise OSError(exc.errno, exc.strerror, output) from None


# ------------------------------------------------------------------ eval


def _cmd_eval(args: argparse.Namespace) -> tuple[str, int]:
    query = {"command": "eval", "v": args.v, "d": args.d, "n": args.n, "method": args.method}
    if args.method == "both":
        values = {m: hypersolid(args.v, args.d, args.n, m) for m in METHODS}
        consistent = values["closed"] == values["summation"]
        code = 0 if consistent else 1
        if args.format == "json":
            result = {m: str(values[m]) for m in METHODS}
            return _json_doc(query, result, consistent), code
        if args.format == "csv":
            rows: list[list[object]] = [["v", "d", "n", "method", "value"]]
            rows += [[args.v, args.d, args.n, m, values[m]] for m in METHODS]
            return _csv(rows), code
        lines = [f"{m}={values[m]}" for m in METHODS]
        if not consistent:
            lines.append("MISMATCH")
        return "\n".join(lines) + "\n", code
    value = hypersolid(args.v, args.d, args.n, args.method)
    if args.format == "json":
        return _json_doc(query, {"value": str(value)}, True), 0
    if args.format == "csv":
        return _csv([["v", "d", "n", "method", "value"],
                     [args.v, args.d, args.n, args.method, value]]), 0
    return f"{value}\n", 0


# ----------------------------------------------------------------- table


def _cmd_table(args: argparse.Namespace) -> tuple[str, int]:
    if args.v < 2:
        raise ValueError(f"--v must be >= 2 for tables, got {args.v}")
    if args.dmax < 1 or args.nmax < 1:
        raise ValueError("--dmax and --nmax must be >= 1")
    v, dmax, nmax = args.v, args.dmax, args.nmax
    ns = list(range(1, nmax + 1))
    ds = list(range(1, dmax + 1))
    grid = {d: [hypersolid(v, d, n) for n in ns] for d in ds}
    n_gnomons = {d: hypersolid(v - 1, d, nmax) for d in ds} if args.gnomons else None
    d_gnomons = [hypersolid(v, 1, n - 1) for n in ns] if args.gnomons else None
    query = {"command": "table", "v": v, "dmax": dmax, "nmax": nmax, "gnomons": args.gnomons}

    if args.format == "json":
        rows = [
            {"d": d, "values": [str(x) for x in grid[d]]}
            | ({"n_gnomon": str(n_gnomons[d])} if n_gnomons else {})
            for d in ds
        ]
        result = {
            "n": ns,
            "rows": rows,
            "d_gnomons": [str(x) for x in d_gnomons] if d_gnomons else None,
        }
        return _json_doc(query, result, True), 0
    if args.format == "csv":
        header: list[object] = ["d/n", *ns] + (["(n)"] if args.gnomons else [])
        rows = [header]
        for d in ds:
            rows.append([d, *grid[d]] + ([n_gnomons[d]] if n_gnomons else []))
        if d_gnomons:
            rows.append(["(d)", *d_gnomons, ""])
        return _csv(rows), 0
    # text: aligned columns
    header_cells = ["d\\n"] + [str(n) for n in ns] + (["(n)"] if args.gnomons else [])
    body = []
    for d in ds:
        cells = [str(d)] + [str(x) for x in grid[d]]
        if n_gnomons:
            cells.append(str(n_gnomons[d]))
        body.append(cells)
    if d_gnomons:
        body.append(["(d)"] + [str(x) for x in d_gnomons] + ([""] if args.gnomons else []))
    widths = [max(len(row[i]) for row in [header_cells, *body] if i < len(row))
              for i in range(len(header_cells))]
    lines = [" ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
             for row in [header_cells, *body]]
    return "\n".join(line.rstrip() for line in lines) + "\n", 0


# -------------------------------------------------------------- triangle


def _cmd_triangle(args: argparse.Namespace) -> tuple[str, int]:
    from .triangle import _diagonals, build_triangle, row_sum

    if args.diagonals is not None:
        _check("--diagonals", args.diagonals, 2)
    tri = build_triangle(args.d, args.rows)
    sums = [row_sum(args.d, c) for c in range(args.rows + 1)]
    diag = None
    if args.diagonals is not None:
        diag = _diagonals(tri.rows, args.diagonals, args.rows)
    query = {"command": "triangle", "d": args.d, "rows": args.rows, "diagonals": args.diagonals}

    if args.format == "json":
        result = {
            "rows": [[str(x) for x in row] for row in tri.rows],
            "row_sums": [str(x) for x in sums],
            "diagonal_sums": (
                {"m": args.diagonals, "first_index": 2, "values": [str(x) for x in diag]}
                if diag is not None
                else None
            ),
        }
        return _json_doc(query, result, True), 0
    if args.format == "csv":
        rows: list[list[object]] = [["row", c, *tri.rows[c], sums[c]] for c in range(args.rows + 1)]
        if diag is not None:
            rows += [["diagonal", k + 2, value] for k, value in enumerate(diag)]
        return _csv(rows), 0
    lines = [
        " ".join(str(x) for x in tri.rows[c]) + f" | {sums[c]}"
        for c in range(args.rows + 1)
    ]
    if diag is not None:
        lines.append(f"diagonals m={args.diagonals}: " + " ".join(str(x) for x in diag))
    return "\n".join(lines) + "\n", 0


# ------------------------------------------------------------------ sums


def _parse_fix(text: str | None) -> tuple[str, int] | None:
    if text is None:
        return None
    coord, sep, raw = text.partition("=")
    if sep != "=" or coord not in ("v", "d", "n"):
        raise ValueError(f"--fix expects v=NUM, d=NUM or n=NUM, got {text!r}")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"--fix expects an integer value, got {text!r}") from None
    return coord, value


def _cmd_sums(args: argparse.Namespace) -> tuple[str, int]:
    from .sums import sum_fixed_s, sum_fixed_sd, sum_fixed_sn, sum_fixed_sv

    fix = _parse_fix(args.fix)
    include = args.list_triples
    if fix is None:
        report = sum_fixed_s(args.s, include_triples=include)
    elif fix[0] == "v":
        report = sum_fixed_sv(args.s, fix[1], include_triples=include)
    elif fix[0] == "d":
        report = sum_fixed_sd(args.s, fix[1], include_triples=include)
    else:
        report = sum_fixed_sn(args.s, fix[1], include_triples=include)
    code = 0 if report.consistent else 1
    query = {"command": "sums", "s": args.s,
             "fix": None if fix is None else {fix[0]: fix[1]}, "list": include}

    if args.format == "json":
        result = {
            "formula_sum": None if report.formula_sum is None else str(report.formula_sum),
            "formula_multitude": report.formula_multitude,
            "enumerated_sum": str(report.enumerated_sum),
            "enumerated_multitude": report.enumerated_multitude,
            "triples": (
                None
                if report.triples is None
                else [{"v": t.v, "d": t.d, "n": t.n, "value": str(value)}
                      for t, value in report.triples]
            ),
        }
        return _json_doc(query, result, report.consistent), code
    if args.format == "csv":
        rows: list[list[object]] = [
            ["field", "value"],
            ["formula_sum", "" if report.formula_sum is None else report.formula_sum],
            ["formula_multitude",
             "" if report.formula_multitude is None else report.formula_multitude],
            ["enumerated_sum", report.enumerated_sum],
            ["enumerated_multitude", report.enumerated_multitude],
            ["consistent", str(report.consistent).lower()],
        ]
        if report.triples is not None:
            rows += [["triple", t.v, t.d, t.n, value] for t, value in report.triples]
        return _csv(rows), code
    if report.formula_applies:
        formula = f"sum={report.formula_sum} multitude={report.formula_multitude}"
    else:
        formula = "none (no closed form at this corner)"
    lines = [
        f"formula:    {formula}",
        f"enumerated: sum={report.enumerated_sum} multitude={report.enumerated_multitude}",
        f"consistent: {'yes' if report.consistent else 'no'}",
    ]
    if report.triples is not None:
        lines += [f"S({t.v},{t.d},{t.n}) = {value}" for t, value in report.triples]
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------- verify


def _cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    from .verify import GridBounds, run_suites

    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    bounds = GridBounds(v_max=args.vmax, d_max=args.dmax, n_max=args.nmax,
                        c_max=args.cmax, s_max=args.smax)
    outcomes = run_suites(args.suite, bounds=bounds, jobs=args.jobs)
    ok = all(outcome.ok for outcome in outcomes)
    code = 0 if ok else 1
    query = {"command": "verify", "suite": args.suite, "jobs": args.jobs,
             "bounds": {"vmax": args.vmax, "dmax": args.dmax, "nmax": args.nmax,
                        "cmax": args.cmax, "smax": args.smax}}

    if args.format == "json":
        result = {
            "suites": [
                {
                    "suite": outcome.suite,
                    "cases_run": outcome.cases_run,
                    "failures": [
                        {"case": case, "expected": expected, "actual": actual}
                        for case, expected, actual in outcome.failures
                    ],
                }
                for outcome in outcomes
            ]
        }
        return _json_doc(query, result, ok), code
    if args.format == "csv":
        rows: list[list[object]] = [["suite", "cases_run", "failures"]]
        rows += [[o.suite, o.cases_run, len(o.failures)] for o in outcomes]
        for outcome in outcomes:
            rows += [["failure", outcome.suite, case, expected, actual]
                     for case, expected, actual in outcome.failures]
        return _csv(rows), code
    lines = []
    for outcome in outcomes:
        lines.append(f"{outcome.suite}: {outcome.cases_run} cases, "
                     f"{len(outcome.failures)} failures")
        lines += [f"  FAIL {case}: expected {expected}, got {actual}"
                  for case, expected, actual in outcome.failures]
    lines.append("ok" if ok else "FAILED")
    return "\n".join(lines) + "\n", code


# ------------------------------------------------------------- represent


def _cmd_represent(args: argparse.Namespace) -> tuple[str, int]:
    from .search import representations

    d_range = None
    if args.dmin != 0 or args.dmax is not None:
        d_hi = args.dmax if args.dmax is not None else min(args.value, COORD_LIMIT - 1)
        d_range = (args.dmin, d_hi)
    hits = representations(
        args.value,
        v_range=(args.vmin, args.vmax),
        d_range=d_range,
        n_min=args.nmin,
        n_max=args.nmax,
    )
    query = {"command": "represent", "value": str(args.value),
             "vmin": args.vmin, "vmax": args.vmax,
             "dmin": args.dmin, "dmax": args.dmax,
             "nmin": args.nmin, "nmax": args.nmax}

    if args.format == "json":
        result = {"hits": [{"v": t.v, "d": t.d, "n": t.n, "value": str(value)}
                           for (t, value) in hits]}
        return _json_doc(query, result, True), 0
    if args.format == "csv":
        rows: list[list[object]] = [["v", "d", "n", "value"]]
        rows += [[t.v, t.d, t.n, value] for t, value in hits]
        return _csv(rows), 0
    lines = [f"S({t.v},{t.d},{t.n}) = {value}" for t, value in hits]
    return ("\n".join(lines) + "\n") if lines else "no representations in the box\n", 0


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text",
                        help="output format (default: text)")
    common.add_argument("--output", metavar="PATH", default=None,
                        help="write output to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="hypersolids",
        description="Exact arithmetic for multidimensional figurate numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate one number")
    p.add_argument("--v", type=int, required=True, help="dimension")
    p.add_argument("--d", type=int, required=True, help="common difference")
    p.add_argument("--n", type=int, required=True, help="rank")
    p.add_argument("--method", choices=(*METHODS, "both"), default="closed")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", parents=[common],
                       help="d x n value grid for one dimension")
    p.add_argument("--v", type=int, required=True, help="dimension (>= 2)")
    p.add_argument("--dmax", type=int, default=10)
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--gnomons", action="store_true",
                   help="append the rank-step column and the difference-step row")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("triangle", parents=[common],
                       help="fixed-difference triangle with row sums")
    p.add_argument("--d", type=int, required=True, help="common difference")
    p.add_argument("--rows", type=int, required=True, help="last row index")
    p.add_argument("--diagonals", type=int, default=None, metavar="M",
                   help="also print slope-1/M diagonal sums (M >= 2)")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("sums", parents=[common],
                       help="fixed-total sums: closed form vs enumeration")
    p.add_argument("--s", type=int, required=True, help="coordinate total v+d+n")
    p.add_argument("--fix", default=None, metavar="COORD=NUM",
                   help="pin one coordinate, e.g. v=2, d=0 or n=4")
    p.add_argument("--list", dest="list_triples", action="store_true",
                   help="list the contributing nonzero triples")
    p.set_defaults(func=_cmd_sums)

    p = sub.add_parser("verify", parents=[common],
                       help="run exhaustive identity sweeps")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--vmax", type=int, default=DEFAULT_BOUNDS["v_max"])
    p.add_argument("--dmax", type=int, default=DEFAULT_BOUNDS["d_max"])
    p.add_argument("--nmax", type=int, default=DEFAULT_BOUNDS["n_max"])
    p.add_argument("--cmax", type=int, default=DEFAULT_BOUNDS["c_max"])
    p.add_argument("--smax", type=int, default=DEFAULT_BOUNDS["s_max"])
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="sweeps run in one thread; N >= 1 is accepted for compatibility")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("represent", parents=[common],
                       help="find all coordinates producing a value")
    p.add_argument("--value", type=int, required=True)
    p.add_argument("--vmin", type=int, default=2)
    p.add_argument("--vmax", type=int, default=8)
    p.add_argument("--dmin", type=int, default=0)
    p.add_argument("--dmax", type=int, default=None,
                   help="default: the target value itself")
    p.add_argument("--nmin", type=int, default=3)
    p.add_argument("--nmax", type=int, default=None,
                   help="default: derived from the target")
    p.set_defaults(func=_cmd_represent)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = args.func(args)
    except ValueError as exc:  # includes RangeError: malformed query -> usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(text, args.output)
    except OSError as exc:  # e.g. --output into a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
