"""Command line front end.

Subcommands: eval, table, triangle, sums, verify, represent.  Each accepts
``--format {text,csv,json}`` and ``--output PATH``.  Each command returns
``(query, consistent, payload)``, where the payload is the JSON result, the
CSV rows or the text lines for the chosen format; :func:`_render` frames it
and :func:`main` writes it.  Exit codes: 0 when ``consistent`` is true, 1
when it is false (a verification or consistency check failed), 2 on
malformed usage or an ``--output`` path that cannot be written.

CSV output is deterministic: comma-separated fields, every row newline
terminated, no quoting (fields are decimal digits or fixed labels).  JSON
output is one object with ``query``, ``result`` and ``consistent`` fields;
values that can exceed 64 bits are rendered as decimal strings.  Every
printed int, whatever its size, goes through :func:`_digits`, so a value
past the interpreter's int-to-str digit limit prints in full.

Start-up imports only the kernel; each command imports the modules it
uses, so a call pays only for its own command.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Sequence

from .kernel import (
    COORD_LIMIT, DEFAULT_BOUNDS, METHODS, SUITES, IndexTriple, _check, _sequence, hypersolid,
)

Result = tuple[dict, bool, object]  # (query, consistent, payload for args.format)
_BOUNDS = ("vmax", "dmax", "nmax", "cmax", "smax")  # verify flags; GridBounds calls vmax v_max


def _digits(value: object) -> str:
    """``str(value)``, also for an int past the interpreter's int-to-str digit limit.

    ``decimal.Decimal(int)`` is exact and not subject to that limit, so no
    process-wide setting is changed.
    """
    try:
        return str(value)
    except ValueError:  # more than sys.get_int_max_str_digits() digits
        from decimal import Decimal

        return str(Decimal(value))


def _integer(text: str) -> int:
    """``int(text)``, also for a literal past the interpreter's int-from-str digit limit.

    It takes exactly the strings ``int`` takes: surrounding whitespace, a
    sign, then decimal digits with single underscores between them.  Only
    when ``int`` refuses such a string, which it does just for its length,
    is it read through ``decimal.Decimal``, which has no such limit; no
    process-wide setting is changed.
    """
    try:
        return int(text)
    except ValueError:
        body = text.strip()
        if body[:1] in ("+", "-"):
            body = body[1:]
        if not all(part.isdecimal() for part in body.split("_")):
            raise
        from decimal import Decimal

        return int(Decimal(text))


# argparse names the type in its message: "invalid int value: 'abc'"
_integer.__name__ = "int"


def _render(fmt: str, query: dict, consistent: bool, payload: object) -> str:
    if fmt == "json":
        import json

        return json.dumps({"query": query, "result": payload, "consistent": consistent}) + "\n"
    if fmt == "csv":
        return "".join(",".join(map(_digits, row)) + "\n" for row in payload)
    return "".join(line + "\n" for line in payload)


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


def _cells(fmt: str, pairs: Iterable[tuple[IndexTriple, int]]) -> list:
    """Listed (coordinates, value) pairs as JSON objects, CSV fields or text lines."""
    if fmt == "json":
        return [{"v": t.v, "d": t.d, "n": t.n, "value": _digits(value)} for t, value in pairs]
    if fmt == "csv":
        return [[t.v, t.d, t.n, value] for t, value in pairs]
    return [f"S({t.v},{t.d},{t.n}) = {_digits(value)}" for t, value in pairs]


def _cmd_eval(args: argparse.Namespace) -> Result:
    query = {"command": "eval", "v": args.v, "d": args.d, "n": args.n, "method": args.method}
    both = args.method == "both"
    methods = METHODS if both else (args.method,)
    values = {m: hypersolid(args.v, args.d, args.n, m) for m in methods}
    consistent = len(set(values.values())) == 1
    if args.format == "json":
        return query, consistent, {m if both else "value": _digits(x) for m, x in values.items()}
    if args.format == "csv":
        rows = [[args.v, args.d, args.n, m, x] for m, x in values.items()]
        return query, consistent, [["v", "d", "n", "method", "value"], *rows]
    lines = [f"{m}={_digits(x)}" if both else _digits(x) for m, x in values.items()]
    return query, consistent, lines if consistent else [*lines, "MISMATCH"]


def _cmd_table(args: argparse.Namespace) -> Result:
    if args.v < 2:
        raise ValueError(f"--v must be >= 2 for tables, got {args.v}")
    if args.dmax < 1 or args.nmax < 1:
        raise ValueError("--dmax and --nmax must be >= 1")
    # every cell lies inside the box these three bound: check them before any list is built
    v, dmax, nmax = _check("v", args.v), _check("d", args.dmax), _check("n", args.nmax)
    gnomons = args.gnomons
    ns = list(range(1, nmax + 1))
    ds = list(range(1, dmax + 1))
    grid = {d: _sequence(v, d, 1, nmax) for d in ds}
    n_gnomons = {d: hypersolid(v - 1, d, nmax) for d in ds} if gnomons else None
    d_gnomons = _sequence(v, 1, 0, nmax - 1) if gnomons else None
    query = {"command": "table", "v": v, "dmax": dmax, "nmax": nmax, "gnomons": gnomons}

    if args.format == "json":
        rows = [{"d": d, "values": [_digits(x) for x in grid[d]]}
                | ({"n_gnomon": _digits(n_gnomons[d])} if gnomons else {}) for d in ds]
        d_row = [_digits(x) for x in d_gnomons] if gnomons else None
        return query, True, {"n": ns, "rows": rows, "d_gnomons": d_row}
    rows = [["d/n", *ns] + (["(n)"] if gnomons else [])]
    rows += [[d, *grid[d]] + ([n_gnomons[d]] if gnomons else []) for d in ds]
    if gnomons:
        rows.append(["(d)", *d_gnomons, ""])
    if args.format == "csv":
        return query, True, rows
    # text: the same cells, right-aligned in columns
    rows[0][0] = "d\\n"
    cells = [[_digits(x) for x in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return query, True, [" ".join(map(str.rjust, row, widths)).rstrip() for row in cells]


def _cmd_triangle(args: argparse.Namespace) -> Result:
    from .triangle import _diagonals, build_triangle, row_sum

    if args.diagonals is not None:
        _check("--diagonals", args.diagonals, 2)
    tri = build_triangle(args.d, args.rows)
    sums = [row_sum(args.d, c) for c in range(args.rows + 1)]
    diag = None if args.diagonals is None else _diagonals(tri.rows, args.diagonals, args.rows)
    query = {"command": "triangle", "d": args.d, "rows": args.rows, "diagonals": args.diagonals}

    if args.format == "json":
        result = {
            "rows": [[_digits(x) for x in row] for row in tri.rows],
            "row_sums": [_digits(x) for x in sums],
            "diagonal_sums": (
                {"m": args.diagonals, "first_index": 2, "values": [_digits(x) for x in diag]}
                if diag is not None
                else None
            ),
        }
        return query, True, result
    if args.format == "csv":
        rows: list[list[object]] = [["row", c, *tri.rows[c], sums[c]] for c in range(args.rows + 1)]
        if diag is not None:
            rows += [["diagonal", k + 2, value] for k, value in enumerate(diag)]
        return query, True, rows
    lines = [" ".join(map(_digits, row)) + f" | {_digits(total)}"
             for row, total in zip(tri.rows, sums)]
    if diag is not None:
        lines.append(f"diagonals m={args.diagonals}: " + " ".join(map(_digits, diag)))
    return query, True, lines


def _parse_fix(text: str | None) -> tuple[str, int] | None:
    if text is None:
        return None
    coord, sep, raw = text.partition("=")
    if sep != "=" or coord not in ("v", "d", "n"):
        raise ValueError(f"--fix expects v=NUM, d=NUM or n=NUM, got {text!r}")
    try:
        value = _integer(raw)
    except ValueError:
        raise ValueError(f"--fix expects an integer value, got {text!r}") from None
    return coord, value


def _cmd_sums(args: argparse.Namespace) -> Result:
    from .sums import sum_fixed_s, sum_fixed_sd, sum_fixed_sn, sum_fixed_sv

    fix = _parse_fix(args.fix)
    include = args.list_triples
    if fix is None:
        report = sum_fixed_s(args.s, include_triples=include)
    else:
        pinned = {"v": sum_fixed_sv, "d": sum_fixed_sd, "n": sum_fixed_sn}[fix[0]]
        report = pinned(args.s, fix[1], include_triples=include)
    query = {"command": "sums", "s": args.s,
             "fix": None if fix is None else {fix[0]: fix[1]}, "list": include}
    fields = {name: getattr(report, name) for name in
              ("formula_sum", "formula_multitude", "enumerated_sum", "enumerated_multitude")}
    cells = None if report.triples is None else _cells(args.format, report.triples)

    if args.format == "json":
        # the sums can exceed 64 bits, the multitudes cannot
        result = {name: x if x is None or name.endswith("multitude") else _digits(x)
                  for name, x in fields.items()}
        return query, report.consistent, {**result, "triples": cells}
    if args.format == "csv":
        rows: list[list[object]] = [["field", "value"]]
        rows += [[name, "" if x is None else x] for name, x in fields.items()]
        rows.append(["consistent", str(report.consistent).lower()])
        rows += [["triple", *cell] for cell in cells or ()]
        return query, report.consistent, rows
    if report.formula_applies:
        formula = f"sum={_digits(report.formula_sum)} multitude={report.formula_multitude}"
    else:
        formula = "none (no closed form at this corner)"
    lines = [
        f"formula:    {formula}",
        f"enumerated: sum={_digits(report.enumerated_sum)} multitude={report.enumerated_multitude}",
        f"consistent: {'yes' if report.consistent else 'no'}",
    ]
    return query, report.consistent, lines + (cells or [])


def _cmd_verify(args: argparse.Namespace) -> Result:
    from .verify import GridBounds, run_suites

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


def _cmd_represent(args: argparse.Namespace) -> Result:
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
    query = {"command": "represent", "value": _digits(args.value),
             "vmin": args.vmin, "vmax": args.vmax,
             "dmin": args.dmin, "dmax": args.dmax,
             "nmin": args.nmin, "nmax": args.nmax}
    cells = _cells(args.format, hits)
    if args.format == "json":
        return query, True, {"hits": cells}
    if args.format == "csv":
        return query, True, [["v", "d", "n", "value"], *cells]
    return query, True, cells or ["no representations in the box"]


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
    p.add_argument("--v", type=_integer, required=True, help="dimension")
    p.add_argument("--d", type=_integer, required=True, help="common difference")
    p.add_argument("--n", type=_integer, required=True, help="rank")
    p.add_argument("--method", choices=(*METHODS, "both"), default="closed")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", parents=[common],
                       help="d x n value grid for one dimension")
    p.add_argument("--v", type=_integer, required=True, help="dimension (>= 2)")
    p.add_argument("--dmax", type=_integer, default=10)
    p.add_argument("--nmax", type=_integer, default=10)
    p.add_argument("--gnomons", action="store_true",
                   help="append the rank-step column and the difference-step row")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("triangle", parents=[common],
                       help="fixed-difference triangle with row sums")
    p.add_argument("--d", type=_integer, required=True, help="common difference")
    p.add_argument("--rows", type=_integer, required=True, help="last row index")
    p.add_argument("--diagonals", type=_integer, default=None, metavar="M",
                   help="also print slope-1/M diagonal sums (M >= 2)")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("sums", parents=[common],
                       help="fixed-total sums: closed form vs enumeration")
    p.add_argument("--s", type=_integer, required=True, help="coordinate total v+d+n")
    p.add_argument("--fix", default=None, metavar="COORD=NUM",
                   help="pin one coordinate, e.g. v=2, d=0 or n=4")
    p.add_argument("--list", dest="list_triples", action="store_true",
                   help="list the contributing nonzero triples")
    p.set_defaults(func=_cmd_sums)

    p = sub.add_parser("verify", parents=[common],
                       help="run exhaustive identity sweeps")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    for flag in _BOUNDS:
        p.add_argument(f"--{flag}", type=_integer, default=DEFAULT_BOUNDS[f"{flag[0]}_max"])
    p.add_argument("--jobs", type=_integer, default=1, metavar="N",
                   help="sweeps run in one thread; N >= 1 is accepted for compatibility")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("represent", parents=[common],
                       help="find all coordinates producing a value")
    p.add_argument("--value", type=_integer, required=True)
    p.add_argument("--vmin", type=_integer, default=2)
    p.add_argument("--vmax", type=_integer, default=8)
    p.add_argument("--dmin", type=_integer, default=0)
    p.add_argument("--dmax", type=_integer, default=None,
                   help="default: min(VALUE, 2**32 - 1)")
    p.add_argument("--nmin", type=_integer, default=3)
    p.add_argument("--nmax", type=_integer, default=None,
                   help="default: 2**32 - 1; required when --vmin < 2")
    p.set_defaults(func=_cmd_represent)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        query, consistent, payload = args.func(args)
        _emit(_render(args.format, query, consistent, payload), args.output)
    except (ValueError, OSError) as exc:
        # a malformed query (RangeError included) or an --output path that
        # cannot be written is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if consistent else 1


if __name__ == "__main__":
    sys.exit(main())
