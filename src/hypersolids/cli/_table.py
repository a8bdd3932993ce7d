"""``table``: the d x n value grid of one dimension."""

from __future__ import annotations

import argparse

from ..kernel import _check, hypersolid, sequence_slice
from . import Result, _digits, _integer


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", type=_integer, required=True, help="dimension (>= 2)")
    p.add_argument("--dmax", type=_integer, default=10)
    p.add_argument("--nmax", type=_integer, default=10)
    p.add_argument("--gnomons", action="store_true",
                   help="append the rank-step column and the difference-step row")


def run(args: argparse.Namespace) -> Result:
    if args.v < 2:
        raise ValueError(f"--v must be >= 2 for tables, got {args.v}")
    if args.dmax < 1 or args.nmax < 1:
        raise ValueError("--dmax and --nmax must be >= 1")
    # every cell lies inside the box these three bound: check them before any list is built
    v, dmax, nmax = _check("v", args.v), _check("d", args.dmax), _check("n", args.nmax)
    gnomons = args.gnomons
    ns = list(range(1, nmax + 1))
    ds = list(range(1, dmax + 1))
    grid = {d: sequence_slice(v, d, 1, nmax) for d in ds}
    n_gnomons = {d: hypersolid(v - 1, d, nmax) for d in ds} if gnomons else None
    d_gnomons = sequence_slice(v, 1, 0, nmax - 1) if gnomons else None
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
