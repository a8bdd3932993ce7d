"""``triangle``: the fixed-difference triangle with its row sums.

The rows come one at a time from ``kernel._triangle_rows`` and each is
rendered as it is made, in every format; ``--diagonals`` passes them through
``triangle._diagonals``, which adds up their diagonals on that one pass.
"""

from __future__ import annotations

import argparse
from itertools import chain, islice, repeat

from ..kernel import _check, _triangle_rows
from . import Result, _digits, _integer


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=_integer, required=True, help="common difference")
    p.add_argument("--rows", type=_integer, required=True, help="last row index")
    p.add_argument("--diagonals", type=_integer, default=None, metavar="M",
                   help="also print slope-1/M diagonal sums (M >= 2)")


def run(args: argparse.Namespace) -> Result:
    from ..triangle import _diagonals, row_sum

    m = args.diagonals
    if m is not None:
        _check("--diagonals", m, 2)
    # the names and messages of build_triangle's checks
    d = _check("d", args.d)
    c_max = _check("c_max", args.rows)
    # --diagonals adds up the printed rows as they pass, so its totals are
    # read only after the last row: in JSON by a map that the writer reads
    # after "rows", and in CSV and text by generators chained after the rows
    totals = [0] * (c_max + 1)
    diag = islice(totals, 2, None)
    rows = _triangle_rows(d, c_max)
    if m is not None:
        rows = _diagonals(rows, m, totals)
    sums = map(row_sum, repeat(d), range(c_max + 1))
    query = {"command": "triangle", "d": args.d, "rows": args.rows, "diagonals": m}

    if args.format == "json":
        result = {
            "rows": ([*map(_digits, row)] for row in rows),
            "row_sums": map(_digits, sums),
            "diagonal_sums": (
                {"m": m, "first_index": 2, "values": map(_digits, diag)}
                if m is not None
                else None
            ),
        }
        return query, True, result
    if args.format == "csv":
        tail = () if m is None else (["diagonal", k, x] for k, x in enumerate(diag, 2))
        fields = (["row", c, *row, total] for c, (row, total) in enumerate(zip(rows, sums)))
        return query, True, chain(fields, tail)
    tail = () if m is None else (f"diagonals m={m}: " + " ".join(map(_digits, x)) for x in [diag])
    lines = (" ".join(map(_digits, row)) + f" | {_digits(total)}" for row, total in zip(rows, sums))
    return query, True, chain(lines, tail)
