"""``triangle``: the fixed-difference triangle with its row sums."""

from __future__ import annotations

import argparse

from ..kernel import _check
from . import Result, _digits, _integer


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=_integer, required=True, help="common difference")
    p.add_argument("--rows", type=_integer, required=True, help="last row index")
    p.add_argument("--diagonals", type=_integer, default=None, metavar="M",
                   help="also print slope-1/M diagonal sums (M >= 2)")


def run(args: argparse.Namespace) -> Result:
    from ..triangle import _diagonals, build_triangle, row_sum

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
