"""``eval``: one number, by one route or both."""

from __future__ import annotations

import argparse

from ..kernel import METHODS, hypersolid
from . import Result, _digits, _integer


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--v", type=_integer, required=True, help="dimension")
    p.add_argument("--d", type=_integer, required=True, help="common difference")
    p.add_argument("--n", type=_integer, required=True, help="rank")
    p.add_argument("--method", choices=(*METHODS, "both"), default="closed")


def run(args: argparse.Namespace) -> Result:
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
