"""``represent``: every coordinate triple in a box that produces a value."""

from __future__ import annotations

import argparse
from itertools import chain

from ..kernel import COORD_LIMIT
from . import Result, _cells, _digits, _integer


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--value", type=_integer, required=True)
    p.add_argument("--vmin", type=_integer, default=2)
    p.add_argument("--vmax", type=_integer, default=8)
    p.add_argument("--dmin", type=_integer, default=0)
    p.add_argument("--dmax", type=_integer, default=None,
                   help="default: min(VALUE, 2**32 - 1)")
    p.add_argument("--nmin", type=_integer, default=3)
    p.add_argument("--nmax", type=_integer, default=None,
                   help="default: 2**32 - 1; required when --vmin < 2")


def run(args: argparse.Namespace) -> Result:
    from ..search import representations

    d_range = None
    if args.dmin != 0 or args.dmax is not None:
        d_hi = args.dmax
        if d_hi is None:
            d_hi = min(args.value, COORD_LIMIT - 1)
            # the user never typed this bound, so name it; a target below 1
            # and a --dmin outside the domain keep the library's message
            if 1 <= d_hi < args.dmin < COORD_LIMIT:
                raise ValueError(f"--dmin {args.dmin} is above the default --dmax, "
                                 f"min(VALUE, 2**32 - 1) = {d_hi}")
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
    cells = _cells(args.format, (t + (value,) for t, value in hits))
    if args.format == "json":
        return query, True, {"hits": cells}
    if args.format == "csv":
        return query, True, chain([("v", "d", "n", "value")], cells)
    return query, True, cells if hits else ["no representations in the box"]
