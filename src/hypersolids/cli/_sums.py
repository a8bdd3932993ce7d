"""``sums``: a fixed-total sum, closed form against enumeration.

A call first makes the bare report, the tally of the cells' sum and
nonzero count, and its verdict sets the exit code and the ``consistent``
field: the verdict judges the tally.  With ``--list`` the nonzero cells are
listed as they are written, after the verdict in text and CSV and inside
``result`` in JSON, so no listing is held whole.  The whole simplex lists
them in a second pass (``sums._listing``); a slice tallies and lists one
list of its O(s) values (``sums._slice_listing``).  Every check of the
query is made before anything is written, so a call that fails one writes
nothing.
"""

from __future__ import annotations

import argparse
from itertools import chain

from . import Result, _cells, _digits, _integer


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--s", type=_integer, required=True, help="coordinate total v+d+n")
    p.add_argument("--fix", default=None, metavar="COORD=NUM",
                   help="pin one coordinate, e.g. v=2, d=0 or n=4")
    p.add_argument("--list", dest="list_triples", action="store_true",
                   help="list the contributing nonzero triples")


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


def run(args: argparse.Namespace) -> Result:
    from ..sums import (
        _listing, _slice_listing, sum_fixed_s, sum_fixed_sd, sum_fixed_sn, sum_fixed_sv,
    )

    fix = _parse_fix(args.fix)
    include = args.list_triples
    listing = None
    if fix is None:
        report = sum_fixed_s(args.s)
        if include:  # the query's checked total lists its cells a second time, as written
            listing = _listing(args.s)
    elif include:  # the tally and the listing read one list of the slice's values
        report, listing = _slice_listing(args.s, *fix)
    else:
        pinned = {"v": sum_fixed_sv, "d": sum_fixed_sd, "n": sum_fixed_sn}[fix[0]]
        report = pinned(args.s, fix[1])
    query = {"command": "sums", "s": args.s,
             "fix": None if fix is None else {fix[0]: fix[1]}, "list": include}
    fields = {name: getattr(report, name) for name in
              ("formula_sum", "formula_multitude", "enumerated_sum", "enumerated_multitude")}
    cells = None if listing is None else _cells(args.format, listing)

    if args.format == "json":
        # the sums can exceed 64 bits, the multitudes cannot
        result = {name: x if x is None or name.endswith("multitude") else _digits(x)
                  for name, x in fields.items()}
        return query, report.consistent, {**result, "triples": cells}
    if args.format == "csv":
        rows: list[tuple[object, ...]] = [("field", "value")]
        rows += [(name, "" if x is None else x) for name, x in fields.items()]
        rows.append(("consistent", str(report.consistent).lower()))
        return query, report.consistent, rows if cells is None else chain(
            rows, map(("triple",).__add__, cells))
    if report.formula_applies:
        formula = f"sum={_digits(report.formula_sum)} multitude={report.formula_multitude}"
    else:
        formula = "none (no closed form at this corner)"
    lines = [
        f"formula:    {formula}",
        f"enumerated: sum={_digits(report.enumerated_sum)} multitude={report.enumerated_multitude}",
        f"consistent: {'yes' if report.consistent else 'no'}",
    ]
    return query, report.consistent, lines if cells is None else chain(lines, cells)
