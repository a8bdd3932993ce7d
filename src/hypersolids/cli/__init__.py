"""Command line front end.

Subcommands: eval, table, triangle, sums, verify, represent.  Each accepts
``--format {text,csv,json}`` and ``--output PATH``.  Each command returns
``(query, consistent, payload)``, where the payload is the JSON result, the
CSV rows or the text lines for the chosen format; :func:`_render` frames it
and :func:`_emit` writes it as it is made.  CSV and text go out ``_BATCH``
lines at a time, so the whole output is never one string.  JSON goes out
piece by piece (:func:`_json`): a dict key by key and a listing that a
command hands over as an iterator ``_BATCH`` items at a time, in the bytes
``json.dumps`` gives the whole document.  A command makes every check
before it returns, so a call that fails one writes nothing, and
``--output`` gets the whole output or keeps its old content.  Exit codes:
0 when ``consistent`` is true, 1 when it is false (a verification or
consistency check failed), 2 on malformed usage or an ``--output`` path
that cannot be written.

CSV output is deterministic: comma-separated fields, every row newline
terminated, no quoting (fields are decimal digits or fixed labels).  JSON
output is one object with ``query``, ``result`` and ``consistent`` fields;
values that can exceed 64 bits are rendered as decimal strings.  Every
printed int, whatever its size, goes through :func:`_digits`, so a value
past the interpreter's int-to-str digit limit prints in full.

This package holds the shared front end; each command lives in its own
module, ``_eval`` ... ``_represent``, with ``add_arguments(parser)`` and
``run(args) -> Result``.  Start-up compiles this module and the one
command that runs, and argparse builds only that command's options; the
command imports the kernel and the layers it uses, so a call pays only for
its own command.  ``python -m hypersolids.cli`` runs ``__main__``,
so the package is imported once.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain, islice

Result = tuple[dict, bool, object]  # (query, consistent, payload for args.format)
# each command's one-line help, in the order --help lists them; the command
# named NAME lives in the module ``_NAME`` beside this one
COMMANDS = {
    "eval": "evaluate one number",
    "table": "d x n value grid for one dimension",
    "triangle": "fixed-difference triangle with row sums",
    "sums": "fixed-total sums: closed form vs enumeration",
    "verify": "run exhaustive identity sweeps",
    "represent": "find all coordinates producing a value",
}


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


#: Lines handed to the writer at once.  The 100,009 CSV lines of ``represent
#: --value 100000 --vmax 4294967295 --nmin 2`` took 80.6 ms to write in
#: 16-line batches, as long as one joined string, and 120.2 ms a line at a
#: time; 256-line batches of wide rows took ``triangle --d 1 --rows 1600``
#: to 227.5 MB peak RSS, against 34.4 MB (Python 3.11.7, 2-core x86-64).
_BATCH = 16


def _json(value: object, dumps: Callable[[object], str]) -> Iterator[str]:
    """``dumps(value)`` in pieces, none of them empty: a dict key by key and
    an iterator ``_BATCH`` items at a time, each batch dumped as one list;
    anything else is dumped whole.  With ``json.dumps``'s default separators
    the pieces join to the bytes ``json.dumps`` gives once every iterator is
    a list."""
    if isinstance(value, dict):
        sep = "{"
        for key, item in value.items():
            yield f"{sep}{dumps(key)}: "
            yield from _json(item, dumps)
            sep = ", "
        yield "{}" if sep == "{" else "}"
    elif isinstance(value, Iterator):
        sep = "["
        # a batch dumps as "[...]", and only the exhausted iterator as "[]"
        for batch in iter(lambda: dumps(list(islice(value, _BATCH)))[1:-1], ""):
            yield sep + batch
            sep = ", "
        yield "[]" if sep == "[" else "]"
    else:
        yield dumps(value)


def _render(fmt: str, query: dict, consistent: bool, payload: object) -> Iterable[str]:
    """The output as pieces to write, each made when the writer asks for it:
    CSV rows and text lines ``_BATCH`` at a time, and the JSON envelope
    piece by piece, its listings ``_BATCH`` items at a time."""
    if fmt == "json":
        import json

        envelope = {"query": query, "result": payload, "consistent": consistent}
        return chain(_json(envelope, json.dumps), ("\n",))
    if fmt == "csv":
        lines = (",".join(map(_digits, row)) + "\n" for row in payload)
    else:
        lines = (line + "\n" for line in payload)
    # every line ends in a newline, so only the exhausted payload joins to ""
    return iter(lambda: "".join(islice(lines, _BATCH)), "")


def _emit(pieces: Iterable[str], output: str | None) -> None:
    """Write the pieces to stdout, or to ``output`` as they come.

    A device or a pipe such as /dev/stdout cannot be replaced, so it is
    written into.  Anything else is written as a temporary file beside the
    target, then renamed over the target: a reader never sees half a file,
    and a failed or interrupted write leaves the old file as it was.  The
    symlink (if any) is kept, its file replaced.
    """
    if not output:
        sys.stdout.writelines(pieces)
        return
    device = os.path.exists(output) and not os.path.isfile(output)
    target = output if device else os.path.realpath(output)
    path = target if device else f"{target}.{os.getpid()}.tmp"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        if not device:
            os.replace(path, target)
    except OSError as exc:
        # name the path given, not the temporary file, also where a write
        # into a device fails with no file name (say, /dev/full when full)
        raise OSError(exc.errno, exc.strerror, output) from None
    finally:
        if not device and os.path.exists(path):  # the write failed or was interrupted
            os.remove(path)


def _cells(fmt: str, cells: Iterable[tuple[int, int, int, int]]) -> Iterator:
    """Listed cells ``(v, d, n, value)`` as JSON objects, CSV fields or text
    lines, each made as the writer reads it."""
    if fmt == "json":
        return ({"v": v, "d": d, "n": n, "value": _digits(value)} for v, d, n, value in cells)
    if fmt == "csv":
        return iter(cells)
    return (f"S({v},{d},{n}) = {_digits(value)}" for v, d, n, value in cells)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, with the options of ``command`` only (of every
    command when it is None): every command is listed, so ``--help`` and
    an unknown command read the same either way."""
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
    for name, summary in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=summary)
        if command is None or name == command:
            # the import statement's own hook, so -X importtime lists the module
            module = __import__(f"{__name__}._{name}", fromlist=["run"])
            module.add_arguments(p)
            p.set_defaults(func=module.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # every item before the command that argparse runs starts with "-", so
    # the first item that names a command is that command
    command = next((arg for arg in argv if arg in COMMANDS), None)
    if command is not None and "--" in argv[: argv.index(command)]:
        # argparse takes an end-of-options marker before the command for the
        # command itself; no top-level option takes a value, so the marker
        # means nothing else there
        argv.remove("--")
    args = build_parser(command).parse_args(argv)
    try:
        query, consistent, payload = args.func(args)
        _emit(_render(args.format, query, consistent, payload), args.output)
    except (ValueError, OSError) as exc:
        # a malformed query (RangeError included) or an --output path that
        # cannot be written is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if consistent else 1
