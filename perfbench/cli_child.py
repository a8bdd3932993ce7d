"""Run one CLI call under the tracer and write its spans to a file.

Usage: python perfbench/cli_child.py SPANS_PATH ARG...

Used by the traced pass of the cli-calls workload in place of
``python -m hypersolids.cli ARG...``; stdout and the exit code are the CLI's.
"""

from __future__ import annotations

import importlib
import sys

from spans import LAYERS, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    package = importlib.import_module("hypersolids")
    modules = {layer: importlib.import_module(f"hypersolids.{layer}") for layer in LAYERS}
    tracer = Tracer()
    tracer.install(package, modules)
    try:
        code = modules["cli"].main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
