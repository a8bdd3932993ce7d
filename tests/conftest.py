from __future__ import annotations

import pytest

from hypersolids import cli, kernel, search, triangle, verify


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*argv: str):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def closed_calls(monkeypatch):
    """Record the scalar closed-form calls, made through ``kernel._closed``
    or through the names ``search``, ``triangle`` and ``verify`` imported it
    under."""
    calls = []
    scalar = kernel._closed

    def spy(v, d, n):
        calls.append((v, d, n))
        return scalar(v, d, n)

    monkeypatch.setattr(kernel, "_closed", spy)
    for module in (search, triangle, verify):
        monkeypatch.setattr(module, "_closed", spy)
    return calls
