"""Every row of the CLI check table (``tests/cli_checks.py``), run in-process
through ``cli.main``, and the runner's timeout."""

from __future__ import annotations

import signal
import time

import pytest
from cli_checks import ROWS, Row, run


@pytest.mark.parametrize("row", ROWS, ids=lambda row: getattr(row.argv, "__name__", row.argv)[:72])
def test_the_cli_check_row_passes_in_process(row):
    run(row)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the timeout is checked after the call")
def test_an_in_process_row_that_never_returns_fails_at_its_timeout():
    def never_returns():
        while True:
            pass

    start = time.perf_counter()
    with pytest.raises(AssertionError, match=r"^never_returns\n  stopped at 0.2 s$"):
        run(Row(never_returns, None, timeout=0.2))
    assert time.perf_counter() - start < 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
