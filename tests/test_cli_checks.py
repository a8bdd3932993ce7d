"""Every row of the CLI check table (``tests/cli_checks.py``), run in-process
through ``cli.main``."""

from __future__ import annotations

import pytest
from cli_checks import ROWS, run


@pytest.mark.parametrize("row", ROWS, ids=lambda row: getattr(row.argv, "__name__", row.argv)[:72])
def test_the_cli_check_row_passes_in_process(row):
    run(row)
