"""Command-line interface tests.

Exit-code contract: 0 = success/verified, 1 = consistency failure,
2 = usage error.  CSV and JSON output must be byte-deterministic; the
``table`` goldens under tests/goldens/ were transcribed from independently
checked reference values and are compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from itertools import repeat
from operator import add
from pathlib import Path

import pytest

import hypersolids
from hypersolids import GridBounds, cli, diagonal_sum, hypersolid, kernel, verify
from hypersolids.cli import _digits, _integer, build_parser

GOLDEN_DIR = Path(__file__).parent / "goldens"


# ------------------------------------------------------------------ eval


def test_eval_text(run_cli):
    code, out, err = run_cli("eval", "--v", "4", "--d", "1", "--n", "10")
    assert (code, out, err) == (0, "715\n", "")
    code, out, _ = run_cli("eval", "--v", "2", "--d", "10", "--n", "10")
    assert (code, out) == (0, "460\n")
    code, out, _ = run_cli("eval", "--v", "0", "--d", "5", "--n", "1")
    assert (code, out) == (0, "0\n")


def test_eval_both_methods_agree(run_cli):
    code, out, _ = run_cli("eval", "--v", "5", "--d", "3", "--n", "7", "--method", "both")
    assert code == 0
    assert out == "closed=966\nsummation=966\n"  # C(10,4) + 3*C(10,5)


@pytest.fixture
def wrong_summation(monkeypatch):
    """Make every rank of the summation pass one too high, so that every
    oracle case and every two-route eval from v = 2 on fails: the pass is
    patched in ``kernel``, where the scalar route reads it, and under the
    name ``verify`` imported it as."""
    true = kernel._summation_ranks

    def plus_one(v, d, n):
        return map(add, true(v, d, n), repeat(1))

    monkeypatch.setattr(kernel, "_summation_ranks", plus_one)
    monkeypatch.setattr(verify, "_summation_ranks", plus_one)


@pytest.mark.parametrize("fmt,want", [
    ("text", "closed=966\nsummation=967\nMISMATCH\n"),
    ("csv", "v,d,n,method,value\n5,3,7,closed,966\n5,3,7,summation,967\n"),
    ("json", '{"query": {"command": "eval", "v": 5, "d": 3, "n": 7, "method": "both"}, '
             '"result": {"closed": "966", "summation": "967"}, "consistent": false}\n'),
])
def test_eval_both_methods_disagreeing_exits_one(run_cli, wrong_summation, fmt, want):
    argv = ["eval", "--v", "5", "--d", "3", "--n", "7", "--method", "both", "--format", fmt]
    assert run_cli(*argv) == (1, want, "")


def test_eval_csv(run_cli):
    code, out, _ = run_cli("eval", "--v", "2", "--d", "1", "--n", "8", "--format", "csv")
    assert code == 0
    assert out == "v,d,n,method,value\n2,1,8,closed,36\n"


def test_eval_json(run_cli):
    code, out, _ = run_cli("eval", "--v", "50", "--d", "7", "--n", "1000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"query", "result", "consistent"}
    assert doc["query"]["command"] == "eval"
    assert doc["consistent"] is True
    value = int(doc["result"]["value"])
    assert value > 2**64  # decimal-string rendering survives big integers
    code2, out2, _ = run_cli(
        "eval", "--v", "50", "--d", "7", "--n", "1000", "--method", "summation"
    )
    assert int(out2) == value


def test_eval_usage_errors(run_cli):
    code, _, err = run_cli("eval", "--v", "-1", "--d", "0", "--n", "3")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli("eval", "--v", "2", "--d", "0")  # missing --n
    assert code == 2
    code, _, _ = run_cli("eval", "--v", "2", "--d", "0", "--n", "3", "--method", "guess")
    assert code == 2


@contextlib.contextmanager
def _digit_limit(limit: int):
    """Set the interpreter's int-to-str digit limit inside the block (0 lifts it)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _full_str(value: int) -> str:
    with _digit_limit(0):
        return str(value)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_eval_prints_values_past_the_default_digit_limit(run_cli, fmt):
    # S(10000, 1, 10000) has 6019 digits, past CPython's default of 4300;
    # the judge is math.comb's, printed with the limit lifted
    digits = _full_str(math.comb(19998, 9999) + math.comb(19998, 10000))
    assert len(digits) == 6019
    with _digit_limit(4300):
        code, out, err = run_cli("eval", "--v", "10000", "--d", "1", "--n", "10000",
                                 "--format", fmt)
        assert sys.get_int_max_str_digits() == 4300  # no process-wide change
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["result"] == {"value": digits}
    else:
        want = {"text": digits, "csv": f"v,d,n,method,value\n10000,1,10000,closed,{digits}"}
        assert out == want[fmt] + "\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_eval_both_methods_print_values_past_the_digit_limit(run_cli, fmt):
    # the summation route costs v * n additions (about a minute at
    # v = n = 10000), so this cell is smaller and the limit is lowered to
    # its floor of 640 digits: S(1200, 1, 1200) has 721
    digits = _full_str(math.comb(2398, 1199) + math.comb(2398, 1200))
    assert len(digits) == 721
    with _digit_limit(640):
        code, out, err = run_cli("eval", "--v", "1200", "--d", "1", "--n", "1200",
                                 "--method", "both", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["result"] == {"closed": digits, "summation": digits}
    elif fmt == "csv":
        rows = [f"1200,1,1200,{method},{digits}" for method in ("closed", "summation")]
        assert out.splitlines()[1:] == rows
    else:
        assert out == f"closed={digits}\nsummation={digits}\n"


@pytest.mark.parametrize("k", [1, 19, 639, 640, 4299, 4300, 4301, 10_000])
def test_digits_equal_str_on_both_sides_of_the_limit(k):
    values = (10**k - 1, 10**k, 10**k + 1, -(10**k) - 1)
    want = [_full_str(x) for x in values]
    for limit in (640, 4300):
        with _digit_limit(limit):
            assert [_digits(x) for x in values] == want
    # CSV rows mix ints with labels and empty fields, which pass through
    assert [_digits(x) for x in ("", "d/n", "(d)")] == ["", "d/n", "(d)"]


# ----------------------------------------------------------------- table


@pytest.mark.parametrize("v", [2, 3, 4])
def test_table_matches_golden(run_cli, v):
    code, out, err = run_cli(
        "table", "--v", str(v), "--dmax", "10", "--nmax", "10",
        "--gnomons", "--format", "csv",
    )
    assert (code, err) == (0, "")
    golden = (GOLDEN_DIR / f"table_v{v}.csv").read_text()
    assert out == golden


def test_table_plain_csv_layout(run_cli):
    code, out, _ = run_cli("table", "--v", "4", "--dmax", "1", "--nmax", "5",
                           "--format", "csv")
    assert code == 0
    assert out == "d/n,1,2,3,4,5\n1,1,5,15,35,70\n"


def test_table_text_contains_grid_and_gnomons(run_cli):
    code, out, _ = run_cli("table", "--v", "2", "--dmax", "3", "--nmax", "5", "--gnomons")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["d\\n", "1", "2", "3", "4", "5", "(n)"]
    assert lines[1].split() == ["1", "1", "3", "6", "10", "15", "5"]
    assert lines[3].split() == ["3", "1", "5", "12", "22", "35", "13"]
    # the difference-step row: previous-rank values of the d = 1 row
    assert lines[4].split() == ["(d)", "0", "1", "3", "6", "10"]


def test_table_rejects_low_dimension(run_cli):
    code, _, err = run_cli("table", "--v", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flag", ["--dmax", "--nmax"])
def test_table_rejects_an_empty_grid(run_cli, flag):
    argv = {"--v": "3", "--dmax": "2", "--nmax": "2"} | {flag: "0"}
    code, out, err = run_cli("table", *[x for pair in argv.items() for x in pair])
    assert (code, out, err) == (2, "", "error: --dmax and --nmax must be >= 1\n")


def table_reference(v: int, dmax: int, nmax: int, gnomons: bool, fmt: str) -> str:
    """The table command's output, built here one ``hypersolid`` call per cell."""
    ns, ds = list(range(1, nmax + 1)), list(range(1, dmax + 1))
    grid = {d: [hypersolid(v, d, n) for n in ns] for d in ds}
    n_step = {d: hypersolid(v - 1, d, nmax) for d in ds}
    d_step = [hypersolid(v, 1, n - 1) for n in ns]
    if fmt == "json":
        rows = [{"d": d, "values": [str(x) for x in grid[d]]} for d in ds]
        if gnomons:
            for row in rows:
                row["n_gnomon"] = str(n_step[row["d"]])
        query = {"command": "table", "v": v, "dmax": dmax, "nmax": nmax, "gnomons": gnomons}
        result = {"n": ns, "rows": rows, "d_gnomons": [str(x) for x in d_step] if gnomons else None}
        return json.dumps({"query": query, "result": result, "consistent": True}) + "\n"
    head = "d\\n" if fmt == "text" else "d/n"
    rows = [[head, *ns, *(["(n)"] if gnomons else [])]]
    rows += [[d, *grid[d], *([n_step[d]] if gnomons else [])] for d in ds]
    if gnomons:
        rows.append(["(d)", *d_step, ""])
    cells = [[str(x) for x in row] for row in rows]
    if fmt == "csv":
        return "".join(",".join(row) + "\n" for row in cells)
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    return "".join(" ".join(x.rjust(w) for x, w in zip(row, widths)).rstrip() + "\n"
                   for row in cells)


@pytest.mark.parametrize("v", range(2, 9))
def test_table_matches_a_per_cell_reference(run_cli, tmp_path, v):
    target = tmp_path / "table.out"
    for dmax in (1, 7, 40):
        for nmax in (1, 7, 40):
            for gnomons in (False, True):
                for fmt in ("text", "csv", "json"):
                    argv = ["table", "--v", str(v), "--dmax", str(dmax), "--nmax", str(nmax),
                            "--format", fmt, *(["--gnomons"] if gnomons else [])]
                    want = table_reference(v, dmax, nmax, gnomons, fmt)
                    assert run_cli(*argv) == (0, want, ""), argv
                    assert run_cli(*argv, "--output", str(target)) == (0, "", ""), argv
                    assert target.read_text() == want, argv


@pytest.mark.parametrize("flag,name", [("--dmax", "d"), ("--nmax", "n"), ("--v", "v")])
def test_table_rejects_corners_outside_the_domain_before_building(run_cli, flag, name):
    # the check runs before any list is built, so this neither allocates 2**32
    # slots nor evaluates a cell
    argv = {"--v": "3", "--dmax": "2", "--nmax": "2"} | {flag: str(2**32)}
    tracemalloc.start()
    try:
        code, out, err = run_cli("table", *[x for pair in argv.items() for x in pair])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be in [0, 2**32), got {2**32}\n"
    assert peak < 1 << 20


def test_table_builds_its_rows_with_no_per_cell_call(run_cli, closed_calls):
    code, out, _ = run_cli("table", "--v", "3", "--dmax", "10", "--nmax", "10",
                           "--gnomons", "--format", "csv")
    assert (code, out) == (0, (GOLDEN_DIR / "table_v3.csv").read_text())
    # the only scalar cells are the rank-step column, one per difference
    assert closed_calls == [(2, d, 10) for d in range(1, 11)]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_prints_cells_past_the_digit_limit(run_cli, fmt):
    # the last cells, near S(1100, 1, 1100), have about 660 digits; printed
    # under the 640-digit floor they must equal str() with the limit lifted
    argv = ("table", "--v", "1100", "--dmax", "1", "--nmax", "1100", "--format", fmt)
    with _digit_limit(0):
        want = run_cli(*argv)
    assert len(_full_str(hypersolid(1100, 1, 1100))) > 640
    with _digit_limit(640):
        assert run_cli(*argv) == want


# -------------------------------------------------------------- triangle


def test_triangle_text(run_cli):
    code, out, _ = run_cli("triangle", "--d", "1", "--rows", "4")
    assert code == 0
    assert out.splitlines() == [
        "0 | 0",
        "0 0 | 0",
        "1 1 0 | 2",
        "1 2 1 0 | 4",
        "1 3 3 1 0 | 8",
    ]


def test_triangle_pascal_at_difference_zero(run_cli):
    code, out, _ = run_cli("triangle", "--d", "0", "--rows", "6")
    assert code == 0
    assert out.splitlines()[6] == "0 1 4 6 4 1 0 | 16"


def test_triangle_diagonals(run_cli):
    code, out, _ = run_cli("triangle", "--d", "2", "--rows", "10", "--diagonals", "2")
    assert code == 0
    assert out.splitlines()[-1] == "diagonals m=2: 2 3 5 8 13 21 34 55 89"


def test_triangle_csv(run_cli):
    code, out, _ = run_cli("triangle", "--d", "1", "--rows", "3",
                           "--diagonals", "2", "--format", "csv")
    assert code == 0
    assert out == (
        "row,0,0,0\n"
        "row,1,0,0,0\n"
        "row,2,1,1,0,2\n"
        "row,3,1,2,1,0,4\n"
        "diagonal,2,1\n"
        "diagonal,3,2\n"
    )


@pytest.mark.parametrize("m", [2, 3, 4])
def test_triangle_diagonals_match_scalar_diagonal_sums(run_cli, m):
    code, out, _ = run_cli("triangle", "--d", "5", "--rows", "40", "--diagonals", str(m))
    assert code == 0
    expected = " ".join(str(diagonal_sum(5, m, k)) for k in range(2, 41))
    assert out.splitlines()[-1] == f"diagonals m={m}: {expected}"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("d", [0, 1, 7])
def test_triangle_diagonals_match_scalar_diagonal_sums_at_every_cut(d, fmt):
    # rows 0-2 and every M > rows cut each row to one cell; the 861 calls
    # share one parser, which main would build for each
    parser = build_parser("triangle")
    scalar = {m: [diagonal_sum(d, m, k) for k in range(2, 41)] for m in range(2, 43)}
    for rows in range(41):
        for m in range(2, rows + 3):
            args = parser.parse_args(["triangle", "--d", str(d), "--rows", str(rows),
                                      "--diagonals", str(m), "--format", fmt])
            out = cli._render(fmt, *args.func(args))
            expected = scalar[m][: max(rows - 1, 0)]
            if fmt == "text":
                line = f"diagonals m={m}: " + " ".join(map(str, expected))
                assert out.splitlines()[-1] == line, (rows, m)
            elif fmt == "csv":
                tail = [f"diagonal,{k},{x}" for k, x in enumerate(expected, 2)]
                assert out.splitlines()[rows + 1:] == tail, (rows, m)
            else:
                diagonals = {"m": m, "first_index": 2, "values": list(map(str, expected))}
                assert json.loads(out)["result"]["diagonal_sums"] == diagonals, (rows, m)


def test_triangle_rejects_bad_diagonal_slope(run_cli):
    code, _, err = run_cli("triangle", "--d", "1", "--rows", "5", "--diagonals", "1")
    assert code == 2
    assert "error" in err


def test_triangle_rejects_diagonal_slope_outside_the_coordinate_domain(run_cli):
    code, out, err = run_cli("triangle", "--d", "1", "--rows", "5", "--diagonals", str(2**32))
    assert (code, out) == (2, "")
    assert err.startswith("error: --diagonals must be in [2, 2**32)")
    code, out, _ = run_cli("triangle", "--d", "1", "--rows", "5", "--diagonals", str(2**32 - 1))
    assert code == 0
    assert out.splitlines()[-1] == f"diagonals m={2**32 - 1}: 1 1 1 1"


# ------------------------------------------------------------------ sums


def test_sums_whole_simplex(run_cli):
    code, out, _ = run_cli("sums", "--s", "6")
    assert code == 0
    assert out == (
        "formula:    sum=57 multitude=19\n"
        "enumerated: sum=57 multitude=19\n"
        "consistent: yes\n"
    )


def test_sums_fixed_rank(run_cli):
    code, out, _ = run_cli("sums", "--s", "10", "--fix", "v=2")
    assert code == 0
    assert "sum=162 multitude=8" in out


def test_sums_list_triples(run_cli):
    code, out, _ = run_cli("sums", "--s", "6", "--fix", "n=2", "--list")
    assert code == 0
    tail = out.splitlines()[3:]
    assert tail == [
        "S(0,4,2) = 4",
        "S(1,3,2) = 4",
        "S(2,2,2) = 4",
        "S(3,1,2) = 4",
        "S(4,0,2) = 4",
    ]


def test_sums_marker_corner_exits_one(run_cli):
    # difference pinned above s - 2: no closed form, reported inconsistent
    code, out, _ = run_cli("sums", "--s", "6", "--fix", "d=5")
    assert code == 1
    assert "formula:    none (no closed form at this corner)" in out
    assert "consistent: no" in out


def test_sums_csv(run_cli):
    code, out, _ = run_cli("sums", "--s", "6", "--format", "csv")
    assert code == 0
    assert out == (
        "field,value\n"
        "formula_sum,57\n"
        "formula_multitude,19\n"
        "enumerated_sum,57\n"
        "enumerated_multitude,19\n"
        "consistent,true\n"
    )


def test_sums_json_marker_has_null_formula(run_cli):
    code, out, _ = run_cli("sums", "--s", "4", "--fix", "d=4", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert doc["result"]["formula_sum"] is None
    assert doc["result"]["enumerated_sum"] == "0"


def test_sums_fix_validation(run_cli):
    assert run_cli("sums", "--s", "6", "--fix", "x=2")[0] == 2
    assert run_cli("sums", "--s", "6", "--fix", "v=two")[0] == 2
    assert run_cli("sums", "--s", "6", "--fix", "v=9")[0] == 2  # exceeds the total


# ---------------------------------------------------------------- verify


def test_verify_all_small_bounds(run_cli):
    code, out, _ = run_cli(
        "verify", "--vmax", "4", "--dmax", "4", "--nmax", "6",
        "--cmax", "10", "--smax", "12",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "ok"
    assert len(lines) == 6  # five suites + verdict
    for line in lines[:-1]:
        assert "0 failures" in line


def test_verify_single_suite_csv(run_cli):
    code, out, _ = run_cli(
        "verify", "--suite", "oracle", "--vmax", "2", "--dmax", "2", "--nmax", "2",
        "--format", "csv",
    )
    assert code == 0
    assert out == "suite,cases_run,failures\noracle,27,0\n"


_ORACLE_FAILURES = [("eval v=0 d=0 n=0", "0", "1"), ("eval v=0 d=0 n=1", "0", "1"),
                    ("eval v=1 d=0 n=0", "0", "1"), ("eval v=1 d=0 n=1", "1", "2")]


@pytest.mark.parametrize("fmt,want", [
    ("text", "oracle: 4 cases, 4 failures\n"
             + "".join(f"  FAIL {case}: expected {want}, got {got}\n"
                       for case, want, got in _ORACLE_FAILURES)
             + "FAILED\n"),
    ("csv", "suite,cases_run,failures\noracle,4,4\n"
            + "".join(f"failure,oracle,{case},{want},{got}\n"
                      for case, want, got in _ORACLE_FAILURES)),
    ("json", '{"query": {"command": "verify", "suite": "oracle", "jobs": 1, "bounds": '
             '{"vmax": 1, "dmax": 0, "nmax": 1, "cmax": 24, "smax": 40}}, '
             '"result": {"suites": [{"suite": "oracle", "cases_run": 4, "failures": ['
             + ", ".join(f'{{"case": "{case}", "expected": "{want}", "actual": "{got}"}}'
                         for case, want, got in _ORACLE_FAILURES)
             + ']}]}, "consistent": false}\n'),
])
def test_verify_failures_exit_one(run_cli, wrong_summation, fmt, want):
    argv = ["verify", "--suite", "oracle", "--vmax", "1", "--dmax", "0", "--nmax", "1",
            "--format", fmt]
    assert run_cli(*argv) == (1, want, "")


def test_verify_jobs_do_not_change_output(run_cli):
    argv = ["verify", "--suite", "all", "--vmax", "3", "--dmax", "3", "--nmax", "4",
            "--cmax", "8", "--smax", "8", "--format", "json"]
    _, solo, _ = run_cli(*argv, "--jobs", "1")
    _, fanned, _ = run_cli(*argv, "--jobs", "4")
    # the job count is part of the query echo; the results must match exactly
    assert json.loads(solo)["result"] == json.loads(fanned)["result"]
    assert json.loads(solo)["consistent"] is True


def test_verify_rejects_unknown_suite_and_bad_jobs(run_cli):
    assert run_cli("verify", "--suite", "nonsense")[0] == 2
    assert run_cli("verify", "--jobs", "0")[0] == 2


@pytest.mark.parametrize("bound", [["--vmax", "-1", "--smax", "-3"], ["--cmax", str(2**32)]])
def test_verify_rejects_bounds_outside_the_domain(run_cli, bound):
    code, out, err = run_cli("verify", *bound)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "2**32" in err


def test_verify_defaults_are_the_grid_bounds_defaults():
    args = build_parser().parse_args(["verify"])
    bounds = GridBounds(v_max=args.vmax, d_max=args.dmax, n_max=args.nmax,
                        c_max=args.cmax, s_max=args.smax)
    assert bounds == GridBounds()
    assert args.jobs == 1


def _python(*argv: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout's hypersolids."""
    src = str(Path(hypersolids.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60, check=True)


def _imported_modules(*argv: str) -> set[str]:
    """Modules a fresh interpreter imports for ``python *argv``, read from -X importtime."""
    done = _python("-X", "importtime", *argv)
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:")}


_LAYERS = {f"hypersolids.{name}" for name in ("search", "sums", "triangle", "verify")}


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["eval", "--v", "3", "--d", "2", "--n", "5"],
         {*_LAYERS, "hypersolids._primes", "dataclasses", "decimal", "json"}),
        (["triangle", "--d", "1", "--rows", "5"],
         {*_LAYERS - {"hypersolids.triangle"}, "dataclasses", "decimal", "json"}),
        (["sums", "--s", "6", "--fix", "v=2"],
         {*_LAYERS - {"hypersolids.sums"}, "dataclasses", "decimal", "json"}),
        (["verify", "--suite", "oracle", "--vmax", "2", "--dmax", "2", "--nmax", "2"],
         {"hypersolids.search", "concurrent.futures", "dataclasses"}),
        (["table", "--v", "3", "--dmax", "4", "--nmax", "5", "--gnomons"],
         {*_LAYERS, "hypersolids._primes", "dataclasses", "decimal", "json"}),
        (["represent", "--value", "120"],
         {*_LAYERS - {"hypersolids.search"}, "dataclasses", "decimal", "json"}),
    ],
    ids=["eval", "triangle", "sums", "verify", "table", "represent"],
)
def test_a_command_imports_only_what_it_uses(argv, absent):
    # modules bare start-up already loads (site hooks differ between hosts)
    # are not the CLI's doing
    loaded = _imported_modules("-m", "hypersolids.cli", *argv) - _imported_modules("-c", "pass")
    assert "hypersolids.kernel" in loaded
    assert loaded & absent == set()
    # of the six command modules, only the one that runs is compiled
    commands = {name for name in loaded if name.startswith("hypersolids.cli._")}
    assert commands == {f"hypersolids.cli._{argv[0]}"}


_SAMPLE_ARGV = [
    ["eval", "--v", "3", "--d", "2", "--n", "5", "--method", "both", "--format", "json"],
    ["table", "--v", "3", "--dmax", "4", "--gnomons", "--format", "csv"],
    ["triangle", "--d", "1", "--rows", "5", "--diagonals", "3"],
    ["sums", "--s", "6", "--fix", "v=2", "--list"],
    ["verify", "--suite", "oracle", "--vmax", "2", "--jobs", "1", "--output", "out.csv"],
    ["represent", "--value", "120", "--vmax", "4", "--nmax", "20", "--dmin", "1"],
]


def _help_text(parser, *argv: str) -> str:
    """What ``--help`` prints after ``argv``: that parser's ``format_help()``."""
    with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as exit_:
        parser.parse_args([*argv, "--help"])
    assert exit_.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", _SAMPLE_ARGV, ids=[argv[0] for argv in _SAMPLE_ARGV])
def test_the_parser_of_one_command_matches_the_whole_parser(argv):
    command, whole = argv[0], build_parser()
    lazy = build_parser(command)
    assert [sample[0] for sample in _SAMPLE_ARGV] == list(cli.COMMANDS)  # one sample each
    assert _help_text(lazy) == _help_text(whole)
    assert _help_text(lazy, command) == _help_text(whole, command)
    parsed, want = vars(lazy.parse_args(argv)), vars(whole.parse_args(argv))
    assert parsed.pop("func") is want.pop("func")
    assert parsed == want


@pytest.mark.parametrize("argv", [
    ["eval", "--bogus"],
    ["--", "eval", "--v", "3", "--d", "2", "--n", "5"],
    ["eval", "--v", "3"],
    ["nonsense"],
    [],
    ["--format", "csv", "table", "--v", "3"],
], ids=["bogus-option", "double-dash", "missing-option", "unknown-command", "empty",
        "option-before-command"])
def test_main_answers_as_the_whole_parser_does(run_cli, monkeypatch, argv):
    lazy = run_cli(*argv)
    monkeypatch.setattr(cli, "build_parser", lambda command=None, full=build_parser: full())
    assert lazy == run_cli(*argv)


def test_an_end_of_options_marker_before_the_command_is_dropped(run_cli):
    assert run_cli("--", "eval", "--v", "3", "--d", "2", "--n", "5") == (0, "55\n", "")
    # after the command the marker is still an argument the command refuses
    code, out, err = run_cli("eval", "--v", "3", "--d", "2", "--n", "5", "--")
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --\n")


def test_the_package_imports_its_names_on_first_use():
    probe = ("import sys, hypersolids; print(set(hypersolids.__all__) <= set(dir(hypersolids)),"
             " [m for m in sys.modules if m.startswith('hypersolids.')])")
    assert _python("-c", probe).stdout == "True []\n"
    for name in hypersolids.__all__:
        value = getattr(hypersolids, name)
        if name == "__version__":
            continue
        home = getattr(value, "__module__", None)
        if home is None:  # constants: the kernel's, apart from the lemma catalogue
            home = "hypersolids.sums" if name == "LEMMAS" else "hypersolids.kernel"
        assert value is getattr(sys.modules[home], name), name
    namespace: dict = {}
    exec("from hypersolids import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hypersolids.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        hypersolids.no_such_name


# -------------------------------------------------------------- represent


def test_represent_known_hits(run_cli):
    code, out, _ = run_cli("represent", "--value", "36")
    assert code == 0
    assert "S(2,1,8) = 36" in out
    assert "S(2,2,6) = 36" in out


def test_represent_criterion_box(run_cli):
    code, out, _ = run_cli(
        "represent", "--value", "120", "--vmax", "4", "--dmax", "45", "--nmax", "20",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "v,d,n,value\n"
        "2,1,15,120\n"
        "2,4,8,120\n"
        "2,39,3,120\n"
        "3,0,15,120\n"
        "3,1,8,120\n"
        "3,11,4,120\n"
        "4,0,8,120\n"
        "4,22,3,120\n"
    )


def value_by_math_comb(v: int, d: int, n: int) -> int:
    """S(v, d, n) from math.comb: C(v+n-2, v-1) + d * C(v+n-2, v), and 0 at rank 0."""
    if n == 0 or v + n < 2:
        return 0
    m = v + n - 2
    return (math.comb(m, v - 1) if v else 0) + d * math.comb(m, v)


@pytest.mark.parametrize("value, vmax, dmax, nmax, count", [
    (1, 4, 2, 4, 18), (3, 4, 5, 6, 10), (7, 9, 9, 6, 14),
])
def test_represent_low_dimension_goldens(run_cli, value, vmax, dmax, nmax, count):
    # the box-sized answers (dimension 0, rank 1, and d = 0 of dimension 1)
    # beside the rank checks; the goldens hold both formats byte for byte
    box = ("--value", str(value), "--vmin", "0", "--vmax", str(vmax), "--dmax", str(dmax),
           "--nmin", "0", "--nmax", str(nmax))
    outputs = {}
    for fmt in ("csv", "json"):
        code, out, err = run_cli("represent", *box, "--format", fmt)
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN_DIR / f"represent_value{value}.{fmt}").read_bytes()
        outputs[fmt] = out
    rows = [tuple(map(int, row.split(","))) for row in outputs["csv"].splitlines()[1:]]
    assert len(rows) == count
    assert all(hit == value == value_by_math_comb(v, d, n) for v, d, n, hit in rows)
    # and no cell of the box is missing
    assert [row[:3] for row in rows] == [
        (v, d, n)
        for v in range(vmax + 1) for d in range(dmax + 1) for n in range(nmax + 1)
        if value_by_math_comb(v, d, n) == value
    ]


def test_represent_default_difference_cap_stays_in_the_coordinate_domain(run_cli):
    # with --dmin and no --dmax the difference range is clipped below 2**32
    code, out, err = run_cli("represent", "--value", str(10**10), "--dmin", "1", "--vmax", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "S(2,2,100000) = 10000000000",
        "S(2,2020202,100) = 10000000000",
        "S(2,222222222,10) = 10000000000",
        "S(2,1666666666,4) = 10000000000",
        "S(3,999999999,4) = 10000000000",
    ]


@pytest.mark.parametrize("argv, message", [
    (("--value", "2", "--dmin", "5"),
     "error: --dmin 5 is above the default --dmax, min(VALUE, 2**32 - 1) = 2\n"),
    (("--value", "5", "--dmin", "5"), None),
    (("--value", "2", "--dmin", "5", "--dmax", "4"), "error: bad difference range: (5, 4)\n"),
    (("--value", "0", "--dmin", "5"), "error: target must be >= 1, got 0\n"),
    (("--value", "2", "--dmin", str(2**32)),
     "error: d_range low must be in [0, 2**32), got 4294967296\n"),
])
def test_represent_names_the_default_difference_cap(run_cli, argv, message):
    # the default --dmax is min(VALUE, 2**32 - 1): a --dmin above it is
    # refused with the default named, since the user never typed it
    code, out, err = run_cli("represent", *argv)
    if message is None:  # --dmin at the default --dmax is a one-difference box
        assert (code, out, err) == (0, "no representations in the box\n", "")
    else:
        assert (code, out, err) == (2, "", message)


def test_represent_a_large_target(run_cli):
    # the hits the rank walk found in 0.8 s, over the ~1.4e6 ranks it needed
    # at v = 2; the divisor search lists the divisors of v! * 10**12 instead
    code, out, err = run_cli("represent", "--value", str(10**12), "--format", "csv")
    assert (code, err) == (0, "")
    rows = [tuple(map(int, row.split(","))) for row in out.splitlines()[1:]]
    assert [row[:3] for row in rows] == [
        (2, 2, 1000000), (2, 20002, 10000), (2, 2002002, 1000), (2, 202020202, 100),
        (2, 496031746, 64), (2, 1282051282, 40),
    ]
    for v, d, n, value in rows:
        assert value == 10**12 == math.comb(v + n - 2, v - 1) + d * math.comb(v + n - 2, v)


def test_represent_empty_box(run_cli):
    code, out, _ = run_cli("represent", "--value", "2")
    assert code == 0
    assert out == "no representations in the box\n"


def test_represent_refuses_an_empty_rank_range(run_cli):
    # like an empty dimension or difference range: exit 2 with a message
    code, out, err = run_cli("represent", "--value", "10", "--nmin", "5", "--nmax", "2")
    assert (code, out, err) == (2, "", "error: empty rank range: (5, 2)\n")
    code, out, err = run_cli("represent", "--value", "10", "--vmin", "3", "--vmax", "2")
    assert (code, out, err) == (2, "", "error: empty dimension range: (3, 2)\n")


def test_represent_json(run_cli):
    code, out, _ = run_cli("represent", "--value", "36", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    hits = doc["result"]["hits"]
    assert {"v": 2, "d": 1, "n": 8, "value": "36"} in hits
    assert doc["consistent"] is True


def test_represent_usage_errors(run_cli):
    assert run_cli("represent", "--value", "0")[0] == 2
    assert run_cli("represent", "--value", "10", "--vmin", "1")[0] == 2  # needs --nmax


def test_represent_a_target_past_the_digit_limit(run_cli):
    # 10**4400 has 4401 digits, past the 4300 that int() reads by default
    target = "1" + "0" * 4400
    with _digit_limit(4300):
        code, out, err = run_cli("represent", "--value", target)
        assert (code, out, err) == (0, "no representations in the box\n", "")
        code, out, err = run_cli("represent", "--value", f" +{target} ", "--format", "json")
        assert sys.get_int_max_str_digits() == 4300  # no process-wide change
    assert (code, err) == (0, "")
    assert json.loads(out)["query"]["value"] == target


_LONG = "9" * 4400


@pytest.mark.parametrize(
    "text",
    ["120", " 120\t", "+120", "-120", "0_120", "1_2_0", "\u0661\u0662\u0660", "007",
     _LONG, f"  -{_LONG}\n", "1_" + _LONG, "\u0661" * 4400,
     "", " ", "+", "1__20", "_120", "120_", "1e2", "12.0", "0x78", "NaN", "- 120", "1 2",
     _LONG + "_", "1__" + _LONG, _LONG + ".0", _LONG + "e0"],
    ids=lambda text: repr(text) if len(text) < 20 else f"{len(text)}-chars",
)
def test_integer_options_take_exactly_what_int_takes(text):
    with _digit_limit(0):
        try:
            want = int(text)
        except ValueError:
            want = None
    with _digit_limit(4300):
        try:
            got = _integer(text)
        except ValueError:
            got = None
    assert got == want


@pytest.mark.parametrize("text", ["abc", "1__20", "1e2", "1__" + _LONG],
                         ids=["abc", "double-underscore", "exponent", "long"])
def test_a_non_integer_option_keeps_the_argparse_message(run_cli, text):
    with _digit_limit(4300):
        code, out, err = run_cli("represent", "--value", text)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --value: invalid int value: {text!r}\n")


# ------------------------------------------------- cross-cutting contract


def test_output_flag_writes_file_and_keeps_stdout_quiet(run_cli, tmp_path):
    path = tmp_path / "out.csv"
    code, out, err = run_cli(
        "table", "--v", "2", "--dmax", "2", "--nmax", "3",
        "--format", "csv", "--output", str(path),
    )
    assert (code, out, err) == (0, "", "")
    assert path.read_text() == "d/n,1,2,3\n1,1,3,6\n2,1,4,9\n"


def test_output_into_missing_directory_is_usage_error(run_cli, tmp_path):
    path = tmp_path / "missing" / "out.csv"
    code, out, err = run_cli("eval", "--v", "2", "--d", "1", "--n", "3", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err
    assert list(tmp_path.iterdir()) == []


def test_output_replaces_an_existing_file_whole(run_cli, tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("a much longer old content\n" * 100)
    code, out, err = run_cli("eval", "--v", "3", "--d", "2", "--n", "5", "--output", str(path))
    assert (code, out, err) == (0, "", "")
    assert path.read_text() == "55\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_output_into_a_pipe_writes_through_it(run_cli, tmp_path):
    # a pipe or device (say /dev/stdout) is written into, never replaced by a file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    code, out, err = run_cli("eval", "--v", "3", "--d", "2", "--n", "5", "--output", str(pipe))
    reader.join(timeout=10)
    assert (code, out, err, got) == (0, "", "", ["55\n"])
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


def test_failed_output_keeps_the_old_file_and_leaves_no_temporary(run_cli, tmp_path,
                                                                   monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old\n")

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src)

    monkeypatch.setattr(os, "replace", refuse)
    code, out, err = run_cli("eval", "--v", "3", "--d", "2", "--n", "5", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(path) in err
    assert path.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_csv_and_json_are_byte_deterministic(run_cli):
    for argv in (
        ["sums", "--s", "9", "--fix", "n=4", "--list", "--format", "csv"],
        ["triangle", "--d", "3", "--rows", "8", "--diagonals", "3", "--format", "json"],
        ["represent", "--value", "225", "--format", "json"],
        ["verify", "--suite", "lemmas", "--format", "csv"],
    ):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] == 0


def test_missing_subcommand_is_usage_error(run_cli):
    code, _, err = run_cli()
    assert code == 2


def test_json_documents_share_the_envelope(run_cli):
    for argv in (
        ["eval", "--v", "3", "--d", "2", "--n", "4", "--format", "json"],
        ["table", "--v", "2", "--dmax", "2", "--nmax", "2", "--format", "json"],
        ["triangle", "--d", "0", "--rows", "3", "--format", "json"],
        ["sums", "--s", "5", "--format", "json"],
        ["verify", "--suite", "oracle", "--vmax", "2", "--dmax", "2", "--nmax", "2",
         "--format", "json"],
        ["represent", "--value", "6", "--format", "json"],
    ):
        code, out, _ = run_cli(*argv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"query", "result", "consistent"}
