"""Command-line interface tests.

Exit-code contract: 0 = success/verified, 1 = consistency failure,
2 = usage error.  CSV and JSON output must be byte-deterministic; the
``table`` goldens under tests/goldens/ were transcribed from independently
checked reference values and are compared byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypersolids
from hypersolids import GridBounds, diagonal_sum
from hypersolids.cli import build_parser

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


def test_importing_the_cli_loads_no_executor():
    src = str(Path(hypersolids.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = "import sys, hypersolids.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "False\n"


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


def test_represent_empty_box(run_cli):
    code, out, _ = run_cli("represent", "--value", "2")
    assert code == 0
    assert out == "no representations in the box\n"


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
    assert err.startswith("error: ")
    assert not path.exists()


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
