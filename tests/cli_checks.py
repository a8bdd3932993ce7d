"""The CLI's checks past the unit tests: one table of rows, and its runner.

A row runs one command line and judges its exit code, its time and its
stdout: by exact text, a golden file or a named predicate.  The one library
check (lemmas at m_max 120, which has no CLI flag) is a callable.
``python tests/cli_checks.py MODE`` runs every row through ``cli.main`` in
this interpreter (``inprocess``), the installed console script (``script``)
or ``python -m hypersolids.cli`` (``module``), prints the command line of
each failing row, and fails if this interpreter loaded a module outside the
stdlib and the package.  ``tests/test_cli_checks.py`` runs each in-process.

In-process, ``SIGALRM`` stops a row at its timeout, so a hang fails only
its row; where there is no ``SIGALRM``, the time is checked after the call.
The handler runs between bytecodes, so a single long C call, such as one
``math.comb``, is stopped only when it returns."""

import sys
STARTED = {name.partition(".")[0] for name in sys.modules}  # before the imports below
import argparse, contextlib, io, json, re, shlex, signal, subprocess, tempfile, time  # noqa: E401, E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

from hypersolids import GridBounds, cli, run_suite  # noqa: E402


class Row(NamedTuple):
    argv: str | Callable[[], int]  # split at spaces; a callable prints, returns its exit code
    judge: str | Path | Callable[[str], bool] | None  # exact stdout, a golden, a predicate, any
    code: int = 0
    timeout: float = 60  # seconds; a subprocess is killed at it


def csv(*lines):
    return "".join(line + "\n" for line in lines)


def consistent(out):
    return '"consistent": true' in out


def S(v, d, n):
    return comb(v + n - 2, v - 1) + d * comb(v + n - 2, v)


def prints_S(v, d, n):
    """stdout is S(v, d, n) by math.comb; the call meets the digit limit, the judge lifts it."""
    def judge(out):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return limit > 0 and out == f"{S(v, d, n)}\n"
        finally:
            sys.set_int_max_str_digits(limit)
    return judge


def hits_of(target, count=None):
    """Every CSV hit has value target and re-evaluates to it: v + d at rank 2,
    S by math.comb otherwise; there are count hits, or at least one."""
    def judge(out):
        rows = [tuple(map(int, row.split(","))) for row in out.splitlines()[1:]]
        return (len(rows) == count if count is not None else rows != []) and all(
            value == target == (v + d if n == 2 else S(v, d, n)) for v, d, n, value in rows)
    return judge


def listed(cells, s, count, total):
    """Listed (v, d, n, value) cells of total s: count of them, strictly
    lexicographic, each nonzero and S(v, d, n) by math.comb (d itself at
    v = 0, where only ranks n >= 2 are nonzero), adding up to total."""
    return (len(cells) == count and cells == sorted(set(cells))
            and sum(value for *_, value in cells) == total
            and all(v + d + n == s and value != 0 and value == (d if v == 0 else S(v, d, n))
                    for v, d, n, value in cells))


def csv_listing(s, count, total):
    """``sums --list --format csv``: the verdict, then the triple rows, each
    judged by :func:`listed` against the closed form."""
    def judge(out):
        lines = out.splitlines()
        cells = [tuple(map(int, line.split(",")[1:])) for line in lines if line.startswith("triple,")]
        return "consistent,true" in lines and listed(cells, s, count, total)
    return judge


def json_listing(s, count, total):
    """``sums --list --format json``: consistent, and its triples judged by
    :func:`listed` against the closed form."""
    def judge(out):
        doc = json.loads(out)
        cells = [(t["v"], t["d"], t["n"], int(t["value"])) for t in doc["result"]["triples"]]
        return doc["consistent"] is True and listed(cells, s, count, total)
    return judge


def triangle_d3_m3(out):
    """``triangle --d 3 --rows 300 --diagonals 3`` CSV: row c's cells add up
    to its total, (d + 1)·2^(c − 2) or 0 below c = 2, and diagonal k = 2..300
    is the sum of S(v, 3, k − 3v) over v, which is 3 at v = 0 and 0 at rank 0."""
    lines = [line.split(",") for line in out.splitlines()]
    totals = [0, 0, *(4 << j for j in range(299))]
    rows = [line[:2] + [sum(map(int, line[2:-1])), int(line[-1])] for line in lines[:301]]
    diagonals = [3 + sum(S(v, 3, k - 3 * v) for v in range(1, (k - 1) // 3 + 1))
                 for k in range(2, 301)]
    return rows == [["row", str(c), t, t] for c, t in enumerate(totals)] and lines[301:] == [
        ["diagonal", str(k), str(x)] for k, x in enumerate(diagonals, 2)]


def triangle_d3_m3_text(out):
    """The same call in text: a line per row, its cells, " | " and its total,
    then the diagonals after "diagonals m=3: ", judged as its CSV twin."""
    *lines, last = out.splitlines()
    head, _, values = last.partition(": ")
    rows = [f"row,{c},{line.replace(' | ', ',').replace(' ', ',')}"
            for c, line in enumerate(lines)]
    diagonals = [f"diagonal,{k},{x}" for k, x in enumerate(values.split(" "), 2)]
    return head == "diagonals m=3" and triangle_d3_m3(csv(*rows, *diagonals))


def lists_every_command(out):
    return all(re.search(rf"^ +{c} +[a-z]", out, re.M)
               for c in ("eval", "table", "triangle", "sums", "verify", "represent"))


def lemmas_at_m_max_120():
    outcome = run_suite("lemmas", GridBounds(m_max=120))
    print(f"lemmas,{outcome.cases_run},{len(outcome.failures)}")
    return 0


def sums(argv, total, multitude, timeout=10):
    want = {f"enumerated_sum,{total}", f"enumerated_multitude,{multitude}"}
    return Row(f"sums --s {argv} --format csv", lambda out: want <= set(out.splitlines()),
               timeout=timeout)


def verify(argv, *counts, timeout=60):
    return Row(f"verify --suite {argv} --format csv", csv("suite,cases_run,failures", *counts),
               timeout=timeout)


ROWS = [
    Row("eval --v 3 --d 2 --n 5", "55\n"),
    Row("eval --v 3000 --d 7 --n 3000", prints_S(3000, 7, 3000)),
    Row("eval --v 5 --d 3 --n 7 --method both --format json", consistent),
    Row("table --v 3 --dmax 10 --nmax 10 --gnomons --format csv",
        Path(__file__).resolve().parent / "goldens" / "table_v3.csv"),
    Row("represent --value 120 --vmax 4 --dmax 45 --nmax 20 --format csv",
        csv("v,d,n,value", "2,1,15,120", "2,4,8,120", "2,39,3,120", "3,0,15,120", "3,1,8,120",
            "3,11,4,120", "4,0,8,120", "4,22,3,120")),
    Row("sums --s 40 --format json", consistent),
    sums("300", 2**300 - 301, 45148, timeout=60),
    sums("300 --fix d=7", 8 * 2**291, 293),
    sums("300 --fix d=0", 2**298, 299),
    sums("300 --fix v=150", comb(299, 150) + comb(299, 152), 150),
    sums("300 --fix n=40", 2 * comb(299, 40), 261),
    *(row for s in (65, 66, 129, 130) for row in (
        sums(f"{s} --fix v=20", comb(s - 1, 20) + comb(s - 1, 22), s - 20),
        sums(f"{s} --fix n=20", 2 * comb(s - 1, 20), s - 19))),
    # the table's first and last columns on both sides of its bound: s = 129
    # reads the running sums, s = 130 the math.comb maps
    *(sums(f"{s} --fix v={v}", comb(s - 1, v) + comb(s - 1, v + 2), s - v)
      for s in (129, 130) for v in (1, 128)),
    *(sums(f"{s} --fix n={n}", 2 * comb(s - 1, n), s - n + 1)
      for s in (129, 130) for n in (2, 128)),
    *(sums(f"300 --fix d={d}", (d + 1) * 2**(300 - d - 2), 300 - d) for d in (171, 170, 250)),
    *(sums(f"{s}", 2**s - (s + 1), comb(s + 1, 2) - 2) for s in (65, 66, 129, 130)),
    # a pinned difference's row c = s - d at the table's bound: d = 0 on both
    # sides of it, and d = 1 with c = 129 from the table and c = 130 by comb
    *(sums(f"{s} --fix d={d}", (d + 1) * 2**(s - d - 2), s - 1 if d == 0 else s - d)
      for s, d in ((129, 0), (130, 0), (130, 1), (131, 1))),
    Row("verify --suite oracle", None),
    verify("oracle --vmax 16 --dmax 20 --nmax 300", "oracle,107457,0", timeout=5),
    verify("corollaries --cmax 48 --dmax 20", "corollaries,31738,0", timeout=20),
    verify("corollaries --vmax 48 --nmax 24", "corollaries,17892,0", timeout=10),
    Row(lemmas_at_m_max_120, "lemmas,37389,0\n", timeout=20),
    verify("gnomons --vmax 12 --dmax 10 --nmax 18", "gnomons,7040,0"),
    verify("theorems --smax 80", "theorems,10191,0", timeout=20),
    verify("all --vmax 12 --dmax 10 --nmax 18 --cmax 34 --smax 60", "oracle,2717,0",
           "gnomons,7040,0", "corollaries,11300,0", "theorems,5841,0", "lemmas,2604,0",
           timeout=20),
    Row("eval --v 10000 --d 1 --n 10000", prints_S(10000, 1, 10000)),
    Row("represent --value 10 --vmax 4294967295 --format csv",
        csv("v,d,n,value", "2,0,10,10", "2,1,4,10", "3,0,4,10", "3,1,3,10", "4,0,3,10"),
        timeout=20),
    Row("represent --value 1000000000000 --format csv", hits_of(10**12), timeout=10),
    Row("represent --value 1000 --vmin 1 --vmax 1 --dmin 1 --dmax 1 --nmax 4294967295 "
        "--format csv", csv("v,d,n,value", "1,1,1000,1000"), timeout=10),
    Row("represent --value 1125907426181142 --vmin 1 --vmax 1 --nmax 4294967295 --format csv",
        csv("v,d,n,value", "1,1048583,1073741828,1125907426181142",
            "1,1073741827,1048584,1125907426181142"), timeout=10),
    Row("represent --value 100000 --vmax 4294967295 --nmin 2 --format csv",
        hits_of(100000, 100008), timeout=10),
    Row("represent --value 8589934590 --vmin 0 --vmax 4294967295 --dmin 4294967295 "
        "--dmax 4294967295 --nmin 2 --nmax 4294967295 --format csv",
        csv("v,d,n,value", "4294967295,4294967295,2,8589934590"), timeout=10),
    Row(f"represent --value {2**2203 - 1} --format csv", hits_of(2**2203 - 1, 0), timeout=10),
    Row("sums --s 12 --fix d=11", None, code=1),
    Row("--help", lists_every_command),
    Row("verify --help", None),
    Row("triangle --d 2 --rows 12 --diagonals 4", None),
    Row("triangle --d 3 --rows 300 --diagonals 3 --format csv", triangle_d3_m3, timeout=10),
    Row("triangle --d 3 --rows 300 --diagonals 3", triangle_d3_m3_text, timeout=10),
    Row("sums --s 12 --list", None),
    Row("sums --s 300 --list --format csv", csv_listing(300, 45148, 2**300 - 301), timeout=10),
    Row("sums --s 300 --fix v=150 --list --format json",
        json_listing(300, 150, comb(299, 150) + comb(299, 152)), timeout=10),
    Row("eval --v 3 --d 2 --n 5 --output /dev/full", "", code=2),
    Row("verify --suite all --format json", None),
    Row("represent --value 1" + "0" * 4400, None),
    Row("represent --value 120 --format csv --output {tmp}/hits.csv", ""),
]
LAUNCH = {"script": ["hypersolids"], "module": [sys.executable, "-m", "hypersolids.cli"]}


class RowTimeout(AssertionError):
    """An in-process row ran past its timeout.  It fails the row wherever it
    is raised, and ``cli.main``, which reports a ValueError or an OSError as
    a usage error, does not catch it."""


def expire(signum, frame):
    raise RowTimeout


def run(row, mode="inprocess"):
    """Run one row as ``mode`` says; its AssertionError shows the command line."""
    lone = callable(row.argv)  # a library call runs in this interpreter
    with tempfile.TemporaryDirectory() as tmp:
        argv = [] if lone else row.argv.replace("{tmp}", tmp).split(" ")
        command = [row.argv.__name__] if lone else LAUNCH.get(mode, ["hypersolids"]) + argv
        start = time.perf_counter()
        if lone or mode == "inprocess":
            out, err = io.StringIO(), io.StringIO()
            alarm = hasattr(signal, "SIGALRM")  # if not, the timeout is checked below
            if alarm:
                previous = signal.signal(signal.SIGALRM, expire)
                signal.setitimer(signal.ITIMER_REAL, row.timeout)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = row.argv() if lone else cli.main(argv)
            except SystemExit as exc:  # argparse's --help and usage errors
                code = exc.code
            except RowTimeout:
                raise RowTimeout(f"{shlex.join(command)}\n  stopped at {row.timeout} s") from None
            finally:
                if alarm:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    signal.signal(signal.SIGALRM, previous)
            out, err = out.getvalue(), err.getvalue()
        else:
            try:
                done = subprocess.run(command, capture_output=True, timeout=row.timeout)
            except subprocess.TimeoutExpired:
                raise AssertionError(f"{shlex.join(command)}\n  killed at {row.timeout} s")
            code, out, err = done.returncode, done.stdout.decode(), done.stderr.decode()
        elapsed = time.perf_counter() - start
    want = row.judge.read_bytes().decode() if isinstance(row.judge, Path) else row.judge
    try:  # a predicate that cannot parse stdout fails its row
        judged = want is None or (want(out) if callable(want) else out == want)
    except ValueError:
        judged = False
    if code != row.code or elapsed > row.timeout or not judged:
        raise AssertionError(f"{shlex.join(command)}\n  exit {code} (want {row.code}) in "
                             f"{elapsed:.2f} s (limit {row.timeout}), judge "
                             f"{'passed' if judged else 'FAILED'}: {out[:200]!r} {err[-200:]!r}")


def main(mode):
    failures = 0
    for row in ROWS:
        try:
            run(row, mode)
        except AssertionError as exc:
            failures += 1
            print(f"FAILED: {exc}", file=sys.stderr)
    loaded = {name.partition(".")[0] for name in sys.modules} - STARTED
    foreign = sorted(loaded - set(sys.stdlib_module_names) - {"hypersolids"})
    print(f"{len(ROWS) - failures} of {len(ROWS)} rows passed, launched {mode}; modules loaded "
          f"here outside the stdlib and the package: {foreign or 'none'}")
    return 1 if failures or foreign else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run every row of the CLI check table.")
    parser.add_argument("mode", choices=("inprocess", "script", "module"))
    sys.exit(main(parser.parse_args().mode))
