"""The four seeded workloads: op lists, warm-ups and output checks.

Each op is one call a user of the library or CLI would make.  Its expected
output comes from :mod:`oracle` (or, for CLI calls, from the in-process
``cli.main`` result) and is computed once, the first time it is checked.
Sizes are fixed per op kind; the seed picks coordinates, targets and order,
so every seed costs about the same.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SUITES = ("oracle", "gnomons", "corollaries", "theorems", "lemmas")


@dataclass
class Op:
    """One call.  Ops marked ``in_order`` keep their relative order in every
    pass; the runner shuffles the others anew each pass (see ``arrange``)."""

    kind: str
    call: Callable[[], object]
    expect: Callable[[], object]
    check: Callable[[object, object], bool] = lambda out, expected: out == expected
    in_order: bool = False
    _expected: list = field(default_factory=list)

    def verify(self, out: object) -> bool:
        if not self._expected:
            self._expected.append(self.expect())
        return self.check(out, self._expected[0])


def arrange(ops: list[Op], rng: random.Random) -> list[int]:
    """One pass's order: the free ops shuffled, riffled with the in-order ones.

    A fresh order each pass means no op always follows the same neighbour,
    so an op's best time over the passes is not set by what ran before it.
    """
    free = [i for i, op in enumerate(ops) if not op.in_order]
    chained = iter([i for i, op in enumerate(ops) if op.in_order])
    rng.shuffle(free)
    slots = [True] * len(free) + [False] * (len(ops) - len(free))
    rng.shuffle(slots)
    free_iter = iter(free)
    return [next(free_iter) if slot else next(chained) for slot in slots]


# ---------------------------------------------------------- point-queries


def _sums_ops(lib, rng: random.Random) -> list[Op]:
    # 72 distinct totals, more than the 64 simplexes ``_triples`` caches.
    # Replaying the list touches all 72 between two uses of one total, so a
    # first touch misses that cache on every pass; each of the 16 repeats
    # follows its first touch within a few calls.
    totals = rng.sample(range(20, 110), 72)
    order = list(totals)
    for s in rng.sample(totals, 16):
        at = order.index(s) + rng.randint(1, 6)
        order.insert(min(at, len(order)), s)
    kinds = [(None, "v", "d", "n")[i % 4] for i in range(len(order))]
    rng.shuffle(kinds)
    ops = []
    for s, pinned in zip(order, kinds):
        if pinned is None:
            call, k = (lambda s=s: lib.sum_fixed_s(s)), 0
        elif pinned == "v":
            k = rng.randint(0, s)
            call = lambda s=s, k=k: lib.sum_fixed_sv(s, k)
        elif pinned == "d":
            k = rng.randint(0, s - 2)  # d in {s-1, s} has no closed form
            call = lambda s=s, k=k: lib.sum_fixed_sd(s, k)
        else:
            k = rng.randint(0, s - 1)  # n = s has no closed form
            call = lambda s=s, k=k: lib.sum_fixed_sn(s, k)
        ops.append(Op(f"sums.{pinned or 's'}", call,
                      lambda s=s, p=pinned, k=k: oracle.slice_totals(s, p, k),
                      _sum_report_ok, in_order=True))
    return ops


def _sum_report_ok(report, expected) -> bool:
    total, count = expected
    return (report.consistent and report.enumerated_sum == total == report.formula_sum
            and report.enumerated_multitude == count == report.formula_multitude)


def _planted(rng: random.Random, log_target: float) -> tuple[int, int, int, int]:
    """(v, d, n, S(v, d, n)) with the value near 10**log_target."""
    v, n = rng.choice((2, 3)), rng.randint(3, 30)
    base, slope = oracle.value(v, 0, n), oracle.value(v, 1, n) - oracle.value(v, 0, n)
    d = max(round((10**log_target - base) / slope), 0)  # S is affine in d
    return v, d, n, oracle.value(v, d, n)


def _representation_op(lib, rng: random.Random, log_target: float) -> Op:
    v, d, n, target = _planted(rng, log_target)

    def check(hits, _expected) -> bool:
        triples = [tuple(hit.triple) for hit in hits]
        return ((v, d, n) in triples and triples == sorted(set(triples))
                and all(hit.value == target == oracle.value(*hit.triple) for hit in hits)
                and all(2 <= t[0] <= 8 and 0 <= t[1] <= target and t[2] >= 3 for t in triples))

    return Op("search.representations", lambda: lib.representations(target),
              lambda: None, check)


def point_queries(lib, cli, rng: random.Random) -> list[Op]:
    # About a third of the calls take a few microseconds; the median call is
    # one of the 140 summations, rank lookups and slices of 10-100 us, whose
    # timings are steadier from run to run than those of the shortest calls.
    ops: list[Op] = []
    small = lambda: (rng.randint(2, 8), rng.randint(0, 10), rng.randint(1, 60))
    for _ in range(48):
        v, d, n = small()
        ops.append(Op("kernel.closed", lambda v=v, d=d, n=n: lib.hypersolid(v, d, n),
                      lambda v=v, d=d, n=n: oracle.value(v, d, n)))
    for name, lo_v, lo_d in (("n_gnomon", 1, 0), ("d_gnomon", 0, 1), ("v_gnomon", 1, 0)):
        for _ in range(24):
            v, d, n = max(rng.randint(2, 8), lo_v), max(rng.randint(0, 10), lo_d), rng.randint(2, 60)
            ops.append(Op(f"kernel.{name}",
                          lambda f=name, v=v, d=d, n=n: getattr(lib, f)(v, d, n),
                          lambda f=name, v=v, d=d, n=n: getattr(oracle, f)(v, d, n)))
    for _ in range(40):
        v, d, n = rng.randint(2, 8), rng.randint(0, 10), rng.randint(20, 60)
        ops.append(Op("kernel.summation",
                      lambda v=v, d=d, n=n: lib.hypersolid(v, d, n, "summation"),
                      lambda v=v, d=d, n=n: oracle.value(v, d, n)))
    for _ in range(8):  # bigger summations: a few hundred bits
        v, d, n = rng.randint(20, 60), rng.randint(0, 10), rng.randint(100, 400)
        ops.append(Op("kernel.summation_big",
                      lambda v=v, d=d, n=n: lib.hypersolid(v, d, n, "summation"),
                      lambda v=v, d=d, n=n: oracle.value(v, d, n)))
    for _ in range(8):  # results of about 10**4 bits
        v, d, n = rng.randint(4950, 5050), rng.randint(0, 10), rng.randint(4950, 5050)
        ops.append(Op("kernel.closed_big", lambda v=v, d=d, n=n: lib.hypersolid(v, d, n),
                      lambda v=v, d=d, n=n: oracle.value(v, d, n)))
    for i in range(60):
        # d >= 1 keeps consecutive values at least n apart, so value + 1 is skipped.
        v, d, n = rng.randint(2, 6), rng.randint(1, 10), rng.randint(10, 5000)
        value = oracle.value(v, d, n) + (i % 2)
        ops.append(Op("search.rank_of", lambda x=value, v=v, d=d: lib.rank_of(x, v, d),
                      lambda n=n, i=i: None if i % 2 else n))
    for _ in range(40):
        v, d, lo = rng.randint(2, 8), rng.randint(0, 10), rng.randint(1, 100)
        hi = lo + rng.randint(50, 200)
        ops.append(Op("search.sequence_slice",
                      lambda v=v, d=d, lo=lo, hi=hi: lib.sequence_slice(v, d, lo, hi),
                      lambda v=v, d=d, lo=lo, hi=hi: oracle.sequence(v, d, lo, hi)))
    # Targets from 10**4 to 10**6, one per tenth of the log range.
    for i in range(10):
        ops.append(_representation_op(lib, rng, 4 + (i + rng.uniform(0.45, 0.55)) / 5))
    return ops + _sums_ops(lib, rng)


def _warm_point_queries(lib, cli) -> None:
    lib.hypersolid(3, 2, 5)
    lib.hypersolid(3, 2, 5, "summation")
    lib.n_gnomon(3, 2, 5), lib.d_gnomon(3, 2, 5), lib.v_gnomon(3, 2, 5)
    lib.rank_of(36, 2, 1)
    lib.representations(120)
    lib.sequence_slice(2, 1, 1, 10)
    lib.sum_fixed_s(5), lib.sum_fixed_sv(5, 1), lib.sum_fixed_sd(5, 1), lib.sum_fixed_sn(5, 1)


# ------------------------------------------------------------- grid-build


def _triangle_op(lib, d: int, rows: int) -> Op:
    return Op(f"triangle.build_c{rows}", lambda: lib.build_triangle(d, rows),
              lambda: oracle.triangle_rows(d, rows),
              lambda tri, rows_: tri.d == d and tri.c_max == rows and tri.rows == rows_)


def grid_build(lib, cli, rng: random.Random) -> list[Op]:
    # Sizes and slopes are fixed per op, so every seed costs the same.  The
    # eight cheap diagonals sit below the ten tables, which puts the median
    # op inside the table block.
    ops = [_triangle_op(lib, rng.randint(0, 20), 200) for _ in range(4)]
    ops += [_triangle_op(lib, rng.randint(0, 20), 400) for _ in range(2)]
    for _ in range(10):  # a 60 x 60 d x n table: one sequence_slice per difference
        v = rng.randint(2, 6)
        ops.append(Op("table.grid",
                      lambda v=v: [lib.sequence_slice(v, d, 1, 60) for d in range(1, 61)],
                      lambda v=v: [oracle.sequence(v, d, 1, 60) for d in range(1, 61)]))
    for m in (2, 3):
        d = rng.randint(0, 20)
        ops.append(Op("triangle.recurrence_sequence",
                      lambda d=d, m=m: lib.recurrence_sequence(d, m, 300),
                      lambda d=d, m=m: [oracle.diagonal(d, m, k) for k in range(2, 302)]))
    for m in (3, 4) * 4:
        d, k = rng.randint(0, 20), rng.randint(380, 420)
        ops.append(Op("triangle.diagonal_sum", lambda d=d, m=m, k=k: lib.diagonal_sum(d, m, k),
                      lambda d=d, m=m, k=k: oracle.diagonal(d, m, k)))
    for v in (3, 5, 7, 8):
        d, lo = rng.randint(0, 20), rng.randint(1, 100)
        ops.append(Op("search.sequence_slice",
                      lambda v=v, d=d, lo=lo: lib.sequence_slice(v, d, lo, lo + 5000),
                      lambda v=v, d=d, lo=lo: oracle.sequence(v, d, lo, lo + 5000)))
    return ops


def _warm_grid_build(lib, cli) -> None:
    lib.build_triangle(1, 10)
    lib.sequence_slice(3, 1, 1, 10)
    lib.recurrence_sequence(1, 2, 10)
    lib.diagonal_sum(1, 3, 12)


# ----------------------------------------------------------- verify-sweep


def _suite_op(lib, suite: str, enlarged: bool) -> Op:
    bounds = lib.GridBounds(**oracle.ENLARGED_BOUNDS) if enlarged else lib.GridBounds()
    cases = (oracle.ENLARGED_CASES if enlarged else oracle.DEFAULT_CASES)[suite]
    return Op(f"verify.{suite}_{'enlarged' if enlarged else 'default'}",
              lambda: lib.run_suite(suite, bounds), lambda: cases,
              lambda out, n: out.suite == suite and out.cases_run == n and not out.failures)


def verify_sweep(lib, cli, rng: random.Random) -> list[Op]:
    return [_suite_op(lib, suite, enlarged) for suite in SUITES for enlarged in (False, True)]


def _warm_verify_sweep(lib, cli) -> None:
    tiny = lib.GridBounds(v_max=2, d_max=2, n_max=3, c_max=4, s_max=4, m_max=3)
    for suite in SUITES:
        lib.run_suite(suite, tiny)


# -------------------------------------------------------------- cli-calls


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], launcher: list[str] | None = None) -> tuple[int, bytes]:
    """One CLI subprocess; ``launcher`` replaces ``-m hypersolids.cli``."""
    cmd = [sys.executable, *(launcher or ["-m", "hypersolids.cli"]), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


def cli_inprocess(cli, argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue().encode("utf-8")


CLI_CALLS = [
    ["eval", "--v", "{v}", "--d", "{d}", "--n", "{n}"],
    ["eval", "--v", "{v}", "--d", "{d}", "--n", "{n}", "--method", "both"],
    ["table", "--v", "{v}", "--dmax", "30", "--nmax", "30"],
    ["table", "--v", "{v}", "--dmax", "10", "--nmax", "10", "--gnomons"],
    ["triangle", "--d", "{d}", "--rows", "60", "--diagonals", "{m}"],
    ["sums", "--s", "{s}"],
    ["sums", "--s", "{s}", "--fix", "v={v}"],
    ["verify", "--suite", "{suite}"],
    ["represent", "--value", "{target}"],
]
# The two large outputs (~600 KB and ~900 KB) and the file writes.
CLI_LARGE = [
    ["triangle", "--d", "{d}", "--rows", "200", "--format", "csv"],
    ["sums", "--s", "200", "--list"],
]
CLI_WRITES = [
    ["table", "--v", "{v}", "--dmax", "40", "--nmax", "40", "--format", "csv"],
    ["triangle", "--d", "{d}", "--rows", "120", "--format", "json"],
    ["represent", "--value", "{target}", "--format", "csv"],
]


def cli_calls(lib, cli, rng: random.Random, tmpdir: str, spawn: Callable) -> list[Op]:
    """One op per CLI subprocess; ``spawn(argv)`` runs it and returns (code, stdout)."""

    def fill(template: list[str]) -> list[str]:
        values = {"v": rng.randint(2, 6), "d": rng.randint(0, 9), "n": rng.randint(5, 60),
                  "m": rng.randint(2, 4), "s": rng.randint(20, 60),
                  "suite": rng.choice(("oracle", "gnomons", "lemmas")),
                  "target": _planted(rng, 5)[3]}
        return [arg.format(**values) for arg in template]

    def to_stdout(argv: list[str]) -> Op:
        return Op(f"cli.{argv[0]}", lambda: spawn(argv), lambda: cli_inprocess(cli, argv))

    def to_file(argv: list[str], path: str) -> Op:
        def check(out, expected) -> bool:
            with open(path, "rb") as handle:
                return (out[0], handle.read()) == expected

        return Op(f"cli.{argv[0]}_file", lambda: spawn([*argv, "--output", path]),
                  lambda: cli_inprocess(cli, argv), check)

    ops = [to_stdout([*fill(t), "--format", fmt]) for t in CLI_CALLS for fmt in ("text", "csv", "json")]
    ops += [to_stdout(fill(t)) for t in CLI_LARGE]
    ops += [to_file(fill(t), os.path.join(tmpdir, f"out{i}")) for i, t in enumerate(CLI_WRITES)]
    return ops


def _warm_cli_calls(lib, cli) -> None:
    run_cli(["eval", "--v", "3", "--d", "2", "--n", "5"])


WARMUPS = {
    "point-queries": _warm_point_queries,
    "grid-build": _warm_grid_build,
    "verify-sweep": _warm_verify_sweep,
    "cli-calls": _warm_cli_calls,
}
