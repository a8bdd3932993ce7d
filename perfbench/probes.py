"""Per-layer probes: each layer timed alone, at two sizes where size matters.

Timings are the minimum of a few repeats (``best``), or, for calls of a few
microseconds, the minimum over repeats of a batch's time per call
(``per_call``).  Every probe output is checked like a workload op, and a
mismatch is counted in ``stats`` rather than raised.  Probes run before any
workload pass, so the sums probes see a cold ``_triples`` cache.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import time

import oracle
from workloads import SUITES, cli_inprocess, run_cli

_clock = time.perf_counter


class Stats:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def best(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = _clock()
        fn()
        times.append(_clock() - start)
    return min(times)


def per_call(fn, args: list[tuple], repeats: int = 5) -> float:
    return best(lambda: [fn(*a) for a in args], repeats) / len(args)


def kernel(lib, stats: Stats) -> dict:
    rng = random.Random(1)
    small = [(rng.randint(2, 8), rng.randint(0, 10), rng.randint(1, 60)) for _ in range(200)]
    stats.check([lib.hypersolid(*t) for t in small] == [oracle.value(*t) for t in small],
                "kernel closed small")
    big = (5000, 3, 5000)
    stats.check(lib.hypersolid(*big) == oracle.value(*big), "kernel closed big")
    gnomons = [(f, t) for t in small[:60] if t[2] >= 2 for f in ("n_gnomon", "v_gnomon")]
    stats.check(all(getattr(lib, f)(*t) == getattr(oracle, f)(*t) for f, t in gnomons),
                "kernel gnomons")
    out = {
        "closed_small_us": per_call(lib.hypersolid, small) * 1e6,
        "closed_big_us": best(lambda: lib.hypersolid(*big), 5) * 1e6,
        "gnomon_us": per_call(lambda f, t: getattr(lib, f)(*t), gnomons) * 1e6,
    }
    for n in (100, 400):
        stats.check(lib.hypersolid(8, 3, n, "summation") == oracle.value(8, 3, n),
                    f"kernel summation n={n}")
        out[f"summation_n{n}_us"] = best(lambda: lib.hypersolid(8, 3, n, "summation"), 20) * 1e6
    out["summation_scaling"] = out["summation_n400_us"] / out["summation_n100_us"]
    return out


def triangle(lib, stats: Stats) -> dict:
    out = {}
    for rows in (200, 400):
        stats.check(lib.build_triangle(1, rows).rows == oracle.triangle_rows(1, rows),
                    f"triangle c={rows}")
        out[f"build_c{rows}_ms"] = best(lambda: lib.build_triangle(1, rows)) * 1e3
    out["build_scaling"] = out["build_c400_ms"] / out["build_c200_ms"]
    out["cells_per_s"] = 401 * 402 // 2 / (out["build_c400_ms"] / 1e3)
    stats.check(lib.diagonal_sum(1, 2, 200) == oracle.diagonal(1, 2, 200), "diagonal_sum")
    out["diagonal_us"] = best(lambda: lib.diagonal_sum(1, 2, 200), 5) * 1e6
    expected = [oracle.diagonal(1, 2, k) for k in range(2, 302)]
    stats.check(lib.recurrence_sequence(1, 2, 300) == expected, "recurrence_sequence")
    out["recurrence_ms"] = best(lambda: lib.recurrence_sequence(1, 2, 300)) * 1e3
    stats.check(lib.compile_row(2, 10, 50) == sum(oracle.value(r, 2, 10) for r in range(51)),
                "compile_row")
    out["compile_row_us"] = best(lambda: lib.compile_row(2, 10, 50), 5) * 1e6
    return out


def sums(lib, stats: Stats) -> dict:
    def timed_slice(s: int, v: int) -> float:
        start = _clock()
        report = lib.sum_fixed_sv(s, v)
        elapsed = _clock() - start
        total, count = oracle.slice_totals(s, "v", v)
        stats.check(report.consistent and report.enumerated_sum == total
                    and report.enumerated_multitude == count, f"sum_fixed_sv({s}, {v})")
        return elapsed

    # First touch of a total (the simplex is enumerated) against a repeat of
    # it, labelled from the stream of totals generated here.
    rng = random.Random(2)
    totals = rng.sample([s for s in range(20, 100) if s not in (40, 80)], 24)
    first, repeat, seen = [], [], set()
    for s in totals + rng.sample(totals, 24):
        (repeat if s in seen else first).append(timed_slice(s, rng.randint(0, s)))
        seen.add(s)
    first.sort(), repeat.sort()
    out = {"slice_first_us": first[len(first) // 2] * 1e6,
           "slice_repeat_us": repeat[len(repeat) // 2] * 1e6}
    for s in (40, 80):  # first touches of both sizes
        out[f"slice_s{s}_ms"] = timed_slice(s, 2) * 1e3
    out["slice_scaling"] = out["slice_s80_ms"] / out["slice_s40_ms"]
    return out


def search(lib, stats: Stats) -> dict:
    out = {}
    for label, target in (("1e5", 10**5), ("1e6", 10**6)):
        hits = lib.representations(target)
        stats.check(bool(hits) and all(oracle.value(*h.triple) == target for h in hits),
                    f"representations({target})")
        out[f"represent_{label}_ms"] = best(lambda: lib.representations(target), 2) * 1e3
    out["represent_scaling"] = out["represent_1e6_ms"] / out["represent_1e5_ms"]
    rng = random.Random(3)
    planted = [(rng.randint(2, 6), rng.randint(1, 10), rng.randint(10, 5000)) for _ in range(50)]
    queries = [(oracle.value(v, d, n), v, d) for v, d, n in planted]
    stats.check([lib.rank_of(*q) for q in queries] == [n for _, _, n in planted], "rank_of")
    out["rank_of_us"] = per_call(lib.rank_of, queries) * 1e6
    stats.check(lib.sequence_slice(4, 2, 1, 200) == oracle.sequence(4, 2, 1, 200), "sequence_slice")
    out["slice_us"] = best(lambda: lib.sequence_slice(4, 2, 1, 200), 5) * 1e6
    return out


def verify(lib, stats: Stats) -> dict:
    out = {}
    sizes = (("default", lib.GridBounds(), oracle.DEFAULT_CASES),
             ("enlarged", lib.GridBounds(**oracle.ENLARGED_BOUNDS), oracle.ENLARGED_CASES))
    cases = seconds = 0.0
    for suite in SUITES:
        for label, bounds, pinned in sizes:
            start = _clock()
            outcome = lib.run_suite(suite, bounds)
            elapsed = _clock() - start
            stats.check(outcome.ok and outcome.cases_run == pinned[suite], f"verify {suite} {label}")
            out[f"{suite}_{label}_s"] = elapsed
            cases += outcome.cases_run
            seconds += elapsed
        out[f"{suite}_scaling"] = out[f"{suite}_enlarged_s"] / out[f"{suite}_default_s"]
        out[f"{suite}_cases"] = oracle.ENLARGED_CASES[suite]
    out["cases_per_s"] = cases / seconds
    jobs = min(2, os.cpu_count() or 1)
    timing = {}
    for n in (1, jobs):
        start = _clock()
        outcomes = lib.run_suites("all", jobs=n)
        timing[n] = _clock() - start
        stats.check([o.cases_run for o in outcomes] == [oracle.DEFAULT_CASES[s] for s in SUITES]
                    and all(o.ok for o in outcomes), f"verify all jobs={n}")
    out["jobs2_over_jobs1"] = timing[jobs] / timing[1]
    return out


CLI_PROBES = {
    "eval": ["eval", "--v", "4", "--d", "1", "--n", "10", "--method", "both"],
    "table": ["table", "--v", "3", "--dmax", "40", "--nmax", "40", "--format", "csv"],
    "triangle": ["triangle", "--d", "1", "--rows", "200", "--format", "csv"],
    "sums": ["sums", "--s", "120", "--list"],
    "verify": ["verify", "--suite", "gnomons", "--format", "json"],
    "represent": ["represent", "--value", "100000", "--format", "json"],
}


def cli(cli_module, tmpdir: str, stats: Stats) -> dict:
    out = {}
    total_bytes = 0
    for command, argv in CLI_PROBES.items():
        expected = cli_inprocess(cli_module, argv)
        stats.check(run_cli(argv) == expected, f"cli {command}")
        total_bytes += len(expected[1])
        out[f"{command}_ms"] = best(lambda: run_cli(argv), 2) * 1e3
        out[f"{command}_inproc_ms"] = best(lambda: cli_inprocess(cli_module, argv)) * 1e3
    code = ("import time; t = time.perf_counter(); import hypersolids.cli; "
            "print(time.perf_counter() - t)")
    out["import_ms"] = min(float(run_cli([], ["-c", code])[1]) for _ in range(3)) * 1e3
    path = os.path.join(tmpdir, "probe.csv")
    argv = [*CLI_PROBES["triangle"], "--output", path]
    out["file_output_ms"] = best(lambda: run_cli(argv), 2) * 1e3
    with open(path, "rb") as handle:
        stats.check(handle.read() == cli_inprocess(cli_module, CLI_PROBES["triangle"])[1],
                    "cli --output")
    out["output_bytes"] = total_bytes
    return out


UNITS = {"_per_s": "1/s", "_us": "us", "_ms": "ms", "_s": "s", "_scaling": "ratio",
         "_over_jobs1": "ratio", "_bytes": "bytes", "_cases": "count"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_all(lib, cli_module, tmpdir: str, stats: Stats) -> dict:
    """Every probe metric, keyed ``<layer>.<name>``."""
    layers = {
        "kernel": lambda: kernel(lib, stats),
        "triangle": lambda: triangle(lib, stats),
        "sums": lambda: sums(lib, stats),
        "search": lambda: search(lib, stats),
        "verify": lambda: verify(lib, stats),
        "cli": lambda: cli(cli_module, tmpdir, stats),
    }
    metrics = {}
    for layer, probe in layers.items():
        # Single-shot timings (first touches, verify suites) would otherwise
        # pick up collector pauses caused by earlier probes' garbage.
        gc.collect()
        gc.disable()
        start = _clock()
        try:
            metrics.update({f"{layer}.{k}": v for k, v in probe().items()})
        finally:
            gc.enable()
        print(f"probe {layer}: {_clock() - start:.2f} s", file=sys.stderr)
    return metrics
