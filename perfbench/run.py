"""Layer-by-layer benchmark for hypersolids.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client, closed loop: each op starts when the previous one has returned.
A run sets up (import plus warm-up, nine times, median), then replays the
workload's seeded op list, in a fresh seeded order each pass, for
``--seconds`` (and at least MIN_PASSES passes) and checks every output.
With ``--trace 0`` it reports the end-to-end metrics from each op's median
time over the passes, scaled to a reference host speed (``HostSpeed``).  With ``--trace 1`` it runs the
per-layer probes, then alternates untraced and traced passes and reports
per-layer metrics, each layer's self time and the tracing overhead.
The last line of stdout is one JSON object; ``--workload all`` runs every
workload both ways in child processes and writes the combined results to
``.perfbench-out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import probes
import workloads
from spans import LAYERS, Tracer

ROOT, SRC = workloads.ROOT, workloads.SRC
OUT = os.path.join(ROOT, ".perfbench-out")
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point-queries", "grid-build", "verify-sweep", "cli-calls")
SETUP_REPEATS = 9
MIN_PASSES = 4
REFERENCE_S = 0.0007  # about the best time of reference_loop() on the 2-vCPU Xeon host
# Short op lists (verify-sweep, grid-build, cli-calls) are a few big ops.  A
# full collection before each one means a collector pass inside an op is
# caused by that op's own allocations, not by whichever op ran before it.
GC_EACH_OP_BELOW = 100
# The tail is the highest of these percentiles with at least ten of the
# MIN_PASSES * ops samples every run takes beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def quantile(ordered: list[float], p: float) -> float:
    pos = p / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def load_library():
    for name in [m for m in sys.modules if m == "hypersolids" or m.startswith("hypersolids.")]:
        del sys.modules[name]
    lib = importlib.import_module("hypersolids")
    cli = importlib.import_module("hypersolids.cli")
    return lib, cli


def reference_loop() -> int:
    """Fixed pure-Python work of the library's kind: big-int prefix sums,
    binomials and small-int bytecode.  It never changes, so its timing
    tracks only the speed of the host."""
    row = list(range(1, 300))
    for _ in range(24):
        row = list(itertools.accumulate(row))
    total = sum(math.comb(n + 12, 6) for n in range(400))
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 37] = counts.get(i % 37, 0) + i
    return row[-1] + total + len(counts)


class HostSpeed:
    """How fast the host runs right now, from timing ``reference_loop``.

    On the 2-vCPU host this was built on, a fixed computation runs up to 2x
    slower for seconds to minutes at a time, with no steal time reported.
    ``factor()`` is REFERENCE_S over the reference time measured just
    before (re-measured when older than 50 ms, best of two runs).  A latency
    times that factor reads about the same in a slow phase as in a fast one.
    """

    def __init__(self) -> None:
        self.samples = 0
        self._factor = 1.0
        self._at = float("-inf")

    def factor(self, max_age: float = 0.05) -> float:
        if time.perf_counter() - self._at >= max_age:
            runs = []
            for _ in range(2):
                start = time.perf_counter()
                reference_loop()
                runs.append(time.perf_counter() - start)
            self._factor = REFERENCE_S / min(runs)
            self._at = time.perf_counter()
            self.samples += 1
        return self._factor


def setup(workload: str, host: HostSpeed):
    """Import and warm up SETUP_REPEATS times.

    Returns (lib, cli, (median scaled seconds, median unscaled seconds)).
    """
    scaled, unscaled = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        factor = host.factor(max_age=0)
        start = time.perf_counter()
        lib, cli = load_library()
        workloads.WARMUPS[workload](lib, cli)
        unscaled.append(time.perf_counter() - start)
        scaled.append(unscaled[-1] * factor)
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported hypersolids from {lib.__file__}, not from {SRC}")
    return lib, cli, (statistics.median(scaled), statistics.median(unscaled))


class Spawner:
    """Runs CLI calls; while ``tracer`` is set, each child runs under it."""

    def __init__(self, tmpdir: str) -> None:
        self.tracer: Tracer | None = None
        self.spans_path = os.path.join(tmpdir, "child-spans.json")

    def __call__(self, argv: list[str]) -> tuple[int, bytes]:
        if self.tracer is None:
            return workloads.run_cli(argv)
        result = workloads.run_cli(argv, [os.path.join(HERE, "cli_child.py"), self.spans_path])
        with open(self.spans_path, encoding="utf-8") as handle:
            self.tracer.merge(json.load(handle))
        return result


def run_pass(ops: list, order: list[int], stats: probes.Stats, host: HostSpeed,
             tracer: Tracer | None = None) -> list[tuple[float, float]]:
    """Run every op once, in ``order``.

    Returns (latency, host factor) by op index.  Checks are not timed.
    """
    gc.collect()
    timings = [(0.0, 1.0)] * len(ops)
    for i in order:
        op = ops[i]
        if len(ops) <= GC_EACH_OP_BELOW:
            gc.collect()
        before = host.factor()
        call = tracer.wrap("bench", op.kind, op.call) if tracer else op.call
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # counted as a failed op; the run goes on
            out, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - start
        # An op longer than the 50 ms refresh gets a second reference timing
        # after it, and the two factors are averaged: the host's speed can
        # change while a long op runs.
        timings[i] = (elapsed, (before + host.factor()) / 2)
        if error is not None:
            stats.check(False, f"{op.kind}: {error!r}")
            continue
        try:
            stats.check(op.verify(out), op.kind)
        except Exception as exc:
            stats.check(False, f"{op.kind}: check raised {exc!r}")
    return timings


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(ops: list, rng: random.Random, seconds: float, stats: probes.Stats,
               host: HostSpeed, setup_s: tuple[float, float], context: dict) -> dict:
    samples: list[list[tuple[float, float]]] = [[] for _ in ops]
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for op_samples, timing in zip(samples, run_pass(ops, workloads.arrange(ops, rng),
                                                         stats, host)):
            op_samples.append(timing)
        passes += 1
    # Each op's latency is the median over the passes of its scaled samples.
    # The tail percentile depends only on the op count, so it is the same in
    # every run of a workload.
    tail_p = next(p for p in TAIL_LADDER if MIN_PASSES * len(ops) * (100 - p) / 100 >= 10)
    values = {}
    for label, scale in (("scaled", True), ("unscaled", False)):
        per_op = sorted(statistics.median(lat * (f if scale else 1) for lat, f in op_samples)
                        for op_samples in samples)
        values[label] = {
            "setup_s": setup_s[0] if scale else setup_s[1],
            "wall_s": sum(per_op),
            "latency_p50_ms": quantile(per_op, 50) * 1e3,
            "latency_tail_ms": quantile(per_op, tail_p) * 1e3,
        }
    tail = values["unscaled"]["latency_tail_ms"] / 1e3
    context.update(passes=passes, ops_per_pass=len(ops), latency_samples=passes * len(ops),
                   latency_tail_percentile=tail_p,
                   latency_tail_samples_beyond=sum(lat > tail for s in samples for lat, _ in s),
                   reference_samples=host.samples, unscaled=values["unscaled"])
    metrics = {name: (value, "ms" if name.endswith("_ms") else "s")
               for name, value in values["scaled"].items()}
    metrics["ops_per_s"] = (len(ops) / metrics["wall_s"][0], "1/s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def per_layer(workload: str, lib, cli, ops: list, rng: random.Random, spawner: Spawner,
              seconds: float, stats: probes.Stats, host: HostSpeed, tmpdir: str,
              context: dict, seed: int) -> dict:
    """Per-layer metrics, unscaled: they have no bound to hold."""
    start = time.perf_counter()
    metrics = {k: (v, probes.unit_of(k)) for k, v in probes.run_all(lib, cli, tmpdir, stats).items()}
    modules = {layer: importlib.import_module(f"hypersolids.{layer}") for layer in LAYERS}
    tracer = Tracer()
    untraced, traced = [], []
    # Untraced first: it computes every expected output, so no check ever
    # calls the library while the tracer is installed.
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(sum(lat for lat, _ in run_pass(ops, workloads.arrange(ops, rng),
                                                        stats, host)))
        tracer.install(lib, modules)
        spawner.tracer = tracer
        try:
            traced.append(sum(lat for lat, _ in run_pass(ops, workloads.arrange(ops, rng),
                                                          stats, host, tracer)))
        finally:
            spawner.tracer = None
            tracer.uninstall()
    n = len(traced)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s")
    metrics["kernel.calls"] = (tracer.calls["kernel"] / n, "count")
    metrics["kernel.result_bits"] = (tracer.result_bits / n, "bits")
    metrics["sums.triples_enumerated"] = (tracer.triples_built / n, "count")
    plain, with_spans = statistics.median(untraced), statistics.median(traced)
    metrics["trace.overhead_s"] = (with_spans - plain, "s")
    metrics["trace.overhead_ratio"] = ((with_spans - plain) / plain, "ratio")
    os.makedirs(OUT, exist_ok=True)
    spans_file = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    tracer.dump(spans_file)
    context.update(untraced_passes=len(untraced), traced_passes=n,
                   spans_file=os.path.relpath(spans_file, ROOT),
                   spans_kept=len(tracer.spans), spans_dropped=tracer.dropped)
    return metrics


def bare_startup_s() -> float:
    times = []
    for _ in range(3):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_one(args) -> int:
    host = HostSpeed()
    lib, cli, setup_s = setup(args.workload, host)
    stats = probes.Stats()
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "bare_python_startup_s": bare_startup_s(),
    }
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        rng = random.Random(args.seed)
        spawner = Spawner(tmpdir)
        if args.workload == "point-queries":
            ops = workloads.point_queries(lib, cli, rng)
        elif args.workload == "grid-build":
            ops = workloads.grid_build(lib, cli, rng)
        elif args.workload == "verify-sweep":
            ops = workloads.verify_sweep(lib, cli, rng)
        else:
            ops = workloads.cli_calls(lib, cli, rng, tmpdir, spawner)
        if args.trace:
            metrics = per_layer(args.workload, lib, cli, ops, rng, spawner, args.seconds,
                                stats, host, tmpdir, context, args.seed)
        else:
            metrics = end_to_end(ops, rng, args.seconds, stats, host, setup_s, context)
    context["failed_ratio"] = stats.failed / max(stats.attempted, 1)
    for what in stats.errors[:20]:
        print(f"FAILED {what}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload:14s} {name:32s} {value:16.6f} {unit}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith("{")))
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace} exited {proc.returncode}", file=sys.stderr)
                return 1
            results.append({**json.loads(lines[-2]), "result": json.loads(lines[-1])})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"results-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
    correct = all(r["result"]["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["result"]["attempted"] for r in results),
        "failed": sum(r["result"]["failed"] for r in results),
        "metrics": {f"{r['context']['workload']}/{name}": metric
                    for r in results for name, metric in r["result"]["metrics"].items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hypersolids", "__init__.py")):
        print(f"error: no hypersolids sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
