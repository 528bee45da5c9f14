"""Benchmark of pathramsey: one process, one worker, fixed work per round.

    python3 bench/run.py --workload ramsey|census|certify --seed N --seconds S --trace 0|1

The package is imported from the checkout's src/.  Set-up (import and input
construction) is repeated and timed; then whole rounds of the workload run
while the next one is expected to end within S seconds, each round starting
from a collected heap and an empty graph cache, as a fresh command would.  The outputs are checked with
the independent oracles after the timed section.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one round with
spans around the package's public functions, then profiled rounds, and
reports the per-layer metrics; it writes the spans and the profile once, at
the end, to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_SECONDS = 5, 30, 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def reset(pkg) -> None:
    """Start a round from a collected heap and an empty adjacency-mask cache."""
    gc.collect()
    pkg.graphs.adjacency_masks.cache_clear()


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_parts(rounds) -> float:
    """Sum over a round's parts of each part's median over the rounds."""
    return sum(statistics.median(r.parts[p] for r in rounds) for p in rounds[0].parts)


def keep(workload, rounds, rnd) -> None:
    """Append a round; a later round is compared with the first and its
    outputs dropped, so memory holds one round's outputs at a time."""
    if rounds:
        rnd.differs = not workload.same(rounds[0], rnd)
        rnd.outputs = {}
    rounds.append(rnd)


def another_round(start: float, walls: list[float], seconds: float) -> bool:
    """Start a round only if, at the mean round so far, it ends within the run."""
    return not walls or time.perf_counter() - start + statistics.mean(walls) <= seconds


def timed_run(workload, pkg, inputs, seconds):
    rounds, walls = [], []
    start = time.perf_counter()
    while another_round(start, walls, seconds):
        reset(pkg)
        t0 = time.perf_counter()
        rnd = workload.run(pkg, inputs)
        walls.append(time.perf_counter() - t0)
        keep(workload, rounds, rnd)
    return rounds


def end_to_end(workload, pkg, inputs, args, setup_times):
    rounds = timed_run(workload, pkg, inputs, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": metric(median_parts(rounds), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MiB"),
    }
    lines = [f"{len(rounds)} rounds; round walls "
             + ", ".join(f"{sum(r.parts.values()):.3f}" for r in rounds) + " s"]
    lines += [f"part {p}: " + ", ".join(f"{r.parts[p]:.3f}" for r in rounds) + " s" for p in rounds[0].parts]
    return rounds, metrics, lines


def traced(workload, pkg, inputs, args):
    from tracing import Tracer, callee_totals, layer_profile, profile
    from workloads import percentile

    start = time.perf_counter()
    tracer = Tracer(pkg).install()
    try:
        reset(pkg)
        first = workload.run(pkg, inputs)
        cache = pkg.graphs.adjacency_masks.cache_info()  # counted from the round's cache_clear
    finally:
        tracer.uninstall()
    rounds, walls, tables = [first], [], []
    while another_round(start, walls, args.seconds):
        reset(pkg)
        t0 = time.perf_counter()
        rnd, stats = profile(lambda: workload.run(pkg, inputs))
        walls.append(time.perf_counter() - t0)
        keep(workload, rounds, rnd)
        tables.append(stats)
    profiles = [layer_profile(stats, pkg.dir) for stats in tables]
    kernels = [callee_totals(stats, pkg.dir, "goodness", "_hits") for stats in tables]

    def self_s(layer):
        return statistics.median(p[0][layer] for p in profiles)

    counts = tracer.counts
    states = first.counts.get("states", 0)
    search_s = tracer.span_seconds("goodness.verify_ramsey_value")
    op_ms = sorted(first.op_ms)
    m = {}
    for layer in ("goodness", "detect", "corpus", "orientation", "graphs", "hypergraphs", "decompose", "cli"):
        m[f"{layer}.self_s"] = metric(self_s(layer), "s")
    m.update({
        "goodness.kernel_s": metric(statistics.median(k[0] for k in kernels), "s"),
        "goodness.kernel_calls": metric(kernels[0][1], "count"),
        "goodness.states": metric(states, "count"),
        "goodness.states_per_s": metric(states / search_s if search_s else 0.0, "1/s"),
        "detect.find_path_calls": metric(counts["detect.find_path"], "count"),
        "corpus.fingerprints": metric(counts["corpus.wl_fingerprint"], "count"),
        "corpus.iso_tests": metric(counts["corpus.are_isomorphic"], "count"),
        "corpus.iso_matches": metric(counts["corpus.are_isomorphic:true"], "count"),
        "corpus.kept": metric(first.counts.get("kept", 0), "count"),
        "orientation.checks": metric(counts["orientation.check_nst_bounded"], "count"),
        "orientation.graphs": metric(sum(counts[f"orientation.orient_p{N}_free"] for N in (5, 6, 7)), "count"),
        "orientation.p50_ms": metric(percentile(op_ms, 50), "ms"),
        "orientation.p99_ms": metric(percentile(op_ms, 99), "ms"),
        "graphs.mask_cache_hits": metric(cache.hits, "count"),
        "graphs.mask_cache_misses": metric(cache.misses, "count"),
        "hypergraphs.chi_s": metric(tracer.span_seconds("hypergraphs.chromatic_index"), "s"),
        "decompose.konig_calls": metric(counts["decompose.konig_edge_coloring"], "count"),
        "traced_wall_s": metric(statistics.median(walls), "s"),
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-{args.seed}.json")
    with open(path, "w") as f:
        json.dump({
            "workload": workload.name,
            "seed": args.seed,
            "spans": tracer.spans,
            "counts": dict(counts),
            "profiled_rounds": [
                {"wall_s": w, "self_s": p[0], "functions": p[1]} for w, p in zip(walls, profiles)
            ],
        }, f)
    lines = [f"spans: {len(tracer.spans)} in one round; {len(walls)} profiled rounds; trace in {path}"]
    return rounds, m, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Package

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_times = []
    try:
        while len(setup_times) < SETUP_MIN_REPEATS or (
            len(setup_times) < SETUP_MAX_REPEATS and sum(setup_times) < SETUP_SECONDS
        ):
            start = time.perf_counter()
            pkg = Package()
            inputs = workload.build(pkg, args.seed)
            setup_times.append(time.perf_counter() - start)
    except ImportError as exc:
        print(f"cannot import pathramsey from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(pkg.dir) != SRC:
        print(f"pathramsey was imported from {pkg.dir}, not from {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        rounds, metrics, lines = traced(workload, pkg, inputs, args)
    else:
        rounds, metrics, lines = end_to_end(workload, pkg, inputs, args, setup_times)
    errors = workload.check(inputs, rounds[0])
    errors += [f"round {i + 1} differs from round 1" for i, r in enumerate(rounds) if r.differs]
    failures = [f for r in rounds for f in r.failures]
    for text in errors[:20] + failures[:5]:
        print(text, file=sys.stderr)
    if len(errors) > 20:
        print(f"... and {len(errors) - 20} more check failures", file=sys.stderr)
    print(f"{workload.name}, seed {args.seed}, trace {args.trace}")
    for text in lines + workload.summary(rounds[:1] if args.trace else rounds):
        print("  " + text)
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
