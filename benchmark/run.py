"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``. The workload's inputs are made from
``--seed`` and written under ``.bench_work/`` (removed on exit). Set-up
(importing the package, generating and writing the inputs, one untimed
warm-up call) is done SETUP_REPEATS times and reported as the import time
plus the median of the rest. Then cycles over the workload's operations
run in a single-threaded closed loop (one call at a time, each waiting
for the previous one) until ``--seconds`` have passed.

With ``--trace 0`` the last line holds the end-to-end metrics. Each
operation is scored by its best time over the run's cycles: the host is
shared, and its speed drifts by tens of percent within seconds, which
only short operations timed many times can step around. Throughput is
the input bytes of one cycle over the sum of those best times; the
latency percentiles are taken over them. The line before holds the
sample count and the plain throughput over all samples as well. With
``--trace 1`` untraced and traced cycles alternate, the traced ones with
every public function of the package wrapped in a span, and the last
line holds the per-layer metrics (per cycle) plus the tracing overhead;
the spans are written to ``.bench_out/``. The line before the last one
holds provenance, sample counts, the error rate and, when traced, whether
the workload's predictions held.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5


def import_package():
    """Import fbas from the checkout's src; return it and the import time."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import fbas
        import fbas.cli  # noqa: F401  (all modules the operations use)
    except ImportError as exc:
        sys.exit(f"error: cannot import fbas from {ROOT / 'src'}: {exc}")
    import_s = time.perf_counter() - start
    if not Path(fbas.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: fbas was imported from {fbas.__file__}, not from {ROOT / 'src'}")
    return fbas, import_s


def percentile(sorted_values: list[float], q: int) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def end_to_end(tally, ops, setup_s: float) -> dict:
    best = {label: min(times) for label, times in tally.latencies.items()}
    latencies = sorted(best.values())
    return {
        "setup_s": setup_s,
        "throughput_mb_s": sum(op.input_bytes for op in ops if op.label in best) / sum(latencies) / 1e6,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced, untraced) -> dict:
    """Per-cycle layer times, counts and derived figures of the traced cycles."""
    busy, self_time = tracer.layer_times()
    cycles = traced.cycles

    def per_cycle(total):
        return total // cycles if isinstance(total, int) and total % cycles == 0 else total / cycles

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "trace.wall_s": traced.wall_s / cycles,
        "cli.main.self_s": self_time["cli.main"] / cycles,
        "cli.build_parser_s": busy["cli.build_parser"] / cycles,
        "bench.run_benchmark.self_s": self_time["bench.run_benchmark"] / cycles,
        "match.search.self_s": self_time["match.search"] / cycles,
    }
    for name in ("bench.load_corpus", "bench.load_patterns", "bench.render_report",
                 "metrics.derive_stats", "metrics.present", "match.naive_search",
                 "match.kmp_search", "match.bmh_search", "match.fbas_search",
                 "match.build_shift_table", "freq.select_anchor"):
        m[f"{name}_s"] = busy[name] / cycles
    counts = traced.counts
    for algo in ("naive", "kmp", "bmh", "fbas"):
        comparisons, alignments = counts[f"{algo}.comparisons"], counts[f"{algo}.alignments"]
        # Self time excludes the shift-table and anchor-selection spans: walk plus verification.
        walk_ns = self_time[f"match.{algo}_search"] * 1e9
        m[f"match.{algo}.comparisons"] = per_cycle(comparisons)
        m[f"match.{algo}.alignments"] = per_cycle(alignments)
        m[f"match.{algo}.ns_per_alignment"] = ratio(walk_ns, alignments)
        m[f"match.{algo}.ns_per_comparison"] = ratio(walk_ns, comparisons)
    hits, fbas_cmp, fbas_al = counts["fbas.anchor_hits"], counts["fbas.comparisons"], counts["fbas.alignments"]
    model_windows = sum(w for _, w in traced.model_cost)
    m.update({
        "match.fbas.anchor_hits": per_cycle(hits),
        "match.fbas.anchor_hit_rate": ratio(hits, fbas_al),
        "match.fbas.cost_per_window": ratio(fbas_cmp, fbas_al),
        "match.fbas.model_cost_per_window": ratio(sum(c * w for c, w in traced.model_cost), model_windows),
        "match.fbas.verification_share": ratio(fbas_cmp - fbas_al, fbas_cmp),
        "match.matches": per_cycle(counts["matches"]),
        "cli.stdout_bytes": per_cycle(traced.stdout_bytes),
        "bench.input_bytes": per_cycle(traced.input_bytes),
        "trace.overhead_pct": 100 * (ratio(traced.wall_s, cycles) / ratio(untraced.wall_s, untraced.cycles) - 1),
        "trace.unattributed_pct": 100 * ratio(traced.wall_s - sum(self_time.values()), traced.wall_s),
    })
    return m


def measure(wl, expect, seconds: float, trace: bool, setup_s: float):
    """The timed phase. Returns (metrics, summary, tallies)."""
    import harness
    import workloads

    untraced = harness.Tally()
    summary = {}
    deadline = time.perf_counter() + seconds
    if not trace:
        # Every operation runs at least once; after that the run stops at the
        # deadline, mid-cycle if need be, since each operation is scored by
        # its own best time.
        harness.run_cycle(wl.ops, expect, untraced)
        while time.perf_counter() < deadline:
            for op in wl.ops:
                harness.run_op(op, expect, untraced)
                if time.perf_counter() >= deadline:
                    break
            else:
                untraced.cycles += 1
        if not untraced.latencies:
            return None, summary, [untraced]
        summary.update({
            "samples": sum(map(len, untraced.latencies.values())),
            "all_samples_throughput_mb_s": untraced.input_bytes / untraced.wall_s / 1e6,
        })
        return end_to_end(untraced, wl.ops, setup_s), summary, [untraced]

    tracer, traced = harness.Tracer(), harness.Tally()
    while True:  # alternate untraced and traced cycles; at least one of each
        harness.run_cycle(wl.ops, expect, untraced)
        with tracer:
            harness.run_cycle(wl.ops, expect, traced, tracer)
        if time.perf_counter() >= deadline:
            break
    if not traced.latencies or not untraced.latencies:
        return None, summary, [untraced, traced]
    metrics = per_layer(tracer, traced, untraced)
    summary.update({
        "samples": sum(map(len, traced.latencies.values())),
        "predictions": {claim: bool(test(metrics)) for claim, test in workloads.PREDICTIONS[wl.name]},
    })
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}-seed{wl.seed}.jsonl")
    return metrics, summary, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    fbas, import_s = import_package()
    import harness
    import workloads

    reference = json.loads((BENCH_DIR / "reference.json").read_text())[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_runs = []
        for _ in range(SETUP_REPEATS):
            wl = None  # free the previous inputs before making new ones
            start = time.perf_counter()
            wl = workloads.build(args.workload, args.seed, workdir, ROOT / "data")
            wl.ops[0].call()  # the warm-up call
            setup_runs.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_runs)
        try:
            expect = harness.expectations(wl, reference[wl.variant])
        except harness.ReferenceMismatch as exc:
            sys.exit(f"error: {exc}; regenerate with benchmark/make_reference.py")
        gc.collect()
        metrics, summary, tallies = measure(wl, expect, args.seconds, bool(args.trace), setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = sum((t.problems for t in tallies), Counter())
    summary = {
        "workload": wl.name, "seed": args.seed, "variant": wl.variant,
        "mode": wl.mode.name, "trace": bool(args.trace),
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "fbas_version": fbas.__version__, "inputs_sha256": wl.inputs,
        "ops_per_cycle": len(wl.ops), "cycles": [t.cycles for t in tallies],
        "setup_runs_s": setup_runs, "import_s": import_s,
        "error_rate": failed / attempted if attempted else 1.0,
        "problems": dict(problems.most_common(5)),
        **summary,
    }
    print(json.dumps(summary))
    if metrics is None:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
