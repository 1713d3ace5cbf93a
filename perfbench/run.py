"""qhuff benchmark: one workload per invocation, in a process of its own.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Workloads are ``ladder``, ``chains`` and ``requests`` (see README.md).
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs with spans
around every layer and reports the per-layer metrics instead.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable report.

A plain run repeats the workload's fixed job until ``--seconds`` is spent.
A traced run does the same with spans around the calls into every layer:
the first pass is traced from process start (so memo hits are seen from
the beginning), after which untraced and traced passes alternate, so the
traced and untraced medians come from the same process.

Set-up (import of ``qhuff`` plus input generation) is timed in this
process and, in a plain run, in ten more started with ``--setup-only``,
which stop after set-up; ``setup_s`` is their median.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"
WORKLOADS = ("ladder", "chains", "requests")

# Set-up is timed in this many processes besides the measuring one, half
# before its passes and half after, so the median spans the run.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60

WORK_UNIT = {"ladder": "certified coefficients", "chains": "vector entries",
             "requests": "requests"}
CACHE_OUTCOMES = ("hits", "widenings", "misses")

# Span names of the benchmark's own code; everything else is a layer.
BENCH_SPANS = ("bench.pass", "bench.request")

# Layer metrics read straight from span calls and self times.
CALLS = ("series.div", "series.mul", "eta.parse", "eta.expand_spec", "eta.expand_eta",
         "huffing.extract_progression", "padic.valuation", "vectors.advance",
         "verify.verify_claim")
SELF = ("series.div", "series.mul", "series.power", "series.invert", "eta.parse",
        "eta.expand_spec", "huffing.extract_progression", "huffing.huff",
        "padic.valuation", "matrices.iter_scaled_rows", "matrices.verify_huff_expansion",
        "vectors.advance", "vectors.check_valuations", "vectors.reconstruct",
        "verify.verify_claim")
COUNTERS = ("series.div.coeffs_out", "padic.valuation.input_bits",
            "matrices.iter_scaled_rows.rows", "matrices.iter_scaled_rows.entry_bits",
            "matrices.MatrixTable.rows", "vectors.entries_out", "vectors.max_entry_bits",
            "verify.verify_claim.indices_scanned")


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def ratio(num, den):
    return num / den if den else 0.0


def probe_setup(args):
    """Set-up time of a fresh process that stops after set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_plain(workload, seconds, pins):
    """Passes until the time is spent; every pass is checked."""
    deadline = perf_counter() + seconds
    walls, latencies, costs, units = [], [], [], []
    attempted = failed = 0
    problems = []
    while True:
        t0 = perf_counter()
        outputs, lat = workload.run_pass()
        wall = perf_counter() - t0
        lookups = dict(workload.cache.counts)
        outcome = workload.check(outputs, pins)
        del outputs
        costs.append(perf_counter() - t0)
        walls.append(wall)
        units.append(outcome.units)
        latencies.extend(lat if lat is not None else [wall * 1000.0])
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems[:5 - len(problems)])
        if perf_counter() + statistics.median(costs) > deadline:
            break
    wall_s = statistics.median(walls)
    p99 = percentile(latencies, 99)
    tail = [filled for ms, filled in zip(lat or (), getattr(workload, "filled", ())) if ms >= p99]
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "passes": len(walls), "units_per_pass": statistics.median(units),
        "latency_samples": len(latencies), "lookups": lookups,
        "tail": (sum(tail), len(tail)),
        "metrics": {
            "wall_s": wall_s,
            "throughput_per_s": statistics.median(units) / wall_s,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p99_ms": p99,
            "success_frac": 1.0 - ratio(failed, attempted),
        },
    }


def pass_layers(tracer, lo, hi, cache_counts):
    """Per-layer metrics of the traced pass whose spans are lo..hi-1."""
    calls, self_s = tracer.self_times(lo, hi)
    counts = tracer.counts
    m = {f"{name}.calls": calls.get(name, 0) for name in CALLS}
    m.update({f"{name}.self_s": self_s.get(name, 0.0) for name in SELF})
    m.update({name: counts.get(name, 0) for name in COUNTERS})
    m.update({f"verify.SeriesCache.{k}": v for k, v in cache_counts.items()})
    m["verify.SeriesCache.hit_ratio"] = ratio(
        cache_counts["hits"], sum(cache_counts[k] for k in CACHE_OUTCOMES))
    eta_hits = counts.get("eta.expand_eta.hits", 0)
    m["eta.expand_eta.hit_ratio"] = ratio(
        eta_hits, eta_hits + counts.get("eta.expand_eta.misses", 0))
    bench = sum(self_s.get(name, 0.0) for name in BENCH_SPANS)
    bookkeeping = self_s.get("trace.bookkeeping", 0.0)
    m["trace.wall_s"] = (tracer.end[lo] - tracer.start[lo]) / 1e9
    m["trace.layer_self_s"] = sum(self_s.values()) - bench - bookkeeping
    m["trace.unattributed_s"] = bench
    m["trace.bookkeeping_s"] = bookkeeping
    m["trace.spans"] = hi - lo
    return m


def run_traced(workload, seconds, pins, spans_path):
    """Traced and untraced passes in turn; per-layer metrics of the traced ones."""
    tracer = Tracer()
    deadline = perf_counter() + seconds
    traced, untraced, costs, ranges = [], [], [], []
    attempted = failed = 0
    problems = []
    while True:
        t0 = perf_counter()
        if len(traced) <= len(untraced):
            tracer.counts = {}
            lo = tracer.span_count
            with installed(tracer):
                tracer.request_id = len(costs)
                root = tracer.begin("bench.pass")
                outputs, _ = workload.run_pass(tracer)
                tracer.finish(root)
            ranges.append((lo, len(costs)))
            traced.append(pass_layers(tracer, lo, tracer.span_count, workload.cache.counts))
        else:
            outputs, _ = workload.run_pass()
            untraced.append(perf_counter() - t0)
        lookups = dict(workload.cache.counts)
        outcome = workload.check(outputs, pins)
        del outputs
        costs.append(perf_counter() - t0)
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems[:5 - len(problems)])
        if len(costs) >= 3 and perf_counter() + statistics.median(costs) > deadline:
            break

    # The first traced pass ran with cold process-wide memos; the later
    # ones match the untraced passes they are compared with.
    warm = traced[1:] or traced
    metrics = {key: statistics.median(p[key] for p in warm) for key in warm[0]}
    metrics["eta.expand_eta.hit_ratio"] = traced[0]["eta.expand_eta.hit_ratio"]
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]

    starts = [lo for lo, _ in ranges]
    tracer.write(spans_path, lambda i: ranges[bisect.bisect_right(starts, i) - 1][1])
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "passes": len(costs), "traced_passes": len(traced), "lookups": lookups,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
    }


def report(args, result, workload, setups, units):
    failed, attempted = result["failed"], result["attempted"]
    print(f"qhuff benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  passes {result['passes']}; failed_frac {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    if hasattr(workload, "mix"):
        print("  request mix per pass: " + ", ".join(f"{k} {v}" for k, v in workload.mix.items()))
    counts = result["lookups"]
    lookups = sum(counts[k] for k in CACHE_OUTCOMES)
    print(f"  SeriesCache lookups per pass {lookups}: " + ", ".join(
        f"{k} {counts[k]} ({ratio(counts[k], lookups):.3f})" for k in CACHE_OUTCOMES))
    if args.trace:
        m = result["metrics"]
        print(f"  traced passes {result['traced_passes']}; spans in {result['spans_file']}")
        print(f"  layer self time {m['trace.layer_self_s']:.4f} s + benchmark "
              f"{m['trace.unattributed_s']:.4f} s + bookkeeping "
              f"{m['trace.bookkeeping_s']:.4f} s = traced pass {m['trace.wall_s']:.4f} s; "
              f"untraced {m['trace.untraced_wall_s']:.4f} s, "
              f"overhead {m['trace.overhead_s']:+.4f} s")
    else:
        print(f"  work per pass {result['units_per_pass']:g} {WORK_UNIT[args.workload]}; "
              f"latency samples {result['latency_samples']}; "
              f"setup_s is the median of {len(setups)} processes")
        fills, tail = result["tail"]
        if tail:
            print(f"  last pass: {fills} of its {tail} requests at or above p99 filled the cache")
    for name, unit in units.items():
        print(f"  {name:44s} {result['metrics'][name]:.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print only its time")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qhuff" / "__init__.py").is_file():
        print(f"run.py: no qhuff sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import qhuff
    imported = perf_counter()
    if Path(qhuff.__file__).resolve().parent != SRC / "qhuff":
        print(f"run.py: qhuff was imported from {qhuff.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads  # the benchmark's own module; not part of set-up
    t1 = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setups = [(imported - t0) + (perf_counter() - t1)]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    pins = workloads.load_pins()
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setups += [probe_setup(args) for _ in range(probes)]
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            result = run_traced(workload, args.seconds, pins, spans)
        else:
            result = run_plain(workload, args.seconds, pins)
        setups += [probe_setup(args) for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"run.py: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    report(args, result, workload, setups, units)
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
