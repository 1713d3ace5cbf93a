"""Tiny-size self-test of the benchmark.

    python3 -m pytest -q perfbench

Shows that correct results pass the checks, that a corrupted result or a
raised exception is counted as failed, and that tracing accounts for the
traced pass and leaves the library as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as wl  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, installed  # noqa: E402

from qhuff import padic, series, vectors, verify  # noqa: E402

PINS = wl.load_pins()


def test_ladder_counts_a_corrupted_claim_as_failed():
    ladder = wl.Ladder(0, budget=1000)
    outputs, _ = ladder.run_pass()
    assert ladder.check(outputs, PINS).failed == 0
    claims, _ = outputs
    claims[3].failures.append(5)
    outcome = ladder.check(outputs, PINS)
    assert outcome.failed == 1
    assert claims[3].claim.claim_id in outcome.problems[0]


def test_ladder_names_the_first_failing_index():
    ladder = wl.Ladder(0, budget=1000)
    outputs, _ = ladder.run_pass()
    _, false = outputs
    assert false[0].claim.claim_id == "p[5n+4]%25"
    assert false[0].failures[0] == 0          # p(4) = 5
    false[0].failures.pop(0)
    assert ladder.check(outputs, PINS).failed == 1


def test_chains_count_a_corrupted_vector_as_failed():
    chains = wl.Chains(0, x_alpha=4, y_alpha=3, recon_alpha=2, recon_order=30)
    outputs, _ = chains.run_pass()
    outcome = chains.check(outputs, PINS)
    assert outcome.failed == 0
    assert outcome.units == sum(v.support for chain, _, _ in outputs for v in chain)
    chain = outputs[1][0]
    v = chain[2]
    chain[2] = vectors.CoeffVector(v.family, v.alpha, (v.entries[0] + 3,) + v.entries[1:])
    assert chains.check(outputs, PINS).failed == 1


def test_requests_count_wrong_results_and_exceptions_as_failed():
    requests = wl.Requests(5, length=14)
    (results, cache), latencies = requests.run_pass()
    assert len(latencies) == len(results) == 14
    assert requests.check((results, cache), PINS).failed == 0
    i = requests.keys.index(next(k for k in requests.keys if k.startswith("expand")))
    good = results[i]
    results[i] = series.Series(good.lead, (good.coeffs[0] + 1,) + good.coeffs[1:],
                               good.valid_to)
    assert requests.check((results, cache), PINS).failed == 1
    results[i] = ValueError("boom")
    outcome = requests.check((results, cache), PINS)
    assert outcome.failed == 1 and "ValueError" in outcome.problems[0]


def test_request_stream_depends_on_the_seed_alone():
    catalog = wl.build_catalog()
    stream = wl.build_stream(3, catalog)
    assert stream == wl.build_stream(3, catalog)
    assert stream != wl.build_stream(4, catalog)
    assert sorted(stream) == sorted(catalog)
    tiers = [int(k.split(":")[2]) for k in stream if k.startswith("claim:b:")]
    assert tiers == sorted(tiers)


def test_every_family_is_filled_once_per_tier():
    requests = wl.Requests(7)
    requests.run_pass()
    tiers = len(wl.CLAIM_TOPS)
    assert requests.cache.counts["misses"] == len(wl.FAMILY_NAMES) + wl.QUOTIENTS
    assert requests.cache.counts["widenings"] == (len(wl.FAMILY_NAMES)
                                                  + wl.QUOTIENTS) * (tiers - 1)


def test_counting_cache_tells_hits_widenings_and_misses_apart():
    cache = wl.CountingCache()
    for order in (20, 10, 40, 40):
        cache.family("p", order)
    assert cache.counts["misses"] == 1
    assert cache.counts["hits"] == 2
    assert cache.counts["widenings"] == 1
    assert cache.counts["discarded_coeffs"] == 21


def test_digest_handles_integers_past_the_str_limit():
    big = 3 ** 20000
    assert wl.digest_ints("t", [big]) != wl.digest_ints("t", [big + 1])
    assert wl.digest_ints("t", [-5]) != wl.digest_ints("t", [5])


def test_traced_pass_accounts_for_its_wall_time_and_restores_the_library():
    requests = wl.Requests(5, length=14)
    original = padic.valuation
    tracer = Tracer()
    with installed(tracer):
        assert verify.valuation is not original and vectors.valuation is not original
        root = tracer.begin("bench.pass")
        outputs, _ = requests.run_pass(tracer)
        tracer.finish(root)
    assert padic.valuation is verify.valuation is vectors.valuation is original
    assert requests.check(outputs, PINS).failed == 0
    m = run.pass_layers(tracer, 0, tracer.span_count, requests.cache.counts)
    total = m["trace.layer_self_s"] + m["trace.unattributed_s"] + m["trace.bookkeeping_s"]
    assert abs(total - m["trace.wall_s"]) < 1e-6
    assert m["verify.verify_claim.calls"] == sum(k.startswith("claim:") for k in requests.keys)
    counts = requests.cache.counts
    assert m["verify.SeriesCache.misses"] == counts["misses"] >= 1
    assert m["verify.SeriesCache.hit_ratio"] == counts["hits"] / (
        counts["hits"] + counts["widenings"] + counts["misses"])


def test_traced_chain_step_counts_rows_and_entries():
    tracer = Tracer()
    with installed(tracer):
        v = vectors.advance(vectors.initial_vector("Y"))
        streamed = vectors._step_streaming(vectors.advance(v))
    assert streamed.alpha == 3
    assert tracer.counts["vectors.entries_out"] == 3 + 9
    assert tracer.counts["matrices.MatrixTable.rows"] >= 4
    assert tracer.counts["matrices.iter_scaled_rows.rows"] >= 36


def test_run_prints_the_contract_result():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "ladder",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
