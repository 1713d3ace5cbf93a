import concurrent.futures
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from qhuff import cli, verify
from qhuff.eta import FAMILIES, expand_spec
from qhuff.padic import valuation
from qhuff.series import INF, BeyondValidity, Series
from qhuff.verify import (BudgetExceeded, ClaimReport, CongruenceClaim,
                          NonIntegralOffset, SeriesCache, SuiteReport,
                          a3_ladder_claims, a9_ladder_claims, congruent_up_to,
                          exact_div, identity_suite, matrix_suite,
                          oracle_count, oracle_suite, ring_law_suite,
                          theorem_suite, vector_suite, verify_claim)


def test_oracle_counts():
    assert [oracle_count("a3", n) for n in range(9)] == \
        [1, 1, 3, 3, 8, 9, 17, 20, 36]
    assert oracle_count("p", 4) == 5
    assert oracle_count("a", 4) == 9
    assert oracle_count("a9", 2) == 3
    assert oracle_count("b", 3) == 14


def test_oracle_guards():
    with pytest.raises(BudgetExceeded):
        oracle_count("p", 61)
    assert oracle_count("p", 61, cap=61) == 1121505
    with pytest.raises(ValueError):
        oracle_count("nope", 3)
    with pytest.raises(ValueError):
        oracle_count("p", -1)


def test_exact_div():
    assert exact_div(20, 4) == 5
    with pytest.raises(NonIntegralOffset):
        exact_div(7, 3)


def test_claim_validation():
    claim = CongruenceClaim("a3", 9, 2, 3)
    assert claim.modulus == 27
    assert claim.claim_id == "a3[9n+2]%27"
    with pytest.raises(ValueError):
        CongruenceClaim("nope", 3, 2, 1)
    with pytest.raises(ValueError):
        CongruenceClaim("a3", 0, 0, 1)
    with pytest.raises(ValueError):
        CongruenceClaim("a3", 3, 3, 1)
    with pytest.raises(ValueError):
        CongruenceClaim("a3", 3, 2, -1)
    with pytest.raises(ValueError):
        CongruenceClaim("a3", 3, 2, 1, modulus_base=1)


def test_ladder_shapes():
    claims = a3_ladder_claims(2)
    assert len(claims) == 12
    first = [(c.stride, c.offset, c.modulus_exponent) for c in claims[:4]]
    assert first == [(1, 0, 0), (3, 2, 1), (9, 5, 2), (9, 8, 2)]
    assert [(c.stride, c.offset, c.modulus_exponent)
            for c in a9_ladder_claims(1)] == [(3, 2, 1), (9, 8, 2)]


def test_verify_claim_passes(cache):
    report = verify_claim(CongruenceClaim("a", 3, 2, 1), 50, 200, cache)
    assert report.passed
    assert report.failures == []
    assert report.min_valuation >= 1
    assert report.to_dict()["result"] == "pass"


def test_verify_claim_fails(cache):
    report = verify_claim(CongruenceClaim("p", 2, 1, 1), 5, 20, cache)
    assert not report.passed
    assert report.failures == [0, 2, 5]
    assert report.min_valuation == 0
    d = report.to_dict()
    assert d["result"] == "fail" and d["failures"] == [0, 2, 5]


def test_verify_claim_guards(cache):
    claim = CongruenceClaim("a", 3, 2, 1)
    with pytest.raises(BeyondValidity):
        verify_claim(claim, 100, 200, cache)
    with pytest.raises(ValueError):
        verify_claim(claim, -1, 200, cache)


def test_claim_report_serialization():
    report = ClaimReport(CongruenceClaim("a9", 3, 2, 1), 10)
    d = report.to_dict()
    assert d["claim"] == {"family": "a9", "stride": 3, "offset": 2,
                          "modulus": "3"}
    assert d["range"] == {"n_max": 10}
    assert d["min_valuation"] == "inf"


def test_series_cache_reuses_widest():
    from qhuff.eta import parse

    cache = SeriesCache()
    wide = cache.family("p", 80)
    assert cache.family("p", 40) is wide
    assert cache.family("p", 120) is not wide
    spec = parse("f1^2/f3")
    wide = cache.spec(spec, 80)
    assert cache.spec(parse("f1^2/f3"), 40) is wide
    assert cache.spec(spec, 120) is not wide


class SpyPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that records the worker count of every pool made."""

    made = []

    def __init__(self, max_workers=None, *args, **kwargs):
        SpyPool.made.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


class NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs and a recording pool, whatever the host has."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    SpyPool.made.clear()
    return SpyPool.made


def _raise_in_worker(name, order):
    raise ZeroDivisionError(f"{name} to {order}")


def _die_in_worker(name, order):
    os._exit(1)


def test_fill_matches_sequential(two_cpus):
    cache = SeriesCache()
    cache.fill({"a3": 3000, "a9": 3000})
    assert two_cpus == [2]
    for name in ("a3", "a9"):
        got = cache.family(name, 3000)
        want = expand_spec(FAMILIES[name].spec, 3000)
        assert (got.lead, got.coeffs, got.valid_to) == \
            (want.lead, want.coeffs, want.valid_to)
    cache.fill({"a3": 2000, "a9": 3000})
    assert two_cpus == [2]


def test_fill_suite_matches_sequential(two_cpus, monkeypatch):
    def timeless(report):
        d = report.to_dict()
        del d["expand_ms"]
        for c in d["claims"]:
            del c["elapsed_ms"]
        return d

    pooled = theorem_suite(3200, cache=SeriesCache())
    assert two_cpus == [2]
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    alone = theorem_suite(3200, cache=SeriesCache())
    assert two_cpus == [2]
    assert pooled.passed and isinstance(pooled.expand_ms, int)
    assert timeless(pooled) == timeless(alone)


def test_fill_one_cpu_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    cache = SeriesCache()
    cache.fill({"a3": 3000, "a9": 3000})
    assert cache.family("a9", 3000).valid_to == 3000


def test_fill_small_orders_run_in_process(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    SeriesCache().fill({"a3": verify.POOL_MIN_ORDER - 1,
                        "a9": verify.POOL_MIN_ORDER})


def test_fill_reach_checked_before_expansion(two_cpus):
    class NoFill(SeriesCache):
        def fill(self, orders):
            raise AssertionError("expansion started before the reach checks")

    with pytest.raises(BeyondValidity):
        theorem_suite(100, cache=NoFill())
    assert two_cpus == []


def test_fill_honours_n_max():
    seen = []

    class Recording(SeriesCache):
        def fill(self, orders):
            seen.append(dict(orders))
            super().fill(orders)

    theorem_suite(3000, n_max=5, cache=Recording())
    # a3[729n+668] reaches n = 3 within the budget, a9[81n+80] is capped at 5.
    assert seen == [{"a3": 729 * 3 + 668, "a9": 81 * 5 + 80}]


def test_fill_worker_error_reraises(two_cpus, monkeypatch):
    monkeypatch.setattr(verify, "_expand_family", _raise_in_worker)
    with pytest.raises(ZeroDivisionError):
        SeriesCache().fill({"a3": 3000, "a9": 3000})


def test_fill_dead_worker_exits_3(two_cpus, monkeypatch, capsys):
    monkeypatch.setattr(verify, "_expand_family", _die_in_worker)
    with pytest.raises(BrokenProcessPool):
        SeriesCache().fill({"a3": 3000, "a9": 3000})
    assert cli.main(["verify", "theorems", "-N", "3200"]) == 3
    assert "BrokenProcessPool" in capsys.readouterr().err


class FixedSeries:
    """Cache stand-in that hands every claim the same series."""

    def __init__(self, coeffs):
        self.series = Series(0, coeffs, len(coeffs) - 1)

    def family(self, name, valid_to):
        return self.series


@pytest.mark.parametrize("base", [3, 5, 7])
def test_valuation_skip_matches_full_scan(base, monkeypatch):
    calls = []

    def counted(n, p):
        calls.append(n)
        return valuation(n, p)

    monkeypatch.setattr(verify, "valuation", counted)
    coeffs = [0, 0, base ** 40, 3 ** 7, 0, -(base ** 90) * 2, 1, base ** 3,
              0, 5 ** 6 * 7 ** 6, -1, base ** 2 * 3 ** 9, 0, base, 3 ** 60 * 5]
    cache = FixedSeries(coeffs)
    for stride, offset, exponent in ((1, 0, 1), (2, 0, 2), (3, 2, 1), (4, 0, 3)):
        claim = CongruenceClaim("p", stride, offset, exponent, base)
        n_max = (len(coeffs) - 1 - offset) // stride
        calls.clear()
        got = verify_claim(claim, n_max, len(coeffs) - 1, cache)
        picked = coeffs[offset::stride][:n_max + 1]
        assert got.failures == [n for n, c in enumerate(picked)
                                if c % claim.modulus]
        vals = [valuation(c, base) for c in picked]
        assert got.min_valuation == min(vals)
        # Only coefficients that lower the running minimum are valued.
        lowering = [v for i, v in enumerate(vals) if v < min(vals[:i], default=INF)]
        assert len(calls) == len(lowering) < len(picked)
    zeros = FixedSeries([0, 0, 0, 1])
    got = verify_claim(CongruenceClaim("p", 1, 0, 1, base), 2, 3, zeros)
    assert got.min_valuation == INF and got.failures == []


def test_congruent_up_to(cache):
    f1 = cache.family("p", 60).invert()
    from qhuff.eta import expand_spec, parse
    f3 = expand_spec(parse("f3"), 60)
    assert congruent_up_to(f1.power(3), f3, 3, 60)
    assert not congruent_up_to(f1, f3, 3, 60)
    with pytest.raises(BeyondValidity):
        congruent_up_to(f1, f3, 3, 61)


def test_theorem_suite_small(cache):
    report = theorem_suite(3000, cache=cache)
    assert report.suite == "theorems"
    assert len(report.claims) == 16
    assert report.passed
    for cr in report.claims:
        assert cr.min_valuation >= cr.claim.modulus_exponent
        assert cr.claim.stride * cr.n_max + cr.claim.offset <= 3000


def test_theorem_suite_caps_n(cache):
    report = theorem_suite(3000, n_max=5, cache=cache)
    assert all(cr.n_max <= 5 for cr in report.claims)
    with pytest.raises(BeyondValidity):
        theorem_suite(100, cache=cache)


def test_identity_suite_reduced(cache):
    report = identity_suite(order=60, deep_alpha_max=1, deep_order=40,
                            rama_order=60, cubic_n_max=100, pair_n_max=50,
                            cache=cache)
    assert report.passed
    labels = [i.item for i in report.items]
    assert "a3[3n+2] generating function" in labels
    assert "a9[3n+2] generating function" in labels
    assert "source-target cubic relation" in labels
    assert "f1^3 = f3 mod 3" in labels
    assert "p[5n+4] generating function" in labels
    assert "p[7n+5] generating function" in labels
    assert len(report.claims) == 11
    with pytest.raises(ValueError):
        identity_suite(order=10)


def test_oracle_suite(cache):
    report = oracle_suite(30, cache=cache)
    assert report.passed
    assert sorted(i.item for i in report.items) == \
        ["a counts", "a3 counts", "a9 counts", "b counts", "p counts"]


def test_matrix_suite_small():
    report = matrix_suite(rows=20, huff_imax=6, huff_order=40,
                          rearranged_imax=2, rearranged_order=30)
    assert report.passed
    assert len(report.items) == 8


def test_vector_suite_small(cache):
    report = vector_suite(recon_alpha=2, recon_order=40, val_alpha=4,
                          cache=cache)
    assert report.passed
    tight = [i for i in report.items if "valuation floors" in i.item]
    assert all("tight entries" in i.detail for i in tight)


def test_ring_law_suite_deterministic():
    one = ring_law_suite(seed=7, trials=10)
    two = ring_law_suite(seed=7, trials=10)
    assert one.passed
    assert one.to_dict() == two.to_dict()


def test_suite_report_aggregation():
    from qhuff.verify import ItemReport
    report = SuiteReport("demo", items=[ItemReport("good", True)])
    assert report.passed
    report.items.append(ItemReport("bad", False, "boom"))
    assert not report.passed
    d = report.to_dict()
    assert d["result"] == "fail"
    assert d["items"][1] == {"item": "bad", "result": "fail", "detail": "boom"}
