import multiprocessing
import os
import random
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhuff import cli, verify
from qhuff.eta import FAMILIES, expand_spec, parse
from qhuff.padic import valuation
from qhuff.residues import Reduced
from qhuff.series import INF, BeyondValidity, Series
from qhuff.verify import (CLAIM_MODULUS, REGRESSION_CLAIMS, RESIDUE_EXPONENT,
                          AtLeast, BudgetExceeded, ClaimReport,
                          CongruenceClaim, NonIntegralOffset,
                          SeriesCache, SuiteReport,
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
    cache = SeriesCache()
    wide = cache.family("p", 80)
    assert cache.family("p", 40) is wide
    assert cache.family("p", 120) is not wide
    spec = parse("f1^2/f3")
    wide = cache.spec(spec, 80)
    assert cache.spec(parse("f1^2/f3"), 40) is wide
    assert cache.spec(spec, 120) is not wide


def test_series_cache_counts_its_lookups():
    # An exact widening resumes p's division and recomputes nothing, and
    # so does one of a product; a spec with no factor has no stage and is
    # expanded again.
    cache = SeriesCache()
    for order in (20, 10, 40, 40):
        cache.family("p", order)
    assert cache.stats == {"hits": 2, "widenings": 1, "misses": 1,
                           "discarded_coeffs": 0}
    cache.spec(parse("f1^2*f3"), 20)
    cache.spec(parse("f1^2*f3"), 40)
    assert cache.stats == {"hits": 2, "widenings": 2, "misses": 2,
                           "discarded_coeffs": 0}
    cache.spec(parse("3*q"), 20)
    cache.spec(parse("3*q"), 40)
    assert cache.stats == {"hits": 2, "widenings": 3, "misses": 3,
                           "discarded_coeffs": 20}
    # Reduced keys count the same way, through fill and through spec, but a
    # widening resumes the stored divisions and recomputes nothing.
    cache = SeriesCache()
    cache.fill({"a3": 30})
    cache.fill({"a3": 20, "a9": 10})
    a3 = Reduced(FAMILIES["a3"].spec, M)
    assert cache.spec(a3, 25) is cache.spec(a3, 30)
    cache.spec(a3, 50)
    cache.spec(Reduced(FAMILIES["a3"].spec, CLAIM_MODULUS), 50)
    cache.family("a3", 50)
    assert cache.stats == {"hits": 3, "widenings": 1, "misses": 4,
                           "discarded_coeffs": 0}


WIDENINGS = (40, 600, 1100)  # across the 512-coefficient block edge


def _check_widenings(cache, family, modulus, orders):
    """Widen ``family``'s residues through ``orders``, each time to a new
    series equal to a cold expansion and to the exact coefficients."""
    key = Reduced(FAMILIES[family].spec, modulus)
    exact = expand_spec(key.spec, orders[-1]).coefficients(0, orders[-1])
    prev = None
    for order in orders:
        got = cache.spec(key, order)
        assert got is not prev
        assert got == key.expand(order)[0]
        assert got.coefficients(0, order) == [c % modulus for c in exact[:order + 1]]
        prev = got


def test_reduced_widening_matches_cold_residues():
    for family in FAMILIES:
        for modulus in (M, CLAIM_MODULUS):
            cache = SeriesCache()
            _check_widenings(cache, family, modulus, WIDENINGS)
            assert cache.stats == {"hits": 0, "widenings": 2, "misses": 1,
                                   "discarded_coeffs": 0}


def test_residue_widening_past_the_slot_guard_keeps_the_stored_series():
    # p's divisor f1 has 42 packed unit terms at order 999 and 64 at 1999,
    # where their weight gives (64 + 1) * 2^58, past 2^64.
    cache = SeriesCache()
    key = Reduced(FAMILIES["p"].spec, 2 ** 58)
    narrow = cache.spec(key, 999)
    with pytest.raises(OverflowError, match="weight 64 at modulus"):
        cache.spec(key, 1999)
    assert cache.spec(key, 999) is narrow
    assert narrow == key.expand(999)[0]
    # The stored state is intact: a widening that fits resumes from it.
    assert cache.spec(key, 1800) == key.expand(1800)[0]


_expand_group = verify._expand_group


def _in_worker():
    return multiprocessing.parent_process() is not None


def _raise_in_worker(items):
    if _in_worker():
        raise ZeroDivisionError("expansion in a worker")
    return _expand_group(items)


def _raise_here(items):
    if not _in_worker():
        raise ZeroDivisionError("expansion here")
    return _expand_group(items)


def _die_in_worker(items):
    if _in_worker():
        os._exit(1)
    return _expand_group(items)


POOLED = verify.POOL_MIN_ORDER
M = 3 ** RESIDUE_EXPONENT


def timeless(report):
    d = report.to_dict()
    for key in ("expand_ms", "scan_ms"):
        d.pop(key, None)
    for c in d["claims"]:
        del c["elapsed_ms"]
    return d


def test_fill_matches_sequential(workers):
    cache = SeriesCache()
    cache.fill({"a3": POOLED, "a9": POOLED})
    assert len(workers) == 1  # a3 in a worker, a9 here
    for name in ("a3", "a9"):
        exact = expand_spec(FAMILIES[name].spec, POOLED)
        got = cache.spec(Reduced(FAMILIES[name].spec, M), POOLED)
        assert got.valid_to == POOLED
        assert got.coefficients(0, POOLED) == \
            [c % M for c in exact.coefficients(0, POOLED)]
        # Exact lookups never see the residues.
        assert cache.family(name, POOLED - 1) == exact.truncate(POOLED - 1)
    cache.fill({"a3": POOLED - 1000, "a9": POOLED})
    assert len(workers) == 1  # the narrower refill starts none


def test_pooled_fill_then_widen_resumes_residues(workers, monkeypatch):
    # The second fill resumes, in the worker and here, from the states the
    # first one kept; the widening after it resumes here from the second's.
    monkeypatch.setattr(verify, "POOL_MIN_ORDER", WIDENINGS[0])
    cache = SeriesCache()
    cache.fill(dict.fromkeys(FAMILIES, WIDENINGS[0]))
    assert len(workers) == 1  # five families on two CPUs: one worker
    cache.fill(dict.fromkeys(FAMILIES, WIDENINGS[1]))
    assert len(workers) == 2
    for family in FAMILIES:
        _check_widenings(cache, family, M, WIDENINGS[1:])
    assert cache.stats["discarded_coeffs"] == 0


def test_fill_suite_matches_sequential(workers, monkeypatch):
    pooled = theorem_suite(POOLED + 200, cache=SeriesCache())
    assert len(workers) == 1
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    alone = theorem_suite(POOLED + 200, cache=SeriesCache())
    assert len(workers) == 1
    assert pooled.passed and isinstance(pooled.expand_ms, int)
    assert isinstance(pooled.scan_ms, int)
    assert timeless(pooled) == timeless(alone)


def test_fill_one_cpu_runs_in_process(monkeypatch, no_workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cache = SeriesCache()
    cache.fill({"a3": POOLED, "a9": POOLED})
    assert cache.spec(Reduced(FAMILIES["a9"].spec, M), POOLED).valid_to == POOLED


def test_fill_small_orders_run_in_process(monkeypatch, no_workers):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    SeriesCache().fill({"a3": verify.POOL_MIN_ORDER - 1,
                        "a9": verify.POOL_MIN_ORDER})


def test_fill_reach_checked_before_expansion(workers):
    class NoFill(SeriesCache):
        def fill(self, orders):
            raise AssertionError("expansion started before the reach checks")

    with pytest.raises(BeyondValidity):
        theorem_suite(100, cache=NoFill())
    assert workers == []


def test_fill_honours_n_max():
    seen = []

    class Recording(SeriesCache):
        def fill(self, orders):
            seen.append(dict(orders))
            super().fill(orders)

    theorem_suite(3000, n_max=5, cache=Recording())
    # a3[729n+668] reaches n = 3 within the budget, a9[81n+80] is capped at 5.
    assert seen == [{"a3": 729 * 3 + 668, "a9": 81 * 5 + 80}]


def test_fill_worker_error_reraises(workers, monkeypatch):
    monkeypatch.setattr(verify, "_expand_group", _raise_in_worker)
    with pytest.raises(ZeroDivisionError, match="in a worker"):
        SeriesCache().fill({"a3": POOLED, "a9": POOLED})
    assert len(workers) == 1 and multiprocessing.active_children() == []


def test_fill_caller_error_reraises(workers, monkeypatch):
    # The last family raises here while the worker expands the first.
    monkeypatch.setattr(verify, "_expand_group", _raise_here)
    with pytest.raises(ZeroDivisionError, match="expansion here"):
        SeriesCache().fill({"a3": POOLED, "a9": POOLED})
    assert len(workers) == 1 and multiprocessing.active_children() == []


def test_fill_dead_worker_exits_3(workers, monkeypatch, capsys):
    monkeypatch.setattr(verify, "_expand_group", _die_in_worker)
    with pytest.raises(BrokenProcessPool, match="exited with code 1"):
        SeriesCache().fill({"a3": POOLED, "a9": POOLED})
    assert cli.main(["verify", "theorems", "-N", str(POOLED + 200)]) == 3
    assert "BrokenProcessPool" in capsys.readouterr().err


def test_residue_suite_matches_exact_scans(cache, exact_report):
    residue = theorem_suite(30000, cache=cache)
    exact = [exact_report(r.claim, r.n_max, cache) for r in residue.claims]
    assert residue.passed
    assert timeless(residue)["claims"] == \
        timeless(SuiteReport("theorems", claims=exact))["claims"]


class FixedResidues:
    """Cache stand-in whose residue series is the same for every family."""

    def __init__(self, coeffs, valid_to):
        self.series = Series(0, coeffs, valid_to)

    def fill(self, orders):
        pass

    def spec(self, spec, valid_to):
        return self.series


def test_residue_scan_of_zeros_reads_at_least_k():
    report = theorem_suite(3000, cache=FixedResidues([], 3000))
    assert report.passed
    for cr in report.claims:
        assert isinstance(cr.min_valuation, AtLeast)
        assert cr.min_valuation == RESIDUE_EXPONENT != INF
        assert cr.to_dict()["min_valuation"] == f">={RESIDUE_EXPONENT}"
    text = "\n".join(cli._suite_text(report))
    assert f"min_nu=>={RESIDUE_EXPONENT}" in text and "inf" not in text
    assert f"min_valuation=>={RESIDUE_EXPONENT}" in cli._suite_csv([report])
    # One nonzero residue gives its valuation exactly; zeros do not lower it.
    coeffs = [0] * 3001
    coeffs[2] = 2 * 3 ** 31
    report = theorem_suite(3000, cache=FixedResidues(coeffs, 3000))
    assert report.claims[1].claim.claim_id == "a3[3n+2]%3"
    assert report.claims[1].min_valuation == 31
    assert type(report.claims[1].min_valuation) is int


def test_residue_exponent_above_k_refused(workers):
    class NoFill(SeriesCache):
        def fill(self, orders):
            raise AssertionError("expansion started before the exponent checks")

    with pytest.raises(ValueError, match=f"3\\^{RESIDUE_EXPONENT}"):
        theorem_suite(10 ** 6, alpha_t1=RESIDUE_EXPONENT - 1, cache=NoFill())
    with pytest.raises(ValueError, match=f"3\\^{RESIDUE_EXPONENT}"):
        theorem_suite(10 ** 6, alpha_t2=RESIDUE_EXPONENT, cache=NoFill())
    assert workers == []


@pytest.mark.parametrize("base", [3, 5, 7])
def test_valuation_skip_matches_full_scan(base, monkeypatch):
    calls = []

    def counted(n, p):
        calls.append(n)
        return valuation(n, p)

    monkeypatch.setattr(verify, "valuation", counted)
    coeffs = [0, 0, base ** 40, 3 ** 7, 0, -(base ** 90) * 2, 1, base ** 3,
              0, 5 ** 6 * 7 ** 6, -1, base ** 2 * 3 ** 9, 0, base, 3 ** 60 * 5]
    series = Series(0, coeffs, len(coeffs) - 1)
    for stride, offset, exponent in ((1, 0, 1), (2, 0, 2), (3, 2, 1), (4, 0, 3)):
        claim = CongruenceClaim("p", stride, offset, exponent, base)
        n_max = (len(coeffs) - 1 - offset) // stride
        calls.clear()
        got = verify._scan(claim, n_max, series)
        picked = coeffs[offset::stride][:n_max + 1]
        assert got.failures == [n for n, c in enumerate(picked)
                                if c % claim.modulus]
        vals = [valuation(c, base) for c in picked]
        assert got.min_valuation == min(vals)
        # Only coefficients that lower the running minimum are valued.
        lowering = [v for i, v in enumerate(vals) if v < min(vals[:i], default=INF)]
        assert len(calls) == len(lowering) < len(picked)
    zeros = Series(0, [0, 0, 0, 1], 3)
    got = verify._scan(CongruenceClaim("p", 1, 0, 1, base), 2, zeros)
    assert got.min_valuation == INF and got.failures == []


def _scan_per_index(claim, n_max, series, cap=None):
    """(failures, min_valuation) read one ``Series.coefficient`` call per index."""
    base, modulus = claim.modulus_base, claim.modulus
    failures = []
    min_val, floor = (INF, None) if cap is None else (AtLeast(cap), base ** cap)
    for n in range(n_max + 1):
        c = series.coefficient(claim.stride * n + claim.offset)
        if modulus > 1 and c % modulus:
            failures.append(n)
        if c and (floor is None or c % floor):
            min_val = valuation(c, base)
            floor = base ** min_val
    return failures, min_val


def _either_scan(scan, *args):
    try:
        failures, nu = scan(*args)
    except BeyondValidity as exc:
        return str(exc)
    return failures, nu, type(nu)


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 12), st.lists(st.integers(-30, 30), max_size=40),
       st.integers(0, 15), st.integers(1, 12), st.integers(0, 11), st.integers(0, 30),
       st.integers(0, 3), st.sampled_from((2, 3, 5)), st.none() | st.integers(1, 4))
@example(10, [0, 3, 9, 0, 0], 20, 3, 1, 12, 1, 3, 2)  # lead past the offset
def test_sliced_scan_matches_per_index_scan(lead, coeffs, extra, stride, offset, n_max,
                                            exponent, base, cap):
    # Trailing zeros are trimmed from the stored run, and up to ``extra``
    # known zeros follow it; a range past valid_to names the same first
    # exponent on both scans.
    series = Series(lead, coeffs, lead + len(coeffs) - 1 + extra)
    claim = CongruenceClaim("p", stride, offset % stride, exponent, base)

    def sliced(*args):
        report = verify._scan(*args)
        assert report.n_max == n_max
        return report.failures, report.min_valuation

    assert _either_scan(sliced, claim, n_max, series, cap) == \
        _either_scan(_scan_per_index, claim, n_max, series, cap)


def _seeded_claims():
    """Claims in bases 2, 3, 5 and 7, exponents 1 and 2, every family."""
    rng = random.Random(6)
    for family in FAMILIES:
        for base in (2, 3, 5, 7):
            for exponent in (1, 2):
                stride = rng.randint(1, 13)
                offset = rng.randrange(stride)
                top = rng.randint(100, 5000)
                yield (CongruenceClaim(family, stride, offset, exponent, base),
                       (top - offset) // stride)


def test_claim_residues_match_exact_scans(cache, exact_report):
    pairs = [(c, 1000 if c.family == "a" else 200) for c in REGRESSION_CLAIMS]
    pairs += _seeded_claims()
    regressions = []
    for claim, n_max in pairs:
        top = claim.stride * n_max + claim.offset
        got = verify_claim(claim, n_max, top, cache)
        want = exact_report(claim, n_max, cache)
        assert (got.failures, got.n_max) == (want.failures, want.n_max), claim
        cap = valuation(CLAIM_MODULUS, claim.modulus_base)
        if want.min_valuation < cap:
            assert got.min_valuation == want.min_valuation, claim
            assert type(got.min_valuation) is int
        else:
            assert isinstance(got.min_valuation, AtLeast), claim
            assert got.min_valuation == cap
        regressions.append(got.min_valuation)
    # The identity suite's regressions keep their reported valuations.
    assert regressions[:len(REGRESSION_CLAIMS)] == [1, 1, 1, 1, 1, 1, 2, 3, 3, 6, 6]


class NoExpansion:
    """Cache stand-in for a claim that must be refused before any lookup."""

    def family(self, name, valid_to):
        raise AssertionError("a claim was expanded")

    spec = family


def test_claim_past_the_modulus_refused():
    for claim, power in ((CongruenceClaim("p", 11, 6, 1, 11), "11\\^1"),
                         (CongruenceClaim("b", 27, 16, 9), "3\\^9")):
        with pytest.raises(ValueError, match=f"{power}.*{CLAIM_MODULUS}"):
            verify_claim(claim, 10, claim.stride * 10 + claim.offset, NoExpansion())
    # A vacuous claim divides every modulus; it bounds no valuation.
    report = verify_claim(CongruenceClaim("p", 11, 6, 0, 11), 10, 116, SeriesCache())
    assert report.passed and report.min_valuation == AtLeast(0)


@pytest.mark.parametrize("base, cap, residue", [
    (3, 8, 3 ** 8 * 5), (3, 8, 3 ** 10), (2, 10, 2 ** 10 * 3),
    (5, 5, 5 ** 7), (7, 4, 7 ** 4 * 2 ** 10)])
def test_claim_residue_multiple_of_cap_reads_at_least(base, cap, residue):
    # residue is nonzero and below CLAIM_MODULUS, so it stands for every
    # coefficient congruent to it, whose valuations differ from K_b up.
    assert valuation(CLAIM_MODULUS, base) == cap and 0 < residue < CLAIM_MODULUS
    below = (base + 1) * base ** (cap - 1)
    claim = CongruenceClaim("p", 1, 0, 1, base)
    cache = FixedResidues([residue, 0, residue], 2)
    report = verify_claim(claim, 2, 2, cache)
    assert isinstance(report.min_valuation, AtLeast)
    assert report.min_valuation == cap and str(report.min_valuation) == f">={cap}"
    report = verify_claim(claim, 2, 2, FixedResidues([residue, below, 0], 2))
    assert report.min_valuation == cap - 1 and type(report.min_valuation) is int


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
