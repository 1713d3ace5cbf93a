"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints one PASS line and pins a wall-clock budget.  The deep
chain and theorem checks share the session series cache, so the two large
expansions are computed once for the whole run.  Criteria 5 and 6 scan
the exact coefficients (the ``exact_report`` fixture) and are the
reference for criterion 11, which runs the theorem suite on its residue
route.
"""

import time

from qhuff.eta import expand_spec, parse
from qhuff.huffing import MOD3, extract_progression, huff
from qhuff.matrices import (build_matrix, source_series, submatrix,
                            target_series, verify_cubic_relation,
                            verify_huff_expansion, verify_rearranged_identity)
from qhuff.padic import valuation
from qhuff.series import Series
from qhuff.verify import (CongruenceClaim, a3_ladder_claims, a9_ladder_claims,
                          oracle_suite, theorem_suite, vector_suite,
                          verify_claim)

BUDGET = 200000


def _ladder_holds(claims, budget, cache, exact_report):
    for claim in claims:
        n_max = (budget - claim.offset) // claim.stride
        report = exact_report(claim, n_max, cache)
        assert claim.stride * n_max + claim.offset <= budget
        assert report.passed, f"{claim.claim_id} fails at n={report.failures[:5]}"
        assert report.min_valuation >= claim.modulus_exponent
    return True


def _timeless(claim_report):
    d = claim_report.to_dict()
    del d["elapsed_ms"]
    return d


def test_criterion_01_matrix_build():
    started = time.perf_counter()
    table = build_matrix(9)
    picked = {(4, 4): table.entry(4, 4), (6, 3): table.entry(6, 3),
              (9, 6): table.entry(9, 6)}
    elapsed = time.perf_counter() - started
    assert picked == {(4, 4): 2187, (6, 3): 126, (9, 6): 492075}
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS (entries {picked}, {elapsed:.3f}s)")


def test_criterion_02_expansion_identities():
    started = time.perf_counter()
    table = build_matrix(12)
    assert all(verify_huff_expansion(i, 60, table) for i in range(1, 13))
    assert all(verify_rearranged_identity(kind, i, 50, table)
               for kind in ("A", "B", "C") for i in (1, 2, 3))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2: PASS ({elapsed:.1f}s)")


def test_criterion_03_dissection_identities(cache):
    started = time.perf_counter()
    order = 500
    lhs = extract_progression(cache.family("a3", 3 * order + 2), 3, 2)
    rhs = cache.spec(parse("3*f3^3*f6^3/(f1^3*f2^3)"), order)
    assert lhs.equal_up_to(rhs, order)
    lhs = extract_progression(cache.family("a9", 3 * order + 2), 3, 2)
    rhs = cache.spec(parse("3*f3^4*f6^4/(f1^4*f2^4)"), order)
    assert lhs.equal_up_to(rhs, order)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3: PASS ({elapsed:.1f}s)")


def test_criterion_04_cubic_relation_and_huff_constants():
    started = time.perf_counter()
    assert verify_cubic_relation(60)
    s = source_series(64)
    assert huff(s, MOD3).equal_up_to(Series.constant(-1), 60)
    assert huff(s.power(2), MOD3).equal_up_to(Series.constant(-3), 60)
    assert huff(Series.one(), MOD3).equal_up_to(Series.one(), 60)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4: PASS ({elapsed:.1f}s)")


def test_criterion_05_a3_congruence_ladders(cache, exact_report):
    started = time.perf_counter()
    assert _ladder_holds(a3_ladder_claims(2), BUDGET, cache, exact_report)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"ACCEPTANCE 5: PASS ({elapsed:.1f}s)")


def test_criterion_06_a9_congruence_ladder(cache, exact_report):
    started = time.perf_counter()
    claims = a9_ladder_claims(3)
    assert claims[-1].modulus == 81
    assert _ladder_holds(claims, BUDGET, cache, exact_report)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    print(f"ACCEPTANCE 6: PASS ({elapsed:.1f}s)")


def test_criterion_07_vector_chains(cache):
    started = time.perf_counter()
    report = vector_suite(recon_alpha=4, recon_order=100, val_alpha=8,
                          cache=cache)
    assert report.passed, [i.item for i in report.items if not i.passed]
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    print(f"ACCEPTANCE 7: PASS ({elapsed:.1f}s)")


def test_criterion_08_valuation_floors():
    started = time.perf_counter()
    table = build_matrix(40)
    for i in range(1, 41):
        for j in range(1, i + 1):
            assert valuation(table.entry(i, j), 3) >= 3 * j - i - 1, (i, j)
    floors = {"A": lambda i, j: 3 * j - i - 1, "B": lambda i, j: 3 * j - i - 3,
              "C": lambda i, j: 3 * j - i - 1}
    for kind, floor in floors.items():
        view = submatrix(table, kind)
        for i in range(1, view.max_rows() + 1):
            for j in range(1, view.width(i) + 1):
                assert valuation(view.entry(i, j), 3) >= floor(i, j), (kind, i, j)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 8: PASS ({elapsed:.1f}s)")


def test_criterion_09_enumeration_oracles(cache):
    started = time.perf_counter()
    report = oracle_suite(40, cache)
    assert report.passed, [i.item for i in report.items if not i.passed]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 9: PASS ({elapsed:.1f}s)")


def test_criterion_10_classical_checks(cache):
    started = time.perf_counter()
    order = 300
    lhs = extract_progression(cache.family("p", 5 * order + 4), 5, 4)
    rhs = cache.spec(parse("5*f5^5/f1^6"), order)
    assert lhs.equal_up_to(rhs, order)
    lhs = extract_progression(cache.family("p", 7 * order + 5), 7, 5)
    rhs = cache.spec(parse("7*f7^3/f1^4"), order) + \
        cache.spec(parse("49*q*f7^7/f1^8"), order)
    assert lhs.equal_up_to(rhs, order)

    report = verify_claim(CongruenceClaim("a", 3, 2, 1), 1000, 3003, cache)
    assert report.passed

    pair_claims = [CongruenceClaim("b", 27, 16, 3),
                   CongruenceClaim("b", 27, 25, 3),
                   CongruenceClaim("b", 81, 61, 3),
                   CongruenceClaim("b", 81, 61, 4)]
    for claim in pair_claims:
        budget = claim.stride * 200 + claim.offset
        assert verify_claim(claim, 200, budget, cache).passed, claim.claim_id
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 10: PASS ({elapsed:.1f}s)")


def test_criterion_11_residue_theorem_suite(cache, exact_report):
    started = time.perf_counter()
    report = theorem_suite(BUDGET, cache=cache)
    elapsed = time.perf_counter() - started
    assert report.passed
    for got in report.claims:
        want = exact_report(got.claim, got.n_max, cache)
        assert _timeless(got) == _timeless(want), got.claim.claim_id
    assert elapsed < 120.0
    print(f"ACCEPTANCE 11: PASS ({elapsed:.1f}s, expand {report.expand_ms} ms, "
          f"scan {report.scan_ms} ms)")
