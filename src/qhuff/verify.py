"""Congruence claims, counting oracles, and the verification suites.

The oracle side counts partition tuples by direct recursion over allowed
parts and never touches the series code, so a disagreement between the
two routes is meaningful.  Claim checks expand the family's generating
function once to the largest index needed, then test divisibility of the
actual coefficients along the progression.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .eta import FAMILIES, expand_spec, parse
from .huffing import extract_progression
from .padic import valuation
from .series import BeyondValidity, INF, Series

__all__ = [
    "BudgetExceeded", "NonIntegralOffset", "CongruenceClaim", "ClaimReport",
    "ItemReport", "SuiteReport", "SeriesCache", "valuation", "oracle_count",
    "verify_claim", "theorem_suite", "identity_suite", "oracle_suite",
    "matrix_suite", "vector_suite", "ring_law_suite",
]

ORACLE_CAP = 60

# Smallest order at which expanding families in worker processes pays.
# On a 2-CPU Linux host (fork start), filling a3 and a9 pooled against in
# one process took 24 against 11 ms at order 1000, 40 against 44 ms at
# 2000 and 57 against 64 ms at 3000 (medians of 7), since starting the
# pool costs 20-40 ms.  The floor sits where the gain is clear of noise.
POOL_MIN_ORDER = 3000


class BudgetExceeded(ValueError):
    """An enumeration was asked to go past its configured cap."""


class NonIntegralOffset(ArithmeticError):
    """An offset formula did not divide exactly."""


def exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise NonIntegralOffset(f"{num}/{den} is not an integer")
    return q


# -- counting oracles ----------------------------------------------------

def _partition_counts(n, allowed):
    """Counts of partitions of 0..n into parts satisfying ``allowed``."""
    parts = [p for p in range(1, n + 1) if allowed(p)]
    memo = {}

    def rec(rem, idx):
        if rem == 0:
            return 1
        if idx == len(parts) or parts[idx] > rem:
            return 0
        key = (rem, idx)
        got = memo.get(key)
        if got is None:
            got = rec(rem, idx + 1) + rec(rem - parts[idx], idx)
            memo[key] = got
        return got

    return [rec(k, 0) for k in range(n + 1)]


def _conv(a, b):
    n = len(a) - 1
    return [sum(a[k] * b[m - k] for k in range(m + 1)) for m in range(n + 1)]


_COMPONENTS = {
    "p": (lambda p: True,),
    "a": (lambda p: True, lambda p: p % 2 == 0),
    "b": (lambda p: True, lambda p: True,
          lambda p: p % 2 == 0, lambda p: p % 2 == 0),
    "a3": (lambda p: p % 3 != 0, lambda p: p % 2 == 0 and p % 3 != 0),
    "a9": (lambda p: p % 9 != 0, lambda p: p % 2 == 0 and p % 18 != 0),
}


def oracle_count(family, n, cap=ORACLE_CAP):
    """Count of weight-n objects in the family by direct enumeration."""
    if family not in _COMPONENTS:
        raise ValueError(f"unknown family {family!r}")
    if n < 0:
        raise ValueError(f"weight {n} must be nonnegative")
    if n > cap:
        raise BudgetExceeded(f"oracle weight {n} exceeds the cap {cap}")
    counts = None
    for allowed in _COMPONENTS[family]:
        comp = _partition_counts(n, allowed)
        counts = comp if counts is None else _conv(counts, comp)
    return counts[n]


# -- claims --------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceClaim:
    """Divisibility of family counts along stride*n + offset.

    The modulus is modulus_base**modulus_exponent; exponent zero makes the
    claim vacuous, which some progression ladders start from.
    """

    family: str
    stride: int
    offset: int
    modulus_exponent: int
    modulus_base: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.stride < 1:
            raise ValueError(f"stride {self.stride} must be positive")
        if not 0 <= self.offset < self.stride:
            raise ValueError(f"offset {self.offset} must lie in [0, {self.stride})")
        if self.modulus_exponent < 0:
            raise ValueError(f"modulus exponent {self.modulus_exponent} must be >= 0")
        if self.modulus_base < 2:
            raise ValueError(f"modulus base {self.modulus_base} must be >= 2")

    @property
    def modulus(self):
        return self.modulus_base ** self.modulus_exponent

    @property
    def claim_id(self):
        return f"{self.family}[{self.stride}n+{self.offset}]%{self.modulus}"


@dataclass
class ClaimReport:
    claim: CongruenceClaim
    n_max: int
    failures: list = field(default_factory=list)
    min_valuation: object = INF
    elapsed_ms: int = 0

    @property
    def passed(self):
        return not self.failures

    def to_dict(self):
        c = self.claim
        return {
            "claim": {"family": c.family, "stride": c.stride,
                      "offset": c.offset, "modulus": str(c.modulus)},
            "range": {"n_max": self.n_max},
            "result": "pass" if self.passed else "fail",
            "failures": list(self.failures),
            "min_valuation": "inf" if self.min_valuation == INF else self.min_valuation,
            "elapsed_ms": self.elapsed_ms,
        }


def _expand_family(name, order):
    """Worker entry point: the family's expansion valid through ``order``."""
    return expand_spec(FAMILIES[name].spec, order)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class SeriesCache:
    """Per-run store of family expansions, reused at the widest order seen."""

    def __init__(self):
        self._store = {}

    def fill(self, orders):
        """Store every family of ``orders`` (name -> order) at least that wide.

        Families missing or too narrow are expanded side by side, one
        worker process each up to the number of usable CPUs, when at least
        two are pending and each needs ``POOL_MIN_ORDER`` coefficients;
        otherwise they are expanded here, one after another.  Both routes
        store the same series.  An error in a worker re-raises here; a
        worker that dies raises ``BrokenProcessPool``.
        """
        pending = {}
        for name, order in orders.items():
            cur = self._store.get(name)
            if cur is None or cur.valid_to < order:
                pending[name] = order
        workers = min(len(pending), _usable_cpus())
        if workers < 2 or min(pending.values()) < POOL_MIN_ORDER:
            for name, order in pending.items():
                self._store[name] = _expand_family(name, order)
            return
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers) as pool:
            futures = {name: pool.submit(_expand_family, name, order)
                       for name, order in pending.items()}
            for name, future in futures.items():
                self._store[name] = future.result()

    def family(self, name, valid_to):
        return self._lookup(name, FAMILIES[name].spec, valid_to)

    def spec(self, spec, valid_to):
        return self._lookup(spec.render(), spec, valid_to)

    def _lookup(self, key, spec, valid_to):
        cur = self._store.get(key)
        if cur is None or cur.valid_to < valid_to:
            cur = expand_spec(spec, valid_to)
            self._store[key] = cur
        return cur


def verify_claim(claim, n_max, budget, cache=None):
    """Check a claim for 0 <= n <= n_max within the coefficient budget."""
    if n_max < 0:
        raise ValueError(f"n_max {n_max} must be nonnegative")
    top = claim.stride * n_max + claim.offset
    if top > budget:
        raise BeyondValidity(
            f"claim {claim.claim_id} needs coefficients to {top}, budget is {budget}")
    cache = cache or SeriesCache()
    series = cache.family(claim.family, top)
    started = time.perf_counter()
    base, modulus = claim.modulus_base, claim.modulus
    failures = []
    min_val = INF
    floor = None  # base**min_val once min_val is finite
    for n in range(n_max + 1):
        c = series.coefficient(claim.stride * n + claim.offset)
        if modulus > 1 and c % modulus:
            failures.append(n)
        # Only a nonzero c that floor does not divide can lower min_val.
        if c and (floor is None or c % floor):
            min_val = valuation(c, base)
            floor = base ** min_val
    elapsed = int(1000 * (time.perf_counter() - started))
    return ClaimReport(claim, n_max, failures, min_val, elapsed)


# -- suite plumbing ------------------------------------------------------

@dataclass
class ItemReport:
    item: str
    passed: bool
    detail: str = ""

    def to_dict(self):
        out = {"item": self.item, "result": "pass" if self.passed else "fail"}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class SuiteReport:
    suite: str
    items: list = field(default_factory=list)
    claims: list = field(default_factory=list)
    expand_ms: int | None = None

    @property
    def passed(self):
        return all(i.passed for i in self.items) and all(c.passed for c in self.claims)

    def to_dict(self):
        out = {
            "suite": self.suite,
            "result": "pass" if self.passed else "fail",
            "items": [i.to_dict() for i in self.items],
            "claims": [c.to_dict() for c in self.claims],
        }
        if self.expand_ms is not None:
            out["expand_ms"] = self.expand_ms
        return out


# -- theorem suite -------------------------------------------------------

def a3_ladder_claims(alpha_max):
    """The four progression ladders of a3 congruences, depths 0..alpha_max."""
    claims = []
    for a in range(alpha_max + 1):
        claims.append(CongruenceClaim(
            "a3", 9 ** a, exact_div(9 ** a - 1, 4), a))
        claims.append(CongruenceClaim(
            "a3", 3 ** (2 * a + 1), exact_div(9 ** (a + 1) - 1, 4), a + 1))
        claims.append(CongruenceClaim(
            "a3", 9 ** (a + 1), exact_div(7 * 3 ** (2 * a + 1) - 1, 4), a + 2))
        claims.append(CongruenceClaim(
            "a3", 9 ** (a + 1), exact_div(11 * 3 ** (2 * a + 1) - 1, 4), a + 2))
    return claims


def a9_ladder_claims(alpha_max):
    """The a9 progression ladder, depths 0..alpha_max."""
    return [CongruenceClaim("a9", 3 ** (a + 1), 3 ** (a + 1) - 1, a + 1)
            for a in range(alpha_max + 1)]


def theorem_suite(budget, alpha_t1=2, alpha_t2=3, n_max=None, cache=None):
    """All ladder claims, each checked to its derived range within budget.

    Every claim's range is derived, and checked against the budget, before
    anything is expanded.  Each family is then expanded once, to the
    widest ``stride*n_max + offset`` among its claims, through
    :meth:`SeriesCache.fill` (a3 and a9 side by side in worker processes
    when two CPUs are usable), and the scans run on the cached series.
    ``expand_ms`` on the report is the time that fill took.
    """
    cache = cache or SeriesCache()
    report = SuiteReport("theorems")
    ranges = []
    widest = {}
    for claim in a3_ladder_claims(alpha_t1) + a9_ladder_claims(alpha_t2):
        derived = (budget - claim.offset) // claim.stride
        if n_max is not None:
            derived = min(derived, n_max)
        if derived < 0:
            raise BeyondValidity(
                f"budget {budget} cannot reach offset {claim.offset} "
                f"of claim {claim.claim_id}")
        ranges.append((claim, derived))
        top = claim.stride * derived + claim.offset
        widest[claim.family] = max(widest.get(claim.family, 0), top)
    started = time.perf_counter()
    cache.fill(widest)
    report.expand_ms = int(1000 * (time.perf_counter() - started))
    for claim, derived in ranges:
        report.claims.append(verify_claim(claim, derived, budget, cache))
    return report


# -- identity suite ------------------------------------------------------

def congruent_up_to(a, b, modulus, order):
    """Coefficientwise congruence of two series through ``order``."""
    if order > a.valid_to or order > b.valid_to:
        raise BeyondValidity(f"congruence check to {order} exceeds a validity bound")
    leads = [s.lead for s in (a, b) if not s.is_zero]
    if not leads:
        return True
    for e in range(min(leads), order + 1):
        if (a.coefficient(e) - b.coefficient(e)) % modulus:
            return False
    return True


def _progression_series(cache, family, stride, offset, order):
    base = cache.family(family, stride * order + offset)
    return extract_progression(base, stride, offset)


def identity_suite(order=500, deep_alpha_max=2, deep_order=100,
                   rama_order=300, cubic_n_max=1000, pair_n_max=200,
                   cache=None):
    """Exact dissection identities plus the regression congruences."""
    from .matrices import verify_cubic_relation

    if order < 30:
        raise ValueError(f"order {order} is too small to be meaningful")
    cache = cache or SeriesCache()
    report = SuiteReport("identities")
    add = report.items.append

    lhs = _progression_series(cache, "a3", 3, 2, order)
    rhs = cache.spec(parse("3*f3^3*f6^3/(f1^3*f2^3)"), order)
    add(ItemReport("a3[3n+2] generating function", lhs.equal_up_to(rhs, order)))

    lhs = _progression_series(cache, "a9", 3, 2, order)
    rhs = cache.spec(parse("3*f3^4*f6^4/(f1^4*f2^4)"), order)
    add(ItemReport("a9[3n+2] generating function", lhs.equal_up_to(rhs, order)))

    add(ItemReport("source-target cubic relation",
                   verify_cubic_relation(min(order, 60))))

    f1 = cache.spec(parse("f1"), order)
    f3 = cache.spec(parse("f3"), order)
    add(ItemReport("f1^3 = f3 mod 3", congruent_up_to(f1.power(3), f3, 3, order)))

    deep_rhs = cache.spec(parse("f9*f18/(f3*f6)"), deep_order)
    for a in range(deep_alpha_max + 1):
        stride = 3 ** (2 * a + 1)
        offset = exact_div(9 ** (a + 1) - 1, 4)
        lhs = _progression_series(cache, "a3", stride, offset, deep_order)
        ok = congruent_up_to(lhs, deep_rhs * 3 ** (a + 1), 3 ** (a + 2), deep_order)
        add(ItemReport(f"a3[{stride}n+{offset}] = 3^{a + 1}*f9*f18/(f3*f6) "
                       f"mod 3^{a + 2}", ok))

    lhs = _progression_series(cache, "p", 5, 4, rama_order)
    rhs = cache.spec(parse("5*f5^5/f1^6"), rama_order)
    add(ItemReport("p[5n+4] generating function", lhs.equal_up_to(rhs, rama_order)))

    lhs = _progression_series(cache, "p", 7, 5, rama_order)
    rhs = cache.spec(parse("7*f7^3/f1^4"), rama_order) + \
        cache.spec(parse("49*q*f7^7/f1^8"), rama_order)
    add(ItemReport("p[7n+5] generating function", lhs.equal_up_to(rhs, rama_order)))

    regressions = [
        CongruenceClaim("a", 3, 2, 1),
        CongruenceClaim("b", 5, 4, 1, modulus_base=5),
        CongruenceClaim("b", 7, 2, 1, modulus_base=7),
        CongruenceClaim("b", 7, 3, 1, modulus_base=7),
        CongruenceClaim("b", 7, 4, 1, modulus_base=7),
        CongruenceClaim("b", 7, 6, 1, modulus_base=7),
        CongruenceClaim("b", 9, 7, 2),
        CongruenceClaim("b", 27, 16, 3),
        CongruenceClaim("b", 27, 25, 3),
        CongruenceClaim("b", 81, 61, 3),
        CongruenceClaim("b", 81, 61, 4),
    ]
    for claim in regressions:
        n_max = cubic_n_max if claim.family == "a" else pair_n_max
        budget = claim.stride * n_max + claim.offset
        report.claims.append(verify_claim(claim, n_max, budget, cache))
    return report


# -- oracle agreement ----------------------------------------------------

def oracle_suite(n_max=40, cache=None):
    """Series coefficients against enumeration counts for every family."""
    cache = cache or SeriesCache()
    report = SuiteReport("oracle")
    for name in FAMILIES:
        series = cache.family(name, n_max)
        bad = [n for n in range(n_max + 1)
               if series.coefficient(n) != oracle_count(name, n, cap=n_max)]
        detail = f"mismatches at {bad}" if bad else f"n <= {n_max}"
        report.items.append(ItemReport(f"{name} counts", not bad, detail))
    return report


# -- matrix checks -------------------------------------------------------

def matrix_suite(rows=40, huff_imax=12, huff_order=60,
                 rearranged_imax=3, rearranged_order=50):
    """Table construction, valuation floors, and both expansion identities."""
    from .matrices import (MatrixTable, submatrix, verify_huff_expansion,
                          verify_rearranged_identity)

    report = SuiteReport("matrix")
    table = MatrixTable(max(rows, 4 * rearranged_imax, huff_imax))

    bad = [(i, j) for i in range(1, rows + 1)
           for j in range(1, i + 1)
           if valuation(table.entry(i, j), 3) < 3 * j - i - 1]
    report.items.append(ItemReport(
        f"entry valuation floors to row {rows}", not bad,
        f"violations at {bad[:5]}" if bad else ""))

    floors = {"A": lambda i, j: 3 * j - i - 1, "B": lambda i, j: 3 * j - i - 3,
              "C": lambda i, j: 3 * j - i - 1}
    for kind, floor in floors.items():
        view = submatrix(table, kind)
        top = min(view.max_rows(), (rows + 3) // 4)
        bad = [(i, j) for i in range(1, top + 1)
               for j in range(1, view.width(i) + 1)
               if valuation(view.entry(i, j), 3) < floor(i, j)]
        report.items.append(ItemReport(
            f"kind {kind} valuation floors to row {top}", not bad,
            f"violations at {bad[:5]}" if bad else ""))

    ok = all(verify_huff_expansion(i, huff_order, table)
             for i in range(1, huff_imax + 1))
    report.items.append(ItemReport(
        f"huffed reciprocal powers 1..{huff_imax} at order {huff_order}", ok))

    for kind in ("A", "B", "C"):
        ok = all(verify_rearranged_identity(kind, i, rearranged_order, table)
                 for i in range(1, rearranged_imax + 1))
        report.items.append(ItemReport(
            f"rearranged identity {kind} rows 1..{rearranged_imax} "
            f"at order {rearranged_order}", ok))
    return report


# -- vector checks -------------------------------------------------------

def vector_suite(recon_alpha=4, recon_order=100, val_alpha=8, cache=None):
    """Reconstructions against progression extractions, then valuation floors."""
    from .vectors import chain, check_valuations, expected_progression, reconstruct

    cache = cache or SeriesCache()
    report = SuiteReport("vectors")
    alpha_top = max(recon_alpha, val_alpha)
    for family, counts in (("X", "a3"), ("Y", "a9")):
        vectors = chain(family, alpha_top)
        ok = True
        for v in vectors[:recon_alpha + 1]:
            stride, offset = expected_progression(v)
            target = _progression_series(cache, counts, stride, offset, recon_order)
            if not reconstruct(v, recon_order).equal_up_to(target, recon_order):
                ok = False
        report.items.append(ItemReport(
            f"{family} reconstructions to alpha {recon_alpha} "
            f"at order {recon_order}", ok))

        bad = []
        tight = 0
        for v in vectors[:val_alpha + 1]:
            for check in check_valuations(v):
                if not check.passed:
                    bad.append((v.alpha, check.index))
                elif check.tight:
                    tight += 1
        report.items.append(ItemReport(
            f"{family} valuation floors to alpha {val_alpha}", not bad,
            f"violations at {bad[:5]}" if bad else f"{tight} tight entries"))
    return report


# -- randomized ring laws ------------------------------------------------

def ring_law_suite(seed=0, order=50, trials=40):
    """Seeded spot checks of the ring laws on random truncated series."""
    import random

    rng = random.Random(seed)

    def rand_series():
        lead = rng.randint(-3, 3)
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))]
        return Series(lead, coeffs, order)

    report = SuiteReport("ring-laws")
    ok_assoc = ok_dist = ok_inv = True
    for _ in range(trials):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs, rhs = (a * b) * c, a * (b * c)
        n = min(lhs.valid_to, rhs.valid_to)
        ok_assoc = ok_assoc and lhs.equal_up_to(rhs, n)
        lhs, rhs = a * (b + c), a * b + a * c
        n = min(lhs.valid_to, rhs.valid_to)
        ok_dist = ok_dist and lhs.equal_up_to(rhs, n)
        u = Series(rng.randint(-2, 2),
                   [rng.choice((1, -1))] + [rng.randint(-5, 5) for _ in range(6)],
                   order)
        prod = u * u.invert()
        ok_inv = ok_inv and prod.equal_up_to(Series.one(), prod.valid_to)
    report.items.append(ItemReport("multiplication associates", ok_assoc))
    report.items.append(ItemReport("multiplication distributes", ok_dist))
    report.items.append(ItemReport("inverse round trip", ok_inv))
    return report
