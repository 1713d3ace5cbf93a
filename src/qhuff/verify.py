"""Congruence claims, counting oracles, and the verification suites.

The oracle side counts partition tuples by direct recursion over allowed
parts and never touches the series code, so a disagreement between the
two routes is meaningful.  Claim checks expand the family's generating
function once to the largest index needed, then test divisibility of the
coefficients along the progression.  Claims read residues, not exact
coefficients: :func:`verify_claim` those mod CLAIM_MODULUS, the theorem
suite those mod 3**RESIDUE_EXPONENT.  Residues mod M decide every claim
mod b^k with b^k dividing M, and give every b-adic valuation below K_b
exactly, K_b being the largest k with b^k dividing M; a valuation of K_b
or more reads ``AtLeast(K_b)``.  Claims past K_b are refused.  Identity
checks, reconstructions and the oracle check read exact series.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from .eta import FAMILIES, EtaQuotientSpec, parse
from .huffing import extract_progression
from .padic import valuation
from .series import BeyondValidity, INF, Series

__all__ = [
    "CLAIM_MODULUS", "RESIDUE_EXPONENT", "AtLeast", "BudgetExceeded",
    "NonIntegralOffset",
    "CongruenceClaim", "ClaimReport", "ItemReport", "SuiteReport",
    "SeriesCache", "valuation", "oracle_count",
    "verify_claim", "theorem_suite", "identity_suite", "oracle_suite",
    "matrix_suite", "vector_suite", "ring_law_suite",
]

ORACLE_CAP = 60

# The theorem suite scans residues mod 3**RESIDUE_EXPONENT.  Packed
# division keeps each residue in a 64-bit slot with room for one window
# per divisor term: 3**32 < 2**51 leaves 13 bits, room for 9953 packed
# terms, which f1 passes only beyond order 3.7e7.  The shipped ladders
# need exponents up to 4.
RESIDUE_EXPONENT = 32

# verify_claim scans residues mod CLAIM_MODULUS.  One modulus for every
# base keeps one residue series per family; a modulus per base would
# expand each family once per base asked for.  It decides claims mod 2^k
# for k <= 10, 3^k for k <= 8, 5^k for k <= 5 and 7^k for k <= 4; the
# identity suite's regressions reach 3-adic valuation 6.  Below 2**46, it
# leaves packed division room for 365937 divisor terms.
CLAIM_MODULUS = 2 ** 10 * 3 ** 8 * 5 ** 5 * 7 ** 4

# Smallest order at which expanding families in worker processes pays.
# A split fill starts one worker per group anew (fork: a few ms) and
# expands the last group in the caller.  On a 2-CPU Linux host (fork
# start), filling the residues of a3 and a9 split against in one process
# took 66 against 57 ms at order 4000 (medians of 9, interleaved), 62
# against 92 at 6000, 70 against 130 at 8000, 91 against 170 at 10000,
# 150 against 283 at 15000, 321 against 543 at 30000 and 458 against 868
# at 40000; a second set of 15 put the break-even between 5000 and 6000.
# The floor sits where the gain, about 45%, is as clear as at 30000.
POOL_MIN_ORDER = 8000


class BudgetExceeded(ValueError):
    """An enumeration was asked to go past its configured cap."""


class AtLeast(int):
    """A valuation known only from below, printed as ``>=k``."""

    def __repr__(self):
        return f">={int(self)}"

    __str__ = __repr__


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
        nu = self.min_valuation  # int, INF or AtLeast; the last two as text
        return {
            "claim": {"family": c.family, "stride": c.stride,
                      "offset": c.offset, "modulus": str(c.modulus)},
            "range": {"n_max": self.n_max},
            "result": "pass" if self.passed else "fail",
            "failures": list(self.failures),
            "min_valuation": nu if type(nu) is int else str(nu),
            "elapsed_ms": self.elapsed_ms,
        }


def _expand(spec, order, prior=None):
    """``spec`` expanded to ``order``, and its division state.

    An exact spec goes through ``residues.expand_exact``, a
    ``residues.Reduced`` one modulo its modulus; either resumes from the
    ``prior`` (series, state) it returned at a lower order, if given.
    """
    if isinstance(spec, EtaQuotientSpec):
        from .residues import expand_exact

        return expand_exact(spec, order, prior)
    return spec.expand(order, prior)


def _reduced(name, modulus):
    """The family's generating function, reduced mod ``modulus``."""
    from .residues import Reduced

    return Reduced(FAMILIES[name].spec, modulus)


def _expand_group(items):
    """Worker entry point: ``(key, _expand(*job))`` for each (key, job) of ``items``."""
    return [(key, _expand(*job)) for key, job in items]


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_jobs(run, jobs, send=None, receive=None):
    """``[run(*job) for job in jobs]``: the last job here, each other in a worker.

    Each worker is a ``multiprocessing.Process`` (default start method) that
    passes its result to ``send(sender, result)`` on a one-way pipe.  Once
    the caller has run the last job, each worker's result is read, in job
    order, by ``receive(receiver, last)``, ``last`` being the caller's own
    result, which a fold may add into in place.  Both default to one
    pickled message.  A worker's error re-raises here; a worker that dies
    raises ``BrokenProcessPool`` with its exit code.  If anything raises,
    the caller's job included, every worker is terminated.  Every worker is
    joined before this returns.
    """
    import multiprocessing

    workers = []
    try:
        for job in jobs[:-1]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            worker = multiprocessing.Process(target=_job_worker,
                                             args=(sender, run, send, job))
            worker.start()
            sender.close()
            workers.append((worker, receiver))
        last = run(*jobs[-1])
        results = []
        for worker, receiver in workers:
            try:
                error = receiver.recv()
                if error is not None:
                    raise error
                results.append(receive(receiver, last) if receive else receiver.recv())
            except EOFError:
                from concurrent.futures.process import BrokenProcessPool

                worker.join()
                raise BrokenProcessPool(
                    f"a worker process exited with code {worker.exitcode}") from None
        return results + [last]
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            receiver.close()
            worker.join()


def _job_worker(sender, run, send, job):
    """Worker entry: send None and then the job's result, or send its error."""
    try:
        result = run(*job)
    except Exception as exc:
        sender.send(exc)
    else:
        sender.send(None)
        send(sender, result) if send else sender.send(result)
    sender.close()


class SeriesCache:
    """Per-run store of expansions, reused at the widest order seen.

    Family series are stored under the family name, others under the
    rendered spec; a ``residues.Reduced`` spec renders to a key that no
    exact spec does.  Beside each series the cache keeps the state of its
    plan, the outputs of its multiplication and division stages, so
    widening it resumes every stage and computes only the missing
    coefficients.  A spec with no factor below its order (a constant times
    a power of q) has no stage and no state, and is expanded again from
    q^0.  ``stats`` counts lookups: ``hits`` (the stored series reached far
    enough), ``widenings`` (it was replaced by a wider one) and ``misses``
    (nothing was stored), and ``discarded_coeffs`` the stored coefficients
    that widenings computed again, those of series without a state.  A
    residue series whose stored plan of Jacobi cubes no longer fits the
    packed slots is expanded again too, once, and is not counted there.
    """

    def __init__(self):
        self._store = {}
        self._states = {}
        self.stats = dict.fromkeys(
            ("hits", "widenings", "misses", "discarded_coeffs"), 0)

    def fill(self, orders):
        """Store residues mod 3**RESIDUE_EXPONENT of the families of ``orders``.

        ``orders`` maps family names to the order each must reach; the
        residues are then read with ``spec(Reduced(...))``.  When each
        family missing or too narrow needs ``POOL_MIN_ORDER`` coefficients,
        they are dealt in turn into one group per usable CPU (no more groups
        than families), and :func:`run_jobs` expands every group but the
        last in a worker process and the last here; otherwise all are
        expanded here.  A family stored too narrow is widened from its
        stored state wherever it is expanded, so every route stores the same
        series.
        """
        pending = {}
        for name, order in orders.items():
            spec = _reduced(name, 3 ** RESIDUE_EXPONENT)
            key = spec.render()
            if self._stored(key, order) is None:
                pending[key] = spec, order, self._prior(key)
        items, groups = list(pending.items()), 1
        if min((job[1] for _, job in items), default=0) >= POOL_MIN_ORDER:
            groups = min(len(items), _usable_cpus())
        for expanded in run_jobs(_expand_group, [(items[g::groups],) for g in range(groups)]):
            for key, result in expanded:
                self._keep(key, result)

    def family(self, name, valid_to):
        return self._lookup(name, valid_to, FAMILIES[name].spec)

    def spec(self, spec, valid_to):
        return self._lookup(spec.render(), valid_to, spec)

    def _lookup(self, key, valid_to, spec):
        cur = self._stored(key, valid_to)
        if cur is None:
            cur = self._keep(key, _expand(spec, valid_to, self._prior(key)))
        return cur

    def _prior(self, key):
        """The stored (series, state) a widening of ``key`` resumes, or None."""
        state = self._states.get(key)
        return None if state is None else (self._store[key], state)

    def _keep(self, key, expanded):
        """Store an expansion's series and state under ``key``; returns the series."""
        series, state = expanded
        self._store[key] = series
        self._states[key] = state
        return series

    def _stored(self, key, valid_to):
        """The series under ``key`` if it reaches ``valid_to``, else None.

        Counts the lookup in ``stats``.
        """
        cur = self._store.get(key)
        if cur is None:
            self.stats["misses"] += 1
        elif cur.valid_to < valid_to:
            self.stats["widenings"] += 1
            if self._states[key] is None and not cur.is_zero:
                self.stats["discarded_coeffs"] += int(cur.valid_to) - cur.lead + 1
        else:
            self.stats["hits"] += 1
            return cur
        return None


def verify_claim(claim, n_max, budget, cache=None):
    """Check a claim for 0 <= n <= n_max within the coefficient budget.

    The family's residues mod CLAIM_MODULUS are scanned.  A claim whose
    modulus does not divide CLAIM_MODULUS is refused with a ValueError
    before anything is expanded.  Failures are those of the exact
    coefficients, and so is ``min_valuation`` below K_b, the largest k with
    base^k dividing CLAIM_MODULUS; from K_b up it reads ``AtLeast(K_b)``.
    """
    if n_max < 0:
        raise ValueError(f"n_max {n_max} must be nonnegative")
    top = claim.stride * n_max + claim.offset
    if top > budget:
        raise BeyondValidity(
            f"claim {claim.claim_id} needs coefficients to {top}, budget is {budget}")
    cap = _residue_cap(claim, CLAIM_MODULUS)
    cache = cache or SeriesCache()
    series = cache.spec(_reduced(claim.family, CLAIM_MODULUS), top)
    return _scan(claim, n_max, series, cap)


def _residue_cap(claim, modulus):
    """K, the largest k with base^k dividing ``modulus``.

    Residues mod ``modulus`` decide the claim only if its exponent is at
    most K; a claim past K is refused with a ValueError.
    """
    base = claim.modulus_base
    cap = valuation(modulus, base)
    if claim.modulus_exponent > cap:
        raise ValueError(
            f"claim {claim.claim_id} needs {base}^{claim.modulus_exponent}, past "
            f"{base}^{cap}, the largest power of {base} dividing the residue "
            f"modulus {modulus}")
    return cap


def _progression(series, stride, offset, n_max):
    """The coefficients of q^(stride*n + offset) for 0 <= n <= n_max.

    One check against ``valid_to`` (the error names the first exponent
    past it, as ``Series.coefficient`` does) and one slice of the stored
    run; exponents before the lead or after the run read 0.
    """
    if stride * n_max + offset > series.valid_to:
        first = max((series.valid_to - offset) // stride + 1, 0)
        series.coefficient(stride * first + offset)
    skip = max(-((offset - series.lead) // stride), 0)  # those before the lead
    if skip > n_max:
        return [0] * (n_max + 1)
    i = stride * skip + offset - series.lead
    run = list(series.coeffs[i: i + stride * (n_max - skip) + 1: stride])
    return [0] * skip + run + [0] * (n_max + 1 - skip - len(run))


def _scan(claim, n_max, series, cap=None):
    """The claim's report from the coefficients of ``series``.

    Without ``cap`` they are exact.  With it they are residues modulo a
    multiple of base**cap, so a valuation of ``cap`` or more, including that
    of a zero residue, reads ``AtLeast(cap)``.
    """
    started = time.perf_counter()
    base, modulus = claim.modulus_base, claim.modulus
    coeffs = _progression(series, claim.stride, claim.offset, n_max)
    failures = [n for n, c in enumerate(coeffs) if c % modulus] if modulus > 1 else []
    # Only a nonzero c that floor does not divide can lower min_val.
    min_val, floor = (INF, None) if cap is None else (AtLeast(cap), base ** cap)
    for c in coeffs:
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
    scan_ms: int | None = None

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
        if self.scan_ms is not None:
            out["scan_ms"] = self.scan_ms
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

    Every claim's exponent is checked against RESIDUE_EXPONENT, and its
    range derived and checked against the budget, before anything is
    expanded; a claim past 3**RESIDUE_EXPONENT is refused with a
    ValueError.  Each family's residues mod 3**RESIDUE_EXPONENT are then
    expanded once, to the widest ``stride*n_max + offset`` among its
    claims, through :meth:`SeriesCache.fill` (a3 in a worker process while
    a9 is expanded here, when two CPUs are usable and each needs
    ``POOL_MIN_ORDER`` coefficients), and the scans read them through
    :meth:`SeriesCache.spec`.  Failures are those of the exact
    coefficients, and so is ``min_valuation`` below RESIDUE_EXPONENT; a
    valuation of RESIDUE_EXPONENT or more, as when every residue is zero,
    reads ``AtLeast(RESIDUE_EXPONENT)``.  ``expand_ms`` on the report is
    the time the fill took, ``scan_ms`` that of the scans.
    """
    cache = cache or SeriesCache()
    report = SuiteReport("theorems")
    ranges = []
    widest = {}
    modulus = 3 ** RESIDUE_EXPONENT
    claims = a3_ladder_claims(alpha_t1) + a9_ladder_claims(alpha_t2)
    caps = [_residue_cap(claim, modulus) for claim in claims]
    for claim in claims:
        derived = (budget - claim.offset) // claim.stride
        if n_max is not None:
            derived = min(derived, n_max)
        if derived < 0:
            raise BeyondValidity(
                f"budget {budget} cannot reach offset {claim.offset} "
                f"of claim {claim.claim_id}")
        top = claim.stride * derived + claim.offset
        ranges.append((claim, derived, top))
        widest[claim.family] = max(widest.get(claim.family, 0), top)
    started = time.perf_counter()
    cache.fill(widest)
    filled = time.perf_counter()
    report.expand_ms = int(1000 * (filled - started))
    for (claim, derived, top), cap in zip(ranges, caps):
        series = cache.spec(_reduced(claim.family, modulus), top)
        report.claims.append(_scan(claim, derived, series, cap))
    report.scan_ms = int(1000 * (time.perf_counter() - filled))
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


REGRESSION_CLAIMS = (
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
)


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

    for claim in REGRESSION_CLAIMS:
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
    from .matrices import (_VIEW_KAPPA, MatrixTable, submatrix,
                           verify_huff_expansion, verify_rearranged_identity)

    report = SuiteReport("matrix")
    table = MatrixTable(max(rows, 4 * rearranged_imax, huff_imax))

    bad = [(i, j) for i in range(1, rows + 1)
           for j in range(1, i + 1)
           if valuation(table.entry(i, j), 3) < 3 * j - i - 1]
    report.items.append(ItemReport(
        f"entry valuation floors to row {rows}", not bad,
        f"violations at {bad[:5]}" if bad else ""))

    for kind, kappa in _VIEW_KAPPA.items():
        view = submatrix(table, kind)
        top = min(view.max_rows(), (rows + 3) // 4)
        bad = [(i, j) for i in range(1, top + 1)
               for j in range(1, view.width(i) + 1)
               if valuation(view.entry(i, j), 3) < 3 * j - i - kappa]
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
