"""The benchmark's three workloads, driven through qhuff's public API.

Each workload builds its inputs from the seed in ``__init__`` (counted as
set-up; the ladder and chains jobs are fixed and ignore the seed) and runs
one fixed job per :meth:`run_pass`, which returns the pass's outputs and,
for request streams, per-request latencies.  Every pass gets a fresh
:class:`CountingCache`, kept as ``cache`` until the next pass.
:meth:`check` turns outputs into an :class:`Outcome`: the work units done
and the operations attempted and failed.  Results are compared with digests
pinned in ``pinned.json`` (regenerate with ``python3 perfbench/pin.py``)
and, where an independent route exists, with it: the enumeration oracle
in ``qhuff.verify`` for small weights, progression extraction for vector
reconstructions.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from time import perf_counter

from qhuff import eta, huffing, matrices, vectors, verify
from qhuff.series import INF

PINNED = Path(__file__).resolve().parent / "pinned.json"

# Largest weight the enumeration oracle is asked for.
ORACLE_WEIGHT = 60


def load_pins():
    return json.loads(PINNED.read_text())


# -- digests ---------------------------------------------------------------

def digest_ints(tag, ints):
    """Hex digest of a tag and a sequence of integers of any size.

    Integers are hashed through ``int.to_bytes``: ``str()`` of an int over
    4300 digits raises, and deep vector entries get close to that.
    """
    h = hashlib.sha256(tag.encode())
    for c in ints:
        n = c.bit_length() // 8 + 1
        h.update(n.to_bytes(4, "little"))
        h.update(c.to_bytes(n, "little", signed=True))
    return h.hexdigest()[:24]


def digest_series(s):
    return digest_ints("series", [s.lead, int(s.valid_to), *s.coeffs])


def digest_claim(report):
    nu = -1 if report.min_valuation == INF else report.min_valuation
    return digest_ints("claim", [report.n_max, nu, len(report.failures), *report.failures])


def digest_vector(v):
    return digest_ints(f"vector{v.family}", [v.alpha, *v.entries])


class OracleTable:
    """Family counts at weights 0..ORACLE_WEIGHT by direct enumeration."""

    def __init__(self):
        self._counts = {}

    def counts(self, family):
        got = self._counts.get(family)
        if got is None:
            got = [verify.oracle_count(family, n) for n in range(ORACLE_WEIGHT + 1)]
            self._counts[family] = got
        return got


class CountingCache(verify.SeriesCache):
    """A SeriesCache that counts its lookups by outcome.

    The first lookup of a key is a cold miss.  A lookup that returns the
    object the key returned last time is a hit; one that returns another
    object is a widening, and the coefficients of the object it replaced
    were computed for nothing (``discarded_coeffs``).
    """

    def __init__(self):
        super().__init__()
        self.counts = dict.fromkeys(("hits", "widenings", "misses", "discarded_coeffs"), 0)
        self._last = {}

    def _count(self, key, result):
        prev = self._last.get(key)
        if prev is None:
            self.counts["misses"] += 1
        elif prev is result:
            self.counts["hits"] += 1
        else:
            self.counts["widenings"] += 1
            if not prev.is_zero:
                self.counts["discarded_coeffs"] += int(prev.valid_to) - prev.lead + 1
        self._last[key] = result
        return result

    def family(self, name, valid_to):
        return self._count(name, super().family(name, valid_to))

    def spec(self, spec, valid_to):
        return self._count(spec.render(), super().spec(spec, valid_to))


class Outcome:
    """Work units, attempted and failed operations of one pass, first problems."""

    def __init__(self, units):
        self.units = units
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


# -- ladder ----------------------------------------------------------------

LADDER_BUDGET = 30000
ALPHA_T1, ALPHA_T2 = 2, 3

# Claims that are false, scanned only through weights the oracle can count.
# p(4) = 5 is not divisible by 25, so p[5n+4] mod 25 fails first at n = 0.
KNOWN_FALSE = (
    ("p", 5, 4, 2, 5),
    ("p", 7, 5, 2, 7),
    ("a3", 3, 2, 2, 3),
    ("a3", 9, 5, 3, 3),
    ("a9", 3, 2, 2, 3),
    ("a9", 9, 8, 4, 3),
)


class Ladder:
    """The shipped theorem suite, cold: a fresh SeriesCache every pass."""

    name = "ladder"

    def __init__(self, seed, budget=LADDER_BUDGET):
        self.budget = budget
        self.known_false = []
        for family, stride, offset, exponent, base in KNOWN_FALSE:
            claim = verify.CongruenceClaim(family, stride, offset, exponent, base)
            self.known_false.append((claim, (ORACLE_WEIGHT - offset) // stride))
        self._oracle = OracleTable()
        self.cache = None

    def run_pass(self, tracer=None):
        self.cache = cache = CountingCache()
        suite = verify.theorem_suite(self.budget, alpha_t1=ALPHA_T1,
                                     alpha_t2=ALPHA_T2, cache=cache)
        false = [verify.verify_claim(c, n, c.stride * n + c.offset, cache)
                 for c, n in self.known_false]
        return (suite.claims, false), None

    def expected_failures(self, claim, n_max):
        counts = self._oracle.counts(claim.family)
        return [n for n in range(n_max + 1)
                if counts[claim.stride * n + claim.offset] % claim.modulus]

    def check(self, outputs, pins):
        claims, false = outputs
        out = Outcome(2 * (self.budget + 1))
        pinned = pins["ladder"].get(str(self.budget), {})
        expected_ids = [c.claim_id for c in verify.a3_ladder_claims(ALPHA_T1)
                        + verify.a9_ladder_claims(ALPHA_T2)]
        out.expect([r.claim.claim_id for r in claims] == expected_ids,
                   "theorem suite returned a different claim list")
        for r in claims:
            c = r.claim
            ok = (r.passed and r.min_valuation >= c.modulus_exponent
                  and r.n_max == (self.budget - c.offset) // c.stride
                  and pinned.get(c.claim_id) == digest_claim(r))
            out.expect(ok, f"{c.claim_id}: failures {r.failures[:3]}, "
                           f"min_valuation {r.min_valuation}, n_max {r.n_max}")
        for (claim, n_max), r in zip(self.known_false, false):
            want = self.expected_failures(claim, n_max)
            ok = bool(want) and r.failures == want and r.n_max == n_max
            out.expect(ok, f"{claim.claim_id}: failures {r.failures[:3]}, "
                           f"expected {want[:3]}")
        return out


# -- chains ----------------------------------------------------------------

X_ALPHA, Y_ALPHA = 8, 7
RECON_ALPHA, RECON_ORDER = 3, 60


class Chains:
    """The X chain to alpha 8 and the Y chain to alpha 7, every floor checked."""

    name = "chains"

    def __init__(self, seed, x_alpha=X_ALPHA, y_alpha=Y_ALPHA,
                 recon_alpha=RECON_ALPHA, recon_order=RECON_ORDER):
        self.plan = (("X", x_alpha, "a3"), ("Y", y_alpha, "a9"))
        self.recon_alpha = recon_alpha
        self.recon_order = recon_order
        self.cache = None

    def run_pass(self, tracer=None):
        self.cache = cache = CountingCache()
        order = self.recon_order
        out = []
        for family, alpha, counts in self.plan:
            chain = vectors.chain(family, alpha)
            floors = [vectors.check_valuations(v) for v in chain]
            recons = []
            for v in chain[:self.recon_alpha + 1]:
                stride, offset = vectors.expected_progression(v)
                base = cache.family(counts, stride * order + offset)
                want = huffing.extract_progression(base, stride, offset)
                recons.append((v, vectors.reconstruct(v, order), want))
            out.append((chain, floors, recons))
        return out, None

    def check(self, outputs, pins):
        out = Outcome(0)
        pinned = pins["chains"]
        for (family, alpha, _), (chain, floors, recons) in zip(self.plan, outputs):
            out.expect(len(chain) == alpha + 1, f"{family} chain has {len(chain)} vectors")
            for v, checks in zip(chain, floors):
                out.units += v.support
                bad = [c.index for c in checks if not c.passed]
                ok = (not bad and len(checks) == v.support
                      and pinned.get(f"{v.family}{v.alpha}") == digest_vector(v))
                out.expect(ok, f"{v.family} alpha {v.alpha}: floor violations at "
                               f"{bad[:3]} or digest mismatch")
            for v, got, want in recons:
                ok = got.equal_up_to(want, self.recon_order)
                out.expect(ok, f"{v.family} alpha {v.alpha}: reconstruction differs "
                               f"from extraction")
        return out


# -- requests --------------------------------------------------------------

# The catalog every request is drawn from is fixed, so every possible
# result has a pinned digest; the run seed only picks the stream.
CATALOG_SEED = 2019
QUOTIENTS = 24
EXPAND_ORDERS = (750, 1500, 2250, 3000)
CLAIM_TOPS = (2500, 5000, 7500, 10000)
CLAIM_VARIANTS = 6
HUFF_ROWS = 12
HUFF_ORDERS = (40, 60)
FAMILY_NAMES = ("a", "a3", "a9", "b", "p")


def _factor(k, e):
    return f"f{k}" if e == 1 else f"f{k}^{e}"


def build_catalog():
    """Every request the stream can hold, keyed by a stable name."""
    rng = random.Random(CATALOG_SEED)
    catalog = {}
    for qi in range(QUOTIENTS):
        ks = rng.sample(range(1, 13), rng.randint(2, 4))
        split = rng.randint(1, len(ks) - 1)
        num = [_factor(k, rng.randint(1, 3)) for k in ks[:split]]
        den = [_factor(k, rng.randint(1, 3)) for k in ks[split:]]
        if rng.random() < 0.25:
            num.insert(0, str(rng.randint(2, 5)))
        text = "*".join(num) + "/" + (f"({'*'.join(den)})" if len(den) > 1 else den[0])
        for tier, order in enumerate(EXPAND_ORDERS):
            m = rng.randint(2, 9)
            catalog[f"expand:{qi}:{tier}"] = ("expand", text, order, m, rng.randrange(m))
    for family in FAMILY_NAMES:
        for tier, top in enumerate(CLAIM_TOPS):
            for variant in range(CLAIM_VARIANTS):
                m = rng.randint(2, 13)
                r = top % m
                claim = (family, m, r, rng.randint(1, 2), rng.choice((2, 3, 5, 7)))
                catalog[f"claim:{family}:{tier}:{variant}"] = ("claim", claim, (top - r) // m)
    for row in range(1, HUFF_ROWS + 1):
        for order in HUFF_ORDERS:
            catalog[f"huff_row:{row}:{order}"] = ("huff_row", row, order)
    return catalog


def build_stream(seed, catalog):
    """Every catalog key once, in an order that depends on the seed alone.

    No traffic record exists, so the shape is assumed: every family and
    quotient is asked for at every order tier, and each one's requests
    come in order of rising tier.  The keys are shuffled, then the keys of
    each family's claims and of each quotient's expansions are sorted by
    tier within the positions the shuffle gave them.  So every pass fills
    each family and each quotient once per tier (a cold miss, then three
    widenings) and serves every other claim from the cache.  With a free
    order the number of widenings, and with it the pass time and p50,
    would depend on the seed.
    """
    rng = random.Random(seed)
    keys = sorted(catalog)
    rng.shuffle(keys)
    slots = {}
    for i, key in enumerate(keys):
        kind, name = key.split(":")[:2]
        if kind != "huff_row":
            slots.setdefault((kind, name), []).append(i)
    for positions in slots.values():
        rising = sorted((keys[i] for i in positions), key=lambda k: int(k.split(":")[2]))
        for i, key in zip(positions, rising):
            keys[i] = key
    return keys


def serve(request, cache):
    """Answer one request against the long-lived cache; returns the result."""
    kind = request[0]
    if kind == "expand":
        _, text, order, m, r = request
        series = cache.spec(eta.parse(text), order).truncate(order)
        return huffing.extract_progression(series, m, r)
    if kind == "claim":
        _, (family, m, r, exponent, base), n_max = request
        claim = verify.CongruenceClaim(family, m, r, exponent, base)
        return verify.verify_claim(claim, n_max, m * n_max + r, cache)
    _, row, order = request
    return matrices.verify_huff_expansion(row, order)


def digest_result(kind, result):
    if kind == "expand":
        return digest_series(result)
    if kind == "claim":
        return digest_claim(result)
    return digest_ints("huff_row", [int(result is True)])


class Requests:
    """A closed loop with one client against one long-lived SeriesCache."""

    name = "requests"

    def __init__(self, seed, length=None):
        catalog = build_catalog()
        self.keys = build_stream(seed, catalog)[:length]
        self.requests = [catalog[k] for k in self.keys]
        self.mix = {}
        for request in self.requests:
            self.mix[request[0]] = self.mix.get(request[0], 0) + 1
        self._oracle = OracleTable()
        self.cache = None
        self.filled = []

    def run_pass(self, tracer=None):
        """Serve the stream; returns (results, per-request latencies in ms).

        ``filled`` records which requests filled the cache (a cold miss or
        a widening), so the report can say what the latency tail is made of.
        """
        self.cache = cache = CountingCache()
        counts = cache.counts
        results, latencies, self.filled = [], [], []
        for rid, request in enumerate(self.requests):
            fills = counts["misses"] + counts["widenings"]
            span = None
            if tracer is not None:
                tracer.request_id = rid
                span = tracer.begin("bench.request")
            t0 = perf_counter()
            try:
                result = serve(request, cache)
            except Exception as exc:  # a failed request is counted, not fatal
                result = exc
            latencies.append((perf_counter() - t0) * 1000.0)
            self.filled.append(counts["misses"] + counts["widenings"] > fills)
            if span is not None:
                tracer.finish(span)
            results.append(result)
        if tracer is not None:
            tracer.request_id = -1
        return (results, cache), latencies

    def check(self, outputs, pins):
        results, cache = outputs
        out = Outcome(len(results))
        pinned = pins["requests"]
        for key, request, result in zip(self.keys, self.requests, results):
            if isinstance(result, Exception):
                out.expect(False, f"{key}: {type(result).__name__}: {result}")
                continue
            ok = pinned.get(key) == digest_result(request[0], result)
            if request[0] == "huff_row":
                ok = ok and result is True
            out.expect(ok, f"{key}: digest mismatch")
        for family in FAMILY_NAMES:
            series = cache.family(family, ORACLE_WEIGHT)
            got = series.coefficients(0, ORACLE_WEIGHT)
            out.expect(got == self._oracle.counts(family),
                       f"{family}: counts differ from the oracle at small weights")
        return out


WORKLOADS = {cls.name: cls for cls in (Ladder, Chains, Requests)}
