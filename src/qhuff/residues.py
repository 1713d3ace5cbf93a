"""Eta-quotient expansion, exact or modulo an integer, that resumes.

Every expansion runs through one function, :func:`_expand`.  The
constant and the positive factors are multiplied exactly; then each
divisor of the spec's plan divides the product in turn.  f_k^e is
planned as |e| // 3 Jacobi cubes, f_k^3 = sum over j >= 0 of (-1)^j
(2j+1) q^(k j(j+1)/2), each sparser than one f_k, times f_k^(|e| mod 3);
when that many sparse steps cost more than squaring, as one
``Series.power`` (and one division).  A factor f_k with k past the
working order is 1 there and is left out.

It also returns the division state: the plan, and the outputs of every
division but the last, whose outputs the series holds.  Given it, a
wider expansion recomputes only the numerator and the divisors, which
are sparse and cheap, and resumes every division where it stopped, so
only the coefficients it lacks are divided.

Two routes share it; only the division kernel and the stage encoding
differ.

- Exact (:func:`expand_exact`, behind ``eta.expand_spec`` and every exact
  ``SeriesCache`` key) divides with ``series._recip_core`` by pentagonal
  f_k, Jacobi cubes and powers.  A stage is kept as signed fixed-width
  bytes (:func:`pack_stage`): its quotients are signed integers of
  every size (1 to 24 bytes for the benchmark's request quotients at 3000
  coefficients), and as Python ints they take 3.6 times the memory.
- Residues (:func:`expand_spec_residues`, a :class:`Reduced` spec) keep
  every coefficient in [0, modulus).  Every congruence claim reads these:
  a claim mod b^k is decided by the coefficients mod any multiple of b^k,
  and residues below 2^51 divide far faster than exact integers of
  hundreds of bits.  :func:`div_residues` needs divisor terms of -1, 0 or
  +1, so each f_k divides once per unit of exponent, and a stage is its
  packed 64-bit slots.

The verify layer and ``eta.expand_spec`` import this module on first use,
so ``import qhuff`` does not load it.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt

from .eta import EtaQuotientSpec, expand_eta
from .series import Series, _recip_core

# Divisor terms with exponents of at least _BLOCK update whole blocks of
# outputs, those from _SUB up 32-slot sub-blocks; only shorter shifts
# run one coefficient at a time.
_BLOCK = 512
_SUB = 32
_SLOT_LIMIT = 1 << 64


def _packed(values):
    """Little-endian bytes of nonnegative values, one 64-bit slot each."""
    slots = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tobytes()


def _slots(x, width):
    """The ``width`` 64-bit slots of a packed int, lowest first."""
    slots = array("Q", x.to_bytes(8 * width, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _windows(view, exps, lo, hi):
    """Sum of the packed windows out[lo - e: hi - e], e in sorted ``exps``.

    Each window is read from the packed outputs in ``view`` as one int;
    one that would start before out[0] is shifted to its first slot.
    Returns the sum and the number of windows, those of every e < hi.
    """
    full = bisect_right(exps, lo)
    end = bisect_left(exps, hi, full)
    a, b = 8 * lo, 8 * hi
    total = sum([int.from_bytes(view[a - 8 * e: b - 8 * e], "little")
                 for e in exps[:full]])
    for e in exps[full:end]:
        total += int.from_bytes(view[:b - 8 * e], "little") << 64 * (e - lo)
    return total, end


def _window_sum(view, terms, lo, hi, acc, modulus):
    """Packed ``acc`` - sum of c*out[n - e] over the terms, for lo <= n < hi.

    ``terms`` holds the exponents of the +1 and of the -1 divisor terms.
    The subtracted windows are summed apart and ``modulus`` is added to
    every slot once per subtracted window, so no slot borrows.
    """
    sub, add = terms
    plus, _ = _windows(view, add, lo, hi)
    minus, count = _windows(view, sub, lo, hi)
    acc += plus
    if count:
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * (hi - lo), "little")
        acc += count * modulus * ones - minus
    return acc


def div_residues(num, den, length, modulus, packed=None):
    """Residues in [0, modulus) of the coefficients of num/den mod q^length.

    ``den[0]`` must be +1 or -1 and every other coefficient of ``den`` -1,
    0 or +1, as in every f_k; ``num`` may hold any integers.  The outputs
    are also kept packed, one little-endian 64-bit slot each, in the
    bytearray ``packed``.  A divisor term with exponent at least _BLOCK
    updates a whole block of outputs at once, one from _SUB up a sub-block,
    by adding the window of earlier outputs it reads as one int (see
    :func:`_window_sum`).  Every slot then stays below (packed terms + 1) *
    modulus, which is checked to fit 64 bits before anything is computed.
    Each sub-block is unpacked once, and the terms below _SUB run on its
    coefficients one at a time, with % modulus.

    A division resumes where an earlier call stopped: ``packed`` may hold
    the packed outputs 0..start-1 of that call, and is extended in place
    to all ``length`` outputs.  Then ``num`` holds the numerator from
    q^start on, and only outputs start..length-1 are computed and
    returned.  Without ``packed``, start is 0.
    """
    if packed is None:
        packed = bytearray()
    start = len(packed) // 8
    if length <= start:
        return []
    if den[0] == -1:
        den = [-c for c in den]
        num = [-c for c in num]
    near_sub, near_add = [], []
    mid, far = ([], []), ([], [])
    for e in range(1, min(len(den), length)):
        c = den[e]
        if not c:
            continue
        if c not in (1, -1):
            raise ValueError(f"divisor coefficient {c} of q^{e} is not -1, 0 or 1")
        if e < _SUB:
            (near_sub if c == 1 else near_add).append(e)
        else:
            (mid if e < _BLOCK else far)[c == -1].append(e)
    count = sum(map(len, mid + far))
    if (count + 1) * modulus > _SLOT_LIMIT:
        raise OverflowError(f"{count} packed divisor terms at modulus {modulus} "
                            f"overflow a 64-bit slot")
    res = [c % modulus for c in num[:length - start]]
    res += [0] * (length - start - len(res))
    # Only the last _SUB - 1 earlier outputs are read one at a time.
    tail = max(start - _SUB + 1, 0)
    out = [0] * tail + list(_slots(int.from_bytes(packed[8 * tail:], "little"),
                                   start - tail))
    out += [0] * (length - start)
    packed += bytes(8 * (length - start))
    with memoryview(packed) as view:
        for lo in range(start, length, _BLOCK):
            hi = min(lo + _BLOCK, length)
            acc = int.from_bytes(_packed(res[lo - start: hi - start]), "little")
            block = _window_sum(view, far, lo, hi, acc, modulus)
            block = block.to_bytes(8 * (hi - lo), "little")
            for s in range(lo, hi, _SUB):
                t = min(s + _SUB, hi)
                acc = int.from_bytes(block[8 * (s - lo): 8 * (t - lo)], "little")
                vals = _slots(_window_sum(view, mid, s, t, acc, modulus), t - s)
                for n in range(s, t):
                    v = vals[n - s]
                    for e in near_sub:
                        if e > n:
                            break
                        v -= out[n - e]
                    for e in near_add:
                        if e > n:
                            break
                        v += out[n - e]
                    out[n] = v % modulus
                view[8 * s: 8 * t] = _packed(out[s:t])
    del out[:start]
    return out


def _run(series, lo, hi):
    """Coefficients of q^lo..q^hi of ``series``, zeros included."""
    out = [0] * (hi - lo + 1)
    a = max(series.lead, lo)
    b = min(series.lead + len(series.coeffs), hi + 1)
    if a < b:
        out[a - lo: b - lo] = series.coeffs[a - series.lead: b - series.lead]
    return out


def pack_stage(values):
    """A division stage as (width, data): each value signed, little-endian.

    The width in bytes is the fewest that hold the largest magnitude and a
    sign bit; ``int.to_bytes`` takes integers of any size, so no digit
    limit applies.  ``data`` is one bytearray, grown value by value.
    """
    width = max(map(int.bit_length, values), default=0) // 8 + 1
    data = bytearray()
    for v in values:
        data += v.to_bytes(width, "little", signed=True)
    return width, data


def unpack_stage(stage):
    """The values :func:`pack_stage` packed, as a new list."""
    width, data = stage
    return [int.from_bytes(data[i:i + width], "little", signed=True)
            for i in range(0, len(data), width)]


def jacobi_cube(k, order):
    """f_k^3 valid through exponent ``k*(order//k) + k - 1``, as ``expand_eta``.

    By Jacobi's identity f_k^3 = sum over j >= 0 of (-1)^j (2j+1)
    q^(k j(j+1)/2): about 1.4 sqrt(n/k) terms through q^n, against about
    1.6 sqrt(n/k) for one f_k.
    """
    m = order // k
    out = [0] * (m + 1)
    j = t = 0
    while t <= m:
        out[t] = -2 * j - 1 if j % 2 else 2 * j + 1
        j += 1
        t += j
    return Series(0, out, m).dilate(k)


def _powered(k, e, inner):
    """Whether f_k^|e| through q^inner costs less by ``Series.power``.

    Each of the |e| // 3 sparse steps costs a pass over the product per
    term of f_k^3; squaring costs a pass per coefficient, once per bit of
    the exponent, when the factors have turned dense.
    """
    cubes = abs(e) // 3
    terms = (isqrt(8 * (inner // k) + 1) + 1) // 2
    return cubes * terms > (inner + 1) * cubes.bit_length()


def _split(k, e, inner):
    """The exponents p of the f_k^p whose product is f_k^|e| through q^inner.

    3 for each Jacobi cube and 1 for each other f_k, or |e| alone when
    :func:`_powered`.
    """
    if _powered(k, e, inner):
        return [abs(e)]
    cubes, rest = divmod(abs(e), 3)
    return [3] * cubes + [1] * rest


def _eta_power(k, p, inner):
    """f_k^p through q^inner, for a p that :func:`_split` gives."""
    if p == 1:
        return expand_eta(k, inner)
    acc = jacobi_cube(k, inner)
    if p > 3:
        acc = acc.power(p // 3)
    for _ in range(p % 3):
        acc = acc * expand_eta(k, inner)
    return acc


def _terms(series):
    return len(series.coeffs) - series.coeffs.count(0)


def _numerator(spec, inner):
    """The constant times every positive factor with k <= inner, exact through q^inner.

    The factors multiply in sparsest first, so the product stays sparse as
    long as it can.
    """
    plan = [(k, p) for k, e in spec.factors.items() if e > 0 and k <= inner
            for p in _split(k, e, inner)]
    powers = {kp: _eta_power(*kp, inner) for kp in set(plan)}
    acc = Series(0, (spec.constant,), inner)
    for part in sorted((powers[kp] for kp in plan), key=_terms):
        acc = acc * part
    return acc


class _Exact:
    """The exact route: divisors f_k, Jacobi cubes and powers; stages packed signed."""

    split = staticmethod(_split)
    divisor = staticmethod(_eta_power)
    divide = staticmethod(_recip_core)
    start = list
    open = staticmethod(unpack_stage)
    close = staticmethod(pack_stage)

    @staticmethod
    def reduce(run):
        return run


class _Residues:
    """The residue route: one f_k per unit of exponent; stages in 64-bit slots.

    A stage is the bytearray :func:`div_residues` extends in place.  It is
    stored as it is and copied when reopened, so a stored state never
    changes.
    """

    open = bytearray

    def __init__(self, modulus):
        self.modulus = modulus

    @staticmethod
    def split(k, e, inner):
        return [1] * abs(e)

    @staticmethod
    def divisor(k, p, inner):
        return expand_eta(k, inner)

    @staticmethod
    def start(run):
        return bytearray(_packed(run))

    def reduce(self, run):
        return [c % self.modulus for c in run]

    def divide(self, num, den, length, stage):
        return div_residues(num, den, length, self.modulus, stage)

    @staticmethod
    def close(stage):
        return stage


def _expand(spec, order, route, prior=None, keep=True):
    """``spec`` through ``order`` by ``route``, and its division state.

    The state is None when nothing can resume: the plan has no division,
    or ``keep`` is false.  Otherwise it is (plan, stages): the (k, p) of
    every division, f_k^p being its divisor, and the outputs of every
    division but the last, closed by the route; the series holds the last
    one's.  Given the ``prior`` (series, state) of the same spec at a lower
    order, every division resumes from its stored outputs and computes only
    the new ones.  The prior's plan is kept; a divisor it left out (k past
    its order, where f_k = 1) divides last, and through the prior's order
    its outputs, like those of the prior's last division, are the prior
    series.  The prior is left as it was.
    """
    inner = order - spec.qshift
    plan, stages, last = (), (), []
    if prior is not None:
        old, (plan, stages) = prior
        last = _run(old, spec.qshift, int(old.valid_to))
    planned = {k for k, _ in plan}
    plan += tuple((k, p) for k, e in spec.factors.items()
                  if e < 0 and k <= inner and k not in planned
                  for p in route.split(k, e, inner))
    run = route.reduce(_run(_numerator(spec, inner), len(last), inner))
    if not plan:
        return Series(spec.qshift, last + run, order), None
    kept = []
    for i, kp in enumerate(plan):
        if i == 0 or kp != plan[i - 1]:  # a divisor's repeats come in a row
            den = route.divisor(*kp, inner).coeffs
        stage = route.open(stages[i]) if i < len(stages) else route.start(last)
        run = route.divide(run, den, inner + 1, stage)
        if keep and i < len(plan) - 1:
            kept.append(route.close(stage))
    state = (plan, tuple(kept)) if keep else None
    return Series(spec.qshift, last + run, order), state


def _check_order(spec, order):
    if order < spec.qshift:
        raise ValueError(f"order {order} is below the q-shift {spec.qshift}")


def expand_exact(spec, order, prior=None, keep=True):
    """``eta.expand_spec`` of ``spec``, and its division state (see :func:`_expand`).

    Without ``keep`` no state is packed, and None is returned for it.
    """
    _check_order(spec, order)
    if spec.constant == 0:
        return Series.zero(), None
    return _expand(spec, order, _Exact, prior, keep)


def expand_spec_residues(spec, order, modulus, prior=None):
    """``expand_spec`` with every coefficient reduced into [0, modulus).

    Only congruences modulo divisors of ``modulus`` can be read from the
    result, which keeps the validity bound of the exact expansion.  It and
    its state resume as :func:`_expand` says.  A divisor f_k^|e| that
    :func:`_powered` would raise by squaring is too costly one f_k at a
    time: then the exact series is reduced, and no state is returned.
    """
    _check_order(spec, order)
    if spec.constant % modulus == 0:
        return Series(0, (), order), None
    inner = order - spec.qshift
    if any(e < 0 and k <= inner and _powered(k, e, inner)
           for k, e in spec.factors.items()):
        exact, _ = expand_exact(spec, order, keep=False)
        return Series(exact.lead, [c % modulus for c in exact.coeffs], order), None
    return _expand(spec, order, _Residues(modulus), prior)


@dataclass(frozen=True)
class Reduced:
    """An eta quotient whose coefficients are wanted modulo ``modulus``.

    It renders to a text no exact spec renders to, so a cache keyed by
    ``render()`` never hands an exact lookup its residues.
    """

    spec: EtaQuotientSpec
    modulus: int

    def render(self):
        return f"({self.spec.render()}) mod {self.modulus}"

    def expand(self, order, prior=None):
        return expand_spec_residues(self.spec, order, self.modulus, prior)
