"""Eta-quotient expansion, exact or modulo an integer, that resumes.

Every expansion runs one plan of stages through :func:`_expand`.  The
constant starts the run; each stage then multiplies it by, or divides it
by, f_k^p for one factor of the spec: first every multiplication,
sparsest first, then every division.  f_k^|e| is planned as |e| // 3
Jacobi cubes, f_k^3 = sum over j >= 0 of (-1)^j (2j+1) q^(k j(j+1)/2),
each sparser than one f_k, and |e| mod 3 single f_k, except that
f_k^-(3q+2) = f_k / (f_k^3)^(q+1) multiplies by f_k and divides by q + 1
cubes; when that many sparse steps cost more than squaring, f_k^|e| is
one ``Series.power`` stage.  A factor f_k with k past the working order
is 1 there and is left out.

It also returns the plan's state: the plan, and the outputs of every
stage but two, the last, whose outputs the series holds, and a first
multiplication, whose outputs are the constant times its factor.  Given
it, a wider expansion recomputes only the factors, which are sparse and
cheap, and resumes every stage where it stopped: a multiplication
computes its new outputs from its input's outputs, a division from its
own earlier ones.  No stored coefficient is computed again.

Two routes share the plan (:func:`_plan`); the kernels, the divisors and
the stage encoding differ, and so does the plan where a cube does not fit
a residue slot.

- Exact (:func:`expand_exact`, behind ``eta.expand_spec`` and every exact
  ``SeriesCache`` key) multiplies with ``series._mul_core`` and divides
  with ``series._recip_core``.  A kept stage is packed by
  :func:`pack_stage`, each block of _BLOCK outputs as an ``array`` of the
  narrowest signed typecode that holds it, or past 64 bits as signed
  fixed-width bytes: multiplication stages hold small integers, division
  stages quotients that grow along the series (to 24 bytes for the
  benchmark's request quotients at 3000 coefficients), and as Python
  ints they take about ten times the memory.
- Residues (:func:`expand_spec_residues`, a :class:`Reduced` spec) keep
  every coefficient in [0, modulus), modulus at most 2^64.  Every
  congruence claim reads these: a claim mod b^k is decided by the
  coefficients mod any multiple of b^k, and residues below 2^51 divide far
  faster than exact integers of hundreds of bits.  A division stage is its
  packed 64-bit slots, and the series holds its run in 64-bit slots too,
  an ``array('Q')``, read from the last stage when that divides: 8 bytes a
  coefficient, against about 40 as a Python int, in the series, a
  ``SeriesCache`` entry and a worker's pickled reply.  A multiplication
  stage is kept as the exact route keeps its stages, each residue first
  moved into (-modulus/2, modulus/2], so that the small coefficients of
  products of f_k pack into a byte or two.
  :func:`div_residues` adds each window of earlier outputs it reads, times
  its divisor coefficient, into the slots, so a slot stays below
  (weight + 1) * modulus, the weight being the summed magnitudes of those
  coefficients; the division is taken only where that fits 64 bits.  It
  reads each completed block of _BLOCK outputs from the packed bytes once,
  into one int with the block after it, and cuts the window of a far term
  from such a pair with a shift and a mask; nearer windows are read from
  the bytes.  A Jacobi cube's weight grows as about 2n/k through q^n, past
  2^64 / modulus near 1.8e5 coefficients for f1 mod
  ``verify.CLAIM_MODULUS`` and near 5000 mod 3^32; f_k's grows as about
  1.6 sqrt(n/k).  So f_k^-|e| divides by cubes only where the cube fits;
  elsewhere f_k divides once per unit of exponent.  A stored plan whose
  cubes stop fitting at a wider order is dropped, and the series is
  expanded again from q^0 by single f_k.

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
from .series import Series, _mul_core, _nonzeros, _recip_core

# Divisor terms with exponents of at least _BLOCK update whole blocks of
# outputs, those from _SUB up 32-slot sub-blocks; only shorter shifts
# run one coefficient at a time.
_BLOCK = 512
_SUB = 32
_SLOT_LIMIT = 1 << 64

# The signed array typecodes a kept exact stage may take, narrowest
# first, each with the least magnitude it cannot hold.
_TYPECODES = sorted((1 << 8 * array(code).itemsize - 1, code) for code in "bhiq")


def _packed(values):
    """Little-endian bytes of nonnegative values, one 64-bit slot each."""
    slots = array("Q", values)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tobytes()


def _slots(data):
    """The 64-bit slots of little-endian bytes (any buffer), as an ``array``."""
    slots = array("Q")
    slots.frombytes(data)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots


def _window_terms(pairs):
    """(exponents, weights) of sorted (e, w) pairs; weights None when all are 1."""
    exps = [e for e, _ in pairs]
    weights = [w for _, w in pairs]
    return exps, None if all(w == 1 for w in weights) else weights


def _windows(view, terms, lo, hi):
    """Sum of w * out[lo - e: hi - e] over the (e, w) of ``terms``.

    Each window is read from the packed outputs in ``view`` as one int;
    one that would start before out[0] is shifted to its first slot.
    Returns the sum and the summed weight of the windows, those of every
    e < hi.  Unit weights are summed as plain reads (see
    :func:`div_residues`).
    """
    exps, weights = terms
    full = bisect_right(exps, lo)
    end = bisect_left(exps, hi, full)
    a, b = 8 * lo, 8 * hi
    if weights is None:
        total = sum([int.from_bytes(view[a - 8 * e: b - 8 * e], "little")
                     for e in exps[:full]])
        for e in exps[full:end]:
            total += int.from_bytes(view[:b - 8 * e], "little") << 64 * (e - lo)
        return total, end
    total = sum([w * int.from_bytes(view[a - 8 * e: b - 8 * e], "little")
                 for e, w in zip(exps[:full], weights)])
    for e, w in zip(exps[full:end], weights[full:end]):
        total += w * int.from_bytes(view[:b - 8 * e], "little") << 64 * (e - lo)
    return total, sum(weights[:end])


def _far_windows(pairs, terms, lo, hi):
    """As :func:`_windows`, for terms with e >= _BLOCK, from ints of block pairs.

    ``pairs[b]`` holds out[_BLOCK * b: _BLOCK * (b + 2)] as one int, or
    its first half while the second block is not complete; a window is
    the pair it starts in shifted down, masked to its hi - lo slots.  One
    that would start before out[0] is the first pair shifted up.
    """
    exps, weights = terms
    full = bisect_right(exps, lo)
    end = bisect_left(exps, hi, full)
    mask = (1 << 64 * (hi - lo)) - 1
    windows = [pairs[(lo - e) // _BLOCK] >> 64 * ((lo - e) % _BLOCK) & mask
               for e in exps[:full]]
    windows += [pairs[0] << 64 * (e - lo) & mask for e in exps[full:end]]
    if weights is None:
        return sum(windows), end
    return sum([w * x for w, x in zip(weights, windows)]), sum(weights[:end])


def _add_block(pairs, view, a):
    """Read the completed block out[a: a + _BLOCK] into ``pairs`` (see :func:`_far_windows`).

    It becomes the top half of the block before's pair and the first of
    its own.  Holding each block twice costs 8 KB a block while the call
    runs; joining two block ints for each window instead, with a mask
    built for the low one, divided by f1 and by f2 through 30001
    coefficients mod 3^32 7-8% slower (best of 20, interleaved).
    """
    block = int.from_bytes(view[8 * a: 8 * (a + _BLOCK)], "little")
    if pairs:
        pairs[-1] |= block << 64 * _BLOCK
    pairs.append(block)


def _window_sum(windows, source, terms, lo, hi, acc, modulus):
    """Packed ``acc`` - sum of c*out[n - e] over the terms, for lo <= n < hi.

    ``terms`` holds the window terms of the positive and of the negative
    divisor coefficients, each with weight |c|, and ``windows(source,
    terms, lo, hi)`` sums them.  The subtracted windows are summed apart
    and ``modulus`` is added to every slot once per unit of their weight,
    so no slot borrows.
    """
    sub, add = terms
    plus, _ = windows(source, add, lo, hi)
    minus, weight = windows(source, sub, lo, hi)
    acc += plus
    if weight:
        ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * (hi - lo), "little")
        acc += weight * modulus * ones - minus
    return acc


def div_residues(num, den, length, modulus, packed=None):
    """Residues in [0, modulus) of the coefficients of num/den mod q^length.

    ``den[0]`` must be +1 or -1; ``num`` and the rest of ``den`` may hold
    any integers.  The outputs are kept packed, one little-endian 64-bit
    slot each, in the bytearray ``packed``, and returned as an
    ``array('Q')`` read from it.  A divisor term c q^e
    with e at least _BLOCK updates a whole block of outputs at once, one
    from _SUB up a sub-block, by adding |c| times the window of earlier
    outputs it reads as one int (see :func:`_window_sum`).  Every slot
    then stays below (weight + 1) * modulus, the weight being the summed
    |c| of those terms, which is checked to fit 64 bits before anything is
    computed; an OverflowError says it does not.
    Blocks end on multiples of _BLOCK, and each completed block is read
    from ``packed`` once, into the ints of the block pairs it is part of
    (see :func:`_far_windows`), so a far window is one shift and one mask
    of an int that exists; a sub-block's windows are read from the bytes.
    Each sub-block is unpacked once, and the terms below _SUB run on its
    coefficients one at a time, with % modulus, reading the last _SUB - 1
    outputs from a list at negative offsets, zeros before out[0].

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
        return array("Q")
    sign = den[0]
    num = num if sign == 1 else [-c for c in num]
    near = []
    mid, far = ([], []), ([], [])
    for e, c in _nonzeros(den[:length])[1:]:
        c *= sign
        if e < _SUB:
            near.append((e, c))
        else:
            (mid if e < _BLOCK else far)[c < 0].append((e, abs(c)))
    weight = sum(w for terms in mid + far for _, w in terms)
    if (weight + 1) * modulus > _SLOT_LIMIT:
        raise OverflowError(f"packed divisor weight {weight} at modulus {modulus} "
                            f"overflows a 64-bit slot")
    mid, far = tuple(map(_window_terms, mid)), tuple(map(_window_terms, far))
    near_sub = [-e for e, c in near if c == 1]
    near_add = [-e for e, c in near if c == -1]
    near = [(-e, c) for e, c in near]
    # A unit divisor (every f_k) reads its windows and near terms without
    # multiplying by 1: through the weighted path alone, dividing by f1
    # and f2 through 30001 coefficients mod 3^32 took 25% longer, and so
    # did a `ladder` pass, which divides by nothing else.
    near_units = len(near_sub) + len(near_add) == len(near)
    # The near terms read the last _SUB - 1 outputs at negative offsets;
    # those before out[0] read 0.
    tail = max(start - _SUB + 1, 0)
    recent = [0] * (_SUB - 1 - start + tail) + list(_slots(packed[8 * tail:]))
    packed += bytes(8 * (length - start))
    with memoryview(packed) as view:
        pairs = []
        for a in range(0, start - _BLOCK + 1, _BLOCK):
            _add_block(pairs, view, a)
        for edge in range(start - start % _BLOCK, length, _BLOCK):
            lo, hi = max(edge, start), min(edge + _BLOCK, length)
            # The numerator is reduced a block at a time: a list of all its
            # residues would live as long as the pairs.
            acc = [c % modulus for c in num[lo - start: hi - start]]
            acc = int.from_bytes(_packed(acc), "little")
            block = _window_sum(_far_windows, pairs, far, lo, hi, acc, modulus)
            block = block.to_bytes(8 * (hi - lo), "little")
            for s in range(lo, hi, _SUB):
                t = min(s + _SUB, hi)
                acc = int.from_bytes(block[8 * (s - lo): 8 * (t - lo)], "little")
                vals = _slots(_window_sum(_windows, view, mid, s, t, acc, modulus)
                              .to_bytes(8 * (t - s), "little"))
                if near_units:
                    for v in vals:
                        for i in near_sub:
                            v -= recent[i]
                        for i in near_add:
                            v += recent[i]
                        recent.append(v % modulus)
                else:
                    for v in vals:
                        for i, c in near:
                            v -= c * recent[i]
                        recent.append(v % modulus)
                view[8 * s: 8 * t] = _packed(recent[_SUB - 1:])
                del recent[:t - s]
            if hi == edge + _BLOCK:
                _add_block(pairs, view, edge)
        return _slots(view[8 * start:])


def _pack_block(values):
    """``values`` as an ``array`` of the narrowest signed typecode that holds
    them all, or past 64 bits as (width, data): each value signed and
    little-endian in ``width`` bytes, the fewest that hold the largest
    magnitude and a sign bit."""
    lo, hi = min(values, default=0), max(values, default=0)
    for bound, code in _TYPECODES:
        if -bound <= lo and hi < bound:
            return array(code, values)
    width = max(hi, -lo).bit_length() // 8 + 1
    return width, b"".join([v.to_bytes(width, "little", signed=True) for v in values])


def pack_stage(values):
    """A kept exact stage: its integer outputs in few bytes each.

    Each block of _BLOCK outputs is packed as narrow as its own largest
    value needs (:func:`_pack_block`), since the outputs of a quotient grow
    along the series: one width for a3's 200001 first-division outputs
    would take half as much again.  ``int.to_bytes`` takes integers of any
    size, so no digit limit applies.
    """
    return tuple(_pack_block(values[i:i + _BLOCK]) for i in range(0, len(values), _BLOCK))


def unpack_stage(stage):
    """The values :func:`pack_stage` packed, as a new list."""
    out = []
    for block in stage:
        if isinstance(block, array):
            out += block
        else:
            width, data = block
            out += [int.from_bytes(data[i:i + width], "little", signed=True)
                    for i in range(0, len(data), width)]
    return out


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


def _cube_terms(m):
    """The number of terms of f_1^3 through q^m: of the j >= 0 with j(j+1)/2 <= m."""
    return (isqrt(8 * m + 1) + 1) // 2


def _cube_weight(k, inner):
    """The summed |c| of the terms c q^e of f_k^3 with _SUB <= e <= inner.

    These are the terms :func:`div_residues` reads as windows.  The term
    of j has e = k j(j+1)/2 and |c| = 2j + 1, so with ``low`` terms below
    q^_SUB and ``top`` through q^inner the weight is the sum of 2j + 1
    over low <= j < top, top^2 - low^2.
    """
    top = _cube_terms(inner // k)
    low = _cube_terms((_SUB - 1) // k)
    return max(top * top - low * low, 0)


def _powered(k, e, inner):
    """Whether f_k^|e| through q^inner costs less by ``Series.power``.

    Each of the |e| // 3 sparse steps costs a pass over the product per
    term of f_k^3; squaring costs a pass per coefficient, once per bit of
    the exponent, when the factors have turned dense.
    """
    cubes = abs(e) // 3
    return cubes * _cube_terms(inner // k) > (inner + 1) * cubes.bit_length()


def _eta_power(k, p, inner):
    """f_k^p through q^inner, for a p > 0 of a stage that :func:`_plan` gives."""
    if p == 1:
        return expand_eta(k, inner)
    acc = jacobi_cube(k, inner)
    if p > 3:
        acc = acc.power(p // 3)
    for _ in range(p % 3):
        acc = acc * expand_eta(k, inner)
    return acc


def _terms(coeffs):
    return len(coeffs) - coeffs.count(0)


def _plan(factors, inner, fits):
    """The stages (k, p) of f_k^e for each (k, e) of ``factors``.

    A stage multiplies by f_k^p when p > 0 and divides by f_k^-p otherwise.
    f_k^e is one stage when :func:`_powered`, and else |e| // 3 Jacobi cubes
    and |e| mod 3 single f_k, except that a divisor takes cubes only where
    ``fits(k, inner)``, and f_k^-(3q+2) = f_k / (f_k^3)^(q+1).  A divisor
    whose cube does not fit is one f_k per unit of exponent.
    """
    plan = []
    for k, e in factors.items():
        cubes, rest = divmod(abs(e), 3)
        if _powered(k, e, inner):
            plan.append((k, e))
        elif e > 0:
            plan += [(k, 3)] * cubes + [(k, 1)] * rest
        elif fits(k, inner):
            up = rest // 2
            plan += [(k, 1)] * up + [(k, -3)] * (cubes + up) + [(k, -1)] * (rest % 2)
        else:
            plan += [(k, -1)] * -e
    return plan


def expand_passes(spec, order):
    """The passes over the series that :func:`expand_exact` makes through ``order``.

    One per stage (k, p) of its plan by a sparse factor, an f_k or a
    Jacobi cube.  A factor raised by ``Series.power`` is dense: its stage,
    and each squaring and multiplication that raise it, take one pass per
    coefficient, since every coefficient of one dense factor sweeps the
    other.
    """
    inner = order - spec.qshift
    passes = 0
    for _, p in _plan({k: e for k, e in spec.factors.items() if k <= inner}, inner, _Exact.fits):
        cubes, rest = divmod(abs(p), 3)
        if abs(p) <= 3:
            passes += 1
        else:
            passes += (cubes.bit_length() + cubes.bit_count() - 1 + rest) * (inner + 1)
    return passes


class _Exact:
    """The exact route: stages are lists while they run, kept packed signed."""

    fits = staticmethod(lambda k, inner: True)  # exact stages have no slots
    divide = staticmethod(_recip_core)
    open = staticmethod(unpack_stage)
    close = staticmethod(pack_stage)

    @staticmethod
    def start(run, multiply):
        return list(run)

    @staticmethod
    def values(stage):
        return stage

    @staticmethod
    def reduce(run):
        return run

    @staticmethod
    def whole(last, run, stage):
        return last + run

    @staticmethod
    def multiply(values, part, length, stage):
        run = _mul_core(values, part, length, len(stage))
        stage += run
        return run


class _Residues:
    """The residue route: weighted divisions by fitting cubes.

    A division stage is a bytearray of packed 64-bit slots, which
    :func:`div_residues` extends in place; it is stored as it is and copied
    when reopened, so a stored state never changes.  A multiplication
    stage is a list while it runs and is kept by :func:`pack_stage`, each
    residue moved into (-modulus/2, modulus/2] first: products of f_k have
    small coefficients, which then pack into a byte or two.  The series'
    run is an ``array('Q')``: the last stage's slots when it divides.
    """

    def __init__(self, modulus):
        self.modulus = modulus

    def fits(self, k, inner):
        """Whether :func:`div_residues` takes f_k^3 through q^inner (see :func:`_cube_weight`)."""
        return (_cube_weight(k, inner) + 1) * self.modulus <= _SLOT_LIMIT

    @staticmethod
    def start(run, multiply):
        return list(run) if multiply else bytearray(_packed(run))

    @staticmethod
    def open(stored):
        return bytearray(stored) if isinstance(stored, bytearray) else unpack_stage(stored)

    def close(self, stage):
        if isinstance(stage, bytearray):
            return stage
        half = self.modulus // 2
        return pack_stage([v - self.modulus if v > half else v for v in stage])

    @staticmethod
    def values(stage):
        return _slots(stage) if isinstance(stage, bytearray) else stage

    def reduce(self, run):
        return [c % self.modulus for c in run]

    @staticmethod
    def whole(last, run, stage):
        """The series' run in 64-bit slots; a last division's stage holds all of it."""
        if isinstance(stage, bytearray):
            return _slots(stage) if last else run
        return array("Q", last + run)

    def multiply(self, values, part, length, stage):
        run = self.reduce(_mul_core(values, part, length, len(stage)))
        stage += run
        return run

    def divide(self, num, den, length, stage):
        return div_residues(num, den, length, self.modulus, stage)


def _expand(spec, order, route, prior=None, keep=True):
    """``spec`` through ``order`` by ``route``, and its plan's state.

    The state is None when nothing can resume: the plan is empty (no
    factor reaches the order), or ``keep`` is false.  Otherwise it is
    (plan, stages): the (k, p) of every stage, multiplying by f_k^p when
    p > 0 and dividing by f_k^-p otherwise, and the outputs of every stage
    but the last, closed by the route; the series holds the last one's.
    A first multiplication is left out of the stages too: its outputs are
    the constant times its factor, rebuilt at every order.
    Given the ``prior`` (series, state) of the same spec at a lower order,
    every stage resumes from its stored outputs and computes only the new
    ones.  The prior's plan is kept; the stages of a factor it left out
    (k past its order, where f_k = 1) run last, and through the prior's
    order their outputs, like those of the prior's last stage, are the
    prior series.  The prior is left as it was.
    """
    inner = order - spec.qshift
    length = inner + 1
    plan, stages, last = (), (), []
    if prior is not None:
        old, (plan, stages) = prior
        last = old.coefficients(spec.qshift, old.valid_to)
    planned = {k for k, _ in plan}
    added = _plan({k: e for k, e in spec.factors.items()
                   if k <= inner and k not in planned}, inner, route.fits)
    ups = [kp for kp in added if kp[1] > 0]
    parts = {kp: _eta_power(*kp, inner).coeffs for kp in ups}
    plan += tuple(sorted(ups, key=lambda kp: _terms(parts[kp])))
    plan += tuple(kp for kp in added if kp[1] < 0)
    if not plan:
        run = route.whole([], route.reduce([spec.constant]), None)
        return Series(spec.qshift, run, order), None
    k, p = plan[0]
    key = (k, abs(p))
    part = parts.pop(key, None) or _eta_power(*key, inner).coeffs
    values = [spec.constant] + [0] * inner  # the constant's outputs
    first = int(p > 0)  # a first multiplication scales its factor
    if first:
        values = [spec.constant * c for c in part[:length]]
        values += [0] * (length - len(values))
    values = route.reduce(values)
    run = values[len(last):]
    kept, stage = [], None
    for i in range(first, len(plan)):
        k, p = plan[i]
        if (k, abs(p)) != key:  # a factor's repeats come in a row
            key = (k, abs(p))
            part = parts.pop(key, None) or _eta_power(*key, inner).coeffs
        j = i - first
        stage = route.open(stages[j]) if j < len(stages) else route.start(last, p > 0)
        if p > 0:
            run = route.multiply(values, part, length, stage)
        else:
            run = route.divide(run, part, length, stage)
        # Only a multiplication reads all of its input's outputs.
        values = route.values(stage) if i + 1 < len(plan) and plan[i + 1][1] > 0 else None
        if keep and i < len(plan) - 1:
            kept.append(route.close(stage))
    state = (plan, tuple(kept)) if keep else None
    return Series(spec.qshift, route.whole(last, run, stage), order), state


def _check_order(spec, order):
    if order < spec.qshift:
        raise ValueError(f"order {order} is below the q-shift {spec.qshift}")


def _check_modulus(modulus):
    if modulus > _SLOT_LIMIT:
        raise ValueError(f"modulus {modulus} exceeds 2**64: its residues do not fit "
                         f"a 64-bit slot")


def expand_exact(spec, order, prior=None, keep=True):
    """``eta.expand_spec`` of ``spec``, and its plan's state (see :func:`_expand`).

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
    its state resume as :func:`_expand` says, unless a cube of the prior's
    plan no longer fits the slots at ``order``: then the prior is dropped.
    A divisor f_k^|e| that :func:`_powered` would raise by squaring is too
    costly in sparse steps: then the exact series is reduced, and no state
    is returned.  Either way the series holds its run in 64-bit slots, so
    a ``modulus`` past 2^64 is refused with a ValueError.
    """
    _check_order(spec, order)
    _check_modulus(modulus)
    if spec.constant % modulus == 0:
        return Series(0, (), order), None
    inner = order - spec.qshift
    if any(e < 0 and k <= inner and _powered(k, e, inner)
           for k, e in spec.factors.items()):
        exact, _ = expand_exact(spec, order, keep=False)
        return Series(exact.lead, array("Q", [c % modulus for c in exact.coeffs]), order), None
    route = _Residues(modulus)
    if prior is not None and not all(route.fits(k, inner) for k, p in prior[1][0] if p == -3):
        prior = None
    return _expand(spec, order, route, prior)


@dataclass(frozen=True)
class Reduced:
    """An eta quotient whose coefficients are wanted modulo ``modulus``.

    It renders to a text no exact spec renders to, so a cache keyed by
    ``render()`` never hands an exact lookup its residues.  A modulus past
    2^64, whose residues do not fit a 64-bit slot, is refused with a
    ValueError.
    """

    spec: EtaQuotientSpec
    modulus: int

    def __post_init__(self):
        _check_modulus(self.modulus)

    def render(self):
        return f"({self.spec.render()}) mod {self.modulus}"

    def expand(self, order, prior=None):
        return expand_spec_residues(self.spec, order, self.modulus, prior)
