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
  faster than exact integers of hundreds of bits.  A division stage is an
  ``array`` of 4-byte (``'I'``) or 8-byte (``'Q'``) slots, and the series
  holds its run in such slots too: the last stage itself when that
  divides, else the narrowest slots that hold a residue.  That is 4 or 8
  bytes a coefficient, against about 40 as a Python int, in the series, a
  ``SeriesCache`` entry and a worker's pickled reply.  A multiplication
  stage is kept as the exact route keeps its stages, each residue first
  moved into (-modulus/2, modulus/2], so that the small coefficients of
  products of f_k pack into a byte or two.
  :func:`div_residues` adds each window of earlier outputs it reads, times
  its divisor coefficient, into the slots, so a slot stays below
  (weight + 1) * modulus, the weight being the summed magnitudes of those
  coefficients.  Where that is at most 2^32 the division takes 4-byte
  slots, which halve the bytes every window moves; past it 8-byte ones;
  past 2^64 it is not taken.  A stored stage keeps its width: a wider
  order whose weight passes 2^32 copies its 4-byte slots into 8-byte ones,
  one C-level conversion, and computes nothing again.  :func:`slot_width`
  gives the width from the plan alone, and the theorem suite picks its
  modulus by it.  The division reads each completed block of _BLOCK
  outputs from the slots once, into one int with the block after it, and
  cuts the window of a far term from such a pair with a shift and a mask;
  nearer windows are read from the bytes.  A Jacobi cube's weight grows
  as about 2n/k through q^n, past 2^64 / modulus near 1.8e5 coefficients
  for f1 mod ``verify.CLAIM_MODULUS`` and near 5000 mod 3^32; f_k's grows
  as about 1.6 sqrt(n/k), 274 for f1 through q^30000.  So f_k^-|e|
  divides by cubes only where the cube fits 8-byte slots; elsewhere f_k
  divides once per unit of exponent.  A stored plan whose cubes stop
  fitting at a wider order is dropped, and the series is expanded again
  from q^0 by single f_k.

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
# A division's slots are 4 bytes wide when every slot stays below
# _NARROW_LIMIT, else 8 bytes, below _SLOT_LIMIT.
_NARROW_LIMIT = 1 << 32
_SLOT_LIMIT = 1 << 64
_BIG_ENDIAN = sys.byteorder == "big"

# The signed array typecodes a kept exact stage may take, narrowest
# first, each with the least magnitude it cannot hold.
_TYPECODES = sorted((1 << 8 * array(code).itemsize - 1, code) for code in "bhiq")


def _packed(values, code):
    """Little-endian bytes of nonnegative values, one slot of typecode ``code`` each."""
    slots = array(code, values)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots.tobytes()


def _slots(data, code):
    """The slots of typecode ``code`` in little-endian bytes (any buffer), as an ``array``."""
    slots = array(code)
    slots.frombytes(data)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots


def _window_terms(pairs):
    """(exponents, weights) of sorted (e, w) pairs; weights None when all are 1."""
    exps = [e for e, _ in pairs]
    weights = [w for _, w in pairs]
    return exps, None if all(w == 1 for w in weights) else weights


def _windows(view, terms, lo, hi, width):
    """Sum of w * out[lo - e: hi - e] over the (e, w) of ``terms``.

    Each window is read from the outputs in ``view``, packed in slots of
    ``width`` bytes, as one int; one that would start before out[0] is
    shifted to its first slot.  Returns the sum and the summed weight of
    the windows, those of every e < hi.  Unit weights are summed as plain
    reads (see :func:`div_residues`).
    """
    exps, weights = terms
    full = bisect_right(exps, lo)
    end = bisect_left(exps, hi, full)
    a, b, bits = width * lo, width * hi, 8 * width
    if weights is None:
        total = sum([int.from_bytes(view[a - width * e: b - width * e], "little")
                     for e in exps[:full]])
        for e in exps[full:end]:
            total += int.from_bytes(view[:b - width * e], "little") << bits * (e - lo)
        return total, end
    total = sum([w * int.from_bytes(view[a - width * e: b - width * e], "little")
                 for e, w in zip(exps[:full], weights)])
    for e, w in zip(exps[full:end], weights[full:end]):
        total += w * int.from_bytes(view[:b - width * e], "little") << bits * (e - lo)
    return total, sum(weights[:end])


def _far_windows(pairs, terms, lo, hi, width):
    """As :func:`_windows`, for terms with e >= _BLOCK, from ints of block pairs.

    ``pairs[b]`` holds out[_BLOCK * b: _BLOCK * (b + 2)] as one int, or
    its first half while the second block is not complete; a window is
    the pair it starts in shifted down, masked to its hi - lo slots.  One
    that would start before out[0] is the first pair shifted up.
    """
    exps, weights = terms
    full = bisect_right(exps, lo)
    end = bisect_left(exps, hi, full)
    bits = 8 * width
    mask = (1 << bits * (hi - lo)) - 1
    windows = [pairs[(lo - e) // _BLOCK] >> bits * ((lo - e) % _BLOCK) & mask
               for e in exps[:full]]
    windows += [pairs[0] << bits * (e - lo) & mask for e in exps[full:end]]
    if weights is None:
        return sum(windows), end
    return sum([w * x for w, x in zip(weights, windows)]), sum(weights[:end])


def _add_block(pairs, view, a, width):
    """Read the completed block out[a: a + _BLOCK] into ``pairs`` (see :func:`_far_windows`).

    It becomes the top half of the block before's pair and the first of
    its own.  Holding each block twice costs two slots an output while
    the call runs; joining two block ints for each window instead, with a
    mask built for the low one, divided by f1 and by f2 through 30001
    coefficients mod 3^32 7-8% slower (best of 20, interleaved).
    """
    block = int.from_bytes(view[width * a: width * (a + _BLOCK)], "little")
    if pairs:
        pairs[-1] |= block << 8 * width * _BLOCK
    pairs.append(block)


def _window_sum(windows, source, terms, lo, hi, acc, modulus, width):
    """Packed ``acc`` - sum of c*out[n - e] over the terms, for lo <= n < hi.

    ``terms`` holds the window terms of the positive and of the negative
    divisor coefficients, each with weight |c|, and ``windows(source,
    terms, lo, hi, width)`` sums them.  The subtracted windows are summed
    apart and ``modulus`` is added to every slot once per unit of their
    weight, so no slot borrows.
    """
    sub, add = terms
    plus, _ = windows(source, add, lo, hi, width)
    minus, weight = windows(source, sub, lo, hi, width)
    acc += plus
    if weight:
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * (hi - lo), "little")
        acc += weight * modulus * ones - minus
    return acc


def div_residues(num, den, length, modulus, packed=None):
    """Residues in [0, modulus) of the coefficients of num/den mod q^length.

    ``den[0]`` must be +1 or -1; ``num`` and the rest of ``den`` may hold
    any integers.  The outputs are kept in ``packed``, an ``array`` of
    4-byte (typecode ``I``) or 8-byte (``Q``) slots, which is returned.  A
    divisor term c q^e with e at least _BLOCK updates a whole block of
    outputs at once, one from _SUB up a sub-block, by adding |c| times the
    window of earlier outputs it reads as one int (see
    :func:`_window_sum`).  Every slot then stays below (weight + 1) *
    modulus, the weight being the summed |c| of those terms.  Before
    anything is computed that bound picks the slots: 4 bytes when it is at
    most 2^32, else 8, and past 2^64 an OverflowError says it does not fit.
    Half-width slots halve the bytes every window moves.
    Blocks end on multiples of _BLOCK, and each completed block is read
    from the slots once, into the ints of the block pairs it is part of
    (see :func:`_far_windows`), so a far window is one shift and one mask
    of an int that exists; a sub-block's windows are read from the bytes.
    Each sub-block is unpacked once, and the terms below _SUB run on its
    coefficients one at a time, with % modulus, reading the last _SUB - 1
    outputs from a list at negative offsets, zeros before out[0].

    A division resumes where an earlier call stopped: ``packed`` may hold
    the outputs 0..start-1 of that call, and then ``num`` holds the
    numerator from q^start on, and only outputs start..length-1 are
    computed.  ``packed`` is extended in place to all ``length`` outputs
    and returned; its slots keep their width, unless the division needs
    wider ones: then it is copied into 8-byte slots, one C-level
    conversion, and the copy is extended and returned.  Without
    ``packed``, start is 0.
    """
    packed = array("I") if packed is None else packed
    start = len(packed)
    if length <= start:
        return packed
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
    if (weight + 1) * modulus > _NARROW_LIMIT and packed.typecode == "I":
        packed = array("Q", packed)
    code, width = packed.typecode, packed.itemsize
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
    recent = [0] * (_SUB - 1 - start + tail) + packed[tail:].tolist()
    packed.frombytes(bytes(width * (length - start)))
    if _BIG_ENDIAN:  # the windows read the slots as little-endian bytes
        packed.byteswap()
    with memoryview(packed) as slots, slots.cast("B") as view:
        pairs = []
        for a in range(0, start - _BLOCK + 1, _BLOCK):
            _add_block(pairs, view, a, width)
        for edge in range(start - start % _BLOCK, length, _BLOCK):
            lo, hi = max(edge, start), min(edge + _BLOCK, length)
            # The numerator is reduced a block at a time: a list of all its
            # residues would live as long as the pairs.
            acc = [c % modulus for c in num[lo - start: hi - start]]
            acc = int.from_bytes(_packed(acc, code), "little")
            block = _window_sum(_far_windows, pairs, far, lo, hi, acc, modulus, width)
            block = block.to_bytes(width * (hi - lo), "little")
            for s in range(lo, hi, _SUB):
                t = min(s + _SUB, hi)
                acc = int.from_bytes(block[width * (s - lo): width * (t - lo)], "little")
                acc = _window_sum(_windows, view, mid, s, t, acc, modulus, width)
                vals = _slots(acc.to_bytes(width * (t - s), "little"), code)
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
                view[width * s: width * t] = _packed(recent[_SUB - 1:], code)
                del recent[:t - s]
            if hi == edge + _BLOCK:
                _add_block(pairs, view, edge, width)
    if _BIG_ENDIAN:
        packed.byteswap()
    return packed


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


def _pentagonals(m):
    """The number of generalized pentagonal numbers j(3j -+ 1)/2, j >= 1, at most m."""
    r = isqrt(24 * m + 1)
    return (r + 1) // 6 + (r - 1) // 6


def _eta_weight(k, inner):
    """The summed |c| of the terms c q^e of f_k with _SUB <= e <= inner.

    By Euler's pentagonal theorem f_k has one term +-q^(k g) for each
    generalized pentagonal number g, so every |c| is 1.
    """
    return max(_pentagonals(inner // k) - _pentagonals((_SUB - 1) // k), 0)


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
    open = staticmethod(unpack_stage)
    close = staticmethod(pack_stage)

    @staticmethod
    def start(prior, lo, multiply):
        return [] if prior is None else prior.coefficients(lo, prior.valid_to)

    @staticmethod
    def reduce(run):
        return run

    @staticmethod
    def whole(stage):
        return stage

    @staticmethod
    def multiply(values, part, length, stage):
        run = _mul_core(values, part, length, len(stage))
        stage += run
        return run

    @staticmethod
    def divide(num, den, length, stage):
        return stage, _recip_core(num, den, length, stage)


class _Residues:
    """The residue route: weighted divisions by fitting cubes.

    A division stage is an ``array`` of 4- or 8-byte slots, which
    :func:`div_residues` extends in place, or widens into 8-byte slots
    when a wider order passes the 2^32 bound; it is stored as it is and
    copied when reopened, so a stored state never changes.  A
    multiplication stage is a list while it runs and is kept by
    :func:`pack_stage`, each residue moved into (-modulus/2, modulus/2]
    first: products of f_k have small coefficients, which then pack into a
    byte or two.  The series' run is an ``array``: the last stage itself
    when it divides, else the narrowest slots that hold a residue.
    """

    def __init__(self, modulus):
        self.modulus = modulus
        self.code = "I" if modulus <= _NARROW_LIMIT else "Q"  # holds any residue

    def fits(self, k, inner):
        """Whether :func:`div_residues` takes f_k^3 through q^inner (see :func:`_cube_weight`)."""
        return (_cube_weight(k, inner) + 1) * self.modulus <= _SLOT_LIMIT

    def start(self, prior, lo, multiply):
        """A stage's outputs through the prior's order: the prior series' run.

        A division stage copies the prior's slots, keeping their width,
        and reads no coefficient as a Python int.
        """
        if prior is None:
            return [] if multiply else array(self.code)
        if multiply:
            return prior.coefficients(lo, prior.valid_to)
        # The run starts at q^lo, with the constant's nonzero residue; only
        # zeros at its end are trimmed.
        stage = prior.coeffs[:]
        stage.frombytes(bytes(stage.itemsize * (int(prior.valid_to) - lo + 1 - len(stage))))
        return stage

    @staticmethod
    def open(stored):
        return stored[:] if isinstance(stored, array) else unpack_stage(stored)

    def close(self, stage):
        if isinstance(stage, array):
            return stage
        half = self.modulus // 2
        return pack_stage([v - self.modulus if v > half else v for v in stage])

    def reduce(self, run):
        return [c % self.modulus for c in run]

    def whole(self, stage):
        """The series' run in slots; a last division's stage is all of it."""
        return stage if isinstance(stage, array) else array(self.code, stage)

    def multiply(self, values, part, length, stage):
        run = self.reduce(_mul_core(values, part, length, len(stage)))
        stage += run
        return run

    def divide(self, num, den, length, stage):
        start = len(stage)
        stage = div_residues(num, den, length, self.modulus, stage)
        return stage, stage[start:]


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
    prior series, which ``route.start`` reads.  The prior is left as it
    was.
    """
    inner = order - spec.qshift
    length = inner + 1
    old, plan, stages, done = None, (), (), 0
    if prior is not None:
        old, (plan, stages) = prior
        done = int(old.valid_to) - spec.qshift + 1
    planned = {k for k, _ in plan}
    added = _plan({k: e for k, e in spec.factors.items()
                   if k <= inner and k not in planned}, inner, route.fits)
    ups = [kp for kp in added if kp[1] > 0]
    parts = {kp: _eta_power(*kp, inner).coeffs for kp in ups}
    plan += tuple(sorted(ups, key=lambda kp: _terms(parts[kp])))
    plan += tuple(kp for kp in added if kp[1] < 0)
    if not plan:
        return Series(spec.qshift, route.whole(route.reduce([spec.constant])), order), None
    k, p = plan[0]
    key = (k, abs(p))
    part = parts.pop(key, None) or _eta_power(*key, inner).coeffs
    values = [spec.constant] + [0] * inner  # the constant's outputs
    first = int(p > 0)  # a first multiplication scales its factor
    if first:
        values = [spec.constant * c for c in part[:length]]
        values += [0] * (length - len(values))
    values = stage = route.reduce(values)
    run = values[done:]
    kept = []
    for i in range(first, len(plan)):
        k, p = plan[i]
        if (k, abs(p)) != key:  # a factor's repeats come in a row
            key = (k, abs(p))
            part = parts.pop(key, None) or _eta_power(*key, inner).coeffs
        j = i - first
        stage = route.open(stages[j]) if j < len(stages) else route.start(old, spec.qshift, p > 0)
        if p > 0:
            run = route.multiply(values, part, length, stage)
        else:
            stage, run = route.divide(run, part, length, stage)
        # Only a multiplication reads all of its input's outputs.
        values = stage if i + 1 < len(plan) and plan[i + 1][1] > 0 else None
        if keep and i < len(plan) - 1:
            kept.append(route.close(stage))
    state = (plan, tuple(kept)) if keep else None
    return Series(spec.qshift, route.whole(stage), order), state


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


def _reduced_exactly(spec, inner):
    """Whether a divisor f_k^|e| of ``spec`` through q^inner is raised by squaring.

    It is too costly in sparse steps: the exact series is reduced instead.
    """
    return any(e < 0 and k <= inner and _powered(k, e, inner)
               for k, e in spec.factors.items())


def expand_spec_residues(spec, order, modulus, prior=None):
    """``expand_spec`` with every coefficient reduced into [0, modulus).

    Only congruences modulo divisors of ``modulus`` can be read from the
    result, which keeps the validity bound of the exact expansion.  It and
    its state resume as :func:`_expand` says, unless a cube of the prior's
    plan no longer fits the slots at ``order``: then the prior is dropped.
    A divisor f_k^|e| that :func:`_powered` would raise by squaring is too
    costly in sparse steps: then the exact series is reduced, and no state
    is returned.  Either way the series holds its run in 4- or 8-byte
    slots (see :func:`slot_width`), so a ``modulus`` past 2^64 is refused
    with a ValueError.
    """
    _check_order(spec, order)
    _check_modulus(modulus)
    if spec.constant % modulus == 0:
        return Series(0, (), order), None
    inner = order - spec.qshift
    route = _Residues(modulus)
    if _reduced_exactly(spec, inner):
        exact, _ = expand_exact(spec, order, keep=False)
        return Series(exact.lead, route.whole(route.reduce(exact.coeffs)), order), None
    if prior is not None and not all(route.fits(k, inner) for k, p in prior[1][0] if p == -3):
        prior = None
    return _expand(spec, order, route, prior)


def slot_width(spec, order, modulus):
    """The bytes of a slot of ``spec``'s residues mod ``modulus`` through ``order``.

    4 when every division of a cold expansion's plan keeps its slots
    below 2^32 (see :func:`div_residues`), with a weight of
    :func:`_eta_weight` for each f_k and :func:`_cube_weight` for each
    Jacobi cube, and every residue fits 4 bytes; else 8.
    """
    inner = order - spec.qshift
    route = _Residues(modulus)
    divisors = {k: e for k, e in spec.factors.items() if k <= inner and e < 0}
    weight = 0
    if not _reduced_exactly(spec, inner):
        weight = max([_cube_weight(k, inner) if p == -3 else _eta_weight(k, inner)
                      for k, p in _plan(divisors, inner, route.fits) if p < 0], default=0)
    return 4 if (weight + 1) * modulus <= _NARROW_LIMIT else 8


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
