"""Coefficients of eta quotients modulo an integer, for congruence scans.

Every congruence claim reads these: a claim mod b^k is decided by the
coefficients mod any multiple of b^k, and residues below 2^51 divide far
faster than exact integers of hundreds of bits.  A :class:`Reduced` spec
names such a series, so it is looked up and stored like any other spec.
The verify layer imports this module on first use, so ``import qhuff``
does not load it.

An expansion also returns its division state, the packed outputs of its
intermediate divisions, so that a wider one continues the stored
divisions and computes only the coefficients it lacks.  Exact series
have no such state and are expanded again from q^0: their intermediate
quotients are signed integers of about 50 bits (up to 130) that fit no
fixed slot, and keeping them as Python ints would cost several times
the memory of the series themselves.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .eta import EtaQuotientSpec, expand_eta, expand_spec
from .series import Series

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


def expand_spec_residues(spec, order, modulus, prior=None):
    """``expand_spec`` with every coefficient reduced into [0, modulus).

    The constant and the positive factors are multiplied exactly by
    :func:`expand_spec`; each negative factor then divides out with
    :func:`div_residues`.  Only congruences modulo divisors of ``modulus``
    can be read from the result, which keeps the validity bound of the
    exact expansion.

    Returns the series and its division state: the packed outputs of every
    division but the last, whose outputs the series holds.  Given the
    ``prior`` (series, state) of the same spec and modulus at a lower
    order, the numerator and the f_k are recomputed to ``order`` (sparse
    and cheap) and every division resumes where it stopped, so only the
    missing coefficients are divided.  The prior is left as it was.
    """
    if order < spec.qshift:
        raise ValueError(f"order {order} is below the q-shift {spec.qshift}")
    if spec.constant % modulus == 0:
        return Series(0, (), order), ()
    inner = order - spec.qshift
    start, state, last = 0, (), []
    if prior is not None:
        old, state = prior
        start = int(old.valid_to) - spec.qshift + 1
        last = _run(old, spec.qshift, int(old.valid_to))
    positive = {k: e for k, e in spec.factors.items() if e > 0}
    acc = expand_spec(EtaQuotientSpec(spec.constant, 0, positive), inner)
    run = [c % modulus for c in _run(acc, start, inner)]
    divisions = sum(-e for e in spec.factors.values() if e < 0)
    # A copy of each stored stage is extended, the last repacked from ``old``.
    kept = [bytearray(b) for b in state] or [bytearray() for _ in range(divisions - 1)]
    bufs = iter(kept + [bytearray(_packed(last))])
    for k, e in spec.factors.items():
        if e < 0:
            den = expand_eta(k, inner).coeffs
            for _ in range(-e):
                run = div_residues(run, den, inner + 1, modulus, next(bufs))
    if prior is not None:
        run = last + run
    return Series(spec.qshift, run, order), tuple(kept)


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
