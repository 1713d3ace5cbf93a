"""Exact truncated Laurent series over Python integers.

A :class:`Series` stores a contiguous coefficient run starting at ``lead``
together with ``valid_to``, the largest exponent whose coefficient is
trustworthy.  Exponents after the stored run but at most ``valid_to`` are
known zeros; nothing at all is known past ``valid_to``.  Every operation
propagates the bound conservatively, so a coefficient can only ever be read
when the inputs actually determine it.

Coefficients read as plain ``int`` and grow without bound; a residue
series holds its run in 4- or 8-byte slots, an ``array('I')`` or
``array('Q')``.  Instances are immutable and safe to share between
pipelines.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, islice

INF = float("inf")

# Division splits work at this offset: smaller shifts run sequentially,
# larger ones as whole-block slice updates.
_BLOCK = 512


class NonUnitLead(ValueError):
    """Inversion requires a lead coefficient of +1 or -1."""


class BeyondValidity(ValueError):
    """A coefficient past the validity bound was requested."""


def _nonzeros(coeffs):
    """(i, c) for each nonzero c = coeffs[i]; the zeros are skipped in C."""
    return [(i, coeffs[i]) for i in compress(range(len(coeffs)), coeffs)]


def _mul_core(a, b, length, start=0):
    """Coefficients start..length-1 of the product of the runs ``a`` and ``b``.

    Few pairs of nonzero terms (at most two per coefficient through
    q^(length-1)) are multiplied pair by pair; otherwise each nonzero term
    of the sparser run adds in a slice of the other.  A product resumes as
    a division does: given every input coefficient through q^(length-1),
    only outputs from ``start`` on are computed, and only the pairs and
    slices that land there are visited.
    """
    if len(a) > length:
        a = a[:length]
    if len(b) > length:
        b = b[:length]
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    if na > nb:
        a, b, na, nb = b, a, nb, na
    sparse = _nonzeros(a)
    out = [0] * (length - start)
    if na * nb <= 2 * length:
        others = _nonzeros(b)
        exps = [j for j, _ in others] if start else None
        for i, ca in sparse:
            for j, cb in islice(others, bisect_left(exps, start - i), None) if i < start else others:
                k = i + j
                if k >= length:
                    break
                out[k - start] += ca * cb
        return out
    for i, c in sparse:
        lo = start - i if i < start else 0
        seg = b[lo:length - i]
        o = i + lo - start
        win = out[o: o + len(seg)]
        if c == 1:
            out[o: o + len(seg)] = [x + y for x, y in zip(win, seg)]
        elif c == -1:
            out[o: o + len(seg)] = [x - y for x, y in zip(win, seg)]
        else:
            out[o: o + len(seg)] = [x + c * y for x, y in zip(win, seg)]
    return out


def _recip_core(num, den, length, out=None):
    """Coefficients of num/den mod q^length; den[0] must be +1 or -1.

    A division resumes where an earlier call stopped: ``out`` may hold its
    outputs 0..start-1, and is extended in place to all ``length`` outputs.
    Then ``num`` holds the numerator from q^start on, and only outputs
    start..length-1 are computed and returned; when start is 0, that is
    ``out`` itself, so no second list of them is held.
    """
    out = [] if out is None else out
    start = len(out)
    if length <= start:
        return []
    if den[0] == -1:
        den = [-c for c in den]
        num = [-c for c in num]
    unit_signs = True
    near, far = [], []
    for e in range(1, min(len(den), length)):
        c = den[e]
        if not c:
            continue
        if c not in (1, -1):
            unit_signs = False
        (near if e < _BLOCK else far).append((e, c))
    if unit_signs:
        near_pos = [e for e, c in near if c == 1]
        near_neg = [e for e, c in near if c == -1]

    out += [0] * (length - start)
    nl = len(num) + start
    for lo in range(start, length, _BLOCK):
        hi = min(lo + _BLOCK, length)
        acc = [num[n - start] if n < nl else 0 for n in range(lo, hi)]
        for e, c in far:
            if e >= hi:
                break
            n0 = max(lo, e)
            src = out[n0 - e: hi - e]
            if not src:
                continue
            o = n0 - lo
            win = acc[o: o + len(src)]
            if c == 1:
                acc[o: o + len(src)] = [x - y for x, y in zip(win, src)]
            elif c == -1:
                acc[o: o + len(src)] = [x + y for x, y in zip(win, src)]
            else:
                acc[o: o + len(src)] = [x - c * y for x, y in zip(win, src)]
        if unit_signs:
            for n in range(lo, hi):
                t = acc[n - lo]
                for e in near_pos:
                    m = n - e
                    if m < 0:
                        break
                    t -= out[m]
                for e in near_neg:
                    m = n - e
                    if m < 0:
                        break
                    t += out[m]
                out[n] = t
        else:
            for n in range(lo, hi):
                t = acc[n - lo]
                for e, c in near:
                    m = n - e
                    if m < 0:
                        break
                    t -= c * out[m]
                out[n] = t
    return out[start:] if start else out


class Series:
    """Truncated Laurent series in canonical form.

    ``coeffs[i]`` holds the coefficient of ``q**(lead + i)``: a tuple, or
    an ``array`` of 4- or 8-byte slots kept as given (a residue series),
    compared by value either way.  The lead coefficient is nonzero unless the series
    is zero (empty run), and no coefficient is stored past ``valid_to``.
    The additive zero built by :meth:`zero` carries an infinite bound;
    zeros that arise from cancellation keep the finite bound of their
    inputs.
    """

    __slots__ = ("lead", "coeffs", "valid_to")

    def __init__(self, lead, coeffs, valid_to):
        if not isinstance(coeffs, array):  # a packed run is kept as given
            coeffs = tuple(coeffs)
        end = len(coeffs)
        if valid_to != INF:
            end = max(min(end, valid_to - lead + 1), 0)
        start = 0
        while start < end and coeffs[start] == 0:
            start += 1
        while end > start and coeffs[end - 1] == 0:
            end -= 1
        if start == end:
            self.lead = 0
            self.coeffs = ()
        else:
            self.lead = lead + start
            self.coeffs = coeffs if end - start == len(coeffs) else coeffs[start:end]
        self.valid_to = valid_to

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0, (), INF)

    @classmethod
    def one(cls):
        return cls(0, (1,), INF)

    @classmethod
    def constant(cls, c):
        return cls(0, (c,), INF)

    @classmethod
    def monomial(cls, c, exponent, valid_to=INF):
        return cls(exponent, (c,), valid_to)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, n):
        """Coefficient of q^n; errors when n lies past the validity bound."""
        if n > self.valid_to:
            raise BeyondValidity(
                f"coefficient of q^{n} requested but series is valid to {self.valid_to}")
        i = n - self.lead
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def coefficients(self, lo, hi, step=1):
        """Coefficients of q^lo, q^(lo+step), ... through q^hi as a list.

        One check against ``valid_to`` (the error names the first exponent
        past it, as :meth:`coefficient` does) and one slice of the stored
        run; exponents before the lead or after the run read 0.
        """
        count = max((hi - lo) // step + 1, 0)
        if count and lo + step * (count - 1) > self.valid_to:
            self.coefficient(lo + step * max((self.valid_to - lo) // step + 1, 0))
        skip = min(max(-((lo - self.lead) // step), 0), count)  # those before the lead
        if skip == count:
            return [0] * count
        i = lo + step * skip - self.lead
        run = list(self.coeffs[i: i + step * (count - skip - 1) + 1: step])
        return [0] * skip + run + [0] * (count - skip - len(run))

    def equal_up_to(self, other, n):
        """Exact agreement of all coefficients up to exponent n."""
        if n > self.valid_to or n > other.valid_to:
            raise BeyondValidity(
                f"comparison up to q^{n} exceeds a validity bound "
                f"({self.valid_to}, {other.valid_to})")
        leads = [s.lead for s in (self, other) if not s.is_zero]
        if not leads:
            return True
        return self.coefficients(min(leads), n) == other.coefficients(min(leads), n)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if type(a) is not type(b):  # a packed run against a tuple
            a, b = tuple(a), tuple(b)
        return self.lead == other.lead and a == b and self.valid_to == other.valid_to

    __hash__ = None

    def __repr__(self):
        if self.is_zero:
            return f"Series(0; valid_to={self.valid_to})"
        parts = []
        shown = 0
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = self.lead + i
            parts.append(f"{c:+d}" if e == 0 else f"{c:+d}*q^{e}")
            shown += 1
            if shown == 6:
                parts.append("...")
                break
        return f"Series({' '.join(parts)}; valid_to={self.valid_to})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Series.constant(other)
        if not isinstance(other, Series):
            return NotImplemented
        valid = min(self.valid_to, other.valid_to)
        if self.is_zero:
            return Series(other.lead, other.coeffs, valid)
        if other.is_zero:
            return Series(self.lead, self.coeffs, valid)
        lo = min(self.lead, other.lead)
        hi = max(self.lead + len(self.coeffs), other.lead + len(other.coeffs)) - 1
        if valid != INF:
            hi = min(hi, valid)
        out = [0] * max(hi - lo + 1, 0)
        for s in (self, other):
            seg = s.coeffs[:hi - s.lead + 1]
            if not seg:
                continue
            o = s.lead - lo
            win = out[o: o + len(seg)]
            out[o: o + len(seg)] = [x + y for x, y in zip(win, seg)]
        return Series(lo, out, valid)

    __radd__ = __add__

    def __neg__(self):
        return Series(self.lead, [-c for c in self.coeffs], self.valid_to)

    def __sub__(self, other):
        if isinstance(other, int):
            other = Series.constant(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c):
        if c == 0:
            return Series.zero()
        if c == 1:
            return self
        return Series(self.lead, [c * x for x in self.coeffs], self.valid_to)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        if not isinstance(other, Series):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Series.zero()
        lead = self.lead + other.lead
        valid = min(self.valid_to + other.lead, other.valid_to + self.lead)
        full = len(self.coeffs) + len(other.coeffs) - 1
        length = full if valid == INF else min(full, valid - lead + 1)
        if length <= 0:
            return Series(0, (), valid)
        return Series(lead, _mul_core(self.coeffs, other.coeffs, length), valid)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse to the propagated validity bound."""
        return Series.one().div(self)

    def div(self, other):
        """Fused self/other; cheaper than mul(invert) for sparse divisors."""
        if not isinstance(other, Series):
            raise TypeError("div expects a Series")
        if other.is_zero:
            raise NonUnitLead("cannot divide by the zero series")
        c0 = other.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitLead(f"lead coefficient {c0} is not a unit")
        if self.is_zero:
            return Series.zero()
        lead = self.lead - other.lead
        if self.valid_to == INF and other.valid_to == INF:
            if len(other.coeffs) == 1:
                return Series(lead, [c0 * c for c in self.coeffs], INF)
            raise ValueError("cannot divide by an exact multi-term series; truncate it first")
        ka = INF if self.valid_to == INF else self.valid_to - self.lead + 1
        kb = INF if other.valid_to == INF else other.valid_to - other.lead + 1
        run = int(min(ka, kb))
        out = _recip_core(list(self.coeffs), other.coeffs, run)
        return Series(lead, out, lead + run - 1)

    def power(self, k):
        """Integer power by repeated squaring; negative k inverts k-th power."""
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k == 0:
            return Series.one()
        if k < 0:
            return self.power(-k).invert()
        if self.is_zero:
            return Series.zero()
        base, result, n = self, None, k
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    __pow__ = power

    # -- reindexing ---------------------------------------------------

    def shift(self, s):
        """Multiply by q^s."""
        valid = self.valid_to if self.valid_to == INF else self.valid_to + s
        return Series(self.lead + s, self.coeffs, valid)

    def dilate(self, k):
        """Substitute q -> q^k for k >= 1."""
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"dilation factor {k!r} must be a positive integer")
        if k == 1:
            return self
        valid = INF if self.valid_to == INF else k * self.valid_to + k - 1
        if self.is_zero:
            return Series(0, (), valid)
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        out[::k] = self.coeffs
        return Series(self.lead * k, out, valid)

    def truncate(self, valid_to):
        """View of the same series with a lower validity bound."""
        if valid_to >= self.valid_to:
            return self
        return Series(self.lead, self.coeffs, valid_to)
