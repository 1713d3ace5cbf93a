"""Eta-quotient expansion and the product expression language.

An eta quotient here is ``c * q^s * prod_k f_k^{e_k}`` where ``f_k`` is the
infinite product ``(q^k; q^k)``.  Each ``f_k`` expands by the pentagonal
number theorem into a sparse +-1 series, so products and quotients of
``f_k`` factors stay cheap even at large working orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .series import Series

# Bound on exponent and scale literals; constants stay arbitrary precision.
MAX_EXPONENT = 2 ** 31 - 1


class QuotientSyntaxError(SyntaxError):
    """Malformed product expression, with position and expected tokens."""

    def __init__(self, position, expected):
        self.position = position
        self.expected = tuple(expected)
        super().__init__(f"expected {' or '.join(expected)} at position {position}")


class NonIntegerConstant(ValueError):
    """Division left a constant that is not an integer."""


def _pentagonal_coeffs(order):
    """Coefficient run of prod(1 - q^m) through q^order."""
    out = [0] * (order + 1)
    if order >= 0:
        out[0] = 1
    j = 1
    while True:
        g = j * (3 * j - 1) // 2
        if g > order:
            break
        sign = -1 if j % 2 else 1
        out[g] += sign
        g = j * (3 * j + 1) // 2
        if g <= order:
            out[g] += sign
        j += 1
    return out


def expand_eta(k, order):
    """Series of f_k valid through exponent ``k*(order//k) + k - 1``."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"scale {k!r} must be a positive integer")
    if order < 0:
        raise ValueError(f"order {order} must be nonnegative")
    m = order // k
    return Series(0, _pentagonal_coeffs(m), m).dilate(k)


@dataclass
class EtaQuotientSpec:
    """Normal form of a product expression: constant, q-shift, factor map."""

    constant: int = 1
    qshift: int = 0
    factors: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for k in sorted(self.factors):
            e = self.factors[k]
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"scale {k!r} must be a positive integer")
            if k > MAX_EXPONENT or abs(e) > MAX_EXPONENT:
                raise OverflowError(f"factor f{k}^{e} exceeds the exponent bound")
            if e:
                cleaned[k] = e
        if abs(self.qshift) > MAX_EXPONENT:
            raise OverflowError(f"q-shift {self.qshift} exceeds the exponent bound")
        self.factors = cleaned

    def __mul__(self, other):
        if not isinstance(other, EtaQuotientSpec):
            return NotImplemented
        merged = dict(self.factors)
        for k, e in other.factors.items():
            merged[k] = merged.get(k, 0) + e
        return EtaQuotientSpec(self.constant * other.constant,
                               self.qshift + other.qshift, merged)

    def render(self):
        """Parseable text form; factors sorted by scale, q first."""
        num, den = [], []
        if self.qshift:
            target = num if self.qshift > 0 else den
            s = abs(self.qshift)
            target.append("q" if s == 1 else f"q^{s}")
        for k, e in self.factors.items():
            target = num if e > 0 else den
            s = abs(e)
            target.append(f"f{k}" if s == 1 else f"f{k}^{s}")
        pieces = []
        if self.constant != 1 or not num:
            pieces.append(str(self.constant))
        pieces.extend(num)
        text = "*".join(pieces)
        if den:
            body = "*".join(den)
            return f"{text}/({body})" if len(den) > 1 else f"{text}/{body}"
        return text


class _Parser:
    """Recursive descent over: expr := term (('*'|'/') term)*."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _integer(self, bounded, what="integer"):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise QuotientSyntaxError(start, (what,))
        value = int(self.text[start:self.pos])
        if bounded and value > MAX_EXPONENT:
            raise OverflowError(
                f"literal {value} at position {start} exceeds the exponent bound")
        return value

    def _power(self):
        mark = self.pos
        self._skip_ws()
        if self._peek() != "^":
            self.pos = mark
            return 1
        self.pos += 1
        self._skip_ws()
        sign = 1
        if self._peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self._integer(bounded=True)

    def _term(self):
        self._skip_ws()
        ch = self._peek()
        if ch.isdigit():
            return EtaQuotientSpec(constant=self._integer(bounded=False))
        if ch == "q":
            self.pos += 1
            return EtaQuotientSpec(qshift=self._power())
        if ch == "f":
            self.pos += 1
            k = self._integer(bounded=True, what="scale")
            if k < 1:
                raise QuotientSyntaxError(self.pos - 1, ("positive scale",))
            return EtaQuotientSpec(factors={k: self._power()})
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            self._skip_ws()
            if self._peek() != ")":
                raise QuotientSyntaxError(self.pos, ("')'",))
            self.pos += 1
            return inner
        raise QuotientSyntaxError(self.pos, ("integer", "'q'", "'f'", "'('"))

    def _divide(self, acc, term):
        if term.constant == 0:
            raise ZeroDivisionError("division by a zero constant")
        c, rem = divmod(acc.constant, term.constant)
        if rem:
            raise NonIntegerConstant(
                f"constant {acc.constant}/{term.constant} is not an integer")
        merged = dict(acc.factors)
        for k, e in term.factors.items():
            merged[k] = merged.get(k, 0) - e
        return EtaQuotientSpec(c, acc.qshift - term.qshift, merged)

    def _expr(self):
        acc = self._term()
        while True:
            self._skip_ws()
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                acc = acc * self._term()
            elif ch == "/":
                self.pos += 1
                acc = self._divide(acc, self._term())
            else:
                return acc

    def parse(self):
        spec = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise QuotientSyntaxError(self.pos, ("'*'", "'/'", "end of input"))
        return spec


def parse(text):
    """Parse a product expression into an :class:`EtaQuotientSpec`."""
    return _Parser(text).parse()


def expand_spec(spec, order):
    """Expand an eta quotient into a series valid through ``order``.

    Positive factors multiply in first while everything is sparse; each
    negative factor then divides out via its pentagonal recurrence, which
    is the fast route for the f_k^-1 shapes used here.
    """
    if order < spec.qshift:
        raise ValueError(f"order {order} is below the q-shift {spec.qshift}")
    if spec.constant == 0:
        return Series.zero()
    inner = order - spec.qshift
    acc = Series(0, (spec.constant,), inner)
    for k, e in spec.factors.items():
        if e > 0:
            factor = expand_eta(k, inner)
            for _ in range(e):
                acc = acc * factor
    for k, e in spec.factors.items():
        if e < 0:
            factor = expand_eta(k, inner)
            for _ in range(-e):
                acc = acc.div(factor)
    return acc.shift(spec.qshift)


@dataclass
class PartitionFamily:
    """A counting family together with its generating eta quotient."""

    name: str
    spec: EtaQuotientSpec


FAMILIES = {
    "p": PartitionFamily("p", EtaQuotientSpec(factors={1: -1})),
    "a": PartitionFamily("a", EtaQuotientSpec(factors={1: -1, 2: -1})),
    "b": PartitionFamily("b", EtaQuotientSpec(factors={1: -2, 2: -2})),
    "a3": PartitionFamily("a3", EtaQuotientSpec(factors={3: 1, 6: 1, 1: -1, 2: -1})),
    "a9": PartitionFamily("a9", EtaQuotientSpec(factors={9: 1, 18: 1, 1: -1, 2: -1})),
}
