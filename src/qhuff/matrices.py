"""Transition table for huffed reciprocal powers of the source quotient.

Row i lists the integers m(i, 1..i) with

    huff(source^-i) = sum_j m(i, j) * target^-j

where ``source`` and ``target`` are the two eta quotients returned by
:func:`source_quotient` and :func:`target_quotient`.  Rows 1..3 are fixed
base data; later rows follow a three-term recurrence with a column shift,
run on scaled rows with 3^scaled_floor(i, j) divided out of entry j
(:func:`iter_scaled_rows`); the table multiplies those powers back in.
Structural zero patterns are asserted every time a row is produced.

Three overlapping reindexed views (kinds A, B, C) drive the coefficient
vector iteration in :mod:`qhuff.vectors`.
"""

from __future__ import annotations

from .eta import expand_spec, parse
from .huffing import MOD3, huff
from .series import Series

_KINDS = ("A", "B", "C")


class ZeroPatternViolation(AssertionError):
    """A structurally forced zero entry came out nonzero."""


class InsufficientRows(LookupError):
    """The table is too shallow for the requested entry."""


def _required_zeros(i):
    """Number of leading entries of row i that must vanish."""
    rem = i % 4
    if rem == 1:
        return (i + 3) // 4 - 1
    if rem == 3:
        return (i + 1) // 4 - 1
    if rem == 0:
        return i // 4
    return 0


def _check_zero_pattern(i, row):
    z = _required_zeros(i)
    if z and any(row[:z]):
        for j in range(z):
            if row[j]:
                raise ZeroPatternViolation(
                    f"entry ({i}, {j + 1}) should be zero, got {row[j]}")


def scaled_floor(i, j):
    """Exponent dividing entry (i, j) in the scaled representation."""
    return max(3 * j - i - 1, 0)


_SCALED_BASE = ((1,), (2, 1), (1, 3, 1))


def iter_scaled_rows(limit):
    """Yield (i, row) with entry j divided by 3^scaled_floor(i, j).

    The table recurrence is m(i, j) = 9 m(i-1, j-1) + 3 m(i-2, j-1) +
    m(i-3, j-1).  With e = 3j - i - 1 those three parents have e - 2,
    e - 1 and e.  Write each entry as 3^max(e, 0) times a unit, u for
    (i, j) and u1, u2, u3 for its parents:

    - right of the floor boundary (e >= 2), 9·3^(f-2) = 3·3^(f-1) = 3^f
      with f = e, so u = u1 + u2 + u3;
    - in the one mixed column of a row (e = 1, where i = 1 mod 3) the
      floor is 1 and u = 3 u1 + u2 + u3;
    - left of it every floor is 0 and the recurrence applies verbatim.

    Each row is therefore integers made from integers, and rescaled it is
    exactly the table recurrence; with the base rows (3), (2, 27),
    (1, 27, 243) scaled the same way, 3^scaled_floor(i, j) divides m(i, j)
    for every row, which is what makes the floors proved and not observed.
    Deep rows cost additions of numbers that grow by under a bit per row
    instead of two base-3 digits per row.
    """
    if limit < 1:
        return
    window = []
    for i, base in enumerate(_SCALED_BASE, start=1):
        if i > limit:
            return
        row = list(base)
        yield i, row
        window.append(row)
    for i in range(4, limit + 1):
        p1, p2, p3 = window[2], window[1], window[0]
        x2 = p2 + [0]
        x3 = p3 + [0, 0]
        cut = max((i + 1) // 3 - 1, 0)
        row = [0]
        row.extend(9 * x + 3 * y + z
                   for x, y, z in zip(p1[:cut], x2[:cut], x3[:cut]))
        if i % 3 == 1:
            row.append(3 * p1[cut] + x2[cut] + x3[cut])
            cut += 1
        row.extend(x + y + z
                   for x, y, z in zip(p1[cut:], x2[cut:], x3[cut:]))
        _check_zero_pattern(i, row)
        yield i, row
        window = [window[1], window[2], row]


class MatrixTable:
    """Materialised rows 1..depth of the transition table."""

    def __init__(self, depth):
        if not isinstance(depth, int) or depth < 1:
            raise ValueError(f"depth {depth!r} must be a positive integer")
        self._rows = []
        self.extend(depth)

    @property
    def depth(self):
        return len(self._rows)

    def extend(self, depth):
        """Grow to at least ``depth`` rows, rescaling the scaled rows."""
        pow3 = [3 ** k for k in range(2 * depth)]  # scaled_floor(i, j) < 2i
        for i, row in iter_scaled_rows(depth):
            if i > self.depth:
                self._rows.append(tuple(u * pow3[scaled_floor(i, j)]
                                        for j, u in enumerate(row, start=1)))
        return self

    def row(self, i):
        if not 1 <= i <= self.depth:
            raise InsufficientRows(f"row {i} not available; table has {self.depth} rows")
        return self._rows[i - 1]

    def entry(self, i, j):
        """m(i, j), with j past the row width reading as zero."""
        if j < 1:
            raise ValueError(f"column {j} must be positive")
        row = self.row(i)
        return row[j - 1] if j <= len(row) else 0


def build_matrix(depth):
    """Table of rows 1..depth with zero patterns asserted."""
    return MatrixTable(depth)


# Source row index and column window of each reindexed view.  Kind A rows
# have width 3i-2, kinds B and C width 3i.
_VIEW_SOURCE_ROW = {"A": lambda i: 4 * i - 3, "B": lambda i: 4 * i - 1, "C": lambda i: 4 * i}
_VIEW_COL_START = {"A": lambda i: i, "B": lambda i: i, "C": lambda i: i + 1}
# Clamp constant: view column j of view row t carries the forced power
# 3^max(3j - t - kappa, 0) in the scaled row representation, so
# 3j - t - kappa is also the kind's valuation floor.
_VIEW_KAPPA = {"A": 1, "B": 3, "C": 1}


def _view_rows_through(kind, depth):
    """Number of view rows whose source row is at most ``depth``.

    Source rows step by 4, so this inverts ``_VIEW_SOURCE_ROW``: table row
    i is view row ``t = _view_rows_through(kind, i)`` exactly when
    ``_VIEW_SOURCE_ROW[kind](t) == i``.
    """
    return (depth - _VIEW_SOURCE_ROW[kind](0)) // 4


def view_width(kind, i):
    return 3 * i - 2 if kind == "A" else 3 * i


class SubmatrixView:
    """Reindexed window of a table; kind is one of A, B, C."""

    def __init__(self, table, kind):
        if kind not in _KINDS:
            raise ValueError(f"kind {kind!r} must be one of {_KINDS}")
        self.table = table
        self.kind = kind

    def width(self, i):
        return view_width(self.kind, i)

    def max_rows(self):
        """Largest i whose source row is inside the table."""
        return _view_rows_through(self.kind, self.table.depth)

    def row(self, i):
        src = _VIEW_SOURCE_ROW[self.kind](i)
        start = _VIEW_COL_START[self.kind](i) - 1
        return self.table.row(src)[start:start + self.width(i)]

    def entry(self, i, j):
        if not 1 <= j <= self.width(i):
            raise ValueError(f"column {j} outside row {i} of kind {self.kind}")
        src = _VIEW_SOURCE_ROW[self.kind](i)
        return self.table.entry(src, _VIEW_COL_START[self.kind](i) + j - 1)


def submatrix(table, kind):
    return SubmatrixView(table, kind)


# -- the two eta quotients tied together by the table --------------------

def source_quotient():
    """Quotient whose huffed reciprocal powers the table expands."""
    return parse("f1*f2/(q*f9*f18)")


def target_quotient():
    """Quotient whose reciprocal powers span the huffed expansions."""
    return parse("f3^4*f6^4/(q^3*f9^4*f18^4)")


def source_series(order):
    return expand_spec(source_quotient(), order)


def target_series(order):
    return expand_spec(target_quotient(), order)


def verify_cubic_relation(order):
    """source^3 + 3*source^2 + 9*source agrees with target through ``order``."""
    # cubing a lead -1 series costs two orders of validity
    s = source_series(order + 2)
    t = target_series(order)
    lhs = s.power(3) + s.power(2) * 3 + s * 9
    return lhs.equal_up_to(t, order)


def verify_huff_expansion(i, order, table=None):
    """Row i reproduces huff(source^-i) as a target^-j combination."""
    if i < 1:
        raise ValueError(f"row index {i} must be positive")
    if table is None:
        table = MatrixTable(i)
    elif table.depth < i:
        raise InsufficientRows(f"need {i} rows, table has {table.depth}")
    sinv = source_series(order).invert()
    lhs = huff(sinv.power(i), MOD3)
    tinv = target_series(order).invert()
    rhs = Series.zero()
    tpow = Series.one()
    for j in range(1, i + 1):
        tpow = tpow * tinv
        m = table.entry(i, j)
        if m:
            rhs = rhs + tpow * m
    return lhs.equal_up_to(rhs, order)


# Exponent steps of the two weight ladders in the rearranged identities:
# powers of f3*f6/(f1*f2) on the left, f9*f18/(f3*f6) on the right.
_REARRANGED = {
    "A": (lambda i: 4 * i - 3, lambda i: i - 3, lambda j: 4 * j - 1, lambda j: 3 * j - 3),
    "B": (lambda i: 4 * i - 1, lambda i: i - 1, lambda j: 4 * j - 3, lambda j: 3 * j - 3),
    "C": (lambda i: 4 * i, lambda i: i, lambda j: 4 * j, lambda j: 3 * j),
}


def verify_rearranged_identity(kind, i, order, table=None):
    """Huffing a shifted power of the cubic ratio lands on one view row."""
    if kind not in _KINDS:
        raise ValueError(f"kind {kind!r} must be one of {_KINDS}")
    if i < 1:
        raise ValueError(f"row index {i} must be positive")
    src_row = _VIEW_SOURCE_ROW[kind](i)
    if table is None:
        table = MatrixTable(src_row)
    elif table.depth < src_row:
        raise InsufficientRows(f"need {src_row} rows, table has {table.depth}")
    view = submatrix(table, kind)
    lpow, lshift, rpow, rshift = _REARRANGED[kind]
    inner = order + 3
    w = expand_spec(parse("f3*f6/(f1*f2)"), inner)
    v = expand_spec(parse("f9*f18/(f3*f6)"), inner)
    lhs = huff(w.power(lpow(i)).shift(lshift(i)), MOD3)
    rhs = Series.zero()
    row = view.row(i)
    for j, entry in enumerate(row, start=1):
        if entry:
            rhs = rhs + (v.power(rpow(j)) * entry).shift(rshift(j))
    return lhs.equal_up_to(rhs, order)
