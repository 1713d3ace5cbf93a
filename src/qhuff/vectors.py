"""Coefficient vector iteration over the submatrix views.

Two chains are tracked.  The X chain alternates kinds A and B starting
from (1); the Y chain applies kind C starting from (3).  Entry j of a
vector weights one power of the cubic ratio f3*f6/(f1*f2) in the
reconstruction, so each vector encodes the generating function of one
progression of a3 or a9 counts.

Support is tracked exactly: trailing zero entries are trimmed and the
needed table depth is computed from the actual support.  Past a few
hundred rows the materialised table gets expensive (entries near the
diagonal hold thousands of base-3 digits), so deep steps stream the rows,
keeping only the three live ones while folding the product on the fly.
The fold sums ``_GROUP`` rows at a time, each unit scaled only to its
group's lowest 3-power (tens of bits); the rest of the power, thousands of
bits deep in a chain, is applied once per column per group, not per row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eta import expand_spec, parse
from .matrices import (InsufficientRows, MatrixTable, _VIEW_COL_START,
                       _VIEW_KAPPA, _VIEW_SOURCE_ROW, _view_rows_through,
                       iter_scaled_rows, submatrix, view_width)
from .padic import valuation
from .series import Series

_FAMILIES = ("X", "Y")

# Materialise the table for steps needing at most this many rows.
_STREAM_THRESHOLD = 400
# View rows summed per group by the streamed fold.
_GROUP = 16


@dataclass(frozen=True)
class CoeffVector:
    """One state of a chain: family, iteration index, exact entries."""

    family: str
    alpha: int
    entries: tuple

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"family {self.family!r} must be one of {_FAMILIES}")
        if self.alpha < 0:
            raise ValueError(f"alpha {self.alpha} must be nonnegative")
        trimmed = list(self.entries)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "entries", tuple(trimmed))

    @property
    def support(self):
        return len(self.entries)


def initial_vector(family):
    """Chain start: (1) for X, (3) for Y."""
    if family == "X":
        return CoeffVector("X", 0, (1,))
    if family == "Y":
        return CoeffVector("Y", 0, (3,))
    raise ValueError(f"family {family!r} must be one of {_FAMILIES}")


def step_kind(v):
    """Submatrix kind consumed by the next step."""
    if v.family == "Y":
        return "C"
    return "A" if v.alpha % 2 == 0 else "B"


def required_depth(v):
    """Table rows needed to advance v by one step."""
    return _VIEW_SOURCE_ROW[step_kind(v)](v.support)


def step(v, table):
    """Advance one step through a materialised table."""
    if not isinstance(table, MatrixTable):
        raise TypeError("step expects a MatrixTable")
    if v.support == 0:
        return CoeffVector(v.family, v.alpha + 1, ())
    kind = step_kind(v)
    if table.depth < required_depth(v):
        raise InsufficientRows(
            f"step at alpha={v.alpha} needs {required_depth(v)} rows, "
            f"table has {table.depth}")
    view = submatrix(table, kind)
    out = [0] * view_width(kind, v.support)
    for t, coeff in enumerate(v.entries, start=1):
        if not coeff:
            continue
        row = view.row(t)
        win = out[:len(row)]
        out[:len(row)] = [x + coeff * y for x, y in zip(win, row)]
    return CoeffVector(v.family, v.alpha + 1, out)


def _step_streaming(v):
    """Advance one step without materialising the table.

    Works on scaled rows.  For view entry (t, j) right of the floor
    boundary the forced exponent is 3j + (nu(old_t) - t - kappa), so after
    pulling each old entry apart as 3^nu * unit the per-column exponent
    shifts uniformly with j.  Each unit is scaled only to the lowest
    exponent of its group of ``_GROUP`` rows, keeping the products narrow;
    each group's sum is lifted to the common base G once per column, and
    one ladder of 3^(3j+G) rebuilds the exact entries at the end.  Terms
    left of the boundary carry no forced power and fold directly.
    """
    kind = step_kind(v)
    s = v.support
    if s == 0:
        return CoeffVector(v.family, v.alpha + 1, ())
    kappa = _VIEW_KAPPA[kind]
    source_row = _VIEW_SOURCE_ROW[kind]
    col_start = _VIEW_COL_START[kind]
    width_out = view_width(kind, s)

    nus = [valuation(c) if c else None for c in v.entries]
    gs = [nu - t - kappa if nu is not None else None
          for t, nu in enumerate(nus, start=1)]
    live = [g for g in gs if g is not None]
    if not live:
        return CoeffVector(v.family, v.alpha + 1, ())
    base = min(live)
    if base < -3:
        raise ValueError(
            f"entry valuations too small for the scaled step (base {base})")
    group_base = [min((g for g in gs[k:k + _GROUP] if g is not None), default=base)
                  for k in range(0, s, _GROUP)]

    scaled = [0] * width_out
    direct = [0] * width_out
    group, acc = 0, []

    def spill():
        power = 3 ** (group_base[group] - base)
        scaled[:len(acc)] = [x + power * y for x, y in zip(scaled, acc)]

    for i, row in iter_scaled_rows(source_row(s)):
        t = _view_rows_through(kind, i)
        if source_row(t) != i:
            continue
        coeff = v.entries[t - 1]
        if not coeff:
            continue
        if (t - 1) // _GROUP != group:
            spill()
            group, acc = (t - 1) // _GROUP, []
        unit = (coeff // 3 ** nus[t - 1]) * 3 ** (gs[t - 1] - group_base[group])
        lo = col_start(t) - 1
        width = view_width(kind, t)
        clamped = min((t + kappa) // 3, width)
        if clamped:
            src = row[lo:lo + clamped]
            win = direct[:clamped]
            direct[:clamped] = [x + coeff * u for x, u in zip(win, src)]
        acc.extend([0] * (width - len(acc)))
        src = row[lo + clamped:lo + width]
        win = acc[clamped:width]
        acc[clamped:width] = [x + unit * u for x, u in zip(win, src)]
    spill()

    power = 3 ** (3 + base)
    out = []
    for x, y in zip(direct, scaled):
        out.append(x + power * y if y else x)
        power *= 27
    return CoeffVector(v.family, v.alpha + 1, out)


def advance(v):
    """One step: through a fresh table up to ``_STREAM_THRESHOLD`` rows, streamed past."""
    need = required_depth(v)
    if need <= _STREAM_THRESHOLD:
        return step(v, MatrixTable(max(need, 1)))
    return _step_streaming(v)


def chain(family, alpha_max):
    """Vectors for alpha = 0 .. alpha_max, each from the last by :func:`advance`."""
    if alpha_max < 0:
        raise ValueError(f"alpha_max {alpha_max} must be nonnegative")
    v = initial_vector(family)
    out = [v]
    for _ in range(alpha_max):
        v = advance(v)
        out.append(v)
    return out


# -- reconstruction ------------------------------------------------------

def _ladder_exponents(v):
    """First power and step of the cubic-ratio ladder for this vector."""
    if v.family == "Y":
        return 4, 4
    if v.alpha % 2 == 0:
        return 1, 4
    return 3, 4


def reconstruct(v, order):
    """Series generated by the vector through exponent ``order``.

    Entry i contributes entries[i] * q^(i-1) * w^e(i) with w the cubic
    ratio f3*f6/(f1*f2) and e the ladder for the vector's kind.
    """
    w = expand_spec(parse("f3*f6/(f1*f2)"), order)
    first, stride = _ladder_exponents(v)
    wstep = w.power(stride)
    cur = w.power(first)
    acc = Series(0, (), order)
    for i, entry in enumerate(v.entries, start=1):
        if i - 1 > order:
            break
        if entry:
            acc = acc + (cur * entry).shift(i - 1)
        cur = cur * wstep
    return acc


def expected_progression(v):
    """(stride, offset) of the progression this vector generates."""
    if v.family == "Y":
        stride = 3 ** (v.alpha + 1)
        return stride, stride - 1
    stride = 3 ** v.alpha
    half = (v.alpha + 1) // 2
    return stride, (9 ** half - 1) // 4


# -- valuation floors ----------------------------------------------------

def valuation_floor(family, alpha, j):
    """Proven lower bound on the 3-adic valuation of entry j."""
    if family == "Y":
        return alpha + 1 + 3 * (j - 1)
    if alpha % 2 == 0:
        return alpha // 2 + 3 * j - 4
    return (alpha - 1) // 2 + 1 + 3 * (j - 1)


@dataclass(frozen=True)
class ValuationCheck:
    """One entry against its floor; tight means the bound is attained."""

    index: int
    nu: object
    bound: int
    passed: bool
    tight: bool


def check_valuations(v):
    """Exact 3-adic valuation of every entry against its proven floor."""
    out = []
    for j, entry in enumerate(v.entries, start=1):
        nu = valuation(entry, 3)
        bound = valuation_floor(v.family, v.alpha, j)
        out.append(ValuationCheck(j, nu, bound, nu >= bound, nu == bound))
    return out
