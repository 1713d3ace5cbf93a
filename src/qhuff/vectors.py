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

Every view row adds into the next vector on its own, so a step of more
than ``_STREAM_THRESHOLD`` rows is split, with two or more usable CPUs,
into contiguous ranges of view rows on group edges, at most one per CPU.
They run through ``verify.run_jobs``, the route ``SeriesCache.fill`` takes
too: each range but the top one in a worker process, which generates rows
only up to its range's top, and the top range, which needs every row, in
the calling process.  The partial sums are added before the 3-power
ladder, so the vectors are the same on any number of CPUs.  Steps up to
the threshold, and every step on one CPU, fold in process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import verify
from .eta import expand_spec, parse
from .matrices import (InsufficientRows, MatrixTable, _VIEW_COL_START,
                       _VIEW_KAPPA, _VIEW_SOURCE_ROW, _view_rows_through,
                       iter_scaled_rows, submatrix, view_width)
from .padic import valuation
from .series import Series

_FAMILIES = ("X", "Y")

# Materialise the table for steps needing at most this many rows; larger
# steps stream, split across the usable CPUs.
_STREAM_THRESHOLD = 400
# View rows summed per group by the streamed fold.
_GROUP = 16
# Partial-sum entries per message from a split step's worker.
_CHUNK = 256
# Bits a scaled table row entry gains per row, at most: right of the floor
# boundary each entry is the sum of three parents, so entries grow by the
# tribonacci constant 1.8393 per row (row 2916 peaks at 0.877 bits per row).
_ROW_BITS = math.log2(1.8392867552141612)
_LOG2_3 = math.log2(3)


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
    shifts uniformly with j: the fold (:func:`_fold_rows`) accumulates each
    term at base G = min(nu - t - kappa), and one ladder of 3^(3j+G)
    rebuilds the exact entries at the end.  Terms left of the boundary
    carry no forced power and fold directly.

    A step needing more than ``_STREAM_THRESHOLD`` table rows, with at least
    two usable CPUs, is split into ranges balanced by :func:`_range_edges`
    and folded through ``verify.run_jobs``, the top range here (see the
    module docstring); the partial sums are added up before the ladder, so
    the result is the same integers on any number of CPUs.
    """
    kind = step_kind(v)
    s = v.support
    if s == 0:
        return CoeffVector(v.family, v.alpha + 1, ())
    kappa = _VIEW_KAPPA[kind]
    nus = [valuation(c) if c else None for c in v.entries]
    live = [nu - t - kappa for t, nu in enumerate(nus, start=1) if nu is not None]
    if not live:
        return CoeffVector(v.family, v.alpha + 1, ())
    base = min(live)
    if base < -3:
        raise ValueError(
            f"entry valuations too small for the scaled step (base {base})")

    edges = [0, s]
    if required_depth(v) > _STREAM_THRESHOLD:
        cpus = verify._usable_cpus()
        if cpus > 1:
            edges = _range_edges(v, nus, cpus)
    jobs = [(kind, lo, v.entries[lo:hi], nus[lo:hi], base)
            for lo, hi in zip(edges, edges[1:])]
    direct, scaled = verify.run_jobs(_fold_rows, jobs, _send_sums, _add_sums)[-1]

    power = 3 ** (3 + base)
    for j, y in enumerate(scaled):
        if y:
            direct[j] += power * y
            scaled[j] = 0  # freed as it is used
        power *= 27
    return CoeffVector(v.family, v.alpha + 1, direct)


def _fold_rows(kind, first, entries, nus, base):
    """Partial sums (direct, scaled) of view rows first+1 .. first+len(entries).

    ``entries`` and ``nus`` are those rows' old entries and valuations, and
    ``base`` the step's G.  Rows are generated from the first up to the
    range's top.  Each unit is scaled only to the lowest exponent of its
    group of ``_GROUP`` rows, keeping the products narrow; each group's sum
    is lifted to G once per column.  ``first`` is a group edge, so the
    groups are those of the whole step.
    """
    kappa = _VIEW_KAPPA[kind]
    source_row = _VIEW_SOURCE_ROW[kind]
    col_start = _VIEW_COL_START[kind]
    if not any(entries):
        return [], []
    top = first + len(entries)
    gs = [nu - t - kappa if nu is not None else None
          for t, nu in enumerate(nus, start=first + 1)]
    group_base = [min((g for g in gs[k:k + _GROUP] if g is not None), default=base)
                  for k in range(0, len(gs), _GROUP)]

    width_out = view_width(kind, top)
    scaled = [0] * width_out
    direct = [0] * width_out
    group, acc = 0, []

    def spill():
        power = 3 ** (group_base[group] - base)
        scaled[:len(acc)] = [x + power * y for x, y in zip(scaled, acc)]

    for i, row in iter_scaled_rows(source_row(top)):
        t = _view_rows_through(kind, i)
        if t <= first or source_row(t) != i:
            continue
        k = t - first - 1
        coeff = entries[k]
        if not coeff:
            continue
        if k // _GROUP != group:
            spill()
            group, acc = k // _GROUP, []
        unit = (coeff // 3 ** nus[k]) * 3 ** (gs[k] - group_base[group])
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
    return direct, scaled


def _send_sums(sender, sums):
    """Send partial sums: their width, then ``_CHUNK``-entry slices, direct then scaled.

    :func:`_add_sums` adds them into the top range's sums as they arrive,
    so no second copy of the widest lists is alive at once.  (Whole
    results, or a process pool, whose helper thread unpickles them in a
    malloc arena that keeps the memory, raised the ``chains`` benchmark's
    peak RSS by 8-11%.)
    """
    sender.send(len(sums[0]))
    for part in sums:
        for lo in range(0, len(part), _CHUNK):
            sender.send(part[lo:lo + _CHUNK])


def _add_sums(receiver, sums):
    """Add the partial sums :func:`_send_sums` sent into ``sums``, in place."""
    width = receiver.recv()
    pad = [0] * (width - len(sums[0]))
    for acc in sums:
        acc.extend(pad)
        for lo in range(0, width, _CHUNK):
            for j, x in enumerate(receiver.recv(), start=lo):
                acc[j] += x


def _words(bits):
    return int(bits) // 64 + 1


def _range_edges(v, nus, ranges):
    """View-row edges of at most ``ranges`` ranges with the least largest work.

    Edges fall on group edges.  The work of a range is estimated from v
    before any row exists, in 64-bit word operations, with one more per
    entry for the interpreter: each entry of table row i is two additions
    of row-entry words (1 + 2r), and each entry multiplied into view row t
    is one product and one addition of unit and row-entry words
    ((1 + u)(1 + r)).  A scaled row entry has at most ``_ROW_BITS * i``
    bits; a unit's bits follow from its entry's length and valuation.  A
    range generates every row from the first up to its top, so the top
    range pays for all of them and gets the fewest view rows: about the
    top quarter on two CPUs.
    """
    kind = step_kind(v)
    source_row = _VIEW_SOURCE_ROW[kind]
    s = v.support
    gen, mac = [], []  # per group: rows generated through it, its products
    generated, top_row = 0, 0
    for k in range(0, s, _GROUP):
        group = range(k + 1, min(k + _GROUP, s) + 1)
        for i in range(top_row + 1, source_row(group[-1]) + 1):
            generated += i * (1 + 2 * _words(_ROW_BITS * i))
        top_row = source_row(group[-1])
        gen.append(generated)
        # unit = entry / 3^(nu - t - lowest), lowest the group's least nu - t
        lowest = min((nus[t - 1] - t for t in group if nus[t - 1] is not None),
                     default=0)
        work = 0
        for t in group:
            if v.entries[t - 1]:
                unit_bits = v.entries[t - 1].bit_length() - (t + lowest) * _LOG2_3
                work += (view_width(kind, t) * (1 + _words(_ROW_BITS * source_row(t)))
                         * (1 + _words(max(unit_bits, 0))))
        mac.append(work)

    def cut(limit):
        """Greedy group edges of ranges costing at most ``limit`` each, or None."""
        edges, spent = [0], 0
        for g, (made, work) in enumerate(zip(gen, mac)):
            if made + work > limit:
                return None
            if made + spent + work > limit:
                edges.append(g)
                spent = 0
            spent += work
        edges.append(len(mac))
        return edges if len(edges) - 1 <= ranges else None

    lo, hi = 0, gen[-1] + sum(mac)
    while lo < hi:
        mid = (lo + hi) // 2
        if cut(mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return [min(g * _GROUP, s) for g in cut(lo)]


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
    """Exact 3-adic valuation of every entry against its proven floor.

    Each entry is divided once by 3^floor (the powers built up along j);
    when that leaves no remainder only the quotient's valuation is left to
    find, a few floor digits shorter.  An entry below its floor falls back
    to its own valuation.
    """
    out = []
    exponent, power = 0, 1
    for j, entry in enumerate(v.entries, start=1):
        bound = valuation_floor(v.family, v.alpha, j)
        if bound > exponent:
            power *= 3 ** (bound - exponent)
            exponent = bound
        q, r = divmod(entry, power)
        nu = exponent + valuation(q, 3) if not r else valuation(entry, 3)
        out.append(ValuationCheck(j, nu, bound, nu >= bound, nu == bound))
    return out
