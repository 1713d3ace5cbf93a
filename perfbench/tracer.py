"""Span tracing wrapped around qhuff's public functions from outside the package.

Nothing under ``src/`` knows about tracing.  :func:`installed` replaces each
traced function with a wrapper everywhere a ``qhuff`` module binds it by
name (``valuation`` is bound in ``padic``, ``verify`` and ``vectors``), and
each traced method on its class, then puts the originals back.

A span is (name, start, end, parent span, request id).  Spans are kept in
flat arrays while the run lasts and written out when it ends.  A span's
self time is its duration minus the durations of its direct children;
because spans nest strictly (one thread, generators traced per
resumption), the self times of all spans under a pass add up to the pass.
Per-call measurements that cost more than a counter increment (bit
lengths of whole rows or vectors) run inside ``trace.bookkeeping`` spans,
so their cost is reported as tracing cost and not charged to a layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
import weakref
from array import array
from time import perf_counter_ns

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span store plus named counters for one process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.counts = {}
        self.request_id = -1
        self._stack = []
        # Last object expand_eta returned per key; identity tells a memo hit
        # apart from a recomputation without reading the memo itself.
        self.eta_seen = {}
        self.table_depth = weakref.WeakKeyDictionary()

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def finish(self, idx):
        self.end[idx] = perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was open")

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def raise_to(self, name, value):
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    @property
    def span_count(self):
        return len(self.start)

    def self_times(self, lo, hi):
        """(calls, self seconds) per span name over spans lo..hi-1."""
        child = {}
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p] = child.get(p, 0) + self.end[i] - self.start[i]
        calls, self_ns = {}, {}
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            own = self.end[i] - self.start[i] - child.get(i, 0)
            self_ns[name] = self_ns.get(name, 0) + own
        return calls, {k: v / 1e9 for k, v in self_ns.items()}

    def write(self, path, pass_of):
        """Write every span as tab-separated text, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("pass\tspan\tname\tstart_ns\tend_ns\tparent\trequest\n")
            for i in range(len(self.start)):
                out.write(f"{pass_of(i)}\t{i}\t{self.names[self.name_id[i]]}\t"
                          f"{self.start[i]}\t{self.end[i]}\t{self.parent[i]}\t"
                          f"{self.request[i]}\n")


def _call_wrapper(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _generator_wrapper(tracer, name, fn, after):
    """One span per resumption of the generator, not one for its lifetime."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                idx = tracer.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.finish(idx)
                after(item)
                yield item
        finally:
            gen.close()

    return wrapper


def _hooks(tracer):
    """Span name and per-call measurement for every traced function and method.

    A measurement gets ``(args, result)``; on a generator it gets each item.
    """
    from qhuff import eta, huffing, matrices, padic, series, vectors, verify

    add = tracer.add

    def bookkeeping(measure):
        def run(*args):
            idx = tracer.begin(BOOKKEEPING)
            try:
                measure(*args)
            finally:
                tracer.finish(idx)
        return run

    def div_after(args, result):
        add("series.div.coeffs_out", len(result.coeffs))

    def expand_eta_after(args, result):
        key = tuple(args)
        prev = tracer.eta_seen.get(key)
        add("eta.expand_eta.hits" if prev is result else "eta.expand_eta.misses")
        tracer.eta_seen[key] = result

    def valuation_after(args, result):
        add("padic.valuation.input_bits", args[0].bit_length())

    def rows_after(item):
        add("matrices.iter_scaled_rows.rows")
        add("matrices.iter_scaled_rows.entry_bits", sum(map(int.bit_length, item[1])))

    def table_after(args, table):
        before = tracer.table_depth.get(table, 0)
        add("matrices.MatrixTable.rows", table.depth - before)
        tracer.table_depth[table] = table.depth

    def advance_after(args, v):
        add("vectors.entries_out", len(v.entries))
        if v.entries:
            tracer.raise_to("vectors.max_entry_bits",
                            max(map(int.bit_length, v.entries)))

    def claim_after(args, report):
        add("verify.verify_claim.indices_scanned", report.n_max + 1)

    functions = [
        ("eta.parse", eta.parse, None),
        ("eta.expand_spec", eta.expand_spec, None),
        ("eta.expand_eta", eta.expand_eta, expand_eta_after),
        ("huffing.huff", huffing.huff, None),
        ("huffing.extract_progression", huffing.extract_progression, None),
        ("padic.valuation", padic.valuation, valuation_after),
        ("matrices.verify_huff_expansion", matrices.verify_huff_expansion, None),
        ("vectors.chain", vectors.chain, None),
        ("vectors.advance", vectors.advance, bookkeeping(advance_after)),
        ("vectors.check_valuations", vectors.check_valuations, None),
        ("vectors.reconstruct", vectors.reconstruct, None),
        ("verify.theorem_suite", verify.theorem_suite, None),
        ("verify.verify_claim", verify.verify_claim, claim_after),
        ("matrices.iter_scaled_rows", matrices.iter_scaled_rows, bookkeeping(rows_after)),
    ]
    methods = [
        (series.Series, "series.div", "div", div_after),
        (series.Series, "series.mul", "__mul__", None),
        (series.Series, "series.power", "power", None),
        (series.Series, "series.invert", "invert", None),
        (matrices.MatrixTable, "matrices.MatrixTable", "extend", table_after),
        (verify.SeriesCache, "verify.SeriesCache", "family", None),
        (verify.SeriesCache, "verify.SeriesCache", "spec", None),
    ]
    return functions, methods


@contextlib.contextmanager
def installed(tracer):
    """Trace every hooked qhuff function while the block runs."""
    functions, methods = _hooks(tracer)
    modules = [m for n, m in list(sys.modules.items())
               if n == "qhuff" or n.startswith("qhuff.")]
    restore = []

    def replace(owner, original, wrapper):
        for attr, value in list(vars(owner).items()):
            if value is original:
                restore.append((owner, attr, value))
                setattr(owner, attr, wrapper)

    try:
        for name, fn, after in functions:
            wrap = _generator_wrapper if inspect.isgeneratorfunction(fn) else _call_wrapper
            wrapper = wrap(tracer, name, fn, after)
            for module in modules:
                replace(module, fn, wrapper)
        for cls, name, attr, after in methods:
            original = vars(cls)[attr]
            replace(cls, original, _call_wrapper(tracer, name, original, after))
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
