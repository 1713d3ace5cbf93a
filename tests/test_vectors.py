import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhuff import cli, vectors, verify
from qhuff.eta import FAMILIES, expand_spec
from qhuff.huffing import extract_progression
from qhuff.matrices import InsufficientRows, MatrixTable
from qhuff.padic import valuation
from qhuff.vectors import (_GROUP, _STREAM_THRESHOLD, CoeffVector,
                           ValuationCheck, _step_streaming, advance, chain,
                           check_valuations, expected_progression,
                           initial_vector, reconstruct, required_depth, step,
                           step_kind, valuation_floor)


def test_initial_vectors():
    assert initial_vector("X") == CoeffVector("X", 0, (1,))
    assert initial_vector("Y") == CoeffVector("Y", 0, (3,))
    with pytest.raises(ValueError):
        initial_vector("Z")


def test_vector_validation():
    with pytest.raises(ValueError):
        CoeffVector("Q", 0, (1,))
    with pytest.raises(ValueError):
        CoeffVector("X", -1, (1,))


def test_trailing_zeros_trimmed():
    v = CoeffVector("X", 1, (3, 0, 5, 0, 0))
    assert v.entries == (3, 0, 5)
    assert v.support == 3
    assert CoeffVector("Y", 2, (0, 0)).support == 0


def test_step_kind_alternation():
    kinds = [step_kind(CoeffVector("X", a, (1,))) for a in range(5)]
    assert kinds == ["A", "B", "A", "B", "A"]
    assert step_kind(CoeffVector("Y", 7, (1,))) == "C"


def test_required_depth():
    assert required_depth(initial_vector("X")) == 1
    assert required_depth(CoeffVector("X", 1, (3,))) == 3
    assert required_depth(CoeffVector("X", 2, (3, 81, 729))) == 9
    assert required_depth(initial_vector("Y")) == 4


def test_frozen_chain_heads():
    xs = chain("X", 3)
    assert xs[1].entries == (3,)
    assert xs[2].entries == (3, 81, 729)
    assert xs[3].entries[0] == 1143
    ys = chain("Y", 1)
    assert ys[1].entries == (54, 972, 6561)


def test_step_argument_checks():
    table = MatrixTable(3)
    with pytest.raises(TypeError):
        step(initial_vector("X"), None)
    with pytest.raises(InsufficientRows):
        step(CoeffVector("Y", 0, (3,)), table)
    with pytest.raises(ValueError):
        chain("X", -1)


def test_step_of_empty_vector():
    v = step(CoeffVector("X", 1, ()), MatrixTable(1))
    assert v.alpha == 2 and v.support == 0
    w = _step_streaming(CoeffVector("Y", 0, ()))
    assert w.alpha == 1 and w.support == 0


def test_streaming_matches_table():
    for family, alpha_max in (("X", 5), ("Y", 3)):
        v = initial_vector(family)
        for _ in range(alpha_max + 1):
            table = MatrixTable(required_depth(v))
            assert _step_streaming(v) == step(v, table)
            v = step(v, table)


def test_streaming_valuation_guard():
    # a real chain never gets here; entry valuations grow with depth
    with pytest.raises(ValueError):
        _step_streaming(CoeffVector("X", 2, (1, 1, 1, 1, 1)))


@pytest.mark.parametrize("family,alpha", [("X", 6), ("Y", 5)])
def test_grouped_fold_matches_table(family, alpha):
    # supports 183 and 243: many full row groups and a partial last one
    v = chain(family, alpha)[alpha]
    assert v.support > 8 * _GROUP and v.support % _GROUP
    assert _step_streaming(v) == step(v, MatrixTable(required_depth(v)))


def test_grouped_fold_on_edited_vectors():
    v = chain("X", 6)[6]
    table = MatrixTable(required_depth(v))
    entries = list(v.entries)
    hole = entries[:]
    hole[2 * _GROUP:3 * _GROUP] = [0] * _GROUP
    single = [0] * 40 + [entries[40]]
    # a deep entry at a group's start moves its lowest exponent off that row
    uneven = entries[:]
    uneven[_GROUP] *= 3 ** 200
    for edited in (hole, single, uneven):
        w = CoeffVector("X", 6, edited)
        assert _step_streaming(w) == step(w, table)


@pytest.mark.parametrize("family,alpha", [("X", 6), ("Y", 5)])
def test_two_level_fold_matches_table(family, alpha, monkeypatch, no_workers):
    # groups of 3 rows in runs of 3 groups: many runs, some of them empty
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(vectors, "_GROUP", 3)
    v = chain(family, alpha)[alpha]
    table = MatrixTable(required_depth(v))
    hole = list(v.entries)
    hole[20:50] = [0] * 30
    uneven = list(v.entries)
    uneven[9] *= 3 ** 200  # a deep entry at a run's start
    for entries in (v.entries, hole, uneven):
        w = CoeffVector(family, alpha, entries)
        assert _step_streaming(w) == step(w, table)


# -- split steps -----------------------------------------------------------

_fold_rows = vectors._fold_rows


def _in_worker():
    return multiprocessing.parent_process() is not None


def _raise_in_worker(*job):
    if _in_worker():
        raise ZeroDivisionError("fold in a worker")
    return _fold_rows(*job)


def _raise_here(*job):
    if not _in_worker():
        raise ZeroDivisionError("fold here")
    return _fold_rows(*job)


def _die_in_worker(*job):
    if _in_worker():
        os._exit(1)
    return _fold_rows(*job)


def _partitions(s):
    last = s // _GROUP * _GROUP  # the partial last group starts here
    return [[0, 4 * _GROUP, s], [0, last, s], [0, _GROUP, last - 2 * _GROUP, s],
            [0, 0, 5 * _GROUP, s], [0, 3 * _GROUP, 3 * _GROUP, s], [0, s, s]]


@pytest.mark.parametrize("family,alpha", [("X", 6), ("Y", 5)])
def test_split_step_any_partition_matches_table(family, alpha, workers,
                                                monkeypatch):
    v = chain(family, alpha)[alpha]
    assert required_depth(v) > _STREAM_THRESHOLD and v.support % _GROUP
    want = step(v, MatrixTable(required_depth(v)))
    for edges in _partitions(v.support):
        monkeypatch.setattr(vectors, "_range_edges", lambda v, nus, n: edges)
        assert _step_streaming(v) == want, edges
    assert len(workers) == 1 + 1 + 2 + 2 + 2 + 1


def test_split_step_starts_one_worker(workers):
    v = chain("X", 6)[6]
    assert _step_streaming(v) == step(v, MatrixTable(required_depth(v)))
    assert len(workers) == 1 and workers[0].exitcode == 0


def test_split_edges_on_group_edges():
    for family, alpha in (("X", 6), ("Y", 5)):
        v = chain(family, alpha)[alpha]
        nus = [valuation(c) for c in v.entries]
        for ranges in (2, 3, 5):
            edges = vectors._range_edges(v, nus, ranges)
            assert edges[0] == 0 and edges[-1] == v.support
            assert len(edges) - 1 <= ranges
            assert all(e % _GROUP == 0 for e in edges[:-1])
            # each range generates every row below its top, so the higher
            # a range, the fewer view rows it folds
            sizes = [hi - lo for lo, hi in zip(edges, edges[1:])]
            assert sizes == sorted(sizes, reverse=True) and sizes[-1] > 0


def test_split_step_in_process_on_one_cpu(monkeypatch, no_workers):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    v = chain("X", 6)[6]
    assert _step_streaming(v) == step(v, MatrixTable(required_depth(v)))


def test_split_skips_small_steps(monkeypatch, no_workers):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    v = chain("Y", 4)[4]
    assert required_depth(v) <= _STREAM_THRESHOLD
    assert _step_streaming(v) == advance(v)


def test_split_step_worker_error_reraises(workers, monkeypatch):
    monkeypatch.setattr(vectors, "_fold_rows", _raise_in_worker)
    with pytest.raises(ZeroDivisionError, match="in a worker"):
        _step_streaming(chain("X", 6)[6])
    assert len(workers) == 1 and multiprocessing.active_children() == []


def test_split_step_caller_error_reraises(workers, monkeypatch):
    # The top range raises here while the worker folds the lower one.
    monkeypatch.setattr(vectors, "_fold_rows", _raise_here)
    with pytest.raises(ZeroDivisionError, match="fold here"):
        _step_streaming(chain("X", 6)[6])
    assert len(workers) == 1 and multiprocessing.active_children() == []


def test_split_step_dead_worker_exits_3(workers, monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(vectors, "_fold_rows", _die_in_worker)
    with pytest.raises(BrokenProcessPool, match="exited with code 1"):
        _step_streaming(chain("X", 6)[6])
    conf = tmp_path / "run.conf"
    conf.write_text("recon_alpha = 1\nval_alpha = 7\n")
    assert cli.main(["verify", "vectors", "--config", str(conf)]) == 3
    assert "BrokenProcessPool" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_split_chain_leaves_no_processes(workers):
    ys = chain("Y", 6)
    assert len(workers) == 1  # Y 5 -> 6; the earlier steps need <= 400 rows
    assert multiprocessing.active_children() == []
    assert ys[6] == step(ys[5], MatrixTable(required_depth(ys[5])))


def test_expected_progressions():
    want_x = [(1, 0), (3, 2), (9, 2), (27, 20), (81, 20)]
    for alpha, pair in enumerate(want_x):
        assert expected_progression(CoeffVector("X", alpha, (1,))) == pair
    want_y = [(3, 2), (9, 8), (27, 26)]
    for alpha, pair in enumerate(want_y):
        assert expected_progression(CoeffVector("Y", alpha, (1,))) == pair


@pytest.mark.parametrize("family,source", [("X", "a3"), ("Y", "a9")])
def test_reconstruction_matches_extraction(family, source, cache):
    order = 30
    for v in chain(family, 2):
        stride, offset = expected_progression(v)
        series = cache.family(source, stride * order + offset)
        got = reconstruct(v, order)
        want = extract_progression(series, stride, offset)
        assert got.equal_up_to(want, order)


def test_valuation_floor_values():
    assert valuation_floor("Y", 3, 1) == 4
    assert valuation_floor("Y", 1, 3) == 8
    assert valuation_floor("X", 8, 1) == 3
    assert valuation_floor("X", 7, 2) == 7
    assert valuation_floor("X", 2, 1) == 0


def test_check_valuations_frozen():
    x2 = CoeffVector("X", 2, (3, 81, 729))
    checks = check_valuations(x2)
    assert [c.nu for c in checks] == [1, 4, 6]
    assert [c.bound for c in checks] == [0, 3, 6]
    assert all(c.passed for c in checks)
    assert [c.tight for c in checks] == [False, False, True]

    y1 = CoeffVector("Y", 1, (54, 972, 6561))
    checks = check_valuations(y1)
    assert [c.nu for c in checks] == [3, 5, 8]
    assert [c.bound for c in checks] == [2, 5, 8]
    assert [c.tight for c in checks] == [False, True, True]


def _per_entry_checks(v):
    """check_valuations through the valuation of each whole entry."""
    out = []
    for j, entry in enumerate(v.entries, start=1):
        nu = valuation(entry, 3)
        bound = valuation_floor(v.family, v.alpha, j)
        out.append(ValuationCheck(j, nu, bound, nu >= bound, nu == bound))
    return out


@pytest.mark.parametrize("family,alpha", [("X", 7), ("Y", 6)])
def test_check_valuations_matches_per_entry(family, alpha):
    for v in chain(family, alpha):
        assert check_valuations(v) == _per_entry_checks(v)


@st.composite
def _entries_and_floors(draw):
    """Entries ±u·3^nu (a quarter of them zero) and floors near each nu."""
    entries, floors = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        nu = draw(st.integers(min_value=0, max_value=2200))
        unit = 3 * draw(st.integers(min_value=0, max_value=10 ** 30)) \
            + draw(st.integers(min_value=1, max_value=2))
        sign = draw(st.sampled_from([1, -1]))
        zero = draw(st.integers(min_value=0, max_value=3)) == 0
        entries.append(0 if zero else sign * unit * 3 ** nu)
        floors.append(nu + draw(st.integers(min_value=-60, max_value=3)))
    return entries, floors


@settings(max_examples=200, deadline=None)
@given(_entries_and_floors())
# a sharp drop after a deep entry: the neighbour's guess misses, once
# with the entry above its floor and once below it; zeros, a negative
# floor and valuations past 2000
@example(([3 ** 40, 5 * 3 ** 7, 3 ** 50], [0, 0, 0]))
@example(([3 ** 40, -(3 ** 7) * 2, 3 ** 2001], [1, 9, 2000]))
@example(([0, 0, 2 * 3 ** 2500, 0, 3 ** 2499], [-1, 5, 2400, 0, 2600]))
def test_valuations_equal_each_entrys_own(case):
    entries, floors = case
    want = [valuation(e) if e else None for e in entries]
    assert vectors._valuations(entries, floors) == want


def test_check_valuations_on_edited_vectors():
    v = chain("Y", 3)[3]
    entries = list(v.entries)
    entries[4] = entries[4] // 3 ** 2 + 1  # below its floor, not divisible
    entries[5] = 2 * 3 ** (valuation_floor("Y", 3, 6) - 1)  # one below, divisible
    entries[7] = 0  # a zero in the middle
    entries[9] *= 3 ** 500  # far above its floor
    entries[10] = -entries[10]
    w = CoeffVector("Y", 3, entries)
    checks = check_valuations(w)
    assert checks == _per_entry_checks(w)
    assert [c.index for c in checks if not c.passed] == [5, 6]
    assert checks[7].nu == float("inf") and checks[7].passed
    assert checks[9].nu >= checks[9].bound + 500
    x0 = CoeffVector("X", 0, (1, 2, 0, 81))  # a negative floor at j = 1
    assert check_valuations(x0) == _per_entry_checks(x0)


def test_deep_chain_valuations():
    for family in ("X", "Y"):
        for v in chain(family, 5):
            assert all(c.passed for c in check_valuations(v))


def test_deep_entries_stay_divisible():
    # spot check: streaming output is exactly the integer the table gives
    v = chain("X", 4)[4]
    assert v.support == 21
    assert valuation(v.entries[20]) >= valuation_floor("X", 4, 21)
