import pytest

from qhuff.eta import FAMILIES, expand_spec
from qhuff.huffing import extract_progression
from qhuff.matrices import InsufficientRows, MatrixTable
from qhuff.padic import valuation
from qhuff.vectors import (_GROUP, CoeffVector, _step_streaming, chain,
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


def test_deep_chain_valuations():
    for family in ("X", "Y"):
        for v in chain(family, 5):
            assert all(c.passed for c in check_valuations(v))


def test_deep_entries_stay_divisible():
    # spot check: streaming output is exactly the integer the table gives
    v = chain("X", 4)[4]
    assert v.support == 21
    assert valuation(v.entries[20]) >= valuation_floor("X", 4, 21)
