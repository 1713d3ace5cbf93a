import pytest

from qhuff.matrices import (InsufficientRows, MatrixTable, ZeroPatternViolation,
                            _check_zero_pattern, _required_zeros, build_matrix,
                            scaled_floor, source_quotient, source_series,
                            submatrix, target_quotient, target_series,
                            verify_cubic_relation, verify_huff_expansion,
                            verify_rearranged_identity, view_width)
from qhuff.padic import valuation

FROZEN_ROWS = {
    1: (3,),
    2: (2, 27),
    3: (1, 27, 243),
    4: (0, 18, 324, 2187),
    5: (0, 5, 270, 3645, 19683),
    6: (0, 1, 126, 3645, 39366, 177147),
    7: (0, 0, 42, 2268, 45927, 413343, 1594323),
    8: (0, 0, 8, 1026, 34992, 551124, 4251528, 14348907),
    9: (0, 0, 1, 324, 19683, 492075, 6377292, 43046721, 129140163),
}


def reference_rows(limit):
    """Rows 1..limit of the exact, unscaled recurrence.

    Row i mixes column j-1 of rows i-1, i-2 and i-3 with weights 9, 3, 1.
    The table is built from the scaled rows instead, so this is an
    independent route to the same integers.
    """
    rows = [[3], [2, 27], [1, 27, 243]][:limit]
    while len(rows) < limit:
        r1, r2, r3 = rows[-1], rows[-2], rows[-3]
        pad2 = r2 + [0] * (len(r1) - len(r2))
        pad3 = r3 + [0] * (len(r1) - len(r3))
        rows.append([0] + [9 * x + 3 * y + z for x, y, z in zip(r1, pad2, pad3)])
    return rows


def test_frozen_rows():
    table = build_matrix(9)
    for i, row in FROZEN_ROWS.items():
        assert table.row(i) == row


def test_specific_entries():
    table = build_matrix(9)
    assert table.entry(4, 4) == 2187
    assert table.entry(6, 3) == 126
    assert table.entry(9, 6) == 492075
    assert table.entry(9, 8) == 43046721
    assert table.entry(3, 7) == 0  # past the row width


def test_entry_bounds():
    table = build_matrix(5)
    with pytest.raises(InsufficientRows):
        table.row(6)
    with pytest.raises(InsufficientRows):
        table.entry(0, 1)
    with pytest.raises(ValueError):
        table.entry(3, 0)


def test_table_extends():
    table = MatrixTable(3)
    table.extend(6)
    assert table.depth == 6
    assert table.row(6) == FROZEN_ROWS[6]


def test_required_zeros():
    assert [_required_zeros(i) for i in range(1, 13)] == \
        [0, 0, 0, 1, 1, 0, 1, 2, 2, 0, 2, 3]


def test_zero_pattern_enforced():
    with pytest.raises(ZeroPatternViolation):
        _check_zero_pattern(8, [0, 1, 8, 1026, 0, 0, 0, 0])
    _check_zero_pattern(8, list(FROZEN_ROWS[8]))


def test_table_matches_exact_recurrence():
    table = MatrixTable(200)
    assert table.depth == 200
    for i, row in enumerate(reference_rows(200), start=1):
        assert table.row(i) == tuple(row)


def test_scaled_floor_values():
    assert scaled_floor(9, 3) == 0
    assert scaled_floor(9, 9) == 17
    assert scaled_floor(4, 2) == 1


def test_entry_valuation_floor():
    table = build_matrix(30)
    for i in range(1, 31):
        for j in range(1, i + 1):
            assert valuation(table.entry(i, j), 3) >= 3 * j - i - 1


def test_quotient_renders():
    assert source_quotient().render() == "f1*f2/(q*f9*f18)"
    assert target_quotient().render() == "f3^4*f6^4/(q^3*f9^4*f18^4)"


def test_source_head():
    s = source_series(10)
    assert s.lead == -1
    assert s.coefficients(-1, 3) == [1, -1, -2, 1, 0]


def test_target_lead():
    t = target_series(10)
    assert t.lead == -3
    assert t.coefficient(-3) == 1


def test_cubic_relation():
    assert verify_cubic_relation(40)


def test_submatrix_views():
    table = build_matrix(12)
    a = submatrix(table, "A")
    b = submatrix(table, "B")
    c = submatrix(table, "C")
    assert a.row(1) == (3,)
    assert b.row(1) == (1, 27, 243)
    assert c.row(1) == (18, 324, 2187)
    assert a.row(2) == tuple(FROZEN_ROWS[5][1:])
    assert b.row(2) == tuple(FROZEN_ROWS[7][1:])
    assert c.row(2) == tuple(FROZEN_ROWS[8][2:])
    assert view_width("A", 2) == 4
    assert view_width("B", 2) == 6
    assert view_width("C", 2) == 6


def test_submatrix_entry_range():
    table = build_matrix(12)
    view = submatrix(table, "A")
    with pytest.raises(ValueError):
        view.entry(1, 2)
    assert view.entry(1, 1) == 3


def test_huff_expansion_small():
    table = MatrixTable(6)
    for i in range(1, 7):
        assert verify_huff_expansion(i, 40, table)


def test_huff_expansion_needs_depth():
    with pytest.raises(InsufficientRows):
        verify_huff_expansion(5, 40, MatrixTable(3))
    with pytest.raises(ValueError):
        verify_huff_expansion(0, 40)


def test_rearranged_identities_small():
    table = MatrixTable(12)
    for kind in ("A", "B", "C"):
        for i in (1, 2, 3):
            assert verify_rearranged_identity(kind, i, 30, table)
