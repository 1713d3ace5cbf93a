import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhuff.series import INF, BeyondValidity, NonUnitLead, Series, _mul_core


def naive_mul(a, b, order):
    """Schoolbook reference product, coefficients through q^order."""
    lo = a.lead + b.lead
    out = {}
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            e = a.lead + i + b.lead + j
            if e <= order:
                out[e] = out.get(e, 0) + ca * cb
    return [out.get(e, 0) for e in range(lo, order + 1)]


# -- construction and canonical form -------------------------------------

def test_zero_one_constant_monomial():
    z = Series.zero()
    assert z.is_zero and z.valid_to == INF
    assert Series.one().coefficient(0) == 1
    assert Series.constant(7).coefficient(0) == 7
    m = Series.monomial(5, -2)
    assert m.lead == -2 and m.coefficient(-2) == 5 and m.coefficient(3) == 0


def test_canonical_trims_zeros():
    s = Series(2, [0, 0, 4, 1, 0, 0], 40)
    assert s.lead == 4
    assert s.coeffs == (4, 1)
    assert s.valid_to == 40


def test_canonical_clips_past_validity():
    s = Series(0, [1, 2, 3, 4, 5], 2)
    assert s.coeffs == (1, 2, 3)
    assert s.coefficient(2) == 3
    with pytest.raises(BeyondValidity):
        s.coefficient(3)


def test_all_zero_coeffs_collapse():
    s = Series(5, [0, 0, 0], 9)
    assert s.is_zero and s.lead == 0 and s.valid_to == 9


def test_coefficient_between_run_and_bound_is_zero():
    s = Series(1, [3], 10)
    assert s.coefficient(7) == 0
    assert s.coefficient(0) == 0


def test_equal_up_to_respects_bounds():
    a = Series(0, [1, 1], 5)
    b = Series(0, [1, 1], 9)
    assert a.equal_up_to(b, 5)
    with pytest.raises(BeyondValidity):
        a.equal_up_to(b, 6)


def test_structural_equality_and_unhashable():
    assert Series(0, [1, 2], 9) == Series(0, [1, 2], 9)
    assert Series(0, [1, 2], 9) != Series(0, [1, 2], 8)
    with pytest.raises(TypeError):
        hash(Series.one())


# -- ring operations ------------------------------------------------------

def test_add_aligns_leads():
    a = Series(-1, [1, 0, 2], 6)   # q^-1 + 2q
    b = Series(1, [3], 6)          # 3q
    s = a + b
    assert s.coefficients(-1, 2) == [1, 0, 5, 0]
    assert s.valid_to == 6


def test_add_int_promotes():
    s = Series(0, [1, 1], 8) + 4
    assert s.coefficient(0) == 5
    assert 4 + Series(0, [1], 8) == Series(0, [5], 8)


def test_cancellation_keeps_finite_bound():
    a = Series(0, [1, 7], 30)
    s = a - a
    assert s.is_zero
    assert s.valid_to == 30


def test_mul_small_literal():
    a = Series(0, [1, 1], 10)      # 1 + q
    b = Series(0, [1, -1], 10)     # 1 - q
    p = a * b                      # 1 - q^2
    assert p.coefficients(0, 3) == [1, 0, -1, 0]
    assert p.valid_to == 10


def test_mul_validity_rule():
    a = Series(2, [1, 1], 9)
    b = Series(-1, [1, 2, 3], 7)
    p = a * b
    assert p.lead == 1
    assert p.valid_to == min(9 + -1, 7 + 2)


def test_mul_negative_lead():
    a = Series(-2, [1, 0, 1], 20)  # q^-2 + 1
    p = a * a
    assert p.coefficient(-4) == 1
    assert p.coefficient(-2) == 2
    assert p.coefficient(0) == 1


def test_mul_matches_naive_dense():
    a = Series(0, list(range(1, 40)), 60)
    b = Series(-2, [(-1) ** i * (i + 1) for i in range(35)], 60)
    p = a * b
    top = int(p.valid_to)
    assert p.coefficients(p.lead, top) == naive_mul(a, b, top)[:top - p.lead + 1]


def test_scale_by_int():
    s = Series(1, [2, 3], 9) * 5
    assert s.coeffs == (10, 15)
    assert (Series.one() * 0).is_zero


def test_invert_geometric():
    s = Series(0, [1, -1], 20)     # 1 - q
    inv = s.invert()
    assert inv.coefficients(0, 5) == [1] * 6
    assert inv.valid_to == 20


def test_invert_roundtrip_and_validity_gain():
    s = Series(-1, [1, 5, 7, 2], 30)
    inv = s.invert()
    assert inv.valid_to == 30 - 2 * (-1)
    prod = s * inv
    assert prod.equal_up_to(Series.one(), 28)


def test_invert_requires_unit_lead():
    with pytest.raises(NonUnitLead):
        Series(0, [2, 1], 9).invert()
    with pytest.raises(NonUnitLead):
        Series.zero().invert()


def test_invert_exact_multi_term_rejected():
    with pytest.raises(ValueError):
        Series(0, (1, -1), INF).invert()
    assert Series.monomial(-1, 3).invert() == Series.monomial(-1, -3)


def test_div_matches_mul_invert():
    num = Series(0, [2, 1, 1], 40)
    den = Series(0, [1, -1, 0, 4], 40)
    q1 = num.div(den)
    q2 = num * den.invert()
    assert q1.equal_up_to(q2, int(min(q1.valid_to, q2.valid_to)))


def test_div_by_monomial_exact():
    s = Series(2, (3, 4), INF)
    q = s.div(Series.monomial(-1, 1))
    assert q == Series(1, (-3, -4), INF)


def test_power_basics():
    s = Series(0, [1, 1], 12)
    assert s.power(0) == Series.one()
    assert s.power(1) == s
    cube = s.power(3)
    assert cube.coefficients(0, 3) == [1, 3, 3, 1]
    assert (s ** 2).coefficient(1) == 2


def test_power_negative():
    s = Series(0, [1, -1], 15)
    assert s.power(-1).coefficients(0, 4) == [1] * 5
    p = s.power(-2)
    assert p.coefficients(0, 3) == [1, 2, 3, 4]


def test_shift_dilate_truncate():
    s = Series(0, [1, 2], 5)
    assert s.shift(3).lead == 3
    assert s.shift(3).valid_to == 8
    d = s.dilate(3)
    assert d.coefficient(0) == 1 and d.coefficient(3) == 2
    assert d.coefficient(1) == 0
    assert d.valid_to == 3 * 5 + 2
    t = s.truncate(1)
    assert t.valid_to == 1 and t.coeffs == (1, 2)
    assert s.truncate(99) is s


def test_dilate_validates():
    with pytest.raises(ValueError):
        Series.one().dilate(0)


def test_repr_is_short():
    text = repr(Series(0, list(range(1, 30)), 40))
    assert "..." in text and text.count("q^") <= 6


# -- recompute stability --------------------------------------------------

def test_higher_order_recompute_agrees():
    den = Series(0, [1, -1, -1, 0, 0, 1], 200)
    low = Series.one().div(den.truncate(60))
    high = Series.one().div(den)
    assert high.truncate(60).equal_up_to(low, 60)


def test_blocked_division_crosses_block_boundary():
    # den spans the near/far split; validate against multiply back
    coeffs = [1] + [0] * 599 + [-1]
    den = Series(0, coeffs, 1400)
    inv = den.invert()
    assert (den * inv).equal_up_to(Series.one(), 1400 - 600)
    assert inv.coefficient(600) == 1
    assert inv.coefficient(1200) == 1
    assert inv.coefficient(601) == 0


# -- randomized ring laws --------------------------------------------------

coeff = st.integers(min_value=-9, max_value=9)


@st.composite
def series(draw, min_len=1, max_len=12):
    lead = draw(st.integers(min_value=-4, max_value=4))
    coeffs = draw(st.lists(coeff, min_size=min_len, max_size=max_len))
    return Series(lead, coeffs, 50)


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_mul_associative(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    assert left == right


@settings(max_examples=60, deadline=None)
@given(series(), series(), series())
def test_mul_distributes(a, b, c):
    left = a * (b + c)
    right = a * b + a * c
    top = int(min(left.valid_to, right.valid_to, 50))
    assert left.equal_up_to(right, top)


@settings(max_examples=40, deadline=None)
@given(series())
def test_invert_roundtrip_random(a):
    unit = Series(a.lead, [1] + list(a.coeffs), 50 + a.lead)
    inv = unit.invert()
    prod = unit * inv
    assert prod.equal_up_to(Series.one(), int(prod.valid_to))


@settings(max_examples=40, deadline=None)
@given(series(), series())
def test_add_commutes(a, b):
    assert a + b == b + a


RUNS = st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -7, 10 ** 30)), max_size=90)


@settings(max_examples=300, deadline=None)
@given(RUNS, RUNS, st.integers(1, 80), st.data())
def test_resumed_product_matches_schoolbook(a, b, length, data):
    # Outputs start..length-1 only, pair by pair or slice by slice.
    start = data.draw(st.integers(0, length))
    full = [sum(a[i] * b[n - i] for i in range(n + 1) if i < len(a) and n - i < len(b))
            for n in range(length)]
    assert _mul_core(a, b, length, start) == full[start:]
    assert _mul_core(tuple(a), tuple(b), length, start) == full[start:]
