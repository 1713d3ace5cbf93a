import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhuff.padic import valuation
from qhuff.series import INF


@st.composite
def unit_times_power(draw):
    """(p, k, n) with n = ±p^k·u and u coprime to p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(min_value=0, max_value=3000))
    u = p * draw(st.integers(min_value=0, max_value=10 ** 40)) \
        + draw(st.integers(min_value=1, max_value=p - 1))
    sign = draw(st.sampled_from([1, -1]))
    return p, k, sign * p ** k * u


@settings(max_examples=200, deadline=None)
@given(unit_times_power())
# k one below, at and one above a power of two: the squaring ladder stops
# at each side of a chunk and the walk-back takes every width once
@example((3, 2047, 3 ** 2047 * 2))
@example((3, 2048, -(3 ** 2048) * 5))
@example((2, 2049, 2 ** 2049 * 3))
@example((7, 1, 7))
def test_valuation_of_power_times_unit(case):
    p, k, n = case
    assert valuation(n, p) == k


def test_valuation_default_base_is_three():
    assert valuation(3 ** 500 * 10) == 500
    assert valuation(1) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1000003])
def test_valuation_of_zero_is_infinite(p):
    assert valuation(0, p) is INF


@pytest.mark.parametrize("n,p", [(9.0, 3), ("9", 3), (None, 3), (9, 3.0), (9, None)])
def test_valuation_rejects_non_integers(n, p):
    with pytest.raises(TypeError):
        valuation(n, p)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_valuation_rejects_small_bases(p):
    with pytest.raises(ValueError):
        valuation(9, p)
    with pytest.raises(ValueError):
        valuation(0, p)
