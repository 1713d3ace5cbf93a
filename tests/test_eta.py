import pytest

from qhuff.eta import (FAMILIES, MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, EtaQuotientSpec,
                       NonIntegerConstant, QuotientSyntaxError, expand_eta,
                       expand_spec, parse)
from qhuff.series import Series


def naive_eta(k, order):
    """Forward truncated product prod(1 - q^(k*m)), independent of the
    pentagonal route used by expand_eta."""
    acc = Series(0, [1], order)
    m = k
    while m <= order:
        acc = acc * Series(0, [1] + [0] * (m - 1) + [-1], order)
        m += k
    return acc


def partition_numbers(top):
    """Euler recurrence over distinct part sums, local to the tests."""
    p = [1] + [0] * top
    for n in range(1, top + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


# -- expansion ------------------------------------------------------------

def test_f1_head():
    f1 = expand_eta(1, 7)
    assert f1.coefficients(0, 7) == [1, -1, -1, 0, 0, 1, 0, 1]


def test_expand_matches_naive_product():
    # orders that are not multiples of k still end at k*(order//k) + k - 1
    for k, order in ((1, 180), (2, 180), (3, 180), (3, 100), (3, 101), (1, 7),
                     (3, 0)):
        fast = expand_eta(k, order)
        assert fast.valid_to == k * (order // k) + k - 1
        assert fast.equal_up_to(naive_eta(k, fast.valid_to), fast.valid_to)


def test_expand_is_dilation_of_base():
    base = expand_eta(1, 60)
    assert expand_eta(3, 180).equal_up_to(base.dilate(3), 180)


def test_expand_eta_validates():
    with pytest.raises(ValueError):
        expand_eta(0, 10)
    with pytest.raises(ValueError):
        expand_eta(2, -1)


# -- spec normal form -----------------------------------------------------

def test_spec_drops_zero_exponents():
    spec = EtaQuotientSpec(factors={2: 0, 1: 3})
    assert spec.factors == {1: 3}


def test_spec_multiplication_merges():
    a = parse("2*f1^2/f3")
    b = parse("3*f3*q")
    prod = a * b
    assert prod.constant == 6
    assert prod.qshift == 1
    assert prod.factors == {1: 2}


def test_spec_rejects_bad_scale():
    with pytest.raises(ValueError):
        EtaQuotientSpec(factors={0: 1})


def test_spec_exponent_overflow():
    with pytest.raises(OverflowError):
        EtaQuotientSpec(factors={1: MAX_EXPONENT + 1})
    with pytest.raises(OverflowError):
        EtaQuotientSpec(qshift=-(MAX_EXPONENT + 1))


def test_render_round_trips():
    for text in ("f1", "3*f1^2*f2/(f3*f6^2)", "q^2*f9*f18/f1",
                 "5", "1/f1", "7*q/(f1*f2)"):
        spec = parse(text)
        again = parse(spec.render())
        assert again == spec


def test_render_forms():
    assert parse("f2*f1").render() == "f1*f2"
    assert parse("1/f1").render() == "1/f1"
    assert parse("1/(f1*f2)").render() == "1/(f1*f2)"
    assert parse("q^0*f1^1").render() == "f1"


# -- parser ---------------------------------------------------------------

def test_parse_whitespace_and_parens():
    assert parse(" f1 * ( f2 / f3 ) ") == parse("f1*f2/f3")


def test_parse_negative_exponent():
    spec = parse("f1^-3")
    assert spec.factors == {1: -3}


def test_parse_constant_division_exact():
    assert parse("6/2").constant == 3


def test_parse_constant_division_inexact():
    with pytest.raises(NonIntegerConstant):
        parse("1/2")


def test_parse_zero_division():
    with pytest.raises(ZeroDivisionError):
        parse("f1/0")


def test_parse_error_trailing_operator():
    with pytest.raises(QuotientSyntaxError) as err:
        parse("f1^2*")
    assert err.value.position == 5
    assert "integer" in err.value.expected


def test_parse_error_double_caret():
    with pytest.raises(QuotientSyntaxError) as err:
        parse("f1^^2")
    assert err.value.position == 3


def test_parse_error_unclosed_paren():
    with pytest.raises(QuotientSyntaxError) as err:
        parse("(f1*f2")
    assert "')'" in err.value.expected


def test_parse_error_junk_after_expr():
    with pytest.raises(QuotientSyntaxError) as err:
        parse("f1 f2")
    assert err.value.position == 3


def test_parse_exponent_literal_overflow():
    parse(f"f1^{MAX_EXPONENT}")
    with pytest.raises(OverflowError):
        parse(f"f1^{MAX_EXPONENT + 1}")


def test_parse_big_constant_allowed():
    assert parse(str(10 ** 60)).constant == 10 ** 60
    assert parse("9" * MAX_DIGITS).constant == 10 ** MAX_DIGITS - 1


def test_parse_long_literal_refused_before_conversion():
    with pytest.raises(OverflowError, match=f"MAX_DIGITS = {MAX_DIGITS}") as err:
        parse("f1*" + "7" * (MAX_DIGITS + 1))
    assert "position 3" in str(err.value)
    with pytest.raises(OverflowError, match="digit bound"):
        parse("f1^" + "0" * 5000 + "1")


def test_parse_zero_scale():
    with pytest.raises(QuotientSyntaxError):
        parse("f0")


def test_parse_nesting_capped():
    def nested(depth):
        return "(" * depth + "f1" + ")" * depth

    assert parse(nested(MAX_NESTING)) == parse("f1")
    with pytest.raises(QuotientSyntaxError) as err:
        parse(nested(MAX_NESTING + 1))
    assert err.value.position == MAX_NESTING
    # deep enough to exhaust the interpreter's stack without the cap
    with pytest.raises(QuotientSyntaxError):
        parse(nested(600))


@pytest.mark.parametrize("text", ["f\uff11", "f\u00b2", "\u0662*f1", "f1^\uff12", "q^\u00b3"])
def test_parse_ascii_digits_only(text):
    # fullwidth one, superscript two, Arabic-Indic two, fullwidth two,
    # superscript three: str.isdigit takes them all, int only some
    with pytest.raises(QuotientSyntaxError):
        parse(text)


# -- expansion of quotients -----------------------------------------------

def test_expand_spec_homomorphism():
    pairs = [("f1*f2", "1/f3"), ("q*f2^2", "f1/f2"), ("3*f1", "f1^-1")]
    for left, right in pairs:
        a, b = parse(left), parse(right)
        direct = expand_spec(a * b, 40)
        composed = expand_spec(a, 40) * expand_spec(b, 40)
        assert direct.equal_up_to(composed, 40)


def test_expand_spec_qshift():
    s = expand_spec(parse("q^3*f1"), 10)
    assert s.lead == 3
    assert s.coefficient(3) == 1 and s.coefficient(4) == -1
    neg = expand_spec(parse("f1/q^2"), 10)
    assert neg.lead == -2


def test_expand_spec_order_below_shift():
    with pytest.raises(ValueError):
        expand_spec(parse("q^5"), 4)


def test_expand_spec_zero_constant():
    assert expand_spec(parse("0*f1"), 10).is_zero


def test_partition_generating_function():
    top = 120
    p = expand_spec(FAMILIES["p"].spec, top)
    assert p.coefficients(0, top) == partition_numbers(top)


def test_inverse_cube_coefficient():
    s = expand_spec(parse("1/f1^3"), 6)
    assert s.coefficient(2) == 9


def test_family_heads():
    a3 = expand_spec(FAMILIES["a3"].spec, 8)
    assert a3.coefficients(0, 8) == [1, 1, 3, 3, 8, 9, 17, 20, 36]
    a9 = expand_spec(FAMILIES["a9"].spec, 5)
    assert a9.coefficients(0, 5) == [1, 1, 3, 4, 9, 12]
    a = expand_spec(FAMILIES["a"].spec, 4)
    assert a.coefficients(0, 4) == [1, 1, 3, 4, 9]


def test_family_specs_render():
    assert FAMILIES["p"].spec.render() == "1/f1"
    assert FAMILIES["a"].spec.render() == "1/(f1*f2)"
    assert FAMILIES["a3"].spec.render() == "f3*f6/(f1*f2)"
    assert FAMILIES["a9"].spec.render() == "f9*f18/(f1*f2)"


def test_expansions_stable_across_orders():
    small = expand_spec(FAMILIES["a3"].spec, 50)
    large = expand_spec(FAMILIES["a3"].spec, 400)
    assert large.equal_up_to(small, 50)
