import os
import pickle
import random
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qhuff
from qhuff import residues
from qhuff.eta import FAMILIES, EtaQuotientSpec, expand_eta, expand_spec, parse
from qhuff.residues import (Reduced, div_residues, expand_exact, expand_spec_residues,
                            jacobi_cube, pack_stage, unpack_stage)
from qhuff.series import Series, _recip_core
from qhuff.verify import CLAIM_MODULUS, SeriesCache

M32 = 3 ** 32


@pytest.mark.parametrize("length", [0, 1, 31, 32, 511, 512, 513, 1025])
@pytest.mark.parametrize("k", [1, 2, 9, 18])
def test_residue_kernel_matches_exact(k, length):
    # Lengths cross every sub-block (32) and block (512) edge; f9 and f18
    # are dilated, so their terms fall into every class unevenly.
    den = expand_eta(k, max(length, 1)).coeffs
    rng = random.Random(1000 * k + length)
    num = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(rng.randint(0, length + 2))]
    for d, n in ((den, num), ([-c for c in den], num), (den, [])):
        exact = _recip_core(n, d, length)
        for modulus in (M32, CLAIM_MODULUS):
            want = [x % modulus for x in exact]
            assert list(div_residues(n, d, length, modulus)) == want


@st.composite
def unit_divisions(draw):
    """A unit-sign divisor, a numerator and a length for the kernel."""
    length = draw(st.sampled_from((600, 1025, 1100)) | st.integers(1, 1100))
    terms = {}
    for lo, hi in ((1, 31), (32, 511), (512, 1140)):  # near, mid and far terms
        terms.update(draw(st.dictionaries(st.integers(lo, hi), st.sampled_from((-1, 1)),
                                          max_size=12)))
    den = [draw(st.sampled_from((-1, 1)))] + [0] * max(terms, default=0)
    for e, c in terms.items():
        den[e] = c
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    size = draw(st.integers(0, length + 2))
    num = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(size)]
    return num, den, length


SPLITS = (0, 31, 32, 33, 511, 512, 513)


@settings(max_examples=60, deadline=None)
@given(unit_divisions(), st.sampled_from((M32, CLAIM_MODULUS)))
def test_resumed_residue_kernel_matches_one_shot(division, modulus):
    # Resuming from the packed outputs of a shorter call, once from each
    # split point and through all of them in turn, gives the one-shot
    # residues, and those are the exact quotient's.
    num, den, length = division
    whole = list(div_residues(num, den, length, modulus))
    assert whole == [x % modulus for x in _recip_core(num, den, length)]
    splits = [s for s in SPLITS if s < length] + [length]
    for split in splits:
        packed = div_residues(num, den, split, modulus)
        assert len(packed) == split
        packed = div_residues(num[split:], den, length, modulus, packed)
        assert list(packed) == whole
    packed = array("I")
    for split in splits:
        packed = div_residues(num[len(packed):], den, split, modulus, packed)
    assert list(packed) == whole


@pytest.mark.parametrize("modulus", [M32, CLAIM_MODULUS])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_weighted_residue_kernel_resumes_on_cube_divisors(k, modulus):
    # A Jacobi cube's terms weigh 2j+1; its packed windows are weighted by
    # them.  One shot, and resumed at every split and through all of them,
    # the residues are the exact quotient's, for either sign of the divisor.
    length = 1100
    cube = jacobi_cube(k, length).coeffs
    rng = random.Random(k)
    num = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(length + 2)]
    splits = (31, 32, 33, 511, 512, 513, length)
    for den in (cube, [-c for c in cube]):
        whole = list(div_residues(num, den, length, modulus))
        assert whole == [x % modulus for x in _recip_core(num, den, length)]
        for split in splits:
            packed = div_residues(num, den, split, modulus)
            assert list(div_residues(num[split:], den, length, modulus, packed)) == whole
        packed = array("I")
        for split in splits:
            packed = div_residues(num[len(packed):], den, split, modulus, packed)
        assert list(packed) == whole


FAR_RESUMES = (700, 1023, 1024, 1025, 1537, 2049)


@pytest.mark.parametrize("modulus", [M32, CLAIM_MODULUS])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("k, cube", [(1, False), (2, False), (1, True), (2, True)],
                         ids=["f1", "f2", "f1^3", "f2^3"])
@pytest.mark.parametrize("length", [1537, 2100, 2600, 3100])
def test_residue_far_windows_across_many_blocks(length, k, cube, sign, modulus):
    # Far windows come from the ints of completed blocks.  Through several
    # blocks, ending mid-block, and resumed off and on the block edges,
    # the residues are the exact quotient's and the packed outputs are the
    # one-shot call's, byte for byte.
    den = (jacobi_cube(k, length) if cube else expand_eta(k, length)).coeffs
    den = [sign * c for c in den]
    rng = random.Random(length * k)
    num = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(length + 2)]
    whole = div_residues(num, den, length, modulus)
    want = list(whole)
    assert want == [x % modulus for x in _recip_core(num, den, length)]
    resumes = [r for r in FAR_RESUMES if r < length]
    for split in resumes:
        packed = div_residues(num, den, split, modulus)
        assert div_residues(num[split:], den, length, modulus, packed) == whole
    packed = array("I")
    for split in resumes + [length]:
        packed = div_residues(num[len(packed):], den, split, modulus, packed)
    assert packed == whole


NARROW_MODULI = (3 ** 14, 3 ** 15, M32, CLAIM_MODULUS)


def _window_weight(den, length):
    """The summed |c| of the divisor terms the kernel reads as windows."""
    return sum(abs(c) for c in den[residues._SUB:length])


@st.composite
def weighted_divisions(draw):
    """A divisor whose window weight may pass 2^32 / modulus partway, a
    numerator and a length for the kernel."""
    length = draw(st.sampled_from((513, 1100)) | st.integers(1, 1100))
    terms = {}
    for lo, hi in ((1, 31), (32, 511), (512, 1100)):  # near, mid and far terms
        terms.update(draw(st.dictionaries(st.integers(lo, hi),
                                          st.integers(-400, 400).filter(bool), max_size=6)))
    den = [draw(st.sampled_from((-1, 1)))] + [0] * max(terms, default=0)
    for e, c in terms.items():
        den[e] = c
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    num = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(draw(st.integers(0, length + 2)))]
    return num, den, length


@settings(max_examples=60, deadline=None)
@given(weighted_divisions(), st.sampled_from(NARROW_MODULI))
def test_residue_kernel_slot_widths_match_exact(division, modulus):
    # A division takes 4-byte slots while (weight + 1) * modulus <= 2^32
    # and 8-byte ones past it.  Cold, and resumed at the block edge, at the
    # first length past the bound and through every split in turn, the
    # residues are the exact quotient's; a resumed 4-byte stage is widened
    # past the bound and keeps 8-byte slots once it has them.
    num, den, length = division
    want = [x % modulus for x in _recip_core(num, den, length)]

    def width(n):
        return 4 if (_window_weight(den, n) + 1) * modulus <= 2 ** 32 else 8

    whole = div_residues(num, den, length, modulus)
    assert list(whole) == want and whole.itemsize == width(length)
    cross = next((n for n in range(length + 1) if width(n) == 8), length)
    splits = sorted({s for s in (1, cross - 1, cross, cross + 1, 511, 512, 513)
                     if 0 < s < length}) + [length]
    for split in splits:
        head = div_residues(num, den, split, modulus)
        assert head.itemsize == width(split)
        packed = div_residues(num[split:], den, length, modulus, head)
        assert list(packed) == want and packed.itemsize == width(length)
        assert (packed is head) == (head.itemsize == packed.itemsize)
    packed = array("I")
    for split in splits:
        packed = div_residues(num[len(packed):], den, split, modulus, packed)
        assert packed.itemsize == width(split)
    assert list(packed) == want
    # Stored 8-byte slots stay 8 bytes wide where 4 would do.
    wide = div_residues(num, den, length, modulus, array("Q"))
    assert list(wide) == want and wide.itemsize == 8


def test_residue_widening_past_the_4_byte_bound_recomputes_nothing(monkeypatch):
    # Mod 3^19, 2 * 3^19 <= 2^32 < 3 * 3^19: f1 divides in 4-byte slots
    # while its windows weigh 1 (q^35 alone, through q^39), and a3's
    # divisions through q^1100 take 8-byte ones.  The widening converts
    # the stored 4-byte stage and divides only the new coefficients.
    divided = []
    kernel = residues.div_residues

    def counted(num, den, length, modulus, packed):
        divided.append((len(packed), length - len(packed), packed.itemsize))
        return kernel(num, den, length, modulus, packed)

    monkeypatch.setattr(residues, "div_residues", counted)
    key = Reduced(FAMILIES["a3"].spec, 3 ** 19)
    narrow, state = key.expand(39)
    stored = state[1][-1]  # f1's stage; f2's is the series
    assert narrow.coeffs.itemsize == 4 and stored.itemsize == 4
    assert divided == [(0, 40, 4)] * 2
    divided.clear()
    wide, _ = key.expand(1100, (narrow, state))
    assert divided == [(40, 1061, 4)] * 2
    # The stored state is left as it was.
    assert wide.coeffs.itemsize == 8 and stored.itemsize == 4 and len(stored) == 40
    assert wide == key.expand(1100)[0]
    assert wide.coefficients(0, 1100) == \
        [c % 3 ** 19 for c in expand_spec(key.spec, 1100).coefficients(0, 1100)]


@pytest.mark.parametrize("k", [1, 2, 3, 7, 18])
def test_residue_eta_weight_closed_form_matches_the_built_factor(k):
    # The weight slot_width() reads for f_k, the number of its terms from
    # q^_SUB through the order, on each side of every exponent k g.
    pentagonal = [j * (3 * j + d) // 2 for j in range(1, 40) for d in (-1, 1)]
    edges = {k * g + d for g in pentagonal for d in (-1, 0, 1)}
    for order in sorted(edges.union(range(121))):
        built = expand_eta(k, order).coeffs
        want = sum(abs(c) for e, c in enumerate(built) if residues._SUB <= e <= order)
        assert residues._eta_weight(k, order) == want, order
    assert residues._eta_weight(1, 30000) == 274
    assert residues._eta_weight(1, 200001) == 721


@pytest.mark.parametrize("text", ["1/f1", "f2/(q^2*f1)", "1/f1^3", "f1^2*f4", "1/f1^60"])
def test_residue_slot_width_is_the_series_width(text):
    # For a spec with at most one division the series' run is the stage of
    # that division, so its slots are as wide as slot_width says.
    spec = parse(text)
    for exponent in (14, 15, 19, 20, 32):
        for order in (31, 34, 35, 40, 51, 600, 3000):
            got, _ = expand_spec_residues(spec, order, 3 ** exponent)
            assert got.coeffs.itemsize == residues.slot_width(spec, order, 3 ** exponent), \
                (exponent, order)
    assert residues.slot_width(FAMILIES["a3"].spec, 30000, 3 ** 15) == 4
    assert residues.slot_width(FAMILIES["a3"].spec, 30000, 3 ** 16) == 8
    assert residues.slot_width(FAMILIES["a9"].spec, 200001, 3 ** 14) == 4
    assert residues.slot_width(FAMILIES["a9"].spec, 200001, 3 ** 15) == 8


def test_residue_widening_peaks_no_higher_than_a_cold_expansion():
    # A widening reads its prior's slots, not a list of Python ints.
    import tracemalloc

    key = Reduced(FAMILIES["a3"].spec, M32)
    cache = SeriesCache()
    cache.spec(key, 10000)
    tracemalloc.start()
    try:
        cache.spec(key, 20000)
        _, widening = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        key.expand(20000)
        _, cold = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert widening <= cold


@pytest.mark.parametrize("k", [1, 2, 3, 7, 18])
def test_residue_cube_weight_closed_form_matches_the_built_cube(k):
    # The weight fits() checks, the summed |c| of the cube's terms from
    # q^_SUB through the order, at every order up to 120 and on each side
    # of every exponent k j(j+1)/2 through j = 60.
    edges = {k * j * (j + 1) // 2 + d for j in range(61) for d in (-1, 0, 1)}
    for order in sorted(edges.union(range(121)) - {-1}):
        built = jacobi_cube(k, order).coeffs
        want = sum(abs(c) for e, c in enumerate(built) if residues._SUB <= e <= order)
        assert residues._cube_weight(k, order) == want, order
    assert residues._cube_weight(1, 4000) == 7857
    assert residues._cube_weight(1, 6000) == 12036


def test_residue_cube_plan_widened_past_its_weight_guard_falls_back():
    # b = f1 f2 / (f1^3 f2^3).  Mod 3^32 the cube of f1 has packed weight
    # 7857 through q^4000, inside 2^64 / 3^32 - 1, and 12036 through
    # q^6000, past it; the cube of f2 still fits there.
    route = residues._Residues(M32)
    assert route.fits(1, 4000) and not route.fits(1, 6000) and route.fits(2, 6000)
    key = Reduced(FAMILIES["b"].spec, M32)
    cache = SeriesCache()
    narrow = cache.spec(key, 4000)
    assert cache._states[key.render()][0] == ((2, 1), (1, 1), (1, -3), (2, -3))
    # The widening drops the stored plan and expands from q^0, dividing by
    # f1 twice.
    wide = cache.spec(key, 6000)
    assert cache._states[key.render()][0] == ((2, 1), (1, -1), (1, -1), (2, -3))
    exact = expand_spec(key.spec, 6000).coefficients(0, 6000)
    assert wide == key.expand(6000)[0]
    assert wide.coefficients(0, 6000) == [c % M32 for c in exact]
    assert narrow.coefficients(0, 4000) == [c % M32 for c in exact[:4001]]
    # The new plan resumes.
    assert cache.spec(key, 6500) == key.expand(6500)[0]
    assert cache.stats == {"hits": 0, "widenings": 2, "misses": 1, "discarded_coeffs": 0}


@st.composite
def quotients(draw):
    """A spec and three rising orders: exponents of every residue mod 3,
    constants, q-shifts and an exponent large enough to be squared."""
    exponents = st.integers(-8, 6).filter(bool) | st.sampled_from((-60, 40))
    factors = draw(st.dictionaries(st.integers(1, 12), exponents, max_size=4))
    constant = draw(st.sampled_from((1, -1, 2, 7, -12)))
    qshift = draw(st.integers(-3, 3))
    orders = draw(st.lists(st.integers(max(qshift, 0), 1100), min_size=3, max_size=3,
                           unique=True) | st.just([400, 600, 1100]))
    return EtaQuotientSpec(constant, qshift, factors), sorted(orders)


@settings(max_examples=40, deadline=None)
@given(quotients(), st.sampled_from((M32, CLAIM_MODULUS, 2 ** 54)))
@example((EtaQuotientSpec(5, 1, {1: -5, 3: 2, 7: -1}), [400, 600, 1100]), 2 ** 54)
def test_residue_and_exact_widenings_of_random_quotients_match_cold(quotient, modulus):
    # Widened through three orders, on both routes, every series equals a
    # cold expansion, and the residues are the exact coefficients mod M.
    # Mod 2^54 the cube of f1 stops fitting past order 527, so a cube plan
    # falls back to single f_k.
    spec, orders = quotient
    reduced = Reduced(spec, modulus)
    cache = SeriesCache()
    lo = min(spec.qshift, 0)
    for order in orders:
        exact = cache.spec(spec, order)
        assert exact == expand_spec(spec, order), order
        got = cache.spec(reduced, order)
        assert got == reduced.expand(order)[0], order
        assert got.coefficients(lo, order) == \
            [c % modulus for c in exact.coefficients(lo, order)], order


@settings(max_examples=60, deadline=None)
@given(quotients(), st.sampled_from((M32, CLAIM_MODULUS, 2 ** 54, 2 ** 58)))
@example((EtaQuotientSpec(1, 0, {1: -5, 2: 3, 3: -2}), [400]), M32)
@example((EtaQuotientSpec(1, 0, {1: -5, 2: 3, 3: -2}), [400]), 2 ** 58)
def test_residue_and_exact_plans_agree_where_every_cube_fits(quotient, modulus):
    # Both routes plan in residues._plan.  Their plans are equal when every
    # cube of a divisor fits the residue slots; a divisor whose cube does
    # not fit divides by f_k once per unit of exponent on the residue route
    # alone.  Mod 2^58 the cube of f1 fits only through q^65, of f2 through q^89.
    spec, orders = quotient
    order = orders[-1]
    _, exact = expand_exact(spec, order)
    _, reduced = expand_spec_residues(spec, order, modulus)
    if exact is None or reduced is None:  # no factor, or 1/f_k^60 reduced from exact
        return
    inner = order - spec.qshift
    fits = residues._Residues(modulus).fits
    unfit = {k for k, e in spec.factors.items() if k <= inner and e < 0 and not fits(k, inner)}
    assert [kp for kp in reduced[0] if kp[0] not in unfit] == \
        [kp for kp in exact[0] if kp[0] not in unfit]
    for k in unfit:
        assert [kp for kp in reduced[0] if kp[0] == k] == [(k, -1)] * -spec.factors[k]


# A stage by f_k, a Jacobi cube or f_k^p takes one pass; one raised by
# squaring, one per coefficient for each squaring and multiplication.
# f_k^-(3q+2) multiplies by f_k and divides by q + 1 cubes: q + 2 passes,
# as many as dividing by q cubes and f_k twice.
@pytest.mark.parametrize("text, order, passes", [
    ("1/f1^2", 100, 2), ("1/f2^2", 30, 2), ("1/f1^5", 1000, 3), ("1/f2^5", 100, 3),
    ("1/f1^8", 1000, 4), ("1/f2^8", 30, 4), ("f2^4/(q*f1^5*f3)", 600, 6),
    ("1/f1^60", 30, 186), ("1/f1^60", 100, 20), ("1/f1^2147483647", 30, 1395),
])
def test_expand_passes_pinned(text, order, passes):
    assert residues.expand_passes(parse(text), order) == passes


def test_residue_kernel_slot_guard():
    # One packed term of weight 1: slots stay below (1 + 1) * modulus, at
    # most 2^64.
    den = [1] + [0] * 39 + [1]
    num = list(range(1, 101))
    for modulus in (2 ** 63, 2 ** 62 + 1):
        want = [x % modulus for x in _recip_core(num, den, 100)]
        assert list(div_residues(num, den, 100, modulus)) == want
    with pytest.raises(OverflowError, match="weight 1 at modulus"):
        div_residues(num, den, 100, 2 ** 63 + 1)
    # The guard sums the magnitudes of both signs: weight 1 + 3 = 4, so
    # slots stay below 5 * modulus.
    den = [1] + [0] * 39 + [1] + [0] * 9 + [-3]
    for modulus in (2 ** 64 // 5, 2 ** 61):
        want = [x % modulus for x in _recip_core(num, den, 100)]
        assert list(div_residues(num, den, 100, modulus)) == want
    with pytest.raises(OverflowError, match="weight 4 at modulus"):
        div_residues(num, den, 100, 2 ** 64 // 5 + 1)
    f1 = expand_eta(1, 30000).coeffs
    with pytest.raises(OverflowError, match="64-bit slot"):
        div_residues([1], f1, 30001, 3 ** 39)
    # Terms below the sub-block run one at a time and take any coefficient.
    assert list(div_residues([1], [1, 2], 5, M32)) == \
        [x % M32 for x in _recip_core([1], [1, 2], 5)]


def test_residue_expansion_matches_exact():
    for modulus in (M32, CLAIM_MODULUS):
        for text in ("f3*f6/(f1*f2)", "f9*f18/(f1*f2)", "7*q^3*f5^2/(f1^3*f7)",
                     "f2/(q^2*f1)", "f1^2*f4", "0*f1", f"{3 * modulus}*f2/f1"):
            spec = parse(text)
            for order in (3, 40, 1100):
                exact = expand_spec(spec, order)
                got, _ = expand_spec_residues(spec, order, modulus)
                assert got.valid_to == order
                lo = min(spec.qshift, 0)
                assert got.coefficients(lo, order) == \
                    [c % modulus for c in exact.coefficients(lo, order)], \
                    (text, order, modulus)
    with pytest.raises(ValueError):
        expand_spec_residues(parse("q^5"), 4, M32)


def test_residue_series_hold_packed_runs():
    # Cold, widened, through the exact-then-reduced fallback (1/f1^60 at
    # order 30 is raised by squaring), with a multiplication last and with
    # no stage, a residue series holds its run in 64-bit slots.  It equals a
    # Series of the same values in a tuple, reads plain ints and pickles.
    a3 = Reduced(FAMILIES["a3"].spec, M32)
    cold = a3.expand(1100)
    wide, _ = a3.expand(2100, cold)
    assert wide == a3.expand(2100)[0]
    powered, state = expand_spec_residues(parse("1/f1^60"), 30, M32)
    assert state is None
    products, _ = expand_spec_residues(parse("f1^2*f4"), 300, M32)
    constant, _ = expand_spec_residues(parse("7*q^3"), 300, M32)
    for series in (cold[0], wide, powered, products, constant):
        assert isinstance(series.coeffs, array) and series.coeffs.itemsize == 8
        same = Series(series.lead, tuple(series.coeffs), series.valid_to)
        assert series == same and same == series
        assert series != Series(series.lead, (series.coeffs[0] + 1,), series.valid_to)
        assert type(series.coefficient(series.lead)) is int
        back = pickle.loads(pickle.dumps(series))
        assert back == series and isinstance(back.coeffs, array)


def test_residue_modulus_past_a_64_bit_slot_is_refused():
    spec = FAMILIES["a3"].spec
    with pytest.raises(ValueError, match="64-bit slot"):
        Reduced(spec, 2 ** 64 + 1)
    with pytest.raises(ValueError, match="64-bit slot"):
        expand_spec_residues(spec, 10, 2 ** 64 + 1)
    # At 2^64 every residue still fits a slot.
    got, _ = Reduced(spec, 2 ** 64).expand(20)
    assert got.coefficients(0, 20) == expand_spec(spec, 20).coefficients(0, 20)


def test_import_qhuff_leaves_residues_unloaded():
    # The module is compiled on first use, not by every ``import qhuff``.
    env = dict(os.environ, PYTHONPATH=str(Path(qhuff.__file__).parents[1]))
    code = "import sys, qhuff; print(sorted(m for m in sys.modules if 'resid' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


# -- the exact route ------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 13))
def test_jacobi_cube_is_f_k_cubed(k):
    f = expand_eta(k, 600)
    assert jacobi_cube(k, 600) == f * f * f


# Each bound 2^k of a typecode's range: the largest value and the least
# it holds, then one past each end.
CODEC_BOUNDS = [v for k in (7, 15, 31, 63)
                for v in ([2 ** k - 1, -2 ** k], [2 ** k], [-2 ** k - 1])]


@pytest.mark.parametrize("values", [
    [], [0], [0, 0, 0], [127, -127], [-1, 1, -128, 128, -129, 255, -256],
    [2 ** 63, -2 ** 63, 2 ** 64 - 1, 0],
    [-(10 ** 4400) - 3, 10 ** 4400 + 7, 0, -5, 1],
    *CODEC_BOUNDS, [3 ** 200, -1, 0], [-(2 ** 127)],
])
def test_stage_packing_round_trips(values):
    # An array of the narrowest signed typecode that holds every value;
    # past 64 bits, fixed-width signed bytes.
    stage = pack_stage(values)
    assert unpack_stage(stage) == values
    if not values:
        assert stage == ()
        return
    (block,) = stage
    size = next((size for size in (1, 2, 4, 8)
                 if all(-2 ** (8 * size - 1) <= v < 2 ** (8 * size - 1) for v in values)),
                None)
    if size is None:
        width, data = block
        assert width == max(map(int.bit_length, values)) // 8 + 1
        assert len(data) == width * len(values)
    else:
        assert block.itemsize == size and block.typecode in "bhilq"


def test_stage_packing_sizes_each_block_apart():
    # Outputs grow along a series; each block of 512 is as wide as its own.
    values = [1] * 512 + [-(2 ** 15)] * 512 + [2 ** 70, 3]
    small, medium, wide = pack_stage(values)
    assert (small.itemsize, medium.itemsize, wide[0]) == (1, 2, 9)
    assert unpack_stage((small, medium, wide)) == values


# A constant alone, positive and negative q-shifts, no denominator, a
# divisor past the first order (f600, left out at 40), and a power that
# squaring takes at order 4 and sparse steps would take at 40.
EXACT_SPECS = ("3", "7*q^3*f5^2/(f1^3*f7)", "f2/(q^2*f1)", "f1^2*f4^5",
               "q^-4*f2^7/(f1^4*f3^3)", "f1^4/(f2*f600^2)", "f1/f2^60")


@pytest.mark.parametrize("text", EXACT_SPECS)
def test_exact_widenings_match_cold_expansions(text):
    spec = parse(text)
    cache = SeriesCache()
    for order in (4, 40, 600, 1100):  # across the 512-coefficient block edge
        assert cache.spec(spec, order) == expand_spec(spec, order), order
    # Every stage resumes, products included; only a spec with no factor
    # (a constant times a power of q) has no stage and expands again.
    recomputed = 0 if spec.factors else 5 + 41 + 601
    assert cache.stats == {"hits": 0, "widenings": 3, "misses": 1,
                           "discarded_coeffs": recomputed}


def test_exact_widenings_of_the_request_quotients(monkeypatch):
    # Every quotient the benchmark's request stream expands, through its tiers.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import EXPAND_ORDERS, build_catalog

    texts = sorted({r[1] for r in build_catalog().values() if r[0] == "expand"})
    assert len(texts) == 24
    cache = SeriesCache()
    for text in texts:
        spec = parse(text)
        for order in EXPAND_ORDERS:
            assert cache.spec(spec, order) == expand_spec(spec, order), (text, order)
    assert cache.stats["discarded_coeffs"] == 0


def test_exact_widening_divides_only_new_coefficients(monkeypatch):
    divided, multiplied = [], []

    def divide(num, den, length, out):
        new = _recip_core(num, den, length, out)
        divided.append((len(out) - len(new), len(new)))
        return out, new

    multiply = residues._Exact.multiply

    def counted_multiply(full, part, length, stage):
        start = len(stage)
        new = multiply(full, part, length, stage)
        multiplied.append((start, len(new)))
        return new

    monkeypatch.setattr(residues._Exact, "divide", staticmethod(divide))
    monkeypatch.setattr(residues._Exact, "multiply", staticmethod(counted_multiply))
    # f2^4 multiplies by a Jacobi cube and f2, and f1^-5 = f1 / (f1^3)^2
    # by f1; the first of these is the factor itself and is not multiplied.
    # f1^-5 then divides by two cubes, and f3^-1 by f3.
    spec = parse("f2^4/(q*f1^5*f3)")
    cache = SeriesCache()
    cache.spec(spec, 600)  # q^-1 through q^600: 602 coefficients
    assert multiplied == [(0, 602)] * 2
    assert divided == [(0, 602)] * 3
    multiplied.clear()
    divided.clear()
    cache.spec(spec, 1100)
    assert multiplied == [(602, 500)] * 2
    assert divided == [(602, 500)] * 3
    assert cache.stats["discarded_coeffs"] == 0
    plan, stages = cache._states[spec.render()]
    assert len(plan) == 6 and len(stages) == 4  # neither the first nor the last


def test_widening_leaves_the_prior_as_it_was():
    spec = parse("f3*f6^2/(f1^4*f2)")
    for expand in (lambda order, prior=None: expand_exact(spec, order, prior),
                   Reduced(spec, CLAIM_MODULUS).expand):
        prior = expand(600)
        first = expand(1100, prior)
        assert prior == expand(600)
        assert expand(1100, prior) == first == expand(1100)


def test_large_exponents_cost_logarithmic_work():
    # f1^e through q^2 is 1 - e q + e(e-3)/2 q^2, and 1/f1^e 1 + e q + e(e+3)/2 q^2.
    e = 2 ** 31 - 1
    started = time.perf_counter()
    up = expand_spec(parse(f"f1^{e}"), 5)
    down = expand_spec(parse(f"1/f1^{e}"), 5)
    assert time.perf_counter() - started < 1
    assert up.coefficients(0, 2) == [1, -e, e * (e - 3) // 2]
    assert down.coefficients(0, 2) == [1, e, e * (e + 3) // 2]
    assert expand_spec(parse(f"f{e}^{e}*f1"), 5) == expand_spec(parse("f1"), 5)
    # Squaring and sparse steps agree where the plan switches between them.
    f1 = expand_eta(1, 30)
    steps = Series.one()
    for _ in range(60):
        steps = steps * f1
    assert residues._powered(1, 60, 30) and not residues._powered(1, 60, 40)
    assert expand_spec(parse("f1^60"), 30) == steps.truncate(30)
    inverse = expand_spec(parse("1/f1^60"), 30)
    assert inverse == Series.one().truncate(30).div(steps)
    # The residue route reduces that exact series and keeps no state.
    got, state = expand_spec_residues(parse("1/f1^60"), 30, M32)
    assert state is None
    assert got.coefficients(0, 30) == [c % M32 for c in inverse.coefficients(0, 30)]
