import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhuff
from qhuff.eta import expand_eta, expand_spec, parse
from qhuff.residues import div_residues, expand_spec_residues
from qhuff.series import _recip_core
from qhuff.verify import CLAIM_MODULUS

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
            assert div_residues(n, d, length, modulus) == want


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
    whole = div_residues(num, den, length, modulus)
    assert whole == [x % modulus for x in _recip_core(num, den, length)]
    splits = [s for s in SPLITS if s < length] + [length]
    for split in splits:
        packed = bytearray()
        head = div_residues(num, den, split, modulus, packed)
        assert len(packed) == 8 * split
        assert head + div_residues(num[split:], den, length, modulus, packed) == whole
        assert len(packed) == 8 * length
    packed, got = bytearray(), []
    for split in splits:
        got += div_residues(num[len(got):], den, split, modulus, packed)
    assert got == whole


def test_residue_kernel_slot_guard():
    # One packed term: slots stay below (1 + 1) * modulus, at most 2^64.
    den = [1] + [0] * 39 + [1]
    num = list(range(1, 101))
    for modulus in (2 ** 63, 2 ** 62 + 1):
        want = [x % modulus for x in _recip_core(num, den, 100)]
        assert div_residues(num, den, 100, modulus) == want
    with pytest.raises(OverflowError, match="64-bit slot"):
        div_residues(num, den, 100, 2 ** 63 + 1)
    f1 = expand_eta(1, 30000).coeffs
    with pytest.raises(OverflowError, match="64-bit slot"):
        div_residues([1], f1, 30001, 3 ** 39)
    with pytest.raises(ValueError, match="not -1, 0 or 1"):
        div_residues([1], [1, 2], 5, M32)


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


def test_import_qhuff_leaves_residues_unloaded():
    # The module is compiled on first use, not by every ``import qhuff``.
    env = dict(os.environ, PYTHONPATH=str(Path(qhuff.__file__).parents[1]))
    code = "import sys, qhuff; print(sorted(m for m in sys.modules if 'resid' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
