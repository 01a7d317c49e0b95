"""Bent functions on GF(2^8), modulus 0x11b: the monomials Tr(a x^d) with
the Gold, Dillon and Kasami exponents, and the Niho binomial
Tr_1^4(x^17) + Tr_1^8(x^46).  They are not results of the paper but a
second set of inputs with known MM# and PS# verdicts (ROADMAP item 16)."""

import random

import pytest

from bentforge.boolfun import BooleanFunction, algebraic_degree, dual, ea_image, is_bent
from bentforge.gf2 import random_invertible
from bentforge.gf2m import Field
from bentforge.msub import is_in_mm_sharp, is_msubspace, msubspace_profile
from bentforge.psclass import _witness_holds, is_in_ps_sharp

GOLD_PROFILE = {2: 5355, 3: 11475, 4: 2295}
ZERO_PROFILE = {2: 0, 3: 0, 4: 0}


def monomial(d: int, a: int) -> BooleanFunction:
    """x -> Tr(a x^d), indexed by the field element x."""
    field = Field(8)
    assert field.modulus == 0x11B
    return BooleanFunction(8, [field.trace(field.mul(a, field.pow(x, d))) for x in range(256)])


@pytest.mark.parametrize(
    "d, a, degree, profile, in_mm, subclass, witness",
    [
        pytest.param(3, 2, 2, GOLD_PROFILE, True, "PS_plus", (0, 0, 1), id="gold-3"),
        pytest.param(15, 1, 4, ZERO_PROFILE, False, "PS_minus", (0, 0, 0), id="dillon-15"),
        pytest.param(57, 2, 4, ZERO_PROFILE, False, "PS_plus", (0, 0, 1), id="kasami-57"),
    ],
)
def test_monomial_bent_verdicts(d, a, degree, profile, in_mm, subclass, witness):
    f = monomial(d, a)
    rng = random.Random(d)
    A = random_invertible(8, rng)
    disguised = ea_image(f, A, rng.randrange(256), rng.randrange(256), rng.randrange(2))
    assert disguised != f
    for g in (f, disguised):
        assert is_bent(g) and algebraic_degree(g) == degree
        assert msubspace_profile(g).counts == profile
        V = is_in_mm_sharp(g)
        assert (V is not None) == in_mm
        if V is not None:
            assert V.dim == 4 and is_msubspace(g, V)
        w = is_in_ps_sharp(g)
        assert w is not None and w.inner.subclass == subclass and _witness_holds(g, w)
        if g is f:
            assert (w.shift, w.affine, w.constant) == witness


def niho_binomial() -> BooleanFunction:
    """x -> Tr_1^4(x^17) + Tr(x^46), the Niho bent binomial with s = 3,
    b = 1; x^17 lies in GF(16), where Tr_1^4(y) = y + y^2 + y^4 + y^8."""
    field = Field(8)
    assert field.modulus == 0x11B

    def subfield_trace(y: int) -> int:
        t = 0
        for i in range(4):
            t ^= field.pow(y, 1 << i)
        assert t in (0, 1)
        return t

    table = [subfield_trace(field.pow(x, 17)) ^ field.trace(field.pow(x, 46)) for x in range(256)]
    return BooleanFunction(8, table)


def test_niho_binomial_is_outside_mm_sharp_and_ps_sharp():
    f = niho_binomial()
    rng = random.Random(41)
    A = random_invertible(8, rng)
    disguised = ea_image(f, A, rng.randrange(256), rng.randrange(256), rng.randrange(2))
    assert len({f, dual(f), disguised}) == 3
    for g in (f, dual(f), disguised):
        assert is_bent(g) and algebraic_degree(g) == 4
        assert msubspace_profile(g).counts == ZERO_PROFILE
        assert is_in_mm_sharp(g) is None
        assert is_in_ps_sharp(g) is None
