import math

import numpy as np
import pytest

from bentforge import fixtures as fx
from bentforge.boolfun import BooleanFunction
from bentforge.gf2m import (
    Field,
    default_modulus,
    is_irreducible,
    parse_power_map,
    power_map,
)
from bentforge.vectorial import is_permutation


def is_permutation_exponent(field: Field, d: int) -> bool:
    return math.gcd(d, field.order) == 1


def trace_component(field: Field, delta: int) -> BooleanFunction:
    """The Boolean function y -> Tr(delta * y) on F_2^m."""
    t = [field.trace(field.mul(delta, y)) for y in range(1 << field.m)]
    return BooleanFunction(field.m, np.array(t, dtype=np.uint8))


def test_default_moduli_are_the_smallest_irreducibles():
    assert default_modulus(3) == 0b1011  # x^3 + x + 1
    assert default_modulus(6) == 0b1000011  # x^6 + x + 1
    for m in range(2, 11):
        mod = default_modulus(m)
        assert is_irreducible(mod)
        for p in range((1 << m) + 1, mod):
            assert not is_irreducible(p)


def test_constants_are_not_irreducible():
    # 0 and 1 have no degree >= 1, so there is nothing to divide
    assert not is_irreducible(0)
    assert not is_irreducible(1)


def test_field_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        Field(3, 0b1111)  # x^3 + x^2 + x + 1 = (x+1)(x^2+1)


def test_fields_are_equal_iff_degree_and_modulus_are():
    assert Field(4) == Field(4, 0x13) and hash(Field(4)) == hash(Field(4, 0x13))
    assert Field(4) != Field(4, 0x19) and Field(4) != Field(5)
    assert len({Field(4), Field(4, 0x13), Field(4, 0x19)}) == 2
    assert repr(Field(4, 0x19)) == "Field(m=4, modulus=0x19)"


@pytest.mark.parametrize(
    "m, modulus",
    [(1, None), (17, None), (3, 0b10011)],
    ids=["degree-1", "degree-17", "modulus-degree-mismatch"],
)
def test_field_rejects_an_unsupported_degree(m, modulus):
    with pytest.raises(ValueError, match="degree"):
        Field(m, modulus)


def test_multiplicative_identity_and_defining_relation():
    fld = Field(3)
    for a in range(8):
        assert fld.mul(a, 1) == a
    # alpha * alpha^2 = alpha^3 = alpha + 1 under x^3 + x + 1
    assert fld.mul(0b010, 0b100) == 0b011


def test_inverse_via_group_order():
    fld = Field(5)
    for a in range(1, 32):
        assert fld.mul(a, fld.pow(a, (1 << 5) - 2)) == 1
        assert fld.mul(a, fld.inv(a)) == 1


def test_frobenius_additivity_exhaustive():
    for m in (2, 3, 4, 6, 8):
        fld = Field(m)
        for a in range(1 << m):
            for b in range(1 << m):
                assert fld.pow(a ^ b, 2) == fld.pow(a, 2) ^ fld.pow(b, 2)


def test_trace_properties():
    assert Field(3).trace(0) == 0
    assert Field(3).trace(1) == 1  # m odd
    for m in range(3, 9):
        fld = Field(m)
        zeros = sum(1 for a in range(1 << m) if fld.trace(a) == 0)
        assert zeros == 1 << (m - 1)
        for a in range(1 << m):
            assert fld.trace(fld.mul(a, a)) == fld.trace(a)


def test_power_map_identity_and_apn():
    fld = Field(3)
    assert list(power_map(fld, 1).table) == list(range(8))
    from bentforge.vectorial import is_apn

    assert is_apn(power_map(fld, 3))


def test_power_map_permutation_flag_matches_gcd():
    fld = Field(6)
    for d in (1, 3, 5, 9, 62):
        assert is_permutation(power_map(fld, d)) == (math.gcd(d, 63) == 1)
        assert is_permutation_exponent(fld, d) == (math.gcd(d, 63) == 1)


def test_power_map_rejects_bad_exponent():
    with pytest.raises(ValueError):
        power_map(Field(3), 0)
    with pytest.raises(ValueError):
        power_map(Field(3), 7)


def test_power_map_composition(rng):
    fld = Field(5)
    order = (1 << 5) - 1
    for _ in range(10):
        d1 = rng.randrange(1, order)
        d2 = rng.randrange(1, order)
        if (d1 * d2) % order == 0:
            continue
        lhs = power_map(fld, d1).table[power_map(fld, d2).table]
        rhs = power_map(fld, (d1 * d2) % order).table
        assert list(lhs[1:]) == list(rhs[1:])  # nonzero elements


def test_trace_component_is_linear_and_balanced():
    fld = Field(4)
    f = trace_component(fld, 0b0110)
    vals = f.table
    for x in range(16):
        for y in range(16):
            assert vals[x ^ y] == vals[x] ^ vals[y]
    assert f.is_balanced()


def test_tr_xy3_bent_is_the_trace_of_x_y3():
    # the fixture builds Tr(x y^3) as x . pi(y); the trace itself is the oracle
    fld = Field(3)
    f = fx.tr_xy3_bent()
    assert f.table.tolist() == [
        fld.trace(fld.mul(x, fld.pow(y, 3))) for y in range(8) for x in range(8)  # index x + 8y
    ]
    # bit i of pi(y) is f at x = e_i
    assert [sum(f(1 << i | y << 3) << i for i in range(3)) for y in range(8)] == [0, 1, 5, 2, 3, 6, 7, 4]


def test_parse_power_map():
    cube = power_map(Field(3), 3).table.tolist()
    assert parse_power_map("gf2m:m=3,pow=3").table.tolist() == cube
    assert parse_power_map("gf2m:m=3,mod=b,pow=3").table.tolist() == cube
    with pytest.raises(ValueError, match="bad field spec 'gf2m:m='"):
        parse_power_map("gf2m:m=,pow=3")
    with pytest.raises(ValueError):
        parse_power_map("gf2m:m=3,mod=f,pow=3")  # reducible
    with pytest.raises(ValueError, match="needs a ,pow=<d> suffix"):
        parse_power_map("gf2m:m=3")


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError, match="0 has no inverse"):
        Field(3).inv(0)
