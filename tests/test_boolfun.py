import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentforge import fixtures as fx
from bentforge.boolfun import (
    AnfParseError,
    AnfPoly,
    BooleanFunction,
    _parity_array,
    algebraic_degree,
    derivative,
    dual,
    ea_image,
    format_anf,
    from_anf,
    from_tt_hex,
    is_bent,
    linear_images,
    linear_structures,
    parse_anf,
    second_derivative,
    to_anf,
    to_tt_hex,
    walsh_transform,
    zero_function,
)
from bentforge.gf2 import random_invertible
from conftest import random_function, random_mm, random_permutation_table

tables = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.integers(min_value=0, max_value=1), min_size=1 << n, max_size=1 << n
    )
)


def func_from_bits(bits) -> BooleanFunction:
    n = len(bits).bit_length() - 1
    return BooleanFunction(n, bits)


def naive_walsh(f: BooleanFunction, a: int) -> int:
    return sum(
        (-1) ** ((int(f.table[x]) + (x & a).bit_count()) & 1) for x in range(1 << f.n)
    )


def constant_one(n: int) -> BooleanFunction:
    return BooleanFunction(n, np.ones(1 << n, dtype=np.uint8))


def test_from_anf_constants():
    assert from_anf(AnfPoly(3, frozenset())) == zero_function(3)
    assert from_anf(AnfPoly(3, frozenset({0}))) == constant_one(3)


def test_from_anf_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        from_anf(AnfPoly(2, frozenset({0b100})))


def test_to_anf_examples():
    assert to_anf(zero_function(4)).monomials == frozenset()
    assert to_anf(BooleanFunction(2, [0, 0, 0, 1])).monomials == {0b11}


def test_equal_functions_hash_equal_and_print_their_size():
    f = from_anf(parse_anf("x1*x2 + x3 + 1", 3))
    g = BooleanFunction(3, [1, 1, 1, 0, 0, 0, 0, 1])
    assert f == g and f is not g and hash(f) == hash(g)
    assert len({f, g, f ^ 1}) == 2
    assert repr(f) == "BooleanFunction(n=3, weight=4)"
    assert str(to_anf(f)) == "1 + x3 + x1*x2"


@given(tables)
@settings(max_examples=50)
def test_anf_round_trip(bits):
    f = func_from_bits(bits)
    assert from_anf(to_anf(f)) == f


def test_walsh_of_zero_function():
    w = walsh_transform(zero_function(4))
    assert w[0] == 16
    assert all(w[a] == 0 for a in range(1, 16))


def test_walsh_x1x2_all_pm2():
    f = BooleanFunction(2, [0, 0, 0, 1])
    w = walsh_transform(f)
    assert sorted(abs(int(v)) for v in w) == [2, 2, 2, 2]
    assert all(w[a] == naive_walsh(f, a) for a in range(4))


def test_walsh_quadratic_bent_n4():
    f = from_anf(parse_anf("x1*x2 + x3*x4", 4))
    assert set(abs(int(v)) for v in walsh_transform(f)) == {4}


@given(tables, st.data())
@settings(max_examples=40)
def test_walsh_matches_naive_and_parseval(bits, data):
    f = func_from_bits(bits)
    w = walsh_transform(f)
    assert int((w ** 2).sum()) == 1 << (2 * f.n)
    sampled = data.draw(st.lists(st.integers(0, (1 << f.n) - 1), min_size=4, max_size=4))
    for a in (0, 1, (1 << f.n) - 1, *sampled):
        assert w[a] == naive_walsh(f, a)


def test_is_bent_examples():
    assert is_bent(fx.tr_xy3_bent())
    assert not is_bent(zero_function(4))
    assert is_bent(fx.published_bent8("delta0_mix"))
    assert not is_bent(random_function(5, random.Random(1)))  # odd n is never bent


def test_dual_of_inner_product_is_itself():
    from bentforge.construct import mm_bent
    from bentforge.vectorial import identity_map

    f = mm_bent(identity_map(3), zero_function(3))
    assert dual(f) == f


def test_published_bent8_rejects_an_unknown_name():
    with pytest.raises(ValueError, match="unknown fixture 'nope'"):
        fx.published_bent8("nope")


def test_to_paper_variables_rejects_a_varmap_of_the_wrong_length():
    f = fx.published_bent8("delta0_mix")
    with pytest.raises(ValueError, match="varmap length must equal the variable count"):
        fx.to_paper_variables(f, fx.CONCAT_VARMAP[:-1])


def test_to_paper_variables_rejects_a_varmap_that_is_no_permutation():
    # (0, 0, 1, .., 6) read variable 0 twice and dropped variable 7, which
    # turned delta0_mix (weight 136) into a weight-128 function
    f = fx.published_bent8("delta0_mix")
    with pytest.raises(ValueError, match=r"varmap must be a permutation of 0\.\.7"):
        fx.to_paper_variables(f, (0, 0, 1, 2, 3, 4, 5, 6))
    for varmap in (fx.CONCAT_VARMAP, fx.DELTA0_MIX_VARMAP):
        g = fx.to_paper_variables(f, varmap)
        assert g.weight() == f.weight() == 136 and g != f


def test_dual_rejects_non_bent():
    for n in (3, 4):  # odd n fails the same check, with the same message
        with pytest.raises(ValueError, match="^dual is defined for bent functions only$"):
            dual(zero_function(n))


def bentness_inputs() -> list[BooleanFunction]:
    """Every table at n = 1, 2, 3, and seeded tables at n = 4..9: random
    ones and, at even n, random MM bent functions."""
    out = [
        BooleanFunction(n, t) for n in (1, 2, 3) for t in itertools.product((0, 1), repeat=1 << n)
    ]
    rng = random.Random(35)
    for n in range(4, 10):
        out += [random_function(n, rng) for _ in range(8)]
        if n % 2 == 0:
            out += [random_mm(n // 2, rng) for _ in range(4)]
    return out


def test_is_bent_and_dual_match_the_definition_with_odd_n_excluded():
    # Parseval keeps every odd n out of the one |W_f| = 2^(n/2) check
    bent_seen = set()
    for f in bentness_inputs():
        w = walsh_transform(f)
        bent = f.n % 2 == 0 and bool(np.all(np.abs(w) == 1 << (f.n // 2)))
        assert is_bent(f) == bent
        if bent:
            assert dual(f) == BooleanFunction(f.n, (w < 0).astype(np.uint8))
            bent_seen.add(f.n)
        else:
            with pytest.raises(ValueError, match="^dual is defined for bent functions only$"):
                dual(f)
    assert bent_seen == {2, 4, 6, 8}


def test_derivative_in_zero_direction():
    f = random_function(4, random.Random(2))
    assert derivative(f, 0) == zero_function(4)


@pytest.mark.parametrize(
    "take",
    [
        lambda f: derivative(f, 1 << f.n),
        lambda f: second_derivative(f, 1, 1 << f.n),
    ],
    ids=["first", "second"],
)
def test_derivative_rejects_a_direction_out_of_range(take):
    with pytest.raises(ValueError, match="out of range"):
        take(random_function(4, random.Random(2)))


def test_derivative_of_linear_function_is_constant():
    c = 0b1011
    f = from_anf(parse_anf("x1 + x2 + x4", 4))
    for a in range(16):
        d = derivative(f, a)
        expect = (c & a).bit_count() & 1
        assert set(d.table.tolist()) == {expect}


def test_derivatives_commute(rng):
    f = random_function(5, rng)
    for _ in range(10):
        a, b = rng.randrange(32), rng.randrange(32)
        assert derivative(derivative(f, a), b) == derivative(derivative(f, b), a)
        assert second_derivative(f, a, b) == derivative(derivative(f, a), b)


def test_second_derivative_same_direction_vanishes(rng):
    f = random_function(4, rng)
    a = rng.randrange(16)
    assert second_derivative(f, a, a) == zero_function(4)


def test_second_derivative_of_quadratic_is_constant(rng):
    f = from_anf(parse_anf("x1*x2 + x2*x3 + x4", 4))
    for _ in range(20):
        a, b = rng.randrange(16), rng.randrange(16)
        assert len(set(second_derivative(f, a, b).table.tolist())) == 1


def test_second_derivative_depends_only_on_span(rng):
    for _ in range(25):
        n = rng.randrange(2, 7)
        f = random_function(n, rng)
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        assert second_derivative(f, a, b) == second_derivative(f, a, a ^ b)


def test_span_closure_identity(rng):
    # D_{a+b} D_c f(x) = D_a D_c f(x+b) + D_b D_c f(x)
    for _ in range(25):
        f = random_function(5, rng)
        a, b, c = (rng.randrange(32) for _ in range(3))
        lhs = second_derivative(f, a ^ b, c)
        rhs = ea_image(second_derivative(f, a, c), b=b) ^ second_derivative(f, b, c)
        assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 9))
def test_linear_images_match_per_point_parity(n):
    rng = random.Random(n)
    singular = [rng.randrange(1 << n) for _ in range(n - 1)]
    singular.insert(rng.randrange(n), 0)  # a zero row
    for rows in (random_invertible(n, rng), singular, [0] * n):
        expect = [sum(((row & x).bit_count() & 1) << i for i, row in enumerate(rows))
                  for x in range(1 << n)]
        assert linear_images(rows, n).tolist() == expect
    assert linear_images([1 << i for i in range(n)], n).tolist() == list(range(1 << n))


def test_ea_image_without_rows_shifts_and_adds_an_affine_function(rng):
    for n in range(1, 9):
        f = random_function(n, rng)
        b, a, c = rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(2)
        idx = np.arange(1 << n)
        expect = f.table[idx ^ b] ^ _parity_array(idx & a) ^ c
        assert np.array_equal(ea_image(f, None, b, a, c).table, expect)
        assert ea_image(f) == f


def transposed_image(rows: list[int], v: int) -> int:
    """A^T v: the sum of the rows of A picked by the bits of v."""
    out = 0
    for k, row in enumerate(rows):
        out ^= row * ((v >> k) & 1)
    return out


def test_ea_image_of_an_ea_image_is_one_ea_image(rng):
    # g(x) = f(A1(y + b1)) + a1.y + c1 at y = A2(x + b2), plus a2.x + c2, is
    # f(A1 A2 (x + b)) + a.x + c with A2 b' = b1, b = b2 + b',
    # a = A2^T a1 + a2 and c = a1.(A2 b2) + c1 + c2
    for n in range(1, 9):
        f = random_function(n, rng)
        r1, r2 = random_invertible(n, rng), random_invertible(n, rng)
        b_pre, b2, a1, a2 = (rng.randrange(1 << n) for _ in range(4))
        c1, c2 = rng.randrange(2), rng.randrange(2)
        images2 = linear_images(r2, n)
        b1 = int(images2[b_pre])
        g = ea_image(ea_image(f, r1, b1, a1, c1), r2, b2, a2, c2)
        product = [transposed_image(r2, row) for row in r1]  # row i of A1 A2
        a = transposed_image(r2, a1) ^ a2
        c = (a1 & int(images2[b2])).bit_count() & 1 ^ c1 ^ c2
        assert g == ea_image(f, product, b2 ^ b_pre, a, c)


def reference_linear_structures(table: np.ndarray) -> set[int]:
    """All a with D_a(table) constant, testing one direction at a time."""
    idx = np.arange(len(table))
    out = set()
    for a in range(len(table)):
        d = table ^ table[idx ^ a]
        if d.min() == d.max():
            out.add(a)
    return out


def planted_structure(n: int, k: int, rng: random.Random) -> BooleanFunction:
    """h(x_(k+1), .., x_n) + l.x after a random linear change of variables:
    its linear structures hold a k-dimensional subspace."""
    idx = np.arange(1 << n)
    h = np.array([rng.randrange(2) for _ in range(1 << (n - k))], dtype=np.uint8)
    base = h[idx >> k] ^ _parity_array(idx & rng.randrange(1 << n))
    A = random_invertible(n, rng)
    return BooleanFunction(n, base[linear_images(A, n)])


@pytest.mark.parametrize("n", range(1, 13))
def test_linear_structures_match_per_direction_reference(n):
    rng = random.Random(n)
    idx = np.arange(1 << n)
    affine = BooleanFunction(n, _parity_array(idx & rng.randrange(1 << n)) ^ 1)
    planted = [planted_structure(n, k, rng) for k in range(1, n + 1)]
    for f in [random_function(n, rng), random_function(n, rng), affine, *planted]:
        assert linear_structures(f) == reference_linear_structures(f.table)
    assert linear_structures(affine) == set(range(1 << n))
    for k, f in enumerate(planted, 1):
        assert len(linear_structures(f)) >= 1 << k


@pytest.mark.parametrize("m", range(1, 11))
def test_vectorial_linear_structures_match_per_direction_reference(m):
    from bentforge.gf2m import Field, power_map
    from bentforge.verify import _lifted_permutation
    from bentforge.vectorial import VectorialFunction, linear_structures_vf

    rng = random.Random(100 + m)
    maps = [VectorialFunction(m, random_permutation_table(m, rng)) for _ in range(2)]
    maps += [_lifted_permutation(m, rng) for _ in range(2)]
    if m >= 2:
        fld = Field(m)
        maps += [power_map(fld, d) for d in {1, 2, 3, (1 << m) - 2} if d <= (1 << m) - 2]
    for F in maps:
        assert linear_structures_vf(F) == reference_linear_structures(F.table)
    assert all(len(linear_structures_vf(F)) > 1 for F in maps[2:4])


def test_linear_structures_of_linear_function():
    f = from_anf(parse_anf("x1 + x3", 4))
    assert linear_structures(f) == set(range(16))


def test_linear_structures_of_bent_function_trivial():
    assert linear_structures(fx.tr_xy3_bent()) == {0}
    assert linear_structures(fx.published_bent8("delta0_mix")) == {0}


def test_linear_structures_of_gold_component_matches_subfield():
    # Tr(delta y^5) on GF(2^6) with delta = beta^5: structures beta^{-1} F_4
    from bentforge.gf2m import Field, power_map

    fld = Field(6)
    beta = 2
    delta = fld.pow(beta, 5)
    x5 = power_map(fld, 5)
    tab = [fld.trace(fld.mul(delta, int(x5.table[y]))) for y in range(64)]
    f = BooleanFunction(6, tab)
    subfield = [x for x in range(64) if fld.pow(x, 4) == x]
    expect = {fld.mul(fld.inv(beta), z) for z in subfield}
    assert linear_structures(f) == expect
    assert len(expect) == 4


def test_algebraic_degree_examples():
    assert algebraic_degree(constant_one(4)) == 0
    from bentforge.construct import delta0

    assert algebraic_degree(delta0(5)) == 5
    assert algebraic_degree(fx.published_bent8("delta0_mix")) == 4


def test_bent_weight_identity():
    for name in ("delta0_mix", "transposed", "apn_family"):
        f = fx.published_bent8(name)
        assert f.weight() in (2 ** (f.n - 1) - 2 ** (f.n // 2 - 1),
                              2 ** (f.n - 1) + 2 ** (f.n // 2 - 1))


# -- text formats -------------------------------------------------------------

def test_tt_hex_round_trip(rng):
    for n in (1, 2, 3, 4, 8):
        f = random_function(n, rng)
        text = to_tt_hex(f)
        assert text.startswith(f"tt:n={n}:")
        assert from_tt_hex(text) == f


def test_tt_hex_bit_order():
    f = BooleanFunction(2, [1, 0, 0, 1])
    # table index 0 is bit 0 of the first byte: 0b1001 = 0x09
    assert to_tt_hex(f) == "tt:n=2:09"


def test_tt_hex_rejects_malformed():
    with pytest.raises(ValueError):
        from_tt_hex("tt:n=3:zz")
    with pytest.raises(ValueError):
        from_tt_hex("tt:n=4:00")  # wrong byte count
    for text in ("tt:n=2:ff", "tt:n=1:fe"):  # bits past the table's 2^n points
        with pytest.raises(ValueError, match="are set in a table"):
            from_tt_hex(text)
    # an odd digit count, each digit valid hex, asks for whole bytes
    odd = "^odd number of hex digits: give two per byte, "
    cases = ("tt:n=2:8", "2 for the 1-byte"), ("tt:n=8:" + "0" * 63, "64 for the 32-byte")
    for text, want in cases:
        with pytest.raises(ValueError, match=odd + want):
            from_tt_hex(text)


def test_parse_anf_accepts_x_y_z():
    for var in "xyz":
        poly = parse_anf(f"{var}1*{var}3 + {var}2 + 1", 3)
        assert poly.monomials == {0b101, 0b010, 0}


def test_parse_anf_reports_position():
    with pytest.raises(AnfParseError) as exc:
        parse_anf("x1 + q7 + x2", 4)
    assert exc.value.position > 0


def test_parse_anf_rejects_out_of_range_variable():
    with pytest.raises(AnfParseError):
        parse_anf("x5", 4)


def test_parse_anf_without_n_takes_the_largest_variable_index():
    assert parse_anf("x2*y5 + z3 + 1") == AnfPoly(5, frozenset({0b10010, 0b00100, 0}))
    assert parse_anf("x1 + 0") == AnfPoly(1, frozenset({1}))
    for text in ("1", "0", "1 + 0"):
        with pytest.raises(ValueError, match="cannot infer the variable count"):
            parse_anf(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x0", "variable index 0 out of 1..1 (at position 0)"),
        ("x3 + x0*x2", "variable index 0 out of 1..3 (at position 4)"),
        ("x1 + w1", "bad factor 'w1' (at position 5)"),
        ("", "empty term (at position 0)"),
        ("x34", "n must be in 1..20, got 34"),
    ],
)
def test_parse_anf_without_n_names_the_bad_input(text, message):
    with pytest.raises(ValueError) as exc:
        parse_anf(text)
    assert str(exc.value) == message


def test_parse_anf_with_n_keeps_it():
    assert parse_anf("x1*x2", 4) == AnfPoly(4, frozenset({0b11}))
    assert parse_anf("1", 3) == AnfPoly(3, frozenset({0}))
    with pytest.raises(AnfParseError, match="variable index 3 out of 1..2"):
        parse_anf("x1 + x3", 2)
    for n in (0, -3, 21):
        with pytest.raises(ValueError, match=f"n must be in 1..20, got {n}$"):
            parse_anf("w1", n)


def test_format_anf_canonical_order():
    poly = parse_anf("x1*x2 + x3 + 1 + x2", 3)
    assert format_anf(poly) == "1 + x2 + x3 + x1*x2"
    assert format_anf(AnfPoly(3, frozenset())) == "0"


@given(tables)
@settings(max_examples=30)
def test_anf_text_round_trip(bits):
    f = func_from_bits(bits)
    poly = to_anf(f)
    assert parse_anf(format_anf(poly), f.n) == poly


def test_parity_array_matches_bit_count():
    # the sweep's oracle tests use the same helper, so check it on its own
    values = np.random.default_rng(40).integers(0, 1 << 40, size=2000, dtype=np.int64)
    values[:3] = [0, 1, (1 << 40) - 1]
    got = _parity_array(values)
    assert got.dtype == np.uint8
    assert got.tolist() == [int(v).bit_count() & 1 for v in values]


@pytest.mark.parametrize(
    "n, table, message",
    [
        (0, [0], r"n must be in 1\.\.20, got 0"),
        (2, [0, 1, 0], r"table length must be 2\^2, got \(3,\)"),
        (2, [0, 1, 2, 0], "table entries must be bits"),
    ],
    ids=["n", "length", "bits"],
)
def test_boolean_function_rejects_bad_input(n, table, message):
    with pytest.raises(ValueError, match=message):
        BooleanFunction(n, table)


def test_xor_rejects_mismatched_variable_counts():
    with pytest.raises(ValueError, match="variable count mismatch"):
        zero_function(2) ^ zero_function(3)
