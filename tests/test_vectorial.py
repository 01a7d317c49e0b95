import numpy as np
import pytest

from bentforge import fixtures as fx
from bentforge.boolfun import from_anf, parse_anf
from bentforge.gf2 import apply_linear, random_invertible, span
from bentforge.gf2m import Field, power_map
from bentforge.vectorial import (
    VectorialFunction,
    algebraic_degree_vf,
    check_p2,
    component,
    coordinates,
    from_coordinate_anfs,
    from_coordinates,
    from_vf_text,
    has_p1,
    identity_map,
    is_apn,
    is_permutation,
    iter_pair_representatives,
    linear_structures_vf,
    second_derivative_vanishes_vf,
    to_coordinate_anfs,
    to_vf_text,
    vanishing_flats_count,
    vanishing_subspaces_vf,
)
from conftest import random_permutation_table


def test_from_coordinates_identity():
    coords = [from_anf(parse_anf(f"x{j}", 4)) for j in range(1, 5)]
    assert from_coordinates(coords) == identity_map(4)


def test_from_coordinates_round_trip():
    pi = fx.apn_perm_m3()
    assert from_coordinates(coordinates(pi)) == pi


def test_fixture_permutations_are_permutations():
    for p in (fx.apn_perm_m3(), fx.apn_perm_m3_alt(), fx.perm_two_msubspaces(),
              fx.perm_p2_dim2(), fx.perm_p2_dim3()):
        assert is_permutation(p)


def test_component_examples():
    pi = fx.perm_two_msubspaces()
    assert set(component(pi, 0).table.tolist()) == {0}
    ident = identity_map(4)
    for k in range(4):
        comp = component(ident, 1 << k)
        assert list(comp.table) == [(x >> k) & 1 for x in range(16)]


def test_is_permutation_rejects_constant():
    assert not is_permutation(VectorialFunction(3, np.zeros(8, dtype=np.int64)))


def test_apn_examples():
    assert is_apn(power_map(Field(3), 3))
    assert not is_apn(identity_map(3))
    assert not is_apn(power_map(Field(6), 5))


def test_vanishing_flats_of_linear_map_on_f23():
    lin = VectorialFunction(3, np.array([apply_linear([0b011, 0b110, 0b101], x) for x in range(8)]))
    assert vanishing_flats_count(lin) == 14


def test_vanishing_flats_iff_apn(rng):
    assert vanishing_flats_count(power_map(Field(3), 3)) == 0
    for _ in range(10):
        F = VectorialFunction(4, np.array([rng.randrange(16) for _ in range(16)]))
        assert (vanishing_flats_count(F) == 0) == is_apn(F)


def test_linear_structures_examples():
    lin = identity_map(4)
    assert linear_structures_vf(lin) == set(range(16))
    assert linear_structures_vf(fx.perm_two_msubspaces()) == {0}
    assert linear_structures_vf(power_map(Field(3), 3)) == {0}


def test_vanishing_subspaces_fixtures():
    assert vanishing_subspaces_vf(power_map(Field(3), 3), 2) == []
    assert fx.vanishing_subspace_dim2() in vanishing_subspaces_vf(fx.perm_p2_dim2(), 2)
    assert fx.vanishing_subspace_dim3() in vanishing_subspaces_vf(fx.perm_p2_dim3(), 3)


def test_vanishing_subspaces_reverify_on_all_pairs():
    for F, r in ((fx.perm_p2_dim2(), 2), (fx.perm_p2_dim3(), 3), (fx.perm_two_msubspaces(), 3)):
        for S in vanishing_subspaces_vf(F, r):
            elems = S.elements()
            for a in elems:
                for b in elems:
                    assert second_derivative_vanishes_vf(F, a, b)


def test_second_derivative_depends_only_on_span():
    for F in (fx.apn_perm_m3(), power_map(Field(4), 7)):
        m = F.m
        for a, b in iter_pair_representatives(m):
            v = second_derivative_vanishes_vf(F, a, b)
            assert second_derivative_vanishes_vf(F, a, a ^ b) == v
            assert second_derivative_vanishes_vf(F, b, a ^ b) == v


def test_has_p1_examples():
    ok, witness = has_p1(identity_map(3))
    assert not ok and witness.dim == 2
    assert has_p1(fx.apn_perm_m3()) == (True, None)
    ok1, wit1 = has_p1(fx.perm_p2_dim2())
    assert not ok1
    assert wit1 is not None and wit1.dim == 2


def test_p1_iff_apn_for_quadratic_permutations(rng):
    # random linear conjugates preserve both properties; mix APN and not
    seeds = [power_map(Field(5), 3), fx.perm_p2_dim2(), fx.perm_p2_dim3()]
    for F in seeds:
        assert algebraic_degree_vf(F) == 2
        for _ in range(3):
            A = random_invertible(5, rng)
            B = random_invertible(5, rng)
            table = [0] * 32
            for y in range(32):
                table[apply_linear(A, y)] = apply_linear(B, int(F.table[y]))
            G = VectorialFunction(5, np.array(table))
            assert is_permutation(G)
            assert has_p1(G)[0] == is_apn(G)


def test_p1_implies_no_linear_structures():
    for F in (fx.apn_perm_m3(), power_map(Field(5), 3)):
        assert has_p1(F)[0]
        assert linear_structures_vf(F) == {0}


def test_check_p2_fixtures():
    assert check_p2(fx.perm_p2_dim2()).fully_satisfies
    gold = check_p2(power_map(Field(6), 5))
    assert gold.fully_satisfies and gold.max_vanishing_dim <= 2
    ugly = check_p2(fx.perm_two_msubspaces())
    assert not ugly.fully_satisfies
    # the published obstruction: u1 = e1, u2 = e2 annihilate every D_a pi
    bad = [rec for rec in ugly.per_subspace if not rec.ok]
    assert any(rec.S == span([4, 8, 16], 5) and rec.dim_US >= rec.k for rec in bad)


def test_check_p2_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_p2(identity_map(3))
    with pytest.raises(ValueError):
        check_p2(VectorialFunction(3, np.zeros(8, dtype=np.int64)))


def test_p2_report_consistency(rng):
    report = check_p2(fx.perm_p2_dim3())
    assert report.fully_satisfies == all(rec.ok for rec in report.per_subspace)
    assert report.max_vanishing_dim == 3


def test_vf_text_round_trip():
    pi = fx.apn_perm_m3()
    assert from_vf_text(to_vf_text(pi)) == pi
    with pytest.raises(ValueError):
        from_vf_text("vf:m=2:0 1 2")


def test_coordinate_anf_round_trip():
    pi = fx.perm_p2_dim2()
    assert from_coordinate_anfs(to_coordinate_anfs(pi)) == pi


def test_random_function_tables_round_trip(rng):
    F = VectorialFunction(4, random_permutation_table(4, rng))
    assert from_vf_text(to_vf_text(F)) == F
