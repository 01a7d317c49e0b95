import random

import numpy as np
import pytest

from bentforge import fixtures as fx
from bentforge.boolfun import BooleanFunction, from_anf, parse_anf, zero_function
from bentforge.construct import delta0, mm_bent
from bentforge.gf2 import (
    apply_linear,
    enumerate_subspaces,
    gaussian_binomial,
    random_invertible,
    span,
)
from bentforge.gf2m import Field, power_map
from bentforge.msub import (
    canonical_msubspace,
    is_in_mm_sharp,
    is_msubspace,
    msubspace_profile,
    msubspaces,
)
from bentforge.vectorial import VectorialFunction, identity_map, linear_structures_vf
from conftest import random_function, random_permutation_table


def xy_bent(m: int) -> BooleanFunction:
    return mm_bent(identity_map(m), zero_function(m))


def test_every_line_is_trivially_m_subspace(rng):
    f = random_function(5, rng)
    for _ in range(10):
        a = rng.randrange(1, 32)
        assert is_msubspace(f, span([a], 5))


def test_canonical_subspace_of_mm():
    pi = fx.apn_perm_m3()
    h = from_anf(parse_anf("y1*y2 + y3", 3))
    f = mm_bent(pi, h)
    assert is_msubspace(f, canonical_msubspace(3))


def test_example22_matrix_is_m_subspace():
    f = mm_bent(fx.perm_two_msubspaces(), zero_function(5))
    assert is_msubspace(f, fx.second_msubspace_witness())


def test_is_msubspace_dimension_mismatch():
    f = xy_bent(2)
    with pytest.raises(ValueError):
        is_msubspace(f, span([1], 3))


def test_basis_pair_equals_all_pair(rng):
    from bentforge.boolfun import second_derivative_vanishes

    for _ in range(30):
        n = rng.randrange(3, 7)
        f = random_function(n, rng)
        V = span([rng.randrange(1, 1 << n) for _ in range(3)], n)
        all_pairs = all(
            second_derivative_vanishes(f, a, b)
            for a in V.elements()
            for b in V.elements()
        )
        assert is_msubspace(f, V) == all_pairs


def test_quadratic_count_is_product_bound():
    assert len(msubspaces(xy_bent(3), 3)) == 3 * 5 * 9


def test_msubspaces_example22():
    f = mm_bent(fx.perm_two_msubspaces(), zero_function(5))
    assert set(msubspaces(f, 5)) == {canonical_msubspace(5), fx.second_msubspace_witness()}
    g = mm_bent(fx.perm_two_msubspaces(), fx.h_restore_unique())
    assert msubspaces(g, 5) == [canonical_msubspace(5)]


def test_msubspaces_match_enumerate_filter(rng):
    for n, r in ((4, 2), (5, 2), (6, 3)):
        f = random_function(n, rng)
        fast = set(msubspaces(f, r))
        slow = {V for V in enumerate_subspaces(n, r) if is_msubspace(f, V)}
        assert fast == slow


def test_no_msubspace_above_half_dimension_for_bent():
    f = xy_bent(3)
    assert msubspaces(f, 4) == []


def test_profile_of_quadratic_bent():
    prof = msubspace_profile(xy_bent(3))
    assert prof.counts[3] == 135
    assert prof.as_dict()["3"] == 135
    assert sorted(prof.counts) == [2, 3]


@pytest.mark.parametrize(
    "f",
    [xy_bent(3)] + [fx.published_bent8(name) for name in fx.PUBLISHED],
    ids=["xy_bent3", *fx.PUBLISHED],
)
def test_profile_counts_at_most_all_subspaces(f):
    for r, c in msubspace_profile(f).counts.items():
        assert c <= gaussian_binomial(f.n, r)


def test_profile_of_published_mix_has_no_top_dimension():
    prof = msubspace_profile(fx.published_bent8("delta0_mix"))
    assert prof.counts[4] == 0


def test_profile_is_equivalence_invariant(rng):
    f = mm_bent(fx.apn_perm_m3(), random_function(3, rng))
    base = msubspace_profile(f)
    for _ in range(3):
        A = random_invertible(6, rng)
        ell = rng.randrange(64)
        c = rng.randrange(2)
        table = np.zeros(64, dtype=np.uint8)
        for x in range(64):
            ax = apply_linear(A, x)
            table[x] = f.table[ax] ^ ((x & ell).bit_count() & 1) ^ c
        g = BooleanFunction(6, table)
        assert msubspace_profile(g).counts == base.counts


def test_mm_sharp_on_constructed_mm(rng):
    pi = VectorialFunction(3, random_permutation_table(3, rng))
    f = mm_bent(pi, random_function(3, rng))
    w = is_in_mm_sharp(f)
    assert w is not None
    assert is_msubspace(f, w)


def test_mm_sharp_none_on_outside_fixtures():
    for name in ("delta0_mix", "transposed", "apn_family"):
        assert is_in_mm_sharp(fx.published_bent8(name)) is None


def test_mm_sharp_rejects_non_bent():
    with pytest.raises(ValueError):
        is_in_mm_sharp(zero_function(4))


def test_theorem31_unique_subspace_suite(rng):
    pi = fx.apn_perm_m3()
    canon = canonical_msubspace(3)
    for _ in range(5):
        h = random_function(3, rng)
        assert msubspaces(mm_bent(pi, h), 3) == [canon]


def test_cor32_all_msubspaces_inside_canonical():
    # P1 permutation whose nonzero components have no linear structures
    pi = fx.apn_perm_m3()
    f = mm_bent(pi, zero_function(3))
    canon = canonical_msubspace(3)
    for r in (2, 3):
        for V in msubspaces(f, r):
            assert all(canon.contains(b) for b in V.basis)


def _lift(rho_table, m: int) -> VectorialFunction:
    """(y', y_m) -> (rho(y'), y_m): degree <= m-2, linear structure e_m."""
    half = 1 << (m - 1)
    return VectorialFunction(
        m, np.array([int(rho_table[y & (half - 1)]) | (y & half) for y in range(1 << m)])
    )


def test_prop33_delta0_unique_iff_no_linear_structures(rng):
    # x . pi(y) + delta_0(y) for deg(pi) < m-1: unique M-subspace iff
    # pi has no nonzero linear structure
    from bentforge.vectorial import algebraic_degree_vf

    lin = random_invertible(4, rng)
    cases = [
        (4, _lift(random_permutation_table(3, rng), 4)),
        (4, VectorialFunction(4, np.array([apply_linear(lin, y) for y in range(16)]))),
        (5, fx.perm_two_msubspaces()),
        (5, power_map(Field(5), 3)),
        (5, _lift(random_permutation_table(4, rng), 5)),
    ]
    hit = {True: 0, False: 0}
    for m, pi in cases:
        assert algebraic_degree_vf(pi) < m - 1
        f = mm_bent(pi, delta0(m))
        unique = msubspaces(f, m) == [canonical_msubspace(m)]
        no_structs = linear_structures_vf(pi) == {0}
        assert unique == no_structs
        hit[no_structs] += 1
    assert hit[True] and hit[False]


def test_gold_based_mm_unique_subspace():
    # x^3 over GF(2^5) is an APN permutation: P1, so unique M-subspace
    pi = power_map(Field(5), 3)
    f = mm_bent(pi, zero_function(5))
    assert msubspaces(f, 5) == [canonical_msubspace(5)]


def test_published_functions_have_distinct_profiles():
    # pairwise-distinct profiles prove the three functions inequivalent
    profiles = {
        name: tuple(sorted(msubspace_profile(fx.published_bent8(name)).counts.items()))
        for name in ("delta0_mix", "transposed", "apn_family")
    }
    assert profiles["delta0_mix"] == ((2, 7), (3, 0), (4, 0))
    assert profiles["transposed"] == ((2, 91), (3, 0), (4, 0))
    assert profiles["apn_family"] == ((2, 7), (3, 1), (4, 0))
    assert len(set(profiles.values())) == 3
