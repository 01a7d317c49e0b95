import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentforge import fixtures as fx
from bentforge.gf2 import (
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    intersect,
    orthogonal_complement,
    rref,
    span,
    zero_subspace,
)


def full_space(n: int) -> Subspace:
    return span([1 << j for j in range(n)], n)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return span(list(a.basis) + list(b.basis), a.n)


def test_span_empty():
    assert span([], 4) == Subspace(4, ())
    assert span([], 4).dim == 0


def test_span_absorbs_dependent_vectors():
    s = span([0b0001, 0b0011], 4)
    assert set(s.basis) == {0b0001, 0b0010}
    assert s.dim == 2


def test_span_example22_matrix_has_dim_5():
    v = fx.second_msubspace_witness()
    assert v.n == 10
    assert v.dim == 5


def test_span_rejects_out_of_range():
    with pytest.raises(ValueError):
        span([0b10000], 4)


def test_span_rejects_ambient_dimension_out_of_range():
    with pytest.raises(ValueError, match="ambient dimension must be in 1..20, got 21"):
        span([], 21)


def reference_rref(vectors: list[int]) -> tuple[int, ...]:
    """Two-pass elimination: a pivot dict, sorted for every input vector,
    then back-substitution clearing each pivot column in the other rows."""
    basis: dict[int, int] = {}  # pivot -> row
    for v in vectors:
        for p in sorted(basis, reverse=True):
            if (v >> p) & 1:
                v ^= basis[p]
        if v:
            basis[v.bit_length() - 1] = v
    for p in sorted(basis):
        for q in basis:
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return tuple(basis[p] for p in sorted(basis, reverse=True))


def test_rref_matches_two_pass_reference_on_every_short_list():
    # zero, repeated and dependent vectors included
    for n in range(1, 5):
        for k in range(4):
            for vectors in itertools.product(range(1 << n), repeat=k):
                assert rref(list(vectors)) == reference_rref(list(vectors)), vectors


def test_rref_matches_two_pass_reference_on_random_lists():
    rng = random.Random(27)
    for _ in range(20000):
        n = rng.randrange(1, 11)
        vectors = [rng.randrange(1 << n) for _ in range(rng.randrange(8))]
        if len(vectors) > 2 and rng.random() < 0.3:
            vectors.append(vectors[0] ^ vectors[-1])
        assert rref(vectors) == reference_rref(vectors), vectors


def test_span_is_idempotent_on_enumerated_subspaces():
    for s in enumerate_subspaces(4, 2):
        assert span(list(s.basis), 4) == s


@pytest.mark.parametrize(
    "n,r,count",
    [(4, 2, 35), (8, 4, 200787), (5, 0, 1), (6, 6, 1), (6, 1, 63)],
)
def test_enumerate_counts(n, r, count):
    assert gaussian_binomial(n, r) == count
    assert sum(1 for _ in enumerate_subspaces(n, r)) == count


def test_gaussian_binomial_is_zero_outside_0_to_n():
    assert gaussian_binomial(4, -1) == gaussian_binomial(4, 5) == 0


def test_enumerate_exhaustive_against_gaussian_binomial():
    # every dimension pair up to n = 8, distinct canonical bases throughout
    for n in range(1, 9):
        for r in range(n + 1):
            seen = set()
            for s in enumerate_subspaces(n, r):
                assert s.basis not in seen
                seen.add(s.basis)
            assert len(seen) == gaussian_binomial(n, r)


def test_enumerate_zero_dimension():
    assert list(enumerate_subspaces(5, 0)) == [zero_subspace(5)]


def test_enumerate_rejects_bad_dimension():
    with pytest.raises(ValueError):
        list(enumerate_subspaces(4, 5))


def test_intersect_idempotent():
    s = span([0b110, 0b011], 3)
    assert intersect(s, s) == s


def test_intersect_trivial():
    assert intersect(span([0b01], 2), span([0b10], 2)).dim == 0


def test_intersect_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect(span([1], 2), span([1], 3))


def test_intersect_matches_elementwise_oracle():
    rng = random.Random(6)
    for _ in range(50):
        a = span([rng.randrange(1, 64) for _ in range(rng.randrange(1, 4))], 6)
        b = span([rng.randrange(1, 64) for _ in range(rng.randrange(1, 4))], 6)
        got = set(intersect(a, b).elements())
        want = set(a.elements()) & set(b.elements())
        assert got == want


def test_rank_nullity_on_random_pairs():
    rng = random.Random(7)
    for _ in range(100):
        a = span([rng.randrange(1, 256) for _ in range(rng.randrange(1, 5))], 8)
        b = span([rng.randrange(1, 256) for _ in range(rng.randrange(1, 5))], 8)
        lhs = intersect(a, b).dim + subspace_sum(a, b).dim
        assert lhs == a.dim + b.dim


def test_orthogonal_complement_of_zero_is_everything():
    assert orthogonal_complement(zero_subspace(4)) == full_space(4)


def test_orthogonal_complement_of_line():
    c = orthogonal_complement(span([0b001], 3))
    assert c.dim == 2
    assert all(e & 1 == 0 for e in c.elements())


def test_orthogonal_complement_matches_brute_force():
    for n in range(1, 6):
        for r in range(n + 1):
            for s in enumerate_subspaces(n, r):
                perp = [
                    u for u in range(1 << n) if not any((u & b).bit_count() & 1 for b in s.basis)
                ]
                assert orthogonal_complement(s).elements() == perp


def test_orthogonal_complement_is_involution():
    for s in enumerate_subspaces(5, 2):
        assert orthogonal_complement(orthogonal_complement(s)) == s


@given(st.lists(st.integers(min_value=0, max_value=63), max_size=6))
@settings(max_examples=60)
def test_complement_dimension_formula(vectors):
    s = span(vectors, 6)
    assert orthogonal_complement(s).dim == 6 - s.dim


def test_subspace_text_round_trip():
    v = fx.second_msubspace_witness()
    assert Subspace.from_text("\n".join(v.rows())) == v
    # leftmost character is x_1, matching the row-matrix presentation
    assert v.rows()[0] == "1000000000"
    # the zero subspace has no rows
    assert zero_subspace(3).rows() == []


def test_subspace_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        Subspace.from_text("10a1")


def test_subspace_from_text_rejects_empty_text():
    with pytest.raises(ValueError, match="empty subspace text"):
        Subspace.from_text(" \n\n")


def test_elements_and_contains_agree():
    s = span([0b1100, 0b0011], 4)
    elems = s.elements()
    assert len(elems) == 4
    for v in range(16):
        assert s.contains(v) == (v in elems)


def test_contains_matches_elements_on_every_small_subspace():
    for n in range(1, 5):
        for r in range(n + 1):
            for s in enumerate_subspaces(n, r):
                elems = set(s.elements())
                assert [s.contains(v) for v in range(1 << n)] == [v in elems for v in range(1 << n)]
