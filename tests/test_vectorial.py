import itertools
import random
import tracemalloc

import numpy as np
import pytest

from bentforge import fixtures as fx
from bentforge import vectorial
from bentforge.boolfun import (
    _wht_butterfly,
    format_anf,
    from_anf,
    linear_images,
    parse_anf,
    to_anf,
    zero_function,
)
from bentforge.construct import mm_bent, theorem55_construct
from bentforge.gf2 import (
    enumerate_subspaces,
    orthogonal_complement,
    random_invertible,
    span,
)
from bentforge.gf2m import Field, power_map
from bentforge.msub import is_msubspace
from bentforge.vectorial import (
    P2Report,
    P2SubspaceRecord,
    VectorialFunction,
    algebraic_degree_vf,
    check_p2,
    component,
    coordinates,
    derivative_vf,
    from_coordinate_anfs,
    from_coordinates,
    from_vf_text,
    has_p1,
    identity_map,
    is_apn,
    is_permutation,
    iter_clique_subspaces,
    linear_structures_vf,
    to_vf_text,
    vanishing_flats_count,
    vanishing_pair_adjacency,
    vanishing_subspaces_vf,
)
from conftest import HYPERPLANE_VANISHES, oracle_functions, random_function, random_permutation_table


def second_derivative_vanishes_vf(F: VectorialFunction, a: int, b: int) -> bool:
    """Whether D_a D_b F is identically 0_m."""
    idx = np.arange(1 << F.m)
    d = F.table ^ F.table[idx ^ a]
    return bool(np.array_equal(d, d[idx ^ b]))


def to_coordinate_anfs(F: VectorialFunction) -> str:
    return "\n".join(format_anf(to_anf(c)).replace("x", "y") for c in coordinates(F))


def test_from_coordinates_identity():
    coords = [from_anf(parse_anf(f"x{j}", 4)) for j in range(1, 5)]
    assert from_coordinates(coords) == identity_map(4)


def test_from_coordinates_round_trip():
    pi = fx.apn_perm_m3()
    assert from_coordinates(coordinates(pi)) == pi


def test_equal_maps_hash_equal_and_evaluate_by_table():
    F = VectorialFunction(2, [0, 2, 3, 1])
    G = VectorialFunction(2, np.array([0, 2, 3, 1]))
    assert [F(y) for y in range(4)] == [0, 2, 3, 1]
    assert F == G and hash(F) == hash(G)
    assert len({F, G, identity_map(2)}) == 2
    assert repr(F) == "VectorialFunction(m=2)"


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
    lin = VectorialFunction(3, linear_images([0b011, 0b110, 0b101], 3))
    assert vanishing_flats_count(lin) == 14


def vanishing_flats_bruteforce(F: VectorialFunction) -> int:
    """The 4-sets {x1, x2, x3, x4} with x4 = x1 + x2 + x3 and F summing to 0
    over them, each counted once, as x1 < x2 < x3 < x4."""
    t = F.table
    return sum(
        1
        for x1, x2, x3 in itertools.combinations(range(1 << F.m), 3)
        if (x1 ^ x2 ^ x3) > x3 and t[x1] ^ t[x2] ^ t[x3] ^ t[x1 ^ x2 ^ x3] == 0
    )


@pytest.mark.parametrize("m", [3, 4])
def test_vanishing_flats_match_bruteforce_on_permutations(m, rng):
    for _ in range(10):
        F = VectorialFunction(m, random_permutation_table(m, rng))
        assert vanishing_flats_count(F) == vanishing_flats_bruteforce(F)


def test_vanishing_flats_match_bruteforce_on_gold_quintic():
    # the x^5 on GF(2^6) count that verify-paper compares with the formula
    F = power_map(Field(6), 5)
    assert vanishing_flats_count(F) == vanishing_flats_bruteforce(F) == 336


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
    with pytest.raises(ValueError):
        vanishing_subspaces_vf(fx.perm_p2_dim2(), 0)


def test_vanishing_subspaces_reverify_on_all_pairs():
    for F, r in ((fx.perm_p2_dim2(), 2), (fx.perm_p2_dim3(), 3), (fx.perm_two_msubspaces(), 3)):
        for S in vanishing_subspaces_vf(F, r):
            elems = S.elements()
            for a in elems:
                for b in elems:
                    assert second_derivative_vanishes_vf(F, a, b)


def reference_vanishing_pair_adjacency(table: np.ndarray) -> list[int]:
    """All-pairs builder: bit b of adj[a] iff D_a(table) equals its own
    shift by b at every point, for nonzero a != b.  O(8^n)."""
    N = len(table)
    idx = np.arange(N)
    all_b = idx[:, None] ^ idx[None, :]
    adj = [0] * N
    for a in range(1, N):
        d = table ^ table[idx ^ a]
        eq = ~(d[all_b] != d[None, :]).any(axis=1)
        eq[0] = False
        eq[a] = False
        packed = np.packbits(eq.view(np.uint8), bitorder="little")
        adj[a] = int.from_bytes(packed.tobytes(), "little")
    return adj


# x.y at n = 4, 6, 8 is where the removed degree-2 shortcut ran; the power
# maps mix APN and non-APN, permutations and not, degrees 2 to 5; random
# functions reach second derivatives of weight 4, whose autocorrelation
# 2^n - 8 is the largest short of 2^n.
ADJACENCY_CASES = {
    "random_functions": lambda: [random_function(n, random.Random(n)).table for n in range(2, 8)],
    "oracle_functions4": lambda: [f.table for f in oracle_functions(4)],
    "oracle_functions6": lambda: [f.table for f in oracle_functions(6)],
    "xy": lambda: [mm_bent(identity_map(m), zero_function(m)).table for m in (2, 3, 4)],
    "power_maps": lambda: [
        power_map(Field(m), d).table
        for m in range(3, 7)
        for d in (3, 5, 7, (1 << m) - 2)
        if d < (1 << m) - 1
    ],
    "random_permutations": lambda: [
        random_permutation_table(m, random.Random(m)) for m in range(3, 7)
    ],
    "published": lambda: [fx.published_bent8(name).table for name in fx.PUBLISHED],
}


@pytest.mark.parametrize("case", list(ADJACENCY_CASES))
def test_adjacency_matches_all_pairs_reference(case):
    for table in ADJACENCY_CASES[case]():
        assert vanishing_pair_adjacency(table) == reference_vanishing_pair_adjacency(table)


@pytest.mark.parametrize("chunk", [1, 7])
def test_adjacency_independent_of_chunk_rows(monkeypatch, chunk):
    # x.y passes half of all pair tests, so its survivors span many chunks
    monkeypatch.setattr(vectorial, "_PAIR_CHUNK", chunk)
    for table in (
        fx.published_bent8("delta0_mix").table,
        power_map(Field(6), 7).table,
        mm_bent(identity_map(4), zero_function(4)).table,
    ):
        assert vanishing_pair_adjacency(table) == reference_vanishing_pair_adjacency(table)


def carlet_vanishing_pair_adjacency(table: np.ndarray) -> list[int]:
    """Two-WHT builder: for one output bit f and g_a = (-1)^(D_a f),
    D_b D_a f = 0 exactly when the autocorrelation of g_a at b is 2^n, that
    is when sum_u W_{g_a}(u)^2 (-1)^(u.b) = 4^n (Carlet 2021); a vectorial
    graph is the AND over the output bits.  Rows go in chunks of 2^14
    entries, one batched WHT, a square and a second WHT each."""
    table = np.asarray(table, dtype=np.int64)
    N = len(table)
    idx = np.arange(N)
    rows = max(1, (1 << 14) // N)
    adj = [0]
    for lo in range(1, N, rows):
        a = idx[lo : lo + rows]
        d = table[a[:, None] ^ idx] ^ table
        eq = np.ones(d.shape, dtype=bool)
        for j in range(int(table.max()).bit_length()):
            w = _wht_butterfly(1 - 2 * ((d >> j) & 1))
            eq &= _wht_butterfly(w * w) == N * N
        eq[:, 0] = False
        eq[np.arange(len(a)), a] = False
        adj += [int.from_bytes(r, "little") for r in np.packbits(eq, axis=1, bitorder="little")]
    return adj


def shared_msubspace_table(m: int, rng: random.Random) -> np.ndarray:
    """f1 + 2 f2 + 4 f3 + 8 f4 for MM pieces x.pi(y) + h_i(y) with one pi,
    as `construct` packs them: the AND graph keeps their shared pairs."""
    pi = power_map(Field(m), 7)
    pieces = [mm_bent(pi, random_function(m, rng)).table.astype(np.int64) for _ in range(4)]
    return sum(f << j for j, f in enumerate(pieces))


def theorem55_n10_table() -> np.ndarray:
    pi = power_map(Field(4), 7)
    return theorem55_construct(pi, pi, zero_function(4), zero_function(4)).function.table


@pytest.mark.parametrize("n", [8, 10])
def test_adjacency_matches_two_wht_reference(n):
    rng = random.Random(n)
    gen = np.random.default_rng(n)
    tables = [gen.integers(0, 2, 1 << n), gen.integers(0, 16, 1 << n)]
    tables.append(shared_msubspace_table(n // 2, rng))
    if n == 10:
        tables.append(theorem55_n10_table())
    for table in tables:
        assert vanishing_pair_adjacency(table) == carlet_vanishing_pair_adjacency(table)
    assert any(vanishing_pair_adjacency(tables[-1]))


def adjacency_matrix(adj: list[int]) -> np.ndarray:
    N = len(adj)
    raw = b"".join(row.to_bytes(max(1, N // 8), "little") for row in adj)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(N, -1)
    return np.unpackbits(rows, axis=1, count=N, bitorder="little").astype(bool)


@pytest.mark.parametrize("n", [10, 12])
def test_adjacency_relabels_under_linear_maps(n):
    # D_a D_b t(Ax) = (D_{Aa} D_{Ab} t)(Ax): the graph of t(Ax) has edge
    # (a, b) iff the graph of t has edge (Aa, Ab)
    rng = random.Random(n)
    m = n // 2
    if n == 10:
        table = theorem55_n10_table()
    else:
        table = mm_bent(power_map(Field(m), 5), random_function(m, rng)).table
    A = random_invertible(n, rng)
    image = linear_images(A, n)
    graph = adjacency_matrix(vanishing_pair_adjacency(table))
    assert graph.sum() >= 1000
    relabelled = adjacency_matrix(vanishing_pair_adjacency(table[image]))
    assert np.array_equal(relabelled, graph[np.ix_(image, image)])


def test_adjacency_peak_memory_n8():
    # the two-WHT builder (carlet_vanishing_pair_adjacency) peaks at
    # 0.59 MiB traced; x.y passes half of all pair tests, the published
    # functions almost none
    for table in (
        fx.published_bent8("delta0_mix").table,
        mm_bent(identity_map(4), zero_function(4)).table,
    ):
        vanishing_pair_adjacency(table)
        tracemalloc.start()
        try:
            vanishing_pair_adjacency(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * (1 << 20), peak


def test_adjacency_of_constant_tables_is_complete():
    for table in (np.zeros(8, dtype=np.uint8), np.full(16, 5, dtype=np.int64)):
        N = len(table)
        full = (1 << N) - 2
        assert vanishing_pair_adjacency(table) == [0] + [full & ~(1 << a) for a in range(1, N)]


def iter_pair_representatives(m: int):
    """One (a, b) pair per 2-dimensional subspace of F_2^m: a < b < a ^ b,
    in increasing (a, b) order."""
    N = 1 << m
    for a in range(1, N):
        for b in range(a + 1, N):
            if (a ^ b) > b:
                yield a, b


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


def test_has_p1_witness_is_first_vanishing_representative_pair():
    rng = random.Random(41)
    cases = [fx.apn_perm_m3(), fx.apn_perm_m3_alt(), fx.perm_two_msubspaces(),
             fx.perm_p2_dim2(), fx.perm_p2_dim3(), identity_map(3)]
    cases += [
        power_map(Field(m), d)
        for m in range(3, 7)
        for d in (3, 5, 7, (1 << m) - 2)
        if d < (1 << m) - 1
    ]
    cases += [
        VectorialFunction(m, random_permutation_table(m, rng))
        for m in range(3, 7)
        for _ in range(3)
    ]
    assert any(has_p1(F)[0] for F in cases) and not all(has_p1(F)[0] for F in cases)
    for F in cases:
        pairs = (p for p in iter_pair_representatives(F.m) if second_derivative_vanishes_vf(F, *p))
        first = next(pairs, None)
        witness = None if first is None else span(list(first), F.m)
        assert has_p1(F) == (first is None, witness)


def reference_iter_clique_subspaces(adj: list[int], lo: int, hi: int | None = None):
    """iter_clique_subspaces with the span of the tower kept as a set: a
    candidate v extends the tower iff v < v + u for every nonzero u of the
    span."""
    if hi is None:
        hi = lo

    def extend(elems: set[int], gens: tuple[int, ...], cand: int):
        depth = len(gens)
        if depth >= lo:
            yield gens
        if depth == hi:
            return
        if depth < lo and depth + cand.bit_count() < lo:
            return
        c = cand
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            if all(v < (v ^ u) for u in elems if u):
                yield from extend(
                    elems | {v ^ u for u in elems},
                    gens + (v,),
                    cand & adj[v] & ~((low << 1) - 1),
                )

    yield from extend({0}, (), (1 << len(adj)) - 2)


@pytest.mark.parametrize("n", [4, 5])
def test_iter_clique_subspaces_yields_each_msubspace_once(n):
    rng = random.Random(n)
    funcs = [
        zero_function(n),  # every subspace
        from_anf(parse_anf("x1*x2 + x3*x4", n)),
        from_anf(parse_anf("x1*x2*x3 + x1*x4 + x2", n)),
        random_function(n, rng),
        random_function(n, rng),
    ]
    for f in funcs:
        adj = vanishing_pair_adjacency(f.table)
        for lo, hi in ((1, None), (1, 2), (1, n), (2, None), (2, 3), (3, n), (n, None)):
            top = lo if hi is None else hi
            gens = list(iter_clique_subspaces(adj, lo, hi))
            # order too: has_p1 and is_in_mm_sharp report the first yield
            assert gens == list(reference_iter_clique_subspaces(adj, lo, hi))
            got = [span(list(g), n) for g in gens]
            assert [V.dim for V in got] == [len(g) for g in gens]
            assert len(set(got)) == len(got)
            assert set(got) == {
                V
                for r in range(lo, top + 1)
                for V in enumerate_subspaces(n, r)
                if is_msubspace(f, V)
            }


@pytest.mark.parametrize("lo, hi", [(2, 4), (4, None)])
def test_iter_clique_subspaces_order_matches_reference_n8(lo, hi):
    rng = random.Random(8)
    pi = VectorialFunction(4, random_permutation_table(4, rng))
    for f in (mm_bent(identity_map(4), zero_function(4)), mm_bent(pi, random_function(4, rng))):
        adj = vanishing_pair_adjacency(f.table)
        gens = list(iter_clique_subspaces(adj, lo, hi))
        assert gens  # every MM function has its canonical 4-dimensional M-subspace
        assert gens == list(reference_iter_clique_subspaces(adj, lo, hi))


def test_p1_iff_apn_for_quadratic_permutations(rng):
    # random linear conjugates preserve both properties; mix APN and not
    seeds = [power_map(Field(5), 3), fx.perm_p2_dim2(), fx.perm_p2_dim3()]
    for F in seeds:
        assert algebraic_degree_vf(F) == 2
        for _ in range(3):
            A = linear_images(random_invertible(5, rng), 5)
            B = linear_images(random_invertible(5, rng), 5)
            table = np.zeros(32, dtype=np.int64)
            table[A] = B[F.table]
            G = VectorialFunction(5, table)
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


def test_check_p2_fails_on_a_vanishing_hyperplane():
    report = check_p2(from_vf_text(HYPERPLANE_VANISHES))
    assert report.fully_satisfies is False
    assert report.max_vanishing_dim == 2
    assert len(report.per_subspace) == 7
    assert all(rec.S.dim == 1 for rec in report.per_subspace)


def test_check_p2_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_p2(identity_map(3))
    with pytest.raises(ValueError):
        check_p2(VectorialFunction(3, np.zeros(8, dtype=np.int64)))


def reference_check_p2(F: VectorialFunction) -> P2Report:
    """check_p2 with U_S built from the derivatives in every nonzero a of S."""
    m = F.m
    adj = vanishing_pair_adjacency(F.table)
    records = []
    top = 0
    ok_all = True
    for gens in reference_iter_clique_subspaces(adj, 1, m - 1):
        S = span(list(gens), m)
        top = max(top, S.dim)
        if S.dim > m - 2:
            ok_all = False
            continue
        image = [int(v) for a in S.elements() if a for v in set(derivative_vf(F, a).tolist())]
        US = orthogonal_complement(span(image, m))
        ok = US.dim < m - S.dim
        records.append(P2SubspaceRecord(S, m - S.dim, US.dim, ok))
        ok_all = ok_all and ok
    return P2Report(ok_all, tuple(records), top)


def test_check_p2_matches_all_element_reference():
    rng = random.Random(27)
    cases = [fx.apn_perm_m3(), fx.apn_perm_m3_alt(), fx.perm_two_msubspaces(),
             fx.perm_p2_dim2(), fx.perm_p2_dim3(), from_vf_text(HYPERPLANE_VANISHES)]
    cases += [power_map(Field(m), d) for m in range(3, 7) for d in range(1, (1 << m) - 1)]
    cases += [
        VectorialFunction(m, random_permutation_table(m, rng))
        for m in range(3, 6)
        for _ in range(30)
    ]
    cases = [F for F in cases if is_permutation(F) and algebraic_degree_vf(F) > 1]
    assert len(cases) > 140
    failing = 0
    for F in cases:
        report = check_p2(F)
        assert report == reference_check_p2(F)
        failing += not report.fully_satisfies
    assert 0 < failing < len(cases)


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


@pytest.mark.parametrize(
    "m, table, message",
    [
        (0, [0], r"m must be in 1\.\.20, got 0"),
        (2, [0, 1, 2], r"table length must be 2\^2"),
        (2, [0, 1, 2, 4], "table entries out of range"),
    ],
    ids=["m", "length", "range"],
)
def test_vectorial_function_rejects_bad_input(m, table, message):
    with pytest.raises(ValueError, match=message):
        VectorialFunction(m, table)


def test_from_coordinates_rejects_mismatched_pieces():
    with pytest.raises(ValueError, match="coordinate functions must all be on m variables"):
        from_coordinates([zero_function(2), zero_function(3)])
