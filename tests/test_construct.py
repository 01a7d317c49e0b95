import itertools
import random

import numpy as np
import pytest

from bentforge import construct, vectorial
from bentforge import fixtures as fx
from bentforge.boolfun import (
    BooleanFunction,
    _parity_array,
    algebraic_degree,
    ea_image,
    from_anf,
    is_bent,
    linear_images,
    parse_anf,
    second_derivative,
    zero_function,
)
from bentforge.construct import (
    ConcatQuadruple,
    HypothesisError,
    PreconditionError,
    _common_vanishing_subspaces,
    _corollary_dim2_witness,
    concat4,
    dual_bent_condition,
    extend_permutation,
    mm_bent,
    mm_bent_transposed,
    theorem53_certify,
    theorem55_construct,
    theorem57_check,
    witness_second_msubspace,
)
from bentforge.gf2 import Subspace, orthogonal_complement, random_invertible, span
from bentforge.gf2m import Field, power_map
from bentforge.msub import (
    canonical_msubspace,
    is_in_mm_sharp,
    is_msubspace,
    msubspace_profile,
    msubspaces,
)
from bentforge.vectorial import (
    VectorialFunction,
    component,
    has_p1,
    identity_map,
    is_apn,
    is_permutation,
    vanishing_pair_adjacency,
)
from conftest import random_function, random_permutation_table


def test_mm_bent_inner_product_is_bent():
    f = mm_bent(identity_map(3), zero_function(3))
    assert is_bent(f)
    assert is_msubspace(f, canonical_msubspace(3))


def test_mm_bent_rejects_non_permutation():
    bad = VectorialFunction(3, np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError):
        mm_bent(bad, zero_function(3))


def test_mm_bent_always_bent(rng):
    for _ in range(10):
        pi = VectorialFunction(3, random_permutation_table(3, rng))
        h = random_function(3, rng)
        f = mm_bent(pi, h)
        assert is_bent(f)
        assert is_msubspace(f, canonical_msubspace(3))


def test_mm_bent_transposed_symmetric_case():
    a = mm_bent(identity_map(3), zero_function(3))
    b = mm_bent_transposed(identity_map(3), zero_function(3))
    assert a == b


def test_mm_bent_transposed_canonical_subspace(rng):
    sigma = VectorialFunction(3, random_permutation_table(3, rng))
    f = mm_bent_transposed(sigma, random_function(3, rng))
    other = span([b << 3 for b in (1, 2, 4)], 6)  # {0} x F_2^3
    assert is_msubspace(f, other)


def test_concat4_collapse(rng):
    g = random_function(4, rng)
    f = concat4(ConcatQuadruple(g, g, g, g))
    assert f.n == 6
    assert np.array_equal(f.table, np.tile(g.table, 4))


def test_concat4_restriction_identities(rng):
    q = ConcatQuadruple(*(random_function(3, rng) for _ in range(4)))
    f = concat4(q)
    # block k holds f(x, y1, y2) with y2 at bit n and y1 at bit n+1
    N = 1 << 3
    for k, piece in enumerate(q.functions):
        assert np.array_equal(f.table[k * N : (k + 1) * N], piece.table)


def test_concat_quadruple_rejects_mixed_sizes(rng):
    with pytest.raises(ValueError):
        ConcatQuadruple(
            random_function(3, rng),
            random_function(3, rng),
            random_function(3, rng),
            random_function(4, rng),
        )


def test_dual_bent_condition_select_trick(rng):
    # f1 = f2 and f4 = 1 + f3 always satisfies the condition
    f1 = mm_bent(VectorialFunction(3, random_permutation_table(3, rng)), random_function(3, rng))
    f3 = mm_bent(VectorialFunction(3, random_permutation_table(3, rng)), random_function(3, rng))
    q = ConcatQuadruple(f1, f1, f3, f3 ^ 1)
    assert dual_bent_condition(q)
    assert is_bent(concat4(q))


def test_dual_bent_condition_fails_for_equal_pieces(rng):
    f = mm_bent(identity_map(3), random_function(3, rng))
    assert not dual_bent_condition(ConcatQuadruple(f, f, f, f))


def test_dual_bent_condition_rejects_non_bent(rng):
    q = ConcatQuadruple(*([zero_function(4)] * 4))
    with pytest.raises(ValueError):
        dual_bent_condition(q)


def test_dual_bent_condition_names_the_first_non_bent_piece(rng):
    f = mm_bent(identity_map(3), random_function(3, rng))
    q = ConcatQuadruple(f, f ^ 1, zero_function(6), random_function(6, rng))
    with pytest.raises(ValueError, match="^f3 is not bent$"):
        dual_bent_condition(q)


def _equal_pieces_quadruple() -> ConcatQuadruple:
    f = mm_bent(identity_map(3), zero_function(3))
    return ConcatQuadruple(f, f, f, f)


@pytest.mark.parametrize(
    "build",
    [builder for builder, _ in fx.QUADRUPLES.values()] + [_equal_pieces_quadruple],
    ids=[*fx.QUADRUPLES, "equal-pieces"],
)
def test_dual_bent_condition_iff_concatenation_bent(build):
    q = build()
    assert dual_bent_condition(q) == is_bent(concat4(q))


def test_dual_bent_condition_on_example54():
    assert dual_bent_condition(fx.delta0_mix_quadruple())


def split_direction(a: int, n: int) -> tuple[int, int, int]:
    """a = (a', a1, a2) per the concatenation layout: a' the low n bits,
    a2 at bit n and a1 at bit n+1."""
    return a & ((1 << n) - 1), (a >> (n + 1)) & 1, (a >> n) & 1


def second_derivative_concat(q: ConcatQuadruple, a: int, b: int) -> BooleanFunction:
    """The concatenation lemma: the second derivative of f1||f2||f3||f4 in
    directions a = (a', a1, a2) and b = (b', b1, b2), assembled from the
    four pieces by the closed-form expansion.  The tests below compare it
    with second_derivative(concat4(q), a, b)."""
    n = q.n
    ap, a1, a2 = split_direction(a, n)
    bp, b1, b2 = split_direction(b, n)
    idx = np.arange(1 << n)

    t1, t2, t3, t4 = (f.table for f in q.functions)
    f13 = t1 ^ t3
    f12 = t1 ^ t2
    f1234 = t1 ^ t2 ^ t3 ^ t4

    def second(t):
        return t ^ t[idx ^ ap] ^ t[idx ^ bp] ^ t[idx ^ ap ^ bp]

    def d_shift(t, direction, shift_by):
        d = t ^ t[idx ^ direction]
        return d[idx ^ shift_by]

    dd_f1 = second(t1)
    dd_f13 = second(f13)
    dd_f12 = second(f12)
    dd_f1234 = second(f1234)

    base = (
        (a1 & 1) * d_shift(f13, bp, ap)
        ^ (b1 & 1) * d_shift(f13, ap, bp)
        ^ (a2 & 1) * d_shift(f12, bp, ap)
        ^ (b2 & 1) * d_shift(f12, ap, bp)
        ^ ((a1 & b2) ^ (b1 & a2)) * f1234[idx ^ ap ^ bp]
    )
    da_f1234 = d_shift(f1234, bp, ap)
    db_f1234 = d_shift(f1234, ap, bp)

    blocks = []
    for y1 in (0, 1):
        for y2 in (0, 1):
            blk = (
                dd_f1
                ^ (y1 * dd_f13)
                ^ (y2 * dd_f12)
                ^ ((y1 & y2) * dd_f1234)
                ^ base
                ^ (((a1 & y2) ^ (a2 & y1) ^ (a1 & a2)) * da_f1234)
                ^ (((b1 & y2) ^ (b2 & y1) ^ (b1 & b2)) * db_f1234)
            )
            blocks.append(blk)
    # memory order is f(x,0,0), f(x,0,1), f(x,1,0), f(x,1,1)
    return BooleanFunction(n + 2, np.concatenate(blocks))


def test_second_derivative_concat_trivial_direction(rng):
    q = ConcatQuadruple(*(random_function(3, rng) for _ in range(4)))
    a = rng.randrange(1 << 5)
    assert second_derivative_concat(q, a, a) == zero_function(5)


def test_second_derivative_concat_inner_directions_only(rng):
    q = ConcatQuadruple(*(random_function(3, rng) for _ in range(4)))
    f = concat4(q)
    for a in range(1, 8):
        for b in range(1, 8):
            assert second_derivative_concat(q, a, b) == second_derivative(f, a, b)


def test_second_derivative_concat_random(rng):
    for _ in range(500):
        q = ConcatQuadruple(*(random_function(4, rng) for _ in range(4)))
        a, b = rng.randrange(64), rng.randrange(64)
        assert second_derivative_concat(q, a, b) == second_derivative(concat4(q), a, b)


def test_witness_second_msubspace_identity():
    V = witness_second_msubspace(identity_map(3), "linear_structure")
    assert V.dim == 3
    assert V != canonical_msubspace(3)


def test_witness_second_msubspace_requires_structure():
    with pytest.raises(PreconditionError):
        witness_second_msubspace(fx.apn_perm_m3(), "linear_structure")


def reference_hyperplane_witness(pi: VectorialFunction) -> Subspace:
    """The hyperplane witness found by search: the first component c.pi
    equal to s.y or s.y + 1, with s the nonzero vector orthogonal to the
    first vanishing hyperplane S, joined to S."""
    m = pi.m
    S = vectorial.vanishing_subspaces_vf(pi, m - 1)[0]
    s = orthogonal_complement(S).basis[0]
    lin = _parity_array(np.arange(1 << m) & s)
    for c in range(1, 1 << m):
        comp = component(pi, c).table
        if np.array_equal(comp, lin) or np.array_equal(comp, lin ^ 1):
            return span([c] + [b << m for b in S.basis], 2 * m)
    raise AssertionError("no component of pi equals the hyperplane functional")


def hyperplane_affine_perm(m: int, rng) -> VectorialFunction:
    """A permutation of F_2^m that is affine on both cosets of a hyperplane:
    (y', t) -> (A_t y', t) for random invertible A_0, A_1 on F_2^(m-1),
    between two random affine bijections of F_2^m."""
    low, top = (1 << (m - 1)) - 1, 1 << (m - 1)
    halves = [random_invertible(m - 1, rng) for _ in range(2)]
    inner, outer = random_invertible(m, rng), random_invertible(m, rng)
    b_in, b_out = rng.randrange(1 << m), rng.randrange(1 << m)
    z = linear_images(inner, m) ^ b_in
    pieces = np.stack([linear_images(half, m - 1) for half in halves])
    piece = pieces[z >> (m - 1), z & low] | (z & top)
    return VectorialFunction(m, linear_images(outer, m)[piece] ^ b_out)


def test_witness_second_msubspace_hyperplane(rng):
    for m in (4, 5, 6):
        for _ in range(4):
            pi = hyperplane_affine_perm(m, rng)
            assert is_permutation(pi)
            W = witness_second_msubspace(pi, "hyperplane")
            assert W.dim == m
            assert is_msubspace(mm_bent(pi, zero_function(m)), W)
            assert W == reference_hyperplane_witness(pi)


def test_witness_second_msubspace_hyperplane_on_permutations_of_f2_3():
    # every 16th permutation of F_2^3 in itertools order: of these 2,520,
    # 1,848 have a vanishing hyperplane (29,568 of all 40,320 do), and on
    # each the closed form matches the search
    found = 0
    for perm in itertools.islice(itertools.permutations(range(8)), 0, None, 16):
        pi = VectorialFunction(3, np.array(perm))
        try:
            W = witness_second_msubspace(pi, "hyperplane")
        except PreconditionError:
            continue
        assert W == reference_hyperplane_witness(pi)
        found += 1
    assert found == 1848


def test_witness_rejects_unknown_kind():
    with pytest.raises(ValueError):
        witness_second_msubspace(identity_map(3), "nope")


def test_extend_permutation_cor48():
    x3 = power_map(Field(3), 3)
    ext = extend_permutation(identity_map(3), x3)
    assert is_permutation(ext)
    assert has_p1(ext)[0]
    assert not is_apn(ext)  # last coordinate is linear


def test_extend_permutation_equal_inputs_fail():
    with pytest.raises(PreconditionError) as err:
        extend_permutation(identity_map(3), identity_map(3))
    assert err.value.witness is not None
    assert err.value.witness.dim == 2


def test_theorem53_on_example54():
    cert = theorem53_certify(fx.delta0_mix_quadruple())
    assert cert.verdict == "outside_mm_sharp"
    assert is_in_mm_sharp(concat4(fx.delta0_mix_quadruple())) is None


def test_theorem53_inconclusive_on_shared_subspace():
    f = mm_bent(identity_map(3), zero_function(3))
    cert = theorem53_certify(ConcatQuadruple(f, f, f, f))
    assert cert.verdict == "inconclusive"
    assert cert.evidence[0]["shared_count"] > 0


def _theorem53_soundness(m: int, trials: int, rng) -> None:
    # f3 is transposed MM, so its canonical M-subspace is not f1's and the
    # certificate can say outside; whenever it does, the direct MM# search
    # must agree, and some trial must reach that verdict
    outsides = 0
    for _ in range(trials):
        f1 = mm_bent(VectorialFunction(m, random_permutation_table(m, rng)), random_function(m, rng))
        sigma = VectorialFunction(m, random_permutation_table(m, rng))
        f3 = mm_bent_transposed(sigma, random_function(m, rng))
        q = ConcatQuadruple(f1, f1, f3, f3 ^ 1)
        if theorem53_certify(q).verdict == "outside_mm_sharp":
            outsides += 1
            assert is_in_mm_sharp(concat4(q)) is None
    assert outsides > 0


def test_theorem53_soundness_random(rng):
    _theorem53_soundness(3, 12, rng)


def test_theorem53_soundness_random_n10(rng):
    _theorem53_soundness(4, 4, rng)


def test_theorem55_outside_mm_sharp_n10():
    # the generic claim "outside MM# for any even n >= 8", checked directly
    pi = power_map(Field(4), 7)
    res = theorem55_construct(pi, pi, zero_function(4), zero_function(4))
    f = res.function
    assert res.certificate.verdict == "outside_mm_sharp"
    assert f.n == 10 and is_bent(f) and algebraic_degree(f) == 5
    assert is_in_mm_sharp(f) is None
    assert msubspace_profile(f).counts == {2: 255, 3: 0, 4: 0, 5: 0}


def test_theorem55_outside_mm_sharp_n12():
    pi = power_map(Field(5), 3)
    res = theorem55_construct(pi, pi, zero_function(5), zero_function(5))
    f = res.function
    assert res.certificate.verdict == "outside_mm_sharp"
    assert f.n == 12 and is_bent(f) and algebraic_degree(f) == 4
    assert is_in_mm_sharp(f) is None


def test_theorem55_matches_example56():
    pi = fx.apn_perm_m3()
    h1 = from_anf(parse_anf(fx._read("h1_transposed.anf"), 3))
    h2 = from_anf(parse_anf(fx._read("h2_transposed.anf"), 3))
    res = theorem55_construct(pi, pi, h1, h2 ^ 1)
    assert res.certificate.verdict == "outside_mm_sharp"
    target = fx.published_bent8("transposed")
    assert fx.to_paper_variables(res.function, fx.CONCAT_VARMAP) == target


def test_theorem55_independent_of_h():
    pi = fx.apn_perm_m3()
    res = theorem55_construct(pi, fx.apn_perm_m3_alt(), zero_function(3), zero_function(3))
    assert res.certificate.verdict == "outside_mm_sharp"
    assert is_bent(res.function)
    assert is_in_mm_sharp(res.function) is None


def test_theorem55_rejects_identity_pi():
    with pytest.raises(PreconditionError) as err:
        theorem55_construct(
            identity_map(3), fx.apn_perm_m3(), zero_function(3), zero_function(3)
        )
    assert err.value.witness is not None


def test_theorem57_on_example511():
    cert = theorem57_check(fx.apn_family_quadruple())
    assert cert.verdict == "outside_mm_sharp"


def test_theorem57_equal_pieces_fail_at_zero_shift():
    f = mm_bent(fx.apn_perm_m3(), zero_function(3))
    cert = theorem57_check(ConcatQuadruple(f, f, f, f))
    assert cert.verdict == "inconclusive"
    extras = [e for e in cert.evidence if "failures" in e]
    assert extras
    # the derivative sums vanish at v = 0 (and at every x-block shift)
    assert any(rec["v"] == 0 and rec["condition"] == 1 for rec in extras[0]["failures"])


def test_theorem57_hypothesis_errors(rng):
    nb = zero_function(6)
    with pytest.raises(HypothesisError) as err:
        theorem57_check(ConcatQuadruple(nb, nb, nb, nb))
    assert err.value.code == "not_all_bent"
    # pieces with more than one shared top subspace: x.y shares all 135
    f = mm_bent(identity_map(3), zero_function(3))
    g = f ^ 1
    with pytest.raises(HypothesisError) as err:
        theorem57_check(ConcatQuadruple(f, f, f, g))
    assert err.value.code == "shared_subspace_not_unique"


def reference_common_vanishing_subspaces(q: ConcatQuadruple, r: int) -> list:
    """Enumerate f1's r-dimensional M-subspaces, keep those of f2, f3, f4."""
    if r == 1:
        return [span([a], q.n) for a in range(1, 1 << q.n)]
    first = msubspaces(q.f1, r)
    rest = (q.f2, q.f3, q.f4)
    return [V for V in first if all(is_msubspace(f, V) for f in rest)]


def seeded_quadruples(m: int, rng) -> list[ConcatQuadruple]:
    """MM pieces, MM paired with transposed MM, and random non-bent pieces
    on 2m variables."""

    def perm():
        return VectorialFunction(m, random_permutation_table(m, rng))

    def mm():
        return mm_bent(perm(), random_function(m, rng))

    out = []
    for _ in range(3):
        out.append(ConcatQuadruple(mm(), mm(), mm(), mm()))
        f, g = mm(), mm_bent_transposed(perm(), random_function(m, rng))
        out.append(ConcatQuadruple(f, f, g, g ^ 1))
        out.append(ConcatQuadruple(f, mm(), g, mm_bent_transposed(perm(), zero_function(m))))
        out.append(ConcatQuadruple(*(random_function(2 * m, rng) for _ in range(4))))
    return out


def test_common_vanishing_subspaces_match_filtered_search(rng):
    # the transposed example with its stated ingredients, sigma =
    # apn_perm_m3_alt and h2 with its constant term (fx.transposed_quadruple)
    f1 = fx.transposed_quadruple().f1
    h2 = from_anf(parse_anf(fx._read("h2_transposed.anf"), 3))
    f3 = mm_bent_transposed(fx.apn_perm_m3_alt(), h2)
    stated = ConcatQuadruple(f1, f1, f3, f3 ^ 1)
    quads = [fx.delta0_mix_quadruple(), fx.transposed_quadruple(), fx.apn_family_quadruple(), stated]
    quads += seeded_quadruples(2, rng) + seeded_quadruples(3, rng)
    shared = 0
    for q in quads:
        for r in range(1, q.n // 2 + 1):
            common = _common_vanishing_subspaces(q, r)
            assert common == reference_common_vanishing_subspaces(q, r)
            shared += r > 1 and len(common) > 0
        # theorem57_check reads the pieces' graph off the concatenation's
        # top-left block: directions (u, 0, 0) see each piece alone
        packed = sum(f.table << i for i, f in enumerate(q.functions))
        adj = vanishing_pair_adjacency(concat4(q).table)
        block = [row & ((1 << (1 << q.n)) - 1) for row in adj[: 1 << q.n]]
        assert block == vanishing_pair_adjacency(packed)
    assert shared > 0


def test_theorem57_shared_top_is_the_four_way_intersection(rng):
    quads = [fx.apn_family_quadruple(), fx.transposed_quadruple()]
    quads += [q for q in seeded_quadruples(2, rng) + seeded_quadruples(3, rng)
              if all(is_bent(f) for f in q.functions)]
    unique = 0
    for q in quads:
        m = q.n // 2
        shared = set(msubspaces(q.f1, m))
        for f in q.functions[1:]:
            shared &= set(msubspaces(f, m))
        try:
            cert = theorem57_check(q)
        except HypothesisError as err:
            if len(shared) == 1:
                assert err.code == "concat_not_bent"
            else:
                assert err.code == "shared_subspace_not_unique"
                assert f"share {len(shared)} {m}-dimensional" in str(err)
            continue
        assert len(shared) == 1
        unique += 1
        top = cert.evidence[0]["shared_top_subspace"]
        assert top == next(iter(shared)).rows()
    assert unique > 0


def apn_family_variants(rng, count: int) -> list[ConcatQuadruple]:
    """Randomized variants of the sharing-family quadruple: shifting piece i
    by t_i and complementing by c_i preserves bentness of the concatenation
    when the t_i and c_i sum to zero, and preserves all the theorem 5.7
    hypotheses."""
    base = fx.apn_family_quadruple()
    out = []
    for _ in range(count):
        ts = [rng.randrange(64) for _ in range(3)]
        ts.append(ts[0] ^ ts[1] ^ ts[2])
        cs = [rng.randrange(2) for _ in range(3)]
        cs.append(cs[0] ^ cs[1] ^ cs[2])
        out.append(
            ConcatQuadruple(*(ea_image(f, b=t, c=c) for f, t, c in zip(base.functions, ts, cs)))
        )
    return out


def test_theorem57_agrees_with_direct_search(rng):
    # the variants keep the hypotheses, so the verdict must agree with the
    # direct search
    outsides = 0
    for q in apn_family_variants(rng, 6):
        assert is_bent(concat4(q))
        cert = theorem57_check(q)
        direct = is_in_mm_sharp(concat4(q))
        if cert.verdict == "outside_mm_sharp":
            outsides += 1
            assert direct is None
    assert outsides > 0


def _derivatives_differ(ta: np.ndarray, tb: np.ndarray, u: int, v: int) -> bool:
    """True iff D_u fa(x) + D_u fb(x + v) is not identically zero."""
    idx = np.arange(len(ta))
    da = ta ^ ta[idx ^ u]
    db = tb ^ tb[idx ^ u]
    return bool((da ^ db[idx ^ v]).any())


def reference_dim2_witness(q: ConcatQuadruple, U, common) -> list[str] | None:
    """The corollary's dim-2 witness, tested one (u, v) at a time."""
    n = q.n
    if not all(all(U.contains(b) for b in V.basis) for V in common):
        return None

    def separates(u: int) -> bool:
        pairs = ((q.f1, q.f2), (q.f1, q.f3), (q.f2, q.f3))
        return all(
            _derivatives_differ(fa.table, fb.table, u, v)
            for fa, fb in pairs
            for v in range(1 << n)
        )

    good = [u for u in U.elements() if u and separates(u)]
    for i, u1 in enumerate(good):
        for u2 in good[i + 1 :]:
            if (u1 ^ u2) in good:
                return span([u1, u2], n).rows()
    return None


def reference_theorem57(q: ConcatQuadruple) -> dict | str:
    """theorem57_check(q).as_dict(), or the code of the HypothesisError it
    raises, with the three conditions tested one (u, v) at a time."""
    n, m = q.n, q.n // 2
    if not all(is_bent(f) for f in q.functions):
        return "not_all_bent"
    shared_top = _common_vanishing_subspaces(q, m)
    if len(shared_top) != 1:
        return "shared_subspace_not_unique"
    U = shared_top[0]
    t1, t2, t3, t4 = (f.table for f in q.functions)
    condition_pairs = (((t1, t2), (t3, t4)), ((t1, t3), (t2, t4)), ((t2, t3), (t1, t4)))
    common = _common_vanishing_subspaces(q, m - 1)
    failures = []
    for V in common:
        nonzero = [u for u in V.elements() if u]
        for v in range(1 << n):
            for ci, (pair_a, pair_b) in enumerate(condition_pairs, 1):
                if not any(
                    _derivatives_differ(*pair_a, u, v) or _derivatives_differ(*pair_b, u, v)
                    for u in nonzero
                ):
                    failures.append({"V": V.rows(), "v": v, "condition": ci})
                    break
    evidence = [
        {
            "shared_top_subspace": U.rows(),
            "common_vanishing_count": len(common),
            "pairs_checked": len(common) * (1 << n),
        }
    ]
    is_special = bool(np.array_equal(t4, t1 ^ t2 ^ t3))
    evidence.append({"f4_equals_f1_f2_f3": is_special})
    if is_special:
        evidence.append({"dim2_sufficient_subspace": reference_dim2_witness(q, U, common)})
    concat_bent = is_bent(concat4(q))
    if failures:
        only_v0 = all(rec["v"] == 0 for rec in failures)
        evidence.append(
            {"failures": failures[:16], "only_v0_fails": only_v0, "concat_bent": concat_bent}
        )
        verdict = "inconclusive"
    elif not concat_bent:
        return "concat_not_bent"
    else:
        verdict = "outside_mm_sharp"
    return {"verdict": verdict, "reason": "sharing_conditions_hold", "evidence": evidence}


def special_quadruples(rng) -> list[ConcatQuadruple]:
    """Pieces x.pi(y) + h_i(y) for one P1 permutation pi, each shifted by a
    random point, with f4 = f1 + f2 + f3: theorem 5.7 runs its corollary."""
    out = []
    for _ in range(6):
        fs = [ea_image(mm_bent(fx.apn_perm_m3(), random_function(3, rng)), b=rng.randrange(64))
              for _ in range(3)]
        out.append(ConcatQuadruple(*fs, fs[0] ^ fs[1] ^ fs[2]))
    return out


def test_pair_graph_matches_derivative_reference(rng):
    # D_u fa(x) + D_u fb(x + v) vanishes iff bit v | 1 << n is set in row u
    # of the vanishing-pair graph of the 2-concatenation fa || fb
    vanishing = 0
    for n in range(2, 7):
        fa = random_function(n, rng)
        t = rng.randrange(1 << n)
        pairs = [(fa, random_function(n, rng)), (fa, fa), (fa, ea_image(fa, b=t, c=1))]
        if n % 2 == 0:
            # MM pieces with one pi: both D_(a,0) are a.pi(y) up to a shift
            m = n // 2
            pi = VectorialFunction(m, random_permutation_table(m, rng))
            g, h = (mm_bent(pi, random_function(m, rng)) for _ in range(2))
            pairs.append((g, ea_image(h, b=rng.randrange(1 << n))))
        for ga, gb in pairs:
            adj = vanishing_pair_adjacency(np.concatenate([ga.table, gb.table]))
            for u in range(1, 1 << n):
                for v in range(1 << n):
                    differ = _derivatives_differ(ga.table, gb.table, u, v)
                    assert differ != bool(adj[u] >> (v | 1 << n) & 1), (n, u, v)
                    vanishing += not differ
    assert vanishing > 0


def test_theorem57_matches_per_pair_reference(rng):
    equal = mm_bent(fx.apn_perm_m3(), zero_function(3))
    quads = [fx.apn_family_quadruple(), ConcatQuadruple(equal, equal, equal, equal)]
    quads += apn_family_variants(rng, 8) + special_quadruples(rng)
    quads += seeded_quadruples(2, rng) + seeded_quadruples(3, rng)
    verdicts = set()
    for q in quads:
        expected = reference_theorem57(q)
        try:
            got = theorem57_check(q).as_dict()
        except HypothesisError as err:
            got = err.code
        assert got == expected
        verdicts.add(expected if isinstance(expected, str) else expected["verdict"])
    assert {"outside_mm_sharp", "inconclusive"} <= verdicts


def test_theorem_checks_build_one_graph(monkeypatch, rng):
    # one vanishing-pair graph per check, plus the corollary's three pair
    # graphs when f4 = f1 + f2 + f3
    built = []

    def counting(table):
        built.append(len(table))
        return vanishing_pair_adjacency(table)

    for module in (construct, vectorial):
        monkeypatch.setattr(module, "vanishing_pair_adjacency", counting)
    theorem57_check(fx.apn_family_quadruple())
    assert built == [256]
    ran = 0
    for q in special_quadruples(rng):
        built.clear()
        try:
            cert = theorem57_check(q)
        except HypothesisError:
            continue
        assert cert.evidence[1] == {"f4_equals_f1_f2_f3": True}
        assert built == [256, 128, 128, 128]
        ran += 1
    assert ran > 0
    built.clear()
    theorem53_certify(fx.delta0_mix_quadruple())
    assert built == [64]


def test_corollary_dim2_witness_matches_reference(rng):
    # the corollary's own search, also on quadruples outside its f4 = f1 +
    # f2 + f3 case, where separating directions exist
    found = 0
    quads = apn_family_variants(rng, 8) + special_quadruples(rng) + seeded_quadruples(3, rng)
    for q in quads:
        m = q.n // 2
        top = _common_vanishing_subspaces(q, m)
        if len(top) != 1:
            continue
        U = top[0]
        common = _common_vanishing_subspaces(q, m - 1)
        witness = _corollary_dim2_witness(q, U, common)
        assert witness == reference_dim2_witness(q, U, common)
        found += witness is not None
    assert found > 0


def test_corollary_dim2_witness_needs_common_subspaces_inside_the_top(rng):
    # special quadruples f4 = f1 + f2 + f3 of MM pieces x.pi_i(y) + h_i(y),
    # each pi_i a fixture or a random shuffle: some share an
    # (m-1)-subspace that is not inside the shared top subspace, and there
    # the corollary gives no witness
    perms = [fx.apn_perm_m3(), fx.apn_perm_m3_alt(), identity_map(3)]
    outside = 0
    for _ in range(200):
        fs = []
        for _ in range(3):
            k = rng.randrange(4)
            pi = perms[k] if k < 3 else VectorialFunction(3, random_permutation_table(3, rng))
            fs.append(mm_bent(pi, random_function(3, rng)))
        q = ConcatQuadruple(*fs, fs[0] ^ fs[1] ^ fs[2])
        top = _common_vanishing_subspaces(q, 3)
        if len(top) != 1:
            continue
        U = top[0]
        common = _common_vanishing_subspaces(q, 2)
        if all(U.contains(b) for V in common for b in V.basis):
            continue
        witness = _corollary_dim2_witness(q, U, common)
        assert witness is None
        assert witness == reference_dim2_witness(q, U, common)
        outside += 1
        if outside == 3:
            break
    assert outside == 3


def test_mm_bent_rejects_h_on_the_wrong_variable_count():
    with pytest.raises(ValueError, match="h must be on 3 variables"):
        mm_bent(identity_map(3), zero_function(2))


def test_witness_second_msubspace_rejects_a_non_permutation():
    with pytest.raises(ValueError, match="pi must be a permutation"):
        witness_second_msubspace(VectorialFunction(3, np.zeros(8, dtype=np.int64)), "hyperplane")


def test_witness_second_msubspace_needs_a_vanishing_hyperplane():
    with pytest.raises(PreconditionError, match="pi has no vanishing hyperplane"):
        witness_second_msubspace(fx.apn_perm_m3(), "hyperplane")


def test_extend_permutation_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch"):
        extend_permutation(identity_map(2), identity_map(3))


def test_extend_permutation_rejects_non_permutations():
    with pytest.raises(ValueError, match="both inputs must be permutations"):
        extend_permutation(VectorialFunction(2, [0, 0, 1, 2]), identity_map(2))


def test_theorem55_construct_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="pi and sigma must act on the same dimension"):
        theorem55_construct(identity_map(3), identity_map(4), zero_function(3), zero_function(3))


def test_theorem53_certify_rejects_odd_variable_counts():
    q = ConcatQuadruple(*[zero_function(5)] * 4)
    with pytest.raises(ValueError, match="pieces must live on an even number >= 4 of variables"):
        theorem53_certify(q)


def test_theorem53_certify_rejects_a_non_bent_concatenation():
    # four random pieces on 6 variables share no 2-dimensional M-subspace
    rng = random.Random(53)
    q = ConcatQuadruple(*[random_function(6, rng) for _ in range(4)])
    assert _common_vanishing_subspaces(q, 2) == []
    with pytest.raises(ValueError, match="concatenation is not bent"):
        theorem53_certify(q)
