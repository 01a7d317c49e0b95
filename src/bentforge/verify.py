"""The verify-paper regression battery.

Each claim re-derives one published fact (or one library-level identity)
from scratch and reports PASS/FAIL.  The pytest acceptance suite runs the
same claims; the CLI command `bentforge verify-paper` prints them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fixtures as fx
from .boolfun import (
    BooleanFunction,
    algebraic_degree,
    dual,
    from_anf,
    is_bent,
    second_derivative,
    second_derivative_vanishes,
    to_anf,
    walsh_transform,
    zero_function,
)
from .construct import (
    ConcatQuadruple,
    concat4,
    mm_bent,
    second_derivative_concat,
    theorem53_certify,
    theorem57_check,
    witness_second_msubspace,
)
from .gf2 import apply_linear, enumerate_subspaces, span
from .gf2m import Field, power_map
from .msub import canonical_msubspace, is_in_mm_sharp, is_msubspace, msubspaces
from .psclass import _midspace, is_in_ps_sharp, is_partial_spread, ps_ap, ps_candidates
from .vectorial import (
    VectorialFunction,
    check_p2,
    has_p1,
    identity_map,
    is_apn,
    is_permutation,
    linear_structures_vf,
    vanishing_flats_count,
    vanishing_subspaces_vf,
)


@dataclass(frozen=True)
class Claim:
    name: str
    criterion: int
    needs_sharp: bool
    run: Callable[[dict], tuple[bool, str]]


def _sharp_kwargs(options: dict) -> dict:
    return {"jobs": options.get("jobs", 1)}


# --- criterion 1: fixture reproduction -------------------------------------

def _claim_anf(name: str, builder, varmap) -> Callable:
    def run(options):
        built = fx.to_paper_variables(concat4(builder()), varmap)
        target = fx.published_bent8(name)
        ok = built == target
        return ok, "bit-exact" if ok else "table differs"

    return run


# --- criterion 2: class verdicts -------------------------------------------

def _claim_verdicts(name: str) -> Callable:
    def run(options):
        f = fx.published_bent8(name)
        if not is_bent(f):
            return False, "not bent"
        w = is_in_mm_sharp(f)
        if w is not None:
            return False, f"unexpected MM# witness {w.basis}"
        return True, "bent, no 4-dimensional M-subspace"

    return run


def _claim_ps_none(name: str) -> Callable:
    def run(options):
        f = fx.published_bent8(name)
        w = is_in_ps_sharp(f, **_sharp_kwargs(options))
        return w is None, "exhaustive sweep none" if w is None else f"witness {w}"

    return run


# --- criterion 3 ------------------------------------------------------------

def _claim_quadratic_count(options):
    f = mm_bent(identity_map(3), zero_function(3))
    count = len(msubspaces(f, 3))
    expect = 3 * 5 * 9
    return count == expect, f"count {count}, expect {expect}"


# --- criterion 4: the two-M-subspace permutation ----------------------------------------------

def _claim_two_msubspaces(options):
    pi = fx.perm_two_msubspaces()
    f = mm_bent(pi, zero_function(5))
    found = set(msubspaces(f, 5))
    want = {canonical_msubspace(5), fx.second_msubspace_witness()}
    if found != want:
        return False, f"got {len(found)} subspaces"
    g = mm_bent(pi, fx.h_restore_unique())
    found_h = set(msubspaces(g, 5))
    ok = found_h == {canonical_msubspace(5)}
    return ok, "two without h, canonical only with h" if ok else "h case differs"


# --- criterion 5: P1/APN battery -------------------------------------------

def _claim_p1_battery(options):
    pi = fx.apn_perm_m3()
    if not (is_permutation(pi) and is_apn(pi) and has_p1(pi)[0]):
        return False, "published permutation fails permutation/APN/P1"
    x3 = power_map(Field(3), 3)
    if not is_apn(x3):
        return False, "cube map on GF(2^3) not APN"
    pi1, pi2 = fx.perm_p2_dim2(), fx.perm_p2_dim3()
    ok1, wit1 = has_p1(pi1)
    ok2, wit2 = has_p1(pi2)
    if ok1 or ok2:
        return False, "remark permutations unexpectedly satisfy P1"
    if fx.vanishing_subspace_dim2() not in vanishing_subspaces_vf(pi1, 2):
        return False, "S1 not a vanishing 2-space of pi1"
    if fx.vanishing_subspace_dim3() not in vanishing_subspaces_vf(pi2, 3):
        return False, "S2 not a vanishing 3-space of pi2"
    if not check_p2(pi1).fully_satisfies or not check_p2(pi2).fully_satisfies:
        return False, "remark permutations fail P2"
    return True, "APN/P1 verdicts and S1/S2/P2 all as published"


# --- criterion 6: vanishing-flat count formula ------------------------------

def _vanishing_flats_bruteforce(F: VectorialFunction) -> int:
    N = 1 << F.m
    t = F.table
    count = 0
    for x1, x2, x3 in itertools.combinations(range(N), 3):
        x4 = x1 ^ x2 ^ x3
        if x4 > x3 and t[x1] ^ t[x2] ^ t[x3] ^ t[x4] == 0:
            count += 1
    return count


def _claim_thm44(options):
    m, t = 6, 2
    s = 2  # gcd(t, m)
    F = power_map(Field(m), (1 << t) + 1)
    brute = _vanishing_flats_bruteforce(F)
    fast = vanishing_flats_count(F)
    reading_m = (1 << (m - 2)) * ((1 << (s - 1)) - 1) * ((1 << m) - 1) // 3
    reading_2m = (1 << (2 * m - 2)) * ((1 << (s - 1)) - 1) * ((1 << (2 * m)) - 1) // 3
    if brute != fast:
        return False, f"brute {brute} != fast {fast}"
    if brute != reading_m or brute == reading_2m:
        return False, f"brute {brute}, formula(m) {reading_m}, formula(2m) {reading_2m}"
    return True, f"count {brute}; the published n means m"


# --- criterion 7 -------------------------------------------------------------

def _claim_prop46_cor48(options):
    x5 = power_map(Field(6), 5)
    report = check_p2(x5)
    if not report.fully_satisfies or report.max_vanishing_dim > 2:
        return False, f"P2 {report.fully_satisfies}, max dim {report.max_vanishing_dim}"
    x3 = power_map(Field(3), 3)
    from .construct import extend_permutation

    ext = extend_permutation(identity_map(3), x3)
    ok, _ = has_p1(ext)
    return ok, "Gold quintic P2 and extended permutation P1" if ok else "extension fails P1"


# --- criterion 8: unique canonical M-subspace under P1 ----------------------

def _p1_fixture(m: int) -> VectorialFunction:
    if m == 3:
        return fx.apn_perm_m3()
    from .construct import extend_permutation

    return extend_permutation(identity_map(3), power_map(Field(3), 3))


def _claim_theorem31(options):
    rng = random.Random(31)
    for m in (3, 4):
        pi = _p1_fixture(m)
        canon = canonical_msubspace(m)
        for _ in range(10):
            h = BooleanFunction(m, [rng.randrange(2) for _ in range(1 << m)])
            f = mm_bent(pi, h)
            if msubspaces(f, m) != [canon]:
                return False, f"extra M-subspace at m={m}"
    return True, "unique canonical M-subspace for 10 random h at m=3 and m=4"


# --- criterion 9: linear-structure witnesses --------------------------------

def _lifted_permutation(m: int, rng: random.Random) -> VectorialFunction:
    """Permutation of F_2^m with the forced linear structure e_m."""
    half = 1 << (m - 1)
    low = list(range(half))
    rng.shuffle(low)
    table = [low[y & (half - 1)] | (y & half) for y in range(1 << m)]
    # conjugate by random invertible maps to vary where the structure sits
    from .gf2 import random_invertible

    A = random_invertible(m, rng)
    B = random_invertible(m, rng)
    conj = [0] * (1 << m)
    for y in range(1 << m):
        conj[apply_linear(A, y)] = apply_linear(B, table[y])
    return VectorialFunction(m, np.array(conj))


def _claim_prop21_witnesses(options):
    rng = random.Random(21)
    for i in range(10):
        m = 4 if i % 2 == 0 else 5
        pi = _lifted_permutation(m, rng)
        structs = linear_structures_vf(pi)
        if structs == {0}:
            return False, "sampler lost the forced linear structure"
        V = witness_second_msubspace(pi, "linear_structure")
        f = mm_bent(pi, zero_function(m))
        if V == canonical_msubspace(m) or not is_msubspace(f, V):
            return False, "witness not a new M-subspace"
    return True, "10 verified non-canonical witnesses"


# --- criterion 10: concatenation algebra ------------------------------------

def _random_mm(m: int, rng: random.Random) -> BooleanFunction:
    perm = list(range(1 << m))
    rng.shuffle(perm)
    h = BooleanFunction(m, [rng.randrange(2) for _ in range(1 << m)])
    return mm_bent(VectorialFunction(m, np.array(perm)), h)


def _claim_concat_algebra(options):
    rng = random.Random(10)
    for _ in range(200):
        q = ConcatQuadruple(*(_random_mm(3, rng) for _ in range(4)))
        duals_sum = (
            dual(q.f1).table ^ dual(q.f2).table ^ dual(q.f3).table ^ dual(q.f4).table
        )
        lhs = bool(duals_sum.min() == 1)
        rhs = is_bent(concat4(q))
        if lhs != rhs:
            return False, "dual condition disagrees with bentness"
    for _ in range(500):
        q = ConcatQuadruple(
            *(BooleanFunction(4, [rng.randrange(2) for _ in range(16)]) for _ in range(4))
        )
        a, b = rng.randrange(64), rng.randrange(64)
        if second_derivative_concat(q, a, b) != second_derivative(concat4(q), a, b):
            return False, f"closed form differs at a={a}, b={b}"
    return True, "200 dual-condition and 500 closed-form samples agree"


# --- criterion 11: oracle equivalences ---------------------------------------

def _algorithm1_candidates_literal(f: BooleanFunction) -> set[tuple[int, ...]]:
    """Clique-of-support-vertices candidate search, as in the published
    algorithm: size-2^(n/2) cliques of the f(x+y) incidence graph that form
    a vector space.  Exponential; test oracle for small n only."""
    n = f.n
    m = n // 2
    if f(0):
        vertices = [int(x) for x in np.flatnonzero(f.table)]
    else:
        vertices = [0] + [int(x) for x in np.flatnonzero(f.table)]
    vset = set(vertices)
    adj = {
        v: {w for w in vertices if w != v and f.table[v ^ w]} for v in vertices
    }
    target = 1 << m
    out: set[tuple[int, ...]] = set()

    def grow(clique: list[int], cand: list[int]):
        if len(clique) == target:
            elems = set(clique)
            if 0 in elems and all(a ^ b in elems for a in elems for b in elems):
                out.add(span(list(elems), n).basis)
            return
        for i, v in enumerate(cand):
            if len(clique) + len(cand) - i < target:
                break
            grow(clique + [v], [w for w in cand[i + 1 :] if w in adj[v]])

    grow([], sorted(vertices))
    return out


def _claim_oracles(options):
    # msubspaces against enumerate-then-filter
    rng = random.Random(11)
    for n, r in ((4, 2), (6, 2), (6, 3)):
        f = BooleanFunction(n, [rng.randrange(2) for _ in range(1 << n)])
        fast = set(msubspaces(f, r))
        slow = {V for V in enumerate_subspaces(n, r) if is_msubspace(f, V)}
        if fast != slow:
            return False, f"M-subspace search disagrees at n={n}, r={r}"
    # PS candidate filter against the literal clique search
    h = BooleanFunction(3, [0, 1, 1, 0, 1, 0, 1, 0])
    f = ps_ap(3, h)
    fast_cands = {_midspace(6, i).basis for i in ps_candidates(f)}
    literal = _algorithm1_candidates_literal(f)
    if fast_cands != literal:
        return False, f"candidate filters differ: {len(fast_cands)} vs {len(literal)}"
    witness = is_partial_spread(f)
    if witness is None or witness.subclass != "PS_minus":
        return False, "ps_ap not accepted as PS_minus"
    if witness.reconstruct(6) != f:
        return False, "witness does not reconstruct the function"
    return True, "search equivalences and PS_ap control hold"


# --- criterion 12: core identities -------------------------------------------

def _naive_walsh(f: BooleanFunction, a: int) -> int:
    return sum((-1) ** ((int(f.table[x]) + (x & a).bit_count()) % 2) for x in range(1 << f.n))


def _claim_core_identities(options):
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randrange(2, 7)
        f = BooleanFunction(n, [rng.randrange(2) for _ in range(1 << n)])
        w = walsh_transform(f)
        if int((w.values.astype(object) ** 2).sum()) != 1 << (2 * n):
            return False, "Parseval fails"
        for a in rng.sample(range(1 << n), 4):
            if w[a] != _naive_walsh(f, a):
                return False, "fast WHT differs from naive summation"
        if from_anf(to_anf(f)) != f:
            return False, "ANF round trip fails"
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        if second_derivative(f, a, b) != second_derivative(f, a, a ^ b):
            return False, "second derivative not constant on the 2-space"
    # basis-pair test against the all-pairs definition
    for _ in range(40):
        n = rng.randrange(3, 7)
        f = BooleanFunction(n, [rng.randrange(2) for _ in range(1 << n)])
        vecs = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(2, 4))]
        V = span(vecs, n)
        if V.dim < 2:
            continue
        all_pairs = all(
            second_derivative_vanishes(f, a, b)
            for a in V.elements()
            for b in V.elements()
        )
        if is_msubspace(f, V) != all_pairs:
            return False, "basis-pair M-subspace test disagrees with all pairs"
    return True, "Parseval, naive-WHT, ANF round trip, derivative identities hold"


# --- extra published checks ---------------------------------------------------

def _claim_trace_cubic(options):
    f = fx.tr_xy3_bent()
    if not is_bent(f):
        return False, "Tr(x y^3) not bent"
    if msubspaces(f, 3) != [canonical_msubspace(3)]:
        return False, "Tr(x y^3) has extra M-subspaces"
    return True, "bent with the unique canonical M-subspace"


def _claim_mix_degree(options):
    f = fx.published_bent8("delta0_mix")
    d = algebraic_degree(f)
    return d == 4, f"degree {d}"


def _claim_dual_condition_mix(options):
    q = fx.delta0_mix_quadruple()
    s = dual(q.f1).table ^ dual(q.f2).table ^ dual(q.f3).table ^ dual(q.f4).table
    ok = bool(s.min() == 1)
    return ok, "f1*+f2*+f3*+f4* = 1" if ok else "dual condition fails"


def _claim_thm53_mix(options):
    cert = theorem53_certify(fx.delta0_mix_quadruple())
    return cert.verdict == "outside_mm_sharp", cert.verdict


def _claim_thm57_family(options):
    cert = theorem57_check(fx.apn_family_quadruple())
    return cert.verdict == "outside_mm_sharp", cert.verdict


CLAIMS: list[Claim] = [
    Claim("delta0-mix-anf-reproduction", 1, False, _claim_anf("delta0_mix", fx.delta0_mix_quadruple, fx.DELTA0_MIX_VARMAP)),
    Claim("transposed-anf-reproduction", 1, False, _claim_anf("transposed", fx.transposed_quadruple, fx.CONCAT_VARMAP)),
    Claim("apn-family-anf-reproduction", 1, False, _claim_anf("apn_family", fx.apn_family_quadruple, fx.CONCAT_VARMAP)),
    Claim("delta0-mix-bent-outside-mm", 2, False, _claim_verdicts("delta0_mix")),
    Claim("transposed-bent-outside-mm", 2, False, _claim_verdicts("transposed")),
    Claim("apn-family-bent-outside-mm", 2, False, _claim_verdicts("apn_family")),
    Claim("delta0-mix-outside-ps", 2, True, _claim_ps_none("delta0_mix")),
    Claim("transposed-outside-ps", 2, True, _claim_ps_none("transposed")),
    Claim("apn-family-outside-ps", 2, True, _claim_ps_none("apn_family")),
    Claim("quadratic-msubspace-count-135", 3, False, _claim_quadratic_count),
    Claim("two-msubspace-permutation", 4, False, _claim_two_msubspaces),
    Claim("p1-apn-battery", 5, False, _claim_p1_battery),
    Claim("gold-vanishing-flat-count", 6, False, _claim_thm44),
    Claim("gold-p2-and-extension-p1", 7, False, _claim_prop46_cor48),
    Claim("p1-unique-msubspace-suite", 8, False, _claim_theorem31),
    Claim("linear-structure-witness-suite", 9, False, _claim_prop21_witnesses),
    Claim("concatenation-algebra", 10, False, _claim_concat_algebra),
    Claim("oracle-equivalences", 11, False, _claim_oracles),
    Claim("core-identities", 12, False, _claim_core_identities),
    Claim("trace-cubic-bent", 4, False, _claim_trace_cubic),
    Claim("delta0-mix-degree", 2, False, _claim_mix_degree),
    Claim("delta0-mix-dual-bent-condition", 10, False, _claim_dual_condition_mix),
    Claim("thm53-certifies-delta0-mix", 10, False, _claim_thm53_mix),
    Claim("thm57-certifies-apn-family", 10, False, _claim_thm57_family),
]


def run_claims(fast: bool = False, jobs: int = 1, report=print) -> int:
    """Run every claim, print one PASS/FAIL line each, return failure count."""
    import time

    options = {"jobs": jobs}
    failures = 0
    for claim in CLAIMS:
        if fast and claim.needs_sharp:
            report(f"SKIP {claim.name} (PS# stage, --fast)")
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = claim.run(options)
        except Exception as exc:  # claims must not abort the battery
            ok, detail = False, f"exception: {exc!r}"
        took = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        report(f"{status} {claim.name}: {detail} [{took:.1f}s]")
    return failures
