"""The verify-paper regression battery.

Each claim re-derives one published fact from scratch and reports
PASS/FAIL.  The pytest acceptance suite runs the same claims; the CLI
command `bentforge verify-paper` prints them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fixtures as fx
from .boolfun import (
    BooleanFunction,
    algebraic_degree,
    dual,
    is_bent,
    linear_images,
    zero_function,
)
from .construct import (
    ConcatQuadruple,
    concat4,
    dual_bent_condition,
    extend_permutation,
    mm_bent,
    theorem53_certify,
    theorem57_check,
    witness_second_msubspace,
)
from .gf2 import random_invertible
from .gf2m import Field, power_map
from .msub import canonical_msubspace, is_in_mm_sharp, is_msubspace, msubspaces
from .psclass import is_in_ps_sharp
from .vectorial import (
    VectorialFunction,
    check_p2,
    component,
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
    run: Callable[[], tuple[bool, str]]


# --- criterion 1: fixture reproduction -------------------------------------

def _quadruple(name: str) -> ConcatQuadruple:
    builder, _ = fx.QUADRUPLES[name]
    return builder()


def _claim_anf(name: str) -> Callable:
    def run():
        builder, varmap = fx.QUADRUPLES[name]
        built = fx.to_paper_variables(concat4(builder()), varmap)
        target = fx.published_bent8(name)
        ok = built == target
        return ok, "bit-exact" if ok else "table differs"

    return run


# --- criterion 2: class verdicts -------------------------------------------

def _claim_verdicts(name: str) -> Callable:
    def run():
        f = fx.published_bent8(name)
        if not is_bent(f):
            return False, "not bent"
        w = is_in_mm_sharp(f)
        if w is not None:
            return False, f"unexpected MM# witness {w.basis}"
        return True, "bent, no 4-dimensional M-subspace"

    return run


def _claim_ps_none(name: str) -> Callable:
    def run():
        f = fx.published_bent8(name)
        w = is_in_ps_sharp(f)
        return w is None, "exhaustive sweep none" if w is None else f"witness {w}"

    return run


# --- criterion 3 ------------------------------------------------------------

def _claim_quadratic_count():
    f = mm_bent(identity_map(3), zero_function(3))
    count = len(msubspaces(f, 3))
    expect = 3 * 5 * 9
    return count == expect, f"count {count}, expect {expect}"


# --- criterion 4: the two-M-subspace permutation ----------------------------------------------

def _claim_two_msubspaces():
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

def _claim_p1_battery():
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

def _claim_thm44():
    m, t = 6, 2
    s = 2  # gcd(t, m)
    F = power_map(Field(m), (1 << t) + 1)
    count = vanishing_flats_count(F)
    reading_m = (1 << (m - 2)) * ((1 << (s - 1)) - 1) * ((1 << m) - 1) // 3
    reading_2m = (1 << (2 * m - 2)) * ((1 << (s - 1)) - 1) * ((1 << (2 * m)) - 1) // 3
    if count != reading_m or count == reading_2m:
        return False, f"count {count}, formula(m) {reading_m}, formula(2m) {reading_2m}"
    return True, f"count {count}; the published n means m"


# --- criterion 7 -------------------------------------------------------------

def _claim_prop46_cor48():
    x5 = power_map(Field(6), 5)
    report = check_p2(x5)
    if not report.fully_satisfies or report.max_vanishing_dim > 2:
        return False, f"P2 {report.fully_satisfies}, max dim {report.max_vanishing_dim}"
    x3 = power_map(Field(3), 3)
    ext = extend_permutation(identity_map(3), x3)
    ok, _ = has_p1(ext)
    return ok, "Gold quintic P2 and extended permutation P1" if ok else "extension fails P1"


# --- criterion 8: unique canonical M-subspace under P1 ----------------------

def _p1_fixture(m: int) -> VectorialFunction:
    if m == 3:
        return fx.apn_perm_m3()
    return extend_permutation(identity_map(3), power_map(Field(3), 3))


def _claim_theorem31():
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
    A = linear_images(random_invertible(m, rng), m)
    B = linear_images(random_invertible(m, rng), m)
    conj = np.zeros(1 << m, dtype=np.int64)
    conj[A] = B[table]
    return VectorialFunction(m, conj)


def _claim_prop21_witnesses():
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

def _claim_concat_algebra():
    # f1, f2, f3 = x.pi(y) + h_i(y) share pi, so their duals share pi^-1 and
    # f1* + f2* + f3* + l is bent for every affine l; with f4 its dual, the
    # condition holds iff l = 1, which even draws take and odd draws avoid.
    rng = random.Random(10)
    for draw in range(200):
        pi = VectorialFunction(3, np.array(rng.sample(range(8), 8)))
        f1, f2, f3 = (mm_bent(pi, BooleanFunction(3, rng.choices((0, 1), k=8))) for _ in range(3))
        a, c = 0, 1
        while draw % 2 and (a, c) == (0, 1):
            a, c = rng.randrange(64), rng.randrange(2)
        l = component(identity_map(6), a) ^ c
        q = ConcatQuadruple(f1, f2, f3, dual(dual(f1) ^ dual(f2) ^ dual(f3) ^ l))
        cond, bent = dual_bent_condition(q), is_bent(concat4(q))
        if not cond == bent == (draw % 2 == 0):
            return False, f"draw {draw}: condition {cond}, concatenation bent {bent}"
    return True, "dual condition and bentness agree on 100 bent and 100 non-bent quadruples"


# --- extra published checks ---------------------------------------------------

def _claim_trace_cubic():
    f = fx.tr_xy3_bent()
    if not is_bent(f):
        return False, "Tr(x y^3) not bent"
    if msubspaces(f, 3) != [canonical_msubspace(3)]:
        return False, "Tr(x y^3) has extra M-subspaces"
    return True, "bent with the unique canonical M-subspace"


def _claim_mix_degree():
    f = fx.published_bent8("delta0_mix")
    d = algebraic_degree(f)
    return d == 4, f"degree {d}"


def _claim_dual_condition_mix():
    ok = dual_bent_condition(_quadruple("delta0_mix"))
    return ok, "f1*+f2*+f3*+f4* = 1" if ok else "dual condition fails"


def _claim_thm53_mix():
    cert = theorem53_certify(_quadruple("delta0_mix"))
    return cert.verdict == "outside_mm_sharp", cert.verdict


def _claim_thm57_family():
    cert = theorem57_check(_quadruple("apn_family"))
    return cert.verdict == "outside_mm_sharp", cert.verdict


CLAIMS: list[Claim] = [
    Claim("delta0-mix-anf-reproduction", 1, _claim_anf("delta0_mix")),
    Claim("transposed-anf-reproduction", 1, _claim_anf("transposed")),
    Claim("apn-family-anf-reproduction", 1, _claim_anf("apn_family")),
    Claim("delta0-mix-bent-outside-mm", 2, _claim_verdicts("delta0_mix")),
    Claim("transposed-bent-outside-mm", 2, _claim_verdicts("transposed")),
    Claim("apn-family-bent-outside-mm", 2, _claim_verdicts("apn_family")),
    Claim("delta0-mix-outside-ps", 2, _claim_ps_none("delta0_mix")),
    Claim("transposed-outside-ps", 2, _claim_ps_none("transposed")),
    Claim("apn-family-outside-ps", 2, _claim_ps_none("apn_family")),
    Claim("quadratic-msubspace-count-135", 3, _claim_quadratic_count),
    Claim("two-msubspace-permutation", 4, _claim_two_msubspaces),
    Claim("p1-apn-battery", 5, _claim_p1_battery),
    Claim("gold-vanishing-flat-count", 6, _claim_thm44),
    Claim("gold-p2-and-extension-p1", 7, _claim_prop46_cor48),
    Claim("p1-unique-msubspace-suite", 8, _claim_theorem31),
    Claim("linear-structure-witness-suite", 9, _claim_prop21_witnesses),
    Claim("concatenation-algebra", 10, _claim_concat_algebra),
    Claim("trace-cubic-bent", 4, _claim_trace_cubic),
    Claim("delta0-mix-degree", 2, _claim_mix_degree),
    Claim("delta0-mix-dual-bent-condition", 10, _claim_dual_condition_mix),
    Claim("thm53-certifies-delta0-mix", 10, _claim_thm53_mix),
    Claim("thm57-certifies-apn-family", 10, _claim_thm57_family),
]


def run_claims() -> int:
    """Run every claim, print one PASS/FAIL line each, return failure count."""
    failures = 0
    for claim in CLAIMS:
        t0 = time.perf_counter()
        try:
            ok, detail = claim.run()
        except Exception as exc:  # claims must not abort the battery
            ok, detail = False, f"exception: {exc!r}"
        took = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status} {claim.name}: {detail} [{took:.1f}s]")
    return failures
