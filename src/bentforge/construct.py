"""Generative recipes: Maiorana-McFarland builders, bent 4-concatenation,
second-M-subspace witnesses, piecewise permutation extension, and the
outside-MM# certificates for concatenations.

Concatenation layout: the (n+2)-variable index is x + 2^n*y2 + 2^(n+1)*y1,
so the serialized table is literally the block sequence f1 f2 f3 f4 with
f2 = f(x,0,1).  Directions split the same way: a = (a', a1, a2) with
a' the low n bits, a2 at bit n and a1 at bit n+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boolfun import (
    BooleanFunction,
    _parity_array,
    dual,
    is_bent,
    zero_function,
)
from .gf2 import Subspace, orthogonal_complement, span
from .msub import canonical_msubspace, is_msubspace, msubspaces
from .vectorial import (
    VectorialFunction,
    component,
    has_p1,
    is_permutation,
    linear_structures_vf,
    vanishing_subspaces_vf,
)


class PreconditionError(ValueError):
    """A construction precondition failed; carries a witness when one exists."""

    def __init__(self, message: str, witness: Subspace | None = None) -> None:
        super().__init__(message)
        self.witness = witness


class HypothesisError(ValueError):
    """A theorem hypothesis failed; code names which one."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ConcatQuadruple:
    f1: BooleanFunction
    f2: BooleanFunction
    f3: BooleanFunction
    f4: BooleanFunction

    def __post_init__(self) -> None:
        ns = {f.n for f in self.functions}
        if len(ns) != 1:
            raise ValueError(f"mismatched variable counts: {sorted(ns)}")

    @property
    def functions(self) -> tuple[BooleanFunction, ...]:
        return (self.f1, self.f2, self.f3, self.f4)

    @property
    def n(self) -> int:
        return self.f1.n


@dataclass(frozen=True)
class OutsideCertificate:
    verdict: str  # "outside_mm_sharp" | "inconclusive"
    reason: str  # "no_shared_small_msubspace" | "sharing_conditions_hold"
    evidence: tuple = ()

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "evidence": list(self.evidence),
        }


@dataclass(frozen=True)
class ConstructionResult:
    function: BooleanFunction
    quadruple: ConcatQuadruple
    certificate: OutsideCertificate


def delta0(m: int) -> BooleanFunction:
    """The indicator of 0_m, i.e. prod (y_i + 1)."""
    t = np.zeros(1 << m, dtype=np.uint8)
    t[0] = 1
    return BooleanFunction(m, t)


def mm_bent(pi: VectorialFunction, h: BooleanFunction) -> BooleanFunction:
    """f(x, y) = x . pi(y) + h(y) on 2m variables, index x + 2^m y."""
    if not is_permutation(pi):
        raise ValueError("pi must be a permutation")
    m = pi.m
    if h.n != m:
        raise ValueError(f"h must be on {m} variables")
    idx = np.arange(1 << (2 * m))
    x = idx & ((1 << m) - 1)
    y = idx >> m
    return BooleanFunction(2 * m, _parity_array(x & pi.table[y]) ^ h.table[y])


def mm_bent_transposed(sigma: VectorialFunction, h: BooleanFunction) -> BooleanFunction:
    """f(x, y) = y . sigma(x) + h(x); canonical M-subspace {0_m} x F_2^m."""
    if not is_permutation(sigma):
        raise ValueError("sigma must be a permutation")
    m = sigma.m
    if h.n != m:
        raise ValueError(f"h must be on {m} variables")
    idx = np.arange(1 << (2 * m))
    x = idx & ((1 << m) - 1)
    y = idx >> m
    return BooleanFunction(2 * m, _parity_array(y & sigma.table[x]) ^ h.table[x])


def concat4(q: ConcatQuadruple) -> BooleanFunction:
    """The 4-concatenation f1||f2||f3||f4 on n+2 variables."""
    return BooleanFunction(
        q.n + 2, np.concatenate([f.table for f in q.functions])
    )


def restrictions(f: BooleanFunction) -> ConcatQuadruple:
    """Inverse of concat4: the four restrictions in the top two variables."""
    if f.n < 3:
        raise ValueError("need at least 3 variables to split")
    N = 1 << (f.n - 2)
    t = f.table
    return ConcatQuadruple(
        BooleanFunction(f.n - 2, t[:N]),
        BooleanFunction(f.n - 2, t[N : 2 * N]),
        BooleanFunction(f.n - 2, t[2 * N : 3 * N]),
        BooleanFunction(f.n - 2, t[3 * N :]),
    )


def split_direction(a: int, n: int) -> tuple[int, int, int]:
    """a = (a', a1, a2) per the concatenation layout."""
    return a & ((1 << n) - 1), (a >> (n + 1)) & 1, (a >> n) & 1


def dual_bent_condition(q: ConcatQuadruple) -> bool:
    """True iff f1* + f2* + f3* + f4* = 1; equivalent to concat4(q) bent."""
    for i, f in enumerate(q.functions, 1):
        if not is_bent(f):
            raise ValueError(f"f{i} is not bent")
    s = dual(q.f1).table ^ dual(q.f2).table ^ dual(q.f3).table ^ dual(q.f4).table
    holds = bool(s.min() == 1)
    # the two characterizations must agree; a mismatch would be a logic bug
    assert holds == is_bent(concat4(q))
    return holds


def second_derivative_concat(q: ConcatQuadruple, a: int, b: int) -> BooleanFunction:
    """Second derivative of the concatenation, assembled symbolically from
    the four pieces (the closed-form expansion in a', a1, a2, b', b1, b2).

    Intended to equal second_derivative(concat4(q), a, b); the direct table
    computation stays the authority, this is the cross-check.
    """
    n = q.n
    if (a >> (n + 2)) or (b >> (n + 2)):
        raise ValueError("direction out of range")
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
            blocks.append((y1, y2, blk))
    # memory order is f(x,0,0), f(x,0,1), f(x,1,0), f(x,1,1)
    order = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    table = np.zeros(1 << (n + 2), dtype=np.uint8)
    N = 1 << n
    for y1, y2, blk in blocks:
        k = order[(y1, y2)]
        table[k * N : (k + 1) * N] = blk
    return BooleanFunction(n + 2, table)


def witness_second_msubspace(pi: VectorialFunction, kind: str) -> Subspace:
    """A verified non-canonical M-subspace of x.pi(y), built either from a
    nonzero linear structure of pi or from a vanishing hyperplane."""
    m = pi.m
    if not is_permutation(pi):
        raise ValueError("pi must be a permutation")
    if kind == "linear_structure":
        structs = sorted(linear_structures_vf(pi) - {0})
        if not structs:
            raise PreconditionError("pi has no nonzero linear structure")
        s = structs[0]
        v = int(pi.table[0] ^ pi.table[s])  # D_s pi, constant by choice of s
        W = orthogonal_complement(span([v], m))
        basis = list(W.basis) + [s << m]
        V = span(basis, 2 * m)
    elif kind == "hyperplane":
        hyper = vanishing_subspaces_vf(pi, m - 1)
        if not hyper:
            raise PreconditionError("pi has no vanishing hyperplane")
        S = hyper[0]
        s = orthogonal_complement(S).basis[0]
        lin = _parity_array(np.arange(1 << m) & s)
        c_found = None
        for c in range(1, 1 << m):
            comp = component(pi, c).table
            if np.array_equal(comp, lin) or np.array_equal(comp, lin ^ 1):
                c_found = c
                break
        if c_found is None:
            raise PreconditionError("no component of pi equals the hyperplane functional")
        basis = [c_found] + [b << m for b in S.basis]
        V = span(basis, 2 * m)
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    f = mm_bent(pi, zero_function(m))
    if V.dim != m or not is_msubspace(f, V):
        raise AssertionError("constructed witness failed verification")
    if V == canonical_msubspace(m):
        raise AssertionError("witness collapsed to the canonical subspace")
    return V


def extend_permutation(
    sigma1: VectorialFunction, sigma2: VectorialFunction
) -> VectorialFunction:
    """Piecewise extension (y, t) -> (sigma1(y) + t*(sigma1+sigma2)(y), t).

    Requires D_V sigma1 != D_V sigma2 for every 2-dimensional V, i.e. the
    pointwise sum sigma1+sigma2 has no vanishing 2-space.
    """
    if sigma1.m != sigma2.m:
        raise ValueError("dimension mismatch")
    m = sigma1.m
    if not (is_permutation(sigma1) and is_permutation(sigma2)):
        raise ValueError("both inputs must be permutations")
    diff = VectorialFunction(m, sigma1.table ^ sigma2.table)
    ok, witness = has_p1(diff)
    if not ok:
        raise PreconditionError(
            "second derivatives of sigma1 and sigma2 agree on a 2-space",
            witness=witness,
        )
    table = np.concatenate(
        [sigma1.table, sigma2.table | (1 << m)]
    )
    return VectorialFunction(m + 1, table)


def _common_vanishing_subspaces(q: ConcatQuadruple, r: int) -> list[Subspace]:
    """Subspaces of dimension r on which all four functions vanish.

    Enumerates one function's list and filters the rest pointwise, which
    avoids the other three full searches.
    """
    if r == 1:
        return [span([a], q.n) for a in range(1, 1 << q.n)]
    first = msubspaces(q.f1, r)
    rest = (q.f2, q.f3, q.f4)
    return [V for V in first if all(is_msubspace(f, V) for f in rest)]


def theorem53_certify(q: ConcatQuadruple) -> OutsideCertificate:
    """Outside-MM# certificate: no (n/2-1)-dimensional subspace is an
    M-subspace of all four pieces.

    A shared subspace makes the verdict inconclusive whether or not the
    concatenation is bent; the outside verdict itself requires bentness.
    """
    r = q.n // 2 - 1
    if q.n % 2 or r < 1:
        raise ValueError("pieces must live on an even number >= 4 of variables")
    common = _common_vanishing_subspaces(q, r)
    if common:
        return OutsideCertificate(
            "inconclusive",
            "no_shared_small_msubspace",
            (
                {
                    "dimension": r,
                    "shared_count": len(common),
                    "shared": [V.to_text().split("\n") for V in common[:8]],
                },
            ),
        )
    if not is_bent(concat4(q)):
        raise ValueError("concatenation is not bent")
    return OutsideCertificate(
        "outside_mm_sharp",
        "no_shared_small_msubspace",
        ({"dimension": r, "shared_count": 0},),
    )


def theorem55_construct(
    pi: VectorialFunction,
    sigma: VectorialFunction,
    h1: BooleanFunction,
    h2: BooleanFunction,
) -> ConstructionResult:
    """Concatenate f1 = f2 = x.pi(y)+h1(y) with f3 = y.sigma(x)+h2(x) and
    f4 = f3+1: bent and outside MM# when pi has P1 and sigma has no
    vanishing subspace of dimension m-2 (of dimension 2 when m = 3;
    1-dimensional spaces vanish vacuously)."""
    if pi.m != sigma.m:
        raise ValueError("pi and sigma must act on the same dimension")
    m = pi.m
    ok, witness = has_p1(pi)
    if not ok:
        raise PreconditionError("pi fails P1", witness=witness)
    check_dim = max(2, m - 2)
    bad = vanishing_subspaces_vf(sigma, check_dim)
    if bad:
        raise PreconditionError(
            f"sigma has a vanishing subspace of dimension {check_dim}",
            witness=bad[0],
        )
    f1 = mm_bent(pi, h1)
    f3 = mm_bent_transposed(sigma, h2)
    q = ConcatQuadruple(f1, f1, f3, f3 ^ 1)
    cert = theorem53_certify(q)
    return ConstructionResult(concat4(q), q, cert)


def theorem57_check(q: ConcatQuadruple) -> OutsideCertificate:
    """Outside-MM# check for quadruples sharing one top M-subspace.

    Hypotheses (verified here): all four bent and in MM#, sharing exactly
    one (n/2)-dimensional M-subspace, and concat4(q) bent.  For every
    common vanishing (n/2-1)-dimensional V and every shift v it searches
    u1, u2, u3 in V making the three derivative conditions hold, where
    "nonzero" means not identically zero as a function of x.
    """
    n = q.n
    m = n // 2
    not_bent = [i for i, f in enumerate(q.functions, 1) if not is_bent(f)]
    if not_bent:
        raise HypothesisError("not_all_bent", f"not bent: f{not_bent}")
    tops = [msubspaces(f, m) for f in q.functions]
    shared_top = set(tops[0])
    for lst in tops[1:]:
        shared_top &= set(lst)
    if len(shared_top) != 1:
        raise HypothesisError(
            "shared_subspace_not_unique",
            f"pieces share {len(shared_top)} {m}-dimensional M-subspaces, need exactly 1",
        )
    U = next(iter(shared_top))
    concat_bent = is_bent(concat4(q))

    idx = np.arange(1 << n)
    t1, t2, t3, t4 = (f_.table for f_ in q.functions)

    def cond(u: int, v: int, ta: np.ndarray, tb: np.ndarray) -> bool:
        da = ta ^ ta[idx ^ u]
        db = tb ^ tb[idx ^ u]
        return bool((da ^ db[idx ^ v]).any())

    condition_pairs = (
        ((t1, t2), (t3, t4)),
        ((t1, t3), (t2, t4)),
        ((t2, t3), (t1, t4)),
    )

    common = _common_vanishing_subspaces(q, m - 1)
    failures = []
    checked = 0
    for V in common:
        nonzero = [u for u in V.elements() if u]
        for v in range(1 << n):
            checked += 1
            for ci, (pair_a, pair_b) in enumerate(condition_pairs, 1):
                if not any(
                    cond(u, v, *pair_a) or cond(u, v, *pair_b) for u in nonzero
                ):
                    failures.append({"V": V.to_text().split("\n"), "v": v, "condition": ci})
                    break

    evidence: list = [
        {
            "shared_top_subspace": U.to_text().split("\n"),
            "common_vanishing_count": len(common),
            "pairs_checked": checked,
        }
    ]
    is_special = bool(np.array_equal(t4, t1 ^ t2 ^ t3))
    evidence.append({"f4_equals_f1_f2_f3": is_special})
    if is_special:
        evidence.append(
            {"dim2_sufficient_subspace": _corollary_dim2_witness(q, U, common)}
        )
    if failures:
        only_zero_shift = all(rec["v"] == 0 for rec in failures)
        evidence.append(
            {
                "failures": failures[:16],
                "only_v0_fails": only_zero_shift,
                "concat_bent": concat_bent,
            }
        )
        return OutsideCertificate("inconclusive", "sharing_conditions_hold", tuple(evidence))
    # the outside verdict needs the concatenation itself to be bent
    if not concat_bent:
        raise HypothesisError("concat_not_bent", "concatenation is not bent")
    return OutsideCertificate("outside_mm_sharp", "sharing_conditions_hold", tuple(evidence))


def _corollary_dim2_witness(
    q: ConcatQuadruple, U: Subspace, common: list[Subspace]
) -> list[str] | None:
    """The dim-2 sufficient condition: a 2-dimensional S inside the shared
    subspace whose nonzero directions separate f1, f2, f3 under every shift.
    Requires every common vanishing subspace to sit inside U."""
    n = q.n
    idx = np.arange(1 << n)
    if not all(all(U.contains(b) for b in V.basis) for V in common):
        return None

    def separates(u: int) -> bool:
        pairs = ((q.f1, q.f2), (q.f1, q.f3), (q.f2, q.f3))
        for fa, fb in pairs:
            da = fa.table ^ fa.table[idx ^ u]
            db = fb.table ^ fb.table[idx ^ u]
            for v in range(1 << n):
                if not (da ^ db[idx ^ v]).any():
                    return False
        return True

    elems = [u for u in U.elements() if u]
    good = [u for u in elems if separates(u)]
    good_set = set(good)
    for i, u1 in enumerate(good):
        for u2 in good[i + 1 :]:
            if (u1 ^ u2) in good_set:
                return span([u1, u2], n).to_text().split("\n")
    return None
