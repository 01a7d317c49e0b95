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
from .msub import canonical_msubspace, is_msubspace
from .vectorial import (
    VectorialFunction,
    has_p1,
    is_permutation,
    linear_structures_vf,
    vanishing_pair_adjacency,
    vanishing_subspaces,
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
    """f(x, y) = y . sigma(x) + h(x), index x + 2^m y: `mm_bent` with x and
    y swapped, so its 2^m x 2^m table transposed; canonical M-subspace
    {0_m} x F_2^m."""
    f = mm_bent(sigma, h)
    side = 1 << sigma.m
    return BooleanFunction(f.n, f.table.reshape(side, side).T.ravel())


def concat4(q: ConcatQuadruple) -> BooleanFunction:
    """The 4-concatenation f1||f2||f3||f4 on n+2 variables."""
    return BooleanFunction(
        q.n + 2, np.concatenate([f.table for f in q.functions])
    )


def dual_bent_condition(q: ConcatQuadruple) -> bool:
    """True iff f1* + f2* + f3* + f4* = 1; equivalent to concat4(q) bent."""
    s = 0
    for i, f in enumerate(q.functions, 1):
        try:
            s ^= dual(f).table
        except ValueError:
            raise ValueError(f"f{i} is not bent") from None
    return bool(s.min() == 1)


def witness_second_msubspace(pi: VectorialFunction, kind: str) -> Subspace:
    """A verified non-canonical M-subspace of x.pi(y), built either from a
    nonzero linear structure of pi or from a vanishing hyperplane.

    For a vanishing hyperplane S, pi is affine on both cosets of S and so
    maps them onto the two cosets of the hyperplane H = span{pi(b) + pi(0)
    : b in S.basis}.  The one nonzero c orthogonal to H then has c.pi(y) =
    s.y + c.pi(0), with s the nonzero vector orthogonal to S; no other
    nonzero c does.  The witness is spanned by (x, y) = (c, 0) and the
    (0, b) for b in S."""
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
        H = span([int(pi.table[b] ^ pi.table[0]) for b in S.basis], m)
        c = orthogonal_complement(H).basis[0]
        V = span([c] + [b << m for b in S.basis], 2 * m)
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
    """The r-dimensional M-subspaces shared by the four pieces, canonical
    and sorted: the vanishing subspaces of the packed table f1 + 2 f2 +
    4 f3 + 8 f4, whose graph is the AND of the pieces' graphs."""
    packed = sum(f.table << i for i, f in enumerate(q.functions))
    return vanishing_subspaces(vanishing_pair_adjacency(packed), r)


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
                    "shared": [V.rows() for V in common[:8]],
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
    if m < 3:
        raise ValueError(f"Theorem 5.5 needs m >= 3 (n = 2m + 2 >= 8), got m = {m}")
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
    return ConstructionResult(concat4(q), cert)


def theorem57_check(q: ConcatQuadruple) -> OutsideCertificate:
    """Outside-MM# check for quadruples sharing one top M-subspace.

    Hypotheses (verified here): all four bent and in MM#, sharing exactly
    one (n/2)-dimensional M-subspace, and concat4(q) bent.  For every
    common vanishing (n/2-1)-dimensional V and every shift v it searches
    u1, u2, u3 in V making the three derivative conditions hold, where
    "nonzero" means not identically zero as a function of x.

    All is read off the vanishing-pair graph adj of concat4(q); directions
    (u, 0, 0) see each piece alone, so its top-left 2^n x 2^n block is the
    pieces' shared graph.  On the block of fi, the second derivative in
    directions (u, 0, 0) and (v, c) is D_u fi(x) + D_u fj(x + v) with
    j - 1 = (i - 1) xor c, and the u where it vanishes form a subspace, as
    D_{u+w} fi(x) = D_u fi(x) + D_w fi(x + u).  So condition c fails at
    (V, v) iff bit v | c << n is set in adj[u] for each u in a basis of V.
    c = 1 flips y2 and pairs f1,f2 and f3,f4; c = 2 flips y1 and pairs
    f1,f3 and f2,f4; c = 3 flips both and pairs f2,f3 and f1,f4.
    """
    n = q.n
    m = n // 2
    if n % 2 or m < 2:
        raise ValueError("pieces must live on an even number >= 4 of variables")
    not_bent = [i for i, f in enumerate(q.functions, 1) if not is_bent(f)]
    if not_bent:
        raise HypothesisError("not_all_bent", f"not bent: f{not_bent}")
    f = concat4(q)
    concat_bent = is_bent(f)
    adj = vanishing_pair_adjacency(f.table)
    pieces = [row & ((1 << (1 << n)) - 1) for row in adj[: 1 << n]]
    shared_top = vanishing_subspaces(pieces, m)
    if len(shared_top) != 1:
        raise HypothesisError(
            "shared_subspace_not_unique",
            f"pieces share {len(shared_top)} {m}-dimensional M-subspaces, need exactly 1",
        )
    U = shared_top[0]

    common = vanishing_subspaces(pieces, m - 1)
    failures = []
    for V in common:
        vanish = -1  # bit v | c << n: condition c's sums vanish for every u in V
        for u in V.basis:
            vanish &= adj[u]
        for v in range(1 << n):
            for c in (1, 2, 3):
                if vanish >> (v | c << n) & 1:
                    failures.append({"V": V.rows(), "v": v, "condition": c})
                    break

    evidence: list = [
        {
            "shared_top_subspace": U.rows(),
            "common_vanishing_count": len(common),
            "pairs_checked": len(common) << n,
        }
    ]
    is_special = bool(np.array_equal(q.f4.table, q.f1.table ^ q.f2.table ^ q.f3.table))
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
    Requires every common vanishing subspace to sit inside U.

    D_u fa(x) + D_u fb(x + v) vanishes iff bit v | 1 << n is set in row u
    of the vanishing-pair graph of fa || fb, so u separates the pair iff
    that row has no bit at or above 2^n."""
    n = q.n
    if not all(all(U.contains(b) for b in V.basis) for V in common):
        return None
    graphs = [
        vanishing_pair_adjacency(np.concatenate([fa.table, fb.table]))
        for fa, fb in ((q.f1, q.f2), (q.f1, q.f3), (q.f2, q.f3))
    ]
    good = [u for u in U.elements()[1:] if not any(adj[u] >> (1 << n) for adj in graphs)]
    good_set = set(good)
    for i, u1 in enumerate(good):
        for u2 in good[i + 1 :]:
            if (u1 ^ u2) in good_set:
                return span([u1, u2], n).rows()
    return None
