"""M-subspace machinery: subspaces on which all second-order derivatives
of a Boolean function vanish identically.

A bent function on 2m variables lies in the completed Maiorana-McFarland
class exactly when it has an m-dimensional M-subspace (Dillon's criterion),
so the searches here double as the MM# membership test.  The count profile
by dimension is invariant under extended-affine equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .boolfun import BooleanFunction, algebraic_degree, is_bent
from .gf2 import Subspace, span
from .vectorial import (
    iter_clique_subspaces,
    vanishing_pair_adjacency,
    vanishing_pair_adjacency_quadratic,
)


@dataclass(frozen=True)
class MSubspaceProfile:
    """Counts of r-dimensional M-subspaces for r = 2 .. n/2."""

    n: int
    counts: dict[int, int]

    def as_dict(self) -> dict[str, int]:
        return {str(r): self.counts[r] for r in sorted(self.counts)}


def is_msubspace(f: BooleanFunction, V: Subspace) -> bool:
    """True iff D_a D_b f = 0 for all a, b in V.

    Checked on basis pairs only; the span-closure identity
    D_{a+b}D_c f(x) = D_a D_c f(x+b) + D_b D_c f(x) extends it to all pairs.
    """
    if f.n != V.n:
        raise ValueError(f"dimension mismatch: function n={f.n}, subspace n={V.n}")
    from .boolfun import second_derivative_vanishes

    basis = V.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not second_derivative_vanishes(f, basis[i], basis[j]):
                return False
    return True


@lru_cache(maxsize=64)
def _adjacency(f: BooleanFunction) -> list[int]:
    if algebraic_degree(f) <= 2:
        return vanishing_pair_adjacency_quadratic(f.table)
    return vanishing_pair_adjacency(f.table)


def msubspaces(f: BooleanFunction, r: int) -> list[Subspace]:
    """All r-dimensional M-subspaces of f, canonical and sorted."""
    if not 2 <= r <= f.n:
        raise ValueError(f"need 2 <= r <= n, got r={r}")
    adj = _adjacency(f)
    out = [span(list(gens), f.n) for gens in iter_clique_subspaces(adj, 1 << f.n, r)]
    return sorted(out, key=lambda s: s.basis)


def msubspace_profile(f: BooleanFunction) -> MSubspaceProfile:
    """Counts of M-subspaces for r = 2 .. n/2 (an EA-equivalence invariant)."""
    top = max(2, f.n // 2)
    counts = {r: 0 for r in range(2, top + 1)}
    adj = _adjacency(f)
    for gens in iter_clique_subspaces(adj, 1 << f.n, 2, max_dim=top):
        counts[len(gens)] += 1
    return MSubspaceProfile(f.n, counts)


def is_in_mm_sharp(f: BooleanFunction) -> Subspace | None:
    """Dillon criterion: an n/2-dimensional M-subspace, or None.

    Early-exits on the first witness in canonical search order.
    """
    if not is_bent(f):
        raise ValueError("MM# membership is defined for bent functions")
    adj = _adjacency(f)
    for gens in iter_clique_subspaces(adj, 1 << f.n, f.n // 2):
        return span(list(gens), f.n)
    return None


def canonical_msubspace(m: int) -> Subspace:
    """F_2^m x {0_m} inside F_2^{2m} (x in the low bits)."""
    return span([1 << j for j in range(m)], 2 * m)
