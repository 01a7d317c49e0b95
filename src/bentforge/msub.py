"""M-subspace machinery: subspaces on which all second-order derivatives
of a Boolean function vanish identically.

A bent function on 2m variables lies in the completed Maiorana-McFarland
class exactly when it has an m-dimensional M-subspace (Dillon's criterion),
so the searches here double as the MM# membership test.  The count profile
by dimension is invariant under extended-affine equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import boolfun
from .boolfun import BooleanFunction, is_bent, second_derivative
from .gf2 import Subspace, span
from .vectorial import iter_clique_subspaces, vanishing_pair_adjacency, vanishing_subspaces

# Unused here, kept while perfbench/tracer.py looks them up (ROADMAP item 5a).
algebraic_degree = boolfun.algebraic_degree
vanishing_pair_adjacency_quadratic = vanishing_pair_adjacency


@dataclass(frozen=True)
class MSubspaceProfile:
    """Counts of r-dimensional M-subspaces for r = 2 .. max(2, n/2): below
    n = 4 the one entry counts 2-dimensional M-subspaces, so n = 1 gives
    {2: 0}.  witness is the first (n // 2)-dimensional M-subspace in
    canonical search order, the one `is_in_mm_sharp` returns, or None."""

    counts: dict[int, int]
    witness: Subspace | None

    def as_dict(self) -> dict[str, int]:
        return {str(r): self.counts[r] for r in sorted(self.counts)}


def is_msubspace(f: BooleanFunction, V: Subspace) -> bool:
    """True iff D_a D_b f = 0 for all a, b in V.

    Checked on basis pairs only; the span-closure identity
    D_{a+b}D_c f(x) = D_a D_c f(x+b) + D_b D_c f(x) extends it to all pairs.
    """
    if f.n != V.n:
        raise ValueError(f"dimension mismatch: function n={f.n}, subspace n={V.n}")
    basis = V.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if second_derivative(f, basis[i], basis[j]).table.any():
                return False
    return True


def msubspaces(f: BooleanFunction, r: int) -> list[Subspace]:
    """All r-dimensional M-subspaces of f, canonical and sorted."""
    if not 2 <= r <= f.n:
        raise ValueError(f"need 2 <= r <= n, got r={r}")
    return vanishing_subspaces(vanishing_pair_adjacency(f.table), r)


def msubspace_profile(f: BooleanFunction) -> MSubspaceProfile:
    """Counts of M-subspaces for r = 2 .. max(2, n/2) (an EA-equivalence
    invariant) and the first (n // 2)-dimensional one, from one walk; below
    n = 4 it starts at dimension 1, where n = 2 has its witness."""
    half = f.n // 2
    top = max(2, half)
    counts = {r: 0 for r in range(2, top + 1)}
    witness = None
    adj = vanishing_pair_adjacency(f.table)
    for gens in iter_clique_subspaces(adj, max(1, min(2, half)), top):
        if len(gens) >= 2:
            counts[len(gens)] += 1
        if witness is None and len(gens) == half:
            witness = span(list(gens), f.n)
    return MSubspaceProfile(counts, witness)


def is_in_mm_sharp(f: BooleanFunction) -> Subspace | None:
    """Dillon criterion: an n/2-dimensional M-subspace, or None.

    Early-exits on the first witness in canonical search order.
    """
    if not is_bent(f):
        raise ValueError("MM# membership is defined for bent functions")
    adj = vanishing_pair_adjacency(f.table)
    for gens in iter_clique_subspaces(adj, f.n // 2):
        return span(list(gens), f.n)
    return None


def canonical_msubspace(m: int) -> Subspace:
    """F_2^m x {0_m} inside F_2^{2m} (x in the low bits)."""
    return span([1 << j for j in range(m)], 2 * m)
