"""Linear algebra over GF(2) on int bitsets.

Vectors of F_2^n are plain Python ints: bit j-1 of the int is coordinate
x_j, so x_1 is the least significant bit.  Subspaces are kept in a unique
reduced row-echelon form which makes equality a plain tuple comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

MAX_DIM = 20


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}, got {n}")


def rref(vectors: list[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span, pivots decreasing.

    Pivots are taken from the most significant bit downward; every pivot
    bit is zero in all other basis vectors.  Dependent inputs are absorbed.
    The rows stay reduced as they grow: min(v, v ^ b) clears b's pivot in v.
    """
    rows: list[int] = []
    for v in vectors:
        for b in rows:
            v = min(v, v ^ b)
        if v:
            rows = [min(b, b ^ v) for b in rows]
            rows.append(v)
    return tuple(sorted(rows, reverse=True))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^n held as its canonical RREF basis."""

    n: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> list[int]:
        """All 2^dim elements, ascending."""
        elems = [0]
        for b in self.basis:
            elems += [b ^ e for e in elems]
        return sorted(elems)

    def contains(self, v: int) -> bool:
        for b in self.basis:
            v = min(v, v ^ b)
        return v == 0

    def rows(self) -> list[str]:
        """One string per basis vector, character j is coordinate x_{j+1}.

        Rows come in increasing pivot order, the row-matrix presentation
        used for subspaces in the literature; reports print this list.
        """
        return [
            "".join("1" if (b >> j) & 1 else "0" for j in range(self.n))
            for b in reversed(self.basis)
        ]

    @classmethod
    def from_text(cls, text: str) -> "Subspace":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError("empty subspace text")
        width = len(rows[0])
        vecs = []
        for row in rows:
            if len(row) != width or set(row) - {"0", "1"}:
                raise ValueError(f"bad basis row {row!r} for dimension {width}")
            vecs.append(sum(1 << j for j, c in enumerate(row) if c == "1"))
        return span(vecs, width)


def span(vectors: list[int], n: int) -> Subspace:
    """Canonical subspace spanned by the given vectors in F_2^n."""
    _check_dim(n)
    for v in vectors:
        if v >> n:
            raise ValueError(f"vector {v:#x} exceeds ambient dimension {n}")
    return Subspace(n, rref(list(vectors)))


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, ())


def gaussian_binomial(n: int, r: int) -> int:
    """Number of r-dimensional subspaces of F_2^n."""
    if r < 0 or r > n:
        return 0
    num = den = 1
    for i in range(r):
        num *= (1 << (n - i)) - 1
        den *= (1 << (r - i)) - 1
    return num // den


def enumerate_subspaces(n: int, r: int) -> Iterator[Subspace]:
    """Yield every r-dimensional subspace of F_2^n once, in canonical form.

    Deterministic order: pivot sets descending-lexicographic, then free
    entries in increasing numeric order.
    """
    _check_dim(n)
    if r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if r == 0:
        yield zero_subspace(n)
        return
    for pivots in itertools.combinations(range(n - 1, -1, -1), r):
        pivset = set(pivots)
        free = [[j for j in range(p) if j not in pivset] for p in pivots]
        counts = [len(fr) for fr in free]
        for assignment in itertools.product(*(range(1 << c) for c in counts)):
            basis = []
            for i, p in enumerate(pivots):
                row = 1 << p
                bits = assignment[i]
                for k, j in enumerate(free[i]):
                    if (bits >> k) & 1:
                        row |= 1 << j
                basis.append(row)
            yield Subspace(n, tuple(basis))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Canonical subspace a ∩ b."""
    if a.n != b.n:
        raise ValueError(f"ambient mismatch: {a.n} vs {b.n}")
    small, big = (a, b) if a.dim <= b.dim else (b, a)
    vecs = [v for v in small.elements() if big.contains(v)]
    return span(vecs, a.n)


def orthogonal_complement(a: Subspace) -> Subspace:
    """{u : u.v = 0 for all v in a} under the standard dot product.

    The RREF basis already solves basis . u = 0: each non-pivot coordinate
    j is free and sets the pivot coordinate of every row that has bit j.
    """
    pivots = [b.bit_length() - 1 for b in a.basis]
    comp = []
    for j in range(a.n):
        if j in pivots:
            continue
        u = 1 << j
        for p, b in zip(pivots, a.basis):
            if (b >> j) & 1:
                u |= 1 << p
        comp.append(u)
    return span(comp, a.n)


def random_invertible(n: int, rng) -> list[int]:
    """Rows of a random invertible n x n matrix over GF(2)."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(n)]
        if len(rref(rows)) == n:
            return rows
