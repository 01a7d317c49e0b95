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


def parity(x: int) -> int:
    """Parity of the popcount of x (the GF(2) sum of coordinates)."""
    return x.bit_count() & 1


def dot(a: int, b: int) -> int:
    """Dot product a.b over GF(2)."""
    return (a & b).bit_count() & 1


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"ambient dimension must be in 1..{MAX_DIM}, got {n}")


def rref(vectors: list[int]) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span, pivots decreasing.

    Pivots are taken from the most significant bit downward; every pivot
    bit is zero in all other basis vectors.  Dependent inputs are absorbed.
    """
    basis: dict[int, int] = {}  # pivot -> row
    for v in vectors:
        for p in sorted(basis, reverse=True):
            if (v >> p) & 1:
                v ^= basis[p]
        if v:
            basis[v.bit_length() - 1] = v
    # back-substitute so pivot columns are clear in the other rows
    for p in sorted(basis):
        for q in basis:
            if q != p and (basis[q] >> p) & 1:
                basis[q] ^= basis[p]
    return tuple(basis[p] for p in sorted(basis, reverse=True))


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
            if (v >> (b.bit_length() - 1)) & 1:
                v ^= b
        return v == 0

    def to_text(self) -> str:
        """One basis vector per line, character j is coordinate x_{j+1}.

        Rows print in increasing pivot order, the row-matrix presentation
        used for subspaces in the literature.
        """
        return "\n".join(
            "".join("1" if (b >> j) & 1 else "0" for j in range(self.n))
            for b in reversed(self.basis)
        )

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "Subspace":
        rows = [line.strip() for line in text.splitlines() if line.strip()]
        if not rows and n is None:
            raise ValueError("empty subspace text needs an explicit dimension")
        width = n if n is not None else len(rows[0])
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


def full_space(n: int) -> Subspace:
    return span([1 << j for j in range(n)], n)


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


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.n != b.n:
        raise ValueError(f"ambient mismatch: {a.n} vs {b.n}")
    return span(list(a.basis) + list(b.basis), a.n)


def orthogonal_complement(a: Subspace) -> Subspace:
    """{u : u.v = 0 for all v in a} under the standard dot product."""
    n = a.n
    # solve basis . u = 0 by elimination on the transposed system
    rows = list(a.basis)
    pivots: list[int] = []
    work: list[int] = []
    for v in rows:
        for p, w in zip(pivots, work):
            if (v >> p) & 1:
                v ^= w
        if v:
            pivots.append(v.bit_length() - 1)
            work.append(v)
    pivset = set(pivots)
    comp = []
    for j in range(n):
        if j in pivset:
            continue
        u = 1 << j
        for p, w in zip(pivots, work):
            if (w >> j) & 1:
                u |= 1 << p
        comp.append(u)
    return span(comp, n)


def random_invertible(n: int, rng) -> list[int]:
    """Rows of a random invertible n x n matrix over GF(2)."""
    while True:
        rows = [rng.randrange(1, 1 << n) for _ in range(n)]
        if len(rref(rows)) == n:
            return rows


def apply_linear(rows: list[int], v: int) -> int:
    """Image of v under the linear map whose rows act by dot products."""
    out = 0
    for i, row in enumerate(rows):
        out |= dot(row, v) << i
    return out
