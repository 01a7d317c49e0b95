"""Vectorial functions F_2^m -> F_2^m: permutation and differential analyses.

Covers APN / vanishing-flat machinery, vectorial linear structures,
subspaces with vanishing second-order derivatives, and the P1/P2
permutation properties used to control M-subspaces of x.pi(y)+h(y).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import gf2
from .boolfun import (
    BooleanFunction,
    from_anf,
    parse_anf,
    to_anf,
    _linear_structures,
    _parity_array,
)
from .gf2 import Subspace, orthogonal_complement, span


def _check_m(m: int) -> None:
    if not 1 <= m <= gf2.MAX_DIM:
        raise ValueError(f"m must be in 1..{gf2.MAX_DIM}, got {m}")


class VectorialFunction:
    """A map F_2^m -> F_2^m stored as a value table."""

    __slots__ = ("m", "table")

    def __init__(self, m: int, table) -> None:
        _check_m(m)
        t = np.asarray(table, dtype=np.int64)
        if t.shape != (1 << m,):
            raise ValueError(f"table length must be 2^{m}")
        if t.min() < 0 or t.max() >> m:
            raise ValueError("table entries out of range")
        self.m = m
        self.table = t.copy()
        self.table.flags.writeable = False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VectorialFunction)
            and self.m == other.m
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash((self.m, self.table.tobytes()))

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __repr__(self) -> str:
        return f"VectorialFunction(m={self.m})"


def identity_map(m: int) -> VectorialFunction:
    return VectorialFunction(m, np.arange(1 << m))


def from_coordinates(coords: list[BooleanFunction]) -> VectorialFunction:
    m = len(coords)
    if any(c.n != m for c in coords):
        raise ValueError("coordinate functions must all be on m variables")
    table = np.zeros(1 << m, dtype=np.int64)
    for j, c in enumerate(coords):
        table |= c.table.astype(np.int64) << j
    return VectorialFunction(m, table)


def coordinates(F: VectorialFunction) -> list[BooleanFunction]:
    return [
        BooleanFunction(F.m, ((F.table >> j) & 1).astype(np.uint8)) for j in range(F.m)
    ]


def component(F: VectorialFunction, b: int) -> BooleanFunction:
    """The component function x -> b.F(x)."""
    return BooleanFunction(F.m, _parity_array(F.table & b))


def algebraic_degree_vf(F: VectorialFunction) -> int:
    return max(to_anf(c).degree for c in coordinates(F))


def is_permutation(F: VectorialFunction) -> bool:
    return bool(np.array_equal(np.sort(F.table), np.arange(1 << F.m)))


def derivative_vf(F: VectorialFunction, a: int) -> np.ndarray:
    idx = np.arange(1 << F.m)
    return F.table ^ F.table[idx ^ a]


# uint64 words per temporary of the pair tests (128 KiB)
_PAIR_CHUNK = 1 << 14


def _packed_derivatives(table: np.ndarray) -> np.ndarray:
    """d[k, a]: word k of the derivative x -> t(x) + t(x + a), 64 points x
    to a uint64 word (one word, high bits zero, when n < 6).  A table with
    several output bits stacks one plane of words per bit, bit 0 first."""
    table = np.asarray(table, dtype=np.int64)
    N = len(table)
    lanes = min(N, 64)
    words = np.arange(N // lanes)
    lane = np.arange(lanes)
    bits = max(1, int(table.max()).bit_length())
    d = np.empty((bits, len(words), N), dtype=np.uint64)
    for j in range(bits):
        plane = ((table >> j) & 1).astype(np.uint8).reshape(len(words), lanes)
        packed = np.zeros((len(words), lanes, 8), dtype=np.uint8)
        # packed[w, l]: word w of x -> t(x + l)
        packed[..., : max(1, lanes // 8)] = np.packbits(
            plane[:, lane[:, None] ^ lane], axis=2, bitorder="little"
        )
        shifts = packed.view("<u8")[..., 0]
        # x + a moves word w to word w + (a >> 6), lane i to lane i + (a & 63)
        for w in words:
            d[j, w] = shifts.take(w ^ words, axis=0).ravel()
    d = d.reshape(-1, N)
    d ^= d[:, :1]
    return d


def vanishing_pair_adjacency(table: np.ndarray) -> list[int]:
    """Bitmask adjacency of the vanishing-pair graph of a table.

    adj[a] has bit b set iff D_a D_b(table) is identically zero, for
    nonzero a != b; adj[0] = 0.  Works for Boolean (0/1) and vectorial
    tables alike: a vectorial graph is the AND of the graphs of its output
    bits.

    D_a D_b t = D_a t + D_b t + D_{a+b} t is symmetric in a, b and a + b,
    so it is tested once per 2-dimensional subspace {0, a, b, a + b}, at
    its representative a < b < a + b: with h the top bit of a, b >= 2^(h+1)
    has bit h clear.  A vanishing test sets the six bits of its three
    pairs.  The derivatives are packed 64 points to a uint64 word, word
    major (`_packed_derivatives`, one plane per output bit), so a test
    XORs three columns d[:, a], d[:, b], d[:, a + b] and asks for zero.
    The first word screens every pair of a chunk; only the pairs it passes
    read the other words, one word row at a time.
    """
    if len(table) > 1 << 14:
        raise ValueError("vanishing-pair graph supported for n <= 14")
    d = _packed_derivatives(table)
    first, rest = d[0], d[1:]
    N = d.shape[1]
    row_words = max(1, N >> 6)
    adj = np.zeros(N * row_words, dtype=np.uint64)
    for h in range(N.bit_length() - 2):
        low = 1 << h
        bs = np.arange(2 * low, N).reshape(-1, 2 * low)[:, :low].ravel()
        first_b = first.take(bs)
        rows = max(1, _PAIR_CHUNK // len(bs))
        for lo in range(low, 2 * low, rows):
            a = np.arange(lo, min(lo + rows, 2 * low))
            c = a[:, None] ^ bs
            hit = np.flatnonzero((first.take(c) ^ first_b) == first.take(a)[:, None])
            if not len(hit):
                continue
            i, j = np.divmod(hit, len(bs))
            va, vb, vc = a.take(i), bs.take(j), c.take(hit)
            diff = np.zeros(len(hit), dtype=np.uint64)
            for row in rest:
                diff |= row.take(va) ^ row.take(vb) ^ row.take(vc)
            keep = diff == 0
            for u, v in itertools.permutations((va[keep], vb[keep], vc[keep]), 2):
                bit = np.uint64(1) << (v & 63).astype(np.uint64)
                np.bitwise_or.at(adj, u * row_words + (v >> 6), bit)
    raw = memoryview(adj).cast("B")
    size = 8 * row_words
    return [int.from_bytes(raw[r * size : (r + 1) * size], "little") for r in range(N)]


def _difference_counts(F: VectorialFunction) -> Iterator[np.ndarray]:
    """For a = 1 .. 2^m - 1 in turn, the number of x with F(x+a)+F(x) = b,
    indexed by b."""
    N = 1 << F.m
    idx = np.arange(N)
    for a in range(1, N):
        yield np.bincount(F.table ^ F.table[idx ^ a], minlength=N)


def is_apn(F: VectorialFunction) -> bool:
    """APN: every derivative equation F(x+a)+F(x)=b has 0 or 2 solutions."""
    return all(counts.max() <= 2 for counts in _difference_counts(F))


def vanishing_flats_count(F: VectorialFunction) -> int:
    """|{ {x1..x4} distinct : sum xi = 0, sum F(xi) = 0 }|.

    Counted per derivative value: each flat is seen once for each of its
    three direction pairings, giving the /3.
    """
    total = 0
    for counts in _difference_counts(F):
        pairs = counts // 2  # unordered {x, x+a} pairs per value
        total += int((pairs * (pairs - 1) // 2).sum())
    if total % 3:
        raise AssertionError(f"flat count {total} is not a multiple of 3")
    return total // 3


def linear_structures_vf(F: VectorialFunction) -> set[int]:
    """All s (including 0) with D_s F constant as a vector."""
    return _linear_structures(F.table)


def vanishing_subspaces_vf(F: VectorialFunction, r: int) -> list[Subspace]:
    """All r-dimensional S with D_a D_b F = 0_m for all a, b in S."""
    if not 1 <= r <= F.m:
        raise ValueError(f"need 1 <= r <= m, got r={r}")
    return vanishing_subspaces(vanishing_pair_adjacency(F.table), r)


def vanishing_subspaces(adj: list[int], r: int) -> list[Subspace]:
    """All r-dimensional S of F_2^n, 2^n = len(adj), whose nonzero elements
    are pairwise adjacent in the graph adj, canonical and sorted by basis."""
    n = len(adj).bit_length() - 1
    out = [span(list(gens), n) for gens in iter_clique_subspaces(adj, r)]
    return sorted(out, key=lambda s: s.basis)


def iter_clique_subspaces(adj: list[int], lo: int, hi: int | None = None):
    """Yield generator tuples of subspaces whose nonzero elements are
    pairwise adjacent in adj (a "clique that is a subspace"); adj has one
    bitmask row per point of the space.

    Generators form the unique increasing tower of the subspace (each new
    generator is the minimum of its coset), so every subspace is produced
    exactly once.  The tower keeps its generators' top-bit mask, not its
    span: v is the minimum of its coset iff v is 0 at the top bit of each
    nonzero u in the span, and those are the generators' top bits (each is
    0 at the earlier ones'), so one AND passes the candidates, in the order,
    that a test on every element would.  Yields dimensions lo..hi, or lo
    alone when hi is None; every line is a clique, so lo = 1 yields them all.
    """
    if hi is None:
        hi = lo

    def extend(pivots: int, gens: tuple[int, ...], cand: int):
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
            if not v & pivots:
                yield from extend(
                    pivots | 1 << (v.bit_length() - 1),
                    gens + (v,),
                    cand & adj[v] & ~((low << 1) - 1),
                )

    yield from extend(0, (), (1 << len(adj)) - 2)


def has_p1(F: VectorialFunction) -> tuple[bool, Subspace | None]:
    """P1: D_v D_w F != 0_m for every 2-dimensional span <v, w>.

    Returns (True, None) or (False, witness 2-space).
    """
    adj = vanishing_pair_adjacency(F.table)
    for gens in iter_clique_subspaces(adj, 2):
        return False, span(list(gens), F.m)
    return True, None


@dataclass(frozen=True)
class P2SubspaceRecord:
    S: Subspace
    k: int
    dim_US: int
    ok: bool


@dataclass(frozen=True)
class P2Report:
    fully_satisfies: bool
    per_subspace: tuple[P2SubspaceRecord, ...]
    max_vanishing_dim: int


def check_p2(F: VectorialFunction) -> P2Report:
    """Check the P2 property of a nonlinear permutation.

    For every subspace S with vanishing second derivatives and
    1 <= dim(S) <= m-2, computes U_S = {u : u . D_a F(y) = 0 for all
    a in S\\{0} and all y}, from a basis of S as D_{a+b} F(y) = D_a F(y) +
    D_b F(y + a), and requires dim(U_S) < k = m - dim(S).
    A vanishing S of dimension m-1 fails the report outright.
    """
    m = F.m
    if not is_permutation(F):
        raise ValueError("P2 is defined for permutations")
    if algebraic_degree_vf(F) <= 1:
        raise ValueError("P2 is defined for nonlinear permutations")
    adj = vanishing_pair_adjacency(F.table)
    records = []
    top = 0
    ok_all = True
    for gens in iter_clique_subspaces(adj, 1, m - 1):
        S = span(list(gens), m)
        top = max(top, S.dim)
        if S.dim > m - 2:
            ok_all = False  # a vanishing (m-1)-space already forces a second M-subspace
            continue
        image = [int(v) for a in S.basis for v in set(derivative_vf(F, a).tolist())]
        US = orthogonal_complement(span(image, m))
        k = m - S.dim
        ok = US.dim < k
        records.append(P2SubspaceRecord(S, k, US.dim, ok))
        ok_all = ok_all and ok
    return P2Report(ok_all, tuple(records), top)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_VF_RE = re.compile(r"^vf:m=(\d+):([0-9a-fA-F ]+)$")


def to_vf_text(F: VectorialFunction) -> str:
    return f"vf:m={F.m}:" + " ".join(f"{v:x}" for v in F.table)


def from_vf_text(text: str) -> VectorialFunction:
    m = _VF_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a vectorial-function literal: {text[:40]!r}")
    deg = int(m.group(1))
    _check_m(deg)  # before the 2^m count below
    vals = [int(v, 16) for v in m.group(2).split()]
    if len(vals) != 1 << deg:
        raise ValueError(f"expected {1 << deg} values, got {len(vals)}")
    return VectorialFunction(deg, np.array(vals, dtype=np.int64))


def from_coordinate_anfs(text: str) -> VectorialFunction:
    """Parse m newline-separated coordinate ANFs (variables x/y/z 1..m)."""
    rows = [line.strip() for line in text.splitlines() if line.strip()]
    m = len(rows)
    return from_coordinates([from_anf(parse_anf(r, m)) for r in rows])
