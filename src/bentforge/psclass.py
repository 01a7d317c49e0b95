"""Partial spread class membership: Algorithm-style PS test, the PS# sweep
over shifts and affine offsets, and the Desarguesian PS_ap construction.

The PS candidate filter is subspace-first: instead of hunting cliques among
support vertices, every n/2-dimensional subspace U is tested for f = 1 on
U \\ {0} (provably the same set of candidates, since a clique that forms a
vector space is exactly such a subspace).  Subspaces are the rows of one
index (`_row_index`) that keeps each one's RREF basis and pivot set, not
its points: a coset's points are its minimum, which depends only on the
pivot set, XOR the span of the basis.  The full PS# sweep additionally
moves to the dual side: U is a candidate for g(x) = f(x+b)+a.x+c exactly
when f*(t) + t.b is near-constant on the coset a + U-perp.  For a coset
r + W with basis w_1..w_m that sum is (-1)^(b.r) S(b.w_1, ..., b.w_m), S
the Walsh-Hadamard transform of f* restricted to the coset, so one pass per
sweep keeps the few (W, coset, u, S) cells with |S(u)| >= 2^m - 2, and each
shift b only selects the cells whose u matches it.  The pass never builds
the 2^m-bit coset words of f* whole, only their two halves, split on the
first basis vector.  In a pivot set the rows run over the free-entry
digits d_i of the basis vectors, every coset minimum is 0 on the pivots,
and entry c of block k is P(c) + minimum_(k + sum c_i d_i), P(c) the span
of the pivot units.  So a 2^m x 2^m gather of f* per set, merged over
basis vectors 1 .. m-1, gives both halves of every word, the second read
d_0 blocks away, with no per-point index; one cached schedule does this
for all pivot sets at once.  A word within distance 1 of affine has an
exactly affine half, so the pass joins each affine half with the other
halves in reach and keeps the pairs whose spectrum, the sum and
difference of the halves' spectra, reaches 2^m - 2.  u and b.r
are linear in b, so the pass tabulates them, packed into one byte per
cell, for the n unit vectors.
The sweep takes aligned blocks of up to 32 shifts: one comparison on the
block's XORed-up table, in place, gives all its hits, and one count of
(shift, a, subclass) keys over the hits' coset points, which the pass
stores with each cell, gives all its viable groups, one clique-stage row
per hit.
The same count prunes them (Knuth's fewest-candidates rule at depth 0):
the cosets of a group that can pass the coverage test below cover all of
Z, the points where f* + b.x + f(b) differs from the subclass tag, so the
group shares a hit with the point of Z that the fewest hits hold.
The disjointness search then runs on the hit subspaces W, not on their
complements: two n/2-subspaces W1, W2 meet only in 0 iff W1 + W2 is the
whole space iff (W1 + W2)-perp, the intersection of W1-perp and W2-perp, is
0.  A partial spread of s subspaces covers s (2^m - 1) nonzero points, so
first a coverage test ORs the packed point sets of each group's subspaces
and drops every group whose union is smaller; in a sweep few groups pass.
For those, each shift gets one disjointness matrix over the rows of its
groups; stacked, they let one batched matrix product apply the
degree bound to every group of the block, and only the few groups that
pass it are searched, each on its sub-block.  The single-function PS test
is the same stage with one group.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import gf2
from .boolfun import BooleanFunction, _parity_array, _wht_butterfly, dual, ea_image, is_bent
from .gf2 import Subspace, orthogonal_complement, span

# Unused here, kept while perfbench/tracer.py looks it up (ROADMAP item 5a).
enumerate_subspaces = gf2.enumerate_subspaces

# Prefix rows the cell pass joins at a time (`_coset_cells`).  At n = 8
# its traced peak is 1.4 MiB with 2^10, 1.9 MiB with 2^11 and 2.9 MiB with
# 2^12, at about the same speed.
_CELL_BUDGET = 1 << 10


@dataclass(frozen=True)
class PartialSpreadWitness:
    subclass: str  # "PS_plus" | "PS_minus"
    subspaces: tuple[Subspace, ...]

    def reconstruct(self) -> BooleanFunction:
        """Indicator of the union of the subspaces, with 0 for PS_plus only."""
        n = self.subspaces[0].n
        t = np.zeros(1 << n, dtype=np.uint8)
        for U in self.subspaces:
            t[U.elements()] = 1
        t[0] = self.subclass == "PS_plus"
        return BooleanFunction(n, t)

    def as_dict(self) -> dict:
        return {
            "subclass": self.subclass,
            "subspaces": [U.rows() for U in self.subspaces],
        }


@dataclass(frozen=True)
class PsSharpWitness:
    shift: int
    affine: int
    constant: int
    inner: PartialSpreadWitness

    def as_dict(self) -> dict:
        return {
            "shift": self.shift,
            "affine": self.affine,
            "constant": self.constant,
            **self.inner.as_dict(),
        }


# ---------------------------------------------------------------------------
# per-dimension tables
# ---------------------------------------------------------------------------

def _span_rows(vectors: np.ndarray) -> np.ndarray:
    """Span of each row of m vectors in basis-coordinate order: entry k is
    the XOR of the vectors j with bit j of k set.  Built one entry at a time
    for all rows, so it is the transposed view of a (2^m, rows) array."""
    rows, m = vectors.shape
    out = np.zeros((1 << m, rows), dtype=vectors.dtype)
    for j in range(m):
        out[1 << j : 2 << j] = out[: 1 << j] ^ vectors[:, j]
    return out.T


@functools.cache
def _pivot_sets(n: int) -> list[tuple]:
    """(pivots, minima, free, corners) per pivot set of the n/2-subspaces
    in RREF, descending-lexicographic as in `enumerate_subspaces`; the one
    place the row order of the subspace index is fixed.  Built once per n.

    pivots descend.  minima lists the points that are zero on every pivot,
    ascending, so minima[k] is the XOR of the off-pivot unit vectors that
    the bits of k pick, bit j the j-th lowest.  The free entries of pivot
    p are the off-pivot positions below it, the lowest free[i] units: basis
    vector i is 1 << pivots[i] | minima[d_i] for its digit d_i <
    2^free[i].  The set's rows are the digit tuples (d_0, .., d_{m-1}),
    the last varying fastest.  corners[c] is the span of the pivot units,
    pivot i picked by bit i of c.
    """
    sets = []
    for pivots in itertools.combinations(range(n - 1, -1, -1), n // 2):
        on_pivots = np.arange(1 << n) & sum(1 << p for p in pivots)
        minima = np.flatnonzero(on_pivots == 0).astype(np.uint8)
        free = [p - sum(q < p for q in pivots) for p in pivots]
        corners = _span_rows(np.array([[1 << p for p in pivots]]))[0]
        sets.append((pivots, minima, free, corners))
    return sets


@functools.cache
def _row_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(basis, pivot_set, minima): the one subspace index, one row per
    n/2-subspace in `_pivot_sets` order, exactly `enumerate_subspaces`
    order.  Built once per n.

    basis[i] holds row i's m basis vectors in RREF, pivots descending;
    pivot_set[i] is its pivot set, and minima stacks each set's coset
    minima.  The cosets of row i are its blocks: block k is the coset with
    the k-th smallest minimum, since the point of a coset that is zero on
    every pivot is its minimum.  So entry c of block k is
    minima[pivot_set[i], k] XOR entry c of `_span_rows(basis[i])`
    (`_coset_points`).  uint8 needs n <= 8.
    """
    _check_sweep_size(n)
    m = n // 2
    sets = _pivot_sets(n)
    sizes = [1 << sum(free) for _, _, free, _ in sets]
    basis = np.empty((sum(sizes), m), dtype=np.uint8)
    start = 0
    for (pivots, minima, free, _), size in zip(sets, sizes):
        digits = np.indices([1 << f for f in free], dtype=np.uint8).reshape(m, size)
        np.bitwise_or(
            minima[digits.T],
            np.array([1 << p for p in pivots], dtype=np.uint8),
            out=basis[start : start + size],
        )
        start += size
    pivot_set = np.repeat(np.arange(len(sets), dtype=np.uint8), sizes)
    return basis, pivot_set, np.array([minima for _, minima, _, _ in sets])


@functools.cache
def _merge_schedule(n: int):
    """How `_half_words` builds the half-words of all pivot sets at once,
    (gather, moved, stages, order, first, step, chunks).  Built once per n
    from `_pivot_sets` and the index's minima; 0.14 MB at n = 8.

    The pass's state before stage i is (2^(m-i), prefix rows, 2^(m+1))
    uint8: a prefix row is a pivot set with its digits (d_1, .., d_(i-1)),
    axis 0 runs over the unmerged (c_i, .., c_(m-1)), and entry h 2^m + k
    holds half h at block k.  The first state is f*[gather], one prefix row
    per set in `_pivot_sets` order: gather[c', s, h 2^m + k] is
    corners[h + 2c'] + minima[k] of set s.  Stage i (i = 1 .. m-1) is
    (src, groups, rows): src (uint16) lists the state's rows sorted stably
    by free[i] of their set, and a group (f, a, b) is src[a:b], the rows
    with free[i] = f.  Each of those becomes 2^f rows, one per digit d_i,
    the digit fastest, read through moved[d, h 2^m + k] = h 2^m + (k + d);
    the new state has `rows` rows, in group order.  The last state's rows
    are the prefix rows (d_1, .., d_(m-1)) of every set.  order (uint16)
    lists them by top pivot, descending, and first (uint32) and step
    (uint16), in that order, give each one's subspace-index rows
    first + d_0 step; d_0 step is below the set's row count, at most 2^16
    at n = 8.  chunks (fan, a, b) cut order into spans of at most
    _CELL_BUDGET rows of one top pivot, fan = 2^free[0].
    """
    m = n // 2
    size = 1 << m
    sets = _pivot_sets(n)
    free = np.array([free for _, _, free, _ in sets])
    corners = np.array([corners for _, _, _, corners in sets], dtype=np.uint8)
    gather = corners[:, :, None] ^ _row_index(n)[2][:, None, :]
    gather = np.ascontiguousarray(gather.reshape(len(sets), size // 2, 2 * size).swapaxes(0, 1))
    moved = np.bitwise_xor.outer(np.arange(size), np.arange(2 * size))
    owner = np.arange(len(sets))  # each prefix row's pivot set
    prefix = np.zeros(len(sets), dtype=np.intp)  # its digits, the last fastest
    stages = []
    for i in range(1, m):
        f = free[owner, i]
        src = np.argsort(f, kind="stable")
        counts = np.bincount(f)
        ends = np.cumsum(counts)
        groups = [(g, int(b - c), int(b)) for g, (c, b) in enumerate(zip(counts, ends)) if c]
        f, fan = f[src], 1 << f[src]
        owner = np.repeat(owner[src], fan)
        digit = np.arange(len(owner)) - np.repeat(np.cumsum(fan) - fan, fan)
        prefix = np.repeat(prefix[src] << f, fan) + digit
        stages.append((src.astype(np.uint16), groups, len(owner)))
    top = free[owner, 0]
    order = np.argsort(-top, kind="stable")
    owner, prefix, top = owner[order], prefix[order], top[order]
    sizes = 1 << free.sum(axis=1)
    first = ((np.cumsum(sizes) - sizes)[owner] + prefix).astype(np.uint32)
    step = (sizes[owner] >> top).astype(np.uint16)
    chunks, a = [], 0
    for t in range(m, -1, -1):
        b = a + int(np.count_nonzero(top == t))
        chunks += [(1 << t, lo, min(lo + _CELL_BUDGET, b)) for lo in range(a, b, _CELL_BUDGET)]
        a = b
    return gather, moved, stages, order.astype(np.uint16), first, step, chunks


def _coset_points(n: int, rows: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The points of coset block blocks[i] of row rows[i] of the subspace
    index, in basis-coordinate order, as (len(rows), 2^(n/2)) uint8."""
    basis, pivot_set, minima = _row_index(n)
    first = minima[pivot_set.take(rows), blocks]
    return np.ascontiguousarray(first[:, None] ^ _span_rows(basis.take(rows, axis=0)))


def _midspace(n: int, i: int) -> Subspace:
    """The i-th n/2-dimensional subspace, spanned by its index row's basis."""
    return span([int(v) for v in _row_index(n)[0][i]], n)


# ---------------------------------------------------------------------------
# single-function PS test
# ---------------------------------------------------------------------------

def ps_candidates(f: BooleanFunction) -> list[int]:
    """Indices of the n/2-subspaces U with f = 1 on U \\ {0}, ascending.

    Spans every index row's basis in Gray-code order, one nonzero element
    of each U per step, so no (rows, 2^(n/2)) table of elements is made.
    """
    basis = _row_index(f.n)[0]
    inside = np.ones(len(basis), dtype=bool)
    point = np.zeros(len(basis), dtype=np.uint8)
    for k in range(1, 1 << (f.n // 2)):
        point ^= basis[:, (k & -k).bit_length() - 1]
        inside &= f.table[point] != 0
    return np.flatnonzero(inside).tolist()


def _disjoint_clique(disjoint: np.ndarray, s: int) -> list[int] | None:
    """Branch-and-bound search for s pairwise-disjoint rows of one group;
    `disjoint` is the group's sub-block of its disjointness matrix, rows in
    group order.  Returns the first clique in lexicographic order of
    positions, or None.  `_bounded_cliques` applies the coverage test and
    the degree bound first, which end almost every sweep search before
    this.
    """
    nbr = [int.from_bytes(r, "little") for r in np.packbits(disjoint, axis=1, bitorder="little")]

    def grow(chosen: list[int], allowed: int) -> list[int] | None:
        if len(chosen) == s:
            return chosen
        if len(chosen) + allowed.bit_count() < s:
            return None
        c = allowed
        while c:
            low = c & -c
            i = low.bit_length() - 1
            c ^= low
            got = grow(chosen + [i], c & nbr[i])
            if got is not None:
                return got
        return None

    return grow([], (1 << len(disjoint)) - 1)


@functools.cache
def _point_words(n: int) -> np.ndarray:
    """Row p is the one-point set {p} of F_2^n packed into 64-bit words, bit
    p set (one word below n = 6); 8 kB at n = 8.  Built once per n."""
    bits = np.eye(1 << n, max(1 << n, 64), dtype=bool)
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def _coverage(points: np.ndarray, pairs, groups: int, n: int) -> np.ndarray:
    """The number of distinct points of F_2^n in each of the groups, (g, i)
    in `pairs` putting the points of row i of `points` in group g.

    Each row's points are packed into 64-bit words, one bit per point, by
    ORing their one-point words (`_point_words`).  The pairs, sorted by
    group, gather their rows' words, one OR per group reduces them, and the
    union's size is its popcount.
    """
    point_words = _point_words(n)
    words = np.empty((len(points), point_words.shape[1]), dtype=np.uint64)
    # the gather is (points per row, rows, words): 1,024 rows at a time keep
    # it under 0.5 MiB at n = 8
    for lo in range(0, len(points), 1 << 10):
        rows = slice(lo, lo + (1 << 10))
        np.bitwise_or.reduce(point_words.take(points[rows].T, axis=0), axis=0, out=words[rows])
    group, member = pairs
    # a stable sort of 8- or 16-bit keys is a radix sort
    order = np.argsort(group.astype(np.min_scalar_type(groups)), kind="stable")
    sizes = np.bincount(group, minlength=groups)
    union = np.zeros((groups, words.shape[1]), dtype=np.uint64)
    filled = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[filled]
    union[filled] = np.bitwise_or.reduceat(words.take(member[order], axis=0), starts, axis=0)
    return np.bitwise_count(union).sum(axis=1, dtype=np.intp)


def _used(indices: np.ndarray, count: int):
    """Of `count` rows, the mask of those that `indices` names, and each
    index's position among them: the rows some groups use, and their
    pairs re-indexed to those rows."""
    used = np.zeros(count, dtype=bool)
    used[indices] = True
    return used, (np.cumsum(used) - 1)[indices]


def _bounded_cliques(rows: np.ndarray, owner: np.ndarray, pairs, need: np.ndarray, n: int):
    """Clique stage: group g wants need[g] pairwise-disjoint subspaces among
    the subspace-index rows rows[i], (g, i) in the index arrays `pairs`.
    Row i is of batch owner[i] (non-decreasing; in a sweep, shifts), and
    groups come in batch order, each with distinct rows of one batch; a
    batch may list a subspace twice (a sweep at n <= 4 does).

    First the coverage test: s pairwise-disjoint n/2-subspaces cover s
    (2^(n/2) - 1) nonzero points, so a group whose subspaces cover fewer
    (`_coverage`) holds no clique; in a sweep a handful pass, and rows and
    pairs are cut down to theirs.  The batches left are those of the kept
    rows, each starting where its owner first appears, and they are
    numbered in order.  On those, per batch, the Gram matrix of the 0/1
    membership rows of the nonzero elements of each row's span counts the
    shared points (exactly, in float32); a subspace meets itself, so the
    diagonal of the disjointness matrix is clear.  The matrices are
    stacked, padded with empty rows and group slots up to the largest
    batch, so one batched product gives every row's neighbour count in
    every group.  A row of an s-clique has s - 1 neighbours in its group,
    so a group needs s such rows.  For each group that passes both tests,
    in order, yields (g, the first clique as a list of rows in index order,
    or None).
    """
    nonzero = _span_rows(_row_index(n)[0].take(rows, axis=0))[:, 1:]
    covers = _coverage(nonzero, pairs, len(need), n) >= need * ((1 << n // 2) - 1)
    kept = np.flatnonzero(covers)
    if not len(kept):
        return
    group, member = pairs
    paired = covers[group]
    used, member = _used(member[paired], len(rows))
    group = (np.cumsum(covers) - 1)[group[paired]]
    rows, nonzero, owner, need = rows[used], nonzero[used], owner[used], need[kept]
    local = np.arange(len(rows)) - np.searchsorted(owner, owner)
    starts = local == 0
    owner = np.cumsum(starts) - 1  # the batches left, numbered in order
    first = np.flatnonzero(starts)  # each one's first row
    batch = np.zeros(len(kept), dtype=np.intp)
    batch[group] = owner[member]
    spots = np.arange(len(need)) - np.searchsorted(batch, batch)
    shape = (len(first), int(spots.max()) + 1, int(local.max()) + 1)
    members = np.zeros((shape[0] * shape[2], 1 << n), dtype=np.float32)
    members[(owner * shape[2] + local)[:, None], nonzero] = 1
    members = members.reshape(shape[0], shape[2], 1 << n)
    disjoint = members @ members.transpose(0, 2, 1) == 0
    groups = np.zeros(shape, dtype=np.float32)
    groups[batch[group], spots[group], local[member]] = 1
    mine = groups[batch, spots]
    degree = (groups @ disjoint.astype(np.float32))[batch, spots]
    enough = np.count_nonzero((degree >= need[:, None] - 1) & (mine > 0), axis=1)
    for g in np.flatnonzero(enough >= need):
        c = np.flatnonzero(mine[g])
        clique = _disjoint_clique(disjoint[batch[g]][np.ix_(c, c)], int(need[g]))
        yield int(kept[g]), None if clique is None else rows[first[batch[g]] + c[clique]].tolist()


def is_partial_spread(f: BooleanFunction) -> PartialSpreadWitness | None:
    """Membership in PS+ (f(0)=1) or PS- (f(0)=0) with an explicit witness.

    Subspace-first refinement of the clique formulation: candidates are the
    n/2-subspaces contained in the support, and a partial spread is a
    pairwise-trivially-intersecting family of s of them whose union is the
    support, 0 included exactly for PS+: s = 2^(n/2-1) + tag subspaces and
    weight s (2^(n/2) - 1) + tag, tag = f(0), as in the sweep.
    """
    if not is_bent(f):
        raise ValueError("PS membership is defined for bent functions")
    n = f.n
    _check_sweep_size(n)
    tag = f(0)
    s = (1 << (n // 2 - 1)) + tag
    if f.weight() != s * ((1 << n // 2) - 1) + tag:
        return None
    rows = np.array(ps_candidates(f), dtype=np.intp)
    owner = np.zeros(len(rows), dtype=np.intp)  # one batch, one group
    pairs = owner, np.arange(len(rows))
    clique = dict(_bounded_cliques(rows, owner, pairs, np.array([s]), n)).get(0)
    if clique is None:
        return None
    subclass = "PS_plus" if tag else "PS_minus"
    witness = PartialSpreadWitness(subclass, tuple(_midspace(n, r) for r in clique))
    if witness.reconstruct() != f:
        raise AssertionError(f"{subclass} witness does not rebuild f")
    return witness


# ---------------------------------------------------------------------------
# PS# sweep
# ---------------------------------------------------------------------------

def _witness_holds(f: BooleanFunction, w: PsSharpWitness) -> bool:
    return w.inner.reconstruct() == ea_image(f, None, w.shift, w.affine, w.constant)


@functools.cache
def _coset_wht(m: int) -> np.ndarray:
    """Walsh-Hadamard transforms of every 2^m-bit word, as int8; the cell
    pass reads them for the half-words, m = n/2 - 1.

    Row w holds S(u) = sum_j (-1)^(w_j + u.j) for u = 0 .. 2^m - 1, with w_j
    bit j of w.  Some |S(u)| >= 2^m - 2 exactly when w is within Hamming
    distance 1 of an affine function, and |S(u)| = 2^m when w is affine.
    The butterfly's intermediate values stay within int8 for m <= 6.
    """
    size = 1 << m
    # the words' bits from their bytes, so no wide per-bit grid is made
    words = np.arange(1 << size, dtype=f"<u{max(size // 8, 1)}")
    bits = words.view(np.uint8).reshape(1 << size, -1)
    bits = np.unpackbits(bits, axis=1, count=size, bitorder="little")
    return _wht_butterfly(1 - 2 * bits.astype(np.int8))


@dataclass(frozen=True)
class _CosetCells:
    """The (subspace, coset, u, S) cells with |S(u)| >= 2^m - 2, sorted by
    (subspace index, coset block, u); one entry per cell in each array.

    u_b = (b.w_1, ..., b.w_m) and b.r are linear in b, so they are
    tabulated for the n unit vectors b = e_j (one row per j), packed as
    u_b | b.r << m, and XORed over the set bits of each shift.  points
    holds each cell's coset, so the sweep reads a hit's points by its cell.
    """

    w_idx: np.ndarray  # int32
    u: np.ndarray  # uint8
    spectrum: np.ndarray  # S_{W,r}(u), int8
    unit: np.ndarray  # (n, cells): bit k is e_j.w_k, bit m is e_j.r, r the block's first point
    points: np.ndarray  # (cells, 2^m) uint8: the coset in basis-coordinate order, r first

    @functools.cached_property
    def hit_rule(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mask, want, plus) per cell, once per sweep: a cell hits at a shift
        when its row of the packed table, ANDed with mask, equals want, and
        plus (PS+) marks |S| = 2^m.  See `_block_hits`."""
        size = self.points.shape[1]
        m = size.bit_length() - 1
        s = self.spectrum
        mask = (size - 1) | (s != 0).astype(np.uint8) << m
        want = (self.u | ((s == -size) | (s == size - 2)).astype(np.uint8) << m) & mask
        return mask, want, (np.abs(s) == size).astype(np.uint8)


def _half_words(dual_table: np.ndarray, n: int):
    """The two half-words of f* on every coset, as (fan, first, step, words)
    per span of at most _CELL_BUDGET prefix rows of one top pivot.

    Half h of a coset word holds its entries with c_0 = h, entry h + 2c' at
    bit c'.  In a pivot set, entry c of block k is
    P(c) + minima[k + sum_i c_i d_i] (`_pivot_sets`), P(c) the span of the
    pivot units.  So the halves start as the gather f*[P(c) + minima[k]]
    over (c, k), split on c_0, and stage i merges basis vector i for
    i = 1 .. m-1: it ORs the c_i = 0 part with the c_i = 1 part, read at
    block k + d_i for each digit d_i, shifted left by 2^(i-1), and appends
    d_i to the row index.  All pivot sets go at once, on one schedule
    (`_merge_schedule`): one gather, then per stage one gather of the rows
    and, per distinct free[i], one XOR-gather of the blocks (at most 5 at
    n = 8).  Vector 0 is left out: for the prefix row (d_1, .., d_{m-1}) at
    position p of a span, the word of row (d_0, d_1, .., d_{m-1}) at block
    k has half 0 words[p, 0, k] and half 1 words[p, 1, k + d_0].  free[0]
    depends on the top pivot alone, so d_0 < fan = 2^free[0] in the span,
    and k + d_0 stays in k's aligned window of fan blocks.  That row is the
    subspace-index row first[p] + d_0 step[p].  Leaving the vector with the
    most digits for last keeps the fewest prefix rows (13,377 at n = 8).
    """
    gather, moved, stages, order, first, step, chunks = _merge_schedule(n)
    state = dual_table.take(gather)
    for i, (src, groups, rows) in enumerate(stages):
        low = state[0::2].take(src, axis=1)
        high = state[1::2].take(src, axis=1) << (1 << i)
        state = np.empty((len(low), rows, moved.shape[1]), dtype=np.uint8)
        at = 0
        for f, a, b in groups:
            part = state[:, at : at + ((b - a) << f)].reshape(len(low), b - a, 1 << f, -1)
            np.bitwise_or(high[:, a:b].take(moved[: 1 << f], axis=2), low[:, a:b, None], out=part)
            at += (b - a) << f
    words = state.reshape(-1, 2, len(moved))
    for fan, a, b in chunks:
        yield fan, first[a:b], step[a:b], words.take(order[a:b], axis=0)


def _coset_cells(dual_table: np.ndarray, n: int) -> _CosetCells:
    """The cells, joined from the half-words of f* (`_half_words`).

    A word within Hamming distance 1 of an affine word has its wrong bit in
    one half, so the other half is exactly affine.  With S_0 and S_1 the
    halves' spectra, S(u_0 + 2u') = S_0(u') + (-1)^(u_0) S_1(u'), so if half
    h is affine at u', |S(u')| = 2^(m-1), the word reaches |S| >= 2^m - 2
    only if |S_(1-h)(u')| >= 2^(m-1) - 2.  One 16-bit code per 2^(m-1)-bit
    word classifies each half-word once: bit u' is set when
    |S(u')| >= 2^(m-1) - 2, and bit 8 when the word is affine.  An affine
    half has only bit u' of the low bits at m >= 3; at m <= 2 the bound is
    <= 0, so it has all of them, as has every half-word.  Every affine half
    is tested against the other half at each of the fan blocks of its
    window: the pair passes when the partner's code, ANDed with the affine
    half's low bits (and bit 8 for half 1), equals those low bits.  So a
    pair found from half 1 is kept only if half 0 is not affine, since half
    0 finds it otherwise, and at m <= 2, where every half is affine, every
    word is a candidate, once: the rule is exact for every m.  The join
    keeps only each candidate's two half-words, row and block; the spectra,
    the |S| test and the cell keys are computed once, over all candidates,
    after the join (at n = 8 about as many candidates as cells).
    """
    m = n // 2
    size = 1 << m
    spectra = _coset_wht(m - 1)
    mags = np.abs(spectra)
    near = (mags >= size // 2 - 2) << np.arange(size // 2, dtype=np.uint16)
    affine = (mags.max(axis=1) == size // 2).astype(np.uint16)
    code = near.sum(axis=1, dtype=np.uint16) | affine << 8
    joined = []  # per span: (half-0 word, half-1 word, row, block) per pair
    for fan, first, step, half in _half_words(dual_table, n):
        codes = code.take(half, mode="clip")  # every word is in range; skips the check
        # flat positions (p, h, k) of the affine halves (multi-axis nonzero
        # is slow); the other half at (p, k) is at position XOR 2^m, in a
        # window of fan half-words
        at = np.flatnonzero(codes >= 1 << 8)
        side = (at >> m) & 1
        want = codes.take(at) & 0xFF
        test = want | side.astype(np.uint16) << 8
        window = codes.reshape(-1, fan).take((at ^ size) // fan, axis=0)
        e = np.flatnonzero((window & test[:, None]) == want[:, None])
        e, j = e >> (fan.bit_length() - 1), e & (fan - 1)
        at, side = at[e], side[e]
        p, k = at >> (m + 1), at & (size - 1)
        other = (k & -fan) | j
        digit = k ^ other
        block = np.where(side, other, k)
        row = first[p] + digit * step[p]
        joined.append((half[p, 0, block], half[p, 1, block ^ digit], row, block))
    # each temporary is freed once read, which keeps the pass's traced
    # peak at 1.4 MiB at n = 8 (2.3 MiB if they live until the points are
    # built)
    half_0, half_1, row, block = (np.concatenate(x) for x in zip(*joined))
    del joined
    spec_0, spec_1 = spectra.take(half_0, axis=0), spectra.take(half_1, axis=0)
    spec = np.stack([spec_0 + spec_1, spec_0 - spec_1], axis=2).reshape(-1, size)
    del half_0, half_1, spec_0, spec_1
    cell, u = np.divmod(np.flatnonzero(np.abs(spec) >= size - 2), size)
    keys = (row[cell] * size + block[cell]) * size + u
    order = np.argsort(keys)
    spectrum = spec[cell, u].take(order)
    del spec, row, block, cell, u
    w_idx, block = np.divmod(keys[order], size * size)
    block, u = np.divmod(block, size)
    points = _coset_points(n, w_idx, block)
    # byte j of spread[v] is bit j of v, so ORing the spread words of r and
    # of each w_k, shifted to bit m and bit k, transposes them into unit
    spread = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    spread = spread.view("<u8")[:, 0]
    basis = _row_index(n)[0].take(w_idx, axis=0)
    unit = spread.take(points[:, 0]) << m
    for k in range(m):
        unit |= spread.take(basis[:, k]) << k
    return _CosetCells(
        w_idx=w_idx.astype(np.int32),
        u=u.astype(np.uint8),
        spectrum=spectrum,
        unit=np.ascontiguousarray(unit.astype("<u8", copy=False)[:, None].view(np.uint8)[:, :n].T),
        points=points,
    )


def _unit_xor(table: np.ndarray, b: int) -> np.ndarray:
    """XOR of the rows j of a per-unit-vector table over the set bits of b."""
    return np.bitwise_xor.reduce(table[[j for j in range(len(table)) if b >> j & 1]], axis=0)


# Shifts per sweep block at most.  A block's tables grow with it: at n = 8
# an exhaustive sweep's traced peak is 1.4 MiB with 16, 1.8 MiB with 32
# (4-6% faster than 16) and 6.2 MiB with one block of 128; 64 was slower
# than 32.
_BLOCK = 32


def _shift_blocks(n: int):
    """Aligned blocks (lo, hi) of the shifts 0 .. 2^n - 1: the block at lo
    holds lo & -lo shifts, at most _BLOCK, and one at lo = 0.  So hi - lo
    is a power of two dividing lo, and shift lo + d is lo ^ d, which
    `_block_hits` needs to XOR its table up from lo.  The leading blocks
    stay small for early witnesses: on one ps_ap(4, h), shifts 0 .. 7 keep
    544 groups over 1,496 rows after the coverage test, and one block of 8
    there takes the traced peak from 1.3 to 10.4 MiB.  At n = 8 there are
    13 blocks: 0, 1, 2-3, 4-7, 8-15, 16-31, then seven of 32 shifts."""
    lo = 0
    while lo < 1 << n:
        hi = lo + min(lo & -lo or 1, _BLOCK)
        yield lo, hi
        lo = hi


def _block_hits(f: BooleanFunction, cells: _CosetCells, lo: int, hi: int):
    """Candidate detection for every a at the shifts b = lo + d of a block.

    A hit is a cell with u = u_b whose coset carries the target count of
    ones of phi = f* + b.x, (2^m - (-1)^(b.r) S(u)) / 2: 2^m - 1 (PS-) or 0
    (PS+) when f(b) = 0, 1 or 2^m when f(b) = 1.  That is
    (2^m + (-1)^x S(u)) / 2 in {1, 2^m}, x = b.r + f(b): x = 0 hits when S
    is 2^m or 2 - 2^m, x = 1 when S is -2^m or 2^m - 2, either when S = 0
    (m = 1 only).  Row d of the table packs u_b | x << m, XORed up from the
    unit rows.  Returns (d, cell, tag) per hit in (d, cell) order, tag 1
    (PS+) when |S| = 2^m.
    """
    table = np.empty((hi - lo, len(cells.u)), dtype=np.uint8)
    table[0] = _unit_xor(cells.unit, lo)
    for j in range((hi - lo).bit_length() - 1):
        np.bitwise_xor(table[: 1 << j], cells.unit[j], out=table[1 << j : 2 << j])
    table ^= f.table[lo:hi, None] << (f.n // 2)
    # the rule in place, so the block holds one table, not three
    mask, want, plus = cells.hit_rule
    table &= mask
    hit = np.equal(table, want, out=table.view(bool))
    d, c = np.divmod(np.flatnonzero(hit), len(cells.u))
    return d, c, plus[c]


def _block_groups(f: BooleanFunction, dual_table: np.ndarray, lo: int, hi: int, d, w, points, tag):
    """The viable (shift, a, subclass) groups of a block, from its hits in
    (d, subspace index w) order: shift lo + d, the coset's points (a row of
    `_CosetCells.points`), tag.

    A hit (W, coset) at shift lo + d makes W-perp a candidate for every a
    in that coset of W.  A group is viable when it has at least
    need = 2^(m-1) + tag hits and phi[a] = f(b) (otherwise the weight of g
    rules out PS).  Every coset point gets the key (d, a, tag), and one
    count per key settles viability.

    Then a probe drops, before any pair is built, groups that provably
    fail the coverage test of `_bounded_cliques`, most of them in a sweep.
    With phi = f* + b.x, let Z = {x : phi(x) + f(b) != tag}.  f is bent,
    so sum_x (-1)^phi(x) = 2^m (-1)^f(b) and |Z| = need (2^m - 1) + tag.
    A hit of the group's tag whose coset C holds a has phi(a) = f(b) and
    C \\ {a} inside Z, by the hit rule; the group's subspaces are its
    cosets C_i moved by a, so their nonzero points are the union of the
    C_i \\ {a} moved by a, and reach need (2^m - 1) only if the C_i cover
    Z (Z \\ {a} with a, for PS+).  So the group needs a hit that holds a
    and x*, the point of Z held by the fewest hits of its shift and tag
    (the first on a tie), which the count has at key (d, x*, tag); when
    none holds x*, no group of that shift and tag is left.

    Returns (d, a, tag, need) per group,
    ascending in (d, a, tag), then the groups' rows, owners and pairs as
    `_bounded_cliques` takes them: a row (w, d) per hit with a point in a
    viable group, in hit order.  For bent f, Parseval on the cosets of W,
    sum_r S_(W,r)(u)^2 = 2^n, with a cell's S^2 >= (2^m - 2)^2 > 2^n / 2 at
    m >= 3, gives at n >= 6 one hit at most per (shift, W); at n <= 4 two
    cosets of W may hit at one shift, and no group holds both.
    """
    n = f.n
    m = n // 2
    shifts = np.arange(lo, hi)
    off = dual_table ^ _parity_array(shifts[:, None] & np.arange(1 << n)) ^ f.table[shifts, None]
    keys = points.astype(np.intp)  # one buffer, shifted and ORed in place
    keys <<= 1
    keys |= ((d << (n + 1)) | tag)[:, None]
    keys = keys.ravel()
    counts = np.bincount(keys, minlength=(hi - lo) << (n + 1)).reshape(hi - lo, 1 << n, 2)
    viable = ((counts >= (1 << (m - 1)) + np.arange(2)) & (off == 0)[:, :, None]).ravel()
    if viable.any():  # else the probe has no group to drop
        # off = phi + f(b).  The probe's x* per (d, tag) is the point of
        # Z = {x : off(x) != tag} in the fewest hits (2^32 marks a point
        # outside Z), then the hits that hold it mark their keys
        outside = (off[:, None] == np.arange(2)[:, None]).astype(np.intp) << 32
        probe = (counts.transpose(0, 2, 1) | outside).argmin(axis=2).astype(points.dtype)
        holders = np.flatnonzero(points == probe[d, tag][:, None]) >> m
        held = np.zeros(viable.size, dtype=bool)
        held[keys.reshape(len(d), -1)[holders]] = True
        viable &= held
    kept = np.flatnonzero(viable[keys])
    used, row = _used(kept >> m, len(w))
    pairs = np.cumsum(viable)[keys[kept]] - 1, row
    key = np.flatnonzero(viable)
    a, tag = (key >> 1) & ((1 << n) - 1), key & 1
    return key >> (n + 1), a, tag, (1 << (m - 1)) + tag, w[used], d[used], pairs


def _sweep_block(f: BooleanFunction, cells: _CosetCells, dual_table: np.ndarray, lo: int, hi: int):
    """The first witness at a shift in lo .. hi - 1, in (b, a) order, or None.

    Only the subspaces of a clique that is found are turned into
    complements, for the witness, which must rebuild the shifted function.
    """
    n = f.n
    d, c, tag = _block_hits(f, cells, lo, hi)
    d, a, tag, need, rows, owner, pairs = _block_groups(
        f, dual_table, lo, hi, d, cells.w_idx[c], cells.points[c], tag
    )
    for g, clique in _bounded_cliques(rows, owner, pairs, need, n):
        if clique is None:
            continue
        b = lo + int(d[g])
        subclass = "PS_plus" if tag[g] else "PS_minus"
        subspaces = tuple(orthogonal_complement(_midspace(n, r)) for r in clique)
        inner = PartialSpreadWitness(subclass, subspaces)
        found = PsSharpWitness(b, int(a[g]), int(f.table[b]) ^ int(tag[g]), inner)
        if not _witness_holds(f, found):
            raise AssertionError(f"{subclass} witness at shift {b}, affine part {a[g]} fails")
        return found
    return None


def _check_sweep_size(n: int) -> None:
    """Raise ValueError for a variable count the PS and PS# tests do not support."""
    if n > 8:
        # the n = 10 subspace index is ~10^8 subspaces; not desk-scale
        raise ValueError("PS and PS# tests supported for n <= 8")


def is_in_ps_sharp(
    f: BooleanFunction, jobs=1, resume=None, progress=None
) -> PsSharpWitness | None:
    """Sweep all shifts b and linear parts a for PS membership of
    x -> f(x+b) + a.x + c, with c forced by the subclass.

    Returns the first witness in (b, a) order, or None after the exhaustive
    sweep.  Shifts are taken in aligned blocks of up to 32 (see
    `_shift_blocks`).  `progress` is called with b, in order, for every
    shift that yields no witness, once the block holding that shift is
    done.  `jobs` and `resume` are accepted and ignored: they exist only
    for the call shape of `perfbench/tracer.py`, and go with the benchmark
    change of ROADMAP item 5a.
    """
    try:
        dual_table = dual(f).table  # one WHT, which also tests bentness
    except ValueError:
        raise ValueError("PS# membership is defined for bent functions") from None
    n = f.n
    _check_sweep_size(n)
    cells = _coset_cells(dual_table, n)
    for lo, hi in _shift_blocks(n):
        found = _sweep_block(f, cells, dual_table, lo, hi)
        for b in range(lo, hi if found is None else found.shift):
            if progress:
                progress(b)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# PS_ap construction
# ---------------------------------------------------------------------------

def ps_ap(m: int, h: BooleanFunction) -> BooleanFunction:
    """Desarguesian partial spread bent function f(x, y) = h(x / y) on
    F_{2^m} x F_{2^m}, with x/0 = 0; h balanced with h(0) = 0."""
    from .gf2m import Field

    if h.n != m:
        raise ValueError(f"h must be on {m} variables")
    if h(0) != 0:
        raise ValueError("need h(0) = 0")
    if not h.is_balanced():
        raise ValueError("need h balanced")
    fld = Field(m)
    table = np.zeros(1 << (2 * m), dtype=np.uint8)
    for y in range(1 << m):
        for x in range(1 << m):
            table[x + (y << m)] = h(fld.div(x, y))
    return BooleanFunction(2 * m, table)
