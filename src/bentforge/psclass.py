"""Partial spread class membership: Algorithm-style PS test, the PS# sweep
over shifts and affine offsets, and the Desarguesian PS_ap construction.

The PS candidate filter is subspace-first: instead of hunting cliques among
support vertices, every n/2-dimensional subspace U is tested for f = 1 on
U \\ {0} (provably the same set of candidates, since a clique that forms a
vector space is exactly such a subspace).  The full PS# sweep additionally
moves to the dual side: U is a candidate for g(x) = f(x+b)+a.x+c exactly
when f*(t) + t.b is near-constant on the coset a + U-perp.  For a coset
r + W with basis w_1..w_m that sum is (-1)^(b.r) S(b.w_1, ..., b.w_m), S
the Walsh-Hadamard transform of f* restricted to the coset, so one pass per
sweep keeps the few (W, coset, u, S) cells with |S(u)| >= 2^m - 2, and each
shift b only selects the cells whose u matches it.  The pass builds each
coset's 2^m-bit word of f* from 2^k-bit pieces, k = min(m, 2): a coset is
listed in basis-coordinate order, so each run of 2^k points is
t + span(w_1..w_k), and one per-function table indexed by that head span
and t holds the run's bits.  u and b.r are linear in b, so the pass
tabulates them for the n unit vectors and a shift XORs the rows of its set
bits.  The disjointness search then runs on the hit subspaces W, not on
their complements: two n/2-subspaces W1, W2 meet only in 0 iff W1 + W2 is
the whole space iff (W1 + W2)-perp, the intersection of W1-perp and
W2-perp, is 0.  Each shift builds one disjointness matrix over
the distinct rows of its (a, subclass) groups and applies the degree bound
to all groups in one matrix product; only the few groups that pass it are
searched, each on its sub-block.  The single-function PS test is the same
stage with one group.
"""

from __future__ import annotations

import itertools
import json
import os
import uuid
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gf2
from .boolfun import BooleanFunction, _parity_array, dual, is_bent
from .gf2 import Subspace, orthogonal_complement, span

# Unused here, kept while perfbench/tracer.py looks it up (ROADMAP item 4).
enumerate_subspaces = gf2.enumerate_subspaces

CACHE_ENV = "BENTFORGE_CACHE_DIR"
_CHECKPOINT_PAIRS = 1 << 12
# Written into every checkpoint; records of another version are recomputed.
# Bump it whenever the sweep algorithm changes.
_SWEEP_VERSION = 4
# Coset-table rows read at a time by the cell pass (at n = 8, 512 kB of
# int32 lookup indices).
_CELL_ROWS = 1 << 11


@dataclass(frozen=True)
class PartialSpreadWitness:
    subclass: str  # "PS_plus" | "PS_minus"
    subspaces: tuple[Subspace, ...]

    def reconstruct(self, n: int) -> BooleanFunction:
        """Sum of indicators (with 0 removed for PS_minus)."""
        t = np.zeros(1 << n, dtype=np.uint8)
        for U in self.subspaces:
            for e in U.elements():
                if e or self.subclass == "PS_plus":
                    t[e] ^= 1
        return BooleanFunction(n, t)

    def as_dict(self) -> dict:
        return {
            "subclass": self.subclass,
            "subspaces": [U.to_text().split("\n") for U in self.subspaces],
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

_COSET: dict[int, np.ndarray] = {}
_WHT: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_HEAD: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _span_rows(vectors: np.ndarray) -> np.ndarray:
    """Span of each row of m vectors in basis-coordinate order: entry k is
    the XOR of the vectors j with bit j of k set."""
    rows, m = vectors.shape
    out = np.zeros((rows, 1 << m), dtype=vectors.dtype)
    for j in range(m):
        out[:, 1 << j : 2 << j] = out[:, : 1 << j] ^ vectors[:, j : j + 1]
    return out


def _coset_table(n: int) -> np.ndarray:
    """Row i: the 2^n points grouped into cosets of the i-th n/2-subspace;
    the one subspace index that subspaces, bases and PS candidates are read
    from.

    Rows go pivot set by pivot set, descending-lexicographic, and within a
    pivot set over the free-entry assignments with the last pivot's entries
    varying fastest: exactly `enumerate_subspaces` order.  Each block of
    2^(n/2) entries is a coset in basis-coordinate order, so block 0 is the
    subspace and entry 2^j is basis vector j.  Block k is the coset with
    the k-th smallest minimum: the basis is in RREF, so a coset's minimum
    is its point that is zero on every pivot, and these minima are the span
    of the off-pivot unit vectors, ascending, the same for every row of a
    pivot set.  uint8 needs n <= 8.
    """
    if n not in _COSET:
        if n > 8:
            raise ValueError("coset table only built for n <= 8")
        m = n // 2
        # the free entries of pivot p are the off-pivot positions below it
        pivot_sets = [
            (pivots, [[j for j in range(p) if j not in pivots] for p in pivots])
            for pivots in itertools.combinations(range(n - 1, -1, -1), m)
        ]
        sizes = [1 << sum(map(len, free)) for _, free in pivot_sets]
        perm = np.empty((sum(sizes), 1 << n), dtype=np.uint8)
        start = 0
        for (pivots, free), size in zip(pivot_sets, sizes):
            index = np.arange(size)
            bases = np.empty((size, m), dtype=np.uint8)
            # index in mixed radix, the last pivot's digit lowest; bit k of
            # pivot i's digit sets free[i][k]
            t = 0
            for i in reversed(range(m)):
                col = 1 << pivots[i]
                for j in free[i]:
                    col = col | ((index >> t) & 1) << j
                    t += 1
                bases[:, i] = col
            units = [1 << j for j in range(n) if j not in pivots]
            minima = _span_rows(np.array([units], dtype=np.uint8))
            np.bitwise_xor(
                minima[:, :, None],
                _span_rows(bases)[:, None, :],
                out=perm[start : start + size].reshape(size, 1 << (n - m), 1 << m),
            )
            start += size
        _COSET[n] = perm
    return _COSET[n]


def _midspace(n: int, i: int) -> Subspace:
    """The i-th n/2-dimensional subspace, read from its coset-table row."""
    row = _coset_table(n)[i]
    return span([int(row[1 << j]) for j in range(n // 2)], n)


# ---------------------------------------------------------------------------
# single-function PS test
# ---------------------------------------------------------------------------

def ps_candidates(f: BooleanFunction) -> list[int]:
    """Indices of the n/2-subspaces U with f = 1 on U \\ {0}, ascending.

    Block 0 of each coset-table row is U with 0 first, so its other
    entries are the nonzero elements.
    """
    perm = _coset_table(f.n)
    return np.flatnonzero(f.table[perm[:, 1 : 1 << (f.n // 2)]].all(axis=1)).tolist()


def _disjointness(rows: np.ndarray, n: int) -> np.ndarray:
    """Boolean matrix over coset-table rows: entry (i, j) is set when the
    subspaces of rows i and j meet only in 0.

    The Gram matrix of the 0/1 membership rows of each block 0 without its
    0 counts the shared points (exactly, in float32).  A subspace meets
    itself, so the diagonal is clear.
    """
    members = np.zeros((len(rows), 1 << n), dtype=np.float32)
    members[np.arange(len(rows))[:, None], _coset_table(n)[rows, 1 : 1 << (n // 2)]] = 1
    return members @ members.T == 0


def _degree_bound(groups: np.ndarray, disjoint: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Mask of the groups that may hold a clique of need[g] rows.

    `groups` is the 0/1 float32 membership of each group over the rows of
    `disjoint`, so one product gives every row's neighbour count inside
    every group.  A row of an s-clique has s - 1 neighbours in its group,
    so a group needs s such rows.
    """
    degree = groups @ disjoint.astype(np.float32)
    enough = (degree >= need[:, None] - 1) & (groups > 0)
    return np.count_nonzero(enough, axis=1) >= need


def _disjoint_clique(disjoint: np.ndarray, s: int) -> list[int] | None:
    """Branch-and-bound search for s pairwise-disjoint rows of one group;
    `disjoint` is the group's sub-block of the matrix from `_disjointness`,
    rows in group order.  Returns the first clique in lexicographic order of
    positions, or None.  Callers run `_degree_bound` first, which ends
    almost every sweep search before this.
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


def _group_cliques(rows: np.ndarray, bounds: np.ndarray, need: np.ndarray, n: int):
    """Clique stage for groups of coset-table rows: group g is
    rows[bounds[g] : bounds[g + 1]] and wants need[g] pairwise-disjoint
    subspaces.

    One disjointness matrix is built over the distinct rows of all groups
    and the degree bound is applied to every group at once; for each group
    that passes it, in order, yields (g, clique positions in the group or
    None) from a search on the group's sub-block.
    """
    distinct, col = np.unique(rows, return_inverse=True)
    disjoint = _disjointness(distinct, n)
    sizes = np.diff(bounds)
    groups = np.zeros((len(sizes), len(distinct)), dtype=np.float32)
    groups[np.repeat(np.arange(len(sizes)), sizes), col] = 1
    for g in np.flatnonzero(_degree_bound(groups, disjoint, need)):
        c = col[bounds[g] : bounds[g + 1]]
        yield int(g), _disjoint_clique(disjoint[np.ix_(c, c)], int(need[g]))


def is_partial_spread(f: BooleanFunction) -> PartialSpreadWitness | None:
    """Membership in PS+ (f(0)=1) or PS- (f(0)=0) with an explicit witness.

    Subspace-first refinement of the clique formulation: candidates are the
    n/2-subspaces contained in the support, and a partial spread is a
    pairwise-trivially-intersecting family of s of them.
    """
    if not is_bent(f):
        raise ValueError("PS membership is defined for bent functions")
    n = f.n
    if n > 8:
        # the n = 10 candidate scan is ~10^8 subspaces; not desk-scale
        raise ValueError("PS test supported for n <= 8")
    m = n // 2
    if f(0):
        subclass, s, want_weight = "PS_plus", (1 << (m - 1)) + 1, (1 << (n - 1)) + (1 << (m - 1))
    else:
        subclass, s, want_weight = "PS_minus", 1 << (m - 1), (1 << (n - 1)) - (1 << (m - 1))
    if f.weight() != want_weight:
        return None
    rows = np.array(ps_candidates(f), dtype=np.intp)
    clique = dict(_group_cliques(rows, np.array([0, len(rows)]), np.array([s]), n)).get(0)
    if clique is None:
        return None
    witness = PartialSpreadWitness(subclass, tuple(_midspace(n, int(rows[i])) for i in clique))
    if witness.reconstruct(n) != f:  # unreachable given the weight filter
        return None
    return witness


# ---------------------------------------------------------------------------
# PS# sweep
# ---------------------------------------------------------------------------

def _shifted_affine(f: BooleanFunction, b: int, a: int, c: int) -> BooleanFunction:
    idx = np.arange(1 << f.n)
    return BooleanFunction(f.n, f.table[idx ^ b] ^ _parity_array(idx & a) ^ (c & 1))


def _witness_holds(f: BooleanFunction, w: PsSharpWitness) -> bool:
    return w.inner.reconstruct(f.n) == _shifted_affine(f, w.shift, w.affine, w.constant)


def _coset_wht(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Walsh-Hadamard transforms of every 2^m-bit coset word.

    Row w holds S(u) = sum_j (-1)^(w_j + u.j) for u = 0 .. 2^m - 1, with w_j
    bit j of w.  The flag marks the words with some |S(u)| >= 2^m - 2, i.e.
    those within Hamming distance 1 of an affine function.
    """
    if m not in _WHT:
        size = 1 << m
        j = np.arange(size)
        signs = (1 - 2 * ((np.arange(1 << size)[:, None] >> j) & 1)).astype(np.int16)
        hadamard = (1 - 2 * _parity_array(j[:, None] & j)).astype(np.int16)
        spectra = (signs @ hadamard).astype(np.int8)
        _WHT[m] = (spectra, (np.abs(spectra) >= size - 2).any(axis=1))
    return _WHT[m]


@dataclass(frozen=True)
class _CosetCells:
    """The (subspace, coset, u, S) cells with |S(u)| >= 2^m - 2, sorted by
    (subspace index, coset block, u); one entry per cell in each array.

    u_b = (b.w_1, ..., b.w_m) and b.r are linear in b, so they are
    tabulated for the n unit vectors b = e_j (one row per j) and XORed over
    the set bits of each shift.
    """

    w_idx: np.ndarray
    block: np.ndarray
    u: np.ndarray
    spectrum: np.ndarray  # S_{W,r}(u)
    unit_u: np.ndarray  # (n, cells): u_b for b = e_j, bit k is bit j of w_k
    unit_r: np.ndarray  # (n, cells): e_j.r, r the block's first point


def _head_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct head spans of the coset table and each row's offset.

    A row's head is entries 0 .. 2^k - 1 of block 0, k = min(n/2, 2): the
    span of its first k basis vectors in basis-coordinate order.  Returns
    (heads, offset): one head per row of `heads`, and per coset-table row
    the index of its head shifted left by n, as int32.
    """
    if n not in _HEAD:
        perm = _coset_table(n)
        k = min(n // 2, 2)
        key = np.zeros(perm.shape[0], dtype=np.uint32)
        for s in range(1 << k):
            key |= perm[:, s].astype(np.uint32) << (8 * s)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        _HEAD[n] = (perm[first, : 1 << k], inverse.astype(np.int32) << n)
    return _HEAD[n]


def _head_words(dual_table: np.ndarray, n: int) -> np.ndarray:
    """Flat (heads x 2^n) table of 2^k-bit pieces: entry (h, t) has bit s
    set when f*(t + head_h[s]) = 1.

    Built from rows of the uint8 translate table f*(t + s), one row per
    head point, so no per-point index grid is made.
    """
    heads, _ = _head_index(n)
    points = np.arange(1 << n, dtype=np.uint8)
    translate = dual_table[np.bitwise_xor.outer(points, points)]
    words = np.zeros((len(heads), 1 << n), dtype=np.uint8)
    for s in range(heads.shape[1]):
        words |= translate[heads[:, s]] << s
    return words.ravel()


def _coset_words(head_words: np.ndarray, lo: int, hi: int, n: int) -> np.ndarray:
    """The 2^m-bit word of f* on every coset of rows lo .. hi - 1, in (row,
    block) order; bit j is f* at entry j of the block.

    Blocks are in basis-coordinate order, so entries 2^k i .. 2^k i + 2^k - 1
    are t + head for t = entry 2^k i: one lookup gives those 2^k bits.
    """
    m = n // 2
    k = min(m, 2)
    perm = _coset_table(n)
    _, offset = _head_index(n)
    pieces = head_words.take(perm[lo:hi, :: 1 << k] + offset[lo:hi, None])
    pieces = pieces.reshape(-1, 1 << (m - k))
    dtype = np.min_scalar_type((1 << (1 << m)) - 1)
    words = pieces[:, 0].astype(dtype)
    for i in range(1, pieces.shape[1]):
        words |= pieces[:, i].astype(dtype) << (i << k)
    return words


def _coset_cells(dual_table: np.ndarray, n: int) -> _CosetCells:
    """Every coset's word of f*, from one head-table lookup per 2^k points,
    in row chunks; the near-affine words give the cells."""
    m = n // 2
    size = 1 << m
    perm = _coset_table(n)
    spectra, near = _coset_wht(m)
    head_words = _head_words(dual_table, n)
    flat, us, ss = [], [], []
    for lo in range(0, perm.shape[0], _CELL_ROWS):
        words = _coset_words(head_words, lo, lo + _CELL_ROWS, n)
        cosets = np.flatnonzero(near[words])
        spec = spectra[words[cosets]]
        row, u = np.nonzero(np.abs(spec) >= size - 2)
        flat.append(lo * size + cosets[row])
        us.append(u)
        ss.append(spec[row, u])
    w_idx, block = np.divmod(np.concatenate(flat), size)
    j = np.arange(n, dtype=np.uint8)[:, None]
    basis = perm[w_idx[:, None], 1 << np.arange(m)]
    unit_u = np.zeros((n, len(w_idx)), dtype=np.uint8)
    for k in range(m):
        unit_u |= ((basis[:, k] >> j) & 1) << k
    return _CosetCells(
        w_idx=w_idx,
        block=block,
        u=np.concatenate(us),
        spectrum=np.concatenate(ss).astype(np.int64),
        unit_u=unit_u,
        unit_r=(perm[w_idx, block << m] >> j) & 1,
    )


def _unit_xor(table: np.ndarray, b: int) -> np.ndarray:
    """XOR of the rows j of a per-unit-vector table over the set bits of b."""
    return np.bitwise_xor.reduce(table[[j for j in range(len(table)) if b >> j & 1]], axis=0)


def _sweep_one_b(f: BooleanFunction, cells: _CosetCells, dual_table: np.ndarray, b: int):
    """Candidate detection for every a at a fixed shift b.

    Returns (phi, hits_minus, hits_plus) where hits are (subspace index,
    coset block) pairs, in row-major order, whose coset carries the target
    count of ones of phi = f* + b.x: (2^m - (-1)^(b.r) S(u)) / 2 with
    u = (b.w_1, ..., b.w_m).
    """
    n = f.n
    m = n // 2
    phi = dual_table ^ _parity_array(np.arange(1 << n) & b)
    keep = np.flatnonzero(cells.u == _unit_xor(cells.unit_u, b))
    sign = 1 - 2 * _unit_xor(cells.unit_r, b)[keep].astype(np.int64)
    counts = ((1 << m) - sign * cells.spectrum[keep]) // 2
    fb = int(f.table[b])  # g(0) bookkeeping: f(b) decides the target counts
    t_minus = (1 << m) - 1 if fb == 0 else 1
    t_plus = 0 if fb == 0 else 1 << m
    hit = np.stack([cells.w_idx[keep], cells.block[keep]], axis=1)
    return phi, hit[counts == t_minus], hit[counts == t_plus]


def _shift_groups(f: BooleanFunction, b: int, phi, hits_minus, hits_plus):
    """The viable (a, subclass) groups at shift b, ascending in (a, tag),
    tag 1 for PS_plus.

    A hit (W, block) makes W-perp a candidate for every a in that coset of
    W.  A group is viable when it has at least need = 2^(m-1) + tag hits
    and phi[a] = f(b) (otherwise the weight of g rules out PS).  Returns
    (a, tag, need, rows, bounds): group g holds the coset-table rows
    rows[bounds[g] : bounds[g + 1]], in ascending order.
    """
    m = f.n // 2
    perm = _coset_table(f.n)
    fb = int(f.table[b])
    hits = np.concatenate([hits_minus, hits_plus])
    plus = np.repeat([0, 1], [len(hits_minus), len(hits_plus)])
    # every point a of each hit's coset, keyed by (a, tag); the stable sort
    # keeps each group's rows in ascending hit order, i.e. ascending W
    points = perm[hits[:, :1], (hits[:, 1:] << m) + np.arange(1 << m)]
    keys = ((points.astype(np.int64) << 1) | plus[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], np.repeat(hits[:, 0], 1 << m)[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sizes = np.diff(starts, append=len(keys))
    a, tag = np.divmod(keys[starts], 2)
    need = (1 << (m - 1)) + tag
    viable = (sizes >= need) & (phi[a] == fb)
    bounds = np.concatenate([[0], np.cumsum(sizes[viable])])
    return a[viable], tag[viable], need[viable], rows[np.repeat(viable, sizes)], bounds


def _try_pairs_for_b(f: BooleanFunction, b: int, phi, hits_minus, hits_plus):
    """Run the clique stage for every viable a at this b, ascending.

    The search runs on the hit subspaces W themselves, since two
    n/2-subspaces meet only in 0 exactly when their orthogonal complements
    do ((W1 + W2)-perp is the intersection of W1-perp and W2-perp).  One
    disjointness matrix covers the distinct rows of all the shift's viable
    groups (at most 126 on the published functions, whose shifts have up to
    205 distinct hit rows), one batched degree bound drops almost every
    group, and only the survivors are searched, each on its sub-block.
    Only the subspaces of a clique that is found are turned into
    complements, for the witness.
    """
    n = f.n
    fb = int(f.table[b])
    a, tag, need, rows, bounds = _shift_groups(f, b, phi, hits_minus, hits_plus)
    for g, clique in _group_cliques(rows, bounds, need, n):
        if clique is None:
            continue
        group = rows[bounds[g] : bounds[g + 1]]
        subclass = "PS_plus" if tag[g] else "PS_minus"
        subspaces = tuple(orthogonal_complement(_midspace(n, int(group[j]))) for j in clique)
        inner = PartialSpreadWitness(subclass, subspaces)
        found = PsSharpWitness(b, int(a[g]), fb ^ int(tag[g]), inner)
        if _witness_holds(f, found):
            return found
    return None


class _SweepState:
    """Resumable checkpoint for a PS# sweep, keyed by function digest.

    A record that cannot be read, lacks a field, was written by another
    sweep version or holds a witness that does not rebuild f is treated as
    absent: the sweep starts over (with a warning, unless only the version
    or the digest differs).
    """

    def __init__(self, path: Path | None, f: BooleanFunction) -> None:
        self.path = path
        self.digest = f.digest()
        self.next_b = 0
        self.finished = False
        self.witness: PsSharpWitness | None = None
        if path is not None and path.exists():
            try:
                self._load(f)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                warnings.warn(f"ignoring unreadable PS# checkpoint {path}: {exc!r}", stacklevel=3)

    def _load(self, f: BooleanFunction) -> None:
        data = json.loads(self.path.read_text())
        if not isinstance(data, dict):
            raise TypeError("checkpoint is not a JSON object")
        if data.get("version") != _SWEEP_VERSION or data.get("digest") != self.digest:
            return
        next_b, finished, witness = data["next_b"], data["finished"], data["witness"]
        if type(next_b) is not int or not 0 <= next_b <= 1 << f.n or type(finished) is not bool:
            raise ValueError(f"bad next_b {next_b!r} or finished {finished!r}")
        if witness is not None:
            witness = _witness_from_dict(witness, f.n)
            if not _witness_holds(f, witness):
                raise ValueError("saved witness does not rebuild the function")
        self.next_b, self.finished, self.witness = next_b, finished, witness

    def save(self, witness=None, finished=False) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": _SWEEP_VERSION,
            "digest": self.digest,
            "next_b": self.next_b,
            "finished": finished,
            "witness": witness,
        }
        # a unique temporary name, so concurrent sweeps sharing a cache
        # directory never write into each other's file
        tmp = self.path.with_name(f"{self.path.name}.{uuid.uuid4().hex}.tmp")
        try:
            tmp.write_text(json.dumps(payload))
            tmp.replace(self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def _cache_path(f: BooleanFunction, resume: str | Path | None) -> Path | None:
    if resume is not None:
        return Path(resume)
    cache_dir = os.environ.get(CACHE_ENV)
    if cache_dir:
        return Path(cache_dir) / f"ps_sharp_{f.digest()}.json"
    return None


def check_sweep_size(n: int) -> None:
    """Raise ValueError for a variable count the PS# sweep does not support."""
    if n > 8:
        # the n = 10 table is ~10^8 subspaces; the sweep is not desk-scale
        raise ValueError("PS# sweep supported for n <= 8")


def is_in_ps_sharp(
    f: BooleanFunction,
    jobs: int = 1,
    resume: str | Path | None = None,
    progress=None,
) -> PsSharpWitness | None:
    """Sweep all shifts b and linear parts a for PS membership of
    x -> f(x+b) + a.x + c, with c forced by the subclass.

    Returns the first witness in (b, a) order, or None after the exhaustive
    sweep.  Checkpoints every 2^12 (b, a) pairs when a cache path is set
    via `resume` or the BENTFORGE_CACHE_DIR environment variable.
    `progress` is called with b after every shift that yields no witness.
    The sweep runs on one thread; `jobs` is accepted for callers that still
    pass it, and ignored.
    """
    if not is_bent(f):
        raise ValueError("PS# membership is defined for bent functions")
    n = f.n
    check_sweep_size(n)
    state = _SweepState(_cache_path(f, resume), f)
    if state.finished:
        return state.witness

    dual_table = dual(f).table
    cells = _coset_cells(dual_table, n)
    checkpoint_every = max(1, _CHECKPOINT_PAIRS >> n)

    found = None
    for b in range(state.next_b, 1 << n):
        found = _try_pairs_for_b(f, b, *_sweep_one_b(f, cells, dual_table, b))
        state.next_b = b + 1
        if found is not None:
            break
        if progress:
            progress(b)
        if (b + 1) % checkpoint_every == 0:
            state.save()
    state.save(
        witness=None if found is None else found.as_dict(), finished=True
    )
    return found


def _witness_from_dict(d: dict, n: int) -> PsSharpWitness:
    inner = PartialSpreadWitness(
        d["subclass"],
        tuple(Subspace.from_text("\n".join(rows), n) for rows in d["subspaces"]),
    )
    return PsSharpWitness(d["shift"], d["affine"], d["constant"], inner)


# ---------------------------------------------------------------------------
# PS_ap construction
# ---------------------------------------------------------------------------

def ps_ap(m: int, h: BooleanFunction, field=None) -> BooleanFunction:
    """Desarguesian partial spread bent function f(x, y) = h(x / y) on
    F_{2^m} x F_{2^m}, with x/0 = 0; h balanced with h(0) = 0."""
    from .gf2m import Field

    if h.n != m:
        raise ValueError(f"h must be on {m} variables")
    if h(0) != 0:
        raise ValueError("need h(0) = 0")
    if not h.is_balanced():
        raise ValueError("need h balanced")
    fld = field if field is not None else Field(m)
    table = np.zeros(1 << (2 * m), dtype=np.uint8)
    for y in range(1 << m):
        for x in range(1 << m):
            table[x + (y << m)] = h(fld.div(x, y))
    return BooleanFunction(2 * m, table)
