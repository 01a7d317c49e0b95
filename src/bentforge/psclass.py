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
shift b only selects the cells whose u matches it.  The disjointness search
then runs on the hit subspaces W, not on their complements: two
n/2-subspaces W1, W2 meet only in 0 iff W1 + W2 is the whole space iff
(W1 + W2)-perp, the intersection of W1-perp and W2-perp, is 0.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import uuid
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .boolfun import BooleanFunction, _parity_array, dual, is_bent
from .gf2 import Subspace, enumerate_subspaces, orthogonal_complement, span

CACHE_ENV = "BENTFORGE_CACHE_DIR"
_CHECKPOINT_PAIRS = 1 << 12
# Written into every checkpoint; records of another version are recomputed.
# Bump it whenever the sweep algorithm changes.
_SWEEP_VERSION = 3
# Coset-table rows gathered at a time by the cell pass (2 MB at n = 8).
_CELL_ROWS = 1 << 13


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


def _span_rows(vectors: np.ndarray) -> np.ndarray:
    """Span of each row of m vectors in basis-coordinate order: entry k is
    the XOR of the vectors j with bit j of k set."""
    rows, m = vectors.shape
    out = np.zeros((rows, 1 << m), dtype=vectors.dtype)
    for j in range(m):
        out[:, 1 << j : 2 << j] = out[:, : 1 << j] ^ vectors[:, j : j + 1]
    return out


def _coset_table(n: int) -> np.ndarray:
    """Row i: the 2^n points grouped into cosets of the i-th n/2-subspace
    (rows in `enumerate_subspaces` order); the one subspace index that
    subspaces, bases and PS candidates are read from.

    Each block of 2^(n/2) entries is a coset in basis-coordinate order, so
    block 0 is the subspace and entry 2^j is basis vector j.  Block k is the
    coset with the k-th smallest minimum: the basis is in RREF, so a coset's
    minimum is its point that is zero on every pivot, and these minima are
    the span of the off-pivot unit vectors, ascending.  uint8 needs n <= 8.
    """
    if n not in _COSET:
        if n > 8:
            raise ValueError("coset table only built for n <= 8")
        m = n // 2
        bases = np.fromiter(
            itertools.chain.from_iterable(U.basis for U in enumerate_subspaces(n, m)),
            dtype=np.uint8,
        ).reshape(-1, m)
        count = bases.shape[0]
        lead = np.array([0] + [1 << (v.bit_length() - 1) for v in range(1, 1 << n)], dtype=np.uint8)
        pivots = np.bitwise_or.reduce(lead[bases], axis=1)
        _, free = np.nonzero((~pivots[:, None] >> np.arange(n, dtype=np.uint8)) & 1)
        units = (1 << free.reshape(count, n - m)).astype(np.uint8)
        perm = np.empty((count, 1 << n), dtype=np.uint8)
        np.bitwise_xor(
            _span_rows(units)[:, :, None],
            _span_rows(bases)[:, None, :],
            out=perm.reshape(count, 1 << (n - m), 1 << m),
        )
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


def _disjoint_clique(rows, n: int, s: int) -> list[int] | None:
    """Branch-and-bound search for s coset-table rows whose subspaces
    pairwise meet only in 0; returns the chosen positions in `rows`.

    Two rows are neighbours when the nonzero elements of their block 0
    share no point: the Gram matrix of the 0/1 membership rows counts the
    shared points (exactly, in float32).  A subspace meets itself, so no
    row is its own neighbour.
    """
    L = len(rows)
    if L < s:
        return None
    members = np.zeros((L, 1 << n), dtype=np.float32)
    members[np.arange(L)[:, None], _coset_table(n)[rows, 1 : 1 << (n // 2)]] = 1
    disjoint = members @ members.T == 0
    # a row of an s-clique has s - 1 neighbours; most sweep searches end here
    if np.count_nonzero(disjoint.sum(axis=1) >= s - 1) < s:
        return None
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

    return grow([], (1 << L) - 1)


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
    rows = ps_candidates(f)
    clique = _disjoint_clique(rows, n, s)
    if clique is None:
        return None
    witness = PartialSpreadWitness(subclass, tuple(_midspace(n, rows[i]) for i in clique))
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


def _pack_cosets(values: np.ndarray, m: int) -> np.ndarray:
    """One word per run of 2^m consecutive 0/1 values; bit j is value j."""
    size = 1 << m
    if size < 8:
        return np.packbits(values.reshape(-1, size), axis=1, bitorder="little")[:, 0]
    return np.packbits(values.ravel(), bitorder="little").view(f"<u{size // 8}")


@dataclass(frozen=True)
class _CosetCells:
    """The (subspace, coset, u, S) cells with |S(u)| >= 2^m - 2, sorted by
    (subspace index, coset block, u); one entry per cell in each array."""

    w_idx: np.ndarray
    block: np.ndarray
    rep: np.ndarray  # coset representative r: the block's first point
    basis: np.ndarray  # (cells, m): w_1..w_m of the subspace
    u: np.ndarray
    spectrum: np.ndarray  # S_{W,r}(u)


def _coset_cells(dual_table: np.ndarray, n: int) -> _CosetCells:
    """One gather of f* through the coset table, in row chunks."""
    m = n // 2
    size = 1 << m
    perm = _coset_table(n)
    spectra, near = _coset_wht(m)
    flat, us, ss = [], [], []
    for lo in range(0, perm.shape[0], _CELL_ROWS):
        words = _pack_cosets(dual_table[perm[lo : lo + _CELL_ROWS]], m)
        cosets = np.flatnonzero(near[words])
        spec = spectra[words[cosets]]
        row, u = np.nonzero(np.abs(spec) >= size - 2)
        flat.append(lo * size + cosets[row])
        us.append(u)
        ss.append(spec[row, u])
    w_idx, block = np.divmod(np.concatenate(flat), size)
    return _CosetCells(
        w_idx=w_idx,
        block=block,
        rep=perm[w_idx, block << m].astype(np.int64),
        basis=perm[w_idx[:, None], 1 << np.arange(m)].astype(np.int64),
        u=np.concatenate(us),
        spectrum=np.concatenate(ss).astype(np.int64),
    )


def _sweep_one_b(f: BooleanFunction, cells: _CosetCells, dual_table: np.ndarray, b: int):
    """Candidate detection for every a at a fixed shift b.

    Returns (phi, hits_minus, hits_plus) where hits are (subspace index,
    coset block) pairs, in row-major order, whose coset carries the target
    count of ones of phi = f* + b.x: (2^m - (-1)^(b.r) S(u)) / 2 with
    u = (b.w_1, ..., b.w_m).
    """
    n = f.n
    m = n // 2
    idx = np.arange(1 << n)
    phi = dual_table ^ _parity_array(idx & b)
    u_b = (_parity_array(cells.basis & b).astype(np.int64) << np.arange(m)).sum(axis=1)
    keep = np.flatnonzero(cells.u == u_b)
    sign = 1 - 2 * _parity_array(cells.rep[keep] & b).astype(np.int64)
    counts = ((1 << m) - sign * cells.spectrum[keep]) // 2
    fb = int(f.table[b])  # g(0) bookkeeping: f(b) decides the target counts
    t_minus = (1 << m) - 1 if fb == 0 else 1
    t_plus = 0 if fb == 0 else 1 << m
    hit = np.stack([cells.w_idx[keep], cells.block[keep]], axis=1)
    return phi, hit[counts == t_minus], hit[counts == t_plus]


def _try_pairs_for_b(f: BooleanFunction, b: int, phi, hits_minus, hits_plus):
    """Run the clique stage for every viable a at this b, ascending.

    A hit (W, block) makes W-perp a candidate for every a in that coset of
    W.  The search runs on the W themselves, since two n/2-subspaces meet
    only in 0 exactly when their orthogonal complements do ((W1 + W2)-perp
    is the intersection of W1-perp and W2-perp).  Only the subspaces of a
    clique that is found are turned into complements, for the witness.
    """
    n = f.n
    m = n // 2
    perm = _coset_table(n)
    fb = int(f.table[b])
    hits = np.concatenate([hits_minus, hits_plus])
    plus = np.repeat([0, 1], [len(hits_minus), len(hits_plus)])
    # every point a of each hit's coset, keyed by (a, tag); the stable sort
    # keeps each group's rows in ascending hit order, i.e. ascending W
    points = perm[hits[:, :1], (hits[:, 1:] << m) + np.arange(1 << m)]
    keys = ((points.astype(np.int64) << 1) | plus[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], np.repeat(hits[:, 0], 1 << m)[order]
    bounds = np.append(np.flatnonzero(np.diff(keys, prepend=-1)), len(keys))
    a, tag = np.divmod(keys[bounds[:-1]], 2)
    need = (1 << (m - 1)) + tag
    # phi[a] != f(b) is the weight obstruction: g cannot be PS at all
    for i in np.flatnonzero((np.diff(bounds) >= need) & (phi[a] == fb)):
        group = rows[bounds[i] : bounds[i + 1]]
        clique = _disjoint_clique(group, n, int(need[i]))
        if clique is None:
            continue
        subclass = "PS_plus" if tag[i] else "PS_minus"
        subspaces = tuple(orthogonal_complement(_midspace(n, int(group[j]))) for j in clique)
        inner = PartialSpreadWitness(subclass, subspaces)
        found = PsSharpWitness(b, int(a[i]), fb ^ int(tag[i]), inner)
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
    via `resume` or the BENTFORGE_CACHE_DIR environment variable.  With
    jobs > 1 the per-shift cell selection runs on a thread pool; `progress`
    is called with b after every shift that yields no witness.
    """
    if not is_bent(f):
        raise ValueError("PS# membership is defined for bent functions")
    n = f.n
    if n > 8:
        # the n = 10 table is ~10^8 subspaces; the sweep is not desk-scale
        raise ValueError("PS# sweep supported for n <= 8")
    state = _SweepState(_cache_path(f, resume), f)
    if state.finished:
        return state.witness

    dual_table = dual(f).table
    cells = _coset_cells(dual_table, n)
    all_b = range(state.next_b, 1 << n)
    checkpoint_every = max(1, _CHECKPOINT_PAIRS >> n)
    work = partial(_sweep_one_b, f, cells, dual_table)

    found = None
    pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else contextlib.nullcontext()
    with pool:
        shifts = pool.map(work, all_b) if jobs > 1 else map(work, all_b)
        for b, (phi, hm, hp) in zip(all_b, shifts):
            found = _try_pairs_for_b(f, b, phi, hm, hp)
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
