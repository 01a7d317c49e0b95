import functools
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bentforge import psclass
from bentforge.boolfun import (
    BooleanFunction,
    _parity_array,
    algebraic_degree,
    dual,
    ea_image,
    is_bent,
    zero_function,
)
from bentforge.construct import mm_bent
from bentforge.fixtures import PUBLISHED, published_bent8
from bentforge.gf2 import (
    enumerate_subspaces,
    intersect,
    orthogonal_complement,
    random_invertible,
    span,
)
from bentforge.msub import msubspace_profile
from bentforge.psclass import (
    _BLOCK,
    _block_groups,
    _block_hits,
    _bounded_cliques,
    _coset_cells,
    _coset_points,
    _coset_wht,
    _coverage,
    _CosetCells,
    _disjoint_clique,
    _half_words,
    _merge_schedule,
    _midspace,
    _row_index,
    _shift_blocks,
    _unit_xor,
    _witness_holds,
    PartialSpreadWitness,
    PsSharpWitness,
    is_in_ps_sharp,
    is_partial_spread,
    ps_ap,
    ps_candidates,
)
from bentforge.vectorial import identity_map
from conftest import (
    balanced_h3,
    balanced_h4,
    coset_table,
    ea_disguise,
    oracle_functions,
    packed_words,
    random_function,
    random_mm,
    random_partial_spread,
)


def ps_ap4() -> BooleanFunction:
    return ps_ap(4, balanced_h4())


def test_ps_ap_is_ps_minus_bent():
    f = ps_ap(3, balanced_h3())
    assert is_bent(f)
    assert f.weight() == 2**5 - 2**2
    w = is_partial_spread(f)
    assert w is not None
    assert w.subclass == "PS_minus"
    assert len(w.subspaces) == 4


def test_ps_ap_rejects_bad_h():
    with pytest.raises(ValueError):
        ps_ap(3, BooleanFunction(3, [1, 0, 1, 0, 1, 0, 1, 0]))  # h(0) = 1
    with pytest.raises(ValueError):
        ps_ap(3, BooleanFunction(3, [0, 1, 1, 1, 1, 0, 1, 0]))  # unbalanced
    with pytest.raises(ValueError):
        ps_ap(3, BooleanFunction(2, [0, 1, 1, 0]))  # h on 2 variables


def test_witness_soundness():
    f = ps_ap(3, balanced_h3())
    w = is_partial_spread(f)
    assert w.reconstruct() == f
    # pairwise trivial intersections
    for i, a in enumerate(w.subspaces):
        for b in w.subspaces[i + 1 :]:
            assert intersect(a, b).dim == 0


def test_ps_plus_complement_control():
    # complementing a PS- function on the nonzero support pattern of the
    # plus class: f + 1 has f(0) = 1 and weight 2^(n-1) + 2^(n/2-1)
    f = ps_ap(3, balanced_h3())
    g = f ^ 1
    w = is_partial_spread(g)
    # g = sum of indicators of the complementary spread lines
    assert w is not None
    assert w.subclass == "PS_plus"
    assert w.reconstruct() == g


def test_is_partial_spread_rejects_non_bent():
    with pytest.raises(ValueError):
        is_partial_spread(zero_function(4))


@pytest.mark.parametrize("f", [zero_function(4), zero_function(5)], ids=["non-bent", "odd-n"])
def test_ps_sharp_rejects_non_bent_input(f):
    with pytest.raises(ValueError, match="^PS# membership is defined for bent functions$"):
        is_in_ps_sharp(f)


def test_quadratic_not_partial_spread_directly():
    f = mm_bent(identity_map(3), zero_function(3))
    assert is_partial_spread(f) is None


def bent_functions(n: int) -> list[BooleanFunction]:
    """Every bent function on n variables, by a Walsh transform of all
    2^(2^n) truth tables."""
    points = np.arange(1 << n)
    tables = ((np.arange(1 << (1 << n))[:, None] >> points) & 1).astype(np.uint8)
    hadamard = 1 - 2 * _parity_array(np.bitwise_and.outer(points, points)).astype(np.int64)
    spectra = (1 - 2 * tables.astype(np.int64)) @ hadamard
    bent = np.all(np.abs(spectra) == 1 << n // 2, axis=1)
    return [BooleanFunction(n, t) for t in tables[bent]]


def partial_spread_tables(n: int) -> set[bytes]:
    """Dillon's definition, directly: the union of s pairwise trivially
    intersecting n/2-subspaces, 0 included for PS+ (s = 2^(n/2-1) + 1) and
    excluded for PS- (s = 2^(n/2-1)), for every such family."""
    m = n // 2
    spaces = [frozenset(U.elements()) for U in enumerate_subspaces(n, m)]
    tables = set()
    for s, zero in ((1 << (m - 1), 0), ((1 << (m - 1)) + 1, 1)):
        for family in itertools.combinations(spaces, s):
            if all(len(a & b) == 1 for a, b in itertools.combinations(family, 2)):
                t = np.zeros(1 << n, dtype=np.uint8)
                t[list(frozenset().union(*family))] = 1
                t[0] = zero
                tables.add(t.tobytes())
    return tables


@pytest.mark.parametrize("n, count, spread", [(2, 8, 6), (4, 896, 560)])
def test_is_partial_spread_matches_the_union_definition(n, count, spread):
    want = partial_spread_tables(n)
    functions = bent_functions(n)
    found = 0
    for f in functions:
        w = is_partial_spread(f)
        assert (w is not None) == (f.table.tobytes() in want), f.table
        if w is not None:
            assert w.subclass == ("PS_plus" if f(0) else "PS_minus")
            assert w.reconstruct() == f
            found += 1
    assert (len(functions), found) == (count, spread)


def test_is_partial_spread_raises_when_a_witness_does_not_rebuild(monkeypatch):
    f = ps_ap(3, balanced_h3())
    rebuild = PartialSpreadWitness.reconstruct
    monkeypatch.setattr(PartialSpreadWitness, "reconstruct", lambda self: rebuild(self) ^ 1)
    with pytest.raises(AssertionError, match="PS_minus witness does not rebuild f"):
        is_partial_spread(f)


def test_ps_sharp_raises_when_a_witness_does_not_hold(monkeypatch):
    monkeypatch.setattr(psclass, "_witness_holds", lambda f, w: False)
    with pytest.raises(AssertionError, match="witness at shift 0, affine part 0 fails"):
        is_in_ps_sharp(ps_ap4())


def test_ps_sharp_identity_offset():
    f = ps_ap(3, balanced_h3())
    w = is_in_ps_sharp(f)
    assert w is not None
    assert (w.shift, w.affine, w.constant) == (0, 0, 0)


def test_ps_sharp_finds_disguise():
    f = ps_ap(3, balanced_h3())
    g = ea_image(f, None, 0b100101, 0b010011, 1)
    w = is_in_ps_sharp(g)
    assert w is not None
    moved = ea_image(g, None, w.shift, w.affine, w.constant)
    assert w.inner.reconstruct() == moved


def test_ps_sharp_consistency_audit(rng):
    # a sweep that returns none must agree with direct spot checks
    f = mm_bent(identity_map(3), zero_function(3))
    result = is_in_ps_sharp(f)
    assert result is None
    for _ in range(100):
        b, a, c = rng.randrange(64), rng.randrange(64), rng.randrange(2)
        g = ea_image(f, None, b, a, c)
        assert is_partial_spread(g) is None


def test_ps_sharp_progress_reports_every_shift_before_the_witness():
    # n = 8, since the disguises of ps_ap(3, h) tried all have a witness at b = 0
    rng = random.Random(3)
    f = ps_ap4()
    A = random_invertible(8, rng)
    g = ea_image(f, A, rng.randrange(1, 8), rng.randrange(256), rng.randrange(2))
    plain = is_in_ps_sharp(g)
    assert plain is not None and plain.shift > 0
    seen = []
    w = is_in_ps_sharp(g, progress=seen.append)
    assert w == plain
    assert seen == list(range(plain.shift))
    seen.clear()
    assert is_in_ps_sharp(mm_bent(identity_map(3), zero_function(3)), progress=seen.append) is None
    assert seen == list(range(64))


def test_candidate_filter_counts():
    f = ps_ap(3, balanced_h3())
    cands = ps_candidates(f)
    # the defining spread lines are all candidates
    assert len(cands) >= 4


# ---------------------------------------------------------------------------
# oracles for the sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_oracle_functions_are_bent(n):
    assert all(is_bent(f) for f in oracle_functions(n))


def direct_coset_hits(f: BooleanFunction, dual_table: np.ndarray, b: int):
    """Per-shift hits by counting the ones of f* + b.x on every coset."""
    n = f.n
    m = n // 2
    perm = coset_table(n)
    idx = np.arange(1 << n)
    phi = dual_table ^ _parity_array(idx & b)
    sums = phi[perm].reshape(perm.shape[0], 1 << m, 1 << m).sum(axis=2, dtype=np.int16)
    fb = int(f.table[b])
    t_minus = (1 << m) - 1 if fb == 0 else 1
    t_plus = 0 if fb == 0 else 1 << m
    return phi, np.argwhere(sums == t_minus), np.argwhere(sums == t_plus)


def cell_blocks(cells, n: int, c=slice(None)) -> np.ndarray:
    """The coset block of each cell c, from its first point: the coset
    minimum, found among the minima of its row's pivot set (which it must
    be)."""
    _, pivot_set, minima = _row_index(n)
    at = minima[pivot_set[cells.w_idx[c]]] == cells.points[c, :1]
    assert np.all(at.sum(axis=1) == 1)
    return np.argmax(at, axis=1)


def reference_shift_groups(
    f: BooleanFunction, cells, dual_table: np.ndarray, b: int, hits=None, probe=True
):
    """The per-shift pass: the hits of shift b selected from the cells one
    shift at a time (or the given (hits_minus, hits_plus)), then its viable
    (a, subclass) groups, ascending in (a, tag), tag 1 for PS_plus.  With
    probe, a group (a, t) is kept only if some hit of tag t holds both a
    and x*, the point of Z_t = {x : phi(x) + f(b) != t} that the fewest
    hits of tag t hold (the smallest such point on a tie).

    Returns ((phi, hits_minus, hits_plus), (a, tag, need, rows, bounds)):
    hits are (subspace index, coset block) pairs in row-major order whose
    coset carries the target count of ones of phi = f* + b.x,
    (2^m - (-1)^(b.r) S(u)) / 2 with u = (b.w_1, ..., b.w_m); group g holds
    the coset-table rows rows[bounds[g] : bounds[g + 1]], ascending.
    """
    n = f.n
    m = n // 2
    perm = coset_table(n)
    phi = dual_table ^ _parity_array(np.arange(1 << n) & b)
    fb = int(f.table[b])  # g(0) bookkeeping: f(b) decides the target counts
    if hits is None:
        packed = _unit_xor(cells.unit, b)
        keep = np.flatnonzero(cells.u == packed & ((1 << m) - 1))
        sign = 1 - 2 * (packed[keep] >> m).astype(np.int64)
        counts = ((1 << m) - sign * cells.spectrum[keep]) // 2
        t_minus = (1 << m) - 1 if fb == 0 else 1
        t_plus = 0 if fb == 0 else 1 << m
        hit = np.stack([cells.w_idx[keep], cell_blocks(cells, n, keep)], axis=1)
        hits = hit[counts == t_minus], hit[counts == t_plus]
    hits_minus, hits_plus = hits
    # a hit (W, block) makes W-perp a candidate for every a in that coset;
    # a group is viable with need = 2^(m-1) + tag hits and phi[a] = f(b)
    hits = np.concatenate([hits_minus, hits_plus])
    plus = np.repeat([0, 1], [len(hits_minus), len(hits_plus)])
    points = perm[hits[:, :1], (hits[:, 1:] << m) + np.arange(1 << m)]
    keys = ((points.astype(np.int64) << 1) | plus[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], np.repeat(hits[:, 0], 1 << m)[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    sizes = np.diff(starts, append=len(keys))
    a, tag = np.divmod(keys[starts], 2)
    need = (1 << (m - 1)) + tag
    viable = (sizes >= need) & (phi[a] == fb)
    if probe:
        cosets = [set(c) for c in points.tolist()]
        for t in (0, 1):
            tagged = [c for c, p in zip(cosets, plus) if p == t]
            z = [x for x in range(1 << n) if phi[x] ^ fb != t]
            x_star = min(z, key=lambda x: sum(x in c for c in tagged))
            with_x_star = set().union(*(c for c in tagged if x_star in c))
            viable &= (tag != t) | np.isin(a, list(with_x_star))
    bounds = np.concatenate([[0], np.cumsum(sizes[viable])])
    groups = a[viable], tag[viable], need[viable], rows[np.repeat(viable, sizes)], bounds
    return (phi, hits_minus, hits_plus), groups


def csr_groups(need: np.ndarray, rows: np.ndarray, pairs):
    """Each group's rows, ascending, concatenated, with the group bounds."""
    group, member = pairs
    order = np.lexsort((member, group))
    bounds = np.concatenate([[0], np.cumsum(np.bincount(group, minlength=len(need)))])
    return rows[member[order]], bounds


def split_block(lo: int, hi: int, hits, groups, n: int):
    """Per shift b of a block, its (hits_minus, hits_plus) and (a, tag, need,
    rows, bounds) from the block pass's hits (d, w, block, tag) and groups,
    after checking the groups' rows: one per hit with a point in a viable
    group, in hit order, each used, each only by groups of its own shift,
    and no subspace twice in a group.  At n >= 6 the rows are also strictly
    ascending in (shift, row): a shift has at most one hit per subspace."""
    d, w, block, tag = hits
    gd, a, gtag, need, rows, owner, pairs = groups
    count = len(_row_index(n)[0])
    viable = np.zeros(((hi - lo) << n) * 2, dtype=bool)
    viable[((gd << n) + a) * 2 + gtag] = True
    points = _coset_points(n, w, block).astype(np.intp)
    inside = viable[((d[:, None] << n) + points) * 2 + tag[:, None]].any(axis=1)
    assert np.array_equal(rows, w[inside]) and np.array_equal(owner, d[inside])
    listed = pairs[0] * count + rows[pairs[1]]
    assert len(np.unique(listed)) == len(listed)
    assert n < 6 or np.all(np.diff(owner * count + rows) > 0)
    assert np.array_equal(np.unique(pairs[1]), np.arange(len(rows)))
    assert np.array_equal(owner[pairs[1]], gd[pairs[0]])
    members, bounds = csr_groups(need, rows, pairs)
    hit = np.stack([w, block], axis=1)
    for b in range(lo, hi):
        mine = d == b - lo
        g = np.flatnonzero(gd == b - lo)
        edges = bounds[g[0] : g[-1] + 2] if len(g) else bounds[:1]
        groups = a[g], gtag[g], need[g], members[edges[0] : edges[-1]], edges - edges[0]
        yield b, (hit[mine & (tag == 0)], hit[mine & (tag == 1)]), groups


def block_pass(f: BooleanFunction, cells: _CosetCells, dual_table: np.ndarray, blocks):
    """split_block over the given blocks of f's sweep."""
    for lo, hi in blocks:
        d, c, tag = _block_hits(f, cells, lo, hi)
        w = cells.w_idx[c]
        groups = _block_groups(f, dual_table, lo, hi, d, w, cells.points[c], tag)
        hits = d, w, cell_blocks(cells, f.n, c), tag
        yield from split_block(lo, hi, hits, groups, f.n)


def assert_block_pass_matches(f: BooleanFunction, direct_shifts=()) -> None:
    """The block pass against the per-shift pass at every shift, and both
    against direct coset counts at direct_shifts (all of them below n = 8)."""
    dual_table = dual(f).table
    cells = _coset_cells(dual_table, f.n)
    seen = []
    for b, hits, groups in block_pass(f, cells, dual_table, _shift_blocks(f.n)):
        (phi, *want_hits), want_groups = reference_shift_groups(f, cells, dual_table, b)
        if f.n < 8 or b in direct_shifts:
            direct = direct_coset_hits(f, dual_table, b)
            assert np.array_equal(direct[0], phi), b
            want = direct[1:]
            for x, y in zip(want_hits, want):
                assert x.shape == y.shape and np.array_equal(x, y), f"shift {b}"
        for x, y in zip(hits, want_hits):
            assert x.shape == y.shape and np.array_equal(x, y), f"shift {b}"
        for name, x, y in zip(("a", "tag", "need", "rows", "bounds"), groups, want_groups):
            assert x.shape == y.shape and np.array_equal(x, y), f"shift {b}: {name}"
        seen.append(b)
    assert seen == list(range(1 << f.n))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_sweep_hits_match_direct_coset_count(n):
    for f in oracle_functions(n):
        assert_block_pass_matches(f)


def test_sweep_hits_match_direct_coset_count_n8():
    assert_block_pass_matches(published_bent8("delta0_mix"), direct_shifts=(0, 1, 77, 200, 255))


@pytest.mark.parametrize("name", ["transposed", "apn_family"])
def test_block_pass_matches_per_shift_pass_n8(name):
    assert_block_pass_matches(published_bent8(name))


def probe_inputs(n: int) -> list[BooleanFunction]:
    """The oracle functions (the published ones and their duals at n = 8),
    a random MM function and random PS- and PS+ functions."""
    rng = random.Random(f"probe-{n}")
    if n == 8:
        published = [published_bent8(name) for name in PUBLISHED]
        base = published + [dual(f) for f in published]
    else:
        base = oracle_functions(n)
    spreads = [random_partial_spread(n, rng, plus) for plus in (False, True)]
    return base + [random_mm(n // 2, rng), *spreads]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_probe_drops_only_groups_that_cannot_cover(n):
    # The sweep's groups against the unpruned per-shift grouping.  Every
    # group the sweep keeps is an unpruned group with the same rows; every
    # group the probe drops has subspaces covering fewer than
    # need (2^m - 1) nonzero points, so the coverage test drops it too.
    # The groups of tag t lie in the cosets of the hits that hold x*, the
    # point of Z_t the fewest hits hold: at most 2^m per such hit.  f is
    # bent, so |Z_t| = need (2^m - 1) + t at every shift.
    m = n // 2
    nonzero = functools.cache(lambda row: frozenset(_midspace(n, row).elements()) - {0})
    kept = dropped = 0
    for f in probe_inputs(n):
        dual_table = dual(f).table
        cells = _coset_cells(dual_table, n)
        for b, hits, groups in block_pass(f, cells, dual_table, _shift_blocks(n)):
            (phi, *_), unpruned = reference_shift_groups(f, cells, dual_table, b, probe=False)
            off = phi ^ f.table[b]
            swept, want = ({
                (int(a), int(t)): rows[bounds[g] : bounds[g + 1]].tolist()
                for g, (a, t) in enumerate(zip(a, tag))
            } for a, tag, _, rows, bounds in (groups, unpruned))
            for key, rows in swept.items():
                assert want.get(key) == rows, (f.digest(), b, key)
            for (a, t), rows in want.items():
                if (a, t) not in swept:
                    cover = ((1 << (m - 1)) + t) * ((1 << m) - 1)
                    union = frozenset().union(*map(nonzero, rows))
                    assert len(union) < cover, (f.digest(), b, a, t)
                    dropped += 1
            for t, tagged in enumerate(hits):
                z = off != t
                assert np.count_nonzero(z) == ((1 << (m - 1)) + t) * ((1 << m) - 1) + t
                cosets = coset_table(n)[tagged[:, :1], (tagged[:, 1:] << m) + np.arange(1 << m)]
                fewest = np.bincount(cosets.ravel(), minlength=1 << n)[z].min()
                assert sum(key[1] == t for key in swept) <= fewest << m, (f.digest(), b, t)
            kept += len(swept)
    # at n = 4 every unpruned group of these inputs covers, so none is dropped
    assert kept > 0 and (dropped > 0) == (n > 4)


def test_block_groups_match_per_shift_grouping_on_random_hits():
    # shift lo + d has random hits on subspaces few[d] and few[d + 1], so one
    # subspace closes the hits of a shift and opens those of the next, and
    # each on several cosets, so a shift lists a subspace more than once
    f = oracle_functions(4)[3]
    dual_table = dual(f).table
    count = len(_row_index(4)[0])
    rng = np.random.default_rng(4)
    straddles = repeats = 0
    for lo, hi in [(4, 8), (8, 12), (0, 1)]:
        for _ in range(40):
            few = np.sort(rng.choice(count, hi - lo + 1, replace=False))
            d, w, block = np.nonzero(rng.random((hi - lo, 2, 4)) < 0.75)
            w = few[d + w]
            tag = rng.integers(0, 2, len(d))
            straddles += np.count_nonzero((np.diff(d) > 0) & (np.diff(w) == 0))
            hits = d, w, block, tag
            points = coset_table(4).reshape(-1, 4)[(w << 2) + block]
            groups = _block_groups(f, dual_table, lo, hi, d, w, points, tag)
            rows, owner = groups[4:6]
            repeats += np.count_nonzero((np.diff(owner) == 0) & (np.diff(rows) == 0))
            for b, shift_hits, got in split_block(lo, hi, hits, groups, 4):
                _, want = reference_shift_groups(f, None, dual_table, b, shift_hits)
                for x, y in zip(got, want):
                    assert x.shape == y.shape and np.array_equal(x, y), b
    assert straddles > 0 and repeats > 0


def test_shift_blocks_are_aligned_and_capped():
    starts = [(0, 1), (1, 2), (2, 4), (4, 8), (8, 16), (16, 32), (32, 64)]
    assert list(_shift_blocks(6)) == starts
    # the six leading blocks, then seven of 32 shifts
    assert list(_shift_blocks(8)) == starts + [(lo, lo + 32) for lo in range(64, 256, 32)]
    for n in (2, 4, 6, 8):
        blocks = list(_shift_blocks(n))
        assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == 1 << n
        for lo, hi in blocks:
            size = hi - lo
            assert size & (size - 1) == 0 and size <= _BLOCK and lo % size == 0


def test_tabulated_shift_parities_match_direct_n8():
    # packed u_b | (b.r) << m, from the subspace basis and the coset
    # representative of every cell
    n, m = 8, 4
    cells = _coset_cells(dual(published_bent8("delta0_mix")).table, n)
    perm = coset_table(n)
    basis = perm[cells.w_idx[:, None], 1 << np.arange(m)].astype(np.int64)
    rep = perm[cells.w_idx, cell_blocks(cells, n) << m].astype(np.int64)
    assert cells.unit.dtype == np.uint8 and cells.unit.shape == (n, len(cells.u))
    for b in range(1 << n):
        u_b = (_parity_array(basis & b).astype(np.int64) << np.arange(m)).sum(axis=1)
        assert np.array_equal(_unit_xor(cells.unit, b), u_b | _parity_array(rep & b) << m), b


def reference_coset_cells(dual_table: np.ndarray, n: int):
    """The cells from a per-point gather of f* through the whole coset
    table, each run of 2^m values packed into a word bit by bit; each
    cell's points are its block of the table.  Returns the cells and each
    cell's block."""
    m = n // 2
    size = 1 << m
    perm = coset_table(n)
    spectra = _coset_wht(m)
    near = (np.abs(spectra) >= size - 2).any(axis=1)
    words = packed_words(dual_table[perm].reshape(-1, size))
    cosets = np.flatnonzero(near[words])
    spec = spectra[words[cosets]]
    row, u = np.nonzero(np.abs(spec) >= size - 2)
    w_idx, block = np.divmod(cosets[row], size)
    j = np.arange(n, dtype=np.uint8)[:, None]
    basis = perm[w_idx[:, None], 1 << np.arange(m)]
    unit = ((perm[w_idx, block << m] >> j) & 1) << m
    for k in range(m):
        unit |= ((basis[:, k] >> j) & 1) << k
    return _CosetCells(
        w_idx=w_idx.astype(np.int32),
        u=u.astype(np.uint8),
        spectrum=spec[row, u].astype(np.int8),
        unit=unit,
        points=perm.reshape(-1, size)[cosets[row]],
    ), block


def random_balanced_h(m: int, rng: random.Random) -> BooleanFunction:
    """A random balanced h on m variables with h(0) = 0, as `ps_ap` takes."""
    h = np.zeros(1 << m, dtype=np.uint8)
    h[rng.sample(range(1, 1 << m), 1 << (m - 1))] = 1
    return BooleanFunction(m, h)


def coset_cell_inputs() -> list[BooleanFunction]:
    """Bent functions, whose duals the pass reads, then tables that stand
    in for a dual: two seeded random non-bent ones per n, and at n <= 6 the
    constants, whose halves are all affine, so each pair is reachable from
    both halves and must be kept once.  At n = 8 the bent ones are the
    families the benchmark feeds the pass: the published three and their
    disguises, disguised random MM functions of degree >= 3, and disguised
    ps_ap(4, h), h fixed or random and balanced."""
    x1x2 = BooleanFunction(2, [0, 0, 0, 1])
    rng = random.Random(7)
    n8 = [published_bent8(name) for name in PUBLISHED]
    n8 += [ea_disguise(f, rng) for f in n8 for _ in range(2)]
    n8 += [ea_disguise(ps_ap4(), rng) for _ in range(2)]
    rng = random.Random(13)
    mm = [random_mm(4, rng) for _ in range(2)]
    assert all(algebraic_degree(f) >= 3 for f in mm)
    n8 += [ea_disguise(f, rng) for f in mm]
    n8.append(ea_disguise(ps_ap(4, random_balanced_h(4, rng)), rng))
    rng = random.Random(11)
    tables = []
    for n in (2, 4, 6, 8):
        drawn = [random_function(n, rng) for _ in range(8)]
        tables += [f for f in drawn if not is_bent(f)][:2]
    tables += [BooleanFunction(n, [c] * (1 << n)) for n in (2, 4, 6) for c in (0, 1)]
    return [x1x2, x1x2 ^ 1] + oracle_functions(4) + oracle_functions(6) + n8 + tables


@pytest.mark.parametrize("f", coset_cell_inputs(), ids=lambda f: f"n{f.n}-{f.digest()[:8]}")
def test_coset_cells_match_per_point_reference(f):
    dual_table = dual(f).table if is_bent(f) else f.table
    got = _coset_cells(dual_table, f.n)
    want, block = reference_coset_cells(dual_table, f.n)
    for name in ("w_idx", "u", "spectrum", "unit", "points"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name
    assert np.array_equal(cell_blocks(got, f.n), block)


def parseval_inputs() -> list[BooleanFunction]:
    """Bent inputs at n = 6 and 8: the oracle functions, seeded random MM
    functions, the published three, their duals, disguises of both, and
    plain and disguised ps_ap(4, h)."""
    rng = random.Random(31)
    n8 = [published_bent8(name) for name in PUBLISHED]
    n8 += [dual(f) for f in n8]
    n8 += [ea_disguise(f, rng) for f in n8]
    n8 += [ps_ap4(), ea_disguise(ps_ap4(), rng)]
    mm = [random_mm(m, rng) for m in (3, 3, 4, 4)]
    return oracle_functions(6) + mm + [ea_disguise(f, rng) for f in mm] + n8


def cell_pairs(f: BooleanFunction) -> np.ndarray:
    """(w_idx, u) of every cell of the pass on f's dual, one key each."""
    cells = _coset_cells(dual(f).table, f.n)
    return cells.w_idx * (1 << f.n // 2) + cells.u


def test_one_cell_per_subspace_and_u_on_bent_inputs():
    # Parseval on f* restricted to the cosets of W: sum_r S_(W,r)(u)^2 = 2^n
    # for bent f, and a cell has S^2 >= (2^m - 2)^2 > 2^n / 2 at m >= 3, so
    # at n >= 6 one coset of W at most is a cell for each u, and a sweep
    # shift has at most one hit per subspace
    for f in parseval_inputs():
        keys = cell_pairs(f)
        assert len(keys) > 0 and len(np.unique(keys)) == len(keys), f.digest()
    # at n = 4, (2^m - 2)^2 = 4 < 8: ps_ap(2, h) has two cells of one
    # subspace with one u, so a shift may hit a subspace twice there
    keys = cell_pairs(ps_ap(2, BooleanFunction(2, [0, 1, 1, 0])))
    assert len(np.unique(keys)) < len(keys)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_half_words_match_per_point_packing(n):
    # both halves of every coset word of a random table, not only of the
    # near-affine words that the cells keep: the word of row
    # first + d_0 step at block k has half 0 at block k and half 1 at block
    # k + d_0 of its prefix row, and these rows tile the subspace index
    m = n // 2
    table = random_function(n, random.Random(n)).table
    perm = coset_table(n)
    values = table[perm].reshape(len(perm), 1 << m, 1 << (m - 1), 2)  # (row, block, c', c_0)
    want = [
        packed_words(values[..., h].reshape(-1, 1 << (m - 1))).reshape(len(perm), -1) for h in (0, 1)
    ]
    blocks = np.arange(1 << m)
    rows = []
    for fan, first, step, words in _half_words(table, n):
        assert words.dtype == np.uint8 and words.shape == (len(first), 2, 1 << m)
        for d in range(fan):
            row = first + d * step
            assert np.array_equal(words[:, 0], want[0][row]), d
            assert np.array_equal(words[:, 1, blocks ^ d], want[1][row]), d
            rows.append(row)
    assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(len(perm)))


def test_coset_cells_peak_memory_n8():
    # once the per-dimension tables exist, the pass holds the half-words of
    # every pivot set (0.43 MB) and joins 1,024 prefix rows of them at a
    # time: 1.4 MiB traced, the kept cells' points (0.24 MB) included
    dual_table = dual(published_bent8("delta0_mix")).table
    _coset_cells(dual_table, 8)
    tracemalloc.start()
    try:
        _coset_cells(dual_table, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_coset_wht_cold_build_matches_butterfly_in_small_memory(m):
    # a cold build peaks at 3.1 MiB at m = 4: the words' bits, then their
    # int8 signs transformed in place; the sweep at n = 2m + 2 reads m
    _coset_wht.cache_clear()
    tracemalloc.start()
    try:
        spectra = _coset_wht(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    size = 1 << m
    words = np.arange(1 << size)
    bits = (words[:, None] >> np.arange(size)) & 1
    want = 1 - 2 * bits
    h = 1
    while h < size:  # per-word fast WHT: S(u) = sum_j (-1)^(w_j + u.j)
        x = want.reshape(len(words), -1, 2, h)
        want = np.stack([x[:, :, 0] + x[:, :, 1], x[:, :, 0] - x[:, :, 1]], axis=2)
        h *= 2
    assert spectra.dtype == np.int8 and np.array_equal(spectra, want.reshape(len(words), size))
    # Hamming distance from the nearest affine word u.j + c: at most 1 iff
    # some |S| >= 2^m - 2, and 0 iff some |S| = 2^m
    affine = (_parity_array(np.arange(size)[:, None] & np.arange(size)) << np.arange(size)).sum(1)
    affine = np.concatenate([affine, affine ^ words[-1]])
    dist = np.bitwise_count(words[:, None] ^ affine).min(axis=1)
    assert np.array_equal((np.abs(spectra) >= size - 2).any(axis=1), dist <= 1)
    assert np.array_equal((np.abs(spectra) == size).any(axis=1), dist == 0)


def test_ps_sharp_sweep_peak_memory_n8():
    # with the per-dimension tables built (the index, the cell pass's merge
    # schedule and the half-word spectra), a sweep holds the cell pass's
    # arrays, then one block's tables at a time.  With blocks of 32 shifts
    # the exhaustive delta0_mix sweep peaks at 1.83 MiB (1.42 MiB with 16,
    # 6.2 MiB with one block of 128), and a ps_ap4 disguise whose first
    # witness is at shift 53, in the block 32 .. 63, at 1.32 MiB.  That
    # holds because the block's hit table is compared in place, the group
    # keys are built in one buffer, `_coverage` gathers 1,024 rows at a
    # time, the probe keeps few groups and only the groups that pass the
    # coverage test build the padded clique-stage arrays
    inputs = [
        (ea_disguise(published_bent8("delta0_mix"), random.Random("delta0_mix")), None),
        (ea_disguise(ps_ap4(), random.Random(29)), 53),
    ]
    _row_index(8)
    _merge_schedule(8)
    _coset_wht(3)
    for g, shift in inputs:
        tracemalloc.start()
        try:
            w = is_in_ps_sharp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (None if w is None else w.shift) == shift
        assert peak < 2 << 20, (shift, peak)


SWEEP_IMPORTS = """
import sys
from bentforge.boolfun import BooleanFunction
from bentforge.fixtures import published_bent8
from bentforge.psclass import is_in_ps_sharp, is_partial_spread, ps_ap

f = ps_ap(4, BooleanFunction(4, [0] + [1] * 8 + [0] * 7))
assert is_partial_spread(f) is not None and is_in_ps_sharp(f) is not None
assert is_in_ps_sharp(published_bent8("delta0_mix")) is None
swept = "numpy.ma" in sys.modules
import numpy as np

np.unique([1, 0])
print(swept, "numpy.ma" in sys.modules)
"""


def test_sweep_leaves_numpy_ma_unimported():
    # np.unique's first call imports numpy.ma, about 8 ms in a fresh
    # process, which every cold sweep would pay; the PS test and the
    # sweeps, a witness found and one exhaustive, in a fresh interpreter
    src = str(Path(psclass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", SWEEP_IMPORTS], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["False", "True"], run.stdout


def reference_first_witness(f: BooleanFunction):
    """The first witness in (b, a) order from the per-shift pass and the
    per-group clique stage, one shift at a time."""
    n = f.n
    dual_table = dual(f).table
    cells = _coset_cells(dual_table, n)
    for b in range(1 << n):
        _, (a, tag, need, rows, bounds) = reference_shift_groups(f, cells, dual_table, b)
        for g in range(len(need)):
            group = rows[bounds[g] : bounds[g + 1]]
            _, clique = reference_group_clique(group, n, int(need[g]))
            if clique is None:
                continue
            subspaces = tuple(orthogonal_complement(_midspace(n, int(group[j]))) for j in clique)
            inner = PartialSpreadWitness("PS_plus" if tag[g] else "PS_minus", subspaces)
            w = PsSharpWitness(b, int(a[g]), int(f.table[b]) ^ int(tag[g]), inner)
            if _witness_holds(f, w):
                return w
    return None


# seeds of ea_disguise(ps_ap4()) by the shift of their first witness: the
# edges of the blocks [2, 3], [4..7], [8..15], [16..31], [32..63] and
# [64..95], and shifts inside [16..31] and [32..63]
WITNESS_SHIFT_SEEDS = {
    1: 89, 2: 39, 3: 436, 4: 523, 7: 44, 8: 81, 15: 136, 16: 133, 17: 82, 31: 7, 32: 241,
    53: 29, 63: 107, 64: 171,
}


@pytest.mark.parametrize("shift, seed", WITNESS_SHIFT_SEEDS.items())
def test_ps_sharp_block_edges_keep_first_witness_and_progress(shift, seed):
    g = ea_disguise(ps_ap4(), random.Random(seed))
    want = reference_first_witness(g)
    assert want is not None and want.shift == shift
    seen = []
    assert is_in_ps_sharp(g, progress=seen.append) == want
    assert seen == list(range(shift))


def block_size_inputs() -> list[BooleanFunction]:
    """The published functions, the WITNESS_SHIFT_SEEDS disguises and
    seeded random MM functions at n = 6 and 8."""
    rng = random.Random("block-size")
    published = [published_bent8(name) for name in PUBLISHED]
    disguises = [ea_disguise(ps_ap4(), random.Random(s)) for s in WITNESS_SHIFT_SEEDS.values()]
    mm = [random_mm(m, rng) for m in (3, 3, 3, 4, 4)]
    return published + disguises + mm + [ea_disguise(f, rng) for f in mm]


def test_ps_sharp_independent_of_block_size(monkeypatch):
    # the blocks only batch the shifts: the first witness and the shifts
    # reported before it are the same however many shifts a block holds
    results = {}
    for block in (8, 16, 32):
        monkeypatch.setattr(psclass, "_BLOCK", block)
        got = []
        for f in block_size_inputs():
            seen = []
            w = is_in_ps_sharp(f, progress=seen.append)
            got.append((None if w is None else w.as_dict(), seen))
        results[block] = got
    assert results[8] == results[16] == results[32]
    disguised = results[32][len(PUBLISHED) : len(PUBLISHED) + len(WITNESS_SHIFT_SEEDS)]
    assert [w["shift"] for w, _ in disguised] == list(WITNESS_SHIFT_SEEDS)


def hit_count_inputs() -> list[BooleanFunction]:
    """Bent inputs: at n = 8 the published functions, random MM functions
    and ps_ap4 disguises, at n = 6 random MM functions."""
    rng = random.Random("hit-count")
    n8 = [published_bent8(name) for name in PUBLISHED]
    n8 += [ea_disguise(random_mm(4, rng), rng) for _ in range(5)]
    n8 += [ea_disguise(ps_ap4(), rng) for _ in range(3)]
    return n8 + [ea_disguise(random_mm(3, rng), rng) for _ in range(10)]


@pytest.mark.parametrize("f", hit_count_inputs(), ids=lambda f: f"n{f.n}-{f.digest()[:8]}")
def test_every_cell_hits_once_or_at_a_whole_coset_of_shifts(f):
    # Restriction duality: f* is within distance 1 of affine on r + W
    # exactly when f is on a coset of W-perp, and the cell hits at the
    # shifts b where that coset may have its odd point, the one point
    # where f differs from an affine function.  With |S| = 2^m - 2 the odd
    # point is unique, so the cell hits at one shift; with |S| = 2^m, f is
    # affine on the coset and each of its 2^(n-m) points is a hit shift
    n, m = f.n, f.n // 2
    cells = _coset_cells(dual(f).table, n)
    hits = np.zeros(len(cells.u), dtype=np.intp)
    for lo, hi in _shift_blocks(n):
        _, c, tag = _block_hits(f, cells, lo, hi)
        assert np.array_equal(tag, np.abs(cells.spectrum[c]) == 1 << m)
        hits += np.bincount(c, minlength=len(hits))
    size = np.abs(cells.spectrum.astype(np.intp))
    assert np.all((size == (1 << m) - 2) | (size == 1 << m))
    assert np.array_equal(hits, np.where(size == 1 << m, 1 << (n - m), 1))


def direct_witnesses_at(f: BooleanFunction, b: int):
    """The smallest a with f(x + b) + a.x + c in PS for some c, tested
    directly, and the PS witness of each c that passes there; or None."""
    for a in range(1 << f.n):
        found = {}
        for c in (0, 1):
            w = is_partial_spread(ea_image(f, None, b, a, c))
            if w is not None:
                found[c] = w
        if found:
            return a, found
    return None


def first_direct_witness(f: BooleanFunction):
    """Smallest (b, a) with f(x + b) + a.x + c in PS for some c, tested
    directly, with the witness of each c that passes there."""
    for b in range(1 << f.n):
        got = direct_witnesses_at(f, b)
        if got is not None:
            return (b, *got)
    return None


def assert_dillon_degree(w: PartialSpreadWitness, n: int) -> None:
    """A PS- witness rebuilds a function of degree n/2 (Dillon).  n = 2 is
    exempt: every bent function there is quadratic."""
    if w.subclass == "PS_minus" and n >= 4:
        assert algebraic_degree(w.reconstruct()) == n // 2


def disguised_random_spreads_n6() -> list[BooleanFunction]:
    """One PS- and one PS+ random partial spread on 6 variables, each
    EA-disguised with a random shift."""
    rng = random.Random(6)
    return [ea_disguise(random_partial_spread(6, rng, plus=plus), rng) for plus in (False, True)]


@pytest.mark.parametrize(
    "f",
    oracle_functions(2) + oracle_functions(4) + oracle_functions(6) + disguised_random_spreads_n6(),
    ids=lambda f: f"n{f.n}-{f.digest()[:8]}",
)
def test_ps_sharp_matches_exhaustive_direct_tests(f):
    w = is_in_ps_sharp(f)
    first = first_direct_witness(f)
    assert (w is None) == (first is None)
    if w is not None:
        b, a, found = first
        assert (w.shift, w.affine) == (b, a) and w.constant in found
        assert w.inner.reconstruct() == ea_image(f, None, w.shift, w.affine, w.constant)
        for inner in (w.inner, *found.values()):
            assert_dillon_degree(inner, f.n)


@pytest.mark.parametrize("plus", [False, True], ids=["PS_minus", "PS_plus"])
@pytest.mark.parametrize("draw", range(3))
def test_ps_sharp_at_shift_zero_matches_direct_search_n6(plus, draw):
    # f(Ax) + a.x + c with f in PS has a witness at b = 0, so the sweep
    # stops there, at the first a that a direct test of all (a, c) finds
    rng = random.Random(3000 + 1000 * plus + draw)
    g = ea_disguise(random_partial_spread(6, rng, plus=plus), rng, shifted=False)
    w = is_in_ps_sharp(g)
    a, found = direct_witnesses_at(g, 0)
    assert (w.shift, w.affine) == (0, a) and w.constant in found
    assert _witness_holds(g, w)


# One representative of each of the four EA classes of bent functions on 6
# variables, by k, its number of 3-dimensional M-subspaces, with its PS#
# verdict: PS- or PS+ at shift 0, or none.  oracle_functions(6) starts with
# ps_ap(3, h) (k = 1) and the quadratic MM function (k = 135); seeded
# random MM functions stand for the other two.
EA_CLASSES_N6 = {
    1: (oracle_functions(6)[0], "PS_minus"),
    5: (random_mm(3, random.Random(0)), "PS_plus"),
    15: (random_mm(3, random.Random(3)), None),
    135: (oracle_functions(6)[1], None),
}


@pytest.mark.parametrize("k", EA_CLASSES_N6)
def test_ps_sharp_verdicts_of_the_four_ea_classes_n6(k):
    f, subclass = EA_CLASSES_N6[k]
    assert msubspace_profile(f).counts[3] == k
    w = is_in_ps_sharp(f)
    if subclass is None:
        assert w is None
    else:
        assert (w.shift, w.inner.subclass) == (0, subclass)
        assert _witness_holds(f, w)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("draw", range(3))
def test_random_partial_spreads_are_found(n, draw):
    # PS- functions from greedy random partial spreads, not only the
    # Desarguesian ones of ps_ap
    rng = random.Random(1000 * n + draw)
    assert_partial_spread_found(random_partial_spread(n, rng), "PS_minus", rng)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("draw", range(3))
def test_random_plus_partial_spreads_are_found(n, draw):
    # PS+ ones, 0 and 2^(n/2-1) + 1 random subspaces, where the sweep's
    # probe prunes the most
    rng = random.Random(2000 * n + draw)
    assert_partial_spread_found(random_partial_spread(n, rng, plus=True), "PS_plus", rng)


def assert_partial_spread_found(f: BooleanFunction, subclass: str, rng: random.Random) -> None:
    """f is bent of degree n/2, is_partial_spread rebuilds it as subclass,
    and the PS# sweep finds a witness after an EA disguise and on the
    disguise's dual, itself in PS#; every PS- witness among them rebuilds
    a function of degree n/2."""
    n = f.n
    assert is_bent(f)
    assert algebraic_degree(f) == n // 2
    w = is_partial_spread(f)
    assert w is not None and w.subclass == subclass and w.reconstruct() == f
    assert_dillon_degree(w, n)
    g = ea_disguise(f, rng)
    w = is_in_ps_sharp(g)
    assert w is not None and _witness_holds(g, w)
    assert_dillon_degree(w.inner, n)
    w = is_in_ps_sharp(dual(g))
    assert w is not None
    assert_dillon_degree(w.inner, n)


@pytest.mark.parametrize("name", PUBLISHED)
def test_ps_sharp_verdict_invariant_under_duality_and_linear_maps(name):
    # PS# is closed under f -> f* and under f(x) -> f(Ax); 24 and 0 groups
    # pass the coverage test in the published ones' sweeps
    f = published_bent8(name)
    A = random_invertible(8, random.Random(8))
    verdict = is_in_ps_sharp(f) is not None
    assert (is_in_ps_sharp(dual(f)) is not None) == verdict
    assert (is_in_ps_sharp(ea_image(f, A)) is not None) == verdict


# ---------------------------------------------------------------------------
# the subspace index and what is derived from it
# ---------------------------------------------------------------------------

def reference_coset_table(n: int, step: int = 1) -> np.ndarray:
    """Every step-th coset-table row by minimal-representative search: each
    point's coset minimum over all 2^m elements, the distinct minima sorted."""
    m = n // 2
    subspaces = itertools.islice(enumerate_subspaces(n, m), 0, None, step)
    basis = np.array([U.basis for U in subspaces], dtype=np.int16)
    elems = np.zeros((len(basis), 1 << m), dtype=np.int16)
    for j in range(m):
        elems[:, 1 << j : 2 << j] = elems[:, : 1 << j] ^ basis[:, j : j + 1]
    pts = np.arange(1 << n, dtype=np.int16)
    reps = np.min(elems[:, None, :] ^ pts[None, :, None], axis=2)
    firsts = np.sort(reps, axis=1)[:, :: 1 << m]  # each minimum appears 2^m times
    return (firsts[:, :, None] ^ elems[:, None, :]).reshape(len(basis), 1 << n).astype(np.uint8)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_coset_table_matches_min_representative_reference(n):
    # the test-side table the oracles read, every block from `_coset_points`
    table = coset_table(n)
    assert table.dtype == np.uint8
    assert table.tobytes() == reference_coset_table(n).tobytes()


def test_coset_table_matches_reference_on_sampled_rows_n8():
    assert np.array_equal(coset_table(8)[::97], reference_coset_table(8, step=97))


def test_coset_table_bases_follow_enumeration_order_n8():
    # every row, since the row order fixes which PS# witness is found first
    want = np.array([U.basis for U in enumerate_subspaces(8, 4)], dtype=np.uint8)
    basis = _row_index(8)[0]
    assert basis.dtype == np.uint8 and np.array_equal(basis, want)


def test_row_index_build_peak_memory_n8():
    # 1.3 MiB traced: the 1.0 MB index plus one pivot set's digits
    _row_index.cache_clear()
    tracemalloc.start()
    try:
        _row_index(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def cache_nbytes(value) -> int:
    """Bytes held by the arrays in a cache, however they are nested."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(cache_nbytes(v) for v in value)
    return 0


def test_per_dimension_caches_stay_small_after_warmup_sweep(monkeypatch):
    # ps_ap4() is the benchmark's warm-up function.  1.16 MB after its
    # sweep: the index (1.0 MB at n = 8), the cell pass's merge schedule
    # (0.14 MB, its row orders uint16), the pivot sets (10 kB), the spectra
    # of the 8-bit half-words (2 kB) and the one-point words of the
    # coverage test (8 kB).  Every cached function of the module is
    # counted, each called through a spy that records its arguments, so
    # the cached values can be read back afterwards.
    cached = {name: v for name, v in vars(psclass).items() if hasattr(v, "cache_info")}
    tables = {"_pivot_sets", "_row_index", "_merge_schedule", "_coset_wht", "_point_words"}
    assert tables <= set(cached)
    calls = {name: set() for name in cached}

    def spy(name, fn):
        def call(*args):
            calls[name].add(args)
            return fn(*args)

        return call

    for name, fn in cached.items():
        fn.cache_clear()
        monkeypatch.setattr(psclass, name, spy(name, fn))
    assert is_in_ps_sharp(ps_ap4()) is not None
    for name, fn in cached.items():
        assert fn.cache_info().currsize == len(calls[name]) == 1, (name, calls[name])
    total = sum(cache_nbytes(fn(*args)) for name, fn in cached.items() for args in calls[name])
    assert total < 1_500_000, total


@pytest.mark.parametrize("name", ["delta0_mix", "apn_family"])
def test_ps_candidates_match_coset_table_and_peak_memory_n8(name):
    # 0.8 MiB traced: one element per row at a time (3.1 MiB through a
    # (rows, 15) slice of the coset table)
    f = ea_disguise(published_bent8(name), random.Random(name))
    want = np.flatnonzero(f.table[coset_table(8)[:, 1:16]].all(axis=1)).tolist()
    tracemalloc.start()
    try:
        got = ps_candidates(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("n", [4, 6])
def test_midspace_reads_enumeration_order(n):
    subspaces = list(enumerate_subspaces(n, n // 2))
    assert [_midspace(n, i) for i in range(len(subspaces))] == subspaces


@pytest.mark.parametrize("n", [4, 6])
def test_ps_candidates_match_mask_containment(n):
    subspaces = list(enumerate_subspaces(n, n // 2))
    for f in oracle_functions(n):
        want = [i for i, U in enumerate(subspaces) if all(f.table[e] for e in U.elements() if e)]
        assert ps_candidates(f) == want


def literal_clique_candidates(f: BooleanFunction) -> set[tuple[int, ...]]:
    """The published candidate search, literally: the size-2^(n/2) cliques
    of the graph on the support of f (and 0), with v ~ w iff f(v + w) = 1,
    that form a vector space, as RREF bases.  Exponential; a reference for
    small n only."""
    n = f.n
    support = [int(x) for x in np.flatnonzero(f.table)]
    vertices = support if f(0) else [0] + support
    adj = {v: {w for w in vertices if w != v and f.table[v ^ w]} for v in vertices}
    target = 1 << (n // 2)
    out: set[tuple[int, ...]] = set()

    def grow(clique: list[int], cand: list[int]):
        if len(clique) == target:
            elems = set(clique)
            if 0 in elems and all(a ^ b in elems for a in elems for b in elems):
                out.add(span(list(elems), n).basis)
            return
        for i, v in enumerate(cand):
            if len(clique) + len(cand) - i < target:
                break
            grow(clique + [v], [w for w in cand[i + 1 :] if w in adj[v]])

    grow([], sorted(vertices))
    return out


LITERAL_SEARCH_INPUTS = {
    "ps-ap-n4": ps_ap(2, BooleanFunction(2, [0, 1, 1, 0])),
    "ps-ap-n6": ps_ap(3, balanced_h3()),
    "mm-n6": random_mm(3, random.Random(4)),
    "disguised-ps-ap-n6": ea_disguise(ps_ap(3, balanced_h3()), random.Random(6)),
}


@pytest.mark.parametrize("name", LITERAL_SEARCH_INPUTS)
def test_ps_candidates_match_literal_clique_search(name):
    f = LITERAL_SEARCH_INPUTS[name]
    literal = literal_clique_candidates(f)
    assert {_midspace(f.n, i).basis for i in ps_candidates(f)} == literal
    witness = is_partial_spread(f)
    if name.startswith("ps-ap"):
        # the PS_ap control: accepted as PS- with a witness that rebuilds f
        assert witness is not None and witness.subclass == "PS_minus"
        assert witness.reconstruct() == f
        assert set(witness.subspaces) <= {span(list(b), f.n) for b in literal}
    elif name == "mm-n6":
        assert witness is None


# ---------------------------------------------------------------------------
# the clique stage on subspace-index rows
# ---------------------------------------------------------------------------

def nonzero_membership(subspaces, n: int) -> np.ndarray:
    out = np.zeros((len(subspaces), 1 << n))
    for i, U in enumerate(subspaces):
        out[i, [e for e in U.elements() if e]] = 1
    return out


@pytest.mark.parametrize("n", [4, 6])
def test_midspaces_meet_in_zero_iff_complements_do(n):
    # (W1 + W2)-perp = W1-perp & W2-perp, so the sweep may search the W
    subspaces = list(enumerate_subspaces(n, n // 2))
    own = nonzero_membership(subspaces, n)
    perp = nonzero_membership([orthogonal_complement(U) for U in subspaces], n)
    disjoint = own @ own.T == 0
    assert disjoint.any()
    assert np.array_equal(disjoint, perp @ perp.T == 0)


def first_disjoint_subset(rows, n: int, s: int):
    """Positions of the first s-subset of rows, in combinations order, whose
    subspaces pairwise intersect in 0."""
    spaces = [_midspace(n, r) for r in rows]
    meets = {
        (i, j): intersect(spaces[i], spaces[j]).dim > 0
        for i, j in itertools.combinations(range(len(rows)), 2)
    }
    for combo in itertools.combinations(range(len(rows)), s):
        if not any(meets[pair] for pair in itertools.combinations(combo, 2)):
            return list(combo)
    return None


@pytest.mark.parametrize("n, lists", [(6, 60), (8, 6)])
def test_disjoint_clique_matches_brute_force(n, lists):
    rng = random.Random(n)
    count = len(_row_index(n)[0])
    outcomes = set()
    for _ in range(lists):
        rows = rng.sample(range(count), rng.randrange(2, 15))
        s = rng.randrange(2, 6)
        want = first_disjoint_subset(rows, n, s)
        zeros = np.zeros(len(rows), dtype=np.intp)
        pairs = zeros, np.arange(len(rows))
        got = dict(_bounded_cliques(np.array(rows), zeros, pairs, np.array([s]), n))
        assert got.get(0) == (None if want is None else [rows[i] for i in want]), (rows, s)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def reference_group_clique(rows, n: int, s: int):
    """The clique stage of one group on its own: membership and Gram matrix
    of its rows and the degree bound, then the package's branch and bound,
    whose oracle is `test_disjoint_clique_matches_brute_force`.  Returns
    (kept by the bound, first clique or None)."""
    L = len(rows)
    if L < s:
        return False, None
    members = np.zeros((L, 1 << n), dtype=np.float32)
    members[np.arange(L)[:, None], coset_table(n)[rows, 1 : 1 << (n // 2)]] = 1
    disjoint = members @ members.T == 0
    if np.count_nonzero(disjoint.sum(axis=1) >= s - 1) < s:
        return False, None
    return True, _disjoint_clique(disjoint, s)


def sweep_groups(f: BooleanFunction):
    """Per sweep block of f, its lo and its viable groups as the clique
    stage takes them: (lo, need, rows, owner, pairs)."""
    dual_table = dual(f).table
    cells = _coset_cells(dual_table, f.n)
    for lo, hi in _shift_blocks(f.n):
        d, c, tag = _block_hits(f, cells, lo, hi)
        _, _, _, need, rows, owner, pairs = _block_groups(
            f, dual_table, lo, hi, d, cells.w_idx[c], cells.points[c], tag
        )
        yield lo, need, rows, owner, pairs


def unpruned_groups(f: BooleanFunction):
    """Per shift b of f's sweep, b and its viable groups without the probe,
    from the per-shift pass, as the clique stage takes them: (b, need,
    rows, owner, pairs), each group with its own rows, in one batch."""
    dual_table = dual(f).table
    cells = _coset_cells(dual_table, f.n)
    for b in range(1 << f.n):
        _, (_, _, need, rows, bounds) = reference_shift_groups(f, cells, dual_table, b, probe=False)
        group = np.repeat(np.arange(len(need)), np.diff(bounds))
        yield b, need, rows, np.zeros(len(rows), dtype=np.intp), (group, np.arange(len(rows)))


def batched_and_reference_cliques(f: BooleanFunction, groups=sweep_groups):
    """Per sweep block (or per shift, for unpruned_groups), the groups the
    clique stage yields with their cliques (as rows), and the groups the
    per-group reference keeps by the degree bound alone with theirs."""
    total = 0
    for lo, need, rows, owner, pairs in groups(f):
        members, bounds = csr_groups(need, rows, pairs)
        want = {}
        for g in range(len(need)):
            group = members[bounds[g] : bounds[g + 1]]
            kept, clique = reference_group_clique(group, f.n, int(need[g]))
            if kept:
                want[g] = None if clique is None else group[clique].tolist()
        total += len(need)
        yield lo, dict(_bounded_cliques(rows, owner, pairs, need, f.n)), want
    assert total > 0


def assert_cliques_match_reference(got: dict, want: dict, where) -> int:
    """The clique stage against the reference, which has no coverage test:
    it yields only groups the reference keeps, each with the reference's
    clique or None, and a kept group it drops has no clique.  Returns the
    number of groups it drops."""
    assert set(got) <= set(want), where
    for g, clique in got.items():
        assert clique == want[g], (where, g)
    dropped = set(want) - set(got)
    assert all(want[g] is None for g in dropped), (where, dropped)
    return len(dropped)


@pytest.mark.parametrize(
    "layout",
    [
        pytest.param([0, 1, 3, 4], id="gap"),
        pytest.param([5, 6, 7], id="late"),  # no group in batches 0 .. 4
        pytest.param([0], id="single"),
        pytest.param([0, 2, 4, 6], id="alternating"),
        pytest.param([7], id="last"),  # one batch after seven empty ones, as on delta0_mix
    ],
)
def test_batched_degree_bound_matches_per_group_reference_on_random_groups(layout):
    # many overlapping groups of random rows in one call, each with its own
    # s, spread over the layout's batches; the stacked matrices hold a block
    # only for each batch with a group that passes the coverage test
    rng = random.Random(66)
    count = len(_row_index(6)[0])
    groups = [sorted(rng.sample(range(count), rng.randrange(2, 15))) for _ in range(300)]
    need = np.array([rng.randrange(2, 6) for _ in groups])
    batch = np.sort([rng.choice(layout) for _ in groups])
    listed = [(b, r) for b, group in zip(batch, groups) for r in group]
    keys, index = np.unique(listed, axis=0, return_inverse=True)
    pairs = np.repeat(np.arange(len(groups)), [len(g) for g in groups]), index.ravel()
    want = {}
    for g, group in enumerate(groups):
        kept, clique = reference_group_clique(np.array(group), 6, int(need[g]))
        if kept:
            want[g] = None if clique is None else [group[i] for i in clique]
    got = dict(_bounded_cliques(keys[:, 1], keys[:, 0], pairs, need, 6))
    assert got == want
    assert 0 < sum(c is None for c in got.values()) < len(got) < len(groups)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_batched_degree_bound_matches_per_group_reference(n):
    kept = 0
    for f in oracle_functions(n):
        for lo, got, want in batched_and_reference_cliques(f):
            assert_cliques_match_reference(got, want, (f.digest(), lo))
            kept += len(got)
    assert kept > 0


@pytest.mark.parametrize("name, some_kept", [("delta0_mix", True), ("transposed", False)])
def test_batched_degree_bound_matches_per_group_reference_n8(name, some_kept):
    # on this delta0_mix's unpruned groups the coverage test drops 6 of the
    # 14 groups the degree bound keeps, none of them with a clique; the
    # sweep's probe has already dropped those 6
    g = ea_disguise(published_bent8(name), random.Random(name))
    for groups, want_dropped in ((unpruned_groups, 6), (sweep_groups, 0)):
        kept = dropped = 0
        for lo, got, want in batched_and_reference_cliques(g, groups):
            dropped += assert_cliques_match_reference(got, want, lo)
            kept += len(got)
        assert (kept, dropped) == ((8, want_dropped) if some_kept else (0, 0))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_coverage_counts_the_union_of_group_subspaces(n):
    # seeded groups of index rows, pairs in shuffled order, with empty and
    # one-row groups; below n = 6 the points fill part of one word
    rng = random.Random(f"coverage-{n}")
    count = len(_row_index(n)[0])
    rows = np.array(sorted(rng.sample(range(count), min(count, 40))))
    lists = [rng.sample(range(len(rows)), rng.randrange(min(len(rows), 12) + 1)) for _ in range(80)]
    lists[:3] = [], [0], list(range(len(rows)))
    listed = [(g, i) for g, members in enumerate(lists) for i in members]
    rng.shuffle(listed)
    group, member = (np.array(x, dtype=np.intp) for x in zip(*listed))
    got = _coverage(coset_table(n)[rows, 1 : 1 << n // 2], (group, member), len(lists), n)
    want = [
        len({e for i in members for e in _midspace(n, int(rows[i])).elements() if e})
        for members in lists
    ]
    assert got.tolist() == want
    assert want[:2] == [0, (1 << n // 2) - 1] and len(set(want)) > 2


@pytest.mark.parametrize("name, passed, groups", [("delta0_mix", 24, 16241), ("transposed", 0, 22752)])
def test_coverage_pass_counts_n8(name, passed, groups):
    # the groups of a whole sweep whose subspaces can cover a partial
    # spread: as many among the unpruned groups as among the far fewer
    # that the sweep's probe keeps
    swept = {"delta0_mix": 2572, "transposed": 64}[name]
    f = published_bent8(name)
    for source, total in ((unpruned_groups, groups), (sweep_groups, swept)):
        counts = np.zeros(2, dtype=np.intp)
        for _, need, rows, _, pairs in source(f):
            covered = _coverage(coset_table(8)[rows, 1:16], pairs, len(need), 8)
            counts += np.count_nonzero(covered >= need * ((1 << 4) - 1)), len(need)
        assert counts.tolist() == [passed, total], source.__name__
