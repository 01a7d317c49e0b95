import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from bentforge.boolfun import BooleanFunction, _parity_array, dual, is_bent, zero_function
from bentforge.construct import mm_bent
from bentforge.fixtures import PUBLISHED, published_bent8
from bentforge.gf2 import (
    apply_linear,
    enumerate_subspaces,
    intersect,
    orthogonal_complement,
    random_invertible,
    span,
)
from bentforge.psclass import (
    CACHE_ENV,
    _coset_cells,
    _coset_table,
    _coset_wht,
    _CosetCells,
    _group_cliques,
    _head_index,
    _midspace,
    _shift_groups,
    _shifted_affine,
    _span_rows,
    _sweep_one_b,
    _unit_xor,
    is_in_ps_sharp,
    is_partial_spread,
    ps_ap,
    ps_candidates,
)
from bentforge.vectorial import identity_map


def balanced_h3() -> BooleanFunction:
    return BooleanFunction(3, [0, 1, 1, 0, 1, 0, 1, 0])


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


def test_witness_soundness():
    f = ps_ap(3, balanced_h3())
    w = is_partial_spread(f)
    assert w.reconstruct(6) == f
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
    assert w.reconstruct(6) == g


def test_is_partial_spread_rejects_non_bent():
    with pytest.raises(ValueError):
        is_partial_spread(zero_function(4))


def test_quadratic_not_partial_spread_directly():
    f = mm_bent(identity_map(3), zero_function(3))
    assert is_partial_spread(f) is None


def test_ps_sharp_identity_offset():
    f = ps_ap(3, balanced_h3())
    w = is_in_ps_sharp(f)
    assert w is not None
    assert (w.shift, w.affine, w.constant) == (0, 0, 0)


def test_ps_sharp_finds_disguise():
    f = ps_ap(3, balanced_h3())
    g = _shifted_affine(f, 0b100101, 0b010011, 1)
    w = is_in_ps_sharp(g)
    assert w is not None
    moved = _shifted_affine(g, w.shift, w.affine, w.constant)
    assert w.inner.reconstruct(6) == moved


def test_ps_sharp_consistency_audit(rng):
    # a sweep that returns none must agree with direct spot checks
    f = mm_bent(identity_map(3), zero_function(3))
    result = is_in_ps_sharp(f)
    assert result is None
    for _ in range(100):
        b, a, c = rng.randrange(64), rng.randrange(64), rng.randrange(2)
        g = _shifted_affine(f, b, a, c)
        assert is_partial_spread(g) is None


def test_ps_sharp_checkpoint_resume(tmp_path):
    f = mm_bent(identity_map(3), zero_function(3))
    path = tmp_path / "sweep.json"
    assert is_in_ps_sharp(f, resume=path) is None
    data = json.loads(path.read_text())
    assert data["finished"] and data["witness"] is None
    # a finished checkpoint short-circuits the whole sweep
    assert is_in_ps_sharp(f, resume=path) is None
    # a fresh partial checkpoint resumes mid-sweep
    path.write_text(json.dumps({**data, "next_b": 60, "finished": False}))
    assert is_in_ps_sharp(f, resume=path) is None


def test_ps_sharp_progress_reports_every_shift_before_the_witness():
    # the call shape of an outside caller: jobs (ignored), resume, progress;
    # n = 8, since the disguises of ps_ap(3, h) tried all have a witness at b = 0
    rng = random.Random(3)
    f = ps_ap(4, BooleanFunction(4, [0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]))
    A = random_invertible(8, rng)
    linear = BooleanFunction(8, f.table[[apply_linear(A, x) for x in range(256)]])
    g = _shifted_affine(linear, rng.randrange(1, 8), rng.randrange(256), rng.randrange(2))
    plain = is_in_ps_sharp(g)
    assert plain is not None and plain.shift > 0
    seen = []
    w = is_in_ps_sharp(g, jobs=1, resume=None, progress=seen.append)
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


def test_ps_sharp_truncated_checkpoint_recomputes(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    f = ps_ap(3, balanced_h3())
    g = _shifted_affine(f, 0b100101, 0b010011, 1)
    want = is_in_ps_sharp(g)
    path = tmp_path / f"ps_sharp_{g.digest()}.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.warns(UserWarning, match="unreadable PS# checkpoint"):
        got = is_in_ps_sharp(g)
    assert got == want
    assert json.loads(path.read_text())["witness"] == want.as_dict()


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: {k: v for k, v in d.items() if k != "next_b"},
        lambda d: {**d, "next_b": "60"},
        lambda d: {**d, "witness": {**d["witness"], "affine": d["witness"]["affine"] ^ 1}},
        lambda d: {**d, "witness": {"shift": 0}},
        lambda d: [d],
    ],
)
def test_ps_sharp_malformed_checkpoint_recomputes(tmp_path, edit):
    g = _shifted_affine(ps_ap(3, balanced_h3()), 5, 9, 0)
    path = tmp_path / "sweep.json"
    want = is_in_ps_sharp(g, resume=path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.warns(UserWarning, match="unreadable PS# checkpoint"):
        assert is_in_ps_sharp(g, resume=path) == want


def test_ps_sharp_ignores_checkpoint_of_other_version(tmp_path):
    # a finished negative record without the current version is not trusted
    g = _shifted_affine(ps_ap(3, balanced_h3()), 5, 9, 0)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"digest": g.digest(), "next_b": 64, "finished": True, "witness": None}))
    w = is_in_ps_sharp(g, resume=path)
    assert w is not None
    assert json.loads(path.read_text())["witness"] == w.as_dict()


# ---------------------------------------------------------------------------
# oracles for the sweep
# ---------------------------------------------------------------------------

def ea_disguise(f: BooleanFunction, rng: random.Random) -> BooleanFunction:
    """f(A(x + b)) + a.x + c for a random invertible A and random b, a, c."""
    n = f.n
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        if span(cols, n).dim == n:
            break
    idx = np.arange(1 << n)
    img = np.zeros(1 << n, dtype=np.int64)
    for j, col in enumerate(cols):
        img ^= ((idx >> j) & 1) * col
    linear = BooleanFunction(n, f.table[img])
    return _shifted_affine(linear, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(2))


def oracle_functions(n: int) -> list[BooleanFunction]:
    """PS_ap and quadratic MM on n variables, and three EA disguises of each."""
    m = n // 2
    h = balanced_h3() if m == 3 else BooleanFunction(2, [0, 1, 1, 0])
    base = [ps_ap(m, h), mm_bent(identity_map(m), zero_function(m))]
    rng = random.Random(n)
    return base + [ea_disguise(f, rng) for f in base for _ in range(3)]


def direct_coset_hits(f: BooleanFunction, dual_table: np.ndarray, b: int):
    """Per-shift hits by counting the ones of f* + b.x on every coset."""
    n = f.n
    m = n // 2
    perm = _coset_table(n)
    idx = np.arange(1 << n)
    phi = dual_table ^ _parity_array(idx & b)
    sums = phi[perm].reshape(perm.shape[0], 1 << m, 1 << m).sum(axis=2, dtype=np.int16)
    fb = int(f.table[b])
    t_minus = (1 << m) - 1 if fb == 0 else 1
    t_plus = 0 if fb == 0 else 1 << m
    return phi, np.argwhere(sums == t_minus), np.argwhere(sums == t_plus)


def assert_hits_match(f: BooleanFunction, shifts) -> None:
    dual_table = dual(f).table
    cells = _coset_cells(dual_table, f.n)
    for b in shifts:
        got = _sweep_one_b(f, cells, dual_table, b)
        want = direct_coset_hits(f, dual_table, b)
        for x, y in zip(got, want):
            assert x.shape == y.shape and np.array_equal(x, y), f"shift {b}"


@pytest.mark.parametrize("n", [4, 6])
def test_sweep_hits_match_direct_coset_count(n):
    for f in oracle_functions(n):
        assert_hits_match(f, range(1 << n))


def test_sweep_hits_match_direct_coset_count_n8():
    assert_hits_match(published_bent8("delta0_mix"), (0, 1, 77, 200, 255))


def test_tabulated_shift_parities_match_direct_n8():
    # u_b = (b.w_1, ..., b.w_m) and b.r, from the subspace basis and the
    # coset representative of every cell
    n, m = 8, 4
    cells = _coset_cells(dual(published_bent8("delta0_mix")).table, n)
    perm = _coset_table(n)
    basis = perm[cells.w_idx[:, None], 1 << np.arange(m)].astype(np.int64)
    rep = perm[cells.w_idx, cells.block << m].astype(np.int64)
    for b in range(1 << n):
        u_b = (_parity_array(basis & b).astype(np.int64) << np.arange(m)).sum(axis=1)
        assert np.array_equal(_unit_xor(cells.unit_u, b), u_b), b
        assert np.array_equal(_unit_xor(cells.unit_r, b), _parity_array(rep & b)), b


def reference_coset_cells(dual_table: np.ndarray, n: int) -> _CosetCells:
    """The cells from a per-point gather of f* through the whole coset
    table, each run of 2^m values packed into a word bit by bit."""
    m = n // 2
    size = 1 << m
    perm = _coset_table(n)
    spectra, near = _coset_wht(m)
    values = dual_table[perm].reshape(-1, size)
    words = np.packbits(values, axis=1, bitorder="little")
    if size < 8:
        words = words[:, 0]
    else:
        words = words.view(f"<u{size // 8}")[:, 0]
    cosets = np.flatnonzero(near[words])
    spec = spectra[words[cosets]]
    row, u = np.nonzero(np.abs(spec) >= size - 2)
    w_idx, block = np.divmod(cosets[row], size)
    j = np.arange(n, dtype=np.uint8)[:, None]
    basis = perm[w_idx[:, None], 1 << np.arange(m)]
    unit_u = np.zeros((n, len(w_idx)), dtype=np.uint8)
    for k in range(m):
        unit_u |= ((basis[:, k] >> j) & 1) << k
    return _CosetCells(
        w_idx=w_idx,
        block=block,
        u=u,
        spectrum=spec[row, u].astype(np.int64),
        unit_u=unit_u,
        unit_r=(perm[w_idx, block << m] >> j) & 1,
    )


def coset_cell_inputs() -> list[BooleanFunction]:
    x1x2 = BooleanFunction(2, [0, 0, 0, 1])
    rng = random.Random(7)
    n8 = [published_bent8(name) for name in PUBLISHED]
    n8 += [ea_disguise(f, rng) for f in n8 for _ in range(2)]
    ap = ps_ap(4, BooleanFunction(4, [0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]))
    n8 += [ea_disguise(ap, rng) for _ in range(2)]
    return [x1x2, x1x2 ^ 1] + oracle_functions(4) + oracle_functions(6) + n8


@pytest.mark.parametrize("f", coset_cell_inputs(), ids=lambda f: f"n{f.n}-{f.digest()[:8]}")
def test_coset_cells_match_per_point_reference(f):
    dual_table = dual(f).table
    got = _coset_cells(dual_table, f.n)
    want = reference_coset_cells(dual_table, f.n)
    for name in ("w_idx", "block", "u", "spectrum", "unit_u", "unit_r"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y), name


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_head_index_selects_span_of_first_basis_vectors(n):
    k = min(n // 2, 2)
    perm = _coset_table(n)
    heads, offset = _head_index(n)
    assert offset.dtype == np.int32 and offset.shape == (perm.shape[0],)
    assert not (offset & ((1 << n) - 1)).any()
    assert len(np.unique(heads, axis=0)) == len(heads)
    first = perm[:, [1 << j for j in range(k)]]
    assert np.array_equal(heads[offset >> n], _span_rows(first))


def test_coset_cells_peak_memory_n8():
    # once the per-dimension tables exist, the pass allocates only its
    # per-function head table and one chunk at a time
    dual_table = dual(published_bent8("delta0_mix")).table
    _coset_cells(dual_table, 8)
    tracemalloc.start()
    try:
        _coset_cells(dual_table, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def first_direct_witness(f: BooleanFunction):
    """Smallest (b, a) with f(x + b) + a.x + c in PS for some c, tested directly."""
    for b in range(1 << f.n):
        for a in range(1 << f.n):
            if any(is_partial_spread(_shifted_affine(f, b, a, c)) is not None for c in (0, 1)):
                return b, a
    return None


@pytest.mark.parametrize(
    "f",
    oracle_functions(4) + oracle_functions(6),
    ids=lambda f: f"n{f.n}-{f.digest()[:8]}",
)
def test_ps_sharp_matches_exhaustive_direct_tests(f):
    w = is_in_ps_sharp(f)
    first = first_direct_witness(f)
    assert (w is None) == (first is None)
    if w is not None:
        assert (w.shift, w.affine) == first
        assert w.inner.reconstruct(f.n) == _shifted_affine(f, w.shift, w.affine, w.constant)


@pytest.mark.parametrize("name", PUBLISHED)
def test_ps_sharp_verdict_invariant_under_duality_and_linear_maps(name, monkeypatch):
    # PS# is closed under f -> f* and under f(x) -> f(Ax); no saved verdict is read
    monkeypatch.delenv(CACHE_ENV, raising=False)
    f = published_bent8(name)
    A = random_invertible(8, random.Random(8))
    linear = BooleanFunction(8, f.table[[apply_linear(A, x) for x in range(256)]])
    verdict = is_in_ps_sharp(f) is not None
    assert (is_in_ps_sharp(dual(f)) is not None) == verdict
    assert (is_in_ps_sharp(linear) is not None) == verdict


# ---------------------------------------------------------------------------
# the coset table and what is read from it
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
    got = _coset_table(n)
    assert got.dtype == np.uint8
    assert got.tobytes() == reference_coset_table(n).tobytes()


def test_coset_table_matches_reference_on_sampled_rows_n8():
    assert np.array_equal(_coset_table(8)[::97], reference_coset_table(8, step=97))


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


# ---------------------------------------------------------------------------
# the clique stage on coset-table rows
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
    count = _coset_table(n).shape[0]
    outcomes = set()
    for _ in range(lists):
        rows = rng.sample(range(count), rng.randrange(2, 15))
        s = rng.randrange(2, 6)
        want = first_disjoint_subset(rows, n, s)
        got = dict(_group_cliques(np.array(rows), np.array([0, len(rows)]), np.array([s]), n))
        assert got.get(0) == want, (rows, s)
        outcomes.add(want is None)
    assert outcomes == {True, False}


def reference_group_clique(rows, n: int, s: int):
    """The clique stage of one group on its own: membership and Gram matrix
    of its rows, the degree bound, then branch and bound.  Returns (kept by
    the bound, first clique or None)."""
    L = len(rows)
    if L < s:
        return False, None
    members = np.zeros((L, 1 << n), dtype=np.float32)
    members[np.arange(L)[:, None], _coset_table(n)[rows, 1 : 1 << (n // 2)]] = 1
    disjoint = members @ members.T == 0
    if np.count_nonzero(disjoint.sum(axis=1) >= s - 1) < s:
        return False, None
    nbr = [int.from_bytes(r, "little") for r in np.packbits(disjoint, axis=1, bitorder="little")]

    def grow(chosen, allowed):
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

    return True, grow([], (1 << L) - 1)


def batched_and_reference_cliques(f: BooleanFunction, shifts):
    """Per shift, the groups the batched bound keeps with their cliques, and
    the same from the per-group reference; also the group count."""
    dual_table = dual(f).table
    cells = _coset_cells(dual_table, f.n)
    total = 0
    for b in shifts:
        a, tag, need, rows, bounds = _shift_groups(f, b, *_sweep_one_b(f, cells, dual_table, b))
        want = {}
        for g in range(len(need)):
            kept, clique = reference_group_clique(rows[bounds[g] : bounds[g + 1]], f.n, int(need[g]))
            if kept:
                want[g] = clique
        total += len(need)
        yield b, dict(_group_cliques(rows, bounds, need, f.n)), want
    assert total > 0


def test_batched_degree_bound_matches_per_group_reference_on_random_groups():
    # many overlapping groups of random rows in one call, each with its own s
    rng = random.Random(66)
    count = _coset_table(6).shape[0]
    groups = [sorted(rng.sample(range(count), rng.randrange(2, 15))) for _ in range(300)]
    need = np.array([rng.randrange(2, 6) for _ in groups])
    rows = np.concatenate(groups)
    bounds = np.cumsum([0] + [len(g) for g in groups])
    want = {}
    for g, group in enumerate(groups):
        kept, clique = reference_group_clique(np.array(group), 6, int(need[g]))
        if kept:
            want[g] = clique
    got = dict(_group_cliques(rows, bounds, need, 6))
    assert got == want
    assert 0 < sum(c is None for c in got.values()) < len(got) < len(groups)


@pytest.mark.parametrize("n", [4, 6])
def test_batched_degree_bound_matches_per_group_reference(n):
    kept = 0
    for f in oracle_functions(n):
        for b, got, want in batched_and_reference_cliques(f, range(1 << n)):
            assert got == want, (f.digest(), b)
            kept += len(got)
    assert kept > 0


@pytest.mark.parametrize("name, some_kept", [("delta0_mix", True), ("transposed", False)])
def test_batched_degree_bound_matches_per_group_reference_n8(name, some_kept):
    g = ea_disguise(published_bent8(name), random.Random(name))
    kept = 0
    for b, got, want in batched_and_reference_cliques(g, range(256)):
        assert got == want, b
        kept += len(got)
    assert (kept > 0) == some_kept
