import itertools
import json
import random

import numpy as np
import pytest

from bentforge.boolfun import BooleanFunction, _parity_array, dual, is_bent, zero_function
from bentforge.construct import mm_bent
from bentforge.fixtures import published_bent8
from bentforge.gf2 import enumerate_subspaces, intersect, orthogonal_complement, span
from bentforge.psclass import (
    CACHE_ENV,
    _coset_cells,
    _coset_table,
    _disjoint_clique,
    _midspace,
    _shifted_affine,
    _sweep_one_b,
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


def test_ps_sharp_jobs_match_serial():
    f = ps_ap(3, balanced_h3())
    g = _shifted_affine(f, 3, 5, 0)
    serial = is_in_ps_sharp(g)
    parallel = is_in_ps_sharp(g, jobs=2)
    assert (serial is None) == (parallel is None)
    if serial is not None:
        assert (serial.shift, serial.affine) == (parallel.shift, parallel.affine)


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
        assert _disjoint_clique(np.array(rows), n, s) == want, (rows, s)
        outcomes.add(want is None)
    assert outcomes == {True, False}
