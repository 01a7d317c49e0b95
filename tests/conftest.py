import functools
import itertools
import random

import numpy as np
import pytest

from bentforge.boolfun import BooleanFunction, ea_image, zero_function
from bentforge.construct import mm_bent
from bentforge.gf2 import span
from bentforge.gf2m import Field
from bentforge.psclass import _coset_points, _row_index, ps_ap
from bentforge.vectorial import VectorialFunction, identity_map


@pytest.fixture
def rng():
    return random.Random(0xBEADED)


def random_function(n: int, rng: random.Random) -> BooleanFunction:
    return BooleanFunction(n, [rng.randrange(2) for _ in range(1 << n)])


# y -> y + y1 y2 e3 on F_2^3: span(e1, e3) vanishes, so it fails P1 and,
# that being a hyperplane, P2
HYPERPLANE_VANISHES = "vf:m=3:0 1 2 7 4 5 6 3"


def random_permutation_table(m: int, rng: random.Random) -> np.ndarray:
    perm = list(range(1 << m))
    rng.shuffle(perm)
    return np.array(perm, dtype=np.int64)


def random_mm(m: int, rng: random.Random) -> BooleanFunction:
    """x . pi(y) + h(y) for a shuffled permutation pi and a random h."""
    return mm_bent(VectorialFunction(m, random_permutation_table(m, rng)), random_function(m, rng))


def random_partial_spread(n: int, rng: random.Random, plus: bool = False) -> BooleanFunction:
    """A PS- bent function on n variables: the indicator, 0 left out, of
    2^(n/2-1) random n/2-subspaces that pairwise meet only in 0; with plus,
    a PS+ one: 2^(n/2-1) + 1 subspaces, 0 included.

    Greedy: subspaces are spanned by random bases, 1,024 at a time, and a
    subspace is kept when it meets the kept ones only in 0.  After 64
    batches without a full family the draw starts over."""
    m = n // 2
    gen = np.random.default_rng(rng.getrandbits(64))
    while True:
        covered = np.zeros(1 << n, dtype=bool)
        kept = 0
        for _ in range(64):
            elements = np.zeros((1024, 1), dtype=np.int64)
            for column in gen.integers(1, 1 << n, size=(m, 1024, 1)):
                elements = np.hstack([elements, elements ^ column])
            nonzero = elements[:, 1:]
            fresh = (nonzero != 0).all(axis=1)  # the basis is independent
            while kept < (1 << (m - 1)) + plus:
                fresh &= ~covered[nonzero].any(axis=1)
                if not fresh.any():
                    break
                covered[nonzero[fresh.argmax()]] = True
                kept += 1
            else:
                covered[0] = plus
                return BooleanFunction(n, covered)


def packed_words(values: np.ndarray) -> np.ndarray:
    """Each row of 2^m 0/1 values packed bit by bit into one word, bit j
    the j-th value, as the smallest unsigned dtype that holds 2^m bits."""
    words = np.packbits(values, axis=1, bitorder="little")
    size = values.shape[1]
    return words[:, 0] if size < 8 else words.view(f"<u{size // 8}")[:, 0]


def balanced_h3() -> BooleanFunction:
    return BooleanFunction(3, [0, 1, 1, 0, 1, 0, 1, 0])


def balanced_h4() -> BooleanFunction:
    return BooleanFunction(4, [0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0])


@functools.cache
def coset_table(n: int) -> np.ndarray:
    """Row i: the 2^n points grouped into cosets of the i-th n/2-subspace,
    from `_coset_points`; the per-point table that the oracles read whole
    rows of (51 MB at n = 8, which is why the package keeps only bases).

    Rows go in `_row_index` order: exactly `enumerate_subspaces` order.
    Block k of 2^(n/2) entries is the index's coset block k, in
    basis-coordinate order, so block 0 is the subspace and entry 2^j is
    basis vector j.  Built 4,096 rows at a time, so the build holds about
    2 MiB beyond the table.
    """
    count = len(_row_index(n)[0])
    blocks = np.arange(1 << (n - n // 2))
    perm = np.empty((count, 1 << n), dtype=np.uint8)
    for lo in range(0, count, 1 << 12):
        rows = np.arange(lo, min(lo + (1 << 12), count))
        points = _coset_points(n, np.repeat(rows, len(blocks)), np.tile(blocks, len(rows)))
        perm[rows] = points.reshape(len(rows), 1 << n)
    return perm


def ea_disguise(f: BooleanFunction, rng: random.Random, shifted: bool = True) -> BooleanFunction:
    """f(A(x + b)) + a.x + c for a random invertible A and random b, a, c;
    b = 0 unless shifted."""
    n = f.n
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        if span(cols, n).dim == n:
            break
    # A has the drawn vectors as columns; ea_image takes its rows
    rows = [sum((col >> i & 1) << j for j, col in enumerate(cols)) for i in range(n)]
    b = rng.randrange(1 << n) if shifted else 0
    return ea_image(f, rows, b, rng.randrange(1 << n), rng.randrange(2))


def oracle_functions(n: int) -> list[BooleanFunction]:
    """PS_ap and quadratic MM on n variables, and three EA disguises of each;
    at n = 2, all eight bent functions (the odd-weight tables)."""
    if n == 2:
        return [BooleanFunction(2, t) for t in itertools.product((0, 1), repeat=4) if sum(t) % 2]
    m = n // 2
    h = {2: BooleanFunction(2, [0, 1, 1, 0]), 3: balanced_h3(), 4: balanced_h4()}[m]
    base = [ps_ap(m, h), mm_bent(identity_map(m), zero_function(m))]
    rng = random.Random(n)
    return base + [ea_disguise(f, rng) for f in base for _ in range(3)]


def niho_binomial() -> BooleanFunction:
    """x -> Tr_1^4(x^17) + Tr(x^46) on GF(2^8), modulus 0x11b: the Niho bent
    binomial with s = 3, b = 1; x^17 lies in GF(16), where
    Tr_1^4(y) = y + y^2 + y^4 + y^8."""
    field = Field(8)
    assert field.modulus == 0x11B

    def subfield_trace(y: int) -> int:
        t = y ^ field.pow(y, 2) ^ field.pow(y, 4) ^ field.pow(y, 8)
        assert t in (0, 1)
        return t

    table = [subfield_trace(field.pow(x, 17)) ^ field.trace(field.pow(x, 46)) for x in range(256)]
    return BooleanFunction(8, table)
