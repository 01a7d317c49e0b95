import random

import numpy as np
import pytest

from bentforge.boolfun import BooleanFunction
from bentforge.construct import mm_bent
from bentforge.vectorial import VectorialFunction


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
