import random

import numpy as np
import pytest

from bentforge.boolfun import BooleanFunction


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


def packed_words(values: np.ndarray) -> np.ndarray:
    """Each row of 2^m 0/1 values packed bit by bit into one word, bit j
    the j-th value, as the smallest unsigned dtype that holds 2^m bits."""
    words = np.packbits(values, axis=1, bitorder="little")
    size = values.shape[1]
    return words[:, 0] if size < 8 else words.view(f"<u{size // 8}")[:, 0]
