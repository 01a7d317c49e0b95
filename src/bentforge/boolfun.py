"""Boolean functions on F_2^n: truth tables, ANF, Walsh spectra, derivatives.

Index convention: table entry i is f(x) where bit j-1 of i is the variable
x_j (x_1 least significant).  All transforms are exact integer arithmetic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .gf2 import MAX_DIM


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"n must be in 1..{MAX_DIM}, got {n}")


class BooleanFunction:
    """A Boolean function given by its full truth table."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table) -> None:
        _check_n(n)
        t = np.asarray(table, dtype=np.uint8)
        if t.shape != (1 << n,):
            raise ValueError(f"table length must be 2^{n}, got {t.shape}")
        if np.any(t > 1):
            raise ValueError("table entries must be bits")
        self.n = n
        self.table = _freeze(t.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"BooleanFunction(n={self.n}, weight={self.weight()})"

    def __call__(self, x: int) -> int:
        return int(self.table[x])

    def __xor__(self, other: "BooleanFunction | int") -> "BooleanFunction":
        if isinstance(other, int):
            return BooleanFunction(self.n, self.table ^ (other & 1))
        if self.n != other.n:
            raise ValueError("variable count mismatch")
        return BooleanFunction(self.n, self.table ^ other.table)

    def weight(self) -> int:
        return int(self.table.sum())

    def is_balanced(self) -> bool:
        return 2 * self.weight() == 1 << self.n

    def digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(f"n={self.n}:".encode())
        h.update(self.table.tobytes())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class AnfPoly:
    """Algebraic normal form as a set of monomial masks (mask 0 is the 1)."""

    n: int
    monomials: frozenset[int]

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in self.monomials), default=0)

    def __str__(self) -> str:
        return format_anf(self)


def zero_function(n: int) -> BooleanFunction:
    return BooleanFunction(n, np.zeros(1 << n, dtype=np.uint8))


def _xor_butterfly(a: np.ndarray) -> np.ndarray:
    """In-place Moebius transform (its own inverse)."""
    n = int(a.size).bit_length() - 1
    for i in range(n):
        step = 1 << i
        view = a.reshape(-1, 2, step)
        view[:, 1, :] ^= view[:, 0, :]
    return a


def to_anf(f: BooleanFunction) -> AnfPoly:
    coeffs = _xor_butterfly(f.table.copy())
    return AnfPoly(f.n, frozenset(int(i) for i in np.flatnonzero(coeffs)))


def from_anf(poly: AnfPoly) -> BooleanFunction:
    _check_n(poly.n)  # before the 2^n-entry table
    N = 1 << poly.n
    coeffs = np.zeros(N, dtype=np.uint8)
    for m in poly.monomials:
        if m >> poly.n:
            raise ValueError(f"monomial mask {m:#x} out of range for n={poly.n}")
        coeffs[m] = 1
    return BooleanFunction(poly.n, _xor_butterfly(coeffs))


def algebraic_degree(f: BooleanFunction) -> int:
    return to_anf(f).degree


def _wht_butterfly(w: np.ndarray) -> np.ndarray:
    """In-place WHT of each row (last axis) of a C-contiguous array."""
    n = int(w.shape[-1]).bit_length() - 1
    for i in range(n):
        step = 1 << i
        view = w.reshape(-1, 2, step)
        lo, hi = view[:, 0, :], view[:, 1, :]
        lo += hi  # x + y
        hi *= -2
        hi += lo  # (x + y) - 2y
    return w


def walsh_transform(f: BooleanFunction) -> np.ndarray:
    """Fast WHT as a read-only int64 array indexed by a: entry a is
    W_f(a) = sum_x (-1)^(f(x) + a.x), exact integers."""
    return _freeze(_wht_butterfly(1 - 2 * f.table.astype(np.int64)))


def is_bent(f: BooleanFunction) -> bool:
    """|W_f| = 2^(n/2) everywhere.  For odd n the target 2^((n-1)/2) would
    give sum W^2 = 2^(2n-1), against Parseval's 2^(2n), so none passes."""
    return bool(np.all(np.abs(walsh_transform(f)) == 1 << f.n // 2))


def dual(f: BooleanFunction) -> BooleanFunction:
    """The dual f* with W_f(u) = 2^(n/2) (-1)^(f*(u)); bent input only."""
    w = walsh_transform(f)
    if np.any(np.abs(w) != 1 << f.n // 2):
        raise ValueError("dual is defined for bent functions only")
    return BooleanFunction(f.n, (w < 0).astype(np.uint8))


def derivative(f: BooleanFunction, a: int) -> BooleanFunction:
    """D_a f(x) = f(x+a) + f(x)."""
    if a >> f.n:
        raise ValueError(f"direction {a:#x} out of range for n={f.n}")
    idx = np.arange(1 << f.n)
    return BooleanFunction(f.n, f.table ^ f.table[idx ^ a])


def second_derivative(f: BooleanFunction, a: int, b: int) -> BooleanFunction:
    """D_a D_b f(x) = f(x) + f(x+a) + f(x+b) + f(x+a+b)."""
    if (a >> f.n) or (b >> f.n):
        raise ValueError("direction out of range")
    idx = np.arange(1 << f.n)
    t = f.table
    return BooleanFunction(f.n, t ^ t[idx ^ a] ^ t[idx ^ b] ^ t[idx ^ a ^ b])


def linear_structures(f: BooleanFunction) -> set[int]:
    """All a (including 0) with D_a f constant; closed under addition."""
    return _linear_structures(f.table)


def _linear_structures(table: np.ndarray) -> set[int]:
    """All a (including 0) with D_a(table) constant, for Boolean and
    vectorial tables alike: for every output bit g, the WHT of W_g^2 (2^n
    times the autocorrelation of g) is +-2^(2n) at a.  Exact in int64:
    every partial sum of the butterfly is at most sum W_g^2 = 2^(2n)."""
    n = len(table).bit_length() - 1
    found = np.ones(len(table), dtype=bool)
    for i in range(int(table.max()).bit_length()):
        w = _wht_butterfly(1 - 2 * ((table >> i) & 1).astype(np.int64))
        found &= np.abs(_wht_butterfly(w * w)) == 1 << 2 * n
    return set(np.flatnonzero(found).tolist())


def _parity_array(x: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(x) & 1).astype(np.uint8)


def linear_images(rows: list[int], n: int) -> np.ndarray:
    """A.x for all 2^n points x, indexed by x, for the matrix A with the
    given rows (as `gf2.random_invertible` returns them): bit i of A.x is
    the parity of rows[i] & x."""
    idx = np.arange(1 << n)
    image = np.zeros(1 << n, dtype=np.int64)
    for i, row in enumerate(rows):
        image |= _parity_array(idx & row).astype(np.int64) << i
    return image


def ea_image(f: BooleanFunction, rows: list[int] | None = None, b: int = 0, a: int = 0,
             c: int = 0) -> BooleanFunction:
    """The EA image x -> f(A(x + b)) + a.x + c, with A given by its rows as
    in `linear_images`; rows=None is the identity and builds no image."""
    idx = np.arange(1 << f.n)
    points = idx ^ b
    if rows is not None:
        points = linear_images(rows, f.n)[points]
    return BooleanFunction(f.n, f.table[points] ^ _parity_array(idx & a) ^ (c & 1))


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

_TT_RE = re.compile(r"^tt:n=(\d+):([0-9a-fA-F]+)$")
_VAR_RE = re.compile(r"^[xyz](\d+)$")


def to_tt_hex(f: BooleanFunction) -> str:
    """Serialize as "tt:n=<n>:<hex>", bits packed little-endian.

    Table index 8j+i is bit i of byte j; the byte sequence is hex encoded
    in order, so index 0 is bit 0 of the first hex digit group.
    """
    packed = np.packbits(f.table, bitorder="little")
    return f"tt:n={f.n}:{packed.tobytes().hex()}"


def from_tt_hex(text: str) -> BooleanFunction:
    m = _TT_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a truth-table literal: {text[:40]!r}")
    n = int(m.group(1))
    _check_n(n)  # before the table is sized
    need = max(1, (1 << n) // 8)
    if len(m.group(2)) % 2:
        raise ValueError(
            f"odd number of hex digits: give two per byte, "
            f"{2 * need} for the {need}-byte table of n={n}"
        )
    raw = bytes.fromhex(m.group(2))
    if len(raw) != need:
        raise ValueError(f"expected {need} bytes for n={n}, got {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    if bits[1 << n :].any():
        raise ValueError(f"bits at or above 2^{n} are set in a table for n={n}")
    return BooleanFunction(n, bits[: 1 << n])


class AnfParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_anf(text: str, n: int | None = None) -> AnfPoly:
    """Parse ANF text: monomials joined by '+', variables x1..xn / y / z,
    products with explicit '*', and the literal constant '1'.  Without n,
    n is the largest variable index."""
    if n is not None:
        _check_n(n)
    terms: list[tuple[int, list[int]]] = []  # (position, indices); [] is the 1
    pos = 0
    for chunk in text.split("+"):
        term = chunk.strip()
        if not term:
            raise AnfParseError("empty term", pos)
        if term == "1":
            terms.append((pos, []))
        elif term != "0":  # the zero polynomial prints as a bare 0
            js = []
            for factor in term.split("*"):
                m = _VAR_RE.match(name := factor.strip())
                if not m:
                    raise AnfParseError(f"bad factor {name!r}", pos + chunk.find(factor))
                js.append(int(m.group(1)))
            terms.append((pos, js))
        pos += len(chunk) + 1
    if n is None:
        indices = [j for _, js in terms for j in js]
        if not indices:
            raise ValueError("cannot infer the variable count; pass --n")
        n = max(1, *indices)
        _check_n(n)  # the range an explicit n is held to
    masks: set[int] = set()
    for at, js in terms:
        mask = 0
        for j in js:
            if not 1 <= j <= n:
                raise AnfParseError(f"variable index {j} out of 1..{n}", at)
            mask |= 1 << (j - 1)
        masks ^= {mask}
    return AnfPoly(n, frozenset(masks))


def format_anf(poly: AnfPoly) -> str:
    """Canonical printing: monomials ordered by (weight, mask value)."""
    if not poly.monomials:
        return "0"
    terms = []
    for m in sorted(poly.monomials, key=lambda u: (u.bit_count(), u)):
        if m == 0:
            terms.append("1")
        else:
            terms.append("*".join(f"x{j + 1}" for j in range(poly.n) if (m >> j) & 1))
    return " + ".join(terms)
