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


class BooleanFunction:
    """A Boolean function given by its full truth table."""

    __slots__ = ("n", "table")

    def __init__(self, n: int, table) -> None:
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"n must be in 1..{MAX_DIM}, got {n}")
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


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    n: int
    values: np.ndarray

    def __getitem__(self, a: int) -> int:
        return int(self.values[a])


def zero_function(n: int) -> BooleanFunction:
    return BooleanFunction(n, np.zeros(1 << n, dtype=np.uint8))


def constant_one(n: int) -> BooleanFunction:
    return BooleanFunction(n, np.ones(1 << n, dtype=np.uint8))


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
    N = 1 << poly.n
    coeffs = np.zeros(N, dtype=np.uint8)
    for m in poly.monomials:
        if m >> poly.n:
            raise ValueError(f"monomial mask {m:#x} out of range for n={poly.n}")
        coeffs[m] = 1
    return BooleanFunction(poly.n, _xor_butterfly(coeffs))


def algebraic_degree(f: BooleanFunction) -> int:
    return to_anf(f).degree


def walsh_transform(f: BooleanFunction) -> WalshSpectrum:
    """Fast WHT: W_f(a) = sum_x (-1)^(f(x) + a.x), exact integers."""
    w = 1 - 2 * f.table.astype(np.int64)
    n = f.n
    for i in range(n):
        step = 1 << i
        view = w.reshape(-1, 2, step)
        lo = view[:, 0, :] + view[:, 1, :]
        hi = view[:, 0, :] - view[:, 1, :]
        view[:, 0, :] = lo
        view[:, 1, :] = hi
    return WalshSpectrum(n, _freeze(w))


def is_bent(f: BooleanFunction) -> bool:
    if f.n % 2:
        return False
    target = 1 << (f.n // 2)
    return bool(np.all(np.abs(walsh_transform(f).values) == target))


def dual(f: BooleanFunction) -> BooleanFunction:
    """The dual f* with W_f(u) = 2^(n/2) (-1)^(f*(u)); bent input only."""
    if f.n % 2:
        raise ValueError("dual is defined for bent functions only (odd n)")
    w = walsh_transform(f).values
    target = 1 << (f.n // 2)
    if not np.all(np.abs(w) == target):
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


def second_derivative_vanishes(f: BooleanFunction, a: int, b: int) -> bool:
    idx = np.arange(1 << f.n)
    d = f.table ^ f.table[idx ^ a]
    return bool(np.array_equal(d, d[idx ^ b]))


def linear_structures(f: BooleanFunction) -> set[int]:
    """All a (including 0) with D_a f constant; closed under addition."""
    idx = np.arange(1 << f.n)
    t = f.table
    out = set()
    for a in range(1 << f.n):
        d = t ^ t[idx ^ a]
        if d[0] == d.min() == d.max():
            out.add(a)
    return out


def shift(f: BooleanFunction, b: int) -> BooleanFunction:
    """x -> f(x+b)."""
    idx = np.arange(1 << f.n)
    return BooleanFunction(f.n, f.table[idx ^ b])


def _parity_array(x: np.ndarray) -> np.ndarray:
    r = x.astype(np.int64)
    for s in (16, 8, 4, 2, 1):
        r ^= r >> s
    return (r & 1).astype(np.uint8)


def indicator(elements, n: int) -> BooleanFunction:
    t = np.zeros(1 << n, dtype=np.uint8)
    for e in elements:
        t[e] = 1
    return BooleanFunction(n, t)


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
    raw = bytes.fromhex(m.group(2))
    need = max(1, (1 << n) // 8)
    if len(raw) != need:
        raise ValueError(f"expected {need} bytes for n={n}, got {len(raw)}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return BooleanFunction(n, bits[: 1 << n])


class AnfParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_anf(text: str, n: int) -> AnfPoly:
    """Parse ANF text: monomials joined by '+', variables x1..xn / y / z,
    products with explicit '*', and the literal constant '1'."""
    masks: set[int] = set()
    pos = 0
    for chunk in text.split("+"):
        term = chunk.strip()
        if not term:
            raise AnfParseError("empty term", pos)
        mask = 0
        if term == "0":  # the zero polynomial prints as a bare 0
            pos += len(chunk) + 1
            continue
        if term == "1":
            masks ^= {0}
        else:
            for factor in term.split("*"):
                name = factor.strip()
                m = _VAR_RE.match(name)
                if not m:
                    raise AnfParseError(f"bad factor {name!r}", pos + chunk.find(factor))
                j = int(m.group(1))
                if not 1 <= j <= n:
                    raise AnfParseError(f"variable index {j} out of 1..{n}", pos)
                mask |= 1 << (j - 1)
            masks ^= {mask}
        pos += len(chunk) + 1
    return AnfPoly(n, frozenset(masks))


def format_anf(poly: AnfPoly, var: str = "x") -> str:
    """Canonical printing: monomials ordered by (weight, mask value)."""
    if not poly.monomials:
        return "0"
    terms = []
    for m in sorted(poly.monomials, key=lambda u: (u.bit_count(), u)):
        if m == 0:
            terms.append("1")
        else:
            terms.append("*".join(f"{var}{j + 1}" for j in range(poly.n) if (m >> j) & 1))
    return " + ".join(terms)
