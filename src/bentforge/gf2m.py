"""GF(2^m) arithmetic in polynomial basis, trace machinery, power maps.

Field elements are ints; bit i of an element is the coefficient of x^i in
the polynomial basis, which also identifies F_{2^m} with F_2^m.
"""

from __future__ import annotations

import re

import numpy as np


def _poly_mod(a: int, mod: int) -> int:
    mb = mod.bit_length()
    while a.bit_length() >= mb:
        a ^= mod << (a.bit_length() - mb)
    return a


def clmul(a: int, b: int) -> int:
    """Carry-less product of two polynomials over GF(2)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree 1..deg(p)/2."""
    deg = p.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(p, q) == 0:
                return False
    return True


def default_modulus(m: int) -> int:
    """Lexicographically smallest irreducible polynomial of degree m."""
    for p in range((1 << m) + 1, 1 << (m + 1), 2):
        if is_irreducible(p):
            return p
    raise ValueError(f"no irreducible polynomial of degree {m}")  # unreachable


class Field:
    """GF(2^m) with log/antilog tables precomputed at construction."""

    def __init__(self, m: int, modulus: int | None = None) -> None:
        if not 2 <= m <= 16:
            raise ValueError(f"field degree must be in 2..16, got {m}")
        mod = default_modulus(m) if modulus is None else modulus
        if mod.bit_length() - 1 != m:
            raise ValueError(f"modulus degree {mod.bit_length() - 1} != m={m}")
        if not is_irreducible(mod):
            raise ValueError(f"modulus {mod:#x} is reducible")
        self.m = m
        self.modulus = mod
        self.order = (1 << m) - 1
        self._build_tables()

    def _build_tables(self) -> None:
        # find a multiplicative generator, then fill exp/log; the modulus is
        # irreducible, so the powers of every g != 0 cycle back to 1
        for g in range(2, 1 << self.m):
            x = g
            exp = [1]
            while x != 1:
                exp.append(x)
                x = _poly_mod(clmul(x, g), self.modulus)
            if len(exp) == self.order:
                self._exp = exp + exp  # doubled to skip one modular reduction
                self._log = [0] * (1 << self.m)
                for i, v in enumerate(exp):
                    self._log[v] = i
                break
        # trace of a is linear: cache the mask of basis traces
        mask = 0
        for i in range(self.m):
            if self._trace_slow(1 << i):
                mask |= 1 << i
        self._trace_mask = mask

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[self.order - self._log[a]]

    def div(self, a: int, b: int) -> int:
        """a/b with the convention a/0 = 0."""
        if b == 0 or a == 0:
            return 0
        return self._exp[(self._log[a] - self._log[b]) % self.order]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % self.order]

    def _trace_slow(self, a: int) -> int:
        t = 0
        x = a
        for _ in range(self.m):
            t ^= x
            x = _poly_mod(clmul(x, x), self.modulus)
        return t & 1

    def trace(self, a: int) -> int:
        """Absolute trace Tr(a) = sum of a^(2^i)."""
        return (a & self._trace_mask).bit_count() & 1

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus={self.modulus:#x})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and (self.m, self.modulus) == (other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))


def power_map(field: Field, d: int):
    """The map x -> x^d on F_2^m as a VectorialFunction.

    Permutation iff gcd(d, 2^m - 1) = 1.
    """
    from .vectorial import VectorialFunction

    if not 1 <= d <= (1 << field.m) - 2:
        raise ValueError(f"exponent must be in 1..2^m-2, got {d}")
    table = np.array([field.pow(x, d) for x in range(1 << field.m)], dtype=np.int64)
    return VectorialFunction(field.m, table)


_FIELD_RE = re.compile(r"^gf2m:m=(\d+)(?:,mod=([0-9a-fA-F]+))?$")


def parse_power_map(text: str):
    """Parse "gf2m:m=<m>[,mod=<hexmask>],pow=<d>" into x -> x^d."""
    spec, sep, power = text.strip().rpartition(",pow=")
    if not (sep and power.isdecimal()):
        raise ValueError("field input needs a ,pow=<d> suffix for the power map")
    m = _FIELD_RE.match(spec.strip())
    if not m:
        raise ValueError(f"bad field spec {spec!r}")
    mod = int(m.group(2), 16) if m.group(2) else None
    return power_map(Field(int(m.group(1)), mod), int(power))
