"""Exact SL(2, Z) matrices, and trace/length identities.

All matrix arithmetic is in arbitrary-precision integers.  Real
trace/length conversions use floats.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class Sl2Error(ValueError):
    pass


class Mat2(NamedTuple):
    """A 2x2 integer matrix of determinant 1, as its entries tuple.

    Literal matrices are checked once (``check``); products, inverses and
    powers keep det = 1, so they are built unchecked.  A product is one
    tuple; a Mat2 equals, and hashes as, its tuple (a11, a12, a21, a22).
    """

    a11: int
    a12: int
    a21: int
    a22: int

    def check(self) -> "Mat2":
        """Raise Sl2Error unless the determinant is 1; return self."""
        det = self.a11 * self.a22 - self.a12 * self.a21
        if det != 1:
            raise Sl2Error(f"determinant is {det}, not 1")
        return self

    @property
    def trace(self) -> int:
        return self.a11 + self.a22

    @classmethod
    def identity(cls) -> "Mat2":
        return cls(1, 0, 0, 1)

    @property
    def is_identity(self) -> bool:
        return self == (1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "Mat2":
        # adjugate; exact because det = 1
        return Mat2(self.a22, -self.a12, -self.a21, self.a11)

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            return self.inverse() ** (-n)
        result = Mat2.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def reduce_mod(self, m: int) -> tuple[int, int, int, int]:
        """Canonical residues of the entries in [0, m)."""
        return (self.a11 % m, self.a12 % m, self.a21 % m, self.a22 % m)


def length_to_trace(length: float) -> float:
    if not 0 <= length < math.inf:  # NaN fails too
        raise Sl2Error(f"length {length} is not a finite number >= 0")
    try:
        return 2.0 * math.cosh(length / 2.0)
    except OverflowError:
        raise Sl2Error(f"length {length}: its trace overflows a float") from None


def trace_to_length(trace: float) -> float:
    if abs(trace) <= 2.0:
        raise Sl2Error(f"|trace| = {abs(trace)} <= 2: not a closed geodesic")
    return 2.0 * math.acosh(abs(trace) / 2.0)


def fig8_length(la: float, lb: float, lc: float) -> float:
    """Length of the figure-eight geodesic in a pair of pants with cuff lengths la, lb, lc.

    A zero cuff length encodes a cusp.  The minimum over all pants is
    2*acosh(3), attained only at the three-cusped sphere.
    """
    for l in (la, lb, lc):
        if l < 0:
            raise Sl2Error("cuff lengths must be nonnegative")
    half_trace = 2.0 * math.cosh(la / 2.0) * math.cosh(lb / 2.0) + math.cosh(lc / 2.0)
    return 2.0 * math.acosh(half_trace)


# The Sanov pair: generators of a free subgroup of SL(2, Z).
SANOV_A = Mat2(1, 2, 0, 1).check()
SANOV_B = Mat2(1, 0, 2, 1).check()
