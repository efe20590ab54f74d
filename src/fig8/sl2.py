"""Exact SL(2, Z) matrices, and trace/length identities.

All matrix arithmetic is in arbitrary-precision integers.  Real
trace/length conversions use floats.
"""

from __future__ import annotations

import math
from types import NotImplementedType
from typing import NamedTuple, NoReturn


class Mat2(NamedTuple):
    """A 2x2 integer matrix of determinant 1, as its entries tuple.

    Literal matrices are checked once (``check``); products and inverses
    keep det = 1, so they are built unchecked, straight from their entries
    tuple by ``tuple.__new__``, without a second frame in the generated
    ``__new__``.  A product takes two Mat2; a Mat2 equals, and hashes as,
    its tuple (a11, a12, a21, a22), but has no tuple sum or repetition.
    """

    a11: int
    a12: int
    a21: int
    a22: int

    def check(self) -> "Mat2":
        """Raise ValueError unless the determinant is 1; return self."""
        det = self.a11 * self.a22 - self.a12 * self.a21
        if det != 1:
            raise ValueError(f"determinant is {det}, not 1")
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
        if not isinstance(other, Mat2):
            return NotImplemented  # m * 2 and m * (entries tuple) raise TypeError
        a, b, c, d = self
        e, f, g, h = other
        return tuple.__new__(Mat2, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def __add__(self, other: object) -> NotImplementedType:
        return NotImplemented  # no tuple concatenation: m + m raises TypeError

    __rmul__ = __add__  # nor repetition: 2 * m

    def __radd__(self, other: object) -> NoReturn:
        # NotImplemented here would fall back to tuple.__add__: (1,) + m
        raise TypeError(f"cannot add {type(other).__name__} and Mat2")

    def inverse(self) -> "Mat2":
        # adjugate; exact because det = 1
        a, b, c, d = self
        return tuple.__new__(Mat2, (d, -b, -c, a))

    def reduce_mod(self, m: int) -> tuple[int, int, int, int]:
        """Canonical residues of the entries in [0, m)."""
        return (self.a11 % m, self.a12 % m, self.a21 % m, self.a22 % m)


def length_to_trace(length: float) -> float:
    if not 0 <= length < math.inf:  # NaN fails too
        raise ValueError(f"length {length} is not a finite number >= 0")
    try:
        return 2.0 * math.cosh(length / 2.0)
    except OverflowError:
        raise ValueError(f"length {length}: its trace overflows a float") from None


def trace_to_length(trace: float) -> float:
    if abs(trace) <= 2.0:
        raise ValueError(f"|trace| = {abs(trace)} <= 2: not a closed geodesic")
    return 2.0 * math.acosh(abs(trace) / 2.0)


def eight_trace(ta: float, tb: float, tc: float) -> float:
    """Trace of the figure-eight around cuffs a and b of the pants with cuff
    traces ta, tb, tc, a cusp counting 2: tr(AB^-1) = tr A tr B - tr AB, tr AB = -tc.

    The least, 6, is at the three-cusped sphere.  A float beyond range is inf.
    """
    return ta * tb + tc


# The Sanov pair: generators of a free subgroup of SL(2, Z).
SANOV_A = Mat2(1, 2, 0, 1).check()
SANOV_B = Mat2(1, 0, 2, 1).check()
