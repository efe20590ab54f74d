"""Exact 2x2 determinant-one matrices over Z or Z/m, and trace/length identities.

All matrix arithmetic is exact: arbitrary-precision integers in
characteristic zero, canonical residues in [0, m) otherwise.  Real
trace/length conversions use floats with a documented 1e-9 tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TOL = 1e-9


class Sl2Error(ValueError):
    pass


@dataclass(frozen=True)
class Mat2:
    a11: int
    a12: int
    a21: int
    a22: int
    modulus: int | None = None

    def __post_init__(self):
        m = self.modulus
        if m is not None:
            if m <= 0:
                raise Sl2Error("modulus must be positive")
            for name in ("a11", "a12", "a21", "a22"):
                object.__setattr__(self, name, getattr(self, name) % m)
        if self.det != (1 if m is None else 1 % m):
            raise Sl2Error(f"determinant is {self.det}, not 1")

    @property
    def det(self) -> int:
        d = self.a11 * self.a22 - self.a12 * self.a21
        return d if self.modulus is None else d % self.modulus

    @property
    def trace(self) -> int:
        t = self.a11 + self.a22
        return t if self.modulus is None else t % self.modulus

    @classmethod
    def identity(cls, modulus: int | None = None) -> "Mat2":
        return cls(1, 0, 0, 1, modulus)

    @property
    def is_identity(self) -> bool:
        return self == Mat2.identity(self.modulus)

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.modulus != other.modulus:
            raise Sl2Error("modulus mismatch")
        return Mat2(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
            self.modulus,
        )

    def inverse(self) -> "Mat2":
        # adjugate; exact because det = 1
        return Mat2(self.a22, -self.a12, -self.a21, self.a11, self.modulus)

    def __pow__(self, n: int) -> "Mat2":
        if n < 0:
            return self.inverse() ** (-n)
        result = Mat2.identity(self.modulus)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def reduce_mod(self, m: int) -> "Mat2":
        if self.modulus is not None:
            raise Sl2Error("matrix already carries a modulus")
        return Mat2(self.a11, self.a12, self.a21, self.a22, m)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a11, self.a12, self.a21, self.a22)

    def max_entry(self) -> int:
        return max(abs(x) for x in self.entries())


def trace_third(t_a: float, t_b: float, t_ab: float) -> float:
    """tr(A^-1 B) from the traces of A, B and AB."""
    return t_a * t_b - t_ab


@dataclass(frozen=True)
class HypLength:
    """Translation length of a closed geodesic together with its trace."""

    value: float
    trace: float

    def __post_init__(self):
        if self.value < 0:
            raise Sl2Error("length must be nonnegative")
        if abs(abs(self.trace) - 2.0 * math.cosh(self.value / 2.0)) > TOL * max(1.0, abs(self.trace)):
            raise Sl2Error("trace and length are inconsistent")


def length_to_trace(length: float) -> float:
    if length < 0:
        raise Sl2Error("length must be nonnegative")
    return 2.0 * math.cosh(length / 2.0)


def trace_to_length(trace: float) -> float:
    if abs(trace) <= 2.0:
        raise Sl2Error(f"|trace| = {abs(trace)} <= 2: not a closed geodesic")
    return 2.0 * math.acosh(abs(trace) / 2.0)


def fig8_length(la: float, lb: float, lc: float) -> HypLength:
    """Length of the figure-eight geodesic in a pair of pants with cuff lengths la, lb, lc.

    A zero cuff length encodes a cusp.  The minimum over all pants is
    2*acosh(3), attained only at the three-cusped sphere.
    """
    for l in (la, lb, lc):
        if l < 0:
            raise Sl2Error("cuff lengths must be nonnegative")
    half_trace = 2.0 * math.cosh(la / 2.0) * math.cosh(lb / 2.0) + math.cosh(lc / 2.0)
    return HypLength(2.0 * math.acosh(half_trace), 2.0 * half_trace)


# The Sanov pair: generators of a free subgroup of SL(2, Z).
SANOV_A = Mat2(1, 2, 0, 1)
SANOV_B = Mat2(1, 0, 2, 1)
