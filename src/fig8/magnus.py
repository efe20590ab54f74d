"""Magnus expansion of free-group words and lower-central-series depth.

The expansion sends a -> 1 + x, b -> 1 + y into the ring of noncommutative
integer power series in x, y truncated at a fixed degree; inverses expand by
the geometric series in Horner form, exact in the truncated ring.  A word
lies at depth k of the lower central series iff its expansion is 1 + (terms
of degree exactly k and higher).
"""

from __future__ import annotations

from dataclasses import dataclass

from .resfin import least_prime_not_dividing
from .words import FREE_RANK2, Word, evaluate

_VARS = {"a": "x", "b": "y"}


@dataclass(frozen=True)
class MagnusSeries:
    """Truncated noncommutative series: monomial over {x, y} -> nonzero coefficient."""

    coeffs: dict[str, int]
    degree: int

    @classmethod
    def one(cls, degree: int) -> "MagnusSeries":
        return cls({"": 1}, degree)

    @classmethod
    def generator(cls, var: str, degree: int) -> "MagnusSeries":
        return cls({"": 1, var: 1}, degree)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        if self.degree != other.degree:
            raise ValueError("truncation degree mismatch")
        out: dict[str, int] = {}
        right = other.coeffs.items()
        for m1, c1 in self.coeffs.items():
            room = self.degree - len(m1)
            for m2, c2 in right:
                if len(m2) <= room:
                    key = m1 + m2
                    out[key] = out.get(key, 0) + c1 * c2
        return MagnusSeries({m: c for m, c in out.items() if c}, self.degree)

    def inverse(self) -> "MagnusSeries":
        """1/(1 + r) = 1 - r(1 - r(...)) in Horner form; exact in the truncated ring."""
        if self.coeffs.get("") != 1:
            raise ValueError("only series with constant term 1 are inverted")
        r = MagnusSeries({m: c for m, c in self.coeffs.items() if m}, self.degree)
        result = MagnusSeries.one(self.degree)
        for _ in range(self.degree):
            # r has no constant term, so neither has r * result
            result = MagnusSeries(
                {"": 1, **{m: -c for m, c in (r * result).coeffs.items()}}, self.degree
            )
        return result

    def lowest_degree(self) -> int | None:
        """Least positive degree carrying a nonzero coefficient, or None."""
        return min((len(m) for m in self.coeffs if m), default=None)

    def reduce_mod(self, p: int) -> "MagnusSeries":
        return MagnusSeries({m: c % p for m, c in self.coeffs.items() if c % p}, self.degree)


def magnus_expand(w: Word, depth: int) -> MagnusSeries:
    """Image of w under a -> 1+x, b -> 1+y, truncated at the given degree."""
    if depth < 1:
        raise ValueError("truncation degree must be at least 1")
    if w.gens != FREE_RANK2:
        raise ValueError("Magnus expansion is implemented for the rank-2 free group")
    images = {g: MagnusSeries.generator(v, depth) for g, v in _VARS.items()}
    return evaluate(w, images, MagnusSeries.one(depth))


def lcs_depth(w: Word, max_k: int = 8) -> int | None:
    """Lower-central-series depth of w, or None if deeper than max_k.

    The depth is the least k such that the Magnus expansion carries a
    nonzero term of degree k (and none lower).
    """
    if w.is_trivial:
        raise ValueError("trivial word has no depth")
    return magnus_expand(w, max_k).lowest_degree()


@dataclass(frozen=True)
class UnipotentWitness:
    """Finite nilpotent quotient separating w, from its depth-k Magnus image."""

    depth: int
    modulus: int
    monomial: str
    coefficient: int
    image_mod_m: MagnusSeries
    ambient_index: int


def unipotent_witness(w: Word, max_k: int) -> UnipotentWitness | None:
    """Witness that w survives in a finite quotient of the k-step nilpotent
    group, k = lcs_depth(w), or None if k > max_k.

    One expansion at max_k gives k, and its truncation to degree k is the
    expansion at k, since truncation commutes with the product.  The
    modulus is the least prime not dividing the first (lexicographic)
    nonzero degree-k coefficient; the ambient index is the order
    m^(k(k+1)/2) of the full (k+1)x(k+1) unipotent group over the integers
    mod m.  The image is 1 + N with N^2 = 0 below the truncation, so its
    j-th power is 1 + jN, and its order is the modulus.
    """
    if w.is_trivial:
        raise ValueError("trivial word has no depth")
    series = magnus_expand(w, max_k)
    k = series.lowest_degree()
    if k is None:
        return None
    series = MagnusSeries({m: c for m, c in series.coeffs.items() if len(m) <= k}, k)
    monomial, coefficient = min((m, c) for m, c in series.coeffs.items() if len(m) == k)
    modulus = least_prime_not_dividing(coefficient)
    image = series.reduce_mod(modulus)
    if image == MagnusSeries.one(k):
        raise AssertionError("reduced image unexpectedly trivial")
    ambient_index = modulus ** (k * (k + 1) // 2)
    return UnipotentWitness(k, modulus, monomial, coefficient, image, ambient_index)
