"""Magnus expansion of free-group words and lower-central-series depth.

The expansion sends a -> 1 + x, b -> 1 + y into the ring of noncommutative
integer power series in x, y truncated at a fixed degree; inverses expand by
the finite geometric series, exact in the truncated ring.  A word lies at
depth k of the lower central series iff its expansion is 1 + (terms of
degree exactly k and higher).
"""

from __future__ import annotations

from dataclasses import dataclass

from .resfin import primes
from .words import FREE_RANK2, Word, evaluate

_VARS = {"a": "x", "b": "y"}


class MagnusError(ValueError):
    pass


@dataclass(frozen=True)
class MagnusSeries:
    """Truncated noncommutative series; keys are monomials over {x, y}."""

    coeffs: tuple[tuple[str, int], ...]
    degree: int

    @classmethod
    def from_dict(cls, coeffs: dict[str, int], degree: int) -> "MagnusSeries":
        clean = {m: c for m, c in coeffs.items() if c and len(m) <= degree}
        return cls(tuple(sorted(clean.items())), degree)

    def as_dict(self) -> dict[str, int]:
        return dict(self.coeffs)

    @classmethod
    def one(cls, degree: int) -> "MagnusSeries":
        return cls.from_dict({"": 1}, degree)

    @classmethod
    def generator(cls, var: str, degree: int) -> "MagnusSeries":
        return cls.from_dict({"": 1, var: 1}, degree)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        if self.degree != other.degree:
            raise MagnusError("truncation degree mismatch")
        out: dict[str, int] = {}
        for m1, c1 in self.coeffs:
            for m2, c2 in other.coeffs:
                if len(m1) + len(m2) <= self.degree:
                    key = m1 + m2
                    out[key] = out.get(key, 0) + c1 * c2
        return MagnusSeries.from_dict(out, self.degree)

    def __add__(self, other: "MagnusSeries") -> "MagnusSeries":
        if self.degree != other.degree:
            raise MagnusError("truncation degree mismatch")
        out = self.as_dict()
        for m, c in other.coeffs:
            out[m] = out.get(m, 0) + c
        return MagnusSeries.from_dict(out, self.degree)

    def constant_term(self) -> int:
        return self.as_dict().get("", 0)

    def inverse(self) -> "MagnusSeries":
        """Geometric-series inverse of 1 + r; exact in the truncated ring."""
        if self.constant_term() != 1:
            raise MagnusError("only series with constant term 1 are inverted")
        r = MagnusSeries.from_dict({m: c for m, c in self.coeffs if m}, self.degree)
        result = MagnusSeries.one(self.degree)
        power = MagnusSeries.one(self.degree)
        for i in range(1, self.degree + 1):
            power = power * r
            if not power.coeffs:
                break
            sign = -1 if i % 2 else 1
            result = result + MagnusSeries.from_dict(
                {m: sign * c for m, c in power.coeffs}, self.degree
            )
        return result

    def lowest_degree(self) -> int | None:
        """Least positive degree carrying a nonzero coefficient, or None."""
        degs = [len(m) for m, _ in self.coeffs if m]
        return min(degs) if degs else None

    def degree_part(self, k: int) -> dict[str, int]:
        return {m: c for m, c in self.coeffs if len(m) == k}

    def reduce_mod(self, p: int) -> "MagnusSeries":
        return MagnusSeries.from_dict({m: c % p for m, c in self.coeffs}, self.degree)


def magnus_expand(w: Word, depth: int) -> MagnusSeries:
    """Image of w under a -> 1+x, b -> 1+y, truncated at the given degree."""
    if depth < 1:
        raise MagnusError("truncation degree must be at least 1")
    if w.gens != FREE_RANK2:
        raise MagnusError("Magnus expansion is implemented for the rank-2 free group")
    images = {g: MagnusSeries.generator(v, depth) for g, v in _VARS.items()}
    return evaluate(w, images, MagnusSeries.one(depth))


def lcs_depth(w: Word, max_k: int = 8) -> int | None:
    """Lower-central-series depth of w, or None if deeper than max_k.

    The depth is the least k such that the Magnus expansion carries a
    nonzero term of degree k (and none lower).
    """
    if w.is_trivial:
        raise MagnusError("trivial word has no depth")
    return magnus_expand(w, max_k).lowest_degree()


@dataclass(frozen=True)
class UnipotentWitness:
    """Finite nilpotent quotient separating w, from its depth-k Magnus image."""

    word: Word
    depth: int
    modulus: int
    monomial: str
    coefficient: int
    image_mod_m: MagnusSeries
    image_order: int
    ambient_index: int


def unipotent_witness(w: Word, k: int) -> UnipotentWitness:
    """Witness that w survives in a finite quotient of the k-step nilpotent group.

    Requires lcs_depth(w) = k.  The modulus is the least prime not dividing
    the first (lexicographic) nonzero degree-k coefficient; the ambient
    index is the order m^(k(k+1)/2) of the full (k+1)x(k+1) unipotent group
    over the integers mod m, and the image order is the order of the
    reduced series in the truncated group.
    """
    depth = lcs_depth(w, k)
    if depth != k:
        raise MagnusError(f"depth mismatch: lcs_depth is {depth}, expected {k}")
    series = magnus_expand(w, k)
    monomial, coefficient = min(series.degree_part(k).items())
    modulus = next(p for p in primes() if coefficient % p)
    image = series.reduce_mod(modulus)
    if image == MagnusSeries.one(k).reduce_mod(modulus):
        raise MagnusError("reduced image unexpectedly trivial")
    one = MagnusSeries.one(k).reduce_mod(modulus)
    power = image
    order = 1
    ambient_index = modulus ** (k * (k + 1) // 2)
    while power != one:
        power = (power * image).reduce_mod(modulus)
        order += 1
        if order > ambient_index:
            raise MagnusError("image order exceeds ambient group order")
    return UnipotentWitness(
        w, k, modulus, monomial, coefficient, image, order, ambient_index
    )
