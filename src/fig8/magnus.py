"""Magnus expansion of free-group words and lower-central-series depth.

The expansion sends a -> 1 + x, b -> 1 + y into the ring of noncommutative
integer power series in x, y truncated at a fixed degree, and A, B to the
geometric series sum_i (-x)^i, sum_i (-y)^i, their exact inverses in the
truncated ring.  A word lies at depth k of the lower central series iff its
expansion is 1 + (terms of degree exactly k and higher).  Truncation
commutes with the product, so the depth and the witness expand at degrees
1, 2, 4, ... up to max_k and stop at the first whose series is not 1: most
words are shallow, and the support grows like 2^degree.
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

    def lowest_degree(self) -> int | None:
        """Least positive degree carrying a nonzero coefficient, or None."""
        return min((len(m) for m in self.coeffs if m), default=None)

    def reduce_mod(self, p: int) -> "MagnusSeries":
        return MagnusSeries({m: c % p for m, c in self.coeffs.items() if c % p}, self.degree)


def magnus_expand(w: Word, depth: int) -> MagnusSeries:
    """Image of w under a -> 1+x, b -> 1+y, truncated at the given degree;
    A and B map to the geometric series of -x and -y."""
    if depth < 1:
        raise ValueError("truncation degree must be at least 1")
    if w.gens != FREE_RANK2:
        raise ValueError("Magnus expansion is implemented for the rank-2 free group")
    images = {}
    for g, v in _VARS.items():
        images[g] = MagnusSeries({"": 1, v: 1}, depth)
        images[g.upper()] = MagnusSeries({v * i: (-1) ** i for i in range(depth + 1)}, depth)
    return evaluate(w, images, MagnusSeries.one(depth))


def _first_nonzero(w: Word, max_k: int) -> tuple[MagnusSeries, int] | None:
    """The first expansion of w at d = 1, 2, 4, ..., each capped at max_k,
    with a nonzero term of positive degree, and its least such degree (the
    depth); None once the expansion at max_k has none."""
    d = 1
    while True:
        series = magnus_expand(w, min(d, max_k))
        k = series.lowest_degree()
        if k is not None:
            return series, k
        if d >= max_k:
            return None
        d *= 2


def lcs_depth(w: Word, max_k: int = 8) -> int | None:
    """Lower-central-series depth of w, or None if deeper than max_k.

    The depth is the least k such that the Magnus expansion carries a
    nonzero term of degree k (and none lower).  It is read from the first
    expansion at 1, 2, 4, ..., max_k that is not 1.
    """
    if w.is_trivial:
        raise ValueError("trivial word has no depth")
    found = _first_nonzero(w, max_k)
    return found[1] if found else None


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

    The first expansion at 1, 2, 4, ..., max_k that is not 1 gives k, and
    its truncation to degree k is the expansion at k, since truncation
    commutes with the product.  The modulus is the least prime not dividing
    the first (lexicographic) nonzero degree-k coefficient; the ambient
    index is the order m^(k(k+1)/2) of the full (k+1)x(k+1) unipotent group
    over the integers mod m.  The image is 1 + N with N^2 = 0 below the
    truncation, so its j-th power is 1 + jN, and its order is the modulus.
    """
    if w.is_trivial:
        raise ValueError("trivial word has no depth")
    found = _first_nonzero(w, max_k)
    if found is None:
        return None
    series, k = found
    series = MagnusSeries({m: c for m, c in series.coeffs.items() if len(m) <= k}, k)
    monomial, coefficient = min((m, c) for m, c in series.coeffs.items() if len(m) == k)
    modulus = least_prime_not_dividing(coefficient)
    image = series.reduce_mod(modulus)
    if image == MagnusSeries.one(k):
        raise AssertionError("reduced image unexpectedly trivial")
    ambient_index = modulus ** (k * (k + 1) // 2)
    return UnipotentWitness(k, modulus, monomial, coefficient, image, ambient_index)
