"""Girth verification for Lubotzky–Phillips–Sarnak Cayley graphs.

The p+1 generators come from the integer quaternions a^2+b^2+c^2+d^2 = p
with a odd positive and b, c, d even, mapped to 2x2 matrices over the field
with q elements through a fixed square root of -1.  Matrices are handled
projectively (scalars quotiented out); when p is a quadratic non-residue
mod q the generated group is the full projective general linear group, of
order q(q^2-1) = twice the projective special linear order.  The result
reports that order and Jacobi's count p+1 of generators as theorem values.

The girth solves the norm equation of the proof of the girth bound
(Lubotzky, Phillips and Sarnak, Combinatorica 8, 1988, §3).  A closed
reduced walk of length m is an integer quaternion a0 + 2q(b1 i + b2 j + b3 k)
of norm p^m with b != 0, and a solution divisible by p is p times a walk
two steps shorter, so the girth is the least m with a solution.  p is a
non-residue mod q, so m is even and a0 = ±p^(m/2) mod 2q^2; each such a0
leaves s = (p^m - a0^2)/4q^2, a sum of three squares iff it is not of the
form 4^a(8b + 7) (Gauss–Legendre).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .resfin import primes

ProjMat = tuple[int, int, int, int]

# The one cost that grows with q is the trial division of q and p by the
# primes up to sqrt(q): about 30 ms at q = 10^10 on a 2-core VM, so every
# admitted pair answers in well under 0.1 s.  The girth itself takes a few
# candidates at each even m up to about 4 log_p q.
MAX_Q = 10**10


class LpsError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in itertools.takewhile(lambda f: f * f <= n, primes()))


def quaternion_solutions(p: int) -> list[tuple[int, int, int, int]]:
    """All (a,b,c,d) with a^2+b^2+c^2+d^2 = p, a odd positive, b,c,d even.

    For a prime p = 1 mod 4 there are p + 1 of them.
    """
    r = math.isqrt(p)
    even = r - r % 2  # b, c and d run over the even numbers in [-r, r]
    sols = []
    for a in range(1, r + 1, 2):
        for b in range(-even, even + 1, 2):
            for c in range(-even, even + 1, 2):
                for d in range(-even, even + 1, 2):
                    if a * a + b * b + c * c + d * d == p:
                        sols.append((a, b, c, d))
    return sols


def _sqrt_minus_one(q: int) -> int:
    for x in range(2, q):
        if x * x % q == q - 1:
            return x
    raise LpsError(f"-1 is not a square mod {q} (need q = 1 mod 4)")


def _inverses(q: int) -> list[int]:
    """Table of inverses mod the prime q: entry z is 1/z, entry 0 is unused."""
    return [0] + [pow(z, q - 2, q) for z in range(1, q)]


def _canon(m: ProjMat, inv: list[int]) -> ProjMat:
    """Canonical projective representative: first nonzero entry scaled to 1.

    Entries are residues in [0, q), where q = len(inv) and inv = _inverses(q).
    """
    q = len(inv)
    for z in m:
        if z:
            zi = inv[z]
            return tuple(x * zi % q for x in m)
    raise LpsError("zero matrix")


def lps_generators(p: int, q: int) -> list[ProjMat]:
    """The p+1 LPS generators as canonical projective matrices mod q."""
    i = _sqrt_minus_one(q)
    inv = _inverses(q)
    gens = []
    for a, b, c, d in quaternion_solutions(p):
        m = ((a + b * i) % q, (c + d * i) % q, (-c + d * i) % q, (a - b * i) % q)
        gens.append(_canon(m, inv))
    if len(set(gens)) != len(gens):
        raise LpsError("generators not distinct")
    return gens


@dataclass(frozen=True)
class LpsGirthResult:
    p: int
    q: int
    generator_count: int
    group_order: int
    psl_order: int
    girth: int
    bound: float
    bound_ceil: int
    passed: bool


def _girth(p: int, q: int) -> int:
    """The least m with p^m = a0^2 + 4q^2 s, a0 = ±p^(m/2) mod 2q^2 and s > 0
    a sum of three squares."""
    for m in itertools.count(2, 2):
        h = p ** (m // 2)
        # the a0 = h mod 2q^2 in (-h, h); their negatives, the a0 = -h, give the same s
        for a0 in range(h - 2 * q * q, -h, -2 * q * q):
            s = (h * h - a0 * a0) // (4 * q * q)
            while s % 4 == 0:
                s //= 4
            if s % 8 != 7:
                return m


def lps_girth_check(p: int, q: int) -> LpsGirthResult:
    """The girth of the LPS Cayley graph, compared to the bound.

    Requires q <= MAX_Q, p >= 5 and q > 2p both prime and 1 mod 4, and p a
    quadratic non-residue mod q; the girth bound is 4 log_p q - log_p 4.
    """
    # the cap comes first: it bounds q, and q > 2p then bounds p, so the
    # trial divisions below stay short
    if q > MAX_Q:
        raise LpsError(f"q = {q} is above the cap {MAX_Q}")
    if not _is_prime(q) or q <= 2 * p:
        raise LpsError(f"q = {q} must be a prime > 2p")
    if not _is_prime(p) or p < 5:
        raise LpsError(f"p = {p} must be a prime >= 5")
    if p % 4 != 1:
        raise LpsError(f"p = {p} must be 1 mod 4 for the LPS generators")
    if pow(p, (q - 1) // 2, q) != q - 1:
        raise LpsError(f"p = {p} is a quadratic residue mod {q}")
    if q % 4 != 1:
        raise LpsError(f"-1 is not a square mod {q} (need q = 1 mod 4)")
    girth = _girth(p, q)
    bound = (4 * math.log(q) - math.log(4)) / math.log(p)
    bound_ceil = math.ceil(bound)
    psl_order = q * (q * q - 1) // 2
    return LpsGirthResult(
        p, q, p + 1, 2 * psl_order, psl_order, girth, bound, bound_ceil, girth >= bound_ceil
    )
