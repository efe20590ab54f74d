"""Girth verification for Lubotzky–Phillips–Sarnak Cayley graphs.

The p+1 generators come from the integer quaternions a^2+b^2+c^2+d^2 = p
with a odd positive and b, c, d even, mapped to 2x2 matrices over the field
with q elements through a fixed square root of -1.  Matrices are handled
projectively (scalars quotiented out); when p is a quadratic non-residue
mod q the generated group is the full projective general linear group, of
order q(q^2-1) = twice the projective special linear order.

Girth is computed by breadth-first search from the identity: every
non-tree edge (u, v) closes a cycle of length dist(u) + dist(v) + 1, and
vertex transitivity puts the identity on a shortest cycle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

ProjMat = tuple[int, int, int, int]


class LpsError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def quaternion_solutions(p: int) -> list[tuple[int, int, int, int]]:
    """All (a,b,c,d) with a^2+b^2+c^2+d^2 = p, a odd positive, b,c,d even."""
    r = math.isqrt(p)
    sols = []
    for a in range(1, r + 1, 2):
        for b in range(-r, r + 1, 2):
            for c in range(-r, r + 1, 2):
                for d in range(-r, r + 1, 2):
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


def _mul(x: ProjMat, y: ProjMat, q: int) -> ProjMat:
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)


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


def lps_girth_check(p: int, q: int) -> LpsGirthResult:
    """Build the LPS Cayley graph, measure its girth, compare to the bound.

    Requires p >= 5 and q > 2p both prime with p a quadratic non-residue
    mod q; the girth bound is 4 log_p q - log_p 4.
    """
    if not _is_prime(p) or p < 5:
        raise LpsError(f"p = {p} must be a prime >= 5")
    if not _is_prime(q) or q <= 2 * p:
        raise LpsError(f"q = {q} must be a prime > 2p")
    if pow(p, (q - 1) // 2, q) != q - 1:
        raise LpsError(f"p = {p} is a quadratic residue mod {q}")
    gens = lps_generators(p, q)
    inv = _inverses(q)
    # the adjugate is the projective inverse
    inverse = [gens.index(_canon((d, -b % q, -c % q, a), inv)) for a, b, c, d in gens]
    identity: ProjMat = (1, 0, 0, 1)
    dist = {identity: 0}
    best: int | None = None
    # each vertex is queued with the index of the generator back to its parent
    queue: deque[tuple[ProjMat, int | None]] = deque([(identity, None)])
    while queue:
        u, back = queue.popleft()
        for gi, s in enumerate(gens):
            if gi == back:
                continue  # the tree edge, traversed backwards
            v = _canon(_mul(u, s, q), inv)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append((v, inverse[gi]))
            else:
                cycle = dist[u] + dist[v] + 1
                if best is None or cycle < best:
                    best = cycle
    if best is None:
        raise LpsError("acyclic Cayley graph: generator set degenerate")
    bound = (4 * math.log(q) - math.log(4)) / math.log(p)
    bound_ceil = math.ceil(bound)
    psl_order = q * (q * q - 1) // 2
    return LpsGirthResult(
        p, q, len(gens), len(dist), psl_order, best, bound, bound_ceil, best >= bound_ceil
    )
