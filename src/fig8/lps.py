"""Girth verification for Lubotzky–Phillips–Sarnak Cayley graphs.

The p+1 generators come from the integer quaternions a^2+b^2+c^2+d^2 = p
with a odd positive and b, c, d even, mapped to 2x2 matrices over the field
with q elements through a fixed square root of -1.  Matrices are handled
projectively (scalars quotiented out); when p is a quadratic non-residue
mod q the generated group is the full projective general linear group, of
order q(q^2-1) = twice the projective special linear order.

Girth is computed by a full breadth-first search from the identity: every
non-tree edge (u, v) closes a cycle of length dist(u) + dist(v) + 1, and
vertex transitivity puts the identity on a shortest cycle.  The group order
reported is the number of vertices the search reached.

A vertex g is stored by where it sends three points of the projective
line, (g(0), g(1), g(infinity)): a Möbius map is fixed by three images and
scalars act trivially, so no canonical form is needed.  The points are
numbered 0 .. q-1, with q for infinity, and the triple is one int below
(q + 1)^3.  The search multiplies on the left, so a step by a generator is
three lookups in its table of q + 1 point images.  Inversion maps this left
Cayley graph onto the right one, since the generators are closed under
inverse, so the girth and the order are the same.  Distances are bytes in
a bytearray of (q + 1)^3 entries holding distance + 1, with 0 for a vertex
not yet reached.  A neighbour one level nearer the identity is skipped: the
edge is the tree edge, or its cycle is counted from the nearer end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .resfin import primes

ProjMat = tuple[int, int, int, int]

# The search keeps a byte for each of (q+1)^3 possible triples, reaches
# q(q^2-1) of them, and visits p+1 edges at each.  The cap admits q <= 61:
# (29, 61) has 226,920 vertices and takes about 0.8 s and 23 MB (peak RSS
# of the whole process) on a 2-core VM.  The deepest distances at the
# admitted extremes, 6 at (29, 61) and 10 at (5, 53), are far below the 254
# that a byte of distance + 1 holds.
MAX_VERTICES = 250_000


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


def lps_girth_check(p: int, q: int) -> LpsGirthResult:
    """Build the LPS Cayley graph, measure its girth, compare to the bound.

    Requires p >= 5 and q > 2p both prime, p = 1 mod 4, p a quadratic
    non-residue mod q, and q(q^2-1) <= MAX_VERTICES; the girth bound is
    4 log_p q - log_p 4.
    """
    # the cap comes first: it bounds q, and q > 2p then bounds p, so the
    # trial divisions below stay short
    if q * (q * q - 1) > MAX_VERTICES:
        raise LpsError(f"q = {q}: the q(q^2-1) vertices exceed the cap {MAX_VERTICES}")
    if not _is_prime(q) or q <= 2 * p:
        raise LpsError(f"q = {q} must be a prime > 2p")
    if not _is_prime(p) or p < 5:
        raise LpsError(f"p = {p} must be a prime >= 5")
    if p % 4 != 1:
        raise LpsError(f"p = {p} must be 1 mod 4 for the LPS generators")
    if pow(p, (q - 1) // 2, q) != q - 1:
        raise LpsError(f"p = {p} is a quadratic residue mod {q}")
    gens = lps_generators(p, q)
    inv = _inverses(q)
    n = q + 1  # the points of the projective line: 0 .. q-1, and q for infinity
    tables = []
    for a, b, c, d in gens:
        # z -> (az + b)/(cz + d) on 0 .. q-1, then infinity -> a/c
        fracs = [((a * z + b) % q, (c * z + d) % q) for z in range(q)] + [(a, c)]
        image = [x * inv[y] % q if y else q for x, y in fracs]
        tables.append(([t * n * n for t in image], [t * n for t in image], image))
    identity = n + q  # the triple (0, 1, infinity)
    dist = bytearray(n**3)
    dist[identity] = 1
    frontier = [identity]
    best = math.inf  # least dist(u) + dist(v) + 3 over non-tree edges (u, v)
    level = 1
    while frontier:
        level += 1  # the byte of the vertices found in this pass
        if level > 255:
            raise LpsError(f"search reached distance {level - 1}; a byte holds at most 254")
        nearer = level - 2  # the byte of the vertices one level nearer the identity
        queued = []
        for u in frontier:
            x, yz = divmod(u, n * n)
            y, z = divmod(yz, n)
            for tx, ty, tz in tables:
                v = tx[x] + ty[y] + tz[z]
                seen = dist[v]
                if not seen:
                    dist[v] = level
                    queued.append(v)
                elif seen != nearer and level + seen < best:
                    best = level + seen
        frontier = queued
    if best == math.inf:
        raise LpsError("acyclic Cayley graph: generator set degenerate")
    girth = best - 2  # dist(u) + dist(v) + 1
    bound = (4 * math.log(q) - math.log(4)) / math.log(p)
    bound_ceil = math.ceil(bound)
    psl_order = q * (q * q - 1) // 2
    order = len(dist) - dist.count(0)  # the vertices the search reached
    return LpsGirthResult(
        p, q, len(gens), order, psl_order, girth, bound, bound_ceil, girth >= bound_ceil
    )
