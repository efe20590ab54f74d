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

The search works on integers.  A row (x, y) over F_q is the int x*q + y,
and right multiplication by a generator maps each row of a matrix on its
own, so each generator is one table of q^2 row images.  The canonical
representative of a vertex has a first row whose first nonzero entry is 1,
one of the q + 1 points of the projective line, so the vertex is the int
point*q^2 + row2.  Per generator and point, tables give the point of the
image's first row and the scalar that makes it canonical; a table of scaled
rows gives the new second row.  Distances are bytes in a bytearray of
(q + 1) q^2 entries, one per possible vertex, holding distance + 1, with 0
for a vertex not yet reached.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .resfin import primes

ProjMat = tuple[int, int, int, int]

# The search keeps a byte for each of (q+1)q^2 possible vertices, reaches
# q(q^2-1) of them, and visits p+1 edges at each.  The cap admits q <= 61:
# (29, 61) has 226,920 vertices and takes about 3.5 s and 37 MB (peak RSS
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
    # the adjugate is the projective inverse
    inverse = [gens.index(_canon((d, -b % q, -c % q, a), inv)) for a, b, c, d in gens]
    qq = q * q
    rows = [divmod(r, q) for r in range(qq)]
    tables = [
        [(x * e + y * g) % q * q + (x * f + y * h) % q for x, y in rows] for e, f, g, h in gens
    ]
    # point 0 is the first row (0, 1) and point 1 + y is (1, y).  A generator
    # sends point t's first row to one of point points[t], made canonical by
    # the scalar scales[t]; both are kept times q^2, and
    # scaled[s * q^2 + row] is the row times s.
    first_rows = [1] + [q + y for y in range(q)]
    scaled = [x * s % q * q + y * s % q for s in range(q) for x, y in rows]
    edges = []
    for gi, table in enumerate(tables):
        images = [rows[table[r]] for r in first_rows]
        points = [(1 + y * inv[x] % q if x else 0) * qq for x, y in images]
        scales = [inv[x or y] * qq for x, y in images]
        edges.append((gi, table, points, scales, inverse[gi]))
    # a frontier entry is vertex * base + index of the generator back to its
    # parent; the identity's index, len(gens), matches no generator
    base = len(gens) + 1
    identity = qq + 1  # first row (1, 0) is point 1, second row (0, 1)
    dist = bytearray((q + 1) * qq)
    dist[identity] = 1
    frontier = [identity * base + len(gens)]
    best = math.inf  # least dist(u) + dist(v) + 3 over non-tree edges (u, v)
    level = 1
    while frontier:
        level += 1  # the byte of the vertices found in this pass
        if level > 255:
            raise LpsError(f"search reached distance {level - 1}; a byte holds at most 254")
        queued = []
        for entry in frontier:
            u, back = divmod(entry, base)
            t, row2 = divmod(u, qq)
            for gi, table, points, scales, gi_inverse in edges:
                if gi == back:
                    continue  # the tree edge, traversed backwards
                v = points[t] + scaled[scales[t] + table[row2]]
                seen = dist[v]
                if not seen:
                    dist[v] = level
                    queued.append(v * base + gi_inverse)
                elif level + seen < best:
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
