"""Geometric self-intersection numbers on the modular torus.

The once-punctured modular torus is H^2 / G with G generated by
X = [[1,1],[1,2]] and Y = [[1,-1],[-1,2]].  The double points of the closed
geodesic of a hyperbolic word w are counted through its lifts: conjugate
axes g w g^-1 crossing one translation period of the axis of w, two
crossings per double point.

Candidate conjugators g are collected by a breadth-first search over the
group kept inside a metric neighborhood of the fundamental segment of the
axis; the neighborhood radius is half the translation length plus
MARGIN, which suffices because every crossing lift has a coset
representative whose orbit point lands within half a period of the
crossing.  A radius-stability assertion (MARGIN + 2 yields the same count)
guards the cutoff at runtime.
"""

from __future__ import annotations

import math
from collections import deque

from .sl2 import Mat2
from .words import Word, evaluate

TOL = 1e-9
MARGIN = 2.0

# Fuchsian generators of the modular torus group (commutator is parabolic).
TORUS_X = Mat2(1, 1, 1, 2)
TORUS_Y = Mat2(1, -1, -1, 2)
MODULAR_ASSIGNMENT = {"a": TORUS_X, "b": TORUS_Y}

_GEN_BY_LETTER = {
    "a": TORUS_X,
    "A": TORUS_X.inverse(),
    "b": TORUS_Y,
    "B": TORUS_Y.inverse(),
}


class SelfIntersectionError(ValueError):
    pass


def _mobius(m: Mat2, z: complex) -> complex:
    return (m.a11 * z + m.a12) / (m.a21 * z + m.a22)


def self_intersection(w: Word) -> int:
    """Number of double points of the closed geodesic of w on the modular torus.

    Requires w cyclically reduced, hyperbolic and not a proper power.
    """
    if w.is_trivial:
        raise SelfIntersectionError("trivial word")
    if not w.is_cyclically_reduced():
        raise SelfIntersectionError("word must be cyclically reduced")
    if w.is_proper_power():
        raise SelfIntersectionError("word is a proper power")
    big_w = evaluate(w, MODULAR_ASSIGNMENT, Mat2.identity())
    trace = big_w.trace
    if abs(trace) <= 2:
        raise SelfIntersectionError(f"trace {trace}: word is not hyperbolic")

    a, b, c, d = big_w.entries()
    if c == 0:
        # conjugate once to move the axis off infinity
        conj = Word("a" + w.letters + "A", w.gens).cyclically_reduced()
        return self_intersection(conj)
    disc = math.sqrt(trace * trace - 4)
    p1 = ((a - d) + disc) / (2 * c)
    p2 = ((a - d) - disc) / (2 * c)
    if p1 < p2:
        p1, p2 = p2, p1  # frame map below then preserves the upper half-plane

    def frame(z):
        # sends the axis endpoints to 0 and infinity
        return (z - p1) / (z - p2)

    lam = (abs(trace) + disc) / 2.0
    dilation = lam * lam  # period of <w> acting on the framed axis
    period = 2.0 * math.acosh(abs(trace) / 2.0)
    base_frame = complex(0.0, math.sqrt(dilation))
    base_point = (p2 * base_frame - p1) / (base_frame - 1.0)

    def segment_distance(z: complex) -> float:
        fz = frame(z)
        x, y = fz.real, abs(fz.imag)
        r = math.hypot(x, y)
        t = min(max(r, 1.0), dilation)  # clamp = orthogonal projection onto the segment
        ch = 1.0 + (x * x + (y - t) ** 2) / (2.0 * y * t)
        return math.acosh(max(ch, 1.0))

    radius = period / 2.0 + MARGIN
    radius_wide = radius + 2.0

    identity = Mat2.identity()
    kept: list[tuple[Mat2, float]] = [(identity, 0.0)]
    visited = {identity.entries()}
    queue: deque[tuple[Mat2, str]] = deque([(identity, "")])
    while queue:
        g, last = queue.popleft()
        for ch, gen in _GEN_BY_LETTER.items():
            if last and ch == last.swapcase():
                continue
            g2 = g * gen
            key = g2.entries()
            if key in visited:
                continue
            dist = segment_distance(_mobius(g2, base_point))
            if dist <= radius_wide:
                visited.add(key)
                kept.append((g2, dist))
                queue.append((g2, ch))

    def crossing_count(max_dist: float) -> int:
        crossings = set()
        for g, dist in kept:
            if dist > max_dist:
                continue
            conj = g * big_w * g.inverse()
            if conj * big_w == big_w * conj:
                continue  # same axis, no transversal crossing
            ca, cb, cc, cd = conj.entries()
            if cc == 0:
                continue  # axis through infinity cannot meet the framed segment
            ct = ca + cd
            disc2 = ct * ct - 4
            if disc2 <= 0:
                continue
            s = math.sqrt(disc2)
            u = frame(((ca - cd) + s) / (2 * cc))
            v = frame(((ca - cd) - s) / (2 * cc))
            if u * v < 0:
                height = math.sqrt(-u * v)
                if 1.0 - TOL <= height < dilation * (1.0 - TOL):
                    crossings.add(conj.entries())
        return len(crossings)

    count = crossing_count(radius)
    count_wide = crossing_count(radius_wide)
    if count != count_wide:
        raise SelfIntersectionError(
            f"crossing count unstable under radius increase: {count} vs {count_wide}"
        )
    if count % 2:
        raise SelfIntersectionError(f"odd crossing count {count}")
    return count // 2
