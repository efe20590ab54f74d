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
crossing.  A radius-stability check guards the cutoff at runtime: a count
that changes at radius MARGIN + 2 raises ValueError, as an odd count does.
G is free on X and Y and the search never steps back along its last
letter, so it walks a Cayley tree and meets each g once.  It walks on int
tuples (a, b, c, d) and builds C = g w g^-1 as g leaves the queue, so one
sweep counts the crossings at both radii.  C is skipped if it is w: the
C that commute with w are w and w^-1, since C has w's trace, and w^-1 is
never met, as no nontrivial element of a free group is conjugate to its
inverse.
"""

from __future__ import annotations

import math
from collections import deque

from .sl2 import Mat2, trace_to_length
from .words import Word, evaluate, letter_images

TOL = 1e-9
MARGIN = 2.0

# Fuchsian generators of the modular torus group (commutator is parabolic).
TORUS_X = Mat2(1, 1, 1, 2).check()
TORUS_Y = Mat2(1, -1, -1, 2).check()
MODULAR_ASSIGNMENT = {"a": TORUS_X, "b": TORUS_Y}


def _successor_table(images: dict) -> list:
    """Root row of the search's successor table: a letter's row holds
    (row, x11, x12, x21, x22) for each letter that may follow it, in the
    order of ``images``, on which the first float failure met can depend."""
    rows = {ch: [] for ch in images}
    for last, row in rows.items():
        row += [(rows[ch], *x) for ch, x in images.items() if ch != last.swapcase()]
    return [(rows[ch], *x) for ch, x in images.items()]


_ROOT_ROW = _successor_table(letter_images(MODULAR_ASSIGNMENT))


def self_intersection(w: Word) -> int:
    """Number of double points of the closed geodesic of w on the modular torus.

    Requires w cyclically reduced, hyperbolic and not a proper power.
    """
    if w.is_trivial:
        raise ValueError("trivial word")
    if w.cyclically_reduced() != w:
        raise ValueError("word must be cyclically reduced")
    if w.is_proper_power():
        raise ValueError("word is a proper power")
    big_w = evaluate(w, MODULAR_ASSIGNMENT, Mat2.identity())
    trace = big_w.trace
    if abs(trace) <= 2:
        raise ValueError(f"trace {trace}: word is not hyperbolic")
    try:
        count, count_wide = _crossing_counts(big_w)
    except (ZeroDivisionError, OverflowError) as exc:
        # a float-framed point landed on the real line, or an entry outgrew a float
        raise ValueError(f"float sweep failed: {type(exc).__name__}: {exc}") from None
    if count != count_wide:
        raise ValueError(f"crossing count unstable under radius increase: {count} vs {count_wide}")
    if count % 2:
        raise ValueError(f"odd crossing count {count}")
    return count // 2


def _crossing_counts(big_w: Mat2) -> tuple[int, int]:
    """Crossing lifts of the axis of W, at the search radius and at radius + 2."""
    trace = big_w.trace
    # c != 0, also in every g W g^-1: det 1 with c = 0 forces a = d = +-1, trace +-2
    a, b, c, d = big_w
    disc = math.sqrt(trace * trace - 4)
    p1 = ((a - d) + disc) / (2 * c)
    p2 = ((a - d) - disc) / (2 * c)
    if p1 < p2:
        p1, p2 = p2, p1  # frame map z -> (z - p1) / (z - p2) then preserves the upper half-plane

    lam = (abs(trace) + disc) / 2.0
    dilation = lam * lam  # period of <w> acting on the framed axis
    period = trace_to_length(trace)
    base_frame = complex(0.0, math.sqrt(dilation))
    base_point = (p2 * base_frame - p1) / (base_frame - 1.0)
    radius = period / 2.0 + MARGIN
    radius_wide = radius + 2.0

    crossings, crossings_wide = set(), set()
    queue = deque([(1, 0, 0, 1, _ROOT_ROW, 0.0)])
    while queue:
        g11, g12, g21, g22, row, dist = queue.popleft()
        m11, m12 = g11 * a + g12 * c, g11 * b + g12 * d
        m21, m22 = g21 * a + g22 * c, g21 * b + g22 * d
        ca, cb = m11 * g22 - m12 * g21, m12 * g11 - m11 * g12
        cc, cd = m21 * g22 - m22 * g21, m22 * g11 - m21 * g12
        conj = (ca, cb, cc, cd)
        # skip gWg^-1 if it commutes with W (same axis): then it is W
        if conj != (a, b, c, d):
            e = ca - cd
            end1 = (e + disc) / (2 * cc)  # gWg^-1 has the trace of W, so the same disc
            end2 = (e - disc) / (2 * cc)
            u = (end1 - p1) / (end1 - p2)
            v = (end2 - p1) / (end2 - p2)
            if u * v < 0:
                height = math.sqrt(-u * v)
                if 1.0 - TOL <= height < dilation * (1.0 - TOL):
                    crossings_wide.add(conj)
                    if dist <= radius:
                        crossings.add(conj)
        for next_row, x11, x12, x21, x22 in row:
            h11, h12 = g11 * x11 + g12 * x21, g11 * x12 + g12 * x22
            h21, h22 = g21 * x11 + g22 * x21, g21 * x12 + g22 * x22
            # distance from the Mobius image of the base point to the framed segment
            z = (h11 * base_point + h12) / (h21 * base_point + h22)
            fz = (z - p1) / (z - p2)
            x, y = fz.real, abs(fz.imag)
            # clamp = orthogonal projection onto the segment (a NaN stays NaN)
            t = math.hypot(x, y)
            if t < 1.0:
                t = 1.0
            elif t > dilation:
                t = dilation
            # 1 + a sum of squares over 2yt >= 0, so acosh gets 1.0 or more, or a NaN
            cosh_dist = 1.0 + (x * x + (y - t) ** 2) / (2.0 * y * t)
            dist2 = math.acosh(cosh_dist)
            if dist2 <= radius_wide:
                queue.append((h11, h12, h21, h22, next_row, dist2))
    return len(crossings), len(crossings_wide)
