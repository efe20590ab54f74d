"""Census of geodesics on a cusped once-punctured torus via Fricke trace triples.

Simple closed geodesics correspond to rational slopes; the trace of the
slope-p/q geodesic is read off a tree of trace triples generated by Vieta
flips from a root triple satisfying the cusp relation x^2+y^2+z^2 = xyz.
The walk carries each slope signed, the three of a Farey triangle summing
to zero, and orients it (q > 0, or p > 0 if q = 0) only when it is listed.
Each simple geodesic of trace t carries two one-double-point geodesics of
trace 3t and a companion figure-eight of trace t^2+2.

For the modular torus (root (3,3,3)) all traces are integers and the
arithmetic below stays exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .sl2 import length_to_trace

TOL = 1e-9

Slope = tuple[int, int]
TraceTriple = tuple[float, float, float]  # the traces of the slopes ROOT_SLOPES


class CensusError(ValueError):
    pass


def check_root(root: TraceTriple) -> TraceTriple:
    """Raise CensusError unless root is a valid walk root; return root."""
    x, y, z = root
    if not all(2 < c < math.inf for c in root):  # NaN fails too
        raise CensusError(f"trace triple {root} needs finite entries > 2")
    # products, not powers: a float square overflows to inf instead of raising
    try:
        lhs, rhs = x * x + y * y + z * z, x * y * z
    except OverflowError:  # an int beyond floats next to a float
        lhs = rhs = math.nan
    # int and Fraction traces are judged exactly, at any size
    slack = TOL * max(1.0, abs(rhs)) if any(isinstance(c, float) for c in root) else 0
    if not abs(lhs - rhs) <= slack < math.inf:  # NaN, as from inf - inf, fails too
        raise CensusError("cusp relation x^2 + y^2 + z^2 = xyz violated")
    return root


MODULAR_ROOT: TraceTriple = (3, 3, 3)
# The slopes of a root's three traces, a Farey triangle, signed to sum to zero.
ROOT_SLOPES: tuple[Slope, Slope, Slope] = ((0, 1), (1, 0), (-1, -1))


def enumerate_simple(root: TraceTriple, trace_cutoff: float) -> list[tuple[float, Slope]]:
    """The sorted (trace, slope) pairs of the simple geodesics with trace <= cutoff.

    Checks the root, labels it ROOT_SLOPES, and flips it down to the tree's
    sink while some flip lowers a coordinate; a flip to a trace <= 2 raises
    CensusError.  The sink is checked again: a float root judged within a
    slack relative to its size can miss the cusp relation there.  From the
    sink every flip raises a trace, so the trivalent Vieta tree is walked
    depth-first on plain tuples: the flip of w across
    (u, v) gives trace uv - w, in the operand types of the root.  As the
    slopes of a triangle sum to zero, the other Farey neighbour of su and sv
    is su - sv: a descent flip of k sets s[k] = s[j] - s[i], then negates
    s[j], and each sink edge is stored as (su, -sv), so the ascent only
    adds its two stored slopes, and both child edges keep that form.  A
    branch is cut at the first trace above the cutoff; each step introduces
    exactly one new slope, so slope deduplication is structural.  Traces
    keep the number type of the root: exact for int and Fraction roots.
    """
    check_root(root)
    if not 3 <= trace_cutoff < math.inf:  # NaN fails too
        raise CensusError(f"trace cutoff {trace_cutoff} is not a finite number >= 3")
    sink, s = list(root), list(ROOT_SLOPES)
    # flipping x_k gives x_i x_j - x_k, lower than x_k iff xyz < 2 x_k^2
    while lower := [k for k in range(3) if math.prod(sink) < 2 * sink[k] ** 2]:
        k = lower[0]
        i, j = (k + 1) % 3, (k + 2) % 3
        (pi, qi), (pj, qj) = s[i], s[j]
        sink[k], s[j], s[k] = sink[i] * sink[j] - sink[k], (-pj, -qj), (pj - pi, qj - qi)
        if not sink[k] > 2:
            raise CensusError(f"Vieta flip gives trace {sink[k]}, not above 2")
    check_root(sink)
    found = [
        (t, (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q))
        for t, (p, q) in zip(sink, s)
        if t <= trace_cutoff
    ]
    (x, y, z), ((px, qx), (py, qy), (pz, qz)) = sink, s
    stack = [
        (y, z, x, py, qy, -pz, -qz), (x, z, y, px, qx, -pz, -qz), (x, y, z, px, qx, -py, -qy)
    ]
    while stack:
        u, v, w, p1, q1, p2, q2 = stack.pop()
        t = u * v - w
        if t > trace_cutoff:
            continue
        p, q = p1 + p2, q1 + q2
        found.append((t, (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)))
        stack.append((v, t, u, p2, q2, p, q))
        stack.append((u, t, v, p1, q1, p, q))
    found.sort()
    return found


def one_intersection_census(
    root: TraceTriple, length_cutoff: float, mode: str = "paired"
) -> list[tuple[float, Slope, str]]:
    """Geodesics with a single double point, of length <= cutoff.

    "paired" gives the trace-3t row of the two geodesics cut off each simple
    geodesic of trace t; "full" adds the companion figure-eight of trace
    t^2 + 2 living in the same pair of pants.  The (trace, slope, family)
    rows are sorted, one per row: a paired row stands for two geodesics.
    """
    if mode not in ("paired", "full"):
        raise CensusError(f"unknown census mode {mode!r}")
    trace_cutoff = length_to_trace(length_cutoff)
    rows = []
    for t, st in enumerate_simple(root, trace_cutoff / 3.0):
        rows.append((3 * t, st, "paired-fig8"))
        # t^2 + 2 <= T gives t <= sqrt(T - 2) <= T/3 (T >= 9 here): no base is missed
        companion = t**2 + 2
        if mode == "full" and companion <= trace_cutoff:
            rows.append((companion, st, "companion-fig8"))
    rows.sort()
    return rows


def mcshane_sum(traces: list[float], form: str = "trace") -> float:
    """Partial McShane sum over simple geodesic traces (from enumerate_simple).

    The trace form converges to 1, the length form to 1/2.  The term of
    trace t = 2 cosh(l/2) is 1 - tanh(l/2) = x^2/(1 + sqrt(1 - x^2)) with
    x = 2/t, a form free of cancellation, and the length term 1/(1 + e^l)
    is exactly half of it.
    """
    if form not in ("trace", "length"):
        raise CensusError(f"unknown form {form!r}")
    total = 0.0
    for t in traces:
        try:
            x = 2.0 / t
        except OverflowError:  # an exact trace above the float range: x is 0.0
            x = float(2 / t)
        total += x * x / (1.0 + math.sqrt(1.0 - x * x))
    return total if form == "trace" else total / 2


def census_counts(root: TraceTriple, length_bounds: list[float]) -> list[tuple[int, int, int]]:
    """(N0, N1_paired, N1_full) counts of geodesics with length <= L at each
    bound L, from one walk at the largest trace bound or 3.

    Every bound is converted before the walk, so a bad length is reported
    before a root that cannot be walked.  Rows are counted in the sorted
    traces of the walk, a sink trace below 3 included.
    """
    trace_bounds = []
    for length in length_bounds:
        if length <= 0:
            raise CensusError("length bound must be positive")
        trace_bounds.append(length_to_trace(length))
    traces = [t for t, _ in enumerate_simple(root, max(trace_bounds + [3]))]
    rows = []
    for bound in trace_bounds:
        n0 = bisect_right(traces, bound)
        n_paired = 2 * bisect_right(traces, bound, key=lambda t: 3 * t)
        n_companion = bisect_right(traces, bound, key=lambda t: t**2 + 2)
        rows.append((n0, n_paired, n_paired + n_companion))
    return rows


def growth_exponent(samples: list[tuple[float, int]]) -> float:
    """Least-squares slope of log N against log L; needs >= 4 points with N >= 10."""
    pts = [(math.log(l), math.log(n)) for l, n in samples if n >= 10]
    if len(pts) < 4:
        raise CensusError("need at least 4 sample points with N >= 10")
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise CensusError("degenerate sample: all L equal")
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
