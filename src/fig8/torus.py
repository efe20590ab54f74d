"""Census of geodesics on a cusped once-punctured torus via Fricke trace triples.

Simple closed geodesics correspond to rational slopes; the trace of the
slope-p/q geodesic is read off a tree of trace triples generated by Vieta
flips from a root triple satisfying the cusp relation x^2+y^2+z^2 = xyz.
The walk carries each slope signed, the three of a Farey triangle summing
to zero, and orients it (q > 0, or p > 0 if q = 0) only when it is listed.
A simple geodesic of trace t cuts off the pants (t, t, cusp); by `sl2.eight_trace`
they hold two one-double-point geodesics around (t, cusp), of trace 2t + t = 3t,
and a companion figure-eight around (t, t), of trace t^2 + 2.

For the modular torus (root (3,3,3)) all traces are integers and the
arithmetic below stays exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter

from .sl2 import eight_trace, length_to_trace, trace_to_length

TOL = 1e-9

Slope = tuple[int, int]
TraceTriple = tuple[float, float, float]  # the traces of the slopes ROOT_SLOPES


def check_root(root: TraceTriple) -> TraceTriple:
    """Raise ValueError unless root is a valid walk root; return root."""
    x, y, z = root
    if not all(type(c) in (int, Fraction, float) for c in root):  # a Decimal's context is unkeyed
        raise ValueError(f"trace triple {root} needs int, Fraction or float entries")
    if not all(2 < c < math.inf for c in root):  # NaN fails too
        raise ValueError(f"trace triple {root} needs finite entries > 2")
    # products, not powers: a float square overflows to inf instead of raising
    try:
        lhs, rhs = x * x + y * y + z * z, x * y * z
    except OverflowError:  # an int beyond floats next to a float
        lhs = rhs = math.nan
    # int and Fraction traces are judged exactly, at any size
    slack = TOL * max(1.0, abs(rhs)) if any(isinstance(c, float) for c in root) else 0
    if not abs(lhs - rhs) <= slack < math.inf:  # NaN, as from inf - inf, fails too
        raise ValueError("cusp relation x^2 + y^2 + z^2 = xyz violated")
    return root


MODULAR_ROOT: TraceTriple = (3, 3, 3)
# The slopes of a root's three traces, a Farey triangle, signed to sum to zero.
ROOT_SLOPES: tuple[Slope, Slope, Slope] = ((0, 1), (1, 0), (-1, -1))

# The largest walk of the last root walked: (root key, cutoff, sorted pairs,
# the tables derived from the pairs: the McShane prefix sums, built with the
# walk, and a census mode's lines, built when a job first asks for more).
_walk: tuple[tuple, float, list[tuple[float, Slope]], dict] | None = None


def _kept_walk(root: TraceTriple, trace_cutoff: float) -> tuple:
    """The kept walk record if it covers root to trace_cutoff, else a new walk, kept.

    Checks the root, labels it ROOT_SLOPES, and flips it down to the tree's
    sink while some flip lowers a coordinate; a flip to a trace <= 2 raises
    ValueError.  The sink is checked again: a float root judged within a
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

    A process keeps the largest walk of the last root walked, with the
    tables its jobs read: the McShane prefix sums of its traces, built here,
    and the census lines that _census_lines adds.  Above the sink every flip
    raises a trace, so the walk to a cutoff is the sorted prefix of any walk
    to a larger one.  The root is keyed by the type and value of each entry: 3, 3.0 and
    Fraction(3) walk in different types.
    """
    global _walk
    check_root(root)
    if not 3 <= trace_cutoff < math.inf:  # NaN fails too
        raise ValueError(f"trace cutoff {trace_cutoff} is not a finite number >= 3")
    key, kept = tuple((type(c), c) for c in root), _walk  # read once: a thread may replace it
    if kept is not None and kept[0] == key and trace_cutoff <= kept[1]:
        return kept
    sink, s = list(root), list(ROOT_SLOPES)
    # flipping x_k gives x_i x_j - x_k, lower than x_k iff xyz < 2 x_k^2
    while lower := [k for k in range(3) if math.prod(sink) < 2 * sink[k] ** 2]:
        k = lower[0]
        i, j = (k + 1) % 3, (k + 2) % 3
        (pi, qi), (pj, qj) = s[i], s[j]
        sink[k], s[j], s[k] = sink[i] * sink[j] - sink[k], (-pj, -qj), (pj - pi, qj - qi)
        if not sink[k] > 2:
            raise ValueError(f"Vieta flip gives trace {sink[k]}, not above 2")
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
    sums = [*accumulate(map(_mcshane_term, map(itemgetter(0), found)), initial=0.0)]
    _walk = kept = key, trace_cutoff, found, {"sums": sums}
    return kept


def enumerate_simple(root: TraceTriple, trace_cutoff: float) -> list[tuple[float, Slope]]:
    """The sorted (trace, slope) pairs of the simple geodesics with trace <= cutoff.

    A fresh copy of the prefix of the kept walk (_kept_walk), which walks
    again only for a larger cutoff or another root.
    """
    pairs = _kept_walk(root, trace_cutoff)[2]
    return pairs[: bisect_right(pairs, trace_cutoff, key=itemgetter(0))]


def _counts(pairs: list[tuple[float, Slope]], trace_cutoff: float) -> tuple[int, int, int]:
    """(N0, N1_paired, N1_full) at trace cutoff T from sorted simple pairs:
    the traces t <= T, two paired geodesics for each t with
    eight_trace(t, 2, t) <= T, and a companion for each t with
    eight_trace(t, t, 2) <= T.  Both keys rise with t, so each is one bisect."""
    n0 = bisect_right(pairs, trace_cutoff, key=itemgetter(0))
    n_paired = bisect_right(pairs, trace_cutoff, key=lambda pair: eight_trace(pair[0], 2, pair[0]))
    n_companion = bisect_right(pairs, trace_cutoff, key=lambda pair: eight_trace(pair[0], pair[0], 2))
    return n0, 2 * n_paired, 2 * n_paired + n_companion


def _census_cutoff(trace_cutoff: float) -> float:
    """The simple trace cutoff of a census to trace_cutoff T: two ulps above
    T/3.0, as 3t is rounded to within half an ulp of T and T/3.0 to within
    half an ulp of T/3, so every t with eight_trace(t, 2, t) <= T is walked;
    a companion's t^2 + 2 <= T gives t <= sqrt(T - 2) <= T/3 (T >= 9).
    Below 3 it is T/3.0 itself, which the walk refuses."""
    third = trace_cutoff / 3.0
    return third if third < 3 else math.nextafter(math.nextafter(third, math.inf), math.inf)


def _census_rows(pairs: list[tuple[float, Slope]], trace_cutoff: float, mode: str) -> list[tuple]:
    """The sorted (trace, slope, family) rows of the sorted simple pairs that
    _counts counts at trace_cutoff: a paired row for each of the first
    N1_paired/2 pairs and, in full mode, a companion for each of the first
    N1_full - N1_paired."""
    _, n_paired, n_full = _counts(pairs, trace_cutoff)
    rows = [(eight_trace(t, 2, t), st, "paired-fig8") for t, st in pairs[: n_paired // 2]]
    if mode == "full":
        rows += [(eight_trace(t, t, 2), st, "companion-fig8") for t, st in pairs[: n_full - n_paired]]
    rows.sort()
    return rows


def one_intersection_census(
    root: TraceTriple, length_cutoff: float, mode: str = "paired"
) -> list[tuple[float, Slope, str]]:
    """Geodesics with a single double point, of length <= cutoff.

    A simple trace t cuts off the pants (t, t, cusp): "paired" gives the row of
    their two eights around (t, cusp), of trace eight_trace(t, 2, t) = 3t, and
    "full" adds the companion around (t, t), of trace eight_trace(t, t, 2) = t^2 + 2.
    A row is listed iff its own trace is within the cutoff, as census_counts
    counts it.  The (trace, slope, family) rows are sorted: a paired row
    stands for two geodesics.
    """
    if mode not in ("paired", "full"):
        raise ValueError(f"unknown census mode {mode!r}")
    trace_cutoff = length_to_trace(length_cutoff)
    return _census_rows(_kept_walk(root, _census_cutoff(trace_cutoff))[2], trace_cutoff, mode)


def _census_csv(rows: list[tuple], fmt) -> list[str]:
    """The CSV lines of census rows, floats written by fmt; a paired row's
    line is written twice, the same string, since the row stands for two
    geodesics."""
    lines = []
    for t, (p, q), family in rows:
        n = 2 if family == "paired-fig8" else 1
        lines += [f"{fmt(t)},{fmt(trace_to_length(t))},{family},{p}/{q}"] * n
    return lines


def _census_lines(root: TraceTriple, length_cutoff: float, mode: str, fmt) -> list[str]:
    """The CSV lines of one_intersection_census's rows, written by _census_csv.

    Rows sort by trace and _counts counts them, so a job's lines are the
    first N1 lines, N1_paired or N1_full at its T, of the lines of any
    larger T.  Each mode keeps with the walk its lines to the largest T a
    job has asked of the walk, built with the fmt of the first call (the
    CLI passes its own), so no job writes rows beyond its own.
    """
    trace_cutoff = length_to_trace(length_cutoff)
    _, _, pairs, tables = _kept_walk(root, _census_cutoff(trace_cutoff))
    kept = tables.get(mode)  # read once: a thread may replace it
    if kept is None or kept[0] < trace_cutoff:
        kept = tables[mode] = trace_cutoff, _census_csv(_census_rows(pairs, trace_cutoff, mode), fmt)
    _, n_paired, n_full = _counts(pairs, trace_cutoff)
    return kept[1][: n_full if mode == "full" else n_paired]


def _mcshane_term(t: float) -> float:
    try:
        x = 2.0 / t
    except OverflowError:  # an exact trace above the float range: x is 0.0
        x = float(2 / t)
    return x * x / (1.0 + math.sqrt(1.0 - x * x))


def mcshane_sum(traces: list[float], form: str = "trace") -> float:
    """Partial McShane sum over simple geodesic traces (from enumerate_simple).

    The trace form converges to 1, the length form to 1/2.  The term of
    trace t = 2 cosh(l/2) is 1 - tanh(l/2) = x^2/(1 + sqrt(1 - x^2)) with
    x = 2/t, a form free of cancellation, and the length term 1/(1 + e^l)
    is exactly half of it.  The terms are added in order from 0.0.
    """
    if form not in ("trace", "length"):
        raise ValueError(f"unknown form {form!r}")
    *_, total = accumulate(map(_mcshane_term, traces), initial=0.0)
    return total if form == "trace" else total / 2


def _mcshane_prefix(root: TraceTriple, trace_cutoff: float, form: str = "trace") -> tuple:
    """The number k of simple traces <= trace_cutoff and mcshane_sum of them,
    bit for bit: entry k of the prefix sums kept with the walk.  Form "mc2"
    gives the N1_paired = 2k' terms that _counts counts and twice entry k'."""
    walked = _census_cutoff(trace_cutoff) if form == "mc2" else trace_cutoff
    _, _, pairs, tables = _kept_walk(root, walked)
    sums = tables["sums"]
    if form == "mc2":
        terms = _counts(pairs, trace_cutoff)[1]
        return terms, 2 * sums[terms // 2]
    k = bisect_right(pairs, trace_cutoff, key=itemgetter(0))
    return k, sums[k] if form == "trace" else sums[k] / 2


def census_counts(root: TraceTriple, length_bounds: list[float]) -> list[tuple[int, int, int]]:
    """(N0, N1_paired, N1_full) counts of geodesics with length <= L at each
    bound L, from one walk at the largest trace bound or 3.

    Every bound is converted before the walk, so a bad length is reported
    before a root that cannot be walked.  _counts counts each bound in the
    sorted pairs of the walk, a sink trace below 3 included.
    """
    trace_bounds = []
    for length in length_bounds:
        if length <= 0:
            raise ValueError("length bound must be positive")
        trace_bounds.append(length_to_trace(length))
    pairs = _kept_walk(root, max(trace_bounds + [3]))[2]
    return [_counts(pairs, bound) for bound in trace_bounds]


def growth_exponent(samples: list[tuple[float, int]]) -> float:
    """Least-squares slope of log N against log L; needs >= 4 points with N >= 10."""
    pts = [(math.log(l), math.log(n)) for l, n in samples if n >= 10]
    if len(pts) < 4:
        raise ValueError("need at least 4 sample points with N >= 10")
    n = len(pts)
    mx = sum(x for x, _ in pts) / n
    my = sum(y for _, y in pts) / n
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        raise ValueError("degenerate sample: all L equal")
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
