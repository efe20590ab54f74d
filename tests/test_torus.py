import itertools
import math
import random
from fractions import Fraction

import pytest

from fig8.torus import (
    MODULAR_ROOT,
    CensusError,
    _maybe_int,
    check_root,
    census_counts,
    enumerate_simple,
    growth_exponent,
    mc2_sum,
    mcshane_sum,
    one_intersection_census,
)
from fig8.sl2 import length_to_trace
from oracles import (
    LabelledTriple,
    _oracle_one_intersection_census,
    normalize_slope,
    vieta_flip,
)


def parse_slope(text: str):
    p, q = text.split("/")
    return normalize_slope(int(p), int(q))


def _traces(root, cutoff):
    return [t for t, _ in enumerate_simple(root, cutoff)]


def _mcshane(cutoff, form="trace"):
    return mcshane_sum(_traces(MODULAR_ROOT, cutoff), form)


def _mc2(cutoff):
    return mc2_sum(_traces(MODULAR_ROOT, cutoff / 3))


def test_trace_triple_validation():
    assert check_root(MODULAR_ROOT) is MODULAR_ROOT
    root = (Fraction(9, 4), Fraction(9, 2), Fraction(9, 2))
    assert check_root(root) is root  # entries need only exceed 2
    with pytest.raises(CensusError):
        check_root((3, 3, 4))  # cusp relation fails
    with pytest.raises(CensusError):
        check_root((2, 2, 2))  # not above 2
    with pytest.raises(CensusError):
        enumerate_simple((3, 3, 4), 10)  # the walk checks its root


@pytest.mark.parametrize(
    "coords",
    [
        (math.nan,) * 3,
        (math.inf,) * 3,
        (3, 3, math.nan),
        (1e200, 3, 3),  # x^2 overflows a float
        (1e160, 1e160, 1e160),  # lhs and rhs both overflow: inf - inf is NaN
        (1e150, 1e150, 1e150),  # rhs alone overflows
        (10**400, 3.0, 3),  # an int beyond floats next to a float
    ],
)
def test_non_finite_roots_are_rejected(coords):
    with pytest.raises(CensusError):
        check_root(coords)


def test_exact_triples_are_judged_exactly():
    node = LabelledTriple(3, 3, 3)
    for _ in range(18):  # flipping the least trace roughly squares the largest
        node = vieta_flip(node, node.coords().index(min(node.coords())))
    assert max(node.coords()) > 10**2600  # beyond floats; x^2 beyond int-to-str
    assert check_root(node.coords()) == node.coords()
    with pytest.raises(CensusError):
        check_root((node.x, node.y, node.z + 1))
    half = Fraction(9, 2)
    assert check_root((18, half, half))  # a rational cusped torus
    with pytest.raises(CensusError):
        check_root((18, half, half + Fraction(1, 10**30)))


def test_non_sink_root_descends_below_three():
    root = (4, 4, 8 + 32**0.5)  # a cusped torus whose first flip gives 2.34
    pairs = enumerate_simple(root, 20)
    assert pairs == _oracle_enumerate_simple(root, 20)
    assert 2.34 < pairs[0][0] < 2.35 and pairs[0][1] == (-1, 1)  # the flip of slope 1/1
    assert len({st for _, st in pairs}) == len(pairs)


@pytest.mark.parametrize("root", [(15, 87, 1299), (3, 6, 15)])
@pytest.mark.parametrize("cutoff", [5, 10, 1000, 10**6])
def test_root_above_the_sink_gives_the_modular_census(root, cutoff):
    """The walk starts at the sink, so a root above it neither lists its own
    traces past the cutoff nor misses the regions below it."""
    pairs = enumerate_simple(root, cutoff)
    assert [t for t, _ in pairs] == _traces(MODULAR_ROOT, cutoff)
    assert len({st for _, st in pairs}) == len(pairs)


@pytest.mark.parametrize("root", [LabelledTriple(3, 3, 3), LabelledTriple(15, 87, 1299)])
def test_random_flips_keep_every_node_valid(root):
    """Flips preserve what check_root tests, so walks need not check each node."""
    rng = random.Random(5)
    checked = 0
    for _ in range(200):
        node = root
        for _ in range(rng.randint(1, 30)):
            node = vieta_flip(node, rng.randrange(3))
            checked += check_root(node.coords()) == node.coords()
    assert checked > 2000


def test_vieta_flip_examples():
    t = vieta_flip(LabelledTriple(3, 3, 3), 2)
    assert t.coords() == (3, 3, 6)
    assert vieta_flip(t, 2).coords() == (3, 3, 3)  # involution
    assert vieta_flip(t, 1).coords() == (3, 15, 6)


def test_vieta_flip_preserves_cusp_relation():
    t = LabelledTriple(3, 3, 3)
    for k in (0, 1, 2, 0, 2, 1, 1):
        t = vieta_flip(t, k)
        x, y, z = t.coords()
        assert x * x + y * y + z * z == x * y * z


def test_enumerate_simple_base():
    assert enumerate_simple(MODULAR_ROOT, 5) == [(3, (0, 1)), (3, (1, 0)), (3, (1, 1))]
    with pytest.raises(CensusError):
        enumerate_simple(MODULAR_ROOT, 2)


def _markov_traces_brute(cutoff):
    """Independent recursive oracle: Vieta tree on coordinates only, dedup by
    multiset-of-neighbors is unavailable, so count traces with multiplicity
    of distinct Farey slopes via the (x,y,z)-triple recursion with parent
    tracking."""
    traces = {3: 3}  # the three root slopes share trace 3

    def rec(x, y, z):
        for new, rest in (((y * z - x), (y, z)), ((x * z - y), (x, z)), ((x * y - z), (x, y))):
            if new > max(x, y, z) and new <= cutoff:
                traces[new] = traces.get(new, 0) + 1
                rec(*sorted((new,) + rest))

    rec(3, 3, 3)
    return traces


def test_enumerate_simple_against_bruteforce_oracle():
    cutoff = 10**4
    pairs = enumerate_simple(MODULAR_ROOT, cutoff)
    got = {}
    for t, _ in pairs:
        got[t] = got.get(t, 0) + 1
    assert got == _markov_traces_brute(cutoff)
    slopes = [st for _, st in pairs]
    assert len(slopes) == len(set(slopes))  # no duplicate slope


def test_trace_multiset_invariant_under_root_permutation():
    base = _traces((3, 6, 15), 500)
    for coords in itertools.permutations((3, 6, 15)):
        assert _traces(coords, 500) == base


def test_one_intersection_census():
    rows = one_intersection_census(MODULAR_ROOT, 4.5, "paired")
    assert rows == [(9, st, "paired-fig8") for st in ((0, 1), (1, 0), (1, 1))]
    full = one_intersection_census(MODULAR_ROOT, 10.0, "full")
    assert min(t for t, _, _ in full) == 9
    assert any(family == "companion-fig8" and t == 11 for t, _, family in full)
    with pytest.raises(CensusError):
        one_intersection_census(MODULAR_ROOT, 4.5, "bogus")


def test_full_census_below_first_companion_equals_paired():
    # trace cutoff 2cosh(2.25) ~ 9.6 < 11 = 3^2 + 2: no companion fits
    assert one_intersection_census(MODULAR_ROOT, 4.5, "full") == one_intersection_census(
        MODULAR_ROOT, 4.5, "paired"
    )


def test_paired_traces_are_triples_of_parents():
    cutoff = 10**4
    parents = {3 * t for t in _traces(MODULAR_ROOT, cutoff / 3)}
    length_cutoff = 2 * math.acosh(cutoff / 2)
    paired = one_intersection_census(MODULAR_ROOT, length_cutoff, "paired")
    assert all(isinstance(t, int) and t in parents for t, _, _ in paired)


def test_mcshane_values_and_monotonicity():
    assert abs(mcshane_sum([3]) - 0.254644) < 1e-6
    assert abs(_mcshane(3) - 3 * 0.2546440) < 1e-5
    prev = 0.0
    for cutoff in (3, 10, 100, 1000, 10000):
        s = _mcshane(cutoff)
        assert prev <= s <= 1.0
        prev = s
    # the two forms agree termwise
    for cutoff in (3, 50, 5000):
        assert abs(_mcshane(cutoff, "trace") - 2 * _mcshane(cutoff, "length")) < 1e-9


def test_length_form_term_past_float_range_is_finite():
    """e^l overflows a float past l = 709, that is past trace 1.6e154."""
    term = mcshane_sum([1e160], "length")
    assert math.isfinite(term) and term >= 0


def test_mc2_identity_and_values():
    assert abs(_mc2(9) - 1.527864) < 1e-6
    for cutoff in (9, 100, 10000):
        assert abs(_mc2(cutoff) - 2 * _mcshane(cutoff / 3)) < 1e-12
    with pytest.raises(CensusError):
        _mc2(8)


def test_count_census():
    assert census_counts(MODULAR_ROOT, [1])[0] == (0, 0, 0)
    assert census_counts(MODULAR_ROOT, [2])[0][0:2] == (3, 0)
    assert census_counts(MODULAR_ROOT, [4.5])[0][1] == 6


def _oracle_count_census(root, length_bound):
    """The per-length count that census_counts replaced: one walk per bound,
    at 3 if the bound is lower, each family counted by filtering its traces."""
    if length_bound <= 0:
        raise CensusError("length bound must be positive")
    trace_bound = length_to_trace(length_bound)
    traces = _traces(root, max(trace_bound, 3))
    n0 = sum(1 for t in traces if t <= trace_bound)
    n_paired = 2 * sum(1 for t in traces if 3 * t <= trace_bound)
    n_companion = sum(1 for t in traces if t**2 + 2 <= trace_bound)
    return (n0, n_paired, n_paired + n_companion)


def test_census_counts_equal_per_length_filtering():
    """One walk at the largest bound counts every bound as the per-length
    filter does, also at a float root with a sink trace just above 3, which
    bounds in [3, 3 + 1e-10) leave out, and at one with a sink trace just
    below 3, which a bound between it and 3 counts."""
    lengths = [0.5, 70, 2, 20, 20, 1.9248473002384139, 4.5] + [i / 2 for i in range(1, 101)]
    lengths.append(1.9248472999700856)
    near_three = check_root((3.0000000001, 3, 3))
    below_three = check_root((2.9999999995, 3, 3))
    assert length_to_trace(1.9248473002384139) < 3.0000000001
    assert 2.9999999995 < length_to_trace(1.9248472999700856) < 3
    for root in (MODULAR_ROOT, near_three, below_three):
        want = [_oracle_count_census(root, length) for length in lengths]
        assert census_counts(root, lengths) == want


def test_growth_exponent():
    exact = [(l, l * l) for l in (10, 20, 30, 40, 50)]
    assert abs(growth_exponent(exact) - 2.0) < 1e-12
    const = [(l, 10) for l in (10, 20, 30, 40)]
    assert abs(growth_exponent(const)) < 1e-12
    with pytest.raises(CensusError):
        growth_exponent([(10, 100), (20, 200)])


def test_slope_helpers():
    assert normalize_slope(-2, -4) == (1, 2)
    assert normalize_slope(3, 0) == (1, 0)
    assert parse_slope("2/-4") == (-1, 2)


def _oracle_enumerate_simple(root, trace_cutoff):
    """The node-by-node walk that enumerate_simple replaced: every step builds
    a LabelledTriple through vieta_flip, and the (trace, slope) pairs are sorted."""
    check_root(root)
    if not 3 <= trace_cutoff < math.inf:
        raise CensusError(f"trace cutoff {trace_cutoff} is not a finite number >= 3")

    def maybe_int(x):
        return int(x) if float(x).is_integer() else x

    sink = LabelledTriple(*root)
    while True:
        x = sink.coords()
        lower = [k for k in range(3) if math.prod(x) < 2 * x[k] ** 2]
        if not lower:
            break
        sink = vieta_flip(sink, lower[0])
        if not sink.coords()[lower[0]] > 2:
            raise CensusError(f"Vieta flip gives trace {sink.coords()[lower[0]]}, not above 2")
    pairs = [
        (maybe_int(tr), s)
        for tr, s in zip(sink.coords(), sink.slopes)
        if tr <= trace_cutoff  # a float sink trace may lie above a cutoff of 3
    ]
    stack = [(sink, k) for k in range(3)]
    while stack:
        node, k = stack.pop()
        i, j = [t for t in range(3) if t != k]
        new_trace = node.coords()[i] * node.coords()[j] - node.coords()[k]
        if new_trace > trace_cutoff:
            continue
        child = vieta_flip(node, k)
        pairs.append((maybe_int(new_trace), child.slopes[k]))
        for k2 in range(3):
            if k2 != k:
                stack.append((child, k2))
    pairs.sort()
    return pairs


def _float_roots(count, seed, spread):
    """Seeded float roots (x, y, z) off the modular torus: x and y uniform in
    [3, 3 + spread], z the larger root of z^2 - xyz + x^2 + y^2 = 0."""
    rng = random.Random(seed)
    roots = []
    for _ in range(count):
        x, y = 3 + rng.uniform(0, spread), 3 + rng.uniform(0, spread)
        z = (x * y + math.sqrt((x * y) ** 2 - 4 * (x * x + y * y))) / 2
        roots.append(check_root((x, y, z)))
    return roots


# Within TOL of the modular torus: the descent ends at a sink trace just below 3.
NEAR_MODULAR_ROOTS = _float_roots(10, 23, 1e-10)
EXACT_ROOTS = [
    MODULAR_ROOT,
    (3, 15, 6),  # coordinates permuted, two flips above the sink
    (15, 87, 1299),
    (3, 6, 15),
    (3.0, 3.0, 3.0),
]
# Roots whose sinks hold a trace between 2 and 3: rational, the same in
# floats, and irrational.
BELOW_THREE_ROOTS = [(18, Fraction(9, 2), Fraction(9, 2)), (18, 4.5, 4.5), (4, 4, 8 + 32**0.5)]


@pytest.mark.parametrize("root", EXACT_ROOTS + NEAR_MODULAR_ROOTS[:2] + BELOW_THREE_ROOTS[1:])
@pytest.mark.parametrize("cutoff", [3, 9, 10**3, 10**6, 10**15])
def test_tuple_walk_matches_node_walk(root, cutoff):
    got = enumerate_simple(root, cutoff)
    want = _oracle_enumerate_simple(root, cutoff)
    assert got == want  # same pairs in the same order
    assert [type(t) for t, _ in got] == [type(t) for t, _ in want]


def test_rational_root_walks_exactly():
    """The oracle's float integrality test rounds a large Fraction, so the
    rational walk meets it only at a small cutoff.  Up to 1e15 it lists the
    slopes of the float walk from the same root in the same order, each
    trace a dyadic Fraction or int within 1e-14 of the float trace."""
    rational, decimal = BELOW_THREE_ROOTS[:2]
    assert enumerate_simple(rational, 10**6) == _oracle_enumerate_simple(rational, 10**6)
    exact, approx = enumerate_simple(rational, 10**15), enumerate_simple(decimal, 10**15)
    assert [st for _, st in exact] == [st for _, st in approx]
    for (t, _), (f, _) in zip(exact, approx):
        assert type(t) in (int, Fraction) and Fraction(t).denominator.bit_count() == 1
        assert abs(t - Fraction(f)) <= 1e-14 * f


@pytest.mark.parametrize("root", BELOW_THREE_ROOTS)
def test_mcshane_identity_holds_at_roots_below_three(root):
    """McShane's identity holds on every cusped torus (Bowditch 1996)."""
    assert abs(1 - mcshane_sum(_traces(root, 10**12))) < 1e-13


def test_census_matches_the_sorted_record_census():
    """The census equals the oracle's sorted (trace, slope, family) rows,
    trace types included.  Roots far from the modular torus descend below
    trace 3 and are walked too.  Both raise the same error below the first
    paired trace (L < 4.369)."""
    roots = EXACT_ROOTS + NEAR_MODULAR_ROOTS + _float_roots(10, 29, 9) + BELOW_THREE_ROOTS
    lengths = [0.5, 2, 4, 4.3, 4.4, 4.5, 6, 8, 10, 15, 20, 30, 45, 60, 75, 90]
    outcomes = {"equal": 0, "raise": 0}
    for root, mode, length in itertools.product(roots, ("paired", "full"), lengths):
        try:
            want = _oracle_one_intersection_census(root, length, mode)
        except CensusError as error:
            with pytest.raises(CensusError) as got:
                one_intersection_census(root, length, mode)
            assert str(got.value) == str(error)
            outcomes["raise"] += 1
            continue
        got = one_intersection_census(root, length, mode)
        assert got == want  # same rows in the same order
        assert [type(t) for t, _, _ in got] == [type(t) for t, _, _ in want]
        outcomes["equal"] += 1
    # all 28 roots walk at the 12 lengths >= 4.4 in both modes, and raise at the 4 below
    assert outcomes == {"equal": 28 * 2 * 12, "raise": 28 * 2 * 4}


def test_maybe_int_tests_integrality_exactly():
    assert _maybe_int(10**400) == 10**400  # beyond floats
    near_one = Fraction(10**20 + 1, 10**20)
    assert _maybe_int(near_one) is near_one
    assert [type(_maybe_int(x)) for x in (6.0, Fraction(6, 2), 2.5)] == [int, int, float]


# Census lengths L of ROADMAP item 12, with trace cutoff T = 2 cosh(L/2).
MARKOV_LENGTHS = [12, 20, 30, 40, 60, 80, 100, 120]


def _markov_numbers(bound):
    """Markov numbers m <= bound, from the Markov tree of integer solutions of
    a^2 + b^2 + c^2 = 3abc; each child c' = 3ab - c exceeds its parent's max."""
    numbers = {1, 2}
    stack = [(1, 2, 5)] if bound >= 5 else []
    while stack:
        a, b, c = stack.pop()
        assert a * a + b * b + c * c == 3 * a * b * c
        numbers.add(c)
        for x, y, old in ((a, c, b), (b, c, a)):
            child = 3 * x * y - old
            if child <= bound:
                stack.append((x, y, child))
    return numbers


def test_simple_traces_are_three_times_markov_numbers():
    cutoff = length_to_trace(120)
    traces = _traces(MODULAR_ROOT, cutoff)
    assert all(type(t) is int and t % 3 == 0 for t in traces)
    assert {t // 3 for t in traces} == _markov_numbers(cutoff / 3)


@pytest.mark.parametrize("length", MARKOV_LENGTHS)
def test_simple_count_is_six_per_markov_number(length):
    """N0 = 3 + 3 + 6k: three slopes of trace 3 and of 6, six for each of the
    k Markov numbers m > 2 with 3m <= T."""
    trace_cutoff = length_to_trace(length)
    k = sum(1 for m in _markov_numbers(trace_cutoff / 3) if m > 2)
    assert census_counts(MODULAR_ROOT, [length])[0][0] == 6 + 6 * k


def test_simple_count_follows_zagier_asymptotic():
    """Zagier (1982): Markov triples with max <= x number ~ C (log 3x)^2, so
    N0 ~ 6 C (log T)^2 for the six slopes of each triple."""
    zagier_c = 0.180717
    for length in range(60, 201, 20):
        trace_cutoff = length_to_trace(length)
        n0 = census_counts(MODULAR_ROOT, [length])[0][0]
        ratio = n0 / (6 * zagier_c * math.log(trace_cutoff) ** 2)
        assert abs(ratio - 1) < 0.02, (length, ratio)


def test_paired_count_is_twice_the_simple_count_at_a_third_of_the_trace():
    """N1_paired(L) = 2 N0(T/3): each simple geodesic of trace t <= T/3
    cuts off two one-intersection geodesics of trace 3t."""
    for i in range(285):
        length = 9 + i / 4  # 9, 9.25, ..., 80
        third = len(enumerate_simple(MODULAR_ROOT, length_to_trace(length) / 3))
        assert census_counts(MODULAR_ROOT, [length])[0][1] == 2 * third, length


def test_criterion_5_ratio_is_the_finite_cutoff_model():
    """At L = 20 the measured N1_paired/N0 is exactly 2 N0(T/3)/N0(T) =
    168/108, below criterion 5's window: the ratio tends to 2 only as
    about 2 (1 - 2 ln 3 / L)^2.  Criterion 5 itself is left as it is."""
    trace_cutoff = length_to_trace(20)
    n0, n1_paired, _ = census_counts(MODULAR_ROOT, [20])[0]
    model = Fraction(
        2 * len(enumerate_simple(MODULAR_ROOT, trace_cutoff / 3)),
        len(enumerate_simple(MODULAR_ROOT, trace_cutoff)),
    )
    assert (n1_paired, n0) == (168, 108)
    assert Fraction(n1_paired, n0) == model
