import decimal
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from fig8 import cli, torus
from fig8.torus import (
    MODULAR_ROOT,
    check_root,
    census_counts,
    enumerate_simple,
    growth_exponent,
    mcshane_sum,
    one_intersection_census,
)
from fig8.selfint import MODULAR_ASSIGNMENT
from fig8.sl2 import Mat2, eight_trace, length_to_trace, trace_to_length
from fig8.words import Word, evaluate
from oracles import (
    LabelledTriple,
    _oracle_one_intersection_census,
    linked_pairs,
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
    return 2 * mcshane_sum(_traces(MODULAR_ROOT, cutoff / 3))


def test_trace_triple_validation():
    assert check_root(MODULAR_ROOT) is MODULAR_ROOT
    root = (Fraction(9, 4), Fraction(9, 2), Fraction(9, 2))
    assert check_root(root) is root  # entries need only exceed 2
    with pytest.raises(ValueError, match="cusp relation"):
        check_root((3, 3, 4))  # cusp relation fails
    with pytest.raises(ValueError, match="needs finite entries > 2"):
        check_root((2, 2, 2))  # not above 2
    with pytest.raises(ValueError, match="cusp relation"):
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
    message = "cusp relation" if all(c < math.inf for c in coords) else "needs finite entries > 2"  # NaN too
    with pytest.raises(ValueError, match=message):
        check_root(coords)


def test_exact_triples_are_judged_exactly():
    node = LabelledTriple(3, 3, 3)
    for _ in range(18):  # flipping the least trace roughly squares the largest
        node = vieta_flip(node, node.coords().index(min(node.coords())))
    assert max(node.coords()) > 10**2600  # beyond floats; x^2 beyond int-to-str
    assert check_root(node.coords()) == node.coords()
    with pytest.raises(ValueError, match="cusp relation"):
        check_root((node.x, node.y, node.z + 1))
    half = Fraction(9, 2)
    assert check_root((18, half, half))  # a rational cusped torus
    with pytest.raises(ValueError, match="cusp relation"):
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
    with pytest.raises(ValueError, match="trace cutoff 2 is not a finite number >= 3"):
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
    with pytest.raises(ValueError, match="unknown census mode 'bogus'"):
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
    with pytest.raises(ValueError, match="unknown form 'bogus'"):
        mcshane_sum([3], "bogus")


def test_length_form_term_past_float_range_is_finite():
    """A trace of 1e160 has a length whose e^l overflows a float; its term does not."""
    term = mcshane_sum([1e160], "length")
    assert math.isfinite(term) and term >= 0


def test_exact_trace_past_float_range_adds_nothing():
    """2.0 / t converts an exact t to a float first, which overflows past 1.8e308."""
    assert mcshane_sum([3, 10**400]) == mcshane_sum([3])
    assert mcshane_sum([3, Fraction(10**400, 7)]) == mcshane_sum([3])


@pytest.mark.parametrize(
    "trace", [3, 7, 10**4, 10**8, 10**9, 10**150], ids=["3", "7", "1e4", "1e8", "1e9", "1e150"]
)
def test_mcshane_term_matches_a_decimal_reference(trace):
    """The term 1 - sqrt(1 - (2/t)^2), in decimal with 60 significant digits
    left after its cancellation, against the float sum of one term; the
    length term 1/(1 + e^l) = (1 - tanh(l/2))/2 is exactly its half."""
    term = mcshane_sum([trace])
    assert 2 * mcshane_sum([trace], "length") == term
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + 2 * len(str(trace))
        x = decimal.Decimal(2) / trace
        reference = 1 - (1 - x * x).sqrt()
        assert abs(decimal.Decimal(term) / reference - 1) < decimal.Decimal("1e-15")


def test_mc2_identity_and_values():
    assert abs(_mc2(9) - 1.527864) < 1e-6
    for cutoff in (9, 100, 10000):
        assert abs(_mc2(cutoff) - 2 * _mcshane(cutoff / 3)) < 1e-12
    with pytest.raises(ValueError, match="is not a finite number >= 3"):
        _mc2(8)


def test_count_census():
    assert census_counts(MODULAR_ROOT, [1])[0] == (0, 0, 0)
    assert census_counts(MODULAR_ROOT, [2])[0][0:2] == (3, 0)
    assert census_counts(MODULAR_ROOT, [4.5])[0][1] == 6


def _oracle_count_census(root, length_bound):
    """The per-length count that census_counts replaced: one walk per bound,
    at 3 if the bound is lower, each family counted by filtering its traces."""
    if length_bound <= 0:
        raise ValueError("length bound must be positive")
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
    with pytest.raises(ValueError, match="need at least 4 sample points"):
        growth_exponent([(10, 100), (20, 200)])
    with pytest.raises(ValueError, match="all L equal"):
        growth_exponent([(10, n) for n in (10, 20, 30, 40)])


def test_slope_helpers():
    assert normalize_slope(-2, -4) == (1, 2)
    assert normalize_slope(3, 0) == (1, 0)
    assert parse_slope("2/-4") == (-1, 2)


def _oracle_enumerate_simple(root, trace_cutoff):
    """The node-by-node walk that enumerate_simple replaced: every step builds
    a LabelledTriple through vieta_flip, and the (trace, slope) pairs are sorted."""
    check_root(root)
    if not 3 <= trace_cutoff < math.inf:
        raise ValueError(f"trace cutoff {trace_cutoff} is not a finite number >= 3")
    sink = LabelledTriple(*root)
    while True:
        x = sink.coords()
        lower = [k for k in range(3) if math.prod(x) < 2 * x[k] ** 2]
        if not lower:
            break
        sink = vieta_flip(sink, lower[0])
        if not sink.coords()[lower[0]] > 2:
            raise ValueError(f"Vieta flip gives trace {sink.coords()[lower[0]]}, not above 2")
    pairs = [
        (tr, s)
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
        pairs.append((new_trace, child.slopes[k]))
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
    """Up to 1e15 the rational walk is the oracle's, and lists the slopes of
    the float walk from the same root in the same order, each trace a
    dyadic Fraction or int within 1e-14 of the float trace."""
    rational, decimal = BELOW_THREE_ROOTS[:2]
    exact, approx = enumerate_simple(rational, 10**15), enumerate_simple(decimal, 10**15)
    assert exact == _oracle_enumerate_simple(rational, 10**15)
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
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                one_intersection_census(root, length, mode)
            outcomes["raise"] += 1
            continue
        got = one_intersection_census(root, length, mode)
        assert got == want  # same rows in the same order
        assert [type(t) for t, _, _ in got] == [type(t) for t, _, _ in want]
        outcomes["equal"] += 1
    # all 28 roots walk at the 12 lengths >= 4.4 in both modes, and raise at the 4 below
    assert outcomes == {"equal": 28 * 2 * 12, "raise": 28 * 2 * 4}


def test_the_census_walk_holds_every_paired_row_within_the_cutoff():
    """Wherever eight_trace(t, 2, t) <= T, with T at 3t rounded and an ulp
    either side, t is within the census walk's cutoff, though often above T/3.0."""
    rng = random.Random(48)
    above_third = 0
    for _ in range(100_000):
        t = 3 * 2 ** rng.uniform(0, 20)
        paired = eight_trace(t, 2, t)
        for trace_cutoff in (math.nextafter(paired, 0), paired, math.nextafter(paired, math.inf)):
            if paired <= trace_cutoff:
                assert t <= torus._census_cutoff(trace_cutoff), (t, trace_cutoff)
                above_third += t > trace_cutoff / 3.0
    assert above_third > 10_000


def test_traces_keep_the_number_type_of_the_root():
    """Int and Fraction roots walk exactly, and a float root gives floats
    equal to the int walk's traces."""
    exact = enumerate_simple(MODULAR_ROOT, 10**6)
    rational = enumerate_simple((18, Fraction(9, 2), Fraction(9, 2)), 10**6)
    assert not any(isinstance(t, float) for t, _ in exact + rational)
    floats = enumerate_simple((3.0, 3.0, 3.0), 10**6)
    assert all(type(t) is float for t, _ in floats)
    assert floats == exact


def test_a_process_keeps_one_walk_per_root(monkeypatch):
    """The largest walk of the last root is kept, and a smaller cutoff gets
    a fresh slice of it.  Roots equal in value walk in their own number
    types, and a bad cutoff or a walk that raises leaves the kept walk."""
    monkeypatch.setattr(torus, "_walk", None)
    roots = [(3, 3, 3), (3.0, 3.0, 3.0), (Fraction(3),) * 3]
    for cutoff in [10**6, 10**3, 10**6, 10**4, 9, 10**5]:
        for root in roots + roots[::-1]:
            got = enumerate_simple(root, cutoff)
            assert got == _oracle_enumerate_simple(root, cutoff)
            assert {type(t) for t, _ in got} == {type(root[0])}, (root, cutoff)

    want = _oracle_enumerate_simple(MODULAR_ROOT, 10**6)
    for cutoff in [10**6, 10**6, 10**3]:  # a walk, then two slices of it
        enumerate_simple(MODULAR_ROOT, cutoff).append((0, (0, 0)))
        enumerate_simple(MODULAR_ROOT, cutoff).clear()
        assert enumerate_simple(MODULAR_ROOT, 10**6) == want
    for root, cutoff, message in [
        (MODULAR_ROOT, 2.9, "trace cutoff 2.9 is not"),
        (MODULAR_ROOT, math.nan, "trace cutoff nan is not"),
        ((1e16, 1e8, 1e8), 10, "Vieta flip gives trace 0.0"),
    ]:
        with pytest.raises(ValueError, match=message):
            enumerate_simple(root, cutoff)
    assert torus._walk[:3] == (((int, 3),) * 3, 10**6, want)

    other = (15, 87, 1299)
    enumerate_simple(other, 10**4)
    key = ((int, 15), (int, 87), (int, 1299))
    assert torus._walk[:3] == (key, 10**4, enumerate_simple(other, 10**4))
    assert torus._walk[3] == {}


def _read_every_table(root, length):
    """The kept walk after the torus jobs at one length read it: mcshane
    at its trace cutoff, which walks, then mc2 there and census in both modes."""
    trace_cutoff = length_to_trace(length)
    torus._mcshane_prefix(root, trace_cutoff)
    torus._mcshane_prefix(root, trace_cutoff, "mc2")
    for mode in ("paired", "full"):
        torus._census_lines(root, length, mode, lambda x: format(float(x), ".9g"))
    return torus._walk


def test_a_replaced_walk_rebuilds_its_tables_as_a_fresh_process(monkeypatch):
    """A larger cutoff or another root replaces the kept walk, and its tables
    go with it: nothing else holds them.  The tables rebuilt on the new walk
    equal those of a process that walked nothing before."""
    monkeypatch.setattr(torus, "_walk", None)
    _read_every_table(MODULAR_ROOT, 12)
    for root, length in [(MODULAR_ROOT, 20), (RATIONAL_ROOT, 20), (RATIONAL_ROOT, 30), (MODULAR_ROOT, 8)]:
        tables = torus._walk[3]
        kept = _read_every_table(root, length)
        assert sys.getrefcount(tables) == 2  # this name and the call's argument
        del tables
        monkeypatch.setattr(torus, "_walk", None)
        assert kept == _read_every_table(root, length)
        assert set(kept[3]) == {"sums", "paired", "full"}
        traces = [t for t, _ in kept[2]]
        assert kept[3]["sums"] == [mcshane_sum(traces[:k]) for k in range(len(traces) + 1)]


def test_a_decimal_root_is_refused(monkeypatch):
    """A Decimal walks at the precision of its context, which the kept walk
    does not key, so check_root refuses it and the kept walk stays."""
    monkeypatch.setattr(torus, "_walk", None)
    enumerate_simple(MODULAR_ROOT, 10**4)
    kept = torus._walk
    root = (decimal.Decimal(3),) * 3
    with pytest.raises(ValueError, match="int, Fraction or float"):
        check_root(root)
    with pytest.raises(ValueError, match="int, Fraction or float"):
        enumerate_simple(root, 10**4)
    assert torus._walk is kept


# Census lengths L of ROADMAP item 12, with trace cutoff T = 2 cosh(L/2).
MARKOV_LENGTHS = [12, 20, 30, 40, 60, 80, 100, 120]


def _markov_triples(bound):
    """The Markov triples x <= y <= z <= bound of x^2 + y^2 + z^2 = 3xyz.

    Past (1, 1, 1) and (1, 1, 2) the Markov tree from (1, 2, 5) is binary:
    (x, y, z) has the children (x, z, 3xz - y) and (y, z, 3yz - x), each
    with a larger maximum than its parent.
    """
    yield from [(1, 1, 1), (1, 1, 2)][: (bound >= 1) + (bound >= 2)]
    stack = [(1, 2, 5)]
    while stack:
        x, y, z = stack.pop()
        if z <= bound:
            assert x * x + y * y + z * z == 3 * x * y * z
            yield x, y, z
            stack += [(x, z, 3 * x * z - y), (y, z, 3 * y * z - x)]


def _markov_numbers(bound):
    """Markov numbers m <= bound: the largest entries of the Markov triples."""
    return {z for _, _, z in _markov_triples(bound)}


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


@pytest.mark.parametrize("k", [3, 10, 50, 100])
def test_simple_slopes_count_markov_triples(k):
    """A simple trace is 3z for a Markov triple (x, y, z): a triple with three
    distinct entries gives 6 slopes, (1, 1, 1) and (1, 1, 2) give 3 each."""
    n = 10**k
    triples = sum(1 for _ in _markov_triples(n))
    assert len(enumerate_simple(MODULAR_ROOT, 3 * n)) == 6 * triples - 6


def test_markov_count_meets_zagiers_constant():
    """Zagier: M(n) = C log^2(3n) + O(log n (log log n)^2), C = 0.180717..."""
    n = 10**200
    triples = sum(1 for _ in _markov_triples(n))
    assert abs(triples / math.log(3 * n) ** 2 - 0.180717) < 1e-4


def test_markov_count_at_length_1000_meets_the_census_constant():
    """N0(L) = 6 M(T/3) - 6 with T = 2 cosh(L/2), and N0(L)/L^2 tends to
    1.5 C, C = 0.180717 Zagier's constant: 2.6e-5 off at L = 1000."""
    n0 = 6 * sum(1 for _ in _markov_triples(length_to_trace(1000) / 3)) - 6
    assert abs(n0 / 1000**2 - 1.5 * 0.180717) < 2e-4


# Two rational roots of one torus: (18, 9/2, 9/2) is the Vieta flip of the first entry.
RATIONAL_ROOT = (Fraction(9, 4), Fraction(9, 2), Fraction(9, 2))
RATIONAL_ROOT_FLIPPED = (Fraction(18), Fraction(9, 2), Fraction(9, 2))


def test_vieta_related_roots_count_the_same_geodesics():
    lengths = [2, 5, 10, 20, 45, 70, 120]
    assert census_counts(RATIONAL_ROOT, lengths) == census_counts(RATIONAL_ROOT_FLIPPED, lengths)


def _hull_area(points):
    """Area of the convex hull of the points, by Andrew's monotone chain."""

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(pts):
        out = []
        for p in pts:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    pts = sorted(set(points))
    hull = chain(pts) + chain(pts[::-1])
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))) / 2


def test_stable_norm_area_matches_the_simple_count():
    """McShane-Rivin: the length of slope v is |v|_X + o(|v|) for a norm on
    R^2, so N0(L)/L^2 tends to (3/pi^2) Area{|v|_X <= 1}.  The unit ball is
    the hull of +-v/l(v) over the slopes with l(v) > L/3."""
    length = 200
    walk = enumerate_simple(RATIONAL_ROOT, length_to_trace(length))
    points = []
    for t, (p, q) in walk:
        l = trace_to_length(t)
        if l > length / 3:
            points += [(p / l, q / l), (-p / l, -q / l)]
    area = 3 / math.pi**2 * _hull_area(points)
    assert abs(area - len(walk) / length**2) < 1e-3


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


def _word_trace(w):
    return abs(evaluate(w, MODULAR_ASSIGNMENT, Mat2.identity()).trace)


def _nielsen_simple(top):
    """(u, v) for each simple u of trace <= top, up to inversion, v a partner
    that makes (u, v) a basis of F2.  Past a and b, the bases (a, b) and
    (a, B) and their children (u, uv) and (uv, v) give each primitive class
    once, as uv (ROADMAP item 34); traces only rise down the tree."""
    a, b = Word("a"), Word("b")
    simple, stack = [(a, b), (b, a)], [(a, b), (a, b.inverse())]
    while stack:
        u, v = stack.pop()
        if _word_trace(uv := u * v) <= top:
            simple.append((uv, v))
            stack += [(u, uv), (uv, v)]
    return simple


def _cyclic_class(w):
    """The least rotation of w or of its inverse: one name per free homotopy class."""
    return min(x[i:] + x[:i] for x in (w.letters, w.inverse().letters) for i in range(len(x)))


def test_every_census_row_is_a_word_with_one_double_point(capsys):
    """At T = 1e7 each simple u of trace t, with partner v, gives the paired
    eights u^-2 v^-1 u v and u^-2 v u v^-1 of trace 3t, two classes, and the
    companion x^2 v^2, x = u v^-1, of trace t^2 + 2.  Each word has its trace
    exactly and one double point (linked_pairs), and the census CSV in both
    modes lists exactly these traces: a paired row twice."""
    length = trace_to_length(10**7)
    trace_cutoff = length_to_trace(length)
    simple = _nielsen_simple(trace_cutoff / 3.0)
    assert sorted(_word_trace(u) for u, _ in simple) == _traces(MODULAR_ROOT, trace_cutoff / 3.0)
    paired, companions = [], []
    for u, v in simple:
        t, x = _word_trace(u), u * v.inverse()
        paired += [(u**-2 * v.inverse() * u * v, 3 * t), (u**-2 * v * u * v.inverse(), 3 * t)]
        if t * t + 2 <= trace_cutoff:
            companions.append((x**2 * v**2, t * t + 2))
    for w, trace in paired + companions:
        w = w.cyclically_reduced()
        assert (_word_trace(w), linked_pairs(w)) == (trace, 1), w.letters
    paired_classes = {_cyclic_class(w.cyclically_reduced()) for w, _ in paired}
    assert (len(simple), len(paired_classes), len(companions)) == (234, 468, 72)
    assert not paired_classes & {_cyclic_class(w.cyclically_reduced()) for w, _ in companions}
    for mode, words in [("paired", paired), ("full", paired + companions)]:
        code = cli.main(["census", "--cutoff", repr(length), "--mode", mode])
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert code == 0 and sorted(int(row[0]) for row in rows) == sorted(t for _, t in words)
        assert [row[2] for row in rows].count("companion-fig8") == len(words) - len(paired)
