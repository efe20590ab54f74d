import math
import random
from itertools import product

import pytest

from fig8.covers import (
    CoverError,
    CoverSpec,
    RegularDecision,
    boundary_lift_components,
    commutator_witness,
    extends_cover,
    regular_extends,
    stallings_excluding_subgroup,
    strip_cover,
    two_n_cycles,
)
from fig8.perms import (
    PermError,
    Permutation,
    commutator,
    parse_partition,
    partitions_of,
)
from fig8.words import Word, evaluate, random_reduced_word
from oracles import (
    _oracle_identity_product_tuples,
    _oracle_stallings_assignment,
    _oracle_subgroup_closure,
    _oracle_two_n_cycles,
    all_permutations,
)


def test_cover_spec_validation():
    with pytest.raises(CoverError):
        CoverSpec(-1, ((2,),))
    with pytest.raises(CoverError):
        CoverSpec(0, ())
    with pytest.raises(CoverError):
        CoverSpec(0, ((2,), (3,)))


def test_extends_cover_spec_examples():
    assert not extends_cover(CoverSpec(1, ((2,),))).extends
    d = extends_cover(CoverSpec(0, ((2,), (2,))))
    assert d.extends and d.verify()
    d = extends_cover(CoverSpec(1, ((3,),)))
    assert d.extends and d.verify()
    # witness: the 3-cycle is a commutator
    assert commutator(*d.handles[0]) == d.boundaries[0].inverse()


def _brute_extends(genus, classes):
    """Independent oracle: exhaustive over commutator products and class tuples."""
    n = sum(classes[0])
    identity = Permutation.identity(n)
    if genus == 0:
        targets = {identity}
    else:
        singles = {commutator(a, b) for a in all_permutations(n) for b in all_permutations(n)}
        targets = {identity}
        for _ in range(genus):
            targets = {t * c for t in targets for c in singles}
        targets = {t.inverse() for t in targets}
    from fig8.perms import class_elements

    pools = [class_elements(c) for c in classes]
    for tup in product(*pools):
        g = identity
        for x in tup:
            g = g * x
        if g in targets:
            return True
    return False


def test_extends_cover_against_bruteforce_small():
    # full n <= 4 sweep here; the n = 5 sweep runs in the acceptance suite
    for n in (2, 3, 4):
        parts = list(partitions_of(n))
        for genus in (0, 1, 2):
            for k in (1, 2):
                for classes in product(parts, repeat=k):
                    spec = CoverSpec(genus, classes)
                    decision = extends_cover(spec)
                    assert decision.extends == _brute_extends(genus, list(classes)), (
                        genus,
                        classes,
                    )
                    assert decision.verify()


def test_extends_cover_transitive_flag():
    for genus, classes in product((1, 2), ("1,1,1", "1,1,1;1,1,1", "2,1;2,1")):
        spec = CoverSpec(genus, tuple(parse_partition(c) for c in classes.split(";")))
        d = extends_cover(spec, transitive=True)
        assert d.extends and d.boundaries is not None and d.verify(), (genus, classes)
        assert [g.cycle_type() for g in d.boundaries] == list(spec.boundary_classes)
        perms = [g for pair in d.handles for g in pair] + list(d.boundaries)
        reach = {0}
        for _ in range(3):
            reach |= {g.images[p] for g in perms for p in reach}
        assert len(reach) == 3, (genus, classes)


def _brute_transitive_extends(genus, classes):
    """Independent oracle at genus 0 or 1: some homomorphism with boundary
    images in the classes and a transitive image.  It runs over every handle
    pair and every image of the first k - 1 boundaries; the relation forces
    the last."""
    from fig8.perms import class_elements

    n = sum(classes[0])
    perms = list(all_permutations(n))
    for pair in product(perms, perms) if genus else [()]:
        start = commutator(*pair) if pair else Permutation.identity(n)
        for tup in product(*map(class_elements, classes[:-1])):
            last = math.prod(tup, start=start).inverse()
            if last.cycle_type() == classes[-1] and _orbit_of_1([*pair, *tup, last]) == n:
                return True
    return False


def _orbit_of_1(perms):
    orbit = {1}
    for _ in range(perms[0].degree):
        orbit |= {g(p) for g in perms for p in orbit}
    return len(orbit)


# genus 0 with n <= 5 and k <= 3 classes (k <= 2 at n = 5), genus 1 with n <= 4 and k <= 2
TRANSITIVE_GRID = [
    (genus, classes)
    for genus, n, k in [(0, n, k) for n in range(1, 6) for k in (1, 2, 3) if n < 5 or k < 3]
    + [(1, n, k) for n in range(1, 5) for k in (1, 2)]
    for classes in product(partitions_of(n), repeat=k)
]


def test_extends_cover_transitive_against_bruteforce():
    assert len(TRANSITIVE_GRID) == 317
    for genus, classes in TRANSITIVE_GRID:
        d = extends_cover(CoverSpec(genus, classes), transitive=True)
        assert d.extends == _brute_transitive_extends(genus, list(classes)), (genus, classes)
        if d.extends:
            assert d.verify(), (genus, classes)
            assert [g.cycle_type() for g in d.boundaries] == list(classes), (genus, classes)
            perms = [g for pair in d.handles for g in pair] + list(d.boundaries)
            assert _orbit_of_1(perms) == sum(classes[0]), (genus, classes)
        else:
            assert d.handles is None and d.boundaries is None


def test_two_n_cycles_examples():
    e3 = Permutation.identity(3)
    c1, c2 = two_n_cycles(e3)
    assert c1 * c2 == e3 and c1.cycle_type() == (3,)
    s = Permutation.parse("(1 2 3)", 3)
    c1, c2 = two_n_cycles(s)
    assert c1 * c2 == s
    s4 = Permutation.parse("(1 2)(3 4)", 4)
    c1, c2 = two_n_cycles(s4)
    assert c1 * c2 == s4 and c1.cycle_type() == (4,)
    with pytest.raises(PermError):
        two_n_cycles(Permutation.parse("(1 2)", 3))


def test_two_n_cycles_equal_the_class_scan():
    checked = 0
    for n in range(1, 8):
        for sigma in all_permutations(n):
            if sigma.is_even():
                assert two_n_cycles(sigma) == _oracle_two_n_cycles(sigma), sigma
                checked += 1
    assert checked == 2957


def test_identity_product_tuples_equal_the_product_filter():
    from fig8.covers import _identity_product_tuples

    specs = [c for n in range(1, 7) for c in product(list(partitions_of(n)), repeat=3)]
    assert len(specs) == 1835
    specs += [c for n in range(1, 6) for c in product(list(partitions_of(n)), repeat=4)]
    for classes in specs:
        got = list(_identity_product_tuples(classes))
        assert got == list(_oracle_identity_product_tuples(classes)), classes  # order included


def test_commutator_witness_examples():
    e = Permutation.identity(4)
    assert commutator_witness(*two_n_cycles(e)) == (e, e)
    for text in ("(1 2 3)", "(1 2)(3 4)", "(1 2 3 4 5)"):
        s = Permutation.parse(text, 5)
        a, b = commutator_witness(*two_n_cycles(s))
        assert commutator(a, b) == s


def test_strip_cover_examples():
    s = Permutation.parse("(1 2 3)", 3)
    cover = strip_cover(s, Permutation.identity(3))
    assert cover.boundary == Permutation.identity(3)
    assert cover.boundary_components == 3
    assert strip_cover(s, s).boundary_components == 3
    mixed = strip_cover(s, Permutation.parse("(1 2)", 3))
    assert mixed.boundary_components == mixed.boundary.cycle_count()
    with pytest.raises(CoverError):
        strip_cover(Permutation.parse("(1 2)", 3), s)


def test_strip_cover_euler_identity_small():
    for n in (2, 3, 4, 5):
        ncycles = [g for g in all_permutations(n) if g.cycle_type() == (n,)]
        for sigma in ncycles:
            for tau in all_permutations(n):
                cover = strip_cover(sigma, tau)
                assert 2 - 2 * cover.cover_genus - cover.boundary_components == -n
                assert cover.cover_genus >= 1


def test_boundary_lift_gamma2_pattern():
    assignment = {"a": Permutation.parse("(1 2)", 2), "b": Permutation.parse("(1 2)", 2)}
    words = [Word("a"), Word("b"), Word("BA")]  # C = (AB)^{-1}
    assert boundary_lift_components(assignment, words) == [1, 1, 2]
    trivial = {"a": Permutation.identity(1), "b": Permutation.identity(1)}
    assert boundary_lift_components(trivial, words) == [1, 1, 1]


def test_boundary_lift_fourfold_composition():
    # composition of two double covers at the monodromy level: degree 4
    a = Permutation.parse("(1 2)(3 4)", 4)
    b = Permutation.parse("(1 3)(2 4)", 4)
    counts = boundary_lift_components({"a": a, "b": b}, [Word("a"), Word("b"), Word("BA")])
    image_c = evaluate(Word("BA"), {"a": a, "b": b}, Permutation.identity(4))
    assert counts[2] == image_c.cycle_count()


def test_regular_extends_spec_examples():
    assert regular_extends(CoverSpec(1, ((2,),))).status == "does-not-extend"
    assert regular_extends(CoverSpec(1, ((1, 1),))).status == "extends"
    d = regular_extends(CoverSpec(0, ((2,), (2,))))
    assert d.status == "extends"
    assert regular_extends(CoverSpec(1, ((9,),))).status == "unknown"


def _is_regular(perms, n):
    """Independent regularity test: the generated group has order n and the
    orbit of point 1 under the generators is all n points."""
    group = _oracle_subgroup_closure(list(perms))
    orbit = {1}
    for _ in range(n):
        orbit |= {g(p) for g in perms for p in orbit}
    return group is not None and len(group) == n and len(orbit) == n


def test_regular_extends_against_direct_search():
    """Genus-1, one boundary class: compare with exhaustive homomorphism search
    requiring an image of order exactly n that acts transitively."""
    from fig8.perms import class_elements

    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        for cls in partitions_of(n):
            expected = any(
                commutator(a, b) * gamma == Permutation.identity(n)
                and _is_regular([a, b, gamma], n)
                for gamma in class_elements(cls)
                for a in perms
                for b in perms
            )
            got = regular_extends(CoverSpec(1, (cls,))).status == "extends"
            assert got == expected, (n, cls)


def _brute_regular_genus1(classes):
    """First boundary tuple in product order with one handle pair (a, b) in S_n
    such that [a, b] * product = e and the whole assignment is regular."""
    from fig8.perms import class_elements, class_representative

    n = sum(classes[0])
    identity = Permutation.identity(n)
    perms = list(all_permutations(n))
    pools = [(class_representative(classes[0]),), *map(class_elements, classes[1:])]
    for boundaries in product(*pools):
        g = identity
        for x in boundaries:
            g = g * x
        for a in perms:
            for b in perms:
                if commutator(a, b) * g == identity and _is_regular([a, b, *boundaries], n):
                    return ("extends", boundaries)
    return ("does-not-extend", None)


def test_regular_extends_genus1_against_direct_search():
    sizes = [(n, k) for n in (1, 2, 3, 4) for k in (1, 2)] + [(5, 1)]
    for n, k in sizes:
        for classes in product(partitions_of(n), repeat=k):
            d = regular_extends(CoverSpec(1, classes))
            assert (d.status, d.witness) == _brute_regular_genus1(classes), classes


def _brute_regular_genus0(classes):
    """The pools search: first tuple in product order with product e whose
    image has order n and acts transitively."""
    from fig8.perms import class_elements, class_representative

    n = sum(classes[0])
    identity = Permutation.identity(n)
    pools = [(class_representative(classes[0]),), *map(class_elements, classes[1:])]
    for boundaries in product(*pools):
        g = identity
        for x in boundaries:
            g = g * x
        if g == identity and _is_regular(boundaries, n):
            return ("extends", boundaries)
    return ("does-not-extend", None)


def test_regular_extends_genus0_against_pools_search():
    sizes = [(n, k) for n in (1, 2, 3, 4) for k in (1, 2, 3)] + [(5, 1), (5, 2)]
    for n, k in sizes:
        for classes in product(partitions_of(n), repeat=k):
            d = regular_extends(CoverSpec(0, classes))
            assert (d.status, d.witness) == _brute_regular_genus0(classes), classes


# Specs whose old witness generated an intransitive group of order n, that is
# a disconnected cover; a class with unequal cycles is never regular monodromy.
INTRANSITIVE_SPECS = [(0, "2,2;2,1,1;2,1,1")] + [
    (genus, classes)
    for genus in (1, 2)
    for classes in ("2,1,1;2,1,1", "2,2;2,1,1;2,1,1", "2,1,1;2,1,1;1,1,1,1")
]


@pytest.mark.parametrize("genus,classes", INTRANSITIVE_SPECS)
def test_regular_extends_rejects_intransitive_images(genus, classes):
    spec = CoverSpec(genus, tuple(parse_partition(c) for c in classes.split(";")))
    assert regular_extends(spec) == RegularDecision("does-not-extend", None)


def test_regular_witness_generates_order_n():
    # At degree 8 the first order-8 image in product order has two orbits:
    # (1 2)(3 4)(5 6)(7 8) and (1 2 3 4)(5 6 7 8) generate a dihedral group of
    # order 8 acting on {1..4} and {5..8}.  The witness must be transitive.
    for classes in ("2;2", "2,2,2,2;2,2,2,2;4,4;4,4"):
        spec = CoverSpec(0, tuple(parse_partition(c) for c in classes.split(";")))
        d = regular_extends(spec)
        assert d.status == "extends" and _is_regular(d.witness, spec.degree), classes


def _oracle_handle_assignment(group, genus, target, must_generate_with):
    """All genus-tuples of handle pairs in product order; the first whose
    commutator product hits the target and which generates the group."""
    n = target.degree
    identity = Permutation.identity(n)
    elements = sorted(group, key=lambda g: g.images)
    pairs = [((a, b), commutator(a, b)) for a in elements for b in elements]
    for chosen in product(pairs, repeat=genus):
        if math.prod((c for _, c in chosen), start=identity) != target:
            continue
        handles = tuple(pair for pair, _ in chosen)
        generated = _oracle_subgroup_closure(list(must_generate_with) + [g for p in handles for g in p])
        if generated is not None and len(generated) == len(group):
            return handles
    return None


def _oracle_regular_extends(spec):
    """The boundary-tuple search that regular_extends replaced: the closure of
    each genus-0 tuple, and every handle tuple of every regular overgroup of
    each tuple at genus >= 1, with its genus cap."""
    from fig8.covers import MAX_REGULAR_DEGREE, _identity_product_tuples, _regular_overgroups
    from fig8.perms import class_elements, class_representative

    n = spec.degree
    classes = spec.boundary_classes
    if any(len(set(c)) > 1 for c in classes):
        return RegularDecision("does-not-extend", None)
    if n > MAX_REGULAR_DEGREE or spec.genus > 4:
        return RegularDecision("unknown", None)
    if spec.genus == 0:
        tuples = _identity_product_tuples(classes)
    else:
        first = class_representative(classes[0])
        tuples = ((first, *rest) for rest in product(*map(class_elements, classes[1:])))
    for boundaries in tuples:
        if spec.genus == 0:
            group = _oracle_subgroup_closure(list(boundaries))
            if group is not None and len({g(1) for g in group}) == n:
                return RegularDecision("extends", boundaries)
        else:
            target = math.prod(boundaries, start=Permutation.identity(n)).inverse()
            for group in _regular_overgroups(list(boundaries), n):
                if _oracle_handle_assignment(group, spec.genus, target, boundaries) is not None:
                    return RegularDecision("extends", boundaries)
    return RegularDecision("does-not-extend", None)


def test_handles_reach_needs_a_layer_per_missing_generator():
    # Z2^3 acting regularly on 8 points needs three generators: with identity
    # boundaries one handle pair is too few, two are enough, and the search
    # stops at a fixed point for any larger genus
    from fig8.covers import _handles_reach, _subgroup_closure

    gens = [
        Permutation.parse(t, 8)
        for t in ("(1 2)(3 4)(5 6)(7 8)", "(1 3)(2 4)(5 7)(6 8)", "(1 5)(2 6)(3 7)(4 8)")
    ]
    group = _subgroup_closure(gens)
    e = (Permutation.identity(8),)
    reach = [_handles_reach(group, genus, e) for genus in (0, 1, 2, 10**9)]
    assert reach == [False, False, True, True]
    assert _handles_reach(group, 0, tuple(gens) + (gens[0] * gens[1] * gens[2],))


def test_permutation_order_is_image_order_on_a_regular_group():
    from fig8.covers import _subgroup_closure

    # Z2 x Z4 acting regularly on 8 points
    gens = [Permutation.parse(t, 8) for t in ("(1 2)(3 4)(5 6)(7 8)", "(1 3 5 7)(2 4 6 8)")]
    group = _subgroup_closure(gens)
    assert len(group) == 8
    assert sorted(group) == sorted(group, key=lambda g: g.images)
    assert all((g < h) == (g.images < h.images) for g in group for h in group)


def test_subgroup_closure_refuses_a_point_stabilizer():
    from fig8.covers import _subgroup_closure

    # <(2 3)> has order 2, below the degree 3, but fixes point 1
    swap = [Permutation.parse("(2 3)", 3)]
    assert len(_oracle_subgroup_closure(swap)) == 2
    assert _subgroup_closure(swap) is None
    # else it is the order-capped closure, on every pair of generators at degree 4
    for a, b in product(all_permutations(4), repeat=2):
        group = _oracle_subgroup_closure([a, b])
        if group is not None and len({g(1) for g in group}) < len(group):
            group = None
        assert _subgroup_closure([a, b]) == group, (a, b)


@pytest.mark.parametrize("classes", ["2,2,2,2", "1,1,1,1,1,1,1,1;2,2,2,2"])
def test_regular_extends_stops_at_the_representatives(monkeypatch, classes):
    # 64 regular groups hold (1 2)(3 4)(5 6)(7 8).  The first is abelian; in
    # the second it is a commutator, so the representatives are a witness
    # there, no tuple is smaller and no third group is read
    from fig8 import covers

    overgroups, read = covers._regular_overgroups, []

    def counted(seed, n):  # the recursion calls this too, with longer seeds
        for group in overgroups(seed, n):
            if len(seed) == 1:
                read.append(group)
            yield group

    monkeypatch.setattr(covers, "_regular_overgroups", counted)
    spec = CoverSpec(1, tuple(parse_partition(c) for c in classes.split(";")))
    assert regular_extends(spec).witness[-1] == Permutation.parse("(1 2)(3 4)(5 6)(7 8)")
    assert len(read) == 2


def _uniform_classes(n):
    return [p for p in partitions_of(n) if len(set(p)) == 1]


def test_regular_extends_against_boundary_tuple_oracle():
    sizes = [(n, k) for n in range(1, 7) for k in (1, 2)] + [(n, 3) for n in range(1, 6)]
    for n, k in sizes:
        for classes in product(_uniform_classes(n), repeat=k):
            for genus in (0, 1, 2):
                spec = CoverSpec(genus, classes)
                assert regular_extends(spec) == _oracle_regular_extends(spec), (genus, classes)


def test_stallings_examples_and_properties():
    rep = stallings_excluding_subgroup(Word("a"))
    assert rep.degree == 2 and str(rep.assignment["a"]) == "(1 2)"
    rep = stallings_excluding_subgroup(Word("aa"))
    assert rep.degree == 3 and str(rep.assignment["a"]) == "(1 2 3)"
    rep = stallings_excluding_subgroup(Word("abAB"))
    assert rep.degree <= 5
    assert evaluate(Word("abAB"), rep.assignment, Permutation.identity(rep.degree))(1) != 1
    with pytest.raises(CoverError):
        stallings_excluding_subgroup(Word(""))


def test_stallings_random_words():
    rng = random.Random(31)
    for _ in range(300):
        w = random_reduced_word(rng, 25)
        rep = stallings_excluding_subgroup(w)
        assert rep.degree <= len(w) + 1
        assert evaluate(w, rep.assignment, Permutation.identity(rep.degree))(1) != 1


@pytest.mark.parametrize("gens", ["ab", "abc"])
def test_stallings_assignment_equals_the_dict_completion_oracle(gens):
    rng = random.Random(37)
    for _ in range(2000):
        w = random_reduced_word(rng, 20, gens)
        assert stallings_excluding_subgroup(w).assignment == _oracle_stallings_assignment(w), w
