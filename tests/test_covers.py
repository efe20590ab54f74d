from itertools import product

import pytest

from fig8.covers import (
    CoverError,
    CoverSpec,
    boundary_lift_components,
    commutator_witness,
    extends_cover,
    regular_extends,
    stallings_excluding_subgroup,
    strip_cover,
    two_n_cycles,
)
from fig8.perms import (
    Partition,
    PermError,
    Permutation,
    all_permutations,
    commutator,
    partitions_of,
)
from fig8.words import Word, evaluate


def test_cover_spec_validation():
    with pytest.raises(CoverError):
        CoverSpec(-1, (Partition((2,)),))
    with pytest.raises(CoverError):
        CoverSpec(0, ())
    with pytest.raises(CoverError):
        CoverSpec(0, (Partition((2,)), Partition((3,))))


def test_extends_cover_spec_examples():
    assert not extends_cover(CoverSpec(1, (Partition((2,)),))).extends
    d = extends_cover(CoverSpec(0, (Partition((2,)), Partition((2,)))))
    assert d.extends and d.verify()
    d = extends_cover(CoverSpec(1, (Partition((3,)),)))
    assert d.extends and d.verify()
    # witness: the 3-cycle is a commutator
    assert commutator(*d.handles[0]) == d.boundaries[0].inverse()


def _brute_extends(genus, classes):
    """Independent oracle: exhaustive over commutator products and class tuples."""
    n = classes[0].n
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
    d = extends_cover(CoverSpec(1, (Partition((1, 1, 1)),)), transitive=True)
    assert d.extends
    if d.boundaries is not None:
        perms = [g for pair in d.handles for g in pair] + list(d.boundaries)
        reach = {0}
        for _ in range(3):
            reach |= {g.images[p] for g in perms for p in reach}
        assert len(reach) == 3


def test_two_n_cycles_examples():
    e3 = Permutation.identity(3)
    c1, c2 = two_n_cycles(e3)
    assert c1 * c2 == e3 and c1.cycle_type() == Partition((3,))
    s = Permutation.parse("(1 2 3)", 3)
    c1, c2 = two_n_cycles(s)
    assert c1 * c2 == s
    s4 = Permutation.parse("(1 2)(3 4)", 4)
    c1, c2 = two_n_cycles(s4)
    assert c1 * c2 == s4 and c1.cycle_type() == Partition((4,))
    with pytest.raises(PermError):
        two_n_cycles(Permutation.parse("(1 2)", 3))


def test_commutator_witness_examples():
    e = Permutation.identity(4)
    assert commutator_witness(e) == (e, e)
    for text in ("(1 2 3)", "(1 2)(3 4)", "(1 2 3 4 5)"):
        s = Permutation.parse(text, 5)
        a, b = commutator_witness(s)
        assert commutator(a, b) == s
    with pytest.raises(PermError):
        commutator_witness(Permutation.parse("(1 2)", 4))


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
        ncycles = [g for g in all_permutations(n) if g.cycle_type() == Partition((n,))]
        for sigma in ncycles:
            for tau in all_permutations(n):
                cover = strip_cover(sigma, tau)  # raises if chi fails
                assert 2 - 2 * cover.cover_genus - cover.boundary_components == -n


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
    assert regular_extends(CoverSpec(1, (Partition((2,)),))).status == "does-not-extend"
    assert regular_extends(CoverSpec(1, (Partition((1, 1)),))).status == "extends"
    d = regular_extends(CoverSpec(0, (Partition((2,)), Partition((2,)))))
    assert d.status == "extends"
    assert regular_extends(CoverSpec(1, (Partition((9,)),)), budget=8).status == "unknown"


def test_regular_extends_against_direct_search():
    """Genus-1, one boundary class: compare with exhaustive homomorphism search
    requiring an image of order exactly n."""
    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        for cls in partitions_of(n):
            expected = False
            from fig8.covers import _subgroup_closure
            from fig8.perms import class_elements

            for gamma in class_elements(cls):
                for a in perms:
                    for b in perms:
                        if commutator(a, b) * gamma == Permutation.identity(n):
                            group = _subgroup_closure([a, b, gamma], n)
                            if group is not None and len(group) == n:
                                expected = True
                                break
                    if expected:
                        break
                if expected:
                    break
            got = regular_extends(CoverSpec(1, (cls,))).status == "extends"
            assert got == expected, (n, cls)


def test_regular_witness_generates_order_n():
    d = regular_extends(CoverSpec(0, (Partition((2,)), Partition((2,)))))
    from fig8.covers import _subgroup_closure

    group = _subgroup_closure(list(d.witness), 2)
    assert group is not None and len(group) == 2


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
    import random

    from fig8.words import random_reduced_word

    rng = random.Random(31)
    for _ in range(300):
        w = random_reduced_word(rng, 25)
        rep = stallings_excluding_subgroup(w)
        assert rep.degree <= len(w) + 1
        assert evaluate(w, rep.assignment, Permutation.identity(rep.degree))(1) != 1
