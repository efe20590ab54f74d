import math
import random
import time
from collections import defaultdict
from itertools import permutations, product

import pytest

from fig8.perms import (
    Permutation,
    class_elements,
    class_parity,
    class_representative,
    class_size,
    commutator,
    frobenius_count,
    parse_partition,
    partitions_of,
    _character,
    _rim_hooks,
)
from fig8.words import evaluate, random_reduced_word
from oracles import (
    _oracle_character,
    _oracle_class_elements,
    _oracle_frobenius_count,
    all_permutations,
    standard_tableaux,
)


def test_partition_validation_and_parse():
    # a plain tuple is unchecked by design; parse is the checked way in
    rejected = [("0", "part below 1"), ("2,-1", "part below 1"), ("1001", "above the cap"), ("500,501", "above the cap")]
    for text, message in rejected:
        with pytest.raises(ValueError, match=message):
            parse_partition(text)
    assert parse_partition("1,3,1") == (3, 1, 1)
    assert parse_partition("500,500") == (500, 500)


def test_partitions_of_counts():
    assert [len(list(partitions_of(n))) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_class_parity():
    assert class_parity((2, 1, 1)) == 1
    assert class_parity((1, 1, 1, 1)) == 0
    assert class_parity((3,)) == 0


def test_class_size():
    assert class_size((2, 1)) == 3
    assert class_size((1, 1, 1, 1)) == 1
    assert class_size((4,)) == 6
    for n in range(1, 7):
        assert sum(class_size(p) for p in partitions_of(n)) == math.factorial(n)


def test_character_examples():
    assert _character((2, 1), (1, 1, 1)) == 2
    assert _character((5,), (3, 2)) == 1
    assert _character((2, 1), (3,)) == -1


def test_character_dimensions_and_orthogonality():
    for n in range(1, 7):
        one = (1,) * n
        dims = [_character(lam, one) for lam in partitions_of(n)]
        assert all(d > 0 for d in dims)
        assert sum(d * d for d in dims) == math.factorial(n)
    # row orthogonality in S5
    parts = list(partitions_of(5))
    for l1 in parts:
        for l2 in parts:
            s = sum(
                class_size(mu) * _character(l1, mu) * _character(l2, mu) for mu in parts
            )
            assert s == (math.factorial(5) if l1 == l2 else 0)


def _brute_frobenius(classes):
    pools = [class_elements(c) for c in classes]
    n = sum(classes[0])
    identity = Permutation.identity(n)
    count = 0
    for tup in product(*pools):
        g = identity
        for x in tup:
            g = g * x
        if g == identity:
            count += 1
    return count


def test_frobenius_examples_and_bruteforce():
    assert frobenius_count([(2, 1), (2, 1)]) == 3
    assert frobenius_count([(2, 1)]) == 0
    assert frobenius_count([(1, 1, 1)]) == 1
    triple = [(2, 1, 1)] * 3
    assert frobenius_count(triple) == _brute_frobenius(triple)
    mixed = [(3, 1), (2, 2), (4,)]
    assert frobenius_count(mixed) == _brute_frobenius(mixed)
    with pytest.raises(ValueError, match="need at least one class"):
        frobenius_count([])
    with pytest.raises(ValueError, match="all classes must belong to the same S_n"):
        frobenius_count([(2,), (3,)])


def _random_partition(rng, n):
    parts = []
    while n:
        parts.append(rng.randint(1, n))
        n -= parts[-1]
    return tuple(sorted(parts, reverse=True))


def test_frobenius_count_equals_fraction_oracle():
    for n in range(1, 8):
        parts = list(partitions_of(n))
        for k in (1, 2, 3):
            for classes in product(parts, repeat=k):
                assert frobenius_count(list(classes)) == _oracle_frobenius_count(list(classes))
        if n <= 5:
            for classes in product(parts, repeat=4):
                assert frobenius_count(list(classes)) == _oracle_frobenius_count(list(classes))
    rng = random.Random(23)
    for _ in range(200):
        n, k = rng.randint(1, 30), rng.randint(1, 4)
        classes = [_random_partition(rng, n) for _ in range(k)]
        assert frobenius_count(classes) == _oracle_frobenius_count(classes), classes


def test_a_tie_in_fixed_points_pivots_on_the_class_with_fewer_parts():
    """(2^30, 1) and (60, 1) both fix one point, and the support of the 30
    twos holds every shape built from one box by 30 dominoes.  On the tie the
    60-cycle, with fewer parts, is the pivot, so both orders answer 0 (an
    even times an odd class) within a second.  Small ties equal the oracle
    in every order."""
    twos, cycle = (2,) * 30 + (1,), (60, 1)
    for classes in ([twos, cycle], [cycle, twos]):
        start = time.perf_counter()
        assert frobenius_count(classes) == 0
        assert time.perf_counter() - start < 1
    for classes in ([(2, 2, 1), (4, 1), (4, 1)], [(3, 3, 1), (6, 1), (2, 2, 2, 1)]):
        for order in permutations(classes):
            assert frobenius_count(list(order)) == _oracle_frobenius_count(list(order)) > 0


def test_three_n_cycles_closed_form():
    # an n-cycle is a product of two n-cycles in 2(n-1)!/(n+1) ways for odd n
    # and in none for even n (Stanley, European J. Combin. 2011)
    for n in range(1, 102):
        f = math.factorial(n - 1)
        expected = f * 2 * f // (n + 1) if n % 2 else 0
        assert frobenius_count([(n,)] * 3) == expected, n


def test_dimensions_count_standard_tableaux():
    for n in range(13):
        for lam in partitions_of(n):
            assert _character(lam, (1,) * n) == standard_tableaux(lam), lam


def test_dimension_at_the_degree_cap_needs_no_deep_recursion():
    n = 995
    assert _character((n,), (1,) * n) == 1
    hook = (500,) + (1,) * 495
    assert _character(hook, (1,) * n) == math.comb(n - 1, 495)


def test_character_recursion_keeps_one_frame_per_part():
    # 400 parts of size 2 fit under the recursion limit only if each part
    # costs one level of _character and nothing more; a hook such as (801,)
    # needs no recursion, and (799, 2) needs one level per part, with
    # chi_(n-2,2) = C(f, 2) + t - f at f fixed points and t 2-cycles
    assert _character((801,), (2,) * 400 + (1,)) == 1
    assert _character((799, 2), (2,) * 400 + (1,)) == 399


def test_hook_characters_equal_the_recursion():
    for n in range(1, 13):
        for mu in partitions_of(n):
            for r in range(n):
                hook = (n - r,) + (1,) * r
                assert _character(hook, mu) == _oracle_character(hook, mu), (hook, mu)


def _diagram_rim_hook_sign(lam, rho):
    """(-1)^(rows - 1) if lam/rho is a rim hook: a connected skew diagram
    with no 2x2 square; None otherwise, or if rho is not inside lam."""
    rho = rho + (0,) * (len(lam) - len(rho))
    if len(rho) > len(lam) or any(r > part for r, part in zip(rho, lam)):
        return None
    cells = {(i, j) for i, part in enumerate(lam) for j in range(rho[i], part)}
    if not cells or any({(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= cells for i, j in cells):
        return None
    seen, stack = set(), [min(cells)]
    while stack:
        i, j = stack.pop()
        if (i, j) in cells and (i, j) not in seen:
            seen.add((i, j))
            stack += [(i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)]
    if seen != cells:
        return None
    return (-1) ** (len({i for i, _ in cells}) - 1)


def test_rim_hooks_equal_the_diagram_oracle_both_ways():
    for n in range(10):
        for rho in partitions_of(n):
            for m in range(1, 6):
                added = {}
                for lam in partitions_of(n + m):
                    if (sign := _diagram_rim_hook_sign(lam, rho)) is not None:
                        added[lam] = sign
                assert sorted(_rim_hooks(rho, m)) == sorted(added.items()), (rho, m)
                for lam, sign in added.items():
                    assert (rho, sign) in list(_rim_hooks(lam, -m)), (lam, m)


def test_frobenius_closed_forms_for_one_and_two_classes():
    # one class: only the identity has product e; two classes: g h = e means
    # h = g^-1, and every S_n class is closed under inverses
    for n in range(1, 9):
        parts = list(partitions_of(n))
        for c in parts:
            assert frobenius_count([c]) == (1 if c == (1,) * n else 0)
            for d in parts:
                assert frobenius_count([c, d]) == (class_size(c) if c == d else 0)


def test_permutation_right_action_convention():
    s = Permutation.parse("(1 2)", 3)
    t = Permutation.parse("(2 3)", 3)
    st = s * t
    for i in (1, 2, 3):
        assert st(i) == t(s(i))
    assert str(st) == "(1 3 2)"


def test_permutation_basics():
    g = Permutation.parse("(1 2 3)(4 5)", 5)
    assert g.cycle_type() == (3, 2)
    h, order = g, 1
    while h != Permutation.identity(5):
        h, order = h * g, order + 1
    assert order == 6
    assert not g.is_even()
    assert (g * g.inverse()) == Permutation.identity(5)
    assert g.cycle_count() == 2
    assert Permutation.identity(4).cycle_count() == 4
    assert Permutation.parse("e", 3) == Permutation.identity(3)
    with pytest.raises(ValueError, match="needs distinct points"):
        Permutation.parse("(1 2 2)")


@pytest.mark.parametrize(
    "text, n",
    [
        ("(1 -2)", 3),
        ("(0 1)", 3),
        ("(1 4)", 3),
        ("(1 2)(2 3)", 3),
        ("(1 2)(2 1)", 3),
        ("e", 0),
        ("e", 1001),  # above the degree cap
    ],
)
def test_permutation_parse_rejects_outside_input(text, n):
    message = "is below 1" if n < 1 else "above the cap" if n > 1000 else "needs distinct points in 1..3"
    with pytest.raises(ValueError, match=message):
        Permutation.parse(text, n)


def _random_cycles(rng, n):
    """Cycle notation for a random permutation of 1..n, fixed points written out."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    chunks = [points[i:j] for i, j in zip([0, *cuts], [*cuts, n])]
    return "".join("(" + " ".join(map(str, c)) + ")" for c in chunks)


def _is_partition_of(p, n):
    return all(x > 0 for x in p) and list(p) == sorted(p, reverse=True) and sum(p) == n


def test_products_inverses_keep_bijections_and_partitions():
    """Unchecked constructors preserve the invariants that parse establishes."""
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 8)
        gens = "abc"[: rng.randint(2, 3)]
        images = {g: Permutation.parse(_random_cycles(rng, n), n) for g in gens}
        identity = Permutation.identity(n)
        u = evaluate(random_reduced_word(rng, 40, gens), images, identity)
        v = evaluate(random_reduced_word(rng, 40, gens), images, identity)
        for g in (u, v, u * v, u.inverse()):
            assert sorted(g.images) == list(range(n))
            assert _is_partition_of(g.cycle_type(), n)
    for n in range(13):
        assert all(_is_partition_of(p, n) for p in partitions_of(n))


def test_commutator_and_class_helpers():
    s = Permutation.parse("(1 2 3)", 3)
    t = Permutation.parse("(1 2)", 3)
    assert commutator(s, t) == s * t * s.inverse() * t.inverse()
    rep = class_representative((3, 2))
    assert rep.cycle_type() == (3, 2)
    assert len(tuple(class_elements((2, 1)))) == 3
    assert len(list(all_permutations(4))) == 24


def test_class_elements_equal_the_filter_of_all_permutations():
    for n in range(8):
        by_type = defaultdict(list)
        for g in all_permutations(n):
            by_type[g.cycle_type()].append(g)
        for p in partitions_of(n):
            assert tuple(class_elements(p)) == tuple(by_type[p]), p  # order included
    for n in (8, 9):
        for p in partitions_of(n):
            assert len(tuple(class_elements(p))) == class_size(p), p


def test_class_elements_with_a_partner_type_equal_the_filter():
    rng = random.Random(16)
    for n in range(1, 7):
        parts = list(partitions_of(n))
        perms = list(all_permutations(n))
        for t in [Permutation.identity(n), *rng.sample(perms, min(3, len(perms)))]:
            for p in parts:
                for q in parts:
                    expected = [g for g in _oracle_class_elements(p) if (g * t).cycle_type() == q]
                    assert list(class_elements(p, t, q)) == expected, (p, t, q)


def test_class_elements_with_a_fixed_first_image_equal_the_filter():
    # the elements of a uniform class with g(1) = j, as _regular_overgroups needs them
    for n in range(1, 9):
        for d in (d for d in range(1, n + 1) if n % d == 0):
            p = (d,) * (n // d)
            for j in range(1, n + 1):
                expected = [g for g in _oracle_class_elements(p) if g(1) == j]
                assert list(class_elements(p, first=j - 1)) == expected, (p, j)
