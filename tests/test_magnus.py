import itertools
import random

import pytest

from fig8.magnus import (
    MagnusSeries,
    lcs_depth,
    magnus_expand,
    unipotent_witness,
)
from fig8.resfin import least_prime_not_dividing
from fig8.words import Word, random_reduced_word


def bracket(u: Word, v: Word) -> Word:
    return u * v * u.inverse() * v.inverse()


def test_expand_examples():
    assert magnus_expand(Word("a"), 2).coeffs == {"": 1, "x": 1}
    assert magnus_expand(Word("abAB"), 2).coeffs == {"": 1, "xy": 1, "yx": -1}
    assert magnus_expand(Word("ab"), 1).coeffs == {"": 1, "x": 1, "y": 1}
    assert magnus_expand(Word("A"), 4).coeffs == {"": 1, "x": -1, "xx": 1, "xxx": -1, "xxxx": 1}
    with pytest.raises(ValueError, match="truncation degree must be at least 1"):
        magnus_expand(Word("a"), 0)
    with pytest.raises(ValueError, match="implemented for the rank-2 free group"):
        magnus_expand(Word("ac", "abcd"), 2)


def _reduced_words(max_len):
    return [
        Word("".join(letters))
        for n in range(1, max_len + 1)
        for letters in itertools.product("abAB", repeat=n)
        if all(x != y.swapcase() for x, y in zip(letters, letters[1:]))
    ]


def test_inverse_is_exact_in_truncation():
    words = _reduced_words(4)
    assert len(words) == 160
    for depth in range(1, 7):
        for w in words:
            product = magnus_expand(w, depth) * magnus_expand(w.inverse(), depth)
            assert product == MagnusSeries.one(depth), (w, depth)


def test_expansion_makes_one_product_per_letter(monkeypatch):
    """The four letter series are given in closed form, so expanding w
    multiplies once per letter and derives no inverse."""
    products = []
    mul = MagnusSeries.__mul__

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(MagnusSeries, "__mul__", counting_mul)
    for w in map(Word, ("a", "B", "abAB", "abAbaBAB", "aabAbbbaaBabBBaBAABAbAAB")):
        for depth in (1, 3, 8):
            products.clear()
            magnus_expand(w, depth)
            assert len(products) == len(w), (w, depth)


def test_homomorphism_property_random_pairs():
    rng = random.Random(17)
    for depth in (2, 3, 5):
        for _ in range(40):
            u = random_reduced_word(rng, 8)
            v = random_reduced_word(rng, 8)
            lhs = magnus_expand(u * v, depth)
            rhs = magnus_expand(u, depth) * magnus_expand(v, depth)
            assert lhs == rhs


def test_lcs_depth_examples():
    assert lcs_depth(Word("a")) == 1
    assert lcs_depth(Word("b")) == 1
    assert lcs_depth(Word("abAB")) == 2
    assert lcs_depth(Word("abAbaBAB")) == 3  # [[a,b],b]
    with pytest.raises(ValueError, match="trivial word has no depth"):
        lcs_depth(Word(""))


def test_lcs_depth_iterated_bracket_family():
    w = Word("a")
    b = Word("b")
    for j in range(1, 5):
        w = bracket(w, b)
        assert lcs_depth(w, max_k=6) == j + 1


def test_lcs_depth_deeper():
    w = Word("a")
    for _ in range(3):
        w = bracket(w, Word("b"))
    assert lcs_depth(w, max_k=2) is None  # depth 4 > 2


def _oracle(w: Word, max_k: int):
    """Depth and witness fields from the one expansion at max_k, truncated
    to its least nonzero degree; None if that expansion is 1."""
    series = magnus_expand(w, max_k)
    k = series.lowest_degree()
    if k is None:
        return None
    low = MagnusSeries({m: c for m, c in series.coeffs.items() if len(m) <= k}, k)
    monomial, coefficient = min((m, c) for m, c in low.coeffs.items() if len(m) == k)
    modulus = least_prime_not_dividing(coefficient)
    return k, modulus, monomial, coefficient, low.reduce_mod(modulus), modulus ** (k * (k + 1) // 2)


def test_depth_and_witness_equal_the_one_expansion_at_max_k():
    """Every reduced word of length <= 5 and the iterated brackets to depth 5,
    at max_k from 1 to 8: stopping at the first of the expansions at
    1, 2, 4, ... that is not 1 changes no depth and no witness field."""
    words = _reduced_words(5)
    w = Word("a")
    for _ in range(4):
        w = bracket(w, Word("b"))
        words.append(w)
    assert len(words) == 484 + 4
    for w in words:
        for max_k in (1, 2, 3, 4, 5, 8):
            expected = _oracle(w, max_k)
            witness = unipotent_witness(w, max_k)
            if expected is None:
                assert lcs_depth(w, max_k) is None and witness is None, (w, max_k)
                continue
            assert lcs_depth(w, max_k) == expected[0], (w, max_k)
            got = (witness.depth, witness.modulus, witness.monomial, witness.coefficient,
                   witness.image_mod_m, witness.ambient_index)
            assert got == expected, (w, max_k)


def test_unipotent_witness_heisenberg():
    witness = unipotent_witness(Word("abAB"), 2)
    assert witness.modulus == 2
    assert witness.ambient_index == 8
    assert witness.image_mod_m.coeffs != {"": 1}


def test_unipotent_witness_abelian_and_depth3():
    witness = unipotent_witness(Word("a"), 1)
    assert witness.modulus == 2 and witness.ambient_index == 2
    w3 = unipotent_witness(Word("abAbaBAB"), 3)
    assert w3.depth == 3
    assert w3.coefficient % w3.modulus != 0
    assert unipotent_witness(Word("abAbaBAB"), 2) is None  # depth 3 > max_k
    with pytest.raises(ValueError, match="trivial"):
        unipotent_witness(Word("aA"), 3)


def _brute_order(image, modulus):
    """Order of the reduced image, by multiplying until the identity."""
    one = MagnusSeries.one(image.degree).reduce_mod(modulus)
    power, order = image, 1
    while power != one:
        power = (power * image).reduce_mod(modulus)
        order += 1
    return order


def test_unipotent_witness_order_is_brute_force_order():
    words = [Word(x) for x in ("a", "b", "aB", "abA", "abAB", "abAbaBAB")]
    w = Word("a")
    for _ in range(4):
        w = bracket(w, Word("b"))
        words.append(w)
    for w in words:
        witness = unipotent_witness(w, lcs_depth(w))
        assert _brute_order(witness.image_mod_m, witness.modulus) == witness.modulus, w
        assert unipotent_witness(w, 8) == witness  # truncating the expansion at max_k


def test_coefficient_growth_bracket_family():
    # degree-k coefficients of a length-m word grow polynomially, O(m^k)
    w = Word("a")
    for j in range(1, 4):
        w = bracket(w, Word("b"))
        k = j + 1
        series = magnus_expand(w, k)
        biggest = max(abs(c) for m, c in series.coeffs.items() if len(m) == k)
        assert biggest <= len(w) ** k


def test_series_arithmetic_errors():
    s2 = MagnusSeries.one(2)
    s3 = MagnusSeries.one(3)
    with pytest.raises(ValueError, match="truncation degree mismatch"):
        s2 * s3
