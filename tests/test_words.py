import random

import pytest

from fig8.magnus import MagnusSeries
from fig8.perms import Permutation
from fig8.sl2 import SANOV_A, SANOV_B, Mat2
from fig8.words import Word, WordError, evaluate, free_reduce, random_reduced_word

BACKENDS = {
    "sanov": ({"a": SANOV_A, "b": SANOV_B}, Mat2.identity()),
    "sanov mod 7": ({"a": SANOV_A.reduce_mod(7), "b": SANOV_B.reduce_mod(7)}, Mat2.identity(7)),
    "S5": (
        {"a": Permutation.parse("(1 2 3 4 5)", 5), "b": Permutation.parse("(1 2)(3 5)", 5)},
        Permutation.identity(5),
    ),
    "magnus depth 4": (
        {"a": MagnusSeries.generator("x", 4), "b": MagnusSeries.generator("y", 4)},
        MagnusSeries.one(4),
    ),
}


def test_free_reduce():
    assert free_reduce("abBA") == ""
    assert free_reduce("aAbB") == ""
    assert free_reduce("abAB") == "abAB"
    assert free_reduce("aabAA") == "aabAA"
    assert free_reduce("abBc") == "ac"  # pure string operation, any letters
    assert free_reduce("") == ""


def test_word_reduces_on_construction():
    assert Word("abBA").letters == ""
    assert Word("aabBb").letters == "aab"


def test_alphabet_validation():
    with pytest.raises(WordError):
        Word("axe")
    Word("ac", "abcd")  # fine over the genus-2 alphabet


def test_multiplication_and_inverse():
    u = Word("ab")
    v = Word("BA")
    assert (u * v).is_trivial
    assert u.inverse().letters == "BA"
    assert (u * u.inverse()).is_trivial
    assert (u**3).letters == "ababab"
    assert (u**-2) == (u.inverse() ** 2)


def test_cyclic_reduction():
    w = Word("AbaBa")  # starts with A, ends with a
    assert not w.is_cyclically_reduced()
    assert w.cyclically_reduced().letters == "a"
    assert Word("abAB").is_cyclically_reduced()


def test_proper_power():
    assert Word("abab").is_proper_power()
    assert Word("aaa").is_proper_power()
    assert not Word("ab").is_proper_power()
    assert not Word("aab").is_proper_power()


def test_exponent_sums():
    assert Word("aabAB").exponent_sums() == (1, 0)
    assert Word("ab", "ab").exponent_sums() == (1, 1)
    assert Word("ACbd", "abcd").exponent_sums() == (-1, 1, -1, 1)


def test_random_reduced_words_are_reduced_and_in_ball():
    rng = random.Random(42)
    for _ in range(500):
        w = random_reduced_word(rng, 30)
        assert 1 <= len(w) <= 30
        assert free_reduce(w.letters) == w.letters


def test_random_word_determinism():
    a = [random_reduced_word(random.Random(7), 20).letters for _ in range(1)]
    b = [random_reduced_word(random.Random(7), 20).letters for _ in range(1)]
    assert a == b


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_evaluate_is_a_homomorphism(backend):
    images, identity = BACKENDS[backend]
    rng = random.Random(2009)
    assert evaluate(Word(""), images, identity) == identity
    for _ in range(30):
        u = random_reduced_word(rng, 15)
        v = random_reduced_word(rng, 15)
        eu, ev = evaluate(u, images, identity), evaluate(v, images, identity)
        assert evaluate(u * v, images, identity) == eu * ev
        assert evaluate(u.inverse(), images, identity) == eu.inverse()
    with pytest.raises(WordError):
        evaluate(Word("ac", "abcd"), images, identity)
