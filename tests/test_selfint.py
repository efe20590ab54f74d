import pytest

from fig8.selfint import (
    MODULAR_ASSIGNMENT,
    TORUS_X,
    TORUS_Y,
    SelfIntersectionError,
    self_intersection,
)
from fig8.sl2 import Mat2
from fig8.words import Word, evaluate


def test_modular_torus_generators():
    assert TORUS_X.trace == 3
    assert TORUS_Y.trace == 3
    assert (TORUS_X * TORUS_Y).trace == 3
    commutator = TORUS_X * TORUS_Y * TORUS_X.inverse() * TORUS_Y.inverse()
    assert commutator.trace == -2  # parabolic: the cusp


def test_simple_words_have_no_double_point():
    for letters in ("a", "b", "ab"):
        assert self_intersection(Word(letters)) == 0


def test_one_double_point_words():
    assert evaluate(Word("aabAB"), MODULAR_ASSIGNMENT, Mat2.identity()).trace == -9
    assert self_intersection(Word("aabAB")) == 1
    assert evaluate(Word("ABAb"), MODULAR_ASSIGNMENT, Mat2.identity()).trace == 11
    assert self_intersection(Word("ABAb")) == 1


def test_invariance_under_inverse_and_cyclic_rotation():
    for letters in ("aabAB", "ABAb", "ab"):
        w = Word(letters)
        assert self_intersection(w.inverse()) == self_intersection(w)
        rotated = Word(letters[1:] + letters[0])
        assert self_intersection(rotated) == self_intersection(w)


@pytest.mark.xfail(strict=True, reason="float crossing counter is not rotation invariant: 4 vs 5")
def test_rotation_invariance_of_length8_word():
    assert self_intersection(Word("BBaBBaaa")) == self_intersection(Word("BaBBaaaB"))


def test_rejects_bad_inputs():
    with pytest.raises(SelfIntersectionError):
        self_intersection(Word(""))  # trivial
    with pytest.raises(SelfIntersectionError):
        self_intersection(Word("abAB"))  # parabolic commutator
    with pytest.raises(SelfIntersectionError):
        self_intersection(Word("abab"))  # proper power
    with pytest.raises(SelfIntersectionError):
        self_intersection(Word("Aba"))  # not cyclically reduced
