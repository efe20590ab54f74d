import math
import random

import pytest

from fig8.selfint import TORUS_X, TORUS_Y
from fig8.sl2 import (
    SANOV_A,
    SANOV_B,
    Mat2,
    eight_trace,
    length_to_trace,
    trace_to_length,
)
from fig8.words import Word, evaluate, random_reduced_word

SANOV = {"a": SANOV_A, "b": SANOV_B}
ONE = Mat2.identity()


def test_eval_word_examples():
    assert evaluate(Word("ab"), SANOV, ONE) == (5, 2, 2, 1)
    assert evaluate(Word(""), SANOV, ONE).is_identity
    assert evaluate(Word("abAB"), SANOV, ONE) == (21, -8, 8, -3)


def test_eval_word_errors():
    with pytest.raises(ValueError, match="have no image"):
        evaluate(Word("ac", "abcd"), SANOV, ONE)


def test_determinant_invariant_and_modulus():
    assert Mat2(1, 5, 0, 1).check().reduce_mod(7) == (1, 5, 0, 1)
    assert Mat2(-1, 12, 0, -1).reduce_mod(7) == (6, 5, 0, 6)
    with pytest.raises(ValueError, match="determinant is 2, not 1"):
        Mat2(2, 0, 0, 1).check()


def test_mat2_is_an_immutable_entries_tuple():
    m = Mat2(1, 2, 0, 1)
    with pytest.raises(AttributeError):
        m.a12 = 3
    assert repr(ONE) == "Mat2(a11=1, a12=0, a21=0, a22=1)"
    assert m == (1, 2, 0, 1) and hash(m) == hash((1, 2, 0, 1))
    product, inverse = SANOV_A * SANOV_B, SANOV_A.inverse()
    assert type(product) is Mat2 and type(inverse) is Mat2
    assert (product.a11, product.a12, product.a21, product.a22) == (5, 2, 2, 1)
    assert (inverse.a11, inverse.a12, inverse.a21, inverse.a22) == (1, -2, 0, 1)
    assert repr(product) == "Mat2(a11=5, a12=2, a21=2, a22=1)"
    assert repr(inverse) == "Mat2(a11=1, a12=-2, a21=0, a22=1)"
    assert product.trace == 6 and inverse * SANOV_A == ONE
    with pytest.raises(ValueError, match="determinant is -1, not 1"):
        Mat2(1, 2, 1, 1).check()
    with pytest.raises(TypeError):
        2 * SANOV_A  # no tuple repetition
    with pytest.raises(TypeError):
        SANOV_A + SANOV_B  # no tuple concatenation
    with pytest.raises(TypeError):
        (1,) + SANOV_A  # nor from the left, where tuple.__add__ would accept it
    with pytest.raises(TypeError):
        SANOV_A * (0, 0, 0, 0)  # a product takes two Mat2, not an entries tuple


@pytest.mark.parametrize("pair", [(SANOV_A, SANOV_B), (TORUS_X, TORUS_Y)], ids=["sanov", "torus"])
def test_products_inverses_powers_keep_determinant_one(pair):
    """det is multiplicative, so matrices built from checked ones need no check."""
    images = dict(zip("ab", pair))
    rng = random.Random(11)
    for _ in range(200):
        u = evaluate(random_reduced_word(rng, 60), images, ONE)
        v = evaluate(random_reduced_word(rng, 60), images, ONE)
        for m in (u * v, u.inverse()):
            assert m.check() is m
    with pytest.raises(ValueError, match="determinant is 2, not 1"):
        Mat2(2, 0, 0, 1).check()


def test_inverse_pow_json_roundtrip():
    m = evaluate(Word("abab"), SANOV, ONE)
    assert (m * m.inverse()).is_identity


def test_word_inverse_cancellation_random():
    rng = random.Random(123)
    for _ in range(1000):
        w = random_reduced_word(rng, 200)
        assert (w * w.inverse()).is_trivial
    # spot-check the matrix side on a subsample (exact but slower)
    rng = random.Random(5)
    for _ in range(50):
        w = random_reduced_word(rng, 60)
        assert evaluate(w * w.inverse(), SANOV, ONE).is_identity


def test_trace_third_examples():
    # tr(A^-1 B) = trA trB - tr(AB)
    for a, b, want in ((SANOV_A, SANOV_B, -2), (SANOV_A, SANOV_A, 2), (TORUS_X, TORUS_Y, 6)):
        assert (a.inverse() * b).trace == a.trace * b.trace - (a * b).trace == want


def test_trace_third_random_matrix_pairs():
    rng = random.Random(99)
    for _ in range(1000):
        a = evaluate(random_reduced_word(rng, 12), SANOV, ONE)
        b = evaluate(random_reduced_word(rng, 12), SANOV, ONE)
        assert a.trace * b.trace - (a * b).trace == (a.inverse() * b).trace


def test_eight_trace_examples():
    assert eight_trace(2, 2, 2) == 6  # the three-cusped sphere
    assert eight_trace(3, 2, 3) == 9  # cuffs 3 and a cusp, third cuff 3
    # two cuffs of trace 3 and a cusp, tr(AB) = -2: the trace is trA trB - tr(AB) = 11
    assert eight_trace(3, 3, 2) == 3 * 3 - (-2)


def test_eight_trace_symmetry_monotonicity_minimality():
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (rng.uniform(2, 8) for _ in range(3))
        base = eight_trace(x, y, z)
        assert base == eight_trace(y, x, z)
        assert base >= 6
        eps = 0.1
        assert eight_trace(x + eps, y, z) > base
        assert eight_trace(x, y + eps, z) > base
        assert eight_trace(x, y, z + eps) > base


def test_eight_trace_matches_word_traces_on_nielsen_bases():
    """The pants rule against the traces of words at the modular torus.

    A Nielsen basis (u, v) of F2 has the commutator of the cusp, so u and
    the cusp bound the pants (|tr u|, cusp, |tr u|) with eight u^-2 v^-1 u v,
    and u v and the cusp bound (|tr uv|, |tr uv|, cusp) with eight u^2 v^2.
    """
    images = {"a": TORUS_X, "b": TORUS_Y}

    def trace(w):
        return evaluate(w, images, ONE).trace

    rng = random.Random(1)
    for _ in range(3000):
        u, v = Word("a"), Word("b")
        for _ in range(rng.randint(0, 12)):
            move = rng.randrange(4)
            if move == 0:
                u = u * v
            elif move == 1:
                v = v * u
            elif move == 2:
                u = u.inverse()
            else:
                u, v = v, u
        assert trace(u * v * u.inverse() * v.inverse()) == -2
        tu, tuv = abs(trace(u)), abs(trace(u * v))
        assert abs(trace(u**-2 * v.inverse() * u * v)) == eight_trace(tu, 2, tu)
        assert abs(trace(u**2 * v**2)) == eight_trace(tuv, tuv, 2)


def test_length_trace_conversions():
    assert abs(trace_to_length(3) - 1.924847) < 1e-6
    assert abs(trace_to_length(length_to_trace(2.5)) - 2.5) < 1e-9
    assert abs(length_to_trace(2 * math.acosh(3)) - 6) < 1e-9
    with pytest.raises(ValueError, match="not a closed geodesic"):
        trace_to_length(2)
    with pytest.raises(ValueError, match="length -1 is not a finite number >= 0"):
        length_to_trace(-1)

