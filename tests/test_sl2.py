import math
import random

import pytest

from fig8.selfint import TORUS_X, TORUS_Y
from fig8.sl2 import (
    SANOV_A,
    SANOV_B,
    Mat2,
    Sl2Error,
    fig8_length,
    length_to_trace,
    trace_to_length,
)
from fig8.words import Word, WordError, evaluate, random_reduced_word

SANOV = {"a": SANOV_A, "b": SANOV_B}
ONE = Mat2.identity()


def test_eval_word_examples():
    assert evaluate(Word("ab"), SANOV, ONE) == (5, 2, 2, 1)
    assert evaluate(Word(""), SANOV, ONE).is_identity
    assert evaluate(Word("abAB"), SANOV, ONE) == (21, -8, 8, -3)


def test_eval_word_errors():
    with pytest.raises(WordError):
        evaluate(Word("ac", "abcd"), SANOV, ONE)


def test_determinant_invariant_and_modulus():
    assert Mat2(1, 5, 0, 1).check().reduce_mod(7) == (1, 5, 0, 1)
    assert Mat2(-1, 12, 0, -1).reduce_mod(7) == (6, 5, 0, 6)
    with pytest.raises(Sl2Error):
        Mat2(2, 0, 0, 1).check()


def test_mat2_is_an_immutable_entries_tuple():
    m = Mat2(1, 2, 0, 1)
    with pytest.raises(AttributeError):
        m.a12 = 3
    assert repr(ONE) == "Mat2(a11=1, a12=0, a21=0, a22=1)"
    assert m == (1, 2, 0, 1) and hash(m) == hash((1, 2, 0, 1))
    with pytest.raises(Sl2Error):
        Mat2(1, 2, 1, 1).check()


@pytest.mark.parametrize("pair", [(SANOV_A, SANOV_B), (TORUS_X, TORUS_Y)], ids=["sanov", "torus"])
def test_products_inverses_powers_keep_determinant_one(pair):
    """det is multiplicative, so matrices built from checked ones need no check."""
    images = dict(zip("ab", pair))
    rng = random.Random(11)
    for _ in range(200):
        u = evaluate(random_reduced_word(rng, 60), images, ONE)
        v = evaluate(random_reduced_word(rng, 60), images, ONE)
        for m in (u * v, u.inverse(), u ** rng.randint(-3, 3)):
            assert m.check() is m
    with pytest.raises(Sl2Error):
        Mat2(2, 0, 0, 1).check()


def test_inverse_pow_json_roundtrip():
    m = evaluate(Word("abab"), SANOV, ONE)
    assert (m * m.inverse()).is_identity
    assert m**0 == Mat2.identity()
    assert m**-2 == (m.inverse()) ** 2


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


def test_fig8_length_examples():
    cusp = fig8_length(0, 0, 0)
    assert abs(cusp - 2 * math.acosh(3)) < 1e-9
    assert abs(cusp - 3.52549) < 1e-5
    l3 = 2 * math.acosh(1.5)
    assert abs(length_to_trace(fig8_length(l3, 0, l3)) - 9) < 1e-9
    # two cuffs of trace 3 and a cusp, tr(AB) = -2: the trace is trA trB - tr(AB) = 11
    assert abs(length_to_trace(fig8_length(l3, l3, 0)) - (3 * 3 - (-2))) < 1e-9


def test_fig8_length_symmetry_monotonicity_minimality():
    rng = random.Random(1)
    floor = 2 * math.acosh(3)
    for _ in range(200):
        x, y, z = (rng.uniform(0, 4) for _ in range(3))
        assert abs(fig8_length(x, y, z) - fig8_length(y, x, z)) < 1e-12
        assert fig8_length(x, y, z) >= floor - 1e-12
        eps = 0.1
        base = fig8_length(x, y, z)
        assert fig8_length(x + eps, y, z) > base
        assert fig8_length(x, y + eps, z) > base
        assert fig8_length(x, y, z + eps) > base
    with pytest.raises(Sl2Error):
        fig8_length(-1, 0, 0)


def test_length_trace_conversions():
    assert abs(trace_to_length(3) - 1.924847) < 1e-6
    assert abs(trace_to_length(length_to_trace(2.5)) - 2.5) < 1e-9
    assert abs(length_to_trace(2 * math.acosh(3)) - 6) < 1e-9
    with pytest.raises(Sl2Error):
        trace_to_length(2)
    with pytest.raises(Sl2Error):
        length_to_trace(-1)

