import math
import random

import pytest

from fig8.sl2 import (
    SANOV_A,
    SANOV_B,
    HypLength,
    Mat2,
    Sl2Error,
    fig8_length,
    length_to_trace,
    trace_third,
    trace_to_length,
)
from fig8.words import Word, WordError, evaluate, random_reduced_word

SANOV = {"a": SANOV_A, "b": SANOV_B}
ONE = Mat2.identity()


def test_eval_word_examples():
    assert evaluate(Word("ab"), SANOV, ONE).entries() == (5, 2, 2, 1)
    assert evaluate(Word(""), SANOV, ONE).is_identity
    assert evaluate(Word("abAB"), SANOV, ONE).entries() == (21, -8, 8, -3)


def test_eval_word_errors():
    with pytest.raises(WordError):
        evaluate(Word("ac", "abcd"), SANOV, ONE)
    with pytest.raises(Sl2Error):
        evaluate(Word("ab"), {"a": SANOV_A, "b": SANOV_B.reduce_mod(5)}, ONE)


def test_determinant_invariant_and_modulus():
    m = Mat2(1, 5, 0, 1).reduce_mod(7)
    assert m.entries() == (1, 5, 0, 1)
    assert (m * m).entries() == (1, 3, 0, 1)
    with pytest.raises(Sl2Error):
        Mat2(2, 0, 0, 1)
    with pytest.raises(Sl2Error):
        Mat2(1, 0, 0, 1, modulus=0)


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
    assert trace_third(2, 2, 6) == -2
    t = 7.0
    assert trace_third(t, t, t * t - 2) == 2
    assert trace_third(3, 3, -2) == 11


def test_trace_third_random_matrix_pairs():
    rng = random.Random(99)
    for _ in range(1000):
        a = evaluate(random_reduced_word(rng, 12), SANOV, ONE)
        b = evaluate(random_reduced_word(rng, 12), SANOV, ONE)
        assert trace_third(a.trace, b.trace, (a * b).trace) == (a.inverse() * b).trace


def test_fig8_length_examples():
    cusp = fig8_length(0, 0, 0)
    assert abs(cusp.value - 2 * math.acosh(3)) < 1e-9
    assert abs(cusp.value - 3.52549) < 1e-5
    l3 = 2 * math.acosh(1.5)
    assert abs(fig8_length(l3, 0, l3).trace - 9) < 1e-9
    assert abs(fig8_length(l3, l3, 0).trace - 11) < 1e-9
    assert abs(fig8_length(l3, l3, 0).trace - trace_third(3, 3, -2)) < 1e-9


def test_fig8_length_symmetry_monotonicity_minimality():
    rng = random.Random(1)
    floor = 2 * math.acosh(3)
    for _ in range(200):
        x, y, z = (rng.uniform(0, 4) for _ in range(3))
        assert abs(fig8_length(x, y, z).value - fig8_length(y, x, z).value) < 1e-12
        assert fig8_length(x, y, z).value >= floor - 1e-12
        eps = 0.1
        base = fig8_length(x, y, z).value
        assert fig8_length(x + eps, y, z).value > base
        assert fig8_length(x, y + eps, z).value > base
        assert fig8_length(x, y, z + eps).value > base
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


def test_hyplength_consistency():
    HypLength(2 * math.acosh(1.5), 3.0)
    with pytest.raises(Sl2Error):
        HypLength(1.0, 3.0)
