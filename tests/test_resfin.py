import itertools
import random
from fractions import Fraction

import pytest

from fig8.resfin import (
    ResFinError,
    abelian_excluding_prime,
    average_index_simulation,
    excluding_prime,
    expected_min_prime,
    primes,
    sanov_eval,
    smallest_excluding_prime,
)
from fig8.sl2 import Mat2
from fig8.words import Word, random_reduced_word


def test_primes_sieve():
    assert list(itertools.islice(primes(), 10)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sanov_eval_examples():
    assert sanov_eval(Word("ab")).entries() == (5, 2, 2, 1)
    assert sanov_eval(Word("")).is_identity
    assert sanov_eval(Word("abAB")).entries() == (21, -8, 8, -3)


def test_sanov_freeness_random():
    rng = random.Random(2)
    for _ in range(300):
        w = random_reduced_word(rng, 40)
        assert not sanov_eval(w).is_identity
        assert sanov_eval(w * w.inverse()).is_identity


def test_smallest_excluding_prime_examples():
    assert smallest_excluding_prime(Word("a")).prime == 3
    witness = smallest_excluding_prime(Word("abAB"))
    assert witness.prime == 3
    assert witness.image == (0, 1, 2, 0)
    # a^3 maps to [[1,6],[0,1]] = I mod 3, so the excluding prime jumps to 5
    assert smallest_excluding_prime(Word("aaa")).prime == 5
    with pytest.raises(ResFinError):
        smallest_excluding_prime(Word("aA"))


def test_excluding_prime_of_a_matrix():
    with pytest.raises(ResFinError):
        excluding_prime(Mat2.identity(), 0)
    rng = random.Random(12)
    words = [Word("a"), Word("abAB"), Word("aaa")]
    words += [random_reduced_word(rng, 30) for _ in range(200)]
    for w in words:
        assert excluding_prime(sanov_eval(w), len(w)) == smallest_excluding_prime(w)


def test_excluding_prime_is_at_least_three():
    rng = random.Random(11)
    for _ in range(200):
        w = random_reduced_word(rng, 30)
        assert smallest_excluding_prime(w).prime >= 3


def test_expected_min_prime():
    assert expected_min_prime(1) == 1.0
    assert expected_min_prime(2) == 2.0
    assert abs(expected_min_prime(9) - 2.920051) < 1e-5
    values = [expected_min_prime(t) for t in range(1, 12)]
    assert values == sorted(values)  # monotone
    assert values[-1] < 3.0
    with pytest.raises(ResFinError):
        expected_min_prime(0)


def test_expected_min_prime_equals_term_by_term_division():
    # the series as first written: p (1 - 1/p) divided by each earlier prime in turn
    total, seen, gen = Fraction(0), [], primes()
    for terms in range(1, 61):
        p = next(gen)
        term = p * (1 - Fraction(1, p))
        for q in seen:
            term /= q
        total += term
        seen.append(p)
        assert expected_min_prime(terms) == float(total)


def test_abelian_excluding_prime():
    assert abelian_excluding_prime(Word("a" * 6)) == 5
    assert abelian_excluding_prime(Word("a")) == 2
    assert abelian_excluding_prime(Word("abAB")) is None  # commutator


def test_average_index_simulation():
    result = average_index_simulation(2, 20, 2000, seed=4)
    assert result.mean < 3.0
    assert result.samples_used + result.excluded_zero_abelianization == 2000
    again = average_index_simulation(2, 20, 2000, seed=4)
    assert again == result  # deterministic for a fixed seed
    with pytest.raises(ResFinError):
        average_index_simulation(1, 20, 10, seed=0)
    # ranks above 26 would run out of generator letters
    average_index_simulation(26, 5, 10, seed=1)
    with pytest.raises(ResFinError):
        average_index_simulation(27, 5, 10, seed=1)
