import itertools
import random
import string
from fractions import Fraction

import pytest

from fig8.resfin import (
    ResFinError,
    SimulationResult,
    abelian_excluding_prime,
    average_index_simulation,
    excluding_prime,
    expected_min_prime,
    primes,
    sanov_eval,
    smallest_excluding_prime,
)
from fig8.sl2 import Mat2
from fig8.words import Word, free_reduce, random_reduced_letters, random_reduced_word
from oracles import _oracle_expected_min_prime


def test_primes_sieve():
    assert list(itertools.islice(primes(), 10)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    limit = 10**5
    composite = bytearray(limit)
    eratosthenes = []
    for n in range(2, limit):
        if not composite[n]:
            eratosthenes.append(n)
            composite[n * n :: n] = b"\x01" * len(range(n * n, limit, n))
    assert list(itertools.takewhile(lambda p: p < limit, primes())) == eratosthenes


def test_expected_min_prime_equals_fraction_oracle():
    assert [expected_min_prime(t) for t in range(1, 301)] == _oracle_expected_min_prime(300)


def test_sanov_eval_examples():
    assert sanov_eval(Word("ab")) == (5, 2, 2, 1)
    assert sanov_eval(Word("")).is_identity
    assert sanov_eval(Word("abAB")) == (21, -8, 8, -3)


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
        excluding_prime(Mat2.identity())
    rng = random.Random(12)
    words = [Word("a"), Word("abAB"), Word("aaa")]
    words += [random_reduced_word(rng, 30) for _ in range(200)]
    for w in words:
        assert excluding_prime(sanov_eval(w)) == smallest_excluding_prime(w)


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
    assert abelian_excluding_prime("a" * 6, "ab") == 5
    assert abelian_excluding_prime("a", "ab") == 2
    assert abelian_excluding_prime("abAB", "ab") is None  # commutator
    assert abelian_excluding_prime("abAbbbbb", "abc") == 5  # the sum of a is 0, of b 6


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


def _oracle_random_reduced_word(rng, max_len, gens="ab"):
    # the sampler before the letter stream: a table of sphere sizes per sample
    r = 2 * len(gens)
    counts = [r * (r - 1) ** (l - 1) for l in range(1, max_len + 1)]
    x = rng.randrange(sum(counts))
    length = max_len
    for i, c in enumerate(counts):
        if x < c:
            length = i + 1
            break
        x -= c
    alphabet = gens + gens.upper()
    out = [rng.choice(alphabet)]
    while len(out) < length:
        ch = rng.choice(alphabet)
        if ch == out[-1].swapcase():
            continue
        out.append(ch)
    return Word("".join(out), gens)


def _oracle_average_index_simulation(rank, radius, samples, seed):
    # the simulation before the letter stream: one Word per sample
    gens = string.ascii_lowercase[:rank]
    rng = random.Random(seed)
    total = used = excluded = 0
    for _ in range(samples):
        w = _oracle_random_reduced_word(rng, radius, gens)
        p = abelian_excluding_prime(w.letters, w.gens)
        if p is None:
            excluded += 1
        else:
            total += p
            used += 1
    if used == 0:
        raise ResFinError("every sample had zero abelianization")
    return SimulationResult(total / used, used, excluded)


def _outcome(simulation, *args):
    try:
        return simulation(*args)
    except ResFinError:
        return "raises"


@pytest.mark.parametrize("rank", [2, 3, 5, 26])
def test_average_index_simulation_against_oracle(rank):
    for radius, samples, seed in itertools.product([1, 2, 7, 20, 30], [1, 50, 1000], range(5)):
        args = (rank, radius, samples, seed)
        assert _outcome(average_index_simulation, *args) == _outcome(
            _oracle_average_index_simulation, *args
        ), args


@pytest.mark.parametrize("gens", ["ab", "abcd"])
def test_random_reduced_word_against_oracle(gens):
    for max_len, seed in itertools.product([1, 2, 3, 7, 20, 40], range(20)):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert random_reduced_word(rng, max_len, gens) == _oracle_random_reduced_word(
                oracle_rng, max_len, gens
            )
        assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("gens", ["ab", "abc", "abcdefghijklmnopqrstuvwxyz"])
def test_random_reduced_letters_are_reduced_in_the_alphabet_and_ball(gens):
    alphabet = set(gens + gens.upper())
    for max_len in (1, 2, 9, 30):
        stream = random_reduced_letters(random.Random(max_len), max_len, gens)
        for s in itertools.islice(stream, 300):
            assert free_reduce(s) == s
            assert set(s) <= alphabet
            assert 1 <= len(s) <= max_len


def test_average_index_simulation_raises_when_every_sample_is_excluded():
    # seed 3's one reduced word of length <= 4 over "ab" has zero abelianization
    assert abelian_excluding_prime(random_reduced_word(random.Random(3), 4).letters, "ab") is None
    for simulation in (average_index_simulation, _oracle_average_index_simulation):
        with pytest.raises(ResFinError, match="every sample"):
            simulation(2, 4, 1, 3)
