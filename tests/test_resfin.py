import itertools
import math
import random
import string
from collections import Counter
from fractions import Fraction

import pytest

from fig8.resfin import (
    PrimeWitness,
    SimulationResult,
    _byte_tables,
    average_index_simulation,
    excluding_prime,
    expected_min_prime,
    least_prime_not_dividing,
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
    with pytest.raises(ValueError, match="trivial word has no excluding prime"):
        smallest_excluding_prime(Word("aA"))


def test_excluding_prime_of_a_matrix():
    with pytest.raises(ValueError, match="trivial word has no excluding prime"):
        excluding_prime(Mat2.identity())
    rng = random.Random(12)
    words = [Word("a"), Word("abAB"), Word("aaa")]
    words += [random_reduced_word(rng, 30) for _ in range(200)]
    for w in words:
        assert excluding_prime(sanov_eval(w)) == smallest_excluding_prime(w)


def test_folded_prime_equals_the_exact_image_on_every_short_word():
    """All 13,120 reduced words of 1 to 8 letters: the witness folded from
    byte tables is the one the exact Sanov matrix gives."""
    count = 0
    for length in range(1, 9):
        for letters in itertools.product("abAB", repeat=length):
            w = Word("".join(letters))
            if len(w) == length:
                count += 1
                assert smallest_excluding_prime(w) == excluding_prime(sanov_eval(w)), w.letters
    assert count == 13120


def test_byte_tables_are_the_action_on_nonzero_vectors():
    for p in (3, 5, 7, 11, 13):
        tables = _byte_tables("ab", ("a", "b"), p)
        assert sorted(tables) == ["A", "B", "a", "b"]
        for table in tables.values():
            assert sorted(table) == list(range(256))  # a permutation
            assert table[p * p - 1 :] == bytes(range(p * p - 1, 256))
        # a sends (x, y) to (x, 2x + y): (1, 0), byte p - 1, to (1, 2), byte p + 1
        assert tables["a"][p - 1] == p + 1 and tables["A"][p + 1] == p - 1


def test_folded_prime_tells_minus_identity_from_identity():
    # (ab)^2 is -I mod 3
    assert smallest_excluding_prime(Word("abab")) == PrimeWitness(3, (2, 0, 0, 2))


def test_excluding_prime_past_the_folded_primes_is_exact():
    # a^k is I mod p iff p divides 2k; 15015 = 3 * 5 * 7 * 11 * 13
    assert smallest_excluding_prime(Word("a" * 15015)) == PrimeWitness(17, (1, 8, 0, 1))
    assert smallest_excluding_prime(Word("A" * 15015)) == PrimeWitness(17, (1, 9, 0, 1))
    with pytest.raises(ValueError, match="^trivial word has no excluding prime$"):
        smallest_excluding_prime(Word(""))
    with pytest.raises(ValueError, match="^trivial word has no excluding prime$"):
        smallest_excluding_prime(Word("", "abcd"), ("a", "b", "b", "a"))


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
    with pytest.raises(ValueError, match="need at least one term"):
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


def test_least_prime_not_dividing():
    assert [least_prime_not_dividing(n) for n in (1, -1, 2, 3, 6, -6, 12, 30, 210)] == [
        2, 2, 3, 2, 5, 5, 5, 7, 11,
    ]
    with pytest.raises(ValueError, match="every prime divides 0"):
        least_prime_not_dividing(0)


def test_average_index_simulation():
    result = average_index_simulation(2, 20, 2000, seed=4)
    assert result.mean < 3.0
    assert result.samples_used + result.excluded_zero_abelianization == 2000
    again = average_index_simulation(2, 20, 2000, seed=4)
    assert again == result  # deterministic for a fixed seed
    with pytest.raises(ValueError, match="rank must be between 2 and 26"):
        average_index_simulation(1, 20, 10, seed=0)
    # ranks above 26 would run out of generator letters
    average_index_simulation(26, 5, 10, seed=1)
    with pytest.raises(ValueError, match="rank must be between 2 and 26"):
        average_index_simulation(27, 5, 10, seed=1)


def _first_coordinate_tally(rank, radius):
    """Reduced words of length 1..radius over rank generators, counted by
    their first nonzero exponent sum (0 if all are 0): a layer-by-layer
    count over the states (last letter, exponent-sum vector)."""
    steps = [(g, sign) for g in range(rank) for sign in (1, -1)]  # letter k's inverse is k ^ 1
    layer = {(-1, (0,) * rank): 1}
    tally = Counter()
    for _ in range(radius):
        grown = Counter()
        for (last, sums), count in layer.items():
            for k, (g, sign) in enumerate(steps):
                if k != last ^ 1:
                    grown[k, sums[:g] + (sums[g] + sign,) + sums[g + 1 :]] += count
        layer = grown
        for (_, sums), count in layer.items():
            tally[next((x for x in sums if x), 0)] += count
    return tally


# the exact means over the ball, to six places
@pytest.mark.parametrize("rank, radius, exact", [(2, 20, 2.649467), (2, 30, 2.687531)])
def test_average_index_simulation_against_its_exact_expectation(rank, radius, exact):
    """The sample mean lies within 4 standard errors of the exact mean over
    the ball, and the excluded count within 4 binomial standard deviations
    of the exact zero-abelianization share."""
    tally = _first_coordinate_tally(rank, radius)
    zero = tally.pop(0)
    words = zero + sum(tally.values())
    assert words == 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)
    # every sum is at most 30 < 2 * 3 * 5 * 7 in size, so a prime <= 7 does not divide it
    index = {x: next(p for p in (2, 3, 5, 7) if x % p) for x in tally}
    used_words = words - zero
    mean = Fraction(sum(c * index[x] for x, c in tally.items()), used_words)
    second = Fraction(sum(c * index[x] ** 2 for x, c in tally.items()), used_words)
    assert abs(mean - Fraction(exact)) < 1e-6
    samples = 10_000
    result = average_index_simulation(rank, radius, samples, seed=2024)
    stderr = math.sqrt((second - mean * mean) / result.samples_used)
    assert abs(result.mean - mean) < 4 * stderr, (result.mean, float(mean), stderr)
    share = Fraction(zero, words)
    spread = math.sqrt(samples * share * (1 - share))
    assert abs(result.excluded_zero_abelianization - samples * share) < 4 * spread


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


def exponent_sums(letters: str, gens: str):
    """Exponent sum of each generator in ``letters``, lazily, in ``gens`` order."""
    for g in gens:
        yield letters.count(g) - letters.count(g.upper())


def test_exponent_sums():
    assert tuple(exponent_sums("aabAB", "ab")) == (1, 0)
    assert tuple(exponent_sums("ab", "ab")) == (1, 1)
    assert tuple(exponent_sums("ACbd", "abcd")) == (-1, 1, -1, 1)


def abelian_excluding_prime(letters: str, gens: str) -> int | None:
    """Least prime not dividing the first nonzero abelianization coordinate.

    None for words in the commutator subgroup (zero abelianization).
    """
    first = next((x for x in exponent_sums(letters, gens) if x), None)
    if first is None:
        return None
    return least_prime_not_dividing(first)


def test_abelian_excluding_prime():
    assert abelian_excluding_prime("a" * 6, "ab") == 5
    assert abelian_excluding_prime("a", "ab") == 2
    assert abelian_excluding_prime("abAB", "ab") is None  # commutator
    assert abelian_excluding_prime("abAbbbbb", "abc") == 5  # the sum of a is 0, of b 6
    assert abelian_excluding_prime("A" * 6, "ab") == 5  # a negative coordinate
    assert abelian_excluding_prime("a" * 30030, "ab") == 17  # 30030 = 2 * 3 * 5 * 7 * 11 * 13
    assert abelian_excluding_prime("aBBBBBBA", "ab") == 5  # the sum of a is 0, of b -6


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
        raise ValueError("every sample had zero abelianization")
    return SimulationResult(total / used, used, excluded)


def _outcome(simulation, *args):
    try:
        return simulation(*args)
    except ValueError as error:
        return "raises", str(error)


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
        with pytest.raises(ValueError, match="every sample"):
            simulation(2, 4, 1, 3)
