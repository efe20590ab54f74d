"""Quantified residual finiteness of the rank-2 free group.

Words are separated in finite quotients SL(2, p) by their Sanov-pair image
modulo small primes; the least prime at which the image survives is the
excluding prime.  For p <= 13 the image is folded as a permutation of the
nonzero vectors of F_p^2, and only a word that survives none of them is
evaluated exactly.  The module also evaluates the expected-smallest-prime
series and runs the abelianized average-index simulation.  The LPS girth
bound is verified in :mod:`fig8.lps`.
"""

from __future__ import annotations

import functools
import itertools
import random
import string
from collections import Counter
from dataclasses import dataclass

from .sl2 import SANOV_A, SANOV_B, Mat2
from .words import Word, evaluate, letter_images, random_reduced_letters

SANOV_ASSIGNMENT = {"a": SANOV_A, "b": SANOV_B}


def primes():
    """Deterministic incremental prime sieve: 2, 3, 5, ...

    Trial division stops at the first known prime p with p * p > n.  The
    known primes always reach that far (Bertrand's postulate), so every odd
    n ends at one of the two breaks.
    """
    yield 2
    known = [2]
    for n in itertools.count(3, 2):
        for p in known:
            if n % p == 0:
                break
            if p * p > n:
                known.append(n)
                yield n
                break


def sanov_eval(w: Word) -> Mat2:
    """Exact image of w under a -> [[1,2],[0,1]], b -> [[1,0],[2,1]].

    The Sanov pair generates a free group, so the image is the identity iff
    w freely reduces to the empty word.
    """
    return evaluate(w, SANOV_ASSIGNMENT, Mat2.identity())


@dataclass(frozen=True)
class PrimeWitness:
    prime: int
    image: tuple[int, int, int, int]  # residues mod prime, not the identity


def smallest_excluding_prime(
    w: Word, images: tuple[Mat2, ...] = (SANOV_A, SANOV_B)
) -> PrimeWitness:
    """Least prime p at which the image of w is not the identity mod p.

    The image sends the generators of w, in order, to ``images``: the Sanov
    pair, or matrices that are each I mod 2 as it is, so p >= 3.  For p <= 13
    the image mod p is folded from the letters' byte tables (``_byte_tables``),
    one ``bytes.translate`` per letter, and its residues are read back from
    the images of (1, 0) and (0, 1), so -I is told apart from I.  A word whose
    image is I mod 3, 5, 7, 11 and 13, such as a^15015, is evaluated exactly.
    """
    for p in (3, 5, 7, 11, 13):
        tables = _byte_tables(w.gens, images, p)
        moved = evaluate(w, tables, bytes(range(p * p - 1)), bytes.translate)
        residues = (*divmod(moved[p - 1] + 1, p), *divmod(moved[0] + 1, p))
        if residues != (1, 0, 0, 1):
            return PrimeWitness(p, residues)
    return excluding_prime(evaluate(w, dict(zip(w.gens, images)), Mat2.identity()))


@functools.cache
def _byte_tables(gens: str, images: tuple[Mat2, ...], p: int) -> dict[str, bytes]:
    """Each letter's image mod p as a ``bytes.translate`` table: the right
    action v -> vM on the p^2 - 1 <= 255 nonzero row vectors v = (x, y) of
    F_p^2, numbered x p + y - 1, and the identity on the bytes above them.
    Built at first use per images and prime."""
    vectors = [divmod(n, p) for n in range(1, p * p)]
    return {
        letter: bytes([(x * a + y * c) % p * p + (x * b + y * d) % p - 1 for x, y in vectors])
        + bytes(range(p * p - 1, 256))
        for letter, (a, b, c, d) in letter_images(dict(zip(gens, images))).items()
    }


def excluding_prime(matrix: Mat2) -> PrimeWitness:
    """Least prime p at which ``matrix`` is not the identity mod p.

    ``matrix`` is the Sanov image of a word, however it was computed.
    Always p >= 3: both Sanov generators reduce to the identity mod 2.
    """
    if matrix.is_identity:
        raise ValueError("trivial word has no excluding prime")
    for p in primes():
        residues = matrix.reduce_mod(p)
        if residues != (1, 0, 0, 1):
            return PrimeWitness(p, residues)
    raise AssertionError("unreachable: a nonidentity integer matrix survives some prime")


def expected_min_prime(terms: int) -> float:
    """Partial sum of E(p) = sum_p p (1 - 1/p) / prod_{q<p} q, exactly in rationals.

    The expected smallest prime not dividing a uniformly random integer;
    converges rapidly to 2.920051...  The sum is kept as one integer
    numerator over the primorial, so no term needs a gcd; integer true
    division rounds the exact quotient correctly.  From p >= 5 on, each
    term is under half the one before (term_{i+1} / term_i < 2 / (p_i - 1)
    by Bertrand's postulate), so the tail lies below the last term added.
    Once adding that term again leaves the rounded sum unchanged, no later
    partial sum rounds differently (rounding is monotone), and the loop stops.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    num = 0  # the partial sum is num / primorial
    primorial = 1  # product of the primes so far
    for p in itertools.islice(primes(), terms):
        num = (num + p - 1) * p
        primorial *= p
        if p >= 5 and num / primorial == (num + (p - 1) * p) / primorial:
            break
    return num / primorial


def least_prime_not_dividing(n: int) -> int:
    """Least prime that does not divide the nonzero integer n."""
    if n == 0:
        raise ValueError("every prime divides 0")
    return next(p for p in primes() if n % p)


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    samples_used: int
    excluded_zero_abelianization: int


def average_index_simulation(
    rank: int, radius: int, samples: int, seed: int
) -> SimulationResult:
    """Sample mean of the abelianized excluding prime over random reduced words.

    Words are uniform over the ball of reduced words of length <= radius;
    words with zero abelianization are excluded from the mean and counted
    separately.  Deterministic for a fixed seed.  The samples are tallied
    by their first nonzero exponent sum, so the least prime not dividing it
    is found once per distinct value.
    """
    if not 2 <= rank <= len(string.ascii_lowercase):
        raise ValueError(f"rank must be between 2 and {len(string.ascii_lowercase)}")
    if radius < 1 or samples < 1:
        raise ValueError("radius and sample count must be positive")
    gens = string.ascii_lowercase[:rank]
    stream = random_reduced_letters(random.Random(seed), radius, gens)
    inverses = [(g, g.upper()) for g in gens]
    firsts: Counter[int] = Counter()  # first nonzero coordinate -> samples, 0 if none
    for letters in itertools.islice(stream, samples):
        for g, inverse in inverses:
            first = letters.count(g) - letters.count(inverse)
            if first:
                break
        firsts[first] += 1
    excluded = firsts.pop(0, 0)
    used = samples - excluded
    if used == 0:
        raise ValueError("every sample had zero abelianization")
    total = sum(count * least_prime_not_dividing(x) for x, count in firsts.items())
    return SimulationResult(total / used, used, excluded)
