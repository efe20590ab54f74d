"""Brute-force oracles and corpus helpers shared by the tests.

``all_permutations`` runs over S_n through ``itertools.permutations``, which
yields images in lexicographic order.  The ``_oracle_*`` functions are the
earlier implementations that faster code replaced (the class scans behind
``perms.class_elements``, the per-letter free reduction and Dehn twist, the
rational expected-prime sum), kept as they were so that the tests can
require equal output, order included.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from fig8.genus2 import RELATOR
from fig8.perms import Partition, PermError, Permutation, class_representative
from fig8.words import Word


def all_permutations(n: int):
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


@lru_cache(maxsize=None)
def _oracle_class_elements(p: Partition) -> tuple[Permutation, ...]:
    """All permutations of cycle type p, in lexicographic order of images.

    Generated, not filtered from all n! permutations: the least unused point
    opens a cycle of each distinct remaining length, its other points an
    ordered choice of unused points.  Cached; intended for small n.
    """
    images = list(range(p.n))

    def build(unused, lengths):
        if not unused:
            yield tuple(images)
            return
        first, rest = unused[0], unused[1:]
        for d in set(lengths):
            left = list(lengths)
            left.remove(d)
            for others in itertools.permutations(rest, d - 1):
                cycle = (first, *others)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a] = b
                yield from build([u for u in rest if u not in others], left)

    return tuple(map(Permutation, sorted(build(list(range(p.n)), p.parts))))


def _oracle_two_n_cycles(sigma: Permutation) -> tuple[Permutation, Permutation]:
    """The first n-cycle c1, by images, for which c1^-1 * sigma is an n-cycle."""
    n = sigma.degree
    full = Partition((n,))
    for c1 in _oracle_class_elements(full):
        c2 = c1.inverse() * sigma
        if c2.cycle_type() == full:
            if (c1 * c2) != sigma:
                raise PermError("two_n_cycles composition check failed")
            return (c1, c2)
    raise PermError(f"no two-n-cycle factorization found for {sigma}")


def _oracle_identity_product_tuples(classes: tuple[Partition, ...]):
    """Boundary image tuples with product e, in product order: the first image
    is the class representative, the middle ones run over the product of
    their classes, and the last is forced."""
    first = class_representative(classes[0])
    if len(classes) == 1:
        if first == Permutation.identity(first.degree):
            yield (first,)
        return
    for middle in itertools.product(*map(_oracle_class_elements, classes[1:-1])):
        forced = math.prod(middle, start=first).inverse()
        if forced.cycle_type() == classes[-1]:
            yield (first, *middle, forced)


def _oracle_free_reduce(letters: str) -> str:
    """Free reduction one letter at a time against the tail of the output."""
    out: list[str] = []
    for ch in letters:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _oracle_dehn_twist(w: Word, power: int) -> Word:
    """phi^power on a genus-2 word, each c, d letter conjugated by
    z^power = [a,b]^power on its own."""
    zm = "abAB" * power
    zmi = "baBA" * power
    return Word("".join((zmi + ch + zm) if ch in "cdCD" else ch for ch in w.letters), "abcd")


def _oracle_expected_min_prime(terms: int) -> list[float]:
    """The expected-prime partial sums over the first 1, 2, ..., ``terms``
    primes, in ``Fraction`` arithmetic, with primes by trial division."""
    found: list[int] = []
    n = 2
    while len(found) < terms:
        if all(n % p for p in found):
            found.append(n)
        n += 1
    sums = []
    total = Fraction(0)
    primorial = 1
    for p in found:
        total += Fraction(p - 1, primorial)
        primorial *= p
        sums.append(float(total))
    return sums


def relator_product(rng) -> str:
    """A product of 1-3 conjugates of the genus-2 relator or its inverse."""
    letters = "abcdABCD"
    inv = str.maketrans(letters, "ABCDabcd")
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        g = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
        base = RELATOR if rng.random() < 0.5 else RELATOR.translate(inv)[::-1]
        pieces.append(g + base + g.translate(inv)[::-1])
    return "".join(pieces)
