"""Reduced words over a symmetric alphabet.

A word is a string over lowercase generators and their uppercase inverses
(a <-> A, b <-> B, ...).  Words are freely reduced on construction and the
unreduced input is never retained.  ``evaluate`` sends a word into any
group through the images of its generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

FREE_RANK2 = "ab"
GENUS2 = "abcd"


class WordError(ValueError):
    pass


def free_reduce(letters: str) -> str:
    out: list[str] = []
    for ch in letters:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; ``gens`` lists the lowercase generators."""

    letters: str
    gens: str = FREE_RANK2

    def __post_init__(self):
        allowed = set(self.gens) | set(self.gens.upper())
        bad = set(self.letters) - allowed
        if bad:
            raise WordError(f"letters {sorted(bad)} not in alphabet over {self.gens!r}")
        object.__setattr__(self, "letters", free_reduce(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def __mul__(self, other: "Word") -> "Word":
        if other.gens != self.gens:
            raise WordError("cannot multiply words over different alphabets")
        return Word(self.letters + other.letters, self.gens)

    def inverse(self) -> "Word":
        return Word(self.letters.swapcase()[::-1], self.gens)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n, self.gens)

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def cyclically_reduced(self) -> "Word":
        w = self.letters
        while len(w) > 1 and w[0] == w[-1].swapcase():
            w = w[1:-1]
        return Word(w, self.gens)

    def is_cyclically_reduced(self) -> bool:
        w = self.letters
        return len(w) < 2 or w[0] != w[-1].swapcase()

    def is_proper_power(self) -> bool:
        """True iff the word is u^k for some shorter u and k >= 2.

        Valid as a group-theoretic test only for cyclically reduced words.
        """
        w = self.letters
        n = len(w)
        for d in range(1, n // 2 + 1):
            if n % d == 0 and w == w[:d] * (n // d):
                return True
        return False

    def exponent_sums(self) -> tuple[int, ...]:
        """Abelianization: one exponent sum per generator, in ``gens`` order."""
        return tuple(
            self.letters.count(g) - self.letters.count(g.upper()) for g in self.gens
        )


def evaluate(word: Word, images: dict, identity):
    """Image of ``word`` under the homomorphism given by ``images``.

    ``images`` maps each lowercase generator to a group element; uppercase
    letters map to inverses.  Elements need only ``*`` and ``inverse()``, and
    ``identity`` is the image of the empty word.  Letters fold left to right.
    """
    missing = set(word.letters.lower()) - images.keys()
    if missing:
        raise WordError(f"generators {sorted(missing)} have no image")
    table = {**images, **{g.upper(): x.inverse() for g, x in images.items()}}
    return math.prod(map(table.__getitem__, word.letters), start=identity)


def random_reduced_word(rng: random.Random, max_len: int, gens: str = FREE_RANK2) -> Word:
    """Uniform sample over the nonempty reduced words of length <= max_len.

    Lengths are weighted by the number of reduced words of that length,
    so the distribution is uniform over the whole ball.
    """
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
