"""Reduced words over a symmetric alphabet.

A word is a string over lowercase generators and their uppercase inverses
(a <-> A, b <-> B, ...).  Words are freely reduced on construction and the
unreduced input is never retained.  ``evaluate`` sends a word into any
group through the images of its generators.  The random reduced words
draw each letter with ``getrandbits`` and look it up in the last letter's
transition row, built once per alphabet, making exactly the draws that
``rng.choice`` would, so a seed's samples are fixed.
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass

FREE_RANK2 = "ab"
GENUS2 = "abcd"


class WordError(ValueError):
    pass


# A letter followed by its inverse, the same letter in the other case.  The
# match holds only the first letter, so pairs may overlap ("aAa" has two).
_INVERSE_PAIR = re.compile(r"(.)(?=(?i:\1))(?!\1)")


def free_reduce(letters: str) -> str:
    """Freely reduce a string of ASCII letters, with x and X inverse.

    One regex pass cuts the input after every letter followed by its
    inverse, so each segment is already reduced, and an input with no cut
    is returned as it is.  A segment cancels letter by letter only against
    the tail of the output; the rest of it goes in with one slice.  The
    Python-level work is O(segments + cancelled letters), and linear in the
    worst case.  Defined on ASCII letters, all that ``Word`` admits; the
    result on other characters is unspecified.
    """
    cuts = [m.end() for m in _INVERSE_PAIR.finditer(letters)]
    if not cuts:
        return letters
    out: list[str] = []
    start = 0
    for end in cuts + [len(letters)]:
        while out and start < end and out[-1] == letters[start].swapcase():
            out.pop()
            start += 1
        out.extend(letters[start:end])
        start = end
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

    def __mul__(self, other: "Word") -> "Word":
        if other.gens != self.gens:
            raise WordError("cannot multiply words over different alphabets")
        return Word(self.letters + other.letters, self.gens)

    def inverse(self) -> "Word":
        return Word(inverse_letters(self.letters), self.gens)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.letters * n, self.gens)

    @property
    def is_trivial(self) -> bool:
        return not self.letters

    def cyclically_reduced(self) -> "Word":
        """The word with its end pairs x ... X stripped, in one slice.

        The i-th letter and the i-th from the end form such a pair iff the
        word and its inverse agree at i, so the pairs are the common prefix.
        """
        w = self.letters
        inverse = inverse_letters(w)
        i = 0
        while i < len(w) // 2 and w[i] == inverse[i]:
            i += 1
        return Word(w[i : len(w) - i], self.gens)

    def is_proper_power(self) -> bool:
        """True iff the word is u^k for some shorter u and k >= 2, that is,
        iff it equals one of its own nontrivial rotations.

        Valid as a group-theoretic test only for cyclically reduced words.
        """
        w = self.letters
        return len(w) > 1 and w in (w + w)[1:-1]


def inverse_letters(letters: str) -> str:
    """The letters of the inverse word, unreduced: reversed, each letter inverted."""
    return letters.swapcase()[::-1]


def letter_images(images: dict) -> dict:
    """Each letter's image: x's from ``images``, X's its ``inverse()``."""
    return {**images, **{g.upper(): x.inverse() for g, x in images.items()}}


def evaluate(word: Word, images: dict, identity):
    """Image of ``word`` under the homomorphism given by ``images``.

    ``images`` maps each lowercase generator to a group element; uppercase
    letters map to inverses.  Elements need only ``*`` and ``inverse()``, and
    ``identity`` is the image of the empty word.  Letters fold left to right.
    """
    missing = set(word.letters.lower()) - images.keys()
    if missing:
        raise WordError(f"generators {sorted(missing)} have no image")
    return math.prod(map(letter_images(images).__getitem__, word.letters), start=identity)


def random_reduced_letters(rng: random.Random, max_len: int, gens: str = FREE_RANK2):
    """Endless stream of uniform samples over the nonempty reduced words of
    length <= max_len, as letter strings that are reduced as they are built.

    Lengths are weighted by the number of reduced words of that length, so
    the distribution is uniform over the whole ball.  The ball of radius l
    holds r((r-1)^l - 1)/(r-2) words over r = 2 len(gens) letters, so a
    draw below the ball of radius max_len walks its length down without a
    table of the sizes.

    A letter is one ``rng.getrandbits(k)`` draw, k = r.bit_length(),
    looked up in the last letter's row of ``_transition_rows(gens)``, and
    redrawn while the row refuses it: while it is r or more or the inverse
    of the last letter.  ``rng.choice`` over the alphabet, redrawn on an
    inverse, makes exactly these draws, so each seed's samples and final
    state are as with it.  The rows are cached per alphabet, so a stream
    started per word does not rebuild them.
    """
    r = 2 * len(gens)

    def ball(l: int) -> int:
        return r * ((r - 1) ** l - 1) // (r - 2) if r > 2 else 2 * l

    size = ball(max(max_len, 0))  # no words below radius 1: randrange raises
    rows = _transition_rows(gens)
    k = r.bit_length()
    getrandbits = rng.getrandbits
    while True:
        x = rng.randrange(size)
        length = max_len
        while x < ball(length - 1):
            length -= 1
        out = []
        ch = ""
        for _ in range(length):
            row = rows[ch]
            ch = row[getrandbits(k)]
            while not ch:
                ch = row[getrandbits(k)]
            out.append(ch)
        yield "".join(out)


@functools.cache
def _transition_rows(gens: str) -> dict[str, tuple[str, ...]]:
    """The sampler's row after each letter over ``gens``, and under "" the
    first letter's row.  Entry j of a row is the letter that the k-bit draw
    j gives, or "" where the draw is refused: j >= r, or the inverse of the
    last letter."""
    alphabet = gens + gens.upper()
    pad = ("",) * ((1 << len(alphabet).bit_length()) - len(alphabet))
    rows = {"": tuple(alphabet) + pad}
    for last in alphabet:
        rows[last] = tuple("" if ch == last.swapcase() else ch for ch in alphabet) + pad
    return rows


def random_reduced_word(rng: random.Random, max_len: int, gens: str = FREE_RANK2) -> Word:
    """One sample of ``random_reduced_letters`` as a Word."""
    return Word(next(random_reduced_letters(rng, max_len, gens)), gens)
