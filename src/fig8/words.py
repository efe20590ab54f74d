"""Reduced words over a symmetric alphabet.

A word is a string over lowercase generators and their uppercase inverses
(a <-> A, b <-> B, ...).  Words are freely reduced on construction and the
unreduced input is never retained.  ``evaluate`` sends a word into any
group through the images of its generators.  The random reduced words
draw each letter with one ``getrandbits`` call that indexes a row of
(letter, next row) entries, built once per alphabet, making exactly the
draws that ``rng.choice`` would, so a seed's samples are fixed.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from dataclasses import dataclass

FREE_RANK2 = "ab"
GENUS2 = "abcd"


# In the XOR of a word's bytes with themselves shifted by one letter, a 0x20
# byte marks a letter that follows its inverse: the cut before it.
_CUT = re.compile(b"\x20")


def free_reduce(letters: str) -> str:
    """Freely reduce a string of ASCII letters, with x and X inverse.

    A letter and its inverse differ only in bit 0x20, so XORing the bytes
    of the input with themselves shifted by one letter marks every inverse
    pair with a 0x20 byte, and one bytes regex cuts the input before each
    pair's second letter.  Each segment is then already reduced, and an
    input with no cut is returned as it is.  The output is kept as
    [start, end) ranges of the input: a segment cancels letter by letter
    against the end of the last range, which only shrinks, and the ranges
    are joined once.  The Python-level work is O(segments + cancelled
    letters), linear in the worst case.  Defined on ASCII letters, all that
    ``Word`` admits; a non-ASCII character raises ValueError.
    """
    data = letters.encode("ascii")
    x = int.from_bytes(data, "big")
    pairs = (x ^ x >> 8).to_bytes(len(data), "big")
    if 0x20 not in pairs:
        return letters
    cuts = [m.start() for m in _CUT.finditer(pairs)]
    cuts.append(len(data))
    kept: list[list[int]] = []
    start = 0
    for end in cuts:
        while kept and start < end:
            last = kept[-1]
            if data[last[1] - 1] ^ data[start] != 0x20:
                break
            start += 1
            last[1] -= 1
            if last[1] == last[0]:
                kept.pop()
        if start < end:
            kept.append([start, end])
        start = end
    return "".join([letters[s:e] for s, e in kept])


@dataclass(frozen=True)
class Word:
    """A freely reduced word; ``gens`` lists the lowercase generators."""

    letters: str
    gens: str = FREE_RANK2

    def __post_init__(self):
        bad = self.letters.translate(str.maketrans("", "", self.gens + self.gens.upper()))
        if bad:
            raise ValueError(f"letters {sorted(set(bad))} not in alphabet over {self.gens!r}")
        object.__setattr__(self, "letters", free_reduce(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if other.gens != self.gens:
            raise ValueError("cannot multiply words over different alphabets")
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
    """Each letter's image: x's from ``images``, X's from ``images`` too if it
    is there, else x's ``inverse()``."""
    inverses = {g.upper(): x.inverse() for g, x in images.items() if g.upper() not in images}
    return {**images, **inverses}


def evaluate(word: Word, images: dict, identity, product=operator.mul):
    """Image of ``word`` under the homomorphism given by ``images``.

    ``images`` maps each lowercase generator to a group element; uppercase
    letters map to inverses, given or made by ``inverse()``.  Elements need
    only ``product``, by default ``*``, and ``identity`` is the image of the
    empty word.  Letters fold left to right, with no Python frame of their
    own when ``product`` is a C function.
    """
    missing = set(word.letters.lower()) - images.keys()
    if missing:
        raise ValueError(f"generators {sorted(missing)} have no image")
    return functools.reduce(product, map(letter_images(images).__getitem__, word.letters), identity)


def random_reduced_letters(rng: random.Random, max_len: int, gens: str = FREE_RANK2):
    """Endless stream of uniform samples over the nonempty reduced words of
    length <= max_len, as letter strings that are reduced as they are built.

    Lengths are weighted by the number of reduced words of that length, so
    the distribution is uniform over the whole ball.  A length is drawn as
    an index x below the ball of radius max_len, which holds
    r((r-1)^max_len - 1)/(r-2) words over r = 2 len(gens) letters, by the
    ``getrandbits`` loop of ``rng.randrange``; it walks down while x is
    below the next smaller ball.  The stream keeps the ball sizes it has
    compared with, each from the one above as (size - r)/(r - 1), so they
    reach only as deep as a draw has: about log_(r-1) of the sample count
    below max_len, and every radius for r = 2, where the sizes are 2l.

    A letter is one ``rng.getrandbits(k)`` draw, k = r.bit_length(), that
    indexes the last letter's row of ``_letter_rows(gens)``: each entry is
    the letter that draw gives and the row after it, or "" and the same
    row where the draw is refused, at r or more or on the inverse of the
    last letter.  ``rng.choice`` over the alphabet, redrawn on an inverse,
    makes exactly these draws, so each seed's samples and final state are
    as with it.  The rows are cached per alphabet, so a stream started per
    word does not rebuild them.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, not {max_len}")
    r = 2 * len(gens)
    size = r * ((r - 1) ** max_len - 1) // (r - 2) if r > 2 else 2 * max_len
    balls = [size]  # balls[i]: the ball of radius max_len - i
    n = size.bit_length()
    start = _letter_rows(gens)
    k = r.bit_length()
    getrandbits = rng.getrandbits
    while True:
        x = getrandbits(n)
        while x >= size:
            x = getrandbits(n)
        i = 1
        while True:
            if i == len(balls):
                balls.append((balls[-1] - r) // (r - 1))
            if x >= balls[i]:
                break
            i += 1
        out = []
        row = start
        for _ in range(max_len + 1 - i):
            ch, row = row[getrandbits(k)]
            while not ch:
                ch, row = row[getrandbits(k)]
            out.append(ch)
        yield "".join(out)


@functools.cache
def _letter_rows(gens: str) -> list:
    """The sampler's first row over ``gens``.  Entry j of a row is what the
    k-bit draw j gives after its letter: that letter and the row after it,
    or "" and the same row where the draw is refused, j >= r or the inverse
    of the row's letter.  The first row refuses only j >= r."""
    alphabet = gens + gens.upper()
    pad = (1 << len(alphabet).bit_length()) - len(alphabet)
    rows: dict[str, list] = {last: [] for last in ("", *alphabet)}
    for last, row in rows.items():
        row += [("", row) if ch == last.swapcase() else (ch, rows[ch]) for ch in alphabet]
        row += [("", row)] * pad
    return rows[""]


def random_reduced_word(rng: random.Random, max_len: int, gens: str = FREE_RANK2) -> Word:
    """One sample of ``random_reduced_letters`` as a Word."""
    return Word(next(random_reduced_letters(rng, max_len, gens)), gens)
