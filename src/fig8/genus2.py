"""Nontriviality certificates in the genus-2 surface group.

The group is presented as <a,b,c,d | [a,b] = [c,d]>.  A word is certified
nontrivial by rewriting commutator blocks, applying a power of the Dehn
twist that conjugates c, d by z = [a,b], retracting to the free group
(a,c -> x; b,d -> y), and checking that the free image survives; that free
word is the witness, and its excluding prime completes the certificate.
That prime is not found from the witness's letters: the twist, the
retraction and the Sanov map compose to one homomorphism on the rewritten
word's own letters, with c, d sent to twisted images (``_twisted_cd_images``),
and ``smallest_excluding_prime`` folds the rewritten word's image mod p.
The tests check the twist against a per-letter one, and the certificate
against an independent Dehn oracle that replaces five-letter relator pieces.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .resfin import PrimeWitness, sanov_eval, smallest_excluding_prime
from .sl2 import SANOV_A, SANOV_B, Mat2
from .words import GENUS2, Word, free_reduce, inverse_letters

Z1 = "abAB"
RELATOR = "abABdcDC"  # [a,b][c,d]^{-1}

_RETRACT = str.maketrans("abcdABCD", "xyxyXYXY")  # a, c -> x and b, d -> y
_CD_RUN = re.compile("([cdCD]+)")
# A maximal a, b run that is a power of z1 = [a,b], or c, d run a power of z2 = [c,d]
_POWER_BLOCK = re.compile(
    "(?<![abAB])(?:(?:abAB)+|(?:baBA)+)(?![abAB])|(?<![cdCD])(?:(?:cdCD)+|(?:dcDC)+)(?![cdCD])"
)
_SWAP = str.maketrans("abcdABCD", "cdabCDAB")


def _check(w: Word) -> Word:
    if w.gens != GENUS2:
        raise ValueError("expected a word over the genus-2 alphabet a-d")
    return w


def _twisted_letters(letters: str, power: int) -> str:
    """phi^power on letters, unreduced: phi fixes a, b and conjugates c, d by
    z = [a,b] (u^z = z^-1 u z), here a whole c, d run at once: the same element.
    The split puts the c, d runs at the odd places, between the a, b runs."""
    zm, zmi = Z1 * power, inverse_letters(Z1) * power
    parts = _CD_RUN.split(letters)
    parts[1::2] = [zmi + run + zm for run in parts[1::2]]
    return "".join(parts)


def rewrite_blocks(w: Word) -> Word:
    """The rewriting pass: swap commutator-power blocks between alphabets.

    A block is a maximal run of a, b letters (L) or of c, d letters (R).
    On an L-block equal to z1^p, that is (abAB)^p or (baBA)^p, the swap to
    the same element z2^p is the letter substitution a <-> c, b <-> d, and
    the reverse swap is the same substitution.  The first block that is such
    a power, found by one regex search whose lookarounds hold it to a whole
    block, is swapped and the word reduced, until none is left; a lone
    L-block is never swapped, so a power of z1 is left as it is.  A swapped
    block merges with its neighbours, so the block count strictly decreases.
    """
    letters = _check(w).letters
    while True:
        block = _POWER_BLOCK.search(letters)
        if block is None or block.span() == (0, len(letters)) and letters[0] in "abAB":
            return Word(letters, GENUS2)
        start, end = block.span()
        letters = free_reduce(letters[:start] + block.group().translate(_SWAP) + letters[end:])


@dataclass(frozen=True)
class Certificate:
    verdict: str  # "NONTRIVIAL" | "TRIVIAL-CONSISTENT"
    rewritten: Word
    twist_power: int
    witness: Word | None  # free word over x, y
    prime_witness: PrimeWitness | None

    @property
    def nontrivial(self) -> bool:
        return self.verdict == "NONTRIVIAL"


# Sanov image of z = [a, b], which the retraction fixes as [x, y].
_Z = sanov_eval(Word(Z1))


@functools.cache
def _twisted_cd_images(power: int) -> tuple[Mat2, Mat2]:
    """The Sanov images of c and d twisted by phi^power and retracted: their
    conjugates Z^-power SANOV_A Z^power and Z^-power SANOV_B Z^power, with Z
    the image of z.  Built once per twist power: a word of at most 40
    letters uses powers <= 11."""
    zm = math.prod((_Z,) * power, start=Mat2.identity())
    zmi = zm.inverse()
    return zmi * SANOV_A * zm, zmi * SANOV_B * zm


def certify_nontrivial(w: Word) -> Certificate:
    """Certify nontriviality via rewrite -> twist -> retract.

    The twist power m = ceil(|w0|/4) + 1 satisfies the sufficiency
    condition 4(m-1) >= |w0| for the rewritten word w0.  A nonempty free
    image u is a proof of nontriviality; an empty image is only consistent
    with triviality (and is corpus-validated against the Dehn oracle).
    The excluding prime of u is folded from the |w0| letters of w0, with
    c, d sent to their twisted images, not from the letters of u, whose
    number grows quadratically in |w0|: free reduction does not change an
    image.
    """
    _check(w)
    if w.is_trivial:
        return Certificate("TRIVIAL-CONSISTENT", w, 0, None, None)
    w0 = rewrite_blocks(w)
    m = -(-len(w0) // 4) + 1
    # the twist of w0 retracted with one free reduction: the retraction
    # sends inverse letters to inverse letters, so it commutes with reduction
    u = Word(_twisted_letters(w0.letters, m).translate(_RETRACT), "xy")
    if u.is_trivial:
        return Certificate("TRIVIAL-CONSISTENT", w0, m, None, None)
    prime_witness = smallest_excluding_prime(w0, (SANOV_A, SANOV_B, *_twisted_cd_images(m)))
    return Certificate("NONTRIVIAL", w0, m, u, prime_witness)


# Each cyclic conjugate of RELATOR^{+-1}: first five letters -> inverse of the last three.
_PIECES = {
    r[:5]: inverse_letters(r[5:])
    for base in (RELATOR, inverse_letters(RELATOR))
    for r in (base[i:] + base[:i] for i in range(len(base)))
}
_PIECE = re.compile("|".join(_PIECES))


def dehn_oracle(w: Word) -> str:
    """Exact word-problem decision by Dehn's algorithm: "trivial"/"nontrivial".

    Two distinct cyclic conjugates of the relator and its inverse share at
    most one leading letter, so the presentation is C'(1/7), and by
    Greendlinger's lemma every nonempty trivial cyclically reduced word
    holds five consecutive letters of one of them.  Each step replaces the
    leftmost such piece of the cyclic word by the inverse of that
    conjugate's other three letters and cyclically reduces, so the word
    shortens; it empties iff w is trivial.
    """
    letters = _check(w).cyclically_reduced().letters
    # a piece may wrap round the end of the cyclic word, never past its start
    while piece := _PIECE.search(letters + letters):
        rest = piece.string[piece.end() : piece.start() + len(letters)]
        letters = Word(_PIECES[piece.group()] + rest, GENUS2).cyclically_reduced().letters
    return "nontrivial" if letters else "trivial"
