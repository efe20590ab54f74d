"""Nontriviality certificates in the genus-2 surface group.

The group is presented as <a,b,c,d | [a,b] = [c,d]>.  A word is certified
nontrivial by rewriting commutator blocks, applying a power of the Dehn
twist that conjugates c, d by z = [a,b], retracting to the free group
(a,c -> x; b,d -> y), and checking that the free image survives; that free
word is the witness, and its excluding prime completes the certificate.
The witness's Sanov matrix is not evaluated letter by letter: the twist,
the retraction and the Sanov map compose to one homomorphism on the
rewritten word's own letters, which ``twisted_sanov_image`` evaluates.  An
independent Dehn small-cancellation oracle over the symmetrized relator
validates the certificate at corpus scale.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .resfin import PrimeWitness, excluding_prime, sanov_eval
from .sl2 import SANOV_A, SANOV_B, Mat2
from .words import GENUS2, Word, evaluate, free_reduce, inverse_letters

Z1 = "abAB"
RELATOR = "abABdcDC"  # [a,b][c,d]^{-1}

_RETRACT = str.maketrans("abcdABCD", "xyxyXYXY")
_CD_RUN = re.compile("[cdCD]+")
_BLOCK = re.compile("[abAB]+|[cdCD]+")
_Z_POWER = re.compile("(?:abAB)+|(?:baBA)+|(?:cdCD)+|(?:dcDC)+")
_SWAP = str.maketrans("abcdABCD", "cdabCDAB")


class Genus2Error(ValueError):
    pass


def _check(w: Word) -> Word:
    if w.gens != GENUS2:
        raise Genus2Error("expected a word over the genus-2 alphabet a-d")
    return w


def retract(w: Word) -> Word:
    """The retraction r: a,c -> x and b,d -> y; a homomorphism to F(x, y)."""
    return Word(_check(w).letters.translate(_RETRACT), "xy")


def _twisted_letters(letters: str, power: int) -> str:
    """phi^power on letters, unreduced: each c, d run conjugated by z^power."""
    zm, zmi = Z1 * power, inverse_letters(Z1) * power
    return _CD_RUN.sub(lambda run: zmi + run.group() + zm, letters)


def dehn_twist(w: Word, power: int) -> Word:
    """phi^power with phi fixing a, b and conjugating c, d by z = [a,b].

    Conjugation convention u^z = z^-1 u z.  Each maximal run of c, d
    letters is conjugated once: that is the same element as conjugating
    each of its letters, so the reduced word is the same too.
    """
    if power < 0:
        raise Genus2Error("twist power must be nonnegative")
    return Word(_twisted_letters(_check(w).letters, power), GENUS2)


def rewrite_blocks(w: Word) -> Word:
    """The rewriting pass: swap commutator-power blocks between alphabets.

    A block is a maximal run of a, b letters (L) or of c, d letters (R).
    On an L-block equal to z1^p, that is (abAB)^p or (baBA)^p, the swap to
    the same element z2^p is the letter substitution a <-> c, b <-> d, and
    the reverse swap is the same substitution.  The first block that is such
    a power is swapped and the word reduced, until none is left; a lone
    L-block is never swapped, so a power of z1 is left as it is.  A swapped
    block merges with its neighbours, so the block count strictly decreases.
    """
    letters = _check(w).letters
    while True:
        blocks = _BLOCK.findall(letters)
        for i, block in enumerate(blocks):
            if _Z_POWER.fullmatch(block) and (len(blocks) > 1 or block[0] in "cdCD"):
                blocks[i] = block.translate(_SWAP)
                letters = free_reduce("".join(blocks))
                break
        else:
            return Word(letters, GENUS2)


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


def twisted_sanov_image(w: Word, power: int) -> Mat2:
    """Sanov image of retract(dehn_twist(w, power)), without building that word.

    Twist, retraction and the Sanov map x, y -> SANOV_A, SANOV_B compose to
    one homomorphism: a, b go to SANOV_A, SANOV_B and c, d to their
    conjugates Z^-power SANOV_A Z^power and Z^-power SANOV_B Z^power, with
    Z the image of z.  Free reduction does not change an image, so this is
    the matrix of the twisted free word, at one product per letter of w.
    """
    if power < 0:
        raise Genus2Error("twist power must be nonnegative")
    zm = math.prod((_Z,) * power, start=Mat2.identity())
    zmi = zm.inverse()
    images = {"a": SANOV_A, "b": SANOV_B, "c": zmi * SANOV_A * zm, "d": zmi * SANOV_B * zm}
    return evaluate(_check(w), images, Mat2.identity())


def certify_nontrivial(w: Word) -> Certificate:
    """Certify nontriviality via rewrite -> twist -> retract.

    The twist power m = ceil(|w0|/4) + 1 satisfies the sufficiency
    condition 4(m-1) >= |w0| for the rewritten word w0.  A nonempty free
    image u is a proof of nontriviality; an empty image is only consistent
    with triviality (and is corpus-validated against the Dehn oracle).
    The excluding prime comes from u's Sanov matrix, which
    ``twisted_sanov_image`` computes from the |w0| letters of w0, not from
    the letters of u, whose number grows quadratically in |w0|.
    """
    _check(w)
    if w.is_trivial:
        return Certificate("TRIVIAL-CONSISTENT", w, 0, None, None)
    w0 = rewrite_blocks(w)
    m = -(-len(w0) // 4) + 1
    # retract(dehn_twist(w0, m)) with one free reduction: the retraction
    # sends inverse letters to inverse letters, so it commutes with reduction
    u = Word(_twisted_letters(w0.letters, m).translate(_RETRACT), "xy")
    if u.is_trivial:
        return Certificate("TRIVIAL-CONSISTENT", w0, m, None, None)
    prime_witness = excluding_prime(twisted_sanov_image(w0, m))
    return Certificate("NONTRIVIAL", w0, m, u, prime_witness)


# The 16 cyclic conjugates of the relator and its inverse, in a fixed order.
_SYMMETRIZED = tuple(
    base[i:] + base[:i] for base in (RELATOR, inverse_letters(RELATOR)) for i in range(len(base))
)


def dehn_oracle(w: Word) -> str:
    """Exact word-problem decision by Dehn's algorithm: "trivial"/"nontrivial".

    The genus-2 relator presentation is C'(1/6)-like enough for greedy
    shortening: any cyclic subword longer than half of a symmetrized
    relator conjugate is replaced by the inverse of its complement until no
    rule applies; the empty word is reached iff w is trivial.
    """
    _check(w)
    letters = w.cyclically_reduced().letters
    while letters:
        letters = _dehn_step(letters)
        if letters is None:
            return "nontrivial"
    return "trivial"


def _dehn_step(letters: str) -> str | None:
    """The first shorter cyclic word that one replacement gives, or None."""
    n = len(letters)
    doubled = letters + letters
    for rel in _SYMMETRIZED:
        for cut in range(min(len(rel), n), len(rel) // 2, -1):
            piece, rest = rel[:cut], rel[cut:]
            idx = doubled.find(piece)
            while idx != -1 and idx < n:
                candidate = Word(doubled[idx + cut : idx + n] + inverse_letters(rest), GENUS2)
                candidate = candidate.cyclically_reduced().letters
                if len(candidate) < n:
                    return candidate
                idx = doubled.find(piece, idx + 1)
    return None
