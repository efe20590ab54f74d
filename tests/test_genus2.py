import itertools
import random

import pytest

from fig8.genus2 import (
    _PIECES,
    _RETRACT,
    RELATOR,
    _twisted_letters,
    certify_nontrivial,
    dehn_oracle,
    rewrite_blocks,
)
from fig8.resfin import PrimeWitness, excluding_prime, sanov_eval, smallest_excluding_prime
from fig8.words import Word, inverse_letters, random_reduced_word
from oracles import _oracle_dehn_twist, _oracle_rewrite_blocks, relator_product, twisted_sanov_image


def W(letters):
    return Word(letters, "abcd")


def twist(w, m):
    """The Dehn twist phi^m as certify_nontrivial runs it, reduced."""
    return W(_twisted_letters(w.letters, m))


def test_retract_examples():
    assert "ac".translate(_RETRACT) == "xx"
    assert Word(RELATOR.translate(_RETRACT), "xy").is_trivial
    assert "abAB".translate(_RETRACT) == "xyXY"


def test_dehn_twist_examples():
    assert twist(W("a"), 5).letters == "a"
    assert twist(W("c"), 1).letters == "baBAcabAB"
    twisted = twist(W("cdCD"), 1)
    assert twisted.letters == "baBAcdCDabAB"
    assert len(twisted) <= 4 + 8 * 2


def test_dehn_twist_equals_per_letter_oracle():
    # run-level conjugation against conjugating each c, d letter on its own
    rng = random.Random(17)
    words = [random_reduced_word(rng, 40, "abcd") for _ in range(2000)]
    words += [W("cdCD" * k) for k in range(1, 9)]
    for w in words:
        for m in range(13):
            assert twist(w, m) == _oracle_dehn_twist(w, m), (w.letters, m)


def test_dehn_twist_additivity():
    rng = random.Random(3)
    for _ in range(100):
        w = random_reduced_word(rng, 12, "abcd")
        m1, m2 = rng.randrange(0, 3), rng.randrange(0, 3)
        assert twist(w, m1 + m2) == twist(twist(w, m1), m2)


def test_rewrite_blocks_examples():
    assert rewrite_blocks(W("cdCD")).letters == "abAB"
    assert rewrite_blocks(W("abAB")).letters == "abAB"
    assert rewrite_blocks(W("ac")).letters == "ac"
    assert rewrite_blocks(W("abABabAB")).letters == "abABabAB"
    assert rewrite_blocks(W("cdCDcdCD")).letters == "abABabAB"


def _block_power_word(rng):
    """A product of 1-6 pieces z1^(+-k) or z2^(+-k), k <= 3, each conjugated
    by a word of 0-3 letters."""
    pieces = []
    for _ in range(rng.randrange(1, 7)):
        z = rng.choice(("abAB", "baBA", "cdCD", "dcDC")) * rng.randrange(1, 4)
        g = "".join(rng.choices("abcdABCD", k=rng.randrange(4)))
        pieces.append(g + z + g.swapcase()[::-1])
    return W("".join(pieces))


def test_rewrite_blocks_equals_run_splitter_oracle():
    # regex split and letter swap against the per-letter runs and power test
    rng = random.Random(19)
    words = [random_reduced_word(rng, 40, "abcd") for _ in range(2000)]
    words += [_block_power_word(rng) for _ in range(6000)]
    for w in words:
        assert rewrite_blocks(w) == _oracle_rewrite_blocks(w), w.letters


def test_certify_examples():
    cert = certify_nontrivial(W("ac"))
    assert cert.nontrivial and not cert.witness.is_trivial
    assert cert.prime_witness.prime >= 3

    assert certify_nontrivial(W(RELATOR)).verdict == "TRIVIAL-CONSISTENT"

    cert = certify_nontrivial(W("abAB"))
    assert cert.nontrivial and cert.witness.letters == "xyXY"

    with pytest.raises(ValueError, match="expected a word over the genus-2 alphabet"):
        certify_nontrivial(Word("ab"))  # over the rank-2 alphabet, not a-d


def _free(u):
    """The free witness over x, y as a word over a, b."""
    return Word(u.letters.translate(str.maketrans("xyXY", "abAB")), "ab")


def _oracle_witness(w, m):
    """The per-letter oracle's twist of w, retracted (a, c -> a; b, d -> b)."""
    letters = _oracle_dehn_twist(w, m).letters
    return Word(letters.translate(str.maketrans("abcdABCD", "ababABAB")), "ab")


def test_twisted_sanov_image_is_the_twisted_witness_matrix():
    rng = random.Random(5)
    words = [W("ac"), W("abAB"), W("cdCD"), W("d")]
    words += [random_reduced_word(rng, 6, "abcd") for _ in range(20)]
    for w in words:
        for m in range(13):
            expected = sanov_eval(_oracle_witness(w, m))
            assert twisted_sanov_image(w, m) == expected, (w.letters, m)
    with pytest.raises(ValueError, match="twist power must be nonnegative"):
        twisted_sanov_image(W("c"), -1)  # the twist power is nonnegative


def test_certificate_reverifies_against_its_witness():
    rng = random.Random(9)
    words = [W("ac"), W("abAB")] + [random_reduced_word(rng, 40, "abcd") for _ in range(500)]
    for w in words:
        cert = certify_nontrivial(w)
        if not cert.nontrivial:
            continue
        free = _free(cert.witness)
        matrix = twisted_sanov_image(cert.rewritten, cert.twist_power)
        assert matrix == sanov_eval(free), w.letters
        assert cert.prime_witness == excluding_prime(sanov_eval(free)), w.letters
        assert cert.prime_witness == smallest_excluding_prime(free), w.letters
        assert free == _oracle_witness(cert.rewritten, cert.twist_power), w.letters


def test_folded_certificate_prime_equals_the_exact_twisted_image_path():
    """The certificate's prime, folded mod p from the rewritten word, is the
    one the exact twisted Sanov matrix gives, on seeded words of up to 40
    letters and on words heavy in c, d, whose twisted images are largest."""
    rng = random.Random(50)
    words = [random_reduced_word(rng, 40, "abcd") for _ in range(1500)]
    words += [W("".join(rng.choices("cdCD", k=rng.randrange(1, 60)))) for _ in range(300)]
    primes = set()
    for w in words:
        cert = certify_nontrivial(w)
        if cert.nontrivial:
            exact = twisted_sanov_image(cert.rewritten, cert.twist_power)
            assert cert.prime_witness == excluding_prime(exact), w.letters
            primes.add(cert.prime_witness.prime)
    assert primes == {3, 5, 7}


def test_certificate_past_the_folded_primes_is_exact():
    # a^k is I mod p iff p divides 2k; 15015 = 3 * 5 * 7 * 11 * 13
    cert = certify_nontrivial(W("a" * 15015))
    assert cert.nontrivial and cert.witness.letters == "x" * 15015
    assert cert.prime_witness == PrimeWitness(17, (1, 8, 0, 1))  # 30030 = 8 mod 17


def test_dehn_oracle_examples():
    assert dehn_oracle(W(RELATOR)) == "trivial"
    assert dehn_oracle(W("ac")) == "nontrivial"
    assert dehn_oracle(W("a" + RELATOR + "A")) == "trivial"
    assert dehn_oracle(W("")) == "trivial"


# The 16 cyclic conjugates of the relator and its inverse.
CONJUGATES = [base[i:] + base[:i] for base in (RELATOR, inverse_letters(RELATOR)) for i in range(8)]


def test_relator_conjugates_share_at_most_one_leading_letter():
    """A piece has one letter, under 8/7: the presentation is C'(1/7)."""
    assert len(set(CONJUGATES)) == 16
    for r, s in itertools.combinations(CONJUGATES, 2):
        assert r[:2] != s[:2], (r, s)


def test_each_piece_and_its_replacement_spell_a_relator_conjugate():
    assert sorted(key + inverse_letters(value) for key, value in _PIECES.items()) == sorted(CONJUGATES)
    assert all(len(key) == 5 for key in _PIECES)


def test_dehn_oracle_finds_inserted_relator_conjugates_trivial():
    """Each word inserts 3-6 relator conjugates at random places, starting
    from the empty word, so it is trivial however it reduces."""
    rng = random.Random(23)
    for _ in range(2000):
        letters = ""
        for _ in range(rng.randrange(3, 7)):
            i = rng.randrange(len(letters) + 1)
            letters = letters[:i] + rng.choice(CONJUGATES) + letters[i:]
        assert dehn_oracle(W(letters)) == "trivial", letters


def test_certify_matches_oracle_on_corpus_sample():
    rng = random.Random(8)
    for _ in range(500):
        w = random_reduced_word(rng, 40, "abcd")
        cert = certify_nontrivial(w)
        assert cert.nontrivial == (dehn_oracle(w) == "nontrivial"), w.letters


def test_dehn_oracle_answers_on_criterion_13_sample():
    # the 10^4 random words and 100 relator products of acceptance criterion 13
    rng = random.Random(0)
    words = [random_reduced_word(rng, 40, "abcd") for _ in range(10**4)]
    assert all(dehn_oracle(w) == "nontrivial" for w in words)
    for _ in range(100):
        assert dehn_oracle(W(relator_product(rng))) == "trivial"


def test_certify_conjugation_stability():
    rng = random.Random(21)
    for _ in range(200):
        w = random_reduced_word(rng, 20, "abcd")
        g = random_reduced_word(rng, 3, "abcd")
        conj = g * w * g.inverse()
        assert certify_nontrivial(w).nontrivial == certify_nontrivial(conj).nontrivial


def test_relator_products_are_trivial_consistent():
    rng = random.Random(14)
    for _ in range(50):
        w = W(relator_product(rng))
        assert certify_nontrivial(w).verdict == "TRIVIAL-CONSISTENT"
        assert dehn_oracle(w) == "trivial"


def test_centralizer_sanity():
    rng = random.Random(6)
    for _ in range(30):
        x = random_reduced_word(rng, 8, "abcd")
        k = rng.randrange(2, 5)
        comm = (x**k) * x * (x**k).inverse() * x.inverse()
        assert certify_nontrivial(comm).verdict == "TRIVIAL-CONSISTENT"


def test_length_bound_check():
    """The free witness of a word of length l has at most l^2 + l letters."""
    # the certificate witness of a very short word overshoots the bound;
    # the bound is honest only at corpus scale (see the acceptance suite)
    assert len(certify_nontrivial(W("ac")).witness) == 16 > 2**2 + 2
    rng = random.Random(77)
    for _ in range(50):
        w = random_reduced_word(rng, 40, "abcd")
        cert = certify_nontrivial(w)
        if cert.nontrivial and len(w) >= 30:
            assert len(cert.witness) <= len(w) ** 2 + len(w)
