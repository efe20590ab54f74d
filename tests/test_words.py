import random
import string
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fig8.genus2 import _RETRACT, _twisted_letters, rewrite_blocks
from fig8.magnus import MagnusSeries, magnus_expand
from fig8.perms import Permutation
from fig8.selfint import TORUS_X, TORUS_Y
from fig8.sl2 import SANOV_A, SANOV_B, Mat2
from fig8.words import (
    Word,
    evaluate,
    free_reduce,
    letter_images,
    random_reduced_letters,
    random_reduced_word,
)
from oracles import _oracle_free_reduce, _oracle_random_reduced_letters

BACKENDS = {
    "sanov": ({"a": SANOV_A, "b": SANOV_B}, Mat2.identity()),
    "modular torus": ({"a": TORUS_X, "b": TORUS_Y}, Mat2.identity()),
    "S5": (
        {"a": Permutation.parse("(1 2 3 4 5)", 5), "b": Permutation.parse("(1 2)(3 5)", 5)},
        Permutation.identity(5),
    ),
    "magnus depth 4": (
        {g: magnus_expand(Word(g), 4) for g in "abAB"},
        MagnusSeries.one(4),
    ),
}


def test_free_reduce():
    assert free_reduce("abBA") == ""
    assert free_reduce("aAbB") == ""
    assert free_reduce("abAB") == "abAB"
    assert free_reduce("aabAA") == "aabAA"
    assert free_reduce("abBc") == "ac"  # pure string operation, any letters
    assert free_reduce("") == ""
    for letters in ("a\u00e9", "\u00e9", "aA\u00e9"):
        with pytest.raises(ValueError):  # defined on ASCII letters only
            free_reduce(letters)


def _inv(letters):
    return letters.swapcase()[::-1]


@settings(derandomize=True, database=None, max_examples=500)
@given(st.text(alphabet="abcdxyABCDXY", max_size=80))
def test_free_reduce_equals_per_letter_oracle(letters):
    assert free_reduce(letters) == _oracle_free_reduce(letters)


@settings(derandomize=True, database=None, max_examples=500)
@given(
    st.text(alphabet=string.ascii_letters, max_size=40),
    st.text(alphabet=string.ascii_letters, max_size=40),
)
def test_free_reduce_equals_oracle_on_cancelling_products(u, v):
    assert free_reduce(u + _inv(u)) == ""
    for letters in (u, u + v, u + _inv(u), u + v + _inv(u), u + v + _inv(v) + _inv(u)):
        assert free_reduce(letters) == _oracle_free_reduce(letters)


def test_free_reduce_equals_oracle_on_certify_witness_letters():
    # the retracted twist of a rewritten genus-2 word: about 1,000 letters that
    # cancel only at the junctions of its runs, far beyond the strategies above
    rng = random.Random(43)
    for _ in range(2000):
        w0 = rewrite_blocks(random_reduced_word(rng, 40, "abcd"))
        letters = _twisted_letters(w0.letters, -(-len(w0) // 4) + 1).translate(_RETRACT)
        assert free_reduce(letters) == _oracle_free_reduce(letters), w0.letters


N = 10**5


@pytest.mark.parametrize(
    "letters",
    ["a" * N + "AbB" * N, "aA" * N, "ab" * N + "BA" * N],
    ids=["long-segment-then-short-cancels", "all-cancel-pairwise", "cancel-from-middle"],
)
def test_free_reduce_is_linear_time(letters):
    # the first input is quadratic for any kernel that re-slices a long segment
    t0 = time.perf_counter()
    reduced = free_reduce(letters)
    elapsed = time.perf_counter() - t0
    assert reduced == "" and elapsed < 1.0, elapsed


def test_word_reduces_on_construction():
    assert Word("abBA").letters == ""
    assert Word("aabBb").letters == "aab"


def test_alphabet_validation():
    with pytest.raises(ValueError, match="not in alphabet"):
        Word("axe")
    Word("ac", "abcd")  # fine over the genus-2 alphabet
    # checked before free_reduce sees the letters, so a non-ASCII one raises the alphabet message too
    with pytest.raises(ValueError, match="not in alphabet") as err:
        Word("a\u00e9")
    assert str(err.value) == "letters ['\u00e9'] not in alphabet over 'ab'"
    with pytest.raises(ValueError, match="not in alphabet") as err:
        Word("abx", "ab")
    assert str(err.value) == "letters ['x'] not in alphabet over 'ab'"
    with pytest.raises(ValueError, match="not in alphabet") as err:
        Word("xaYxA")
    assert str(err.value) == "letters ['Y', 'x'] not in alphabet over 'ab'"


def test_multiplication_and_inverse():
    u = Word("ab")
    v = Word("BA")
    assert (u * v).is_trivial
    assert u.inverse().letters == "BA"
    assert (u * u.inverse()).is_trivial
    assert (u**3).letters == "ababab"
    assert (u**-2) == (u.inverse() ** 2)
    with pytest.raises(ValueError, match="cannot multiply words over different alphabets"):
        Word("a") * Word("a", "abcd")


def test_cyclic_reduction():
    w = Word("AbaBa")  # starts with A, ends with a
    assert w.cyclically_reduced() != w
    assert w.cyclically_reduced().letters == "a"
    assert Word("abAB").cyclically_reduced() == Word("abAB")


def _strip_end_pairs(letters):
    # the per-pair loop that cyclically_reduced replaced, quadratic in the pairs
    while len(letters) > 1 and letters[0] == letters[-1].swapcase():
        letters = letters[1:-1]
    return letters


def test_cyclically_reduced_equals_the_per_pair_loop():
    words = ["", "a", "aA", "ab", "aBA", "abA", "abBA", "abaBA", "AbaBa", "abcCBA"]
    words += [random_reduced_word(random.Random(seed), 12).letters for seed in range(300)]
    for letters in words:
        for u in (letters, "a" + letters + "A", "cb" + letters + "BC"):
            w = Word(u, "abc")
            assert w.cyclically_reduced().letters == _strip_end_pairs(w.letters), w.letters


def test_cyclically_reduced_is_linear_time():
    n = 3 * 10**5
    w = Word("a" * n + "b" + "A" * n)
    t0 = time.perf_counter()
    reduced = w.cyclically_reduced()
    elapsed = time.perf_counter() - t0
    assert reduced.letters == "b" and elapsed < 0.5, elapsed


def test_proper_power():
    assert Word("abab").is_proper_power()
    assert Word("aaa").is_proper_power()
    assert not Word("ab").is_proper_power()
    assert not Word("aab").is_proper_power()


def test_is_proper_power_equals_the_divisor_loop():
    """The rotation test against u^k for each length of u dividing |w|, on
    every reduced word over a, b of length <= 9, the empty word included."""
    layer, words = [""], [""]
    for _ in range(9):
        layer = [w + ch for w in layer for ch in "abAB" if w[-1:] != ch.swapcase()]
        words += layer
    assert len(words) == 1 + 4 * (3**9 - 1) // 2
    for w in words:
        n = len(w)
        divisor_loop = any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n // 2 + 1))
        assert Word(w).is_proper_power() == divisor_loop, w


def test_random_reduced_words_are_reduced_and_in_ball():
    rng = random.Random(42)
    for _ in range(500):
        w = random_reduced_word(rng, 30)
        assert 1 <= len(w) <= 30
        assert free_reduce(w.letters) == w.letters


@pytest.mark.parametrize("gens", ["a", "ab", "abc", "abcd", "abcde", string.ascii_lowercase])
def test_random_reduced_letters_equal_choice_oracle(gens):
    # rank 1 takes the r = 2 branch of the ball sizes, and rank 26, the
    # widest that avgindex admits, draws 6 bits into 64-entry rows; equal
    # final states show that both drew the same number of bits
    for max_len in (1, 2, 5, 30):
        for seed in range(100):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            stream = random_reduced_letters(rng, max_len, gens)
            oracle = _oracle_random_reduced_letters(oracle_rng, max_len, gens)
            assert [next(stream) for _ in range(5)] == [next(oracle) for _ in range(5)]
            assert rng.getstate() == oracle_rng.getstate(), (gens, max_len, seed)
    if len(gens) > 2:
        return
    # long streams compare with ball sizes deep below max_len: at rank 1
    # every length comes, and at rank 2 and radius 30 lengths down to 23
    for max_len in (1, 2, 3, 30):
        rng, oracle_rng = random.Random(max_len), random.Random(max_len)
        stream = random_reduced_letters(rng, max_len, gens)
        oracle = _oracle_random_reduced_letters(oracle_rng, max_len, gens)
        samples = [next(stream) for _ in range(2000)]
        assert samples == [next(oracle) for _ in range(2000)]
        assert rng.getstate() == oracle_rng.getstate(), (gens, max_len)
        assert len(set(map(len, samples))) == (max_len if len(gens) == 1 else min(max_len, 8))


@pytest.mark.parametrize("max_len", [0, -1, -30])
def test_random_reduced_letters_refuse_an_empty_ball(max_len):
    # the length draw is inlined from rng.randrange, which raises on an
    # empty range; a getrandbits loop below a ball of size 0 would not end
    for gens in ("a", "ab"):
        with pytest.raises(ValueError):
            next(random_reduced_letters(random.Random(1), max_len, gens))


def test_random_word_determinism():
    a = [random_reduced_word(random.Random(7), 20).letters for _ in range(1)]
    b = [random_reduced_word(random.Random(7), 20).letters for _ in range(1)]
    assert a == b


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_evaluate_is_a_homomorphism(backend):
    images, identity = BACKENDS[backend]
    rng = random.Random(2009)
    assert evaluate(Word(""), images, identity) == identity
    table = letter_images(images)
    assert all(table[g] * table[g.swapcase()] == identity for g in images)
    for _ in range(30):
        u = random_reduced_word(rng, 15)
        v = random_reduced_word(rng, 15)
        eu, ev = evaluate(u, images, identity), evaluate(v, images, identity)
        assert evaluate(u * v, images, identity) == eu * ev
        assert evaluate(u.inverse(), images, identity) * eu == identity
    with pytest.raises(ValueError, match="have no image"):
        evaluate(Word("ac", "abcd"), images, identity)


def test_evaluate_folds_with_a_given_product_and_given_inverse_images():
    # bytes have no inverse(): the uppercase images are given, and
    # bytes.translate composes the permutations left to right
    rest = bytes(range(3, 256))
    a, inverse, b = bytes([1, 2, 0]) + rest, bytes([2, 0, 1]) + rest, bytes([1, 0, 2]) + rest
    images = {"a": a, "A": inverse, "b": b, "B": b}
    assert letter_images(images) == images
    assert evaluate(Word("aab"), images, bytes(range(3)), bytes.translate) == bytes([2, 1, 0])
