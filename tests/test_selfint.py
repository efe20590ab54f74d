import ast
import functools
import hashlib
import random
from pathlib import Path

import pytest

from fig8.selfint import (
    MODULAR_ASSIGNMENT,
    TORUS_X,
    TORUS_Y,
    self_intersection,
)
from fig8.sl2 import Mat2
from fig8.words import Word, evaluate
from oracles import linked_pairs


def test_modular_torus_generators():
    assert TORUS_X.trace == 3
    assert TORUS_Y.trace == 3
    assert (TORUS_X * TORUS_Y).trace == 3
    commutator = TORUS_X * TORUS_Y * TORUS_X.inverse() * TORUS_Y.inverse()
    assert commutator.trace == -2  # parabolic: the cusp
    # the group is free on X and Y: distinct reduced words give distinct
    # matrices, so the crossing sweep, which never steps back, meets each g once
    words = _reduced_words(8)
    assert len(words) == 13_121
    images = {evaluate(Word(letters), MODULAR_ASSIGNMENT, Mat2.identity()) for letters in words}
    assert len(images) == len(words)


# The classes the sweep miscounts, with their exact counts.
SWEEP_WRONG = {"ABaBAbb": 2, "ABabbbAb": 5, "ABaBBAbb": 4, "ABabbAbb": 3,
               "ABaBAbbb": 2, "ABabAbAb": 2, "ABaBabAb": 2}


def test_simple_words_have_no_double_point():
    for letters in ("a", "b", "ab"):
        assert self_intersection(Word(letters)) == linked_pairs(Word(letters)) == 0


def test_one_double_point_words():
    assert evaluate(Word("aabAB"), MODULAR_ASSIGNMENT, Mat2.identity()).trace == -9
    assert self_intersection(Word("aabAB")) == linked_pairs(Word("aabAB")) == 1
    assert evaluate(Word("ABAb"), MODULAR_ASSIGNMENT, Mat2.identity()).trace == 11
    assert self_intersection(Word("ABAb")) == linked_pairs(Word("ABAb")) == 1


def test_invariance_under_inverse_and_cyclic_rotation():
    for letters in ("aabAB", "ABAb", "ab"):
        w = Word(letters)
        assert self_intersection(w.inverse()) == self_intersection(w)
        rotated = Word(letters[1:] + letters[0])
        assert self_intersection(rotated) == self_intersection(w)


@pytest.mark.xfail(strict=True, reason="float crossing counter is not rotation invariant: 4 vs 5")
def test_rotation_invariance_of_length8_word():
    assert self_intersection(Word("BBaBBaaa")) == self_intersection(Word("BaBBaaaB"))


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="trivial word"):
        self_intersection(Word(""))  # trivial
    with pytest.raises(ValueError, match="not hyperbolic"):
        self_intersection(Word("abAB"))  # parabolic commutator
    with pytest.raises(ValueError, match="word is a proper power"):
        self_intersection(Word("abab"))  # proper power
    with pytest.raises(ValueError, match="word must be cyclically reduced"):
        self_intersection(Word("Aba"))  # not cyclically reduced


def _outcome(counter, w):
    """The answer, or the type and text of what the counter raised."""
    try:
        return counter(w)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def _outcomes_digest(words):
    """SHA-256 of each word's letters and the sweep's outcome on it."""
    outcomes = [(w.letters, _outcome(self_intersection, w)) for w in words]
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _reduced_words(max_len):
    words = [""]
    for letters in words:
        if len(letters) < max_len:
            words += [letters + ch for ch in "abAB" if not letters.endswith(ch.swapcase())]
    return words


def _cyclic_nonpower_words(rng, length, count):
    words = []
    while len(words) < count:
        letters = rng.choice("abAB")
        while len(letters) < length:
            letters += rng.choice([ch for ch in "abAB" if ch != letters[-1].swapcase()])
        w = Word(letters)
        if w.cyclically_reduced() == w and not w.is_proper_power():
            words.append(w)
    return words


@functools.cache
def _hyperbolic_classes():
    """The hyperbolic non-power classes of length <= 8, keyed by their least
    rotation of w or w^-1: every member up to length 7, the least at 8."""
    members = {}
    for letters in _reduced_words(8)[1:]:
        w = Word(letters)
        if w.cyclically_reduced() == w and not w.is_proper_power():
            key = min(x[k:] + x[:k] for x in (letters, w.inverse().letters) for k in range(len(w)))
            if len(w) < 8 or letters == key:
                members.setdefault(key, []).append(letters)
    # the trace is a class function, so the key decides hyperbolicity
    return {k: v for k, v in members.items()
            if abs(evaluate(Word(k), MODULAR_ASSIGNMENT, Mat2.identity()).trace) > 2}


def test_counter_equals_the_mat2_oracle():
    """Answers and error texts on every reduced word of length <= 4 and on 40
    seeded cyclically reduced non-powers at each length 5..8 hash as those of
    the deleted Mat2 counter (the sweep walks int tuples; the floats agree)."""
    rng = random.Random(18)
    words = [Word(letters) for letters in _reduced_words(4)]
    for length in range(5, 9):
        words += _cyclic_nonpower_words(rng, length, 40)
    assert len(words) == 321
    assert _outcomes_digest(words) == "68d2b7e593bc4e1156baba4b06fd59e5e54197243d738bf8407d3004971eb4f3"


def test_reference_and_sweep_on_every_class_to_length_8():
    """On the 659 hyperbolic non-power classes of length <= 8, the reference
    has the Chas-Phillips maxima and is constant on each class up to length
    7; the sweep refuses 323, equals it on 329 and miscounts SWEEP_WRONG."""
    classes = {k: {linked_pairs(Word(m)) for m in v} for k, v in _hyperbolic_classes().items()}
    assert len(classes) == 659 and all(len(v) == 1 for v in classes.values())
    maxima = [max(max(v) for k, v in classes.items() if len(k) == n) for n in range(1, 9)]
    assert maxima == [0, 0, 0, 1, 2, 4, 6, 9]
    assert linked_pairs(Word("BaBBaaaB")) == linked_pairs(Word("BBaBBaaa")) == 5
    refused, wrong = [], {}
    for key, (exact,) in classes.items():
        got = _outcome(self_intersection, Word(key))
        if isinstance(got, tuple):
            refused.append(got[1].split()[0])  # "crossing count unstable" or "odd crossing count"
        elif got != exact:
            wrong[key] = exact
    assert sorted(refused) == ["crossing"] * 315 + ["odd"] * 8 and wrong == SWEEP_WRONG


def test_sweep_outcomes_on_every_class_and_longer_words_are_pinned():
    """Answers and error texts, both counts in each, on the 659 classes of
    length <= 8 and on 100 seeded cyclically reduced non-powers of length
    9..12 hash as recorded before the sweep's loop was rewritten."""
    rng = random.Random(912)
    words = [Word(key) for key in _hyperbolic_classes()]
    for length in range(9, 13):
        words += _cyclic_nonpower_words(rng, length, 25)
    assert len(words) == 759
    assert _outcomes_digest(words) == "30b56e3cd0c08eec219704f6a1a23677d134eda8f560e39ec72850e403f84b64"


@pytest.mark.xfail(strict=True, reason="float sweep misses crossings of these classes")
@pytest.mark.parametrize("letters", SWEEP_WRONG)
def test_sweep_on_the_classes_it_miscounts(letters):
    assert self_intersection(Word(letters)) == SWEEP_WRONG[letters]


def test_primitive_words_are_simple():
    """Primitive words, from seeded Nielsen moves on the basis (a, b), are simple."""
    rng, words = random.Random(45), set()
    while len(words) < 300:
        x, y = Word("a"), Word("b")
        while len(x) < 40:
            z = y if rng.random() < 0.5 else y.inverse()
            x, y = (x * z if rng.random() < 0.5 else z * x), x
            words.add(x.cyclically_reduced().letters)
    assert sum(len(w) >= 30 for w in words) >= 30
    assert [w for w in sorted(words) if linked_pairs(Word(w))] == []


def test_reference_stays_independent_of_the_sweep():
    """The reference imports nothing from fig8.selfint and counts in integers."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imports = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, ast.Import | ast.ImportFrom)]
    assert not [line for line in imports if "selfint" in line]
    (func,) = [n for n in tree.body if getattr(n, "name", None) == "linked_pairs"]
    nodes = list(ast.walk(func))
    assert not {n.id for n in nodes if isinstance(n, ast.Name)} & {"math", "complex", "float"}
    constants = {type(n.value) for n in nodes if isinstance(n, ast.Constant)}
    assert not ({type(n) for n in nodes} | constants) & {ast.Div, float, complex}
