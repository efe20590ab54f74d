import ast
import contextlib
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fig8 import cli, covers, magnus, perms, selfint, torus
from fig8.cli import main
from fig8.perms import Permutation
from fig8.sl2 import Mat2, eight_trace, length_to_trace, trace_to_length
from fig8.words import Word, evaluate, random_reduced_word
from oracles import (
    _oracle_census_csv,
    _oracle_mc2,
    _oracle_mcshane,
    _oracle_one_intersection_census,
    linked_pairs,
    relator_product,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_census_paired(capsys):
    code, out, _ = run(capsys, "census", "--cutoff", "4.5", "--mode", "paired")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "trace,length,family,slope"
    assert len(lines) == 7
    assert all(line.startswith("9,") for line in lines[1:])


def test_census_full_below_first_companion(capsys):
    # trace cutoff 2cosh(2.25) ~ 9.6: the companion walk would start below trace 3
    code, out, _ = run(capsys, "census", "--cutoff", "4.5", "--mode", "full")
    assert (code, out) == run(capsys, "census", "--cutoff", "4.5", "--mode", "paired")[:2]


# Below trace 9 a census lists the rows that --counts-at counts: none at the
# modular root, and at 9/4,9/2,9/2 those of its sink trace 9/4, the paired
# row 27/4 (N1_paired 2) and the companion 113/16 (N1_full 3).
BELOW_NINE_PAIRED = ["6.75,3.77366932,paired-fig8,0/1"] * 2
BELOW_NINE_CENSUS = [
    ("3,3,3", "paired", []),
    ("9/4,9/2,9/2", "paired", BELOW_NINE_PAIRED),
    ("9/4,9/2,9/2", "full", BELOW_NINE_PAIRED + ["7.0625,3.86823853,companion-fig8,0/1"]),
]


@pytest.mark.xfail(reason="census below trace 9 exits 2, not the rows that --counts-at counts")
@pytest.mark.parametrize("root,mode,lines", BELOW_NINE_CENSUS, ids=["modular", "paired", "full"])
def test_census_below_first_paired_trace_is_empty(capsys, root, mode, lines):
    code, out, _ = run(capsys, "census", "--cutoff", "4.0", "--root", root, "--mode", mode)
    assert (code, out) == (0, cli._csv("trace,length,family,slope", lines))


def test_census_counts(capsys):
    code, out, _ = run(capsys, "census", "--counts-at", "12,20")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,N0,N1_paired,N1_full"
    assert len(lines) == 3


def test_mcshane_json(capsys):
    code, out, _ = run(capsys, "mcshane", "--cutoff", "1000", "--form", "trace")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert abs(payload["partial_sum"] - 1.0) < 1e-3
    assert payload["terms"] == 54


def test_extend_exit_codes(capsys):
    code, out, _ = run(capsys, "extend", "--genus", "1", "--classes", "2")
    assert code == 1
    assert json.loads(out)["extends"] is False
    code, out, _ = run(capsys, "extend", "--genus", "0", "--classes", "2;2")
    assert code == 0
    assert json.loads(out)["extends"] is True


def test_frobenius_artifact(capsys):
    code, out, err = run(capsys, "frobenius", "--classes", "1,3,1;2,2,1;5")
    assert (code, err) == (0, "")
    assert out == '{"classes": ["3,1,1", "2,2,1", "5"], "count": "120", "schema": 1}\n'


@pytest.mark.parametrize(
    "argv, code, count, seconds",
    [
        (("frobenius", "--classes", "995"), 0, "0", 3),  # exited 4 on RecursionError
        (("frobenius", "--classes", "70"), 0, "0", 1),  # ran past 30 s
        (("frobenius", "--classes", "40;40"), 0, str(math.factorial(39)), 1),  # took 7.3 s
        (("extend", "--genus", "0", "--classes", "40;40"), 0, None, 1),
        (("extend", "--genus", "0", "--classes", "70"), 1, None, 1),
    ],
)
def test_large_cycle_counts_in_bounded_time(capsys, argv, code, count, seconds):
    t0 = time.perf_counter()
    got, out, _ = run(capsys, *argv)
    assert time.perf_counter() - t0 < seconds
    assert got == code
    if count is not None:
        assert json.loads(out)["count"] == count


def test_classes_of_many_twos_keep_the_exit_contract(capsys):
    """A class with 497 parts of size 2 meets only hook shapes beside a
    995-cycle, whose characters need no recursion: it would otherwise
    exhaust the recursion limit and exit 4."""
    twos = ",".join(["2"] * 497 + ["1"])
    codes = [
        run(capsys, "frobenius", "--classes", f"995;{twos}")[0],
        run(capsys, "extend", "--genus", "0", "--classes", f"{twos};995")[0],
    ]
    assert all(code in (0, 1, 2, 3) for code in codes), codes


@pytest.mark.xfail(strict=True, reason="non-hook shapes beside 994,1 recurse 495 levels: exit 4")
def test_pivot_994_1_beside_many_twos_keeps_the_exit_contract(capsys):
    twos = ",".join(["2"] * 497 + ["1"])
    assert run(capsys, "frobenius", "--classes", f"994,1;{twos}")[0] in (0, 1, 2, 3)


def test_frobenius_count_past_the_int_to_str_limit(capsys):
    # three 995-cycles: (n-1)! * 2(n-1)!/(n+1), 5,097 digits
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "frobenius", "--classes", "995;995;995")
    assert sys.get_int_max_str_digits() == limit
    digits = json.loads(out)["count"]
    assert code == 0 and len(digits) == 5097
    f = math.factorial(994)
    sys.set_int_max_str_digits(0)
    try:
        assert int(digits) == f * 2 * f // 996
    finally:
        sys.set_int_max_str_digits(limit)


def test_readme_examples_run(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("fig8 ")]
    assert len(lines) >= 19
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code in (0, 1), (line, err)


def test_extend_transitive_answers_carry_witnesses(capsys):
    # a connected double cover of the annulus has nontrivial boundary monodromy
    code, out, _ = run(capsys, "extend", "--genus", "0", "--classes", "1,1;1,1", "--transitive")
    assert (code, json.loads(out)) == (1, {"extends": False, "reason": "transitive", "schema": 1})
    code, out, _ = run(capsys, "extend", "--genus", "0", "--classes", "3;3;3", "--transitive")
    assert code == 0
    assert json.loads(out)["witness"] == {"boundaries": ["(1 2 3)"] * 3, "handles": []}


def test_regular_extend_unknown_budget(capsys):
    code, out, err = run(capsys, "regular-extend", "--genus", "1", "--classes", "9")
    assert code == 3
    assert json.loads(out) == {"schema": 1, "status": "unknown"}
    assert err == "unknown: degree 9 is above the cap 8\n"


@pytest.mark.parametrize(
    "genus,digest",
    [
        ("100000", "b737cfbbe3e520ff51edb9867923906e6d644d1929f0041b850073f65bd44d34"),
        ("1000000", "409d288d11af20c7bf5ae280d948dba4c33438ad2d623d266e7e7d5775e20c9d"),
    ],
)
def test_extend_at_a_large_genus_pads_its_witness_quickly(capsys, genus, digest):
    """The artifact still lists every handle, byte for byte as when the
    decision built all of them; genus 10^6 then took 7.4 s on 2 cores."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "extend", "--genus", genus, "--classes", "3")
    assert time.perf_counter() - t0 < 2
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_regular_extend_intransitive_image_does_not_extend(capsys):
    code, out, _ = run(capsys, "regular-extend", "--genus", "0", "--classes", "2,2;2,1,1;2,1,1")
    assert code == 1
    assert json.loads(out) == {"schema": 1, "status": "does-not-extend"}


@pytest.mark.parametrize("classes", ["1,1,1,1,1,1,1,1", "1,1,1,1,1,1,1,1;1,1,1,1,1,1,1,1"])
def test_regular_extend_of_genus_0_identities_in_under_a_tenth_of_a_second(capsys, classes):
    """At genus 0 the boundary images generate the image, here {e}; walking
    every regular subgroup of S_8 to learn that took 5.4 s on 2 cores."""
    t0 = time.perf_counter()
    got = run(capsys, "regular-extend", "--genus", "0", "--classes", classes)
    assert time.perf_counter() - t0 < 0.1
    assert got == (1, '{"schema": 1, "status": "does-not-extend"}\n', "")


# An identity class first: the search fixes the first class that moves a
# point.  Fixing the identity class instead took about 8 s and 14 s on 2 cores.
@pytest.mark.parametrize(
    "genus,classes,code,witness",
    [
        pytest.param("3", "1,1,1,1,1,1,1,1;2,2,2,2", 0, ["e", "(1 2)(3 4)(5 6)(7 8)"], id="genus3-extends"),
        pytest.param("1", "1,1,1,1,1,1,1,1;4,4", 1, None, id="genus1-does-not-extend"),
    ],
)
def test_regular_extend_after_an_identity_class_in_under_a_second(capsys, genus, classes, code, witness):
    t0 = time.perf_counter()
    got = run(capsys, "regular-extend", "--genus", genus, "--classes", classes)
    assert time.perf_counter() - t0 < 1
    assert (got[0], json.loads(got[1]).get("witness")) == (code, witness)


# witnesses recorded with the boundary-tuple search that the per-group search replaced
REGULAR_WITNESSES = {
    ("0", "4,4;4,4;4,4;2,2,2,2"): [
        "(1 2 3 4)(5 6 7 8)",
        "(1 5 3 7)(2 8 4 6)",
        "(1 8 3 6)(2 7 4 5)",
        "(1 3)(2 4)(5 7)(6 8)",
    ],
}


@pytest.mark.parametrize(
    "genus,classes,code,status",
    [
        ("1", "2,2,2,1,1", 1, "does-not-extend"),
        ("1", "2,2,2,2", 0, "extends"),
        ("4", "2,2,2,2", 0, "extends"),
        ("0", "4,4;4,4;4,4;2,2,2,2", 0, "extends"),
        ("2", "2,2,2,2;4,4", 1, "does-not-extend"),
        ("1000000", "2,2,2,2", 0, "extends"),
    ],
)
def test_regular_extend_degree_8_in_bounded_time(capsys, genus, classes, code, status):
    # the coset search over all 8! permutations took 75 s and 2.6 s on 2 cores;
    # the handle-tuple search did not finish genus 4 in 90 s
    t0 = time.perf_counter()
    got = run(capsys, "regular-extend", "--genus", genus, "--classes", classes)
    assert time.perf_counter() - t0 < 10
    payload = json.loads(got[1])
    assert (got[0], payload["status"]) == (code, status)
    if (genus, classes) in REGULAR_WITNESSES:
        assert payload["witness"] == REGULAR_WITNESSES[genus, classes]


# recorded with the class scan that the lexicographic class search replaced
EXTEND_66_WITNESS = {
    "boundaries": [
        "(1 2 3 4 5 6)(7 8 9 10 11 12)",
        "(1 2 3 4 5 7)(6 8 9 10 11 12)",
        "(1 12 10 8 5 3)(2 6 11 9 7 4)",
    ],
    "handles": [],
}


@pytest.mark.parametrize(
    "argv",
    [
        ("twocycles", "--perm", "(1 2 3)", "--degree", "12"),
        ("twocycles", "--perm", "(1 2 3)", "--degree", "1000"),
        ("extend", "--genus", "1", "--classes", "3,3,3,3"),
        ("extend", "--genus", "0", "--classes", "6,6;6,6;6,6"),
        ("extend", "--genus", "0", "--classes", "7,7;7,7;7,7"),
    ],
)
def test_class_searches_in_bounded_time(capsys, argv):
    # scanning whole classes, these exited 4 with MemoryError (6,6;6,6;6,6 took
    # 22 s and 1.7 GB; twocycles at degree 10 took 1.3 s and 110 MB)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1
    assert code == 0
    if argv[-1] == "6,6;6,6;6,6":
        assert json.loads(out)["witness"] == EXTEND_66_WITNESS


def test_selfint(capsys):
    code, out, _ = run(capsys, "selfint", "--word", "aabAB")
    assert code == 0
    assert json.loads(out)["self_intersection"] == 1


@pytest.mark.parametrize("word", ["AAAbbaaBaBABab", "abaaaBBBBB"])
def test_selfint_float_sweep_failure_is_an_input_error(capsys, word):
    """A float-framed orbit point on the real line divided by zero and
    exited 4; the sweep now reports it as a word it cannot count."""
    code, out, err = run(capsys, "selfint", "--word", word)
    assert (code, out) == (2, "")
    assert err == "error: float sweep failed: ZeroDivisionError: float division by zero\n"
    assert linked_pairs(Word(word)) == {"AAAbbaaBaBABab": 17, "abaaaBBBBB": 15}[word]  # exact


@pytest.mark.xfail(strict=True, reason="the float sweep answers 5 with a stable even count")
@pytest.mark.parametrize("word", ["bABaaaBBAAbAba", "ABaBaabbAAAbaB"])
def test_selfint_answers_the_exact_count(capsys, word):
    code, out, err = run(capsys, "selfint", "--word", word)
    assert (code, err) == (0, "")
    assert json.loads(out)["self_intersection"] == linked_pairs(Word(word)) == 17


def test_prime_and_scatter(capsys):
    code, out, _ = run(capsys, "prime", "--word", "abAB")
    assert code == 0
    payload = json.loads(out)
    assert payload["prime"] == 3
    assert payload["matrix_mod_p"] == [["0", "1"], ["2", "0"]]
    code, out, _ = run(capsys, "prime", "--scatter", "--samples", "5", "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == "length,prime"
    # seed is mandatory for randomized output
    code, _, err = run(capsys, "prime", "--scatter", "--samples", "5")
    assert code == 2 and "seed" in err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_prime_scatter_rejects_a_maxlen_below_1(capsys, value):
    # --samples too: a header-only CSV answered no question
    for flag in ("--maxlen", "--samples"):
        code, out, err = run(capsys, "prime", "--scatter", "--seed", "1", flag, value)
        assert (code, out, err) == (2, "", f"error: {flag} must be at least 1, not {value}\n")


def test_depth_witness_expectedprime(capsys):
    code, out, _ = run(capsys, "depth", "--word", "abAB")
    assert code == 0 and json.loads(out)["depth"] == 2
    code, out, _ = run(capsys, "witness", "--word", "abAB")
    payload = json.loads(out)
    assert code == 0 and payload["modulus"] == 2 and payload["ambient_index"] == "8"
    code, out, _ = run(capsys, "expectedprime", "--terms", "9")
    assert code == 0 and abs(json.loads(out)["value"] - 2.920051) < 1e-5


def test_witness_expands_its_word_once(capsys, monkeypatch):
    products = []
    mul = magnus.MagnusSeries.__mul__

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(magnus.MagnusSeries, "__mul__", counting_mul)
    counts = {}
    for command in ("depth", "witness"):
        products.clear()
        code, _, _ = run(capsys, command, "--word", "abAbaBAB")
        assert code == 0
        counts[command] = len(products)
    assert counts["witness"] == counts["depth"] > 0, counts


def test_lpsgirth(capsys):
    code, out, _ = run(capsys, "lpsgirth", "--p", "5", "--q", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["girth"] == 8 and payload["passed"] is True
    code, out, _ = run(capsys, "lpsgirth", "--p", "13", "--q", "37")
    assert code == 0
    payload = json.loads(out)
    assert (payload["generator_count"], payload["group_order"]) == (14, 50616)
    assert (payload["girth"], payload["bound_ceil"]) == (8, 6)


# SHA-256 of lpsgirth artifacts, recorded while the subcommand still named
# each LpsGirthResult field itself.
@pytest.mark.parametrize(
    "q,digest",
    [
        ("13", "c764c05f469340d81b6ab1390d2bf0d99d11fbd83959e82c6ec653db25063d81"),
        ("17", "be68a1f5882fdd1253f8ba4d1555a472a9098786e1f179818300fb533534e7e8"),
    ],
)
def test_lpsgirth_artifacts_are_byte_identical(capsys, q, digest):
    code, out, err = run(capsys, "lpsgirth", "--p", "5", "--q", q)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_surface_certify_exit_codes(capsys):
    code, out, _ = run(capsys, "surface-certify", "--word", "ac")
    assert code == 0 and json.loads(out)["verdict"] == "NONTRIVIAL"
    code, out, _ = run(capsys, "surface-certify", "--word", "abABdcDC")
    assert code == 1 and json.loads(out)["verdict"] == "TRIVIAL-CONSISTENT"


def test_avgindex_requires_seed_and_is_deterministic(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["avgindex", "--samples", "10"])
    assert exc.value.code == 2
    capsys.readouterr()
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--output", str(out1), "avgindex", "--samples", "500", "--seed", "9"]) == 0
    assert main(["--output", str(out2), "avgindex", "--samples", "500", "--seed", "9"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_avgindex_at_a_large_radius_in_bounded_time(capsys):
    # the stream keeps only the ball sizes its draws compare with, not a
    # table of radius entries: one sample at radius 20000 took 1.0 s and
    # 57 MB with such a table
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "avgindex", "--radius", "100000", "--samples", "1", "--seed", "1")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5
    assert peak < 5 * 2**20, peak
    payload = json.loads(out)
    assert code == 0 and payload["samples_used"] + payload["excluded_zero_abelianization"] == 1


def test_byte_determinism_census(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--output", str(out1), "census", "--cutoff", "8", "--mode", "full"]) == 0
    assert main(["--output", str(out2), "census", "--cutoff", "8", "--mode", "full"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# SHA-256 of torus artifacts at the benchmark's largest census and sum sizes,
# recorded before the Vieta walk ran on plain tuples: a faster walk or
# formatter must not change a byte of them.
TORUS_ARTIFACT_SHA256 = [
    (
        ["census", "--cutoff", "70", "--mode", "full"],
        "26102fc37056f1464ed542fa65fbf9ff4193cc66ad6a144d51182ba26b37ac6f",
    ),
    (
        ["census", "--cutoff", "70", "--mode", "paired"],
        "bd04d181726e172ff159b2215ae996bc3e789c3b207dc5eb420793f001ef7286",
    ),
    (
        ["census", "--counts-at", "20,45,70"],
        "373c0189b076381d38e8cd810ed442c97fdf51287ea8e995b8c552661dbc4c12",
    ),
    (
        ["mcshane", "--cutoff", "1e15", "--form", "length"],
        "0786cdfcb3957b1b1842cff87577736011e57e6dfbd3a3e321afe6ccd8af0e84",
    ),
    (
        ["mc2", "--cutoff", "1e15"],
        "c1d802e70efde451519182a72390a7fc21db1899558c9d4ef469f1a0bf972a64",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    TORUS_ARTIFACT_SHA256,
    ids=["census-full", "census-paired", "counts-at", "mcshane", "mc2"],
)
def test_torus_artifacts_are_byte_identical(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The torus commands of the artifact pins at roots other than 3,3,3.
NON_MODULAR_ROOT_ARGVS = [
    ["census", "--cutoff", "30", "--mode", "full"],
    ["census", "--counts-at", "2,20,45,70"],
    ["mcshane", "--cutoff", "1e9"],
    ["mcshane", "--cutoff", "1e9", "--form", "length"],
    ["mc2", "--cutoff", "1e9"],
]
# SHA-256 over (exit code, stdout, stderr) of those commands.  They guard
# the slope labels of the descent, which runs only where the root is not
# the sink, and the walks of float roots.  The last root's sink holds a
# trace of 2.34.
NON_MODULAR_ROOT_SHA256 = [
    ("15,87,1299", "d5762ba0b8e832d357eaf1ad2fcbaa23af0324d917faf3dede0aa5fca9ebe485"),
    ("3,6,15", "99e8b92b8e2dd1b789a443c2109869909a4826ba4f0397b679b417aeb7c68d11"),
    ("3.0,3,3", "caadc1e8d6ec833000b3c66a257d8933d3e8719503b359cb93f19fd9bafc1834"),
    ("3.0000000001,3,3", "24b8fbc73eb19fc6ae247c55b1f67c102a94629057652593a1ee7efc0ecb1373"),
    ("4,4,13.65685424949238", "22d0af0f342b27a571dbaef75d5470f3ec83e9ce965ac46c726da1effd7bbebb"),
]


@pytest.mark.parametrize("root,digest", NON_MODULAR_ROOT_SHA256)
def test_non_modular_root_artifacts_are_byte_identical(capsys, root, digest):
    sha = hashlib.sha256()
    for argv in NON_MODULAR_ROOT_ARGVS:
        code, out, err = run(capsys, *argv, "--root", root)
        sha.update(f"{code}\n{out}{err}".encode())
    assert sha.hexdigest() == digest


# SHA-256 of census artifacts from the float root 3.0,3,3 whose traces pass
# 1.34e154, where a float square raises OverflowError; each equals the
# artifact of the int root 3,3,3 byte for byte.
FLOAT_ROOT_OVERFLOW_SHA256 = [
    (
        ["census", "--cutoff", "713", "--mode", "paired"],
        "e9263fb71f9756fac15d8a7f2fe612b64906e42a0c5dbcc84a0de8a8b958599c",
    ),
    (
        ["census", "--cutoff", "713", "--mode", "full"],
        "a4e1b45810a06b4b0ad606674cd90f3554cffbcad1436ef59892a59d8bd09f74",
    ),
    (
        ["census", "--counts-at", "2,1010"],
        "061642c6f8fb23834f69bd93c8c875f33aedda0f902a55261976768c37f364bd",
    ),
]


@pytest.mark.parametrize("argv,digest", FLOAT_ROOT_OVERFLOW_SHA256, ids=["paired", "full", "counts-at"])
def test_float_root_census_beyond_the_float_square_range(capsys, argv, digest):
    """Paired rows need no companion, and a float companion or count key
    beyond the float range is inf, so these exit 0 instead of 4.  The full
    CSV has 308,377 lines and the counts row is 1010,276474,550512,619662,
    as from the int root."""
    code, out, err = run(capsys, *argv, "--root", "3.0,3,3")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "rational,decimal", [("18,9/2,9/2", "18,4.5,4.5"), ("9/4,9/2,9/2", "2.25,4.5,4.5")]
)
def test_rational_roots_give_the_artifacts_of_their_decimals(capsys, rational, decimal):
    """A p/q coordinate walks exactly in Fractions; these decimal roots walk
    in floats, and every artifact is the same."""
    for argv in NON_MODULAR_ROOT_ARGVS:
        got = run(capsys, *argv, "--root", rational)
        assert got[0] == 0 and got == run(capsys, *argv, "--root", decimal), argv


@pytest.mark.parametrize("root", ["18,4.5,4.5", "4,4,13.65685424949238", "9/4,9/2,9/2"])
@pytest.mark.parametrize("cutoff", [9.0, 100.0, 1e4, 1e9])
def test_mc2_is_twice_mcshane_at_a_third_of_the_cutoff(capsys, root, cutoff):
    """At roots whose sinks hold a trace below 3, in terms and in sum."""
    _, mc2, _ = run(capsys, "mc2", "--root", root, "--cutoff", repr(cutoff))
    _, mcshane, _ = run(capsys, "mcshane", "--root", root, "--cutoff", repr(cutoff / 3))
    mc2, mcshane = json.loads(mc2), json.loads(mcshane)
    assert mc2["terms"] == 2 * mcshane["terms"] > 0
    assert abs(mc2["partial_sum"] - 2 * mcshane["partial_sum"]) <= 2e-8  # 9 digits each


# SHA-256 of selfint artifacts, recorded before the crossing sweep walked int
# tuples.  Each answer is one that the trace-family rule confirms (below), so
# a later exact counter must keep these bytes too.
SELFINT_ARTIFACT_SHA256 = [
    ("aab", "c79d67abfeb20c4d3c15894ee610a5e4585a35f5bc07c6149b1f55dc8b06fc40"),
    ("aaabaab", "9c0e1c295d12f7d1854f55cd4be4e66e35d3927f6a0f30aad079805dc8a5e797"),
    ("aabAB", "6f6f0c06573bc0ce0155976289b7cb975ca6e38162eb12306d139e8af861bc3c"),
    ("ABAb", "8fb5d9d24880a3d66054f3f4dc180cf71929ee6a4d4abdddb58d952c73ae8dc4"),
    ("AABab", "70c801c7e494819efe2ffcdcc520c04c3e4d216e2c4b37765e1a656cf605ee21"),
]


@pytest.mark.parametrize("word,digest", SELFINT_ARTIFACT_SHA256)
def test_selfint_artifacts_are_byte_identical(capsys, word, digest):
    """A simple geodesic (answer 0) has a simple trace t; a one-double-point
    geodesic (answer 1) has trace 3t or t^2 + 2 for a simple trace t."""
    code, out, err = run(capsys, "selfint", "--word", word)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    answer = json.loads(out)["self_intersection"]
    trace = abs(evaluate(Word(word), selfint.MODULAR_ASSIGNMENT, Mat2.identity()).trace)
    simple = {t for t, _ in torus.enumerate_simple(torus.MODULAR_ROOT, trace)}
    family = simple if answer == 0 else {3 * t for t in simple} | {t * t + 2 for t in simple}
    assert answer in (0, 1) and trace in family


@pytest.mark.parametrize("lengths", ["70,2,0.5,20,20", "45,12,8,12,70,3", "1.5,0.5"])
def test_counts_at_walks_once_and_equals_per_length_counts(capsys, monkeypatch, lengths):
    want = []
    for text in lengths.split(","):
        n0, n1p, n1f = torus.census_counts(torus.MODULAR_ROOT, [float(text)])[0]
        want.append(f"{cli._fmt(float(text))},{n0},{n1p},{n1f}")
    walks = []
    walk = torus._kept_walk
    monkeypatch.setattr(torus, "_kept_walk", lambda r, t: walks.append(t) or walk(r, t))
    code, out, _ = run(capsys, "census", "--counts-at", lengths)
    assert (code, out.splitlines()) == (0, ["L,N0,N1_paired,N1_full", *want])
    top = max(length_to_trace(float(text)) for text in lengths.split(","))
    assert [t for t in walks if t > 3] == ([top] if top > 3 else [])


@pytest.mark.parametrize(
    "lengths,error",
    [
        ("20,nan", "length nan is not"),
        ("1,nan,20", "length nan is not"),
        ("1,20", "Vieta flip gives trace 0.0, not above 2"),
    ],
)
def test_counts_at_fails_at_the_first_bad_step_in_order(capsys, lengths, error):
    """Every length is converted before the one walk, so a bad length is
    reported before a root that cannot be walked.  This float root meets
    the cusp relation only within the float slack, and its first flip
    cancels to 0."""
    code, out, err = run(capsys, "census", "--root", "1e16,1e8,1e8", "--counts-at", lengths)
    assert (code, out) == (2, "") and err.startswith(f"error: {error}")


@pytest.mark.parametrize("argv", [["--counts-at", "2,nan"], ["--cutoff", "nan"]])
def test_a_bad_length_is_reported_before_a_bad_root(capsys, argv):
    """The root is only parsed before the lengths are converted; the walk
    checks it."""
    code, out, err = run(capsys, "census", "--root", "3,3,4", *argv)
    assert (code, out) == (2, "") and err.startswith("error: length nan is not")


def _artifacts_sha256(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        digest.update(f"{code}\n{out}".encode())
    return digest.hexdigest()


def test_word_artifacts_are_byte_identical(capsys):
    """SHA-256 over the surface-certify artifacts of 200 random genus-2 words
    and 20 relator products, and the prime artifacts of 50 unreduced free
    words; recorded before free reduction worked a segment at a time and
    the Dehn twist conjugated whole c/d runs."""
    rng = random.Random(0)
    surface = [random_reduced_word(rng, 40, "abcd").letters for _ in range(200)]
    rng = random.Random(1)
    surface += [relator_product(rng) for _ in range(20)]
    rng = random.Random(2)
    free = ["".join(rng.choice("abAB") for _ in range(rng.randrange(1, 61))) for _ in range(50)]
    assert _artifacts_sha256(capsys, [["surface-certify", "--word", w] for w in surface]) == (
        "c5d60b1443e4b7fedcd81a40d6ff8f4840616daeb224093dfc9355f0be6430ab"
    )
    assert _artifacts_sha256(capsys, [["prime", "--word", w] for w in free]) == (
        "af7444c6c19c5fce57ca5ded1667793810d3130929e214db6e24c1d0dd2a206b"
    )


def _bracket(u: str, v: str) -> str:
    return u + v + u.swapcase()[::-1] + v.swapcase()[::-1]


def _cycles(rng, n: int) -> str:
    images = list(range(n))
    rng.shuffle(images)
    return str(Permutation(tuple(images)))


def test_finite_quotient_artifacts_are_byte_identical(capsys):
    """SHA-256 over the depth and witness artifacts of seeded free words and
    commutators at --max-k 2..8, prime --scatter, avgindex and stripcover;
    recorded before the echo fields left the result classes and before
    witness lost its --k option."""
    rng = random.Random(21)
    words = [random_reduced_word(rng, 10).letters for _ in range(12)]
    pairs = [
        (random_reduced_word(rng, 4).letters, random_reduced_word(rng, 4).letters) for _ in range(8)
    ]
    words += [_bracket(u, v) for u, v in pairs]
    words += [_bracket(_bracket(u, v), "b") for u, v in pairs[:4]] + ["aA"]
    w = "a"
    for _ in range(4):  # depths 2 to 5
        w = _bracket(w, "b")
        words.append(w)
    argvs = [
        [command, "--word", w, "--max-k", str(k)]
        for w in words
        for k in range(2, 9)
        for command in ("depth", "witness")
    ]
    argvs += [
        ["prime", "--scatter", "--samples", "40", "--maxlen", "60", "--seed", str(seed)]
        for seed in (1, 2, 3)
    ]
    argvs += [
        ["avgindex", "--rank", rank, "--radius", radius, "--samples", "200", "--seed", seed]
        for rank, radius, seed in (("2", "20", "1"), ("3", "8", "2"), ("5", "30", "3"))
    ]
    for n in range(2, 9):
        sigma = "(" + " ".join(map(str, rng.sample(range(1, n + 1), n))) + ")"
        argvs.append(["stripcover", "--sigma", sigma, "--tau", _cycles(rng, n), "--degree", str(n)])
    assert _artifacts_sha256(capsys, argvs) == (
        "13ff9bab4ff7e57d731d0e076a696469ce6c78c090b6cf60d5fffc203cae5797"
    )


def test_twocycles_searches_once_and_keeps_its_artifacts(capsys, monkeypatch):
    """One two_n_cycles search per job, and SHA-256 over the twocycles
    artifacts and exit codes of e at degrees 1, 2 and 5, 48 seeded
    permutations of degree 1 to 12 (odd ones exit 2) and (1 2 3) at degree
    1000; recorded while commutator_witness searched a second time."""
    search, calls = cli.covers.two_n_cycles, []

    def counted(sigma):
        calls.append(sigma)
        return search(sigma)

    monkeypatch.setattr(cli.covers, "two_n_cycles", counted)
    rng = random.Random(35)
    argvs = [["twocycles", "--perm", "e", "--degree", str(n)] for n in (1, 2, 5)]
    argvs += [
        ["twocycles", "--perm", _cycles(rng, n), "--degree", str(n)]
        for n in range(1, 13)
        for _ in range(4)
    ]
    argvs.append(["twocycles", "--perm", "(1 2 3)", "--degree", "1000"])
    assert _artifacts_sha256(capsys, argvs) == (
        "f4ea4c1e1d856a3de0cb25bf97b181f73ac9fa253354c80ccdfd7aecb4ca1e93"
    )
    assert len(calls) == len(argvs)


def test_avgindex_artifacts_at_benchmark_sizes_are_byte_identical(capsys):
    """SHA-256 over avgindex at 1,000 samples, the benchmark's largest job:
    radius 30 and 17 at ranks 2 and 3, radius 5 at rank 26, three seeds
    each; recorded before the sampler drew letters from transition rows and
    the simulation looked up one prime per distinct coordinate."""
    argvs = [
        ["avgindex", "--rank", rank, "--radius", radius, "--samples", "1000", "--seed", seed]
        for rank, radius in (("2", "30"), ("2", "17"), ("3", "30"), ("3", "17"), ("26", "5"))
        for seed in ("7", "11", "123456")
    ]
    assert _artifacts_sha256(capsys, argvs) == (
        "9448e3f48f16ecd5b564bd78449b3dfa1170180b7d651994bd5e8d354bc3886f"
    )


def test_expectedprime_many_terms_is_bounded(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "expectedprime", "--terms", "10000")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "") and json.loads(out)["terms"] == 10000
    assert elapsed < 5, elapsed


def test_expectedprime_stops_once_the_float_is_fixed(capsys):
    code, forty, _ = run(capsys, "expectedprime", "--terms", "40")
    t0 = time.perf_counter()
    code_m, million, err = run(capsys, "expectedprime", "--terms", "1000000")
    elapsed = time.perf_counter() - t0
    assert (code, code_m, err) == (0, 0, "")
    assert json.loads(million)["value"] == json.loads(forty)["value"]
    assert elapsed < 1, elapsed


def test_sink_traces_above_the_cutoff_are_left_out(capsys):
    # at root 3.0000000001,3,3 the sink trace 3.0000000001 lies above both bounds
    code, out, _ = run(capsys, "mcshane", "--root", "3.0000000001,3,3", "--cutoff", "3")
    assert code == 0 and json.loads(out)["terms"] == 2
    code, out, _ = run(
        capsys, "census", "--counts-at", "1.9248473002384139", "--root", "3.0000000001,3,3"
    )
    assert code == 0 and out.splitlines()[1] == "1.9248473,2,0,0"


def test_default_root_walks_exactly():
    """Above 2^53 a float walk from 3,3,3 loses integrality; simple traces are 3m."""
    cutoff = length_to_trace(120)
    pairs = torus.enumerate_simple(cli._parse_root("3,3,3"), cutoff)
    assert pairs == torus.enumerate_simple(torus.MODULAR_ROOT, cutoff)
    assert all(t % 3 == 0 for t, _ in pairs)
    assert [type(c) for c in cli._parse_root("3.0,3,3")] == [float, int, int]
    assert [type(c) for c in cli._parse_root("9/4,9/2,4.5")] == [Fraction, Fraction, float]


@pytest.mark.parametrize("cutoff", [6, 20, 40])
def test_census_csv_has_one_row_per_record(capsys, cutoff):
    code, out, _ = run(capsys, "census", "--cutoff", str(cutoff), "--mode", "full")
    rows = []
    for t, (p, q), family in torus.one_intersection_census(torus.MODULAR_ROOT, cutoff, "full"):
        row = f"{cli._fmt(t)},{cli._fmt(trace_to_length(t))},{family},{p}/{q}"
        rows += [row] * (2 if family == "paired-fig8" else 1)
    assert code == 0 and out.splitlines() == ["trace,length,family,slope"] + rows


def test_input_errors_exit_2(capsys):
    code, _, err = run(capsys, "selfint", "--word", "axb")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "extend", "--genus", "0", "--classes", "2;3")
    assert code == 2
    code, _, err = run(capsys, "frobenius", "--classes", "bogus")
    assert code == 2
    code, _, err = run(capsys, "avgindex", "--rank", "40", "--seed", "1")
    assert code == 2 and "rank" in err  # only 26 generator letters
    for flag in ("--radius", "--samples"):
        code, _, err = run(capsys, "avgindex", flag, "0", "--seed", "1")
        assert code == 2 and "must be positive" in err
    code, _, err = run(capsys, "twocycles", "--perm", "1 2", "--degree", "2")
    assert code == 2 and "bad cycle notation" in err
    for argv in (
        ["twocycles", "--perm", "(1 -2)", "--degree", "2"],
        ["stripcover", "--sigma", "(1 2)", "--tau", "(1 2)(2 1)", "--degree", "2"],
        ["twocycles", "--perm", "e", "--degree", "100000000"],  # above the degree cap
        ["extend", "--genus", "0", "--classes", "3000;3000"],  # partitions above the cap
        ["frobenius", "--classes", "1001"],
        ["extend", "--genus", "1", "--classes", "1001"],
        ["lpsgirth", "--p", "7", "--q", "29"],  # p = 3 mod 4
        ["lpsgirth", "--p", "5", "--q", "10000000033"],  # above MAX_Q
        ["lpsgirth", "--p", "5", "--q", "23"],  # q = 3 mod 4, 5 a non-residue
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--counts-at", "inf"],
        ["census", "--counts-at", "nan"],
        ["census", "--counts-at", "1500"],  # 2cosh(750) overflows a float
        ["census", "--cutoff", "inf"],
        ["census", "--cutoff", "nan"],
        ["census", "--cutoff", "1500"],
        ["census", "--cutoff=-5"],
        ["mcshane", "--cutoff", "inf"],
        ["mcshane", "--cutoff", "nan"],
        ["mc2", "--cutoff", "inf"],
        ["mc2", "--cutoff", "nan"],
        ["census", "--counts-at", ""],  # an empty list of lengths
    ],
)
def test_unusable_cutoffs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "root", ["nan,nan,nan", "inf,inf,inf", "3,3,nan", "1e400,3,3", "1e200,3,3", "1e160,1e160,1e160"]
)
def test_non_finite_roots_exit_2(root):
    """In a subprocess with a timeout: a NaN root once walked forever."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for argv in (["census"], ["mcshane", "--cutoff", "100"], ["mc2", "--cutoff", "100"]):
        proc = subprocess.run(
            [sys.executable, "-m", "fig8.cli", *argv, f"--root={root}"],
            capture_output=True, text=True, timeout=20, env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), (argv, proc.stderr)
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# Pools of the torus fuzz: root entries, whole roots that can be walked,
# length cutoffs and trace cutoffs, each with junk text.
ROOT_ENTRIES = ["nan", "inf", "1e400", "1e200", "0", "-3", "2.9", "3", "3.0", "4.5", "15", "87",
                "1299", "x", "9/2", "1/0", "18"]
WALKABLE_ROOTS = ["3,3,3", "3.0,3,3", "3,3.0,3", "15,87,1299", "1299,15,87", "18,9/2,9/2",
                  "4,4,13.65685424949238"]
LENGTHS = ["nan", "inf", "1e400", "1e200", "0", "-3", "2.9", "3", "4.5", "15", "40", "x"]
TRACES = ["nan", "inf", "1e400", "0", "-3", "2.9", "3", "3.0", "4.5", "15", "87", "1299", "1e9", "x"]


# The float root 4,4,8+sqrt(32) flipped up three times, and the same root
# with its last entry times 1 + 1e-9: that meets the cusp relation within
# the slack relative to its size, and misses it by 3.4e-2 at its sink.
FLIPPED_ROOT = "50.62741699796952,687.4112549695427,34788.19940019109"
PERTURBED_ROOT = "50.62741699796952,687.4112549695427,34788.199434979295"


@pytest.mark.parametrize("argv", [["census"], ["mcshane", "--cutoff", "1e6"], ["mc2", "--cutoff", "1e6"]])
def test_a_root_off_the_cusp_relation_at_its_sink_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--root", PERTURBED_ROOT)
    assert (code, out, err) == (2, "", "error: cusp relation x^2 + y^2 + z^2 = xyz violated\n")
    for root in [FLIPPED_ROOT, *WALKABLE_ROOTS]:
        assert run(capsys, *argv, "--root", root)[0] == 0, root


def test_the_flipped_root_walks_within_the_float_slack(capsys):
    code, out, _ = run(capsys, "mcshane", "--cutoff", "1e6", "--root", FLIPPED_ROOT)
    assert code == 0 and json.loads(out) == {
        "cutoff": 1e6, "form": "trace", "partial_sum": 0.999999996, "schema": 1, "terms": 216
    }


# Torus jobs at four cutoffs each, smallest first: census lengths, --counts-at
# lists, and the trace cutoffs of mcshane (both forms) and mc2.
SESSION_FORMS = [
    (["census", "--mode", "paired", "--cutoff"], ["4.5", "8", "12", "20"]),
    (["census", "--mode", "full", "--cutoff"], ["4.5", "8", "12", "20"]),
    (["census", "--counts-at"], ["2,4", "12,8", "20,1", "30,12,36"]),
    (["mcshane", "--form", "trace", "--cutoff"], ["3", "100", "1e4", "1e8"]),
    (["mcshane", "--form", "length", "--cutoff"], ["9", "1000", "1e5", "1e9"]),
    (["mc2", "--cutoff"], ["9", "300", "3e4", "3e8"]),
]
SESSION_ROOTS = ["3,3,3", "3.0,3.0,3.0", "9/4,9/2,9/2", "18,9/2,9/2"]
SESSION_ERRORS = [
    ["mcshane", "--cutoff", "100", "--root", "3,3,4"],  # off the cusp relation
    ["census", "--cutoff", "4.0"],  # trace cutoff 2.508... below 3
    ["mcshane", "--cutoff", "nan"],
    ["mc2", "--cutoff", "nan", "--root", "9/4,9/2,9/2"],
]


def test_torus_results_do_not_depend_on_session_order(capsys, tmp_path, monkeypatch):
    """One process walks the Vieta tree once per root and answers smaller
    cutoffs from that walk.  Every job of a session, its cutoffs ascending,
    then descending, then shuffled across roots, with failing jobs between
    them, answers as it does in a process that walked nothing before it."""
    path = tmp_path / "artifact"

    def job(argv):
        path.unlink(missing_ok=True)
        code = main(["--output", str(path), *argv])
        return code, capsys.readouterr().err, path.read_bytes() if path.exists() else None

    jobs = []
    for root in SESSION_ROOTS:
        for order in (slice(None), slice(None, None, -1)):
            for i in range(4)[order]:
                jobs += [[*form, cutoffs[i], "--root", root] for form, cutoffs in SESSION_FORMS]
            jobs += SESSION_ERRORS
    shuffled = jobs[:]
    random.Random(41).shuffle(shuffled)
    jobs += shuffled
    monkeypatch.setattr(torus, "_walk", None)
    session = [job(argv) for argv in jobs]
    for argv, got in zip(jobs, session):
        monkeypatch.setattr(torus, "_walk", None)
        assert got == job(argv), argv
    assert {code for code, _, _ in session} == {0, 2}


def _ulps_around(x):
    x = float(x)
    return [math.nextafter(x, 0), x, math.nextafter(x, math.inf)]


def _slice_jobs(root, top):
    """Each torus job, with the oracle that built its artifact from its own
    slice of the walk: mcshane and mc2 at every simple, paired and companion
    trace <= top and an ulp either side, census at their lengths likewise;
    sorted by the cutoff they walk to."""
    simple = [t for t, _ in torus.enumerate_simple(root, top / 3)]
    eights = {float(eight_trace(t, 2, t)) for t in simple}
    eights |= {c for t in simple if (c := float(eight_trace(t, t, 2))) <= top}
    jobs = []
    for cutoff in sorted({c for t in eights | {float(t) for t in simple} for c in _ulps_around(t)}):
        for form in ("trace", "length"):
            jobs.append((["mcshane", "--cutoff", repr(cutoff), "--form", form], _oracle_mcshane, cutoff, form))
        jobs.append((["mc2", "--cutoff", repr(cutoff)], _oracle_mc2, cutoff))
    for length in sorted({c for t in eights for c in _ulps_around(trace_to_length(t))}):
        for mode in ("paired", "full"):
            jobs.append((["census", "--cutoff", repr(length), "--mode", mode], _oracle_census_csv, length, mode))
    return sorted(jobs, key=_walk_cutoff)


def _walk_cutoff(job):
    """The trace cutoff that a torus job walks to."""
    command, _, cutoff, *_ = job[0]
    trace = length_to_trace(float(cutoff)) if command == "census" else float(cutoff)
    return trace if command == "mcshane" else torus._census_cutoff(trace)


def _oracle_artifact(argv, oracle, *args, root):
    try:
        answer = oracle(root, *args)
    except ValueError as exc:
        return f"error: {exc}"
    if argv[0] == "census":
        return answer
    terms, total = answer
    if argv[0] == "mc2":
        payload = {"cutoff": float(argv[2]), "partial_sum": float(f"{total:.9g}"), "terms": terms}
    else:
        payload = {"cutoff": float(argv[2]), "form": argv[4], "partial_sum": float(f"{total:.9g}"), "terms": terms}
    return json.dumps({"schema": 1, **payload}, sort_keys=True) + "\n"


@pytest.mark.parametrize("root", ["3,3,3", "9/4,9/2,9/2", "4,4,13.65685424949238"])
def test_torus_jobs_slice_the_kept_tables_as_each_job_built_them(monkeypatch, root):
    """census (both modes), mcshane (both forms) and mc2 in one warm process
    equal the per-job oracle.  The cutoffs run down, so the first job walks
    and every later one slices a larger table than it needs, then up."""
    jobs = _slice_jobs(cli._parse_root(root), 10**6)
    want = [_oracle_artifact(argv, *rest, root=cli._parse_root(root)) for argv, *rest in jobs]
    monkeypatch.setattr(torus, "_walk", None)
    for order in (slice(None, None, -1), slice(None)):
        for (argv, *_), artifact in list(zip(jobs, want))[order]:
            args = cli._parser().parse_args([*argv, "--root", root])
            try:
                got = args.func(args)[1]
            except ValueError as exc:
                got = f"error: {exc}"
            assert got == artifact, argv
    assert {a.startswith("error: ") for a in want} == {False, True}  # the jobs at 9 - 1 ulp raise


def test_census_lines_grow_with_the_lengths_asked_of_one_walk(capsys, monkeypatch):
    """A walk kept to trace 1e9 holds census lines only to the largest
    length asked of it, and a larger length builds them again."""
    monkeypatch.setattr(torus, "_walk", None)
    run(capsys, "mcshane", "--cutoff", "1e9")
    for length in (8, 20, 12, 30, 30.5):
        for mode in ("paired", "full"):
            code, out, _ = run(capsys, "census", "--cutoff", repr(length), "--mode", mode)
            assert (code, out) == (0, _oracle_census_csv(torus.MODULAR_ROOT, length, mode)), length
    assert torus._walk[1] == 1e9 and torus._walk[3]["full"][0] == length_to_trace(30.5)


# A float root (x, (x^2 + 2)/3, z): the companion of x and the paired row of
# y = (x^2 + 2)/3 both have trace 60.47760531834409, the companion first by
# slope, 0/1 before 1/0.  At this length T is an ulp below that trace while
# T/3.0 rounds up to y; each row is judged by its own trace, so neither is listed.
TIED_ROOT = "7.647065144115361,20.159201772781362,151.0817796091742"
TIED_LENGTH = 8.203999233066979


def _census_line_counts(root, lengths):
    """{length: (N1_paired, N1_full)} by census --counts-at, and the census
    line counts of both modes at each length, or None where census refuses:
    first built anew at each length, then sliced from those of the largest."""
    args = cli._parser().parse_args(["census", "--root", root, "--counts-at", ",".join(map(repr, lengths))])
    counts = [line.split(",")[2:] for line in args.func(args)[1].splitlines()[1:]]
    want = {length: tuple(map(int, n1)) for length, n1 in zip(lengths, counts)}
    got = {}
    for order in (slice(None), slice(None, None, -1)):  # ascending lengths build, descending slice
        for length in lengths[order]:
            census = []
            for mode in ("paired", "full"):
                args = cli._parser().parse_args(["census", "--root", root, "--cutoff", repr(length), "--mode", mode])
                try:
                    census.append(len(args.func(args)[1].splitlines()) - 1)
                except ValueError:
                    census.append(None)
            assert got.setdefault(length, tuple(census)) == tuple(census), length
    return want, got


@pytest.mark.parametrize("root", ["3,3,3", "9/4,9/2,9/2", "4,4,13.65685424949238", TIED_ROOT])
def test_census_lines_agree_with_counts_at(monkeypatch, root):
    """At every paired and companion trace <= 1e6 and an ulp either side, in
    length, census lists N1_paired lines in paired mode and N1_full in full
    mode, refusing only where the trace cutoff's third is below 3."""
    simple = [t for t, _ in torus.enumerate_simple(cli._parse_root(root), 10**6 / 3)]
    eights = {float(eight_trace(t, 2, t)) for t in simple}
    eights |= {c for t in simple if (c := float(eight_trace(t, t, 2))) <= 10**6}
    lengths = sorted({c for t in eights for c in _ulps_around(trace_to_length(t))})
    monkeypatch.setattr(torus, "_walk", None)
    want, got = _census_line_counts(root, lengths)
    for length in lengths:
        if length_to_trace(length) / 3.0 < 3:
            assert got[length] == (None, None), length
        else:
            assert got[length] == want[length], length


def test_census_lists_neither_row_tied_an_ulp_above_the_cutoff(capsys, monkeypatch):
    root = cli._parse_root(TIED_ROOT)
    trace_cutoff = length_to_trace(TIED_LENGTH)
    assert eight_trace(root[0], root[0], 2) == eight_trace(root[1], 2, root[1]) == 60.47760531834409 > trace_cutoff
    assert root[1] == trace_cutoff / 3.0
    code, out, _ = run(capsys, "census", "--root", TIED_ROOT, "--counts-at", repr(TIED_LENGTH))
    assert (code, out.splitlines()[1].split(",")[2:]) == (0, ["20", "25"])
    for mode, lines in (("paired", 20), ("full", 25)):
        argv = ["census", "--root", TIED_ROOT, "--cutoff", repr(TIED_LENGTH), "--mode", mode]
        monkeypatch.setattr(torus, "_walk", None)
        cold = run(capsys, *argv)
        run(capsys, "census", "--root", TIED_ROOT, "--cutoff", "20", "--mode", mode)
        assert run(capsys, *argv) == cold  # a slice of the lines kept to length 20
        assert cold[:2] == (0, _oracle_census_csv(root, TIED_LENGTH, mode))
        assert len(cold[1].splitlines()) == 1 + lines
        assert not any(line.startswith("60.4776053,") for line in cold[1].splitlines())
        rows = torus.one_intersection_census(root, TIED_LENGTH, mode)
        assert rows == _oracle_one_intersection_census(root, TIED_LENGTH, mode)
        assert len(rows) == {"paired": 10, "full": 15}[mode]


def test_mc2_counts_the_paired_geodesics_that_counts_at_counts(capsys):
    """At the tied root and T an ulp below the tied trace, mc2 has the
    N1_paired terms of census --counts-at, not the 22 of every t <= T/3.0."""
    trace_cutoff = length_to_trace(TIED_LENGTH)
    assert trace_cutoff == 60.47760531834408
    _, out, _ = run(capsys, "census", "--root", TIED_ROOT, "--counts-at", repr(TIED_LENGTH))
    n_paired = int(out.splitlines()[1].split(",")[2])
    code, out, _ = run(capsys, "mc2", "--root", TIED_ROOT, "--cutoff", repr(trace_cutoff))
    terms, total = _oracle_mc2(cli._parse_root(TIED_ROOT), trace_cutoff)
    payload = {"cutoff": trace_cutoff, "partial_sum": float(f"{total:.9g}"), "schema": 1, "terms": terms}
    assert (code, json.loads(out)) == (0, payload)
    assert terms == n_paired == 20


@st.composite
def torus_argvs(draw):
    entries = st.lists(st.sampled_from(ROOT_ENTRIES), min_size=1, max_size=4)
    root = draw(st.one_of(st.sampled_from(WALKABLE_ROOTS), entries.map(",".join)))
    command = draw(st.sampled_from(["census", "counts-at", "mcshane", "mc2"]))
    if command == "census":
        mode = draw(st.sampled_from(["paired", "full"]))
        argv = ["census", f"--cutoff={draw(st.sampled_from(LENGTHS))}", f"--mode={mode}"]
    elif command == "counts-at":
        lengths = draw(st.lists(st.sampled_from(LENGTHS), min_size=1, max_size=4))
        argv = ["census", f"--counts-at={','.join(lengths)}"]
    else:
        argv = [command, f"--cutoff={draw(st.sampled_from(TRACES))}"]
        if command == "mcshane":
            argv.append(f"--form={draw(st.sampled_from(['trace', 'length']))}")
    return [*argv, f"--root={root}"]


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(torus_argvs())
def test_torus_commands_keep_the_exit_contract(argv):
    """Lengths stay <= 40 and trace cutoffs <= 1e9, so every walk is short."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a junk --cutoff
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert (code == 0) == (err.getvalue() == ""), argv


# Pools of the fuzz of the other subcommands: cycle strings, some malformed,
# junk partitions, and primes for lpsgirth, most of them valid.
CYCLE_TEXTS = ["e", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 2 3 4)", "(1 3)(2 4)", "(2 1)(3 4 5)",
               "(1 2 3 4 5 6 7 8)", "(1 9)", "(1 1)", "(1 2)(2 3)", "(0 1)", "(1 -2)", "1 2", "()",
               "(", "(a b)", ""]
JUNK_CLASSES = ["", "0", "2,,1", "x", "-1,3", "3;", "2^2", "1,1;x"]
LPS_P = [5, 13, 17, 5, 13, 17, -5, 0, 1, 2, 3, 9]
LPS_Q = [13, 17, 29, 37, 5, 13, 17, 29, 37, -13, 0, 1, 4]


@st.composite
def partition_texts(draw, n, uniform=False):
    if uniform:  # equal parts, as a regular cover's boundary needs
        d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        return ",".join([str(d)] * (n // d))
    parts = []
    while n:
        parts.append(draw(st.integers(1, n)))
        n -= parts[-1]
    return ",".join(map(str, parts))


@st.composite
def classes_texts(draw, max_degree, uniform=False):
    """1 to 4 classes of one degree (of equal parts half the time if uniform);
    a last class of another degree, or junk, now and then."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(JUNK_CLASSES))
    n = draw(st.integers(1, max_degree))
    degrees = [n] * draw(st.integers(0, 3)) + [draw(st.sampled_from([n, n, n, n + 1]))]
    return ";".join(draw(partition_texts(d, uniform and draw(st.booleans()))) for d in degrees)


@st.composite
def other_argvs(draw):
    command = draw(st.sampled_from(
        ["extend", "regular-extend", "frobenius", "twocycles", "stripcover", "stallings", "prime",
         "depth", "witness", "selfint", "surface-certify", "expectedprime", "avgindex", "lpsgirth"]
    ))
    argv = [command]
    if command == "extend":
        argv += [f"--genus={draw(st.integers(-1, 3))}", f"--classes={draw(classes_texts(8))}"]
        argv += ["--transitive"] if draw(st.booleans()) else []
    elif command == "regular-extend":  # degree 9 is one past the search cap
        argv += [f"--genus={draw(st.integers(-1, 3))}", f"--classes={draw(classes_texts(9, True))}"]
    elif command == "frobenius":
        argv.append(f"--classes={draw(classes_texts(20))}")
    elif command in ("twocycles", "stripcover"):
        perms = ["--perm"] if command == "twocycles" else ["--sigma", "--tau"]
        argv += [f"{flag}={draw(st.sampled_from(CYCLE_TEXTS))}" for flag in perms]
        argv.append(f"--degree={draw(st.sampled_from([2, 3, 4, 5, 8, 8, 0, -1]))}")
    elif command == "expectedprime":
        argv.append(f"--terms={draw(st.integers(-2, 50))}")
    elif command == "avgindex":
        argv += [f"--rank={draw(st.integers(1, 4))}", f"--radius={draw(st.integers(0, 12))}",
                 f"--samples={draw(st.integers(0, 30))}", f"--seed={draw(st.integers(0, 9))}"]
    elif command == "lpsgirth":
        argv += [f"--p={draw(st.sampled_from(LPS_P))}", f"--q={draw(st.sampled_from(LPS_Q))}"]
    else:
        alphabet = draw(st.sampled_from(["abAB", "abAB", "abcdABCD", "abcdABCDx"]))
        argv.append(f"--word={draw(st.text(alphabet=alphabet, max_size=12))}")
        if command in ("depth", "witness"):
            argv.append(f"--max-k={draw(st.integers(-1, 8))}")
    return argv


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(other_argvs())
def test_every_other_subcommand_keeps_the_exit_contract(argv):
    """Degree <= 9 (20 for frobenius), words of <= 12 letters: exit 0 or 1
    writes nothing on stderr, and exit 2 or 3 writes one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code in (0, 1):
        assert err.getvalue() == "", argv
    else:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(w):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli.selfint, "self_intersection", broken)
    code, out, err = run(capsys, "selfint", "--word", "ab")
    assert (code, out, err) == (4, "", "internal error: ZeroDivisionError: boom\n")


@pytest.mark.parametrize(
    "target,name,broken,argv",
    [
        (covers, "commutator", lambda a, b: a, ["twocycles", "--perm", "(1 2 3)", "--degree", "3"]),
        (covers.ExtendDecision, "verify", lambda self: False, ["extend", "--genus", "1", "--classes", "3"]),
        (perms, "class_size", lambda mu: 1, ["frobenius", "--classes", "2,1;2,1;3"]),
        (magnus.MagnusSeries, "reduce_mod", lambda self, p: magnus.MagnusSeries.one(self.degree),
         ["witness", "--word", "abAB", "--max-k", "2"]),
    ],
    ids=["twocycles", "extend", "frobenius", "witness"],
)
def test_a_failed_re_verification_is_an_internal_error(capsys, monkeypatch, target, name, broken, argv):
    """A witness that fails its own check is a fault of the program, exit 4,
    not invalid input."""
    monkeypatch.setattr(target, name, broken)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "") and err.startswith("internal error: AssertionError: ")


def test_no_re_verification_is_an_assert_statement():
    """python -O strips assert statements, so a check written as one would
    vanish there; every re-verification raises AssertionError itself."""
    for path in sorted((Path(__file__).parents[1] / "src" / "fig8").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)


def test_modules_raise_only_the_exit_contract_types():
    """Invalid input is a ValueError (exit 2) and a failed re-verification an
    AssertionError (exit 4); TypeError guards Mat2's operators.  No module
    defines an exception class of its own, so cli.main needs no other."""
    for path in sorted((Path(__file__).parents[1] / "src" / "fig8").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {"ValueError", "AssertionError"} | ({"TypeError"} if path.name == "sl2.py" else set())
        classes = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(ast.unparse(base).endswith(("Error", "Exception", "Warning")) for base in node.bases)
        ]
        raised = {
            ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) if node.exc else "raise"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
        }
        assert classes == [] and raised <= allowed, (path.name, classes, raised - allowed)


@pytest.mark.parametrize("word", ["a1", "a b", "aé", "a-A"])
def test_stallings_rejects_non_letters(capsys, word):
    """stallings takes its alphabet from the word, and free reduction is
    defined on ASCII letters only."""
    code, out, err = run(capsys, "stallings", "--word", word)
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_stallings_twocycles_stripcover(capsys):
    code, out, _ = run(capsys, "stallings", "--word", "aa")
    assert code == 0 and json.loads(out)["assignment"]["a"] == "(1 2 3)"
    code, out, _ = run(capsys, "twocycles", "--perm", "(1 2 3)", "--degree", "3")
    assert code == 0
    code, _, _ = run(capsys, "twocycles", "--perm", "(1 2)", "--degree", "3")
    assert code == 2  # odd permutation is an input error
    code, out, _ = run(capsys, "stripcover", "--sigma", "(1 2 3)", "--tau", "(1 2)", "--degree", "3")
    assert code == 0 and json.loads(out)["boundary_components"] == 1


# One argv per subcommand that writes an artifact.
ARTIFACT_ARGVS = [
    ["census", "--cutoff", "6", "--mode", "full"],
    ["census", "--counts-at", "8,12"],
    ["mcshane", "--cutoff", "50", "--form", "length"],
    ["mc2", "--cutoff", "60"],
    ["extend", "--genus", "1", "--classes", "2"],
    ["regular-extend", "--genus", "1", "--classes", "9"],
    ["frobenius", "--classes", "2,1;2,1;3"],
    ["twocycles", "--perm", "(1 2 3)", "--degree", "3"],
    ["stripcover", "--sigma", "(1 2 3)", "--tau", "(1 2)", "--degree", "3"],
    ["stallings", "--word", "aab"],
    ["prime", "--word", "abAB"],
    ["prime", "--scatter", "--samples", "3", "--maxlen", "20", "--seed", "5"],
    ["depth", "--word", "abAB"],
    ["witness", "--word", "abAB", "--max-k", "2"],
    ["expectedprime", "--terms", "12"],
    ["avgindex", "--rank", "3", "--radius", "6", "--samples", "50", "--seed", "3"],
    ["lpsgirth", "--p", "5", "--q", "13"],
    ["surface-certify", "--word", "acBD"],
]

# (argv, exit code, start of stderr) of jobs that write no artifact.
ERROR_ARGVS = [
    (["nonsense"], 2, "usage: fig8"),  # argparse rejects the subcommand
    (["prime"], 2, "usage: fig8"),  # argparse group: one of --word and --scatter is required
    (["prime", "--word", "abAB", "--scatter"], 2, "usage: fig8"),  # and not both
    (["selfint", "--word", "axb"], 2, "error: "),  # ValueError
    (["census", "--root", "1/0,3,3"], 2, "error: zero denominator"),  # not ZeroDivisionError
    (["witness", "--word", "abAB", "--k", "2"], 2, "usage: fig8"),  # --max-k is the one depth knob
    (["regular-extend", "--genus", "1", "--classes", "2,2,2,2,2,2", "--budget", "9"], 2, "usage: fig8"),  # the degree cap is fixed
    (["selfint", "--word", "ab"], 4, "internal error: ZeroDivisionError: boom"),
]


def test_parser_is_built_once_and_reused(capsys, monkeypatch, tmp_path):
    def broken(w):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli.selfint, "self_intersection", broken)
    path = tmp_path / "artifact"
    build = cli.build_parser
    expected = {}
    for argv in ARTIFACT_ARGVS:  # a fresh parser per job, as before the reuse
        args = build().parse_args(argv)
        code, artifact, *notes = args.func(args)
        expected[tuple(argv)] = (code, "".join(f"{note}\n" for note in notes), artifact.encode())

    # Wrap build_parser as the benchmark's tracer does: each call re-wraps
    # parse_args of the parser it returns, so a parser built once but wrapped
    # per job would nest one wrapper per call and overflow the stack.
    builds = []

    def counting_build_parser():
        builds.append(1)
        parser = build()
        parse = parser.parse_args

        def parse_args(*a, **kw):
            return parse(*a, **kw)

        parser.parse_args = parse_args
        return parser

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    errors = {tuple(argv): (code, err) for argv, code, err in ERROR_ARGVS}
    jobs = ARTIFACT_ARGVS + [argv for argv, _, _ in ERROR_ARGVS]
    try:
        for k in range(1200):  # more calls than the default recursion limit
            argv = jobs[k % len(jobs)]
            try:
                code = main(["--output", str(path), *argv])
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert "RecursionError" not in err
            if tuple(argv) in expected:
                assert (code, err, path.read_bytes()) == expected[tuple(argv)], argv
                path.unlink()
            else:
                want_code, want_err = errors[tuple(argv)]
                assert code == want_code and err.startswith(want_err), argv
                assert not path.exists()
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


@pytest.mark.parametrize("argv", ARTIFACT_ARGVS)
def test_stdout_and_output_file_get_the_same_bytes(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv)
    path = tmp_path / "artifact"
    assert run(capsys, "--output", str(path), *argv) == (code, "", err)
    assert path.read_bytes() == out.encode()


def test_unwritable_output_exits_2(capsys, tmp_path):
    for target in (tmp_path / "missing" / "x", tmp_path):  # no such folder; a folder
        for argv in (["selfint", "--word", "aabAB"], ["regular-extend", "--genus", "1", "--classes", "9"]):
            code, out, err = run(capsys, "--output", str(target), *argv)
            assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


def test_stallings_traces_a_long_word_in_bounded_time(capsys):
    """The basepoint check once multiplied out the word: quadratic in |w|."""
    word = "abAB" * 2000
    start = time.perf_counter()
    code, out, _ = run(capsys, "stallings", "--word", word)
    assert code == 0 and time.perf_counter() - start < 1.0
    payload = json.loads(out)
    d = payload["degree"]
    images, inverses = {}, {}
    for g, text in payload["assignment"].items():  # Permutation.parse caps the degree at 1000
        cycles = [tuple(map(int, c.split())) for c in text[1:-1].split(")(")]
        images[g] = Permutation.from_cycles(d, cycles).images
        inverses[g] = {v: i for i, v in enumerate(images[g])}
    point = 0
    for ch in payload["word"]:
        point = images[ch][point] if ch.islower() else inverses[ch.lower()][point]
    assert (d, point) == (8001, 8000)
