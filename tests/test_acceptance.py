"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Lines are printed outside pytest's capture so they always appear in the run
log.  A failing criterion prints its FAIL line and then fails the test.
"""

import math
import random
import time
from itertools import product

from fig8 import cli
from fig8.covers import CoverSpec, commutator_witness, extends_cover, strip_cover, two_n_cycles
from fig8.genus2 import RELATOR, certify_nontrivial, dehn_oracle
from fig8.lps import lps_girth_check
from fig8.magnus import lcs_depth, unipotent_witness
from fig8.perms import (
    Permutation,
    class_elements,
    frobenius_count,
    partitions_of,
)
from fig8.resfin import average_index_simulation, expected_min_prime, sanov_eval, smallest_excluding_prime
from fig8.selfint import self_intersection
from fig8.sl2 import fig8_length
from fig8.torus import (
    MODULAR_ROOT,
    census_counts,
    enumerate_simple,
    growth_exponent,
    mcshane_sum,
    one_intersection_census,
)
from fig8.words import Word, random_reduced_word
from oracles import all_permutations


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _traces(cutoff):
    return [t for t, _ in enumerate_simple(MODULAR_ROOT, cutoff)]


def _mcshane(cutoff):
    return mcshane_sum(_traces(cutoff))


def _mc2(cutoff):
    return 2 * mcshane_sum(_traces(cutoff / 3))


def test_criterion_01_mcshane_identity(capsys):
    t0 = time.perf_counter()
    cutoffs = [10, 100, 10**4, 10**6]
    sums = [_mcshane(c) for c in cutoffs]
    elapsed = time.perf_counter() - t0
    final = sums[-1]
    ok = abs(final - 1.0) < 5e-3 and sums == sorted(sums) and elapsed < 10
    report(
        capsys, 1, ok,
        f"McShane trace-form sum at cutoff 1e6 = {final:.9f} (|1-sum| < 5e-3, "
        f"monotone, {elapsed:.2f}s < 10s)",
    )


def test_criterion_02_self_intersection_identity(capsys):
    total = _mc2(3 * 10**6)
    termwise = all(abs(_mc2(c) - 2 * _mcshane(c / 3)) < 1e-12 for c in (9, 100, 10**4, 3 * 10**6))
    ok = abs(total - 2.0) < 5e-3 and termwise
    report(
        capsys, 2, ok,
        f"mc2 sum at cutoff 3e6 = {total:.9f} (within 5e-3 of 2), termwise "
        f"identity mc2(c) = 2*mcshane(c/3): {termwise}",
    )


def test_criterion_03_minimal_fig8_length(capsys):
    value = fig8_length(0, 0, 0)
    rows = one_intersection_census(MODULAR_ROOT, 6.0, "full")
    min_trace = min(t for t, _, _ in rows)
    ok = abs(value - 3.52549) < 5e-6 and abs(value - 2 * math.acosh(3)) < 1e-12 and min_trace == 9
    report(
        capsys, 3, ok,
        f"fig8_length(0,0,0) = {value:.5f} = 2*acosh(3); full-census minimum trace = {min_trace}",
    )


def test_criterion_04_trace_relation(capsys):
    cutoff = 10**4
    parent_traces = {st: t for t, st in enumerate_simple(MODULAR_ROOT, cutoff / 3)}
    length_cutoff = 2 * math.acosh(cutoff / 2)
    paired = one_intersection_census(MODULAR_ROOT, length_cutoff, "paired")
    ok = len(paired) > 0 and all(
        isinstance(t, int) and t == 3 * parent_traces[st] for t, st, _ in paired
    )
    report(
        capsys, 4, ok,
        f"all {len(paired)} paired-family traces equal exactly 3x their parent "
        f"simple trace (integer equality, trace cutoff 1e4)",
    )


def test_criterion_05_growth_exponent_and_ratio(capsys):
    samples = [(l, census_counts(MODULAR_ROOT, [l])[0][0]) for l in (12, 14, 16, 18, 20, 22)]
    slope = growth_exponent(samples)
    n0, n1p, n1f = census_counts(MODULAR_ROOT, [20])[0]
    ratio = n1p / n0
    full_ratio = n1f / n0
    slope_ok = 1.8 <= slope <= 2.2
    ratio_ok = 1.7 <= ratio <= 2.3
    report(
        capsys, 5, slope_ok and ratio_ok,
        f"log-log slope over L in [12,22] = {slope:.3f} (in [1.8,2.2]: {slope_ok}); "
        f"N1_paired/N0 at L=20 = {n1p}/{n0} = {ratio:.3f} (in [1.7,2.3]: {ratio_ok}); "
        f"full-census ratio reported without assertion: {full_ratio:.3f}",
    )


def _compose(s, t):
    return tuple(t[i] for i in s)


def _inverse(s):
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def test_criterion_06_frobenius_bruteforce(capsys):
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 6):
        parts = list(partitions_of(n))
        pools = {p: [g.images for g in class_elements(p)] for p in parts}
        identity = tuple(range(n))
        for k in (1, 2, 3):
            for classes in product(parts, repeat=k):
                brute = 0
                if k == 1:
                    brute = sum(1 for g in pools[classes[0]] if g == identity)
                elif k == 2:
                    second = set(pools[classes[1]])
                    brute = sum(1 for g in pools[classes[0]] if _inverse(g) in second)
                else:
                    third = set(pools[classes[2]])
                    for g1 in pools[classes[0]]:
                        for g2 in pools[classes[1]]:
                            if _inverse(_compose(g1, g2)) in third:
                                brute += 1
                if frobenius_count(list(classes)) != brute:
                    ok = False
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    report(
        capsys, 6, ok,
        f"frobenius_count = exhaustive brute force on all {checked} class tuples "
        f"(n <= 5, k <= 3), exact integer equality, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_extension_vs_bruteforce(capsys):
    ok = True
    checked = 0
    for n in range(2, 6):
        perms = [g.images for g in all_permutations(n)]
        identity = tuple(range(n))
        singles = {
            _compose(_compose(a, b), _compose(_inverse(a), _inverse(b)))
            for a in perms
            for b in perms
        }
        targets = {0: {identity}}
        targets[1] = singles
        targets[2] = {_compose(x, y) for x in singles for y in singles}
        inv_targets = {g: {_inverse(t) for t in targets[g]} for g in targets}
        parts = list(partitions_of(n))
        pools = {p: [g.images for g in class_elements(p)] for p in parts}
        pair_products = {
            (p1, p2): {_compose(g1, g2) for g1 in pools[p1] for g2 in pools[p2]}
            for p1 in parts
            for p2 in parts
        }
        for genus in (0, 1, 2):
            shifted = {
                p: {_compose(t, _inverse(g)) for t in inv_targets[genus] for g in pools[p]}
                for p in parts
            }
            for k in (1, 2, 3):
                for classes in product(parts, repeat=k):
                    if k == 1:
                        brute = any(g in inv_targets[genus] for g in pools[classes[0]])
                    elif k == 2:
                        brute = bool(pair_products[classes] & inv_targets[genus])
                    else:
                        brute = bool(
                            pair_products[classes[0], classes[1]] & shifted[classes[2]]
                        )
                    decision = extends_cover(CoverSpec(genus, classes))
                    if decision.extends != brute or not decision.verify():
                        ok = False
                    checked += 1
    # the Gamma(2) double-cover component pattern
    from fig8.covers import boundary_lift_components

    flip = Permutation.parse("(1 2)", 2)
    pattern = boundary_lift_components(
        {"a": flip, "b": flip}, [Word("a"), Word("b"), Word("BA")]
    )
    ok = ok and pattern == [1, 1, 2]
    report(
        capsys, 7, ok,
        f"extends_cover = brute-force homomorphism search on {checked} specs "
        f"(genus <= 2, n <= 5, k <= 3); Gamma(2) lift pattern A,B connected / C two "
        f"components: {pattern}",
    )


def test_criterion_08_constructions(capsys):
    ok = True
    verified = 0
    for n in range(3, 8):
        for sigma in all_permutations(n):
            if not sigma.is_even():
                continue
            c1, c2 = two_n_cycles(sigma)
            a, b = commutator_witness(c1, c2)
            from fig8.perms import commutator

            if c1 * c2 != sigma or commutator(a, b) != sigma:
                ok = False
            verified += 1
    # Euler identity 2 - 2g - b = -n for every strip cover.  Conjugating
    # (sigma, tau) -> (g sigma g^-1, g tau g^-1) preserves both sides and acts
    # transitively on n-cycles, so the standard n-cycle with all tau covers
    # every (sigma, tau) pair; the full product is also swept for n <= 5.
    from fig8.perms import class_representative

    euler = 0
    for n in range(2, 8):
        sigma0 = class_representative((n,))
        for tau in all_permutations(n):
            cover = strip_cover(sigma0, tau)
            if 2 - 2 * cover.cover_genus - cover.boundary_components != -n:
                ok = False
            euler += 1
    for n in (2, 3, 4, 5):
        for sigma in (g for g in all_permutations(n) if g.cycle_type() == (n,)):
            for tau in all_permutations(n):
                cover = strip_cover(sigma, tau)
                if 2 - 2 * cover.cover_genus - cover.boundary_components != -n:
                    ok = False
    report(
        capsys, 8, ok,
        f"two_n_cycles and commutator_witness verified on all {verified} even "
        f"permutations of S3..S7; strip-cover Euler identity on {euler} "
        f"representative (sigma,tau) pairs, n <= 7 (full sweep for n <= 5)",
    )


def test_criterion_09_excluding_primes(capsys, tmp_path):
    rng = random.Random(0)
    ok = True
    worst = 0.0
    for _ in range(1000):
        w = random_reduced_word(rng, 300)
        matrix = sanov_eval(w)
        if max(map(abs, matrix)) > 2 ** len(w):
            ok = False
        witness = smallest_excluding_prime(w)
        worst = max(worst, witness.prime / len(w))
        if witness.prime > 10 * len(w):
            ok = False
    scatter = tmp_path / "prime_scatter.csv"
    code = cli.main(
        ["--output", str(scatter), "prime", "--scatter", "--samples", "1000",
         "--maxlen", "300", "--seed", "0"]
    )
    ok = ok and code == 0 and scatter.read_text().startswith("length,prime\n")
    report(
        capsys, 9, ok,
        f"1000 seeded words (length <= 300): p <= 10n (worst p/n = {worst:.4f}), "
        f"entry bound |entry| <= 2^n, scatter CSV emitted to {scatter.name}",
    )


def test_criterion_10_depth_detection(capsys):
    ok = lcs_depth(Word("a")) == 1 and lcs_depth(Word("b")) == 1
    w = Word("a")
    for j in range(1, 5):
        w = w * Word("b") * w.inverse() * Word("B")
        if lcs_depth(w, max_k=6) != j + 1:
            ok = False
    heisenberg = unipotent_witness(Word("abAB"), 2)
    ok = ok and heisenberg.modulus == 2 and heisenberg.ambient_index == 8
    report(
        capsys, 10, ok,
        f"lcs_depth = j+1 on iterated brackets (j+1 <= 5), 1 on generators; "
        f"Heisenberg witness for abAB: modulus {heisenberg.modulus}, ambient "
        f"index {heisenberg.ambient_index}",
    )


def test_criterion_11_expected_prime_constant(capsys):
    value = expected_min_prime(9)
    sim = average_index_simulation(2, 20, 10**4, seed=2024)
    ok = abs(value - 2.920051) < 1e-5 and sim.mean < 3.0
    report(
        capsys, 11, ok,
        f"expected_min_prime(9) = {value:.6f} (2.920051 +- 1e-5); simulation mean "
        f"(k=2, N=20, 1e4 samples, seed 2024) = {sim.mean:.4f} < 3.0 "
        f"({sim.excluded_zero_abelianization} zero-abelianization words excluded)",
    )


def test_criterion_12_lps_girth(capsys):
    ok = True
    details = []
    for p, q in ((5, 13), (5, 17)):
        t0 = time.perf_counter()
        result = lps_girth_check(p, q)
        elapsed = time.perf_counter() - t0
        if not (result.passed and elapsed < 10 and result.group_order == 2 * result.psl_order):
            ok = False
        details.append(
            f"({p},{q}): girth {result.girth} >= {result.bound_ceil} from the norm equation, "
            f"PGL order {result.group_order} (PSL order {result.psl_order}), {elapsed:.2f}s"
        )
    report(capsys, 12, ok, "; ".join(details))


def test_criterion_13_genus2_pipeline(capsys):
    rng = random.Random(0)
    ok = True
    disagreements = 0
    bound_failures = 0
    for _ in range(10**4):
        w = random_reduced_word(rng, 40, "abcd")
        cert = certify_nontrivial(w)
        if cert.nontrivial != (dehn_oracle(w) == "nontrivial"):
            disagreements += 1
        if cert.nontrivial and len(cert.witness) > len(w) ** 2 + len(w):
            bound_failures += 1
    letters = "abcdABCD"
    inv = str.maketrans(letters, "ABCDabcd")
    relator_ok = certify_nontrivial(Word(RELATOR, "abcd")).verdict == "TRIVIAL-CONSISTENT"
    for _ in range(100):
        pieces = []
        for _ in range(rng.randrange(1, 4)):
            g = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
            base = RELATOR if rng.random() < 0.5 else RELATOR.translate(inv)[::-1]
            pieces.append(g + base + g.translate(inv)[::-1])
        if certify_nontrivial(Word("".join(pieces), "abcd")).verdict != "TRIVIAL-CONSISTENT":
            relator_ok = False
    ok = disagreements == 0 and bound_failures == 0 and relator_ok
    report(
        capsys, 13, ok,
        f"10^4-word corpus (length <= 40): certify/oracle disagreements = "
        f"{disagreements}, witness length-bound failures = {bound_failures}; relator "
        f"and 100 conjugate-products all TRIVIAL-CONSISTENT: {relator_ok}",
    )


def test_criterion_14_self_intersection_counter(capsys):
    values = {w: self_intersection(Word(w)) for w in ("a", "b", "ab", "aabAB", "ABAb")}
    ok = values == {"a": 0, "b": 0, "ab": 0, "aabAB": 1, "ABAb": 1}
    report(
        capsys, 14, ok,
        f"self_intersection: {values} (expected 0,0,0,1,1; radius-stability asserted "
        f"internally)",
    )
