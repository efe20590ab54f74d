"""Command-line frontend: one subcommand per operation cluster.

Each subcommand returns its exit code, artifact text and any stderr note;
``main`` alone writes them, the artifact to --output or stdout.  Exit
codes: 0 success / positive decision, 1 negative decision, 2 input error
(an unwritable --output too), 3 beyond a search cap ("unknown", with a
note naming the cap), 4 internal error (any other exception, reported as
one line).  Output is deterministic JSON (sorted keys, schema-versioned)
or CSV with 9-significant-digit floats; randomized subcommands require an
explicit --seed.  ``main`` builds the parser once per process and reuses it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import random
import string
import sys
from fractions import Fraction

from . import covers, genus2, lps, magnus, resfin, selfint, torus
from .perms import Partition, Permutation, frobenius_count, parse_partition
from .sl2 import trace_to_length
from .words import Word, random_reduced_word

SCHEMA = 1


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _json(payload: dict) -> str:
    return json.dumps({"schema": SCHEMA, **payload}, sort_keys=True) + "\n"


def _csv(header: str, rows: list[str]) -> str:
    return "\n".join([header] + rows) + "\n"


def _mat_json(entries: tuple[int, int, int, int]) -> list[list[str]]:
    a11, a12, a21, a22 = (str(x) for x in entries)
    return [[a11, a12], [a21, a22]]


def _parse_classes(text: str) -> list[Partition]:
    return [parse_partition(chunk) for chunk in text.split(";")]


def _number(text: str) -> int | Fraction | float:
    try:
        return Fraction(text) if "/" in text else int(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text}") from None
    except ValueError:
        return float(text)


def _parse_root(text: str) -> torus.TraceTriple:
    """Integer coordinates stay int and p/q ones Fraction, so walks from them are exact."""
    x, y, z = (_number(v) for v in text.split(","))
    return x, y, z


def _cmd_census(args) -> tuple[int, str]:
    root = _parse_root(args.root)
    if args.counts_at is not None:
        lengths = [float(v) for v in args.counts_at.split(",")]
        counts = torus.census_counts(root, lengths)
        rows = [f"{_fmt(x)},{n0},{n1p},{n1f}" for x, (n0, n1p, n1f) in zip(lengths, counts)]
        return 0, _csv("L,N0,N1_paired,N1_full", rows)
    rows = []  # a paired row stands for two geodesics: it is written twice
    for t, (p, q), family in torus.one_intersection_census(root, args.cutoff, args.mode):
        row = f"{_fmt(t)},{_fmt(trace_to_length(t))},{family},{p}/{q}"
        rows += (row, row) if family == "paired-fig8" else (row,)
    return 0, _csv("trace,length,family,slope", rows)


def _cmd_mcshane(args) -> tuple[int, str]:
    root = _parse_root(args.root)
    traces = [t for t, _ in torus.enumerate_simple(root, args.cutoff)]
    total = torus.mcshane_sum(traces, args.form)
    return 0, _json(
        {
            "cutoff": args.cutoff,
            "form": args.form,
            "partial_sum": float(_fmt(total)),
            "terms": len(traces),
        },
    )


def _cmd_mc2(args) -> tuple[int, str]:
    root = _parse_root(args.root)
    traces = [t for t, _ in torus.enumerate_simple(root, args.cutoff / 3.0)]
    # each simple trace t carries two paired terms of trace 3t, and the term
    # 1 - sqrt(1 - (6/3t)^2) of each is the McShane term of t: the sum tends to 2
    total = 2 * torus.mcshane_sum(traces)
    return 0, _json(
        {"cutoff": args.cutoff, "partial_sum": float(_fmt(total)), "terms": 2 * len(traces)},
    )


def _cmd_selfint(args) -> tuple[int, str]:
    w = Word(args.word, "ab")
    return 0, _json({"word": w.letters, "self_intersection": selfint.self_intersection(w)})


def _cmd_extend(args) -> tuple[int, str]:
    spec = covers.CoverSpec(args.genus, tuple(_parse_classes(args.classes)))
    decision = covers.extends_cover(spec, transitive=args.transitive)
    payload = {"extends": decision.extends, "reason": decision.reason}
    if decision.extends:
        handles = [[str(a), str(b)] for a, b in decision.handles]
        payload["witness"] = {
            "handles": handles + [["e", "e"]] * (spec.genus - len(handles)),
            "boundaries": [str(g) for g in decision.boundaries],
        }
    return (0 if decision.extends else 1), _json(payload)


def _cmd_regular_extend(args) -> tuple[int, str] | tuple[int, str, str]:
    spec = covers.CoverSpec(args.genus, tuple(_parse_classes(args.classes)))
    decision = covers.regular_extends(spec)
    payload = {"status": decision.status}
    if decision.witness is not None:
        payload["witness"] = [str(g) for g in decision.witness]
    if decision.status == "unknown":
        return 3, _json(payload), f"unknown: degree {spec.degree} is above the cap {covers.MAX_REGULAR_DEGREE}"
    return {"extends": 0, "does-not-extend": 1}[decision.status], _json(payload)


def _cmd_frobenius(args) -> tuple[int, str]:
    classes = _parse_classes(args.classes)
    text = [",".join(map(str, c)) for c in classes]
    count = frobenius_count(classes)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a count at degree 995 has over 5,000 digits
    try:
        digits = str(count)
    finally:
        sys.set_int_max_str_digits(limit)
    return 0, _json({"classes": text, "count": digits})


def _cmd_twocycles(args) -> tuple[int, str]:
    sigma = Permutation.parse(args.perm, args.degree)
    c1, c2 = covers.two_n_cycles(sigma)
    alpha, beta = covers.commutator_witness(c1, c2)
    return 0, _json(
        {
            "sigma": str(sigma),
            "c1": str(c1),
            "c2": str(c2),
            "alpha": str(alpha),
            "beta": str(beta),
        },
    )


def _cmd_stripcover(args) -> tuple[int, str]:
    sigma = Permutation.parse(args.sigma, args.degree)
    tau = Permutation.parse(args.tau, args.degree)
    cover = covers.strip_cover(sigma, tau)
    return 0, _json(
        {
            "degree": sigma.degree,
            "boundary_monodromy": str(cover.boundary),
            "boundary_components": cover.boundary_components,
            "cover_genus": cover.cover_genus,
        },
    )


def _cmd_stallings(args) -> tuple[int, str]:
    # the alphabet comes from the word, and free reduction knows only letters
    if bad := set(args.word) - set(string.ascii_letters):
        raise ValueError(f"letters {sorted(bad)} are not ASCII letters")
    gens = "".join(sorted({ch.lower() for ch in args.word}))
    w = Word(args.word, gens)
    rep = covers.stallings_excluding_subgroup(w)
    return 0, _json(
        {
            "word": w.letters,
            "degree": rep.degree,
            "assignment": {g: str(p) for g, p in sorted(rep.assignment.items())},
        },
    )


def _cmd_prime(args) -> tuple[int, str]:
    if args.scatter:
        if args.seed is None:
            raise ValueError("--seed is required for --scatter")
        for flag, value in (("--samples", args.samples), ("--maxlen", args.maxlen)):
            if value < 1:
                raise ValueError(f"{flag} must be at least 1, not {value}")
        rng = random.Random(args.seed)
        rows = []
        for _ in range(args.samples):
            w = random_reduced_word(rng, args.maxlen)
            witness = resfin.smallest_excluding_prime(w)
            rows.append(f"{len(w)},{witness.prime}")
        return 0, _csv("length,prime", rows)
    w = Word(args.word, "ab")
    witness = resfin.smallest_excluding_prime(w)
    return 0, _json(
        {
            "word": w.letters,
            "prime": witness.prime,
            "matrix_mod_p": _mat_json(witness.image),
        },
    )


def _cmd_depth(args) -> tuple[int, str]:
    w = Word(args.word, "ab")
    depth = magnus.lcs_depth(w, args.max_k)
    return 0, _json({"word": w.letters, "depth": depth if depth is not None else "deeper"})


def _cmd_witness(args) -> tuple[int, str]:
    w = Word(args.word, "ab")
    witness = magnus.unipotent_witness(w, args.max_k)
    if witness is None:
        raise ValueError(f"depth exceeds --max-k {args.max_k}; raise --max-k")
    return 0, _json(
        {
            "word": w.letters,
            "depth": witness.depth,
            "modulus": witness.modulus,
            "monomial": witness.monomial,
            "coefficient": str(witness.coefficient),
            "image_mod_m": witness.image_mod_m.coeffs,
            "image_order": witness.modulus,
            "ambient_index": str(witness.ambient_index),
        },
    )


def _cmd_expectedprime(args) -> tuple[int, str]:
    value = resfin.expected_min_prime(args.terms)
    return 0, _json({"terms": args.terms, "value": float(_fmt(value))})


def _cmd_avgindex(args) -> tuple[int, str]:
    result = resfin.average_index_simulation(args.rank, args.radius, args.samples, args.seed)
    payload = dataclasses.asdict(result)
    return 0, _json({**payload, "mean": float(_fmt(result.mean)), "seed": args.seed})


def _cmd_lpsgirth(args) -> tuple[int, str]:
    result = lps.lps_girth_check(args.p, args.q)
    payload = dataclasses.asdict(result)
    return (0 if result.passed else 1), _json({**payload, "bound": float(_fmt(result.bound))})


def _cmd_surface_certify(args) -> tuple[int, str]:
    w = Word(args.word, "abcd")
    cert = genus2.certify_nontrivial(w)
    payload = {"word": w.letters, "verdict": cert.verdict}
    if cert.nontrivial:
        payload["witness_free_word"] = cert.witness.letters
        payload["witness_prime"] = cert.prime_witness.prime
        payload["witness_matrix_mod_p"] = _mat_json(cert.prime_witness.image)
    return (0 if cert.nontrivial else 1), _json(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fig8")
    parser.add_argument("--output", help="write the artifact to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="one-double-point geodesic census (CSV)")
    p.add_argument("--cutoff", type=float, default=4.5, help="length cutoff")
    p.add_argument("--mode", choices=["paired", "full"], default="paired")
    p.add_argument("--root", default="3,3,3")
    p.add_argument("--counts-at", help="comma-separated L values: emit (L,N0,N1p,N1f) CSV")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("mcshane", help="partial McShane sum over simple geodesics")
    p.add_argument("--cutoff", type=float, required=True, help="trace cutoff")
    p.add_argument("--form", choices=["trace", "length"], default="trace")
    p.add_argument("--root", default="3,3,3")
    p.set_defaults(func=_cmd_mcshane)

    p = sub.add_parser("mc2", help="partial self-intersection identity sum")
    p.add_argument("--cutoff", type=float, required=True, help="trace cutoff")
    p.add_argument("--root", default="3,3,3")
    p.set_defaults(func=_cmd_mc2)

    p = sub.add_parser("selfint", help="self-intersection number on the modular torus")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_selfint)

    p = sub.add_parser("extend", help="does the boundary covering extend?")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--classes", required=True, help='semicolon-separated partitions, e.g. "2,1;3"')
    p.add_argument("--transitive", action="store_true")
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("regular-extend", help="regular-cover extension decision")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--classes", required=True)
    p.set_defaults(func=_cmd_regular_extend)

    p = sub.add_parser("frobenius", help="exact count of identity-product class tuples")
    p.add_argument("--classes", required=True)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("twocycles", help="two-n-cycles and commutator factorization")
    p.add_argument("--perm", required=True, help='cycle notation, e.g. "(1 2 3)"')
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_twocycles)

    p = sub.add_parser("stripcover", help="strip cover of the once-punctured torus")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_stripcover)

    p = sub.add_parser("stallings", help="excluding subgroup by line completion")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_stallings)

    p = sub.add_parser("prime", help="smallest excluding prime of a free word")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--word")
    source.add_argument("--scatter", action="store_true", help="emit (length,prime) CSV for random words")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--maxlen", type=int, default=300)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_prime)

    p = sub.add_parser("depth", help="lower-central-series depth via Magnus expansion")
    p.add_argument("--word", required=True)
    p.add_argument("--max-k", type=int, default=8)
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("witness", help="unipotent finite-quotient witness")
    p.add_argument("--word", required=True)
    p.add_argument("--max-k", type=int, default=8)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("expectedprime", help="expected-smallest-prime partial sum")
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(func=_cmd_expectedprime)

    p = sub.add_parser("avgindex", help="average abelianized excluding prime (simulation)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--radius", type=int, default=20)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_avgindex)

    p = sub.add_parser("lpsgirth", help="LPS Cayley graph girth vs bound")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_lpsgirth)

    p = sub.add_parser("surface-certify", help="genus-2 nontriviality certificate")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_surface_certify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Reusable: parse_args builds a fresh Namespace per call and no default is
    # mutable.  build_parser stays uncached and is looked up here at the first
    # call, so a wrapper installed on it (as the benchmark's tracer does) applies.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, artifact, *notes = args.func(args)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(artifact)
        else:
            sys.stdout.write(artifact)
        for note in notes:  # after the artifact: a failed write reports only its error
            print(note, file=sys.stderr)
        return code
    except (ValueError, OSError) as exc:  # an unwritable output is invalid input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
