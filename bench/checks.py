"""Job verdicts: goldens, independent checks, and the checker self-test.

A job's artifact is the file fig8 wrote for ``--output`` (empty when it
wrote none).  A verdict is ``None`` for a correct job, else a short reason
string; reasons starting with ``known:`` are failures the program already
had when the goldens were recorded.

The independent checks recompute what they can with this module's own
integer code: Sanov products mod p, permutation composition, and the
trace-family rule for self-intersection answers.  Two checks call the
program itself, outside the timed region: the genus-2 certify verdict is
compared with ``genus2.dehn_oracle``, and ``mc2(c)`` with ``2 * mcshane(c/3)``.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

# --- exact 2x2 integer arithmetic -------------------------------------------

IDENTITY = (1, 0, 0, 1)


def mat_mul(x, y, m=None):
    a, b, c, d = x
    e, f, g, h = y
    out = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    return out if m is None else tuple(v % m for v in out)


def mat_inv(x):
    a, b, c, d = x
    return (d, -b, -c, a)


def word_image(word: str, gens: dict[str, tuple], m=None):
    images = dict(gens)
    for g, mat in gens.items():
        images[g.upper()] = mat_inv(mat)
    out = IDENTITY
    for ch in word:
        out = mat_mul(out, images[ch], m)
    return out


SANOV = {"a": (1, 2, 0, 1), "b": (1, 0, 2, 1)}
MODULAR_TORUS = {"a": (1, 1, 1, 2), "b": (1, -1, -1, 2)}


def small_primes(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def check_prime_witness(word: str, prime: int, matrix: list[list[str]]) -> str | None:
    """The Sanov image of ``word`` is the identity mod every prime below ``prime``
    and equals ``matrix`` (not the identity) mod ``prime``."""
    primes = small_primes(prime)
    if not primes or primes[-1] != prime:
        return "check:prime-not-prime"
    modulus = math.prod(primes)
    image = word_image(word, SANOV, modulus)
    for q in primes[:-1]:
        if tuple(v % q for v in image) != IDENTITY:
            return "check:prime-not-smallest"
    got = tuple(v % prime for v in image)
    claimed = tuple(int(x) for row in matrix for x in row)
    if got != claimed or got == IDENTITY:
        return "check:prime-matrix"
    return None


# --- self-intersection trace families -----------------------------------------


def simple_traces(limit: int) -> set[int]:
    """Traces 3m of simple closed geodesics on the modular torus (m Markov), up to limit."""
    out = set()
    stack = [(1, 1, 1)]
    seen = set()
    while stack:
        t = stack.pop()
        key = tuple(sorted(t))
        if key in seen or 3 * max(t) > limit:
            continue
        seen.add(key)
        out.update(3 * x for x in t)
        x, y, z = t
        stack += [(3 * y * z - x, y, z), (x, 3 * x * z - y, z), (x, y, 3 * x * y - z)]
    return {v for v in out if v <= limit}


def selfint_trace(word: str) -> int:
    a, _, _, d = word_image(word, MODULAR_TORUS)
    return abs(a + d)


def check_trace_family(word: str, count: int) -> str | None:
    """selfint 0 => simple trace; selfint 1 => trace 3t or t^2 + 2, t simple."""
    trace = selfint_trace(word)
    simple = simple_traces(max(trace, 3))
    if count == 0 and trace not in simple:
        return "check:selfint-0-trace-family"
    if count == 1 and not any(trace in (3 * t, t * t + 2) for t in simple):
        return "check:selfint-1-trace-family"
    return None


# --- permutations (0-indexed image tuples, right action) --------------------


def parse_perm(text: str, n: int) -> tuple[int, ...]:
    images = list(range(n))
    if text != "e":
        for chunk in text[1:-1].split(")("):
            pts = [int(x) - 1 for x in chunk.split()]
            for i, p in enumerate(pts):
                images[p] = pts[(i + 1) % len(pts)]
    if sorted(images) != list(range(n)):
        raise ValueError(f"not a permutation: {text}")
    return tuple(images)


def compose(*perms):
    """Right action: (s * t)(i) = t(s(i))."""
    out = perms[0]
    for t in perms[1:]:
        out = tuple(t[i] for i in out)
    return out


def perm_inv(s):
    out = [0] * len(s)
    for i, v in enumerate(s):
        out[v] = i
    return tuple(out)


def commutator(s, t):
    return compose(s, t, perm_inv(s), perm_inv(t))


def cycle_type(s) -> tuple[int, ...]:
    seen = [False] * len(s)
    lengths = []
    for i in range(len(s)):
        size = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = s[j]
            size += 1
        if size:
            lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def _classes(text: str) -> list[tuple[int, ...]]:
    return [tuple(sorted((int(p) for p in c.split(",")), reverse=True)) for c in text.split(";")]


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


# --- per-subcommand independent checks --------------------------------------


def _check_certify(argv, payload, program):
    word = payload["word"]
    oracle = program.modules["genus2"].dehn_oracle(program.modules["words"].Word(word, "abcd"))
    if (payload["verdict"] == "NONTRIVIAL") != (oracle == "nontrivial"):
        return "check:certify-vs-dehn-oracle"
    if payload["verdict"] != "NONTRIVIAL":
        return None
    witness = payload["witness_free_word"]
    if len(witness) > len(word) ** 2 + len(word):
        return "check:witness-length-bound"
    free = witness.translate(str.maketrans("xyXY", "abAB"))
    return check_prime_witness(free, payload["witness_prime"], payload["witness_matrix_mod_p"])


def _check_prime(argv, payload, program):
    return check_prime_witness(payload["word"], payload["prime"], payload["matrix_mod_p"])


def _check_extend(argv, payload, program):
    if "witness" not in payload:
        return None
    classes = _classes(_arg(argv, "--classes"))
    n = sum(classes[0])
    boundaries = [parse_perm(g, n) for g in payload["witness"]["boundaries"]]
    if [cycle_type(g) for g in boundaries] != classes:
        return "check:extend-boundary-classes"
    product = tuple(range(n))
    for a, b in payload["witness"]["handles"]:
        product = compose(product, commutator(parse_perm(a, n), parse_perm(b, n)))
    if compose(product, *boundaries) != tuple(range(n)):
        return "check:extend-relation"
    return None


def _check_regular_extend(argv, payload, program):
    if "witness" not in payload:
        return None
    classes = _classes(_arg(argv, "--classes"))
    n = sum(classes[0])
    boundaries = [parse_perm(g, n) for g in payload["witness"]]
    if [cycle_type(g) for g in boundaries] != classes:
        return "check:regular-boundary-classes"
    if _arg(argv, "--genus") == "0" and compose(tuple(range(n)), *boundaries) != tuple(range(n)):
        return "check:regular-relation"
    return None


def _check_twocycles(argv, payload, program):
    n = int(_arg(argv, "--degree"))
    sigma = parse_perm(_arg(argv, "--perm"), n)
    c1, c2, alpha, beta = (parse_perm(payload[k], n) for k in ("c1", "c2", "alpha", "beta"))
    if parse_perm(payload["sigma"], n) != sigma:
        return "check:twocycles-sigma"
    if cycle_type(c1) != (n,) or cycle_type(c2) != (n,) or compose(c1, c2) != sigma:
        return "check:twocycles-factorization"
    if commutator(alpha, beta) != sigma:
        return "check:commutator-witness"
    return None


def _check_stripcover(argv, payload, program):
    n = int(_arg(argv, "--degree"))
    sigma = parse_perm(_arg(argv, "--sigma"), n)
    tau = parse_perm(_arg(argv, "--tau"), n)
    boundary = commutator(sigma, tau)
    components = len(cycle_type(boundary))
    if (
        parse_perm(payload["boundary_monodromy"], n) != boundary
        or payload["boundary_components"] != components
        or 2 - 2 * payload["cover_genus"] - components != -n
    ):
        return "check:stripcover"
    return None


def _check_stallings(argv, payload, program):
    d = payload["degree"]
    images = {g: parse_perm(p, d) for g, p in payload["assignment"].items()}
    point = 0
    for ch in payload["word"]:
        g = images[ch.lower()]
        point = g[point] if ch.islower() else perm_inv(g)[point]
    return "check:stallings-basepoint" if point == 0 else None


def _check_witness(argv, payload, program):
    k = payload["depth"]
    if payload["ambient_index"] != str(payload["modulus"] ** (k * (k + 1) // 2)):
        return "check:witness-ambient-index"
    return None


def _check_mc2(argv, payload, program):
    cutoff = float(_arg(argv, "--cutoff"))
    ok, text = program.run_quiet(["mcshane", "--cutoff", repr(cutoff / 3.0)])
    if not ok:
        return "check:mc2-vs-mcshane"
    mcshane = json.loads(text)
    same_terms = payload["terms"] == 2 * mcshane["terms"]
    # both sums are printed to 9 significant digits
    close = abs(payload["partial_sum"] - 2 * mcshane["partial_sum"]) <= 2e-8
    return None if same_terms and close else "check:mc2-vs-mcshane"


def _check_lpsgirth(argv, payload, program):
    q = payload["q"]
    if payload["psl_order"] != q * (q * q - 1) // 2 or payload["group_order"] != 2 * payload["psl_order"]:
        return "check:lps-group-order"
    return None


def _check_selfint(argv, payload, program):
    return check_trace_family(payload["word"], payload["self_intersection"])


INDEPENDENT = {
    "surface-certify": _check_certify,
    "prime": _check_prime,
    "extend": _check_extend,
    "regular-extend": _check_regular_extend,
    "twocycles": _check_twocycles,
    "stripcover": _check_stripcover,
    "stallings": _check_stallings,
    "witness": _check_witness,
    "mc2": _check_mc2,
    "lpsgirth": _check_lpsgirth,
    "selfint": _check_selfint,
}


# --- verdicts -----------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def error_reason(stderr: str) -> str:
    """'error: crossing count unstable under ...: 4 vs 6' -> 'crossing count unstable under ...'."""
    text = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    text = text.removeprefix("error: ").split(":")[0]
    return re.sub(r"[\s\d-]+$", "", text) or "no message"


def outcome_failure(argv, code, stderr, error) -> str | None:
    """Failure of a job judged without its golden: an uncaught exception, or a
    selfint rejection of a word the benchmark's own trace says is hyperbolic."""
    if error is not None:
        return f"exception {error}"
    if argv[0] == "selfint" and code != 0 and selfint_trace(_arg(argv, "--word")) > 2:
        return f"selfint {error_reason(stderr)}"
    return None


def independent_verdict(argv, code, artifact: bytes, program) -> str | None:
    check = INDEPENDENT.get(argv[0])
    if check is None or code not in (0, 1) or not artifact:
        return None
    try:
        return check(list(argv), json.loads(artifact), program)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"check:unreadable-artifact ({type(exc).__name__})"


def first_failure(argv, code, artifact, stderr, error, program) -> str | None:
    """What the goldens record for a job that failed when they were made."""
    return outcome_failure(argv, code, stderr, error) or independent_verdict(
        argv, code, artifact, program
    )


def verdict(golden, argv, code, artifact: bytes, stderr, error, program) -> str | None:
    """Judge one job against its golden ``[code, sha]`` or ``[None, reason]``.

    A job that failed when the goldens were recorded has no golden: it is a
    ``known:`` failure while it still fails, and once answered its answer
    must pass the independent checks.
    """
    want_code, want = golden
    if want_code is None:
        failure = outcome_failure(argv, code, stderr, error)
        if failure is not None:
            return f"known:{failure}"
        check = independent_verdict(argv, code, artifact, program)
        return f"known:{check}" if check is not None and check == want else check
    if error is not None:
        return f"exception:{error}"
    if code != want_code:
        return "exit-code"
    if sha256(artifact) != want:
        return "artifact"
    return independent_verdict(argv, code, artifact, program)


def _tamper_caught(program, argv, check, tamper) -> bool:
    """The genuine answer passes ``check`` and the tampered one fails it."""
    answered, text = program.run_quiet(argv)
    if not answered:
        return False
    payload = json.loads(text)
    if check(argv, payload, program) is not None:
        return False
    tamper(payload)
    return check(argv, payload, program) is not None


def self_test(program, golden_sample) -> dict[str, bool]:
    """Feed the checker three tampered results; each must be caught.

    ``golden_sample`` is ``(golden, argv, code, artifact)`` of a job from the
    run with a golden and a non-empty artifact, or None if there was none.
    """
    caught = False
    if golden_sample is not None:
        golden, argv, code, artifact = golden_sample
        flipped = bytes([artifact[0] ^ 1]) + artifact[1:]
        caught = (
            verdict(golden, argv, code, artifact, "", None, program) is None
            and verdict(golden, argv, code, flipped, "", None, program) is not None
        )
    return {
        "tampered-artifact-byte": caught,
        "wrong-permutation-witness": _tamper_caught(
            program, ["twocycles", "--perm", "(1 2 3)(4 5 6)", "--degree", "6"],
            _check_twocycles, lambda p: p.update(c1=p["c2"]),  # c2 * c2 != sigma
        ),
        "wrong-prime": _tamper_caught(
            program, ["prime", "--word", "abAB"],
            _check_prime, lambda p: p.update(prime=small_primes(p["prime"] + 10)[-1]),
        ),
    }
