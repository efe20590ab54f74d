"""Brute-force oracles and corpus helpers shared by the tests.

``all_permutations`` runs over S_n through ``itertools.permutations``, which
yields images in lexicographic order.  The ``_oracle_*`` functions are the
earlier implementations that faster code replaced (the class scans behind
``perms.class_elements``, the dict-of-dicts completion of
``covers.stallings_excluding_subgroup``, the per-letter free reduction and
Dehn twist, the run splitter and power test of ``genus2.rewrite_blocks``,
the rational expected-prime sum, the exact certifier matrix
``twisted_sanov_image``, which builds its twisted c, d images from the
Sanov pair itself, the census that sorted its records, and
the census CSV and McShane sums that each torus job built from its own
slice of the walk), kept as they were so that the tests can require equal
output, order included.  ``vieta_flip`` and
``normalize_slope`` are the node-by-node Vieta flip that the torus walk
replaced; they flip a ``LabelledTriple``, a trace triple that carries the
slopes of its traces.  ``_oracle_random_reduced_letters`` (the sampler
that drew letters with ``rng.choice``) and ``_oracle_frobenius_count`` (the
``Fraction`` character sum over every partition, with dimensions from
``standard_tableaux``) are the finite-groups kernels before their
table-driven and integer forms; ``_oracle_character`` is the character
recursion before hook shapes were read in closed form.  ``_oracle_lps_girth_check``, a
breadth-first search of the Cayley graph that keeps a dict of distances
and scales second rows inline, is the reference for the girth that
``lps.lps_girth_check`` computes from the quaternion norm equation.  The
graph's constructor lives here too, since only the searches read it:
``quaternion_solutions`` and ``lps_generators`` give the p+1 generators as
projective matrices mod q, canonical under ``_canon``.
``_oracle_subgroup_closure`` is the closure that stopped at an order above
the degree, before ``covers._subgroup_closure`` refused a point stabilizer;
the brute-force regularity tests close with it.  ``linked_pairs``, the
exact self-intersection count, is the reference for ``selfint``'s sweep.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from fig8.genus2 import RELATOR, Z1
from fig8.lps import LpsGirthResult
from fig8.perms import (
    Partition,
    Permutation,
    _character,
    _dimension,
    _rim_hooks,
    class_representative,
    class_size,
    partitions_of,
)
from fig8.sl2 import SANOV_A, SANOV_B, Mat2, length_to_trace, trace_to_length
from fig8.torus import (
    Slope,
    TraceTriple,
    enumerate_simple,
    mcshane_sum,
)
from fig8.words import FREE_RANK2, GENUS2, Word, evaluate, free_reduce, inverse_letters

Z2 = "cdCD"


def all_permutations(n: int):
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


@lru_cache(maxsize=None)
def _oracle_class_elements(p: Partition) -> tuple[Permutation, ...]:
    """All permutations of cycle type p, in lexicographic order of images.

    Generated, not filtered from all n! permutations: the least unused point
    opens a cycle of each distinct remaining length, its other points an
    ordered choice of unused points.  Cached; intended for small n.
    """
    images = list(range(sum(p)))

    def build(unused, lengths):
        if not unused:
            yield tuple(images)
            return
        first, rest = unused[0], unused[1:]
        for d in set(lengths):
            left = list(lengths)
            left.remove(d)
            for others in itertools.permutations(rest, d - 1):
                cycle = (first, *others)
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    images[a] = b
                yield from build([u for u in rest if u not in others], left)

    return tuple(map(Permutation, sorted(build(list(range(sum(p))), p))))


def _oracle_subgroup_closure(gens: list[Permutation]) -> frozenset[Permutation] | None:
    """Generated subgroup, or None as soon as its order exceeds the degree."""
    n = gens[0].degree
    group = {Permutation.identity(n)}
    frontier = [Permutation.identity(n)]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = g * s
            if h not in group:
                group.add(h)
                if len(group) > n:
                    return None
                frontier.append(h)
    return frozenset(group)


def _oracle_two_n_cycles(sigma: Permutation) -> tuple[Permutation, Permutation]:
    """The first n-cycle c1, by images, for which c1^-1 * sigma is an n-cycle."""
    n = sigma.degree
    full = (n,)
    for c1 in _oracle_class_elements(full):
        c2 = c1.inverse() * sigma
        if c2.cycle_type() == full:
            if (c1 * c2) != sigma:
                raise ValueError("two_n_cycles composition check failed")
            return (c1, c2)
    raise ValueError(f"no two-n-cycle factorization found for {sigma}")


def _oracle_stallings_assignment(w: Word) -> dict[str, Permutation]:
    """Each generator's completed permutation: partial maps as dicts from
    the trace of w along points 0..|w|, the free sources zipped with the
    free targets, both in increasing order."""
    d = len(w) + 1
    partial: dict[str, dict[int, int]] = {g: {} for g in w.gens}
    for i, ch in enumerate(w.letters):
        src, dst = (i, i + 1) if ch.islower() else (i + 1, i)
        partial[ch.lower()][src] = dst
    assignment = {}
    for gen, pmap in partial.items():
        images = list(pmap.items())
        free_src = sorted(set(range(d)) - set(pmap.keys()))
        free_dst = sorted(set(range(d)) - set(pmap.values()))
        images += list(zip(free_src, free_dst))
        perm = [0] * d
        for s, t in images:
            perm[s] = t
        assignment[gen] = Permutation(tuple(perm))
    return assignment


def _oracle_identity_product_tuples(classes: tuple[Partition, ...]):
    """Boundary image tuples with product e, in product order: the first image
    is the class representative, the middle ones run over the product of
    their classes, and the last is forced."""
    first = class_representative(classes[0])
    if len(classes) == 1:
        if first == Permutation.identity(first.degree):
            yield (first,)
        return
    for middle in itertools.product(*map(_oracle_class_elements, classes[1:-1])):
        forced = math.prod(middle, start=first).inverse()
        if forced.cycle_type() == classes[-1]:
            yield (first, *middle, forced)


def _oracle_free_reduce(letters: str) -> str:
    """Free reduction one letter at a time against the tail of the output."""
    out: list[str] = []
    for ch in letters:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def _oracle_dehn_twist(w: Word, power: int) -> Word:
    """phi^power on a genus-2 word, each c, d letter conjugated by
    z^power = [a,b]^power on its own."""
    zm = "abAB" * power
    zmi = "baBA" * power
    return Word("".join((zmi + ch + zm) if ch in "cdCD" else ch for ch in w.letters), "abcd")


def twisted_sanov_image(w: Word, power: int) -> Mat2:
    """Exact Sanov image of the retracted twist of w by phi^power, at one
    product per letter of w: a, b go to SANOV_A, SANOV_B and c, d to their
    conjugates Z^-power SANOV_A Z^power and Z^-power SANOV_B Z^power, with
    Z = SANOV_A SANOV_B SANOV_A^-1 SANOV_B^-1 the image of z = [a,b].  The
    certifier's path, as matrices, before its excluding prime was folded
    mod p from words."""
    if power < 0:
        raise ValueError("twist power must be nonnegative")
    z = SANOV_A * SANOV_B * SANOV_A.inverse() * SANOV_B.inverse()
    zm = math.prod((z,) * power, start=Mat2.identity())
    zmi = zm.inverse()
    images = {"a": SANOV_A, "b": SANOV_B, "c": zmi * SANOV_A * zm, "d": zmi * SANOV_B * zm}
    return evaluate(w, images, Mat2.identity())


def _oracle_blocks(letters: str) -> list[tuple[str, str]]:
    out: list[list] = []
    for ch in letters:
        tag = "L" if ch in "abAB" else "R"
        if out and out[-1][0] == tag:
            out[-1][1].append(ch)
        else:
            out.append([tag, [ch]])
    return [(tag, "".join(chars)) for tag, chars in out]


def _oracle_power_of(block: str, z: str) -> int | None:
    """Exponent p with block = z^p (p may be negative), or None."""
    if len(block) % len(z):
        return None
    p = len(block) // len(z)
    if block == z * p:
        return p
    if block == inverse_letters(z) * p:
        return -p
    return None


def _oracle_rewrite_blocks(w: Word) -> Word:
    """The block rewriting pass as a per-letter run splitter and a power test:
    the first L-block equal to z1^p (not alone) or R-block equal to z2^p is
    rebuilt as the other power, then the word is reduced and scanned again."""
    letters = w.letters
    while True:
        blocks = _oracle_blocks(letters)
        changed = False
        for i, (tag, block) in enumerate(blocks):
            if tag == "L":
                p = _oracle_power_of(block, Z1)
                if p is not None and len(blocks) > 1:
                    blocks[i] = (tag, (Z2 if p > 0 else inverse_letters(Z2)) * abs(p))
                    changed = True
                    break
            else:
                p = _oracle_power_of(block, Z2)
                if p is not None:
                    blocks[i] = (tag, (Z1 if p > 0 else inverse_letters(Z1)) * abs(p))
                    changed = True
                    break
        if not changed:
            return Word(letters, GENUS2)
        letters = free_reduce("".join(b for _, b in blocks))


def _oracle_expected_min_prime(terms: int) -> list[float]:
    """The expected-prime partial sums over the first 1, 2, ..., ``terms``
    primes, in ``Fraction`` arithmetic, with primes by trial division."""
    found: list[int] = []
    n = 2
    while len(found) < terms:
        if all(n % p for p in found):
            found.append(n)
        n += 1
    sums = []
    total = Fraction(0)
    primorial = 1
    for p in found:
        total += Fraction(p - 1, primorial)
        primorial *= p
        sums.append(float(total))
    return sums


def linked_pairs(w: Word) -> int:
    """Self-intersection number of w's closed curve on the punctured torus:
    half the linked pairs of its passes through the one vertex (Cohen-Lustig).

    A half-edge is its place in "abAB", the cyclic order at the vertex, and
    h + 2 is its far end.  Pass i arrives by the far end of w[i-1] and leaves
    by w[i].  Pair it with each pass j, of w or of w reversed, that arrives
    by another half-edge.  If the two leave apart too, they cross iff their
    four half-edges are distinct and alternate; only passes of w count here,
    since one of the reverse that shares a half-edge starts a shared segment.
    If they run together, they cross iff the pass first after the segment's
    first half-edge also leaves first after its last arrival; each is met twice.
    """
    if w.cyclically_reduced() != w or w.is_proper_power():
        raise ValueError("need a cyclically reduced non-power")
    n = len(w)
    walk = ["abAB".index(ch) for ch in w.letters]
    a = walk * 2
    count = 0
    for other in (walk, [(h + 2) % 4 for h in reversed(walk)]):
        b = other * 2
        for i in range(n):
            in_i, out_i = (a[i - 1] + 2) % 4, a[i]
            for j in range(n):
                in_j = (b[j - 1] + 2) % 4
                if in_j == in_i:
                    continue
                k = 0
                while a[i + k] == b[j + k]:  # under n steps: w is no power nor conjugate to w^-1
                    k += 1
                if k:
                    last = (a[i + k - 1] + 2) % 4
                    first_in = (in_i - out_i) % 4 < (in_j - out_i) % 4
                    first_out = (a[i + k] - last) % 4 < (b[j + k] - last) % 4
                    count += first_in == first_out
                elif other is walk and len({in_i, out_i, in_j, b[j]}) == 4:
                    count += (out_i - in_i) % 4 == 2  # they alternate iff i goes straight on
    return count // 2


def normalize_slope(p: int, q: int) -> Slope:
    if p == 0 and q == 0:
        raise ValueError("slope 0/0")
    p, q = (-p, -q) if q < 0 or (q == 0 and p < 0) else (p, q)
    g = math.gcd(p, q)
    return (p // g, q // g)


@dataclass(frozen=True)
class LabelledTriple:
    """Traces of three simple geodesics whose slopes form a Farey triangle."""

    x: float
    y: float
    z: float
    slopes: tuple[Slope, Slope, Slope] = ((0, 1), (1, 0), (1, 1))

    def coords(self) -> TraceTriple:
        return (self.x, self.y, self.z)


def vieta_flip(t: LabelledTriple, coordinate: int) -> LabelledTriple:
    """Replace coordinate k by the other root of the cusp relation, xy - z.

    The slope label moves to the other Farey completion of the remaining
    edge, i.e. the reflection of the Farey triangle across that edge.
    """
    i, j = [k for k in range(3) if k != coordinate]
    coords = list(t.coords())
    coords[coordinate] = coords[i] * coords[j] - coords[coordinate]
    (p1, q1), (p2, q2) = t.slopes[i], t.slopes[j]
    plus, minus = normalize_slope(p1 + p2, q1 + q2), normalize_slope(p1 - p2, q1 - q2)
    slopes = list(t.slopes)
    slopes[coordinate] = minus if plus == t.slopes[coordinate] else plus
    return LabelledTriple(*coords, tuple(slopes))


def _oracle_one_intersection_census(
    root: TraceTriple, length_cutoff: float, mode: str = "paired"
) -> list[tuple[float, Slope, str]]:
    """The census rows: a paired row and maybe a companion per simple
    geodesic, each kept iff its own trace is within the cutoff, sorted by
    (trace, slope, family).  The walk runs to the cutoff itself, past every
    simple trace that can give a row."""
    if mode not in ("paired", "full"):
        raise ValueError(f"unknown census mode {mode!r}")
    trace_cutoff = length_to_trace(length_cutoff)
    enumerate_simple(root, trace_cutoff / 3.0)  # refuses below trace 9, as the census does
    rows = []
    for trace, slope in enumerate_simple(root, trace_cutoff):
        if 3 * trace <= trace_cutoff:
            rows.append((3 * trace, slope, "paired-fig8"))
        companion = trace * trace + 2
        if mode == "full" and companion <= trace_cutoff:
            rows.append((companion, slope, "companion-fig8"))
    rows.sort()
    return rows


def _oracle_census_csv(root: TraceTriple, length_cutoff: float, mode: str) -> str:
    """The census CSV as each job wrote it before its lines were kept with
    the walk: the sorted oracle rows, 9 significant digits, a paired row twice."""
    lines = ["trace,length,family,slope"]
    for t, (p, q), family in _oracle_one_intersection_census(root, length_cutoff, mode):
        line = f"{float(t):.9g},{trace_to_length(t):.9g},{family},{p}/{q}"
        lines += [line] * (2 if family == "paired-fig8" else 1)
    return "\n".join(lines) + "\n"


def _oracle_mcshane(root: TraceTriple, trace_cutoff: float, form: str = "trace") -> tuple[int, float]:
    """(terms, partial sum) as each mcshane job found them before the sums
    were kept with the walk: mcshane_sum over the walk's slice."""
    traces = [t for t, _ in enumerate_simple(root, trace_cutoff)]
    return len(traces), mcshane_sum(traces, form)


def _oracle_mc2(root: TraceTriple, trace_cutoff: float) -> tuple[int, float]:
    """(terms, partial sum) of mc2 by the census rule: the two paired
    geodesics of each simple trace t with 3t within the cutoff, each with the
    McShane term of t.  The walk runs to the cutoff itself, past every such t."""
    enumerate_simple(root, trace_cutoff / 3.0)  # refuses below trace 9, as mc2 does
    traces = [t for t, _ in enumerate_simple(root, trace_cutoff) if 3 * t <= trace_cutoff]
    return 2 * len(traces), 2 * mcshane_sum(traces)


def relator_product(rng) -> str:
    """A product of 1-3 conjugates of the genus-2 relator or its inverse."""
    letters = "abcdABCD"
    inv = str.maketrans(letters, "ABCDabcd")
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        g = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
        base = RELATOR if rng.random() < 0.5 else RELATOR.translate(inv)[::-1]
        pieces.append(g + base + g.translate(inv)[::-1])
    return "".join(pieces)


def _oracle_random_reduced_letters(rng, max_len: int, gens: str = FREE_RANK2):
    """The reduced-word stream drawing each letter with ``rng.choice`` and
    redrawing a letter that cancels the last one."""
    r = 2 * len(gens)

    def ball(l: int) -> int:
        return r * ((r - 1) ** l - 1) // (r - 2) if r > 2 else 2 * l

    size = ball(max(max_len, 0))
    alphabet = gens + gens.upper()
    inverse = dict(zip(alphabet, alphabet.swapcase()))
    while True:
        x = rng.randrange(size)
        length = max_len
        while x < ball(length - 1):
            length -= 1
        out = [rng.choice(alphabet)]
        while len(out) < length:
            ch = rng.choice(alphabet)
            if ch != inverse[out[-1]]:
                out.append(ch)
        yield "".join(out)


@lru_cache(maxsize=None)
def standard_tableaux(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam, by removing the corner
    that holds the largest entry in every possible way."""
    if sum(lam) <= 1:
        return 1
    total = 0
    for i, part in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < part:
            total += standard_tableaux(tuple(p for p in lam[:i] + (part - 1,) + lam[i + 1 :] if p))
    return total


@lru_cache(maxsize=None)
def _oracle_character(lam: Partition, mu: Partition) -> int:
    """Murnaghan-Nakayama recursion alone: strip mu's parts as rim hooks,
    one level per part above 1, down to a dimension."""
    if len(mu) == sum(lam):
        return _dimension(lam)
    return sum(sign * _oracle_character(rho, mu[1:]) for rho, sign in _rim_hooks(lam, -mu[0]))


def _oracle_frobenius_count(classes: list[Partition]) -> int:
    """Frobenius's count as a ``Fraction`` sum over all partitions: prod |C_i| / n!
    times the sum over lambda of prod chi_lambda(mu_i) / dim_lambda^(k-2), with
    dim_lambda counted as standard tableaux."""
    n = sum(classes[0])
    k = len(classes)
    total = Fraction(0)
    for lam in partitions_of(n):
        dim = standard_tableaux(lam)
        num = 1
        for mu in classes:
            num *= _character(lam, mu)
        total += Fraction(num) * Fraction(dim) ** (2 - k)
    prefactor = Fraction(1, math.factorial(n))
    for mu in classes:
        prefactor *= class_size(mu)
    result = prefactor * total
    if result.denominator != 1:
        raise ValueError(f"character sum did not clear to an integer: {result}")
    return result.numerator


ProjMat = tuple[int, int, int, int]


def quaternion_solutions(p: int) -> list[tuple[int, int, int, int]]:
    """All (a,b,c,d) with a^2+b^2+c^2+d^2 = p, a odd positive, b,c,d even.

    For a prime p = 1 mod 4 there are p + 1 of them.
    """
    r = math.isqrt(p)
    even = r - r % 2  # b, c and d run over the even numbers in [-r, r]
    sols = []
    for a in range(1, r + 1, 2):
        for b in range(-even, even + 1, 2):
            for c in range(-even, even + 1, 2):
                for d in range(-even, even + 1, 2):
                    if a * a + b * b + c * c + d * d == p:
                        sols.append((a, b, c, d))
    return sols


def _sqrt_minus_one(q: int) -> int:
    for x in range(2, q):
        if x * x % q == q - 1:
            return x
    raise ValueError(f"-1 is not a square mod {q} (need q = 1 mod 4)")


def _inverses(q: int) -> list[int]:
    """Table of inverses mod the prime q: entry z is 1/z, entry 0 is unused."""
    return [0] + [pow(z, q - 2, q) for z in range(1, q)]


def _canon(m: ProjMat, inv: list[int]) -> ProjMat:
    """Canonical projective representative: first nonzero entry scaled to 1.

    Entries are residues in [0, q), where q = len(inv) and inv = _inverses(q).
    """
    q = len(inv)
    for z in m:
        if z:
            zi = inv[z]
            return tuple(x * zi % q for x in m)
    raise ValueError("zero matrix")


def lps_generators(p: int, q: int) -> list[ProjMat]:
    """The p+1 LPS generators as canonical projective matrices mod q."""
    i = _sqrt_minus_one(q)
    inv = _inverses(q)
    gens = []
    for a, b, c, d in quaternion_solutions(p):
        m = ((a + b * i) % q, (c + d * i) % q, (-c + d * i) % q, (a - b * i) % q)
        gens.append(_canon(m, inv))
    if len(set(gens)) != len(gens):
        raise ValueError("generators not distinct")
    return gens


def _oracle_lps_girth_check(p: int, q: int) -> LpsGirthResult:
    """The girth search on vertex keys row1 * q^2 + row2 with a dict of
    distances, scaling each image's second row inline."""
    gens = lps_generators(p, q)
    inv = _inverses(q)
    inverse = [gens.index(_canon((d, -b % q, -c % q, a), inv)) for a, b, c, d in gens]
    qq = q * q
    rows = [divmod(r, q) for r in range(qq)]
    tables = [
        [(x * e + y * g) % q * q + (x * f + y * h) % q for x, y in rows] for e, f, g, h in gens
    ]
    scale = [inv[x or y] for x, y in rows]
    canon = [(x * s % q * q + y * s % q) * qq for (x, y), s in zip(rows, scale)]
    base = len(gens) + 1
    identity = q * qq + 1
    dist = {identity: 0}
    frontier = [identity * base + len(gens)]
    best = math.inf
    level = 0
    while frontier:
        level += 1
        queued = []
        for entry in frontier:
            u, back = divmod(entry, base)
            row1, row2 = divmod(u, qq)
            for gi, table in enumerate(tables):
                if gi == back:
                    continue
                r1 = table[row1]
                s = scale[r1]
                x, y = divmod(table[row2], q)
                v = canon[r1] + x * s % q * q + y * s % q
                seen = dist.get(v)
                if seen is None:
                    dist[v] = level
                    queued.append(v * base + inverse[gi])
                elif level + seen < best:
                    best = level + seen
        frontier = queued
    bound = (4 * math.log(q) - math.log(4)) / math.log(p)
    bound_ceil = math.ceil(bound)
    psl_order = q * (q * q - 1) // 2
    return LpsGirthResult(
        p, q, len(gens), len(dist), psl_order, best, bound, bound_ceil, best >= bound_ceil
    )
