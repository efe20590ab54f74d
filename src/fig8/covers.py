"""Extension of boundary coverings to surface coverings, with explicit witnesses.

A covering specification prescribes the genus of the base surface and the
cycle type of the monodromy over each boundary component.  Extension is
decided by the product condition (genus 0, via the Frobenius count) or the
parity condition (genus >= 1), and a witness homomorphism is assembled
explicitly: boundary images from class representatives and one handle pair
realizing the needed commutator via the two-n-cycles factorization; the
other handles map to (e, e).

All permutations compose on the right: (sigma * tau)(i) = tau(sigma(i)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .perms import (
    Partition,
    Permutation,
    class_elements,
    class_parity,
    class_representative,
    commutator,
    frobenius_count,
)
from .words import Word, evaluate, letter_images

MAX_REGULAR_DEGREE = 8
Handles = tuple[tuple[Permutation, Permutation], ...]


@dataclass(frozen=True)
class CoverSpec:
    genus: int
    boundary_classes: tuple[Partition, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        if not self.boundary_classes:
            raise ValueError("need at least one boundary class")
        degrees = {sum(p) for p in self.boundary_classes}
        if len(degrees) != 1:
            raise ValueError(f"boundary classes of mixed degree: {sorted(degrees)}")

    @property
    def degree(self) -> int:
        return sum(self.boundary_classes[0])


def two_n_cycles(sigma: Permutation) -> tuple[Permutation, Permutation]:
    """n-cycles c1, c2 with c1 * c2 = sigma; exists for every even permutation."""
    if not sigma.is_even():
        raise ValueError(f"{sigma} is odd: not a product of two n-cycles of equal parity")
    full = (sigma.degree,)
    # c1^-1 * sigma is the inverse of sigma^-1 * c1, a conjugate of c1 * sigma^-1
    c1 = next(class_elements(full, sigma.inverse(), full))
    c2 = c1.inverse() * sigma
    if c2.cycle_type() != full:
        raise AssertionError("two_n_cycles check failed")
    return (c1, c2)


def commutator_witness(c1: Permutation, c2: Permutation) -> tuple[Permutation, Permutation]:
    """(alpha, beta) with [alpha, beta] = alpha*beta*alpha^-1*beta^-1 = c1 * c2,
    for the n-cycles c1, c2 that ``two_n_cycles`` returns."""
    sigma = c1 * c2
    n = sigma.degree
    identity = Permutation.identity(n)
    if sigma == identity:
        return (identity, identity)
    # Any two n-cycles are conjugate: align the cycle of c1^-1 with that of
    # c2.  Under right action, conjugation by beta relabels the cycle
    # (p1 p2 ...) of x as (beta^-1(p1) beta^-1(p2) ...), so beta must send
    # the c2-cycle points onto the c1^-1-cycle points position by position.
    x_cycle = c1.inverse().cycles()[0]
    y_cycle = c2.cycles()[0]
    images = [0] * n
    for xp, yp in zip(x_cycle, y_cycle):
        images[yp - 1] = xp - 1
    beta = Permutation(tuple(images))
    alpha = c1
    if commutator(alpha, beta) != sigma:
        raise AssertionError("commutator witness verification failed")
    return (alpha, beta)


def _relation_holds(handles: Handles, boundaries: tuple[Permutation, ...]) -> bool:
    """The defining relation prod [a_i, b_i] * prod gamma_j = e."""
    identity = Permutation.identity(boundaries[0].degree)
    factors = [commutator(a, b) for a, b in handles] + list(boundaries)
    return math.prod(factors, start=identity) == identity


@dataclass(frozen=True)
class ExtendDecision:
    extends: bool
    reason: str
    handles: Handles | None
    boundaries: tuple[Permutation, ...] | None

    def verify(self) -> bool:
        """Check the defining relation of a positive answer."""
        return not self.extends or _relation_holds(self.handles, self.boundaries)


def _identity_product_tuples(classes: tuple[Partition, ...], head=()):
    """Boundary image tuples with product e that extend head, in product order.

    The first of two or more images is its class representative: conjugating
    a tuple keeps its product and its orbits, so the search is complete up to
    conjugacy.  The last image, (product * g)^-1, is forced, and the g before
    it is searched so that g * product, a conjugate of product * g, lies in
    the last class.
    """
    if not head and len(classes) > 1:
        head = (class_representative(classes[0]),)
    product = math.prod(head, start=Permutation.identity(sum(classes[0])))
    rest = classes[len(head) :]
    if len(rest) == 1:
        if product.inverse().cycle_type() == rest[0]:
            yield (*head, product.inverse())
        return
    partner = (product, rest[1]) if len(rest) == 2 else ()
    for g in class_elements(rest[0], *partner):
        yield from _identity_product_tuples(classes, (*head, g))


def extends_cover(spec: CoverSpec, transitive: bool = False) -> ExtendDecision:
    """Decide whether the boundary covering extends over the surface.

    Genus 0: extends iff the Frobenius count is positive; the witness is
    the first identity-product tuple.  Genus >= 1: extends iff the parities
    of the classes sum to zero mod 2; the witness is the class
    representatives, with one commutator handle absorbing their product
    (the witness stops at its last handle that is not (e, e)).

    With ``transitive`` set, the witness must act transitively.  At genus 0
    that is the first transitive identity-product tuple, and without one
    the answer is "transitive", false.  At genus >= 1 the parity witness
    has an n-cycle handle unless the product is e; if it is then not
    transitive, its first handle becomes (n-cycle, e).  Every positive
    answer carries a verified witness.
    """
    classes = spec.boundary_classes
    identity = Permutation.identity(spec.degree)
    if spec.genus == 0:
        if frobenius_count(list(classes)) == 0:
            return ExtendDecision(False, "product", None, None)
        witnesses = (ExtendDecision(True, "product", (), b) for b in _identity_product_tuples(classes))
        decision = next((d for d in witnesses if not transitive or _is_transitive(d)), None)
        if decision is None:
            return ExtendDecision(False, "transitive", None, None)
    else:
        if sum(map(class_parity, classes)) % 2:
            return ExtendDecision(False, "parity", None, None)
        boundaries = tuple(map(class_representative, classes))
        product = math.prod(boundaries, start=identity)
        pair = commutator_witness(*two_n_cycles(product.inverse()))
        handles = () if pair == (identity, identity) else (pair,)
        decision = ExtendDecision(True, "parity", handles, boundaries)
        if transitive and not _is_transitive(decision):
            # the product is e, else alpha is an n-cycle: an (n-cycle, e) handle connects
            cycle = class_representative((spec.degree,))
            decision = ExtendDecision(True, "parity", ((cycle, identity),) + handles[1:], boundaries)
    if not decision.verify():
        raise AssertionError("witness relation check failed")
    return decision


def _is_transitive(decision: ExtendDecision) -> bool:
    perms = list(decision.boundaries) + [g for pair in decision.handles for g in pair]
    n = perms[0].degree
    seen = {0}
    frontier = [0]
    while frontier:
        pt = frontier.pop()
        for g in perms:
            img = g.images[pt]
            if img not in seen:
                seen.add(img)
                frontier.append(img)
    return len(seen) == n


@dataclass(frozen=True)
class StripCover:
    """Degree-n cover of the once-punctured torus built from n strip domains."""

    boundary: Permutation
    boundary_components: int
    cover_genus: int


def strip_cover(sigma: Permutation, tau: Permutation) -> StripCover:
    """The punctured-torus cover with handle monodromies (sigma, tau).

    sigma must be an n-cycle (the horizontal strip gluing).  The boundary
    monodromy is the commutator [sigma, tau]; its cycles are the boundary
    components of the cover, and the genus follows from the Euler
    characteristic identity n * chi(torus) = 2 - 2g - b.
    """
    n = sigma.degree
    if tau.degree != n:
        raise ValueError("degree mismatch")
    if sigma.cycle_type() != (n,):
        raise ValueError(f"{sigma} is not an {n}-cycle")
    boundary = commutator(sigma, tau)
    components = boundary.cycle_count()
    # chi of the once-punctured torus is -1; the cover is connected since
    # sigma is transitive, so chi = -n = 2 - 2g - b.  The boundary is even,
    # so n - b is even, and b <= n gives g >= 1.
    return StripCover(boundary, components, (2 + n - components) // 2)


def boundary_lift_components(
    assignment: dict[str, Permutation], boundary_words: list[Word]
) -> list[int]:
    """Connected components of each boundary preimage = cycles of its image."""
    identity = Permutation.identity(next(iter(assignment.values())).degree)
    return [evaluate(w, assignment, identity).cycle_count() for w in boundary_words]


@dataclass(frozen=True)
class RegularDecision:
    """Answer of ``regular_extends``; a regular image is transitive of order n.
    An "extends" answer carries its handle pairs, which equality ignores."""

    status: str  # "extends" | "does-not-extend" | "unknown"
    witness: tuple[Permutation, ...] | None
    handles: Handles | None = field(default=None, compare=False)


def _subgroup_closure(gens: list[Permutation]) -> frozenset[Permutation] | None:
    """Generated subgroup, or None at two elements sending point 1 to one point:
    no regular group holds such a pair, and every group of order above n does."""
    elements = [Permutation.identity(gens[0].degree)]
    by_image = {0: elements[0]}  # one element per image of point 1
    for g in elements:  # breadth first: the list grows as it is read
        for s in gens:
            h = g * s
            kept = by_image.setdefault(h.images[0], h)
            if kept is h:
                elements.append(h)
            elif kept != h:
                return None
    return frozenset(elements)


def _regular_overgroups(seed: list[Permutation], n: int):
    """All regular subgroups of S_n (transitive, of order n) containing the seed.

    A regular group holds exactly one element taking point 1 to each point,
    and that element's cycles all have one length.  So a closure that is not
    refused is grown by one such element for the least point outside the
    orbit of 1, and every regular overgroup is reached exactly once.
    """
    group = _subgroup_closure(seed)
    if group is None:
        return
    if len(group) == n:
        yield group
        return
    j = min(set(range(n)) - {g.images[0] for g in group})
    for d in range(2, n + 1):
        if n % d == 0:
            for g in class_elements((d,) * (n // d), first=j):
                yield from _regular_overgroups(seed + [g], n)


def _handles_reach(
    group: frozenset[Permutation], genus: int, boundaries: tuple[Permutation, ...]
) -> Handles | None:
    """At most genus handle pairs in the group that absorb the boundary
    product, the whole assignment generating the group, or None.  Layered
    search over the states (commutator product so far, subgroup generated
    so far), one handle pair per layer, each state keeping the first pairs
    that reached it; the pair (e, e) keeps every state, so the layers only
    grow and the search stops at the first that adds none.
    """
    n = boundaries[0].degree
    identity = Permutation.identity(n)
    target = math.prod(boundaries, start=identity).inverse()
    states = {(identity, _subgroup_closure(list(boundaries))): ()}

    @lru_cache(maxsize=None)
    def join(sub, g):
        return sub if g in sub else _subgroup_closure([*sub, g])

    pairs = [(a, b, commutator(a, b)) for a in group for b in group] if genus else []
    for _ in range(genus):
        grown = dict(states)
        for (p, sub), handles in states.items():
            for a, b, c in pairs:
                state = (p * c, join(join(sub, a), b))
                if state not in grown:
                    grown[state] = (*handles, (a, b))
        if len(grown) == len(states):
            break
        states = grown
    return states.get((target, group))


def regular_extends(spec: CoverSpec) -> RegularDecision:
    """Regular-cover extension: the image must be transitive of order n.

    Every element of a regular group has cycles of one length, so a class
    with unequal cycles does not extend, and neither does a genus-0 tuple of
    identities at n > 1, whose images generate only {e}.  Otherwise the
    witness is the least boundary tuple, in product order, in a regular
    group where ``_handles_reach`` finds handle pairs.  Conjugates of
    witnesses are witnesses, and a representative is least in its class: so
    the first class that moves a point is its representative, and the
    representatives end the search.  The relation and the regular image of
    the witness and its handles are checked again before "extends".
    Degrees above MAX_REGULAR_DEGREE return "unknown".
    """
    classes = spec.boundary_classes
    if any(len(set(c)) > 1 for c in classes):
        return RegularDecision("does-not-extend", None)
    if spec.genus == 0 and spec.degree > 1 and all(c[0] == 1 for c in classes):
        return RegularDecision("does-not-extend", None)
    if spec.degree > MAX_REGULAR_DEGREE:
        return RegularDecision("unknown", None)
    reps = tuple(map(class_representative, classes))
    lead = next((i for i, c in enumerate(classes) if c[0] > 1), 0)  # earlier classes are e
    best = handles = None
    for group in _regular_overgroups([reps[lead]], spec.degree):
        pools = [sorted(g for g in group if g.cycle_type() == c) for c in classes]
        pools[lead] = [reps[lead]]
        for candidate in itertools.product(*pools):
            # the pools are sorted, so no later tuple of this group is smaller
            if best is not None and candidate >= best:
                break
            if (reached := _handles_reach(group, spec.genus, candidate)) is not None:
                best, handles = candidate, reached
                break
        if best == reps:
            break
    if best is None:
        return RegularDecision("does-not-extend", None)
    if not _relation_holds(handles, best):
        raise AssertionError("regular witness relation check failed")
    image = _subgroup_closure([*best, *(g for pair in handles for g in pair)])
    if image is None or len(image) != spec.degree:
        raise AssertionError("regular witness image is not regular")
    return RegularDecision("extends", best, handles)


@dataclass(frozen=True)
class StallingsRep:
    degree: int
    assignment: dict[str, Permutation]


def stallings_excluding_subgroup(w: Word) -> StallingsRep:
    """A point-stabilizer subgroup of index <= |w| + 1 excluding w.

    Letter i of w sends point i to i + 1 on a line of |w| + 1 points; each
    generator's partial injection is completed to a permutation by matching
    the leftover sources and targets in increasing order.  The result moves
    the basepoint by w, so w is excluded from the stabilizer of 1.
    """
    if w.is_trivial:
        raise ValueError("trivial word has no excluding subgroup")
    d = len(w) + 1
    partial = {gen: [None] * d for gen in w.gens}
    for i, ch in enumerate(w.letters):
        # x at i sends i to i + 1, X at i sends i + 1 to i: reduced, so no slot twice
        if ch in partial:
            partial[ch][i] = i + 1
        else:
            partial[ch.lower()][i + 1] = i
    assignment = {}
    for gen in w.gens:
        free_dst = iter(sorted(set(range(d)) - set(partial[gen])))
        images = tuple(next(free_dst) if t is None else t for t in partial[gen])
        assignment[gen] = Permutation(images)
    table = letter_images(assignment)
    point = 0  # traced letter by letter: multiplying out w would cost |w| products of degree d
    for ch in w.letters:
        point = table[ch].images[point]
    if point == 0:
        raise AssertionError("completion failed to move the basepoint")
    return StallingsRep(d, assignment)
