"""Extension of boundary coverings to surface coverings, with explicit witnesses.

A covering specification prescribes the genus of the base surface and the
cycle type of the monodromy over each boundary component.  Extension is
decided by the product condition (genus 0, via the Frobenius count) or the
parity condition (genus >= 1), and a witness homomorphism is assembled
explicitly: boundary images from class representatives and one handle pair
realizing the needed commutator via the two-n-cycles factorization.

All permutations compose on the right: (sigma * tau)(i) = tau(sigma(i)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .perms import (
    Partition,
    PermError,
    Permutation,
    all_permutations,
    class_parity,
    class_representative,
    commutator,
    frobenius_count,
)
from .words import Word, evaluate


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class CoverSpec:
    genus: int
    boundary_classes: tuple[Partition, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise CoverError("genus must be nonnegative")
        if not self.boundary_classes:
            raise CoverError("need at least one boundary class")
        degrees = {p.n for p in self.boundary_classes}
        if len(degrees) != 1:
            raise CoverError(f"boundary classes of mixed degree: {sorted(degrees)}")

    @property
    def degree(self) -> int:
        return self.boundary_classes[0].n


@lru_cache(maxsize=None)
def _n_cycles(n: int) -> tuple[Permutation, ...]:
    return tuple(g for g in all_permutations(n) if g.cycle_type() == Partition((n,)))


def two_n_cycles(sigma: Permutation) -> tuple[Permutation, Permutation]:
    """n-cycles c1, c2 with c1 * c2 = sigma; exists for every even permutation."""
    if not sigma.is_even():
        raise PermError(f"{sigma} is odd: not a product of two n-cycles of equal parity")
    n = sigma.degree
    full = Partition((n,))
    for c1 in _n_cycles(n):
        c2 = c1.inverse() * sigma
        if c2.cycle_type() == full:
            if (c1 * c2) != sigma:
                raise PermError("two_n_cycles composition check failed")
            return (c1, c2)
    raise PermError(f"no two-n-cycle factorization found for {sigma}")


def commutator_witness(sigma: Permutation) -> tuple[Permutation, Permutation]:
    """(alpha, beta) with [alpha, beta] = alpha*beta*alpha^-1*beta^-1 = sigma."""
    if not sigma.is_even():
        raise PermError(f"{sigma} is odd: not a commutator")
    n = sigma.degree
    identity = Permutation.identity(n)
    if sigma == identity:
        return (identity, identity)
    c1, c2 = two_n_cycles(sigma)
    # Any two n-cycles are conjugate: align the cycle of c1^-1 with that of
    # c2.  Under right action, conjugation by beta relabels the cycle
    # (p1 p2 ...) of x as (beta^-1(p1) beta^-1(p2) ...), so beta must send
    # the c2-cycle points onto the c1^-1-cycle points position by position.
    x_cycle = _full_cycle(c1.inverse())
    y_cycle = _full_cycle(c2)
    images = [0] * n
    for xp, yp in zip(x_cycle, y_cycle):
        images[yp - 1] = xp - 1
    beta = Permutation(tuple(images))
    alpha = c1
    if commutator(alpha, beta) != sigma:
        raise PermError("commutator witness verification failed")
    return (alpha, beta)


def _full_cycle(c: Permutation) -> list[int]:
    pts = [1]
    while len(pts) < c.degree:
        pts.append(c(pts[-1]))
    return pts


@dataclass(frozen=True)
class ExtendDecision:
    extends: bool
    reason: str
    handles: tuple[tuple[Permutation, Permutation], ...] | None
    boundaries: tuple[Permutation, ...] | None

    def verify(self) -> bool:
        """Check the defining relation prod [a_i, b_i] * prod gamma_j = e."""
        if not self.extends:
            return True
        identity = Permutation.identity(self.boundaries[0].degree)
        factors = [commutator(a, b) for a, b in self.handles] + list(self.boundaries)
        return math.prod(factors, start=identity) == identity


def _boundary_tuples(classes: tuple[Partition, ...], target_product: bool, exhaustive: bool):
    """Backtracking over boundary images; first class fixed by conjugacy.

    With target_product, only tuples multiplying to the identity are
    yielded (the last factor is forced, not searched).  Without it a single
    representative tuple suffices unless ``exhaustive`` asks for all
    choices (used by the transitive witness search).
    """
    from .perms import class_elements

    first = class_representative(classes[0])
    if len(classes) == 1:
        if not target_product or first == Permutation.identity(first.degree):
            yield (first,)
        return

    if target_product:
        pools = [class_elements(c) for c in classes[1:-1]]
    elif exhaustive:
        pools = [class_elements(c) for c in classes[1:]]
    else:
        pools = [[class_representative(c)] for c in classes[1:]]

    def rec(i, chosen, product):
        if i == len(pools):
            if target_product:
                forced = product.inverse()
                if forced.cycle_type() == classes[-1]:
                    yield chosen + (forced,)
            else:
                yield chosen
            return
        for g in pools[i]:
            yield from rec(i + 1, chosen + (g,), product * g)

    yield from rec(0, (first,), first)


def extends_cover(spec: CoverSpec, transitive: bool = False) -> ExtendDecision:
    """Decide whether the boundary covering extends over the surface.

    Genus 0: extends iff some choice of class representatives multiplies to
    the identity (Frobenius count positive).  Genus >= 1: extends iff the
    parities of the classes sum to zero mod 2; the witness absorbs the
    boundary product into a single commutator handle.

    With ``transitive`` set, the witness search is restricted to
    representations whose image acts transitively; the decision itself is
    unchanged and the witness may come back None if none is found.
    """
    classes = spec.boundary_classes
    n = spec.degree
    identity = Permutation.identity(n)

    if spec.genus == 0:
        if frobenius_count(list(classes)) == 0:
            return ExtendDecision(False, "product", None, None)
        reason = "product"
    else:
        parity_sum = sum(1 for c in classes if class_parity(c) == "odd")
        if parity_sum % 2:
            return ExtendDecision(False, "parity", None, None)
        reason = "parity"

    def build(boundaries):
        if spec.genus == 0:
            handles = ()
        else:
            product = math.prod(boundaries, start=identity)
            alpha, beta = commutator_witness(product.inverse())
            handles = ((alpha, beta),) + ((identity, identity),) * (spec.genus - 1)
        return ExtendDecision(True, reason, handles, tuple(boundaries))

    need_product = spec.genus == 0
    for boundaries in _boundary_tuples(classes, need_product, exhaustive=transitive):
        decision = build(boundaries)
        if not decision.verify():
            raise CoverError("witness relation check failed")
        if not transitive or _is_transitive(decision):
            return decision
    if transitive:
        # decision stands, but no transitive witness was found in the search
        return ExtendDecision(True, reason + " (no transitive witness found)", None, None)
    raise CoverError("decision positive but witness search failed")


def _is_transitive(decision: ExtendDecision) -> bool:
    perms = list(decision.boundaries)
    for a, b in decision.handles or ():
        perms += [a, b]
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

    degree: int
    handle_sigma: Permutation
    handle_tau: Permutation
    boundary: Permutation
    boundary_components: int
    cover_genus: int


def strip_cover(sigma: Permutation, tau: Permutation) -> StripCover:
    """The punctured-torus cover with handle monodromies (sigma, tau).

    sigma must be an n-cycle (the horizontal strip gluing).  The boundary
    monodromy is the commutator [sigma, tau]; its cycles are the boundary
    components of the cover.  The Euler characteristic identity
    n * chi(torus) = 2 - 2g - b is asserted.
    """
    n = sigma.degree
    if tau.degree != n:
        raise CoverError("degree mismatch")
    if sigma.cycle_type() != Partition((n,)):
        raise CoverError(f"{sigma} is not an {n}-cycle")
    boundary = commutator(sigma, tau)
    components = boundary.cycle_count()
    # chi of the once-punctured torus is -1; the cover is connected since
    # sigma is transitive, so chi = -n = 2 - 2g - b.
    if (2 + n - components) % 2:
        raise CoverError("Euler characteristic parity violated")
    genus = (2 + n - components) // 2
    if genus < 0:
        raise CoverError("negative cover genus")
    return StripCover(n, sigma, tau, boundary, components, genus)


def boundary_lift_components(
    assignment: dict[str, Permutation], boundary_words: list[Word]
) -> list[int]:
    """Connected components of each boundary preimage = cycles of its image."""
    identity = Permutation.identity(next(iter(assignment.values())).degree)
    return [evaluate(w, assignment, identity).cycle_count() for w in boundary_words]


@dataclass(frozen=True)
class RegularDecision:
    status: str  # "extends" | "does-not-extend" | "unknown"
    witness: tuple[Permutation, ...] | None


def _subgroup_closure(gens: list[Permutation], cap: int) -> set[Permutation] | None:
    """Generated subgroup, or None as soon as its order exceeds cap."""
    n = gens[0].degree
    group = {Permutation.identity(n)}
    frontier = [Permutation.identity(n)]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = g * s
            if h not in group:
                group.add(h)
                if len(group) > cap:
                    return None
                frontier.append(h)
    return group


def _order_n_overgroups(seed: list[Permutation], n: int):
    """All order-n subgroups of S_n containing the seed elements.

    Depth-first extension of the generated subgroup, adding only the
    minimal representative of each right coset to avoid revisiting the
    same subgroup through different generators.
    """
    base = _subgroup_closure(seed or [Permutation.identity(n)], n)
    if base is None:
        return
    candidates = sorted(all_permutations(n), key=lambda g: g.images)

    def extend(group: set[Permutation], gens: list[Permutation]):
        if len(group) == n:
            yield group
            return
        seen_cosets = {frozenset(h.images for h in group)}
        for g in candidates:
            if g in group:
                continue
            coset = frozenset((h * g).images for h in group)
            if coset in seen_cosets:
                continue
            seen_cosets.add(coset)
            if min(coset) != g.images:
                continue  # only the minimal coset representative extends
            bigger = _subgroup_closure(gens + [g], n)
            if bigger is not None and len(bigger) <= n:
                yield from extend(bigger, gens + [g])

    yield from extend(base, list(seed))


def _handle_assignment(group: set[Permutation], genus: int, target, must_generate_with):
    """Handle pairs in the group whose commutator product hits the target.

    Requires the chosen handles together with ``must_generate_with`` to
    generate the whole group.  Exhaustive with subgroup-state pruning.
    """
    n = target.degree
    elements = sorted(group, key=lambda g: g.images)
    pairs = [(a, b) for a in elements for b in elements]

    def rec(level, product, chosen):
        if level == genus:
            if product != target:
                return None
            generated = _subgroup_closure(list(must_generate_with) + [g for p in chosen for g in p], n)
            if generated is not None and len(generated) == len(group):
                return chosen
            return None
        for a, b in pairs:
            found = rec(level + 1, product * commutator(a, b), chosen + ((a, b),))
            if found is not None:
                return found
        return None

    return rec(0, Permutation.identity(n), ())


def regular_extends(spec: CoverSpec, budget: int = 8) -> RegularDecision:
    """Regular-cover extension: the image must be a subgroup of order exactly n.

    Genus 0: some choice of boundary images from the classes generates an
    order-n subgroup and multiplies to the identity.  Genus >= 1 (the
    weakest faithful reading): the boundary images lie in an order-n
    subgroup whose handle images absorb the boundary product as a product
    of genus commutators, the whole assignment generating the subgroup.
    Exhaustive backtracking, first class fixed to its representative;
    degrees above the budget return "unknown".
    """
    from .perms import class_elements

    n = spec.degree
    if n > budget or spec.genus > 4:
        return RegularDecision("unknown", None)
    classes = spec.boundary_classes
    pools = [[class_representative(classes[0])]] + [class_elements(c) for c in classes[1:]]

    def boundary_tuples(i, chosen):
        if i == len(pools):
            yield chosen
            return
        for g in pools[i]:
            yield from boundary_tuples(i + 1, chosen + (g,))

    identity = Permutation.identity(n)
    for boundaries in boundary_tuples(0, ()):
        product = math.prod(boundaries, start=identity)
        if spec.genus == 0:
            if product != identity:
                continue
            group = _subgroup_closure(list(boundaries), n)
            if group is not None and len(group) == n:
                return RegularDecision("extends", boundaries)
        else:
            for group in _order_n_overgroups(list(boundaries), n):
                handles = _handle_assignment(group, spec.genus, product.inverse(), boundaries)
                if handles is not None:
                    return RegularDecision("extends", boundaries)
    return RegularDecision("does-not-extend", None)


@dataclass(frozen=True)
class StallingsRep:
    degree: int
    assignment: dict[str, Permutation]


def stallings_excluding_subgroup(w: Word) -> StallingsRep:
    """A point-stabilizer subgroup of index <= |w| + 1 excluding w.

    The word is traced along a line of |w| + 1 points; each generator's
    partial injection is completed to a permutation by matching the leftover
    sources and targets in increasing order.  The resulting representation
    moves the basepoint by w, so w is excluded from the stabilizer of 1.
    """
    if w.is_trivial:
        raise CoverError("trivial word has no excluding subgroup")
    d = len(w) + 1
    partial: dict[str, dict[int, int]] = {g: {} for g in w.gens}
    for i, ch in enumerate(w.letters):
        gen = ch.lower()
        src, dst = (i, i + 1) if ch.islower() else (i + 1, i)
        # free reduction guarantees the partial maps stay injective
        if partial[gen].get(src, dst) != dst:
            raise CoverError("inconsistent trace of a reduced word")
        partial[gen][src] = dst
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
    image = evaluate(w, assignment, Permutation.identity(d))
    if image(1) == 1:
        raise CoverError("completion failed to move the basepoint")
    return StallingsRep(d, assignment)
