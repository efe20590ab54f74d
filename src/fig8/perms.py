"""Integer partitions, permutations, and exact symmetric-group characters.

Permutations act on the right: (sigma * tau)(i) = tau(sigma(i)).  The
commutator is [sigma, tau] = sigma tau sigma^-1 tau^-1 under this
convention.  Characters follow the Murnaghan-Nakayama rule, memoized, in
exact integer arithmetic: one rim-hook move on beta-sets (the abacus of
James and Kerber) strips a class's parts, a class of 1s gives the
dimension by the hook-length formula, and a hook shape reads its value
from the class's generating polynomial, cut at its shorter leg.  The
Frobenius count sums integer terms over the character support of the class
with the fewest fixed points, which the same move run backwards builds from
the partitions of its fixed points, and divides once, exactly, at the end.

A partition is its tuple of parts, largest first.  Only ``parse_partition``
and ``Permutation.parse`` check their input, and both refuse a degree above
MAX_DEGREE: every other constructor preserves the invariants and builds its
values unchecked.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, takewhile
from operator import sub


# A permutation, and a class representative, holds n images, so a parsed
# degree is capped: a typed degree of 10^8 would otherwise allocate gigabytes
# before any search starts.
MAX_DEGREE = 1000

Partition = tuple[int, ...]


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts, in any order, into a partition."""
    parts = sorted((int(p) for p in text.split(",")), reverse=True)
    if parts[-1] < 1:
        raise ValueError(f"partition {text!r} has a part below 1")
    if sum(parts) > MAX_DEGREE:
        raise ValueError(f"degree {sum(parts)} is above the cap {MAX_DEGREE}")
    return tuple(parts)


def partitions_of(n: int, max_part: int | None = None):
    """Partitions of n into parts of at most max_part (default n), as tuples,
    largest part first, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if max_part is None else max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def class_parity(p: Partition) -> int:
    """Parity of any permutation with cycle type p: 1 if odd, 0 if even."""
    return (sum(p) - len(p)) % 2


def class_size(p: Partition) -> int:
    """Number of permutations of cycle type p in S_n."""
    denom = 1
    for part, mult in Counter(p).items():
        denom *= part**mult * math.factorial(mult)
    return math.factorial(sum(p)) // denom


def _dimension(lam: Partition) -> int:
    """dim lambda by the hook-length formula: n! over the product of hook lengths."""
    conj = []  # the conjugate partition, built from the shortest row up
    for i in range(len(lam) - 1, -1, -1):
        conj += [i + 1] * (lam[i] - len(conj))
    hooks = math.prod(part - j + conj[j] - i - 1 for i, part in enumerate(lam) for j in range(part))
    return math.factorial(sum(lam)) // hooks


def _rim_hooks(lam: Partition, m: int):
    """(rho, sign) for each rim hook of size |m| added to lam (m > 0) or removed (m < 0).

    On the beta-set of lam padded with max(m, 0) zero parts, the hook moves
    one bead from b to a free b + m; its sign is -1 to the number of beads
    passed, the hook's height.
    """
    parts = lam + (0,) * max(m, 0)
    length = len(parts)
    beta = [part + length - 1 - i for i, part in enumerate(parts)]
    taken = set(beta)
    for i, b in enumerate(beta):
        if b + m < 0 or b + m in taken:
            continue
        moved = sorted(beta[:i] + [b + m] + beta[i + 1 :], reverse=True)
        # a part is its bead less the bead's row offset; the zero parts come last
        rho = tuple(takewhile(bool, map(sub, moved, range(length - 1, -1, -1))))
        yield rho, -1 if abs(moved.index(b + m) - i) % 2 else 1


@lru_cache(maxsize=None)
def _hook_column(mu: Partition, length: int) -> tuple[int, ...]:
    """chi of the hook (n - r, 1^r) at mu, for r < length: (-1)^r times the
    coefficient of y^r in prod_i (1 - y^mu_i) / (1 - y) (Macdonald, ch. I),
    from that product truncated below degree length."""
    poly = [1] + [0] * (length - 1)
    for m in mu:
        if m < length:
            poly[m:] = map(sub, poly[m:], poly[:-m])
    return tuple(-c if r % 2 else c for r, c in enumerate(accumulate(poly)))


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if len(mu) == sum(lam):  # mu is all 1s, or both are empty
        return _dimension(lam)
    if len(lam) < 2 or lam[1] == 1:  # a hook (n - r, 1^r); () has returned above
        # the shorter leg of lam and its conjugate, whose character is sgn(mu) times lam's;
        # a column per power of two of it keeps a deep recursion's short legs cheap
        r = min(len(lam), lam[0]) - 1
        sign = -1 if lam[0] < len(lam) and (sum(lam) - len(mu)) % 2 else 1
        return sign * _hook_column(mu, 1 << r.bit_length())[r]
    # a plain loop, not sum() over a generator, keeps one frame per part of mu
    total = 0
    for rho, sign in _rim_hooks(lam, -mu[0]):
        total += sign * _character(rho, mu[1:])
    return total


def frobenius_count(classes: list[Partition]) -> int:
    """Exact number of tuples (g_1, ..., g_k), g_i in class i, with product identity.

    Frobenius gives prod |C_i| / n! times the sum over lambda of
    prod chi_lambda(mu_i) / dim_lambda^(k-2).  Since dim_lambda divides n!,
    the sum scaled by n!^k has the integer terms
    prod chi_lambda(mu_i) * dim_lambda^2 * (n!/dim_lambda)^k, and one exact
    division by n!^(k+1) follows.  A term is 0 wherever the pivot class,
    the one with the fewest fixed points (on a tie, the fewest parts), has
    character 0, so the sum runs over its support only: from the partitions
    of its fixed points, each weighted by its dimension, its other parts
    are added as rim hooks.
    """
    if not classes:
        raise ValueError("need at least one class")
    n = sum(classes[0])
    if any(sum(c) != n for c in classes):
        raise ValueError("all classes must belong to the same S_n")
    k = len(classes)
    order = math.factorial(n)
    pivot = min(classes, key=lambda mu: (mu.count(1), len(mu)))
    fixed = pivot.count(1)
    support = {nu: _dimension(nu) for nu in partitions_of(fixed)}
    for m in reversed(pivot[: len(pivot) - fixed]):
        grown: dict[Partition, int] = {}
        for rho, weight in support.items():
            for lam, sign in _rim_hooks(rho, m):
                grown[lam] = grown.get(lam, 0) + sign * weight
        support = {lam: chi for lam, chi in grown.items() if chi}
    others = list(classes)
    others.remove(pivot)
    total = 0
    for lam, chi in support.items():
        dim = _dimension(lam)
        term = chi * dim * dim * (order // dim) ** k
        for mu in others:
            term *= _character(lam, mu)
        total += term
    divisor = order ** (k + 1)
    count, rest = divmod(math.prod(map(class_size, classes)) * total, divisor)
    if rest:
        raise AssertionError(f"character sum did not clear to an integer: {count} + {rest}/{divisor}")
    return count


@dataclass(frozen=True, order=True)
class Permutation:
    """Bijection of {1..n}, stored 0-indexed; right-action composition; ordered by images."""

    images: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: list[tuple[int, ...]]) -> "Permutation":
        """Build from 1-indexed cycles, which must be disjoint with points in 1..n."""
        images = list(range(n))
        for cyc in cycles:
            for i, v in enumerate(cyc):
                images[v - 1] = cyc[(i + 1) % len(cyc)] - 1
        return cls(tuple(images))

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "Permutation":
        """Parse cycle notation like "(1 2 3)(4 5)"; points are 1-indexed.

        n defaults to the largest point.  Rejects a degree below 1 or above
        MAX_DEGREE and any point outside 1..n or repeated within or across
        cycles.
        """
        text = text.strip()
        cycles: list[tuple[int, ...]] = []
        if text not in ("", "e", "()"):
            if not (text.startswith("(") and text.endswith(")")):
                raise ValueError(f"bad cycle notation: {text!r}")
            for chunk in text[1:-1].split(")("):
                cycles.append(tuple(int(tok) for tok in chunk.replace(",", " ").split()))
        points = [p for c in cycles for p in c]
        if n is None:
            n = max(points, default=0)
        if n < 1:
            raise ValueError(f"degree {n} is below 1")
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} is above the cap {MAX_DEGREE}")
        if not all(1 <= p <= n for p in points) or len(set(points)) != len(points):
            raise ValueError(f"{text!r} needs distinct points in 1..{n}")
        return cls.from_cycles(n, cycles)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(other.images[self.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, v in enumerate(self.images):
            images[v] = i
        return Permutation(tuple(images))

    def __call__(self, point: int) -> int:
        """Image of a 1-indexed point."""
        return self.images[point - 1] + 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 1-indexed, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if not seen[i] and self.images[i] != i:
                cyc = []
                j = i
                while not seen[j]:
                    seen[j] = True
                    cyc.append(j + 1)
                    j = self.images[j]
                out.append(tuple(cyc))
        return out

    def cycle_count(self) -> int:
        """Total number of cycles, fixed points included."""
        return len(self.cycle_type())

    def cycle_type(self) -> Partition:
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def is_even(self) -> bool:
        return not class_parity(self.cycle_type())

    def __str__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "e"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)


def commutator(s: Permutation, t: Permutation) -> Permutation:
    return s * t * s.inverse() * t.inverse()


def _grow(tracks, y: int, v: int):
    """The tracks after g(y) = v, or None if a cycle type rules that out."""
    grown = []
    for relabel, ends, left in tracks:
        b = relabel[v]
        (s, k), (e, m) = ends[y], ends[b]
        if s == b and k in left:  # closes a cycle whose length k is an unused part
            left = left[: left.index(k)] + left[left.index(k) + 1 :]
        elif s == b or k + m > left[0]:  # a cycle of no unused length, or too long a path
            return None
        else:
            ends = ends.copy()
            ends[s], ends[e] = (e, k + m), (s, k + m)
        grown.append((relabel, ends, left))
    return grown


def class_elements(p: Partition, t=None, q=None, first=None):
    """Permutations g of cycle type p, lazily, in lexicographic order of images.

    Points are 0-indexed, as in images.  With t and q, only the g for which
    g * t has cycle type q; with first, only those with g(0) = first.  A
    depth-first search on its own stack assigns g(0), g(1), ... in turn,
    least image first.  Since (g * t)(y) = t(g(y)), the partner gains its
    image of y at the same step.  Each has a track (relabel, ends, left)
    that sends y to relabel[v]: ends[x] is (other endpoint, points) of the
    open path with endpoint x, and left holds the parts, largest first,
    that no closed cycle has taken.
    """
    n = sum(p)
    pairs = [(range(n), p)] + ([(t.images, q)] if t is not None else [])
    tracks = [(relabel, [(x, 1) for x in range(n)], c) for relabel, c in pairs]
    g, used = [], [False] * n
    stack = [(tracks, iter(range(n) if first is None else [first]))]
    while stack:
        tracks, options = stack[-1]
        if len(g) == n:
            yield Permutation(tuple(g))
            options = ()  # nothing left to assign: backtrack
        for v in options:
            if not used[v] and (grown := _grow(tracks, len(g), v)):
                g.append(v)
                used[v] = True
                stack.append((grown, iter(range(n))))
                break
        else:
            stack.pop()
            if g:
                used[g.pop()] = False


def class_representative(p: Partition) -> Permutation:
    cycles = []
    next_pt = 1
    for part in p:
        cycles.append(tuple(range(next_pt, next_pt + part)))
        next_pt += part
    return Permutation.from_cycles(sum(p), [c for c in cycles if len(c) > 1])
