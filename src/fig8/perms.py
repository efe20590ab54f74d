"""Integer partitions, permutations, and exact symmetric-group characters.

Permutations act on the right: (sigma * tau)(i) = tau(sigma(i)).  The
commutator is [sigma, tau] = sigma tau sigma^-1 tau^-1 under this
convention.  Characters are computed by the Murnaghan-Nakayama border-strip
recursion on beta-sets, memoized, in exact integer arithmetic.

Only ``Partition.parse`` and ``Permutation.parse`` check their input: every
other constructor preserves the invariants and builds its values unchecked.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


# A permutation holds n images, so a parsed degree is capped: a typed degree
# of 10^8 would otherwise allocate gigabytes before any search starts.
MAX_DEGREE = 1000


class PermError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        parts = sorted((int(p) for p in text.split(",")), reverse=True)
        if parts[-1] < 1:
            raise PermError(f"partition {text!r} has a part below 1")
        return cls(tuple(parts))


def partitions_of(n: int, max_part: int | None = None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield Partition(())
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + rest.parts)


def class_parity(p: Partition) -> str:
    """Parity of any permutation with cycle type p."""
    return "odd" if (p.n - len(p.parts)) % 2 else "even"


def class_size(p: Partition) -> int:
    """Number of permutations of cycle type p in S_n."""
    denom = 1
    for part, mult in Counter(p.parts).items():
        denom *= part**mult * math.factorial(mult)
    return math.factorial(p.n) // denom


@lru_cache(maxsize=None)
def _character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not lam:
        return 1
    strip = mu[0]
    rest = mu[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((x for x in beta if x != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        new_lam = tuple(
            x - (length - 1 - i) for i, x in enumerate(new_beta) if x - (length - 1 - i) > 0
        )
        total += (-1) ** height * _character(new_lam, rest)
    return total


def character(lam: Partition, mu: Partition) -> int:
    """Irreducible S_n character chi_lambda evaluated on the class mu."""
    if lam.n != mu.n:
        raise PermError(f"partition sizes differ: {lam.n} vs {mu.n}")
    return _character(lam.parts, mu.parts)


def frobenius_count(classes: list[Partition]) -> int:
    """Exact number of tuples (g_1, ..., g_k), g_i in class i, with product identity."""
    if not classes:
        raise PermError("need at least one class")
    n = classes[0].n
    if any(c.n != n for c in classes):
        raise PermError("all classes must belong to the same S_n")
    k = len(classes)
    one = Partition((1,) * n)
    total = Fraction(0)
    for lam in partitions_of(n):
        dim = character(lam, one)
        num = 1
        for mu in classes:
            num *= character(lam, mu)
        total += Fraction(num) * Fraction(dim) ** (2 - k)
    prefactor = Fraction(1, math.factorial(n))
    for mu in classes:
        prefactor *= class_size(mu)
    result = prefactor * total
    if result.denominator != 1:
        raise PermError(f"character sum did not clear to an integer: {result}")
    return result.numerator


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored 0-indexed; right-action composition."""

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
                raise PermError(f"bad cycle notation: {text!r}")
            for chunk in text[1:-1].split(")("):
                cycles.append(tuple(int(tok) for tok in chunk.replace(",", " ").split()))
        points = [p for c in cycles for p in c]
        if n is None:
            n = max(points, default=0)
        if n < 1:
            raise PermError(f"degree {n} is below 1")
        if n > MAX_DEGREE:
            raise PermError(f"degree {n} is above the cap {MAX_DEGREE}")
        if not all(1 <= p <= n for p in points) or len(set(points)) != len(points):
            raise PermError(f"{text!r} needs distinct points in 1..{n}")
        return cls.from_cycles(n, cycles)

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise PermError("degree mismatch")
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
        return len(self.cycles()) + sum(1 for i, v in enumerate(self.images) if i == v)

    def cycle_type(self) -> Partition:
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return Partition(tuple(sorted(lengths, reverse=True)))

    def is_even(self) -> bool:
        return class_parity(self.cycle_type()) == "even"

    def order(self) -> int:
        return math.lcm(*[p for p in self.cycle_type().parts]) if self.degree else 1

    def __str__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "e"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cyc)


def commutator(s: Permutation, t: Permutation) -> Permutation:
    return s * t * s.inverse() * t.inverse()


def all_permutations(n: int):
    for images in itertools.permutations(range(n)):
        yield Permutation(images)


@lru_cache(maxsize=None)
def class_elements(p: Partition) -> tuple[Permutation, ...]:
    """All permutations of cycle type p, in lexicographic order of images.

    Generated, not filtered from all n! permutations: the least unused point
    opens a cycle of each distinct remaining length, its other points an
    ordered choice of unused points.  Cached; intended for small n.
    """
    images = list(range(p.n))

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

    return tuple(map(Permutation, sorted(build(list(range(p.n)), p.parts))))


def class_representative(p: Partition) -> Permutation:
    cycles = []
    next_pt = 1
    for part in p.parts:
        cycles.append(tuple(range(next_pt, next_pt + part)))
        next_pt += part
    return Permutation.from_cycles(p.n, [c for c in cycles if len(c) > 1])
