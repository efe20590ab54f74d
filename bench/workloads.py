"""Seeded job streams for the fig8 benchmark.

Every workload draws its jobs from a fixed pool, so that each job the
stream can contain has a golden recorded in ``goldens/<workload>.json``.
Pool entry ``j`` of a stratum is generated from its own string-seeded RNG,
so any entry can be rebuilt on its own without generating the whole pool.
A stratum's pool holds exactly the jobs that a run at the benchmark's own
``--seconds`` (``POOL_SECONDS``) draws from it.  Such a run measures every
pool entry once, and its seed chooses the order; the tail latencies then
do not depend on which few heavy entries a seed happens to draw.  Longer
runs go through the pool again in a new order.

A stream is a sequence of rounds.  Each round holds a fixed number of jobs
of every stratum, shuffled, so the job mix (and with it the run's cost) is
the same for every seed.  Within a stratum the stream draws pool entries
without replacement until the pool is used up.
The number of rounds is fixed per workload and ``--seconds``; it does not
depend on how fast the program runs, so two commits measured with the same
settings run the same jobs.

The job mix of a round has one stated basis per workload:

- ``surface-words`` follows the corpus sizes of acceptance criteria 13 and
  9: 10^4 random certify words, 100 relator products, 1000 prime words,
  i.e. 100 : 1 : 10.
- ``torus-census`` and ``finite-groups`` run every job type the same number
  of times.  Where a type has several sizes (``selfint`` word lengths 2..8,
  ``lpsgirth`` q = 13 and 17, the two cases of criterion 12), the round
  holds one job of each size and as many of every other type.  The one
  exception is ``lpsgirth`` at q = 37: one such job costs about four rounds,
  so it runs once per run, which is enough to put its 50,616-vertex search
  into the peak memory.

This module imports nothing from fig8: the inputs must not change when
the program does.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable

GENUS2_RELATOR = "abABdcDC"  # [a,b][c,d]^-1, as in the program's presentation


def invert(word: str) -> str:
    return word.swapcase()[::-1]


@functools.cache
def _ball_counts(max_len: int, gens: str) -> tuple[list[int], int]:
    r = 2 * len(gens)
    counts = [r * (r - 1) ** (n - 1) for n in range(1, max_len + 1)]
    return counts, sum(counts)


def reduced_word(rng: random.Random, max_len: int, gens: str) -> str:
    """Uniform over the nonempty freely reduced words of length <= max_len."""
    counts, total = _ball_counts(max_len, gens)
    x = rng.randrange(total)
    length = max_len
    for n, c in enumerate(counts, start=1):
        if x < c:
            length = n
            break
        x -= c
    return word_of_length(rng, length, gens)


@functools.cache
def _successors(gens: str) -> dict[str, str]:
    alphabet = gens + gens.upper()
    return {ch: alphabet.replace(ch.swapcase(), "") for ch in alphabet}


def word_of_length(rng: random.Random, length: int, gens: str) -> str:
    """Uniform over the freely reduced words of exactly this length."""
    successors = _successors(gens)
    ch = rng.choice(gens + gens.upper())
    out = [ch]
    for _ in range(length - 1):
        ch = rng.choice(successors[ch])
        out.append(ch)
    return "".join(out)


def is_proper_power(w: str) -> bool:
    n = len(w)
    return any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n // 2 + 1))


def cyclic_nonpower_word(rng: random.Random, length: int) -> str:
    """Uniform over cyclically reduced, non-power words of F(a, b) of this length.

    Rejection sampling from the reduced words of the length; nothing about
    the program's answer on the word takes part in the choice.
    """
    while True:
        w = word_of_length(rng, length, "ab")
        if w[0] != w[-1].swapcase() and not is_proper_power(w):
            return w


def random_partition(rng: random.Random, n: int) -> list[int]:
    parts = []
    left = n
    while left:
        part = rng.randint(1, left)
        parts.append(part)
        left -= part
    return sorted(parts, reverse=True)


def partition_str(parts: list[int]) -> str:
    return ",".join(str(p) for p in parts)


def cycles_str(images: list[int]) -> str:
    """Cycle notation, 1-indexed, of a 0-indexed image list ("e" for identity)."""
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i] or images[i] == i:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(str(j + 1))
            j = images[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "e"


def random_perm(rng: random.Random, n: int) -> list[int]:
    images = list(range(n))
    rng.shuffle(images)
    return images


def parity(images: list[int]) -> int:
    seen = [False] * len(images)
    transpositions = 0
    for i in range(len(images)):
        j = i
        size = 0
        while not seen[j]:
            seen[j] = True
            j = images[j]
            size += 1
        transpositions += max(size - 1, 0)
    return transpositions % 2


def random_even_perm(rng: random.Random, n: int) -> list[int]:
    images = random_perm(rng, n)
    if parity(images):
        images[0], images[1] = images[1], images[0]
    return images


def random_n_cycle(rng: random.Random, n: int) -> list[int]:
    order = random_perm(rng, n)
    images = [0] * n
    for k in range(n):
        images[order[k]] = order[(k + 1) % n]
    return images


def log_uniform(rng: random.Random, lo: float, hi: float) -> str:
    return format(10 ** rng.uniform(math.log10(lo), math.log10(hi)), ".6g")


# --- strata ---------------------------------------------------------------
#
# A stratum maps a private RNG to one job's argv (the fig8 arguments after
# ``--output FILE``).


def _certify(rng):
    return ["surface-certify", "--word", reduced_word(rng, 40, "abcd")]


def _certify_relator(rng):
    letters = "abcdABCD"
    pieces = []
    for _ in range(rng.randrange(1, 4)):
        g = "".join(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
        base = GENUS2_RELATOR if rng.random() < 0.5 else invert(GENUS2_RELATOR)
        pieces.append(g + base + invert(g))
    return ["surface-certify", "--word", "".join(pieces)]


def _prime(rng):
    return ["prime", "--word", reduced_word(rng, 300, "ab")]


def _counts(rng):
    lengths = sorted(rng.randint(2, 70) for _ in range(rng.randint(1, 3)))
    return ["census", "--counts-at", ",".join(str(x) for x in lengths)]


def _census(rng):
    return ["census", "--cutoff", format(rng.uniform(3, 70), ".1f"),
            "--mode", rng.choice(["paired", "full"])]


def _mcshane(rng):
    return ["mcshane", "--cutoff", log_uniform(rng, 3, 1e15),
            "--form", rng.choice(["trace", "length"])]


def _mc2(rng):
    return ["mc2", "--cutoff", log_uniform(rng, 9, 1e15)]


def _selfint(length):
    def make(rng):
        return ["selfint", "--word", cyclic_nonpower_word(rng, length)]
    return make


def _frobenius(rng):
    n = rng.randint(2, 20)
    k = rng.randint(2, 4)
    return ["frobenius", "--classes",
            ";".join(partition_str(random_partition(rng, n)) for _ in range(k))]


def _extend(rng):
    n = rng.randint(2, 7)
    genus = rng.randint(0, 2)
    k = rng.randint(2, 3) if genus == 0 else rng.randint(1, 3)
    return ["extend", "--genus", str(genus), "--classes",
            ";".join(partition_str(random_partition(rng, n)) for _ in range(k))]


def _regular_extend(rng):
    genus = rng.randint(0, 2)
    n = rng.randint(2, 6 if genus == 0 else 5)
    k = rng.randint(1, 3)
    return ["regular-extend", "--genus", str(genus), "--classes",
            ";".join(partition_str(random_partition(rng, n)) for _ in range(k))]


def _twocycles(rng):
    n = rng.randint(3, 8)
    return ["twocycles", "--perm", cycles_str(random_even_perm(rng, n)), "--degree", str(n)]


def _stripcover(rng):
    n = rng.randint(2, 8)
    return ["stripcover", "--sigma", cycles_str(random_n_cycle(rng, n)),
            "--tau", cycles_str(random_perm(rng, n)), "--degree", str(n)]


def _stallings(rng):
    return ["stallings", "--word", word_of_length(rng, rng.randint(1, 20), "ab")]


def _nilpotent_word(rng):
    """A random word, or a commutator of two, so depths above 1 occur."""
    if rng.random() < 0.5:
        return word_of_length(rng, rng.randint(1, 12), "ab")
    u = word_of_length(rng, rng.randint(1, 4), "ab")
    v = word_of_length(rng, rng.randint(1, 4), "ab")
    return u + v + invert(u) + invert(v)


def _depth(rng):
    return ["depth", "--word", _nilpotent_word(rng), "--max-k", str(rng.randint(2, 8))]


def _witness(rng):
    return ["witness", "--word", _nilpotent_word(rng)]


def _expectedprime(rng):
    return ["expectedprime", "--terms", str(rng.randint(1, 40))]


def _avgindex(rng):
    return ["avgindex", "--samples", str(rng.randint(100, 1000)),
            "--radius", str(rng.randint(5, 30)), "--seed", str(rng.randrange(10**6))]


def _fixed(*argv):
    return lambda rng: list(argv)


POOL_SECONDS = 20  # the run_seconds of BENCHMARK.json


@dataclass(frozen=True)
class Stratum:
    name: str
    per_round: int  # jobs of this stratum in every round
    make: Callable[[random.Random], list[str]]
    per_run: int = 0  # jobs placed once per run, evenly spaced through the stream
    max_pool: int | None = None  # for a stratum with fewer distinct jobs than draws


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[Stratum, ...]
    rounds_per_second: float  # fixed; one run takes about --seconds on 2 cores, Python 3.11

    def rounds(self, seconds: float) -> int:
        return max(1, math.ceil(self.rounds_per_second * seconds))

    def pool(self, stratum: Stratum) -> int:
        """Number of pool entries: the draws of one run at ``POOL_SECONDS``."""
        size = stratum.per_round * self.rounds(POOL_SECONDS) + stratum.per_run
        return min(size, stratum.max_pool or size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "surface-words",
            (
                Stratum("certify", 100, _certify),
                Stratum("certify-relator", 1, _certify_relator),
                Stratum("prime", 10, _prime),
            ),
            rounds_per_second=0.7,
        ),
        Workload(
            "torus-census",
            (
                Stratum("counts", 7, _counts),
                Stratum("census", 7, _census),
                Stratum("mcshane", 7, _mcshane),
                Stratum("mc2", 7, _mc2),
            )
            + tuple(Stratum(f"selfint-{n}", 1, _selfint(n)) for n in range(2, 9)),
            rounds_per_second=1.8,
        ),
        Workload(
            "finite-groups",
            (
                Stratum("frobenius", 2, _frobenius),
                Stratum("extend", 2, _extend),
                Stratum("regular-extend", 2, _regular_extend),
                Stratum("twocycles", 2, _twocycles),
                Stratum("stripcover", 2, _stripcover),
                Stratum("stallings", 2, _stallings),
                Stratum("depth", 2, _depth),
                Stratum("witness", 2, _witness),
                Stratum("expectedprime", 2, _expectedprime, max_pool=40),  # --terms 1..40
                Stratum("avgindex", 2, _avgindex),
                Stratum("lpsgirth-13", 1, _fixed("lpsgirth", "--p", "5", "--q", "13"), max_pool=1),
                Stratum("lpsgirth-17", 1, _fixed("lpsgirth", "--p", "5", "--q", "17"), max_pool=1),
                Stratum("lpsgirth-37", 0, _fixed("lpsgirth", "--p", "5", "--q", "37"), per_run=1),
            ),
            rounds_per_second=3.5,
        ),
    )
}


def pool_entry(workload: str, stratum: Stratum, index: int) -> list[str]:
    """The argv of one pool entry; independent of every run seed."""
    return stratum.make(random.Random(f"fig8-bench/{workload}/{stratum.name}/{index}"))


def argv_digest(argv: list[str]) -> str:
    """Short digest of an argv, stored beside each golden to catch pool drift."""
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Job:
    job_id: int
    stratum: str
    index: int  # pool index within the stratum
    argv: tuple[str, ...]


class _Draws:
    """Pool indices of one stratum, without replacement until the pool is used up."""

    def __init__(self, rng: random.Random, pool: int):
        self.rng, self.pool, self.order = rng, pool, []

    def next(self) -> int:
        if not self.order:
            self.order = list(range(self.pool))
            self.rng.shuffle(self.order)
        return self.order.pop()


def make_stream(workload: Workload, seed: int, seconds: float) -> list[Job]:
    """The job stream of one run: fixed composition, seeded choice and order."""
    rng = random.Random(seed)
    draws = {s.name: _Draws(rng, workload.pool(s)) for s in workload.strata}
    picks: list[tuple[Stratum, int]] = []
    for _ in range(workload.rounds(seconds)):
        batch = [(s, draws[s.name].next()) for s in workload.strata for _ in range(s.per_round)]
        rng.shuffle(batch)
        picks += batch
    # Fixed positions keep the memory high-water mark of a heavy job from
    # depending on how much the program has cached by then.
    once = [(s, draws[s.name].next()) for s in workload.strata for _ in range(s.per_run)]
    for k, pick in enumerate(once):
        picks.insert((2 * k + 1) * len(picks) // (2 * len(once)), pick)
    return [
        Job(job_id, s.name, index, tuple(pool_entry(workload.name, s, index)))
        for job_id, (s, index) in enumerate(picks)
    ]
