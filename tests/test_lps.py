import math
import time
from collections import deque

import pytest

from fig8 import lps
from fig8.lps import MAX_Q, LpsGirthResult, _is_prime, lps_girth_check
from oracles import (
    _canon,
    _inverses,
    _oracle_lps_girth_check,
    lps_generators,
    quaternion_solutions,
)


def _mul(x, y, q):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)


def _oracle_girth_check(p, q):
    """The breadth-first search on canonical 4-tuples, one product per edge."""
    gens = lps_generators(p, q)
    inv = _inverses(q)
    inverse = [gens.index(_canon((d, -b % q, -c % q, a), inv)) for a, b, c, d in gens]
    identity = (1, 0, 0, 1)
    dist = {identity: 0}
    best = None
    queue = deque([(identity, None)])
    while queue:
        u, back = queue.popleft()
        for gi, s in enumerate(gens):
            if gi == back:
                continue
            v = _canon(_mul(u, s, q), inv)
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append((v, inverse[gi]))
            else:
                cycle = dist[u] + dist[v] + 1
                if best is None or cycle < best:
                    best = cycle
    bound = (4 * math.log(q) - math.log(4)) / math.log(p)
    bound_ceil = math.ceil(bound)
    psl_order = q * (q * q - 1) // 2
    return LpsGirthResult(
        p, q, len(gens), len(dist), psl_order, best, bound, bound_ceil, best >= bound_ceil
    )


def test_quaternion_solutions_p5():
    sols = quaternion_solutions(5)
    assert len(sols) == 6
    assert set(sols) == {
        (1, 2, 0, 0),
        (1, -2, 0, 0),
        (1, 0, 2, 0),
        (1, 0, -2, 0),
        (1, 0, 0, 2),
        (1, 0, 0, -2),
    }


def test_generators_distinct_and_closed_under_inverse():
    for q in (13, 17):
        gens = lps_generators(5, q)
        assert len(gens) == 6
        identity, inv = (1, 0, 0, 1), _inverses(q)
        for g in gens:
            assert any(_canon(_mul(g, h, q), inv) == identity for h in gens)


def test_quaternion_solutions_count_p_plus_1():
    for p in range(5, 400, 4):
        if _is_prime(p):
            assert len(quaternion_solutions(p)) == p + 1, p


@pytest.mark.parametrize("p, q", [(5, 13), (5, 17), (5, 37), (13, 37)])
def test_girth_check_equals_tuple_bfs_oracle(p, q):
    assert lps_girth_check(p, q) == _oracle_girth_check(p, q)


# (13, 29) is refused (13 is a square mod 29), so (13, 37) covers p = 13;
# (5, 73), 388,944 vertices, is the first pair above the old search's cap
@pytest.mark.parametrize("p, q", [(5, 13), (5, 17), (13, 37), (5, 37), (5, 73)])
def test_girth_check_equals_dict_bfs_oracle(p, q):
    assert lps_girth_check(p, q) == _oracle_lps_girth_check(p, q)


# the admitted pairs above that the oracles do not reach, pinned field by field
@pytest.mark.parametrize(
    "expected",
    [
        LpsGirthResult(17, 37, 18, 50_616, 25_308, 6, 4.608681275926506, 5, True),
        LpsGirthResult(13, 41, 14, 68_880, 34_440, 6, 5.250783555050873, 6, True),
        LpsGirthResult(17, 41, 18, 68_880, 34_440, 6, 4.753610925189159, 5, True),
        LpsGirthResult(5, 53, 6, 148_824, 74_412, 12, 9.006171149011069, 10, True),
        LpsGirthResult(17, 61, 18, 226_920, 113_460, 6, 5.314531334945807, 6, True),
        LpsGirthResult(29, 61, 30, 226_920, 113_460, 6, 4.471600315447733, 5, True),
    ],
    ids=lambda r: f"{r.p}-{r.q}",
)
def test_girth_check_pinned_results(expected):
    assert lps_girth_check(expected.p, expected.q) == expected


def test_girth_check_5_13():
    result = lps_girth_check(5, 13)
    assert result.generator_count == 6
    assert result.psl_order == 1092
    assert result.group_order == 2 * 1092  # p is a non-residue: the full PGL
    assert result.bound_ceil == 6
    assert result.girth == 8
    assert result.passed


def test_girth_check_5_17():
    result = lps_girth_check(5, 17)
    assert result.generator_count == 6
    assert result.psl_order == 2448
    assert result.group_order == 2 * 2448
    assert result.bound_ceil == 7
    assert result.girth == 8
    assert result.passed


def test_precondition_errors():
    with pytest.raises(ValueError, match="must be a prime >= 5"):
        lps_girth_check(4, 13)  # p not prime
    with pytest.raises(ValueError, match="must be a prime > 2p"):
        lps_girth_check(5, 9)  # q not prime (and too small)
    with pytest.raises(ValueError, match="must be a prime > 2p"):
        lps_girth_check(7, 13)  # q prime but <= 2p
    with pytest.raises(ValueError, match="is a quadratic residue mod 11"):
        lps_girth_check(5, 11)  # 5 = 4^2 is a quadratic residue mod 11
    with pytest.raises(ValueError, match="is a quadratic residue mod 29"):
        lps_girth_check(5, 29)  # 5 is a quadratic residue mod 29 (11^2 = 121 = 5)
    with pytest.raises(ValueError, match="1 mod 4"):
        lps_girth_check(7, 29)  # no quaternions with a odd and b, c, d even


# p and the first admitted q above 10^k for k = 2 .. 9, with the girth
GIRTH_TABLE = [
    (5, 113, 12), (5, 1013, 18), (5, 10037, 24), (5, 100057, 30),
    (5, 1000033, 36), (5, 10000253, 42), (5, 100000037, 46), (5, 1000000033, 52),
    (13, 109, 8), (13, 1009, 12), (13, 10069, 16), (13, 100069, 18),
    (13, 1000033, 22), (13, 10000141, 26), (13, 100000037, 30), (13, 1000000009, 34),
    (17, 109, 8), (17, 1009, 12), (17, 10037, 14), (17, 100057, 18),
    (17, 1000037, 20), (17, 10000121, 24), (17, 100000049, 28), (17, 1000000021, 30),
    (29, 101, 6), (29, 1013, 10), (29, 10037, 12), (29, 100069, 16),
    (29, 1000033, 18), (29, 10000169, 20), (29, 100000073, 22), (29, 1000000009, 26),
]


def test_girth_table_meets_the_lps_bound():
    for p, q, girth in GIRTH_TABLE:
        t0 = time.perf_counter()
        result = lps_girth_check(p, q)
        assert time.perf_counter() - t0 < 0.1, (p, q)
        assert (result.girth, result.passed) == (girth, True), (p, q)
        assert girth % 2 == 0 and girth >= result.bound_ceil, (p, q)


def test_q_cap(monkeypatch):
    assert 9_999_999_833 <= MAX_Q < 10_000_000_033
    lps_girth_check(5, 9_999_999_833)  # the largest q admitted with p = 5 under the cap
    with pytest.raises(ValueError, match="cap"):
        lps_girth_check(5, 10_000_000_033)  # the next one
    monkeypatch.setattr(lps, "_is_prime", None)  # any trial division would raise TypeError
    with pytest.raises(ValueError, match="cap"):
        lps_girth_check(5, 10**30 + 57)
