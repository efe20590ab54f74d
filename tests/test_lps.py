import pytest

from fig8.lps import LpsError, lps_generators, lps_girth_check, quaternion_solutions


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
        from fig8.lps import _canon, _inverses, _mul

        identity, inv = (1, 0, 0, 1), _inverses(q)
        for g in gens:
            assert any(_canon(_mul(g, h, q), inv) == identity for h in gens)


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
    with pytest.raises(LpsError):
        lps_girth_check(4, 13)  # p not prime
    with pytest.raises(LpsError):
        lps_girth_check(5, 9)  # q not prime (and too small)
    with pytest.raises(LpsError):
        lps_girth_check(5, 11)  # q <= 2p
    with pytest.raises(LpsError):
        lps_girth_check(5, 29)  # 5 is a quadratic residue mod 29 (11^2 = 121 = 5)
