"""Extended-real arithmetic and its stated conventions."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqreg import NEG_INF, ONE, POS_INF, ZERO, ExtReal, ext, log_of_fraction


rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def test_zero_times_infinity_is_zero():
    assert ZERO * POS_INF == ZERO
    assert ZERO * NEG_INF == ZERO
    assert POS_INF * ZERO == ZERO
    assert ext(0) * ext(float("inf")) == ZERO


def test_positive_times_neg_inf():
    for p in (1, 2, 7):
        assert ext(p) * NEG_INF == NEG_INF
        assert ext(-p) * NEG_INF == POS_INF


def test_numpy_float_infinity_stays_infinite():
    # numpy.float64 is a float subclass; the sweep oracle's grid passes it in
    numpy = pytest.importorskip("numpy")
    inf = ExtReal(numpy.float64("inf"))
    assert inf.is_pos_inf and not inf.is_finite
    assert (inf + ext(1)).is_pos_inf
    assert (ext(Fraction(1, 3)) + inf).is_pos_inf
    assert (inf * ext(2)).is_pos_inf
    assert (inf * ext(-2)).is_neg_inf
    assert (inf / ext(3)).is_pos_inf
    assert ext(3) / inf == ZERO
    assert ExtReal(-numpy.float64("inf")).is_neg_inf
    with pytest.raises(ArithmeticError):
        inf + NEG_INF


def test_one_over_infinity_is_zero():
    assert ONE / POS_INF == ZERO
    assert ext(5) / NEG_INF == ZERO
    assert ZERO / POS_INF == ZERO


def test_zero_power_zero_is_one():
    assert ZERO**0 == ONE
    assert POS_INF**0 == ONE
    assert ext(Fraction(3, 2)) ** 0 == ONE


def test_infinity_arithmetic():
    assert POS_INF + 1 == POS_INF
    assert NEG_INF + 100 == NEG_INF
    assert POS_INF + POS_INF == POS_INF
    with pytest.raises(ArithmeticError):
        POS_INF + NEG_INF
    with pytest.raises(ArithmeticError):
        POS_INF / POS_INF
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_nan_is_rejected():
    with pytest.raises(ValueError):
        ExtReal(float("nan"))


def test_bool_is_rejected():
    with pytest.raises(TypeError):
        ExtReal(True)


def test_total_order():
    chain = [NEG_INF, ext(-3), ZERO, ext(Fraction(1, 3)), ext(2.5), POS_INF]
    for lo, hi in zip(chain, chain[1:]):
        assert lo < hi
        assert hi > lo
        assert lo <= hi
        assert not hi <= lo


def test_exp_log_round_trip():
    x = ext(Fraction(7, 3))
    assert abs(float(x.exp().log()) - 7 / 3) < 1e-12
    assert NEG_INF.exp() == ZERO
    assert POS_INF.exp() == POS_INF
    assert ZERO.log() == NEG_INF
    assert POS_INF.log() == POS_INF
    with pytest.raises(ValueError):
        ext(-1).log()


def test_root():
    assert abs(float(ext(8).root(3)) - 2.0) < 1e-12
    assert POS_INF.root(5) == POS_INF
    assert ZERO.root(2) == ZERO
    assert ext(Fraction(9, 4)).root(1) == ext(Fraction(9, 4))
    with pytest.raises(ValueError):
        ext(4).root(0)


def test_json_round_trip():
    for v in (POS_INF, NEG_INF, ZERO, ext(Fraction(22, 7)), ext(3), ext(2.5)):
        assert ExtReal.from_json(v.to_json()) == v


def test_json_rational_strings():
    assert ext("3/4") == ext(Fraction(3, 4))
    assert ext("inf") == POS_INF
    assert ext("-inf") == NEG_INF
    assert ext("2.5") == ext(Fraction(5, 2))


def test_log_of_fraction_near_one():
    # log1p-based path should not lose precision just above 1
    f = Fraction(10**15 + 1, 10**15)
    assert abs(log_of_fraction(f) - math.log1p(1e-15)) < 1e-30


@given(rationals, rationals)
def test_field_ops_match_fractions(x, y):
    ex, ey = ext(x), ext(y)
    assert (ex + ey).raw == x + y
    assert (ex - ey).raw == x - y
    assert (ex * ey).raw == x * y
    if y != 0:
        assert (ex / ey).raw == Fraction(x, y)


@given(rationals, rationals)
def test_order_matches_fractions(x, y):
    assert (ext(x) < ext(y)) == (x < y)
    assert (ext(x) == ext(y)) == (x == y)


@given(rationals)
def test_neg_involution(x):
    assert -(-ext(x)) == ext(x)


@given(st.integers(min_value=0, max_value=12), rationals)
def test_power_matches_fraction_power(n, x):
    assert (ext(x) ** n).raw == x**n


def test_fraction_past_the_float_range_meets_a_float_exactly():
    # float(10**400) overflows; the float is taken at its exact value instead
    big = ext(10**400)
    assert (big * ext(2.5)).raw == Fraction(5, 2) * 10**400
    assert (ext(2.5) * big).raw == Fraction(5, 2) * 10**400
    assert (big + ext(-1.5)).raw == 10**400 - Fraction(3, 2)
    assert (ext(0.5) / big).raw == Fraction(1, 2 * 10**400)
    assert (big / ext(0.5)).raw == 2 * 10**400
    assert big * ext(0.0) == ZERO
    # within the float range the mix still degrades to float
    assert (ext(10**300) * ext(2.5)).raw == 2.5e300
    assert (ext(10**300) * ext(1e10)).is_pos_inf


def test_float_power_overflows_to_infinity():
    assert (ext(1e300) ** 2).is_pos_inf
    assert (ext(-1e300) ** 2).is_pos_inf
    assert (ext(-1e300) ** 3).is_neg_inf


def test_exp_of_a_fraction_past_the_float_range():
    assert ext(-10**400).exp() == ZERO
    assert ext(10**400).exp().is_pos_inf
