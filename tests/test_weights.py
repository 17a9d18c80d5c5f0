"""Associated function omega, counting function, Young conjugate, underline."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqreg import (
    CASE2,
    STANDARD,
    ExplicitOnly,
    Expression,
    FactorialPower,
    Geometric,
    NotLogConvex,
    OutOfDomain,
    RegimeClassification,
    SequenceSpec,
    Unbounded,
    WindowTooShort,
    ZERO,
    counting_function,
    ext,
    is_log_convex,
    omega_direct,
    omega_double_tilde,
    omega_integral,
    omega_piecewise,
    omega_tilde,
    phi_omega,
    underline_sequence,
    young_conjugate,
)


def factorials(c=1, s=1):
    return SequenceSpec(kind="weight", prefix=(c,), tail=FactorialPower(s=s, c=c))


def powers_of_two():
    return SequenceSpec(kind="weight", prefix=(1,), tail=Geometric(d=2))


def squared_exponent():
    return SequenceSpec(kind="weight", prefix=(1,),
                        tail=Expression(fn=lambda p: ext(2) ** (p * p),
                                        native="weight", formula="2**(p*p)"))


def rel_close(x, y, tol=1e-12):
    if x.is_pos_inf or y.is_pos_inf:
        return x == y
    fx, fy = float(x), float(y)
    return abs(fx - fy) <= tol * max(1.0, abs(fx), abs(fy))


# -- direct evaluation ----------------------------------------------------------


def test_factorial_at_three():
    r = omega_direct(factorials(), 3)
    assert r.value == ext(Fraction(27, 6)).log()
    assert float(r.value) == pytest.approx(math.log(4.5), abs=1e-15)
    assert r.argmax_index == 3
    assert not r.boundary_attained


def test_omega_at_zero_is_zero():
    assert omega_direct(factorials(), 0).value == ZERO
    assert omega_direct(powers_of_two(), 0).value == ZERO


def test_negative_t_rejected():
    with pytest.raises(OutOfDomain):
        omega_direct(factorials(), -1)


def test_argmax_prefers_larger_index_on_tie():
    # M = (1, 1, 1, 6): at t = 1 indices 0..2 tie at 0
    m = SequenceSpec(kind="weight", prefix=(1, 1, 1, 6), tail=ExplicitOnly())
    r = omega_direct(m, 1, window=4)
    assert r.value == ZERO
    assert r.argmax_index == 2


def test_powers_of_two_flat_then_divergent():
    m = powers_of_two()
    for t in (0, Fraction(1, 2), 1, Fraction(3, 2), 2):
        assert omega_direct(m, t).value == ZERO
    r = omega_direct(m, Fraction(5, 2))
    assert r.value.is_pos_inf
    assert not r.boundary_attained  # divergence is analytic, not a window edge


def test_collapsing_weights_flagged_as_boundary():
    m = SequenceSpec(kind="weight", prefix=(1,),
                     tail=Expression(fn=lambda p: ext(Fraction(1, 2)) ** (p * p),
                                     native="weight", formula="(1/2)**(p*p)"))
    r = omega_direct(m, 1, window=8)
    assert r.boundary_attained  # the true sup is +inf; the window cannot see it
    assert r.argmax_index == 7


# -- variants and the shift identity ---------------------------------------------


@pytest.mark.parametrize("m0", [Fraction(1, 2), Fraction(1), Fraction(7)])
def test_shift_identity(m0):
    m = factorials(c=m0)
    log_m0 = float(ext(m0).log())
    for t in (Fraction(1, 3), 1, 3, Fraction(17, 2), 40):
        full = float(omega_direct(m, t, window=64).value)
        tilde = float(omega_tilde(m, t, window=64))
        assert full - tilde == pytest.approx(log_m0, abs=1e-12)


def test_tilde_at_zero():
    m = factorials(c=7)
    assert omega_tilde(m, 0) == ZERO - ext(7).log()


def test_double_tilde_rejects_zero():
    with pytest.raises(OutOfDomain):
        omega_double_tilde(factorials(), 0)


def test_double_tilde_small_t():
    # sup over p >= 1 of log(t^p / p!) = log t at t <= 1
    m = factorials()
    for t in (Fraction(1, 4), Fraction(1, 2), 1):
        v = omega_double_tilde(m, t, window=32)
        assert float(v) == pytest.approx(math.log(t), abs=1e-12)


# -- piecewise and integral forms -------------------------------------------------


def test_three_way_agreement_named_examples():
    samples = [Fraction(1, 10), Fraction(1, 2), 1, Fraction(3, 2), 3, 10, 50]
    for m in (factorials(), factorials(s=2), squared_exponent()):
        for t in samples:
            d = omega_direct(m, t, window=64).value
            pw = omega_piecewise(m, t, window=64)
            itg = omega_integral(m, t, window=64)
            assert rel_close(d, pw), (m.tail, t, d, pw)
            assert rel_close(d, itg), (m.tail, t, d, itg)


def test_squared_exponent_closed_form():
    # quotients 2^(2p-1): t = 3 lands on segment p = 1, omega = log(3/2)
    v = omega_piecewise(squared_exponent(), 3, window=32)
    assert v == ext(Fraction(3, 2)).log()


def test_piecewise_exact_on_rationals():
    m = factorials()
    assert omega_piecewise(m, 3, window=32) == omega_integral(m, 3, window=32)
    assert omega_piecewise(m, 3, window=32) == omega_direct(m, 3, window=32).value


quotient_steps = st.lists(
    st.fractions(min_value=Fraction(1), max_value=Fraction(10), max_denominator=20),
    min_size=6, max_size=12)


@given(quotient_steps, st.fractions(min_value=0, max_value=Fraction(12),
                                    max_denominator=40))
@settings(max_examples=60, deadline=None)
def test_three_way_agreement_random_log_convex(steps, t):
    mus = sorted(steps)  # non-decreasing quotients give a log-convex sequence
    weights = [Fraction(1)]
    for mu in mus:
        weights.append(weights[-1] * mu)
    m = SequenceSpec(kind="weight", prefix=tuple(weights), tail=ExplicitOnly())
    w = len(weights)
    d = omega_direct(m, t, window=w).value
    pw = omega_piecewise(m, t, window=w)
    itg = omega_integral(m, t, window=w)
    assert d == pw == itg  # all-rational inputs keep every route exact


def test_non_convex_weights_rejected():
    bumpy = SequenceSpec(kind="weight", prefix=(1, 5, 1, 50, 600), tail=ExplicitOnly())
    with pytest.raises(NotLogConvex) as err:
        omega_piecewise(bumpy, 2, window=5)
    assert err.value.index == 1
    with pytest.raises(NotLogConvex):
        omega_integral(bumpy, 2, window=5)
    # the direct sup needs no convexity
    assert float(omega_direct(bumpy, 2, window=5).value) == pytest.approx(math.log(4))


@pytest.mark.parametrize("prefix, index", [
    # the window [1, 1, 6, 36] is log-convex, but the routes read the prefix
    # to 216, and the tail's 5! = 120 past it makes the quotient fall
    ((1, 1, 6, 36, 216), 4),
    # the prefix is log-convex up to the tail's first weight 5! = 120; the
    # tail's own quotient 6 past it falls below 120 / 10^-4
    ((1, Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 10**4)), 5),
])
def test_convexity_covers_the_quotients_the_routes_read(prefix, index):
    M = SequenceSpec(kind="weight", prefix=prefix, tail=FactorialPower(s=1, c=1))
    for route in (omega_piecewise, omega_integral):
        with pytest.raises(NotLogConvex) as err:
            route(M, 1, window=4)
        assert err.value.index == index
    assert omega_direct(M, 1, window=4).value.is_finite  # the direct sup needs no convexity


def test_tilde_reads_a_weight_past_the_float_range_on_the_log_view():
    # M_0 = e^800 is finite, but +inf as a float: at an exact t it was
    # skipped, and omega_tilde was -inf where it is -800 at the float t
    M = SequenceSpec(kind="log", prefix=(ext(800), ext(math.inf), ext(math.inf)),
                     tail=ExplicitOnly())
    assert omega_tilde(M, Fraction(2)) == omega_tilde(M, 2.0) == ext(-800.0)


def test_case2_closed_forms_live_on_half_open_interval():
    m = powers_of_two()
    assert omega_piecewise(m, Fraction(3, 2), window=16) == ZERO
    for bad in (2, Fraction(5, 2)):
        with pytest.raises(OutOfDomain):
            omega_piecewise(m, bad, window=16)
        with pytest.raises(OutOfDomain):
            omega_integral(m, bad, window=16)


def test_window_too_short_for_convexity():
    with pytest.raises(WindowTooShort):
        is_log_convex(factorials(), window=2)


# -- counting function -------------------------------------------------------------


def test_counting_function_factorial():
    sigma = counting_function(factorials(), window=8)
    assert [(x, lvl) for x, lvl in sigma.jumps] == \
        [(ext(q), q) for q in range(1, 8)]
    assert sigma.value(0) == 0
    assert sigma.value(Fraction(5, 2)) == 2
    assert sigma.value(3) == 3  # right-continuous at a jump
    assert sigma.left_limit(3) == 2


def test_counting_function_multiplicity():
    m = SequenceSpec(kind="weight", prefix=(1, 2, 4, 8, 40), tail=ExplicitOnly())
    sigma = counting_function(m, window=5)
    # mu = (2, 2, 2, 5): one jump of height 3 at 2, one at 5
    assert sigma.jumps == ((ext(2), 3), (ext(5), 4))


def test_counting_function_case2_domain():
    sigma = counting_function(powers_of_two(), window=8)
    assert sigma.domain.hi == ext(2)
    assert not sigma.domain.hi_closed
    assert sigma.value(Fraction(19, 10)) == 0
    with pytest.raises(OutOfDomain):
        sigma.value(2)


# -- Young conjugate and the underline sequence -------------------------------------


def test_phi_omega_vanishes_at_minus_inf():
    po = phi_omega(factorials(), window=16)
    assert po.evaluate(float("-inf")) == ZERO


def test_phi_omega_matches_direct():
    po = phi_omega(factorials(), window=16)
    for t in (Fraction(1, 2), 1, 3, 7):
        lhs = float(po.evaluate(ext(t).log()))
        rhs = float(omega_direct(factorials(), t, window=16).value)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_phi_omega_collapsing_regime_unbounded():
    m = SequenceSpec(kind="weight", prefix=(1,),
                     tail=Expression(fn=lambda p: ext(Fraction(1, 2)) ** (p * p),
                                     native="weight", formula="(1/2)**(p*p)"))
    with pytest.raises(Unbounded):
        phi_omega(m, window=8)


def test_young_conjugate_basics():
    m = factorials()
    assert young_conjugate(m, 0) == ZERO
    assert float(young_conjugate(m, 3, window=32)) == pytest.approx(math.log(6),
                                                                    abs=1e-12)
    with pytest.raises(ValueError):
        young_conjugate(m, -1)
    with pytest.raises(ValueError):
        young_conjugate(m, 3, domain="weird")


def test_young_conjugate_domain_conventions_agree():
    m = powers_of_two()
    for p in range(5):
        full = young_conjugate(m, p, window=16, domain="full")
        restricted = young_conjugate(m, p, window=16, domain="restricted")
        assert full == restricted


def test_underline_fixes_log_convex_input():
    un = underline_sequence(factorials(), window=10)
    assert un.prefix[0] == ext(1)
    for p in range(1, 10):
        lhs = float(un.prefix[p].log())
        rhs = math.lgamma(p + 1)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_underline_is_the_log_convex_minorant():
    # komatsu-style identity on a non-convex instance
    from seqreg import log_convex_minorant

    m = SequenceSpec(kind="weight", prefix=(1, 150, 2, 20, 8000, 3_000_000),
                     tail=ExplicitOnly(),
                     declared_regime=RegimeClassification(
                         regime=STANDARD, a_iota=None,
                         evidence_window=(0, 6), source="declared"))
    lc = log_convex_minorant(m, window=6)
    un = underline_sequence(m, window=6)
    stable = lc.stable_prefix + 1
    for p in range(stable):
        lhs = float(lc.regularized.prefix[p].log())
        rhs = float(un.prefix[p].log())
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_underline_below_input():
    m = SequenceSpec(kind="weight", prefix=(2, 300, 4, 40), tail=ExplicitOnly(),
                     declared_regime=RegimeClassification(
                         regime=STANDARD, a_iota=None,
                         evidence_window=(0, 4), source="declared"))
    un = underline_sequence(m, window=4)
    assert un.prefix[0] == ext(2)
    for p in range(4):
        assert float(un.prefix[p]) <= float(m.value(p)) * (1 + 1e-12)
