"""Sequence model: tails, scales, convexity, regime classification."""

import math
from fractions import Fraction

import pytest

from seqreg import (
    CASE1,
    CASE2,
    INDETERMINATE,
    STANDARD,
    AffineLog,
    ExplicitOnly,
    Expression,
    FactorialPower,
    Geometric,
    InconsistentDeclaration,
    NonFiniteEntry,
    NotLogConvex,
    ParseError,
    RegimeClassification,
    SequenceSpec,
    classify_regime,
    compile_formula,
    ext,
    growth_indicators,
    is_log_convex,
    limit_comparison,
    normalize_sequence,
    quotients,
    resolve_window,
    tail_from_json,
    to_log_scale,
    to_weight_scale,
)


def factorial_weights(n=8):
    vals = [1]
    for p in range(1, n):
        vals.append(vals[-1] * p)
    return SequenceSpec(kind="weight", prefix=tuple(vals),
                        tail=FactorialPower(s=1, c=1))


def test_factorial_tail_values():
    f = factorial_weights()
    assert f.value(10) == ext(math.factorial(10))
    assert f.values(12)[11] == ext(math.factorial(11))


def test_geometric_tail_values():
    g = SequenceSpec(kind="weight", prefix=(1, 2, 4), tail=Geometric(d=2))
    assert g.value(10) == ext(1024)


def test_affine_log_tail():
    a = SequenceSpec(kind="log", prefix=(0, 1), tail=AffineLog(c=1))
    assert a.value(5) == ext(5)


def test_expression_tail():
    e = SequenceSpec(kind="log", prefix=(0,),
                     tail=Expression(fn=lambda p: ext(p * p), native="log",
                                     formula="p*p"))
    assert e.value(7) == ext(49)


def test_formula_powers_and_factorials_within_budget_stay_exact():
    assert compile_formula("2**(p*p)")(63) == ext(2 ** 3969)
    assert compile_formula("-2**p")(3) == ext(-8)
    assert compile_formula("factorial(p)**2")(20) == ext(math.factorial(20) ** 2)
    assert compile_formula("2**-p")(2) == ext(0.25)


@pytest.mark.parametrize("formula", ["2**(2**p)", "factorial(2**p)", "p**p**p"])
def test_formula_beyond_bit_budget_is_parse_error(formula):
    with pytest.raises(ParseError, match="bits"):
        compile_formula(formula)(40)


def test_classify_stops_probing_at_the_formula_budget():
    # the window values fit; the probes at p = 7, 28, ... would not
    a = SequenceSpec(kind="log", prefix=(0,),
                     tail=tail_from_json({"type": "expression", "formula": "2**(2**p)"}))
    assert classify_regime(a, window=8).regime == INDETERMINATE


def test_scale_conversion_round_trip():
    f = factorial_weights()
    back = to_weight_scale(to_log_scale(f))
    for p in range(6):
        assert abs(float(back.value(p)) - float(f.value(p))) < 1e-9


def test_log_scale_of_zero_weight():
    m = SequenceSpec(kind="weight", prefix=(1, 0, 0), tail=ExplicitOnly())
    a = to_log_scale(m)
    assert a.value(1).is_neg_inf


def test_quotients_factorial():
    f = factorial_weights()
    mu = quotients(f, window=6)
    assert mu == [ext(1), ext(1), ext(2), ext(3), ext(4), ext(5)]


def test_quotients_need_weight_scale():
    a = SequenceSpec(kind="log", prefix=(0, 1, 2), tail=ExplicitOnly())
    with pytest.raises(ValueError):
        quotients(a)


def test_log_convexity_exact():
    good = SequenceSpec(kind="log", prefix=(0, 1, 3, 6, 10), tail=ExplicitOnly())
    assert is_log_convex(good).ok
    bad = SequenceSpec(kind="log", prefix=(0, 2, 3, 3, 10), tail=ExplicitOnly())
    report = is_log_convex(bad)
    assert not report.ok
    assert report.violation_index == 1


def test_log_convexity_weight_scale():
    assert is_log_convex(factorial_weights(), window=8).ok
    bumpy = SequenceSpec(kind="weight", prefix=(1, 5, 6, 100), tail=ExplicitOnly())
    assert not is_log_convex(bumpy).ok


def test_float_weights_are_multiplied_exactly():
    # 5e-324 squared underflows to 0.0, which hid the violation at index 1
    tiny = SequenceSpec(kind="weight", prefix=(1, 5e-324, 0), tail=ExplicitOnly())
    assert is_log_convex(tiny) == is_log_convex(
        SequenceSpec(kind="weight", prefix=(1, Fraction(5e-324), 0), tail=ExplicitOnly()))
    assert is_log_convex(tiny).violation_index == 1
    # collinear one-decimal floats stay log-convex within the relative slack
    tenths = SequenceSpec(kind="weight", prefix=(1, 0.1, 0.01, 0.001), tail=ExplicitOnly())
    assert is_log_convex(tenths).ok


def test_interior_infinity_breaks_convexity():
    a = SequenceSpec(kind="log", prefix=(0, float("inf"), 2, 6), tail=ExplicitOnly())
    assert not is_log_convex(a).ok


def test_classify_standard_factorial():
    cls = classify_regime(factorial_weights())
    assert cls.regime == STANDARD
    assert cls.source == "tail"


def test_classify_case1_from_expression():
    a = SequenceSpec(kind="log", prefix=(0,),
                     tail=Expression(fn=lambda p: ext(-p * p), native="log",
                                     formula="-p*p"))
    assert classify_regime(a).regime == CASE1


def test_classify_case1_from_neg_inf_entry():
    a = SequenceSpec(kind="log", prefix=(0, float("-inf"), 1), tail=ExplicitOnly())
    assert classify_regime(a).regime == CASE1


def test_classify_case2_geometric():
    g = SequenceSpec(kind="weight", prefix=(1, 2, 4), tail=Geometric(d=2))
    cls = classify_regime(g)
    assert cls.regime == CASE2
    assert abs(float(cls.a_iota) - math.log(2)) < 1e-12


def test_classify_case2_affine_log():
    a = SequenceSpec(kind="log", prefix=(0, -1, 2, 3), tail=AffineLog(c=1))
    cls = classify_regime(a)
    assert cls.regime == CASE2
    assert cls.a_iota == ext(1)


def test_classify_explicit_rising_slopes():
    a = SequenceSpec(kind="log", prefix=tuple(p * p for p in range(16)),
                     tail=ExplicitOnly())
    assert classify_regime(a).regime == STANDARD


def test_classify_explicit_flat_is_indeterminate():
    a = SequenceSpec(kind="log", prefix=tuple(2 * p for p in range(16)),
                     tail=ExplicitOnly())
    assert classify_regime(a).regime == INDETERMINATE


def test_declared_regime_is_honoured():
    declared = RegimeClassification(regime=CASE2, a_iota=ext(2),
                                    evidence_window=(0, 16), source="declared")
    a = SequenceSpec(kind="log", prefix=tuple(2 * p for p in range(16)),
                     tail=ExplicitOnly(), declared_regime=declared)
    cls = classify_regime(a)
    assert cls.regime == CASE2
    assert cls.a_iota == ext(2)


def test_inconsistent_declaration_raises():
    declared = RegimeClassification(regime=STANDARD, a_iota=None,
                                    evidence_window=(0, 16), source="declared")
    g = SequenceSpec(kind="weight", prefix=(1, 2, 4), tail=Geometric(d=2),
                     declared_regime=declared)
    with pytest.raises(InconsistentDeclaration):
        classify_regime(g)


@pytest.mark.parametrize("c", [-3 * 10**311, 3 * 10**311], ids=["negative", "positive"])
def test_declared_a_iota_against_a_slope_past_the_float_range(c):
    # float(c) is -inf or inf, and a gap of inf against a bound of tol * inf
    # let the declaration pass; the sweep then took tail chords at slope c
    # under the cap 3/4 and raised "breakpoints must be strictly increasing"
    declared = RegimeClassification(regime=CASE2, a_iota=ext(Fraction(3, 4)),
                                    evidence_window=(0, 4), source="declared")
    a = SequenceSpec(kind="log", prefix=(0, 0, Fraction(3, 4), Fraction(3, 4)),
                     tail=AffineLog(c=Fraction(c)), declared_regime=declared)
    with pytest.raises(InconsistentDeclaration, match="declared a_iota 3/4"):
        classify_regime(a, 4)
    same = RegimeClassification(regime=CASE2, a_iota=ext(c), evidence_window=(0, 4),
                                source="declared")
    assert classify_regime(SequenceSpec(kind="log", prefix=a.prefix, tail=a.tail,
                                        declared_regime=same), 4).a_iota == ext(c)


def test_resolve_window_clamps_explicit():
    a = SequenceSpec(kind="log", prefix=(0, 1, 2), tail=ExplicitOnly())
    assert resolve_window(a, None) == 3
    assert resolve_window(a, 100) == 3
    f = factorial_weights()
    assert resolve_window(f, None) == 64
    assert resolve_window(f, 10) == 10


def test_json_round_trip_with_tails():
    for seq in (
        factorial_weights(),
        SequenceSpec(kind="weight", prefix=(1, 2, 4), tail=Geometric(d=2)),
        SequenceSpec(kind="log", prefix=(0, -1), tail=AffineLog(c=Fraction(3, 2))),
        SequenceSpec(kind="log", prefix=(0, 5, 1), tail=ExplicitOnly()),
    ):
        back = SequenceSpec.from_json(seq.to_json())
        assert back.kind == seq.kind
        assert back.prefix == seq.prefix
        end = len(seq.prefix) if isinstance(seq.tail, ExplicitOnly) else 8
        for p in range(end):
            assert back.value(p) == seq.value(p)


def test_json_tail_type_strings():
    f = factorial_weights()
    assert f.to_json()["tail"]["type"] == "factorial_power"
    g = SequenceSpec(kind="weight", prefix=(1,), tail=Geometric(d=2))
    assert g.to_json()["tail"]["type"] == "geometric"
    a = SequenceSpec(kind="log", prefix=(0,), tail=AffineLog(c=1))
    assert a.to_json()["tail"]["type"] == "affine_log"
    x = SequenceSpec(kind="log", prefix=(0,), tail=ExplicitOnly())
    assert x.to_json()["tail"]["type"] == "explicit_only"


def test_growth_indicators_factorial():
    gi = growth_indicators(factorial_weights())
    assert gi.m_iota.is_pos_inf
    assert gi.m_sigma.is_pos_inf


def test_growth_indicators_geometric():
    g = SequenceSpec(kind="weight", prefix=(1, 2, 4), tail=Geometric(d=2))
    gi = growth_indicators(g)
    assert gi.m_iota == ext(2)
    assert gi.m_sigma == ext(2)


def test_limit_comparison_log_convex():
    rep = limit_comparison(factorial_weights())
    assert rep.agree
    assert rep.lim_quotient.is_pos_inf


def test_limit_comparison_rejects_nonconvex():
    bumpy = SequenceSpec(kind="weight", prefix=(1, 5, 6, 100, 101, 102, 103, 104),
                         tail=ExplicitOnly())
    with pytest.raises(NotLogConvex):
        limit_comparison(bumpy)


def test_normalize_lifts_small_head():
    m = SequenceSpec(kind="weight",
                     prefix=tuple(Fraction(1, 100) * math.factorial(p)
                                  for p in range(10)),
                     tail=ExplicitOnly())
    res = normalize_sequence(m)
    vals = res.sequence.values(10)
    for p in range(res.q0, 10):
        assert vals[p] >= ext(1)
    assert res.q0 >= 2
    assert res.constant >= ext(1)


def test_quotient_window_rejects_zero():
    m = SequenceSpec(kind="weight", prefix=(1, 0, 2), tail=ExplicitOnly())
    with pytest.raises(NonFiniteEntry):
        quotients(m)
