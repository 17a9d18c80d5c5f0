"""Convex minorant construction, trace functions, and the degenerate regimes."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqreg import (
    CASE2,
    STANDARD,
    AffineLog,
    ExplicitOnly,
    Expression,
    FactorialPower,
    Geometric,
    RegimeClassification,
    RegimeMismatch,
    SequenceSpec,
    UnknownAIota,
    brute_minorant,
    case1_regularize,
    case2_limit_check,
    case2_regularize,
    classify_regime,
    convex_minorant,
    ext,
    log_convex_minorant,
    reconstruct_from_trace,
    support_line,
    trace_function,
)


def log_seq(values, tail=None, declared=None):
    return SequenceSpec(kind="log", prefix=tuple(values),
                        tail=tail or ExplicitOnly(), declared_regime=declared)


def declared_standard(window=64):
    return RegimeClassification(regime=STANDARD, a_iota=None,
                                evidence_window=(0, window), source="declared")


def example_41i(c=1, n=12):
    # a_0 = 0, a_1 = -1, a_p = c p for p >= 2
    return log_seq([0, -1] + [c * p for p in range(2, n)], tail=AffineLog(c=c))


# -- standard hull ------------------------------------------------------------


def test_convex_input_is_fixed():
    a = log_seq([p * p for p in range(12)], declared=declared_standard())
    r = convex_minorant(a)
    assert list(r.regularized.prefix) == [ext(p * p) for p in range(12)]
    assert r.principal_indices == tuple(range(12))


def test_worked_example():
    a = log_seq([0, 5, 1, 3, 9, 20], declared=declared_standard())
    r = convex_minorant(a)
    assert r.regularized.prefix[1] == ext(Fraction(1, 2))
    assert r.principal_indices == (0, 2, 3, 4, 5)


def test_infinite_entry_is_projected():
    a = log_seq([0, float("inf"), 2, 6, 12, 20], declared=declared_standard())
    r = convex_minorant(a)
    assert r.regularized.prefix[1] == ext(1)
    assert 1 not in r.principal_indices


def test_collinear_points_are_principal():
    a = log_seq([0, 1, 2, 6, 12], declared=declared_standard())
    r = convex_minorant(a)
    assert set(r.principal_indices) >= {0, 1, 2}


def test_minimal_index_tie_break():
    # both chords 0->1 and 0->2 have slope 1; the walk must pick index 1
    a = log_seq([0, 1, 2, 10, 20], declared=declared_standard())
    r = convex_minorant(a)
    assert r.principal_indices[1] == 1


def test_slopes_non_decreasing():
    a = log_seq([0, 7, 1, 9, 4, 20, 30], declared=declared_standard())
    r = convex_minorant(a)
    slopes = [e.slope for e in r.edges]
    assert all(x <= y for x, y in zip(slopes, slopes[1:]))


def test_anchor_is_kept():
    a = log_seq([5, 7, 1, 9, 40, 100], declared=declared_standard())
    r = convex_minorant(a)
    assert r.regularized.prefix[0] == ext(5)
    assert r.principal_indices[0] == 0


def test_idempotence_exact():
    a = log_seq([0, 5, 1, 3, 9, 20, 44, 80], declared=declared_standard())
    once = convex_minorant(a)
    twice = convex_minorant(once.regularized)
    stable = once.stable_prefix + 1
    assert once.regularized.prefix[:stable] == twice.regularized.prefix[:stable]


def test_regime_mismatch_for_case2():
    with pytest.raises(RegimeMismatch):
        convex_minorant(example_41i())


def test_factorial_tail_walk_is_proven():
    a = SequenceSpec(kind="log",
                     prefix=tuple(math.log(math.factorial(p)) for p in range(8)),
                     tail=ExplicitOnly(), declared_regime=declared_standard())
    r = convex_minorant(a, window=8)
    assert r.principal_indices == tuple(range(8))


def test_support_line():
    a = log_seq([0, 1, 4, 9, 16], declared=declared_standard())
    line = support_line(a, 3)
    # intercept = min_p (a_p - 3p): p=1 -> -2, p=2 -> -2, others larger
    assert line.intercept == ext(-2)
    assert line.touching == (1, 2)


# -- oracle agreement ---------------------------------------------------------


fraction_entries = st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                                max_denominator=100)


@given(st.lists(fraction_entries, min_size=10, max_size=30))
@settings(max_examples=60, deadline=None)
def test_hull_matches_brute_oracle(noise):
    # quadratic growth keeps the regime standard whatever the noise does
    vals = [Fraction(p * p) + noise[p] for p in range(len(noise))]
    a = log_seq(vals, declared=declared_standard(len(vals)))
    r = convex_minorant(a, window=len(vals))
    oracle = brute_minorant(vals)
    stable = r.stable_prefix + 1
    assert list(r.regularized.prefix[:stable]) == oracle[:stable]


@given(st.lists(fraction_entries, min_size=10, max_size=20))
@settings(max_examples=40, deadline=None)
def test_maximality(noise):
    vals = [Fraction(p * p) + noise[p] for p in range(len(noise))]
    a = log_seq(vals, declared=declared_standard(len(vals)))
    r = convex_minorant(a, window=len(vals))
    hull = list(r.regularized.prefix)
    rng = random.Random(7)
    # any convex sequence below a stays below the hull
    dips = sorted(rng.sample(range(len(vals)), 3))
    lowered = [hull[p] - ext(Fraction(rng.randint(0, 5))) for p in range(len(vals))]
    # rebuild convexity of the lowered candidate, then compare
    cand = convex_minorant(log_seq([v.raw for v in lowered],
                                   declared=declared_standard(len(vals))),
                           window=len(vals)).regularized.prefix
    assert all(c <= h for c, h in zip(cand, hull))
    assert dips  # silences the unused-variable lint without weakening the draw


def test_proven_tail_survives_window_extension():
    # factorial tail: the walk can look ahead and prove its last edge final
    spec = SequenceSpec(kind="weight", prefix=(1, 150, 2),
                        tail=FactorialPower(s=1, c=1))
    r8 = log_convex_minorant(spec, window=8)
    r12 = log_convex_minorant(spec, window=12)
    assert r8.stable_prefix == 7
    assert list(r8.regularized.prefix) == list(r12.regularized.prefix[:8])


def test_explicit_window_is_provisional_after_penultimate_principal():
    a = log_seq([0, 5, 1, 3, 9, 20], declared=declared_standard())
    r = convex_minorant(a)
    assert r.stable_prefix == r.principal_indices[-2]
    assert r.provisional_from == r.stable_prefix + 1


# -- trace and reconstruction ---------------------------------------------------


def test_trace_round_trip():
    a = log_seq([0, 5, 1, 3, 9, 20], declared=declared_standard())
    r = convex_minorant(a)
    trace = trace_function(a)
    for p in range(r.stable_prefix + 1):
        assert reconstruct_from_trace(trace, p) == r.regularized.prefix[p]


def test_trace_value_at_minus_inf():
    a = log_seq([3, 5, 9, 20, 44], declared=declared_standard())
    trace = trace_function(a)
    assert trace.evaluate(float("-inf")) == ext(-3)


def test_trace_is_direct_sup():
    vals = [0, 5, 1, 3, 9, 20]
    a = log_seq(vals, declared=declared_standard())
    trace = trace_function(a)
    for k in [Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(2), Fraction(5)]:
        direct = max(ext(p) * k - ext(v) for p, v in enumerate(vals))
        assert trace.evaluate(k) == direct


def test_trace_convexity_on_samples():
    a = log_seq([0, 2, 1, 4, 9, 25], declared=declared_standard())
    trace = trace_function(a)
    for k in [Fraction(-1), Fraction(1), Fraction(3), Fraction(9, 2)]:
        mid = trace.evaluate(k)
        left = trace.evaluate(k - 1)
        right = trace.evaluate(k + 1)
        assert 2 * mid <= left + right


def test_reconstruct_rejects_negative_index():
    a = log_seq([0, 1, 4, 9], declared=declared_standard())
    with pytest.raises(ValueError):
        reconstruct_from_trace(trace_function(a), -1)


# -- case 1 ---------------------------------------------------------------------


def case1_seq():
    return SequenceSpec(kind="log", prefix=(2,),
                        tail=Expression(fn=lambda p: ext(-p * p), native="log",
                                        formula="-p*p"))


def test_case1_degenerates():
    r = case1_regularize(case1_seq(), window=8)
    vals = r.regularized.prefix
    assert vals[0] == ext(2)
    assert all(v.is_neg_inf for v in vals[1:])
    assert r.principal_indices == (0,)


def test_case1_weight_scale():
    m = SequenceSpec(kind="weight", prefix=(7,),
                     tail=Expression(fn=lambda p: ext(Fraction(1, 2)) ** (p * p),
                                     native="weight", formula="(1/2)**(p*p)"))
    r = log_convex_minorant(m, window=8)
    vals = r.regularized.prefix
    assert vals[0] == ext(7)
    assert all(v == ext(0) for v in vals[1:])


def test_case1_trace_rejected():
    with pytest.raises(RegimeMismatch) as err:
        trace_function(case1_seq(), window=8)
    assert "Case 1" in str(err.value)


def test_case1_on_standard_input_rejected():
    a = log_seq([p * p for p in range(8)], declared=declared_standard(8))
    with pytest.raises(RegimeMismatch):
        case1_regularize(a, window=8)


# -- case 2 ---------------------------------------------------------------------


def test_case2_example_41i():
    r = case2_regularize(example_41i(), window=12)
    vals = r.regularized.prefix
    assert r.principal_indices == (0, 1)
    assert vals[0] == ext(0)
    for p in range(1, 12):
        assert vals[p] == ext(p - 2)


def test_case2_example_41i_trace():
    r = case2_regularize(example_41i(), window=12)
    trace = r.trace
    assert trace.evaluate(-5) == ext(0)
    assert trace.evaluate(-1) == ext(0)
    for k in (Fraction(-1, 2), Fraction(0), Fraction(1, 2)):
        assert trace.evaluate(k) == ext(k + 1)
    # A(k) -> c + 1 = 2 as k -> a_iota = 1
    assert trace.left_limit(1) == ext(2)


def test_case2_example_41ii_all_on_cap_line():
    a = log_seq([p for p in range(10)], tail=AffineLog(c=1))
    r = case2_regularize(a, window=10)
    assert r.principal_indices == (0,)
    assert list(r.regularized.prefix) == [ext(p) for p in range(10)]
    assert r.finite_principal


def test_case2_needs_case2_input():
    a = log_seq([p * p for p in range(8)], declared=declared_standard(8))
    with pytest.raises(RegimeMismatch):
        case2_regularize(a, window=8)


def test_case2_unknown_a_iota():
    # flat slopes classify indeterminate; without a declared cap there is
    # nothing to close the walk with
    a = log_seq([0, 1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(UnknownAIota):
        case2_regularize(a, window=8)


def test_case2_contradictory_cap_rejected():
    a = log_seq([0, 1, 2], tail=AffineLog(c=1))
    with pytest.raises(UnknownAIota):
        case2_regularize(a, window=8, a_iota=3)


@pytest.mark.parametrize("c", [10**400, -10**400], ids=["1e400", "-1e400"])
def test_case2_cap_against_a_limit_slope_past_the_float_range(c):
    # float() made the gap inf and the bound tol * inf, so any cap passed and
    # the result said a_iota = c while the walk ran under the cap 3
    a = log_seq([0, 5, 1, 7], tail=AffineLog(c=c))
    with pytest.raises(UnknownAIota, match="a_iota = 3 contradicts"):
        case2_regularize(a, a_iota=3)
    assert case2_regularize(a, a_iota=c).regime.a_iota == ext(c)


def test_case2_oracle_agreement():
    rng = random.Random(20240811)
    for _ in range(25):
        cap = Fraction(rng.randint(1, 4))
        n = rng.randint(8, 14)
        vals = [Fraction(0)]
        for p in range(1, n):
            vals.append(cap * p + Fraction(rng.randint(-6, 2), 1 + rng.randint(0, 3)))
        declared = RegimeClassification(regime=CASE2, a_iota=ext(cap),
                                        evidence_window=(0, n), source="declared")
        a = log_seq(vals, declared=declared)
        r = case2_regularize(a, window=n)
        oracle = brute_minorant(vals, slope_cap=cap)
        stable = r.stable_prefix + 1
        assert list(r.regularized.prefix[:stable]) == oracle[:stable]


def test_case2_weight_scale_bound():
    # Eq-style bound: M^lc_p <= M_0 * M_iota^p with equality at p = 0
    m = SequenceSpec(kind="weight", prefix=(Fraction(3), Fraction(1, 2)),
                     tail=Geometric(d=2))
    r = log_convex_minorant(m, window=10)
    m_iota = ext(2)
    m0 = ext(Fraction(3))
    vals = r.regularized.prefix
    assert vals[0] == m0
    for p in range(10):
        assert vals[p] <= m0 * m_iota**p + ext(1e-9)


def test_case2_limit_check_41i():
    n = 64
    m = SequenceSpec(
        kind="weight",
        prefix=tuple(ext(v).exp() for v in [0, -1] + list(range(2, n))),
        tail=ExplicitOnly(),
        declared_regime=RegimeClassification(regime=CASE2, a_iota=ext(1),
                                             evidence_window=(0, n),
                                             source="declared"),
    )
    report = case2_limit_check(m, window=n, tol=0.1)
    assert abs(float(report.root_at_window_end) - math.e) < 0.1
    assert float(report.m_iota) == pytest.approx(math.e)
    assert report.within_tol


def test_case2_limit_check_geometric():
    m = SequenceSpec(kind="weight", prefix=(1, 2, 4), tail=Geometric(d=2))
    report = case2_limit_check(m, window=32)
    assert abs(float(report.root_at_window_end) - 2.0) < 1e-6
    assert report.within_tol
    assert report.witness_index is None


def test_case2_nonequivalence_witness():
    # finite m_iota with an e^{p^2} burst on a sparse subsequence
    n = 24
    vals = []
    for p in range(n):
        base = ext(Fraction(2)) ** p
        if p in (8, 16, 23):
            vals.append(ext(math.exp(p * p / 4)))
        else:
            vals.append(base)
    m = SequenceSpec(kind="weight", prefix=tuple(vals), tail=Geometric(d=2))
    report = case2_limit_check(m, window=n)
    assert report.witness_index is not None


@pytest.mark.parametrize("d", [Fraction(3, 2), Fraction(2), Fraction(5, 4), Fraction(7, 3)])
@pytest.mark.parametrize("window", [16, 64, 256, 512])
def test_case2_geometric_tail(d, window):
    # a_p = p log d in floats: collinear over the reals, not in binary
    a = log_seq([0], tail=Geometric(d=d))
    r = case2_regularize(a, window=window)
    xs = [bp.x for bp in r.trace.breakpoints]
    assert all(x < y for x, y in zip(xs, xs[1:]))
    vals = a.values(window)
    out = r.regularized.prefix
    for o, v in zip(out, vals):
        # float entries may sit an ulp above after the line is re-evaluated
        assert o <= v or float(o) - float(v) <= 1e-12 * max(1.0, abs(float(v)))
    for p in r.principal_indices:
        assert out[p] == vals[p]


# -- touching sets ------------------------------------------------------------------


def touching_reference(vals, edge):
    """Every finite window point on the edge's line, as the full-window scan defines it."""
    return tuple(p for p, v in enumerate(vals)
                 if v.is_finite and v == edge.slope * p + edge.intercept)


@given(st.lists(st.tuples(st.sampled_from([0, 0, 0, 1, 2]),
                          st.sampled_from([0, 0, 0, Fraction(1, 2), 1, 5])),
                min_size=2, max_size=24),
       st.lists(st.integers(0, 5), min_size=24, max_size=24),
       st.sampled_from(["standard", "case2", "affine"]))
@settings(max_examples=200, deadline=None)
def test_touching_matches_full_window_scan(draws, holes, regime):
    # a convex polyline with few integer slopes, so that collinear runs of
    # principal points are common, with bumps on top
    vals, slope, level = [], Fraction(-3), Fraction(0)
    for bend, bump in draws:
        vals.append(level + bump)
        slope += bend
        level += slope
    # +inf entries anywhere but the anchor
    vals = [float("inf") if p and not holes[p] else v for p, v in enumerate(vals)]
    n = len(vals)
    if regime == "standard":
        spec, window = log_seq(vals, declared=declared_standard(n)), n
        r = convex_minorant(spec, window=window)
    elif regime == "case2":
        declared = RegimeClassification(regime=CASE2, a_iota=ext(1),
                                        evidence_window=(0, n), source="declared")
        spec, window = log_seq(vals, declared=declared), n
        r = case2_regularize(spec, window=window)
    else:
        # exact tail a_p = p right past the window; its chords may leave it
        spec, window = log_seq(vals, tail=AffineLog(c=1)), n
        r = case2_regularize(spec, window=window)
    window_vals = spec.values(window)
    for edge in r.edges:
        assert edge.touching == touching_reference(window_vals, edge)


def test_touching_on_factorial_tail_edge_leaving_window():
    # a flat run, then a wall the factorial tail undercuts
    spec = SequenceSpec(kind="log", prefix=(0, 0, 0, 0, 50, 50, 50, 50),
                        tail=FactorialPower(s=1, c=1))
    r = convex_minorant(spec, window=8)
    assert r.principal_indices == (0, 1, 2, 3)
    last = r.edges[-1]
    assert last.slope > ext(0)
    vals = spec.values(8)
    for edge in r.edges:
        assert edge.touching == touching_reference(vals, edge)
    assert last.touching == (3,)
    assert r.edges[0].touching == (0, 1, 2, 3)


# -- komatsu-style identity is covered in test_weights (underline_sequence) ----


def test_log_convex_minorant_requires_weights():
    a = log_seq([0, 1, 4], declared=declared_standard(3))
    with pytest.raises(ValueError):
        log_convex_minorant(a)


def test_log_convex_minorant_fixed_point():
    m = SequenceSpec(kind="weight",
                     prefix=tuple(math.factorial(p) for p in range(10)),
                     tail=FactorialPower(s=1, c=1))
    r = log_convex_minorant(m, window=10)
    assert list(r.regularized.prefix) == [ext(math.factorial(p)) for p in range(10)]
    assert r.regularized.prefix[0] == ext(1)
