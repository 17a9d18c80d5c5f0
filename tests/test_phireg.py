"""Gated regularization: descriptors, the event sweep, recovery, comparisons."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from seqreg import (
    AffineLog,
    AxiomViolation,
    ExplicitOnly,
    Expression,
    FactorialPower,
    Geometric,
    InconsistentDeclaration,
    InfiniteEntryUnsupported,
    InfinityAtZero,
    NEG_INF,
    NotComparable,
    OutOfDomain,
    ParseError,
    RegimeClassification,
    RegularizingFunction,
    SeqRegError,
    SequenceSpec,
    ZERO,
    case1_regularize,
    case2_regularize,
    compare_regularizations,
    convex_minorant,
    counting_m_phi,
    ext,
    make_phi,
    recover_sequence,
    regularize_with_phi,
    trace_A_phi,
    trace_invariance_check,
)
from seqreg.minorant import regularize

LOG3 = ext(Fraction(math.log(3)))


def log_seq(values, declared=None):
    return SequenceSpec(kind="log", prefix=tuple(values), tail=ExplicitOnly(),
                        declared_regime=declared)


def jumpy():
    # one gated entry (index 3 undercuts the running intercept) and one chord entry
    return log_seq([0, 10, 10, 0, 10])


# -- descriptors ---------------------------------------------------------------


def test_exp_descriptor():
    phi = make_phi("exp")
    assert phi.eval(0) == ext(1)
    assert phi.eval(float("-inf")) == ZERO
    assert phi.threshold(0) == NEG_INF
    assert phi.threshold(1) == ZERO
    assert phi.threshold(3) == LOG3  # rational snapshot of log 3, exact thereafter
    with pytest.raises(ValueError):
        phi.threshold(-1)


def test_expaffine_descriptor():
    phi = make_phi("expaffine:2,1")
    assert float(phi.eval(1)) == pytest.approx(math.exp(3))
    assert phi.threshold(1) == ext(Fraction(-1, 2))
    assert phi.threshold(4) == (ext(Fraction(math.log(4))) - ext(1)) / ext(2)


def test_expaffine_axioms():
    with pytest.raises(AxiomViolation) as err:
        make_phi("expaffine:-1,0")
    assert err.value.axiom == "I"
    with pytest.raises(AxiomViolation) as err:
        make_phi("expaffine:0,1")
    assert err.value.axiom == "III"
    with pytest.raises(ParseError):
        make_phi("expaffine:1")


def test_blowup_descriptor():
    phi = make_phi("blowup:0")
    assert phi.blowup_T == ZERO
    assert phi.eval(-1) == ext(1)
    assert phi.eval(0).is_pos_inf
    assert phi.eval(5).is_pos_inf
    for p in range(1, 9):
        assert phi.threshold(p) == ext(Fraction(-1, p))


def test_infinite_descriptor():
    phi = make_phi("infinite")
    assert phi.infinite
    assert phi.eval(-100).is_pos_inf
    assert phi.threshold(7) == NEG_INF


def test_piecewise_descriptor():
    phi = make_phi("piecewise:[[0,0],[2,4]]")
    assert phi.eval(-5) == ZERO
    assert phi.eval(1) == ext(2)
    assert phi.eval(3) == ext(6)  # final slope extrapolates
    assert phi.threshold(1) == ext(Fraction(1, 2))
    assert phi.threshold(5) == ext(Fraction(5, 2))


def test_piecewise_flat_segment_threshold():
    phi = make_phi("piecewise:[[0,0],[1,0],[2,3]]")
    assert phi.eval(Fraction(1, 2)) == ZERO
    assert phi.threshold(1) == ext(Fraction(4, 3))


def test_piecewise_dict_form():
    phi = make_phi({"kind": "piecewise", "knots": [[0, 0], [1, 1]]})
    assert phi.eval(1) == ext(1)
    phi2 = make_phi({"kind": "blowup", "args": "2"})
    assert phi2.blowup_T == ext(2)


@pytest.mark.parametrize("knots,axiom", [
    ("[[0,0]]", "III"),
    ("[[0,0],[0,1]]", "IV"),
    ("[[0,0],[1,-1]]", "I"),
    ("[[0,1],[1,2]]", "II"),
    ("[[0,0],[1,0]]", "III"),
])
def test_piecewise_axiom_violations(knots, axiom):
    with pytest.raises(AxiomViolation) as err:
        make_phi(f"piecewise:{knots}")
    assert err.value.axiom == axiom


def test_falling_threshold_is_an_axiom_violation():
    # a hand-built phi whose thresholds fall from p = 2 on; the sweep admits
    # points in index order, so it must refuse such a phi, not answer wrongly
    phi = RegularizingFunction("falling", lambda t: ZERO, lambda p: ext(-p))
    with pytest.raises(AxiomViolation) as info:
        regularize_with_phi(log_seq([0, 1, 3, 6]), phi)
    assert info.value.axiom == "I"
    assert info.value.witness == 2


def test_unknown_descriptor():
    with pytest.raises(ParseError):
        make_phi("sinh")
    with pytest.raises(ParseError):
        make_phi(42)
    with pytest.raises(ParseError):
        make_phi("piecewise:not json")


# -- the sweep on the jumpy instance ----------------------------------------------


def test_exp_sweep_record():
    r = regularize_with_phi(jumpy(), make_phi("exp"))
    assert r.principal_indices == (0, 3, 4)
    assert r.discontinuity_indices == (3,)
    vals = r.regularized.prefix
    assert vals[0] == ZERO
    assert vals[1] == LOG3
    assert vals[2] == LOG3 * 2
    assert vals[3] == ZERO
    assert vals[4] == ext(10)
    assert r.J_right.is_pos_inf
    assert not r.finite_principal


def test_exp_sweep_trace_jump():
    r = regularize_with_phi(jumpy(), make_phi("exp"))
    assert trace_A_phi(r, float("-inf")) == ZERO  # -a_0
    assert r.trace.left_limit(LOG3) == ZERO
    assert trace_A_phi(r, LOG3) == LOG3 * 3
    assert trace_A_phi(r, 10) == ext(30)
    assert trace_A_phi(r, 12) == ext(4 * 12 - 10)


def test_exp_sweep_counting_right_continuous():
    r = regularize_with_phi(jumpy(), make_phi("exp"))
    assert counting_m_phi(r, float("-inf")) == 0
    assert counting_m_phi(r, 0) == 0
    assert counting_m_phi(r, LOG3) == 3
    assert r.counting.left_limit(LOG3) == 0
    assert counting_m_phi(r, 10) == 4
    assert r.counting.left_limit(10) == 3


def test_exp_sweep_intervals_abut():
    r = regularize_with_phi(jumpy(), make_phi("exp"))
    ivs = r.intervals
    assert ivs[0].start.is_neg_inf
    for left, right in zip(ivs, ivs[1:]):
        assert left.end == right.start
    assert ivs[-1].end == r.J_right


def test_exp_sweep_segments_cover_values():
    r = regularize_with_phi(jumpy(), make_phi("exp"))
    for seg in r.segments:
        for p in range(seg.span_start, seg.span_end):
            assert seg.value_at(p) == r.regularized.prefix[p]


def test_exp_sweep_stability_horizon():
    # threshold(5) = log 5: the entry at log 3 is final, the one at 10 is not
    r = regularize_with_phi(jumpy(), make_phi("exp"))
    assert r.provisional_from == 4


def test_blowup_sweep_exact_record():
    r = regularize_with_phi(jumpy(), make_phi("blowup:1"))
    assert r.principal_indices == (0, 3)
    assert r.discontinuity_indices == (3,)
    assert list(r.regularized.prefix) == [
        ZERO, ext(Fraction(2, 3)), ext(Fraction(4, 3)), ZERO, ext(1)]
    assert r.J_right == ext(1)
    assert r.finite_principal
    # capped tail: the limiting line of slope 1 through (3, 0)
    last = r.segments[-1]
    assert last.slope == ext(1)
    assert last.anchor_index == 3


def test_blowup_sweep_trace():
    r = regularize_with_phi(jumpy(), make_phi("blowup:1"))
    assert trace_A_phi(r, Fraction(1, 2)) == ZERO
    assert trace_A_phi(r, Fraction(2, 3)) == ext(2)
    assert r.trace.left_limit(ext(1)) == ext(3)
    with pytest.raises(OutOfDomain):
        trace_A_phi(r, 1)
    assert trace_A_phi(r, 1, extended=True).is_pos_inf


def test_idempotence():
    phi = make_phi("exp")
    r1 = regularize_with_phi(jumpy(), phi)
    r2 = regularize_with_phi(r1.regularized, phi)
    assert r1.regularized.prefix == r2.regularized.prefix
    assert [b.x for b in r1.trace.breakpoints] == [b.x for b in r2.trace.breakpoints]


# -- the raw kernel's output bytes ---------------------------------------------------


def test_float_trace_value_is_positive_zero():
    # A(t) = -(a_0 - 0 t) at the first event: 0.0 on float input, never -0.0
    r = regularize_with_phi(log_seq([0.0, 1.5, 2.0, 4.5, 9.0]), make_phi("exp"))
    first = r.trace.breakpoints[0]
    assert first.left_value.raw == 0.0
    assert math.copysign(1.0, first.left_value.raw) == 1.0
    assert first.right_value.to_json() == 0.0
    assert math.copysign(1.0, first.right_value.raw) == 1.0


@pytest.mark.parametrize("descriptor", ["exp", "infinite"])
def test_collinear_batch_event(descriptor):
    # indices 1, 2, 3 lie on one line of slope 5 from the anchor and enter together
    r = regularize_with_phi(log_seq([0, 5, 10, 15, 40]), make_phi(descriptor))
    assert r.principal_indices == (0, 1, 2, 3, 4)
    assert r.discontinuity_indices == ()
    five = ext(5)
    assert [(iv.start, iv.end) for iv in r.intervals] == [
        (NEG_INF, five), (five, five), (five, five), (five, ext(25)), (ext(25), r.J_right)]
    bps = r.trace.breakpoints
    assert [(b.x, b.left_value, b.right_value, b.slope_right) for b in bps] == [
        (five, ZERO, ZERO, ext(3)), (ext(25), ext(60), ext(60), ext(4))]
    assert r.counting.jumps == ((five, 3), (ext(25), 4))


def test_blowup_sweep_skips_infinite_entries():
    inf = float("inf")
    r = regularize_with_phi(log_seq([0, 4, inf, 3, inf, inf]), make_phi("blowup:2"))
    # a_1 = 4 would take over only at slope 4, past T = 2; index 3 becomes
    # visible at 5/3, strictly below the old line
    assert r.principal_indices == (0, 3)
    assert r.discontinuity_indices == (3,)
    # past the last finite point the line of slope T = 2 closes the window,
    # which is what the trace recovers there
    assert [v.to_json() for v in r.regularized.prefix] == [0, "5/3", "10/3", 3, 5, 7]
    assert [recover_sequence(r.trace, make_phi("blowup:2"), p) for p in (4, 5)] == [5, 7]
    assert r.J_right == ext(2)
    assert r.finite_principal
    (bp,) = r.trace.breakpoints
    assert (bp.x, bp.left_value, bp.right_value) == (ext(Fraction(5, 3)), ZERO, ext(2))


exact_entries = st.one_of(
    st.fractions(min_value=Fraction(-30), max_value=Fraction(30), max_denominator=6),
    st.integers(-10, 10).map(lambda k: Fraction(k, 2)),  # repeated values force ties
    st.just(float("inf")),
)


float_entries = st.one_of(
    st.floats(min_value=-30, max_value=30, allow_nan=False),
    st.integers(-40, 40).map(lambda k: k / 10),  # decimal steps: ties up to rounding
    st.just(float("inf")),
)


def case2(values, a_iota):
    return log_seq(values, RegimeClassification("case2", ext(a_iota), (0, len(values)),
                                                "declared"))


# the documents on which the minorant and the ungated phireg once disagreed: a
# float slope that rounds up to the cap, two windows ending in +inf, and two
# closed-form tails that only the minorant read past the window (phireg took
# index 3 as principal under a factorial tail, and under an affine-log one
# closed the window with the cap line 1 + p, above the tail's a_4 = 4)
MOTIVATION = [(case2([2.6, math.inf, math.inf, math.inf, math.inf, 7.6], 1), None),
              (case2([1.0, math.inf], Fraction(7, 3)), None),
              (log_seq([1, math.inf]), None),
              (SequenceSpec(kind="log", prefix=(0, 5, 1, 3, 9), tail=FactorialPower(1, 1)), 4),
              (SequenceSpec(kind="log", prefix=(1, 5, 10, 15), tail=AffineLog(1)), 4)]

TAILS = st.one_of(
    st.builds(FactorialPower, st.fractions(Fraction(1, 4), 3, max_denominator=4),
              st.fractions(Fraction(1, 4), 4, max_denominator=4)),
    st.builds(AffineLog, st.fractions(-5, 5, max_denominator=4)),
    st.builds(Geometric, st.fractions(Fraction(1, 4), 8, max_denominator=4)))


@st.composite
def ungated_windows(draw):
    """(sequence, window): exact, float or mixed entries with +inf holes; in 30 %
    a closed-form tail (factorial, affine-log or geometric), read past a drawn
    window, and in 30 % a declared Case 2 cap, exact or one-decimal, and
    trailing +inf entries."""
    entries = draw(st.sampled_from([exact_entries, float_entries,
                                    st.one_of(exact_entries, float_entries)]))
    a0 = draw(entries.filter(lambda v: v != math.inf))
    values = [a0] + draw(st.lists(entries, min_size=1, max_size=24))
    kind = draw(st.integers(0, 9))
    if kind < 4:
        return log_seq(values), None
    if kind < 7:
        seq = SequenceSpec(kind="log", prefix=tuple(values), tail=draw(TAILS))
        return seq, draw(st.integers(1, len(values) + 4))
    values += [math.inf] * draw(st.integers(0, 3))
    cap = draw(st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                         st.integers(-50, 50).map(lambda k: k / 10)))
    return case2(values, cap), None


@given(ungated_windows())
@example(MOTIVATION[0])
@example(MOTIVATION[1])
@example(MOTIVATION[2])
@example(MOTIVATION[3])
@example(MOTIVATION[4])
@settings(max_examples=300, deadline=None)
def test_infinite_phi_sweep_matches_minorant(case):
    # the two commands run one construction: values and trace breakpoints by
    # type and repr, principal indices and where the provisional values begin
    def num(x):
        return type(x.raw).__name__, repr(x.raw)

    a, window = case
    r = regularize_with_phi(a, make_phi("infinite"), window)
    m = regularize(a, window)
    assert [num(v) for v in r.regularized.prefix] == [num(v) for v in m.regularized.prefix]
    assert (r.principal_indices, r.provisional_from) == (m.principal_indices, m.provisional_from)
    bps = [[(num(b.x), num(b.left_value), num(b.right_value), num(b.slope_right))
            for b in t.breakpoints] for t in (r.trace, m.trace)]
    assert bps[0] == bps[1]
    assert r.trace.domain == m.trace.domain


@given(st.floats(min_value=-30, max_value=30, allow_nan=False),
       st.lists(float_entries, min_size=1, max_size=24),
       st.sampled_from(["exp", "expaffine:1/2,1", "blowup:3", "infinite",
                        "piecewise:[[-2,0],[0,1],[1,5]]"]))
@settings(max_examples=300, deadline=None)
def test_sweep_on_floats_raises_only_package_errors(a0, rest, descriptor):
    try:
        r = regularize_with_phi(log_seq([a0] + rest), make_phi(descriptor))
    except SeqRegError:
        return
    for out, orig in zip(r.regularized.prefix, [a0] + rest):  # at or below the input
        assert out <= ext(orig) or float(out) - orig <= 1e-9 * max(1.0, abs(orig))


@given(st.floats(min_value=-30, max_value=30, allow_nan=False),
       st.lists(float_entries, min_size=1, max_size=24))
@settings(max_examples=300, deadline=None)
def test_infinite_phi_float_sweep_never_jumps(a0, rest):
    # the ungated sweep is the convex minorant: float rounding in the
    # intercepts must not show up as a discontinuity
    r = regularize_with_phi(log_seq([a0] + rest), make_phi("infinite"))
    assert r.discontinuity_indices == ()
    for bp in r.trace.breakpoints:
        assert bp.left_value == bp.right_value


# -- recovery -------------------------------------------------------------------


@pytest.mark.parametrize("descriptor", ["exp", "expaffine:2,1", "blowup:0", "blowup:3",
                                        "infinite"])
def test_recovery_matches_regularized(descriptor):
    phi = make_phi(descriptor)
    windows = [log_seq(vals) for vals in
               ([0, 10, 10, 0, 10], [0, 5, 1, 3, 9, 20], [2, 8, 3, 3, 12, 30, 60])]
    if phi.blowup_T is not None or phi.infinite:
        # windows that end in +inf entries: blowup's T or Case 2's a_iota closes them
        windows += [log_seq([1, math.inf]), log_seq([0, 4, math.inf, 3, math.inf, math.inf]),
                    MOTIVATION[1][0]]
    for a in windows:
        r = regularize_with_phi(a, phi)
        for p in range(r.window):
            assert recover_sequence(r.trace, phi, p) == r.regularized.prefix[p], \
                (descriptor, a.prefix, p)


def test_recovery_index_zero_is_anchor():
    phi = make_phi("exp")
    r = regularize_with_phi(log_seq([7, 9, 30]), phi)
    assert recover_sequence(r.trace, phi, 0) == ext(7)
    with pytest.raises(ValueError):
        recover_sequence(r.trace, phi, -1)


def test_trace_invariance():
    for descriptor in ("exp", "blowup:0"):
        phi = make_phi(descriptor)
        assert trace_invariance_check(jumpy(), phi)
        assert trace_invariance_check(log_seq([1, 6, 2, 9, 4, 20, 40]), phi)


# -- ungated dispatch matches the dedicated operations ------------------------------


def test_infinite_phi_standard_matches_minorant():
    a = log_seq([0, 5, 1, 3, 9, 20])
    r = regularize_with_phi(a, make_phi("infinite"))
    m = convex_minorant(a)
    assert r.regularized.prefix == m.regularized.prefix
    assert r.principal_indices == m.principal_indices
    assert r.discontinuity_indices == ()


def test_infinite_phi_case2_matches_capped_walk():
    from seqreg import AffineLog

    a = SequenceSpec(kind="log", prefix=(0, -1), tail=AffineLog(c=1))
    r = regularize_with_phi(a, make_phi("infinite"), window=10)
    m = case2_regularize(a, window=10)
    assert r.regularized.prefix == m.regularized.prefix
    assert r.principal_indices == m.principal_indices
    assert r.J_right == ext(1)
    assert r.finite_principal


def test_infinite_phi_case1_collapses():
    a = SequenceSpec(kind="log", prefix=(2,),
                     tail=Expression(fn=lambda p: ext(-p * p), native="log",
                                     formula="-p*p"))
    r = regularize_with_phi(a, make_phi("infinite"), window=8)
    m = case1_regularize(a, window=8)
    assert r.regularized.prefix == m.regularized.prefix
    assert r.principal_indices == (0,)
    assert r.J_right.is_neg_inf
    assert trace_A_phi(r, float("-inf")) == ext(-2)
    assert counting_m_phi(r, float("-inf")) == 0


# -- orderings ------------------------------------------------------------------


def test_gated_between_hull_and_input():
    a = log_seq([0, 10, 10, 0, 10])
    hull = regularize_with_phi(a, make_phi("infinite")).regularized.prefix
    gated = regularize_with_phi(a, make_phi("exp")).regularized.prefix
    orig = [ext(v) for v in (0, 10, 10, 0, 10)]
    for c, g, o in zip(hull, gated, orig):
        assert c <= g <= o


def test_compare_dominating_pair():
    report = compare_regularizations(jumpy(), make_phi("exp"),
                                     make_phi("expaffine:1,1"))
    assert report.larger == "phi2"  # e^(t+1) >= e^t everywhere
    assert report.ordered_ok
    assert report.convex_floor_ok
    assert report.witness_index is None


def test_compare_equal_pair():
    report = compare_regularizations(jumpy(), make_phi("exp"), make_phi("exp"))
    assert report.larger == "equal"
    assert report.ordered_ok


def test_compare_crossing_pair_rejected():
    # e^(2t+1) < e^t for t < -1: neither dominates
    with pytest.raises(NotComparable):
        compare_regularizations(jumpy(), make_phi("exp"), make_phi("expaffine:2,1"))


# -- input validation --------------------------------------------------------------


def test_anchor_must_be_finite():
    with pytest.raises(InfinityAtZero):
        regularize_with_phi(log_seq([float("inf"), 1, 2]), make_phi("exp"))


def test_neg_inf_entries_need_ungated_phi():
    with pytest.raises(InfiniteEntryUnsupported):
        regularize_with_phi(log_seq([0, float("-inf"), 2]), make_phi("exp"))


def test_declared_regime_with_neg_inf_entry_rejected():
    declared = RegimeClassification("standard", None, (0, 5), "declared")
    a = log_seq([0, 1, float("-inf"), 3, 9], declared=declared)
    with pytest.raises(InconsistentDeclaration, match="a_2 = -inf"):
        regularize_with_phi(a, make_phi("infinite"))


def test_cofinally_infinite_window_needs_blowup():
    vals = [0, 1, float("inf"), float("inf")]
    with pytest.raises(InfiniteEntryUnsupported):
        regularize_with_phi(log_seq(vals), make_phi("exp"))
    r = regularize_with_phi(log_seq(vals), make_phi("blowup:2"))
    assert r.principal_indices == (0, 1)
    assert r.J_right == ext(2)
    # the line of slope T = 2 through the last principal point, as recovered
    assert r.regularized.prefix[2:] == (ext(3), ext(5))
    assert [recover_sequence(r.trace, make_phi("blowup:2"), p) for p in (2, 3)] == [3, 5]
