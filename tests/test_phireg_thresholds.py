"""Threshold rules and the merged CSV pass against what they compute.

Each built-in phi gives threshold(p) = inf{t : phi(t) >= p} as an integer
ratio (n, d), d > 0, that the sweep reads without building a Fraction.
Below, the thresholds by their closed forms: log p (read as the float's
exact value) for exp, (log p - beta) / alpha for expaffine, T - 1/p for
blowup, and the first knot segment that reaches p for piecewise.  On every p
up to 4096 and every drawn parameter the ratio must equal them, and so must
`threshold(p)`.

`phireg --emit csv` reads m(t) and A(t) at sorted slopes from the record's
raw output (`PhiRegResult._samples`), with one pointer over the trace's
breakpoints.  At every sample, inside J and outside it, m must equal
`counting_m_phi`, and A the float of `trace_A_phi`, by repr (on an exact
segment A is one division of two integers, `phireg._line_float`).
`PhiRegResult.to_json`, printed from the raw output, must equal the JSON of
the record's objects, which it builds only when asked.
"""

import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from seqreg import (CASE2, ExplicitOnly, ExtReal, OutOfDomain, RegimeClassification,
                    RegularizingFunction, SeqRegError, SequenceSpec, counting_m_phi, ext,
                    make_phi, regularize_with_phi, trace_A_phi)
from seqreg import minorant
from seqreg.errors import AxiomViolation
from seqreg.extreal import NEG_INF, POS_INF, ZERO
from seqreg.minorant import _sweep as sweep
from test_phireg_sweep import key, points, ref_sweep, stepped_phi


# -- the thresholds by their closed forms ------------------------------------------------


def threshold_exp(p):
    return Fraction(0) if p == 1 else Fraction(math.log(p))


def threshold_expaffine(alpha, beta, p):
    return (threshold_exp(p) - beta) / alpha


def threshold_blowup(T, p):
    return T - Fraction(1, p)


def threshold_piecewise(knots, p):
    xs = [k[0] for k in knots]
    vs = [k[1] for k in knots]
    final_slope = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
    target = Fraction(p)
    if target > vs[-1]:
        return xs[-1] + (target - vs[-1]) / final_slope
    for i in range(1, len(xs)):
        if vs[i] >= target:
            if vs[i] == vs[i - 1]:
                continue  # flat segment never reaches a strictly larger value
            s = (vs[i] - vs[i - 1]) / (xs[i] - xs[i - 1])
            x = xs[i - 1] + (target - vs[i - 1]) / s
            return max(x, xs[i - 1])
    return xs[-1] + (target - vs[-1]) / final_slope


def assert_rule(phi, p, expected):
    n, d = phi._rule(p)
    assert type(n) is int and type(d) is int and d > 0
    assert Fraction(n, d) == expected
    got = phi.threshold(p)
    assert type(got.raw) is Fraction and got == ext(expected)


INDICES = st.integers(1, 4096)
RATIONALS = st.one_of(
    st.fractions(min_value=-100, max_value=100, max_denominator=1000),
    st.sampled_from([Fraction(1, 3), Fraction(-5, 7), Fraction(10**30, 7), Fraction(1, 2**60)]),
)
POSITIVE = RATIONALS.map(abs).filter(lambda x: x > 0)


def test_exp_rule_on_every_index():
    phi = make_phi("exp")
    for p in range(1, 4097):
        assert_rule(phi, p, threshold_exp(p))
    assert phi.threshold(0) == NEG_INF


@given(POSITIVE, RATIONALS, st.lists(INDICES, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_expaffine_rule(alpha, beta, ps):
    phi = make_phi(f"expaffine:{alpha},{beta}")
    for p in ps + [1, 2, 4096]:
        assert_rule(phi, p, threshold_expaffine(alpha, beta, p))


@given(RATIONALS, st.lists(INDICES, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_blowup_rule(T, ps):
    phi = make_phi(f"blowup:{T}")
    for p in ps + [1, 2, 4096]:
        assert_rule(phi, p, threshold_blowup(T, p))


@st.composite
def knot_lists(draw):
    """Strictly increasing abscissae, values rising from 0 with flat stretches,
    the last segment rising."""
    xs = sorted(set(draw(st.lists(RATIONALS, min_size=2, max_size=7))))
    if len(xs) < 2:
        xs.append(xs[0] + 1)
    rise = st.one_of(st.just(Fraction(0)), st.integers(1, 5).map(Fraction), POSITIVE)
    rises = draw(st.lists(rise, min_size=len(xs) - 1, max_size=len(xs) - 1))
    rises[-1] = rises[-1] or Fraction(1)
    vs = [Fraction(0)]
    for r in rises:
        vs.append(vs[-1] + r)
    return list(zip(xs, vs))


@given(knot_lists(), st.lists(INDICES, min_size=1, max_size=40))
@example([(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(2)),
          (Fraction(4), Fraction(6))], [2])  # phi reaches 2 at t = 1 and stays there until 3
@settings(max_examples=300, deadline=None)
def test_piecewise_rule(knots, ps):
    phi = make_phi("piecewise:[" + ",".join(f'["{x}","{v}"]' for x, v in knots) + "]")
    # every knot value's neighbourhood, where the segment changes
    near = [p for _, v in knots for p in (math.floor(v), math.floor(v) + 1) if 1 <= p <= 4096]
    for p in ps + near + [1, 4096]:
        assert_rule(phi, p, threshold_piecewise(knots, p))


def test_infinite_rule():
    phi = make_phi("infinite")
    assert phi._rule(5) is None
    assert phi.threshold(5) == NEG_INF


def hand_built(threshold_fn):
    return RegularizingFunction("hand", lambda t: ZERO, threshold_fn)


EXACT_WINDOW = SequenceSpec(kind="log", prefix=tuple(map(ext, [0, 3, 1, 4, 9, 2, 7, 12])),
                            tail=ExplicitOnly())


def checked_sweep(pts, ths, cap, chord=None):
    """minorant._sweep, checked against the replaced event loop by type and repr
    (phireg has no tail chords)."""
    assert chord is None
    got = sweep(pts, ths, cap)
    assert key(got) == key(ref_sweep(points(pts, ths), cap))
    return got


def test_tied_hand_built_thresholds_are_no_axiom_violation():
    # thresholds 0, 0, 1, 1, ...: phi never falls, and the sweep gives the loop's record
    phi = hand_built(lambda p: ext((p - 1) // 2))
    assert [phi._rule(p) for p in (1, 2, 3)] == [(0, 1), (0, 1), (1, 1)]
    with mock.patch.object(minorant, "_sweep", checked_sweep):
        result = regularize_with_phi(EXACT_WINDOW, phi)
    assert result.principal_indices[0] == 0


def test_a_float_threshold_is_read_at_its_exact_value():
    phi = hand_built(lambda p: ExtReal(p / 4))
    assert phi._rule(3) == 0.75 and phi.threshold(3) == ExtReal(0.75)
    floats = regularize_with_phi(EXACT_WINDOW, phi)
    exact = regularize_with_phi(EXACT_WINDOW, hand_built(lambda p: ext(Fraction(p, 4))))
    # quarters are exact in binary, so both find the same record; the times
    # that a threshold sets are its floats
    assert floats.principal_indices == exact.principal_indices
    assert floats.discontinuity_indices == exact.discontinuity_indices
    assert floats.regularized.prefix == exact.regularized.prefix
    assert floats.counting.jumps == exact.counting.jumps
    assert any(type(t.raw) is float for t, _ in floats.counting.jumps)


@pytest.mark.parametrize("p", [1, 3])
def test_an_infinite_threshold_violates_axiom_iii(p):
    # threshold(p) = +inf: phi never reaches p, so it cannot grow to +inf
    phi = hand_built(lambda q: POS_INF if q >= p else ext(q - 1))
    with pytest.raises(AxiomViolation) as exc:
        regularize_with_phi(EXACT_WINDOW, phi)
    assert exc.value.axiom == "III" and exc.value.witness == p


# -- the sorted CSV pass ----------------------------------------------------------------


def sample_record(result, ts, extended):
    """(m, A) at each of the sorted ts, as the CSV reads them from the record's
    raw output: None outside J, and A = inf there when extended."""
    return result._samples([t.raw for t in ts], extended)


# stepped_phi(2) has tied thresholds, so events may share a time
PHIS = [make_phi(d) for d in ("exp", "expaffine:1/2,1", "blowup:0", "blowup:5/2", "infinite",
                              "piecewise:[[-1,0],[1,2],[3,2],[4,6]]")] + [stepped_phi(2)]


@st.composite
def records(draw):
    """A regularization record: exact or one-decimal entries with +inf holes
    (a lone point leaves no breakpoint), some collapsing to case 1, some
    capped by a declared case 2 slope."""
    step = draw(st.sampled_from([Fraction(1, 2), 0.1]))
    n = draw(st.integers(1, 24))
    values = [k * step for k in draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))]
    for q in draw(st.lists(st.integers(1, n), max_size=n)):
        if q < n:
            values[q] = math.inf
    phi = draw(st.sampled_from(PHIS))
    declared = None
    if phi.infinite:
        if draw(st.booleans()) and n > 1:
            values[draw(st.integers(1, n - 1))] = -math.inf
        elif draw(st.booleans()):
            declared = RegimeClassification(CASE2, ExtReal(draw(st.integers(-8, 8)) * step),
                                            (0, n), "declared")
    seq = SequenceSpec(kind="log", prefix=tuple(ExtReal(v) for v in values),
                       tail=ExplicitOnly(), declared_regime=declared)
    try:
        return regularize_with_phi(seq, phi)
    except (SeqRegError, ValueError):
        return None


def samples(result, extra):
    """Every breakpoint, the midpoints between them, points either side and
    past J's right end, and the drawn slopes."""
    xs = [bp.x for bp in result.trace.breakpoints]
    ts = list(xs) + [ext(t) for t in extra]
    ts += [a + (b - a) / 2 for a, b in zip(xs, xs[1:])]
    if xs:
        ts += [xs[0] - 1, xs[-1] + 1]
    if result.J_right.is_finite:
        ts += [result.J_right, result.J_right + 1, result.J_right - Fraction(1, 7)]
    return sorted(set(ts))


def per_sample(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OutOfDomain:
        return None


@given(records(), st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=8),
                          max_size=12), st.booleans())
@settings(max_examples=400, deadline=None)
def test_sorted_pass_matches_the_per_sample_functions(result, extra, extended):
    if result is None:
        return
    ts = samples(result, extra)
    got = [m for m, _ in sample_record(result, ts, extended)]
    assert got == [per_sample(counting_m_phi, result, t) for t in ts]


@pytest.mark.parametrize("extended", [False, True])
def test_sorted_pass_without_breakpoints(extended):
    # one finite point before +inf entries under a blow-up phi: no event, and
    # the trace is the constant -a_0 on J = (-inf, 2)
    seq = SequenceSpec(kind="log", prefix=tuple(map(ExtReal, [3, math.inf, math.inf, math.inf])),
                       tail=ExplicitOnly())
    result = regularize_with_phi(seq, make_phi("blowup:2"))
    assert result.trace.breakpoints == ()
    ts = [ext(-1), ext(0), ext(2), ext(5)]
    outside = math.inf if extended else None
    assert sample_record(result, ts, extended) == [(0, -3.0), (0, -3.0),
                                                   (None, outside), (None, outside)]


def floats_key(result, ts, extended):
    """The CSV's A column at the sorted ts, and float of trace_A_phi at each, by repr."""
    got = [a for _, a in sample_record(result, ts, extended)]
    want = [per_sample(trace_A_phi, result, t, extended=extended) for t in ts]
    return [repr(a) for a in got], [repr(None if a is None else float(a)) for a in want]


@given(records(), st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=8),
                          max_size=12), st.booleans())
@settings(max_examples=400, deadline=None)
def test_csv_floats_match_the_sorted_pass(result, extra, extended):
    if result is None:
        return
    got, want = floats_key(result, samples(result, extra), extended)
    assert got == want


@pytest.mark.parametrize("extended", [False, True])
def test_csv_floats_past_the_float_range(extended):
    # exact slopes of -10**400 and 10**400: A runs from -10**400 to 10**400,
    # past the float range on both sides
    seq = SequenceSpec(kind="log", prefix=tuple(map(ExtReal, [10**400, 0, 10**400])),
                       tail=ExplicitOnly())
    result = regularize_with_phi(seq, make_phi("infinite"))
    got, want = floats_key(result, samples(result, [0]), extended)
    assert got == want and {"inf", "-inf"} <= set(got)


# -- the record printed from the raw output --------------------------------------------


def object_json(result) -> dict:
    """The record's JSON assembled from its on-demand objects' own to_json methods."""
    return {
        "regularized": [v.to_json() for v in result.regularized.prefix],
        "principal_indices": list(result.principal_indices),
        "discontinuity_indices": list(result.discontinuity_indices),
        "intervals": [iv.to_json() for iv in result.intervals],
        "segments": [seg.to_json() for seg in result.segments],
        "counting": result.counting.to_json(),
        "trace": result.trace.to_json(),
        "J_right": result.J_right.to_json(),
        "finite_principal": result.finite_principal,
        "window": result.window,
        "provisional_from": result.provisional_from,
        "phi": result.phi_descriptor,
    }


# float rounding gives two events at the time -1/2, one of them as the float -0.5
ROUNDED_TIES = SequenceSpec(kind="log", tail=ExplicitOnly(),
                            prefix=tuple(ExtReal(k * 0.1) for k in (-2, -7, -12, 28, -29)))


@given(records())
@example(regularize_with_phi(ROUNDED_TIES, make_phi("blowup:0")))
@settings(max_examples=400, deadline=None)
def test_json_from_the_raw_output_matches_the_objects(result):
    # exact and float windows, +inf holes and ends, Case 1 and Case 2, and
    # blowup windows that the cap closes; json.dumps tells 1 from 1.0
    if result is None:
        return
    printed = json.dumps(result.to_json(), sort_keys=True)  # before any object is built
    assert printed == json.dumps(object_json(result), sort_keys=True)
