"""`compare` on the sweep core and raw payloads, against its definition.

`compare_regularizations` reads the window once and runs the sweep core for
the larger phi, the smaller and the ungated one, without building a record.
`_leq` compares raw payloads, two Fractions by cross-multiplication, and
`_larger` reads each phi's raw value rule at the probes, which `eval` wraps.
They are checked against what they compute:

- the comparison is defined elementwise over three public
  `regularize_with_phi` records: which phi is at least the other at the
  probes, then a^{larger} <= a^{smaller} <= a and the ungated regularization
  below a^{larger}, within tol.  On every drawn document and phi pair the
  reports must be equal, or the errors equal by type and message;
- every record satisfies the paper's identities: its segments reproduce its
  values, its intervals abut at the entry times, the counting function and
  the trace jump only there, the trace breaks only where a discontinuity
  index enters, and `recover_sequence` gives back every value;
- each phi's `eval` is its formula in ExtReal arithmetic, by type and repr.
"""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from seqreg import (ExtReal, RegularizingFunction, SeqRegError, SequenceSpec,
                    compare_regularizations, make_phi, recover_sequence, regularize_with_phi,
                    to_log_scale)
from seqreg.errors import (InconsistentDeclaration, InfiniteEntryUnsupported, InfinityAtZero,
                           NotComparable)
from seqreg.extreal import NEG_INF, ONE, POS_INF, ZERO, _to_float, ext
from seqreg.phireg import _PROBE_GRID, ComparisonReport

HUGE = 10**400  # past the float range


# -- the definitions ---------------------------------------------------------------------


def float_exp(x: ExtReal) -> ExtReal:
    """e^x: an exact 0 at -inf, +inf at +inf, and otherwise the exp of x's
    float (+-inf past the float range), +inf where it overflows."""
    if x.is_neg_inf:
        return ZERO
    if x.is_pos_inf:
        return POS_INF
    try:
        return ExtReal(math.exp(_to_float(x.raw)))
    except OverflowError:
        return POS_INF


def closed_form(descriptor: str):
    """The built-in phi with this descriptor by its formula: e^t, e^(alpha t +
    beta), 1/(T - t) below T and +inf from T on, +inf, or the linear
    interpolation of the knots at t's exact value, constant left of the first
    knot and on the last segment's line right of the last."""
    head, _, arg = descriptor.partition(":")
    if head == "exp":
        return float_exp
    if head == "expaffine":
        alpha, beta = (ext(Fraction(x)) for x in arg.split(","))
        return lambda t: float_exp(alpha * t + beta)
    if head == "blowup":
        T = ext(Fraction(arg))
        return lambda t: ONE / (T - t) if t < T else POS_INF
    if head == "infinite":
        return lambda t: POS_INF
    knots = [tuple(map(Fraction, k.split(","))) for k in arg.split(";")]

    def piecewise(t: ExtReal) -> ExtReal:
        if t.is_pos_inf:
            return POS_INF
        if t.is_neg_inf or Fraction(t.raw) <= knots[0][0]:
            return ext(knots[0][1])
        x = Fraction(t.raw)
        (x0, v0), (x1, v1) = next(((k, n) for k, n in zip(knots, knots[1:]) if x <= n[0]),
                                  knots[-2:])
        return ext(v0 + (v1 - v0) / (x1 - x0) * (x - x0))

    return piecewise


def probes(phi1: RegularizingFunction, phi2: RegularizingFunction) -> list[ExtReal]:
    """_PROBE_GRID and, for each blow-up point T, T and T +- 1/100."""
    pts = [ext(x) for x in _PROBE_GRID]
    for T in (phi1.blowup_T, phi2.blowup_T):
        if T is not None:
            pts.extend([T - ext(Fraction(1, 100)), T, T + ext(Fraction(1, 100))])
    return pts


def larger(phi1: RegularizingFunction, phi2: RegularizingFunction) -> str:
    """"equal", "phi1" or "phi2": the phi at least the other at every probe."""
    pairs = [(phi1.eval(t), phi2.eval(t)) for t in probes(phi1, phi2)]
    two_over_one, one_over_two = all(y >= x for x, y in pairs), all(x >= y for x, y in pairs)
    if two_over_one or one_over_two:
        return "equal" if two_over_one and one_over_two else "phi2" if two_over_one else "phi1"
    raise NotComparable("neither regularizing function dominates the other "
                        "on the probe grid")


def leq(x: ExtReal, y: ExtReal, tol: float) -> bool:
    """x <= y, or within tol * max(1, |x|, |y|) as floats."""
    if x <= y:
        return True
    if x.is_finite and y.is_finite:
        fx, fy = float(x), float(y)
        return fx <= fy + tol * max(1.0, abs(fx), abs(fy))
    return False


def definition(a: SequenceSpec, phi1: RegularizingFunction, phi2: RegularizingFunction,
               window: Optional[int] = None, tol: float = 1e-9) -> ComparisonReport:
    """The comparison, elementwise over the records of the larger phi, the
    smaller and the ungated one: the first index that breaks either order is
    the witness."""
    label = larger(phi1, phi2)
    big, small = (phi1, phi2) if label == "phi1" else (phi2, phi1)
    r_big, r_small, floor = (regularize_with_phi(a, phi, window, tol)
                             for phi in (big, small, make_phi("infinite")))
    seq = to_log_scale(a)
    ordered_ok = convex_floor_ok = True
    witness: Optional[int] = None
    for p in range(min(r_big.window, r_small.window, floor.window)):
        x_big, x_small = r_big.regularized.prefix[p], r_small.regularized.prefix[p]
        x_orig, x_floor = seq.value(p), floor.regularized.prefix[p]
        if not (leq(x_big, x_small, tol) and leq(x_small, x_orig, tol)):
            ordered_ok = False
            witness = p if witness is None else witness
        if not (leq(x_floor, x_big, tol) and leq(x_big, x_orig, tol)):
            convex_floor_ok = False
            witness = p if witness is None else witness
    return ComparisonReport(label, ordered_ok, convex_floor_ok, witness)


# -- helpers ------------------------------------------------------------------------------


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (SeqRegError, ArithmeticError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def num(x):
    """(type, repr) of a payload: 1 == 1.0 and 0.0 == -0.0 are no match."""
    raw = x.raw if isinstance(x, ExtReal) else x
    return type(raw).__name__, repr(raw)


def as_json(v):
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def reports(doc, d1: str, d2: str, window):
    """The report (or error) of compare and of its definition, under make_phi(d1), make_phi(d2)."""
    seq = SequenceSpec.from_json(doc)
    phi1, phi2 = make_phi(d1), make_phi(d2)
    return (outcome(compare_regularizations, seq, phi1, phi2, window),
            outcome(definition, seq, phi1, phi2, window))


# -- documents -------------------------------------------------------------------------------

STEPS = {
    "exact": st.fractions(min_value=-6, max_value=6, max_denominator=4),
    "float": st.integers(-60, 60).map(lambda k: k / 10),  # one decimal
    "huge": st.fractions(min_value=-6, max_value=6, max_denominator=4).map(lambda x: x * HUGE),
}
STEPS["mixed"] = st.one_of(STEPS["exact"], STEPS["float"])

TAILS = [
    {"type": "explicit_only"},
    {"type": "explicit_only"},
    {"type": "factorial_power", "s": 1, "c": 1},
    {"type": "affine_log", "c": "5/2"},
]


@st.composite
def documents(draw, entries: Optional[str] = None):
    """A rough convex sequence with +inf holes and -inf entries, its tail, a
    declared regime on explicit tails (a Case 2 cap, or Case 1), and a window."""
    steps = STEPS[entries or draw(st.sampled_from(sorted(STEPS)))]
    n = draw(st.integers(min_value=1, max_value=14))
    slopes = sorted(draw(st.lists(steps, min_size=n, max_size=n)))
    values = [draw(steps)]
    for s in slopes:
        values.append(values[-1] + s)
    values = [v + draw(st.one_of(st.just(0 * v), steps)) for v in values]
    for q in draw(st.lists(st.integers(1, n), max_size=n // 3)):
        values[q] = draw(st.sampled_from(["inf", "inf", "inf", "-inf"]))
    doc = {"kind": "log", "prefix": [as_json(v) for v in values],
           "tail": draw(st.sampled_from(TAILS))}
    if doc["tail"]["type"] == "explicit_only":
        regime = draw(st.sampled_from([None, None, "case2", "case1"]))
        if regime:
            doc["declared_regime"] = {"regime": regime, "source": "declared",
                                      "evidence_window": [0, len(values)]}
            if regime == "case2":
                doc["declared_regime"]["a_iota"] = as_json(draw(steps))
    return doc, draw(st.one_of(st.none(), st.integers(1, len(values) + 4)))


# exp < expaffine:1,1 everywhere; expaffine:1/2,-1 crosses exp; blowup:3 caps
# inside the slopes drawn, blowup:-2 below them, blowup:10 < blowup:30 beyond;
# infinite dominates every phi; the piecewise phi is flat on [1, 3]
PHIS = ["exp", "expaffine:1,1", "expaffine:1/2,-1", "blowup:-2", "blowup:3", "blowup:10",
        "blowup:30", "infinite", "piecewise:[[-1,0],[1,2],[3,2],[4,6]]"]


# -- compare ------------------------------------------------------------------------------


@pytest.mark.parametrize("d1,d2", list(itertools.product(PHIS, PHIS)))
@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_compare_matches_the_former_form(d1, d2, data):
    doc, window = data.draw(documents())
    new, old = reports(doc, d1, d2, window)
    assert new == old


@pytest.mark.parametrize("entries", sorted(STEPS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_compare_matches_the_former_form_per_family(entries, data):
    doc, window = data.draw(documents(entries))
    d1, d2 = data.draw(st.sampled_from(PHIS)), data.draw(st.sampled_from(PHIS))
    new, old = reports(doc, d1, d2, window)
    assert new == old


def log_doc(prefix, **extra):
    return {"kind": "log", "prefix": prefix, "tail": {"type": "explicit_only"}, **extra}


def case2(a_iota):
    return {"regime": "case2", "a_iota": a_iota, "source": "declared", "evidence_window": [0, 9]}


JUMPY = [0, 5, 1, 7, 3, 12, 8, 20, 15]

# (document, phi1, phi2, the report as a JSON payload, or the error type)
FIXED = [
    # a larger phi digs deeper: the ordered case, and the same pair named the other way
    (log_doc(JUMPY), "exp", "expaffine:1,1",
     {"larger": "phi2", "ordered_ok": True, "convex_floor_ok": True, "witness_index": None}),
    (log_doc(JUMPY), "expaffine:1,1", "exp",
     {"larger": "phi1", "ordered_ok": True, "convex_floor_ok": True, "witness_index": None}),
    (log_doc(JUMPY), "blowup:10", "blowup:30", None),
    # a blow-up cap digs below the ungated floor (ROADMAP item 2), and below the
    # ungated regularization itself
    (log_doc(JUMPY), "blowup:1", "blowup:3",
     {"larger": "phi1", "ordered_ok": True, "convex_floor_ok": False, "witness_index": 5}),
    (log_doc(JUMPY), "blowup:3", "infinite",
     {"larger": "phi2", "ordered_ok": False, "convex_floor_ok": True, "witness_index": 7}),
    (log_doc([0.5, 5.2, 1.1, 7.0, 3.3, 12.0, 8.1, 20.4, 15.0]), "blowup:10", "blowup:30", None),
    (log_doc([0, 5.2, "1/3", 7, 3.3, "12/5", 8, 20.4, 15]), "exp", "expaffine:1,1", None),
    # a declared Case 2 cap: the floor is the slope-1 line past its last principal point
    (log_doc(JUMPY, declared_regime=case2(1)), "exp", "expaffine:1,1", None),
    (log_doc(JUMPY, declared_regime=case2("1/2")), "infinite", "exp", None),
    # under the cap the floor digs below blowup:3's line of slope 3; uncapped it would not
    (log_doc(JUMPY, declared_regime=case2(1)), "blowup:3", "blowup:10",
     {"larger": "phi1", "ordered_ok": True, "convex_floor_ok": True, "witness_index": None}),
    # Case 1: a -inf entry collapses the floor to [a_0, -inf, ...]; gated phis refuse it
    (log_doc([0, 3, "-inf", 9]), "infinite", "infinite",
     {"larger": "equal", "ordered_ok": True, "convex_floor_ok": True, "witness_index": None}),
    (log_doc([0, 3, "-inf", 9]), "exp", "infinite", InfiniteEntryUnsupported),
    (log_doc([0, 3, 1, 9], declared_regime={"regime": "case1", "source": "declared"}),
     "infinite", "blowup:3", None),
    # +inf holes, and a window ending in them
    (log_doc([0, "inf", 2, "inf", 9, 20]), "exp", "expaffine:1,1", None),
    (log_doc([0, 1, 5, "inf"]), "exp", "expaffine:1,1", InfiniteEntryUnsupported),
    (log_doc([0, 1, 5, "inf"]), "blowup:3", "infinite", None),
    # equal entries past the float range: a <= a must hold without the float fallback
    (log_doc([-HUGE, -HUGE + 1, -HUGE + 3]), "exp", "exp",
     {"larger": "equal", "ordered_ok": True, "convex_floor_ok": True, "witness_index": None}),
    (log_doc([-HUGE, 0, HUGE]), "exp", "expaffine:1,1", None),
    # errors: not comparable first, then a_0, then big's, small's and the floor's
    (log_doc(["inf", 1, 2]), "exp", "expaffine:1/2,-1", NotComparable),
    (log_doc(["inf", 1, 2]), "exp", "expaffine:1,1", InfinityAtZero),
    (log_doc([0, 3, "-inf", 9], declared_regime=case2(1)), "exp", "infinite",
     InconsistentDeclaration),
    (log_doc([0, 3, "-inf", 9], declared_regime=case2(1)), "infinite", "exp",
     InconsistentDeclaration),
    (log_doc([0, 3, 1, "inf"]), "infinite", "exp", InfiniteEntryUnsupported),
    ({"kind": "log", "prefix": [0, 1, 3], "tail": {"type": "factorial_power", "s": 1, "c": 1},
      "declared_regime": {"regime": "case1", "source": "declared"}}, "exp", "expaffine:1,1",
     InconsistentDeclaration),
]


@pytest.mark.parametrize("doc,d1,d2,expected", FIXED)
def test_compare_matches_the_former_form_on_fixed_documents(doc, d1, d2, expected):
    new, old = reports(doc, d1, d2, None)
    assert new == old
    if isinstance(expected, dict):
        assert new.to_json() == expected
    elif expected is not None:
        assert new[0] == expected.__name__


def test_fixed_documents_reach_every_verdict():
    got = [reports(doc, d1, d2, None)[0] for doc, d1, d2, _ in FIXED]
    got = [r for r in got if isinstance(r, ComparisonReport)]
    assert {r.larger for r in got} == {"phi1", "phi2", "equal"}
    assert any(not r.convex_floor_ok for r in got) and any(not r.ordered_ok for r in got)
    assert any(r.ordered_ok and r.convex_floor_ok for r in got)


# -- the record ---------------------------------------------------------------------------


def same(x: ExtReal, y: ExtReal, exact: bool) -> bool:
    """Equal by type and repr on exact entries; on float ones up to rounding."""
    if exact or not (x.is_finite and y.is_finite):
        return num(x) == num(y)
    fx, fy = Fraction(x.raw), Fraction(y.raw)
    return abs(fx - fy) <= Fraction(1, 10**9) * max(1, abs(fx), abs(fy))


def assert_record_identities(seq: SequenceSpec, phi: RegularizingFunction, r) -> None:
    vals, out = to_log_scale(seq).values(r.window), r.regularized.prefix
    if r.J_right.is_neg_inf:  # Case 1: the sequence collapses to (a_0, -inf, ...)
        assert out == (vals[0],) + (NEG_INF,) * (r.window - 1) and not r.intervals
        return
    exact = all(v.is_exact or not v.is_finite for v in vals)
    # consecutive segments abut; each meets a at its anchor, the start of its
    # span, and gives the values on the rest of the span
    spans = [(s.span_start, s.span_end) for s in r.segments]
    assert [e for _, e in spans[:-1]] == [s for s, _ in spans[1:]]
    for seg in r.segments:
        start = seg.anchor_index
        assert start == seg.span_start and num(out[start]) == num(vals[start])
        for p in range(start + 1, min(seg.span_end, r.window)):
            assert same(out[p], seg.value_at(p), exact), (p, seg)
    # the intervals abut at the principal indices' entry times, from -inf to J's
    # end; a sweep that leaves the window by a tail chord ends them at the
    # chord's time, where the counting function steps to the tail index and the
    # last segment, the chord's line, ends the window
    chord = r.counting.jumps[-1] if r.counting.jumps and r.counting.jumps[-1][1] >= r.window \
        else None
    starts = [i.start for i in r.intervals]
    assert len(starts) == len(r.principal_indices)
    if starts:
        assert starts[0] == NEG_INF
        assert r.intervals[-1].end == (r.J_right if chord is None else chord[0])
    if chord is not None:
        assert (r.segments[-1].slope, r.segments[-1].span_end) == (chord[0], r.window)
    assert all(i.end == j.start for i, j in zip(r.intervals, r.intervals[1:]))
    entry = dict(zip(r.principal_indices, starts))
    # the counting function steps to the last index entering at each entry
    # time (to the tail index at the chord's), and the trace breaks there; it
    # jumps only where a discontinuity index enters, and on exact entries
    # wherever one does (in floats a jump can round away, but rounding must not
    # fake one)
    times = sorted({t for t in starts if not t.is_neg_inf} | ({chord[0]} if chord else set()))
    assert [t for t, _ in r.counting.jumps] == times == [b.x for b in r.trace.breakpoints]
    level = {tau: max((p for p, t in entry.items() if t == tau), default=None) for tau in times}
    if chord is not None:
        level[chord[0]] = chord[1]
    assert all(m == level[tau] for tau, m in r.counting.jumps)
    jumps = {b.x for b in r.trace.breakpoints if b.left_value != b.right_value}
    entering = {entry[d] for d in r.discontinuity_indices}
    assert jumps == entering if exact else jumps <= entering
    # equal event times print as one JSON value wherever the record prints them
    doc = r.to_json()
    printed = [doc["J_right"], *(s["slope"] for s in doc["segments"]),
               *(t for t, _ in doc["counting"]["jumps"]),
               *(b["x"] for b in doc["trace"]["breakpoints"]),
               *(iv[k] for iv in doc["intervals"] for k in ("start", "end"))]
    forms: dict = {}
    for x in printed:
        forms.setdefault(ExtReal.from_json(x).raw, set()).add(json.dumps(x))
    assert all(len(f) == 1 for f in forms.values()), forms
    # the trace's own Legendre recovery gives back every value; one that a
    # float tail chord fills in is a float, recovered up to rounding
    for p in range(r.window):
        assert same(recover_sequence(r.trace, phi, p), out[p], exact and out[p].is_exact), p


def exact_twin(seq: SequenceSpec) -> SequenceSpec:
    """seq with each float entry, and a float declared limit slope, as its exact value."""
    def exact(x):
        return ext(Fraction(x.raw)) if x is not None and x.is_finite else x

    declared = seq.declared_regime
    if declared is not None:
        declared = replace(declared, a_iota=exact(declared.a_iota))
    return replace(seq, prefix=tuple(map(exact, seq.prefix)), declared_regime=declared)


# one-decimal steps summed in floats: 7 lies on the chord from 6 to 9 at the
# floats' binary values, and a sweep that decided on divided float slopes dropped it
NEAR_TIE = log_doc([1.8, -7.1, -8.600000000000001, -3.9000000000000012, -10.000000000000002,
                    -8.200000000000001, -6.100000000000001, -2.3000000000000016,
                    1.6999999999999984, 5.299999999999998, 11.099999999999998, 18.7])


# float rounding of two events at one slope gave the ungated trace a jump at
# -3.7, where no point enters below the line
FAKE_JUMP = log_doc([1.3, -2.4000000000000004, -6.1000000000000005, -1.700000000000001,
                     -2.4000000000000004, -7.9, -7.000000000000001, -0.6000000000000005])
# declared Case 2 windows ending in +inf entries: under phi = infinite the cap
# line closes them, as their traces recover; and a float slope that rounds up
# to the cap is taken exactly
CAP_ENDS = [log_doc([1.0, "inf"], declared_regime=case2("7/3")),
            log_doc([2.6, "inf", "inf", "inf", "inf", 7.6], declared_regime=case2(1))]
# under blowup:3 the float slope from 0 to 3 rounds above 17/6, the threshold
# of 6, which lies below that line: 6 enters, and the trace jumps, at 17/6
TIED_THRESHOLD = log_doc([-3.5, 1.0, 2.5, 5.0, 7.9, 10.8, 13.4])
# under blowup:10 the float slope from 3 to 4 rounds up past 49/5, the
# threshold of 5: 5 enters, and the trace jumps, at 49/5
PAST_THRESHOLD = log_doc([0.0, 0.0, 0.0, -5.1, 4.7, 9.4])
# an exact window whose +inf end the float chord into the factorial tail fills:
# 9 tau - 8 tau recovers tau 2 ulps off
FLOAT_CHORD = log_doc([0] * 9 + ["inf"], tail={"type": "factorial_power", "s": 1, "c": 1})


@pytest.mark.parametrize("descriptor", PHIS)
@given(data=st.data(), pinned=st.none())
@example(data=None, pinned=(NEAR_TIE, None))
@example(data=None, pinned=(FAKE_JUMP, None))
@example(data=None, pinned=(CAP_ENDS[0], None))
@example(data=None, pinned=(CAP_ENDS[1], None))
@example(data=None, pinned=(TIED_THRESHOLD, None))
@example(data=None, pinned=(PAST_THRESHOLD, None))
@example(data=None, pinned=(FLOAT_CHORD, 10))
@settings(max_examples=40, deadline=None)
def test_record_matches_the_former_form(descriptor, data, pinned):
    doc, window = pinned or data.draw(documents())
    seq, phi = SequenceSpec.from_json(doc), make_phi(descriptor)
    r = outcome(regularize_with_phi, seq, phi, window)
    twin = outcome(regularize_with_phi, exact_twin(seq), phi, window)
    if isinstance(r, tuple):
        assert isinstance(twin, tuple) and twin[0] == r[0]
        return
    assert_record_identities(seq, phi, r)
    # floats are decided at their binary values: the record on the same
    # entries read as exact Fractions makes the same decisions
    assert (r.principal_indices, r.discontinuity_indices, r.finite_principal) == \
        (twin.principal_indices, twin.discontinuity_indices, twin.finite_principal)
    assert all(same(x, y, False) for x, y in zip(r.regularized.prefix, twin.regularized.prefix))
    assert all(same(x.start, y.start, False) for x, y in zip(r.intervals, twin.intervals))


# -- eval ---------------------------------------------------------------------------------

EVAL_PHIS = PHIS + [
    "expaffine:3,2", "blowup:0", "blowup:5/2", 'piecewise:[["0","0"],["1/3","1/7"],["2","5"]]',
    # parameters past the float range
    "expaffine:1e400,1", "expaffine:1,1e400", "expaffine:1,-1e400", "expaffine:1e-400,0",
    "blowup:1e400", "blowup:-1e400", 'piecewise:[["-1e400",0],["1e400",1]]',
]

POINTS = [
    0.0, -0.0, math.inf, -math.inf, 0, 1, -1, Fraction(1, 3), 0.1, -2.5, 1e308, -1e308, 5e-324,
    709.0, 710.0, -745.0, -746.0, Fraction(7101, 10), Fraction(-7461, 10),
    # Fractions past the float range, and below its resolution
    Fraction(HUGE, 3), Fraction(-HUGE, 3), Fraction(HUGE + 1), -Fraction(HUGE + 1), Fraction(1, HUGE),
]


def assert_eval(phi, t):
    want = closed_form(phi.descriptor)
    new, old = outcome(phi.eval, t), outcome(want, ext(t))
    assert (num(new) if isinstance(new, ExtReal) else new) == \
        (num(old) if isinstance(old, ExtReal) else old), (phi, t)


@pytest.mark.parametrize("descriptor", EVAL_PHIS)
def test_eval_matches_the_former_form_on_the_probes(descriptor):
    phi = make_phi(descriptor)
    T = phi.blowup_T
    near = [] if T is None else [T - ext(Fraction(1, 100)), T, T + ext(Fraction(1, 100))]
    for t in list(_PROBE_GRID) + near + POINTS:
        assert_eval(phi, t)
        assert phi(t) == phi.eval(t)


@pytest.mark.parametrize("descriptor", EVAL_PHIS)
@given(t=st.one_of(st.fractions(), st.fractions(max_denominator=10**6).map(lambda x: x * HUGE),
                   st.floats(allow_nan=False)))
@settings(max_examples=150, deadline=None)
def test_eval_matches_the_former_form_on_drawn_points(descriptor, t):
    assert_eval(make_phi(descriptor), t)


@given(t=st.one_of(st.fractions(), st.fractions().map(lambda x: x * HUGE),
                   st.floats(allow_nan=False), st.sampled_from(POINTS)))
@settings(max_examples=300, deadline=None)
def test_exp_matches_the_former_form(t):
    assert num(ext(t).exp()) == num(float_exp(ext(t)))


def test_a_hand_built_eval_fn_is_read_into_the_value_rule():
    def eval_fn(t: ExtReal) -> ExtReal:
        return ZERO if t < ZERO else ext(2) * t

    phi = RegularizingFunction("hand", eval_fn, lambda p: ext(Fraction(p, 2)),
                               blowup_T=ext(5), descriptor="hand")
    for t in map(ext, POINTS + list(_PROBE_GRID)):
        assert num(phi.eval(t)) == num(POS_INF if t >= ext(5) else eval_fn(t))
    assert phi.eval(5).is_pos_inf and phi.eval(Fraction(49, 10)) == ext(Fraction(49, 5))
    # compare on the hand-built phi and a built-in one
    seq = SequenceSpec.from_json(log_doc(JUMPY))
    new = compare_regularizations(seq, phi, make_phi("infinite"))
    assert new == definition(seq, phi, make_phi("infinite")) and new.larger == "phi2"


# float rounding gives two events at the time -1/2, one of them as the float
# -0.5: the trace broke at -0.5 while the counting function jumped at "-1/2"
ROUNDED_TIES = log_doc([-0.2, -0.7000000000000001, -1.2000000000000002, 2.8000000000000003,
                        -2.9000000000000004])


def test_one_event_time_prints_one_way():
    seq, phi = SequenceSpec.from_json(ROUNDED_TIES), make_phi("blowup:0")
    assert_record_identities(seq, phi, regularize_with_phi(seq, phi))
