"""`compare` on the sweep core and raw payloads, against the form it replaced.

`compare_regularizations` reads the window once and runs the sweep core for
the larger phi, the smaller and the ungated one, without building a record.
`_leq` compares raw payloads, two Fractions by cross-multiplication, and
`_larger` reads each phi's raw value rule at the probes, which `eval` wraps.
Below, `frozen_*` are the former forms, kept verbatim: `compare` ran the
whole `regularize_with_phi` three times and compared `ExtReal`s, the record
filled its values as `ExtReal`s, and each built-in phi evaluated itself
through `ExtReal` arithmetic and the former `ExtReal.exp`.  `FrozenPhi` puts
the former `eval` on a phi.  Two amendments (see `frozen_regularize_with_phi`):
the record closes with the line of slope cap whenever the sweep ends before
the window does and the cap is finite, also at trailing +inf entries, and
`finite_principal` says so; and of two events at one time, a later one
without a jump keeps the breakpoint's right value, so float rounding cannot
fake a jump.  On every drawn document and phi pair the
reports must be equal, or the errors equal by type and message; each record
must serialize byte for byte as the former one; and each phi's `eval` must
equal the former one by type and repr.
"""

import itertools
import json
import math
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from seqreg import (ExplicitOnly, ExtReal, RegularizingFunction, SeqRegError, SequenceSpec,
                    compare_regularizations, make_phi, regularize_with_phi)
from seqreg.errors import (AxiomViolation, InconsistentDeclaration, InfiniteEntryUnsupported,
                           InfinityAtZero, NotComparable)
from seqreg.extreal import NEG_INF, ONE, POS_INF, ZERO, RawNumber, _to_float, ext, raw_line
from seqreg.minorant import _sweep
from seqreg.phireg import (_PROBE_GRID, ComparisonReport, PhiInterval, PhiRegResult, PhiSegment,
                           Threshold, _below, _raw, _stable_boundary)
from seqreg.piecewise import (EMPTY_INTERVAL, Breakpoint, Interval, PiecewiseLinearFn,
                              StepFunction)
from seqreg.sequences import CASE1, CASE2, classify_regime, resolve_window, to_log_scale
from seqreg.tails import LOG

HUGE = 10**400  # past the float range


# -- the former forms, verbatim ----------------------------------------------------------


def frozen_exp(self: ExtReal) -> ExtReal:
    if self.is_neg_inf:
        return ZERO
    if self.is_pos_inf:
        return POS_INF
    try:
        return ExtReal(math.exp(_to_float(self._v)))
    except OverflowError:
        return POS_INF


def frozen_eval_fn(descriptor: str):
    """The former eval_fn of the built-in phi with this descriptor."""
    head, _, arg = descriptor.partition(":")
    if head == "exp":
        return lambda t: frozen_exp(t)
    if head == "expaffine":
        alpha, beta = (Fraction(x) for x in arg.split(","))

        def ea_eval(t: ExtReal, a=alpha, b=beta) -> ExtReal:
            return frozen_exp(ext(a) * t + ext(b))

        return ea_eval
    if head == "blowup":
        T = ext(Fraction(arg))

        def bu_eval(t: ExtReal, T=T) -> ExtReal:
            return ONE / (T - t) if t < T else POS_INF

        return bu_eval
    if head == "infinite":
        return lambda t: POS_INF
    assert head == "piecewise"
    knots = [tuple(map(Fraction, k.split(","))) for k in arg.split(";")]
    xs = [k[0] for k in knots]
    vs = [k[1] for k in knots]
    final_slope = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])

    def eval_fn(t: ExtReal) -> ExtReal:
        if t.is_neg_inf or (t.is_exact and t.raw <= xs[0]) or (not t.is_exact and float(t) <= xs[0]):
            return ext(vs[0])
        if t.is_pos_inf:
            return POS_INF
        x = t.raw if t.is_exact else Fraction(float(t))
        if x >= xs[-1]:
            return ext(vs[-1] + final_slope * (x - xs[-1]))
        for i in range(1, len(xs)):
            if x <= xs[i]:
                s = (vs[i] - vs[i - 1]) / (xs[i] - xs[i - 1])
                return ext(vs[i - 1] + s * (x - xs[i - 1]))
        raise AssertionError("unreachable")

    return eval_fn


class FrozenPhi:
    """phi with the former RegularizingFunction.eval over its former eval_fn;
    every other attribute is phi's."""

    def __init__(self, phi: RegularizingFunction, eval_fn=None):
        self._phi = phi
        self._eval_fn = eval_fn or frozen_eval_fn(phi.descriptor)

    def __getattr__(self, name):
        return getattr(self._phi, name)

    def eval(self, t) -> ExtReal:
        t = ext(t)
        if self.blowup_T is not None and t >= self.blowup_T:
            return POS_INF
        return self._eval_fn(t)


def frozen_case1_result(vals: list[ExtReal], w: int, phi: RegularizingFunction) -> PhiRegResult:
    # every real slope is eventually undercut: J is empty, only the -inf
    # conventions survive (m(-inf) = 0, A(-inf) = -a_0)
    out = [vals[0]] + [NEG_INF] * (w - 1)
    trace = PiecewiseLinearFn(breakpoints=(), domain=EMPTY_INTERVAL,
                              slope_left=ZERO, value_at_minus_inf=ZERO - vals[0])
    counting = StepFunction(jumps=(), initial_level=0, domain=EMPTY_INTERVAL)
    regularized = SequenceSpec(kind=LOG, prefix=tuple(out), tail=ExplicitOnly())
    return PhiRegResult(
        regularized=regularized,
        principal_indices=(0,),
        discontinuity_indices=(),
        intervals=(),
        segments=(),
        counting=counting,
        trace=trace,
        J_right=NEG_INF,
        finite_principal=True,
        window=w,
        provisional_from=w,
        phi_descriptor=phi.descriptor,
    )


def frozen_regularize_with_phi(a: SequenceSpec, phi: RegularizingFunction,
                               window: Optional[int] = None, tol: float = 1e-9) -> PhiRegResult:
    """Event-driven sweep computing the full regularization record.

    Preconditions: a_0 finite; -inf entries only under phi = infinite (where
    they collapse the construction); a window ending in +inf entries needs a
    blowup phi (the only class where cofinitely-+inf sequences make sense);
    thresholds that never decrease (AxiomViolation "I" otherwise).
    """
    seq = to_log_scale(a)
    w = resolve_window(seq, window)
    vals = seq.values(w)
    if not vals[0].is_finite:
        raise InfinityAtZero(f"a_0 must be finite, got {vals[0]}")

    regime = None
    cap: Optional[ExtReal] = phi.blowup_T
    if phi.infinite:
        regime = classify_regime(seq, window, tol)
        if regime.regime == CASE1:
            return frozen_case1_result(vals, w, phi)
        if regime.regime == CASE2:
            cap = regime.a_iota

    # the raw window and the threshold rule's vector; +inf points never take over
    pts: list[tuple[int, RawNumber, Threshold]] = []  # (q, a_q, threshold(q))
    for q, v in enumerate(vals):
        if v.is_pos_inf:
            continue
        if v.is_neg_inf:
            if phi.infinite:
                raise InconsistentDeclaration(
                    f"a_{q} = -inf collapses the sequence (case 1), "
                    f"but the {regime.source} regime is {regime.regime}")
            raise InfiniteEntryUnsupported(
                f"a_{q} = -inf: only the ungated phi handles collapsing sequences")
        thr = phi._rule(q) if q else None
        if pts and _below(thr, pts[-1][2]):
            # the sweep admits points in index order, so it needs phi non-decreasing
            raise AxiomViolation(
                "I", q, f"threshold({q}) = {_raw(thr)} falls below "
                f"threshold({pts[-1][0]}) = {_raw(pts[-1][2])}: phi must be non-decreasing")
        pts.append((q, v.raw, thr))
    if phi.blowup_T is None and not phi.infinite and pts[-1][0] < w - 1:
        raise InfiniteEntryUnsupported(
            "window ends in +inf entries; without a blowup point the "
            "regularization of a cofinitely-infinite sequence is undefined")
    principal, disc, events, _ = _sweep(pts, None if cap is None else cap.raw)

    indices = [p for p, _ in principal]
    J_right = cap if cap is not None else POS_INF
    # amended: the cap line closes a window that the sweep leaves before its
    # end, stopped by the cap or at trailing +inf entries
    closed = cap is not None and indices[-1] < w - 1
    finite_principal = closed

    # intervals and segments
    intervals: list[PhiInterval] = []
    segments: list[PhiSegment] = []
    out = list(vals)
    n = len(principal)
    for i, (p_i, t_i) in enumerate(principal):
        if i + 1 < n:
            p_next, t_next = principal[i + 1]
            intervals.append(PhiInterval(t_i, t_next))
            segments.append(PhiSegment(t_next, p_i, vals[p_i], p_i, p_next))
            frozen_fill(out, p_i, vals[p_i], t_next, p_next)
        else:
            intervals.append(PhiInterval(t_i, J_right))
            if closed:
                # the limiting line of slope cap through the last principal point
                segments.append(PhiSegment(cap, p_i, vals[p_i], p_i, w))
                frozen_fill(out, p_i, vals[p_i], cap, w)

    # trace and counting: one breakpoint per distinct event time
    bps: list[Breakpoint] = []
    jumps: list[tuple[ExtReal, int]] = []
    for tau, left, right, top in events:
        if bps and bps[-1].x == tau:
            prev = bps[-1]
            # amended: an event without a jump keeps the breakpoint's right value
            bps[-1] = Breakpoint(prev.x, prev.left_value,
                                 prev.right_value if right == left else right, ext(top))
        else:
            bps.append(Breakpoint(tau, left, right, ext(top)))
        jumps.append((tau, top))
    domain = Interval(NEG_INF, J_right, False, False)
    trace = PiecewiseLinearFn(breakpoints=tuple(bps), domain=domain,
                              slope_left=ZERO, value_at_minus_inf=ZERO - vals[0],
                              constant=None if bps else ZERO - vals[0])
    counting = StepFunction(jumps=tuple(jumps), initial_level=0, domain=domain)

    declared = regime if phi.infinite else None
    regularized = SequenceSpec(kind=LOG, prefix=tuple(out), tail=ExplicitOnly(),
                               declared_regime=declared)

    provisional_from = _stable_boundary(phi, principal, indices, w)
    return PhiRegResult(
        regularized=regularized,
        principal_indices=tuple(indices),
        discontinuity_indices=tuple(disc),
        intervals=tuple(intervals),
        segments=tuple(segments),
        counting=counting,
        trace=trace,
        J_right=J_right,
        finite_principal=finite_principal,
        window=w,
        provisional_from=provisional_from,
        phi_descriptor=phi.descriptor,
    )


def frozen_fill(out: list[ExtReal], P: int, aP: ExtReal, slope: ExtReal, end: int) -> None:
    """out[p] = aP + slope * (p - P) for P < p < end (extreal.raw_line)."""
    at = raw_line(aP.raw, slope.raw, P)
    for p in range(P + 1, end):
        out[p] = ExtReal(at(p))


def frozen_larger(phi1: RegularizingFunction, phi2: RegularizingFunction) -> str:
    """Which phi is at least the other at every probe: "equal", "phi1" or "phi2".

    The probes are _PROBE_GRID and, for each blow-up point T, T and T +- 1/100;
    each phi is evaluated there once.
    """
    pts = [ext(x) for x in _PROBE_GRID]
    for T in (phi1.blowup_T, phi2.blowup_T):
        if T is not None:
            pts.extend([T - ext(Fraction(1, 100)), T, T + ext(Fraction(1, 100))])
    v1 = [phi1.eval(t) for t in pts]
    v2 = [phi2.eval(t) for t in pts]
    two_over_one = all(y >= x for x, y in zip(v1, v2))
    one_over_two = all(x >= y for x, y in zip(v1, v2))
    if two_over_one:
        return "equal" if one_over_two else "phi2"
    if one_over_two:
        return "phi1"
    raise NotComparable("neither regularizing function dominates the other "
                        "on the probe grid")


def frozen_leq(x: ExtReal, y: ExtReal, tol: float) -> bool:
    if x <= y:
        return True
    if x.is_finite and y.is_finite:
        fx, fy = float(x), float(y)
        return fx <= fy + tol * max(1.0, abs(fx), abs(fy))
    return False


def frozen_compare_regularizations(a: SequenceSpec, phi1: RegularizingFunction,
                                   phi2: RegularizingFunction, window: Optional[int] = None,
                                   tol: float = 1e-9) -> ComparisonReport:
    """Order two regularizations: a larger phi sees more points, so it digs deeper.

    Checks a^{larger} <= a^{smaller} <= a elementwise, and that the ungated
    regularization (the convex minorant) floors both.
    """
    label = frozen_larger(phi1, phi2)
    big, small = (phi1, phi2) if label == "phi1" else (phi2, phi1)
    r_big = frozen_regularize_with_phi(a, big, window, tol)
    r_small = frozen_regularize_with_phi(a, small, window, tol)
    floor = frozen_regularize_with_phi(a, make_phi("infinite"), window, tol)
    seq = to_log_scale(a)
    w = min(r_big.window, r_small.window, floor.window)
    ordered_ok = True
    convex_floor_ok = True
    witness: Optional[int] = None
    for p in range(w):
        x_big = r_big.regularized.prefix[p]
        x_small = r_small.regularized.prefix[p]
        x_orig = seq.value(p)
        x_floor = floor.regularized.prefix[p]
        if not (frozen_leq(x_big, x_small, tol) and frozen_leq(x_small, x_orig, tol)):
            ordered_ok = False
            witness = p if witness is None else witness
        if not (frozen_leq(x_floor, x_big, tol) and frozen_leq(x_big, x_orig, tol)):
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


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def as_json(v):
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def reports(doc, d1: str, d2: str, window):
    """The report (or error) of compare and of the former compare, under make_phi(d1), make_phi(d2)."""
    seq = SequenceSpec.from_json(doc)
    phi1, phi2 = make_phi(d1), make_phi(d2)
    new = outcome(compare_regularizations, seq, phi1, phi2, window)
    old = outcome(frozen_compare_regularizations, seq, FrozenPhi(phi1), FrozenPhi(phi2), window)
    return new, old


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


@pytest.mark.parametrize("descriptor", PHIS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_record_matches_the_former_form(descriptor, data):
    doc, window = data.draw(documents())
    seq, phi = SequenceSpec.from_json(doc), make_phi(descriptor)
    new = outcome(regularize_with_phi, seq, phi, window)
    old = outcome(frozen_regularize_with_phi, seq, phi, window)
    if isinstance(old, tuple):
        assert new == old
        return
    assert [num(v) for v in new.regularized.prefix] == [num(v) for v in old.regularized.prefix]
    assert canonical(new.to_json()) == canonical(old.to_json())


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
    new = outcome(phi.eval, t)
    old = outcome(FrozenPhi(phi).eval, t)
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
    assert num(ext(t).exp()) == num(frozen_exp(ext(t)))


def test_a_hand_built_eval_fn_is_read_into_the_value_rule():
    def eval_fn(t: ExtReal) -> ExtReal:
        return ZERO if t < ZERO else ext(2) * t

    phi = RegularizingFunction("hand", eval_fn, lambda p: ext(Fraction(p, 2)),
                               blowup_T=ext(5), descriptor="hand")
    frozen = FrozenPhi(phi, eval_fn)
    for t in POINTS + list(_PROBE_GRID):
        assert num(phi.eval(t)) == num(frozen.eval(t))
    assert phi.eval(5).is_pos_inf and phi.eval(Fraction(49, 10)) == ext(Fraction(49, 5))
    # compare on the hand-built phi and a built-in one
    doc = log_doc(JUMPY)
    seq = SequenceSpec.from_json(doc)
    new = compare_regularizations(seq, phi, make_phi("infinite"))
    old = frozen_compare_regularizations(seq, frozen, FrozenPhi(make_phi("infinite")))
    assert new == old and new.larger == "phi2"
