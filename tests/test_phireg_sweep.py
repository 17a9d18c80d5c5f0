"""The monotone-chain phi sweep against the event loop it replaced.

`minorant._sweep` makes one left-to-right pass: a lower-hull stack of the
points admitted from the current principal point on, merged with the
non-decreasing thresholds.  `ref_loop` below is the loop that ran before it,
kept as the reference (`ref_sweep` hands it the sweep's input, the
thresholds read back from integer ratios): at every event it computed the
takeover time of every later point, and it decides on the entries' exact
values, as the sweep does.  On every input the two must give the same principal
points with their entry times, discontinuities, events and cap flag, value
and type alike, on exact entries and on float entries whose arithmetic is
exact.  Where float rounding leaves points only almost collinear, the sweep
decides at the floats' binary values: the record must have the principal
points, discontinuities and cap flag that the loop finds on the entries read
as exact Fractions, and every regularized value and entry time up to rounding.
"""

import math
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from seqreg import (CASE2, ExplicitOnly, ExtReal, RegimeClassification, RegularizingFunction,
                    SeqRegError, SequenceSpec, ext, make_phi, recover_sequence,
                    regularize_with_phi)
from seqreg import minorant, phireg
from seqreg.extreal import NEG_INF, POS_INF, ZERO, raw_json
from seqreg.minorant import _sweep


# -- the replaced loop --------------------------------------------------------------


def ref_loop(pts, cap_raw):
    # sweep state: per principal index (index, entry time); batch members
    # share the entry time and all but the last get degenerate intervals
    principal: list[tuple[int, ExtReal]] = [(0, NEG_INF)]
    disc: list[int] = []
    events: list[tuple[ExtReal, ExtReal, ExtReal, int]] = []  # (time, left_A, right_A, top)
    k = 0  # position of the current principal point P in pts
    stopped_by_cap = False

    while True:
        # one pass: the takeover time e_q of every later point, keeping the
        # earliest and every point tied with it.  Each decision is taken on
        # the entries' exact values (x_q), so a float slope that rounds off
        # a threshold, the cap or another point's time it equals exactly is
        # still tied with it; the time emitted is the smallest raw value that
        # sets the earliest time, the first point's among equal ones
        P, aP, _ = pts[k]
        tau = tau_x = None
        cands: list[int] = []
        blocked = False
        for j in range(k + 1, len(pts)):
            q, v, thr = pts[j]
            e_q, x_q = (v - aP) / (q - P), (Fraction(v) - Fraction(aP)) / (q - P)
            if x_q < thr:
                e_q = x_q = thr
            if cap_raw is not None and not x_q < cap_raw:
                blocked = True
            elif tau is None or x_q < tau_x:
                tau, tau_x = e_q, x_q
                cands = [j]
            elif x_q == tau_x:
                tau = min(tau, e_q)
                cands.append(j)
        if tau is None:
            stopped_by_cap = blocked
            break
        for j in cands:
            assert tau_x >= pts[j][2]  # visibility always precedes takeover
        # a candidate lies below the old line exactly when its threshold, not
        # its slope from P, set its time ("binds"); deciding that on the slope
        # keeps float rounding in the intercepts from posing as a jump
        binding = [j for j in cands
                   if (Fraction(pts[j][1]) - Fraction(aP)) / (pts[j][0] - P) < pts[j][2]]
        # written 0 - c, not -c: the trace value of c = 0.0 is 0.0, never -0.0
        left = right = 0 - (aP - P * tau)
        if binding:
            icpt = [Fraction(pts[j][1]) - pts[j][0] * Fraction(tau_x) for j in binding]
            batch = [j for j, c in zip(binding, icpt) if c == min(icpt)]
            disc.append(pts[batch[0]][0])
            right = 0 - (pts[batch[0]][1] - pts[batch[0]][0] * tau)
        else:
            batch = cands  # every candidate is on the old line: no jump
        top = pts[batch[-1]][0]
        tau_x = ExtReal(tau)
        events.append((tau_x, ExtReal(left), ExtReal(right), top))
        for j in batch:
            principal.append((pts[j][0], tau_x))
        k = batch[-1]

    return principal, disc, events, stopped_by_cap


def ref_sweep(pts, cap_raw):
    """ref_loop on points (q, a_q, threshold(q)), whose thresholds are `Threshold`s."""
    return ref_loop([(q, v, phireg._raw(thr)) for q, v, thr in pts], cap_raw)


def rows(pts):
    """`_sweep`'s input from points (q, a_q, threshold(q)): the points
    (q, n, d, a_q) and the thresholds (n, d, threshold(q)), each pair the
    exact value, and (-1, 0) for -inf."""
    return ([(q, *v.as_integer_ratio(), v) for q, v, _ in pts],
            [(*(thr if type(thr) is tuple else minorant._pair(thr)), thr) for *_, thr in pts])


def points(pts, ths):
    """The points (q, a_q, threshold(q)) of `_sweep`'s input (rows)."""
    return [(q, v, thr) for (q, _, _, v), (_, _, thr) in zip(pts, ths)]


def ref_on_fractions(pts, ths, cap_raw, chord=None):
    """ref_sweep on `_sweep`'s input with the entries and the cap read as exact
    Fractions (phireg has no tail chords)."""
    assert chord is None
    return ref_sweep([(q, Fraction(v), thr) for q, v, thr in points(pts, ths)],
                     None if cap_raw is None else Fraction(cap_raw))


# -- inputs ---------------------------------------------------------------------------


def stepped_phi(width: int) -> RegularizingFunction:
    """phi = width * (floor(t) + 1) for t >= 0 and 0 below: thresholds tie in runs of width."""
    def eval_fn(t: ExtReal) -> ExtReal:
        if t.is_pos_inf:
            return POS_INF
        return ZERO if t < ZERO else ext(width * (math.floor(float(t)) + 1))

    return RegularizingFunction(f"steps:{width}", eval_fn, lambda p: ext((p - 1) // width),
                                descriptor=f"steps:{width}")


# exp and expaffine have real thresholds from p = 1 on, blowup:0 has thresholds
# -1/p below 0, blowup:4 closes the sweep with a cap, infinite has no gate, the
# piecewise phi is flat at 2 on [1, 3], so p = 3 waits for the last segment,
# and only tied thresholds (the stepped phis) let a jump admit several points
PHIS = [make_phi(d) for d in ("exp", "expaffine:1/2,1", "expaffine:3,-2", "blowup:0",
                              "blowup:4", "infinite", "piecewise:[[-1,0],[1,2],[3,2],[4,6]]")]
PHIS += [stepped_phi(2), stepped_phi(5)]


def key(result):
    """The sweep's output with every number as (type, repr): 1 == 1.0 is no match.
    The sweep's events hold raw payloads, the reference's ExtReals."""
    def num(x):
        raw = x.raw if isinstance(x, ExtReal) else x
        return type(raw).__name__, repr(raw)

    principal, disc, events, stopped = result
    return ([(p, num(t)) for p, t in principal], disc,
            [(num(t), num(l), num(r), top) for t, l, r, top in events], stopped)


# entries: exact rationals; floats on a grid of 1/8, whose sums and differences
# are exact and whose distinct slopes never round to one float; one-decimal
# floats, whose sums leave runs that are collinear only up to rounding
ENTRIES = {
    "exact": (st.integers(-12, 12).map(lambda k: Fraction(k, 2)),
              st.fractions(min_value=-8, max_value=8, max_denominator=4)),
    "dyadic": (st.integers(-48, 48).map(lambda k: k / 8),
               st.integers(-64, 64).map(lambda k: k / 8)),
    "decimal": (st.integers(-60, 60).map(lambda k: k / 10),
                st.integers(-80, 80).map(lambda k: k / 10)),
}


@st.composite
def sequences(draw, entries: str):
    """(values, +inf holes, phi, cap) on a convex chain with bumps: zero bumps
    keep whole runs collinear."""
    steps, bumps = ENTRIES[entries]
    n = draw(st.integers(min_value=1, max_value=40))
    slopes = sorted(draw(st.lists(steps, min_size=n, max_size=n)))
    values = [draw(steps)]
    for s in slopes:
        values.append(values[-1] + s)
    values = [v + draw(st.one_of(st.just(0 * v), bumps)) for v in values]
    holes = set(draw(st.lists(st.integers(1, n), max_size=n // 3)))
    phi = draw(st.sampled_from(PHIS))
    cap = phi.blowup_T
    if phi.infinite and draw(st.booleans()):  # a declared Case 2 limit slope
        cap = ExtReal(draw(steps))
    return values, holes, phi, cap


def sweep_points(values, holes, phi):
    return [(q, ExtReal(v).raw, phi._rule(q) if q else None)
            for q, v in enumerate(values) if q not in holes]


@given(sequences("exact"))
@settings(max_examples=400, deadline=None)
def test_sweep_matches_the_loop_on_exact_entries(case):
    values, holes, phi, cap = case
    pts, cap = sweep_points(values, holes, phi), None if cap is None else cap.raw
    assert key(_sweep(*rows(pts), cap)) == key(ref_sweep(pts, cap))


# a float slope that rounds below a blowup threshold it equals exactly: from
# -6.5 at 5 to 13.0 at 10 under blowup:4 (39/10); from -3.0 at 8 to 8.75 at
# 11, where 12's threshold, 47/12, ties with it; and from -0.25 at 0 to -1.25
# at 5 under blowup:0 (-1/5)
@given(sequences("dyadic"))
@example(([0.0, 0.0, 0.0, 0.0, 0.0, -6.5, 0.0, 1.375, 2.75, 9.125, 13.0, 18.375], {8},
          make_phi("blowup:4"), ExtReal(4)))
@example(([0.0] * 8 + [-3.0, 2.5, 5.625, 8.75, 11.875, 15.0, 18.125, 21.25, 24.375, 27.5],
          set(), make_phi("blowup:4"), ExtReal(4)))
@example(([-0.25, -0.25, -0.5, -0.75, -1.0] + [-1.25] * 10, set(), make_phi("blowup:0"),
          ExtReal(0)))
@settings(max_examples=400, deadline=None)
def test_sweep_matches_the_loop_on_float_entries(case):
    values, holes, phi, cap = case
    pts, cap = sweep_points(values, holes, phi), None if cap is None else cap.raw
    assert key(_sweep(*rows(pts), cap)) == key(ref_sweep(pts, cap))


def regularize(values, phi, declared_cap):
    declared = None
    if declared_cap is not None:
        declared = RegimeClassification(CASE2, declared_cap, (0, len(values)), "declared")
    a = SequenceSpec(kind="log", prefix=tuple(ExtReal(v) for v in values),
                     tail=ExplicitOnly(), declared_regime=declared)
    try:
        return regularize_with_phi(a, phi)
    except (SeqRegError, ValueError) as exc:
        return type(exc)


def close(x: ExtReal, y: ExtReal) -> bool:
    return x == y or abs(float(x) - float(y)) <= 1e-9 * max(1.0, abs(float(y)))


def assert_agrees_with_the_exact_loop(values, phi, declared_cap):
    """The record on float entries against the loop on the same entries read as
    Fractions: the same decisions, and values and entry times up to rounding."""
    new = regularize(values, phi, declared_cap)
    with mock.patch.object(minorant, "_sweep", ref_on_fractions):
        old = regularize(values, phi, declared_cap)
    if isinstance(old, type):
        assert new is old
        return new
    assert not isinstance(new, type)
    assert new.principal_indices == old.principal_indices
    assert new.discontinuity_indices == old.discontinuity_indices
    assert new.finite_principal == old.finite_principal
    assert all(close(x, y) for x, y in zip(new.regularized.prefix, old.regularized.prefix))
    # two entry times that differ in the last bits may round to one float
    assert all(close(x.start, y.start) for x, y in zip(new.intervals, old.intervals))
    return new


@given(sequences("decimal"))
@settings(max_examples=400, deadline=None)
def test_sweep_agrees_with_the_loop_up_to_rounding_on_near_ties(case):
    values, holes, phi, cap = case
    values = [float("inf") if q in holes else v for q, v in enumerate(values)]
    assert_agrees_with_the_exact_loop(values, phi, cap if phi.infinite else None)


def test_a_near_tie_on_the_hull_is_principal():
    # one-decimal steps summed in floats: 7 lies on the hull at the floats'
    # binary values, and a sweep that decided on divided float slopes dropped it
    values = [1.8, -7.1, -8.600000000000001, -3.9000000000000012, -10.000000000000002,
              -8.200000000000001, -6.100000000000001, -2.3000000000000016, 1.6999999999999984,
              5.299999999999998, 11.099999999999998, 18.7]
    r = assert_agrees_with_the_exact_loop(values, make_phi("expaffine:1/2,1"), None)
    assert r.principal_indices == (0, 1, 2, 4, 5, 6, 7, 9, 10, 11)


def test_a_float_slope_that_rounds_up_to_the_cap_is_taken_exactly():
    # (7.6 - 2.6) / 5 lies just below 1 at the floats' binary values and rounds
    # to 1.0: under blowup:1, index 5 enters before the cap, at the exact slope
    values = [2.6, math.inf, math.inf, math.inf, math.inf, 7.6]
    r = assert_agrees_with_the_exact_loop(values, make_phi("blowup:1"), None)
    assert r.principal_indices == (0, 5)
    t = r.intervals[1].start
    assert type(t.raw) is Fraction and t < ext(1)


def test_a_float_slope_tied_with_a_threshold_enters_at_the_threshold():
    # under blowup:3 the slope from 0 to 3, 8.5 / 3, is 17/6, the threshold of
    # 6, which lies below that line; the float slope rounds above 17/6, and an
    # event emitted there put 6's entry, and the jump, past its threshold
    values = [-3.5, 1.0, 2.5, 5.0, 7.9, 10.8, 13.4]
    phi = make_phi("blowup:3")
    r = assert_agrees_with_the_exact_loop(values, phi, None)
    assert r.principal_indices == (0, 6) and r.intervals[1].start == ext(Fraction(17, 6))
    assert recover_sequence(r.trace, phi, 6) == r.regularized.prefix[6] == ext(13.4)
    # the loop on the same floats: 5's slope from 2 rounds above 23/6, the
    # threshold of 6, and the loop takes the smaller, as the sweep must
    values = [0.0, 0.0, -7.875, 0.0, 1.375, 3.625, 5.875, 8.125, 10.375]
    phi = make_phi("blowup:4")
    pts, cap = sweep_points(values, set(), phi), phi.blowup_T.raw
    assert key(_sweep(*rows(pts), cap)) == key(ref_sweep(pts, cap))


def test_a_float_slope_cannot_round_past_the_next_threshold():
    # under blowup:10, at the floats' binary values the slope from 3 to 4 lies
    # just below 49/5, the threshold of 5, and rounds to 9.8, above it: 4
    # enters at 49/5, not later, and 5 with it, with the jump
    values = [0.0, 0.0, 0.0, -5.1, 4.7, 9.4]
    phi = make_phi("blowup:10")
    r = assert_agrees_with_the_exact_loop(values, phi, None)
    assert r.principal_indices == (0, 1, 2, 3, 4, 5)
    assert r.intervals[4].start == r.intervals[5].start == ext(Fraction(49, 5))
    assert close(recover_sequence(r.trace, phi, 5), ext(9.4))


def test_jump_admits_the_run_on_the_lowest_line():
    # 1 and 2 enter on the line of slope 1 at t = 1; 3, 4 and 5 become visible
    # at t = 2, all below the line of slope 2 through 2, and 3 and 4 lie on
    # the lowest one: they enter together, with a jump, and 5 enters at t = 3
    thresholds = [None, (0, 1), (0, 1), (2, 1), (2, 1), (2, 1)]
    pts = [(q, Fraction(v), thresholds[q]) for q, v in enumerate([0, 1, 2, 2, 4, 7])]
    got = _sweep(*rows(pts), None)
    assert key(got) == key(ref_sweep(pts, None))
    principal, disc, events, stopped = got
    assert principal == [(0, NEG_INF), (1, ext(1)), (2, ext(1)), (3, ext(2)), (4, ext(2)),
                         (5, ext(3))]
    assert disc == [3]
    assert events[1] == (ext(2), ext(2), ext(4), 4)
    assert not stopped


def test_float_rounding_cannot_take_the_events_back():
    # one-decimal steps summed in floats: 12 to 16 lie on a line of slope 2.8
    # up to rounding; from 15, the divided slope to 16 rounds below the time
    # at which 15 entered, and the loop emitted that earlier time, which the
    # trace rejected with a ValueError
    values = [1.0, -0.5, -2.0, -3.5, -5.0, -6.5, -8.0, -11.2, -9.5, -8.2, -3.3999999999999995,
              -2.5999999999999996, 0.20000000000000018, 3.0, 5.8, 8.6, 11.399999999999999,
              16.099999999999998, 17.0]
    r = regularize(values, make_phi("exp"), None)
    times = [t for t, _ in r.counting.jumps]
    assert times == sorted(times)
    assert r.principal_indices[-1] == 18


# -- integer decisions ------------------------------------------------------------------
#
# `_sweep` decides on integer products for every window; the values it emits
# follow the payloads.  On exact windows, and on windows with one float whose
# sums are exact, it must give the loop's record, value and type alike.

# exp and expaffine with alpha = 1/3 have thresholds with 2^52 denominators and
# beyond; blowup caps the sweep at T, the ungated phi at a declared Case 2 slope
EXACT_PHIS = [make_phi(d) for d in ("exp", "expaffine:1/3,1", "expaffine:1/3,-5/7",
                                    "expaffine:5,1/3", "blowup:0", "blowup:7/3", "blowup:40",
                                    "infinite", "piecewise:[[-3,0],[0,2],[2,2],[5,30]]")]
EXACT_PHIS += [stepped_phi(3)]


@st.composite
def exact_windows(draw):
    """(values, +inf holes, phi, cap) on up to 150 exact points: a convex chain
    with bumps, scaled by a rational that may have large terms."""
    den = draw(st.sampled_from([1, 2, 7, 12]))
    steps = st.integers(-6 * den, 6 * den)
    n = draw(st.integers(min_value=1, max_value=149))
    slopes = sorted(draw(st.lists(steps, min_size=n, max_size=n)))
    values = [draw(steps)]
    for s in slopes:
        values.append(values[-1] + s)
    bumps = draw(st.lists(st.one_of(st.just(0), steps), min_size=n + 1, max_size=n + 1))
    values = [Fraction(v + b, den) for v, b in zip(values, bumps)]
    scale = draw(st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(10**30, 7),
                                  Fraction(1, 2**60)]))
    values = [v * scale for v in values]
    holes = set(draw(st.lists(st.integers(1, n), max_size=n // 4)))
    phi = draw(st.sampled_from(EXACT_PHIS))
    cap = phi.blowup_T
    if phi.infinite and draw(st.booleans()):  # a declared Case 2 limit slope
        cap = ExtReal(Fraction(draw(steps), den) * scale)
    return values, holes, phi, cap


@given(exact_windows())
@settings(max_examples=300, deadline=None)
def test_integer_sweep_matches_the_loop_on_exact_windows(case):
    values, holes, phi, cap = case
    pts, cap = sweep_points(values, holes, phi), None if cap is None else cap.raw
    assert key(_sweep(*rows(pts), cap)) == key(ref_sweep(pts, cap))


@given(sequences("exact"), st.integers(0, 40), st.integers(-64, 64))
@settings(max_examples=200, deadline=None)
def test_one_float_entry_matches_the_loop(case, at, eighths):
    # a float on the 1/8 grid keeps every sum exact, so the loop's record is
    # exact too; a slope or trace value that meets the float is a float in both
    values, holes, phi, cap = case
    values = list(values)
    at = at % len(values)
    values[at] = eighths / 8
    holes.discard(at)
    pts, cap = sweep_points(values, holes, phi), None if cap is None else cap.raw
    assert key(_sweep(*rows(pts), cap)) == key(ref_sweep(pts, cap))


def count_fractions(fn, *args):
    """fn(*args) and the number of Fractions built meanwhile."""
    new = Fraction.__new__.__code__
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is new:
            built += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, built


def test_integer_sweep_builds_three_fractions_per_event_at_most():
    # a rough quadratic with a dip every 8th index, under exp: some events are
    # jumps, and every slope and threshold has a large denominator
    values = [Fraction(p * p, 4) + Fraction((p * 7919) % 13, 3) - (40 if p % 8 == 7 else 0)
              for p in range(200)]
    for phi in (make_phi("exp"), make_phi("expaffine:1/3,1"), make_phi("blowup:50")):
        pts = sweep_points(values, set(), phi)
        cap = None if phi.blowup_T is None else phi.blowup_T.raw
        (principal, disc, events, _), built = count_fractions(_sweep, *rows(pts), cap)
        assert key((principal, disc, events, _)) == key(ref_sweep(pts, cap))
        assert len(events) >= 10 and disc
        # one for the time, one for the trace value and one more at a jump
        assert built <= 2 * len(events) + len(disc)


def test_printed_fill_builds_no_fraction():
    # an exact line crossing 0, and one whose common denominator 4 divides
    # every other numerator
    raws = [Fraction(-7, 3)] + [math.inf] * 9 + [Fraction(1, 2)] + [math.inf] * 4 + [Fraction(3)]
    lines = [(0, Fraction(2, 7), 10), (10, Fraction(1, 2), 15)]
    cells, built = count_fractions(minorant._integer_fill, raws, lines)
    assert built == 0
    record = minorant._Swept(_vals=tuple(raws),
                             _built=minorant.Construction(*[None] * 3, lines, *[None] * 4))
    printed, built = count_fractions(lambda: list(map(raw_json, record._cells)))
    assert built == 0
    want = raws[:1] + [Fraction(-7, 3) + k * Fraction(2, 7) for k in range(1, 10)] + \
        raws[10:11] + [Fraction(1 + k, 2) for k in range(1, 5)] + raws[15:]
    assert record._out == want
    assert printed == [raw_json(v) for v in want]
