"""The hull kernel on raw payloads against the ExtReal walk it replaced.

`minorant.regularize` runs the minorant as the ungated event sweep
(`minorant._sweep`): the chain decides its turns on integer ratios, and
slopes, cap tests, line values and breakpoints are computed on raw payloads,
each output wrapped in ExtReal once.  `ref_hull_walk` below is the kernel that
ran before, kept as the one reference for the minorant: a chain on normalized
Fractions and a walk in ExtReal arithmetic, which asks the closed-form tail
for its lowest chord at every vertex by a linear scan (`ref_tail_chord`, the
one reference for `FactorialPower.search` on chords).  Four rules differ from
the walk as it ran:

- overflow: a slope, line value, intercept or breakpoint value that comes out
  +-inf from finite operands is computed again on their exact values;
- decisions on exact values: an edge is below the cap, and a tail chord (at
  its float value) below an edge, when it is so at the entries' binary
  values, and a float slope that rounds up to the cap is then taken exactly;
- a collinear run is one step, as one event of the sweep: each of its edges
  takes the slope of its first edge, and the tail is asked at its first
  point only;
- a zero trace value follows `minorant._trace_value`: a float zero is 0.0,
  never -0.0.

On every input, exact or float, with +inf holes, values at the edge of the
float range, declared caps and closed-form tails, `regularize` and the
reference must give the same values, principal indices, edges, breakpoints,
stable prefix and finite_principal flag and tail end, compared by type and
repr, or raise the same error.  The reference asks the tail at every vertex;
the sweep asks it at its last vertex and, only when the chord wins there, at
each event (the departure rule).  The trace the CLI prints from the raw
events must be the result's trace, byte for byte.
"""

import json
import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Optional

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from seqreg import SequenceSpec
from seqreg.cli import main
from seqreg.errors import InconsistentDeclaration, SeqRegError, WindowTooShort
from seqreg.extreal import NEG_INF, POS_INF, ZERO, ExtReal, ext
from seqreg.minorant import SupportLine, regularize
from seqreg.sequences import (CASE2, STANDARD, RegimeClassification, classify_regime,
                              resolve_window)
from seqreg.piecewise import Breakpoint, Interval, PiecewiseLinearFn
from seqreg.tails import LOG, TAIL_SEARCH_CAP, AffineLog, ExplicitOnly, FactorialPower, Geometric


# -- the replaced kernel ----------------------------------------------------------------


def ref_tail_chord(seq: SequenceSpec, P: int, aP: ExtReal, w: int):
    """Lowest chord from (P, aP) into the closed-form tail beyond the window.

    Returns ("event", slope, q) for an attained minimal chord (the first q of
    the lowest), ("floor", c) when tail chords only approach c from above
    (never attained), or None when the tail admits no closed-form reasoning.
    A factorial tail is scanned one index at a time: its chords fall, then
    rise, so the scan stops at the first rise.  Chords that still fall
    TAIL_SEARCH_CAP indices on fall all the way there, and the scan raises
    as the tail search does.
    """
    tail = seq.tail
    start = max(P + 1, w, len(seq.prefix))
    if isinstance(tail, (AffineLog, Geometric)):
        c = tail.slope_limit()
        diff = c * P - aP
        if diff >= ZERO:
            return ("floor", c)
        s = (tail.value(start, LOG) - aP) / (start - P)
        return ("event", s, start)
    if isinstance(tail, FactorialPower):
        def chord(q: int) -> ExtReal:
            return (tail.value(q, LOG) - aP) / (q - P)

        last = start + TAIL_SEARCH_CAP - 1
        if chord(last + 1) < chord(last):
            raise WindowTooShort(f"the factorial tail was searched {TAIL_SEARCH_CAP} "
                                 f"indices past index {start} without an answer")
        best = (chord(start), start)
        prev, q = best[0], start + 1
        while not (s := chord(q)) > prev:
            if s < best[0]:
                best = (s, q)
            prev, q = s, q + 1
        return ("event", *best)
    return None


def exact_on_overflow(fn, *args: ExtReal) -> ExtReal:
    """fn(*args), or fn on the args' exact values when that overflowed from finite args."""
    value = fn(*args)
    if value.is_finite or not all(a.is_finite for a in args):
        return value
    return fn(*(ExtReal(Fraction(a.raw)) for a in args))


def ref_lower_hull(vals: list[ExtReal]) -> list[int]:
    """Indices of the finite points on the lower hull, collinear points kept.

    Andrew's monotone chain on the raw values: a vertex is dropped only when
    it lies strictly above the chord joining its neighbours, decided by exact
    cross-multiplication, so the hull slopes never decrease.
    """
    hull: list[tuple[int, Fraction]] = []
    for q, v in enumerate(vals):
        if v.is_pos_inf:
            continue
        if v.is_neg_inf:
            # only a declaration or a closed-form tail gets a -inf entry past case 1
            raise InconsistentDeclaration(
                f"a_{q} = -inf collapses the sequence (case 1), "
                "which contradicts the declared or tail regime")
        y = Fraction(v.raw)
        while len(hull) >= 2:
            (i, a_i), (j, a_j) = hull[-2], hull[-1]
            if (a_j - a_i) * (q - j) <= (y - a_j) * (j - i):
                break
            hull.pop()
        hull.append((q, y))
    return [q for q, _ in hull]


def ref_hull_walk(seq: SequenceSpec, vals: list[ExtReal], w: int, cap: ExtReal, extends: bool):
    """Walk the lower hull from the anchor, accepting edges of slope < cap.

    When ``extends`` is set, the closed-form tail is asked at every vertex
    for a strictly smaller chord past the window; taking one ends the walk.
    When no admissible edge is left, the walk stops and closes with the line
    of slope cap through the last principal point.  Returns the regularized
    values, the principal indices, the edges, the trace on (-inf, cap),
    whether the walk stopped at the cap, and the tail index that the last
    edge reaches when it leaves the window (None when it does not).
    """
    hull = ref_lower_hull(vals)
    out = list(vals)
    edge_data: list[tuple[ExtReal, int, ExtReal, int]] = []
    stopped = False
    run: Optional[Fraction] = None  # the exact slope of the hull edge that ends at P
    for i, P in enumerate(hull):
        if P == w - 1:
            break  # the window is covered; the tail is not asked from its last point
        aP = vals[P]
        best: Optional[tuple[ExtReal, int]] = None
        exact = None
        if i + 1 < len(hull):
            q = hull[i + 1]
            # decided on exact values: the edge's slope between the binary values
            exact = (Fraction(vals[q].raw) - Fraction(aP.raw)) / (q - P)
            if exact == run:
                best = (edge_data[-1][0], q)  # a collinear run takes its first edge's slope
            elif ExtReal(exact) < cap:
                slope = exact_on_overflow(lambda y, x: (y - x) / (q - P), vals[q], aP)
                best = (slope if slope < cap else ExtReal(exact), q)  # exact where it rounds up
        # the tail is asked at the first point of a run only
        in_run = exact is not None and exact == run
        tail = ref_tail_chord(seq, P, aP, w) if extends and not in_run else None
        if tail is not None and tail[0] == "event" and tail[1] < cap:
            if best is None or Fraction(tail[1].raw) < exact:
                best = (tail[1], tail[2])
        run = exact if best is not None and best[1] < w else None
        if best is None:
            stopped = True
            slope, q = cap, w
        else:
            slope, q = best
            if edge_data and slope < edge_data[-1][0]:
                # only float rounding gets here: the exact hull slopes never decrease
                slope = edge_data[-1][0]
            edge_data.append((slope, P, aP, q))
        for p in range(P + 1, min(q, w)):
            out[p] = exact_on_overflow(lambda a, s: a + s * (p - P), aP, slope)
        if q >= w:
            break

    # a collinear run of edges is one breakpoint of the trace, and each of its
    # edges touches every principal point of the run
    edges: list[SupportLine] = []
    bps: list[Breakpoint] = []
    for slope, run in groupby(edge_data, key=itemgetter(0)):
        run = list(run)
        touching = tuple(P for _, P, _, _ in run)
        last = run[-1][3]
        if last < w:
            touching += (last,)
        edges += [SupportLine(s, exact_on_overflow(lambda a, s: a - s * P, aP, s), touching)
                  for s, P, aP, _ in run]
        _, first, a_first, _ = run[0]
        value = exact_on_overflow(lambda s, a: s * first - a, slope, a_first)
        if value == ZERO and not value.is_exact:
            value = ExtReal(0.0)  # a float zero trace value is 0.0, as minorant._trace_value gives
        bps.append(Breakpoint(slope, value, value, ext(last)))
    principal = [0] + [q for *_, q in edge_data if q < w]
    tail_end = edge_data[-1][3] if edge_data and edge_data[-1][3] >= w else None
    trace = PiecewiseLinearFn(
        breakpoints=tuple(bps),
        domain=Interval(NEG_INF, cap),
        slope_left=ZERO,
        value_at_minus_inf=ZERO - vals[0],
        constant=None if bps else ZERO - vals[0],
    )
    return out, principal, edges, trace, stopped, tail_end


# -- inputs ---------------------------------------------------------------------------

HUGE = 1.7e308

# steps of a chain: exact rationals; floats on a grid of 1/8, whose sums are
# exact; one-decimal floats and both zeros, whose sums round; and a mix of
# exact and one-decimal steps, whose sums degrade to float
STEPS = {
    "exact": st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4])),
    "dyadic": st.integers(-48, 48).map(lambda k: k / 8),
    "decimal": st.one_of(st.integers(-60, 60).map(lambda k: k / 10), st.sampled_from([0.0, -0.0])),
}
STEPS["mixed"] = st.one_of(STEPS["exact"], STEPS["decimal"])

TAILS = [
    ExplicitOnly(),
    FactorialPower(s=Fraction(1), c=Fraction(1)),
    FactorialPower(s=Fraction(1, 2), c=Fraction(3, 2)),
    FactorialPower(s=Fraction(2), c=Fraction(1, 5)),
    AffineLog(c=Fraction(5, 2)),
    AffineLog(c=Fraction(-1)),
    Geometric(d=Fraction(3)),
    Geometric(d=Fraction(1)),
    Geometric(d=Fraction(1, 4)),
]


@st.composite
def walks(draw, entries: str):
    """A sequence and a window for one walk, and its cap: a convex chain with
    bumps (zero bumps keep whole runs collinear), +inf holes, entries at
    +-1.7e308 and a tail past the prefix.  An explicit window declares the
    standard regime or Case 2 with a drawn cap; a factorial tail is standard,
    and an affine-log or geometric one is Case 2 at its limit slope."""
    steps = STEPS[entries]
    n = draw(st.integers(min_value=1, max_value=30))
    slopes = sorted(draw(st.lists(steps, min_size=n, max_size=n)))
    values = [draw(steps)]
    for s in slopes:
        values.append(values[-1] + s)
    values = [v + draw(st.one_of(st.just(0 * v), steps)) for v in values]
    for q in draw(st.lists(st.integers(0, n), max_size=2)):
        values[q] = draw(st.sampled_from([HUGE, -HUGE]))
    for q in draw(st.lists(st.integers(1, n), max_size=n // 3)):
        values[q] = math.inf
    tail = draw(st.sampled_from(TAILS))
    extra = 0 if isinstance(tail, ExplicitOnly) else draw(st.integers(0, 4))
    w = len(values) + extra
    declared = None
    cap = POS_INF if isinstance(tail, FactorialPower) else tail.slope_limit()
    if isinstance(tail, ExplicitOnly):
        cap = draw(st.sampled_from(
            [POS_INF, ExtReal(draw(steps)), ExtReal(draw(st.sampled_from([HUGE, -HUGE])))]))
        declared = (RegimeClassification(STANDARD, None, (0, w), "declared") if cap.is_pos_inf
                    else RegimeClassification(CASE2, cap, (0, w), "declared"))
    seq = SequenceSpec(kind=LOG, prefix=tuple(ExtReal(v) for v in values), tail=tail,
                       declared_regime=declared)
    return seq, w, cap


def reference(seq: SequenceSpec, window: Optional[int], cap: Optional[ExtReal] = None):
    """ref_hull_walk's output as regularize's fields: the values, principal
    indices, edges, trace, (stable prefix, finite_principal) and tail end.
    Without a cap given, the cap is the Case 2 limit slope that
    classify_regime reads off a parsed document, and +inf otherwise."""
    w = resolve_window(seq, window)
    if cap is None:
        regime = classify_regime(seq, window)
        cap = regime.a_iota if regime.regime == CASE2 else POS_INF
    extends = isinstance(seq.tail, FactorialPower if cap.is_pos_inf else (AffineLog, Geometric))
    out, principal, edges, trace, stopped, tail_end = ref_hull_walk(seq, seq.values(w), w, cap,
                                                                     extends)
    proven = extends and (not stopped if cap.is_pos_inf else stopped)
    stable = w - 1 if proven else principal[-2] if len(principal) >= 2 else principal[-1]
    return (out, principal, edges, trace, (stable, None if cap.is_pos_inf else stopped),
            tail_end)


def fields(r):
    return (list(r.regularized.prefix), r.principal_indices, r.edges, r.trace,
            (r.stable_prefix, r.finite_principal), r.tail_end)


def num(x: ExtReal):
    """(type, repr) of a payload: 1 == 1.0 and 0.0 == -0.0 are no match."""
    return type(x.raw).__name__, repr(x.raw)


def key(walk):
    out, principal, edges, trace, stopped, tail_end = walk
    return ([num(v) for v in out], list(principal),
            [(num(e.slope), num(e.intercept), e.touching) for e in edges],
            [(num(b.x), num(b.left_value), num(b.right_value), num(b.slope_right))
             for b in trace.breakpoints],
            num(trace.domain.lo), num(trace.domain.hi), num(trace.value_at_minus_inf),
            None if trace.constant is None else num(trace.constant), stopped, tail_end)


def departure(prefix: list, w: int):
    """A factorial tail past a convex window whose last edge is steep."""
    seq = SequenceSpec.from_json({"kind": "log", "prefix": prefix,
                                  "tail": {"type": "factorial_power", "s": 1, "c": 1}})
    return seq, w, POS_INF


# the chord loses at vertex 1 and wins at vertex 2, before the window's
# penultimate vertex 3 (window 5); with index 5 in the window it loses at 2
DEPARTURES = [([0, 0.5, 1.2, 3, 1000], 5), ([0, 0.5, 1.2, 3, 1000], 6), ([0, 0.5, 1.2, 1000], 4)]


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (SeqRegError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_walk(seq: SequenceSpec, window: Optional[int], cap: Optional[ExtReal] = None):
    """regularize(seq, window) against the reference; returns regularize's
    result, or the type and message of the error both raised."""
    got, want = outcome(regularize, seq, window), outcome(reference, seq, window, cap)
    if isinstance(want[0], str):
        assert got == want
    else:
        assert key(fields(got)) == key(want)
        assert canonical(got._trace_json()) == canonical(got.trace.to_json())
    return got


# -- the kernel against the reference ---------------------------------------------------


# a collinear run whose float slopes are 0.0 and -0.0 is one step of slope 0.0
SIGNED_ZEROS = (SequenceSpec.from_json({"kind": "log", "prefix": [-0.0, 0.0, -0.0],
                                        "tail": {"type": "explicit_only"}}), 3, POS_INF)


@pytest.mark.parametrize("entries", sorted(STEPS))
@given(data=st.data(), pinned=st.none())
@example(data=None, pinned=departure(*DEPARTURES[0]))
@example(data=None, pinned=departure(*DEPARTURES[1]))
@example(data=None, pinned=departure(*DEPARTURES[2]))
@example(data=None, pinned=SIGNED_ZEROS)
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_reference(entries, data, pinned):
    check_walk(*(pinned or data.draw(walks(entries))))


@pytest.mark.parametrize("doc, principal, tail_end", [
    (DEPARTURES[0], (0, 1, 2), 5), (DEPARTURES[1], (0, 1, 2, 5), None),
    (DEPARTURES[2], (0, 1, 2), 4)])
def test_the_tail_departs_at_the_first_vertex_where_it_wins(doc, principal, tail_end):
    seq, w, _ = departure(*doc)
    r = regularize(seq, w)
    assert (r.principal_indices, r.tail_end) == (principal, tail_end)
    if doc == DEPARTURES[0]:
        # the window's own hull runs on through 3 to 4: the tail leaves before
        # its penultimate vertex
        window = SequenceSpec(kind=LOG, prefix=seq.prefix, tail=ExplicitOnly())
        assert regularize(window, w).principal_indices == (0, 1, 2, 3, 4)


def test_collinear_points_stay_on_the_hull():
    # 1 and 2 lie on the edge from 0 to 3 and stay; 4 lies above the edge from 3 to 5
    vals = [ext(v) for v in (0, -1, -2, -3, 0, -1, 4)]
    seq = SequenceSpec(kind=LOG, prefix=tuple(vals), tail=ExplicitOnly())
    assert list(regularize(seq).principal_indices) == ref_lower_hull(vals) == [0, 1, 2, 3, 5, 6]


def test_neg_inf_entry_is_still_inconsistent():
    declared = RegimeClassification(STANDARD, None, (0, 4), "declared")
    seq = SequenceSpec(kind=LOG, prefix=(ext(0), ext(1), NEG_INF, ext(5)), tail=ExplicitOnly(),
                       declared_regime=declared)
    with pytest.raises(InconsistentDeclaration, match="a_2 = -inf"):
        regularize(seq)


# the sweep mirrors ExtReal where raw float arithmetic would not: -0.0 - 0 is
# -0.0 in floats but 0.0 as ExtReal's -0.0 + (-0); and a slope whose float
# form overflows is taken exactly, as the reference does
@pytest.mark.parametrize("prefix", [
    [0, 1.7e308, -1.7e308, 3, 1.7e308],  # signed zero
    [1.7e308, -1.7e308, 0.0, 5.0],  # a_1 - a_0 overflows
])
def test_float_edge_cases_match_the_loop(tmp_path, prefix):
    doc = {"kind": "log", "prefix": prefix, "tail": {"type": "explicit_only"}}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    seq = SequenceSpec.from_json(doc)
    new = regularize(seq, 4)
    want = reference(seq, 4, POS_INF)
    assert key(fields(new))[:4] == key(want)[:4]
    res = CliRunner().invoke(main, ["minorant", "--window", "4", str(path)])
    assert res.exit_code == 0
    printed = json.loads(res.output)
    out, principal, edges, trace, _, _ = want
    assert printed["regularized"] == [v.to_json() for v in out]
    assert printed["principal_indices"] == principal
    assert printed["slopes"] == [e.slope.to_json() for e in edges]
    assert printed["trace_breakpoints"] == [b.to_json() for b in trace.breakpoints]


def test_tail_values_are_read_once_per_walk(monkeypatch):
    # on a convex window every index is principal; the window's last point
    # asks nothing, and the chord loses at the start of the last run, so by
    # the departure rule the factorial tail is searched for its lowest chord
    # from there only, never at the events before it
    tail = FactorialPower(s=Fraction(1), c=Fraction(1))
    seq = SequenceSpec(kind=LOG, prefix=(0,), tail=tail)
    w = 40
    reads: list[int] = []
    searches: list[int] = []
    real, search = FactorialPower.raw_values, FactorialPower.search
    # value(p, kind) on the log scale reads raw_values(p, p + 1, kind) too
    monkeypatch.setattr(FactorialPower, "raw_values", lambda self, start, stop, kind:
                        reads.extend(range(start, stop)) or real(self, start, stop, kind))
    monkeypatch.setattr(FactorialPower, "search",
                        lambda self, test, start: searches.append(start) or search(self, test, start))
    assert regularize(seq, w).principal_indices == tuple(range(w))
    assert reads and len(reads) == len(set(reads))
    assert 1 <= len(searches) <= 2
