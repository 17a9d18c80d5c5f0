"""The hull kernel on raw payloads against the ExtReal walk it replaced.

`minorant._lower_hull` decides its turns on integer ratios, and
`minorant._hull_walk` computes slopes, cap tests, line values and breakpoints
on raw payloads, wrapping each output in ExtReal once.  The functions below
are the kernel that ran before, kept as the reference: a chain on normalized
Fractions and a walk in ExtReal arithmetic.  The one change to the walk is the
overflow rule: a slope, line value, intercept or breakpoint value that comes
out +-inf from finite operands is computed again on their exact values.  On
every input, exact or float, with +inf holes, values at the edge of the float
range, declared caps and closed-form tails, the two must give the same values,
principal indices, edges, breakpoints, stop flag and tail end, compared by
type and repr, or raise the same error.
"""

import json
import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Optional
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from seqreg import SequenceSpec
from seqreg import minorant
from seqreg.cli import main
from seqreg.errors import InconsistentDeclaration, SeqRegError
from seqreg.extreal import NEG_INF, POS_INF, ZERO, ExtReal, ext
from seqreg.minorant import SupportLine, _hull_walk, _lower_hull, regularize
from seqreg.piecewise import Breakpoint, Interval, PiecewiseLinearFn
from seqreg.tails import LOG, AffineLog, ExplicitOnly, FactorialPower, Geometric


# -- the replaced kernel, verbatim -----------------------------------------------------


def ref_tail_chord(seq: SequenceSpec, P: int, aP: ExtReal, w: int):
    """Best chord from (P, aP) into the closed-form tail beyond the window.

    Returns ("event", slope, q) for an attained minimal chord (the first q of
    the lowest), ("floor", c) when tail chords only approach c from above
    (never attained), or None when the tail admits no closed-form reasoning.
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
        # the tail is convex, so the first chord no higher than the next is the lowest
        chords: dict[int, ExtReal] = {}
        def chord(q: int) -> ExtReal:
            if q not in chords:
                chords[q] = (tail.value(q, LOG) - aP) / (q - P)
            return chords[q]
        q = tail.search(lambda q: not chord(q + 1) < chord(q), start)
        return ("event", chord(q), q)
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
    for i, P in enumerate(hull):
        if P == w - 1:
            break  # the window is covered; the tail is not asked from its last point
        aP = vals[P]
        best: Optional[tuple[ExtReal, int]] = None
        if i + 1 < len(hull):
            q = hull[i + 1]
            slope = exact_on_overflow(lambda y, x: (y - x) / (q - P), vals[q], aP)
            if slope < cap:
                best = (slope, q)
        tail = ref_tail_chord(seq, P, aP, w) if extends else None
        if tail is not None and tail[0] == "event" and tail[1] < cap:
            if best is None or tail[1] < best[0]:
                best = (tail[1], tail[2])
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
    """Arguments of one walk: a convex chain with bumps (zero bumps keep whole
    runs collinear), +inf holes, entries at +-1.7e308, a tail past the prefix,
    a cap (none, the tail's limit slope or a declared one) and the extends flag."""
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
    seq = SequenceSpec(kind=LOG, prefix=tuple(ExtReal(v) for v in values), tail=tail)
    w = len(values) + extra
    caps = [POS_INF, ExtReal(draw(steps)), ExtReal(draw(st.sampled_from([HUGE, -HUGE])))]
    limit = tail.slope_limit()
    if limit is not None and limit.is_finite:
        caps.append(limit)
    return seq, seq.values(w), w, draw(st.sampled_from(caps)), draw(st.booleans())


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


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (SeqRegError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


# -- the kernel against the reference ---------------------------------------------------


@pytest.mark.parametrize("entries", sorted(STEPS))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_the_reference(entries, data):
    args = data.draw(walks(entries))
    hull = outcome(_lower_hull, args[1])
    if isinstance(hull, list):
        hull = [q for q, _, _ in hull]
    assert hull == outcome(ref_lower_hull, args[1])
    got, want = outcome(_hull_walk, *args), outcome(ref_hull_walk, *args)
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
    else:
        assert key(got) == key(want)


def test_collinear_points_stay_on_the_hull():
    # 1 and 2 lie on the edge from 0 to 3 and stay; 4 lies above the edge from 3 to 5
    vals = [ext(v) for v in (0, -1, -2, -3, 0, -1, 4)]
    assert [q for q, _, _ in _lower_hull(vals)] == ref_lower_hull(vals) == [0, 1, 2, 3, 5, 6]


def test_neg_inf_entry_is_still_inconsistent():
    vals = [ext(0), ext(1), NEG_INF, ext(5)]
    with pytest.raises(InconsistentDeclaration, match="a_2 = -inf"):
        _lower_hull(vals)


# the walk mirrors ExtReal where raw float arithmetic would not: -0.0 - 0 is
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
    runner = CliRunner()
    new = regularize(seq)
    new_cli = runner.invoke(main, ["minorant", "--window", "4", str(path)])
    with mock.patch.object(minorant, "_hull_walk", ref_hull_walk):
        old = regularize(seq)
        old_cli = runner.invoke(main, ["minorant", "--window", "4", str(path)])
    walk = lambda r: (list(r.regularized.prefix), r.principal_indices, r.edges, r.trace, None, r.tail_end)
    assert key(walk(new)) == key(walk(old))
    assert new_cli.exit_code == old_cli.exit_code == 0
    assert new_cli.output == old_cli.output


def test_tail_values_are_read_once_per_walk(monkeypatch):
    # on a convex prefix every index is principal, and every vertex asks the
    # factorial tail for its lowest chord from the window end on
    tail = FactorialPower(s=Fraction(1), c=Fraction(1))
    seq = SequenceSpec(kind=LOG, prefix=(0,), tail=tail)
    w = 40
    vals = seq.values(w)
    reads: list[int] = []
    real = FactorialPower.value
    monkeypatch.setattr(FactorialPower, "value",
                        lambda self, p, kind: reads.append(p) or real(self, p, kind))
    _, principal, *_ = _hull_walk(seq, vals, w, POS_INF, True)
    assert principal == list(range(w))
    assert reads and len(reads) == len(set(reads))
