"""Convex minorants of log-scale sequences and their traces.

The minorant is the lower boundary of the convex hull of the points
(p, a_p), its slopes capped at a_iota in Case 2.  Under phi = +inf it is
phireg's regularization, and both run the one event sweep held here
(_sweep): the lower hull of the points admitted so far (Andrew's monotone
chain, collinear points kept, so every point on a hull edge is principal),
followed from the anchor (0, a_0) until a slope reaches the cap.  Each value,
threshold and the cap is read once as an integer ratio (a float at its exact
binary value), and every decision is one comparison of integer products.
Between exact values an event's time and trace values are one Fraction each
from those integers; else they follow ExtReal's rules (extreal.raw_slope,
raw_line), exact where a float would overflow from finite operands.

A closed-form tail is the only thing the ungated sweep adds: a strictly lower
chord past the window (_tail_chords) is the sweep's last event.  A tail point
below the extension of a hull edge lies below the extension of every later
edge, so a chord that wins at one vertex wins at every later one, and one
that loses at the last vertex the sweep reaches loses at every earlier one.
So the tail is asked there once, and at each event only when it wins there
(the departure rule, _sweep).  _run gives the lines that fill the window
between principal indices, and past the last one the tail chord's line or,
when the sweep ends before the window does and the cap is finite, the line
of slope cap; _integer_fill fills them in.
+inf points project down onto those lines (and stay +inf past the last
finite point when there is no cap).

Three regimes:

  standard   no cap (+inf): the sweep covers the whole window, and a
             factorial tail may carry the last edge past it.
  case1      some entry is -inf (or liminf a_p/p = -inf): every supporting
             line can be pushed down forever, so the minorant collapses to
             (a_0, -inf, -inf, ...) and the trace degenerates.
  case2      the cap is the limit slope a_iota: the same hull, cut off where
             its slopes reach a_iota, closed by the line of slope exactly
             a_iota through the last principal point.

_ungated, the one builder, maps a regime and its cap to the construction.
regularize() classifies once and calls it, the per-regime entry points check
their regime first, and phireg under phi = +inf (its record, compare's floor)
calls it too.

The trace k -> sup_p (p*k - a_p) has one breakpoint per distinct event time;
its conjugate reproduces the minorant values (exact on rationals).

The window is read once as raw payloads.  MinorantResult and phireg's
PhiRegResult keep it and the Construction as built, the record core (_Swept)
from which each view is derived once, when first asked for.  The one fill
(_integer_fill) keeps an exact line's values as integer pairs, which the CLI
prints after one gcd, compare reads, and regularized makes Fractions of when
asked; ``trace`` prints from the raw breakpoints and never fills the window.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from typing import Callable, Optional, Union

from .errors import (InconsistentDeclaration, InfiniteEntryUnsupported, InfinityAtZero,
                     RegimeMismatch, UnknownAIota)
from .extreal import (ExtReal, NEG_INF, POS_INF, ZERO, RawNumber, _inf_sign, ext, raw_add,
                      raw_div, raw_exp, raw_json, raw_line, raw_mul, raw_slope)
from .piecewise import Breakpoint, EMPTY_INTERVAL, Interval, PiecewiseLinearFn
from .sequences import (CASE1, CASE2, INDETERMINATE, STANDARD, OnFirstRead, RegimeClassification,
                        SequenceSpec, classify_regime, resolve_window, slopes_differ,
                        to_log_scale)
from .tails import LOG, WEIGHT, AffineLog, ExplicitOnly, FactorialPower, Geometric


@dataclass(frozen=True)
class SupportLine:
    """A line t -> slope * t + intercept lying below every window point."""

    slope: ExtReal
    intercept: ExtReal
    touching: tuple[int, ...]

    def value_at(self, p: int) -> ExtReal:
        return self.slope * p + self.intercept

    def to_json(self) -> dict:
        return {
            "slope": self.slope.to_json(),
            "intercept": self.intercept.to_json(),
            "touching": list(self.touching),
        }


@dataclass(frozen=True)
class _Swept:
    """The record core: the log-scale window as read, raw, and the sweep's
    Construction as built.  The filled window, the trace's breakpoints, its
    domain J, the trace and the tail index are derived from it here only."""

    _vals: tuple = field(repr=False, kw_only=True)
    _built: Construction = field(repr=False, kw_only=True)

    @cached_property
    def _cells(self) -> list:
        """regularized as a given one's raw payloads, or the window filled in
        (_integer_fill), which raw_json prints from its integer pairs."""
        given = self.__dict__.get("regularized")
        return _integer_fill(self._vals, self._built.lines) if given is None else list(given._raws)

    @cached_property
    def _out(self) -> list[RawNumber]:
        """regularized as raw payloads: one Fraction from each pair of the cells."""
        return [Fraction(*v) if type(v) is tuple else v for v in self._cells]

    @property
    def tail_end(self) -> Optional[int]:
        """The tail index where the last edge ends, when the sweep took one past the window."""
        return self._built.tail_end

    @cached_property
    def _bps(self) -> list[tuple]:
        """The trace's breakpoints from the sweep's events, as raw (x, left, right,
        top): one per distinct event time, the value left of it from the first
        event at that time, and top from the last, where the counting function
        m = A' steps.  A later event there without a jump keeps the value right
        of it, which it equals in exact arithmetic, so float rounding cannot
        fake a jump."""
        bps: list[tuple] = []
        for tau, left, right, top in self._built.events:
            if bps and bps[-1][0] == tau:
                x, before, after, _ = bps[-1]
                bps[-1] = (x, before, after if right == left else right, top)
            else:
                bps.append((tau, left, right, top))
        return bps

    @cached_property
    def _J(self) -> Interval:
        """J = (-inf, hi), the trace's domain: empty for hi = -inf (Case 1)."""
        hi = self._built.hi
        return EMPTY_INTERVAL if hi.is_neg_inf else Interval(NEG_INF, hi)

    @cached_property
    def trace(self) -> PiecewiseLinearFn:
        """The trace on J from its breakpoints; on an empty J only the
        convention A(-inf) = -a_0 survives."""
        bps = tuple(Breakpoint(ExtReal(x), ExtReal(left), ExtReal(right), ext(top))
                    for x, left, right, top in self._bps)
        at_minus_inf = ZERO - self._vals[0]
        return PiecewiseLinearFn(breakpoints=bps, domain=self._J, slope_left=ZERO,
                                 value_at_minus_inf=at_minus_inf,
                                 constant=None if bps or self._J.is_empty else at_minus_inf)

    def _trace_json(self) -> dict:
        """self.trace.to_json(), printed from the raw breakpoints."""
        at_minus_inf = (ZERO - self._vals[0]).to_json()
        points = [{"x": raw_json(x), "left_value": raw_json(left),
                   "right_value": raw_json(right), "slope_right": top}
                  for x, left, right, top in self._bps]
        payload = {"breakpoints": points, "domain": self._J.to_json(),
                   "slope_left": 0, "value_at_minus_inf": at_minus_inf}
        return payload if points or self._J.is_empty else {**payload, "constant": at_minus_inf}


@dataclass(frozen=True)
class MinorantResult(_Swept):
    # None: the window filled in (_out), built on first read
    regularized: SequenceSpec = OnFirstRead(
        lambda r: SequenceSpec._of_raws(LOG, tuple(r._out), ExplicitOnly(), r.regime))
    principal_indices: tuple[int, ...]
    # one per edge: from each principal index to the next, and past the window to tail_end
    slopes: tuple[ExtReal, ...]
    regime: RegimeClassification
    stable_prefix: int
    provisional_from: int
    window: int
    scale: str
    finite_principal: Optional[bool] = None

    @property
    def edges(self) -> tuple[SupportLine, ...]:
        """The supporting line of each edge, built on each call; each edge of a
        collinear run touches every principal point of the run."""
        starts = self.principal_indices
        ends = starts[1:] + (() if self.tail_end is None else (self.tail_end,))
        lines: list[SupportLine] = []
        for _, run in groupby(zip(self.slopes, starts, ends), key=lambda e: e[0].raw):
            run = list(run)
            touching = tuple(P for _, P, _ in run)
            if run[-1][2] < self.window:
                touching += (run[-1][2],)
            lines += [SupportLine(s, ExtReal(raw_line(self._vals[P], s.raw, P)(0)), touching)
                      for s, P, _ in run]
        return tuple(lines)

    def _printed(self) -> dict:
        """The keys that ``minorant`` prints, besides the trace's breakpoints."""
        return {
            "regularized": list(map(raw_json, self._cells)),
            "scale": self.scale,
            "principal_indices": list(self.principal_indices),
            "slopes": [s.to_json() for s in self.slopes],
            "regime": self.regime.to_json(),
            "stable_prefix": self.stable_prefix,
            "provisional_from": self.provisional_from,
            "window": self.window,
        }

    def to_json(self) -> dict:
        return {
            **self._printed(),
            "edges": [e.to_json() for e in self.edges],
            "trace": self._trace_json(),
            "finite_principal": self.finite_principal,
        }


# -- helpers -----------------------------------------------------------------


def support_line(a: SequenceSpec, k, window: Optional[int] = None) -> SupportLine:
    """Lowest line of slope k below the window points: intercept inf_p (a_p - p k)."""
    seq = to_log_scale(a)
    w = resolve_window(seq, window)
    k = ext(k)
    vals = seq.values(w)
    best: Optional[ExtReal] = None
    for p in range(w):
        v = vals[p]
        if v.is_pos_inf:
            continue
        c = v - k * p
        if best is None or c < best:
            best = c
    if best is None:
        raise InfinityAtZero("no finite point to support")
    touching = tuple(p for p in range(w) if vals[p].is_finite and vals[p] - k * p == best)
    return SupportLine(k, best, touching)


def _tail_chords(seq: SequenceSpec, w: int):
    """The tail chords of one sweep, on raw payloads: chord(P, aP) is the lowest
    chord from (P, aP) into the closed-form tail beyond the window, as
    (slope, q) with q the first tail index of the lowest.

    It is None from the window's last point, which the window covers; when an
    affine-log or geometric tail's chords only approach their limit slope from
    above (never attained); and when the tail admits no closed-form reasoning.
    Each tail value is read once however many vertices ask for it.
    """
    tail = seq.tail
    values: dict[int, RawNumber] = {}

    def value(q: int) -> RawNumber:
        if q not in values:
            values[q] = tail.raw_values(q, q + 1, LOG)[0]
        return values[q]

    def chord(P: int, aP: RawNumber) -> Optional[tuple[RawNumber, int]]:
        if P == w - 1:
            return None
        start = max(P + 1, w, len(seq._raws))
        if isinstance(tail, (AffineLog, Geometric)):
            if raw_add(raw_mul(tail.slope_limit().raw, P), -aP) >= 0:
                return None
            return raw_div(raw_add(value(start), -aP), start - P), start
        if isinstance(tail, FactorialPower):
            # the tail is convex, so the first chord no higher than the next is the lowest
            chords: dict[int, RawNumber] = {}

            def at(q: int) -> RawNumber:
                if q not in chords:
                    chords[q] = raw_div(raw_add(value(q), -aP), q - P)
                return chords[q]

            q = tail.search(lambda q: not at(q + 1) < at(q), start)
            return at(q), q
        return None

    return chord


# -- the sweep ----------------------------------------------------------------------


# threshold(p) as the sweep reads it: (n, d), d > 0, for n/d; None for -inf; or a float
Threshold = Union[tuple[int, int], None, float]


def _raw(thr: Threshold) -> RawNumber:
    return -math.inf if thr is None else Fraction(*thr) if type(thr) is tuple else thr


def _pair(x: Optional[RawNumber]) -> tuple[int, int]:
    """A float threshold, a tail chord or the cap at its exact value as (n, d),
    d > 0; -inf (also a None threshold) and +inf as (-1, 0) and (1, 0), which
    cross-multiplication compares as the infinities against finite pairs."""
    if x is None:
        return -1, 0
    s = _inf_sign(x)
    return (s, 0) if s else x.as_integer_ratio()


def _trace_value(pt: tuple[int, int, int, RawNumber], tau: RawNumber) -> RawNumber:
    """q*tau - a, the trace at tau of the line of slope tau through the point
    pt = (q, n, d, a) of _read: one Fraction from the pairs between exact
    values, else 0 - c for its intercept c from extreal.raw_line (0 - c, not
    -c: the trace of c = 0.0 is 0.0, never -0.0)."""
    q, n, d, a = pt
    if type(a) is type(tau) is Fraction:
        un, ud = tau.as_integer_ratio()
        return Fraction(q * un * d - n * ud, ud * d)
    if type(a) is float is type(tau):  # raw_line's c on two floats, unless it overflows
        c = a - tau * q
        if -math.inf < c < math.inf:
            return 0 - c
    return 0 - raw_line(a, tau, q)(0)


def _lower(tail, bn: int, bd: int, cn: int, cd: int):
    """tail, a chord (slope, q) or None, if strictly below the first edge's time
    bn/bd and the cap cn/cd, else None."""
    if tail is not None:
        xn, xd = _pair(tail[0])
        if xn * bd < bn * xd and xn * cd < cn * xd:
            return tail
    return None


def _sweep(pts: list[tuple[int, int, int, RawNumber]], ths: list[tuple[int, int, Threshold]],
           cap: Optional[RawNumber], chord: Optional[Callable] = None, each: bool = False):
    """The event sweep over the points pts = [(q, n, d, a_q)], a_q = n/d
    (_read), and their thresholds ths = [(n, d, threshold(q))], non-decreasing.

    ``hull[lo:]`` is the lower hull, collinear points kept, of the points
    admitted from the current principal point P = pts[hull[lo]] on.  At an
    event, a first edge of slope tau makes its collinear run the batch;
    a first edge below slope tau is a jump, and the batch is the run of hull
    points on the lowest line of slope tau.  The hull is then cut at the
    batch's last point, the new P.  Ungated (every threshold -inf), all points
    enter at the first event.

    ``chord`` (_tail_chords) is the tail hook of an ungated sweep.  Asked at
    an event, a tail chord strictly below the first edge and the cap is the
    last event, its top the tail index.  Asking at a batch's start is enough:
    a chord from a later point of the run beats the run exactly when the one
    from its first point does.  The departure rule decides where it is
    asked.  The sweep visits the hull vertices V_0 < V_1 < ... < V_s, V_s the
    first whose edge reaches the cap (or the last).  A tail point below the
    extension of edge V_i V_(i+1) lies below the extension of every later
    edge, which passes above it past V_(i+1), and a chord from V_s below the
    edge that ends there is below the cap too.  So a chord that wins at one
    vertex wins at every later one, and one that loses at V_s (or, where the
    window ends at V_s and chord is None, at the last batch's start) loses
    at every vertex.  The sweep asks there only, and when the chord wins
    there it runs again (``each``) asking at each event.

    Returns the principal points with their entry times, the
    discontinuities, the events (time, left_A, right_A, top) as raw payloads
    and whether the cap stopped the sweep.

    Each value and threshold arrives as an integer pair, each chord and the
    cap is read once by _pair, and a time is an unreduced pair (num, den): x < y
    is x_num*y_den < y_num*x_den.  The turn test drops the middle point j of
    i < j < q only when it lies strictly above the chord from i to q.  An
    event emits the raw value of what set its time (a threshold, a chord, or
    the slope from P, exact where the float rounds up to the cap), held at
    the last event's time against float rounding, and its trace values by
    _trace_value: on exact values one Fraction for the time and one per
    trace value.  A float slope that rounds up past a threshold it must not
    pass is held at that threshold.
    """
    gated = ths[-1][2] is not None  # thresholds never fall: one above -inf makes the last so
    cn, cd = (1, 0) if cap is None else _pair(cap)
    principal: list[tuple[int, ExtReal]] = [(0, NEG_INF)]
    disc: list[int] = []
    events: list[tuple[RawNumber, RawNumber, RawNumber, int]] = []
    hull = [0]  # positions in pts
    lo, npts = 0, len(pts)
    m = 1  # the next point to admit
    last: RawNumber = -math.inf  # the last event's time as emitted
    run = None  # (P, a_P, bn, bd) at the start of the last run, for the departure rule

    while True:
        P, nP, dP, aP = pts[hull[lo]]

        def slope(j: int) -> tuple[int, int]:
            q, n, d, _ = pts[j]
            return n * dP - nP * d, d * dP * (q - P)

        # (bn, bd) is the earliest takeover time, +inf while no point is
        # admitted, and src what set it: the slope from P to position src >= 0,
        # or the threshold of position ~src.  The points kept past P lie above
        # the last event's line, so the first edge sets it at first.
        bn, bd, src = 1, 0, 0
        if len(hull) > lo + 1:
            src = hull[lo + 1]
            bn, bd = slope(src)
        while m < npts:
            q, ny, dy, _ = pts[m]
            if gated:
                tn, td, _ = ths[m]
                if tn * bd > bn * td:
                    break
            k = len(hull) - 1  # the chain's last point j, and i before it
            j, nj, dj, _ = pts[hull[k]]
            while k > lo:
                i, ni, di, _ = pts[hull[k - 1]]
                if (nj * di - ni * dj) * dy * (q - j) <= (ny * dj - nj * dy) * di * (j - i):
                    break
                hull.pop()
                k -= 1
                j, nj, dj = i, ni, di
            hull.append(m)
            if gated:
                j = hull[lo + 1]
                en, ed = slope(j)
                if en * td < tn * ed:
                    en, ed, j = tn, td, ~m
                if en * bd < bn * ed:
                    bn, bd, src = en, ed, j
            elif m + 1 == npts:
                # the chain is complete; its first edge's slope only fell as it grew
                src = hull[lo + 1]
                bn, bd = slope(src)
            m += 1
        tail = _lower(chord(P, aP), bn, bd, cn, cd) if each else None
        if tail is not None:
            tau = tail[0]
        else:
            if bd == 0 or bn * cd >= cn * bd:
                if chord is not None and not each:  # the departure rule
                    at, tail = (P, aP, bn, bd), chord(P, aP)
                    if tail is None and run is not None:
                        at, tail = run, chord(*run[:2])
                    if _lower(tail, *at[2:], cn, cd):
                        return _sweep(pts, ths, cap, chord, True)
                return principal, disc, events, bd != 0
            # a slope between exact points is the pair just compared
            tau = (_raw(ths[~src][2]) if src < 0
                   else Fraction(bn, bd) if type(aP) is type(pts[src][3]) is Fraction
                   else raw_slope(aP, pts[src][3], pts[src][0] - P))
            if type(tau) is float and cap is not None and not tau < cap:
                tau = Fraction(bn, bd)  # a float slope that rounds up to the cap is taken exactly
            # a float slope rounded up past a threshold would put that point's
            # entry, and a jump there, late: it is held at the threshold of the
            # last point admitted where that is the exact time and the point lies
            # below the line, and at the next point's, which exceeds the exact time
            tn, td, thr = ths[m - 1]
            if type(tau) is float and tn * bd == bn * td:
                sn, sd = slope(m - 1)
                if sn * bd < bn * sd:
                    tau = min(tau, _raw(thr))
            if type(tau) is Fraction:
                bn, bd = tau.numerator, tau.denominator  # the same time, reduced
            elif m < npts:
                tau = min(tau, _raw(ths[m][2]))
        if not (type(tau) is type(last) is Fraction) and tau <= last:
            tau = last  # float rounding cannot take the events back in time, nor print one twice
        last = tau

        # the trace value P*tau - a_P, and at a jump that of the lowest line
        left = right = _trace_value(pts[hull[lo]], tau)
        if tail is not None:
            events.append((tau, left, right, tail[1]))
            return principal, disc, events, False
        first = i = lo + 1
        sn, sd = slope(hull[i])
        if sn * bd < bn * sd:
            def icpt(j: int) -> tuple[int, int]:
                # a_j - j*tau = num / (den * bd)
                q, n, d, _ = pts[j]
                return n * bd - q * bn * d, d

            c_n, c_d = icpt(hull[i])
            while i + 1 < len(hull):
                x_n, x_d = icpt(hull[i + 1])
                if x_n * c_d >= c_n * x_d:
                    break
                i += 1
                c_n, c_d = x_n, x_d
            first = i
            while i + 1 < len(hull):
                x_n, x_d = icpt(hull[i + 1])
                if x_n * c_d != c_n * x_d:
                    break
                i += 1
            disc.append(pts[hull[first]][0])
            right = _trace_value(pts[hull[first]], tau)
        else:
            while i + 1 < len(hull):
                sn, sd = slope(hull[i + 1])
                if sn * bd != bn * sd:
                    break
                i += 1
        tau_x = ExtReal(tau)
        events.append((tau, left, right, pts[hull[i]][0]))
        for j in hull[first:i + 1]:
            principal.append((pts[j][0], tau_x))
        run = P, aP, bn, bd
        lo = i


def _read(raws: list[RawNumber]) -> tuple[list[RawNumber], list[tuple], Optional[int]]:
    """The window read once: its raw payloads, the sweep's points (q, n, d, a_q),
    a_q = n/d, without the +inf entries, which never take over, and the index
    of the first -inf entry, where the points end (refused, or Case 1)."""
    pts = []
    for q, a in enumerate(raws):
        if type(a) is not Fraction and not -math.inf < a < math.inf:
            if a > 0:
                continue
            return raws, pts, q
        n, d = a.as_integer_ratio()
        pts.append((q, n, d, a))
    return raws, pts, None


# One window's construction (_run): the sweep's raw output, the lines (P, slope,
# end) that fill the window, the tail index where the last line ends when the
# sweep left the window by a tail chord, J's right end hi (-inf: J is empty),
# whether the cap's line closes the window, and the last index that no
# extension of the sequence can change.
Construction = namedtuple("Construction", "principal disc events lines tail_end hi closed stable")


def _run(read: tuple, cap: Optional[ExtReal], regime: Optional[RegimeClassification],
         ths: Optional[list[tuple[int, int, Threshold]]] = None,
         chord: Optional[Callable] = None) -> Construction:
    """The sweep over the window read once (_read) and what it makes of it.

    A -inf entry is refused: it contradicts the regime of the ungated sweep
    (regime given), and a gated sweep (regime None) cannot take it.  ths are
    a gated sweep's thresholds, one per point; chord is the tail hook.  Each
    principal point's line, of its successor's entry time, runs up to that
    successor; past the last one runs the tail chord's line or, when the
    sweep stops before the window does and the cap is finite, the line of
    slope cap, which the trace's conjugate recovers.  The whole window is
    stable once a factorial tail has vetted the sweep to its end, or when the
    chords of a Case 2 tail never dip below the cap it stopped at; otherwise
    up to the penultimate principal index.
    """
    raws, pts, neg = read
    if neg is not None:
        if regime is None:
            raise InfiniteEntryUnsupported(
                f"a_{neg} = -inf: only the ungated phi handles collapsing sequences")
        raise InconsistentDeclaration(
            f"a_{neg} = -inf collapses the sequence (case 1), "
            f"but the {regime.source} regime is {regime.regime}")
    principal, disc, events, _ = _sweep(pts, ths or [(-1, 0, None)] * len(pts),
                                        None if cap is None else cap.raw, chord)
    lines = [(P, t.raw, end) for (P, _), (end, t) in zip(principal, principal[1:])]
    P, w = principal[-1][0], len(raws)
    tail_end = events[-1][3] if events and events[-1][3] >= w else None
    stopped = tail_end is None and P < w - 1
    if tail_end is not None:
        lines.append((P, events[-1][0], w))
    elif cap is not None and stopped:
        lines.append((P, cap.raw, w))
    proven = chord is not None and stopped == (cap is not None)
    stable = w - 1 if proven else principal[-2 if len(principal) >= 2 else -1][0]
    return Construction(principal, disc, events, lines, tail_end,
                        POS_INF if cap is None else cap, cap is not None and stopped, stable)


def _ungated(seq: SequenceSpec, read: tuple, regime: RegimeClassification,
             cap: Optional[ExtReal] = None) -> Construction:
    """The ungated construction in the regime, on the window read once: the
    one place that maps a regime to its construction.  Case 1 collapses;
    otherwise the sweep runs with the cap (Case 2's a_iota unless cap is
    given, none in the standard regime) and the chords into a closed-form
    tail: a factorial one in the standard regime, an affine-log or geometric
    one in Case 2."""
    w = len(read[0])
    if regime.regime == CASE1:
        # every supporting line sinks forever: (a_0, -inf, -inf, ...), J is empty
        return Construction([(0, NEG_INF)], [], [], [(0, -math.inf, w)], None, NEG_INF, True,
                            w - 1)
    if regime.regime != CASE2:
        cap = None
    elif cap is None:
        cap = regime.a_iota
    extends = isinstance(seq.tail, FactorialPower if cap is None else (AffineLog, Geometric))
    return _run(read, cap, regime, chord=_tail_chords(seq, w) if extends else None)


def _integer_fill(raws: list[RawNumber], lines: list[tuple[int, RawNumber, int]]) -> list:
    """The window raws with each line (P, slope, end) filled in: out[p] = out[P] +
    slope * (p - P) for P < p < end.  An exact line's values are unreduced pairs
    (n, d), d > 0: numerators base + step * (p - P) over one denominator, with no
    Fraction per value; another line's are raw payloads (extreal.raw_line)."""
    out = list(raws)
    for P, slope, end in lines:
        a = out[P]
        if type(a) is type(slope) is Fraction:
            (n, d), (sn, sd) = a.as_integer_ratio(), slope.as_integer_ratio()
            base, step, den = n * sd, sn * d, d * sd
            out[P + 1:end] = [(base + step * k, den) for k in range(1, end - P)]
        else:
            at = raw_line(a, slope, P)
            out[P + 1:end] = [at(p) for p in range(P + 1, end)]
    return out


def _window_values(seq: SequenceSpec, window: Optional[int]) -> tuple[int, list[RawNumber]]:
    w = resolve_window(seq, window)
    vals = seq.raw_values(w)
    if not vals:
        raise InfinityAtZero("empty window")
    if _inf_sign(vals[0]):
        raise InfinityAtZero(f"a_0 must be finite, got {ExtReal(vals[0])}")
    return w, vals


# -- the regime constructions ---------------------------------------------------------


def _minorant(seq: SequenceSpec, window: Optional[int], regime: RegimeClassification,
              cap: Optional[ExtReal] = None) -> MinorantResult:
    """The minorant in the regime (_ungated), as a result."""
    w, vals = _window_values(seq, window)
    built = _ungated(seq, _read(vals), regime, cap)
    slopes = [t for _, t in built.principal[1:]]
    if built.tail_end is not None:
        slopes.append(ExtReal(built.events[-1][0]))
    return MinorantResult(
        None, tuple(p for p, _ in built.principal), tuple(slopes), regime, built.stable,
        built.stable + 1, w, LOG, None if built.hi.is_pos_inf else built.closed,
        _vals=tuple(vals), _built=built)


def regularize(a: SequenceSpec, window: Optional[int] = None,
               tol: float = 1e-9) -> MinorantResult:
    """The (log-)convex minorant in whichever regime the sequence is in.

    Log-scale input gets the convex minorant.  Weight-scale input gets the
    log-convex minorant: the log-scale result exponentiated, with the original
    entries copied at principal indices (where equality is exact).
    """
    seq = to_log_scale(a)
    base = _minorant(seq, window, classify_regime(seq, window, tol))
    if a.kind == LOG:
        return base
    weights = list(map(raw_exp, base._out))
    for p in base.principal_indices:
        weights[p] = a.value(p).raw
    regularized = SequenceSpec._of_raws(WEIGHT, tuple(weights), ExplicitOnly(), base.regime)
    return replace(base, regularized=regularized, scale=WEIGHT)


def convex_minorant(a: SequenceSpec, window: Optional[int] = None,
                    tol: float = 1e-9) -> MinorantResult:
    """Greatest convex minorant of a log-scale sequence (standard regime)."""
    seq = to_log_scale(a)
    regime = classify_regime(seq, window, tol)
    if regime.regime in (CASE1, CASE2):
        raise RegimeMismatch(
            f"{regime.describe()}: convex minorant needs the standard regime "
            f"(use the dedicated case operations)", regime.regime)
    return _minorant(seq, window, regime)


def case1_regularize(a: SequenceSpec, window: Optional[int] = None,
                     tol: float = 1e-9) -> MinorantResult:
    """Degenerate minorant (a_0, -inf, -inf, ...) for the collapsing regime."""
    seq = to_log_scale(a)
    regime = classify_regime(seq, window, tol)
    if regime.regime != CASE1:
        raise RegimeMismatch(
            f"{regime.describe()}: this operation is only for Case 1", regime.regime)
    return _minorant(seq, window, regime)


def case2_regularize(a: SequenceSpec, window: Optional[int] = None,
                     a_iota=None, tol: float = 1e-9) -> MinorantResult:
    """Slope-capped minorant for sequences with finite limit slope a_iota.

    Hull edges of slope < a_iota are accepted exactly as in the standard
    sweep; once none is left, or the window ends in +inf entries, the
    construction closes with the segment of slope a_iota through the last
    principal point (the lowest admissible supporting line in the limit).
    """
    seq = to_log_scale(a)
    regime = classify_regime(seq, window, tol)
    if regime.regime in (STANDARD, CASE1):
        raise RegimeMismatch(
            f"{regime.describe()}: slope-capped minorant needs Case 2", regime.regime)
    cap = ext(a_iota) if a_iota is not None else regime.a_iota
    if cap is None:
        raise UnknownAIota(
            "Case 2 needs the limit slope a_iota: declare it or use a closed-form tail")
    if regime.a_iota is not None and a_iota is not None:
        if slopes_differ(cap, regime.a_iota, tol):
            raise UnknownAIota(
                f"a_iota = {cap} contradicts the classified limit slope {regime.a_iota}")
    if regime.regime == INDETERMINATE:
        regime = RegimeClassification(CASE2, cap, regime.evidence_window, "declared")
    return _minorant(seq, window, regime, cap)


# -- trace API ----------------------------------------------------------------------


def real_trace(result: MinorantResult) -> PiecewiseLinearFn:
    """The trace of a minorant result, refused in Case 1, where it is +inf on R."""
    return _real(result).trace


def _real(result: MinorantResult) -> MinorantResult:
    if result.regime.regime == CASE1:
        raise RegimeMismatch(
            f"{result.regime.describe()}: the trace is +inf at every real slope; "
            "only the value at -inf survives", CASE1)
    return result


def trace_function(a: SequenceSpec, window: Optional[int] = None,
                   tol: float = 1e-9) -> PiecewiseLinearFn:
    """The map k -> sup_p (p*k - a_p) as a piecewise-linear function.

    Standard regime: defined on all of R.  Case 2: defined on (-inf, a_iota).
    Case 1 degenerates (the sup is +inf at every real k) and raises; the
    conventional extension lives on the degenerate record of
    :func:`case1_regularize`.
    """
    return real_trace(regularize(to_log_scale(a), window, tol))


def reconstruct_from_trace(trace: PiecewiseLinearFn, p: int) -> ExtReal:
    """Conjugate of the trace at integer p: sup_k (p*k - A(k)).

    Exact over the breakpoints; open right ends contribute their limit value
    (a supremum attained only in the limit), and the conventional point at
    -inf contributes a_0 for p = 0.
    """
    if p < 0:
        raise ValueError("index must be >= 0")
    return trace.conjugate_at(p).value


def log_convex_minorant(M: SequenceSpec, window: Optional[int] = None,
                        tol: float = 1e-9) -> MinorantResult:
    """Largest log-convex minorant on the weight scale, any regime (see regularize)."""
    if M.kind != WEIGHT:
        raise ValueError("log-convex minorant expects a weight-scale sequence")
    return regularize(M, window, tol)


@dataclass(frozen=True)
class Case2LimitReport:
    root_at_window_end: ExtReal
    m_iota: ExtReal
    gap: float
    within_tol: bool
    witness_index: Optional[int]
    witness_ratio: Optional[ExtReal]

    def to_json(self) -> dict:
        return {
            "root_at_window_end": self.root_at_window_end.to_json(),
            "m_iota": self.m_iota.to_json(),
            "gap": self.gap,
            "within_tol": self.within_tol,
            "witness_index": self.witness_index,
            "witness_ratio": None if self.witness_ratio is None else self.witness_ratio.to_json(),
        }


def case2_limit_check(M: SequenceSpec, window: Optional[int] = None,
                      tol: float = 1e-2) -> Case2LimitReport:
    """Check the trend (M^lc_p)^(1/p) -> M_iota at the window end.

    Also looks for a non-equivalence witness: when M grows much faster than
    its minorant somewhere in the window (the limsup indicator is +inf), the
    index with the largest ratio M_p / M^lc_p is reported.
    """
    result = log_convex_minorant(M, window)
    if result.regime.regime != CASE2:
        raise RegimeMismatch(
            f"{result.regime.describe()}: the limit check is a Case 2 statement",
            result.regime.regime)
    w = result.window
    m_iota = result.regime.a_iota.exp()
    root = result.regularized.prefix[w - 1].root(w - 1)
    gap = abs(float(root) - float(m_iota))
    witness_index = None
    witness_ratio = None
    originals = M.values(w)
    best = None
    for p in range(1, w):
        lc = result.regularized.prefix[p]
        if lc == ZERO or not originals[p].is_finite:
            continue
        ratio = originals[p] / lc
        if best is None or ratio > best:
            best = ratio
            if ratio > ext(10) ** 3:
                witness_index, witness_ratio = p, ratio
    return Case2LimitReport(
        root_at_window_end=root,
        m_iota=m_iota,
        gap=gap,
        within_tol=gap <= tol,
        witness_index=witness_index,
        witness_ratio=witness_ratio,
    )
