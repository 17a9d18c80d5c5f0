"""Convex minorants of log-scale sequences and their traces.

The minorant is the lower boundary of the convex hull of the points
(p, a_p).  The lower hull of the finite window points is computed once
(Andrew's monotone chain) and keeps collinear points, so every point on a
hull edge is principal.  Each value enters the chain once as an integer
ratio n/d (a float at its exact binary value), and every turn is decided by
one comparison of integer products, with no Fraction built.  One walk then
follows the hull from the anchor (0, a_0), accepting edges of slope below a
cap; at each vertex a closed-form tail may offer a strictly smaller chord
past the window, which ends the walk.  Values between principal indices are
the line values; points at +inf project down onto the hull.

The walk computes on raw payloads (Fraction or float) by ExtReal's rules
(extreal.raw_add, raw_slope, raw_line and siblings), and each output becomes
an ExtReal once: between exact values each slope, line value, intercept and
breakpoint value is one Fraction built from integers, and a float one that
overflows from finite operands is computed exactly instead.  A walk reads each tail
value once.  Everything is exact when the inputs are rational.

Three regimes:

  standard   no cap (+inf): the walk covers the whole window, and a
             factorial tail may carry the last edge past it.
  case1      some entry is -inf (or liminf a_p/p = -inf): every supporting
             line can be pushed down forever, so the minorant collapses to
             (a_0, -inf, -inf, ...) and the trace degenerates.
  case2      the cap is the limit slope a_iota: the same hull, cut off where
             its slopes reach a_iota, closed by the line of slope exactly
             a_iota through the last principal point.

regularize() is the one place that maps a regime to its construction: it
classifies once and calls that regime's builder.  The per-regime entry points
check their regime first and then call the same builders.

The trace k -> sup_p (p*k - a_p) is assembled from the accepted edges; its
conjugate reproduces the minorant values (round trip exact on rationals).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .errors import InconsistentDeclaration, InfinityAtZero, RegimeMismatch, UnknownAIota
from .extreal import (ExtReal, NEG_INF, POS_INF, ZERO, RawNumber, ext, raw_add, raw_div,
                      raw_line, raw_mul, raw_slope)
from .piecewise import (
    Breakpoint,
    EMPTY_INTERVAL,
    Interval,
    PiecewiseLinearFn,
)
from .sequences import (
    CASE1,
    CASE2,
    INDETERMINATE,
    STANDARD,
    RegimeClassification,
    SequenceSpec,
    classify_regime,
    resolve_window,
    to_log_scale,
)
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
class MinorantResult:
    regularized: SequenceSpec
    principal_indices: tuple[int, ...]
    edges: tuple[SupportLine, ...]
    trace: PiecewiseLinearFn
    regime: RegimeClassification
    stable_prefix: int
    provisional_from: int
    window: int
    scale: str
    finite_principal: Optional[bool] = None
    # the tail index where the last edge ends, when the walk took one past the window
    tail_end: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "regularized": [v.to_json() for v in self.regularized.prefix],
            "scale": self.scale,
            "principal_indices": list(self.principal_indices),
            "slopes": [e.slope.to_json() for e in self.edges],
            "edges": [e.to_json() for e in self.edges],
            "trace": self.trace.to_json(),
            "regime": self.regime.to_json(),
            "stable_prefix": self.stable_prefix,
            "provisional_from": self.provisional_from,
            "window": self.window,
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
    """The tail chords of one walk, on raw payloads: chord(P, aP) is the best
    chord from (P, aP) into the closed-form tail beyond the window.

    It returns ("event", slope, q) for an attained minimal chord (the first q
    of the lowest), ("floor", c) when tail chords only approach c from above
    (never attained), or None when the tail admits no closed-form reasoning.
    Each tail value is read once however many vertices ask for it.
    """
    tail = seq.tail
    values: dict[int, RawNumber] = {}

    def value(q: int) -> RawNumber:
        if q not in values:
            values[q] = tail.value(q, LOG).raw
        return values[q]

    def chord(P: int, aP: RawNumber):
        start = max(P + 1, w, len(seq.prefix))
        if isinstance(tail, (AffineLog, Geometric)):
            c = tail.slope_limit().raw
            if raw_add(raw_mul(c, P), -aP) >= 0:
                return ("floor", c)
            return ("event", raw_div(raw_add(value(start), -aP), start - P), start)
        if isinstance(tail, FactorialPower):
            # the tail is convex, so the first chord no higher than the next is the lowest
            chords: dict[int, RawNumber] = {}

            def at(q: int) -> RawNumber:
                if q not in chords:
                    chords[q] = raw_div(raw_add(value(q), -aP), q - P)
                return chords[q]

            q = tail.search(lambda q: not at(q + 1) < at(q), start)
            return ("event", at(q), q)
        return None

    return chord


def _lower_hull(vals: list[ExtReal]) -> list[tuple[int, int, int]]:
    """The finite points on the lower hull, collinear points kept, as
    (index, n, d) with value n/d.

    Andrew's monotone chain on integers: each value is read once as
    raw.as_integer_ratio() (a float at its exact binary value), and the middle
    point j of i < j < q is dropped only when it lies strictly above the
    chord from i to q, that is when

        (nj*di - ni*dj) * dy * (q-j) > (ny*dj - nj*dy) * di * (j-i),

    so the hull slopes never decrease and no turn test builds a Fraction.
    """
    hull: list[tuple[int, int, int]] = []
    for q, v in enumerate(vals):
        if v.is_pos_inf:
            continue
        if v.is_neg_inf:
            # only a declaration or a closed-form tail gets a -inf entry past case 1
            raise InconsistentDeclaration(
                f"a_{q} = -inf collapses the sequence (case 1), "
                "which contradicts the declared or tail regime")
        ny, dy = v.raw.as_integer_ratio()
        while len(hull) >= 2:
            (i, ni, di), (j, nj, dj) = hull[-2], hull[-1]
            if (nj * di - ni * dj) * dy * (q - j) <= (ny * dj - nj * dy) * di * (j - i):
                break
            hull.pop()
        hull.append((q, ny, dy))
    return hull


def _hull_walk(seq: SequenceSpec, vals: list[ExtReal], w: int, cap: ExtReal, extends: bool):
    """Walk the lower hull from the anchor, accepting edges of slope < cap.

    When ``extends`` is set, the closed-form tail is asked at every vertex
    for a strictly smaller chord past the window; taking one ends the walk.
    When no admissible edge is left, the walk stops and closes with the line
    of slope cap through the last principal point.  Returns the regularized
    values, the principal indices, the edges, the trace on (-inf, cap),
    whether the walk stopped at the cap, and the tail index that the last
    edge reaches when it leaves the window (None when it does not).

    Slopes come from extreal.raw_slope; line values, intercepts and
    breakpoint values from extreal.raw_line.
    """
    hull = _lower_hull(vals)
    raws = [v.raw for v in vals]
    cap_raw = cap.raw
    chord = _tail_chords(seq, w) if extends else None
    out = list(vals)
    edge_data: list[tuple[RawNumber, int, RawNumber, int]] = []  # (slope, P, a_P, q)
    stopped = False
    for i, (P, _, _) in enumerate(hull):
        if P == w - 1:
            break  # the window is covered; the tail is not asked from its last point
        aP = raws[P]
        best: Optional[tuple[RawNumber, int]] = None
        if i + 1 < len(hull):
            q = hull[i + 1][0]
            slope = raw_slope(aP, raws[q], q - P)
            if slope < cap_raw:
                best = (slope, q)
        tail = chord(P, aP) if chord else None
        if tail is not None and tail[0] == "event" and tail[1] < cap_raw:
            if best is None or tail[1] < best[0]:
                best = (tail[1], tail[2])
        if best is None:
            stopped = True
            slope, q = cap_raw, w
        else:
            slope, q = best
            if edge_data and slope < edge_data[-1][0]:
                # only float rounding gets here: the exact hull slopes never decrease
                slope = edge_data[-1][0]
            edge_data.append((slope, P, aP, q))
        at = raw_line(aP, slope, P)
        for p in range(P + 1, min(q, w)):
            out[p] = ExtReal(at(p))
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
        cs = [raw_line(aP, s, P)(0) for s, P, aP, _ in run]
        edges += [SupportLine(ExtReal(s), ExtReal(c), touching) for (s, *_), c in zip(run, cs)]
        # the value slope * first - a_first is minus the first intercept, but for
        # the sign of a float zero
        _, first, a_first, _ = run[0]
        value = ExtReal(-cs[0] if cs[0] else raw_add(raw_mul(slope, first), -a_first))
        bps.append(Breakpoint(ExtReal(slope), value, value, ExtReal(last)))
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


def _window_values(seq: SequenceSpec, window: Optional[int]) -> tuple[int, list[ExtReal]]:
    w = resolve_window(seq, window)
    vals = seq.values(w)
    if not vals:
        raise InfinityAtZero("empty window")
    if not vals[0].is_finite:
        raise InfinityAtZero(f"index 0 must be finite, got {vals[0]}")
    return w, vals


def _result(regime: RegimeClassification, w: int, out: list[ExtReal], principal: list[int],
            edges: list[SupportLine], trace: PiecewiseLinearFn, proven: bool,
            finite_principal: Optional[bool] = None,
            tail_end: Optional[int] = None) -> MinorantResult:
    # a proven end pins the whole window; otherwise trust up to the penultimate principal
    if proven:
        stable = w - 1
    else:
        stable = principal[-2] if len(principal) >= 2 else principal[-1]
    return MinorantResult(
        regularized=SequenceSpec(kind=LOG, prefix=tuple(out), tail=ExplicitOnly(),
                                 declared_regime=regime),
        principal_indices=tuple(principal),
        edges=tuple(edges),
        trace=trace,
        regime=regime,
        stable_prefix=stable,
        provisional_from=stable + 1,
        window=w,
        scale=LOG,
        finite_principal=finite_principal,
        tail_end=tail_end,
    )


# -- the three regime constructions ------------------------------------------------


def _standard(seq: SequenceSpec, window: Optional[int],
              regime: RegimeClassification) -> MinorantResult:
    w, vals = _window_values(seq, window)
    extends = isinstance(seq.tail, FactorialPower)
    out, principal, edges, trace, stopped, tail_end = _hull_walk(seq, vals, w, POS_INF, extends)
    # the walk is proven once a factorial tail has vetted it to the window end
    return _result(regime, w, out, principal, edges, trace, extends and not stopped,
                   tail_end=tail_end)


def _case1(seq: SequenceSpec, window: Optional[int],
           regime: RegimeClassification) -> MinorantResult:
    w, vals = _window_values(seq, window)
    out = [vals[0]] + [NEG_INF] * (w - 1)
    trace = PiecewiseLinearFn(
        breakpoints=(),
        domain=EMPTY_INTERVAL,
        slope_left=ZERO,
        value_at_minus_inf=ZERO - vals[0],
    )
    return _result(regime, w, out, [0], [], trace, True, finite_principal=True)


def _case2(seq: SequenceSpec, window: Optional[int], regime: RegimeClassification,
           cap: ExtReal) -> MinorantResult:
    w, vals = _window_values(seq, window)
    extends = isinstance(seq.tail, (AffineLog, Geometric))
    out, principal, edges, trace, stopped, tail_end = _hull_walk(seq, vals, w, cap, extends)
    # a closed-form tail whose chords never dip below the cap makes the stop final
    return _result(regime, w, out, principal, edges, trace, extends and stopped,
                   finite_principal=stopped, tail_end=tail_end)


def regularize(a: SequenceSpec, window: Optional[int] = None,
               tol: float = 1e-9) -> MinorantResult:
    """The (log-)convex minorant in whichever regime the sequence is in.

    Log-scale input gets the convex minorant.  Weight-scale input gets the
    log-convex minorant: the log-scale result exponentiated, with the original
    entries copied at principal indices (where equality is exact).
    """
    seq = to_log_scale(a)
    regime = classify_regime(seq, window, tol)
    if regime.regime == CASE1:
        base = _case1(seq, window, regime)
    elif regime.regime == CASE2:
        base = _case2(seq, window, regime, regime.a_iota)
    else:
        base = _standard(seq, window, regime)
    if a.kind == LOG:
        return base
    weights = [v.exp() for v in base.regularized.prefix]
    for p in base.principal_indices:
        weights[p] = a.value(p)
    regularized = SequenceSpec(kind=WEIGHT, prefix=tuple(weights), tail=ExplicitOnly(),
                               declared_regime=base.regime)
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
    return _standard(seq, window, regime)


def case1_regularize(a: SequenceSpec, window: Optional[int] = None,
                     tol: float = 1e-9) -> MinorantResult:
    """Degenerate minorant (a_0, -inf, -inf, ...) for the collapsing regime."""
    seq = to_log_scale(a)
    regime = classify_regime(seq, window, tol)
    if regime.regime != CASE1:
        raise RegimeMismatch(
            f"{regime.describe()}: this operation is only for Case 1", regime.regime)
    return _case1(seq, window, regime)


def case2_regularize(a: SequenceSpec, window: Optional[int] = None,
                     a_iota=None, tol: float = 1e-9) -> MinorantResult:
    """Slope-capped minorant for sequences with finite limit slope a_iota.

    Hull edges of slope < a_iota are accepted exactly as in the standard
    walk; once none is left, the construction closes with the segment of
    slope a_iota through the last principal point (the lowest admissible
    supporting line in the limit).
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
        gap = abs(float(cap) - float(regime.a_iota))
        if gap > tol * max(1.0, abs(float(regime.a_iota))):
            raise UnknownAIota(
                f"a_iota = {cap} contradicts the classified limit slope {regime.a_iota}")
    if regime.regime == INDETERMINATE:
        regime = RegimeClassification(CASE2, cap, regime.evidence_window, "declared")
    return _case2(seq, window, regime, cap)


# -- trace API ----------------------------------------------------------------------


def real_trace(result: MinorantResult) -> PiecewiseLinearFn:
    """The trace of a minorant result, refused in Case 1, where it is +inf on R."""
    if result.regime.regime == CASE1:
        raise RegimeMismatch(
            f"{result.regime.describe()}: the trace is +inf at every real slope; "
            "only the value at -inf survives", CASE1)
    return result.trace


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
