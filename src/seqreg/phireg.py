"""Regularization of a log-scale sequence against a regularizing function.

A regularizing function phi gates which points S_p = (p, a_p) are visible at
slope t: exactly those with p <= phi(t).  D_t is the lowest line of slope t
through a visible point.  As t sweeps from -inf upward, the highest index on
D_t is the counting function m(t); its jump locations are the entry times t_i
of the principal indices p_i, and -intercept(D_t) is the trace A(t).

The sweep here is event-driven rather than grid-driven: with the current
principal index P, a later index q takes over at

    e_q = max( slope(S_P -> S_q), threshold(q) ),   threshold(q) = inf{t : phi(t) >= q}

because q must be both visible and at-or-below the current line.  The next
event is min_q e_q; every decision (event times, intercept comparisons, hence
the principal / discontinuity classification) is exact, a float taken at its
binary value.  Each phi's one threshold rule gives threshold(p) as an integer
ratio, so the engine and the recovery conjugate use identical cutoffs.

Each call reads the window once into integer pairs (minorant._read, a float
at its exact value) and computes the threshold vector threshold(0..w-1)
once, as pairs too (_thresholds).  phi is non-decreasing
(axiom I), so the thresholds are too, and the points visible at slope t form
a growing prefix of the window.  The whole sweep is therefore one pass from
left to right: Andrew's monotone chain over the visible prefix from P,
merged with the thresholds.  A point is admitted while its threshold is at
most the earliest takeover time found so far, max(first-edge slope of the
chain, threshold); when the next point's threshold is later, that time is
the next event.  Each point is pushed and popped at most once, so
the sweep is linear in the window.

The sweep is minorant._sweep, the one hull kernel, and minorant._run runs it
and gives the lines that fill the regularized window (a Construction).  When
the sweep ends before the window does, stopped by the cap or at trailing +inf
entries, a finite cap (blowup's T, Case 2's a_iota) closes the window with
its line through the last principal point: the value that recover_sequence
gives there.  The record is built on minorant's record core (minorant._Swept),
which MinorantResult shares: the window as read and the Construction as
built.  Its JSON and the CSV samples are printed from the core, the counting
function m = A' is read off the trace's breakpoints (a step to each one's
slope_right), and a value wraps into ExtReal only when the library asks for
the record's objects.  compare runs the same core (_core) for both phis and
the ungated one on one read of the window, and fills and compares integer
pairs: it builds no record.

Events where the entering point sits strictly below the old line are the
indices of discontinuity: visibility arrived later than tangency, so the trace
jumps up.  The sweep decides that on the exact slopes and intercepts, so
float rounding cannot fake a jump or hide a point on the hull.  At a batch
event (several points tied at the minimum intercept, or every tied point
when none is below the line) all of them become principal and their
intervals degenerate to a point.

phi identically +inf is the ungated case, built by minorant's own builder
(minorant._ungated): the plain convex minorant (standard regime), the
slope-capped one (bounded quotients, cap a_iota), or the degenerate collapse
(case 1, where J is empty), with the chords into a closed-form tail past the
window.  So its record has minorant.regularize's values, principal indices,
trace and provisional indices.  Where the sweep leaves the window by a tail
chord, the last interval ends at the chord's time, where the counting
function steps to the tail index.  The checks that do not share the kernel
are the oracles (oracles.brute_minorant, brute_trace and brute_phi_sweep)
and the recovery identity recover_sequence(trace, phi, p) = regularized[p].
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional

from .errors import (AxiomViolation, InfiniteEntryUnsupported, NotComparable, ParseError,
                     Unprintable)
from .extreal import (ExtReal, NEG_INF, ONE, RawNumber, ZERO, _inf_sign, _to_float,
                      _parse_number, ext, raw_add, raw_div, raw_exp, raw_json, raw_mul)
from .minorant import (Construction, Threshold, _Swept, _integer_fill, _pair, _raw, _read,
                       _run, _ungated, _window_values)
from .piecewise import PiecewiseLinearFn, StepFunction
from .sequences import RegimeClassification, SequenceSpec, classify_regime, to_log_scale
from .tails import LOG, ExplicitOnly


# -- regularizing functions ------------------------------------------------------


def _ratio(raw: RawNumber) -> Threshold:
    if type(raw) is Fraction:
        return raw.numerator, raw.denominator
    return None if raw == -math.inf else raw


class RegularizingFunction:
    """phi: R -> [0, +inf], non-decreasing, 0 at -inf, +inf at blowup_T or +inf.

    threshold(p) = inf{t : phi(t) >= p} is the quantity the sweep actually
    uses; each phi defines it once, exactly, by a rule p -> Threshold (p >= 1)
    that the sweep reads and threshold(p) wraps, so all consumers see one
    consistent set of cutoffs.  Its value below blowup_T is one rule on raw
    payloads, read by compare's probes and wrapped by eval(t).  A hand-built
    threshold_fn or eval_fn is read into these rules; the built-ins give them
    directly (_builtin).
    """

    def __init__(self, tag: str, eval_fn: Callable[[ExtReal], ExtReal],
                 threshold_fn: Callable[[int], ExtReal],
                 blowup_T: Optional[ExtReal] = None, infinite: bool = False,
                 descriptor: str = ""):
        self.tag = tag
        self.blowup_T = blowup_T
        self.infinite = infinite
        self.descriptor = descriptor or tag
        self._value: Callable[[RawNumber], RawNumber] = lambda t: ext(eval_fn(ExtReal(t))).raw
        self._rule: Callable[[int], Threshold] = lambda p: _ratio(ext(threshold_fn(p)).raw)

    def eval(self, t) -> ExtReal:
        return ExtReal(self._at(ext(t).raw))

    __call__ = eval

    def _at(self, t: RawNumber) -> RawNumber:  # phi(t) on a raw payload
        T = self.blowup_T
        return math.inf if T is not None and t >= T.raw else self._value(t)

    def threshold(self, p: int) -> ExtReal:
        if p < 0:
            raise ValueError("threshold index must be >= 0")
        return ExtReal(_raw(self._rule(p) if p else None))  # phi >= 0: threshold(0) = -inf

    def to_json(self) -> dict:
        return {"descriptor": self.descriptor}

    def __repr__(self) -> str:
        return f"RegularizingFunction({self.descriptor})"


def _builtin(tag: str, value, rule: Callable[[int], Threshold], **kw) -> RegularizingFunction:
    phi = RegularizingFunction(tag, None, None, **kw)  # both rules given directly
    phi._value, phi._rule = value, rule
    return phi


def _parse_frac(text: str, what: str) -> Fraction:
    """A finite parameter, read as a number literal is (extreal._parse_number,
    whose exponent bound refuses a huge power of ten at once); the record
    prints it, so its integers must be within Python's limit for printing one."""
    try:
        v = _parse_number(text)
    except ValueError as e:
        raise ParseError(f"cannot read {what} from {text!r}: {e}") from None
    if type(v) is not Fraction:
        raise ParseError(f"cannot read {what} from {text!r}: it is not finite")
    try:
        str(v)
    except ValueError:
        raise ParseError(f"cannot read {what} from {text!r}: {Unprintable()}") from None
    return v


def _read_knots(raw) -> list[tuple[Fraction, Fraction]]:
    if not isinstance(raw, (list, tuple)) or not all(
            isinstance(k, (list, tuple)) and len(k) == 2 for k in raw):
        raise ParseError(f"piecewise knots must be [[x,v],...], got {raw!r}")
    return [(_parse_frac(str(x), "a knot abscissa"), _parse_frac(str(v), "a knot value"))
            for x, v in raw]


def _piecewise_phi(knots: list[tuple[Fraction, Fraction]]) -> RegularizingFunction:
    if len(knots) < 2:
        raise AxiomViolation("III", None, "need at least two knots to grow to +inf")
    xs = [k[0] for k in knots]
    vs = [k[1] for k in knots]
    for i in range(1, len(xs)):
        if xs[i] <= xs[i - 1]:
            raise AxiomViolation("IV", float(ext(xs[i])),
                                 "knot abscissae must be strictly increasing")
        if vs[i] < vs[i - 1]:
            raise AxiomViolation("I", float(ext(xs[i])), "values must be non-decreasing")
    if vs[0] != 0:
        raise AxiomViolation("II", float(ext(xs[0])),
                             "the first knot value must be 0 (phi -> 0 at -inf)")
    final_slope = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
    if final_slope <= 0:
        raise AxiomViolation("III", float(ext(xs[-1])),
                             "the last segment must rise (phi -> +inf)")

    def value(t: RawNumber) -> RawNumber:
        if t <= xs[0]:
            return vs[0]
        if t == math.inf:
            return t
        x = t if type(t) is Fraction else Fraction(t)
        if x >= xs[-1]:
            return vs[-1] + final_slope * (x - xs[-1])
        for i in range(1, len(xs)):
            if x <= xs[i]:
                s = (vs[i] - vs[i - 1]) / (xs[i] - xs[i - 1])
                return vs[i - 1] + s * (x - xs[i - 1])
        raise AssertionError("unreachable")

    # threshold(p) = (A + B p) / C on each rising segment, beside the value it
    # rises to: p is on the first that reaches it (a flat one reaches no larger
    # value; before it v_{i-1} < p, so x > x_{i-1}) or on the last, extended.
    segs: list[tuple[Fraction, int, int, int]] = []
    for i in range(1, len(xs)):
        if vs[i] > vs[i - 1]:
            r = (xs[i] - xs[i - 1]) / (vs[i] - vs[i - 1])
            c = xs[i - 1] - vs[i - 1] * r  # threshold(p) = c + r p
            segs.append((vs[i], c.numerator * r.denominator, r.numerator * c.denominator,
                         c.denominator * r.denominator))
    tops = [math.floor(seg[0]) for seg in segs]  # for an integer p, top >= p is floor(top) >= p

    def rule(p: int) -> Threshold:
        _, A, B, C = segs[min(bisect.bisect_left(tops, p), len(segs) - 1)]
        return A + B * p, C

    desc = "piecewise:" + ";".join(f"{x},{v}" for x, v in knots)
    return _builtin("piecewise", value, rule, descriptor=desc)


def make_phi(descriptor) -> RegularizingFunction:
    """Build a regularizing function from a descriptor.

    Accepted forms: "exp", "expaffine:ALPHA,BETA", "blowup:T", "infinite",
    "piecewise:[[x,v],...]" (or a dict {"kind": ..., ...}).  All numeric
    parameters are read as exact rationals.
    """
    if isinstance(descriptor, dict):
        kind = descriptor.get("kind")
        if kind == "piecewise":
            return _piecewise_phi(_read_knots(descriptor.get("knots")))
        arg = descriptor.get("args", "")
        descriptor = f"{kind}:{arg}" if arg else str(kind)
    if not isinstance(descriptor, str):
        raise ParseError(f"unsupported phi descriptor {descriptor!r}")
    text = descriptor.strip()
    head, _, arg = text.partition(":")
    head = head.lower()

    if head == "exp":
        return _builtin("exp", raw_exp, lambda p: math.log(p).as_integer_ratio(), descriptor="exp")
    if head == "expaffine":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ParseError("expaffine needs two parameters: alpha,beta")
        alpha = _parse_frac(parts[0], "alpha")
        beta = _parse_frac(parts[1], "beta")
        if alpha < 0:
            raise AxiomViolation("I", None, f"alpha = {alpha} < 0 makes phi decreasing")
        if alpha == 0:
            raise AxiomViolation("III", None, "alpha = 0 makes phi constant, never +inf")

        an, ad, bn, bd = alpha.numerator, alpha.denominator, beta.numerator, beta.denominator

        def ea_value(t: RawNumber) -> RawNumber:  # e^(alpha t + beta)
            if type(t) is Fraction:
                return raw_exp(an * t.numerator * bd + bn * ad * t.denominator, ad * t.denominator * bd)
            return raw_exp(raw_add(raw_mul(alpha, t), beta))

        def ea_rule(p: int) -> Threshold:  # (log p - beta) / alpha
            n, d = math.log(p).as_integer_ratio()
            return (n * bd - bn * d) * ad, d * bd * an

        return _builtin("expaffine", ea_value, ea_rule, descriptor=f"expaffine:{alpha},{beta}")
    if head == "blowup":
        T = _parse_frac(arg, "T")
        Tn, Td = T.numerator, T.denominator

        def bu_value(t: RawNumber) -> RawNumber:  # 1 / (T - t), t < T
            if type(t) is Fraction:
                return Fraction(Td * t.denominator, Tn * t.denominator - t.numerator * Td)
            return raw_div(ONE.raw, raw_add(T, -t))

        return _builtin("blowup", bu_value, lambda p: (Tn * p - Td, Td * p),  # T - 1/p
                        blowup_T=ExtReal(T), descriptor=f"blowup:{arg}")
    if head == "infinite":
        return _builtin("infinite", lambda t: math.inf, lambda p: None, infinite=True,
                        descriptor="infinite")
    if head == "piecewise":
        try:
            knots_raw = json.loads(arg)
        except json.JSONDecodeError as e:
            raise ParseError(f"piecewise knots must be JSON [[x,v],...]: {e}") from None
        return _piecewise_phi(_read_knots(knots_raw))
    raise ParseError(f"unknown phi descriptor {text!r} "
                     "(use exp | expaffine:a,b | blowup:T | piecewise:... | infinite)")


# -- result records ----------------------------------------------------------------


@dataclass(frozen=True)
class PhiInterval:
    """[start, end): the slope range during which one index stays on top."""

    start: ExtReal
    end: ExtReal

    def to_json(self) -> dict:
        return {"start": self.start.to_json(), "end": self.end.to_json()}


@dataclass(frozen=True)
class PhiSegment:
    """Line of the given slope through (anchor_index, anchor_value), covering
    output indices [span_start, span_end)."""

    slope: ExtReal
    anchor_index: int
    anchor_value: ExtReal
    span_start: int
    span_end: int

    def value_at(self, p: int) -> ExtReal:
        return self.anchor_value + self.slope * (p - self.anchor_index)

    def to_json(self) -> dict:
        return {
            "slope": self.slope.to_json(),
            "anchor_index": self.anchor_index,
            "anchor_value": self.anchor_value.to_json(),
            "span": [self.span_start, self.span_end],
        }


def _line_float(r: RawNumber, s: int, b: RawNumber, t: RawNumber) -> float:
    """float(r + s (t - b)) by ExtReal's rules, as PiecewiseLinearFn.evaluate
    gives the trace at t on its line through (b, r): on exact values one
    integer division, rounded once as float(Fraction) is, and the infinity of
    its sign past the float range."""
    if type(r) is type(b) is type(t) is Fraction:
        q = b.denominator * t.denominator
        num = r.numerator * q + r.denominator * s * (
            t.numerator * b.denominator - b.numerator * t.denominator)
        try:
            return num / (r.denominator * q)
        except OverflowError:
            return math.inf if num > 0 else -math.inf
    return _to_float(raw_add(r, raw_mul(s, raw_add(t, -b))))


@dataclass(frozen=True)
class PhiRegResult(_Swept):
    """The regularization record on the record core (minorant._Swept), from
    which to_json and _samples print; regularized, intervals, segments,
    counting and trace are built when first asked for."""

    principal_indices: tuple[int, ...]
    discontinuity_indices: tuple[int, ...]
    J_right: ExtReal
    finite_principal: bool
    window: int
    provisional_from: int
    phi_descriptor: str
    _declared: Optional[RegimeClassification] = field(default=None, repr=False)

    @cached_property
    def regularized(self) -> SequenceSpec:
        return SequenceSpec._of_raws(LOG, tuple(self._out), ExplicitOnly(), self._declared)

    @property
    def _entries(self) -> list[tuple[int, ExtReal]]:
        """The principal points (index, entry time): none where J is empty, in Case 1."""
        return [] if self.J_right.is_neg_inf else self._built.principal

    @property
    def _end(self) -> RawNumber:  # the last interval's: J's, or the tail chord's time
        return self.J_right.raw if self.tail_end is None else self._built.events[-1][0]

    @cached_property
    def intervals(self) -> tuple[PhiInterval, ...]:
        times = [t for _, t in self._entries]
        return tuple(map(PhiInterval, times, times[1:] + [ExtReal(self._end)]))

    @cached_property
    def segments(self) -> tuple[PhiSegment, ...]:
        return tuple(PhiSegment(ExtReal(slope), P, ExtReal(self._vals[P]), P, end)
                     for P, slope, end in self._built.lines) if self._entries else ()

    @cached_property
    def counting(self) -> StepFunction:
        """m = A': a step at each of the trace's breakpoints to its slope_right."""
        return StepFunction(jumps=tuple((x, top) for x, *_, top in self._bps),
                            initial_level=0, domain=self._J)

    def _samples(self, ts: list, extended: bool) -> list[tuple]:
        """(m(t), float A(t)) at the sorted raw slopes ts, by one pointer over the
        breakpoints (A by _line_float); (None, inf if extended else None) outside J."""
        bps, hi, i, rows = self._bps, self.J_right.raw, -1, []
        outside = (None, math.inf if extended else None)
        flat = (0, float(ZERO - self._vals[0]))  # below the first event m = 0 and A = -a_0
        for t in ts:
            if _inf_sign(t) or not t < hi:
                rows.append(outside)
                continue
            while i + 1 < len(bps) and bps[i + 1][0] <= t:
                i += 1
            if i >= 0:
                x, _, right, top = bps[i]
                rows.append((top, _line_float(right, top, x, t)))
            else:
                rows.append(flat)
        return rows

    def to_json(self) -> dict:
        """The record as JSON, printed from the record core."""
        times = [t.to_json() for _, t in self._entries]
        trace = self._trace_json()
        jumps = [[raw_json(x), top] for x, *_, top in self._bps]
        counting = {"initial_level": 0, "jumps": jumps, "domain": dict(trace["domain"])}
        segments = [{"slope": raw_json(slope), "anchor_index": P, "span": [P, end],
                     "anchor_value": raw_json(self._vals[P])}
                    for P, slope, end in (self._built.lines if self._entries else ())]
        return {"regularized": list(map(raw_json, self._cells)),
                "principal_indices": list(self.principal_indices),
                "discontinuity_indices": list(self.discontinuity_indices),
                "intervals": [{"start": t, "end": u}
                              for t, u in zip(times, times[1:] + [raw_json(self._end)])],
                "segments": segments, "counting": counting,
                "trace": trace, "J_right": self.J_right.to_json(),
                "finite_principal": self.finite_principal,
                "window": self.window, "provisional_from": self.provisional_from,
                "phi": self.phi_descriptor}


# -- the sweep ----------------------------------------------------------------------


def _thresholds(phi: RegularizingFunction, pts: list) -> list[tuple[int, int, Threshold]]:
    """threshold(q) of each point as the sweep reads it, (n, d, threshold(q))
    with d > 0, or (-1, 0) for -inf; phi must reach every q (axiom III) and
    never fall (axiom I), since the sweep admits points in index order."""
    ths = [(-1, 0, None)]  # phi >= 0: threshold(0) = -inf
    for k in range(1, len(pts)):
        q, thr = pts[k][0], phi._rule(pts[k][0])
        if thr == math.inf:
            raise AxiomViolation("III", q, f"threshold({q}) = inf: phi never reaches {q}")
        tn, td = thr if type(thr) is tuple else _pair(thr)
        pn, pd, before = ths[-1]
        if tn * pd < pn * td:
            raise AxiomViolation(
                "I", q, f"threshold({q}) = {_raw(thr)} falls below "
                f"threshold({pts[k - 1][0]}) = {_raw(before)}: phi must be non-decreasing")
        ths.append((tn, td, thr))
    return ths


def _core(seq: SequenceSpec, read: tuple, phi: RegularizingFunction, window: Optional[int],
          tol: float) -> tuple[Optional[RegimeClassification], Construction]:
    """The construction under phi on the window read once, and the regime it
    classified: under phi = infinite minorant's (minorant._ungated), else the
    gated sweep (minorant._run) with the cap blowup_T and no regime."""
    if phi.infinite:
        regime = classify_regime(seq, window, tol)
        return regime, _ungated(seq, read, regime)
    built = _run(read, phi.blowup_T, None, _thresholds(phi, read[1]))
    if phi.blowup_T is None and _inf_sign(read[0][-1]) > 0:
        raise InfiniteEntryUnsupported(
            "window ends in +inf entries; without a blowup point the "
            "regularization of a cofinitely-infinite sequence is undefined")
    return None, built


def regularize_with_phi(a: SequenceSpec, phi: RegularizingFunction,
                        window: Optional[int] = None, tol: float = 1e-9) -> PhiRegResult:
    """Event-driven sweep computing the full regularization record.

    Preconditions: a_0 finite; -inf entries only under phi = infinite (where
    they collapse the construction); a window ending in +inf entries needs a
    blowup phi (the only class where cofinitely-+inf sequences make sense);
    thresholds that never decrease (AxiomViolation "I" otherwise).
    """
    seq = to_log_scale(a)
    w, vals = _window_values(seq, window)
    regime, built = _core(seq, _read(vals), phi, window, tol)
    stable = built.stable if phi.infinite else _stable_boundary(phi, built.principal, w)
    return PhiRegResult(tuple(p for p, _ in built.principal), tuple(built.disc), built.hi,
                        built.closed, w, stable + 1, phi.descriptor, regime,
                        _vals=tuple(vals), _built=built)


def _stable_boundary(phi: RegularizingFunction, principal: list[tuple[int, ExtReal]],
                     w: int) -> int:
    """The last index whose value no extension of the sequence can change under
    a gated phi: a point beyond the window only becomes visible at
    threshold(w), so every event strictly before that time is final.
    """
    horizon = phi.threshold(w)  # each principal point's entry ends the one before
    return max((p for p, t in principal if t < horizon), default=0)


# -- evaluation of the stored record ------------------------------------------------


def counting_m_phi(result: PhiRegResult, t) -> int:
    """m(t): the highest index on D_t, from the stored step structure."""
    t = ext(t)
    if t.is_neg_inf:
        return 0
    return result.counting.value(t)


def trace_A_phi(result: PhiRegResult, t, extended: bool = False) -> ExtReal:
    """A(t) = t m(t) - a_{m(t)}; -a_0 at t = -inf; +inf outside J when extended."""
    return result.trace.evaluate(ext(t), extended=extended)


def recover_sequence(trace: PiecewiseLinearFn, phi: RegularizingFunction, p: int) -> ExtReal:
    """sup{p t - A(t) : t in J, phi(t) >= p}, exact over the trace breakpoints.

    Open right ends contribute their limit (a supremum attained only in the
    limit); p = 0 admits t = -inf, where the sup equals a_0 exactly.
    """
    if p < 0:
        raise ValueError("index must be >= 0")
    lower = phi.threshold(p)
    return trace.conjugate_at(ext(p), lower=lower).value


# -- comparisons ---------------------------------------------------------------------


_PROBE_GRID = [Fraction(n, 4) for n in range(-64, 65, 3)]


@dataclass(frozen=True)
class ComparisonReport:
    larger: str  # "phi1" | "phi2" | "equal"
    ordered_ok: bool
    convex_floor_ok: bool
    witness_index: Optional[int]

    def to_json(self) -> dict:
        return {
            "larger": self.larger,
            "ordered_ok": self.ordered_ok,
            "convex_floor_ok": self.convex_floor_ok,
            "witness_index": self.witness_index,
        }


def _larger(phi1: RegularizingFunction, phi2: RegularizingFunction) -> str:
    """Which phi is at least the other at every probe: "equal", "phi1" or "phi2".

    The probes are _PROBE_GRID and, for each blow-up point T, T and T +- 1/100;
    each phi's value rule is read there once, on raw payloads.
    """
    pts = list(_PROBE_GRID)
    h = ext(Fraction(1, 100))
    for T in (phi1.blowup_T, phi2.blowup_T):
        if T is not None:
            pts.extend([(T - h).raw, T.raw, (T + h).raw])
    v1 = [phi1._at(t) for t in pts]
    v2 = [phi2._at(t) for t in pts]
    two_over_one = all(y >= x for x, y in zip(v1, v2))
    one_over_two = all(x >= y for x, y in zip(v1, v2))
    if two_over_one:
        return "equal" if one_over_two else "phi2"
    if one_over_two:
        return "phi1"
    raise NotComparable("neither regularizing function dominates the other "
                        "on the probe grid")


def _leq(x: tuple[int, int], y: tuple[int, int], tol: float) -> bool:
    """x <= y on integer pairs (n, d), d > 0, or (+-1, 0) for +-inf, cross-multiplied
    (two infinities by sign), or within tol as floats when both are finite."""
    (xn, xd), (yn, yd) = x, y
    if (xn * yd <= yn * xd) if xd or yd else xn <= yn:
        return True
    if not (xd and yd):
        return False
    fx, fy = _to_float(Fraction(xn, xd)), _to_float(Fraction(yn, yd))
    return fx <= fy + tol * max(1.0, abs(fx), abs(fy))


def compare_regularizations(a: SequenceSpec, phi1: RegularizingFunction,
                            phi2: RegularizingFunction, window: Optional[int] = None,
                            tol: float = 1e-9) -> ComparisonReport:
    """Order two regularizations: a larger phi sees more points, so it digs deeper.

    Checks a^{larger} <= a^{smaller} <= a elementwise, and that the ungated
    regularization (the convex minorant) floors both.  The window is read once,
    and each regularization is the sweep core's lines, filled in as integer
    pairs, with no record.
    """
    label = _larger(phi1, phi2)
    big, small = (phi1, phi2) if label == "phi1" else (phi2, phi1)
    seq = to_log_scale(a)
    w, vals = _window_values(seq, window)
    read = _read(vals)
    # +inf entries are (1, 0); past a -inf entry the three are Case 1 records,
    # which are -inf there, so the entries there are never compared
    x = [(1, 0)] * w
    for q, n, d, _ in read[1]:
        x[q] = n, d
    x_big, x_small, x_floor = (
        [v if type(v) is tuple else _pair(v)
         for v in _integer_fill(read[0], _core(seq, read, phi, window, tol)[1].lines)]
        for phi in (big, small, make_phi("infinite")))
    unordered = [p for p in range(w)
                 if not (_leq(x_big[p], x_small[p], tol) and _leq(x_small[p], x[p], tol))]
    unfloored = [p for p in range(w)
                 if not (_leq(x_floor[p], x_big[p], tol) and _leq(x_big[p], x[p], tol))]
    return ComparisonReport(label, not unordered, not unfloored,
                            min(unordered + unfloored, default=None))


def trace_invariance_check(a: SequenceSpec, phi: RegularizingFunction,
                           window: Optional[int] = None, tol: float = 1e-9,
                           samples: int = 100) -> bool:
    """The trace computed from a and from a^phi must be the same function."""
    r1 = regularize_with_phi(a, phi, window, tol)
    r2 = regularize_with_phi(r1.regularized, phi, r1.window, tol)
    t1, t2 = r1.trace, r2.trace
    if t1.domain.is_empty != t2.domain.is_empty:
        return False

    def same(x: ExtReal, y: ExtReal) -> bool:
        if x == y:
            return True
        if x.is_finite and y.is_finite:
            fx, fy = float(x), float(y)
            return abs(fx - fy) <= tol * max(1.0, abs(fx), abs(fy))
        return False

    if not same(t1.evaluate(NEG_INF), t2.evaluate(NEG_INF)):
        return False
    if t1.domain.is_empty:
        return True
    probe = sorted({b.x for b in t1.breakpoints} | {b.x for b in t2.breakpoints})
    for x in probe:
        if not (same(t1.evaluate(x), t2.evaluate(x)) and same(t1.left_limit(x), t2.left_limit(x))):
            return False
    if probe:
        lo, hi = float(probe[0]) - 2.0, float(probe[-1]) + 2.0
        if t1.domain.hi.is_finite:
            hi = min(hi, float(t1.domain.hi) - 1e-6)
        step = (hi - lo) / max(samples, 1)
        for i in range(samples):
            x = ext(lo + step * i)
            if not t1.domain.contains(x):
                continue
            if not same(t1.evaluate(x), t2.evaluate(x)):
                return False
    return True
