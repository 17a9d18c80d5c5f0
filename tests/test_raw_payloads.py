"""Raw payloads from the JSON to the JSON, against the expressions they replaced.

Three layers read and write raw payloads (Fraction or float) directly:
`ExtReal.from_json` reads "[-]n/d" strings without Fraction's regular
expression, the hull kernel (`minorant._sweep` and `_run`) builds line
values, slopes and trace values through one line helper, and
`cli._minorant_payload` and `ExtReal.to_json` build only what is printed.
The functions below are the former forms, kept verbatim as the reference,
with `former_regularize` running the former walk under `regularize`'s
regime dispatch.  The walk differs from the one that ran in three rules:
decisions are made on exact values (an edge is below the cap, and a tail
chord at its float value below an edge, when it is so at the entries'
binary values, and a float slope that rounds up to the cap is then taken
exactly); a collinear run is one step, as one event of the sweep (each of
its edges takes the slope of its first edge, and the tail is asked at its
first point only); and a zero trace value follows `minorant._trace_value`
(a float zero is 0.0, never -0.0).  On inputs whose
float arithmetic does not overflow, each pair must agree on every value, by
type and repr, and on every error.
"""

import json
import math
from fractions import Fraction
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from seqreg import SequenceSpec
from seqreg.cli import _minorant_payload
from seqreg.errors import InconsistentDeclaration, SeqRegError
from seqreg.extreal import (NEG_INF, POS_INF, ZERO, ExtReal, RawNumber, ext, raw_add, raw_div,
                            raw_mul)
from seqreg.minorant import SupportLine, _tail_chords, _window_values, regularize
from seqreg.piecewise import Breakpoint, Interval, PiecewiseLinearFn
from seqreg.sequences import CASE2, classify_regime, to_log_scale
from seqreg.tails import LOG, WEIGHT, AffineLog, ExplicitOnly, FactorialPower, Geometric

_POS, _NEG = math.inf, -math.inf


# -- the former forms, verbatim --------------------------------------------------------


def former_parse_number(text: str) -> RawNumber:
    s = text.strip()
    low = s.lower()
    if low in ("inf", "+inf", "infinity"):
        return _POS
    if low in ("-inf", "-infinity"):
        return _NEG
    try:
        # Fraction handles both "p/q" and exact decimal strings like "1.5"
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad number literal {text!r}") from exc


def former_from_json(payload) -> ExtReal:
    if isinstance(payload, (int, float, Fraction)) and not isinstance(payload, bool):
        return ExtReal(payload)
    if isinstance(payload, str):
        return ExtReal(former_parse_number(payload))
    raise ValueError(f"cannot parse extended real from {payload!r}")


def former_to_json(x: ExtReal):
    if x.is_pos_inf:
        return "inf"
    if x.is_neg_inf:
        return "-inf"
    v = x.raw
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return f"{v.numerator}/{v.denominator}"
    return v


def former_lower_hull(vals: list[ExtReal]) -> list[tuple[int, int, int]]:
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


def former_hull_walk(seq, vals, w, cap, extends):
    hull = former_lower_hull(vals)
    raws = [v.raw for v in vals]
    cap_raw = cap.raw
    chord = _tail_chords(seq, w) if extends else None
    out = list(vals)
    edge_data: list[tuple[RawNumber, int, RawNumber, int]] = []  # (slope, P, a_P, q)
    stopped = False
    run: Optional[Fraction] = None  # the exact slope of the hull edge that ends at P
    for i, (P, nP, dP) in enumerate(hull):
        if P == w - 1:
            break  # the window is covered; the tail is not asked from its last point
        aP = raws[P]
        best: Optional[tuple[RawNumber, int]] = None
        exact = None
        if i + 1 < len(hull):
            q, nq, dq = hull[i + 1]
            # decided on exact values: the edge's slope between the binary values
            exact = Fraction(nq * dP - nP * dq, dq * dP * (q - P))
            if exact == run:
                best = (edge_data[-1][0], q)  # a collinear run takes its first edge's slope
            elif exact < cap_raw:
                if type(aP) is Fraction and type(raws[q]) is Fraction:
                    slope = exact
                else:
                    slope = raw_div(raw_add(raws[q], -aP), q - P)
                best = (slope if slope < cap_raw else exact, q)  # exact where it rounds up
        # the tail is asked at the first point of a run only; (slope, q) or None
        tail = chord(P, aP) if chord and not (exact is not None and exact == run) else None
        if tail is not None and tail[0] < cap_raw:
            if best is None or tail[0] < exact:
                best = tail
        run = exact if best is not None and best[1] < w else None
        if best is None:
            stopped = True
            slope, q = cap_raw, w
        else:
            slope, q = best
            if edge_data and slope < edge_data[-1][0]:
                # only float rounding gets here: the exact hull slopes never decrease
                slope = edge_data[-1][0]
            edge_data.append((slope, P, aP, q))
        if type(aP) is Fraction and type(slope) is Fraction:
            base, step = aP.numerator * slope.denominator, slope.numerator * aP.denominator
            den = aP.denominator * slope.denominator
            for p in range(P + 1, min(q, w)):
                out[p] = ExtReal(Fraction(base + step * (p - P), den))
        else:
            for p in range(P + 1, min(q, w)):
                out[p] = ExtReal(raw_add(aP, raw_mul(slope, p - P)))
        if q >= w:
            break

    edges: list[SupportLine] = []
    bps: list[Breakpoint] = []
    for slope, run in groupby(edge_data, key=itemgetter(0)):
        run = list(run)
        touching = tuple(P for _, P, _, _ in run)
        last = run[-1][3]
        if last < w:
            touching += (last,)
        edges += [SupportLine(ExtReal(s), ExtReal(raw_add(aP, -raw_mul(s, P))), touching)
                  for s, P, aP, _ in run]
        _, first, a_first, _ = run[0]
        value = raw_add(raw_mul(slope, first), -a_first)
        # a float zero trace value is 0.0, as minorant._trace_value gives
        value = ExtReal(0.0 if value == 0 and type(value) is float else value)
        bps.append(Breakpoint(ExtReal(slope), value, value, ext(last)))
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


@dataclass(frozen=True)
class FormerResult:
    """MinorantResult as it was, with the edges the walk built."""

    regularized: SequenceSpec
    principal_indices: tuple[int, ...]
    edges: tuple[SupportLine, ...]
    trace: PiecewiseLinearFn
    regime: object
    stable_prefix: int
    provisional_from: int
    window: int
    scale: str
    finite_principal: Optional[bool] = None
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


def former_regularize(a: SequenceSpec, window: int) -> FormerResult:
    """regularize on the former walk, for the standard regime and Case 2."""
    seq = to_log_scale(a)
    regime = classify_regime(seq, window)
    w, vals = _window_values(seq, window)
    case2 = regime.regime == CASE2
    extends = isinstance(seq.tail, (AffineLog, Geometric) if case2 else FactorialPower)
    out, principal, edges, trace, stopped, tail_end = former_hull_walk(
        seq, vals, w, regime.a_iota if case2 else POS_INF, extends)
    # a proven end pins the whole window; otherwise trust up to the penultimate principal
    if extends and stopped == case2:
        stable = w - 1
    else:
        stable = principal[-2] if len(principal) >= 2 else principal[-1]
    base = FormerResult(
        SequenceSpec(kind=LOG, prefix=tuple(out), tail=ExplicitOnly(), declared_regime=regime),
        tuple(principal), tuple(edges), trace, regime, stable, stable + 1, w, LOG,
        stopped if case2 else None, tail_end)
    if a.kind == LOG:
        return base
    weights = [v.exp() for v in base.regularized.prefix]
    for p in base.principal_indices:
        weights[p] = a.value(p)
    regularized = SequenceSpec(kind=WEIGHT, prefix=tuple(weights), tail=ExplicitOnly(),
                               declared_regime=base.regime)
    return replace(base, regularized=regularized, scale=WEIGHT)


def former_minorant_payload(result: FormerResult) -> dict:
    full = result.to_json()
    payload = {
        "regularized": full["regularized"],
        "principal_indices": full["principal_indices"],
        "slopes": full["slopes"],
        "trace_breakpoints": full["trace"]["breakpoints"],
        "regime": full["regime"],
        "stable_prefix": full["stable_prefix"],
        "provisional_from": full["provisional_from"],
        "scale": full["scale"],
        "window": full["window"],
    }
    return payload


def outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (SeqRegError, ArithmeticError, ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


def num(x):
    """(type, repr) of a payload: 1 == 1.0 and 0.0 == -0.0 are no match.  A
    Fraction is keyed by its two integers, which repr cannot print past 4300 digits."""
    raw = x.raw if isinstance(x, ExtReal) else x
    if type(raw) is Fraction:
        return "Fraction", raw.numerator, raw.denominator
    return type(raw).__name__, repr(raw)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- parse ------------------------------------------------------------------------------

SPELLINGS = [" 3/4", "+3/4", "-0/7", "1_000/3", "3 /4", "3/-4", "4/0", "٣/4", "1.5", "1e3",
             "3/4", "-3/4", "03/4", "3/04", "-/4", "3/", "/4", "--3/4", "3/4/5", "-3/4 ",
             "inf", "-Infinity", "", "1/" + "9" * 5000, "7"]


def parse_key(payload):
    got = outcome(ExtReal.from_json, payload)
    return got if isinstance(got, tuple) else num(got)


def former_parse_key(payload):
    got = outcome(former_from_json, payload)
    return got if isinstance(got, tuple) else num(got)


@pytest.mark.parametrize("text", SPELLINGS)
def test_parse_matches_the_fraction_route(text):
    assert parse_key(text) == former_parse_key(text)


@given(st.one_of(
    st.from_regex(r"\s?[-+]?[0-9_٣]{0,4}\s?/\s?[-+]?[0-9_]{0,3}\s?", fullmatch=True),
    st.text(alphabet="0123456789-+/_ .e٣", max_size=10),
    st.integers(-10**30, 10**30), st.fractions(), st.floats(allow_nan=False), st.booleans()))
@example("1e10000")  # a Fraction of 10,001 digits
@settings(max_examples=500, deadline=None)
def test_parse_matches_the_fraction_route_on_drawn_forms(payload):
    assert parse_key(payload) == former_parse_key(payload)


# -- walk -------------------------------------------------------------------------------

# entries on a convex chain with bumps, so collinear runs (zero bumps) and
# interior points both occur: exact, float (dyadic and one-decimal, both zeros)
# and mixed
STEPS = {
    "exact": st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 7])),
    "float": st.one_of(st.integers(-48, 48).map(lambda k: k / 8),
                       st.integers(-60, 60).map(lambda k: k / 10), st.sampled_from([0.0, -0.0])),
}
STEPS["mixed"] = st.one_of(STEPS["exact"], STEPS["float"])

TAILS = [
    {"type": "explicit_only"},
    {"type": "factorial_power", "s": 1, "c": 1},
    {"type": "factorial_power", "s": "1/2", "c": "3/2"},
    {"type": "affine_log", "c": "5/2"},
    {"type": "geometric", "d": 3},
]


def as_json(v):
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


@st.composite
def documents(draw, entries: str):
    steps = STEPS[entries]
    n = draw(st.integers(min_value=1, max_value=24))
    slopes = sorted(draw(st.lists(steps, min_size=n, max_size=n)))
    values = [draw(steps)]
    for s in slopes:
        values.append(values[-1] + s)
    values = [v + draw(st.one_of(st.just(0 * v), steps)) for v in values]
    for q in draw(st.lists(st.integers(1, n), max_size=n // 4)):
        values[q] = "inf"
    doc = {"kind": "log", "prefix": [as_json(v) for v in values],
           "tail": draw(st.sampled_from(TAILS))}
    if doc["tail"]["type"] == "explicit_only" and draw(st.booleans()):  # a case-2 cap
        doc["declared_regime"] = {"regime": "case2", "a_iota": as_json(draw(steps)),
                                  "source": "declared", "evidence_window": [0, len(values)]}
    return doc, draw(st.integers(min_value=4, max_value=len(values) + 6))


def results(doc, window):
    """The result (or error) of regularize and of the former walk."""
    seq = SequenceSpec.from_json(doc)
    return outcome(regularize, seq, window), outcome(former_regularize, seq, window)


def walk_key(r):
    return ([num(v) for v in r.regularized.prefix], r.principal_indices,
            [(num(e.slope), num(e.intercept), e.touching) for e in r.edges],
            [(num(b.x), num(b.left_value), num(b.right_value), num(b.slope_right))
             for b in r.trace.breakpoints], r.tail_end)


@pytest.mark.parametrize("entries", sorted(STEPS))
@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_walk_matches_the_former_expressions(entries, data):
    doc, window = data.draw(documents(entries))
    new, old = results(doc, window)
    if isinstance(old, tuple):
        assert new == old
        return
    assert walk_key(new) == walk_key(old)
    assert canonical(new.to_json()) == canonical(old.to_json())
    # the payload the CLI prints is the former selection from to_json()
    assert canonical(_minorant_payload(new)) == canonical(former_minorant_payload(old))


@pytest.mark.parametrize("doc", [
    # one collinear run of three edges
    {"kind": "log", "prefix": [0, 1, 2, 3, 10], "tail": {"type": "explicit_only"}},
    # signed zeros: a_0 = 0.0 meets slope * 0, and a negative float slope
    {"kind": "log", "prefix": [0.0, 1.0, 3.0], "tail": {"type": "explicit_only"}},
    {"kind": "log", "prefix": [0.0, -1.0, -1.5], "tail": {"type": "explicit_only"}},
    {"kind": "log", "prefix": [-0.0, 0.5, 0, 2], "tail": {"type": "explicit_only"}},
    # a collinear run whose float slopes are 0.0 and -0.0: one step of slope 0.0
    {"kind": "log", "prefix": [-0.0, 0.0, -0.0], "tail": {"type": "explicit_only"}},
    # a case-2 cap and a factorial tail past the window
    {"kind": "log", "prefix": [0, "-7/3", 1, 2.5], "tail": {"type": "affine_log", "c": "1/2"}},
    {"kind": "log", "prefix": [0, 40, "inf", 90],
     "tail": {"type": "factorial_power", "s": 1, "c": 1}},
    # the weight scale: the payload exponentiates and copies principal weights
    {"kind": "weight", "prefix": [1, 3, "1/2", 8, 100], "tail": {"type": "explicit_only"}},
])
def test_payload_matches_the_former_selection(doc):
    new, old = results(doc, 8)
    assert canonical(new.to_json()) == canonical(old.to_json())
    assert canonical(_minorant_payload(new)) == canonical(former_minorant_payload(old))


# -- emit -------------------------------------------------------------------------------


@pytest.mark.parametrize("value", [
    Fraction(3), Fraction(-7, 3), Fraction(0), Fraction(10**400), Fraction(1, 10**400),
    0.0, -0.0, 1.5, -1.7e308, 5e-324, math.inf, -math.inf])
def test_to_json_matches_the_former_form(value):
    x = ExtReal(value)
    assert num(x.to_json()) == num(former_to_json(x))
