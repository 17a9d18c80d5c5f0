"""Raw payloads from the JSON to the JSON, against the expressions they replaced.

Three layers read and write raw payloads (Fraction or float) directly:
`ExtReal.from_json` reads "[-]n/d" strings without Fraction's regular
expression, `minorant._hull_walk` builds line values, intercepts and
breakpoint values through one line helper, and `cli._minorant_payload` and
`ExtReal.to_json` build only what is printed.  The functions below are the
former forms, kept verbatim as the reference; on inputs whose float
arithmetic does not overflow, each pair must agree on every value, by type
and repr, and on every error.
"""

import json
import math
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from seqreg import SequenceSpec, minorant
from seqreg.cli import _minorant_payload
from seqreg.errors import SeqRegError
from seqreg.extreal import NEG_INF, ZERO, ExtReal, RawNumber, ext, raw_add, raw_div, raw_mul
from seqreg.minorant import MinorantResult, SupportLine, _lower_hull, _tail_chords, regularize
from seqreg.piecewise import Breakpoint, Interval, PiecewiseLinearFn

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


def former_hull_walk(seq, vals, w, cap, extends):
    hull = _lower_hull(vals)
    raws = [v.raw for v in vals]
    cap_raw = cap.raw
    chord = _tail_chords(seq, w) if extends else None
    out = list(vals)
    edge_data: list[tuple[RawNumber, int, RawNumber, int]] = []  # (slope, P, a_P, q)
    stopped = False
    for i, (P, nP, dP) in enumerate(hull):
        if P == w - 1:
            break  # the window is covered; the tail is not asked from its last point
        aP = raws[P]
        best: Optional[tuple[RawNumber, int]] = None
        if i + 1 < len(hull):
            q, nq, dq = hull[i + 1]
            if type(aP) is Fraction and type(raws[q]) is Fraction:
                slope = Fraction(nq * dP - nP * dq, dq * dP * (q - P))
            else:
                slope = raw_div(raw_add(raws[q], -aP), q - P)
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
        value = ExtReal(raw_add(raw_mul(slope, first), -a_first))
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


def former_minorant_payload(result: MinorantResult) -> dict:
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
    """MinorantResult (or error) of the walk as it is and of the former walk."""
    seq = SequenceSpec.from_json(doc)
    new = outcome(regularize, seq, window)
    with mock.patch.object(minorant, "_hull_walk", former_hull_walk):
        old = outcome(regularize, seq, window)
    return new, old


def walk_key(r: MinorantResult):
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
