"""The integer oracles against the Fraction loops they replaced.

`brute_minorant` and `brute_trace` scale the values once by the lcm of their
denominators and compare integer pairs.  The former `Fraction` bodies are kept
here verbatim as the references: on every input kind the oracles take (exact
rationals large and small, floats on a 1/8 grid and at the float range's ends,
+inf entries, caps of every kind, far points past the window) the results must
match by type and repr, or both raise the same exception type.
"""

import sys
from fractions import Fraction
from typing import Sequence

from hypothesis import given, settings, strategies as st

from seqreg import POS_INF, ExtReal, brute_minorant, brute_trace, ext


# -- the references ------------------------------------------------------------


def ref_rationalize_allow_pos_inf(values: Sequence, what: str) -> list:
    out = []
    for i, v in enumerate(values):
        e = ext(v)
        if e.is_pos_inf:
            out.append(None)
            continue
        if not e.is_finite:
            raise ValueError(f"{what} must avoid -inf, got {e} at index {i}")
        raw = e.raw
        out.append(raw if isinstance(raw, Fraction) else Fraction(raw))
    return out


def ref_brute_minorant(a: Sequence, slope_cap=None, beyond: Sequence = ()) -> list:
    vals = ref_rationalize_allow_pos_inf(a, "oracle input")
    n = len(vals)
    if n == 0:
        return []
    if vals[0] is None:
        raise ValueError("oracle input needs a finite anchor a_0")
    cap = None
    if slope_cap is not None:
        cap_e = ext(slope_cap)
        if cap_e.is_finite:
            raw = cap_e.raw
            cap = raw if isinstance(raw, Fraction) else Fraction(raw)
    finite = [(p, v) for p, v in enumerate(vals) if v is not None]
    far = ref_rationalize_allow_pos_inf([v for _, v in beyond], "oracle input")
    finite += [(q, v) for (q, _), v in zip(beyond, far) if v is not None]
    reach = n if cap is not None else min(n, finite[-1][0] + 1)
    if len(finite) == 1:
        line = [vals[0]] + [vals[0] + cap * p for p in range(1, reach)]
        return [ext(v) for v in line] + [POS_INF] * (n - reach)

    lines = []
    for i, (p, vp) in enumerate(finite):
        for q, vq in finite[i + 1:]:
            k = Fraction(vq - vp, q - p)
            if cap is not None and k > cap:
                continue
            lines.append((k, vp - k * p))
    if cap is not None:
        for p, vp in finite:
            lines.append((cap, vp - cap * p))
    admissible = [
        (k, d) for (k, d) in lines if all(k * q + d <= vq for q, vq in finite)
    ]
    route_one = [max(k * p + d for (k, d) in admissible) for p in range(reach)]

    slopes = {
        Fraction(vq - vp, q - p)
        for i, (p, vp) in enumerate(finite)
        for q, vq in finite[i + 1:]
    }
    if cap is not None:
        slopes = {k for k in slopes if k <= cap}
        slopes.add(cap)
    traces = {k: max(q * k - vq for q, vq in finite) for k in slopes}
    route_two = []
    for p in range(reach):
        best = None
        for k, trace in traces.items():
            cand = k * p - trace
            if best is None or cand > best:
                best = cand
        route_two.append(best)

    assert route_one == route_two
    return [ext(v) for v in route_one] + [POS_INF] * (n - reach)


def ref_brute_trace(vals, slopes):
    """The direct sup as the trace command computed it inline."""
    return [max(ext(p) * k - v for p, v in enumerate(vals) if v.is_finite) for k in slopes]


def outcome(fn, *args, **kwargs):
    """fn's result by type and repr, or the type of what it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)
    return [(type(v), type(v.raw), repr(v)) for v in result]


# -- the inputs ----------------------------------------------------------------

EXACT = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=97),
    st.fractions(min_value=-100, max_value=100, max_denominator=97).map(
        lambda x: x * Fraction(10**30, 7)),
    st.fractions(min_value=-100, max_value=100, max_denominator=97).map(
        lambda x: x * Fraction(1, 2**60)),
)
FLOATS = st.one_of(
    st.integers(-800, 800).map(lambda k: k / 8),
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 5e-324]),
)
FINITE = st.one_of(EXACT, FLOATS)
ENTRIES = st.one_of(FINITE, FINITE, FINITE, st.just(float("inf")))
CAPS = st.one_of(st.none(), EXACT, FLOATS, st.sampled_from([float("inf"), float("-inf")]))


@st.composite
def minorant_inputs(draw):
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    entry = {"exact": st.one_of(EXACT, EXACT, EXACT, st.just(float("inf"))),
             "float": st.one_of(FLOATS, FLOATS, FLOATS, st.just(float("inf"))),
             "mixed": ENTRIES}[kind]
    a = draw(st.lists(entry, min_size=1, max_size=12))
    beyond = []
    q = len(a)
    for _ in range(draw(st.integers(0, 2))):
        q += draw(st.integers(0, 20))
        beyond.append((q, draw(entry)))
        q += 1
    return a, draw(CAPS), beyond


@given(minorant_inputs())
@settings(max_examples=400, deadline=None)
def test_integer_minorant_matches_the_fraction_loop(case):
    a, cap, beyond = case
    assert outcome(brute_minorant, a, slope_cap=cap, beyond=beyond) == \
        outcome(ref_brute_minorant, a, slope_cap=cap, beyond=beyond)


@st.composite
def trace_inputs(draw):
    value = draw(st.sampled_from([EXACT, EXACT, FLOATS, FINITE]))
    slope = draw(st.sampled_from([EXACT, EXACT, FLOATS, FINITE]))
    infinite = st.sampled_from([float("inf"), float("-inf")])
    vals = draw(st.lists(st.one_of(value, value, value, infinite), min_size=0, max_size=12))
    slopes = draw(st.lists(slope, min_size=0, max_size=10))
    return [ExtReal(v) for v in vals], [ExtReal(k) for k in slopes]


@given(trace_inputs())
@settings(max_examples=400, deadline=None)
def test_integer_trace_matches_the_inline_sup(case):
    vals, slopes = case
    assert outcome(brute_trace, vals, slopes) == outcome(ref_brute_trace, vals, slopes)


# -- the integer path is the one taken ----------------------------------------------


def count_fractions(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the number of Fractions built meanwhile."""
    new = Fraction.__new__.__code__
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code is new:
            built += 1

    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return result, built


def rough(n):
    return [Fraction(p * p, 4) + Fraction((p * 7919) % 13, 3 + p % 5) for p in range(n)]


def test_integer_minorant_builds_one_fraction_per_output_and_route():
    a = rough(20)
    for cap, beyond in ((None, ()), (Fraction(7, 3), ()), (None, [(30, Fraction(500, 7))])):
        got, built = count_fractions(brute_minorant, a, slope_cap=cap, beyond=beyond)
        assert got == ref_brute_minorant(a, slope_cap=cap, beyond=beyond)
        assert built == 2 * len(a)


def test_integer_trace_builds_one_fraction_per_slope():
    vals = [ExtReal(v) for v in rough(20)] + [POS_INF]
    slopes = [ExtReal(Fraction(k, 7)) for k in range(-20, 80, 3)]
    got, built = count_fractions(brute_trace, vals, slopes)
    assert got == ref_brute_trace(vals, slopes)
    assert built == len(slopes)
