"""Raw payloads from the JSON to the JSON, against their specifications.

`ExtReal.from_json` reads "[-]n/d" strings without Fraction's regular
expression, `ExtReal.to_json` writes the canonical number forms, and
`cli._minorant_payload` builds only the keys `minorant` prints, from the
result's record core.  Each is checked against what it must equal: a string
reads as the inf spellings or as `Fraction` reads it after stripping, short
of a power of ten past 2^20 bits, with every error a ValueError; a number
writes as an int, "n/d", a float or "inf"; and the printed payload is the
selection of those keys from `to_json()`.  The minorant behind the payload
runs against the hull kernel's reference walk (`test_hull_kernel.check_walk`)
on documents parsed from JSON.
"""

import math
from fractions import _RATIONAL_FORMAT, Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from seqreg import SequenceSpec, to_log_scale
from seqreg.cli import _minorant_payload
from seqreg.extreal import ExtReal
from seqreg.minorant import regularize
from test_hull_kernel import canonical, check_walk

_POS, _NEG = math.inf, -math.inf


def fraction_route(payload) -> ExtReal:
    """ExtReal.from_json as specified: an int, float or Fraction as itself, a
    string as the inf spellings or what Fraction reads after stripping, except
    that a literal whose power of ten would exceed 2^20 bits is refused."""
    if isinstance(payload, (int, float, Fraction)) and not isinstance(payload, bool):
        return ExtReal(payload)
    if not isinstance(payload, str):
        raise ValueError(f"cannot parse extended real from {payload!r}")
    s = payload.strip()
    if s.lower() in ("inf", "+inf", "infinity"):
        return ExtReal(_POS)
    if s.lower() in ("-inf", "-infinity"):
        return ExtReal(_NEG)
    try:
        m = _RATIONAL_FORMAT.match(s)  # Fraction's own grammar
        huge = m is not None and m["exp"] is not None and abs(int(m["exp"])) * math.log2(10) > 2**20
        if not huge:
            return ExtReal(Fraction(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad number literal {payload!r}") from exc
    raise ValueError(f"bad number literal {payload!r}: its power of ten exceeds {2**20} bits")


def json_number(x: ExtReal):
    """The canonical JSON form: "inf"/"-inf", an int for an integral Fraction,
    "n/d" for any other Fraction, and a finite float as itself."""
    if x.is_pos_inf or x.is_neg_inf:
        return "inf" if x.is_pos_inf else "-inf"
    v = x.raw
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def num(x):
    """(type, repr) of a payload: 1 == 1.0 and 0.0 == -0.0 are no match.  A
    Fraction is keyed by its two integers, which repr cannot print past 4300 digits."""
    raw = x.raw if isinstance(x, ExtReal) else x
    if type(raw) is Fraction:
        return "Fraction", raw.numerator, raw.denominator
    return type(raw).__name__, repr(raw)


# -- parse ------------------------------------------------------------------------------

SPELLINGS = [" 3/4", "+3/4", "-0/7", "1_000/3", "3 /4", "3/-4", "4/0", "٣/4", "1.5", "1e3",
             "3/4", "-3/4", "03/4", "3/04", "-/4", "3/", "/4", "--3/4", "3/4/5", "-3/4 ",
             "inf", "-Infinity", "", "1/" + "9" * 5000, "7", "1e315652", "-1E-315_652",
             "1e315653", " 1.5E-0400000 ", "e1000000", "1/2e1000000", "1e" + "9" * 5000]


def parse_key(parse, payload):
    try:
        return num(parse(payload))
    except ValueError as exc:
        return "ValueError", str(exc)


@pytest.mark.parametrize("text", SPELLINGS)
def test_parse_matches_the_fraction_route(text):
    assert parse_key(ExtReal.from_json, text) == parse_key(fraction_route, text)


@given(st.one_of(
    st.from_regex(r"\s?[-+]?[0-9_٣]{0,4}\s?/\s?[-+]?[0-9_]{0,3}\s?", fullmatch=True),
    st.text(alphabet="0123456789-+/_ .e٣", max_size=10),
    st.integers(-10**30, 10**30), st.fractions(), st.floats(allow_nan=False), st.booleans()))
@example("1e10000")  # a Fraction of 10,001 digits
@example("e1000000")  # no mantissa: malformed, whatever the exponent
@settings(max_examples=500, deadline=None)
def test_parse_matches_the_fraction_route_on_drawn_forms(payload):
    assert parse_key(ExtReal.from_json, payload) == parse_key(fraction_route, payload)


# -- walk and payload -------------------------------------------------------------------

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
    """A JSON document, with a declared Case 2 cap on some explicit windows,
    and a window that may run past an explicit prefix."""
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


# the keys minorant prints, as to_json() names them; the trace's breakpoints
# are printed as "trace_breakpoints"
PRINTED = ("regularized", "principal_indices", "slopes", "regime", "stable_prefix",
           "provisional_from", "scale", "window")


def assert_printed_selection(result):
    full = result.to_json()
    selected = {k: full[k] for k in PRINTED}
    selected["trace_breakpoints"] = full["trace"]["breakpoints"]
    assert canonical(_minorant_payload(result)) == canonical(selected)


@pytest.mark.parametrize("entries", sorted(STEPS))
@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_walk_matches_the_former_expressions(entries, data):
    doc, window = data.draw(documents(entries))
    got = check_walk(SequenceSpec.from_json(doc), window)
    if not isinstance(got, tuple):
        assert_printed_selection(got)


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
    seq = SequenceSpec.from_json(doc)
    log = check_walk(to_log_scale(seq), 8)
    got = regularize(seq, 8)
    if seq.kind == "weight":  # principal weights as given, the others exp of the log result
        principal = set(log.principal_indices)
        want = [seq.value(p) if p in principal else v.exp()
                for p, v in enumerate(log.regularized.prefix)]
        assert [num(v) for v in got.regularized.prefix] == [num(v) for v in want]
        assert principal and len(principal) < len(want)
    assert_printed_selection(got)


# -- emit -------------------------------------------------------------------------------


@pytest.mark.parametrize("value", [
    Fraction(3), Fraction(-7, 3), Fraction(0), Fraction(10**400), Fraction(1, 10**400),
    0.0, -0.0, 1.5, -1.7e308, 5e-324, math.inf, -math.inf])
def test_to_json_matches_the_former_form(value):
    x = ExtReal(value)
    assert num(x.to_json()) == num(json_number(x))
