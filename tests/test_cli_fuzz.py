"""Generated documents through every front end: `classify`, `minorant`, `trace`,
`assoc`, `phireg` and `compare`.

Each document mixes int, "p/q", decimal and "inf" prefix entries on either
scale, with a tail of every type and sometimes a declared regime.  `assoc`
also gets `--grid` and `--loggrid` specs, `phireg --emit csv` `--grid` and
`--extended`, and `phireg` and `compare` every phi descriptor, with
parameters from tiny to past the float range.  Run in process through
click's test runner, every invocation must end with exit code 0, 1, 2 or 3
within its time budget, and raise nothing else.  An exit 2 must not come from
evaluating a function outside its domain: the CLI only evaluates functions it
built itself, so such an error is a fault, not a precondition on the input.
"""

import json
import math
from datetime import timedelta
from fractions import Fraction

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from seqreg.cli import main

# entries as numbers: ints (some past the float range), rationals, floats
# (both zeros, the float range's ends) and both infinities
NUMBERS = st.one_of(
    st.integers(-1000, 1000), st.integers(-10**400, 10**400),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2000, 2000).map(lambda k: k / 10),
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 5e-324, math.inf, -math.inf]),
)


def to_json(x):
    """A number as a document holds it: "p/q" for a rational, "inf" and "-inf" strings."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


# spellings that the parser reads as Fraction(s) does, the last three refused
# (exit 1); one entry in four is one of them
SPELLED = st.sampled_from([" 3/4", "+3/4", "-0/7", "1_000/3", "\u0663/4", "1.5", "1e3",
                           "3 /4", "3/-4", "4/0"])
ENTRIES = st.integers(0, 3).flatmap(lambda k: SPELLED if k == 0 else NUMBERS.map(to_json))
# weights are non-negative; a negative one is a parse error, tested elsewhere
WEIGHTS = NUMBERS.map(abs).map(to_json)
# tail parameters, up to values whose exact powers no memory holds
POSITIVE = st.one_of(st.integers(1, 50),
                     st.sampled_from(["1/2", "3/2", "2/3", 0.5, 1e-300, 1e308, 10**400]))

FORMULAS = ["p*p", "p*p/4 - 3*p", "log(p+1)", "lgamma(p+1)", "exp(p)", "2**p", "p/3", "0-p",
            "inf", "sqrt(p)", "factorial(p)", "1e308*p", "0-1e308*p", "p**0.5"]

TAILS = st.one_of(
    st.just({"type": "explicit_only"}),
    st.fixed_dictionaries({"type": st.just("factorial_power"), "s": POSITIVE, "c": POSITIVE}),
    st.fixed_dictionaries({"type": st.just("geometric"), "d": POSITIVE}),
    st.fixed_dictionaries({"type": st.just("affine_log"), "c": ENTRIES}),
    st.fixed_dictionaries({"type": st.just("expression"), "formula": st.sampled_from(FORMULAS),
                           "native": st.sampled_from(["log", "weight"])}),
)

REGIMES = st.one_of(
    st.none(),
    st.fixed_dictionaries({"regime": st.sampled_from(["standard", "case1"])}),
    st.fixed_dictionaries({"regime": st.just("case2"), "a_iota": ENTRIES}),
)


# OutOfDomain texts (piecewise.py): an evaluation of a result outside its domain
OWN_DOMAIN_ERRORS = ("outside domain", "no value at -inf", "empty function")


def check_exit(res, doc, args):
    """A clean exit: one of the CLI's codes, and no exit 2 from evaluating its own result."""
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (doc, args, res.exc_info)
    assert res.exit_code in (0, 1, 2, 3), (doc, args, res.output)
    assert res.exit_code != 2 or not any(e in res.output for e in OWN_DOMAIN_ERRORS), \
        (doc, args, res.output)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["log", "weight"]))
    doc = {"kind": kind,
           "prefix": draw(st.lists(ENTRIES if kind == "log" else WEIGHTS, min_size=1, max_size=12)),
           "tail": draw(TAILS)}
    regime = draw(REGIMES)
    if regime is not None:
        doc["declared_regime"] = dict(regime, source="declared",
                                      evidence_window=[0, len(doc["prefix"])])
    return doc


@given(documents(), st.sampled_from(["minorant", "trace"]), st.integers(4, 24), st.booleans())
@settings(max_examples=300, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_front_ends_exit_cleanly(tmp_path, doc, command, window, verify):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = [command, "--window", str(window), str(path)]
    if verify and command == "minorant":
        args.insert(1, "--verify")
    res = CliRunner().invoke(main, args)
    check_exit(res, doc, args)


# grid ends and steps: small and non-dyadic rationals, decimals at both ends of
# the float range, and integers past it
GRID_NUMBERS = st.one_of(
    st.integers(-5, 20).map(Fraction),
    st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(-1, 2),
                     Fraction("1e-300"), Fraction("1e300"), Fraction(10**400)]),
)
GRID_STEPS = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction("0.1"),
                              Fraction("1e-300"), Fraction("1e300"), Fraction(10**400)])
BAD_GRIDS = st.sampled_from(["0:10", "1:0:1", "0:1:0", "0:1:-1", "a:b:c", "0:1/0:1",
                             "0:inf:1", "nan:1:1", "", "::"])
BAD_LOGGRIDS = st.sampled_from(["0:1:5", "-1:1:5", "2:1:3", "1:2:1", "1:2:0", "1:x:3",
                                "1:2", "1:2:2.5", "1/0:2:3", "inf:inf:3"])


@st.composite
def grids(draw):
    """A --grid spec, well formed (at most 40 points) or not."""
    if draw(st.integers(0, 4)) == 0:
        return draw(BAD_GRIDS)
    start, step = draw(GRID_NUMBERS), draw(GRID_STEPS)
    stop = start + step * draw(st.integers(0, 39))
    return f"{start}:{stop}:{step}"


@st.composite
def grid_options(draw):
    """--grid or --loggrid, well formed (at most 40 points) or not."""
    if draw(st.booleans()):
        return ["--grid", draw(grids())]
    if draw(st.integers(0, 4)) == 0:
        return ["--loggrid", draw(BAD_LOGGRIDS)]
    start = abs(draw(GRID_NUMBERS)) or Fraction(1)
    stop = start * abs(draw(GRID_NUMBERS)) + start
    return ["--loggrid", f"{start}:{stop}:{draw(st.integers(2, 40))}"]


@given(documents(), st.sampled_from(["classify", "assoc"]), grid_options(),
       st.sampled_from(["csv", "json"]), st.booleans(), st.integers(4, 24))
@settings(max_examples=300, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_classify_and_assoc_exit_cleanly(tmp_path, doc, command, grid, emit, verify, window):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = [command]
    if command == "assoc":
        args += grid + ["--emit", emit] + (["--verify"] if verify else [])
    args += ["--window", str(window), str(path)]
    res = CliRunner().invoke(main, args)
    check_exit(res, doc, args)


# phi parameters: small and non-dyadic rationals, decimals at both ends of the
# float range, and integers past it
PHI_NUMBERS = st.one_of(
    st.integers(-50, 50).map(str),
    st.sampled_from(["1/3", "-2/7", "0.5", "1e-300", "-1e-300", "1e308", "-1e308",
                     str(10**400), str(-10**400), "0"]),
)
PHI_PARAMS = st.one_of(PHI_NUMBERS, st.just("x"))


@st.composite
def phi_descriptors(draw):
    head = draw(st.sampled_from(["exp", "infinite", "expaffine", "blowup", "piecewise"]))
    if head in ("exp", "infinite"):
        return head
    if head == "expaffine":
        return f"expaffine:{draw(PHI_PARAMS)},{draw(PHI_PARAMS)}"
    if head == "blowup":
        return f"blowup:{draw(PHI_PARAMS)}"
    if draw(st.booleans()):  # knots that satisfy the axioms: values rise from 0
        xs = sorted(set(draw(st.lists(PHI_NUMBERS.map(Fraction), min_size=2, max_size=4))))
        rises = draw(st.lists(PHI_NUMBERS.map(Fraction).map(abs),
                              min_size=len(xs) - 1, max_size=len(xs) - 1))
        vs = [Fraction(0)]
        for r in rises:
            vs.append(vs[-1] + r)
        knots = list(zip(map(str, xs), map(str, vs)))
    else:
        knots = draw(st.lists(st.tuples(PHI_PARAMS, PHI_PARAMS), min_size=1, max_size=4))
    return "piecewise:[" + ",".join(f'["{x}","{v}"]' for x, v in knots) + "]"


# a_1 - a_0 overflows a float
OVERFLOWING_SLOPE = {"kind": "log", "prefix": [-1.7e308, 1.7e308],
                     "tail": {"type": "explicit_only"}}


@given(documents(), phi_descriptors(), phi_descriptors(),
       st.sampled_from(["json", "csv", "verify", "compare"]), st.integers(4, 24),
       st.one_of(st.none(), grids()), st.booleans())
@example(doc=OVERFLOWING_SLOPE, phi="exp", phi2="expaffine:1,1", mode="json", window=4,
         grid=None, extended=False)
@example(doc=OVERFLOWING_SLOPE, phi="exp", phi2="expaffine:1,1", mode="compare", window=4,
         grid=None, extended=False)
@settings(max_examples=300, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_phi_front_ends_exit_cleanly(tmp_path, doc, phi, phi2, mode, window, grid, extended):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if mode == "compare":
        args = ["compare", "--phi", phi, "--phi2", phi2]
    else:
        args = ["phireg", "--phi", phi, "--emit", "csv" if mode == "csv" else "json"]
        if mode == "verify":
            args.append("--verify")
        if mode == "csv" and grid is not None:  # the CSV's sample slopes
            args += ["--grid", grid]
        if mode == "csv" and extended:  # +inf outside J
            args.append("--extended")
    args += ["--window", str(window), str(path)]
    res = CliRunner().invoke(main, args)
    check_exit(res, doc, args)
