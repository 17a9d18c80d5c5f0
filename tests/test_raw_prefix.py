"""Raw prefix payloads from the parser to the printed JSON, against their specifications.

`SequenceSpec.from_json` keeps each prefix entry as the raw payload that
`ExtReal.from_json` reads, and builds the ExtReal entries of `prefix`,
`value` and `values` only when asked.  A closed-form tail reads a stretch of
indices in one call (`raw_values`), which must give `value(p, kind).raw` at
each index.  A minorant result fills its window in only when `regularized`
is asked for or printed, so `trace` never fills it.  Each is checked
against what it must equal: the entry-by-entry parse through the
constructor, the tail's single values, and the printed bytes of an
unpatched run; and no subcommand builds the trace, counting, interval or
segment objects to print.  The parse errors of whole documents (integers too
long to read, nesting too deep, a prefix that is not an array, a number that
cannot be read exactly or is past the float range, bytes that are not UTF-8)
exit 1 with one line.
"""

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import seqreg.minorant as minorant_mod
import seqreg.phireg as phireg_mod
from seqreg import SequenceSpec
from seqreg.cli import _minorant_payload, main
from seqreg.errors import ParseError
from seqreg.extreal import ExtReal
from seqreg.minorant import regularize
from seqreg.sequences import OnFirstRead
from seqreg.tails import LOG, WEIGHT, AffineLog, FactorialPower, Geometric, tail_from_json
from test_cli import run_cli
from test_cli_fuzz import NUMBERS, SPELLED, to_json
from test_raw_payloads import num

# -- parse ------------------------------------------------------------------------------

TAILS = [
    {"type": "explicit_only"},
    {"type": "factorial_power", "s": "3/2", "c": "1/2"},
    {"type": "geometric", "d": 3},
    {"type": "affine_log", "c": "-7/3"},
    {"type": "expression", "formula": "p*p/4"},
]


def entrywise(doc: dict):
    """SequenceSpec.from_json as specified: each entry read by ExtReal.from_json,
    the spec built by the constructor, a ValueError reported as a ParseError."""
    try:
        prefix = tuple(ExtReal.from_json(v) for v in doc["prefix"])
        return SequenceSpec(doc["kind"], prefix, tail_from_json(doc["tail"]))
    except ValueError as exc:
        return ParseError(f"bad sequence payload: {exc}")


def spec_key(spec, window: int):
    """(kind, prefix, values(window), raw_values(window)) by type and repr, or the error."""
    if isinstance(spec, Exception):
        return type(spec).__name__, str(spec)
    return (spec.kind, [num(v) for v in spec.prefix], [num(v) for v in spec.values(window)],
            [num(v) for v in spec.raw_values(window)])


def parsed(doc: dict):
    try:
        return SequenceSpec.from_json(doc)
    except ParseError as exc:
        return exc


# entries as test_cli_fuzz spells them; weights non-negative but for the examples
ENTRIES = {LOG: st.one_of(SPELLED, NUMBERS.map(to_json)),
           WEIGHT: st.one_of(SPELLED, NUMBERS.map(abs).map(to_json))}


@given(data=st.data(), kind=st.sampled_from([LOG, WEIGHT]), tail=st.sampled_from(TAILS),
       extra=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_from_json_matches_the_entrywise_parse(data, kind, tail, extra):
    entries = data.draw(st.lists(ENTRIES[kind], max_size=10))
    check_parse(kind, entries, tail, extra)


@pytest.mark.parametrize("kind, entries", [
    (WEIGHT, [1, "-1/2"]), (WEIGHT, [1, -2]), (WEIGHT, [1, "-inf"]), (WEIGHT, [0, "inf"]),
    (LOG, []), (LOG, [0, True]), (LOG, [0, None]), (LOG, [0, [1]]), (LOG, [0, math.nan]),
    (LOG, ["1/" + "9" * 5000]), (LOG, [-0.0, "-0/7", "1e3"])])
def test_from_json_matches_the_entrywise_parse_on_edges(kind, entries):
    for tail in TAILS[:2]:
        check_parse(kind, entries, tail, 2)


def check_parse(kind: str, entries: list, tail: dict, extra: int) -> None:
    doc = {"kind": kind, "prefix": entries, "tail": tail}
    window = len(entries) + (extra if tail["type"] != "explicit_only" else 0)
    assert spec_key(parsed(doc), window) == spec_key(entrywise(doc), window)


def test_from_json_builds_no_extreal_per_entry(monkeypatch):
    built = []
    init = ExtReal.__init__

    def counting(self, value):
        built.append(value)
        init(self, value)

    monkeypatch.setattr(ExtReal, "__init__", counting)
    doc = {"kind": "log", "prefix": [p * p if p % 3 else f"{p}/7" for p in range(64)],
           "tail": {"type": "factorial_power", "s": 1, "c": "1/2"}}
    spec = SequenceSpec.from_json(doc)
    assert len(built) < 8  # the tail's two parameters, not the 64 entries
    assert len(spec.raw_values(80)) == 80 and len(built) < 8
    assert [num(v) for v in spec.prefix] == [num(ExtReal.from_json(v)) for v in doc["prefix"]]


# -- tails ------------------------------------------------------------------------------

CLOSED_FORMS = [
    {"type": "factorial_power", "s": s, "c": c}
    for s in (1, 2, "1/2", "3/2", 10**400) for c in (1, "1/2", 3, 10**400)
] + [
    {"type": "geometric", "d": d} for d in (1, 2, "1/3", "5/2", 10**400, "1/" + "7" * 400)
] + [
    {"type": "affine_log", "c": c} for c in (0, "5/2", "-7/3", 10**400)
]


def single(tail, p: int, kind: str):
    try:
        return num(tail.value(p, kind))
    except ParseError as exc:  # an exact weight past the bit budget
        return "ParseError", str(exc)


def batch(tail, start: int, stop: int, kind: str):
    try:
        return [num(v) for v in tail.raw_values(start, stop, kind)]
    except ParseError as exc:
        return "ParseError", str(exc)


def short(payload: dict) -> str:
    return "-".join(str(v)[:8] for v in payload.values())


@pytest.mark.parametrize("payload", CLOSED_FORMS, ids=short)
@pytest.mark.parametrize("kind", [LOG, WEIGHT])
def test_tail_window_matches_the_single_values(payload, kind):
    tail = tail_from_json(payload)
    for start, stop in ((0, 1), (1, 2), (0, 12), (5, 9), (40, 44), (300, 303)):
        want = [single(tail, p, kind) for p in range(start, stop)]
        errors = [v for v in want if v[0] == "ParseError"]
        assert batch(tail, start, stop, kind) == (errors[0] if errors else want)


@pytest.mark.parametrize("tail", [AffineLog(c=1), AffineLog(c=-2), AffineLog(c=0.5),
                                  Geometric(d=1), Geometric(d=2), FactorialPower(s=2, c=1)],
                         ids=repr)
@pytest.mark.parametrize("kind", [LOG, WEIGHT])
def test_tails_built_from_ints_read_exact_windows(tail, kind):
    """A tail built directly, with int parameters, gives the payloads its single
    values give: Fractions, never ints, which raw_div would divide as floats."""
    want = [single(tail, p, kind) for p in range(12)]
    got = tail.raw_values(0, 12, kind)
    assert [num(v) for v in got] == want
    assert {type(v) for v in got} <= {Fraction, float}


@pytest.mark.parametrize("payload", CLOSED_FORMS[:4] + CLOSED_FORMS[-5:], ids=short)
def test_spec_window_reads_the_tail_past_the_prefix(payload):
    spec = SequenceSpec.from_json({"kind": "log", "prefix": [0, "1/2"], "tail": payload})
    assert [num(v) for v in spec.raw_values(9)] == \
        [num(v) for v in spec.prefix] + [num(spec.tail.value(p, LOG)) for p in range(2, 9)]


# -- regularized on demand --------------------------------------------------------------

ROUGH = [Fraction(p * p, 4) + Fraction((p * 37) % 11 - 5, 8) for p in range(64)]
DOCUMENTS = [
    {"kind": "log", "prefix": [to_json(v) for v in ROUGH], "tail": {"type": "explicit_only"}},
    {"kind": "log", "prefix": [0, 1.5, "7/3", 9, 2.5, 30], "tail": {"type": "explicit_only"}},
    {"kind": "log", "prefix": [0, 3, 2], "tail": {"type": "factorial_power", "s": 1, "c": 1}},
    {"kind": "log", "prefix": [0, "inf", 4, 5.5], "tail": {"type": "affine_log", "c": "3/2"}},
    {"kind": "weight", "prefix": [1, 3, "1/2", 8, 100, 0.25, 900],
     "tail": {"type": "explicit_only"}},
    {"kind": "weight", "prefix": [2, 1], "tail": {"type": "factorial_power", "s": 2, "c": 1}},
]


def write(tmp_path, doc: dict, name: str = "doc.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_regularized_on_demand_equals_the_printed_one(tmp_path, doc):
    window = 16 if doc["tail"]["type"] != "explicit_only" else 64
    res = CliRunner().invoke(main, ["minorant", "--window", str(window), write(tmp_path, doc)])
    assert res.exit_code == 0, res.output
    printed = json.loads(res.stdout)["regularized"]
    seq = SequenceSpec.from_json(doc)
    asked_first = regularize(seq, window)
    built = [v.to_json() for v in asked_first.regularized.prefix]
    printed_first = regularize(seq, window)
    assert [num(v) for v in _minorant_payload(printed_first)["regularized"]] == \
        [num(v) for v in built] == [num(v) for v in printed]
    assert printed_first.regularized == asked_first.regularized
    assert asked_first.regularized.kind == doc["kind"]


@pytest.mark.parametrize("doc", DOCUMENTS[:4])
def test_trace_does_not_fill_the_window(tmp_path, monkeypatch, doc):
    path = write(tmp_path, doc)
    args = ["trace", "--window", "64", path]
    unpatched = CliRunner().invoke(main, args)
    assert unpatched.exit_code == 0, unpatched.output

    def refuse(*_):
        raise AssertionError("trace filled the window")

    monkeypatch.setattr(minorant_mod, "_integer_fill", refuse)
    patched = CliRunner().invoke(main, args)
    assert patched.exit_code == 0, patched.output
    assert patched.stdout_bytes == unpatched.stdout_bytes
    with pytest.raises(AssertionError, match="filled"):  # the guard does guard
        CliRunner().invoke(main, ["minorant", "--window", "64", path], catch_exceptions=False)


# each subcommand that prints from the record core, with its phis and formats
PRINTING = ([["phireg", "--phi", phi, *emit] for phi in ("exp", "blowup:3", "infinite")
             for emit in ([], ["--emit", "csv"])]
            + [["compare", "--phi", "exp", "--phi2", "expaffine:1,1"], ["minorant"], ["trace"]])
COLLAPSING = {"kind": "log", "prefix": [0, 5, "-inf", 2], "tail": {"type": "explicit_only"}}


@pytest.mark.parametrize("doc", DOCUMENTS[:4] + [COLLAPSING])
def test_printing_builds_no_record_objects(tmp_path, monkeypatch, doc):
    """phireg, compare, minorant and trace print from the raw record core: with
    the trace, counting, interval and segment types refusing to be built, each
    run exits as before with the same bytes."""
    path = write(tmp_path, doc)
    runs = [[*args, "--window", "16", path] for args in PRINTING]
    unpatched = [CliRunner().invoke(main, args) for args in runs]

    def refuse(*_, **__):
        raise AssertionError("a record object was built to print")

    monkeypatch.setattr(minorant_mod, "PiecewiseLinearFn", refuse)
    for name in ("StepFunction", "PhiInterval", "PhiSegment"):
        monkeypatch.setattr(phireg_mod, name, refuse)
    for args, before in zip(runs, unpatched):
        after = CliRunner().invoke(main, args)
        assert (after.exit_code, after.stdout_bytes) == (before.exit_code, before.stdout_bytes), \
            (args, after.output)
    if doc is not COLLAPSING:  # the guard does guard: --verify reads the objects
        for args in (["phireg", "--verify"], ["trace", "--verify"]):
            with pytest.raises(AssertionError, match="record object"):
                CliRunner().invoke(main, [*args, "--window", "16", path], catch_exceptions=False)


def test_a_field_built_on_first_read_keeps_its_build_errors():
    """The build's own AttributeError surfaces as is, not as a missing field;
    a given value is kept, and the field stays a required one."""

    @dataclass(frozen=True)
    class Box:
        v: object = OnFirstRead(lambda box: box.missing)

    with pytest.raises(AttributeError, match="'missing'"):
        Box(None).v
    assert Box(3).v == 3
    assert fields(Box)[0].default is MISSING


# -- whole-document parse errors --------------------------------------------------------

LONG_INTEGER = '{"kind":"log","prefix":[0,' + "9" * 5000 + ',3],"tail":{"type":"explicit_only"}}'
DEEP = "[" * 100_000


@pytest.mark.parametrize("text, message", [
    (LONG_INTEGER, "digits"),
    (DEEP, "nest"),
    ('{"kind":"weight","prefix":"1234"}', "prefix must be a list"),
    ('{"kind":"log","prefix":{"0":1,"5":2,"1":3}}', "prefix must be a list"),
    # a string's exponent past 2^20 bits of power of ten: refused, not built
    ('{"kind":"log","prefix":[0,"1e400000",5,9]}', "power of ten exceeds 1048576 bits"),
    # float literals past the float range and the non-JSON constants
    ('{"kind":"log","prefix":[0,1e400,5,9]}', 'such as "1e400" reads exactly'),
    ('{"kind":"log","prefix":[0,Infinity,5,9]}', "literal Infinity"),
    (b'{"kind":"log","prefix":[0,\xff5,9]}', "not UTF-8: byte 0xff at offset 26"),
], ids=["long-integer", "deep-nesting", "string-prefix", "object-prefix", "long-exponent",
        "float-overflow", "infinity-constant", "not-utf8"])
def test_document_parse_errors_exit_1_in_one_line(tmp_path, text, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    good = write(tmp_path, DOCUMENTS[1], "good.json")
    res = run_cli(tmp_path, DOCUMENTS[1], "minorant", str(bad))  # input.json is good.json
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    (line,) = res.stderr.splitlines()
    assert f"{bad}: parse error:" in line and message in line
    # the good document after the bad one still prints
    assert res.stdout == CliRunner().invoke(main, ["minorant", good]).stdout


def test_long_integer_names_the_limit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(LONG_INTEGER)
    res = CliRunner().invoke(main, ["minorant", str(bad)])
    assert res.exit_code == 1
    assert f"{sys.get_int_max_str_digits()} digits" in res.stderr


# 10^-5000 reads exactly, but its denominator has more digits than Python prints
UNPRINTABLE = {"kind": "log", "prefix": [0, "1e-5000", 5, 9, "1e-5000"],
               "tail": {"type": "explicit_only"}}


@pytest.mark.parametrize("args", [
    ("minorant",), ("minorant", "--verify"), ("trace",), ("trace", "--verify"),
    ("phireg",), ("phireg", "--phi", "infinite", "--verify"),
    ("phireg", "--emit", "csv", "--verify"),
], ids=["minorant", "minorant-verify", "trace", "trace-verify", "phireg", "phireg-verify",
        "phireg-csv-verify"])
def test_an_unprintable_exact_value_is_one_parse_error(tmp_path, args):
    bad = write(tmp_path, UNPRINTABLE, "bad.json")
    good = write(tmp_path, DOCUMENTS[1], "good.json")
    res = CliRunner().invoke(main, [*args, bad, good])
    assert res.exit_code == 1
    assert "Traceback" not in res.stderr and res.exception is not None
    (line,) = res.stderr.splitlines()
    assert f"{bad}: parse error:" in line
    assert f"{sys.get_int_max_str_digits()} digits, Python's limit for printing" in line
    assert res.stdout == CliRunner().invoke(main, [*args, good]).stdout


def test_an_unprintable_value_in_json_raises_a_parse_error():
    with pytest.raises(ParseError, match="limit for printing"):
        ExtReal("1e-5000").to_json()
    assert ExtReal("1e-4000").to_json() == "1/1" + "0" * 4000


def test_a_prefix_tuple_still_parses():
    spec = SequenceSpec.from_json({"kind": "log", "prefix": (0, "1/2", 1.5, math.inf)})
    assert [num(v) for v in spec.prefix] == \
        [num(Fraction(0)), num(Fraction(1, 2)), num(1.5), num(math.inf)]
