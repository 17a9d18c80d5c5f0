"""The integer fill against filling with one Fraction per value.

Between principal indices every regularized value lies on a line (P, slope,
end).  minorant._integer_fill gives an exact line's values as integer pairs,
and the printed JSON, the library's ``regularized`` and ``compare`` read
them.  Here each is checked against the same window filled by
extreal.raw_line, one Fraction per value, and printed by raw_json:
on exact, float, mixed, +inf-holed, weight-scale, Case 1, Case 2, factorial-
and affine-tail windows, whose lines cross 0 and whose common denominators
divide some numerators.  The document parser's int and "n/d" paths are
checked against Fraction's grammar on edge spellings.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqreg import (CASE2, AffineLog, ExplicitOnly, FactorialPower, RegimeClassification,
                    SequenceSpec, ext, make_phi, regularize_with_phi)
from seqreg.errors import ParseError, SeqRegError
from seqreg.extreal import raw_exp, raw_json, raw_line
from seqreg.minorant import _pair, _read, _window_values, regularize
from seqreg.phireg import _core, _larger, _leq, compare_regularizations
from seqreg.sequences import to_log_scale
from seqreg.tails import LOG

PHIS = ["exp", "expaffine:1/3,2", "blowup:3", "blowup:40", "infinite",
        "piecewise:[[-2,0],[-1,2],[0,2],[1,5]]"]


def fraction_fill(raws, lines):
    """The window with each line filled in by raw_line: one Fraction per exact value."""
    out = list(raws)
    for P, slope, end in lines:
        at = raw_line(out[P], slope, P)
        out[P + 1:end] = [at(p) for p in range(P + 1, end)]
    return out


def same(xs, ys):
    return [(type(x), repr(x)) for x in xs] == [(type(y), repr(y)) for y in ys]


def fraction_compare(seq, phi1, phi2, window, tol=1e-9):
    """compare's three checks on the Fraction fill of each construction."""
    label = _larger(phi1, phi2)
    big, small = (phi1, phi2) if label == "phi1" else (phi2, phi1)
    log_seq = to_log_scale(seq)
    _, vals = _window_values(log_seq, window)
    read = _read(vals)
    x = [_pair(v) for v in vals]
    x_big, x_small, x_floor = (
        [_pair(v) for v in fraction_fill(vals, _core(log_seq, read, phi, window, tol)[1].lines)]
        for phi in (big, small, make_phi("infinite")))
    bad = [p for p in range(len(vals))
           if not (_leq(x_big[p], x_small[p], tol) and _leq(x_small[p], x[p], tol)
                   and _leq(x_floor[p], x_big[p], tol) and _leq(x_big[p], x[p], tol))]
    return label, min(bad, default=None)


@st.composite
def windows(draw):
    """A sequence and a window: a rough or convex exact base, made float,
    mixed, holed, weight-scale, collapsing, capped or given a closed-form tail."""
    form = draw(st.sampled_from(["exact", "exact", "float", "mixed", "holed", "weight",
                                 "case1", "case2", "factorial", "affine"]))
    n = draw(st.integers(2, 24))
    dens = st.sampled_from([1, 1, 2, 3, 4, 7, 12])
    noise = draw(st.lists(st.builds(Fraction, st.integers(-40, 40), dens), min_size=n, max_size=n))
    curve, drift = draw(st.sampled_from([0, 1, 3])), draw(st.integers(-6, 2))
    # a falling start makes lines that cross 0
    vals = [v + Fraction(curve * p * p, 4) + drift * p for p, v in enumerate(noise)]
    kind, tail, declared, window = LOG, ExplicitOnly(), None, None
    if form == "float":
        vals = [float(v) for v in vals]
    elif form == "mixed":
        vals = [float(v) if draw(st.booleans()) else v for v in vals]
    elif form == "holed":
        for p in draw(st.lists(st.integers(1, n - 1), max_size=3)):
            vals[p] = math.inf
    elif form == "weight":
        kind = "weight"
        vals = [abs(v) + 1 if p % 3 else float(abs(v) + 1) for p, v in enumerate(vals)]
    elif form == "case1" and n > 1:
        vals[draw(st.integers(1, n - 1))] = -math.inf
    elif form == "case2":
        a_iota = ext(draw(st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(7, 3), 10])))
        declared = RegimeClassification(CASE2, a_iota, (0, n), "declared")
    elif form in ("factorial", "affine"):
        vals = vals[:draw(st.integers(1, 6))]
        tail = (FactorialPower(s=draw(st.sampled_from([Fraction(1), Fraction(2)])), c=Fraction(1, 3))
                if form == "factorial" else AffineLog(c=draw(st.sampled_from([Fraction(1, 2), 2]))))
        window = draw(st.integers(4, 24))
    if isinstance(tail, ExplicitOnly) and draw(st.booleans()):
        window = draw(st.integers(4, max(4, n)))
    return SequenceSpec(kind=kind, prefix=tuple(vals), tail=tail,
                        declared_regime=declared), window


@given(windows())
@settings(max_examples=300, deadline=None)
def test_minorant_fill_equals_the_fraction_fill(case):
    seq, window = case
    try:
        result = regularize(seq, window)
    except SeqRegError:
        return
    base = result if seq.kind == LOG else regularize(to_log_scale(seq), window)
    want = fraction_fill(base._vals, base._built.lines)
    assert same(base._out, want)
    assert same(base.regularized._raws, want)
    if seq.kind == LOG:
        assert result._printed()["regularized"] == [raw_json(v) for v in want]
        return
    weights = [raw_exp(v) for v in want]  # exponentiated, the entries kept where principal
    for p in result.principal_indices:
        weights[p] = seq.value(p).raw
    assert same(result.regularized._raws, weights)
    assert result._printed()["regularized"] == [raw_json(v) for v in weights]


@given(windows(), st.sampled_from(PHIS), st.sampled_from(PHIS))
@settings(max_examples=300, deadline=None)
def test_phireg_and_compare_fill_equal_the_fraction_fill(case, d1, d2):
    seq, window = case
    phi1, phi2 = make_phi(d1), make_phi(d2)
    try:
        result = regularize_with_phi(seq, phi1, window)
    except SeqRegError:
        result = None
    if result is not None:
        want = fraction_fill(result._vals, result._built.lines)
        assert same(result.regularized._raws, want)
        assert result.to_json()["regularized"] == [raw_json(v) for v in want]
    try:
        report = compare_regularizations(seq, phi1, phi2, window)
    except SeqRegError:
        return
    assert (report.larger, report.witness_index) == fraction_compare(seq, phi1, phi2, window)


# extreal.raw_from_json reads an int as one Fraction and an ASCII "[-]n/d"
# without Fraction's regular expression (_parse_number); both must read as
# Fraction's own grammar does, and a string it refuses, "1/0" included, is
# one "bad number literal" error
SPELLINGS = ["1/0", "0/0", "1/00", "-0/5", "+1/2", " 1/2", "1/2 ", "1_0/3", "١/٢",
             "１/2", "-7/2", "12", "-3", "9" * 4301, "9" * 4301 + "/7",
             10 ** 4301 - 1, -(10 ** 4301), 0, -5, True, None]


def read_reference(x):
    """The prefix entry x as Fraction reads it, or the parse error's text."""
    if type(x) is int:
        return Fraction, Fraction(x)
    if type(x) is not str:
        return "error", f"bad sequence payload: cannot parse extended real from {x!r}"
    try:
        return Fraction, Fraction(x.strip())
    except (ValueError, ZeroDivisionError):
        return "error", f"bad sequence payload: bad number literal {x!r}"


@pytest.mark.parametrize("x", SPELLINGS, ids=lambda x: f"{type(x).__name__}:{str(x)[-8:]}"
                         if not isinstance(x, int) or abs(x) < 10 ** 20 else f"int:{x.bit_length()}bits")
def test_document_parse_reads_as_fraction(x):
    try:
        v = SequenceSpec.from_json({"kind": "log", "prefix": [0, x]})._raws[1]
        got = type(v), v
    except ParseError as exc:
        got = "error", str(exc)
    assert got == read_reference(x)
