"""The factorial-tail search against the linear scans it replaced.

`FactorialPower.search` gallops and bisects on a test that is false and then
true along the tail.  The scans answer the same questions one index at a
time and are the one reference for each: the minorant's lowest tail chord
(`test_hull_kernel.ref_tail_chord`, which the reference hull walk asks at
every vertex), and below, the direct omega routes' sup with its tail terms
and the piecewise routes' segment index.  Wherever a scan finished below its
cap, the search must give the same answer, bit for bit.
"""

import math
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from seqreg import ExtReal, SequenceSpec, ext
from seqreg.errors import NonFiniteEntry, WindowTooShort
from seqreg.extreal import NEG_INF, POS_INF, ZERO
from seqreg.minorant import _tail_chords
from seqreg.tails import LOG, TAIL_SEARCH_CAP, AffineLog, FactorialPower, Geometric
from seqreg.weights import _EXACT_POWER_CAP, OmegaTable, OmegaValue
from test_hull_kernel import ref_tail_chord

_SCAN_CAP = 200_000


def _tail_chord(seq: SequenceSpec, P: int, aP: ExtReal, w: int):
    """The sweep's tail chord from (P, aP) in the scan's form ("event", slope, q),
    its slope as an ExtReal."""
    found = _tail_chords(seq, w)(P, aP.raw)
    return None if found is None else ("event", ExtReal(found[0]), found[1])


# -- the replaced omega scans -----------------------------------------------------


def ref_sup_scan(self, t: ExtReal, include_zero: bool, with_coeff: bool) -> OmegaValue:
    base_end = self.base_end  # a bad window raises before anything else
    if t.is_pos_inf:
        return OmegaValue(POS_INF, None, False)
    tail = self.M.tail
    p_start = 0 if include_zero else 1

    root = self.limit_root
    if root is not None and root.is_finite:
        if t > root:
            return OmegaValue(POS_INF, None, False)

    avals = self.avals
    if with_coeff and not avals[0].is_finite:
        raise NonFiniteEntry("M_0 must be positive and finite for the associated function")
    # a zero weight divides some term: the sup is +inf at every t > 0
    zero_from = p_start if not with_coeff else max(1, p_start)
    for p in range(zero_from, base_end):
        if avals[p].is_neg_inf:
            return OmegaValue(POS_INF, p, False)

    wvals = self.wvals
    exact_ok = t.is_exact and base_end <= _EXACT_POWER_CAP and self.wvals_exact
    best_val: Optional[ExtReal] = None
    best_p: Optional[int] = None
    if exact_ok:
        coeff = wvals[0].raw if with_coeff else Fraction(1)
        power = Fraction(1)
        best_r: Optional[Fraction] = None
        for p in range(base_end):
            if p > 0:
                power *= t.raw
            if p < p_start or wvals[p].is_pos_inf:
                continue
            r = coeff * power / wvals[p].raw
            if best_r is None or r >= best_r:
                best_r, best_p = r, p
        if best_r is not None:
            best_val = ext(best_r).log()
    else:
        off = float(avals[0]) if with_coeff else 0.0
        log_t = float(t.log())
        for p in range(p_start, base_end):
            if avals[p].is_pos_inf:
                continue
            term = off + p * log_t - float(avals[p])
            if best_val is None or term >= float(best_val):
                best_val, best_p = ext(term), p
    if best_val is None:
        return OmegaValue(NEG_INF, None, False)

    boundary = False
    if isinstance(tail, FactorialPower) and exact_ok and tail.s.denominator == 1:
        # exact weights past the window: the tail's terms rise while the exact
        # quotient is at most t; they are exact terms up to the power cap, and
        # past it only the last, the largest, meets best as an exact term, its
        # value a float term unless it ties best
        end = base_end
        while tail.quotient(end) <= t:
            end += 1
        if end <= _EXACT_POWER_CAP:
            for p in range(base_end, end):
                r = coeff * t.raw ** p / self._weight(p).raw
                if r >= best_r:
                    best_r, best_p = r, p
            best_val = ext(best_r).log()
        elif end > base_end:
            r = coeff * t.raw ** (end - 1) / self._weight(end - 1).raw
            if r > best_r:
                off = float(avals[0]) if with_coeff else 0.0
                best_val = ext(off + (end - 1) * float(t.log()) - float(self.log_view.value(end - 1)))
            if r >= best_r:
                best_p = end - 1
    elif isinstance(tail, FactorialPower):
        a = self.log_view
        off = float(avals[0]) if with_coeff else 0.0
        log_t = float(t.log())
        prev = float(a.value(base_end - 1))
        p = base_end
        scanned = 0
        while scanned < _SCAN_CAP:
            cur = float(a.value(p))
            if cur - prev > log_t:
                break  # quotient exceeded t: terms decrease from here on
            term = off + p * log_t - cur
            if term >= float(best_val):
                best_val, best_p = ext(term), p
            prev = cur
            p += 1
            scanned += 1
        else:
            boundary = True  # scan cap hit while terms could still rise
    elif isinstance(tail, (Geometric, AffineLog)):
        if root is not None and t == root:
            # beyond the prefix the terms are constant: log coeff exactly
            const = avals[0] if with_coeff else ZERO
            if const >= best_val:
                return OmegaValue(const, None, False)
    else:
        boundary = best_p == base_end - 1
    return OmegaValue(best_val, best_p, boundary)


def ref_segment_index(self, t: ExtReal) -> int:
    base_end = self.base_end
    mus = self.quotients
    p = 0
    for q in range(1, len(mus)):
        if mus[q] <= t:
            p = q
    if isinstance(self.M.tail, FactorialPower) and p == base_end - 1:
        prev = self._weight(base_end - 1)
        q = base_end
        scanned = 0
        while scanned < _SCAN_CAP:
            cur = self._weight(q)
            mu = cur / prev
            if not mu <= t:
                return p
            p = q
            prev = cur
            q += 1
            scanned += 1
        raise WindowTooShort(f"quotients stayed below t = {t} for {_SCAN_CAP} extra indices")
    return p


# -- inputs ------------------------------------------------------------------------

EXPONENTS = (Fraction(1), Fraction(2), Fraction(3),
             Fraction(1, 2), Fraction(3, 2), Fraction(5, 4))
# the largest index whose float weight c (q!)^s, c <= 2, stays finite, kept
# small enough for the integer-s scans to stay quick
Q_MAX = {Fraction(1): 1200, Fraction(2): 300, Fraction(3): 120,
         Fraction(1, 2): 250, Fraction(3, 2): 115, Fraction(5, 4): 135}

exponents = st.sampled_from(EXPONENTS)
coefficients = st.sampled_from((Fraction(1), Fraction(2), Fraction(1, 3)))


@st.composite
def dipped_log_sequences(draw):
    """A log-scale prefix with deep dips over a factorial tail, and a chord start."""
    tail = FactorialPower(s=draw(exponents), c=draw(coefficients))
    n = draw(st.integers(min_value=1, max_value=12))
    prefix = [draw(st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50, max_denominator=7),
        st.floats(min_value=-50, max_value=50, allow_nan=False))) for _ in range(n)]
    depth = draw(st.sampled_from((0, 10, 300, 2000, 12000)))
    for p in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)):
        prefix[p] = ext(prefix[p]) - depth
    seq = SequenceSpec(kind=LOG, prefix=tuple(prefix), tail=tail)
    w = draw(st.integers(min_value=4, max_value=40))
    P = draw(st.integers(min_value=0, max_value=max(n, w) - 1))
    aP = draw(st.one_of(
        st.just(seq.value(P)),
        st.integers(min_value=-12000, max_value=100).map(ext),
        st.fractions(min_value=-3000, max_value=100, max_denominator=9).map(ext),
        st.floats(min_value=-3000, max_value=100, allow_nan=False).map(ext)))
    return seq, P, aP, w


@st.composite
def factorial_tables(draw):
    """An OmegaTable over a positive weight prefix and a factorial tail, and a t."""
    s, c = draw(exponents), draw(coefficients)
    prefix = [c] + [draw(st.fractions(min_value=Fraction(1, 9), max_value=50,
                                      max_denominator=9))
                    for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    M = SequenceSpec(kind="weight", prefix=tuple(prefix), tail=FactorialPower(s=s, c=c))
    table = OmegaTable(M, draw(st.integers(min_value=4, max_value=40)))
    q_max = Q_MAX[s]
    q = draw(st.integers(min_value=1, max_value=q_max))
    knot = Fraction(q) ** int(s) if s.denominator == 1 else q ** float(s)
    t = draw(st.one_of(
        st.just(knot),  # an exact knot t = q^s (a float one for fractional s)
        st.just(math.exp(math.log(knot) * draw(st.floats(0.25, 1.0)))),  # a loggrid float
        st.fractions(min_value=0, max_value=round(q_max ** float(s)), max_denominator=5),
    ))
    return table, ext(t)


# -- the search against the scans --------------------------------------------------


@given(dipped_log_sequences())
@settings(max_examples=150, deadline=None)
def test_tail_chord_matches_the_scan(case):
    seq, P, aP, w = case
    if P == w - 1:
        # the window covers its last point: no chord is asked from there
        assert _tail_chord(seq, P, aP, w) is None
        return
    assert _tail_chord(seq, P, aP, w) == ref_tail_chord(seq, P, aP, w)


@given(factorial_tables(), st.sampled_from(((True, True), (True, False), (False, False))))
@settings(max_examples=150, deadline=None)
def test_sup_scan_matches_the_scan(case, flags):
    table, t = case
    if t == ZERO:
        return
    got = table._sup_scan(t, *flags)
    want = ref_sup_scan(table, t, *flags)
    assert (got.value, got.argmax_index, got.boundary_attained) == \
        (want.value, want.argmax_index, want.boundary_attained)
    assert type(got.value.raw) is type(want.value.raw)


@given(factorial_tables())
@settings(max_examples=150, deadline=None)
def test_segment_index_matches_the_scan(case):
    table, t = case
    assert table._segment_index(t) == ref_segment_index(table, t)


@pytest.mark.parametrize("s", EXPONENTS)
def test_scans_at_the_knots(s):
    # t = q^s, where two terms tie in exact arithmetic, and the floats on either side
    table = OmegaTable(SequenceSpec(kind="weight", prefix=(1,), tail=FactorialPower(s=s, c=1)), 4)
    for q in range(2, Q_MAX[s], Q_MAX[s] // 30):
        knot = Fraction(q) ** int(s) if s.denominator == 1 else q ** float(s)
        for t in map(ext, (knot, math.nextafter(float(knot), 0),
                           math.nextafter(float(knot), math.inf))):
            assert table._segment_index(t) == ref_segment_index(table, t)
            for flags in ((True, True), (False, False)):
                got, want = table._sup_scan(t, *flags), ref_sup_scan(table, t, *flags)
                assert (got.value, got.argmax_index) == (want.value, want.argmax_index)


def test_tied_chords_go_to_the_first_index():
    # from a point on the line through two neighbouring tail points, the two
    # chords to them are the lowest and tie; the first index wins, as in the scan
    ties = 0
    for s in EXPONENTS:
        tail = FactorialPower(s=s, c=Fraction(1))
        seq = SequenceSpec(kind=LOG, prefix=(0,), tail=tail)
        for q in range(10, 4000, 37):
            a_q, a_next = tail.value(q, LOG), tail.value(q + 1, LOG)
            P = q // 3
            aP = a_q - (a_next - a_q) * (q - P)
            if (a_q - aP) / (q - P) != (a_next - aP) / (q + 1 - P):
                continue  # rounding broke the tie
            ties += 1
            got = _tail_chord(seq, P, aP, q - 5)
            assert got == ref_tail_chord(seq, P, aP, q - 5)
            assert got[2] == q
    assert ties >= 10


# -- the search itself ---------------------------------------------------------------


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_search_finds_the_first_true_index(start, turn):
    asked = []

    def test(q):
        asked.append(q)
        return q >= turn

    got = FactorialPower(s=Fraction(1), c=Fraction(1)).search(test, start)
    assert got == max(start, turn)
    assert min(asked) >= start
    assert len(asked) <= 2 * (max(turn - start, 1)).bit_length() + 2


def test_search_raises_at_its_cap():
    tail = FactorialPower(s=Fraction(1), c=Fraction(1))
    assert tail.search(lambda q: q >= 7 + TAIL_SEARCH_CAP - 1, 7) == 7 + TAIL_SEARCH_CAP - 1
    with pytest.raises(WindowTooShort, match=str(TAIL_SEARCH_CAP)):
        tail.search(lambda q: q >= 7 + TAIL_SEARCH_CAP, 7)


def test_first_chord_ends_the_search_after_two_chords(monkeypatch):
    # the usual case: the chord rises at once, and no more chords are taken
    # than the scan took
    tail = FactorialPower(s=Fraction(1), c=Fraction(1))
    seq = SequenceSpec(kind=LOG, prefix=(0, 1, 3), tail=tail)
    taken = []
    real = FactorialPower.raw_values
    monkeypatch.setattr(FactorialPower, "raw_values", lambda self, start, stop, kind:
                        taken.extend(range(start, stop)) or real(self, start, stop, kind))
    assert _tail_chord(seq, 2, ext(3), 4)[2] == 4
    assert sorted(taken) == [4, 5]


def test_chord_past_the_cap_raises():
    seq = SequenceSpec(kind=LOG, prefix=(0, 0, 0, -10_000_000),
                       tail=FactorialPower(s=Fraction(1), c=Fraction(1)))
    with pytest.raises(WindowTooShort):
        _tail_chord(seq, 3, ext(-10_000_000), 5)


def test_quotient_is_q_to_the_s():
    for s in EXPONENTS:
        tail = FactorialPower(s=s, c=Fraction(2))
        for q in (1, 2, 10, 100):
            want = tail.value(q, "weight") / tail.value(q - 1, "weight")
            assert tail.quotient(q) == want
    # past the float range of the weights the quotient still comes out finite
    half = FactorialPower(s=Fraction(1, 2), c=Fraction(1))
    assert half.value(400, "weight").is_pos_inf
    assert math.isclose(float(half.quotient(400)), 20.0)
