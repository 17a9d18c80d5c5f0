"""The naive reference implementations themselves need pinning down, and the
exact engine must equal them."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import seqreg.oracles as oracles
from seqreg import (
    CASE2,
    POS_INF,
    ZERO,
    AffineLog,
    ExtReal,
    RegimeClassification,
    brute_minorant,
    brute_omega,
    brute_phi_sweep,
    brute_trace,
    compare_values,
    ext,
    make_phi,
    regularize_with_phi,
)
from seqreg import ExplicitOnly, SequenceSpec
from seqreg.minorant import regularize
from test_phireg_sweep import count_fractions


# -- brute_minorant ---------------------------------------------------------------


def test_brute_minorant_fixes_convex_input():
    vals = [0, 1, 4, 9, 16]
    assert brute_minorant(vals) == [ext(v) for v in vals]


def test_brute_minorant_worked_example():
    got = brute_minorant([0, 5, 1, 3, 9, 20])
    assert got == [ext(v) for v in (0, Fraction(1, 2), 1, 3, 9, 20)]


def test_brute_minorant_exact_rationals():
    got = brute_minorant([Fraction(1, 3), 5, Fraction(2, 3)])
    assert got[1] == ext(Fraction(1, 2))  # midpoint of the endpoints


def test_brute_minorant_skips_infinite_points():
    got = brute_minorant([0, float("inf"), 2, 6, 12, 20])
    assert got[1] == ext(1)


def test_brute_minorant_is_unbounded_past_the_last_finite_point():
    # every slope is admissible past the last finite point, so no line bounds
    # index 3; the two routes' finite candidate sets used to disagree there
    got = brute_minorant([0, 0, -1, float("inf")])
    assert got == [ext(0), ext(Fraction(-1, 2)), ext(-1), POS_INF]
    # a cap bounds it: the cap line through the last point
    assert brute_minorant([0, 0, -1, float("inf")], slope_cap=1)[3] == ext(0)
    # so with a_0 the only finite point, every later index is +inf or on the cap line
    assert brute_minorant([2, float("inf"), float("inf")]) == [ext(2), POS_INF, POS_INF]
    assert brute_minorant([2, float("inf"), float("inf")], slope_cap=-1) == [ext(v) for v in (2, 1, 0)]


def test_brute_minorant_slope_cap():
    got = brute_minorant([0, -1, 2, 3, 4, 5], slope_cap=1)
    assert got == [ext(v) for v in (0, -1, 0, 1, 2, 3)]


def test_brute_minorant_cap_on_convex_input():
    # cap below every chord slope: only cap lines through each point remain
    got = brute_minorant([0, 2, 4, 6], slope_cap=Fraction(1, 2))
    assert got == [ext(v) for v in (0, Fraction(1, 2), 1, Fraction(3, 2))]


def test_brute_minorant_degenerate_inputs():
    assert brute_minorant([]) == []
    assert brute_minorant([Fraction(7, 2)]) == [ext(Fraction(7, 2))]
    with pytest.raises(ValueError):
        brute_minorant([float("inf"), 1])
    with pytest.raises(ValueError):
        brute_minorant([0, float("-inf")])


# -- the exact engine against the oracles ----------------------------------------
#
# brute_minorant checks its two routes against each other on every call; the
# engine must give its values exactly, by type, on exact rationals large and
# small, +inf entries, declared caps, and an affine-log tail whose first point
# past the window is a beyond point.

EXACT = st.one_of(
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=97),
    st.fractions(min_value=-100, max_value=100, max_denominator=97).map(
        lambda x: x * Fraction(10**30, 7)),
    st.fractions(min_value=-100, max_value=100, max_denominator=97).map(
        lambda x: x * Fraction(1, 2**60)),
)


@st.composite
def exact_windows(draw):
    """(sequence, window, cap): no cap, a declared Case 2 cap, or an affine-log tail."""
    a = [draw(EXACT)] + draw(st.lists(st.one_of(EXACT, EXACT, EXACT, st.just(math.inf)),
                                      max_size=11))
    kind = draw(st.sampled_from(["standard", "declared", "affine"]))
    if kind == "affine":
        c = draw(EXACT)
        seq = SequenceSpec(kind="log", prefix=tuple(a), tail=AffineLog(c=c))
        return seq, len(a) + draw(st.integers(0, 3)), ext(c)
    cap = draw(EXACT) if kind == "declared" else None
    declared = None if cap is None else RegimeClassification(CASE2, ext(cap), (0, len(a)),
                                                             "declared")
    return SequenceSpec(kind="log", prefix=tuple(a), tail=ExplicitOnly(),
                        declared_regime=declared), len(a), cap


def key(values):
    return [(type(v.raw), v.raw) for v in values]


# the chord from (0, 5) to the tail point (2, 2) undercuts the edge to (1, 20)
TAIL_CHORD = (SequenceSpec(kind="log", prefix=(5, 20), tail=AffineLog(c=Fraction(1))), 2, ext(1))


@given(exact_windows())
@example(TAIL_CHORD)
@settings(max_examples=300, deadline=None)
def test_exact_minorant_matches_the_oracle(case):
    seq, w, cap = case
    r = regularize(seq, w)
    vals = seq.values(w)
    beyond = [] if r.tail_end is None else [(r.tail_end, seq.value(r.tail_end))]
    want = brute_minorant(vals, slope_cap=cap, beyond=beyond)
    assert key(r.regularized.prefix) == key(want)
    if beyond:  # the lowest chord: no later tail point lies below its line
        q = r.tail_end + 1
        assert brute_minorant(vals, slope_cap=cap, beyond=beyond + [(q, seq.value(q))]) == want


@given(exact_windows(), st.lists(EXACT, min_size=1, max_size=8))
@example(TAIL_CHORD, [Fraction(-3), Fraction(1, 2)])
@settings(max_examples=300, deadline=None)
def test_exact_trace_matches_the_oracle(case, slopes):
    seq, w, cap = case
    r = regularize(seq, w)
    beyond = [] if r.tail_end is None else [(r.tail_end, seq.value(r.tail_end))]
    ks = [ext(k) for k in slopes if cap is None or k < cap]
    want = brute_trace(seq.values(w), ks, beyond)
    assert key(r.trace.evaluate(k) for k in ks) == key(want)


# -- what the oracles take -----------------------------------------------------------
#
# brute_minorant reads a float at its binary value, an infinite cap as no cap,
# and a point past the window as that point at the end of +inf entries; and
# brute_trace is the direct sup over the finite values, on floats, +inf and
# -inf entries and float slopes too.

FLOATS = st.one_of(
    st.integers(-800, 800).map(lambda k: k / 8),
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 5e-324]),
)
FINITE = st.one_of(EXACT, FLOATS)


@st.composite
def minorant_inputs(draw):
    """(entries, cap, beyond): exact, float or mixed entries, +inf among them,
    a cap of any kind, and up to two points past the window at any gap."""
    finite = draw(st.sampled_from([EXACT, FLOATS, FINITE]))
    entry = st.one_of(finite, finite, finite, st.just(math.inf))
    a = draw(st.lists(entry, min_size=1, max_size=12))
    beyond, q = [], len(a)
    for _ in range(draw(st.integers(0, 2))):
        q += draw(st.integers(0, 20))
        beyond.append((q, draw(entry)))
        q += 1
    cap = draw(st.one_of(st.none(), EXACT, FLOATS, st.sampled_from([math.inf, -math.inf])))
    return a, cap, beyond


def outcome(fn, *args, **kwargs):
    """fn's result by type and repr, or the type of what it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)
    return [(type(v), type(v.raw), repr(v)) for v in result]


def rational(v):
    return v if v == math.inf else Fraction(v)


@given(minorant_inputs())
@settings(max_examples=400, deadline=None)
def test_brute_minorant_reads_floats_infinite_caps_and_far_points(case):
    a, cap, beyond = case
    padded = [rational(v) for v in a]
    for q, v in beyond:
        padded += [math.inf] * (q - len(padded)) + [rational(v)]
    exact_cap = None if cap is None or math.isinf(cap) else Fraction(cap)
    want = outcome(lambda: brute_minorant(padded, slope_cap=exact_cap)[:len(a)])
    assert outcome(brute_minorant, a, slope_cap=cap, beyond=beyond) == want


@st.composite
def trace_inputs(draw):
    value = draw(st.sampled_from([EXACT, EXACT, FLOATS, FINITE]))
    slope = draw(st.sampled_from([EXACT, EXACT, FLOATS, FINITE]))
    infinite = st.sampled_from([math.inf, -math.inf])
    vals = draw(st.lists(st.one_of(value, value, value, infinite), max_size=12))
    slopes = draw(st.lists(slope, max_size=10))
    return [ExtReal(v) for v in vals], [ExtReal(k) for k in slopes]


@given(trace_inputs())
@settings(max_examples=400, deadline=None)
def test_brute_trace_is_the_direct_sup(case):
    vals, slopes = case
    want = outcome(lambda: [max(ext(p) * k - v for p, v in enumerate(vals) if v.is_finite)
                            for k in slopes])
    assert outcome(brute_trace, vals, slopes) == want


# -- the integer path is the one taken ----------------------------------------------


def rough(n):
    return [Fraction(p * p, 4) + Fraction((p * 7919) % 13, 3 + p % 5) for p in range(n)]


def test_integer_minorant_builds_one_fraction_per_output_and_route():
    a = rough(20)
    for cap in (None, Fraction(7, 3)):
        got, built = count_fractions(lambda: brute_minorant(a, slope_cap=cap))
        declared = None if cap is None else RegimeClassification(CASE2, ext(cap), (0, 20),
                                                                 "declared")
        seq = SequenceSpec(kind="log", prefix=tuple(a), tail=ExplicitOnly(),
                           declared_regime=declared)
        assert got == list(regularize(seq).regularized.prefix)
        assert built == 2 * len(a)
    # a beyond point constrains as the same point at the end of +inf entries does
    far = Fraction(500, 7)
    got, built = count_fractions(lambda: brute_minorant(a, beyond=[(30, far)]))
    assert got == brute_minorant(a + [math.inf] * 10 + [far])[:20]
    assert built == 2 * len(a)


def test_integer_trace_builds_one_fraction_per_slope():
    vals = [ExtReal(v) for v in rough(20)] + [POS_INF]
    slopes = [ExtReal(Fraction(k, 7)) for k in range(-20, 80, 3)]
    got, built = count_fractions(brute_trace, vals, slopes)
    assert got == [max(ext(p) * k - v for p, v in enumerate(vals[:20])) for k in slopes]
    assert built == len(slopes)


# -- brute_omega ------------------------------------------------------------------


def test_brute_omega_factorial():
    weights = [math.factorial(p) for p in range(40)]
    got = brute_omega(weights, 3, p_max=50)
    assert got == ext(Fraction(9, 2)).log()
    assert float(got) == pytest.approx(math.log(4.5), abs=1e-15)


def test_brute_omega_zero_t():
    assert brute_omega([1, 1, 2, 6], 0, p_max=3) == ZERO


def test_brute_omega_powers_of_two_plateau():
    weights = [2**p for p in range(30)]
    assert brute_omega(weights, 2, p_max=29) == ZERO
    assert brute_omega(weights, 1, p_max=29) == ZERO
    assert float(brute_omega(weights, 4, p_max=29)) == pytest.approx(
        29 * math.log(2), abs=1e-12)  # truncated loop: finite even where omega = +inf


def test_brute_omega_validation():
    with pytest.raises(ValueError):
        brute_omega([1, 2], -1, p_max=1)
    with pytest.raises(ValueError):
        brute_omega([1, 0, 2], 1, p_max=2)
    with pytest.raises(ValueError):
        brute_omega([], 1, p_max=3)


# -- brute_phi_sweep --------------------------------------------------------------


def test_sweep_ungated_surrogate_recovers_hull():
    vals = [0.0, 1.0, 4.0, 9.0, 16.0]
    res = brute_phi_sweep(vals, lambda t: 10**9, slope_grid_step=1e-3)
    assert res.principal_indices == [0, 1, 2, 3, 4]
    assert res.discontinuity_indices == []
    for p, v in enumerate(vals):
        assert float(res.regularized[p]) == pytest.approx(v, abs=1e-2)


def test_sweep_locates_gated_jump():
    res = brute_phi_sweep([0, 10, 10, 0, 10], make_phi("exp"),
                          slope_grid_step=1e-4)
    assert res.principal_indices == [0, 3, 4]
    assert res.discontinuity_indices == [3]
    assert res.discontinuity_slopes[0] == pytest.approx(math.log(3), abs=2e-4)


def test_sweep_principal_set_stable_under_refinement():
    coarse = brute_phi_sweep([0, 10, 10, 0, 10], make_phi("exp"),
                             slope_grid_step=2e-3)
    fine = brute_phi_sweep([0, 10, 10, 0, 10], make_phi("exp"),
                           slope_grid_step=1e-3)
    assert coarse.principal_indices == fine.principal_indices
    assert coarse.discontinuity_indices == fine.discontinuity_indices


def test_sweep_regularized_matches_engine():
    a = SequenceSpec(kind="log", prefix=(0, 10, 10, 0, 10), tail=ExplicitOnly())
    engine = regularize_with_phi(a, make_phi("exp"))
    res = brute_phi_sweep([0, 10, 10, 0, 10], make_phi("exp"),
                          slope_grid_step=1e-4)
    for p in range(5):
        assert float(res.regularized[p]) == pytest.approx(
            float(engine.regularized.prefix[p]), abs=5e-3)


def test_sweep_single_point():
    res = brute_phi_sweep([5], make_phi("exp"), slope_grid_step=1e-2)
    assert res.regularized == [ext(5)]
    assert res.principal_indices == [0]


def test_sweep_budget_and_validation():
    with pytest.raises(ValueError):
        brute_phi_sweep([0, 1], make_phi("exp"), slope_grid_step=0)
    with pytest.raises(ValueError):
        brute_phi_sweep([0, 100], make_phi("exp"), slope_grid_step=1e-9)


def test_sweep_refuses_a_non_finite_span():
    # differences near 2e308 overflow the slope span to inf
    with pytest.raises(ValueError, match="unbounded size exceeds the oracle budget"):
        brute_phi_sweep([0, 1e308, -1e308, 1e308], make_phi("exp"), slope_grid_step=1e-3)


def test_sweep_takes_inf_entries_as_points_that_never_attain():
    vals = [0, 4, math.inf, 3, math.inf, math.inf]
    res = brute_phi_sweep(vals, make_phi("infinite"), 1e-3)
    assert res.principal_indices == [0, 3]
    # without a cap the sup past the last finite entry is +inf
    assert res.regularized[4:] == [POS_INF, POS_INF]
    assert [float(v) for v in res.regularized[:4]] == pytest.approx([0, 1, 2, 3], abs=1e-2)
    # a grid that ends short of T = 3 closes with the line of slope 3 through 3
    capped = brute_phi_sweep(vals, make_phi("blowup:3"), 1e-3, t_max=3 - 5e-4)
    assert [float(v) for v in capped.regularized] == pytest.approx(
        [0, 8 / 3, 16 / 3, 3, 6, 9], abs=1e-2)
    with pytest.raises(ValueError, match="finite anchor"):
        brute_phi_sweep([math.inf, 1], make_phi("exp"), 1e-3)


def test_sweep_explicit_range():
    res = brute_phi_sweep([0, 1, 4], lambda t: 10**9, slope_grid_step=1e-3,
                          t_min=-2.0, t_max=6.0)
    assert res.grid_start == pytest.approx(-2.0)
    assert res.grid_stop <= 6.0 + 1e-9
    assert res.principal_indices == [0, 1, 2]


# -- stripe edges by bisection ------------------------------------------------------


@pytest.mark.parametrize("phi", [
    make_phi("exp"),
    make_phi("expaffine:2,-1"),
    make_phi("blowup:1"),  # the grid crosses T = 1
    make_phi("piecewise:[[-2,0],[-1,2],[0,2],[1,5]]"),  # flat at 2 on [-1, 0]
    make_phi("infinite"),
    lambda t: 3,  # constant: a stripe starts at the first grid slope or never
], ids=["exp", "expaffine", "blowup", "piecewise-flat", "infinite", "constant"])
def test_bisected_stripes_match_per_slope_mask(phi, monkeypatch):
    vals = [0, 3, 1, 4, 9, 2, 7, 12]
    n = len(vals)
    fast = brute_phi_sweep(vals, phi, 1e-3, t_min=-3.0, t_max=3.0)
    ts = fast.ts

    # the reference: phi at every grid slope, p visible where phi(t) >= p
    phi_vals = np.array([oracles._phi_float(phi, t) for t in ts])
    mask = np.arange(n)[:, None] <= phi_vals[None, :]
    starts = oracles._stripe_starts(phi, ts, range(n))
    assert (mask == (np.arange(len(ts))[None, :] >= starts[:, None])).all()

    # and the oracle built on that mask gives the same sweep
    reference = np.array([int(np.argmax(row)) if row.any() else len(ts) for row in mask])
    monkeypatch.setattr(oracles, "_stripe_starts", lambda phi, ts, n: reference)
    slow = brute_phi_sweep(vals, phi, 1e-3, t_min=-3.0, t_max=3.0)
    assert fast.to_json() == slow.to_json()
    assert (fast.ms == slow.ms).all() and (fast.As == slow.As).all()


def test_bisected_stripes_evaluate_phi_sparsely():
    calls = []

    def phi(t):
        calls.append(t)
        return t.exp()

    res = brute_phi_sweep([0, 3, 1, 4, 9, 2, 7, 12], phi, 1e-3, t_min=-3.0, t_max=3.0)
    grid = set(res.ts.tolist())
    on_grid = [t for t in calls if float(t) in grid]
    assert len(grid) == 6001
    assert len(on_grid) <= 8 * 13  # at most one bisection of the grid per index


# -- compare_values ----------------------------------------------------------------


def test_compare_values_picks_worst_pair():
    report = compare_values("demo",
                            [(ext(1), ext(1)), (ext(2), ext(Fraction(5, 2)))],
                            witnesses=["a", "b"])
    assert report.max_abs_deviation == pytest.approx(0.5)
    assert report.witness == "b"
    assert not report.within(0.1)
    assert report.within(0.5)


def test_compare_values_nonfinite():
    inf = ext(float("inf"))
    ok = compare_values("demo", [(inf, inf)])
    assert ok.max_abs_deviation == 0.0
    bad = compare_values("demo", [(inf, ext(1))])
    assert bad.max_abs_deviation == math.inf


def test_compare_values_scales_each_pair_by_its_magnitude():
    # near the float range a last-bit difference is 2e292 absolute and 1e-16 relative
    big = compare_values("demo", [(ext(1.7e308), ext(1.7e308 * (1 - 2**-52))), (ext(0), ext(0))])
    assert big.max_abs_deviation > 1e290
    assert big.within(1e-9)
    # the worst absolute pair is not the worst relative one: 1 in 1e10 against 1e-3 in 1
    mixed = compare_values("demo", [(ext(10**10), ext(10**10 + 1)),
                                    (ext(0), ext(Fraction(1, 1000)))])
    assert mixed.witness == 0 and mixed.max_rel_deviation < 1e-9
    assert not mixed.within(1e-9)
    assert mixed.within(1e-3)
    # a relative error of 1e-6 at 1e300, exact values past the float range
    assert not compare_values("demo", [(ext(1e300), ext(1e300 * (1 + 1e-6)))]).within(1e-9)
    huge = 10**400
    assert not compare_values("demo", [(ext(huge), ext(huge + huge // 10**6))]).within(1e-9)
    assert compare_values("demo", [(ext(huge), ext(huge + 1))]).within(1e-9)
