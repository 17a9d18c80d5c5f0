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


# -- brute_phi_sweep against the per-slope definition ------------------------------
#
# The sweep on a given grid, one slope at a time, with the oracle's float
# operations: the result must be the same bit for bit, the arrays included.


def per_slope_sweep(a, phi, step, t_min, t_max, tie_tol=1e-9, beyond=()):
    """brute_phi_sweep's result fields on the grid t_min + step k, slope by
    slope: the visible points p <= phi(t), their minimum d of a_p - p t, the
    ties within tie_tol max(1, |d|), and the largest p t - A(t) per index."""
    vals = [math.inf if v == math.inf else float(Fraction(v)) for v in [*a, *(v for _, v in beyond)]]
    rows = [*range(len(a)), *(q for q, _ in beyond)]
    n = len(a)
    ts = [t_min + step * k for k in range(math.floor((t_max - t_min) / step) + 1)]
    ds, ms, ties = [], [], []
    for t in ts:
        width = oracles._phi_float(phi, t)
        seen = [(i, v - p * t) for i, (v, p) in enumerate(zip(vals, rows)) if p <= width]
        d = min([x for _, x in seen], default=math.inf)
        tied = [i for i, x in seen if abs(x - d) <= tie_tol * max(1.0, abs(d))]
        ds.append(d)
        ties.append(tied)
        ms.append(max((rows[i] for i in tied), default=-1))
    As = [-d for d in ds]
    gap = max(16.0 * n * step, 1e-9)
    cells = [j for j in range(len(ts) - 1) if ds[j] - ds[j + 1] > gap]
    regularized = []
    for p in range(n):
        seen = [p * t - A for t, A in zip(ts, As) if p <= oracles._phi_float(phi, t)]
        regularized.append(ext(min(max(seen), vals[p]) if seen else vals[p]))
    return {
        "regularized": [repr(v) for v in regularized],
        "principal": sorted({i for tied in ties for i in tied if i < n}),
        "disc_indices": [min((rows[i] for i in ties[j + 1]), default=rows[-1] + 1) for j in cells],
        "disc_slopes": [(ts[j] + 0.5 * step).hex() for j in cells],
        "grid": [ts[0].hex(), ts[-1].hex()],
        "ts": [t.hex() for t in ts],
        "ms": ms,
        "As": [A.hex() for A in As],
    }


def sweep_fields(res):
    return {
        "regularized": [repr(v) for v in res.regularized],
        "principal": res.principal_indices,
        "disc_indices": res.discontinuity_indices,
        "disc_slopes": [t.hex() for t in res.discontinuity_slopes],
        "grid": [res.grid_start.hex(), res.grid_stop.hex()],
        "ts": [float(t).hex() for t in res.ts],
        "ms": [int(m) for m in res.ms],
        "As": [float(A).hex() for A in res.As],
    }


SWEEP_PHIS = {
    "exp": (make_phi("exp"), 3.0),
    "infinite": (make_phi("infinite"), 3.0),
    "blowup": (make_phi("blowup:2"), 2 - 0.025),  # t_max short of T, as phireg --verify
    "expaffine": (make_phi("expaffine:1/2,0"), 3.0),
    "piecewise-flat": (make_phi("piecewise:[[-2,0],[-1,2],[0,2],[1,5]]"), 3.0),
}


@pytest.mark.parametrize("phi_id", sorted(SWEEP_PHIS))
@pytest.mark.parametrize("a, beyond", [
    ([0, 4, math.inf, 3, math.inf, math.inf], []),  # +inf entries
    ([0, 10, 10, 0, 10], []),  # a jump under exp
    ([0, 1, 2, 3, 5, 9], []),  # collinear: the grid holds the slope 1
    ([-2.0, -6.8, -10.6, -8.4, -10.0, -10.0, -9.8], []),  # a float near tie
    ([0.25, 0.5, 0.7500000005, 1.0], []),  # a tie within 1e-9 where |d| < 1
    ([0, "1/3", 5, "-7/2", 4], [(7, 20)]),  # exact values and a point past the window
    ([5], [(3, 9)]),  # a single entry with a far point
    ([0, math.inf], [(4, 1)]),
], ids=["inf-entries", "jump", "collinear", "near-tie", "small-near-tie", "exact-beyond",
        "single-beyond", "inf-beyond"])
def test_sweep_is_the_per_slope_definition(phi_id, a, beyond):
    phi, t_max = SWEEP_PHIS[phi_id]
    res = brute_phi_sweep([ext(v) for v in a], phi, 0.05, t_min=-3.0, t_max=t_max,
                          beyond=[(q, ext(v)) for q, v in beyond])
    assert sweep_fields(res) == per_slope_sweep(a, phi, 0.05, -3.0, t_max, beyond=beyond)
    assert res.ms.dtype == np.array([0]).dtype


@settings(max_examples=60, deadline=None)
# under exp, 8 and 9 enter together at the grid slope 2.3, tied there: the
# entrant is the least
@example([5, 5, 5, 5, 5, 5, 5, -100, -97.7], "exp", 0.3)
@given(st.lists(st.one_of(st.integers(-20, 20), st.integers(-200, 200).map(lambda k: k / 8),
                          st.just(math.inf)), min_size=2, max_size=8),
       st.sampled_from(sorted(SWEEP_PHIS)), st.sampled_from([0.05, 0.125, 0.3]))
def test_drawn_sweeps_are_the_per_slope_definition(tail, phi_id, step):
    a = [0, *tail]
    phi, t_max = SWEEP_PHIS[phi_id]
    res = brute_phi_sweep([ext(v) for v in a], phi, step, t_min=-2.5, t_max=t_max)
    assert sweep_fields(res) == per_slope_sweep(a, phi, step, -2.5, t_max)


def test_single_entry_sweep():
    res = brute_phi_sweep([ext(5)], make_phi("exp"), 0.05, t_min=-3.0, t_max=3.0)
    assert sweep_fields(res) == {
        "regularized": [repr(ext(5))], "principal": [0], "disc_indices": [], "disc_slopes": [],
        "grid": [(-3.0).hex()] * 2, "ts": [(-3.0).hex()], "ms": [0], "As": [(-5.0).hex()]}


def plain_threshold_bisection(phi, p, fallback):
    """Doubling, then all 100 bisection steps."""
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if oracles._phi_float(phi, hi) >= p:
            break
        hi *= 2.0
    else:
        return fallback
    for _ in range(200):
        if oracles._phi_float(phi, lo) < p:
            break
        lo *= 2.0
    else:
        return fallback
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if oracles._phi_float(phi, mid) >= p:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("descriptor", [
    "exp", "expaffine:2,-1", "expaffine:1/1000,0", "blowup:1", "blowup:-1/3", "infinite",
    "piecewise:[[-2,0],[-1,2],[0,2],[1,5]]"])
@pytest.mark.parametrize("p", [1, 2, 7, 20, 257, 10**6])
def test_threshold_estimate_is_plain_bisection(descriptor, p):
    phi = make_phi(descriptor)
    got = oracles._phi_threshold_estimate(phi, p, -7.5)
    assert got.hex() == plain_threshold_bisection(phi, p, -7.5).hex()


def test_threshold_estimate_under_infinite_returns_the_fallback_at_once(monkeypatch):
    probes = []
    probe = oracles._phi_float
    monkeypatch.setattr(oracles, "_phi_float", lambda phi, t: probes.append(t) or probe(phi, t))
    for p in (1, 7, 10**6):
        assert oracles._phi_threshold_estimate(make_phi("infinite"), p, -7.5) == -7.5
    assert len(probes) <= 1


# -- compare_values against the Fraction definition ----------------------------------


def fraction_scaled_deviation(main, oracle):
    """|main - oracle| / max(1, |main|, |oracle|) on Fractions, as a float."""
    x, y = ext(main), ext(oracle)
    if not x.is_finite or not y.is_finite:
        return 0.0 if x == y else math.inf
    fx, fy = Fraction(x.raw), Fraction(y.raw)
    return float(abs(fx - fy) / max(1, abs(fx), abs(fy)))


COMPARED = st.one_of(
    EXACT, FLOATS, st.floats(allow_nan=False),
    st.sampled_from([1.7e308, -1.7e308, math.inf, -math.inf]),
    st.fractions(min_value=-100, max_value=100, max_denominator=97).map(
        lambda x: x * Fraction(10**330, 3)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(COMPARED, COMPARED), max_size=6))
def test_compare_values_is_the_fraction_definition(pairs):
    pairs = [(ext(x), ext(y)) for x, y in pairs]
    report = compare_values("demo", pairs)
    expected = max((fraction_scaled_deviation(x, y) for x, y in pairs), default=0.0)
    assert repr(report.max_scaled_deviation) == repr(expected)
    for x, y in pairs:
        single = compare_values("demo", [(x, y)]).max_scaled_deviation
        assert repr(single) == repr(fraction_scaled_deviation(x, y))
        assert repr(compare_values("demo", [(y, x)]).max_scaled_deviation) == repr(single)


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
