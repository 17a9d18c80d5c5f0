"""The naive reference implementations themselves need pinning down."""

import math
from fractions import Fraction

import numpy as np
import pytest

import seqreg.oracles as oracles
from seqreg import (
    POS_INF,
    ZERO,
    brute_minorant,
    brute_omega,
    brute_phi_sweep,
    compare_values,
    ext,
    make_phi,
    regularize_with_phi,
)
from seqreg import ExplicitOnly, SequenceSpec


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
    starts = oracles._stripe_starts(phi, ts, n)
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
