"""The omega routes against `brute_omega` and the paper's identities.

`OmegaTable` finds the argmax of t^p / M_p once per t, for exact t by a
pointer along the lower hulls of its weights, and `direct`, `tilde` and
`double_tilde` all read it; the piecewise and integral routes find their
segment by bisection, and the integral route reads a prefix product kept by
the table.  The checks share no code with them:

- `direct` is `brute_omega` over the weights listed up to where the terms stop
  rising: the window for explicit tails, two indices past the examined range
  for geometric-type tails below their limit root, and two past the first
  quotient above t for factorial tails.  By type and repr where t and the
  listed weights are exact and the argmax lies in the examined range, and up
  to rounding otherwise; where a listed weight overflows the float range (the
  weights sqrt(q!) past q = 300 or so), up to rounding over the log weights.
  A zero weight makes the sup +inf, and past the limit root the terms grow
  without bound.
- `tilde` and `double_tilde` drop the coefficient M_0, and `double_tilde` the
  index 0: at direct's argmax they are its term without M_0.
- `omega_piecewise` = `omega_integral`, by type and repr on exact log-convex
  inputs, since the integral's product telescopes to M_0 t^p / M_p; and
  direct = piecewise on those inputs.

Each table serves its routes in a drawn order over several t, so the argmax
kept from one t must not leak into the next; and `OmegaTable.rows` over a
grid that repeats, mixes exact and float t of one value and falls back down
must give, row by row, what a fresh table gives at each t alone.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seqreg import (
    AffineLog,
    ExplicitOnly,
    FactorialPower,
    Geometric,
    SeqRegError,
    SequenceSpec,
    brute_omega,
    ext,
    to_log_scale,
    to_weight_scale,
)
from seqreg.extreal import POS_INF, ZERO
from seqreg.oracles import brute_omega_grid
from seqreg.weights import OmegaTable, OmegaValue

# stands in for a +inf weight: its term lies far below the p = 0 term, log 1
NEVER = Fraction(10) ** 4000
ROUTES = ("direct", "tilde", "double_tilde", "piecewise", "integral")


def outcome(fn, *args):
    """fn's result, or the type of the package error it raised."""
    try:
        return fn(*args)
    except SeqRegError as exc:
        return type(exc)


def num(x):
    return type(x.raw).__name__, repr(x.raw)


def close(x, y) -> bool:
    if not (x.is_finite and y.is_finite):
        return x == y
    return abs(float(x) - float(y)) <= 1e-9 * max(1.0, abs(float(y)))


def same(x, y, exact: bool) -> bool:
    return num(x) == num(y) if exact else close(x, y)


def listed_weights(table: OmegaTable, t):
    """The weights M_0 .. M_{K-1}, K past every index whose term can still rise,
    and their logs, which stay finite where a weight overflows the float range."""
    tail, end = table.M.tail, table.base_end
    if isinstance(tail, FactorialPower):
        while not tail.quotient(end) > t:
            end += 1
    if not isinstance(tail, ExplicitOnly):
        end += 2
    weights, logs = to_weight_scale(table.M), to_log_scale(table.M)
    return [weights.value(p) for p in range(end)], [logs.value(p) for p in range(end)]


def log_sup(logs, t, first=0):
    """max over p >= first of log(t^p / M_p) in float log space, +inf weights
    left out: the check where a listed weight overflows the float range."""
    lt = math.log(float(t))
    return ext(max(p * lt - float(v) for p, v in enumerate(logs) if p >= first and v.is_finite))


def log_term(weights, t, p, coeff=True):
    """log(M_0 t^p / M_p), or without M_0, on exact values."""
    m0 = weights[0].raw if coeff else 1
    return ext(m0 * t.raw ** p / weights[p].raw).log()


def check_direct_forms(table, t, direct, tilde, double_tilde):
    """direct against brute_omega; tilde and double_tilde at its argmax."""
    if isinstance(direct, type):
        return
    if t == ZERO:
        assert (direct.value, direct.argmax_index) == (ZERO, 0)
        return
    root = table.M.tail.root_limit()
    if root is not None and t > root:  # the terms grow without bound
        assert direct.value.is_pos_inf and tilde.is_pos_inf and double_tilde.is_pos_inf
        return
    try:
        weights, logs = listed_weights(table, t)
    except SeqRegError:  # a weight past the exact-weight budget: nothing to list
        return
    zero = next((p for p, m in enumerate(weights) if p and m == ZERO), None)
    if zero is not None:
        assert (direct.value, direct.argmax_index) == (POS_INF, zero)
        return
    if not weights[0].is_finite:
        return  # M_0 overflows the float range: brute_omega takes no such weight
    if any(m.is_pos_inf and v.is_finite for m, v in zip(weights, logs)):
        # sqrt(q!) past q = 300 or so: the definition on the log weights
        assert close(direct.value, logs[0] + log_sup(logs, t))
        assert close(tilde, direct.value - logs[0])
        assert close(double_tilde, log_sup(logs, t, 1))
        return
    # on the entries' exact values, so that no float term overflows
    listed = [NEVER if m.is_pos_inf else Fraction(m.raw) for m in weights]
    x = Fraction(t.raw)
    want = brute_omega(listed, x, len(listed) - 1)
    p = direct.argmax_index
    if root is not None and t == root:  # a plateau past the prefix: no argmax
        assert close(direct.value, want)
        return
    exact = (t.is_exact and all(not m.is_finite or m.is_exact for m in weights)
             and p < table.base_end)
    assert same(direct.value, want, exact)
    assert direct.boundary_attained == (
        isinstance(table.M.tail, ExplicitOnly) and p == table.base_end - 1)
    m0 = weights[0]
    if exact:
        assert num(direct.value) == num(log_term(weights, t, p))
        assert num(tilde) == num(log_term(weights, t, p, coeff=False))
        # ties go to the larger index: every later term is smaller
        top = t.raw ** p / weights[p].raw
        assert all(t.raw ** q / m.raw < top for q, m in enumerate(weights) if q > p and m.is_finite)
    else:
        assert close(tilde, direct.value - m0.log())
    if p:  # the argmax over p >= 1 is direct's (up to float ties)
        assert same(double_tilde, tilde, exact)
        return
    # from the first finite weight M_r past M_0 on: log(M_r t^(p-r) / M_p)
    r = next((q for q in range(1, len(weights)) if weights[q].is_finite), None)
    if r is None:  # no term t^p / M_p > 0 with p >= 1
        assert double_tilde.is_neg_inf
    else:
        rest = brute_omega(listed[r:], x, len(listed) - r - 1)
        assert close(double_tilde, rest + ext(r) * t.log() - weights[r].log())


def log_convex(table: OmegaTable, t) -> bool:
    """M_q^2 <= M_(q-1) M_(q+1) at every inner q of the listed weights, all
    positive and finite."""
    try:
        weights, logs = listed_weights(table, t)
    except SeqRegError:
        return False
    if not all(m > ZERO and v.is_finite for m, v in zip(weights, logs)):
        return False
    if all(m.is_finite for m in weights):
        ms = [m.raw for m in weights]
        return all(b * b <= a * c for a, b, c in zip(ms, ms[1:], ms[2:]))
    ls = [float(v) for v in logs]  # a weight past the float range
    return all(2 * b <= a + c for a, b, c in zip(ls, ls[1:], ls[2:]))


def check_segment_forms(table, t, direct, piecewise, integral):
    """piecewise = integral; and direct = piecewise where the weights are
    log-convex as far as the terms can rise (the routes check the window)."""
    if isinstance(piecewise, type) or isinstance(integral, type):
        return
    exact = t.is_exact and table.wvals_exact
    assert same(piecewise, integral, exact)
    if not isinstance(direct, type) and log_convex(table, t):
        # at p = 0 piecewise gives an exact 0, and direct log 1 = 0.0
        p = direct.argmax_index
        assert same(direct.value, piecewise, exact and 0 < p < table.base_end)


def check_routes(M, window, ts, order):
    """Evaluate every route at every t on one table, in the drawn order."""
    table = OmegaTable(M, window)
    for t in ts:
        got = {name: outcome(getattr(table, name), t) for name in order}
        t = ext(t)
        check_direct_forms(table, t, got["direct"], got["tilde"], got["double_tilde"])
        check_segment_forms(table, t, got["direct"], got["piecewise"], got["integral"])


# -- the inputs ----------------------------------------------------------------


@st.composite
def weight_prefixes(draw, convex):
    """Positive rationals: log-convex ones from non-decreasing quotients (a
    repeated quotient makes a collinear run), or rough ones."""
    n = draw(st.integers(1, 10))
    m = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    if not convex:
        return [m] + [Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 9)))
                      for _ in range(n - 1)]
    mu = Fraction(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    out = [m]
    for _ in range(n - 1):
        m *= mu
        out.append(m)
        mu += Fraction(draw(st.sampled_from([0, 0, 1, 2, 5])), draw(st.integers(1, 4)))
    return out


TAILS = st.one_of(
    st.just(ExplicitOnly()),
    # s = 10**6: M_3 is past the exact-weight budget, so building the weights raises
    st.builds(FactorialPower, s=st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2),
                                                 Fraction(10**6)]),
              c=st.sampled_from([Fraction(1), Fraction(1, 3), Fraction(5, 2)])),
    st.builds(Geometric, d=st.sampled_from([Fraction(2), Fraction(5, 2), Fraction(1, 3)])),
    st.builds(AffineLog, c=st.sampled_from([Fraction(1, 2), Fraction(2)])),
)


@st.composite
def omega_cases(draw, max_ts=4):
    convex = draw(st.booleans())
    prefix = draw(weight_prefixes(convex))
    tail = draw(TAILS)
    form = draw(st.sampled_from(["exact", "exact", "mixed", "float", "log"]))
    if form == "exact" and not convex and len(prefix) > 1 and draw(st.booleans()):
        # a zero or +inf weight somewhere past M_0, or both
        i = draw(st.integers(1, len(prefix) - 1))
        prefix[i] = draw(st.sampled_from([Fraction(0), float("inf")]))
    if form == "mixed":  # one float among exact weights
        i = draw(st.integers(0, len(prefix) - 1))
        prefix[i] = float(prefix[i])
    if form == "float":
        prefix = [float(v) for v in prefix]
    if form == "log":
        M = SequenceSpec(kind="log", prefix=tuple(ext(v).log() for v in prefix), tail=tail)
    else:
        M = SequenceSpec(kind="weight", prefix=tuple(prefix), tail=tail)
    window = draw(st.integers(4, 12))
    if isinstance(tail, ExplicitOnly):
        window = draw(st.sampled_from([None, window]))
    # t: random rationals and their floats, the quotients of the prefix
    # (where two terms tie), the limit root, and 0; with s = 1/2 the terms
    # rise until q = t^2, past where the weights sqrt(q!) are floats
    quotients = [Fraction(b) / Fraction(a) for a, b in zip(prefix, prefix[1:])
                 if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)) and a and b]
    knots = [Fraction(0), *quotients]
    if isinstance(tail, Geometric):
        knots.append(tail.d)
    exact_t = st.one_of(st.fractions(min_value=0, max_value=40, max_denominator=12),
                        st.sampled_from(knots))
    t = st.one_of(exact_t, exact_t.map(float), st.floats(1e-3, 60.0))
    if isinstance(tail, AffineLog):
        t = st.one_of(t, st.just(math.exp(tail.c)))
    ts = draw(st.lists(t, min_size=1, max_size=max_ts))
    order = draw(st.permutations(list(ROUTES)))
    return M, window, ts, order


@st.composite
def omega_grids(draw):
    """A case and a grid over its t and its exact quotients (where two terms
    tie), the exact ones also as floats of one value, repeated: in the drawn
    order, which falls back down, sorted as the CLI's grids are, or reversed."""
    M, window, ts, _ = draw(omega_cases(max_ts=8))
    try:
        knots = [mu.raw for mu in OmegaTable(M, window).quotients[1:] if mu.is_exact]
    except SeqRegError:
        knots = []
    exact = [t for t in ts if isinstance(t, Fraction)] + knots
    pool = ts + knots + [float(t) for t in exact]
    grid = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if order != "drawn":
        grid.sort(reverse=order == "reversed")
    return M, window, grid


# -- the tests -----------------------------------------------------------------


@given(omega_cases())
@settings(max_examples=600, deadline=None)
def test_routes_match_the_former_scans(case):
    check_routes(*case)


@given(st.integers(1, 6), st.integers(0, 5), st.sampled_from([Fraction(1), Fraction(2)]))
@settings(max_examples=40, deadline=None)
def test_factorial_tails_past_the_window(k, shift, s):
    # the segment lies past the window: the integral's product is extended by
    # binary splitting, the direct forms' terms by the tail search, and the
    # oracle lists every weight up to past the first quotient above t
    M = SequenceSpec(kind="weight", prefix=(Fraction(1),), tail=FactorialPower(s=s, c=Fraction(1)))
    t = Fraction(10 * k + shift) ** s
    check_routes(M, 4, [t, t + Fraction(1, 3), float(t), t - 1], list(ROUTES))
    table = OmegaTable(M, 4)
    assert table.direct(t).argmax_index >= table.base_end
    assert num(table.piecewise(t)) == num(table.integral(t))


@pytest.mark.parametrize("s, window, t, argmax", [(1, 5, 5, 5), (1, 5, 6, 6), (1, 6, 6, 6),
                                                  (1, 8, 6, 6), (1, 64, 1000, 1000),
                                                  (1, 64, 100000, 100000), (2, 64, 4096, 64)])
def test_factorial_tie_goes_to_the_larger_index(s, window, t, argmax):
    # M_p = (p!)^s: the terms of argmax - 1 and argmax tie, as argmax^s = t, in
    # the window or past it; the tie goes to the larger index, and the value
    # is that exact term's log below index 512 (a float term from there up)
    M = SequenceSpec(kind="weight", prefix=(Fraction(1),),
                     tail=FactorialPower(s=Fraction(s), c=Fraction(1)))
    r = OmegaTable(M, window).direct(Fraction(t))
    assert r.argmax_index == argmax
    if argmax < 512:
        exact = Fraction(t ** argmax, math.factorial(argmax) ** s)
        assert num(r.value) == num(ext(exact).log())
    assert num(OmegaTable(M, window).tilde(Fraction(t))) == num(r.value)  # M_0 = 1


@pytest.mark.parametrize("t", [600, 1000, 2000])
def test_factorial_tail_ties_the_window_past_the_power_cap(t):
    # c = t^t / t! makes T_t = t^t / M_t = 1 = T_0 exactly, with t past index
    # 512: the tie goes to the larger index, and the value is best's own log 1
    M = SequenceSpec(kind="weight", prefix=(Fraction(1), Fraction(10 ** 9)),
                     tail=FactorialPower(s=Fraction(1), c=Fraction(t ** t, math.factorial(t))))
    table = OmegaTable(M, 2)
    r = table.direct(Fraction(t))
    assert (r.argmax_index, num(r.value)) == (t, num(ext(Fraction(1)).log()))
    assert num(table.tilde(Fraction(t))) == num(r.value)  # M_0 = 1


def test_collinear_run_goes_to_the_larger_index():
    M = SequenceSpec(kind="weight", prefix=(1, 2, 4, 8, 16), tail=ExplicitOnly())
    table = OmegaTable(M)
    r = table.direct(2)  # every term is log 1
    assert (r.value, r.argmax_index, r.boundary_attained) == (ZERO, 4, True)
    check_routes(M, None, [Fraction(2), 2.0], list(ROUTES))


def test_t_at_a_quotient_goes_to_the_larger_index():
    # quotients 1, 2, 4: at t = 2 the terms of p = 1 and p = 2 tie
    M = SequenceSpec(kind="weight", prefix=(1, 1, 2, 8, 64), tail=ExplicitOnly())
    assert OmegaTable(M).direct(2).argmax_index == 2
    # at t = 8 the integral route's product runs over every quotient
    check_routes(M, None, [Fraction(2), Fraction(4), 2.0, 4.0, Fraction(8)], list(ROUTES))


def test_p0_wins_below_the_first_quotient():
    M = SequenceSpec(kind="weight", prefix=(3, 6, 24), tail=ExplicitOnly())
    table = OmegaTable(M)
    r = table.direct(1)
    assert (r.value, r.argmax_index) == (ZERO, 0)
    assert table.tilde(1) == ext(Fraction(1, 3)).log()
    assert table.double_tilde(1) == ext(Fraction(1, 6)).log()  # p = 0 dropped
    check_routes(M, None, [Fraction(1), 1.0, Fraction(1, 2)], list(ROUTES))


def test_zero_and_infinite_weights():
    zero = SequenceSpec(kind="weight", prefix=(1, 2, 0, 8), tail=ExplicitOnly())
    r = OmegaTable(zero).direct(1)
    assert (r.value, r.argmax_index) == (POS_INF, 2)
    skip = SequenceSpec(kind="weight", prefix=(1, float("inf"), 2, 8), tail=ExplicitOnly())
    assert OmegaTable(skip).direct(4).argmax_index == 3  # 16/2 and 64/8 tie
    no_m0 = SequenceSpec(kind="weight", prefix=(0, 2, 8), tail=ExplicitOnly())
    assert OmegaTable(no_m0).double_tilde(4) == ext(Fraction(2)).log()
    for M in (zero, skip, no_m0):
        check_routes(M, None, [Fraction(1), Fraction(3), 3.0], list(ROUTES))
    # M_0 overflows to +inf while log M_0 = 800 is finite: at one t the
    # direct form takes the float pass and the others the exact one
    big_m0 = SequenceSpec(kind="log", prefix=(800, float("inf"), float("inf")), tail=ExplicitOnly())
    table = OmegaTable(big_m0)
    assert table.direct(2).value == ZERO
    assert table.tilde(2.0) == ext(-800.0) and table.double_tilde(2.0).is_neg_inf


def test_t_at_the_limit_root():
    geometric = SequenceSpec(kind="weight", prefix=(1, 3), tail=Geometric(d=Fraction(2)))
    affine = SequenceSpec(kind="weight", prefix=(1,), tail=AffineLog(c=Fraction(1, 2)))
    for M, root in ((geometric, Fraction(2)), (affine, math.exp(0.5))):
        check_routes(M, 8, [root, root, ext(root).raw * 2], list(ROUTES))
        # at the root the terms past the prefix are log M_0 = 0; past it they grow
        table = OmegaTable(M, 8)
        assert table.direct(root).value == ZERO
        assert table.direct(ext(root).raw * 2).value.is_pos_inf


def test_one_table_over_a_grid_matches_fresh_tables():
    # exact and float t of equal value must not share the per-t argmax
    M = SequenceSpec(kind="weight", prefix=(1, 1, 2, 8), tail=FactorialPower(s=Fraction(1), c=Fraction(1)))
    grid = [Fraction(2), 2.0, Fraction(2), Fraction(7, 2), 3.5, Fraction(9)]
    check_routes(M, 6, grid, list(ROUTES))
    table = OmegaTable(M, 6)
    for t in grid:
        for name in ROUTES:
            got = outcome(getattr(table, name), t)
            fresh = outcome(getattr(OmegaTable(M, 6), name), t)
            if isinstance(got, type):
                assert got is fresh
            elif isinstance(got, OmegaValue):
                assert (num(got.value), got.argmax_index) == (num(fresh.value), fresh.argmax_index)
            else:
                assert num(got) == num(fresh), (name, t)


def fresh_row(M, window, t):
    """The row of OmegaTable.rows at t, from the per-t methods of a fresh table."""
    table, te = OmegaTable(M, window), ext(t)
    row = [te]
    for route in (lambda t: table.direct(t).value, table.piecewise, table.integral,
                  table.tilde, table.double_tilde):
        try:
            row.append(route(te))
        except SeqRegError:
            row.append(None)
    return row


@given(omega_grids())
@settings(max_examples=500, deadline=None)
def test_rows_over_a_grid_match_fresh_tables(case):
    # the hull pointers walk forward along a rising grid and start over where
    # it falls; every row must be what a fresh table gives at its t alone
    M, window, grid = case
    rows = OmegaTable(M, window).rows(grid)
    assert len(rows) == len(grid)
    for t, row in zip(grid, rows):
        want = fresh_row(M, window, t)
        assert [v if v is None else num(v) for v in row] == \
            [v if v is None else num(v) for v in want], t


@given(st.lists(st.one_of(st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20),
                          st.integers(1, 400).map(lambda k: k / 8),
                          st.sampled_from([Fraction(0), float("inf"), 1e300, 1e-300])),
                min_size=1, max_size=12),
       st.one_of(st.fractions(min_value=0, max_value=30, max_denominator=12),
                 st.floats(0, 30), st.just(Fraction(-1))),
       st.integers(0, 14))
@settings(max_examples=400, deadline=None)
def test_brute_omega_matches_the_former_loop(weights, t, p_max):
    # the definition: the largest M_0 t^p / M_p over p <= p_max, here on the
    # entries' exact values; brute_omega gives its log exactly on exact input,
    # and up to rounding on float input unless a float term overflows
    ws, te = [ext(v) for v in weights], ext(t)
    if te < ZERO or any(not w.is_finite or w <= ZERO for w in ws):
        with pytest.raises(ValueError):
            brute_omega(weights, t, p_max)
        return
    last = min(p_max, len(ws) - 1)
    x, m0 = Fraction(te.raw), Fraction(ws[0].raw)
    heads = [m0 * x ** p for p in range(last + 1)]
    want = ZERO if te == ZERO else ext(max(h / Fraction(w.raw) for h, w in zip(heads, ws))).log()
    exact = te.is_exact and all(w.is_exact for w in ws[:last + 1])
    try:
        got = brute_omega(weights, t, p_max)
    except ValueError:
        big = Fraction(sys.float_info.max)
        assert not exact and any(h > big or h / Fraction(w.raw) > big for h, w in zip(heads, ws))
        return
    assert same(got, want, exact)


@given(st.lists(st.one_of(st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20),
                          st.integers(1, 400).map(lambda k: k / 8),
                          st.sampled_from([Fraction(0), float("inf"), 1e300, 1e-300])),
                min_size=0, max_size=12),
       st.lists(st.one_of(st.fractions(min_value=0, max_value=30, max_denominator=12),
                          st.floats(0, 30), st.just(Fraction(-1)), st.just(1e200)), max_size=8),
       st.integers(0, 14))
@settings(max_examples=400, deadline=None)
def test_grid_oracle_matches_brute_omega(weights, ts, p_max):
    # the weights are checked once for the grid; each t is brute_omega's own
    # value, or None where brute_omega raises
    def one(t):
        try:
            return num(brute_omega(weights, t, p_max))
        except ValueError:
            return None

    got = brute_omega_grid(weights, ts, p_max)
    assert [v if v is None else num(v) for v in got] == [one(t) for t in ts]
