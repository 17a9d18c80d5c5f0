"""The omega routes and `brute_omega` against the loops they replaced.

`OmegaTable` finds the argmax of t^p / M_p once per t, on integers for exact
t, and `direct`, `tilde` and `double_tilde` all read it; the piecewise and
integral routes find their segment by bisection, and the integral route reads
a prefix product kept by the table.  `brute_omega` runs on integers on exact
inputs.  The former bodies are kept here verbatim as the references: on
exact and float t, log-convex and rough weights, zero and +inf weights and
every tail kind, the results must match by repr, argmax and boundary flag,
or both raise the same exception type.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from seqreg import (
    AffineLog,
    ExplicitOnly,
    FactorialPower,
    Geometric,
    SequenceSpec,
    brute_omega,
    ext,
)
from seqreg.errors import NonFiniteEntry, NotLogConvex, OutOfDomain, WindowTooShort
from seqreg.extreal import NEG_INF, POS_INF, ZERO
from seqreg.tails import TAIL_SEARCH_CAP
from seqreg.weights import _EXACT_POWER_CAP, OmegaTable, OmegaValue, _require_nonneg


# -- the references ------------------------------------------------------------


def ref_sup_scan(self, t, include_zero, with_coeff):
    """The former OmegaTable._sup_scan: one Fraction scan per route and t."""
    base_end = self.base_end
    if t.is_pos_inf:
        return OmegaValue(POS_INF, None, False)
    tail = self.M.tail
    p_start = 0 if include_zero else 1

    root = self.limit_root
    if root is not None and root.is_finite:
        if t > root:
            return OmegaValue(POS_INF, None, False)

    avals = self.avals
    if with_coeff and not math.isfinite(float(avals[0])):
        raise NonFiniteEntry("M_0 must be positive and finite for the associated function")
    zero_from = p_start if not with_coeff else max(1, p_start)
    for p in range(zero_from, base_end):
        if avals[p].is_neg_inf:
            return OmegaValue(POS_INF, p, False)

    wvals = self.wvals
    off = float(avals[0]) if with_coeff else 0.0
    log_t = float(t.log())
    exact_ok = (t.is_exact and base_end <= _EXACT_POWER_CAP and self.wvals_exact
                and (not with_coeff or wvals[0].is_exact))
    best_val = None
    best_p = None
    if exact_ok:
        coeff = wvals[0].raw if with_coeff else Fraction(1)
        power = Fraction(1)
        best_r = None
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
        for p in range(p_start, base_end):
            if avals[p].is_pos_inf:
                continue
            term = off + p * log_t - float(avals[p])
            if best_val is None or term >= float(best_val):
                best_val, best_p = ext(term), p
    if best_val is None:
        return OmegaValue(NEG_INF, None, False)

    boundary = False
    if isinstance(tail, FactorialPower):
        a = self.log_view
        try:
            end = tail.search(lambda p: float(a.value(p) - a.value(p - 1)) > log_t, base_end)
        except WindowTooShort:
            end, boundary = base_end + TAIL_SEARCH_CAP, True
        for p in range(max(base_end, end - 2), end):
            term = off + p * log_t - float(a.value(p))
            if term >= float(best_val):
                best_val, best_p = ext(term), p
    elif isinstance(tail, (Geometric, AffineLog)):
        if root is not None and t == root:
            const = avals[0] if with_coeff else ZERO
            if const >= best_val:
                return OmegaValue(const, None, False)
    else:
        boundary = best_p == base_end - 1
    return OmegaValue(best_val, best_p, boundary)


def ref_direct(table, t):
    t = ext(t)
    _require_nonneg(t)
    if t == ZERO:
        return OmegaValue(ZERO, 0, False)
    return ref_sup_scan(table, t, include_zero=True, with_coeff=True)


def ref_tilde(table, t):
    t = ext(t)
    _require_nonneg(t)
    if t == ZERO:
        return ZERO - table.log_view.value(0)
    return ref_sup_scan(table, t, include_zero=True, with_coeff=False).value


def ref_double_tilde(table, t):
    t = ext(t)
    if t <= ZERO:
        raise OutOfDomain("sup over p >= 1 needs t > 0 (the limit at 0 is -inf)")
    return ref_sup_scan(table, t, include_zero=False, with_coeff=False).value


def ref_segment_index(self, t):
    """The former linear scan for the largest p with mu_p <= t."""
    base_end = self.base_end
    mus = self.quotients
    p = 0
    for q in range(1, len(mus)):
        if mus[q] <= t:
            p = q
    if isinstance(self.M.tail, FactorialPower) and p == base_end - 1:
        return self.M.tail.search(lambda q: not self.M.tail.quotient(q) <= t, base_end) - 1
    return p


def ref_piecewise(self, t):
    t = ext(t)
    _require_nonneg(t)
    self.require_log_convex()
    self._case2_guard(t)
    if t.is_pos_inf:
        return POS_INF
    p = ref_segment_index(self, t)
    if p == 0:
        return ZERO
    M0, Mp = self._weight(0), self._weight(p)
    if t.is_exact and M0.is_exact and Mp.is_exact:
        return ext(M0.raw * t.raw ** p / Mp.raw).log()
    return ext(float(M0.log()) + p * float(t.log()) - float(Mp.log()))


def ref_integral(self, t):
    """The former integral route: the telescoped product, one factor at a time."""
    t = ext(t)
    _require_nonneg(t)
    self.require_log_convex()
    self._case2_guard(t)
    if t.is_pos_inf:
        return POS_INF
    p = ref_segment_index(self, t)
    if p == 0:
        return ZERO
    wv = [self._weight(q) for q in range(p + 1)]
    mus = [None] + [wv[q] / wv[q - 1] for q in range(1, p + 1)]
    if t.is_exact and all(v.is_exact for v in wv):
        product = Fraction(1)
        for q in range(1, p):
            product *= (mus[q + 1].raw / mus[q].raw) ** q
        product *= (t.raw / mus[p].raw) ** p
        return ext(product).log()
    terms = [q * (float(mus[q + 1].log()) - float(mus[q].log())) for q in range(1, p)]
    terms.append(p * (float(t.log()) - float(mus[p].log())))
    if math.inf in terms and -math.inf in terms:
        q = terms.index(-math.inf) + 1
        raise NotLogConvex(f"piecewise evaluation needs log-convexity; violated at index {q}", q)
    return ext(math.fsum(terms))


def ref_brute_omega(M, t, p_max):
    """The former brute_omega: every term an ExtReal expression."""
    te = ext(t)
    if te < ZERO:
        raise ValueError("brute_omega needs t >= 0")
    weights = []
    for i, v in enumerate(M):
        e = ext(v)
        if not e.is_finite or e <= ZERO:
            raise ValueError(f"oracle weights must be positive and finite, got {e} at {i}")
        weights.append(e)
    if not weights:
        raise ValueError("empty weight list")
    last = min(p_max, len(weights) - 1)
    if te == ZERO:
        return ZERO
    best = None
    for p in range(last + 1):
        ratio = weights[0] * te ** p / weights[p]
        if ratio.is_pos_inf:
            raise ValueError(f"the term of index {p} overflows the float range")
        if best is None or ratio > best:
            best = ratio
    return best.log()


def outcome(fn, *args):
    """fn's result by repr (argmax and boundary too for an OmegaValue), or
    the type of what it raised."""
    try:
        v = fn(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)
    if isinstance(v, OmegaValue):
        return repr(v.value.to_json()), type(v.value.raw), v.argmax_index, v.boundary_attained
    return repr(v.to_json()), type(v.raw)


ROUTES = {
    "direct": ref_direct,
    "tilde": ref_tilde,
    "double_tilde": ref_double_tilde,
    "piecewise": ref_piecewise,
    "integral": ref_integral,
}


def check_routes(M, window, ts, order):
    """Evaluate every route at every t on one table, in the drawn order, and
    each reference on a fresh table of its own."""
    table, ref_table = OmegaTable(M, window), OmegaTable(M, window)
    for t in ts:
        for name in order:
            new = outcome(getattr(table, name), t)
            assert new == outcome(ROUTES[name], ref_table, t), (name, t)


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
def omega_cases(draw):
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
    # (where two terms tie), the limit root, and 0
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
    ts = draw(st.lists(t, min_size=1, max_size=4))
    order = draw(st.permutations(list(ROUTES)))
    return M, window, ts, order


# -- the tests -----------------------------------------------------------------


@given(omega_cases())
@settings(max_examples=600, deadline=None)
def test_routes_match_the_former_scans(case):
    check_routes(*case)


@given(st.integers(1, 6), st.integers(0, 5), st.sampled_from([Fraction(1), Fraction(2)]))
@settings(max_examples=40, deadline=None)
def test_factorial_tails_past_the_window(k, shift, s):
    # the segment lies past the window: the integral's product is extended by
    # binary splitting, the direct forms' terms by the tail search
    M = SequenceSpec(kind="weight", prefix=(Fraction(1),), tail=FactorialPower(s=s, c=Fraction(1)))
    t = Fraction(10 * k + shift) ** s
    check_routes(M, 4, [t, t + Fraction(1, 3), float(t), t - 1], list(ROUTES))


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
    check_routes(M, None, [Fraction(2), Fraction(4), 2.0, 4.0], list(ROUTES))


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
    assert OmegaTable(big_m0).direct(2).value == ZERO
    check_routes(big_m0, None, [Fraction(2), 2.0], ["tilde", "direct", "double_tilde"])


def test_t_at_the_limit_root():
    geometric = SequenceSpec(kind="weight", prefix=(1, 3), tail=Geometric(d=Fraction(2)))
    affine = SequenceSpec(kind="weight", prefix=(1,), tail=AffineLog(c=Fraction(1, 2)))
    for M, root in ((geometric, Fraction(2)), (affine, math.exp(0.5))):
        check_routes(M, 8, [root, root, ext(root).raw * 2], list(ROUTES))


def test_one_table_over_a_grid_matches_fresh_tables():
    # exact and float t of equal value must not share the per-t argmax
    M = SequenceSpec(kind="weight", prefix=(1, 1, 2, 8), tail=FactorialPower(s=Fraction(1), c=Fraction(1)))
    check_routes(M, 6, [Fraction(2), 2.0, Fraction(2), Fraction(7, 2), 3.5, Fraction(9)], list(ROUTES))


@given(st.lists(st.one_of(st.fractions(min_value=Fraction(1, 20), max_value=50, max_denominator=20),
                          st.integers(1, 400).map(lambda k: k / 8),
                          st.sampled_from([Fraction(0), float("inf"), 1e300, 1e-300])),
                min_size=1, max_size=12),
       st.one_of(st.fractions(min_value=0, max_value=30, max_denominator=12),
                 st.floats(0, 30), st.just(Fraction(-1))),
       st.integers(0, 14))
@settings(max_examples=400, deadline=None)
def test_brute_omega_matches_the_former_loop(weights, t, p_max):
    assert outcome(brute_omega, weights, t, p_max) == outcome(ref_brute_omega, weights, t, p_max)
