"""Associated weight function of a sequence, in three equivalent forms.

omega(t) = sup_p log(M_0 t^p / M_p), with 0^0 = 1 so that omega(0) = 0.

For log-convex sequences the supremum localizes: on [mu_p, mu_{p+1}] the
winning index is p, which gives the piecewise closed form and, after
telescoping the quotients, the counting-function integral.  The three routes
are kept as separate code paths; the piecewise and integral forms both reduce
to one log of an exact rational for exact inputs, so their agreement is exact
there (they arrange the same ratio differently), while the direct form takes
the sup of the terms themselves and cross-checks them.

Everything the routes need from the sequence alone (the two scale views, the
window values, the quotients, the log-convexity report, the regime and the
limit root) sits in an OmegaTable, built lazily and at most once per
(sequence, window, tol).  The public omega_* functions evaluate through a
fresh table; a caller evaluating a grid of t (the CLI's assoc) hands the grid
to one table's rows, which evaluates every route at every t in one pass.  On
exact t the three direct forms read their argmax off the lower hulls of
(p, log M_p), built once per table: the largest maximizer never moves back as
t rises, so a pointer per hull walks forward along a sorted grid, and the
whole grid costs one hull and O(n + m) pointer steps instead of O(n m) terms.
On float t they take one max over the table's float logs per t.  The
piecewise route bisects the quotient floor and the integral route extends the
table's prefix product; they never read the hull pointer.  Nothing is cached
beyond a table's lifetime.

The Young conjugate is computed geometrically: s -> omega(e^s) is piecewise
linear (the trace of the log sequence shifted by log M_0), so the conjugate
sup_s {ps - omega(e^s)} is exact over its breakpoints.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    NonFiniteEntry,
    NotLogConvex,
    OutOfDomain,
    SeqRegError,
    Unbounded,
    WindowTooShort,
)
from .extreal import _EXACT_BITS, ExtReal, NEG_INF, POS_INF, ZERO, ext
from .minorant import regularize
from .piecewise import Breakpoint, Interval, PiecewiseLinearFn, StepFunction
from .sequences import (
    CASE1,
    CASE2,
    SequenceSpec,
    classify_regime,
    is_log_convex,
    quotients,
    resolve_window,
    to_log_scale,
    to_weight_scale,
)
from .tails import TAIL_SEARCH_CAP, WEIGHT, AffineLog, ExplicitOnly, FactorialPower, Geometric

_EXACT_POWER_CAP = 512


@dataclass(frozen=True)
class OmegaValue:
    value: ExtReal
    argmax_index: Optional[int]
    boundary_attained: bool

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "argmax_index": self.argmax_index,
            "boundary_attained": self.boundary_attained,
        }


def _require_nonneg(t: ExtReal) -> None:
    if t < ZERO:
        raise OutOfDomain(f"associated function is defined for t >= 0, got {t}")


def _once(build):
    """A table field: built on first read; later reads return the value, or
    re-raise the package error the build raised."""
    name = build.__name__

    def read(self):
        memo = self._memo
        if name not in memo:
            try:
                memo[name] = (True, build(self))
            except SeqRegError as exc:
                memo[name] = (False, exc)
        ok, got = memo[name]
        if not ok:
            raise got.with_traceback(None)
        return got

    return property(read, doc=build.__doc__)


def _lower_hull(points: list) -> list:
    """Andrew's lower chain over (p, n_p, d_p), p ascending, in log M_p = log(n_p / d_p)."""
    hull: list = []
    for k, nk, dk in points:
        while len(hull) > 1:
            (i, ni, di), (j, nj, dj) = hull[-2], hull[-1]
            if nj ** (k - i) * di ** (k - j) * dk ** (j - i) <= ni ** (k - j) * nk ** (j - i) * dj ** (k - i):
                break
            hull.pop()
        hull.append((k, nk, dk))
    return hull


class OmegaTable:
    """What the omega routes read off one (sequence, window, tol), built once.

    Every field depends on the sequence, never on t: the log- and weight-scale
    views, the window values, the quotients, the log-convexity report (with
    tol), and the regime and limit root (with classify_regime's default
    tolerance).  Each is built on its first read and kept for the table's
    lifetime.  A field whose build raised raises that error on every read, so
    a route fails at the same step, with the same error, at every t.  The
    routes stay separate code paths over the table.  Besides, the table keeps
    the argmax of the last t, which the direct, tilde and double-tilde forms
    share, a pointer into each hull of the direct forms, and the integral
    route's partial products.
    """

    def __init__(self, M: SequenceSpec, window: Optional[int] = None, tol: float = 1e-9):
        self.M = M
        self.window = window
        self.tol = tol
        self._memo: dict = {}
        self._t = self._argmax = None  # the last t of the direct forms, and their argmax
        self._pointers = [(None, 0), (None, 0)]  # per hull: the last exact t and its vertex index
        self._prods = [Fraction(1)]  # _prods[k - 1] = prod_{q<k} (mu_{q+1}/mu_q)^q

    @_once
    def log_view(self) -> SequenceSpec:
        return to_log_scale(self.M)

    @_once
    def weight_view(self) -> SequenceSpec:
        return to_weight_scale(self.M)

    @_once
    def w(self) -> int:
        return resolve_window(self.log_view, self.window)

    @_once
    def base_end(self) -> int:
        """End of the examined range: one index past the prefix for closed-form tails."""
        closed_form = isinstance(self.M.tail, (Geometric, AffineLog, FactorialPower))
        return max(self.w, len(self.M.prefix) + 1) if closed_form else self.w

    @_once
    def avals(self) -> list[ExtReal]:
        a = self.log_view
        return [a.value(p) for p in range(self.base_end)]

    @_once
    def wvals(self) -> list[ExtReal]:
        Mw = self.weight_view
        return [Mw.value(p) for p in range(self.base_end)]

    @_once
    def wvals_exact(self) -> bool:
        # +inf only where the log view is: a finite weight past the float range takes the float path
        return all(v.is_exact or a.is_pos_inf for v, a in zip(self.wvals, self.avals))

    @_once
    def exact_end(self) -> int:
        """The first index of an inexact weight in the examined range, or its end."""
        return next((p for p, m in enumerate(self.wvals) if not m.is_exact), self.base_end)

    @_once
    def quotients(self) -> list[ExtReal]:
        return quotients(self.weight_view, self.base_end)

    @_once
    def quotient_logs(self) -> list[float]:
        """float(log mu_q) over the examined range, for the float integral route."""
        return [float(mu.log()) for mu in self.quotients]

    @_once
    def convexity(self):
        # over the quotients the routes read: the examined range, and past it a
        # closed-form tail's own, which the first one past the range joins
        closed_form = isinstance(self.M.tail, (Geometric, AffineLog, FactorialPower))
        return is_log_convex(self.weight_view, self.base_end + closed_form, self.tol)

    @_once
    def regime(self):
        return classify_regime(self.weight_view, self.window)

    @_once
    def limit_root(self) -> Optional[ExtReal]:
        """M_iota when it is known exactly: from the tail rule or a declaration."""
        root = self.M.tail.root_limit()
        if root is not None:
            return root
        regime = self.regime
        if regime.regime == CASE2 and regime.a_iota is not None:
            return regime.a_iota.exp()
        return None

    def _weight(self, q: int) -> ExtReal:
        v = self.wvals[q] if q < self.base_end else self.weight_view.value(q)
        if v.is_pos_inf and q >= len(self.M.prefix):
            raise NonFiniteEntry(f"the tail weight M_{q} overflows a float")
        return v

    @_once
    def log_coeff(self) -> Optional[float]:
        """log M_0 as a float, or None when it is not finite."""
        a0 = float(self.avals[0])
        return a0 if math.isfinite(a0) else None

    @_once
    def zero_weights(self) -> list[int]:
        """Indices of the zero weights (a_p = -inf) in the examined range."""
        return [p for p, a in enumerate(self.avals) if a.is_neg_inf]

    # -- direct forms -----------------------------------------------------------

    @_once
    def hulls(self) -> tuple[list, list]:
        """The lower hulls of the points (p, log M_p) over the exact positive
        weights, for p >= 0 and for p >= 1, each a list of (p, n_p, d_p) with
        M_p = n_p / d_p.  A point j between i and k is dropped only when it
        lies above their chord, M_j^(k-i) > M_i^(k-j) M_k^(j-i), decided on
        integers; collinear points stay.  +inf weights are left out."""
        points = [(p, m.raw.numerator, m.raw.denominator)
                  for p, m in enumerate(self.wvals) if m.is_exact and m.raw]
        return _lower_hull(points), _lower_hull([u for u in points if u[0]])

    def _hull_argmax(self, h: int, t: Fraction):
        """The last argmax of t^p / M_p over hull h, as its (p, n_p, d_p).

        The largest maximizer of p log t - log M_p never moves back as t
        rises, and it is a hull vertex: a pointer kept per hull advances while
        the next vertex's term is at least the current one (t^g M_j >= M_k for
        vertices j, k = j + g), so ties go to the larger index.  It starts over
        when t falls below the last t it served."""
        hull = self.hulls[h]
        if not hull:
            return None
        last, i = self._pointers[h]
        if last is None or t < last:
            i = 0
        a, b = t.numerator, t.denominator
        while i + 1 < len(hull):
            (j, nj, dj), (k, nk, dk) = hull[i], hull[i + 1]
            if a ** (k - j) * nj * dk < b ** (k - j) * nk * dj:
                break
            i += 1
        self._pointers[h] = (t, i)
        return hull[i]

    def _exact_argmax(self, t: ExtReal) -> list:
        """(p, log value) at the last argmax of t^p / M_p for the direct form
        (times M_0), over p >= 1 and over p >= 0, read off the hull pointers.
        With t = a/b and M_p = n_p/d_p, each value is the log of the one
        Fraction a^p d_p / (b^p n_p), times M_0 for the direct form."""
        t, m0 = t.raw, self.wvals[0]
        a, b = t.numerator, t.denominator

        def log_of(vertex, n0=1, d0=1):
            if vertex is not None:
                p, n, d = vertex
                return p, ext(Fraction(n0 * a ** p * d, d0 * b ** p * n)).log()

        best, top = self._hull_argmax(1, t), self._hull_argmax(0, t)
        shifted = log_of(top)
        return [log_of(top, m0.raw.numerator, m0.raw.denominator) if m0.is_exact else None,
                shifted if best == top else log_of(best), shifted]

    @_once
    def float_logs(self) -> list[tuple[int, float]]:
        """(p, float log M_p) over the examined range, +inf weights left out."""
        return [(p, float(a)) for p, a in enumerate(self.avals) if not a.is_pos_inf]

    def _float_argmax(self, t: ExtReal) -> list:
        """The same three from float terms; the direct form's carry log M_0, so
        its argmax is taken on them.  A (term, p) pair puts ties on the larger p."""
        log_t, coeff, logs = float(t.log()), self.log_coeff, self.float_logs
        terms = [(0.0 + p * log_t - a, p) for p, a in logs]
        best = max((u for u in terms if u[1]), default=None)
        top = None if coeff is None else max((coeff + p * log_t - a, p) for p, a in logs)
        return [None if u is None else (u[1], ext(u[0])) for u in (top, best, max(terms, default=None))]

    def _sup_scan(self, t: ExtReal, include_zero: bool, with_coeff: bool) -> OmegaValue:
        """sup over examined p of log(coeff * t^p / M_p), coeff = M_0 or 1, t > 0.

        Ties go to the larger index, matching the counting-function convention
        Sigma(t) = #{mu <= t} at the knots.  The forms share one argmax per t.
        Closed-form tails extend the scan:
        geometric-type tails give an analytic +inf above the limit root and a
        constant-term plateau at it; factorial-type tails are searched for the
        index where the quotient passes t (terms fall forever after that).
        """
        base_end = self.base_end  # a bad window raises before anything else
        if t.is_pos_inf:
            return OmegaValue(POS_INF, None, False)
        tail = self.M.tail

        root = self.limit_root
        if root is not None and root.is_finite:
            if t > root:
                return OmegaValue(POS_INF, None, False)

        off = self.log_coeff if with_coeff else 0.0
        if off is None:
            raise NonFiniteEntry("M_0 must be positive and finite for the associated function")
        # a zero weight divides some term: the sup is +inf at every t > 0
        zero_from = 0 if include_zero and not with_coeff else 1
        zero = next((p for p in self.zero_weights if p >= zero_from), None)
        if zero is not None:
            return OmegaValue(POS_INF, zero, False)

        wvals = self.wvals  # read on either path: a weight that cannot be built raises
        log_t = float(t.log())
        # the exact scan's coefficient M_0 must be exact too: a_0 past about 709.78
        # gives a finite log coefficient but a weight that overflows to +inf
        exact = (t.is_exact and base_end <= _EXACT_POWER_CAP and self.wvals_exact
                 and (not with_coeff or wvals[0].is_exact))
        if self._t != (t.raw, t.is_exact, exact):  # the forms at one t share one argmax
            self._t = (t.raw, t.is_exact, exact)
            self._argmax = (self._exact_argmax if exact else self._float_argmax)(t)
        best = self._argmax[0 if with_coeff else 1 + include_zero]
        if best is None:
            return OmegaValue(NEG_INF, None, False)
        best_p, best_val = best

        boundary = False
        if isinstance(tail, FactorialPower):
            # terms rise until M_p / M_{p-1} > t; only the last two can tie.  On the
            # exact path with an integer s the quotients p^s compare with t exactly,
            # so the tail's terms rise to end - 1, its one candidate, which meets
            # best by the exact sign of T_p - T_best; an exact tie keeps best's
            # value, the same number.  A winner's value is the log of its exact
            # term below the power cap, and a float term from there up
            a, whole = self.log_view, exact and tail.s.denominator == 1
            rises = (lambda p: tail.quotient(p) > t) if whole else (
                lambda p: float(a.value(p) - a.value(p - 1)) > log_t)
            try:
                end = tail.search(rises, base_end)
            except WindowTooShort:
                end, boundary = base_end + TAIL_SEARCH_CAP, True  # terms could still rise
            for p in range(max(base_end, end - 2 + whole), end):
                sign = self._tail_sign(t.raw, best_p, p) if whole else None
                if sign is None:
                    term = off + p * log_t - float(a.value(p))
                    if term >= float(best_val):
                        best_val, best_p = ext(term), p
                elif sign >= 0:
                    if sign and end <= _EXACT_POWER_CAP:
                        coeff = wvals[0].raw if with_coeff else 1
                        best_val = ext(t.raw ** p / self._weight(p).raw * coeff).log()
                    elif sign:
                        best_val = ext(off + p * log_t - float(a.value(p)))
                    best_p = p
        elif isinstance(tail, (Geometric, AffineLog)):
            if root is not None and t == root:
                # beyond the prefix the terms are constant: log coeff exactly
                const = self.avals[0] if with_coeff else ZERO
                if const >= best_val:
                    return OmegaValue(const, None, False)
        else:
            boundary = best_p == base_end - 1
        return OmegaValue(best_val, best_p, boundary)

    def _tail_sign(self, t: Fraction, best: int, p: int) -> Optional[int]:
        """The sign of T_p - T_best, T_q = t^q / M_q, for best in the examined
        range and p past it on an integer-s factorial tail; None where its
        integers could pass _EXACT_BITS.  From L = base_end - 1 on, the tail's
        weights are M_L times its exact quotients q^s, so
        T_p / T_best = t^(p - best) M_best / (M_L (p! / L!)^s)."""
        L, k = self.base_end - 1, p - best
        a, b = t.numerator, t.denominator
        if k * (a.bit_length() + b.bit_length()) > _EXACT_BITS:
            return None
        mb, mL = self.wvals[best].raw, self.wvals[L].raw
        lhs = a ** k * mb.numerator * mL.denominator
        rhs = (b ** k * mb.denominator * mL.numerator
               * (math.factorial(p) // math.factorial(L)) ** int(self.M.tail.s))
        return (lhs > rhs) - (lhs < rhs)

    def direct(self, t) -> OmegaValue:
        """omega_direct at t."""
        t = ext(t)
        _require_nonneg(t)
        if t == ZERO:
            return OmegaValue(ZERO, 0, False)
        return self._sup_scan(t, include_zero=True, with_coeff=True)

    def tilde(self, t) -> ExtReal:
        """omega_tilde at t."""
        t = ext(t)
        _require_nonneg(t)
        if t == ZERO:
            return ZERO - self.log_view.value(0)
        return self._sup_scan(t, include_zero=True, with_coeff=False).value

    def double_tilde(self, t) -> ExtReal:
        """omega_double_tilde at t."""
        t = ext(t)
        if t <= ZERO:
            raise OutOfDomain("sup over p >= 1 needs t > 0 (the limit at 0 is -inf)")
        return self._sup_scan(t, include_zero=False, with_coeff=False).value

    def rows(self, ts) -> list[list[Optional[ExtReal]]]:
        """[t, direct, piecewise, integral, tilde, double_tilde] at each t of
        ts, in order: each route's value, or None where it raised a package
        error.  A rising grid moves the hull pointers forward only."""
        routes = (lambda t: self.direct(t).value, self.piecewise, self.integral,
                  self.tilde, self.double_tilde)
        out = []
        for t in ts:
            row: list[Optional[ExtReal]] = [ext(t)]
            for route in routes:
                try:
                    row.append(route(row[0]))
                except SeqRegError:
                    row.append(None)
            out.append(row)
        return out

    # -- piecewise / integral forms (log-convex inputs) ---------------------------

    def require_log_convex(self) -> None:
        report = self.convexity
        if not report.ok:
            raise NotLogConvex(
                f"piecewise evaluation needs log-convexity; violated at index "
                f"{report.violation_index}", report.violation_index)

    def _case2_guard(self, t: ExtReal) -> None:
        if self.regime.regime != CASE2:
            return
        C = self.limit_root
        if C is not None and t >= C:
            raise OutOfDomain(
                f"bounded-quotient sequences admit the closed form on [0, C) only; "
                f"t = {t} >= C = {C}")

    @_once
    def quotient_floor(self) -> list:
        """min over r >= q of mu_r at each examined q: non-decreasing."""
        return list(accumulate([mu.raw for mu in reversed(self.quotients)], min))[::-1]

    def _segment_index(self, t: ExtReal) -> int:
        """Largest p with mu_p <= t over the examined range (0 when mu_1 > t).

        Bisects the quotient floor, whose last entry <= t sits where the last
        quotient <= t does.  Factorial-type tails are searched past the window
        for the first quotient above t; other tails rely on the window
        (geometric-type quotients are constant beyond the prefix, covered by
        one extra examined index).
        """
        base_end = self.base_end
        p = bisect_right(self.quotient_floor, t.raw, 1) - 1
        if isinstance(self.M.tail, FactorialPower) and p == base_end - 1:
            return self.M.tail.search(lambda q: not self.M.tail.quotient(q) <= t, base_end) - 1
        return p

    def _telescoped(self, p: int) -> Fraction:
        """prod_{q<p} (mu_{q+1}/mu_q)^q on exact weights, its partial products
        over the examined range kept.  Past it (factorial tails, integer mu)
        the stretch from k telescopes to mu_p^(p-1) / (mu_k^k prod_{k<j<p} mu_j),
        and that product is taken by binary splitting."""
        prods, mus, k = self._prods, self.quotients, min(p, self.base_end - 1)
        while len(prods) < k:
            q = len(prods)
            prods.append(prods[-1] * (mus[q + 1].raw / mus[q].raw) ** q)
        if p == k:
            return prods[p - 1]
        inner = [self.M.tail.quotient(j).raw for j in range(k + 1, p)] or [1]
        while len(inner) > 1:  # pairwise, so large products meet operands of equal size
            inner = [math.prod(inner[i:i + 2]) for i in range(0, len(inner), 2)]
        return prods[k - 1] * self.M.tail.quotient(p).raw ** (p - 1) / (mus[k].raw ** k * inner[0])

    def piecewise(self, t) -> ExtReal:
        """omega_piecewise at t."""
        t = ext(t)
        _require_nonneg(t)
        self.require_log_convex()
        self._case2_guard(t)
        if t.is_pos_inf:
            return POS_INF
        p = self._segment_index(t)
        if p == 0:
            return ZERO
        M0, Mp = self._weight(0), self._weight(p)
        if t.is_exact and M0.is_exact and Mp.is_exact:
            return ext(M0.raw * t.raw ** p / Mp.raw).log()
        return ext(float(M0.log()) + p * float(t.log()) - float(Mp.log()))

    def integral(self, t) -> ExtReal:
        """omega_integral at t."""
        t = ext(t)
        _require_nonneg(t)
        self.require_log_convex()
        self._case2_guard(t)
        if t.is_pos_inf:
            return POS_INF
        p = self._segment_index(t)
        if p == 0:
            return ZERO
        if t.is_exact and self.exact_end > min(p, self.base_end - 1) and (
                p < self.base_end or self.M.tail.s.denominator == 1):
            self._weight(p)  # a tail weight too large to build exactly raises here too
            mu_p = self.quotients[p] if p < self.base_end else self.M.tail.quotient(p)
            return ext(self._telescoped(p) * (t.raw / mu_p.raw) ** p).log()
        logs, k = self.quotient_logs, self.base_end - 1
        if p >= k:  # weights from the last examined one on are checked, and read here
            wv = [self._weight(q) for q in range(k, p + 1)]
            logs = logs + [float((b / a).log()) for a, b in zip(wv, wv[1:])]
        terms = [q * (logs[q + 1] - logs[q]) for q in range(1, p)]
        terms.append(p * (float(t.log()) - logs[p]))
        if math.inf in terms and -math.inf in terms:
            # a quotient fell to 0 after a positive one, which float rounding
            # can hide from the convexity check (M_q^2 underflows to 0)
            q = terms.index(-math.inf) + 1
            raise NotLogConvex(f"piecewise evaluation needs log-convexity; violated at index {q}", q)
        return ext(math.fsum(terms))


def omega_direct(M: SequenceSpec, t, window: Optional[int] = None) -> OmegaValue:
    """sup_p log(M_0 t^p / M_p) over the window, with closed-form tail analysis.

    boundary_attained signals that the winning index sits at the edge of the
    examined range with nothing known beyond it, so the value may be a strict
    underestimate (possibly of +inf).
    """
    return OmegaTable(M, window).direct(t)


def omega_tilde(M: SequenceSpec, t, window: Optional[int] = None) -> ExtReal:
    """sup_p log(t^p / M_p): the associated function without its M_0 factor."""
    return OmegaTable(M, window).tilde(t)


def omega_double_tilde(M: SequenceSpec, t, window: Optional[int] = None) -> ExtReal:
    """sup over p >= 1 only; tends to -inf as t -> 0, so t = 0 is rejected."""
    return OmegaTable(M, window).double_tilde(t)


def omega_piecewise(M: SequenceSpec, t, window: Optional[int] = None,
                    tol: float = 1e-9) -> ExtReal:
    """Closed form log(M_0 t^p / M_p) on the quotient segment [mu_p, mu_{p+1}]."""
    return OmegaTable(M, window, tol).piecewise(t)


def omega_integral(M: SequenceSpec, t, window: Optional[int] = None,
                   tol: float = 1e-9) -> ExtReal:
    """Integral of Sigma(s)/s from 0 to t, telescoped to a closed form.

    sum_{q<p} q log(mu_{q+1}/mu_q) + p log(t/mu_p), where p is the segment
    index of t.  No quadrature: the integrand is exactly integrable.  For
    exact inputs the product of the factors is accumulated as one rational,
    which makes the agreement with the piecewise form exact.
    """
    return OmegaTable(M, window, tol).integral(t)


def counting_function(M: SequenceSpec, window: Optional[int] = None,
                      tol: float = 1e-9) -> StepFunction:
    """Sigma(t) = #{p >= 1 : mu_p <= t} over the window, as a step function.

    Repeated quotient values collapse into one jump of the full multiplicity.
    The domain is [0, +inf) except for bounded quotients, where the integral
    representation only holds on [0, C).
    """
    table = OmegaTable(M, window, tol)
    table.require_log_convex()
    Mw = table.weight_view
    w = resolve_window(Mw, window)
    mus = quotients(Mw, w)
    pairs = sorted((mus[q], q) for q in range(1, w))
    jumps = []
    level = 0
    for x, q in pairs:
        level = max(level, q)  # convexity makes this the running index already
        jumps.append((x, level))
    hi = POS_INF
    if table.regime.regime == CASE2:
        C = table.limit_root
        if C is not None:
            hi = C
    domain = Interval(ZERO, hi, True, False)
    return StepFunction(jumps=tuple(jumps), initial_level=0, domain=domain)


# -- Young conjugate and the associated sequence ---------------------------------


def phi_omega(M: SequenceSpec, window: Optional[int] = None) -> PiecewiseLinearFn:
    """s -> omega(e^s) as a piecewise-linear function (trace shifted by log M_0).

    Vanishes at -inf (omega(0) = 0).  For bounded quotients the domain is
    (-inf, a_iota); beyond it omega is +inf, available through extended
    evaluation.
    """
    a = to_log_scale(M)
    result = regularize(a, window)
    if result.regime.regime == CASE1:
        raise Unbounded("omega is +inf for every t > 0 when the minorant collapses")
    tr = result.trace
    a0 = a.value(0)
    bps = tuple(
        Breakpoint(b.x, b.left_value + a0, b.right_value + a0, b.slope_right)
        for b in tr.breakpoints)
    return PiecewiseLinearFn(
        breakpoints=bps,
        domain=tr.domain,
        slope_left=tr.slope_left,
        value_at_minus_inf=None if tr.value_at_minus_inf is None else tr.value_at_minus_inf + a0,
        constant=None if tr.constant is None else tr.constant + a0,
    )


def young_conjugate(M: SequenceSpec, p: int, window: Optional[int] = None,
                    domain: str = "full") -> ExtReal:
    """sup_s {p s - omega(e^s)}, exact over the breakpoints of phi_omega.

    domain="restricted" names the bounded-quotient convention (sup over
    s < a_iota); the value is the same either way because omega(e^s) = +inf
    beyond a_iota kills those s in the full sup.
    """
    if domain not in ("full", "restricted"):
        raise ValueError("domain must be 'full' or 'restricted'")
    if p < 0 or int(p) != p:
        raise ValueError("the conjugate is taken at integer p >= 0")
    if p == 0:
        return ZERO  # omega >= 0 with omega(0) = 0, so sup(-omega) = 0
    phi = phi_omega(M, window)
    return phi.conjugate_at(ext(int(p))).value


def underline_sequence(M: SequenceSpec, window: Optional[int] = None) -> SequenceSpec:
    """The sequence M_0 sup_t t^p / e^{omega(t)} = M_0 e^{conjugate at p}.

    Log-convex, elementwise <= M, fixes M_0, and reproduces M exactly when M
    is already log-convex.
    """
    Mw = to_weight_scale(M)
    phi = phi_omega(Mw, window)
    w = resolve_window(Mw, window)
    M0 = Mw.value(0)
    out = [M0]
    for p in range(1, w):
        out.append(M0 * phi.conjugate_at(ext(p)).value.exp())
    return SequenceSpec(kind=WEIGHT, prefix=tuple(out), tail=ExplicitOnly())
