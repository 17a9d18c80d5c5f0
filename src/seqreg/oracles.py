"""Brute-force reference implementations for tests and the --verify flag.

Everything here is deliberately naive: pairwise line enumeration, plain
loops, dense slope grids.  None of the engine modules are imported; the
only shared vocabulary is the extended-real number type.  Quadratic or
cubic cost in the window length is accepted.

The minorant oracle's two routes and the trace's direct sup stay pairwise
and cubic, but run on integers: the exact values are scaled once by the lcm
of their denominators, every comparison is a cross-multiplication, and only
the outputs are built as Fractions.

The associated function's plain loop runs every index at every t; over a
grid (`brute_omega_grid`) it checks the weights once and then loops per t.

The stripe oracle's dense grid is built one index at a time: the row
a_p - p t exists only on that index's stripe, the grid slopes where
phi(t) >= p, and the rows are folded into a running minimum, then read once
more for the ties and the recovered values; the n x grid matrix is never
built.  The deviation report compares each pair on integer ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .extreal import ExtReal, POS_INF, ZERO, ext

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OracleReport",
    "SweepResult",
    "brute_minorant",
    "brute_omega",
    "brute_omega_grid",
    "brute_phi_sweep",
    "brute_trace",
    "compare_values",
]


# ---------------------------------------------------------------------------
# deviation reports


@dataclass(frozen=True)
class OracleReport:
    """Elementwise comparison between an engine quantity and its oracle."""

    quantity: str
    main_value: object
    oracle_value: object
    max_abs_deviation: float
    max_rel_deviation: float
    witness: object
    # max over the pairs of |main - oracle| / max(1, |main|, |oracle|); the
    # printed max_rel_deviation is that ratio for the worst absolute pair only
    max_scaled_deviation: float = 0.0

    def within(self, tol: float) -> bool:
        """Every pair deviates by at most tol * max(1, |main|, |oracle|)."""
        return self.max_scaled_deviation <= tol

    def to_json(self) -> dict:
        return {
            "quantity": self.quantity,
            "main_value": _jsonify(self.main_value),
            "oracle_value": _jsonify(self.oracle_value),
            "max_abs_deviation": self.max_abs_deviation,
            "max_rel_deviation": self.max_rel_deviation,
            "witness": _jsonify(self.witness),
        }


def _jsonify(value):
    if isinstance(value, ExtReal):
        return value.to_json()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _pair_deviation(main, oracle) -> float:
    x, y = ext(main), ext(oracle)
    if not x.is_finite or not y.is_finite:
        return 0.0 if x == y else math.inf
    return abs(float(x) - float(y))


def _scaled_deviation(main, oracle) -> float:
    """|main - oracle| / max(1, |main|, |oracle|), exact on finite values:
    floats near the float range neither overflow nor lose the ratio.

    On main = a/b and oracle = c/d (b, d > 0) that is |ad - cb| / max(bd,
    |a|d, |c|b), one integer division, which Python rounds correctly, so
    the float equals the Fraction's."""
    x, y = ext(main), ext(oracle)
    if not x.is_finite or not y.is_finite:
        return 0.0 if x == y else math.inf
    (a, b), (c, d) = x.raw.as_integer_ratio(), y.raw.as_integer_ratio()
    return abs(a * d - c * b) / max(b * d, abs(a) * d, abs(c) * b)


def compare_values(quantity: str, pairs, witnesses=None) -> OracleReport:
    """Build an OracleReport from (main, oracle) pairs.

    witnesses labels each pair; defaults to the pair's position.
    """

    pairs = list(pairs)
    if witnesses is None:
        witnesses = list(range(len(pairs)))
    if not pairs:
        return OracleReport(quantity, None, None, 0.0, 0.0, None)
    worst = 0
    worst_dev = -1.0
    for i, (m, o) in enumerate(pairs):
        dev = _pair_deviation(m, o)
        if dev > worst_dev:
            worst_dev, worst = dev, i
    m, o = pairs[worst]
    scale = max(1.0, _finite_abs(m), _finite_abs(o))
    rel = worst_dev / scale if math.isfinite(worst_dev) else math.inf
    scaled = max(_scaled_deviation(x, y) for x, y in pairs)
    return OracleReport(quantity, m, o, max(worst_dev, 0.0), rel, witnesses[worst], scaled)


def _finite_abs(v) -> float:
    e = ext(v)
    return abs(float(e)) if e.is_finite else 0.0


# ---------------------------------------------------------------------------
# convex minorant by exhaustive line enumeration


def _rationalize_allow_pos_inf(values: Sequence, what: str) -> list[Fraction | None]:
    """The values as Fractions, +inf entries as None (no constraint)."""
    out: list[Fraction | None] = []
    for i, v in enumerate(values):
        e = ext(v)
        if e.is_pos_inf:
            out.append(None)
            continue
        if not e.is_finite:
            raise ValueError(f"{what} must avoid -inf, got {e} at index {i}")
        raw = e.raw
        out.append(raw if isinstance(raw, Fraction) else Fraction(raw))
    return out


def _common_denominator(points: Sequence[tuple[int, Fraction]], cap: Fraction | None = None):
    """D, the points (p, v_p D) and the cap times D, where D is the lcm of the
    denominators of every v_p and of the cap."""
    D = math.lcm(*(v.denominator for _, v in points), 1 if cap is None else cap.denominator)
    scaled = [(p, v.numerator * (D // v.denominator)) for p, v in points]
    return D, scaled, None if cap is None else cap.numerator * (D // cap.denominator)


def brute_minorant(a: Sequence, slope_cap=None, beyond: Sequence = ()) -> list[ExtReal]:
    """Largest convex sequence below a, computed two independent ways.

    Route one enumerates every line through a pair of points, plus the
    slope-cap line through each point when a cap is given, keeps the
    lines lying below the whole sequence, and takes the pointwise sup.
    Route two evaluates the double conjugate sup_k {kp - sup_q (qk - a_q)}
    over the same slope candidates.  Both run on integers: every value and
    the cap are scaled by the lcm D of their denominators, and each output
    is one Fraction over D.  The routes must agree before anything is
    returned.

    +inf entries impose no constraint and anchor no line; they are
    projected down onto the hull like everything else.  ``beyond`` holds
    (index, value) points past the end of a, such as a far tail point:
    they constrain and anchor lines like the others, but the result covers
    a's indices only.
    """

    vals = _rationalize_allow_pos_inf(a, "oracle input")
    n = len(vals)
    if n == 0:
        return []
    if vals[0] is None:
        raise ValueError("oracle input needs a finite anchor a_0")
    cap: Fraction | None = None
    if slope_cap is not None:
        cap_e = ext(slope_cap)
        if cap_e.is_finite:
            raw = cap_e.raw
            cap = raw if isinstance(raw, Fraction) else Fraction(raw)
        # an infinite cap is no cap at all
    finite = [(p, v) for p, v in enumerate(vals) if v is not None]
    far = _rationalize_allow_pos_inf([v for _, v in beyond], "oracle input")
    finite += [(q, v) for (q, _), v in zip(beyond, far) if v is not None]
    # without a cap, past the last finite point every slope is admissible and
    # no line bounds the sup: the minorant is +inf there
    reach = n if cap is not None else min(n, finite[-1][0] + 1)
    if len(finite) == 1:  # a_0 alone: the lines through it of slope up to the cap
        line = [vals[0]] + [vals[0] + cap * p for p in range(1, reach)]
        return [ext(v) for v in line] + [POS_INF] * (n - reach)

    # every value and the cap times the common denominator D, so route one's
    # lines and route two's slopes are integer pairs (dy, dx) of slope dy / (dx D)
    D, pts, C = _common_denominator(finite, cap)

    # route one: explicit supporting lines, kept as (point, dy, dx) with dx > 0
    lines: list[tuple[int, int, int, int]] = []
    for i, (p, vp) in enumerate(pts):
        for q, vq in pts[i + 1:]:
            dy, dx = vq - vp, q - p
            if C is not None and dy > C * dx:
                continue
            lines.append((p, vp, dy, dx))
    if C is not None:
        lines += [(p, vp, C, 1) for p, vp in pts]
    admissible = [
        (p, vp, dy, dx) for (p, vp, dy, dx) in lines
        if all(dy * (r - p) <= (vr - vp) * dx for r, vr in pts)
    ]
    route_one = []
    for x in range(reach):
        # the line's value at x is (vp dx + dy (x - p)) / (dx D)
        num, den = None, 1
        for p, vp, dy, dx in admissible:
            cand = vp * dx + dy * (x - p)
            if num is None or cand * den > num * dx:
                num, den = cand, dx
        route_one.append(Fraction(num, den * D))

    # route two: double conjugate over the same slope candidates, in lowest
    # terms (a, b) with b > 0; the trace sup_q (q k - a_q) is T / (b D)
    slopes = set()
    for i, (p, vp) in enumerate(pts):
        for q, vq in pts[i + 1:]:
            g = math.gcd(vq - vp, q - p)
            slopes.add(((vq - vp) // g, (q - p) // g))
    if C is not None:
        slopes = {(a, b) for a, b in slopes if a <= C * b}
        slopes.add((C, 1))
    traces = [(a, b, max(q * a - vq * b for q, vq in pts)) for a, b in slopes]
    route_two = []
    for x in range(reach):
        # the value at x is (x a - T) / (b D)
        num, den = None, 1
        for a, b, trace in traces:
            cand = x * a - trace
            if num is None or cand * den > num * b:
                num, den = cand, b
        route_two.append(Fraction(num, den * D))

    assert route_one == route_two, (
        "brute_minorant self-check failed: line enumeration and double "
        f"conjugate disagree ({route_one} vs {route_two})"
    )
    return [ext(v) for v in route_one] + [POS_INF] * (n - reach)


# ---------------------------------------------------------------------------
# trace function by direct sup


def brute_trace(values: Sequence[ExtReal], slopes: Sequence[ExtReal],
                beyond: Sequence = ()) -> list[ExtReal]:
    """A(k) = max_p (p k - a_p) over the finite a_p, at each slope k.

    ``beyond`` adds (index, value) points past the values, such as a far
    tail point.  On exact values and slopes the sup runs on integers over
    the common denominator D of the values, one Fraction per slope.
    Otherwise it is the ExtReal expression, whose float rounding the result
    then carries.
    """

    points = [*enumerate(values), *((q, ext(v)) for q, v in beyond)]
    finite = [(p, v) for p, v in points if v.is_finite]
    if finite and all(v.is_exact for _, v in finite) and all(k.is_exact for k in slopes):
        D, pts, _ = _common_denominator([(p, v.raw) for p, v in finite])
        out = []
        for k in slopes:
            kn, kd = k.raw.numerator * D, k.raw.denominator
            out.append(ext(Fraction(max(p * kn - vp * kd for p, vp in pts), kd * D)))
        return out
    return [max(ext(p) * k - v for p, v in finite) for k in slopes]


# ---------------------------------------------------------------------------
# associated function by plain loop


def brute_omega(M: Sequence, t, p_max: int) -> ExtReal:
    """max over p <= p_max of log(M_0 t^p / M_p), evaluated term by term:
    on an exact t and weights as integer pairs compared by cross-multiplying,
    the largest made one Fraction; otherwise as ExtReal expressions."""

    te = ext(t)
    if te < ZERO:
        raise ValueError("brute_omega needs t >= 0")
    return _omega_loop(_oracle_weights(M), te, p_max)


def brute_omega_grid(M: Sequence, ts: Sequence, p_max: int) -> list[Optional[ExtReal]]:
    """brute_omega at each t of ts, or None where it raises ValueError.  The
    weights are checked once for the grid; each t runs the same loop."""

    try:
        weights = _oracle_weights(M)
    except ValueError:
        return [None] * len(ts)
    out: list[Optional[ExtReal]] = []
    for t in ts:
        te = ext(t)
        try:
            out.append(None if te < ZERO else _omega_loop(weights, te, p_max))
        except ValueError:
            out.append(None)
    return out


def _oracle_weights(M: Sequence) -> list[ExtReal]:
    weights = []
    for i, v in enumerate(M):
        e = ext(v)
        if not e.is_finite or e <= ZERO:
            raise ValueError(f"oracle weights must be positive and finite, got {e} at {i}")
        weights.append(e)
    if not weights:
        raise ValueError("empty weight list")
    return weights


def _omega_loop(weights: list[ExtReal], te: ExtReal, p_max: int) -> ExtReal:
    last = min(p_max, len(weights) - 1)
    if te == ZERO:
        return ZERO  # the p = 0 term is log 1, every other term is log 0
    if te.is_exact and all(w.is_exact for w in weights[:last + 1]):
        (a, b), m0, top = te.raw.as_integer_ratio(), weights[0].raw, None
        for p, m in enumerate(w.raw for w in weights[:last + 1]):
            # term p is n_0 a^p d_p / (d_0 b^p n_p) for t = a/b and M_p = n_p/d_p
            num, den = m0.numerator * a ** p * m.denominator, m0.denominator * b ** p * m.numerator
            if top is None or num * top[1] > top[0] * den:
                top = (num, den)
        return ext(Fraction(*top)).log()
    best = None
    for p in range(last + 1):
        ratio = weights[0] * te ** p / weights[p]
        if ratio.is_pos_inf:  # a float term past the float range: no loop value
            raise ValueError(f"the term of index {p} overflows the float range")
        if best is None or ratio > best:
            best = ratio
    return best.log()


# ---------------------------------------------------------------------------
# stripe construction on a dense slope grid


@dataclass(frozen=True)
class SweepResult:
    """Grid-resolution image of a stripe-limited regularization."""

    regularized: list[ExtReal]
    principal_indices: list[int]
    discontinuity_indices: list[int]
    discontinuity_slopes: list[float]
    grid_start: float
    grid_stop: float
    grid_step: float
    ts: np.ndarray
    ms: np.ndarray
    As: np.ndarray

    def to_json(self) -> dict:
        return {
            "regularized": [v.to_json() for v in self.regularized],
            "principal_indices": self.principal_indices,
            "discontinuity_indices": self.discontinuity_indices,
            "discontinuity_slopes": self.discontinuity_slopes,
            "grid": [self.grid_start, self.grid_stop, self.grid_step],
        }


_MAX_GRID = 4_000_000


def brute_phi_sweep(
    a: Sequence,
    phi: Callable,
    slope_grid_step: float,
    t_min: float | None = None,
    t_max: float | None = None,
    tie_tol: float = 1e-9,
    beyond: Sequence = (),
) -> SweepResult:
    """Simulate the stripe construction on a dense grid of slopes.

    For each grid slope t the admissible indices are p <= phi(t); the
    supporting value is min over those p of a_p - p t.  Principal indices
    are every index attaining that minimum somewhere on the grid, the
    trace samples are the negated minima, and the regularized sequence is
    recovered by maximizing p t - A(t) over the admissible part of the
    grid.  Everything is float; accuracy is bounded by the grid step.
    +inf entries are points that never attain the minimum.  Past the last
    finite entry the sup is +inf when the grid stands for slopes up to +inf
    (no t_max), and the sup over the grid otherwise.  ``beyond`` holds
    (index, value) points past the end of a, such as a far tail point: they
    take part in every minimum like the others, but the regularized values
    and the principal indices cover a's indices only.

    Precondition: phi is non-decreasing along the grid (axiom I of a
    regularizing function).  Then the grid slopes with phi(t) >= p form a
    suffix of the grid, its stripe, and the start of each of the n stripes
    is found by bisection over the grid instead of evaluating phi at every
    grid slope.  The stripes are the per-slope visibility whenever the
    precondition holds.
    """
    import numpy as np  # only this oracle needs it; importing it costs the CLI start-up

    if slope_grid_step <= 0:
        raise ValueError("slope_grid_step must be positive")
    vals = [math.inf if f is None else float(f)
            for f in _rationalize_allow_pos_inf([*a, *(v for _, v in beyond)], "sweep input")]
    n = len(a)
    if not vals or vals[0] == math.inf:
        raise ValueError("sweep input needs a finite anchor a_0")
    rows = [*range(n), *(q for q, _ in beyond)]  # each value's index
    if len(vals) == 1:
        t0 = t_min if t_min is not None else 0.0
        return SweepResult(
            regularized=[ext(a[0])],
            principal_indices=[0],
            discontinuity_indices=[],
            discontinuity_slopes=[],
            grid_start=t0,
            grid_stop=t0,
            grid_step=slope_grid_step,
            ts=np.array([t0]),
            ms=np.array([0]),
            As=np.array([-vals[0]]),
        )

    finite = [(rows[i], vals[i]) for i in range(len(vals)) if vals[i] != math.inf]
    diffs = [(v - u) / (q - p) for (p, u), (q, v) in zip(finite, finite[1:])] or [0.0]
    last_threshold = _phi_threshold_estimate(phi, rows[-1], max(diffs))
    if t_min is None:
        t_min = min(min(diffs), last_threshold) - 1.0
    unbounded = t_max is None
    if unbounded:
        t_max = max(max(diffs), last_threshold) + 1.0
    span = (t_max - t_min) / slope_grid_step
    if not span < _MAX_GRID:  # a non-finite span is refused too
        size = f"{math.floor(span) + 1} points" if math.isfinite(span) else "unbounded size"
        raise ValueError(
            f"grid of {size} exceeds the oracle budget of {_MAX_GRID} points; "
            "pass explicit t_min/t_max or a coarser step"
        )
    count = math.floor(span) + 1
    ts = t_min + slope_grid_step * np.arange(count)

    # each value's row a_p - p t exists on its stripe ts[s:] only, where s is
    # the first grid slope with phi(t) >= p; off it the point is not visible
    starts = [int(s) for s in _stripe_starts(phi, ts, rows)]
    stripes = [(i, v, p, s) for i, (v, p, s) in enumerate(zip(vals, rows, starts))
               if s < count]
    # pass one: the supporting value d(t), the rows folded into a running minimum
    d = np.full(count, np.inf)
    for _, v, p, s in stripes:
        if v != math.inf:  # an infinite row never lowers the minimum
            np.minimum(d[s:], v - p * ts[s:], out=d[s:])
    As = -d
    tie = tie_tol * np.maximum(1.0, np.abs(d))
    # jumps of the trace: the normal per-cell drift of d is at most
    # (n - 1) * step, anything far beyond that is a discontinuity; the
    # index entering at one is the least index tied at the grid slope after it
    gap = max(16.0 * n * slope_grid_step, 1e-9)
    after = [int(cell) + 1 for cell in np.nonzero(d[:-1] - d[1:] > gap)[0]]
    entrants = [rows[-1] + 1] * len(after)

    # pass two: each row again, its ties with the minimum and the recovered value
    ms = np.full(count, -1)
    principal: list[int] = []
    regularized = [ext(v) for v in vals[:n]]
    for i, v, p, s in stripes:
        pt = p * ts[s:]
        hit = v - pt - d[s:] <= tie[s:]  # a row never lies below the minimum
        if hit.any():
            ms[s:][hit] = p  # the rows increase, so the last tie is the largest index
            if i < n:
                principal.append(p)
            for k, c in enumerate(after):
                if c >= s and hit[c - s]:
                    entrants[k] = min(entrants[k], p)
        if i < n and not (unbounded and p > finite[-1][0]):
            regularized[i] = ext(min(float((pt - As[s:]).max()), v))

    return SweepResult(
        regularized=regularized,
        principal_indices=principal,
        discontinuity_indices=entrants,
        discontinuity_slopes=[float(ts[c - 1] + 0.5 * slope_grid_step) for c in after],
        grid_start=float(ts[0]),
        grid_stop=float(ts[-1]),
        grid_step=slope_grid_step,
        ts=ts,
        ms=ms,
        As=As,
    )


def _stripe_starts(phi: Callable, ts: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """For each p in the increasing rows the first grid position j with
    phi(ts[j]) >= p, or len(ts) when there is none; phi must be
    non-decreasing on the grid.

    The starts do not decrease in p, so each bisection begins at the
    previous start and ends at the nearest position already probed whose
    value reaches p; phi is evaluated at most once per grid position.
    """
    import numpy as np

    seen: dict[int, float] = {}

    def at(j: int) -> float:
        if j not in seen:
            seen[j] = _phi_float(phi, ts[j])
        return seen[j]

    starts = []
    lo = 0
    for p in rows:
        hi = min((j for j, v in seen.items() if j >= lo and v >= p), default=len(ts))
        while lo < hi:
            mid = (lo + hi) // 2
            if at(mid) >= p:
                hi = mid
            else:
                lo = mid + 1
        starts.append(lo)
    return np.array(starts)


def _phi_float(phi: Callable, t: float) -> float:
    v = ext(phi(ext(float(t))))
    return math.inf if v.is_pos_inf else float(v)


def _phi_threshold_estimate(phi: Callable, p: int, fallback: float) -> float:
    """Smallest grid-relevant t with phi(t) >= p, by doubling then bisection;
    fallback where phi reaches p at every slope (infinite) or at none probed."""
    if getattr(phi, "infinite", False):
        return fallback
    lo, hi = -1.0, 1.0
    for _ in range(200):
        if _phi_float(phi, hi) >= p:
            break
        hi *= 2.0
    else:
        return fallback
    for _ in range(200):
        if _phi_float(phi, lo) < p:
            break
        lo *= 2.0
    else:
        return fallback
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: no later step moves either end
            break
        if _phi_float(phi, mid) >= p:
            hi = mid
        else:
            lo = mid
    return hi
