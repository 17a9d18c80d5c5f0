"""Piecewise-linear functions, step functions, and intervals.

The trace of a minorant and the stripe trace are convex piecewise-linear
functions that may jump upward at finitely many points; both are represented
here as sorted breakpoints carrying (x, left value, value, slope to the
right).  Evaluation is right-continuous.  The conjugate helper computes
sup { p*x - f(x) } over the domain (optionally clipped from below), which is
the single primitive behind reconstruction, recovery, and Young conjugates:
for integer p the supremum lives at breakpoints, at the clip point, or in the
limit at an open end, and those are exactly the candidates enumerated.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from .errors import OutOfDomain
from .extreal import ExtReal, NEG_INF, POS_INF, ZERO, ext


@dataclass(frozen=True)
class Interval:
    lo: ExtReal
    hi: ExtReal
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lo", ext(self.lo))
        object.__setattr__(self, "hi", ext(self.hi))

    @property
    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_closed and self.hi_closed)
        return False

    def contains(self, x: ExtReal) -> bool:
        x = ext(x)
        if not x.is_finite:
            # infinities are handled by the callers' conventions, not the domain
            return False
        if x < self.lo or (x == self.lo and not self.lo_closed):
            return False
        if x > self.hi or (x == self.hi and not self.hi_closed):
            return False
        return True

    def to_json(self) -> dict:
        return {
            "lo": self.lo.to_json(),
            "hi": self.hi.to_json(),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


REAL_LINE = Interval(NEG_INF, POS_INF)
EMPTY_INTERVAL = Interval(POS_INF, NEG_INF)


@dataclass(frozen=True)
class Breakpoint:
    x: ExtReal
    left_value: ExtReal
    right_value: ExtReal
    slope_right: ExtReal

    def __post_init__(self):
        for name in ("x", "left_value", "right_value", "slope_right"):
            if type(getattr(self, name)) is not ExtReal:
                object.__setattr__(self, name, ext(getattr(self, name)))

    @property
    def is_jump(self) -> bool:
        return self.left_value != self.right_value

    def to_json(self) -> dict:
        return {
            "x": self.x.to_json(),
            "left_value": self.left_value.to_json(),
            "right_value": self.right_value.to_json(),
            "slope_right": self.slope_right.to_json(),
        }


@dataclass(frozen=True)
class ConjugateValue:
    value: ExtReal
    attained: bool
    witness: Optional[ExtReal]


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Right-continuous piecewise-linear function on an interval domain.

    Left of the first breakpoint the function follows slope_left through
    (x_0, left_value_0).  A function with no breakpoints is the constant
    ``constant`` on its domain.  ``value_at_minus_inf`` is the conventional
    value at -inf (outside the real domain), used by traces.
    """

    breakpoints: tuple[Breakpoint, ...]
    domain: Interval = field(default=REAL_LINE)
    slope_left: ExtReal = field(default=ZERO)
    value_at_minus_inf: Optional[ExtReal] = None
    constant: Optional[ExtReal] = None

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "slope_left", ext(self.slope_left))
        if self.value_at_minus_inf is not None:
            object.__setattr__(self, "value_at_minus_inf", ext(self.value_at_minus_inf))
        if self.constant is not None:
            object.__setattr__(self, "constant", ext(self.constant))
        xs = [bp.x for bp in self.breakpoints]
        if any(not (a < b) for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "_xs", xs)

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, x, extended: bool = False) -> ExtReal:
        x = ext(x)
        if x.is_neg_inf:
            if self.value_at_minus_inf is not None:
                return self.value_at_minus_inf
            if extended:
                return POS_INF
            raise OutOfDomain("no value at -inf")
        if not self.domain.contains(x):
            if extended:
                return POS_INF
            raise OutOfDomain(f"{x} outside domain")
        return self._raw_value(x)

    __call__ = evaluate

    def _raw_value(self, x: ExtReal) -> ExtReal:
        """The value at x in the domain."""
        if not self.breakpoints:
            if self.constant is None:
                raise OutOfDomain("empty function")
            return self.constant
        i = bisect.bisect_right(self._xs, x) - 1
        if i < 0:
            first = self.breakpoints[0]
            return first.left_value - self.slope_left * (first.x - x)
        bp = self.breakpoints[i]
        return bp.right_value + bp.slope_right * (x - bp.x)

    def left_limit(self, x) -> ExtReal:
        """Limit of f from below at x (x may be the open right end of the domain)."""
        x = ext(x)
        if not self.breakpoints:
            if self.constant is None:
                raise OutOfDomain("empty function")
            return self.constant
        i = bisect.bisect_left(self._xs, x)
        if i < len(self.breakpoints) and self.breakpoints[i].x == x:
            return self.breakpoints[i].left_value
        return self._raw_value(x)

    @property
    def final_slope(self) -> ExtReal:
        if not self.breakpoints:
            return ZERO
        return self.breakpoints[-1].slope_right

    # -- conjugate ----------------------------------------------------------------

    def conjugate_at(self, p: int, lower: Optional[ExtReal] = None) -> ConjugateValue:
        """sup of p*x - f(x) over domain points x >= lower (lower = None: no clip).

        Includes the conventional -inf point when the function has a value
        there and the clip allows it: with the 0 * (-inf) = 0 convention this
        contributes -f(-inf) for p = 0 and nothing for p >= 1.
        """
        pe = ext(p)
        lo = lower if lower is not None and lower is not NEG_INF and not ext(lower).is_neg_inf else None
        if lo is not None:
            lo = ext(lo)

        best: Optional[ExtReal] = None
        best_attained = False
        best_witness: Optional[ExtReal] = None

        def offer(value: ExtReal, attained: bool, witness: Optional[ExtReal]):
            nonlocal best, best_attained, best_witness
            if best is None or value > best or (value == best and attained and not best_attained):
                best, best_attained, best_witness = value, attained, witness

        if self.value_at_minus_inf is not None and lo is None:
            offer(pe * NEG_INF - self.value_at_minus_inf, True, NEG_INF)

        if self.domain.is_empty:
            if best is None:
                return ConjugateValue(NEG_INF, False, None)
            return ConjugateValue(best, best_attained, best_witness)

        # clip point itself
        if lo is not None and self.domain.contains(lo):
            offer(pe * lo - self._raw_value(lo), True, lo)

        # divergence on the left: only when the clip leaves the left end open
        if self.domain.lo.is_neg_inf and lo is None and self.breakpoints:
            if pe < self.slope_left:
                return ConjugateValue(POS_INF, False, None)

        if not self.breakpoints and self.constant is not None and p == 0:
            offer(ZERO - self.constant, True, None)

        for bp in self.breakpoints:
            if not self.domain.contains(bp.x):
                continue
            if lo is not None and bp.x <= lo:
                continue
            offer(pe * bp.x - bp.left_value, not bp.is_jump, bp.x)
            offer(pe * bp.x - bp.right_value, True, bp.x)

        hi = self.domain.hi
        if hi.is_pos_inf:
            if pe > self.final_slope or (not self.breakpoints and p >= 1 and self.constant is not None):
                offer(POS_INF, False, None)
        else:
            clipped_away = lo is not None and (lo > hi or (lo == hi and not self.domain.hi_closed))
            if not clipped_away:
                boundary = self.left_limit(hi)
                if self.domain.hi_closed:
                    offer(pe * hi - self.evaluate(hi), True, hi)
                else:
                    offer(pe * hi - boundary, False, hi)

        if best is None:
            return ConjugateValue(NEG_INF, False, None)
        return ConjugateValue(best, best_attained, best_witness)

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        payload: dict = {
            "breakpoints": [bp.to_json() for bp in self.breakpoints],
            "domain": self.domain.to_json(),
            "slope_left": self.slope_left.to_json(),
        }
        if self.value_at_minus_inf is not None:
            payload["value_at_minus_inf"] = self.value_at_minus_inf.to_json()
        if self.constant is not None:
            payload["constant"] = self.constant.to_json()
        return payload


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous integer-valued step function.

    jumps is a sorted tuple of (location, level-from-there-on); the level
    before the first jump is initial_level.  Duplicate locations collapse to
    the last level listed, which is what a batch of simultaneous events means.
    """

    jumps: tuple[tuple[ExtReal, int], ...]
    initial_level: int = 0
    domain: Interval = field(default=REAL_LINE)

    def __post_init__(self):
        cleaned: list[tuple[ExtReal, int]] = []
        for loc, level in self.jumps:
            loc = ext(loc)
            if cleaned and cleaned[-1][0] == loc:
                cleaned[-1] = (loc, level)
            else:
                cleaned.append((loc, level))
        if any(not (a[0] < b[0]) for a, b in zip(cleaned, cleaned[1:])):
            raise ValueError("jump locations must be non-decreasing")
        object.__setattr__(self, "jumps", tuple(cleaned))
        object.__setattr__(self, "_locs", [loc for loc, _ in cleaned])

    def value(self, t) -> int:
        t = ext(t)
        if t.is_neg_inf:
            return self.initial_level
        if not self.domain.contains(t):
            raise OutOfDomain(f"{t} outside domain")
        i = bisect.bisect_right(self._locs, t) - 1
        return self.initial_level if i < 0 else self.jumps[i][1]

    __call__ = value

    def left_limit(self, t) -> int:
        t = ext(t)
        i = bisect.bisect_left(self._locs, t) - 1
        return self.initial_level if i < 0 else self.jumps[i][1]

    def to_json(self) -> dict:
        return {
            "initial_level": self.initial_level,
            "jumps": [[loc.to_json(), level] for loc, level in self.jumps],
            "domain": self.domain.to_json(),
        }
