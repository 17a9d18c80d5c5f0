"""Sequence model and the window-level operations on it.

A sequence is a finite prefix plus a tail rule, on one of two scales:

    weight scale   M = (M_p), entries in (0, +inf]
    log scale      a = (a_p), a_p = log M_p, entries in R plus +inf

Quotients mu_p = M_p / M_{p-1} (with mu_0 = 1) and the slopes a_p / p drive
everything downstream: log-convexity is "mu non-decreasing", and the growth
regime is decided by the behaviour of a_p / p:

    standard        a_p / p -> +inf
    case1           liminf a_p / p = -inf     (constructions degenerate)
    case2           liminf a_p / p finite     (slopes capped at that limit)
    indeterminate   the window cannot tell and nothing was declared

All operations work on a finite index window [0, W).  Closed-form tails give
exact answers; explicit-only sequences give window evidence and the results
say so.

A SequenceSpec stores its prefix as raw payloads (Fraction, or float), read
from JSON by ExtReal.from_json's rule.  ``prefix``, ``value`` and ``values``
give ExtReal entries, built on use; the engine reads ``raw_values``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    InconsistentDeclaration,
    NonFiniteEntry,
    NotLogConvex,
    ParseError,
    RegimeMismatch,
    TruncatedTail,
    WindowTooShort,
)
from .extreal import (ExtReal, NEG_INF, ONE, POS_INF, ZERO, RawNumber, ext, raw_exp,
                      raw_from_json, raw_log)
from .tails import (
    LOG,
    WEIGHT,
    AffineLog,
    ExplicitOnly,
    Expression,
    FactorialPower,
    Geometric,
    TailRule,
    tail_from_json,
)

STANDARD = "standard"
CASE1 = "case1"
CASE2 = "case2"
INDETERMINATE = "indeterminate"

DEFAULT_WINDOW = 64


@dataclass(frozen=True)
class RegimeClassification:
    """Outcome of the regime decision.

    a_iota is the limit slope liminf a_p / p (log scale), present exactly when
    the regime is case2.  evidence_window records the index range inspected and
    source records whether the verdict came from a declaration, a closed-form
    tail, or window evidence alone.
    """

    regime: str
    a_iota: Optional[ExtReal] = None
    evidence_window: tuple[int, int] = (0, 0)
    source: str = "window"

    def __post_init__(self):
        if self.regime not in (STANDARD, CASE1, CASE2, INDETERMINATE):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == CASE2 and self.a_iota is None:
            raise ValueError("case2 classification requires a_iota")

    def describe(self) -> str:
        if self.regime == CASE1:
            return "Case 1 (liminf a_p/p = -inf)"
        if self.regime == CASE2:
            return f"Case 2 (liminf a_p/p = {self.a_iota})"
        if self.regime == STANDARD:
            return "Standard (a_p/p -> +inf)"
        return "Indeterminate"

    def to_json(self) -> dict:
        payload: dict = {"regime": self.regime, "source": self.source,
                         "evidence_window": list(self.evidence_window)}
        if self.a_iota is not None:
            payload["a_iota"] = self.a_iota.to_json()
        return payload

    @staticmethod
    def from_json(payload: dict) -> "RegimeClassification":
        try:
            regime = payload["regime"]
            a_iota = payload.get("a_iota")
            return RegimeClassification(
                regime=regime,
                a_iota=None if a_iota is None else ExtReal.from_json(a_iota),
                evidence_window=tuple(payload.get("evidence_window", (0, 0))),
                source=payload.get("source", "declared"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad regime payload {payload!r}: {exc}") from exc


class OnFirstRead:
    """A dataclass field that, while None, is built by build(instance) on its
    first read and kept.  It has no class-level default, so it stays required."""

    def __init__(self, build: Callable):
        self.build = build

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        v = obj.__dict__[self.name]
        if v is None:
            v = obj.__dict__[self.name] = self.build(obj)
        return v

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class SequenceSpec:
    """Prefix + tail rule on a declared scale; the prefix is stored as raw
    payloads (_raws), and its ExtReal entries are built on first read."""

    kind: str
    prefix: tuple[ExtReal, ...] = OnFirstRead(lambda seq: tuple(map(ExtReal, seq._raws)))
    tail: TailRule
    declared_regime: Optional[RegimeClassification] = None

    def __post_init__(self):
        self.__dict__.update(_raws=tuple(ext(v).raw for v in self.__dict__["prefix"]),
                             prefix=None)
        self._check()

    @staticmethod
    def _of_raws(kind: str, raws: tuple, tail: TailRule,
                 declared_regime: Optional[RegimeClassification] = None) -> "SequenceSpec":
        """SequenceSpec(kind, raws, tail, declared_regime), without a pass over raws."""
        spec = object.__new__(SequenceSpec)
        spec.__dict__.update(kind=kind, prefix=None, tail=tail, declared_regime=declared_regime,
                             _raws=raws)
        spec._check()
        return spec

    def _check(self) -> None:
        if self.kind not in (LOG, WEIGHT):
            raise ValueError(f"kind must be {LOG!r} or {WEIGHT!r}")
        if self.kind == WEIGHT:
            for p, v in enumerate(self._raws):
                if v < 0:
                    raise ValueError(f"weight entry M_{p} cannot be -inf" if v == -math.inf
                                     else f"weight entry M_{p} must be >= 0")
        if not self._raws and isinstance(self.tail, ExplicitOnly):
            raise ValueError("empty explicit sequence")

    # -- evaluation -----------------------------------------------------------

    def value(self, p: int) -> ExtReal:
        if p < 0:
            raise IndexError("negative index")
        if p < len(self._raws):
            return self.prefix[p]
        if isinstance(self.tail, ExplicitOnly):
            raise TruncatedTail(p, len(self._raws))
        return self.tail.value(p, self.kind)

    __getitem__ = value

    def values(self, window: int) -> list[ExtReal]:
        return list(map(ExtReal, self.raw_values(window)))

    def raw_values(self, window: int) -> list[RawNumber]:
        head = list(self._raws[:max(window, 0)])
        if len(head) < window:
            if isinstance(self.tail, ExplicitOnly):
                raise TruncatedTail(len(head), len(self._raws))
            head += self.tail.raw_values(len(head), window, self.kind)
        return head

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        payload = {
            "kind": self.kind,
            "prefix": [v.to_json() for v in self.prefix],
            "tail": self.tail.to_json(),
        }
        if self.declared_regime is not None:
            payload["declared_regime"] = self.declared_regime.to_json()
        return payload

    @staticmethod
    def from_json(payload: dict) -> "SequenceSpec":
        if not isinstance(payload, dict):
            raise ParseError("sequence payload must be an object")
        try:
            kind = payload["kind"]
            if kind not in (LOG, WEIGHT):
                raise ParseError(f"bad kind {kind!r}")
            prefix = payload["prefix"]
            if not isinstance(prefix, (list, tuple)):
                raise ParseError("prefix must be a list")
            raws = tuple(map(raw_from_json, prefix))
            tail = tail_from_json(payload.get("tail", {"type": "explicit_only"}))
            declared = payload.get("declared_regime")
            regime = None if declared is None else RegimeClassification.from_json(declared)
            return SequenceSpec._of_raws(kind, raws, tail, regime)
        except ParseError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad sequence payload: {exc}") from exc


def resolve_window(seq: SequenceSpec, window: Optional[int]) -> int:
    """Effective window size: clamp to the prefix for explicit-only sequences."""
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")
    if isinstance(seq.tail, ExplicitOnly):
        n = len(seq._raws)
        return n if window is None else min(window, n)
    return DEFAULT_WINDOW if window is None else window


# -- scale conversions --------------------------------------------------------


def to_log_scale(seq: SequenceSpec) -> SequenceSpec:
    """Elementwise log of the prefix; the tail rule is scale-aware and unchanged."""
    if seq.kind == LOG:
        return seq
    return SequenceSpec._of_raws(LOG, tuple(map(raw_log, seq._raws)), seq.tail,
                                 seq.declared_regime)


def to_weight_scale(seq: SequenceSpec) -> SequenceSpec:
    """Elementwise exp of the prefix; -inf maps to the exact weight 0."""
    if seq.kind == WEIGHT:
        return seq
    return SequenceSpec._of_raws(WEIGHT, tuple(map(raw_exp, seq._raws)), seq.tail,
                                 seq.declared_regime)


# -- quotients and convexity ----------------------------------------------------


def quotients(seq: SequenceSpec, window: Optional[int] = None) -> list[ExtReal]:
    """mu_0 = 1 and mu_p = M_p / M_{p-1} over the window (weight scale)."""
    if seq.kind != WEIGHT:
        raise ValueError("quotients are defined on the weight scale")
    w = resolve_window(seq, window)
    vals = seq.values(w)
    out = [ONE]
    for p in range(1, w):
        prev, cur = vals[p - 1], vals[p]
        if not prev.is_finite or prev == ZERO:
            raise NonFiniteEntry(f"M_{p-1} = {prev} inside the quotient window")
        out.append(cur / prev)
    return out


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    violation_index: Optional[int] = None

    def to_json(self) -> dict:
        return {"log_convex": self.ok, "violation_index": self.violation_index}


def is_log_convex(seq: SequenceSpec, window: Optional[int] = None,
                  tol: float = 0.0) -> ConvexityReport:
    """Check M_p^2 <= M_{p-1} M_{p+1} (equivalently: quotients non-decreasing).

    Exact on rational entries.  When floats are involved a relative slack of
    max(tol, 1e-12) absorbs round-off, and finite weights are multiplied at
    their exact binary values; entries equal to +inf participate with the
    usual extended-real order (an interior +inf sandwiched by finite values
    is a violation).
    """
    w = resolve_window(seq, window)
    if w < 3:
        raise WindowTooShort("log-convexity needs a window of length >= 3")
    vals = seq.values(w)
    log_scale = seq.kind == LOG
    for p in range(1, w - 1):
        lo, mid, hi = vals[p - 1], vals[p], vals[p + 1]
        if log_scale:
            # a -inf entry is a zero weight, and 0 * (+inf) = 0 on the weight scale
            lhs, rhs = mid + mid, NEG_INF if lo.is_neg_inf or hi.is_neg_inf else lo + hi
        else:
            if (lo.is_finite and lo.raw == 0) or (mid.is_finite and mid.raw == 0):
                raise NonFiniteEntry(f"zero weight at index {p - 1 if lo.raw == 0 else p}")
            lhs, rhs = mid * mid, lo * hi
        slack = max(tol, 1e-12)
        if lhs.is_exact and rhs.is_exact:
            bad = lhs > rhs
        elif not log_scale and lo.is_finite and mid.is_finite and hi.is_finite:
            sq, cross = Fraction(mid.raw) ** 2, Fraction(lo.raw) * Fraction(hi.raw)
            bad = sq - cross > Fraction(slack) * max(sq, cross)
        elif lhs.is_finite and rhs.is_finite:
            lf, rf = float(lhs), float(rhs)
            bad = lf > rf + slack * max(1.0, abs(lf), abs(rf))
        else:
            bad = lhs > rhs
        if bad:
            return ConvexityReport(False, p)
    return ConvexityReport(True, None)


# -- regime classification -------------------------------------------------------


def slopes_differ(d: ExtReal, t: ExtReal, tol: float) -> bool:
    """|d - t| > tol * max(1, |t|), on the payloads: past the float range
    float() would make the gap inf and the bound inf."""
    return max(d - t, t - d) > ext(tol) * max(ONE, t, -t)


def classify_regime(seq: SequenceSpec, window: Optional[int] = None,
                    tol: float = 1e-9) -> RegimeClassification:
    """Decide standard / case1 / case2 / indeterminate for the sequence.

    Declarations are honoured after a consistency check against closed-form
    tails; closed-form tails decide exactly; explicit windows give evidence
    only (monotone-diverging slopes => standard, a -inf entry => case1,
    anything else => indeterminate).
    """
    a = to_log_scale(seq)
    w = resolve_window(a, window)
    evidence = (0, w)
    declared = a.declared_regime

    tail_slope = a.tail.slope_limit()

    if declared is not None:
        if tail_slope is not None:
            if declared.regime == STANDARD and not tail_slope.is_pos_inf:
                raise InconsistentDeclaration(
                    f"declared standard but the tail rule forces slope limit {tail_slope}")
            if declared.regime == CASE1:
                raise InconsistentDeclaration(
                    "declared case1 but the tail rule has a well-defined slope limit")
            if declared.regime == CASE2:
                if tail_slope.is_pos_inf:
                    raise InconsistentDeclaration(
                        "declared case2 but the tail rule diverges (standard)")
                if slopes_differ(declared.a_iota, tail_slope, tol):
                    raise InconsistentDeclaration(
                        f"declared a_iota {declared.a_iota} but the tail rule gives {tail_slope}")
        return RegimeClassification(declared.regime, declared.a_iota, evidence, "declared")

    if tail_slope is not None:
        if tail_slope.is_pos_inf:
            return RegimeClassification(STANDARD, None, evidence, "tail")
        return RegimeClassification(CASE2, tail_slope, evidence, "tail")

    # one read of indices 1..w-1 (index 0 stays unread): -inf entries collapse
    # the construction exactly like case1 does, finite ones give slopes
    finite, n = [], len(a._raws)
    for p in range(1, w):
        x = a._raws[p] if p < n else a.tail.value(p, LOG).raw
        if type(x) is not Fraction and not -math.inf < x < math.inf:
            if x < 0:
                return RegimeClassification(CASE1, None, evidence, "window")
            continue
        finite.append((p, x))

    if isinstance(a.tail, Expression):
        return _classify_expression(a, w, evidence)

    if len(finite) >= 4:  # a_p / p over the last quarter; n / (d p) is correctly rounded
        last = finite[-max(2, len(finite) // 4):]
        try:
            tail_part = [x.numerator / (x.denominator * p) if type(x) is Fraction else x / p
                         for p, x in last]
        except OverflowError:  # an exact slope past the float range
            tail_part = [float(ext(x) / p) for p, x in last]
        rising = all(x <= y for x, y in zip(tail_part, tail_part[1:]))
        if rising and tail_part[-1] >= tail_part[0] + 1.0:
            return RegimeClassification(STANDARD, None, evidence, "window")
    return RegimeClassification(INDETERMINATE, None, evidence, "window")


def _classify_expression(a: SequenceSpec, w: int, evidence) -> RegimeClassification:
    # probe the closed form at geometrically spaced indices; heuristics only.
    # the ceiling keeps exact expressions from being evaluated at indices
    # where their values no longer fit in memory (think 2**(p*p) as a Fraction)
    probes = []
    p = max(w - 1, 4)
    ceiling = max(16 * (w - 1), 1024)
    while p <= ceiling and len(probes) < 7:
        try:
            v = a.value(p)
            ratio = None if v.is_pos_inf else float(v) / p
        except (OverflowError, ValueError, ParseError):
            break  # ParseError: the formula's value outgrew its bit budget
        if ratio is not None:
            probes.append(ratio)
        p *= 4
    if len(probes) >= 3:
        rising = all(x <= y for x, y in zip(probes, probes[1:]))
        falling = all(x >= y for x, y in zip(probes, probes[1:]))
        if rising and probes[-1] >= probes[0] + 4.0:
            return RegimeClassification(STANDARD, None, evidence, "tail")
        if falling and probes[-1] <= probes[0] - 4.0:
            return RegimeClassification(CASE1, None, evidence, "tail")
    return RegimeClassification(INDETERMINATE, None, evidence, "window")


def require_regime(classification: RegimeClassification, wanted: str, op: str) -> None:
    if classification.regime != wanted:
        raise RegimeMismatch(
            f"{classification.describe()}: {op} requires the {wanted} regime",
            classification.regime,
        )


# -- growth indicators ------------------------------------------------------------


@dataclass(frozen=True)
class GrowthIndicators:
    """inf / liminf / limsup of (M_p / M_0)^(1/p) over p >= 1."""

    m_inf: ExtReal
    m_iota: ExtReal
    m_sigma: ExtReal
    boundary_attained: bool

    def to_json(self) -> dict:
        return {
            "m_inf": self.m_inf.to_json(),
            "m_iota": self.m_iota.to_json(),
            "m_sigma": self.m_sigma.to_json(),
            "boundary_attained": self.boundary_attained,
        }


def growth_indicators(seq: SequenceSpec, window: Optional[int] = None) -> GrowthIndicators:
    if seq.kind != WEIGHT:
        raise ValueError("growth indicators are defined on the weight scale")
    w = resolve_window(seq, window)
    if w < 2:
        raise WindowTooShort("growth indicators need at least indices 0 and 1")
    m0 = seq.value(0)
    if not m0.is_finite or m0 == ZERO:
        raise NonFiniteEntry(f"M_0 = {m0} must be finite and positive")
    roots: list[tuple[int, ExtReal]] = []
    for p in range(1, w):
        v = seq.value(p)
        if v == ZERO:
            raise NonFiniteEntry(f"M_{p} = 0 has no growth root")
        roots.append((p, (v / m0).root(p)))

    tail_root = seq.tail.root_limit()
    explicit = isinstance(seq.tail, ExplicitOnly)

    candidates = [r for _, r in roots]
    m_inf = min(candidates)
    if tail_root is not None and tail_root < m_inf:
        m_inf = tail_root
    argmin_p = min((p for p, r in roots if r == min(candidates)), default=1)

    if tail_root is not None:
        m_iota = m_sigma = tail_root
        boundary = False
    else:
        q = max(2, len(roots) // 4)
        tail_part = [r for _, r in roots[-q:]]
        m_iota, m_sigma = min(tail_part), max(tail_part)
        boundary = explicit and argmin_p == w - 1
    if explicit and argmin_p == w - 1:
        boundary = True
    return GrowthIndicators(m_inf, m_iota, m_sigma, boundary)


@dataclass(frozen=True)
class LimitComparison:
    lim_quotient: ExtReal
    lim_root: ExtReal
    agree: bool

    def to_json(self) -> dict:
        return {
            "lim_quotient": self.lim_quotient.to_json(),
            "lim_root": self.lim_root.to_json(),
            "agree": self.agree,
        }


def limit_comparison(seq: SequenceSpec, window: Optional[int] = None,
                     tol: float = 1e-9) -> LimitComparison:
    """Compare lim mu_p with lim (M_p)^(1/p) for a log-convex sequence.

    Both limits come from the tail rule when it has one; otherwise the window
    edge supplies the estimates.  Agreement means equal infinities or a gap at
    most tol * max(1, |lim mu|).
    """
    report = is_log_convex(seq, window, tol)
    if not report.ok:
        raise NotLogConvex(
            f"limit comparison needs log-convexity; first violation at index "
            f"{report.violation_index}", report.violation_index)
    w = resolve_window(seq, window)
    tail_root = seq.tail.root_limit()
    if tail_root is not None:
        lim_q = lim_r = tail_root
    else:
        mu = quotients(seq, w)
        lim_q = mu[-1]
        lim_r = (seq.value(w - 1) / seq.value(0)).root(w - 1)
    if lim_q.is_pos_inf or lim_r.is_pos_inf:
        agree = lim_q.is_pos_inf and lim_r.is_pos_inf
    else:
        agree = abs(float(lim_q) - float(lim_r)) <= tol * max(1.0, abs(float(lim_q)))
    return LimitComparison(lim_q, lim_r, agree)


# -- normalization -----------------------------------------------------------------


@dataclass(frozen=True)
class NormalizeResult:
    sequence: SequenceSpec
    q0: int
    constant: ExtReal

    def to_json(self) -> dict:
        return {
            "sequence": self.sequence.to_json(),
            "q0": self.q0,
            "constant": self.constant.to_json(),
        }


def normalize_sequence(seq: SequenceSpec, window: Optional[int] = None,
                       tol: float = 1e-9) -> NormalizeResult:
    """Replace the head by ones so that M_p >= 1 from q0 on, q0 >= 2 forced.

    The reported constant C = max over changed indices of max(M_p, 1/M_p)
    bounds the distortion.  Standard regime is required; explicit windows
    whose final entries dip below 1 cannot certify any q0 and raise
    WindowTooShort.
    """
    if seq.kind != WEIGHT:
        raise ValueError("normalization is defined on the weight scale")
    classification = classify_regime(seq, window, tol)
    if classification.regime not in (STANDARD, INDETERMINATE):
        require_regime(classification, STANDARD, "normalization")
    w = resolve_window(seq, window)
    vals = seq.values(w)
    for p, v in enumerate(vals):
        if not v.is_finite:
            raise NonFiniteEntry(f"M_{p} = {v} inside the normalization window")

    last_below = None
    for p in range(w):
        if vals[p].raw < 1:
            last_below = p
    q0 = 2 if last_below is None else max(2, last_below + 1)
    if q0 >= w:
        raise WindowTooShort(
            "window ends below 1; no q0 is certifiable from this data")
    if isinstance(seq.tail, ExplicitOnly) and vals[-1].raw < 1:
        raise WindowTooShort(
            "explicit window ends below 1; no q0 is certifiable from this data")

    changed = [p for p in range(q0) if vals[p] != ONE]
    constant = ONE
    for p in changed:
        v = vals[p]
        cand = max(v, ONE / v)
        if cand > constant:
            constant = cand
    new_prefix = tuple([ONE] * q0 + vals[q0:])
    normalized = SequenceSpec(
        kind=WEIGHT,
        prefix=new_prefix,
        tail=seq.tail,
        declared_regime=seq.declared_regime,
    )
    return NormalizeResult(normalized, q0, constant)
