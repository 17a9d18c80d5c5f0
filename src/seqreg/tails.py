"""Closed-form tail rules for sequences given as prefix + rule.

A tail rule answers "what is the entry at index p" on either scale (weight
entries M_p > 0, or their logs a_p = log M_p), and exposes the closed-form
limits that the regime classifier and the growth indicators need:

    slope limit   lim a_p / p          (None when the rule cannot say)
    root limit    lim M_p^(1/p)        (same information, weight scale)

The evaluation is scale-aware so a converted sequence keeps the same rule
object: ``FactorialPower(s, c)`` produces c*(p!)^s on the weight scale and
log c + s*log(p!) on the log scale.  ``raw_values(start, stop, kind)`` gives
``value(p, kind).raw`` for a stretch of indices; on the log scale the closed
forms compute their constants once per stretch, and ``value`` reads it.
"""

from __future__ import annotations

import ast
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import ParseError, TruncatedTail, WindowTooShort
from .extreal import _EXACT_BITS, ExtReal, POS_INF, RawNumber, ZERO, ext, log_of_fraction

LOG = "log"
WEIGHT = "weight"

# how many indices past its start a search over a factorial tail may test
TAIL_SEARCH_CAP = 200_000


class _Rule:
    def raw_values(self, start: int, stop: int, kind: str) -> list[RawNumber]:
        return [self.value(p, kind).raw for p in range(start, stop)]


@dataclass(frozen=True)
class ExplicitOnly:
    """No rule: entries exist only inside the stored prefix."""

    def value(self, p: int, kind: str) -> ExtReal:
        raise TruncatedTail(p, 0)

    def slope_limit(self) -> Optional[ExtReal]:
        return None

    def root_limit(self) -> Optional[ExtReal]:
        return None

    def to_json(self) -> dict:
        return {"type": "explicit_only"}


@dataclass(frozen=True)
class FactorialPower(_Rule):
    """Weight-scale rule M_p = c * (p!)^s with s > 0, c > 0."""

    s: Fraction
    c: Fraction

    def __post_init__(self):
        if self.s <= 0 or self.c <= 0:
            raise ValueError("FactorialPower needs s > 0 and c > 0")

    def value(self, p: int, kind: str) -> ExtReal:
        if kind == WEIGHT and self.s.denominator == 1:
            self._check_bits(math.lgamma(p + 1), f"M_{p}")
            return ext(self.c * Fraction(math.factorial(p)) ** int(self.s))
        v = ext(self.raw_values(p, p + 1, LOG)[0])
        return v.exp() if kind == WEIGHT else v  # +inf once the float overflows

    def raw_values(self, start: int, stop: int, kind: str) -> list[RawNumber]:
        if kind != LOG:
            return super().raw_values(start, stop, kind)
        c, s = log_of_fraction(self.c), float(ext(self.s))
        # lgamma is 0 at p = 0 and 1, where an s past the float range adds 0
        return [c + (s * lg if (lg := math.lgamma(p + 1)) else 0.0) for p in range(start, stop)]

    def _check_bits(self, log_base: float, what: str) -> None:
        """Refuse an exact power base^s of more than _EXACT_BITS bits, which
        could take unbounded time and memory to build."""
        if float(ext(self.s)) * log_base > _EXACT_BITS * math.log(2):
            raise ParseError(f"the factorial tail's {what} exceeds {_EXACT_BITS} bits")

    def quotient(self, q: int) -> ExtReal:
        """mu_q = M_q / M_{q-1} = q^s: exact for integer s, without building q!;
        otherwise the ratio of float weights, as a window's quotients are taken."""
        if self.s.denominator == 1:
            self._check_bits(math.log(q), f"quotient mu_{q}")
            return ext(Fraction(q) ** int(self.s))
        hi = self.value(q, WEIGHT)
        if hi.is_pos_inf:  # the weights overflowed: exp of the log increment
            before, at = self.raw_values(q - 1, q + 1, LOG)
            return ext(at - before).exp()
        return hi / self.value(q - 1, WEIGHT)

    def search(self, test: Callable[[int], bool], start: int) -> int:
        """First q >= start with test(q), for a test that stays true once true,
        as the growing increments a_q - a_{q-1} = s log q make the minorant's
        and the omega routes' tests.  Gallops, then bisects; raises
        WindowTooShort when test is false on TAIL_SEARCH_CAP indices from start."""
        last = start + TAIL_SEARCH_CAP - 1
        lo, hi, step = start, start, 1  # test is false below lo
        while not test(hi):
            if hi == last:
                raise WindowTooShort(f"the factorial tail was searched {TAIL_SEARCH_CAP} "
                                     f"indices past index {start} without an answer")
            lo, hi, step = hi + 1, min(hi + step, last), 2 * step
        return lo + bisect_left(range(lo, hi), True, key=test)

    def slope_limit(self) -> Optional[ExtReal]:
        return POS_INF

    def root_limit(self) -> Optional[ExtReal]:
        return POS_INF

    def to_json(self) -> dict:
        return {"type": "factorial_power", "s": ext(self.s).to_json(), "c": ext(self.c).to_json()}


@dataclass(frozen=True)
class Geometric(_Rule):
    """Weight-scale rule M_p = d^p with d > 0."""

    d: Fraction

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("Geometric needs d > 0")

    def value(self, p: int, kind: str) -> ExtReal:
        if kind == WEIGHT:
            return ext(self.d**p)
        return ext(self.raw_values(p, p + 1, LOG)[0])

    def raw_values(self, start: int, stop: int, kind: str) -> list[RawNumber]:
        if kind != LOG:
            return super().raw_values(start, stop, kind)
        if self.d == 1:
            return [Fraction(0)] * (stop - start)
        d = log_of_fraction(self.d)
        return [p * d for p in range(start, stop)]

    def slope_limit(self) -> Optional[ExtReal]:
        if self.d == 1:
            return ext(Fraction(0))
        return ext(log_of_fraction(self.d))

    def root_limit(self) -> Optional[ExtReal]:
        return ext(self.d)

    def to_json(self) -> dict:
        return {"type": "geometric", "d": ext(self.d).to_json()}


@dataclass(frozen=True)
class AffineLog(_Rule):
    """Log-scale rule a_p = c * p (so M_p = e^{cp})."""

    c: Fraction

    def value(self, p: int, kind: str) -> ExtReal:
        v = ext(self.raw_values(p, p + 1, LOG)[0])
        return v if kind == LOG else v.exp()

    def raw_values(self, start: int, stop: int, kind: str) -> list[RawNumber]:
        if kind != LOG:
            return super().raw_values(start, stop, kind)
        c = ext(self.c).raw  # an int c gives exact values
        return [c * p for p in range(start, stop)]

    def slope_limit(self) -> Optional[ExtReal]:
        return ext(self.c)

    def root_limit(self) -> Optional[ExtReal]:
        return ext(self.c).exp()

    def to_json(self) -> dict:
        return {"type": "affine_log", "c": ext(self.c).to_json()}


@dataclass(frozen=True)
class Expression(_Rule):
    """Arbitrary index -> value rule, natively on one scale.

    ``fn`` returns the entry on ``native`` scale; the other scale is obtained
    by exp/log.  A formula string (see :func:`compile_formula`) makes the rule
    serializable; rules built from bare callables are not.
    """

    fn: Callable[[int], ExtReal]
    native: str = LOG
    formula: Optional[str] = None

    def value(self, p: int, kind: str) -> ExtReal:
        v = ext(self.fn(p))
        if self.native == WEIGHT and v < ZERO:
            raise ParseError(f"the weight-scale tail gives M_{p} = {v} < 0")
        if kind == self.native:
            return v
        return v.exp() if self.native == LOG else v.log()

    def slope_limit(self) -> Optional[ExtReal]:
        return None

    def root_limit(self) -> Optional[ExtReal]:
        return None

    def to_json(self) -> dict:
        if self.formula is None:
            raise ParseError("expression tail without a formula is not serializable")
        return {"type": "expression", "formula": self.formula, "native": self.native}


TailRule = ExplicitOnly | FactorialPower | Geometric | AffineLog | Expression


def _bounded_pow(base, exponent):
    if isinstance(base, int) and isinstance(exponent, int) and exponent > 0 and abs(base) > 1:
        if (abs(base).bit_length() - 1) * exponent > _EXACT_BITS:
            raise ParseError(f"a power in the formula exceeds {_EXACT_BITS} bits")
    return base ** exponent


def _bounded_factorial(n):
    if isinstance(n, int) and n > 1:
        if n.bit_length() > 32 or math.lgamma(n + 1) > _EXACT_BITS * math.log(2):
            raise ParseError(f"a factorial in the formula exceeds {_EXACT_BITS} bits")
    return math.factorial(n)


_ALLOWED_CALLS = {
    "log": math.log,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "factorial": _bounded_factorial,
    "lgamma": lambda x: math.lgamma(x),
}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Constant,
    ast.Name,
    ast.Call,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Load,
)


class _PowToCall(ast.NodeTransformer):
    """a ** b becomes _pow(a, b), which checks the size of the result first."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.AST:
        self.generic_visit(node)
        if isinstance(node.op, ast.Pow):
            call = ast.Call(func=ast.Name("_pow", ast.Load()),
                            args=[node.left, node.right], keywords=[])
            return ast.copy_location(call, node)
        return node


def compile_formula(formula: str) -> Callable[[int], ExtReal]:
    """Compile a small arithmetic formula in the variable p.

    Only +, -, *, /, **, numeric literals, p, inf, and the calls
    log/exp/sqrt/factorial/lgamma are admitted; anything else is a ParseError.
    Integer-valued subexpressions stay exact.  An integer ** or factorial
    whose result would exceed a fixed bit budget raises ParseError when the
    formula is evaluated, instead of running out of time or memory, and so
    does a value that overflows a float, lies outside a function's domain
    (log(0), p/0, factorial(1/2)) or is not a real number (nan, (-1)**0.5).
    """
    try:
        tree = ast.parse(formula, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"bad expression formula {formula!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ParseError(f"disallowed construct {type(node).__name__} in formula {formula!r}")
        if isinstance(node, ast.Name) and node.id not in ("p", "inf") and node.id not in _ALLOWED_CALLS:
            raise ParseError(f"unknown name {node.id!r} in formula {formula!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ParseError(f"disallowed call in formula {formula!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ParseError(f"non-numeric literal in formula {formula!r}")
    tree = ast.fix_missing_locations(_PowToCall().visit(tree))
    code = compile(tree, "<tail formula>", "eval")
    env = dict(_ALLOWED_CALLS, _pow=_bounded_pow)
    env["inf"] = float("inf")

    def fn(p: int) -> ExtReal:
        try:
            value = eval(code, {"__builtins__": {}}, {**env, "p": p})
        except OverflowError as exc:
            raise ParseError(f"formula {formula!r} overflows a float at p = {p}") from exc
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise ParseError(f"formula {formula!r} is undefined at p = {p}: {exc}") from exc
        if isinstance(value, complex):
            raise ParseError(f"formula {formula!r} is not a real number at p = {p}")
        if isinstance(value, float) and math.isnan(value):
            raise ParseError(f"formula {formula!r} is not a number at p = {p}")
        if isinstance(value, float) and value.is_integer() and abs(value) < 2**53:
            # keep integers exact when the formula happens to produce them
            return ext(int(value))
        return ext(value)

    return fn


def tail_from_json(payload: dict) -> TailRule:
    if not isinstance(payload, dict) or "type" not in payload:
        raise ParseError(f"bad tail payload {payload!r}")
    kind = payload["type"]
    try:
        if kind == "explicit_only":
            return ExplicitOnly()
        if kind == "factorial_power":
            return FactorialPower(s=_frac(payload["s"]), c=_frac(payload["c"]))
        if kind == "geometric":
            return Geometric(d=_frac(payload["d"]))
        if kind == "affine_log":
            return AffineLog(c=_frac(payload["c"]))
        if kind == "expression":
            formula = payload["formula"]
            native = payload.get("native", LOG)
            if native not in (LOG, WEIGHT):
                raise ParseError(f"bad native scale {native!r}")
            return Expression(fn=compile_formula(formula), native=native, formula=formula)
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad tail payload {payload!r}: {exc}") from exc
    raise ParseError(f"unknown tail type {kind!r}")


def _frac(payload) -> Fraction:
    v = ExtReal.from_json(payload)
    if not v.is_finite:
        raise ParseError("tail parameters must be finite")
    if isinstance(v.raw, Fraction):
        return v.raw
    return Fraction(v.raw).limit_denominator(10**12)
