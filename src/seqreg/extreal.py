"""Extended-real scalars with the conventions used throughout the package.

The conventions, fixed once here so every module agrees:

    0^0 = 1        1/(+inf) = 0        0 * (+-inf) = 0        p * (-inf) = -inf  (p >= 1)

Finite values constructed from int/Fraction/str are kept as exact ``Fraction``
objects; floats stay floats and degrade mixed arithmetic to float, except
where the Fraction lies past the float range: there the float is taken at its
exact value and the result stays exact.  A float power that overflows is the
infinity of its sign, as a float product is.  The two
infinities are ordinary ``float('inf')`` payloads, so comparisons against exact
rationals remain exact.  ``nan`` is rejected everywhere.
"""

from __future__ import annotations

import math
from fractions import _RATIONAL_FORMAT, Fraction
from typing import Union

from .errors import Unprintable

RawNumber = Union[int, float, Fraction]

_POS = float("inf")
_NEG = float("-inf")
_ZERO = Fraction(0)

# largest integer, in bits, that one literal, one ** or factorial in a formula,
# or one exact factorial-tail weight may build; beyond it a single read or
# evaluation could take unbounded time and memory
_EXACT_BITS = 1 << 20
# the largest decimal exponent of a literal whose power of ten fits in them
_MAX_EXP10 = int(_EXACT_BITS / math.log2(10))


def log_of_fraction(fr: Fraction) -> float:
    """Natural log of a positive Fraction, safe for huge numerators.

    Near 1 the direct difference of logs loses all relative accuracy, so that
    range goes through log1p instead.
    """
    num, den = fr.numerator, fr.denominator
    if num <= 0:
        raise ValueError("log of non-positive fraction")
    if num == den:
        return 0.0
    if 2 * den > num > den // 2:
        return math.log1p((num - den) / den)
    return math.log(num) - math.log(den)


class ExtReal:
    """Immutable extended-real number."""

    __slots__ = ("_v",)

    def __init__(self, value: "RawNumber | str | ExtReal"):
        # first: isinstance is slow on Fraction's ABC metaclass; a nan float fails value == value
        if type(value) is Fraction or type(value) is float and value == value:
            self._v = value
        elif isinstance(value, str):
            self._v = _parse_number(value)
        else:
            self._v = _coerce(value, "cannot build ExtReal from")

    # -- predicates ---------------------------------------------------------

    @property
    def raw(self) -> RawNumber:
        return self._v

    # only a float payload can be infinite; testing the type first keeps a
    # Fraction from being compared with float('inf') through Fraction.__eq__

    @property
    def is_pos_inf(self) -> bool:
        return isinstance(self._v, float) and self._v == _POS

    @property
    def is_neg_inf(self) -> bool:
        return isinstance(self._v, float) and self._v == _NEG

    @property
    def is_finite(self) -> bool:
        return not isinstance(self._v, float) or math.isfinite(self._v)

    @property
    def is_exact(self) -> bool:
        return isinstance(self._v, Fraction)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "ExtReal":
        return ExtReal(raw_add(self._v, _coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "ExtReal":
        return ExtReal(-self._v)

    def __sub__(self, other) -> "ExtReal":
        return self + (-_as_ext(other))

    def __rsub__(self, other) -> "ExtReal":
        return _as_ext(other) + (-self)

    def __mul__(self, other) -> "ExtReal":
        return ExtReal(raw_mul(self._v, _coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExtReal":
        return ExtReal(raw_div(self._v, _coerce(other)))

    def __rtruediv__(self, other) -> "ExtReal":
        return _as_ext(other) / self

    def __pow__(self, exponent: int) -> "ExtReal":
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("only non-negative integer exponents are supported")
        if exponent == 0:
            return ONE  # includes 0^0 = 1 and inf^0 = 1
        if self.is_pos_inf:
            return POS_INF
        if self.is_neg_inf:
            return POS_INF if exponent % 2 == 0 else NEG_INF
        try:
            return ExtReal(self._v**exponent)
        except OverflowError:  # only a float power overflows
            return POS_INF if self._v > 0 or exponent % 2 == 0 else NEG_INF

    # -- transcendental maps -------------------------------------------------

    def exp(self) -> "ExtReal":
        return ExtReal(raw_exp(self._v))

    def log(self) -> "ExtReal":
        return ExtReal(raw_log(self._v))

    def root(self, p: int) -> "ExtReal":
        """p-th root for positive values (float result unless trivial)."""
        if p <= 0:
            raise ValueError("root order must be >= 1")
        if self.is_pos_inf:
            return POS_INF
        if self._v == 0:
            return ZERO
        if self._v < 0:
            raise ValueError("root of negative value")
        if p == 1:
            return self
        if isinstance(self._v, Fraction):
            return ExtReal(math.exp(log_of_fraction(self._v) / p))
        return ExtReal(math.exp(math.log(self._v) / p))

    # -- ordering / identity --------------------------------------------------

    def __eq__(self, other) -> bool:
        try:
            return self._v == _coerce(other)
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self._v < _coerce(other)

    def __le__(self, other) -> bool:
        return self._v <= _coerce(other)

    def __gt__(self, other) -> bool:
        return self._v > _coerce(other)

    def __ge__(self, other) -> bool:
        return self._v >= _coerce(other)

    def __hash__(self) -> int:
        return hash(self._v)

    def __float__(self) -> float:
        return _to_float(self._v)

    def __repr__(self) -> str:
        if self.is_pos_inf:
            return "ExtReal(inf)"
        if self.is_neg_inf:
            return "ExtReal(-inf)"
        return f"ExtReal({self._v})"

    def __str__(self) -> str:
        if self.is_pos_inf:
            return "inf"
        if self.is_neg_inf:
            return "-inf"
        return str(self._v)

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        """Canonical JSON payload: int, float, or "p/q"/"inf"/"-inf" string."""
        return raw_json(self._v)

    @staticmethod
    def from_json(payload) -> "ExtReal":
        return ExtReal(raw_from_json(payload))


def raw_from_json(payload) -> RawNumber:
    """A JSON number (an int becomes one Fraction), or a string as _parse_number
    reads it: "inf", "-inf", "infinity" in any case, or what Fraction(s) reads."""
    if type(payload) is int:
        return Fraction(payload)
    if type(payload) is str:
        return _parse_number(payload)
    if isinstance(payload, (int, float, Fraction)) and not isinstance(payload, bool):
        return _coerce(payload)
    raise ValueError(f"cannot parse extended real from {payload!r}")


def raw_json(v: "RawNumber | tuple[int, int]"):
    """The canonical JSON payload of a raw payload (ExtReal.to_json), or of the
    integer pair (n, d), d > 0, for n/d after one gcd."""
    if type(v) is tuple:
        n, d = v
        g = math.gcd(n, d)
        n, d = n // g, d // g
    elif type(v) is not Fraction and isinstance(v, float):
        return "inf" if v == _POS else "-inf" if v == _NEG else v
    else:
        n, d = v.as_integer_ratio()
    if d == 1:
        return n  # json.dumps prints it (cli._canonical)
    try:
        return f"{n}/{d}"
    except ValueError:  # an integer past Python's limit for printing one
        raise Unprintable() from None


def _parse_number(text: str) -> RawNumber:
    # ASCII "[-]digits/digits" is read as Fraction(s) reads it, without its regular
    # expression: Fraction(int(n), int(d)), and d = 0 raises ZeroDivisionError on both
    n, slash, d = text.partition("/")
    try:
        if slash and text.isascii() and d.isdigit() and (n[1:] if n[:1] == "-" else n).isdigit():
            return Fraction(int(n), int(d))
        s = text.strip()
        low = s.lower()
        if low in ("inf", "+inf", "infinity"):
            return _POS
        if low in ("-inf", "-infinity"):
            return _NEG
        # Fraction builds 10**|exponent| exactly, so past _MAX_EXP10 a literal that
        # its own grammar reads is refused below
        m = "e" in low and _RATIONAL_FORMAT.match(s)
        if not (m and m["exp"] and abs(int(m["exp"])) > _MAX_EXP10):
            # Fraction handles both "p/q" and exact decimal strings like "1.5"
            return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad number literal {text!r}") from exc
    raise ValueError(f"bad number literal {text!r}: its power of ten exceeds {_EXACT_BITS} bits")


# -- the arithmetic on raw payloads ---------------------------------------------------
#
# ExtReal's operators wrap these, and code that runs on raw payloads (the hull
# walk) calls them directly, so both follow one set of conventions.  Negation
# is the raw unary minus, and x - y is x + (-y): for floats that differs from
# the raw x - y, since -0.0 - Fraction(0) is -0.0 but -0.0 + Fraction(0) is 0.0.


def raw_add(a: RawNumber, b: RawNumber) -> RawNumber:
    """a + b: an infinite term decides the sum, opposite infinities raise."""
    ainf, binf = _inf_sign(a), _inf_sign(b)
    if ainf or binf:
        if ainf and binf and ainf != binf:
            raise ArithmeticError("inf + (-inf) is indeterminate")
        return _POS if (ainf or binf) > 0 else _NEG
    try:
        return a + b
    except OverflowError:  # a Fraction past the float range met a float
        return Fraction(a) + Fraction(b)


def raw_mul(a: RawNumber, b: RawNumber) -> RawNumber:
    """a * b, with 0 * (+-inf) the exact zero."""
    ainf, binf = _inf_sign(a), _inf_sign(b)
    if ainf or binf:
        if a == 0 or b == 0:
            return _ZERO
        sign = (ainf or (1 if a > 0 else -1)) * (binf or (1 if b > 0 else -1))
        return _POS if sign > 0 else _NEG
    try:
        return a * b
    except OverflowError:
        return Fraction(a) * Fraction(b)


def raw_div(a: RawNumber, b: RawNumber) -> RawNumber:
    """a / b, with finite / (+-inf) the exact zero; inf / inf and x / 0 raise."""
    ainf, binf = _inf_sign(a), _inf_sign(b)
    if binf:
        if ainf:
            raise ArithmeticError("inf / inf is indeterminate")
        return _ZERO  # the 1/inf = 0 convention, any finite numerator
    if b == 0:
        raise ZeroDivisionError("division by zero")
    if ainf:
        sign = ainf * (1 if b > 0 else -1)
        return _POS if sign > 0 else _NEG
    try:
        return a / b
    except OverflowError:
        return Fraction(a) / Fraction(b)


def raw_line(a: RawNumber, slope: RawNumber, P: int):
    """p -> a + slope * (p - P): one Fraction built from integers between exact
    values, else raw_add and raw_mul, but for a value that overflows to +-inf
    from finite a and slope, which is computed exactly."""
    if type(a) is Fraction and type(slope) is Fraction:
        base, step = a.numerator * slope.denominator, slope.numerator * a.denominator
        den = a.denominator * slope.denominator
        return lambda p: Fraction(base + step * (p - P), den)
    floats = type(a) is float is type(slope) and _NEG < a < _POS and _NEG < slope < _POS

    def value(p: int) -> RawNumber:
        if floats:  # raw_add's a + (-x) is a - x on two floats
            v = a - slope * (P - p)
            if _NEG < v < _POS:
                return v
        v = raw_add(a, -raw_mul(slope, P - p))
        if _inf_sign(v) and not (_inf_sign(a) or _inf_sign(slope)):
            return raw_line(Fraction(a), Fraction(slope), P)(p)
        return v
    return value


def raw_slope(a: RawNumber, b: RawNumber, k: int) -> RawNumber:
    """(b - a) / k for finite a, b and k > 0: one Fraction between exact values,
    else raw_add and raw_div, but for a slope that overflows to +-inf, which is
    computed exactly."""
    if type(a) is Fraction and type(b) is Fraction:
        return Fraction(b.numerator * a.denominator - a.numerator * b.denominator,
                        a.denominator * b.denominator * k)
    s = (b - a) / k if type(a) is float is type(b) else raw_div(raw_add(b, -a), k)
    if _inf_sign(s):
        return (Fraction(b) - Fraction(a)) / k
    return s


def raw_exp(a: RawNumber, d: int = 1) -> RawNumber:
    """e^(a/d) for a payload a (d = 1) or integers a, d > 0: the exact zero at
    -inf, else math.exp of a/d rounded once, taken as the infinity of its sign
    past the float range (as in _to_float), and +inf where the exp overflows."""
    if type(a) is Fraction:
        a, d = a.numerator, a.denominator
    elif a == _NEG:
        return _ZERO
    try:
        return math.exp(a / d)
    except OverflowError:  # a/d past the float range (its sign decides), or e^(a/d) > 0
        return 0.0 if a < 0 else _POS


def raw_log(a: RawNumber) -> RawNumber:
    """log a for a >= 0: -inf at 0, +inf at +inf, a float otherwise."""
    if _inf_sign(a) > 0:
        return _POS
    if a == 0:
        return _NEG
    if a < 0:
        raise ValueError("log of negative value")
    return log_of_fraction(a) if type(a) is Fraction else math.log(a)


def _to_float(v: RawNumber) -> float:
    """float(v), or the infinity of its sign for a Fraction past the float range."""
    try:
        return float(v)
    except OverflowError:
        return _POS if v > 0 else _NEG


def _inf_sign(v: RawNumber) -> int:
    # isinstance, not a type() test: numpy.float64 payloads (the sweep
    # oracle's grid) are float subclasses and may be infinite
    if not isinstance(v, float):
        return 0
    if v == _POS:
        return 1
    if v == _NEG:
        return -1
    return 0


def _coerce(other, refusal: str = "cannot mix ExtReal with") -> RawNumber:
    if isinstance(other, ExtReal):
        return other._v
    if isinstance(other, bool):
        raise TypeError("bool is not a number here")
    if isinstance(other, int):
        return Fraction(other)
    if isinstance(other, (float, Fraction)):
        if isinstance(other, float) and math.isnan(other):
            raise ValueError("nan is not an extended real")
        return other
    raise TypeError(f"{refusal} {type(other).__name__}")


def _as_ext(v) -> ExtReal:
    return v if isinstance(v, ExtReal) else ExtReal(v)


ext = _as_ext  # short public alias used all over the package

POS_INF = ExtReal(_POS)
NEG_INF = ExtReal(_NEG)
ZERO = ExtReal(0)
ONE = ExtReal(1)
