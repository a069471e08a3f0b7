"""Exact scalars in Q or in a single real quadratic field Q(sqrt(d)).

Every interval endpoint, length and orbit point in this package is an
ExactScalar, so each boundary decision reduces to integer sign tests;
no floating point enters any decision path.  Values are immutable and
hashable (pure value semantics).

ExactScalar and Interval are plain classes on record.Record.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering

from .record import Record

__all__ = [
    "ExactScalar",
    "Interval",
    "MixedRadicalError",
    "ScalarParseError",
    "ZERO",
    "ONE",
    "as_scalar",
    "compare",
    "format_scalar",
    "make_quadratic",
    "parse_scalar",
    "quadratic_sign",
    "rational",
]


class MixedRadicalError(ValueError):
    """Two scalars live in different quadratic fields and cannot be combined."""


class ScalarParseError(ValueError):
    """Text does not match the scalar literal grammar."""


def _square_free_split(n: int) -> tuple[int, int]:
    # n = m*m * n0 with n0 square-free
    m, n0, f = 1, n, 2
    while f * f <= n0:
        ff = f * f
        while n0 % ff == 0:
            n0 //= ff
            m *= f
        f += 1
    return m, n0


def quadratic_sign(u, v, d: int) -> int:
    """Sign of u + v*sqrt(d) for ints or Fractions u, v and square-free d.

    Decided by integer comparisons only: with opposite signs, |u| versus
    |v| sqrt(d) is decided by u^2 versus v^2 d.
    """
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return 1 if v > 0 else -1
    if (u > 0) == (v > 0):
        return 1 if u > 0 else -1
    lhs = u * u
    rhs = v * v * d
    if lhs == rhs:
        return 0
    if lhs > rhs:
        return 1 if u > 0 else -1
    return 1 if v > 0 else -1


@total_ordering
class ExactScalar(Record):
    """rat + coef * sqrt(d), exactly.

    Canonical form: d is square-free and >= 2, and d == 0 iff coef == 0
    (pure rationals always carry d == 0).  Construction normalizes, so
    equal values have equal field tuples.
    """

    __slots__ = _fields = ("rat", "coef", "d")

    def __init__(self, rat=Fraction(0), coef=Fraction(0), d: int = 0) -> None:
        if not isinstance(rat, Fraction):
            rat = Fraction(rat)
        if not isinstance(coef, Fraction):
            coef = Fraction(coef)
        if not isinstance(d, int) or d < 0:
            raise ValueError(f"radicand must be a non-negative integer, got {d!r}")
        if d == 0:
            coef = Fraction(0)
        elif coef == 0:
            d = 0
        else:
            m, d = _square_free_split(d)
            if m != 1:
                coef *= m
            if d == 1:
                rat += coef
                coef = Fraction(0)
                d = 0
        _set_rat(self, rat)
        _set_coef(self, coef)
        _set_d(self, d)

    @classmethod
    def _canonical(cls, rat: Fraction, coef: Fraction, d: int) -> "ExactScalar":
        """rat + coef*sqrt(d) from parts already in canonical form, so
        normalizing is skipped: Fractions rat and coef, and d square-free
        and >= 2, or 0 with coef == 0.  d is set to 0 when coef == 0."""
        x = object.__new__(cls)
        _set_rat(x, rat)
        _set_coef(x, coef)
        _set_d(x, d if coef else 0)
        return x

    def _join_d(self, other: "ExactScalar") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise MixedRadicalError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1} via integer comparisons only."""
        return quadratic_sign(self.rat, self.coef, self.d)

    def __bool__(self) -> bool:
        return self.rat != 0 or self.coef != 0

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.rat, -self.coef, self.d)

    def __add__(self, other: object) -> "ExactScalar":
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return ExactScalar(self.rat + o.rat, self.coef + o.coef, d)

    __radd__ = __add__

    def __sub__(self, other: object) -> "ExactScalar":
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "ExactScalar":
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "ExactScalar":
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        return ExactScalar(
            self.rat * o.rat + self.coef * o.coef * d,
            self.rat * o.coef + self.coef * o.rat,
            d,
        )

    __rmul__ = __mul__

    def _invert(self) -> "ExactScalar":
        if not self:
            raise ZeroDivisionError("division by zero scalar")
        # 1/(u + v sqrt d) = (u - v sqrt d)/(u^2 - v^2 d); the norm is a
        # non-zero rational because sqrt(d) is irrational in canonical form.
        norm = self.rat * self.rat - self.coef * self.coef * self.d
        return ExactScalar(self.rat / norm, -self.coef / norm, self.d)

    def __truediv__(self, other: object) -> "ExactScalar":
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        self._join_d(o)
        return self * o._invert()

    def __rtruediv__(self, other: object) -> "ExactScalar":
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return o * self._invert()

    def __abs__(self) -> "ExactScalar":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return self.rat == o.rat and self.coef == o.coef and self.d == o.d

    def __lt__(self, other: object) -> bool:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return compare(self, o) < 0

    def __hash__(self) -> int:
        if self.d == 0:
            return hash(self.rat)
        return hash((self.rat, self.coef, self.d))

    def __floor__(self) -> int:
        u, v = self.rat, self.coef
        base = math.floor(u)
        if v == 0:
            return base
        # floor(|v| sqrt d) = isqrt(num*den) // den for v^2 d = num/den;
        # the value is irrational, so the negative case is -fl - 1.
        num = v.numerator * v.numerator * self.d
        den = v.denominator * v.denominator
        fl = math.isqrt(num * den) // den
        base += fl if v > 0 else -fl - 1
        if (self - (base + 1)).sign() >= 0:
            base += 1
        return base

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"ExactScalar({format_scalar(self)!r})"


# the slots' own setters: faster than object.__setattr__ on the hot path
_set_rat, _set_coef, _set_d = (getattr(ExactScalar, name).__set__
                               for name in ExactScalar._fields)

ZERO = ExactScalar(Fraction(0))
ONE = ExactScalar(Fraction(1))


def as_scalar(x: object) -> ExactScalar | None:
    """Coerce ints and Fractions; return None for foreign types."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar(Fraction(x))
    return None


def rational(p: int, q: int = 1) -> ExactScalar:
    return ExactScalar(Fraction(p, q))


def make_quadratic(p: int, q: int, r: int, s: int, d: int) -> ExactScalar:
    """Build p/q + (r/s) sqrt(d) in canonical form."""
    if q == 0 or s == 0:
        raise ValueError("zero denominator")
    if d < 0:
        raise ValueError("negative radicand")
    return ExactScalar(Fraction(p, q), Fraction(r, s), d)


def compare(a: ExactScalar, b: ExactScalar) -> int:
    """-1, 0 or 1; raises MixedRadicalError across distinct quadratic fields."""
    # the sign of a - b, without building (and normalizing) the difference
    return quadratic_sign(a.rat - b.rat, a.coef - b.coef, a._join_d(b))


_WS = re.compile(r"\s+")
_INT = re.compile(r"^[+-]?\d+$")
_FRAC = re.compile(r"^([+-]?\d+)/([+-]?\d+)$")
_QUAD = re.compile(r"^\(([+-]?\d+)([+-])(\d+)\*sqrt\((\d+)\)\)/([+-]?\d+)$")
# making a radicand square-free trial-divides up to its square root
MAX_RADICAND = 10 ** 9


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        # past the interpreter's limit on digits converted to an int
        raise ScalarParseError(
            f"integer literal of {len(digits.lstrip('+-'))} digits is too long") from None


def parse_scalar(text: str) -> ExactScalar:
    """Parse `INT`, `INT/INT` or `(INT+-INT*sqrt(INT))/INT` (whitespace
    ignored), with the radicand at most MAX_RADICAND."""
    s = _WS.sub("", text)
    if _INT.match(s):
        return ExactScalar(Fraction(_int(s)))
    m = _FRAC.match(s)
    if m:
        den = _int(m.group(2))
        if den == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        return ExactScalar(Fraction(_int(m.group(1)), den))
    m = _QUAD.match(s)
    if m:
        p, sgn, r, d, q = m.groups()
        p, r, d, q = _int(p), _int(sgn + r), _int(d), _int(q)
        if q == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        if d > MAX_RADICAND:
            raise ScalarParseError(f"radicand above {MAX_RADICAND} in {text!r}")
        return make_quadratic(p, q, r, q, d)
    raise ScalarParseError(f"not a scalar literal: {text!r}")


def format_scalar(a: ExactScalar) -> str:
    """Emit the literal grammar; parse_scalar(format_scalar(a)) == a."""
    if a.coef == 0:
        if a.rat.denominator == 1:
            return str(a.rat.numerator)
        return f"{a.rat.numerator}/{a.rat.denominator}"
    den = math.lcm(a.rat.denominator, a.coef.denominator)
    p = a.rat.numerator * (den // a.rat.denominator)
    r = a.coef.numerator * (den // a.coef.denominator)
    sgn = "+" if r >= 0 else "-"
    return f"({p}{sgn}{abs(r)}*sqrt({a.d}))/{den}"


class Interval(Record):
    """Subinterval of the line with explicit endpoint ownership."""

    __slots__ = _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: ExactScalar, hi: ExactScalar,
                 lo_closed: bool = True, hi_closed: bool = False) -> None:
        super().__init__(lo, hi, lo_closed, hi_closed)
        # hi against lo, so that a mixed-field error names hi's field first
        if compare(hi, lo) < 0:
            raise ValueError(f"interval endpoints out of order: {self}")

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    @property
    def length(self) -> ExactScalar:
        return self.hi - self.lo

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"
