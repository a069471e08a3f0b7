"""Exact scalars in Q or in a single real quadratic field Q(sqrt(d)).

Every interval endpoint, length and orbit point in this package is an
ExactScalar, so each boundary decision reduces to integer sign tests;
no floating point enters any decision path.  Values are immutable and
hashable (pure value semantics).

A scalar holds the integers of its literal, (num + irr*sqrt(d))/den, so
arithmetic, comparison, formatting and the orbit kernel's boundary run
on ints; its Fraction fields rat and coef are built only when read.

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


def _square_free(num: int, irr: int, den: int, d: int) -> tuple[int, int, int, int]:
    """(num + irr*sqrt(d))/den with d made square-free: each square factor
    f*f of d moves into irr as f, and sqrt(1) into num.  d == 0 drops irr."""
    f = 2
    while irr and f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            irr *= f
        f += 1
    if d <= 1:
        return num + irr * d, 0, den, 0
    return num, irr, den, d


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
    """(num + irr*sqrt(d))/den, exactly, for ints num, irr and den.

    Canonical form: den > 0, gcd(num, irr, den) == 1, d is square-free
    and >= 2, and d == 0 iff irr == 0 (pure rationals always carry
    d == 0): the (p+-r*sqrt(d))/q of the literal grammar.  Construction
    normalizes, so equal values have equal integer triples.  The record's
    fields are rat, coef and d, the value as rat + coef*sqrt(d) with rat
    and coef Fractions built when read, so pickling goes through the
    public constructor ExactScalar(rat, coef, d).
    """

    __slots__ = ("num", "irr", "den", "d")
    _fields = ("rat", "coef", "d")

    def __new__(cls, rat=0, coef=0, d: int = 0) -> "ExactScalar":
        if not isinstance(d, int) or d < 0:
            raise ValueError(f"radicand must be a non-negative integer, got {d!r}")
        rat, coef = Fraction(rat), Fraction(coef)
        q, s = rat.denominator, coef.denominator
        return cls._canonical(*_square_free(rat.numerator * s, coef.numerator * q, q * s, d))

    def __init__(self, *args, **kwargs) -> None:
        """Nothing to do: __new__ built the value."""

    @classmethod
    def _canonical(cls, num: int, irr: int, den: int, d: int) -> "ExactScalar":
        """(num + irr*sqrt(d))/den from ints, with den != 0 and d already
        square-free and >= 2, or 0 with irr == 0: only the sign and the
        common factor are normalized, with one gcd, and d is set to 0
        when irr == 0."""
        if den < 0:
            num, irr, den = -num, -irr, -den
        g = math.gcd(num, irr, den)
        if g != 1:
            num, irr, den = num // g, irr // g, den // g
        x = object.__new__(cls)
        _set_num(x, num)
        _set_irr(x, irr)
        _set_den(x, den)
        _set_d(x, d if irr else 0)
        return x

    # the value as rat + coef*sqrt(d), in Fractions
    rat = property(lambda self: Fraction(self.num, self.den))
    coef = property(lambda self: Fraction(self.irr, self.den))

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
        return quadratic_sign(self.num, self.irr, self.d)

    def __bool__(self) -> bool:
        return self.num != 0 or self.irr != 0

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._canonical(-self.num, -self.irr, self.den, self.d)

    def __add__(self, other: object) -> "ExactScalar":
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        d = self._join_d(o)
        p, q = self.den, o.den
        return ExactScalar._canonical(self.num * q + o.num * p, self.irr * q + o.irr * p,
                                      p * q, d)

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
        return ExactScalar._canonical(self.num * o.num + self.irr * o.irr * d,
                                      self.num * o.irr + self.irr * o.num,
                                      self.den * o.den, d)

    __rmul__ = __mul__

    def _invert(self) -> "ExactScalar":
        if not self:
            raise ZeroDivisionError("division by zero scalar")
        # den/(u + v sqrt d) = den (u - v sqrt d)/(u^2 - v^2 d); the norm is
        # a non-zero integer because sqrt(d) is irrational in canonical form.
        u, v, d = self.num, self.irr, self.d
        return ExactScalar._canonical(self.den * u, -self.den * v, u * u - v * v * d, d)

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
        return (self.num, self.irr, self.den, self.d) == (o.num, o.irr, o.den, o.d)

    def __lt__(self, other: object) -> bool:
        o = as_scalar(other)
        if o is None:
            return NotImplemented
        return compare(self, o) < 0

    def __hash__(self) -> int:
        if self.d == 0:
            return hash(Fraction(self.num, self.den))
        return hash((self.num, self.irr, self.den, self.d))

    def __floor__(self) -> int:
        # floor(x/den) = floor(floor(x)/den) for x = num + irr sqrt d, and
        # isqrt(irr^2 d) is floor(|irr| sqrt d); the root is irrational
        # when irr != 0, so a negative irr floors to -isqrt - 1.
        v = self.irr
        fl = math.isqrt(v * v * self.d)
        return (self.num + (fl if v >= 0 else -fl - 1)) // self.den

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"ExactScalar({format_scalar(self)!r})"


# the slots' own setters: faster than object.__setattr__ on the hot path
_set_num, _set_irr, _set_den, _set_d = (getattr(ExactScalar, name).__set__
                                        for name in ExactScalar.__slots__)

ZERO = ExactScalar(0)
ONE = ExactScalar(1)


def as_scalar(x: object) -> ExactScalar | None:
    """Coerce ints and Fractions; return None for foreign types."""
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar._canonical(x.numerator, 0, x.denominator, 0)
    return None


def rational(p: int, q: int = 1) -> ExactScalar:
    if q == 0:
        raise ZeroDivisionError(f"rational({p}, 0)")
    return ExactScalar._canonical(p, 0, q, 0)


def make_quadratic(p: int, q: int, r: int, s: int, d: int) -> ExactScalar:
    """Build p/q + (r/s) sqrt(d) in canonical form."""
    if q == 0 or s == 0:
        raise ValueError("zero denominator")
    if d < 0:
        raise ValueError("negative radicand")
    return ExactScalar._canonical(*_square_free(p * s, r * q, q * s, d))


def compare(a: ExactScalar, b: ExactScalar) -> int:
    """-1, 0 or 1; raises MixedRadicalError across distinct quadratic fields."""
    # the sign of (a - b)*a.den*b.den, without building the difference
    p, q = a.den, b.den
    return quadratic_sign(a.num * q - b.num * p, a.irr * q - b.irr * p, a._join_d(b))


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
        return ExactScalar._canonical(_int(s), 0, 1, 0)
    m = _FRAC.match(s)
    if m:
        den = _int(m.group(2))
        if den == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        return ExactScalar._canonical(_int(m.group(1)), 0, den, 0)
    m = _QUAD.match(s)
    if m:
        p, sgn, r, d, q = m.groups()
        p, r, d, q = _int(p), _int(sgn + r), _int(d), _int(q)
        if q == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        if d > MAX_RADICAND:
            raise ScalarParseError(f"radicand above {MAX_RADICAND} in {text!r}")
        return ExactScalar._canonical(*_square_free(p, r, q, d))
    raise ScalarParseError(f"not a scalar literal: {text!r}")


def format_scalar(a: ExactScalar) -> str:
    """Emit the literal grammar; parse_scalar(format_scalar(a)) == a."""
    if a.irr == 0:
        if a.den == 1:
            return str(a.num)
        return f"{a.num}/{a.den}"
    sgn = "+" if a.irr >= 0 else "-"
    return f"({a.num}{sgn}{abs(a.irr)}*sqrt({a.d}))/{a.den}"


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
