import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ietword.exact import (
    ExactScalar,
    Interval,
    MixedRadicalError,
    ScalarParseError,
    compare,
    format_scalar,
    make_quadratic,
    parse_scalar,
    rational,
)

from test_iet import contains_limit

GOLDEN = make_quadratic(-1, 2, 1, 2, 5)      # (sqrt5 - 1)/2
SILVER = make_quadratic(-1, 1, 1, 1, 2)      # sqrt2 - 1


def test_canonical_form_square_free():
    a = make_quadratic(0, 1, 1, 1, 8)        # sqrt8 = 2 sqrt2
    assert a.d == 2
    assert a.coef == Fraction(2)


def test_canonical_form_perfect_square():
    a = make_quadratic(1, 2, 3, 1, 9)        # 1/2 + 3*3
    assert a.d == 0
    assert a.rat == Fraction(19, 2)


def test_zero_coef_drops_radicand():
    a = ExactScalar(Fraction(3, 7), Fraction(0), 5)
    assert a.d == 0
    assert a == rational(3, 7)


def test_golden_value_comparisons():
    assert GOLDEN > rational(1, 2)
    assert GOLDEN < rational(2, 3)
    assert GOLDEN * GOLDEN + GOLDEN == rational(1)


def test_silver_positive():
    # 3 - 2 sqrt2 > 0
    a = rational(3) - rational(2) * make_quadratic(0, 1, 1, 1, 2)
    assert a.sign() > 0
    assert a < rational(1, 5)


def test_mixed_radicals_rejected():
    with pytest.raises(MixedRadicalError):
        compare(GOLDEN, SILVER)
    with pytest.raises(MixedRadicalError):
        GOLDEN + SILVER
    # equality is a plain False, not an error
    assert not (GOLDEN == SILVER)
    assert GOLDEN != SILVER


def test_hash_matches_fraction_for_rationals():
    assert hash(rational(3, 7)) == hash(Fraction(3, 7))
    assert rational(4, 2) == 2


def test_floor_rational():
    assert math.floor(rational(7, 2)) == 3
    assert math.floor(rational(-7, 2)) == -4
    assert math.floor(rational(4)) == 4


def test_floor_quadratic():
    assert math.floor(GOLDEN) == 0
    assert math.floor(GOLDEN + 2) == 2
    assert math.floor(-GOLDEN) == -1
    big = GOLDEN * 1000                       # 618.03...
    assert math.floor(big) == 618
    assert math.floor(-big) == -619


def test_parse_int_and_fraction():
    assert parse_scalar("5") == rational(5)
    assert parse_scalar("-3/9") == rational(-1, 3)
    assert parse_scalar(" 2 / 4 ") == rational(1, 2)


def test_parse_quadratic():
    assert parse_scalar("(-1+1*sqrt(5))/2") == GOLDEN
    assert parse_scalar("( -1 + 1 * sqrt( 5 ) ) / 2") == GOLDEN
    assert parse_scalar("(0-2*sqrt(2))/1") == rational(-2) * make_quadratic(0, 1, 1, 1, 2)


def test_parse_errors():
    for bad in ("", "sqrt(5)", "1/0", "(1+2*sqrt(5))/0", "(1+2*sqrt(-5))/3", "1.5"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_format_round_trip_frozen():
    assert format_scalar(GOLDEN) == "(-1+1*sqrt(5))/2"
    assert format_scalar(rational(1, 3)) == "1/3"
    assert format_scalar(rational(-4)) == "-4"
    assert format_scalar(rational(3) - 2 * make_quadratic(0, 1, 1, 1, 2)) == "(3-2*sqrt(2))/1"


small_fracs = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@st.composite
def scalars(draw):
    d = draw(st.sampled_from([0, 2, 3, 5]))
    rat = draw(small_fracs)
    coef = draw(small_fracs) if d else Fraction(0)
    return ExactScalar(rat, coef, d)


@st.composite
def scalar_pairs(draw):
    # same field so every arithmetic op is legal
    d = draw(st.sampled_from([0, 2, 3, 5]))
    def one():
        rat = draw(small_fracs)
        coef = draw(small_fracs) if d else Fraction(0)
        return ExactScalar(rat, coef, d)
    return one(), one()


@given(scalar_pairs())
def test_field_laws(pair):
    a, b = pair
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == -(b - a)
    assert (a + b) - b == a
    if b:
        assert (a / b) * b == a


@given(scalars())
def test_sign_consistent_with_float(a):
    approx = float(a.rat) + float(a.coef) * math.sqrt(a.d or 1)
    if abs(approx) > 1e-9:
        assert a.sign() == (1 if approx > 0 else -1)


@given(scalars())
def test_parse_format_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@given(scalars())
def test_floor_bracket(a):
    n = math.floor(a)
    assert compare(a, rational(n)) >= 0
    assert compare(a, rational(n + 1)) < 0


def test_compare_matches_difference_sign():
    rng = random.Random(20074)
    for _ in range(600):
        d = rng.choice([0, 2, 3, 5])
        one = lambda: ExactScalar(Fraction(rng.randrange(-40, 41), rng.randrange(1, 13)),
                                  Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) * (d > 0),
                                  d)
        a = one()
        # rationals against the field, and ties
        b = rng.choice([one(), ExactScalar(a.rat), a, ExactScalar(a.rat, a.coef, d)])
        c = (a - b).sign()
        assert compare(a, b) == c and compare(b, a) == -c
        assert ((a < b), (a <= b), (a > b), (a >= b)) == (c < 0, c <= 0, c > 0, c >= 0)
    for a, b in ((GOLDEN, SILVER), (SILVER, GOLDEN + 1)):
        for cmp in (compare, lambda x, y: x < y, lambda x, y: x >= y):
            with pytest.raises(MixedRadicalError):
                cmp(a, b)


def test_interval_singleton_and_empty():
    s = Interval(rational(1, 2), rational(1, 2), True, True)
    assert not s.is_empty
    assert s.length == 0
    e = Interval(rational(1, 2), rational(1, 2), True, False)
    assert e.is_empty


def test_interval_contains_limit():
    iv = Interval(rational(0), rational(1))
    assert contains_limit(iv, rational(0), +1)
    assert not contains_limit(iv, rational(0), -1)
    assert contains_limit(iv, rational(1), -1)
    assert not contains_limit(iv, rational(1), +1)


def test_interval_rejects_reversed():
    with pytest.raises(ValueError, match="interval endpoints out of order"):
        Interval(rational(1), rational(0))
    with pytest.raises(ValueError, match="out of order"):
        Interval(SILVER + 1, SILVER)
    # equal ends are a (possibly empty) interval, not an error
    assert Interval(GOLDEN, GOLDEN).is_empty
    with pytest.raises(MixedRadicalError, match=r"sqrt\(5\) with sqrt\(2\)"):
        Interval(SILVER, GOLDEN)
