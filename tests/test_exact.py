import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ietword.exact import (
    ExactScalar,
    Interval,
    MixedRadicalError,
    ScalarParseError,
    ZERO,
    compare,
    format_scalar,
    make_quadratic,
    parse_scalar,
    rational,
)
from ietword.iet import RegularityReport
from ietword.orders import OrderPair, OrderReport
from ietword.rauzy import EvolutionReport, Witness

import reference as ref
from corpus import GOLDEN_ALPHA

SILVER = make_quadratic(-1, 1, 1, 1, 2)      # sqrt2 - 1


def test_canonical_form_square_free():
    a = make_quadratic(0, 1, 1, 1, 8)        # sqrt8 = 2 sqrt2
    assert a.d == 2
    assert a.coef == Fraction(2)


def test_canonical_form_perfect_square():
    a = make_quadratic(1, 2, 3, 1, 9)        # 1/2 + 3*3
    assert a.d == 0
    assert a.rat == Fraction(19, 2)


def test_make_quadratic_radicand_bounds():
    # sqrt(0) = 0: radicand 0 gives a rational, a negative one is refused
    assert make_quadratic(1, 2, 3, 4, 0) == rational(1, 2)
    with pytest.raises(ValueError, match="negative radicand"):
        make_quadratic(1, 2, 3, 4, -1)


def test_zero_coef_drops_radicand():
    a = ExactScalar(Fraction(3, 7), Fraction(0), 5)
    assert a.d == 0
    assert a == rational(3, 7)


def test_golden_value_comparisons():
    assert GOLDEN_ALPHA > rational(1, 2)
    assert GOLDEN_ALPHA < rational(2, 3)
    assert GOLDEN_ALPHA * GOLDEN_ALPHA + GOLDEN_ALPHA == rational(1)


def test_silver_positive():
    # 3 - 2 sqrt2 > 0
    a = rational(3) - rational(2) * make_quadratic(0, 1, 1, 1, 2)
    assert a.sign() > 0
    assert a < rational(1, 5)


def test_mixed_radicals_rejected():
    with pytest.raises(MixedRadicalError):
        compare(GOLDEN_ALPHA, SILVER)
    with pytest.raises(MixedRadicalError):
        GOLDEN_ALPHA + SILVER
    # equality is a plain False, not an error
    assert not (GOLDEN_ALPHA == SILVER)
    assert GOLDEN_ALPHA != SILVER


def test_hash_matches_fraction_for_rationals():
    assert hash(rational(3, 7)) == hash(Fraction(3, 7))
    assert rational(4, 2) == 2


def test_floor_rational():
    assert math.floor(rational(7, 2)) == 3
    assert math.floor(rational(-7, 2)) == -4
    assert math.floor(rational(4)) == 4


def test_floor_quadratic():
    assert math.floor(GOLDEN_ALPHA) == 0
    assert math.floor(GOLDEN_ALPHA + 2) == 2
    assert math.floor(-GOLDEN_ALPHA) == -1
    big = GOLDEN_ALPHA * 1000                 # 618.03...
    assert math.floor(big) == 618
    assert math.floor(-big) == -619


def test_parse_int_and_fraction():
    assert parse_scalar("5") == rational(5)
    assert parse_scalar("-3/9") == rational(-1, 3)
    assert parse_scalar(" 2 / 4 ") == rational(1, 2)


def test_parse_quadratic():
    assert parse_scalar("(-1+1*sqrt(5))/2") == GOLDEN_ALPHA
    assert parse_scalar("( -1 + 1 * sqrt( 5 ) ) / 2") == GOLDEN_ALPHA
    assert parse_scalar("(0-2*sqrt(2))/1") == rational(-2) * make_quadratic(0, 1, 1, 1, 2)


def test_parse_errors():
    for bad in ("", "sqrt(5)", "1/0", "(1+2*sqrt(5))/0", "(1+2*sqrt(-5))/3", "1.5"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_format_round_trip_frozen():
    assert format_scalar(GOLDEN_ALPHA) == "(-1+1*sqrt(5))/2"
    assert format_scalar(rational(1, 3)) == "1/3"
    assert format_scalar(rational(-4)) == "-4"
    assert format_scalar(rational(3) - 2 * make_quadratic(0, 1, 1, 1, 2)) == "(3-2*sqrt(2))/1"


# format_scalar's bytes, pinned: each literal as the Fraction-pair layout
# printed it, and parsed back to the same integer triple
PINNED_LITERALS = [
    ("integer", rational(7), "7"),
    ("negative-rational", rational(-3, 8), "-3/8"),
    ("negative-irr", make_quadratic(1, 2, -3, 4, 5), "(2-3*sqrt(5))/4"),
    ("den-1", make_quadratic(-1, 1, 1, 1, 2), "(-1+1*sqrt(2))/1"),
    ("square-factor", make_quadratic(0, 1, -2, 1, 12), "(0-4*sqrt(3))/1"),
    ("two-denominators", ExactScalar(Fraction(-5, 6), Fraction(-7, 15), 2), "(-25-14*sqrt(2))/30"),
    ("large-rational", rational(10 ** 30 + 1, 3 ** 60),
     "1000000000000000000000000000001/42391158275216203514294433201"),
    ("large-quadratic", make_quadratic(2 ** 70 + 1, 3 ** 45, -(5 ** 30), 7 ** 20, 10 ** 9 - 1),
     "(94202080989013028159836144602332403425"
     "-24762763044757305912475101649761199951171875*sqrt(12345679))"
     "/235731306207522981180205520309374214643"),
]


@pytest.mark.parametrize("x, text", [case[1:] for case in PINNED_LITERALS],
                         ids=[case[0] for case in PINNED_LITERALS])
def test_format_scalar_bytes_pinned(x, text):
    assert format_scalar(x) == str(x) == text
    y = parse_scalar(text)
    assert (y.num, y.irr, y.den, y.d) == (x.num, x.irr, x.den, x.d)


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
    for a, b in ((GOLDEN_ALPHA, SILVER), (SILVER, GOLDEN_ALPHA + 1)):
        for cmp in (compare, lambda x, y: x < y, lambda x, y: x >= y):
            with pytest.raises(MixedRadicalError):
                cmp(a, b)


# ------------------------------------------- the integer triple, differentially
# ExactScalar holds (num + irr*sqrt(d))/den; the reference below holds the
# same value as a pair of Fractions (rat, coef) with rat + coef*sqrt(d).

def _ref_floor(r: Fraction, c: Fraction, d: int) -> int:
    n = math.floor(float(r) + float(c) * math.sqrt(d))
    while ref.sign(r - n, c, d) < 0:
        n -= 1
    while ref.sign(r - n - 1, c, d) >= 0:
        n += 1
    return n


def _ref_ops(a, b, d):
    """Every checked operation on the pairs a and b, by name."""
    (r, c), (s, e) = a, b
    sa, sb = ref.sign(r, c, d), ref.sign(r - s, c - e, d)
    ops = {"+": (r + s, c + e), "-": (r - s, c - e),
           "*": (r * s + c * e * d, r * e + c * s), "neg": (-r, -c),
           "abs": (-r, -c) if sa < 0 else (r, c),
           "floor": _ref_floor(r, c, d), "sign": sa, "compare": sb,
           "<": sb < 0, "==": (r, c) == (s, e)}
    if (s, e) != (0, 0):
        norm = s * s - e * e * d
        ops["/"] = ((r * s - c * e * d) / norm, (c * s - r * e) / norm)
    return ops


def _got_ops(x, y):
    ops = {"+": x + y, "-": x - y, "*": x * y, "neg": -x, "abs": abs(x),
           "floor": math.floor(x), "sign": x.sign(), "compare": compare(x, y),
           "<": x < y, "==": x == y}
    if y:
        ops["/"] = x / y
    return ops


def _assert_triple(x: ExactScalar) -> None:
    assert x.den > 0 and math.gcd(x.num, x.irr, x.den) == 1, repr(x)
    assert (x.irr == 0) == (x.d == 0), repr(x)
    assert all(type(n) is int for n in (x.num, x.irr, x.den, x.d)), repr(x)


def _random_pair(rng: random.Random, d: int) -> tuple[Fraction, Fraction]:
    def part(scale):
        if rng.random() < 0.2:
            return Fraction(0)
        den = rng.choice([1, rng.randrange(1, 50), rng.randrange(1, 10 ** 25)])
        return Fraction(rng.randrange(-scale * den, scale * den + 1), den)
    return part(20), part(5) if d else Fraction(0)


def test_scalar_ops_match_fraction_pairs():
    rng = random.Random(20076)
    seen = set()
    for case in range(1500):
        d = (0, 2, 5)[case % 3]
        a = _random_pair(rng, d)
        # ties, negations, a rational against the field, and zero
        b = rng.choice([_random_pair(rng, d), a, (-a[0], -a[1]), (a[0], Fraction(0)),
                        (Fraction(0), Fraction(0))])
        x, y = ExactScalar(*a, d), ExactScalar(*b, d)
        want, got = _ref_ops(a, b, d), _got_ops(x, y)
        assert got.keys() == want.keys()
        for op, value in got.items():
            if isinstance(value, ExactScalar):
                _assert_triple(value)
                pair = want[op]
                assert (value.rat, value.coef, value.d) == (*pair, d if pair[1] else 0), op
                seen.add(op)
            else:
                assert value == want[op], (op, a, b, d)
        seen.add(("tie", want["=="]))
    assert {"+", "-", "*", "/", "neg", "abs", ("tie", True), ("tie", False)} <= seen


def test_rational_scalars_stand_for_their_fractions():
    keyed = {Fraction(1, 2): "half", 3: "three", Fraction(-7, 4): "neg"}
    assert keyed[rational(1, 2)] == "half" and keyed[rational(6, 2)] == "three"
    assert keyed[parse_scalar("-14/8")] == "neg"
    for x, q in ((rational(1, 2), Fraction(1, 2)), (rational(-9, 3), -3),
                 (parse_scalar("(4+0*sqrt(2))/6"), Fraction(2, 3))):
        assert x == q and hash(x) == hash(q) and x.d == 0
        assert not x < q and x <= q and x < q + 1


def test_interval_singleton_and_empty():
    s = Interval(rational(1, 2), rational(1, 2), True, True)
    assert not s.is_empty
    assert s.length == 0
    e = Interval(rational(1, 2), rational(1, 2), True, False)
    assert e.is_empty


def test_interval_rejects_reversed():
    with pytest.raises(ValueError, match="interval endpoints out of order"):
        Interval(rational(1), rational(0))
    with pytest.raises(ValueError, match="out of order"):
        Interval(SILVER + 1, SILVER)
    # equal ends are a (possibly empty) interval, not an error
    assert Interval(GOLDEN_ALPHA, GOLDEN_ALPHA).is_empty
    with pytest.raises(MixedRadicalError, match=r"sqrt\(5\) with sqrt\(2\)"):
        Interval(SILVER, GOLDEN_ALPHA)


# ---------------------------------------------------------- value classes
# ExactScalar, Interval and the report classes are plain classes on
# record.Record; these pin what their callers read of them.

FROZEN = [
    make_quadratic(1, 2, 3, 4, 5),
    Interval(rational(0), rational(1, 2), False, True),
    RegularityReport(7, "collision", (1, 2, 3)),
    OrderPair(("a", "b", "c"), ("c", "b", "a")),
    OrderReport(False, "2", ("", "a", "b"), 6),
    Witness("valence", 3, ("ab", "ba"), "two"),
]


@pytest.mark.parametrize("record", FROZEN, ids=lambda r: type(r).__name__)
def test_record_fields_cannot_be_assigned(record):
    before = repr(record)
    # ExactScalar's slots are its integer triple and d, not its fields
    for name in {*record._fields, *type(record).__slots__}:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before
    # rebuilt through the constructor, so pickling still round-trips
    assert pickle.loads(pickle.dumps(record)) == record


def test_equal_records_hash_equal():
    # a rational scalar hashes as its Fraction: test_hash_matches_fraction_for_rationals
    assert ExactScalar(1, 2, 8) == ExactScalar(1, 4, 2)      # 2 sqrt8 = 4 sqrt2
    assert hash(ExactScalar(1, 2, 8)) == hash(ExactScalar(1, 4, 2))
    pairs = {OrderPair(("a", "b"), ("b", "a")): "flip"}
    assert pairs[OrderPair(tuple("ab"), tuple("ba"))] == "flip"
    assert OrderPair(tuple("ab"), tuple("ba")) != OrderPair(tuple("ab"), tuple("ab"))
    witnesses = {Witness("valence", 2, ("ab",)): 1}
    assert witnesses[Witness("valence", 2, ("ab",), "")] == 1
    assert Witness("valence", 2, ("ab",)) != Witness("valence", 3, ("ab",))
    lower, same = Interval(rational(0), rational(1, 2)), Interval(ZERO, rational(2, 4))
    assert lower == same and hash(lower) == hash(same)
    # records of different classes with equal fields are not equal
    assert RegularityReport(1, "collision") != OrderReport(1, "collision", None, 0)


def test_record_validation_still_raises():
    with pytest.raises(ValueError, match="pi1 repeats a letter"):
        OrderPair(("a", "b"), ("a", "a"))
    with pytest.raises(ValueError, match="different letter sets"):
        OrderPair(("a", "b"), ("a", "c"))
    # reversed interval ends: test_interval_rejects_reversed
    for d in (-2, 2.0):
        with pytest.raises(ValueError, match="radicand must be a non-negative integer"):
            ExactScalar(1, 1, d)
    with pytest.raises(TypeError):
        OrderReport(True, None, 6)


def test_record_text():
    assert str(Witness("valence", 3, ("ab", "ba"), "two")) == "valence at k=3: ab,ba (two)"
    assert str(Witness("not-strongly-connected", 2, ())) == "not-strongly-connected at k=2: "
    assert str(OrderReport(True, None, None, 6)) == "consistent up to length 6"
    assert str(OrderReport(False, "2", ("", "a"), 6)) == "fails condition 2: ('', 'a')"
    assert str(Interval(rational(0), rational(1, 2), False, True)) == "(0,1/2]"
    assert repr(OrderPair(("a", "b"), ("b", "a"))) == "OrderPair(pi0=('a', 'b'), pi1=('b', 'a'))"
    assert repr(Interval(ZERO, rational(1, 2))) == (
        "Interval(lo=ExactScalar('0'), hi=ExactScalar('1/2'), lo_closed=True, hi_closed=False)")
    assert repr(RegularityReport(4, "no-collision-up-to-depth")) == (
        "RegularityReport(depth=4, verdict='no-collision-up-to-depth', witness=None)")


def test_evolution_report_keeps_a_dict_and_can_change():
    report = EvolutionReport((1, 3), "rejected", None, False, None)
    assert vars(report) == {"window": (1, 3), "verdict": "rejected", "K": None,
                            "oriented": False, "witness": None, "in_labels": None,
                            "out_labels": None, "marks": None}
    assert report == EvolutionReport((1, 3), "rejected", None, False, None)
    report.verdict = "accepted"
    assert report.accepted
    with pytest.raises(TypeError):
        hash(report)
