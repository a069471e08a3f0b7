import pytest

from ietword.config import ConfigError, format_iet_config, parse_iet_config
from ietword.exact import Interval, make_quadratic, parse_scalar, rational
from ietword.iet import build_iet

GOLDEN_ALPHA = make_quadratic(-1, 2, 1, 2, 5)

GOLDEN_CFG = """\
k 2
d 5
lengths (3-1*sqrt(5))/2 (-1+1*sqrt(5))/2
perm 2 1
flips 0 0
"""


def test_parse_golden():
    T, sets = parse_iet_config(GOLDEN_CFG)
    assert sets is None
    assert T.k == 2
    assert T.lengths == (rational(1) - GOLDEN_ALPHA, GOLDEN_ALPHA)
    assert T.permutation == (2, 1)
    assert T.flips == (False, False)


def test_parse_ignores_comments_blanks_and_order():
    text = """\

# a rotation, fields shuffled
perm 2 1
flips 0 0   # no reflections
d 5
lengths (3-1*sqrt(5))/2 (-1+1*sqrt(5))/2

k 2
"""
    T, _ = parse_iet_config(text)
    assert T.lengths[1] == GOLDEN_ALPHA


def test_format_round_trip():
    T, _ = parse_iet_config(GOLDEN_CFG)
    text = format_iet_config(T)
    assert text == GOLDEN_CFG
    T2, _ = parse_iet_config(text)
    assert T2.lengths == T.lengths
    assert T2.permutation == T.permutation
    assert T2.flips == T.flips


def test_format_rational_uses_d_zero():
    T = build_iet([rational(1, 3), rational(2, 3)], [2, 1])
    text = format_iet_config(T)
    assert "d 0" in text.splitlines()
    T2, _ = parse_iet_config(text)
    assert T2.lengths == T.lengths


def test_flips_round_trip():
    T = build_iet([rational(1, 2), rational(1, 2)], [2, 1], [True, False])
    text = format_iet_config(T)
    assert "flips 1 0" in text.splitlines()
    T2, _ = parse_iet_config(text)
    assert T2.flips == (True, False)


# ----------------------------------------------------------------- sets

def test_parse_sets():
    text = GOLDEN_CFG + (
        "sets a=[0,(-1+1*sqrt(5))/2)\n"
        "sets b=[(-1+1*sqrt(5))/2,1)\n"
    )
    _, sets = parse_iet_config(text)
    assert sorted(sets) == ["a", "b"]
    assert sets["a"] == (Interval(rational(0), GOLDEN_ALPHA),)
    assert sets["b"] == (Interval(GOLDEN_ALPHA, rational(1)),)


def test_sets_multiple_intervals_per_letter():
    text = (
        "k 2\nd 0\nlengths 1/2 1/2\nperm 2 1\nflips 0 0\n"
        "sets x=[0,1/4) [1/2,3/4)\n"
        "sets y=[1/4,1/2) [3/4,1)\n"
    )
    _, sets = parse_iet_config(text)
    assert len(sets["x"]) == 2
    assert sets["x"][1] == Interval(rational(1, 2), rational(3, 4))


def test_format_sets_round_trip():
    _, sets = parse_iet_config(
        GOLDEN_CFG
        + "sets b=[(-1+1*sqrt(5))/2,1)\nsets a=[0,(-1+1*sqrt(5))/2)\n")
    T, _ = parse_iet_config(GOLDEN_CFG)
    text = format_iet_config(T, sets)
    # letters come back sorted regardless of input order
    lines = text.splitlines()
    assert lines[-2] == "sets a=[0,(-1+1*sqrt(5))/2)"
    assert lines[-1] == "sets b=[(-1+1*sqrt(5))/2,1)"
    _, sets2 = parse_iet_config(text)
    assert sets2 == sets


# --------------------------------------------------------------- errors

def err(text):
    with pytest.raises(ConfigError) as ei:
        parse_iet_config(text)
    return ei.value


def test_duplicate_field():
    e = err(GOLDEN_CFG + "k 2\n")
    assert e.line_no == 6
    assert "duplicate field 'k'" in str(e)


def test_missing_field():
    e = err("k 2\nd 0\nlengths 1/2 1/2\nperm 2 1\n")
    assert e.line_no == 5
    assert "missing field 'flips'" in str(e)


def test_unknown_field():
    e = err("kk 2\n")
    assert e.line_no == 1
    assert "unknown field 'kk'" in str(e)


def test_bad_scalar():
    e = err("k 2\nd 0\nlengths 1/2 sqrt(2)\nperm 2 1\nflips 0 0\n")
    assert e.line_no == 3
    assert "bad scalar" in str(e)


def test_length_count_mismatch():
    e = err("k 3\nd 0\nlengths 1/2 1/2\nperm 2 1\nflips 0 0\n")
    assert "expected 3 lengths, got 2" in str(e)


def test_radicand_mismatch():
    e = err("k 2\nd 5\nlengths (-1+1*sqrt(2))/1 (2-1*sqrt(2))/1\n"
            "perm 2 1\nflips 0 0\n")
    assert e.line_no == 3
    assert "does not match d=5" in str(e)


def test_sets_radicand_mismatch():
    rational_cfg = "k 2\nd 0\nlengths 1/2 1/2\nperm 2 1\nflips 0 0\n"
    for cfg, cut, d in ((rational_cfg, "(1+1*sqrt(2))/8", 0),
                        (GOLDEN_CFG, "(1+1*sqrt(3))/8", 5)):
        e = err(cfg + f"sets a=[0,{cut})\nsets b=[{cut},1/2) [1/2,1)\n")
        # the first sets line that names the cut is reported
        assert e.line_no == 6
        assert f"does not match d={d}" in str(e)
    # a later, well-formed sets line does not hide the bad one
    e = err(GOLDEN_CFG + "sets a=[0,1/2)\nsets b=[1/2,(1+1*sqrt(2))/4) [(1+1*sqrt(2))/4,1)\n")
    assert e.line_no == 7
    assert "scalar radicand 2 does not match d=5" in str(e)


def test_negative_d():
    e = err("k 2\nd -3\nlengths 1/2 1/2\nperm 2 1\nflips 0 0\n")
    assert e.line_no == 2
    assert "radicand >= 0, got -3" in str(e)


def test_k_wants_single_integer():
    assert "single integer" in str(err("k 2 3\nd 0\nlengths 1\nperm 1\nflips 0\n"))
    assert "wants integers" in str(err("k two\nd 0\nlengths 1\nperm 1\nflips 0\n"))


def test_bad_flips():
    e = err("k 2\nd 0\nlengths 1/2 1/2\nperm 2 1\nflips 0 2\n")
    assert e.line_no == 5
    assert "0/1" in str(e)


def test_bad_permutation_reported_on_perm_line():
    e = err("k 2\nd 0\nlengths 1/2 1/2\nperm 1 1\nflips 0 0\n")
    assert e.line_no == 4


def test_lengths_not_summing_to_one():
    with pytest.raises(ConfigError):
        parse_iet_config("k 2\nd 0\nlengths 1/2 1/3\nperm 2 1\nflips 0 0\n")


def test_exchange_errors_reported_on_their_field_line():
    good = {"lengths": "lengths 1/2 1/2", "perm": "perm 2 1", "flips": "flips 0 0"}
    bad = [("lengths", "lengths 1/2 1/3", "sum to 5/6"),
           ("lengths", "lengths 1 0", "non-positive"),
           ("perm", "perm 1 1", "not a bijection"),
           ("perm", "perm 2 1 3", "not a bijection"),
           ("flips", "flips 0 0 1", "flips length")]
    for order in (["k 2", "d 0", "lengths", "perm", "flips"],
                  ["flips", "perm", "d 0", "lengths", "k 2"]):
        for field, line, message in bad:
            e = err("".join((line if f == field else good.get(f, f)) + "\n"
                            for f in order))
            assert e.line_no == order.index(field) + 1, (order, line)
            assert message in str(e)


def test_bad_interval_token():
    e = err(GOLDEN_CFG + "sets a=[0,1/2]\n")
    assert e.line_no == 6
    assert "bad interval" in str(e)


def test_sets_line_needs_equals():
    e = err(GOLDEN_CFG + "sets a [0,1)\n")
    assert "sets line needs" in str(e)


def test_duplicate_sets_letter():
    e = err(GOLDEN_CFG + "sets a=[0,1/2)\nsets a=[1/2,1)\n")
    assert e.line_no == 7
    assert "duplicate sets entry" in str(e)


def test_sets_letter_is_one_character():
    e = err(GOLDEN_CFG + "sets ab=[0,1/3)\nsets b=[1/3,1)\n")
    assert e.line_no == 6
    assert "sets letter 'ab' is not one character" in str(e)


def test_empty_interval_list():
    e = err(GOLDEN_CFG + "sets a=\n")
    assert "empty interval list" in str(e)


def test_interval_endpoints_out_of_order():
    e = err(GOLDEN_CFG + "sets a=[1/2,1/4)\n")
    assert e.line_no == 6
