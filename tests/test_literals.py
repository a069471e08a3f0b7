"""Oversized scalar literals: refused as parse errors by the library, and
by the command line with exit 3 and one error line, not a traceback or a
hang."""
import sys

import pytest

from ietword.cli import main
from ietword.config import ConfigError, parse_iet_config
from ietword.exact import MAX_RADICAND, ScalarParseError, make_quadratic, parse_scalar

RATIONAL_CFG = "k 2\nd {d}\nlengths {lengths}\nperm 2 1\nflips 0 0\n"


def too_many_digits() -> str:
    """An integer literal past the interpreter's limit on digits converted
    to an int."""
    return "1" + "0" * sys.get_int_max_str_digits()


# a radicand far above the bound, written out in full
HUGE_RADICAND = str(10 ** 120 + 7)


def gen_error(tmp_path, capsys, cfg_text, x0="0"):
    path = tmp_path / "t.cfg"
    path.write_text(cfg_text)
    assert main(["gen", str(path), "-n", "5", "--x0", x0]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_parse_refuses_too_many_digits():
    big = too_many_digits()
    for text in (big, f"1/{big}", f"-{big}/3", f"({big}+1*sqrt(2))/3",
                 f"(1-{big}*sqrt(2))/3", f"(1+1*sqrt({big}))/3", f"(1+1*sqrt(2))/{big}"):
        with pytest.raises(ScalarParseError, match="digits is too long"):
            parse_scalar(text)


def test_parse_bounds_the_radicand():
    assert parse_scalar(f"(0+1*sqrt({MAX_RADICAND}))/1") == make_quadratic(0, 1, 1, 1, MAX_RADICAND)
    for d in (MAX_RADICAND + 1, HUGE_RADICAND):
        with pytest.raises(ScalarParseError, match="radicand above"):
            parse_scalar(f"(0+1*sqrt({d}))/10")


def test_config_refuses_oversized_lengths():
    big = too_many_digits()
    lines = (RATIONAL_CFG.format(d=0, lengths=f"1/2 1/2 1/{big}"),
             RATIONAL_CFG.format(d=HUGE_RADICAND,
                                 lengths=f"(1+1*sqrt({HUGE_RADICAND}))/1 1/2"))
    for text, message in zip(lines, ("digits is too long", "radicand above")):
        with pytest.raises(ConfigError, match=message) as e:
            parse_iet_config(text)
        assert e.value.line_no == 3


def test_gen_refuses_oversized_x0(tmp_path, capsys):
    cfg = RATIONAL_CFG.format(d=0, lengths="1/3 2/3")
    err = gen_error(tmp_path, capsys, cfg, x0=f"1/1{too_many_digits()}")
    assert err.startswith("error: bad --x0: integer literal of ")
    err = gen_error(tmp_path, capsys, cfg, x0=f"(0+1*sqrt({HUGE_RADICAND}))/10")
    assert err.startswith("error: bad --x0: radicand above ")


def test_gen_refuses_oversized_config_lengths(tmp_path, capsys):
    big = too_many_digits()
    cfg = RATIONAL_CFG.format(d=0, lengths=f"{big}/{big}0 1/2")
    assert "line 3: bad scalar" in gen_error(tmp_path, capsys, cfg)
    cfg = RATIONAL_CFG.format(d=HUGE_RADICAND, lengths=f"(1+1*sqrt({HUGE_RADICAND}))/1 1/2")
    assert "radicand above" in gen_error(tmp_path, capsys, cfg)
