"""End-to-end checks of the command line, run in-process via main(argv)."""
import argparse
import gc
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ietword
from ietword import cli
from ietword.cli import main
from ietword.config import parse_iet_config
from ietword.exact import parse_scalar, rational
from ietword.iet import natural_coding
from ietword.words import FactorSet

from corpus import (GOLDEN_CFG, golden_mechanical_word, random_exact_iet,
                    seven_letter_word, tribonacci_word)

MECH_SETS = (
    "sets a=[0,(-1+1*sqrt(5))/2)\n"
    "sets b=[(-1+1*sqrt(5))/2,1)\n"
)


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "golden.cfg"
    path.write_text(GOLDEN_CFG)
    return str(path)


def gen_word(tmp_path, cfg, n, name="word.txt", extra=()):
    out = tmp_path / name
    assert main(["gen", cfg, "-n", str(n), "-o", str(out), *extra]) == 0
    return str(out)


# ------------------------------------------------------------------ gen

def test_gen_natural(cfg, capsys):
    assert main(["gen", cfg, "-n", "40"]) == 0
    assert capsys.readouterr().out == "1212212122122121221212212212122122121221\n"


def test_gen_with_sets(tmp_path, capsys):
    path = tmp_path / "mech.cfg"
    path.write_text(GOLDEN_CFG + MECH_SETS)
    assert main(["gen", str(path), "-n", "40"]) == 0
    word = capsys.readouterr().out.strip()
    assert word == "ababaababaabaababaababaabaababaabaababaa"
    assert word == golden_mechanical_word(40)


def test_gen_x0(cfg, capsys):
    assert main(["gen", cfg, "-n", "10", "--x0", "1/2"]) == 0
    moved = capsys.readouterr().out.strip()
    assert main(["gen", cfg, "-n", "10"]) == 0
    assert moved != capsys.readouterr().out.strip()
    assert main(["gen", cfg, "-n", "10", "--x0", "bad"]) == 3
    assert "bad --x0" in capsys.readouterr().err


def test_gen_output_file(tmp_path, cfg):
    word = gen_word(tmp_path, cfg, 100)
    text = Path(word).read_text()
    assert len(text) == 101 and text.endswith("\n")


def test_gen_errors(tmp_path, cfg, capsys):
    assert main(["gen", cfg, "-n", "0"]) == 3
    capsys.readouterr()
    bad = tmp_path / "bad.cfg"
    bad.write_text("k 2\n")
    assert main(["gen", str(bad), "-n", "5"]) == 3
    assert "line" in capsys.readouterr().err
    assert main(["gen", str(tmp_path / "absent.cfg"), "-n", "5"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_gen_refuses_multi_character_letters(tmp_path, capsys):
    path = tmp_path / "long.cfg"
    path.write_text(GOLDEN_CFG + "sets ab=[0,1/3)\nsets b=[1/3,1)\n")
    assert main(["gen", str(path), "-n", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: line 6: "
                            "sets letter 'ab' is not one character\n")


def test_gen_refuses_sets_off_the_declared_field(tmp_path, capsys):
    path = tmp_path / "field.cfg"
    path.write_text(GOLDEN_CFG + "sets a=[0,(1+1*sqrt(3))/4)\nsets b=[(1+1*sqrt(3))/4,1)\n")
    assert main(["gen", str(path), "-n", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: line 6: "
                            "scalar radicand 3 does not match d=5\n")


RATIONAL_FIELDS = "lengths 1/2 1/2\nperm 2 1\nflips 0 0\n"
BAD_D = "d wants 0 or a square-free radicand in 2..1000000000, got "


@pytest.mark.parametrize("k,d,line,message", [
    (2, 1, 2, BAD_D + "1"),
    (2, 4, 2, BAD_D + "4"),
    (2, 8, 2, BAD_D + "8"),
    (2, 10 ** 20 - 1, 2, BAD_D + "99999999999999999999"),
    (-1, 0, 1, "k wants a positive integer, got -1"),
    (0, 0, 1, "k wants a positive integer, got 0"),
], ids=["d1", "d4", "d8", "d-20-digits", "k-1", "k0"])
def test_gen_refuses_bad_k_and_d(tmp_path, capsys, k, d, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"k {k}\nd {d}\n" + RATIONAL_FIELDS)
    assert main(["gen", str(path), "-n", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line {line}: {message}\n"


def test_gen_refuses_d_that_is_not_square_free(tmp_path, capsys):
    # sqrt(8) reduces to 2*sqrt(2); the declared 8 is refused at its own line
    path = tmp_path / "eight.cfg"
    path.write_text("k 2\nd 8\nlengths (0+1*sqrt(8))/8 (8-1*sqrt(8))/8\n"
                    "perm 2 1\nflips 0 0\n")
    assert main(["gen", str(path), "-n", "8"]) == 3
    assert capsys.readouterr().err == f"error: {path}: line 2: {BAD_D}8\n"


@pytest.mark.parametrize("d", [0, 2, 5])
def test_gen_accepts_square_free_d(tmp_path, capsys, d):
    path = tmp_path / "ok.cfg"
    path.write_text(f"k 2\nd {d}\n" + RATIONAL_FIELDS)
    assert main(["gen", str(path), "-n", "8"]) == 0
    assert capsys.readouterr().out == "12121212\n"


def test_gen_non_ascii_config(tmp_path, capsys):
    path = tmp_path / "accent.cfg"
    path.write_text("# rotation dorée\n" + GOLDEN_CFG, encoding="utf-8")
    assert main(["gen", str(path), "-n", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err == (f"error: {path}: not ASCII text: "
                            "ordinal not in range(128) at byte 14\n")


@pytest.mark.parametrize("cmd", [
    ["validate"], ["validate", "--oriented"], ["fz", "--search"], ["analyze"],
    ["rauzy"], ["reconstruct"],
], ids=" ".join)
def test_non_ascii_word_names_the_file(tmp_path, capsys, cmd):
    path = tmp_path / "accent.txt"
    path.write_bytes(b"ab\xe9" + b"ab" * 100 + b"\n")
    extra = (["--out-config", str(tmp_path / "c.cfg"),
              "--out-report", str(tmp_path / "c.csv")]
             if cmd[0] == "reconstruct" else [])
    assert main([cmd[0], str(path), *cmd[1:], *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: not ASCII text: "
                            "ordinal not in range(128) at byte 2\n")


# -------------------------------------------------------------- analyze

def test_analyze_csv(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 500)
    assert main(["analyze", word, "--max-len", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,complexity,left_special,right_special,bispecial"
    assert out[1:4] == ["0,1,1,1,1", "1,2,1,1,1", "2,3,1,1,0"]
    assert out[4:8] == ["3,4,1,1,1", "4,5,1,1,0", "5,6,1,1,0", "6,7,1,1,1"]


def test_analyze_too_short(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 20)
    assert main(["analyze", word, "--max-len", "30"]) == 2
    assert "inconclusive" in capsys.readouterr().err


# ---------------------------------------------------------------- rauzy

def test_rauzy_dot_files(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 200)
    out_dir = tmp_path / "dots"
    out_dir.mkdir()
    assert main(["rauzy", word, "--k-min", "1", "--k-max", "3",
                 "--out-dir", str(out_dir)]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert listed == [f"{out_dir}/rauzy_k{k}.dot" for k in (1, 2, 3)]
    k1 = (out_dir / "rauzy_k1.dot").read_text()
    assert k1.splitlines()[0] == "digraph rauzy {"
    assert '  "1" -> "2";' in k1
    again = tmp_path / "dots2"
    again.mkdir()
    main(["rauzy", word, "--k-min", "1", "--k-max", "3",
          "--out-dir", str(again)])
    assert (again / "rauzy_k1.dot").read_text() == k1


def test_rauzy_window_errors(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 30)
    assert main(["rauzy", word, "--k-min", "0"]) == 3
    capsys.readouterr()
    assert main(["rauzy", word, "--k-max", "40"]) == 2


# ------------------------------------------------------------- validate

def test_validate_accepts_golden(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 2000)
    assert main(["validate", word, "--oriented"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "verdict=accepted;K=1;witness=none"
    assert "verdict: accepted" in out
    assert any("(2000 symbols over {1,2})" in line for line in out)


def test_validate_rejects_tribonacci(tmp_path, capsys):
    path = tmp_path / "trib.txt"
    path.write_text(tribonacci_word(2000) + "\n")
    assert main(["validate", str(path)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("verdict=rejected;K=none;witness=valence at k=1")


def test_validate_inconclusive_and_usage(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 10)
    assert main(["validate", word]) == 2
    assert "verdict=inconclusive" in capsys.readouterr().out
    assert main(["validate", word, "--k-min", "5", "--k-max", "2"]) == 3


# ------------------------------------------------------------------- fz

def test_fz_orders_pass(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 2000)
    assert main(["fz", word, "--orders", "12", "21"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "condition letters: pass" in out
    assert "condition 3: pass" in out
    assert out[-1] == "result=pass;condition=none;witness=none"
    # comma-separated order spelling is the same thing
    assert main(["fz", word, "--orders", "1,2", "2,1"]) == 0


def test_fz_orders_fail(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 2000)
    assert main(["fz", word, "--orders", "12", "12"]) == 1
    out = capsys.readouterr().out
    assert "result=fail;condition=separation" in out


def test_fz_orders_witness_does_not_follow_hashing(tmp_path):
    # under these orders the empty factor breaks condition 2 with three
    # (z, t): z = 4 from right(2) = {4} comes after t = 1, 2 and 3 from
    # right(4) = {1, 2, 3, 4} in pi0, so the witness depends on which t
    # is tried first; it is the least
    word = natural_coding(random_exact_iet(random.Random(1), 4), rational(0), 3000)
    path = tmp_path / "k4.txt"
    path.write_text(word + "\n")
    src = os.path.dirname(os.path.dirname(ietword.__file__))
    outs = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "ietword", "fz", str(path),
             "--orders", "1324", "2143", "--max-len", "8"],
            capture_output=True, cwd=src,
            env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 1
        outs.add(proc.stdout)
    assert len(outs) == 1
    assert outs.pop().decode().endswith(
        "result=fail;condition=2;witness=('', '2', '4', '4', '1')\n")


def test_fz_search(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 2000)
    assert main(["fz", word, "--search"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["pi0=12;pi1=21", "pi0=21;pi1=12", "result=found;count=2"]


def test_fz_search_none(tmp_path, capsys):
    path = tmp_path / "tm.txt"
    path.write_text("abbabaabbaababba" * 40)
    assert main(["fz", str(path), "--search"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "result=none;count=0"


def test_fz_search_seven_letters(tmp_path, capsys):
    path = tmp_path / "seven.txt"
    path.write_text(seven_letter_word() + "\n")
    assert main(["fz", str(path), "--search"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pi0=1234567;pi1=6254731", "pi0=7654321;pi1=1374526", "result=found;count=2"]


def test_fz_search_refuses_too_many_orders(tmp_path, capsys):
    path = tmp_path / "nine.txt"
    path.write_text("abcdefghi" * 20 + "\n")
    assert main(["fz", str(path), "--search"]) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert not captured.out and len(err) == 1
    assert err[0].startswith("error:") and "more than 720 orders" in err[0]


def test_reconstruct_refuses_too_many_orders(tmp_path, capsys):
    # a periodic 9-letter word constrains no order: every one of the 9!
    # orders is a candidate, so it is refused before any pair is formed
    path = tmp_path / "nine.txt"
    path.write_text("abcdefghi" * 200 + "\n")
    argv = ["reconstruct", str(path), "--out-config", str(tmp_path / "c.cfg"),
            "--out-report", str(tmp_path / "c.csv")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert not captured.out and len(err) == 1
    assert err[0].startswith("error:") and "more than 720 orders" in err[0]


def test_fz_needs_mode(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 100)
    assert main(["fz", word]) == 3
    capsys.readouterr()
    # the mode is checked before the word's length
    assert main(["fz", word, "--max-len", "99"]) == 3
    assert capsys.readouterr().err.startswith("error: need exactly one of")
    # a word too short for a well-formed call is inconclusive
    assert main(["fz", word, "--search", "--max-len", "99"]) == 2


# ------------------------------------------------------------ reconstruct

def test_reconstruct_golden(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 1000)
    out_cfg = tmp_path / "cand.cfg"
    out_csv = tmp_path / "cand.csv"
    assert main(["reconstruct", word, "--depth", "2",
                 "--out-config", str(out_cfg),
                 "--out-report", str(out_csv)]) == 0
    T, sets = parse_iet_config(out_cfg.read_text())
    assert sets is None
    assert T.k == 2 and T.permutation == (2, 1)
    assert T.flips == (False, False)
    rows = dict(line.split(",", 1)
                for line in out_csv.read_text().splitlines()[1:])
    assert rows["verdict"] == "accepted" and rows["K"] == "1"
    assert int(rows["match_length"]) >= 400
    assert rows["total"] == "500"
    assert parse_scalar(rows["residual"]) < rational(1, 20)
    parse_scalar(rows["x0"])  # well-formed scalar literal


def test_reconstruct_rejects_tribonacci(tmp_path, capsys):
    path = tmp_path / "trib.txt"
    path.write_text(tribonacci_word(2000))
    assert main(["reconstruct", str(path), "--depth", "2",
                 "--out-config", str(tmp_path / "c.cfg"),
                 "--out-report", str(tmp_path / "c.csv")]) == 1
    assert "verdict=rejected" in capsys.readouterr().out
    assert not (tmp_path / "c.cfg").exists()


def test_reconstruct_rejects_word_over_complexity_bound(tmp_path, capsys):
    # p(2) = 6 > 2*2 + 1: no flip-free 3-IET codes it, so the oriented
    # validator rejects it and reconstruct exits 1, writing nothing
    path = tmp_path / "cbbaac.txt"
    path.write_text("cbbaac" * 600)
    assert main(["reconstruct", str(path), "--oriented", "--k-max", "12",
                 "--out-config", str(tmp_path / "c.cfg"),
                 "--out-report", str(tmp_path / "c.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("verdict=rejected;K=none;"
                            "witness=complexity at k=2: p(2) = 6 > 5\n")
    assert not captured.err
    assert not (tmp_path / "c.cfg").exists()


@pytest.mark.xfail(strict=True, reason="validate accepts the word without flips, "
                   "but no letter order keeps every extension set contiguous")
def test_reconstruct_does_not_refuse_an_accepted_word(tmp_path, capsys):
    # a word validate accepts must get a candidate (exit 0) or a verdict
    # (exit 1), never exit 3, which is kept for usage and input errors
    path = tmp_path / "babcac.txt"
    path.write_text("babcac" * 600)
    assert main(["validate", str(path), "--k-max", "12",
                 "-o", str(tmp_path / "v.txt")]) == 0
    assert main(["reconstruct", str(path), "--k-max", "12",
                 "--out-config", str(tmp_path / "c.cfg"),
                 "--out-report", str(tmp_path / "c.csv")]) in (0, 1)


def test_reconstruct_too_short(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 150)
    assert main(["reconstruct", word, "--depth", "6"]) == 2
    assert "inconclusive" in capsys.readouterr().err


def test_reconstruct_indexes_word_once(tmp_path, cfg, monkeypatch):
    word = gen_word(tmp_path, cfg, 1000)
    built = []
    plain_init = FactorSet.__init__

    def counting_init(fs, text, max_len):
        built.append(max_len)
        plain_init(fs, text, max_len)

    monkeypatch.setattr(FactorSet, "__init__", counting_init)
    assert main(["reconstruct", word, "--depth", "2",
                 "--out-config", str(tmp_path / "c.cfg"),
                 "--out-report", str(tmp_path / "c.csv")]) == 0
    assert built == [13]


@pytest.mark.parametrize("cmd", [
    ["fz", "--search", "--max-len", "-1"],
    ["fz", "--max-len", "-2"],
    ["fz", "--orders", "12", "21", "--search"],
    ["fz", "--search", "--orders", "12", "21"],
    ["reconstruct", "--roundtrip", "0"],
    ["reconstruct", "--roundtrip", "-5"],
    ["reconstruct", "--depth", "0"],
    ["reconstruct", "--k-max", "0"],
    ["reconstruct", "--k-min", "0"],
    ["reconstruct", "--k-min", "5", "--k-max", "3"],
], ids=" ".join)
def test_bad_numbers_are_usage_errors(tmp_path, cfg, capsys, cmd):
    word = gen_word(tmp_path, cfg, 1000)
    out_cfg = tmp_path / "c.cfg"
    out_csv = tmp_path / "c.csv"
    extra = (["--out-config", str(out_cfg), "--out-report", str(out_csv)]
             if cmd[0] == "reconstruct" else [])
    assert main([cmd[0], word, *cmd[1:], *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert not out_cfg.exists() and not out_csv.exists()


@pytest.mark.parametrize("cmd", [
    ["gen", "CFG", "-n", "10", "-o", "BAD"],
    ["analyze", "WORD", "--max-len", "5", "-o", "BAD"],
    ["validate", "WORD", "-o", "BAD"],
    ["fz", "WORD", "--search", "--max-len", "4", "-o", "BAD"],
    ["reconstruct", "WORD", "--depth", "2", "--out-config", "BAD",
     "--out-report", "OK"],
    ["reconstruct", "WORD", "--depth", "2", "--out-config", "OK",
     "--out-report", "BAD"],
], ids=" ".join)
def test_unwritable_output_is_usage_error(tmp_path, cfg, capsys, cmd):
    word = gen_word(tmp_path, cfg, 1000)
    bad = str(tmp_path / "missing" / "out.txt")
    subst = {"CFG": cfg, "WORD": word, "BAD": bad, "OK": str(tmp_path / "ok.txt")}
    assert main([subst.get(a, a) for a in cmd]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot write {bad}: ")


@pytest.mark.parametrize("cmd", [
    ["validate", "WORD", "--bogus"],
    ["validate", "WORD", "--k-max"],
    ["validate", "WORD", "--k-max", "many"],
    ["validate", "WORD", "--oriented=yes"],
    ["fz", "WORD", "--orders", "ab"],
    ["fz", "WORD", "--o", "ab"],
    ["fz", "--search"],
    ["fz", "WORD", "WORD", "--search"],
    ["gen", "CFG"],
    ["gen", "CFG", "-n12"],
    ["frobnicate", "WORD"],
    [],
], ids=lambda cmd: " ".join(cmd) or "no command")
def test_parse_errors_are_usage_errors(tmp_path, cfg, capsys, cmd):
    word = gen_word(tmp_path, cfg, 100)
    capsys.readouterr()
    assert main([{"CFG": cfg, "WORD": word}.get(a, a) for a in cmd]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_pipeline_closure(tmp_path, cfg, capsys):
    """gen | validate | reconstruct | gen again: >= 80% of a 500 prefix."""
    word = gen_word(tmp_path, cfg, 10000, "w10k.txt")
    assert main(["validate", word, "--oriented", "-o",
                 str(tmp_path / "verdict.txt")]) == 0
    out_cfg = tmp_path / "cand.cfg"
    out_csv = tmp_path / "cand.csv"
    assert main(["reconstruct", word, "--oriented",
                 "--out-config", str(out_cfg),
                 "--out-report", str(out_csv)]) == 0
    rows = dict(line.split(",", 1)
                for line in out_csv.read_text().splitlines()[1:])
    regen = gen_word(tmp_path, str(out_cfg), 500, "regen.txt",
                     extra=("--x0", rows["x0"]))
    a = Path(word).read_text().strip()[:500]
    b = Path(regen).read_text().strip()
    agree = sum(1 for x, y in zip(a, b) if x == y)
    assert agree >= 400
    assert int(rows["match_length"]) >= 400


SILVER_CFG = """\
k 3
d 2
lengths (-1+1*sqrt(2))/1 (-1+1*sqrt(2))/1 (3-2*sqrt(2))/1
perm 3 2 1
flips 0 0 0
"""


@pytest.mark.parametrize("relabel", ["abc", "132", "123"])
def test_pipeline_closure_keeps_letters(tmp_path, capsys, relabel):
    """gen | reconstruct | gen on a relabeled word regenerates its letters."""
    silver = tmp_path / "silver.cfg"
    silver.write_text(SILVER_CFG)
    natural = Path(gen_word(tmp_path, str(silver), 10000)).read_text().strip()
    word = natural.translate(str.maketrans("123", relabel))
    path = tmp_path / "relabeled.txt"
    path.write_text(word + "\n")
    out_cfg = tmp_path / "cand.cfg"
    out_csv = tmp_path / "cand.csv"
    assert main(["reconstruct", str(path), "--oriented",
                 "--out-config", str(out_cfg),
                 "--out-report", str(out_csv)]) == 0
    rows = dict(line.split(",", 1)
                for line in out_csv.read_text().splitlines()[1:])
    _, sets = parse_iet_config(out_cfg.read_text())
    # a word over 1..k in domain order keeps its sets-free config
    assert (sets is None) == (relabel == "123")
    match = int(rows["match_length"])
    assert match >= 200
    regen = Path(gen_word(tmp_path, str(out_cfg), 500, "regen.txt",
                          extra=("--x0", rows["x0"]))).read_text().strip()
    assert regen[:match] == word[:match]
    assert set(regen) == set(relabel)


# outputs written when the factor index still sliced every top-level
# window; counting it by blocks must not change a byte of them
SILVER_1E5_OUTPUTS = [
    (["validate", "silver.txt"], None,
     "word: silver.txt (100000 symbols over {1,2,3})\n"
     "window: [1, 20]\n"
     "verdict: accepted\n"
     "consistent labeling found from level K=1\n"
     "verdict=accepted;K=1;witness=none\n"),
    (["validate", "silver.txt", "--oriented"], None,
     "word: silver.txt (100000 symbols over {1,2,3})\n"
     "window: [1, 20] oriented\n"
     "verdict: accepted\n"
     "consistent labeling found from level K=1\n"
     "verdict=accepted;K=1;witness=none\n"),
    (["fz", "silver.txt", "--search"], None,
     "pi0=123;pi1=321\npi0=321;pi1=123\nresult=found;count=2\n"),
    (["reconstruct", "silver.txt", "--oriented"], "silver",
     "k 3\nd 0\nlengths 20711/50000 2071/5000 8579/50000\n"
     "perm 3 2 1\nflips 0 0 0\n"),
    (["reconstruct", "cab.txt", "--oriented"], "cab",
     "k 3\nd 0\nlengths 8579/50000 2071/5000 20711/50000\n"
     "perm 3 2 1\nflips 0 0 0\n"
     "sets a=[8579/50000,29289/50000)\n"
     "sets b=[0,8579/50000)\n"
     "sets c=[29289/50000,1)\n"),
]

SILVER_1E5_REPORTS = {
    "silver": "metric,value\nverdict,accepted\nK,1\nresidual,639/17856250\n"
              "match_length,500\ntotal,500\nprefix_depth,500\nx0,47/100000\n",
    "cab": "metric,value\nverdict,accepted\nK,1\nresidual,639/17856250\n"
           "match_length,500\ntotal,500\nprefix_depth,500\nx0,99953/100000\n",
}


def test_long_silver_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "silver.cfg").write_text(SILVER_CFG)
    assert main(["gen", "silver.cfg", "-n", "100000", "-o", "silver.txt"]) == 0
    word = (tmp_path / "silver.txt").read_text()
    (tmp_path / "cab.txt").write_text(word.translate(str.maketrans("123", "cab")))
    for argv, report, expected in SILVER_1E5_OUTPUTS:
        if report is None:
            assert main(argv) == 0
            assert capsys.readouterr().out == expected
            continue
        assert main([*argv, "--out-config", f"{report}.cfg",
                     "--out-report", f"{report}.csv"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / f"{report}.cfg").read_text() == expected
        assert (tmp_path / f"{report}.csv").read_text() == SILVER_1E5_REPORTS[report]


# ---------------------------------------------------------------- plumbing

def test_usage_errors(capsys):
    # each is one `error:` line and exit 3, not argparse's usage block
    for argv, err in [
            ([], "error: no command; one of gen, analyze, rauzy, validate, fz, reconstruct\n"),
            (["frobnicate"], "error: unknown command 'frobnicate'; one of gen, analyze, "
                             "rauzy, validate, fz, reconstruct\n"),
            (["fz", "w", "--max-len", "many"], "error: fz: --max-len: invalid int value 'many'\n")]:
        assert main(argv) == 3
        assert capsys.readouterr() == ("", err)
    assert main(["--help"]) == 0
    assert main(["-h"]) == 0
    assert capsys.readouterr() == (2 * (cli._help() + "\n"), "")


def test_read_word_drops_what_split_drops(tmp_path):
    # each ASCII character inside, before and after a word is dropped
    # exactly when "".join(text.split()) drops it
    path = tmp_path / "word.txt"
    for char in map(chr, range(128)):
        text = f"{char}12{char}21{char}\n"
        path.write_text(text, newline="")
        assert cli._read_word(str(path)) == "".join(text.split()), repr(char)


def _argparse_parser():
    """An argparse parser of every row of `cli._COMMANDS`, built as the
    command line once built its own: the reference `cli._parse` is held to."""
    parser = argparse.ArgumentParser(prog="ietword")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, arguments in cli._COMMANDS:
        p = sub.add_parser(name, help=text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(func=func)
    return parser


def _both(argv, capsys):
    """What argparse and then cli._parse make of argv: each the dict of
    values or the exit code."""
    try:
        ref = vars(_argparse_parser().parse_args(argv))
    except SystemExit as e:
        ref = e.code
    try:
        args = cli._parse(argv)
        got = 0 if args is None else vars(args)
    except cli._UsageError:
        got = cli.USAGE_ERROR
    capsys.readouterr()
    return ref, got


def _unique_prefix(flag, flags):
    """The shortest prefix of a long flag that no other of flags starts with."""
    return next(flag[:n] for n in range(3, len(flag) + 1)
                if not any(f.startswith(flag[:n]) for f in flags if f != flag))


def _parse_corpus(row):
    """Valid and invalid argv of one command: every flag spelled as a
    separate value, after `=` and as its shortest unique prefix, then
    the positional before, between and after the flags, repeats and
    negative ints; unknown flags, missing and short values, bad ints, a
    missing or second positional."""
    name, _, _, arguments = row
    longs = [f for flags, _ in arguments for f in flags if f.startswith("--")] + ["--help"]
    need = ["-n", "5"] if name == "gen" else []
    valid, invalid = [[name, "w", *need], [name, *need, "w"]], [
        [name, "w", *need, "--bogus"], [name, "w", "x", *need], [name, *need],
        [name, "w", *need, "-x"]]
    for flags, options in arguments:
        if not flags[0].startswith("-"):
            continue
        values = ([] if "action" in options else ["ab", "ba"] if "nargs" in options
                  else ["-7"] if options.get("type") is int else ["v"])
        for flag in (*flags, _unique_prefix(flags[-1], longs)):
            valid += [[name, "w", *need, flag, *values], [name, flag, *values, "w", *need],
                      [name, *need, flag, *values, "w", flag, *values]]
            if len(values) == 1:
                valid.append([name, f"{flag}={values[0]}", *need, "w"])
            invalid.append([name, "w", *need, flag, *values[1:]] if values else
                           [name, "w", *need, f"{flag}=1"])
            if options.get("type") is int:
                invalid += [[name, "w", *need, flag, "many"], [name, "w", *need, flag, "1.5"]]
        if values and "required" not in options:
            valid.append([name, "w", *need, flags[-1], *values, flags[-1], *values[::-1]])
    return valid, invalid


@pytest.mark.parametrize("row", cli._COMMANDS, ids=lambda row: row[0])
def test_parse_matches_argparse(capsys, row):
    valid, invalid = _parse_corpus(row)
    for argv in valid:
        ref, got = _both(argv, capsys)
        assert isinstance(ref, dict) and got == ref, argv
    for argv in invalid:
        assert _both(argv, capsys) == (2, 3), argv
    assert len(valid) > 15 and len(invalid) > 5


@pytest.mark.parametrize("argv", [
    ["gen", "c.cfg", "--x0", "1/2", "--len", "-3", "--output", "a", "-o", "b"],
    ["gen", "-n=4", "c.cfg"],
    ["fz", "--orders", "1,2", "2,1", "w", "--max=0"],
    ["fz", "--sea", "--max-len", "+4", "w"],
    ["validate", "--k-max", "-1", "--ori", "w", "--k-min=-2"],
    ["reconstruct", "w", "--out-c", "x.cfg", "--out-r=y.csv", "--dep", "3", "--ro", "-5"],
    ["rauzy", "w", "--out-dir", "d", "--k-m=2"],
    ["fz", "w", "--o", "x"], ["validate", "w", "--k", "3"], ["reconstruct", "w", "--out", "x"],
    ["gen", "c.cfg"], ["gen", "-n", "3"], ["fz", "w", "--orders", "ab"],
    ["fz", "w", "--search=1"], ["frobnicate"], [], ["-x"], ["--bogus", "fz"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_parse_matches_argparse_by_hand(capsys, argv):
    ref, got = _both(argv, capsys)
    assert got == (ref if isinstance(ref, dict) else 3)


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("row", cli._COMMANDS, ids=lambda row: row[0])
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, columns, row):
    # the parse that reads only its command's row agrees with argparse's
    # parser of every row, and its help does not follow the terminal width
    monkeypatch.setenv("COLUMNS", columns)
    name, arguments = row[0], row[3]
    ints = [flags[-1] for flags, options in arguments if options.get("type") is int]
    valued = [flags[-1] for flags, options in arguments
              if flags[0].startswith("-") and "action" not in options]
    valid = [name, "w", ints[0], "5"]
    cases = [[name], [*valid, "--bogus"], [name, "w", ints[0], "many"],
             [name, "w", valued[0]], valid]
    got = [_both(argv, capsys) for argv in cases]
    assert got[:-1] == [(2, 3)] * 4
    assert got[-1][1] == got[-1][0] and got[-1][1]["func"] is row[2]
    assert main([name, "--help"]) == 0
    shown = capsys.readouterr()
    monkeypatch.delenv("COLUMNS")
    assert main([name, "-h"]) == 0
    assert capsys.readouterr() == shown == (cli._help(row) + "\n", "")


class _Untouchable(tuple):
    """A row's arguments that fail the parse if it reads them."""
    def __iter__(self):
        raise AssertionError("a launch read another command's row")


def test_a_launch_builds_only_its_command(tmp_path, cfg, monkeypatch, capsys):
    # no launch builds a parser, and one reads only its own command's row
    word = gen_word(tmp_path, cfg, 200)

    def refuse(*args, **kwargs):
        raise AssertionError("an argparse parser was built")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    monkeypatch.setattr(cli, "_COMMANDS", tuple(
        row if row[0] == "fz" else (*row[:3], _Untouchable(row[3])) for row in cli._COMMANDS))
    assert main(["fz", word, "--search", "--max-len", "4"]) == 0
    assert main(["fz", "--help"]) == 0
    assert main(["frobnicate"]) == 3


def test_no_parser_outlives_main(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 200)
    assert main(["fz", word, "--search", "--max-len", "4"]) == 0
    assert main(["--help"]) == 0
    # everything cli's own globals reach, modules and classes aside, holds
    # no parse of an earlier call: each call parses afresh
    todo = [v for k, v in vars(cli).items() if not k.startswith("__")]
    seen = set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (argparse.ArgumentParser, types.SimpleNamespace))
        todo += gc.get_referents(obj)
    assert len(seen) > 100


def test_module_entry_point(tmp_path):
    path = tmp_path / "golden.cfg"
    path.write_text(GOLDEN_CFG)
    # run from the directory holding the package under test, so the
    # child imports it whether or not it is installed
    src = os.path.dirname(os.path.dirname(ietword.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ietword", "gen", str(path), "-n", "12"],
        capture_output=True, text=True, cwd=src)
    assert proc.returncode == 0
    assert proc.stdout == "121221212212\n"


# ------------------------------------------------------ fresh launches
# -S keeps the host's site-packages and .pth files out of the child, so
# it sees exactly what the package imports

def _fresh(args, cwd):
    src = os.path.dirname(os.path.dirname(ietword.__file__))
    return subprocess.run([sys.executable, "-S", *args], capture_output=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": src})


def test_cli_import_loads_no_layer(tmp_path):
    proc = _fresh(["-c", "import sys, ietword.cli; print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] in ('ietword', 'dataclasses', 'inspect')))"],
                  tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == "['ietword', 'ietword.cli']\n"


def _loaded(argv, cwd):
    """The modules a fresh `python -S -m ietword` launch of argv imports."""
    proc = _fresh(["-X", "importtime", "-m", "ietword", *argv], cwd)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.decode().splitlines()
            if line.startswith("import time:")}


def test_help_loads_no_scalar_layer(tmp_path):
    loaded = _loaded(["--help"], tmp_path)
    assert {"ietword", "ietword.cli"} <= loaded
    assert not loaded & {"ietword.exact", "fractions", "decimal", "argparse", "gettext"}


# one small run of each subcommand; a fresh interpreter has only the
# imports the handler makes, so one it lacks fails here, not in-process
FRESH_RUNS = {
    "gen": ["gen", "golden.cfg", "-n", "60", "--x0", "1/3"],
    "analyze": ["analyze", "word.txt", "--max-len", "6"],
    "rauzy": ["rauzy", "word.txt", "--k-max", "3"],
    "validate": ["validate", "word.txt", "--k-max", "6"],
    "fz": ["fz", "word.txt", "--search", "--max-len", "4"],
    "reconstruct": ["reconstruct", "word.txt", "--k-max", "6", "--depth", "3",
                    "--roundtrip", "200"],
}


@pytest.mark.parametrize("cmd", ["validate", "fz", "rauzy"])
def test_word_commands_load_no_scalar_layer(tmp_path, cmd):
    # their reports are plain records; the scalars are not theirs to load
    (tmp_path / "word.txt").write_text(golden_mechanical_word(400) + "\n")
    loaded = _loaded(FRESH_RUNS[cmd], tmp_path)
    assert {"ietword.words", "ietword.record"} <= loaded
    assert not loaded & {"ietword.exact", "fractions", "decimal"}


@pytest.mark.parametrize("cmd", sorted(FRESH_RUNS))
def test_fresh_launch_loads_no_argparse(tmp_path, cmd):
    (tmp_path / "golden.cfg").write_text(GOLDEN_CFG)
    (tmp_path / "word.txt").write_text(golden_mechanical_word(400) + "\n")
    loaded = _loaded(FRESH_RUNS[cmd], tmp_path)
    assert "ietword.cli" in loaded
    assert not loaded & {"argparse", "gettext"}


@pytest.mark.parametrize("cmd", sorted(FRESH_RUNS))
def test_subcommand_in_a_fresh_interpreter_matches_main(tmp_path, capsys, monkeypatch, cmd):
    runs = {}
    for side in ("main", "fresh"):
        work = tmp_path / side
        work.mkdir()
        (work / "golden.cfg").write_text(GOLDEN_CFG)
        (work / "word.txt").write_text(natural_coding(
            parse_iet_config(GOLDEN_CFG)[0], rational(0), 400) + "\n")
        if side == "main":
            monkeypatch.chdir(work)
            rc = main(FRESH_RUNS[cmd])
            out, err = capsys.readouterr()
            out, err = out.encode(), err.encode()
        else:
            proc = _fresh(["-m", "ietword", *FRESH_RUNS[cmd]], work)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        runs[side] = rc, out, err, files
    assert runs["fresh"] == runs["main"]
    assert runs["main"][0] == 0      # each run does its work, not a usage error
