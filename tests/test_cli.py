"""End-to-end checks of the command line, run in-process via main(argv)."""
import os
import subprocess
import sys

import pytest

import ietword
from ietword.cli import main
from ietword.config import parse_iet_config
from ietword.exact import make_quadratic, parse_scalar, rational
from ietword.iet import mechanical_word
from ietword.words import FactorSet

from wordgen import tribonacci_word

GOLDEN_CFG = """\
k 2
d 5
lengths (3-1*sqrt(5))/2 (-1+1*sqrt(5))/2
perm 2 1
flips 0 0
"""

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
    alpha = make_quadratic(-1, 2, 1, 2, 5)
    assert word == mechanical_word(alpha, rational(0), alpha, 40)


def test_gen_x0(cfg, capsys):
    assert main(["gen", cfg, "-n", "10", "--x0", "1/2"]) == 0
    moved = capsys.readouterr().out.strip()
    assert main(["gen", cfg, "-n", "10"]) == 0
    assert moved != capsys.readouterr().out.strip()
    assert main(["gen", cfg, "-n", "10", "--x0", "bad"]) == 3
    assert "bad --x0" in capsys.readouterr().err


def test_gen_output_file(tmp_path, cfg):
    word = gen_word(tmp_path, cfg, 100)
    text = open(word).read()
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


def test_fz_needs_mode(tmp_path, cfg, capsys):
    word = gen_word(tmp_path, cfg, 100)
    assert main(["fz", word]) == 3
    capsys.readouterr()
    assert main(["fz", word, "--max-len", "99"]) == 2


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
    a = open(word).read().strip()[:500]
    b = open(regen).read().strip()
    agree = sum(1 for x, y in zip(a, b) if x == y)
    assert agree >= 400
    assert int(rows["match_length"]) >= 400


# ---------------------------------------------------------------- plumbing

def test_usage_errors(capsys):
    assert main([]) == 3
    capsys.readouterr()
    assert main(["frobnicate"]) == 3
    capsys.readouterr()
    with_help = main(["--help"])
    capsys.readouterr()
    assert with_help == 0


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
