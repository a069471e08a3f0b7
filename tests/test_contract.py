"""The command-line contract on bad, short and ordinary word files, and
on changed configs and drawn starting points through `gen`: every
command ends with an exit code 0-3 and lets no exception escape, exit 3
prints exactly one `error:` line on stderr and nothing on stdout, exit 2
says `inconclusive`, an output file is written only on exit 0 or 1, and
`reconstruct` does not refuse a word that `validate` accepts."""
import pytest

from ietword import cli

from corpus import contract_configs, contract_word_files

INPUTS = dict(contract_word_files())
REFUSED = ("empty", "blank", "non-ascii")


COMMANDS = ("analyze", "rauzy", "validate", "validate --oriented", "fz --search",
            "fz --orders", "reconstruct")


def _argv(command: str, word: str, out) -> list:
    """argv of the command run on the word file, writing its outputs into
    the directory out."""
    name, *flags = command.split()
    if name == "rauzy":
        flags += ["--out-dir", str(out)]
    elif name == "reconstruct":
        flags += ["--out-config", str(out / "c.cfg"), "--out-report", str(out / "r.csv")]
    else:
        flags += ["abc", "cba"] if flags == ["--orders"] else []
        flags += ["-o", str(out / "out.txt")]
    return [name, word, *flags]


@pytest.mark.parametrize("kind", list(INPUTS))
@pytest.mark.parametrize("command", COMMANDS)
def test_command_keeps_the_exit_contract(command, kind, tmp_path, capsys):
    codes = set()
    for i, content in enumerate(INPUTS[kind]):
        word = tmp_path / f"word{i}.txt"
        word.write_bytes(content)
        written = tmp_path / f"out{i}"
        written.mkdir()
        code = cli.main(_argv(command, str(word), written))
        out, err = capsys.readouterr()
        where = (command, content[:40], code, out[-200:], err[-200:])
        assert code in (0, 1, 2, 3), where
        if code == 3:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, where
        if code == 2:
            assert "inconclusive" in out + err, where
        if code not in (0, 1):
            assert not any(written.iterdir()), where
        codes.add(code)
    # the bad files are refused, and only they end every command with 3
    assert (codes == {3}) == (kind in REFUSED), (command, kind, codes)


@pytest.mark.parametrize("mode", ["", "--oriented"])
def test_reconstruct_does_not_refuse_what_validate_accepts(mode, tmp_path, capsys):
    # with the same window and mode, an accepted word gets a candidate
    # (exit 0), or exit 2 when it is too short or its order search is refused
    flags = [mode] if mode else []
    accepted = 0
    for kind, contents in INPUTS.items():
        for i, content in enumerate(contents):
            word = tmp_path / f"{kind}{i}.txt"
            word.write_bytes(content)
            if cli.main(["validate", str(word), "--k-max", "12", *flags]) != 0:
                continue
            accepted += 1
            code = cli.main(["reconstruct", str(word), *flags,
                             "--out-config", str(tmp_path / "c.cfg"),
                             "--out-report", str(tmp_path / "r.csv")])
            assert code != 3, (mode, content[:40], capsys.readouterr().err)
    capsys.readouterr()
    # five periodic words and the one-letter word are accepted today
    assert accepted >= 5


def test_gen_keeps_the_exit_contract(tmp_path, capsys):
    config, out = tmp_path / "c.cfg", tmp_path / "word.txt"
    codes = []
    for text, x0 in contract_configs(200):
        config.write_text(text)
        code = cli.main(["gen", str(config), "-n", "40", "--x0", x0, "-o", str(out)])
        stdout, err = capsys.readouterr()
        where = (text, x0, code, err)
        if code == 3:
            assert stdout == "" and err.startswith("error:") and err.count("\n") == 1, where
            assert not out.exists(), where
        else:
            assert code == 0 and stdout == err == "", where
            assert len(out.read_text()) == 41, where
            out.unlink()
        codes.append(code)
    # a changed config or point is refused often, but not always
    assert len(codes) / 5 <= codes.count(0) <= len(codes) / 2
