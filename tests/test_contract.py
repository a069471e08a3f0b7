"""The command-line contract on bad, short and ordinary word files: every
command ends with an exit code 0-3 and lets no exception escape, exit 3
prints exactly one `error:` line on stderr and nothing on stdout, and
exit 2 says `inconclusive`."""
import pytest

from ietword import cli

from corpus import contract_word_files

INPUTS = dict(contract_word_files())
REFUSED = ("empty", "blank", "non-ascii")


COMMANDS = ("analyze", "rauzy", "validate", "validate --oriented", "fz --search",
            "fz --orders", "reconstruct")


def _argv(command: str, word: str, tmp) -> list:
    """argv of the command run on the word file, writing under tmp."""
    name, *flags = command.split()
    if name == "rauzy":
        flags += ["--out-dir", str(tmp)]
    elif name == "reconstruct":
        flags += ["--out-config", str(tmp / "c.cfg"), "--out-report", str(tmp / "r.csv")]
    elif flags == ["--orders"]:
        flags += ["abc", "cba"]
    return [name, word, *flags]


@pytest.mark.parametrize("kind", list(INPUTS))
@pytest.mark.parametrize("command", COMMANDS)
def test_command_keeps_the_exit_contract(command, kind, tmp_path, capsys):
    codes = set()
    for i, content in enumerate(INPUTS[kind]):
        word = tmp_path / f"word{i}.txt"
        word.write_bytes(content)
        code = cli.main(_argv(command, str(word), tmp_path))
        out, err = capsys.readouterr()
        where = (command, content[:40], code, out[-200:], err[-200:])
        assert code in (0, 1, 2, 3), where
        if code == 3:
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, where
        if code == 2:
            assert "inconclusive" in out + err, where
        codes.add(code)
    # the bad files are refused, and only they end every command with 3
    assert (codes == {3}) == (kind in REFUSED), (command, kind, codes)
