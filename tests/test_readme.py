"""The README's library tour, run as written: every line it prints must
equal the `# ...` comment on the print call that wrote it; and its
command block, which must be what `ietword --help` prints."""
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import ietword

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = [line.split("#", 1)[1].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_command_block_is_the_help():
    # `ietword --help`, made from the command table, whatever the terminal
    src = Path(ietword.__file__).resolve().parents[1]
    outs = []
    for columns in ("40", "200"):
        proc = subprocess.run([sys.executable, "-S", "-m", "ietword", "--help"],
                              capture_output=True, cwd=src,
                              env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": columns})
        assert proc.returncode == 0 and proc.stderr == b""
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    blocks = re.findall(r"```\n(usage: ietword .*?)```", README.read_text(), re.S)
    assert blocks == [outs[0].decode()]
