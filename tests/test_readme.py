"""The examples in README.md print what the README says they print."""

import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hklat import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# `$ echo '<json>' | hklat <sub> -`, the JSON possibly over several
# lines, then the output up to a blank line or the end of the block
_SHELL_EXAMPLE = re.compile(r"^\$ echo '(.*?)' \| hklat (\S+) -\n(.*?\n)(?=\n|```)", re.S | re.M)
SHELL_EXAMPLES = _SHELL_EXAMPLE.findall(README)


def test_readme_shows_each_shell_example():
    assert [name for _, name, _ in SHELL_EXAMPLES] == ["disc", "bound", "zariski"]


@pytest.mark.parametrize("payload, name, expected", SHELL_EXAMPLES,
                         ids=[name for _, name, _ in SHELL_EXAMPLES])
def test_readme_shell_example(monkeypatch, capsys, payload, name, expected):
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload + "\n"))
    assert cli.main([name, "-"]) == 0
    assert capsys.readouterr() == (expected, "")


def test_readme_library_example():
    (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", code, re.M)
    assert len(expected) == code.count("print(") == 4
    assert out.getvalue().splitlines() == expected
