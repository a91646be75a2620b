"""The README examples run as written.

Every ``qborel ...`` line of a ``sh`` block must exit 0; where a
``#   -> output`` comment follows it, the command must print that output
(a trailing parenthetical remark is not part of it).  The ``python``
block runs as is.
"""

import re
import shlex
from pathlib import Path

import pytest

from qborel.cli import run_command

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _cli_examples() -> list:
    examples = []
    for block in _blocks("sh"):
        for line in block.splitlines():
            if line.startswith("qborel "):
                examples.append([line, None])
            elif line.startswith("#   -> ") and examples:
                examples[-1][1] = re.split(r"\s{2,}\(", line[len("#   -> "):])[0]
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_has_examples():
    assert len(CLI_EXAMPLES) >= 5
    assert any(want is not None for _line, want in CLI_EXAMPLES)
    assert len(_blocks("python")) == 1


@pytest.mark.parametrize("line,want", CLI_EXAMPLES, ids=[l for l, _ in CLI_EXAMPLES])
def test_readme_cli_example(line, want, capsys):
    assert run_command(shlex.split(line)[1:]) == 0
    out = capsys.readouterr().out
    if want is not None:
        assert out.strip() == want


def test_readme_library_example(capsys):
    exec(compile(_blocks("python")[0], "README.md", "exec"), {})
    assert "t_3_4^-1" in capsys.readouterr().out
