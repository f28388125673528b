"""The README's library example and command lines run against the package as it is."""
import math
import re
import shlex
from pathlib import Path

import pytest

from groverlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == pytest.approx(25 / 27, abs=1e-12)
    stacked = [float(x) for x in lines[1].strip("[]").split()]
    assert stacked == pytest.approx([1 / 3, 25 / 27, 25 / 27], abs=1e-8)
    assert lines[2] == f"LiPCParams(beta={-math.pi / 2!r})"
    assert [line.split()[-1] for line in lines[3:6]] == ["True"] * 3
    assert float(lines[9]) == pytest.approx(1.0, abs=1e-12)  # one step at lambda = 1/4
    assert len(lines) == 10  # one row per lambda of a 3-point grid, then the mask example


def command_lines():
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("groverlab ")]


def test_the_readme_has_six_command_lines():
    assert len(command_lines()) == 6


@pytest.mark.parametrize("line", command_lines())
def test_each_command_line_exits_as_documented(line, tmp_path, monkeypatch, capsys):
    # --perturb steps off the condition, which the README documents as exit 2.
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == (2 if "--perturb" in argv else 0)
    assert capsys.readouterr().err == ""
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
