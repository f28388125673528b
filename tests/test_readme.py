"""The README's library example runs against the package as it is."""
import math
import re
from pathlib import Path

import pytest

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
    assert len(lines) == 9  # one row per lambda of a 3-point grid
