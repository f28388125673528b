"""Each input rule has one home in the package, and every entry point applies it."""
import ast
import re
from pathlib import Path

import numpy as np
import pytest

import groverlab
from groverlab.analysis import SweepGrid, closed_form_probability
from groverlab.cli import main
from groverlab.model import AlgorithmKind, OriginalParams, make_search_space
from groverlab.operators import iteration_matrix
from groverlab.statevector import run_full
from groverlab.subspace import initial_state, run

S = initial_state(0.25)
M = iteration_matrix(OriginalParams(), S)

LIBRARY = {
    "run": lambda k: run(M, k, S),
    "run, k in an integer array": lambda k: run(np.stack([M, M]), np.array([0, k], type(k)), S),
    "run_full": lambda k: run_full(make_search_space(2, {0}), OriginalParams(), k),
    "closed_form_probability": lambda k: closed_form_probability(0.5, k),
    "SweepGrid": lambda k: SweepGrid(kind=AlgorithmKind.LONG, k=k),
}
CLI = {
    "sweep --k": ["sweep", "--kind", "long", "--lambda=0.1:1:3", "--phase=0:1:3"],
    "check-equivalence --k": ["check-equivalence", "--phi", "1", "--lambda", "0.25"],
}


@pytest.mark.parametrize("k", [-1, 2.5, 2 ** 53 + 1, True, False])
@pytest.mark.parametrize("entry", [*LIBRARY, *CLI])
def test_every_entry_point_rejects_a_bad_iteration_count(entry, k, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if entry in CLI:
        argv = [*CLI[entry], "--k", str(k)] + ["--out", str(out)] * entry.startswith("sweep")
        if isinstance(k, (float, bool)):  # argparse's int() rejects it while parsing
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 1
            assert f"argument --k: invalid int value: '{k}'" in capsys.readouterr().err
        else:
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"groverlab: error: --k must lie in [0, 2**53 = 9007199254740992], got {k}\n")
        assert not out.exists()
    elif isinstance(k, bool):  # not read as 1 or 0
        message = ("k must be an integer array, got dtype bool" if entry.endswith("array")
                   else f"k must be an integer, got {k}")
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            LIBRARY[entry](k)
    elif isinstance(k, float):
        with pytest.raises(TypeError):
            LIBRARY[entry](k)
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"k must lie in [0, 2**53 = 9007199254740992], got {k}")):
            LIBRARY[entry](k)


def test_each_input_rule_has_one_home():
    # The iteration-count bound is read only by check_iterations, next to
    # which it is defined, and the CLI grows no rule of its own: it names
    # its flag and calls the package's check.  Nor does the CLI import a
    # private name, such as subspace's kernel: it runs the engines through
    # their public entry points.
    readers = set()
    for path in sorted(Path(groverlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names.update(alias.asname or alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for alias in node.names)
        if "MAX_ITERATIONS" in names:
            readers.add(path.name)
        if path.name == "cli.py":
            helpers = [node.name for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name.startswith("_check")]
            assert helpers == []
            private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       and (node.level or (node.module or "").startswith("groverlab"))
                       for alias in node.names if alias.name.startswith("_")]
            assert private == []
    assert readers == {"model.py"}


def test_each_engine_has_one_per_kind_row_and_the_bundles_one_check():
    # Each engine turns a bundle into its (target, rest, c, d) row in one
    # function, so only that function names licm, the kind whose four
    # coefficients all depend on its phases.  The phase bundles share one
    # finiteness check.
    package = Path(groverlab.__file__).parent

    def functions(module):
        tree = ast.parse((package / module).read_text(encoding="utf-8"))
        return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def names_licm(function):
        return any(isinstance(node, ast.Attribute) and node.attr == "LI_CM"
                   and isinstance(node.value, ast.Name) and node.value.id == "AlgorithmKind"
                   for node in ast.walk(function))

    for module in ("operators.py", "statevector.py"):
        assert sum(map(names_licm, functions(module))) == 1, module
    assert [f.name for f in functions("model.py")].count("__post_init__") == 1
