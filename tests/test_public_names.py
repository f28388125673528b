"""The package's names: __all__ binds exactly the public ones, and each name has a reader."""
import ast
import re
import types
from pathlib import Path

import groverlab

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(groverlab.__file__).parent


def test_all_lists_exactly_the_public_names():
    missing = [name for name in groverlab.__all__ if not hasattr(groverlab, name)]
    assert missing == []
    assert groverlab.__all__ == sorted(groverlab.__all__)
    bound = {name for name, value in vars(groverlab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(groverlab.__all__) == bound


def used_names(node, inside=frozenset()):
    """Names the tree reads, by name or as an attribute, outside a definition of the same name.

    An import is no use, and neither is a definition's own body: a
    recursive call does not make a caller.
    """
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= used_names(child, inside)
    return found - inside


def test_every_public_name_has_a_caller():
    # A public name that neither the package nor the README's library
    # example uses is a helper whose only caller is its own test.
    used = set().union(*(used_names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in PACKAGE.glob("*.py")))
    example, = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          re.DOTALL | re.MULTILINE)
    used |= used_names(ast.parse(example))
    assert [name for name in groverlab.__all__ if name not in used] == []
    # The scan skips imports, stores and a definition's own body.
    source = ("from m import a\nb = 1\ndef c():\n    return c()\nclass d:\n    e = d\n"
              "f(g.h)\n")
    assert used_names(ast.parse(source)) == {"f", "g", "h"}


def private_definitions(tree):
    """Private names (not dunders) that the module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_helper_is_read_in_the_package():
    # A private function, class or constant that nothing else in src/ reads
    # is dead, or a helper whose only caller is its own test.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    defined = set().union(*map(private_definitions, trees))
    assert defined
    assert sorted(defined - set().union(*map(used_names, trees))) == []
    source = "_a = 1\n_b = _a\ndef _c():\n    return _c()\nclass _D:\n    pass\n__all__ = [_D]\n"
    tree = ast.parse(source)
    assert private_definitions(tree) == {"_a", "_b", "_c", "_D"}
    assert private_definitions(tree) - used_names(tree) == {"_b", "_c"}
