"""Guards on the package source itself, read with ast."""

import ast
from pathlib import Path

import regtriang

SRC = Path(regtriang.__file__).parent


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def test_no_assert_in_the_package():
    # every check must also hold under python -O, where asserts vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_polytopes_leaves_checkpoints_to_the_enumeration():
    # a resumed run is replayed by enumerate_regular alone
    imported = set()
    for node in ast.walk(_tree("polytopes.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m and "checkpoint" in m}
