"""Source-level rules that hold for every module of the package."""

import ast
import pathlib

import sixgan

SRC = pathlib.Path(sixgan.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; the package raises explicitly instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), f"no modules found under {SRC}"
    assert found == [], f"assert statements in the package: {found}"
