"""Library invariants are raised errors, so they hold under ``python -O``."""

import ast
from pathlib import Path

import torell


def test_no_assert_statements_in_the_library():
    sources = sorted(Path(torell.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"
