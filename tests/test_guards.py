"""Static checks on the library source.

Library invariants are raised errors, so they hold under ``python -O``, and
no module reaches into another module's private names.
"""

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


def test_no_module_imports_a_private_name():
    for path in sorted(Path(torell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        private = [(node.lineno, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names
                   if alias.name.startswith("_") and not alias.name.endswith("__")]
        assert not private, f"{path.name} imports private names {private}"
