"""Static checks on the library source.

Library invariants are raised errors, so they hold under ``python -O``, no
module reaches into another module's private names, and no result is
cached across calls: derived structure lives on instances, as
``cached_property``, and is freed with them.
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


DICT_BUILDERS = ("dict", "defaultdict", "OrderedDict", "Counter")
DICT_WRITERS = ("setdefault", "update", "pop", "popitem", "clear", "__setitem__")


def result_caches(tree):
    """Lines that cache results across calls: a ``functools.cache`` or
    ``lru_cache``, a ``global`` statement, or a write to a dict bound at
    module level."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Global)
             or (isinstance(node, ast.ImportFrom) and node.module == "functools"
                 and any(a.name in ("cache", "lru_cache") for a in node.names))
             or (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                 and isinstance(node.value, ast.Name) and node.value.id == "functools")]
    tables = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if (isinstance(value, (ast.Dict, ast.DictComp))
                    or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                        and value.func.id in DICT_BUILDERS)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                tables.update(t.id for t in targets if isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name) and node.value.id in tables):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_WRITERS and isinstance(node.func.value, ast.Name)
              and node.func.value.id in tables):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_result_cache_in_the_library():
    for path in sorted(Path(torell.__file__).parent.glob("*.py")):
        lines = result_caches(ast.parse(path.read_text(), filename=str(path)))
        assert not lines, f"{path.name} caches results on lines {lines}"


def test_result_cache_guard_sees_each_kind():
    planted = {
        "from functools import lru_cache\n": [1],
        "import functools\n@functools.cache\ndef f(x):\n    return x\n": [2],
        "_memo = {}\ndef f(x):\n    _memo[x] = x\n": [3],
        "_memo: dict = dict()\ndef f(x):\n    return _memo.setdefault(x, x)\n": [3],
        "_last = None\ndef f(x):\n    global _last\n    _last = x\n": [3],
        "TABLE = {'a': 1}\ndef f(x):\n    return TABLE[x]\n": [],
    }
    for source, lines in planted.items():
        assert result_caches(ast.parse(source)) == lines, source
