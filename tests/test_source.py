"""The package's source: no module-level function or class that only the tests reach."""

import ast
from pathlib import Path

import periodlab

SRC = Path(periodlab.__file__).parent


def test_every_definition_is_exported_or_used_in_src():
    # a module-level function or class must be exported by __init__.py or
    # named somewhere in src/ outside its own body: calls, attributes,
    # imports and decorators count, docstrings do not
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            own = set(map(id, ast.walk(node)))
            named = any(
                node.name in (getattr(other, "id", None), getattr(other, "attr", None))
                or isinstance(other, ast.ImportFrom) and node.name in (alias.name for alias in other.names)
                for t in trees.values() for other in ast.walk(t) if id(other) not in own
            )
            if not named:
                unused.append(f"{module[:-3]}.{node.name}")
    assert not unused, f"reached only by tests or not at all: {unused}"
