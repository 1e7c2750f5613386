"""Every top-level function and class of the library has a caller outside
the tests: a definition that only tests use is a second code path to keep
in step with the one the program runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the program: the library, its scripts and its benchmark
CALLER_DIRS = ("src", "scripts", "perfbench")


def unused_definitions(root: Path) -> list[str]:
    """``module:name`` of each top-level function or class of the library
    that no ``.py`` file of the program, ``__init__.py`` aside, names as a
    name, an attribute or an import."""
    used, defined = set(), []
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    used.update(alias.name.rpartition(".")[2] for alias in node.names)
            if path.parent == root / "src" / "tiltview":
                defined += [f"{path.stem}:{node.name}" for node in tree.body if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    return [entry for entry in defined if entry.partition(":")[2] not in used]


def test_every_library_definition_has_a_caller_outside_the_tests():
    assert unused_definitions(ROOT) == []
