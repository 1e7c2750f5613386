"""Every top-level function and class of the library, and every member of
such a class, has a caller outside the tests: a definition that only tests
use is a second code path to keep in step with the one the program runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the program: the library, its scripts and its benchmark
CALLER_DIRS = ("src", "scripts", "perfbench")


def program(root: Path):
    """``(path, tree)`` of each ``.py`` file of the program."""
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def unused_definitions(root: Path) -> list[str]:
    """``module:name`` of each top-level function or class of the library
    that no ``.py`` file of the program names as a name, an attribute or an
    import."""
    used, defined = set(), []
    for path, tree in program(root):
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


def unused_members(root: Path) -> list[str]:
    """``module:Class.member`` of each method, property and dataclass field
    of a top-level library class that no ``.py`` file of the program names
    as an attribute, a keyword argument or a loaded name. Dunder methods,
    which Python calls itself, are left out."""
    used, defined = set(), []
    for path, tree in program(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword):
                used.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
        if path.parent != root / "src" / "tiltview":
            continue
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    defined.append((f"{path.stem}:{cls.name}.{name}", name))
    return [entry for entry, name in defined if name not in used]


def test_every_library_definition_has_a_caller_outside_the_tests():
    assert unused_definitions(ROOT) == []


def test_every_library_class_member_has_a_caller_outside_the_tests():
    assert unused_members(ROOT) == []
