"""Every module-level name in the package is used somewhere in the repository.

A name counts as used when some file under ``src/``, ``tests/`` or
``perfbench/`` loads it, reads it as an attribute, imports it (imports
inside ``ridgerec/__init__.py`` do not count, since re-exporting is not a
use), or spells it as a whole string constant, as the benchmark tracer
does when it names the functions it wraps.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ridgerec"


def _defined(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _referenced(tree: ast.Module, is_package_init: bool) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not is_package_init:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_module_level_name_is_dead():
    references = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            references |= _referenced(tree, path == PACKAGE / "__init__.py")
    dead = {f"{path.stem}.{name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for name in _defined(ast.parse(path.read_text(encoding="utf-8")))
            if name not in references}
    assert sorted(dead) == []
