"""Every module-level name in the package is used somewhere in the repository.

A name counts as used when some file under ``src/``, ``tests/`` or
``perfbench/`` loads it, reads it as an attribute, imports it (imports
inside ``ridgerec/__init__.py`` do not count, since re-exporting is not a
use), or spells it as a whole string constant, as the benchmark tracer
does when it names the functions it wraps.

Dataclass fields and properties of package classes must be read: some
file reads them as an attribute, or names them in a string constant as
``getattr`` does.  Passing a field to the constructor is not a read.
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


def _members(tree: ast.Module) -> set:
    """``Class.name`` of each dataclass field and property defined in a module."""
    members = set()
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        is_dataclass = any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
        for node in cls.body:
            if is_dataclass and isinstance(node, ast.AnnAssign):
                members.add(f"{cls.name}.{node.target.id}")
            elif isinstance(node, ast.FunctionDef) and any(
                    ast.unparse(d).endswith("property")
                    for d in node.decorator_list):
                members.add(f"{cls.name}.{node.name}")
    return members


def _read(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_no_field_or_property_is_unread():
    reads = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            reads |= _read(ast.parse(path.read_text(encoding="utf-8")))
    unread = {f"{path.stem}.{member}"
              for path in sorted(PACKAGE.glob("*.py"))
              for member in _members(ast.parse(path.read_text(encoding="utf-8")))
              if member.split(".")[1] not in reads}
    assert sorted(unread) == []
