"""Every module-level name in the package is used somewhere in the repository.

A name counts as used when some file under ``src/``, ``tests/`` or
``perfbench/`` loads it, reads it as an attribute, imports it (imports
inside ``ridgerec/__init__.py`` do not count, since re-exporting is not a
use), or spells it as a whole string constant, as the benchmark tracer
does when it names the functions it wraps.

Dataclass fields and properties of package classes must be read: some
file reads them as an attribute, or names them in a string constant as
``getattr`` does.  Passing a field to the constructor is not a read.

Every name a package module other than ``__init__`` imports must be
loaded in that module, or spelt as a string constant in ``perfbench/``,
where the benchmark tracer names the module attributes it wraps.

Every parameter with a default in the package must be set: some call in
``src/`` or ``perfbench/`` passes it a value spelt otherwise than the
default.  Calls are matched by the name they spell, so ``__init__`` is
called as its class; tests do not count, since a value that only tests
pass is an option the program never takes.

Every ``:func:``, ``:data:``, ``:attr:``, ``:class:`` and ``:meth:``
target in the package's docstrings and doc comments names something that
exists: a module attribute, a class attribute or a dataclass field.

Only ``core`` runs threads: no other package module imports
``threading``, ``queue`` or ``concurrent.futures``, or names
``_pool_width``; pool work goes through ``core._cpu_map``.
"""

import ast
import dataclasses
import importlib
import re
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


def _unused_imports(tree: ast.Module) -> set:
    bound, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return bound - loaded


def test_no_import_is_unused():
    spelt = {node.value
             for path in (ROOT / "perfbench").rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unused = {f"{path.stem}.{name}"
              for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
              if name not in spelt}
    assert sorted(unused) == []


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


def _defaulted(tree: ast.Module) -> list:
    """(callee, parameter, call position or None, default source) per defaulted parameter.

    Module functions and methods are covered.  A method's position does not
    count ``self``; keyword-only parameters have no position.
    """
    found = []
    for node, cls in [(n, None) for n in tree.body] + [
            (n, c.name) for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]:
        if not isinstance(node, ast.FunctionDef):
            continue
        callee = cls if node.name == "__init__" else node.name
        bound = cls is not None and "staticmethod" not in map(ast.unparse, node.decorator_list)
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i, default in enumerate(node.args.defaults, start=first):
            found.append((callee, positional[i].arg, i - bound, ast.unparse(default)))
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found.append((callee, arg.arg, None, ast.unparse(default)))
    return found


def _sets(call: ast.Call, name: str, position, default: str) -> bool:
    """Whether ``call`` passes parameter ``name`` something spelt otherwise than ``default``.

    An unpacked ``*args`` or ``**kwargs`` that could carry it counts as setting it.
    """
    for kw in call.keywords:
        if kw.arg is None or kw.arg == name:
            return kw.arg is None or ast.unparse(kw.value) != default
    if position is None:
        return False
    shown = call.args[:position + 1]
    if any(isinstance(a, ast.Starred) for a in shown):
        return True
    return len(shown) > position and ast.unparse(shown[position]) != default


def test_no_parameter_default_is_the_only_value():
    calls = [node
             for top in ("src", "perfbench")
             for path in (ROOT / top).rglob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    by_callee: dict = {}
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        by_callee.setdefault(name, []).append(call)
    unset = {f"{path.stem}.{callee}({name})"
             for path in sorted(PACKAGE.glob("*.py"))
             for callee, name, position, default in _defaulted(
                 ast.parse(path.read_text(encoding="utf-8")))
             if not any(_sets(call, name, position, default)
                        for call in by_callee.get(callee, []))}
    assert sorted(unset) == []


ROLE = re.compile(r":(?:func|data|attr|class|meth):`~?(?:ridgerec\.)?([\w.]+)`")


def _resolves(target: str, module) -> bool:
    """Whether ``target`` names an attribute or dataclass field reached from ``module``,
    or else from the package (``slicing.slice_stats``)."""
    *path, last = target.split(".")
    for obj in (module, importlib.import_module("ridgerec")):
        for part in path:
            obj = getattr(obj, part, None)
        if hasattr(obj, last) or (dataclasses.is_dataclass(obj) and last in {
                field.name for field in dataclasses.fields(obj)}):
            return True
    return False


def test_every_docstring_reference_resolves():
    unresolved = {f"{path.stem}: {target}"
                  for path in sorted(PACKAGE.glob("*.py"))
                  for target in ROLE.findall(path.read_text(encoding="utf-8"))
                  if not _resolves(target, importlib.import_module(
                      "ridgerec" if path.stem == "__init__" else f"ridgerec.{path.stem}"))}
    assert sorted(unresolved) == []


POOL_MODULES = {"threading", "queue", "concurrent", "concurrent.futures"}


def _pool_machinery(tree: ast.Module) -> set:
    """The thread modules ``tree`` imports and each ``_pool_width`` it names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name in POOL_MODULES)
        elif isinstance(node, ast.ImportFrom):
            if node.module in POOL_MODULES:
                found.add(node.module)
            found.update(alias.name for alias in node.names if alias.name == "_pool_width")
        elif isinstance(node, ast.Name) and node.id == "_pool_width":
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "_pool_width":
            found.add(node.attr)
    return found


def test_only_core_runs_threads():
    outside = {f"{path.stem}: {name}"
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "core"
               for name in _pool_machinery(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(outside) == []
