"""The package surface: the `cyclictf` namespace is the union of its modules' `__all__`,
the version is stated once, and every public function or class has a reader outside the unit tests."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import cyclictf

SRC = Path(cyclictf.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def test_namespace_is_the_union_of_module_all():
    # every module with an `__all__` is re-exported whole; verify and cli have none and stay out
    exported = {name for name, value in vars(cyclictf).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    homes = {name: path.stem for path in sorted(SRC.glob("*.py"))
             for name in _assigned(ast.parse(path.read_text()), "__all__") or []}
    assert exported == set(homes)
    moved = [name for name, module in homes.items()
             if getattr(cyclictf, name) is not getattr(importlib.import_module(f"cyclictf.{module}"), name)]
    assert moved == []


def test_version_is_read_from_the_package():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in project["project"] and "version" in project["project"]["dynamic"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "cyclictf.__version__"}


def _reads(tree, skip=None) -> set[str]:
    """Names a syntax tree reads (Name and Attribute loads, imported names), outside the node skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _assigned(tree, name: str):
    """The literal value of a module-level `name = ...`, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_public_callable_has_a_reader():
    # src/ holds only what a CLI path, a verify suite, an acceptance criterion
    # or the benchmark's tracer reads: a public function or class passes when
    # another src module, its own module outside its definition,
    # tests/test_acceptance.py or perfbench/spans.py's LAYERS reads it
    # (constants such as J_MATRIX are exempt); public is the module's
    # `__all__`, or every name without a leading underscore where it has none
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    acceptance = _reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    layers = _assigned(ast.parse((ROOT / "perfbench" / "spans.py").read_text()), "LAYERS")
    unread = []
    for module, tree in modules.items():
        defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        others = set().union(*(_reads(t) for m, t in modules.items() if m not in (module, "__init__")))
        public = _assigned(tree, "__all__") or [name for name in defs if not name.startswith("_")]
        for name in public:
            if name not in defs:
                continue
            readers = others | acceptance | _reads(tree, skip=defs[name]) | set(layers.get(module, ()))
            if name not in readers:
                unread.append(f"{module}.{name}")
    assert unread == []


def test_tests_import_no_private_names():
    # the tests pin behaviour through the public names, not the path a
    # function takes inside a module
    private = [f"{path.name}: {node.module}.{alias.name}" for path in sorted((ROOT / "tests").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "cyclictf" for alias in node.names
               if alias.name.startswith("_")]
    assert private == []
