"""The package surface: every name `cyclictf` re-exports is public in its home module,
and every public function or class has a reader outside the unit tests."""

import ast
import importlib
from pathlib import Path

import cyclictf

SRC = Path(cyclictf.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def test_reexports_are_in_home_module_all():
    tree = ast.parse(Path(cyclictf.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
                 for alias in node.names]
    assert len(reexports) > 50
    missing = [f"{module}.{name}" for module, name in reexports
               if name not in importlib.import_module(f"cyclictf.{module}").__all__]
    assert missing == []


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
    # (constants such as J_MATRIX are exempt)
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    acceptance = _reads(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    layers = _assigned(ast.parse((ROOT / "perfbench" / "spans.py").read_text()), "LAYERS")
    unread = []
    for module, tree in modules.items():
        defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        others = set().union(*(_reads(t) for m, t in modules.items() if m not in (module, "__init__")))
        for name in _assigned(tree, "__all__") or []:
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
