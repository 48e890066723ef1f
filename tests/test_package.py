"""The package surface: every name `cyclictf` re-exports is public in its home module."""

import ast
import importlib
from pathlib import Path

import cyclictf


def test_reexports_are_in_home_module_all():
    tree = ast.parse(Path(cyclictf.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
                 for alias in node.names]
    assert len(reexports) > 50
    missing = [f"{module}.{name}" for module, name in reexports
               if name not in importlib.import_module(f"cyclictf.{module}").__all__]
    assert missing == []
