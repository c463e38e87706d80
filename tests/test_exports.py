"""The export surface: every name a module lists in ``__all__`` and every
name the package re-exports resolves, so a deletion cannot leave a stale
export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bayes_ssi

MODULES = sorted(info.name for info in pkgutil.iter_modules(bayes_ssi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bayes_ssi.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    assert [n for n in bayes_ssi.__all__ if not hasattr(bayes_ssi, n)] == []
    tree = ast.parse(Path(bayes_ssi.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"bayes_ssi.{node.module}")
        for alias in node.names:
            assert getattr(bayes_ssi, alias.asname or alias.name) is getattr(
                module, alias.name), f"{node.module}.{alias.name}"
