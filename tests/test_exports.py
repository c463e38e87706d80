"""The export surface: every name a module lists in ``__all__`` and every
name the package re-exports on first access resolves, so a deletion cannot
leave a stale export behind."""

import importlib
import pkgutil

import pytest

import bayes_ssi

MODULES = sorted(info.name for info in pkgutil.iter_modules(bayes_ssi.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bayes_ssi.{name}")
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    assert bayes_ssi.__all__ == list(bayes_ssi._EXPORTS)
    assert [n for n in bayes_ssi.__all__ if not hasattr(bayes_ssi, n)] == []
    for name, module_name in bayes_ssi._EXPORTS.items():
        module = importlib.import_module(f"bayes_ssi.{module_name}")
        assert getattr(bayes_ssi, name) is getattr(module, name), f"{module_name}.{name}"


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        bayes_ssi.not_a_name
