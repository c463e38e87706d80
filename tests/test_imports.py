"""Every imported name in ``src/`` and ``tests/`` is read somewhere in its
module, found with the standard library's ``ast`` alone.  Names listed in
the module's ``__all__`` (re-exports) and imports on a line marked
``# noqa: F401`` (attributes kept for the benchmark's tracer) are exempt.

Only ``rng`` binds LAPACK's solves and only ``rng`` and ``simulate`` import
from ``scipy.linalg``; every other module solves through ``rng``.

The command line reads its configuration as ``cfg[key]``, never
``cfg.get(key, default)``: every key comes from the parser, which holds
the one default of each setting."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(ROOT.glob("src/**/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/**/*.py")])
# the modules allowed to import from scipy.linalg
SCIPY_LINALG = {"rng.py", "simulate.py"}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.setdefault(name, alias.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


def scipy_linalg_imports(source: str) -> list[str]:
    """Dotted names of everything imported from ``scipy.linalg``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names += [f"{node.module}.{alias.name}" for alias in node.names]
    return [n for n in names if n == "scipy.linalg" or n.startswith("scipy.linalg.")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_scipy_linalg_imported_only_by_rng_and_simulate(path):
    names = scipy_linalg_imports(path.read_text())
    if path.name not in SCIPY_LINALG:
        assert names == []
    if path.name != "rng.py":
        assert [n for n in names if n.startswith("scipy.linalg.lapack")] == []


def test_scan_finds_every_import_form():
    source = ("import scipy.linalg as sla\nfrom scipy import linalg\n"
              "from scipy.linalg.lapack import dpotrs\nfrom scipy.special import psi\n")
    assert scipy_linalg_imports(source) == ["scipy.linalg", "scipy.linalg",
                                            "scipy.linalg.lapack.dpotrs"]


def cfg_get_calls(source: str) -> list[int]:
    """Lines of every ``cfg.get(...)`` call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cfg"]


def test_cli_reads_no_second_default():
    assert cfg_get_calls((ROOT / "src/bayes_ssi/cli.py").read_text()) == []


def test_scan_finds_cfg_get_calls():
    source = 'a = cfg.get("seed")\nb = cfg["tol"]\nc = {}.get("x")\nd = cfg.get("fs", 1)\n'
    assert cfg_get_calls(source) == [1, 4]
