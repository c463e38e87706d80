"""Every imported name in ``src/`` and ``tests/`` is read somewhere in its
module, found with the standard library's ``ast`` alone.  Names listed in
the module's ``__all__`` (re-exports) and imports on a line marked
``# noqa: F401`` (attributes kept for the benchmark's tracer) are exempt.

No module imports ``scipy.linalg`` or ``scipy.special`` at module level, so
no command pays for them at start-up; ``simulate`` alone imports them, inside
the functions that need them.  ``rng`` is the one module that loads scipy's
compiled modules (LAPACK's solves and the gamma functions) and the one that
binds LAPACK's solves; every other module solves through ``rng``.  Its
``dpotrf`` is the package's one Cholesky: no module calls numpy's
``linalg.cholesky`` or imports a ``cholesky`` or ``cho_factor``, and no
module but ``rng`` names ``dpotrf``.

The two engines, ``vb`` and ``gibbs``, do not import each other.
``subspace`` is the one module that calls ``cca``, inside the
canonical-variate factorization the classical baseline and both warm
starts use; ``gibbs`` keeps the name for the tracer only.

The command line reads its configuration as ``cfg[key]``, never
``cfg.get(key, default)``: every key comes from the parser, which holds
the one default of each setting.

Warnings leave the library through its module loggers only: no module in
``src/`` calls ``print`` or ``warnings.warn``, except the ``error:`` line
with which ``cli.main`` reports a failed command.

Every artifact byte leaves through ``io``: no other module in ``src/``
calls ``np.save``, ``np.savetxt``, ``np.savez``, ``json.dump``,
``Path.write_text`` or ``Path.write_bytes``, or calls ``open`` (bare or as
a method) in a mode that writes, appends or creates; ``cli`` opens files
only to read them.  Every call in ``cli`` of an ``io`` writer takes
``out.file(...)`` as its first argument, so each artifact is staged and
reaches the output directory only when its command succeeds; the lock's
``create_json`` is the one exception."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(ROOT.glob("src/**/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/**/*.py")])
# imported only inside functions, and only by the simulator
SCIPY_SUBPACKAGES = (["scipy", "linalg"], ["scipy", "special"])
# the compiled modules and the LAPACK routines only ``rng`` may name
COMPILED = ("_flapack", "_special_ufuncs", "lapack", "dtrtrs", "dpotrs", "dpotrf")


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
        # a literal ``__all__`` exempts its names; one built at run time,
        # as the package's from its lazy re-export map, exempts none
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
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


def test_scan_exempts_only_a_literal_all():
    listed = "import os\nimport sys\n__all__ = ['os']\n"
    built = "import os\n__all__ = list({'os': 'path'})\n"
    assert unused_imports(listed) == ["line 2: sys"]
    assert unused_imports(built) == ["line 1: os"]


def imports(source: str) -> list[tuple[str, bool]]:
    """(dotted name, inside a function) of every imported name; a relative
    import keeps its leading dots."""
    tree = ast.parse(source)
    nested = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (f"{node.module}." if node.module else "")
            dotted = [base + alias.name for alias in node.names]
        else:
            continue
        names += [(name, id(node) in nested) for name in dotted]
    return names


def compiled_scipy_names(source: str) -> list[str]:
    """Imported names and string constants that name scipy's compiled
    LAPACK or gamma-function modules, or LAPACK's solves."""
    found = [name for name, _ in imports(source)]
    found += [node.value for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    return [n for n in found if n.split(".")[-1] in COMPILED]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_scipy_linalg_imported_only_by_rng_and_simulate(path):
    source = path.read_text()
    names = [(name, inside) for name, inside in imports(source)
             if name.split(".")[:2] in SCIPY_SUBPACKAGES]
    assert [name for name, inside in names if not inside] == []
    if path.name != "simulate.py":
        assert names == []
    compiled = compiled_scipy_names(source)
    if path.name == "rng.py":
        assert {"_flapack", "_special_ufuncs"} <= set(compiled)
    else:
        assert compiled == []


def cholesky_routes(source: str) -> list[str]:
    """Every route to a Cholesky factorization other than ``rng``'s: the
    text of each call of ``linalg.cholesky`` (numpy's, as ``np.linalg`` or
    ``numpy.linalg``), each imported name ending in ``cholesky`` or
    ``cho_factor``, and each name, attribute or string constant
    ``dpotrf``."""
    found = [name for name, _ in imports(source)
             if name.split(".")[-1] in ("cholesky", "cho_factor", "dpotrf")]
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "cholesky"
                and getattr(node.func.value, "attr", None) == "linalg"):
            found.append(ast.get_source_segment(source, node))
        elif "dpotrf" in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "value", None)):
            found.append("dpotrf")
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_one_cholesky_binding(path):
    routes = cholesky_routes(path.read_text())
    if path.name == "rng.py":
        assert "dpotrf" in routes
        routes = [route for route in routes if route != "dpotrf"]
    assert routes == []


def test_scan_finds_cholesky_routes():
    source = ("import numpy as np\nfrom numpy.linalg import cholesky\n"
              "from scipy.linalg import cho_factor as cf\nfrom .rng import spd_cholesky\n"
              "a = np.linalg.cholesky(m)\nb = numpy.linalg.cholesky(m)\n"
              "c = spd_cholesky(m)\nd = lapack.dpotrf(m)\ne = get('dpotrf')\n"
              "f = la.cholesky(m)\n")
    assert cholesky_routes(source) == [
        "numpy.linalg.cholesky", "scipy.linalg.cho_factor",
        "np.linalg.cholesky(m)", "numpy.linalg.cholesky(m)", "dpotrf", "dpotrf"]


def test_scan_finds_every_import_form():
    source = ("import scipy.linalg as sla\nfrom scipy import linalg\n"
              "from scipy.linalg.lapack import dpotrs\nfrom .rng import chol_solve\n"
              "def f():\n    from scipy.special import psi\n"
              "load('special', '_special_ufuncs')\n")
    assert imports(source) == [
        ("scipy.linalg", False), ("scipy.linalg", False),
        ("scipy.linalg.lapack.dpotrs", False), (".rng.chol_solve", False),
        ("scipy.special.psi", True)]
    assert compiled_scipy_names(source) == ["scipy.linalg.lapack.dpotrs",
                                            "_special_ufuncs"]


def package_imports(source: str, module: str) -> list[str]:
    """Imported names that come from the package's module ``module``,
    relative or absolute."""
    found = []
    for name, _ in imports(source):
        parts = name.lstrip(".").split(".")
        if parts[0] == "bayes_ssi":
            parts = parts[1:]
        if parts[:1] == [module]:
            found.append(name)
    return found


def calls(source: str, name: str) -> list[int]:
    """Lines of every call of ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


@pytest.mark.parametrize("engine, other", [("vb", "gibbs"), ("gibbs", "vb")])
def test_engines_do_not_import_each_other(engine, other):
    source = (ROOT / f"src/bayes_ssi/{engine}.py").read_text()
    assert package_imports(source, other) == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_subspace_calls_cca(path):
    if path.name != "subspace.py":
        assert calls(path.read_text(), "cca") == []


def test_scan_flags_a_planted_engine_import():
    source = (ROOT / "src/bayes_ssi/vb.py").read_text()
    planted = source.replace("from .model import",
                             "from .gibbs import warm_start_point\nfrom .model import", 1)
    assert planted != source
    assert package_imports(planted, "gibbs") == [".gibbs.warm_start_point"]
    source = ("import bayes_ssi.gibbs\nfrom bayes_ssi import vb\nfrom . import gibbs\n"
              "from .subspace import cca\nx = cca(a, b, c)\ny = subspace.cca(a, b, c)\n")
    assert package_imports(source, "gibbs") == ["bayes_ssi.gibbs", ".gibbs"]
    assert package_imports(source, "vb") == ["bayes_ssi.vb"]
    assert calls(source, "cca") == [5, 6]


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


def report_calls(source: str) -> list[tuple[str, str]]:
    """(innermost enclosing function, call text) of every ``print`` call
    and every ``warn`` call, bare or as an attribute such as
    ``warnings.warn``; at module level the function is ``""``."""
    tree = ast.parse(source)
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and (getattr(child.func, "id", None) in ("print", "warn")
                         or getattr(child.func, "attr", None) == "warn")):
                found.append((where, ast.get_source_segment(source, child)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else where)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_reports_leave_through_loggers(path):
    allowed = ([("main", 'print(f"error: {exc}", file=sys.stderr)')]
               if path.name == "cli.py" else [])
    assert report_calls(path.read_text()) == allowed


def test_scan_finds_report_calls():
    source = ("import warnings\nfrom warnings import warn\nprint('a')\n"
              "def f():\n    warnings.warn('b')\n    logger.warning('c')\n"
              "    def g():\n        warn('d')\n    return print\n"
              "class K:\n    def h(self):\n        print('e', file=sys.stderr)\n")
    assert report_calls(source) == [
        ("", "print('a')"), ("f", "warnings.warn('b')"), ("g", "warn('d')"),
        ("h", "print('e', file=sys.stderr)")]


# calls that write a file whatever their arguments
FILE_WRITES = ("save", "savetxt", "savez", "savez_compressed", "dump",
               "write_text", "write_bytes")


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open`` call's mode writes, appends or creates: the
    ``mode`` keyword, else the second argument of the builtin or the first
    of a method such as ``Path.open``; no mode reads, and a mode that is
    not a string constant counts as writing."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    mode = modes[0] if modes else (call.args[position] if len(call.args) > position
                                   else ast.Constant("r"))
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def file_writes(source: str) -> list[str]:
    """Text of every call that writes a file: one named in FILE_WRITES,
    bare or as an attribute, or an ``open`` that writes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in FILE_WRITES or (name == "open" and _opens_for_writing(node)):
                found.append(ast.get_source_segment(source, node))
    return found


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_artifacts_leave_through_io(path):
    if path.name != "io.py":
        assert file_writes(path.read_text()) == []


def test_scan_flags_a_planted_save_in_cli():
    source = (ROOT / "src/bayes_ssi/cli.py").read_text()
    call = 'write_array(out.file(f"mode_{k:02d}_shapes.npy"), cluster.mode_shapes)'
    planted = source.replace(call, "np.save" + call.removeprefix("write_array"), 1)
    assert planted != source
    assert file_writes(planted) == [
        'np.save(out.file(f"mode_{k:02d}_shapes.npy"), cluster.mode_shapes)']


def test_scan_finds_file_writes():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, newline='')\nopen(p, 'w')\n"
              "open(p, mode='ab')\nopen(p, 'r+')\nopen(p, how)\npath.open()\n"
              "path.open('x')\nnp.savetxt(p, a)\njson.dump(d, fh)\n"
              "json.dumps(d)\npath.write_text(t)\nnp.load(p)\n")
    assert file_writes(source) == [
        "open(p, 'w')", "open(p, mode='ab')", "open(p, 'r+')", "open(p, how)",
        "path.open('x')", "np.savetxt(p, a)", "json.dump(d, fh)", "path.write_text(t)"]


# the ``io`` functions that write an artifact
IO_WRITERS = ("write_json", "write_matrix_csv", "write_timeseries_csv", "write_array",
              "save_chain", "save_vb_posterior")


def _is_staged(arg: ast.expr) -> bool:
    """Whether ``arg`` is a call ``out.file(...)``."""
    return (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
            and arg.func.attr == "file" and isinstance(arg.func.value, ast.Name)
            and arg.func.value.id == "out")


def writer_calls(source: str) -> list[tuple[str, bool]]:
    """(call text, whether its first argument is ``out.file(...)``) of every
    call of an ``io`` writer, bare or as an attribute."""
    return [(ast.get_source_segment(source, node), bool(node.args) and _is_staged(node.args[0]))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            in IO_WRITERS]


def test_cli_writes_every_artifact_staged():
    found = writer_calls((ROOT / "src/bayes_ssi/cli.py").read_text())
    assert len(found) >= len(IO_WRITERS)
    assert [text for text, staged in found if not staged] == []


def test_scan_flags_a_planted_unstaged_write_in_cli():
    source = (ROOT / "src/bayes_ssi/cli.py").read_text()
    call = 'write_json(out.file("config.json"), _config_echo("simulate", cfg))'
    planted = source.replace(
        call, 'write_json(Path(cfg["out"]) / "x.json", _config_echo("simulate", cfg))', 1)
    assert planted != source
    assert [text for text, staged in writer_calls(planted) if not staged] == [
        'write_json(Path(cfg["out"]) / "x.json", _config_echo("simulate", cfg))']


def test_scan_finds_writer_calls():
    source = ("write_json(out.file('a'), d)\nio.save_chain(out.file('c'), ch)\n"
              "write_array(path, a)\nwrite_json(path=out.file('b'), payload=d)\n"
              "write_matrix_csv(other.file('m'), a)\ncreate_json(lock, d)\n"
              "save_vb_posterior(out.path / 'v', p)\n")
    assert writer_calls(source) == [
        ("write_json(out.file('a'), d)", True), ("io.save_chain(out.file('c'), ch)", True),
        ("write_array(path, a)", False), ("write_json(path=out.file('b'), payload=d)", False),
        ("write_matrix_csv(other.file('m'), a)", False),
        ("save_vb_posterior(out.path / 'v', p)", False)]
