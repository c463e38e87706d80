"""Every CLI command pays for the modules ``bayes_ssi.cli`` imports.  The
scipy subpackages below roughly double that cost: ``scipy.signal`` pulls in
``scipy.stats`` and ``scipy.interpolate``, and ``scipy.linalg`` and
``scipy.special`` pull in ``scipy._lib._array_api`` and ``numpy.f2py``.  So
importing the CLI in a fresh interpreter must leave them out; ``rng`` loads
the two compiled modules it needs from them directly.

numpy's and scipy's OpenBLAS start a thread pool as they load unless the
thread count is set first.  ``import bayes_ssi`` therefore loads no numpy,
and importing the CLI first sets one thread, so a fresh CLI process runs
one thread; a program that loaded numpy first gets the pin from ``main``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.linalg",
         "scipy.special", "scipy._lib._array_api", "numpy.f2py")
COMPILED = ("scipy.linalg._flapack", "scipy.special._special_ufuncs")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def test_cli_import_leaves_heavy_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = ("import bayes_ssi.cli, sys; "
             f"print(' '.join(m for m in {HEAVY + COMPILED!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == list(COMPILED)


def _fresh_env() -> dict:
    """The environment with ``src`` on the path and no BLAS thread count."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {**env, "PYTHONPATH": str(SRC)}


def test_package_import_loads_no_numpy():
    # the package resolves its re-exports on first access, so the command
    # line can set the thread count before numpy loads
    probe = "import bayes_ssi, sys; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["False"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir() or CPUS < 2,
                    reason="counts threads in Linux /proc; one CPU starts no pool")
def test_cli_import_starts_no_blas_threads():
    # numpy's and scipy's OpenBLAS each start a worker per extra CPU as
    # they load, unless the thread count is set before; the variable set
    # for the load is gone afterwards
    probe = ("import bayes_ssi.cli, os; print(len(os.listdir('/proc/self/task')), "
             "os.environ.get('OPENBLAS_NUM_THREADS'))")
    result = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["1", "None"]


def test_main_pins_blas_after_numpy_loaded_first(tmp_path):
    # a program that imported numpy first gets the one-thread pin from main
    out = tmp_path / "sim"
    probe = ("import numpy, bayes_ssi.cli as cli, sys; "
             f"sys.exit(cli.main(['simulate', '--samples', '64', '--out', {str(out)!r}]))")
    subprocess.run([sys.executable, "-c", probe], env=_fresh_env(), check=True)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["blas_threads"] == {"numpy": 1, "scipy": 1}
