"""Every CLI command pays for the modules ``bayes_ssi.cli`` imports.  The
scipy subpackages below roughly double that cost: ``scipy.signal`` pulls in
``scipy.stats`` and ``scipy.interpolate``, and ``scipy.linalg`` and
``scipy.special`` pull in ``scipy._lib._array_api`` and ``numpy.f2py``.  So
importing the CLI in a fresh interpreter must leave them out; ``rng`` loads
the two compiled modules it needs from them directly."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.linalg",
         "scipy.special", "scipy._lib._array_api", "numpy.f2py")
COMPILED = ("scipy.linalg._flapack", "scipy.special._special_ufuncs")


def test_cli_import_leaves_heavy_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = ("import bayes_ssi.cli, sys; "
             f"print(' '.join(m for m in {HEAVY + COMPILED!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == list(COMPILED)
