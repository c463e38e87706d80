"""Every CLI command pays for the modules ``bayes_ssi.cli`` imports.  The
heavy scipy subpackages below (``scipy.signal`` alone pulls in the other
two) roughly double that cost, so importing the CLI in a fresh interpreter
must leave them out."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate")


def test_cli_import_leaves_heavy_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    probe = ("import bayes_ssi.cli, sys; "
             f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.split() == []
