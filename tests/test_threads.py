"""The CLI runs numpy's and scipy's OpenBLAS on one thread unless the
environment sets a thread count, records the count in effect in
``run_manifest.json``, and writes the same bytes whatever cores it may use.

Each command runs in a fresh interpreter, so the thread settings of the test
process itself are never touched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bayes_ssi
from bayes_ssi.cli import blas_threads

SRC = str(Path(bayes_ssi.__file__).resolve().parent.parent)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(None in blas_threads().values(),
                                reason="numpy or scipy without a bundled OpenBLAS")


def run_cli(*args, env=None, cpus=None):
    """Run the CLI in a child process with no thread variables set except
    those in ``env``, restricted to the CPU set ``cpus`` if given."""
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child_env.update(env or {})
    restrict = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    subprocess.run([sys.executable, "-m", "bayes_ssi.cli", *map(str, args)],
                   env=child_env, preexec_fn=restrict, check=True,
                   capture_output=True)


def manifest_threads(out):
    return json.loads((Path(out) / "run_manifest.json").read_text())["blas_threads"]


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("thread_sim")
    run_cli("simulate", "--samples", 4096, "--seed", 3, "--out", out)
    return out


def test_one_thread_by_default(record):
    assert manifest_threads(record) == {"numpy": 1, "scipy": 1}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_environment_count_kept(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", "--samples", 256, "--out", out,
            env={"OPENBLAS_NUM_THREADS": "2"})
    assert manifest_threads(out) == {"numpy": 2, "scipy": 2}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_artifacts_identical_on_one_core(record, tmp_path):
    args = ("identify", "--input", record / "response.csv", "--block-rows", 15,
            "--order", 8, "--engine", "vb", "--draws", 200, "--seed", 1)
    one_core, all_cores = tmp_path / "one", tmp_path / "all"
    run_cli(*args, "--out", one_core, cpus={min(os.sched_getaffinity(0))})
    run_cli(*args, "--out", all_cores)
    names = sorted(p.relative_to(one_core) for p in one_core.rglob("*")
                   if p.is_file() and p.name not in ("config.json", "run_manifest.json"))
    assert Path("modes_summary.json") in names
    assert names == sorted(p.relative_to(all_cores) for p in all_cores.rglob("*")
                           if p.is_file()
                           and p.name not in ("config.json", "run_manifest.json"))
    for name in names:
        assert (one_core / name).read_bytes() == (all_cores / name).read_bytes(), name
