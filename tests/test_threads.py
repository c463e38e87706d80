"""The CLI runs numpy's and scipy's OpenBLAS on one thread unless the
environment sets a thread count, records the count in effect in
``run_manifest.json``, and writes the same bytes whatever cores it may use,
also when ``stabilise`` spreads its orders over worker processes and when
the draws propagate on one thread per CPU.

Each command runs in a fresh interpreter, so the thread and CPU settings of
the test process itself are never touched.
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


def run_cli(*args, env=None, cpus=None, code=None, check=True):
    """Run the CLI in a child process with no thread variables set except
    those in ``env``, restricted to the CPU set ``cpus`` if given; ``code``
    runs in the child before the CLI, and may patch the library."""
    child_env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV}
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child_env.update(env or {})
    restrict = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
    script = f"{code or ''}\nimport sys\nfrom bayes_ssi.cli import main\nsys.exit(main())"
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=child_env, preexec_fn=restrict, check=check,
                          capture_output=True, text=True)


def artifacts(out) -> dict:
    """Bytes of every file under ``out`` except the run-specific config
    echo and manifest, by relative path."""
    return {p.relative_to(out): p.read_bytes() for p in Path(out).rglob("*")
            if p.is_file() and p.name not in ("config.json", "run_manifest.json")}


def manifest(out) -> dict:
    return json.loads((Path(out) / "run_manifest.json").read_text())


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("thread_sim")
    run_cli("simulate", "--samples", 4096, "--seed", 3, "--out", out)
    return out


def test_one_thread_by_default(record):
    assert manifest(record)["blas_threads"] == {"numpy": 1, "scipy": 1}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_environment_count_kept(tmp_path):
    out = tmp_path / "sim"
    run_cli("simulate", "--samples", 256, "--out", out,
            env={"OPENBLAS_NUM_THREADS": "2"})
    assert manifest(out)["blas_threads"] == {"numpy": 2, "scipy": 2}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_simulated_record_identical_at_one_and_two_threads(tmp_path):
    # the command pins one thread, the benchmark's set-up runs at the
    # default: the chunked state recursion must give both the same record
    records = {}
    for threads in ("1", "2"):
        out = tmp_path / f"sim{threads}"
        run_cli("simulate", "--samples", 65536, "--seed", 1234, "--out", out,
                env={"OPENBLAS_NUM_THREADS": threads})
        assert manifest(out)["blas_threads"] == {"numpy": int(threads), "scipy": int(threads)}
        records[threads] = (out / "response.csv").read_bytes()
    assert records["1"] == records["2"]


def check_one_core(record, tmp_path, produced, *args):
    """The command at 600 draws, five propagation blocks, on one CPU and
    on every CPU: one propagation thread against one per CPU, and the
    same artifacts."""
    args = (*args, "--input", record / "response.csv", "--draws", 600, "--seed", 1)
    one_core, all_cores = tmp_path / "one", tmp_path / "all"
    run_cli(*args, "--out", one_core, cpus={min(os.sched_getaffinity(0))})
    run_cli(*args, "--out", all_cores)
    assert manifest(one_core)["propagation_threads"] == 1
    assert manifest(all_cores)["propagation_threads"] == len(os.sched_getaffinity(0))
    assert Path(produced) in artifacts(one_core)
    assert artifacts(one_core) == artifacts(all_cores)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_artifacts_identical_on_one_core(record, tmp_path):
    check_one_core(record, tmp_path, "modes_summary.json", "identify", "--block-rows", 15,
                   "--order", 8, "--engine", "vb")


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_stabilise_one_order_identical_on_one_core(record, tmp_path):
    # one order runs in the command's own process, propagating on every CPU
    check_one_core(record, tmp_path, "stabilisation.csv", "stabilise", "--block-rows", 8,
                   "--order", 8, "--max-iter", 40, "--tol", "1e-6")


STAB_ORDERS = (2, 4, 6, 8)


def stabilise_args(record, *extra):
    return ("stabilise", "--input", record / "response.csv", "--block-rows", 8,
            *[a for order in STAB_ORDERS for a in ("--order", order)],
            "--draws", 50, "--max-iter", 40, "--tol", "1e-6", "--seed", 1, *extra)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_stabilise_identical_in_process_and_in_workers(record, tmp_path):
    # one CPU runs the orders in process, all CPUs in worker processes
    one_core, all_cores = tmp_path / "one", tmp_path / "all"
    run_cli(*stabilise_args(record, "--out", one_core),
            cpus={min(os.sched_getaffinity(0))})
    run_cli(*stabilise_args(record, "--out", all_cores))
    assert manifest(one_core)["workers"] == 1
    assert manifest(all_cores)["workers"] == min(len(STAB_ORDERS),
                                                 len(os.sched_getaffinity(0)))
    # the CPUs are shared out among the workers' propagations
    assert manifest(one_core)["propagation_threads"] == 1
    assert manifest(all_cores)["propagation_threads"] == max(
        1, len(os.sched_getaffinity(0)) // manifest(all_cores)["workers"])
    assert Path("stabilisation.csv") in artifacts(one_core)
    assert artifacts(one_core) == artifacts(all_cores)
    one, every = manifest(one_core), manifest(all_cores)
    assert one["failures"] == every["failures"] == {}
    for diagnostics in (one["diagnostics"], every["diagnostics"]):
        assert list(diagnostics) == [str(order) for order in STAB_ORDERS]
        for diag in diagnostics.values():
            del diag["ms_per_sweep"]
    assert one["diagnostics"] == every["diagnostics"]


# run_vb patched in the CLI's process, inherited by the forked workers
FAIL_AT = """
import bayes_ssi.modal_posterior as mp
original = mp.run_vb
def run_vb(stats, priors, order, config):
    if order in {orders}:
        {action}
    return original(stats, priors, order, config)
mp.run_vb = run_vb
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_worker_death_fails_the_command(record, tmp_path):
    out = tmp_path / "died"
    proc = run_cli(*stabilise_args(record, "--out", out), check=False,
                   code=FAIL_AT.format(orders={4}, action="import os; os._exit(3)"))
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "stabilisation failed" not in proc.stderr
    assert not out.exists()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_order_failures_in_ascending_order(record, tmp_path):
    out = tmp_path / "failed"
    action = 'import numpy; raise numpy.linalg.LinAlgError("synthetic")'
    proc = run_cli(*stabilise_args(record, "--out", out), check=False,
                   code=FAIL_AT.format(orders={4, 8}, action=action))
    assert proc.returncode == 1
    assert manifest(out)["failures"] == {"4": "synthetic", "8": "synthetic"}
    assert list(manifest(out)["failures"]) == ["4", "8"]
    logged = [line for line in proc.stderr.splitlines()
              if line.startswith("stabilisation failed")]
    assert logged == ["stabilisation failed at order 4: synthetic",
                      "stabilisation failed at order 8: synthetic"]
    assert list(manifest(out)["diagnostics"]) == ["2", "6"]
