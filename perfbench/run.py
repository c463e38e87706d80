"""Benchmark of the bayes-ssi command line on the acceptance shear frame.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The seed (default 1234, the acceptance
seed) simulates the workload's record, which is written as CSV and also
passed as the command's ``--seed``; the command sees only the CSV and
``--fs 50``.  The load is a closed loop with one client: one fresh
``python -m bayes_ssi.cli`` process at a time, repeated until S seconds
have passed, at the default BLAS threading.  Every run's outputs are
checked against the frame's oracle and hashed; a run whose digests differ
from the first run at the same seed, BLAS thread count and source tree
fails.

``--trace 0`` prints the end-to-end metrics of those untraced runs.
``--trace 1`` also runs the command once through ``tracing.py`` at the
default threading and once with ``OPENBLAS_NUM_THREADS=1`` (suffix
``.blas1``) and prints the per-layer metrics.  The line before the result
holds the environment, the samples and the findings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"

FS = 50.0
BLOCK_ROWS = 15
ORDER = 8
STAB_ORDERS = list(range(2, 17, 2))
# set-up repeats at least SETUP_REPS times and for SETUP_MIN_S seconds
SETUP_REPS = 3
SETUP_MIN_S = 1.0
# a run must exit within 180 s; commands still running at this point are killed
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    n_samples: int
    args: tuple[str, ...]
    check: Callable[[Path], list[str]]


WORKLOADS = {
    "identify-vb-n16": Workload(
        2**16, ("identify", "--order", str(ORDER), "--engine", "vb", "--draws", "4000"),
        partial(checks.check_identify, min_aligned=200)),
    "identify-gibbs-n13": Workload(
        2**13, ("identify", "--order", str(ORDER), "--engine", "gibbs",
                "--samples", "1000", "--burn-in", "0.2"),
        partial(checks.check_identify, min_aligned=50)),
    "stabilise-n16": Workload(
        2**16, ("stabilise", *[a for o in STAB_ORDERS for a in ("--order", str(o))],
                "--draws", "400", "--warm-start"),
        partial(checks.check_stabilise, orders=STAB_ORDERS)),
    # not in BENCHMARK.json: its pure-Python CSV ingest is too noisy per
    # command for a steady median within the benchmark's time budget
    "ssi-n18": Workload(
        2**18, ("identify", "--order", str(ORDER), "--engine", "ssi"),
        checks.check_ssi),
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
             "artifact_mb": "MiB", "setup_s": "s"}


def set_up(n_samples: int, seed: int, record: Path) -> tuple[float, float]:
    """Simulate the record and write it, repeatedly; medians of the whole
    set-up and of ``simulate_response`` alone."""
    from bayes_ssi.cli import SIMULATE_STREAM
    from bayes_ssi.io import write_timeseries_csv
    from bayes_ssi.rng import Rng
    from bayes_ssi.simulate import (build_shear_frame, discretize, simulate_response,
                                    to_continuous_ss)

    total, response = [], []
    while len(total) < SETUP_REPS or sum(total) < SETUP_MIN_S:
        t0 = time.perf_counter()
        mass, damp, stiff = build_shear_frame(checks.FLOORS, checks.MASS, checks.STIFFNESS)
        dss = discretize(to_continuous_ss(mass, damp, stiff, 5e-5, 0.05), 1.0 / FS)
        t1 = time.perf_counter()
        ts = simulate_response(dss, n_samples, Rng(seed, SIMULATE_STREAM))
        t2 = time.perf_counter()
        write_timeseries_csv(record, ts)
        total.append(time.perf_counter() - t0)
        response.append(t2 - t1)
    return statistics.median(total), statistics.median(response)


def source_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(record: Path) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": tracing.openblas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "record_bytes": record.stat().st_size,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


class DigestStore:
    """Digests of the first run per (workload, seed, BLAS threads, source),
    kept across runs in the work directory."""

    def __init__(self, path: Path, prefix: str):
        self.path = path
        self.prefix = prefix
        self.known = json.loads(path.read_text()) if path.exists() else {}

    def reference(self, threads) -> dict | None:
        return self.known.get(f"{self.prefix}/{threads}")

    def remember(self, threads, digests: dict) -> None:
        self.known.setdefault(f"{self.prefix}/{threads}", digests)
        partial_path = self.path.with_suffix(".tmp")
        partial_path.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(partial_path, self.path)


def run_command(argv: list[str], work: Path, env: dict, deadline: float, check,
                store: DigestStore, threads) -> dict:
    """One command process, spawn to exit, then its output check and
    digest comparison.  ``argv`` may hold ``{spawned}``, replaced by the
    monotonic spawn time."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    spawned = time.monotonic()
    proc = subprocess.Popen([a.format(spawned=spawned) for a in argv], cwd=work, env=env,
                            stdout=sys.stderr)
    watchdog = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "spawned": spawned, "exited": exited, "wall_s": exited - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "artifact_mb": (tracing.bytes_under(out) / 2**20) if out.exists() else 0.0,
        "digests": None,
    }
    if proc.returncode != 0:
        sample["problems"] = [f"exit code {proc.returncode}"]
    else:
        sample["digests"], sample["problems"] = checks.judge(out, check,
                                                             store.reference(threads))
        store.remember(threads, sample["digests"])
    shutil.rmtree(out, ignore_errors=True)
    return sample


def traced_metrics(sample: dict, spans_path: Path) -> tuple[dict, dict]:
    """Close the root span at the reaped exit time, verify the self times
    add up to the traced wall time, and derive the layer metrics."""
    if not spans_path.exists():
        sample["problems"].append("traced run wrote no spans")
        return dict.fromkeys(tracing.UNITS, 0.0), {"threads": None}
    dump = json.loads(spans_path.read_text())
    spans = dump["spans"]
    spans[0]["end"] = sample["exited"]
    metrics = tracing.layer_metrics(spans)
    own = tracing.self_times(spans)
    if abs(sum(own) - metrics["trace.wall_s"]) > 1e-6 or min(own) < -1e-6:
        sample["problems"].append(f"self times sum to {sum(own)}, wall "
                                  f"{metrics['trace.wall_s']}, min {min(own)}")
    return metrics, dump["blas"]


def trace(run, work: Path, cli_args: list[str], child_env: dict,
          threads) -> tuple[dict, list[dict], dict]:
    """The traced runs, at the default threading and with one OpenBLAS
    thread; their layer metrics, samples and findings."""
    settings = {"": (child_env, threads),
                ".blas1": ({**child_env, "OPENBLAS_NUM_THREADS": "1"}, 1)}
    metrics, samples, findings = {}, [], {}
    for suffix, (env, blas_threads) in settings.items():
        spans_path = work / f"spans{suffix}.json"
        sample = run([sys.executable, str(BENCH_DIR / "tracing.py"), "{spawned}",
                      str(spans_path), *cli_args], env=env, threads=blas_threads)
        layers, blas = traced_metrics(sample, spans_path)
        metrics.update({name + suffix: value for name, value in layers.items()})
        findings[f"openblas_threads_traced{suffix}"] = blas["threads"]
        samples.append(sample)
    # a finding, not a failure: byte-determinism holds per thread count
    findings["blas1_digests_match_default"] = samples[0]["digests"] == samples[1]["digests"]
    return metrics, samples, findings


def tail_percentile(values: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it."""
    if len(values) <= 10:
        return None
    p = int(100 * (1 - 10 / len(values)))
    return {"percentile": p, "value": float(np.percentile(values, p))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    if not (SRC / "bayes_ssi" / "cli.py").is_file():
        print(f"error: no bayes_ssi sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bayes_ssi.cli  # noqa: F401  fills the bytecode cache before timing

    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        record = work / "record.csv"
        setup_s, response_s = set_up(workload.n_samples, args.seed, record)
        env_block = environment(record)
        threads = env_block["openblas"]["threads"]
        store = DigestStore(WORK_ROOT / "digests.json",
                            f"{args.workload}/{args.seed}/{env_block['source_sha256']}")
        child_env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        cli_args = [*workload.args, "--input", record.name, "--fs", str(FS),
                    "--block-rows", str(BLOCK_ROWS), "--seed", str(args.seed),
                    "--out", "out"]
        run = partial(run_command, work=work, deadline=deadline, check=workload.check,
                      store=store)

        samples = []
        loop_start = time.monotonic()
        while not samples or time.monotonic() - loop_start < args.seconds:
            samples.append(run([sys.executable, "-m", "bayes_ssi.cli", *cli_args],
                               env=child_env, threads=threads))
        walls = [s["wall_s"] for s in samples]
        runs = list(samples)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "environment": env_block,
                  "wall_s_samples": walls, "wall_s_tail": tail_percentile(walls)}

        if args.trace:
            traced, traced_runs, findings = trace(run, work, cli_args, child_env, threads)
            runs += traced_runs
            report.update(findings)
            metrics = {**traced, "simulate.response_s": response_s}
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
            units = {"simulate.response_s": "s", "trace.overhead_s": "s",
                     **{n: tracing.UNITS[n.removesuffix(".blas1")] for n in traced}}
        else:
            metrics = {name: statistics.median(s[name] for s in samples)
                       for name in ("wall_s", "cpu_s", "peak_rss_mb", "artifact_mb")}
            metrics["setup_s"] = setup_s
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for s in runs if s["problems"])
    report["fail_frac"] = failed / len(runs)
    report["problems"] = [p for s in runs for p in s["problems"]]
    report["elapsed_s"] = time.monotonic() - started
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
