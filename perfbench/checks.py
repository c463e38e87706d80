"""Output checks and determinism digests for the benchmark workloads.

The oracle is the exact generalized eigenproblem det(K - w^2 M) = 0 of the
acceptance shear frame (4 floors, 2 kg per floor, two 2500 N/m columns per
storey), assembled here independently of ``bayes_ssi.simulate``.  The
tolerances are those of acceptance criteria 1, 2 and 8.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy.linalg as sla

FLOORS = 4
MASS = 2.0
STIFFNESS = 2500.0
FREQ_TOL = 0.02

# the one artifact that carries wall-clock metadata rather than results
MANIFEST = "run_manifest.json"


def oracle_frequencies() -> np.ndarray:
    """Natural frequencies (Hz, ascending) of the benchmark shear frame."""
    storey = 2.0 * STIFFNESS
    stiff = storey * (2.0 * np.eye(FLOORS) - np.eye(FLOORS, k=1) - np.eye(FLOORS, k=-1))
    stiff[-1, -1] = storey
    evals = sla.eigh(stiff, MASS * np.eye(FLOORS), eigvals_only=True)
    return np.sqrt(evals) / (2.0 * np.pi)


def _frequency_problems(found, label: str) -> list[str]:
    oracle = oracle_frequencies()
    found = np.sort(np.asarray(found, dtype=float))
    if found.size != oracle.size:
        return [f"{label}: {found.size} modes, expected {oracle.size}"]
    rel = np.abs(found - oracle) / oracle
    return [f"{label}: mode at {f:.4f} Hz is {r:.2%} from oracle {o:.4f} Hz"
            for f, o, r in zip(found, oracle, rel) if r >= FREQ_TOL]


def check_ssi(out: Path) -> list[str]:
    """Criterion 1: four complex modes, each within 2% of the oracle."""
    est = json.loads((out / "modal_estimate.json").read_text())
    freqs = [f for f, real in zip(est["frequencies_hz"], est["real_pole"]) if not real]
    return _frequency_problems(freqs, "modal_estimate")


def check_identify(out: Path, min_aligned: int) -> list[str]:
    """Criterion 2: four aligned modes with more than ``min_aligned`` draws
    each, posterior mean frequencies within 2% of the oracle."""
    modes = json.loads((out / "modes_summary.json").read_text())["modes"]
    problems = [f"mode {k}: {m['n_aligned']} aligned draws, need > {min_aligned}"
                for k, m in enumerate(modes, start=1) if m["n_aligned"] <= min_aligned]
    if problems:
        return problems
    return _frequency_problems([m["frequency_mean_hz"] for m in modes], "modes_summary")


def check_stabilise(out: Path, orders: list[int], min_count: int = 10,
                    min_run: int = 5) -> list[str]:
    """Criterion 8: no order failed, and every oracle frequency has at least
    ``min_count`` triples within 2% on ``min_run`` consecutive orders."""
    manifest = json.loads((out / MANIFEST).read_text())
    if manifest["failures"]:
        return [f"failed orders: {manifest['failures']}"]
    triples = np.loadtxt(out / "stabilisation.csv", delimiter=",", skiprows=1, ndmin=2)
    problems = []
    for f_oracle in oracle_frequencies():
        in_band = np.abs(triples[:, 1] - f_oracle) <= FREQ_TOL * f_oracle
        best = run = 0
        for order in sorted(orders):
            present = np.count_nonzero(in_band & (triples[:, 0] == order)) >= min_count
            run = run + 1 if present else 0
            best = max(best, run)
        if best < min_run:
            problems.append(f"cluster at {f_oracle:.4f} Hz persists over {best} orders")
    return problems


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every numeric artifact under ``out``, keyed by relative
    path.  ``config.json`` is hashed without its ``out`` entry, which names
    the directory rather than the result."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        if path.name == MANIFEST:
            continue
        payload = path.read_bytes()
        if path.name == "config.json":
            config = json.loads(payload)
            config.pop("out", None)
            payload = json.dumps(config, sort_keys=True).encode()
        digests[path.relative_to(out).as_posix()] = hashlib.sha256(payload).hexdigest()
    return digests


def judge(out: Path, check, reference: dict[str, str] | None) -> tuple[dict[str, str], list[str]]:
    """Run the output check and compare digests with a reference run at
    the same seed and BLAS thread count (``None`` when this is the first).
    Returns this run's digests and its problems; a run passes when the list
    is empty."""
    problems = check(out)
    digests = digest(out)
    if reference is not None and digests != reference:
        changed = sorted(k for k in digests.keys() | reference.keys()
                         if digests.get(k) != reference.get(k))
        problems.append(f"digest mismatch against the first run: {changed}")
    return digests, problems
