"""Self-test of the benchmark's checks on small saved or synthetic outputs.

    python3 -m pytest perfbench/test_checks.py

``fixtures/identify-vb`` holds the small files of one ``identify --engine
vb`` run on the N = 2^16 acceptance record (seed 1234).  The checks must
pass it untouched and fail it after a 5% frequency shift or a flipped byte.
"""

import json
import shutil
from functools import partial
from pathlib import Path

import pytest

import checks
import tracing

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "identify-vb"
check_vb = partial(checks.check_identify, min_aligned=200)


@pytest.fixture
def artifacts(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(FIXTURE, out)
    return out


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_untouched_set_passes(artifacts):
    reference = checks.digest(FIXTURE)
    digests, problems = checks.judge(artifacts, check_vb, reference)
    assert problems == []
    assert digests == reference
    assert checks.check_ssi(artifacts) == []


def test_shifted_posterior_mean_frequency_fails(artifacts):
    def shift(summary):
        summary["modes"][1]["frequency_mean_hz"] *= 1.05

    _edit_json(artifacts / "modes_summary.json", shift)
    _, problems = checks.judge(artifacts, check_vb, reference=None)
    assert len(problems) == 1 and "modes_summary" in problems[0]


def test_shifted_classical_frequency_fails(artifacts):
    def shift(estimate):
        estimate["frequencies_hz"][0] *= 1.05

    _edit_json(artifacts / "modal_estimate.json", shift)
    assert len(checks.check_ssi(artifacts)) == 1


def test_flipped_csv_byte_fails(artifacts):
    path = artifacts / "elbo_trace.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    _, problems = checks.judge(artifacts, check_vb, checks.digest(FIXTURE))
    assert problems == ["digest mismatch against the first run: ['elbo_trace.csv']"]


def test_manifest_and_output_path_are_not_hashed(artifacts):
    _edit_json(artifacts / "run_manifest.json", lambda m: m.update(elapsed_s=0.0))
    _edit_json(artifacts / "config.json", lambda c: c.update(out="elsewhere"))
    _, problems = checks.judge(artifacts, check_vb, checks.digest(FIXTURE))
    assert problems == []


def _write_stabilisation(out: Path, shift_orders=()) -> None:
    """Ten triples at every oracle frequency on orders 2..16; the first
    mode moves 5% away on ``shift_orders``."""
    rows = []
    for order in range(2, 17, 2):
        for k, f in enumerate(checks.oracle_frequencies()):
            f = float(f) * (1.05 if k == 0 and order in shift_orders else 1.0)
            rows += [f"{order},{f!r},0.01"] * 10
    out.mkdir()
    (out / "stabilisation.csv").write_text("order,frequency_hz,damping_ratio\n"
                                           + "\n".join(rows) + "\n")
    (out / checks.MANIFEST).write_text(json.dumps({"failures": {}}))


def test_stabilisation_check_needs_five_consecutive_orders(tmp_path):
    orders = list(range(2, 17, 2))
    _write_stabilisation(tmp_path / "ok")
    assert checks.check_stabilise(tmp_path / "ok", orders) == []
    _write_stabilisation(tmp_path / "gap", shift_orders=(8, 10))
    assert len(checks.check_stabilise(tmp_path / "gap", orders)) == 1


def test_layer_self_times_add_up_to_wall():
    spans = [
        {"name": "cli", "start": 0.0, "end": 10.0, "parent": None, "counts": {}},
        {"name": "cli.startup", "start": 0.0, "end": 1.0, "parent": 0, "counts": {}},
        {"name": "cli.main", "start": 1.5, "end": 9.0, "parent": 0, "counts": {}},
        {"name": "subspace.ssi_cov", "start": 2.0, "end": 4.0, "parent": 2, "counts": {}},
        {"name": "subspace.hankel", "start": 2.5, "end": 3.0, "parent": 3,
         "counts": {"subspace.hankel_mb": 1.5}},
        {"name": "vb.engine", "start": 4.0, "end": 8.0, "parent": 2,
         "counts": {"sweeps": 8}},
    ]
    metrics = tracing.layer_metrics(spans)
    assert sum(metrics[m] for m in tracing.LAYER_SPANS) == pytest.approx(metrics["trace.wall_s"])
    assert metrics["subspace.solve_s"] == pytest.approx(1.5)
    assert metrics["subspace.hankel_s"] == pytest.approx(0.5)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["engine.ms_per_sweep"] == pytest.approx(500.0)
