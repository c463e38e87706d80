"""The benchmark's traced run (perfbench/tracing.py) wraps functions at the
module attributes the CLI resolves them through.  Instrumenting the real
modules here makes a refactor that drops one of those names, or changes a
result the tracer reads, fail the test suite instead of the traced
benchmark."""

import contextlib
import importlib.util
import json
import time
from pathlib import Path

import pytest

from bayes_ssi import cli, gibbs, modal_posterior, subspace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (cli, modal_posterior, subspace, gibbs)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def restored(modules):
    """Put back every attribute of ``modules`` replaced or added inside;
    yields the snapshots taken on entry."""
    before = [dict(vars(module)) for module in modules]
    try:
        yield before
    finally:
        for module, snapshot in zip(modules, before):
            for name, value in list(vars(module).items()):
                if name not in snapshot:
                    delattr(module, name)
                elif value is not snapshot[name]:
                    setattr(module, name, snapshot[name])


def test_instrument_wraps_real_modules_and_restores():
    tracing = load_tracing()
    with restored(MODULES) as before:
        tracing.instrument(tracing.Tracer(), *MODULES)
        replaced = [{name for name, value in vars(module).items()
                     if value is not snapshot.get(name)}
                    for module, snapshot in zip(MODULES, before)]
    assert {"ingest_csv", "run_gibbs", "run_vb", "build_hankel"} <= replaced[0]
    assert "build_hankel" in replaced[2] and "cca" in replaced[3]
    for module, snapshot in zip(MODULES, before):
        assert all(vars(module)[name] is value for name, value in snapshot.items())


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced_record")
    assert cli.main(["simulate", "--samples", "2048", "--seed", "3", "--out", str(out)]) == 0
    return out / "response.csv"


# command arguments, and the draws the tracer must count as propagated: the
# requested count for vb, the retained records for gibbs (100 sweeps, 20
# burnt in); stabilise propagates in its worker processes when it has more
# than one CPU, where the tracer does not reach
TRACED = {
    "identify-vb": (("identify", "--order", "4", "--engine", "vb", "--draws", "50",
                     "--max-iter", "30"), 50),
    "identify-gibbs": (("identify", "--order", "4", "--engine", "gibbs",
                        "--samples", "100", "--burn-in", "0.2"), 80),
    "stabilise": (("stabilise", "--order", "2", "--order", "4", "--draws", "20",
                   "--max-iter", "30", "--warm-start"), None),
}


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_run_in_process(record, tmp_path, name):
    tracing = load_tracing()
    args, draws = TRACED[name]
    spans_out = tmp_path / "spans.json"
    with restored(MODULES):
        code = tracing.main([str(time.monotonic()), str(spans_out), *args,
                             "--input", str(record), "--block-rows", "8", "--seed", "1",
                             "--out", str(tmp_path / "out")])
    assert code == 0
    # close the root span as perfbench/run.py does when it reaps the run
    spans = json.loads(spans_out.read_text())["spans"]
    spans[0]["end"] = time.monotonic()
    own = tracing.self_times(spans)
    metrics = tracing.layer_metrics(spans)
    assert abs(sum(own) - metrics["trace.wall_s"]) <= 1e-6
    assert min(own) >= -1e-6
    if draws is not None:
        assert metrics["modal_posterior.draws"] == draws
