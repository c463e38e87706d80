"""The benchmark's traced run (perfbench/tracing.py) wraps functions at the
module attributes the CLI resolves them through.  Instrumenting the real
modules here makes a refactor that drops one of those names fail the test
suite instead of the traced benchmark."""

import importlib.util
from pathlib import Path

from bayes_ssi import cli, gibbs, modal_posterior, subspace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_real_modules_and_restores():
    tracing = load_tracing()
    modules = (cli, modal_posterior, subspace, gibbs)
    before = [dict(vars(module)) for module in modules]
    try:
        tracing.instrument(tracing.Tracer(), *modules)
        replaced = [{name for name, value in vars(module).items()
                     if value is not snapshot.get(name)}
                    for module, snapshot in zip(modules, before)]
    finally:
        for module, snapshot in zip(modules, before):
            for name, value in list(vars(module).items()):
                if name not in snapshot:
                    delattr(module, name)
                elif value is not snapshot[name]:
                    setattr(module, name, snapshot[name])
    assert {"ingest_csv", "run_gibbs", "run_vb", "build_hankel"} <= replaced[0]
    assert "build_hankel" in replaced[2] and "cca" in replaced[3]
    for module, snapshot in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in snapshot.items())
