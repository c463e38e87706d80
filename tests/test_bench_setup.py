"""The benchmark's set-up (perfbench/run.py ``set_up``) imports library
names the commands themselves need not keep: the simulation stream, the
CSV writer, ``Rng`` and the simulation functions.  Running it here makes a
deletion that drops one of them fail the test suite instead of the
benchmark."""

import importlib.util
import sys
from pathlib import Path

from bayes_ssi.io import ingest_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_set_up_writes_a_record(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)    # its dataclass looks it up
    try:
        spec.loader.exec_module(run)
        monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
        record = tmp_path / "record.csv"
        total_s, response_s = run.set_up(64, 1234, record)
    finally:
        for name in ("checks", "tracing"):
            sys.modules.pop(name, None)
    assert 0.0 < response_s <= total_s
    ts = ingest_csv(record, run.FS)
    assert (ts.channels, ts.n_samples) == (run.checks.FLOORS, 64)
