import pytest

from bayes_ssi.rng import Rng
from bayes_ssi.simulate import (
    build_shear_frame,
    discretize,
    simulate_response,
    to_continuous_ss,
)

import oracles

# benchmark configuration: 4 floors, m = 2 kg, k = 2500 N/m,
# c = k/1000, q = 5e-5, measurement sd 0.05, fs = 50 Hz
BENCH_SEED = 1234
BENCH_FS = 50.0
BENCH_BLOCK_ROWS = 15
BENCH_ORDER = 8


@pytest.fixture(scope="session")
def benchmark_system():
    mass_mat, damp, stiff = build_shear_frame(4, 2.0, 2500.0)
    css = to_continuous_ss(mass_mat, damp, stiff, 5e-5, 0.05)
    dss = discretize(css, 1.0 / BENCH_FS)
    freqs, zetas = oracles.proportional_damping_oracle(mass_mat, damp, stiff)
    return {
        "mass": mass_mat, "damp": damp, "stiff": stiff,
        "css": css, "dss": dss,
        "oracle_freqs": freqs, "oracle_zetas": zetas,
    }


@pytest.fixture(scope="session")
def benchmark_ts_full(benchmark_system):
    """Full-length benchmark record, N = 2**16."""
    return simulate_response(benchmark_system["dss"], 2**16, Rng(BENCH_SEED, 0))


@pytest.fixture(scope="session")
def small_ts(benchmark_system):
    """Short benchmark record for cheap unit tests."""
    return simulate_response(benchmark_system["dss"], 2**11, Rng(BENCH_SEED, 0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "error", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            name = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in name:
                continue
            short = name.split("::")[-1]
            if not short.startswith("test_criterion"):
                continue
            lines.append((short, status.upper()))
    if lines:
        terminalreporter.section("acceptance criteria")
        for short, status in sorted(set(lines)):
            terminalreporter.write_line(f"{short}: {status}")
