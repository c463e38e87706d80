import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from bayes_ssi import simulate
from bayes_ssi.rng import Rng
from bayes_ssi.simulate import (
    DiscreteSS,
    TimeSeries,
    build_shear_frame,
    discretize,
    simulate_response,
    stationary_state_covariance,
    to_continuous_ss,
    van_loan_discretize,
)
from bayes_ssi.spectral import welch_psd


class TestBuildShearFrame:
    def test_four_storey_stiffness_entries(self):
        _, _, stiff = build_shear_frame(4, 2.0, 2500.0)
        assert stiff[0, 0] == 2 * (2500 + 2500) == 10_000
        assert stiff[3, 3] == 2 * 2500 == 5_000
        assert stiff[0, 1] == -5_000

    def test_single_floor_reduction(self):
        mass_mat, damp, stiff = build_shear_frame(1, 3.0, 100.0)
        assert mass_mat == pytest.approx(np.array([[3.0]]))
        assert stiff == pytest.approx(np.array([[200.0]]))
        assert damp == pytest.approx(np.array([[0.2]]))

    def test_oracle_frequencies_in_band(self, benchmark_system):
        freqs = benchmark_system["oracle_freqs"]
        assert freqs.shape == (4,)
        assert np.all((freqs > 0) & (freqs < 25.0))
        assert np.all(np.diff(freqs) > 0)

    def test_matrix_structure(self):
        mass_mat, damp, stiff = build_shear_frame(3, 2.0, 10.0)
        assert np.allclose(stiff, stiff.T)
        assert np.allclose(damp, stiff / 1000.0)
        assert np.count_nonzero(mass_mat - np.diag(np.diag(mass_mat))) == 0
        # strictly tridiagonal
        assert stiff[0, 2] == 0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_shear_frame(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_shear_frame(2, -1.0, 1.0)


class TestToContinuousSS:
    def test_sdof_undamped_eigenvalues(self):
        # m = 1, k = (2 pi)^2, c = 0 gives eigenvalues +/- 2 pi i (1 Hz)
        css = to_continuous_ss(np.eye(1), np.zeros((1, 1)),
                               (2 * np.pi) ** 2 * np.eye(1), 1.0, 0.0)
        eigs = np.sort_complex(np.linalg.eigvals(css.a))
        assert eigs == pytest.approx(np.array([-2j * np.pi, 2j * np.pi]), abs=1e-10)

    def test_benchmark_frame_damping_matches_oracle(self, benchmark_system):
        eigs = np.linalg.eigvals(benchmark_system["css"].a)
        eigs = eigs[eigs.imag > 0]
        freqs = np.sort(np.abs(eigs) / (2 * np.pi))
        zetas = (-eigs.real / np.abs(eigs))[np.argsort(np.abs(eigs))]
        # proportional damping: damped eigenfrequency |lambda| = omega_n
        assert freqs == pytest.approx(benchmark_system["oracle_freqs"], rel=1e-10)
        assert zetas == pytest.approx(benchmark_system["oracle_zetas"], rel=1e-10)

    def test_measurement_noise_covariance(self, benchmark_system):
        assert benchmark_system["css"].meas_noise_cov == pytest.approx(
            0.0025 * np.eye(4))

    def test_singular_mass_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            to_continuous_ss(np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0, 0.0)


class TestVanLoan:
    def test_scalar_ou_analytic(self):
        # dx = -lam x dt + noise of density q:
        # Ad = exp(-lam dt), Qd = q (1 - exp(-2 lam dt)) / (2 lam)
        lam, q, dt = 0.7, 0.3, 0.05
        ad, qd = van_loan_discretize(np.array([[-lam]]), np.array([[1.0]]), q, dt)
        assert ad[0, 0] == pytest.approx(np.exp(-lam * dt), rel=1e-12)
        assert qd[0, 0] == pytest.approx(q * (1 - np.exp(-2 * lam * dt)) / (2 * lam),
                                         rel=1e-12)

    def test_integrator_limit(self):
        # lam -> 0: Ad = 1, Qd = q dt
        q, dt = 0.5, 0.1
        ad, qd = van_loan_discretize(np.array([[0.0]]), np.array([[1.0]]), q, dt)
        assert ad[0, 0] == pytest.approx(1.0)
        assert qd[0, 0] == pytest.approx(q * dt, rel=1e-12)

    def test_ad_is_expm(self, benchmark_system):
        css = benchmark_system["css"]
        ad, _ = van_loan_discretize(css.a, css.noise_input, css.forcing_density,
                                    0.02)
        assert np.allclose(ad, expm(css.a * 0.02), rtol=1e-10)

    def test_benchmark_frame_lyapunov_vs_simulation(self, benchmark_system):
        # stationary covariance from P = A P A^T + Q matches the sample
        # covariance of a very long state simulation within 5%
        css = benchmark_system["css"]
        dss = discretize(css, 0.02)
        pstat = stationary_state_covariance(dss)
        gen = np.random.default_rng(99)
        factor = np.linalg.cholesky(dss.process_noise_cov
                                    + 1e-18 * np.eye(dss.a.shape[0]))
        n = 1_000_000
        state = np.zeros(dss.a.shape[0])
        acc = np.zeros_like(pstat)
        noise = factor @ gen.standard_normal((dss.a.shape[0], n))
        second = np.zeros_like(pstat)
        for k in range(n):
            state = dss.a @ state + noise[:, k]
            if k > 1000:  # discard start-up
                second += np.outer(state, state)
        second /= (n - 1001)
        scale = np.max(np.abs(pstat))
        assert np.max(np.abs(second - pstat)) < 0.05 * scale

    def test_qd_psd(self, benchmark_system):
        _, qd = van_loan_discretize(benchmark_system["css"].a,
                                    benchmark_system["css"].noise_input,
                                    5e-5, 0.02)
        evals = np.linalg.eigvalsh(qd)
        assert evals.min() >= -1e-10 * evals.max()

    def test_bad_dt(self):
        for dt in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                van_loan_discretize(np.array([[-1.0]]), np.array([[1.0]]), 1.0, dt)


class TestSimulateResponse:
    def test_zero_noise_zero_output(self):
        dss = DiscreteSS(a=0.5 * np.eye(2), process_noise_cov=np.zeros((2, 2)),
                         c_out=np.eye(2), meas_noise_cov=np.zeros((2, 2)), dt=0.1)
        ts = simulate_response(dss, 100, Rng(0, 0))
        assert np.all(ts.data == 0.0)

    def test_channel_variance_matches_lyapunov(self, benchmark_system,
                                               benchmark_ts_full):
        # predicted output variance diag(C P C^T + R) within 10%
        dss = benchmark_system["dss"]
        pstat = stationary_state_covariance(dss)
        predicted = np.diag(dss.c_out @ pstat @ dss.c_out.T + dss.meas_noise_cov)
        observed = benchmark_ts_full.data.var(axis=1)
        assert np.all(np.abs(observed - predicted) < 0.10 * predicted)

    def test_determinism(self, benchmark_system):
        a = simulate_response(benchmark_system["dss"], 500, Rng(5, 0))
        b = simulate_response(benchmark_system["dss"], 500, Rng(5, 0))
        assert np.array_equal(a.data, b.data)

    def test_spectral_radius_invariant(self, benchmark_system):
        rho = np.max(np.abs(np.linalg.eigvals(benchmark_system["dss"].a)))
        assert rho < 1.0

    def test_unstable_discrete_system_rejected(self):
        with pytest.raises(ValueError, match="spectral radius"):
            DiscreteSS(a=1.01 * np.eye(1), process_noise_cov=np.eye(1),
                       c_out=np.eye(1), meas_noise_cov=np.eye(1), dt=0.1)

    def test_welch_peaks_near_oracle_frequencies(self, benchmark_system):
        # noiseless-measurement record: spectrum peaks land within one bin
        # of each oracle natural frequency
        css = to_continuous_ss(benchmark_system["mass"], benchmark_system["damp"],
                               benchmark_system["stiff"], 5e-5, 0.0)
        dss = discretize(css, 1.0 / 50.0)
        ts = simulate_response(dss, 2**16, Rng(77, 0))
        spec = welch_psd(ts, segment_length=512, overlap=0.5)
        df = spec.frequencies[1] - spec.frequencies[0]
        total = spec.psd_sum
        for f in benchmark_system["oracle_freqs"]:
            band = np.abs(spec.frequencies - f) < 5 * df
            peak_bin = spec.frequencies[band][np.argmax(total[band])]
            assert abs(peak_bin - f) <= df + 1e-12


def lightly_damped_frame(system):
    """The benchmark frame at a tenth of its damping: spectral radius
    about 0.9997, so a state error decays over thousands of samples."""
    css = to_continuous_ss(system["mass"], system["damp"] / 10, system["stiff"], 5e-5, 0.05)
    return discretize(css, 1.0 / 50.0)


def non_normal_system():
    """A stable Jordan-like A whose powers grow twentyfold before decaying."""
    return DiscreteSS(a=np.array([[0.9, 5.0], [0.0, 0.9]]),
                      process_noise_cov=np.array([[1.0, 0.3], [0.3, 0.5]]),
                      c_out=np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 2.0]]),
                      meas_noise_cov=0.01 * np.eye(3), dt=0.1)


SYSTEMS = {
    "benchmark": lambda system: system["dss"],
    "lightly_damped": lightly_damped_frame,
    "non_normal": lambda system: non_normal_system(),
}


class TestChunkedRecursion:
    """The chunked state recursion against the per-sample loop it replaced
    (``oracles.simulate_response_loop``): the same normals, so the records
    agree up to rounding and the generator ends in the same state."""

    @staticmethod
    def check_against_loop(dss, n, seed=11):
        rng, loop_rng = Rng(seed, 0), Rng(seed, 0)
        ts = simulate_response(dss, n, rng)
        expected = oracles.simulate_response_loop(dss, n, loop_rng)
        assert ts.data.shape == expected.data.shape == (dss.c_out.shape[0], n)
        scale = np.max(np.abs(expected.data))
        assert np.max(np.abs(ts.data - expected.data)) <= 1e-12 * scale
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_systems_are_lightly_damped_and_non_normal(self, benchmark_system):
        spectral_radius = {name: np.max(np.abs(np.linalg.eigvals(make(benchmark_system).a)))
                           for name, make in SYSTEMS.items()}
        assert spectral_radius["lightly_damped"] >= 0.999
        assert spectral_radius["non_normal"] < 1.0
        a = non_normal_system().a
        assert np.linalg.norm(a @ a.T - a.T @ a) > 1.0

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("n", [1, 2, 3, 1009, 4095, 4096, 4097, 2**16])
    def test_matches_loop(self, benchmark_system, system, n):
        self.check_against_loop(SYSTEMS[system](benchmark_system), n)

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("chunk", [5, 64])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_matches_loop_at_chunk_edges(self, benchmark_system, monkeypatch, system,
                                         chunk, offset):
        # no whole chunk, exactly one, and one with one or two samples left
        # over; the state after the last sample is never output
        monkeypatch.setattr(simulate, "_chunk_length", lambda n_steps: chunk)
        self.check_against_loop(SYSTEMS[system](benchmark_system), chunk + offset)

    def test_chunk_length_near_square_root(self):
        for n in (1, 2, 3, 1009, 4096, 4097, 2**16):
            b = simulate._chunk_length(n)
            assert b * b <= n < (b + 1) ** 2

    def test_peak_memory_within_the_loops(self, benchmark_system):
        # the states overwrite the process noise, so the chunked recursion
        # allocates no N-sized array the loop did not
        def traced_peak(simulate_fn):
            tracemalloc.start()
            try:
                simulate_fn(benchmark_system["dss"], 2**16, Rng(1234, 0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        loop_peak = traced_peak(oracles.simulate_response_loop)
        assert traced_peak(simulate_response) <= loop_peak + 256 * 1024


class TestTimeSeries:
    def test_nonfinite_rejected(self):
        data = np.zeros((2, 5))
        data[1, 3] = np.inf
        with pytest.raises(ValueError):
            TimeSeries(data=data, fs=10.0)

    def test_bad_fs(self):
        with pytest.raises(ValueError):
            TimeSeries(data=np.zeros((1, 4)), fs=0.0)

    @pytest.mark.parametrize("fs", [np.nan, np.inf, -np.inf])
    def test_non_finite_fs_rejected(self, fs):
        with pytest.raises(ValueError, match="fs must be finite and positive"):
            TimeSeries(data=np.zeros((1, 4)), fs=fs)
