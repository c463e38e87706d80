import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from bayes_ssi.rng import Rng
from bayes_ssi.simulate import TimeSeries, build_shear_frame, discretize, simulate_response, to_continuous_ss
from bayes_ssi.subspace import (
    HankelStats,
    IllConditionedError,
    build_hankel,
    cca,
    chol_with_jitter,
    covariance_blocks,
    matrix_sqrt,
    modal_from_state_matrix,
    observability_controllability,
    realization_from_observability,
    ssi_cov,
)

import oracles


def random_spd(gen, dim, jitter=1.0):
    base = gen.standard_normal((dim, dim))
    return base @ base.T + jitter * dim * np.eye(dim)


class TestBuildHankel:
    def test_single_channel_layout(self):
        ts = TimeSeries(data=np.array([[1.0, 2, 3, 4, 5, 6]]), fs=1.0)
        hp = build_hankel(ts, 1, center=False)
        assert hp.past == pytest.approx(np.array([[1.0, 2, 3, 4, 5]]))
        assert hp.future == pytest.approx(np.array([[2.0, 3, 4, 5, 6]]))
        assert hp.n_cols == 5

    def test_two_channel_row_order(self):
        data = np.vstack([np.arange(1.0, 9.0), np.arange(11.0, 19.0)])
        ts = TimeSeries(data=data, fs=1.0)
        hp = build_hankel(ts, 2, center=False)
        assert hp.past.shape == (4, 5)
        # row order: ch1 lag0, ch2 lag0, ch1 lag1, ch2 lag1
        assert hp.past[0] == pytest.approx(data[0, 0:5])
        assert hp.past[1] == pytest.approx(data[1, 0:5])
        assert hp.past[2] == pytest.approx(data[0, 1:6])
        assert hp.past[3] == pytest.approx(data[1, 1:6])
        # future picks up at lag j
        assert hp.future[0] == pytest.approx(data[0, 2:7])

    def test_bridge_configuration_shapes(self):
        # 7 accelerometers, 8192 samples: halves are l*j x (n - 2j + 1)
        gen = np.random.default_rng(0)
        ts = TimeSeries(data=gen.standard_normal((7, 8192)), fs=100.0)
        hp = build_hankel(ts, 5)
        assert hp.past.shape == (35, 8192 - 10 + 1)
        assert hp.future.shape == (35, 8183)

    def test_too_short_errors_with_minimum(self):
        ts = TimeSeries(data=np.zeros((2, 7)), fs=1.0)
        with pytest.raises(ValueError, match="at least 8"):
            build_hankel(ts, 4)

    def test_centering_default(self):
        gen = np.random.default_rng(1)
        ts = TimeSeries(data=gen.standard_normal((2, 50)) + 5.0, fs=1.0)
        hp = build_hankel(ts, 3)
        assert np.allclose(hp.past.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(hp.future.mean(axis=1), 0.0, atol=1e-12)


class TestHankelStats:
    @settings(max_examples=80, deadline=None)
    @given(l=st.integers(1, 5), j=st.integers(1, 6), center=st.booleans(),
           seed=st.integers(0, 2**32 - 1), offset=st.floats(-1e3, 1e3),
           draw=st.data())
    def test_record_statistics_match_explicit_hankel(self, l, j, center, seed,
                                                     offset, draw):
        n = draw.draw(st.integers(2 * j, 300), label="n_samples")
        gen = np.random.default_rng(seed)
        data = offset + gen.standard_normal((l, n)) * gen.uniform(0.1, 10.0, (l, 1))
        ts = TimeSeries(data=data, fs=1.0)
        hp = build_hankel(ts, j, center=center)
        x = np.vstack([hp.future, hp.past])
        centred = x - x.mean(axis=1, keepdims=True)
        stats = HankelStats.from_record(ts, j, center=center)

        assert stats.n_cols == hp.n_cols
        assert stats.view_dims == (l * j, l * j)
        spread = np.max(np.abs(data - data.mean(axis=1, keepdims=True)))
        gram_scale = hp.n_cols * spread**2
        assert np.max(np.abs(stats.gram - centred @ centred.T)) <= 1e-12 * gram_scale
        sum_scale = hp.n_cols * np.max(np.abs(data))
        assert (np.max(np.abs(stats.n_cols * stats.row_mean - x.sum(axis=1)))
                <= 1e-12 * sum_scale)

    def test_covariance_blocks_match_hankel_products(self):
        gen = np.random.default_rng(4)
        ts = TimeSeries(data=gen.standard_normal((3, 400)) + 2.0, fs=1.0)
        for center in (True, False):
            hp = build_hankel(ts, 4, center=center)
            cb = HankelStats.from_record(ts, 4, center=center).cov_blocks()
            n = hp.n_cols
            assert cb.past_past == pytest.approx(hp.past @ hp.past.T / n, rel=1e-12)
            assert cb.future_future == pytest.approx(hp.future @ hp.future.T / n,
                                                     rel=1e-12)
            assert cb.future_past == pytest.approx(hp.future @ hp.past.T / n,
                                                   rel=1e-12)


class TestCovarianceBlocks:
    def test_identical_views(self):
        data = np.vstack([np.sin(np.arange(40.0)), np.cos(np.arange(40.0))])
        ts = TimeSeries(data=data, fs=1.0)
        hp = build_hankel(ts, 2, center=False)
        hp_same = type(hp)(past=hp.future, future=hp.future, n_channels=2,
                           block_rows=2, centred=False)
        cb = covariance_blocks(hp_same)
        assert cb.future_past == pytest.approx(cb.future_future)
        assert cb.past_past == pytest.approx(cb.future_future)

    def test_hand_computed_two_by_two(self):
        # Yp = [[1, -1], [1, 1]] over 2 columns: Yp Yp^T / 2 = I
        yp = np.array([[1.0, -1.0], [1.0, 1.0]])
        hp_kwargs = dict(past=yp, future=yp, n_channels=2, block_rows=1,
                         centred=False)
        from bayes_ssi.subspace import HankelPair
        cb = covariance_blocks(HankelPair(**hp_kwargs))
        assert cb.past_past == pytest.approx(np.eye(2))

    def test_independent_white_channels_cross_covariance_vanishes(self):
        gen = np.random.default_rng(2)
        n = 40_000
        ts = TimeSeries(data=gen.standard_normal((2, n)), fs=1.0)
        hp = build_hankel(ts, 2)
        cb = covariance_blocks(hp)
        assert np.max(np.abs(cb.future_past)) < 4.0 / np.sqrt(hp.n_cols)

    def test_cross_norm_bound(self):
        gen = np.random.default_rng(3)
        ts = TimeSeries(data=gen.standard_normal((3, 500)), fs=1.0)
        cb = covariance_blocks(build_hankel(ts, 3))
        cross = np.linalg.norm(cb.future_past, 2)
        auto = np.sqrt(np.linalg.norm(cb.past_past, 2)
                       * np.linalg.norm(cb.future_future, 2))
        assert cross <= auto * (1 + 1e-12)


class TestMatrixSqrt:
    def test_identity(self):
        assert matrix_sqrt(np.eye(3)) == pytest.approx(np.eye(3))

    def test_diagonal(self):
        assert matrix_sqrt(np.diag([4.0, 9.0])) == pytest.approx(np.diag([2.0, 3.0]))

    def test_random_spd_reconstruction(self):
        gen = np.random.default_rng(4)
        mat = random_spd(gen, 5)
        factor = matrix_sqrt(mat)
        assert np.tril(factor) == pytest.approx(factor)
        assert np.max(np.abs(factor @ factor.T - mat)) < 1e-10 * np.max(np.abs(mat))

    def test_jitter_ladder_fails_with_condition_report(self):
        mat = np.diag([1.0, -1.0])
        with pytest.raises(IllConditionedError, match="condition number"):
            chol_with_jitter(mat, "test matrix")


class TestCca:
    def test_zero_cross_covariance(self):
        _, corr, _ = cca(np.eye(3), np.eye(3), np.zeros((3, 3)))
        assert corr == pytest.approx(np.zeros(3), abs=1e-14)

    def test_identical_variables(self):
        _, corr, _ = cca(np.eye(3), np.eye(3), np.eye(3))
        assert corr == pytest.approx(np.ones(3))

    def test_matches_generalized_eig_oracle(self):
        gen = np.random.default_rng(5)
        auto_x = random_spd(gen, 3)
        auto_y = random_spd(gen, 3)
        # construct a valid joint covariance so correlations are in [0, 1]
        joint = random_spd(gen, 6)
        auto_x, auto_y = joint[:3, :3], joint[3:, 3:]
        cross = joint[:3, 3:]
        _, corr, _ = cca(auto_x, auto_y, cross)
        expected = oracles.cca_generalized_eig_oracle(auto_x, auto_y, cross)
        assert corr == pytest.approx(expected, abs=1e-10)

    def test_invariance_under_invertible_transforms(self):
        gen = np.random.default_rng(6)
        joint = random_spd(gen, 8)
        ax, ay, cxy = joint[:4, :4], joint[4:, 4:], joint[:4, 4:]
        t1 = gen.standard_normal((4, 4)) + 4 * np.eye(4)
        t2 = gen.standard_normal((4, 4)) + 4 * np.eye(4)
        _, corr, _ = cca(ax, ay, cxy)
        _, corr_t, _ = cca(t1 @ ax @ t1.T, t2 @ ay @ t2.T, t1 @ cxy @ t2.T)
        assert corr_t == pytest.approx(corr, abs=1e-8)

    def test_ill_conditioned_reported(self):
        bad = np.diag([1.0, 0.0])
        bad[0, 1] = bad[1, 0] = 1.0  # indefinite, unfixable by tiny jitter
        with pytest.raises(IllConditionedError):
            cca(bad, np.eye(2), np.zeros((2, 2)))


class TestRealization:
    def test_forward_construction_recovers_state_matrix(self):
        gen = np.random.default_rng(7)
        a0 = np.array([[0.8, 0.3], [-0.3, 0.8]])
        c0 = gen.standard_normal((2, 2))
        obs = oracles.observability_forward(a0, c0, 6)
        a, c_out, _ = realization_from_observability(obs, 2)
        assert np.sort_complex(np.linalg.eigvals(a)) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(a0)), abs=1e-8)
        assert c_out == pytest.approx(c0)

    def test_scalar_shift(self):
        obs = np.array([[1.0], [0.5], [0.25], [0.125]])
        a, c_out, resid = realization_from_observability(obs, 1)
        assert a == pytest.approx(np.array([[0.5]]))
        assert c_out == pytest.approx(np.array([[1.0]]))
        assert resid >= 0.0

    def test_random_orthonormal_residual_nonnegative(self):
        gen = np.random.default_rng(8)
        q, _ = np.linalg.qr(gen.standard_normal((4, 2)))
        _, _, resid = realization_from_observability(q, 2)
        assert resid >= 0.0

    def test_rank_deficient_top_rejected(self):
        obs = np.zeros((6, 2))
        obs[:, 0] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            realization_from_observability(obs, 2)


class TestModalExtraction:
    def test_sdof_roundtrip(self):
        # forward construct Ad = expm(Ac dt) for f = 1 Hz, zeta = 0.01
        f0, zeta = 1.0, 0.01
        omega = 2 * np.pi * f0
        ac = np.array([[0.0, 1.0], [-omega**2, -2 * zeta * omega]])
        dt = 0.02
        ad = expm(ac * dt)
        modal = modal_from_state_matrix(ad, np.array([[1.0, 0.0]]), dt)
        keep = ~modal.real_pole
        assert modal.frequencies[keep] == pytest.approx([f0], rel=1e-10)
        assert modal.damping_ratios[keep] == pytest.approx([zeta], rel=1e-10)

    def test_identity_state_matrix_flagged(self):
        modal = modal_from_state_matrix(np.eye(2), np.ones((1, 2)), 0.1)
        assert np.all(modal.real_pole)
        assert modal.frequencies == pytest.approx(np.zeros(2))

    def test_negative_real_pole_flagged(self):
        a = np.diag([-0.5, 0.4])
        modal = modal_from_state_matrix(a, np.ones((1, 2)), 0.1)
        assert np.all(modal.real_pole)
        # the negative pole lands at the Nyquist frequency
        assert modal.frequencies.max() >= 0.5 / 0.1 / 2

    def test_zero_eigenvalue_dropped_with_count(self):
        a = np.diag([0.0, 0.5])
        with pytest.warns(UserWarning, match="dropped 1"):
            modal = modal_from_state_matrix(a, np.ones((1, 2)), 0.1)
        assert modal.n_dropped == 1
        assert modal.n_modes == 1


class TestSsiCov:
    def test_full_rank_reconstruction(self):
        gen = np.random.default_rng(9)
        ts = TimeSeries(data=gen.standard_normal((2, 2000)), fs=1.0)
        hp = build_hankel(ts, 2)
        cb = covariance_blocks(hp)
        obs, ctrb, _ = observability_controllability(cb, cb.future_past.shape[0])
        err = np.linalg.norm(obs @ ctrb - cb.future_past, "fro")
        assert err < 1e-8 * np.linalg.norm(cb.future_past, "fro")

    def test_benchmark_frequencies_within_two_percent(self, benchmark_system,
                                                       benchmark_ts_full):
        _, modal = ssi_cov(benchmark_ts_full, 15, 8)
        keep = ~modal.real_pole
        freqs = np.sort(modal.frequencies[keep])
        oracle = benchmark_system["oracle_freqs"]
        assert freqs.size == 4
        assert np.all(np.abs(freqs - oracle) / oracle < 0.02)

    def test_sdof_noise_free(self):
        mass_mat, damp, stiff = build_shear_frame(1, 1.0, 250.0)
        css = to_continuous_ss(mass_mat, damp, stiff, 1e-4, 0.0)
        dss = discretize(css, 0.02)
        ts = simulate_response(dss, 2**14, Rng(13, 0))
        _, modal = ssi_cov(ts, 10, 2)
        keep = ~modal.real_pole
        freqs, _ = oracles.proportional_damping_oracle(mass_mat, damp, stiff)
        assert modal.frequencies[keep] == pytest.approx(freqs, rel=0.01)

    def test_eigenvalues_invariant_under_state_rotation(self):
        gen = np.random.default_rng(10)
        a0 = np.array([[0.9, 0.2], [-0.2, 0.9]])
        c0 = gen.standard_normal((2, 2))
        obs = oracles.observability_forward(a0, c0, 5)
        rot = gen.standard_normal((2, 2)) + 2 * np.eye(2)
        a1, _, _ = realization_from_observability(obs, 2)
        a2, _, _ = realization_from_observability(obs @ rot, 2)
        assert np.sort_complex(np.linalg.eigvals(a1)) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(a2)), abs=1e-8)

    def test_frequencies_below_nyquist(self, benchmark_ts_full):
        _, modal = ssi_cov(benchmark_ts_full, 10, 6)
        assert np.all(modal.frequencies < benchmark_ts_full.fs / 2 + 1e-9)

    def test_order_exceeding_half_height_rejected(self, small_ts):
        with pytest.raises(ValueError, match="order"):
            ssi_cov(small_ts, 3, 13)

    def test_odd_order_allowed(self, small_ts):
        # odd truncation leaves an unpaired eigenvalue; conjugate-pair
        # filtering flags the straggler as a real pole
        _, modal = ssi_cov(small_ts, 10, 7)
        assert modal.n_modes >= 3
        assert np.count_nonzero(modal.real_pole) >= 1
