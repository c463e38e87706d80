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
    canonical_weights,
    cca,
    chol_with_jitter,
    modal_parameters,
    shift_invariance,
    ssi_cov,
    warm_start_point,
)

import oracles
from explicit import hankel_stats


def classical(ts, block_rows, order):
    """``ssi_cov`` on the centred Hankel statistics of ``ts``."""
    return ssi_cov(HankelStats.from_record(ts, block_rows), order, ts.channels,
                   1.0 / ts.fs)


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
            stats = HankelStats.from_record(ts, 4, center=center)
            n = hp.n_cols
            cov = stats.raw_gram() / n
            assert cov[12:, 12:] == pytest.approx(hp.past @ hp.past.T / n, rel=1e-12)
            assert cov[:12, :12] == pytest.approx(hp.future @ hp.future.T / n, rel=1e-12)
            assert cov[:12, 12:] == pytest.approx(hp.future @ hp.past.T / n, rel=1e-12)


class TestCovarianceBlocks:
    """The blocks of the raw stacked Gram over N_cols that the baseline
    factorizes: future-future, past-past and future-past."""

    def test_identical_views(self):
        data = np.vstack([np.sin(np.arange(40.0)), np.cos(np.arange(40.0))])
        ts = TimeSeries(data=data, fs=1.0)
        hp = build_hankel(ts, 2, center=False)
        stats = hankel_stats(np.vstack([hp.future, hp.future]), (4, 4))
        cov = stats.raw_gram() / stats.n_cols
        assert cov[:4, 4:] == pytest.approx(cov[:4, :4])
        assert cov[4:, 4:] == pytest.approx(cov[:4, :4])

    def test_hand_computed_two_by_two(self):
        # Yp = [[1, -1], [1, 1]] over 2 columns: Yp Yp^T / 2 = I
        yp = np.array([[1.0, -1.0], [1.0, 1.0]])
        stats = hankel_stats(np.vstack([yp, yp]), (2, 2))
        assert stats.raw_gram()[2:, 2:] / stats.n_cols == pytest.approx(np.eye(2))

    def test_independent_white_channels_cross_covariance_vanishes(self):
        gen = np.random.default_rng(2)
        n = 40_000
        ts = TimeSeries(data=gen.standard_normal((2, n)), fs=1.0)
        stats = HankelStats.from_record(ts, 2)
        cross = stats.raw_gram()[:4, 4:] / stats.n_cols
        assert np.max(np.abs(cross)) < 4.0 / np.sqrt(stats.n_cols)

    def test_cross_norm_bound(self):
        gen = np.random.default_rng(3)
        ts = TimeSeries(data=gen.standard_normal((3, 500)), fs=1.0)
        stats = HankelStats.from_record(ts, 3)
        cov = stats.raw_gram() / stats.n_cols
        cross = np.linalg.norm(cov[:9, 9:], 2)
        auto = np.sqrt(np.linalg.norm(cov[9:, 9:], 2) * np.linalg.norm(cov[:9, :9], 2))
        assert cross <= auto * (1 + 1e-12)


class TestMatrixSqrt:
    """The Cholesky square root with a jitter ladder that ``cca`` uses."""

    def test_identity(self):
        factor = chol_with_jitter(np.eye(3))
        assert factor == pytest.approx(np.eye(3))

    def test_diagonal(self):
        factor = chol_with_jitter(np.diag([4.0, 9.0]))
        assert factor == pytest.approx(np.diag([2.0, 3.0]))

    def test_random_spd_reconstruction(self):
        gen = np.random.default_rng(4)
        mat = random_spd(gen, 5)
        factor = chol_with_jitter(mat)
        assert np.tril(factor) == pytest.approx(factor)
        assert np.max(np.abs(factor @ factor.T - mat)) < 1e-10 * np.max(np.abs(mat))

    def test_jitter_logged_with_name_and_level(self, caplog):
        with caplog.at_level("WARNING", logger="bayes_ssi.subspace"):
            chol_with_jitter(np.eye(3), "spd matrix")
            factor = chol_with_jitter(np.ones((2, 2)), "test matrix")
        assert np.all(np.isfinite(factor))
        assert [r.getMessage() for r in caplog.records] == [
            "test matrix is not positive definite: added diagonal jitter "
            "1e-12 x trace/dim = 1e-12"]

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

    def test_non_finite_cross_covariance_rejected(self):
        cross = np.zeros((2, 2))
        cross[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            cca(np.eye(2), np.eye(2), cross)


class TestCanonicalWeights:
    """One factorization serves the classical baseline and the warm start."""

    def test_warm_start_weights_are_the_baseline_observability(self, small_ts):
        # on centred statistics the two covariances coincide, so the warm
        # start's first-view weights are the observability ssi_cov factors
        stats = HankelStats.from_record(small_ts, 10)
        h = stats.view_dims[0]
        weights, mean, _ = warm_start_point(stats, 8)
        obs = canonical_weights(stats.raw_gram() / stats.n_cols, h, 8)[:h]
        assert np.array_equal(weights[:h], obs)
        assert np.array_equal(mean, np.zeros(stats.dim))

    def test_uncentred_warm_start_factors_the_centred_covariance(self, small_ts):
        # a channel offset the size of the response separates the centred
        # covariance from the one about zero
        offset = small_ts.data.std(axis=1)[:, None]
        ts = TimeSeries(data=small_ts.data + offset, fs=small_ts.fs)
        stats = HankelStats.from_record(ts, 10, center=False)
        h = stats.view_dims[0]
        weights, mean, _ = warm_start_point(stats, 8)
        assert np.array_equal(weights, canonical_weights(stats.gram / stats.n_cols, h, 8))
        about_zero = canonical_weights(stats.raw_gram() / stats.n_cols, h, 8)
        assert not np.allclose(np.abs(weights), np.abs(about_zero))
        assert np.array_equal(mean, stats.row_mean)

    def test_noise_blocks_are_the_residual_auto_covariances(self):
        gen = np.random.default_rng(15)
        x = gen.standard_normal((5, 5)) @ gen.standard_normal((5, 200)) + 1.0
        stats = hankel_stats(x, (2, 3))
        weights, _, noise = warm_start_point(stats, 2)
        cov = stats.gram / stats.n_cols
        for view, blk in zip((slice(0, 2), slice(2, 5)), noise):
            resid = cov[view, view] - weights[view] @ weights[view].T
            resid = 0.5 * (resid + resid.T)
            dim = resid.shape[0]
            expected = resid + 1e-8 * np.trace(resid) / dim * np.eye(dim)
            assert np.array_equal(blk, expected)

    @pytest.mark.parametrize("order", [0, 5])
    def test_order_outside_view_dim_rejected(self, order):
        gen = np.random.default_rng(16)
        stats = hankel_stats(gen.standard_normal((8, 100)), (4, 4))
        with pytest.raises(ValueError, match=r"order must be in \[1, 4\]"):
            warm_start_point(stats, order)

    def test_order_bounded_by_the_smaller_view(self):
        gen = np.random.default_rng(17)
        stats = hankel_stats(gen.standard_normal((5, 100)), (3, 2))
        with pytest.raises(ValueError, match=r"order must be in \[1, 2\]"):
            warm_start_point(stats, 3)
        assert warm_start_point(stats, 2)[0].shape == (5, 2)


class TestRealization:
    def test_forward_construction_recovers_state_matrix(self):
        gen = np.random.default_rng(7)
        a0 = np.array([[0.8, 0.3], [-0.3, 0.8]])
        c0 = gen.standard_normal((2, 2))
        obs = oracles.observability_forward(a0, c0, 6)
        (a,), degenerate = shift_invariance(obs[None], 2)
        assert not degenerate[0]
        assert np.sort_complex(np.linalg.eigvals(a)) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(a0)), abs=1e-8)

    def test_scalar_shift(self):
        obs = np.array([[1.0], [0.5], [0.25], [0.125]])
        (a,), _ = shift_invariance(obs[None], 1)
        assert a == pytest.approx(np.array([[0.5]]))

    def test_random_orthonormal_residual_nonnegative(self):
        gen = np.random.default_rng(8)
        q, _ = np.linalg.qr(gen.standard_normal((4, 2)))
        (a,), _ = shift_invariance(q[None], 2)
        # least squares: the shift residual is orthogonal to the shifted block
        residual = q[:-2] @ a - q[2:]
        assert q[:-2].T @ residual == pytest.approx(np.zeros((2, 2)), abs=1e-12)

    def test_stack_matches_one_matrix_at_a_time(self):
        # shift_invariance on a stack gives each matrix's own solve bit for
        # bit, and flags rank-deficient, non-finite and too-short draws
        gen = np.random.default_rng(11)
        good = [oracles.observability_forward(gen.uniform(-0.9, 0.9, (4, 4)),
                                              gen.standard_normal((3, 4)), 5)
                for _ in range(3)]
        flat = good[0].copy()
        flat[:, 1] = flat[:, 0]
        blown = good[1].copy()
        blown[4, 2] = np.inf
        stack = np.stack([good[0], flat, good[1], blown, good[2]])
        a, degenerate = shift_invariance(stack, 3)
        assert degenerate.tolist() == [False, True, False, True, False]
        assert np.all(np.isnan(a[degenerate]))
        for k in range(5):
            a_k, degenerate_k = shift_invariance(stack[k][None], 3)
            assert degenerate_k[0] == degenerate[k]
            assert np.array_equal(a[k], a_k[0], equal_nan=True)
        # 2 block rows of 3 channels leave 3 shifted rows for 4 states
        _, short = shift_invariance(stack[:, :6], 3)
        assert short.all()

    def test_one_svd_matches_pinv_bit_for_bit(self):
        # the rank test and the solve share one SVD; the state matrices are
        # pinv's bit for bit, and the mask is the one of pinv's singular values
        gen = np.random.default_rng(12)
        stack = gen.standard_normal((200, 20, 6))
        stack[::7, :, 5] = stack[::7, :, 4]
        stack[3::11, :, 1] *= 1e-14
        a, degenerate = shift_invariance(stack, 4)
        svals = np.linalg.svd(stack[:, :-4], compute_uv=False)
        assert np.array_equal(degenerate, svals[:, 5] <= 1e-12 * svals[:, 0])
        assert 0 < degenerate.sum() < 200
        for k in np.flatnonzero(~degenerate):
            expected = np.linalg.pinv(stack[k, :-4], rcond=1e-12) @ stack[k, 4:]
            assert np.array_equal(a[k], expected)


class TestModalExtraction:
    def test_sdof_roundtrip(self):
        # forward construct Ad = expm(Ac dt) for f = 1 Hz, zeta = 0.01
        f0, zeta = 1.0, 0.01
        omega = 2 * np.pi * f0
        ac = np.array([[0.0, 1.0], [-omega**2, -2 * zeta * omega]])
        dt = 0.02
        ad = expm(ac * dt)
        (freqs,), (damping,), _, (real_pole,), (present,) = modal_parameters(
            ad[None], np.array([[[1.0, 0.0]]]), dt)
        keep = present & ~real_pole
        assert freqs[keep] == pytest.approx([f0], rel=1e-10)
        assert damping[keep] == pytest.approx([zeta], rel=1e-10)

    def test_identity_state_matrix_flagged(self):
        (freqs,), _, _, (real_pole,), (present,) = modal_parameters(
            np.eye(2)[None], np.ones((1, 1, 2)), 0.1)
        assert present.all() and real_pole.all()
        assert freqs == pytest.approx(np.zeros(2))

    def test_negative_real_pole_flagged(self):
        a = np.diag([-0.5, 0.4])
        (freqs,), _, _, (real_pole,), (present,) = modal_parameters(
            a[None], np.ones((1, 1, 2)), 0.1)
        assert present.all() and real_pole.all()
        # the negative pole lands at the Nyquist frequency
        assert freqs.max() >= 0.5 / 0.1 / 2

    def test_zero_eigenvalue_dropped_with_count(self, caplog):
        a = np.diag([0.0, 0.5])
        with caplog.at_level("WARNING", logger="bayes_ssi.subspace"):
            _, _, _, _, (present,) = modal_parameters(a[None], np.ones((1, 1, 2)), 0.1)
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 1 zero eigenvalue(s) with undefined log"]
        assert present.tolist() == [True, False]

    def test_stack_rows_match_one_matrix_at_a_time(self, caplog):
        # a stack mixing complex pairs, real poles and a zero eigenvalue
        gen = np.random.default_rng(12)
        rot = np.array([[0.9, 0.3], [-0.3, 0.9]])
        mats = [np.block([[rot, np.zeros((2, 2))], [np.zeros((2, 2)), np.diag(d)]])
                for d in ([0.5, -0.2], [0.0, 0.7], [0.8, 0.1])]
        mats.append(gen.standard_normal((4, 4)))
        outs = gen.standard_normal((4, 3, 4))
        with caplog.at_level("WARNING", logger="bayes_ssi.subspace"):
            freqs, damping, shapes, real_pole, present = modal_parameters(
                np.stack(mats), outs, 0.02)
        assert [r.getMessage() for r in caplog.records] == [
            "dropped 1 zero eigenvalue(s) with undefined log"]
        assert present.sum(axis=1).tolist()[:3] == [3, 2, 3]
        for k, (a, c_out) in enumerate(zip(mats, outs)):
            with np.errstate(all="ignore"):
                (f_one,), (d_one,), (s_one,), (r_one,), (p_one,) = modal_parameters(
                    a[None], c_out[None], 0.02)
            n = int(p_one.sum())
            assert present[k, :n].all() and not present[k, n:].any()
            assert np.array_equal(present[k], p_one)
            assert np.array_equal(freqs[k], f_one)
            assert np.array_equal(damping[k], d_one)
            assert np.array_equal(real_pole[k], r_one)
            assert shapes[k] == pytest.approx(s_one, rel=1e-14)
            assert not np.any(freqs[k, n:]) and not np.any(shapes[k, n:])
            assert np.all(np.diff(freqs[k, :n]) >= 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_eigenvalues_only_match_full_extraction(self, seed, caplog):
        # random state matrices mix complex pairs and real poles of either
        # sign; a zero row in every fifth gives an exact zero eigenvalue
        gen = np.random.default_rng(seed)
        n, d, l = 60, 6, 3
        a = 0.5 * gen.standard_normal((n, d, d))
        a[::5, gen.integers(d)] = 0.0
        c_out = gen.standard_normal((n, l, d))
        with caplog.at_level("WARNING", logger="bayes_ssi.subspace"):
            full = modal_parameters(a, c_out, 0.02)
            only = modal_parameters(a, c_out, 0.02, shapes=False)
        freqs, damping, shapes, real_pole, present = only
        assert [r.getMessage() for r in caplog.records] == [
            f"dropped {n // 5} zero eigenvalue(s) with undefined log"] * 2
        assert shapes.shape == (n, d, 0)
        assert np.array_equal(present, full[4]) and np.array_equal(real_pole, full[3])
        assert real_pole.any() and (present & ~real_pole).any()
        assert freqs == pytest.approx(full[0], rel=1e-10, abs=1e-10)
        assert damping == pytest.approx(full[1], rel=1e-10, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 4),
           l=st.integers(1, 5))
    def test_invariant_under_similarity_transform(self, seed, n_modes, l):
        # (T A T^-1, C T^-1) realizes the same system as (A, C): same
        # frequencies, damping and mode shapes for a well-conditioned T.
        # The modal basis and T both have singular values in [0.5, 2]: the
        # eigenvalues of A move by about cond(basis) * eps under rounding,
        # and damping ratios near radius 0.99 magnify that a hundredfold, so
        # an unbounded basis (cond ~ 1e4) alone breaks the 1e-9 agreement
        gen = np.random.default_rng(seed)

        def well_conditioned(dim):
            q1, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
            q2, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
            return q1 @ np.diag(gen.uniform(0.5, 2.0, dim)) @ q2

        angles = 0.2 + np.cumsum(gen.uniform(0.15, 0.5, n_modes))
        radii = gen.uniform(0.85, 0.99, n_modes)
        dim = 2 * n_modes
        blocks = np.zeros((dim, dim))
        for k, (ang, rad) in enumerate(zip(angles, radii)):
            blocks[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rad * np.array(
                [[np.cos(ang), np.sin(ang)], [-np.sin(ang), np.cos(ang)]])
        basis = well_conditioned(dim)
        a = basis @ blocks @ np.linalg.inv(basis)
        c_out = gen.standard_normal((l, dim))
        t = well_conditioned(dim)
        t_inv = np.linalg.inv(t)

        freqs, damping, shapes, _, present = modal_parameters(
            np.stack([a, t @ a @ t_inv]), np.stack([c_out, c_out @ t_inv]), 0.02)
        assert present.sum(axis=1).tolist() == [n_modes, n_modes]
        assert freqs[1] == pytest.approx(freqs[0], rel=1e-9)
        assert damping[1] == pytest.approx(damping[0], rel=1e-9)
        for k in range(n_modes):
            a_k, b_k = shapes[0, k], shapes[1, k]
            mac = abs(np.vdot(a_k, b_k)) ** 2 / (np.vdot(a_k, a_k).real
                                                 * np.vdot(b_k, b_k).real)
            assert mac >= 1.0 - 1e-9


class TestSsiCov:
    def test_full_rank_reconstruction(self):
        gen = np.random.default_rng(9)
        ts = TimeSeries(data=gen.standard_normal((2, 2000)), fs=1.0)
        stats = HankelStats.from_record(ts, 2)
        weights = canonical_weights(stats.raw_gram() / stats.n_cols, 4, 4)
        obs, ctrb = weights[:4], weights[4:].T
        cross = stats.raw_gram()[:4, 4:] / stats.n_cols
        err = np.linalg.norm(obs @ ctrb - cross, "fro")
        assert err < 1e-8 * np.linalg.norm(cross, "fro")

    def test_benchmark_frequencies_within_two_percent(self, benchmark_system,
                                                       benchmark_ts_full):
        modal = classical(benchmark_ts_full, 15, 8)
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
        modal = classical(ts, 10, 2)
        keep = ~modal.real_pole
        freqs, _ = oracles.proportional_damping_oracle(mass_mat, damp, stiff)
        assert modal.frequencies[keep] == pytest.approx(freqs, rel=0.01)

    def test_eigenvalues_invariant_under_state_rotation(self):
        gen = np.random.default_rng(10)
        a0 = np.array([[0.9, 0.2], [-0.2, 0.9]])
        c0 = gen.standard_normal((2, 2))
        obs = oracles.observability_forward(a0, c0, 5)
        rot = gen.standard_normal((2, 2)) + 2 * np.eye(2)
        (a1, a2), _ = shift_invariance(np.stack([obs, obs @ rot]), 2)
        assert np.sort_complex(np.linalg.eigvals(a1)) == pytest.approx(
            np.sort_complex(np.linalg.eigvals(a2)), abs=1e-8)

    def test_frequencies_below_nyquist(self, benchmark_ts_full):
        modal = classical(benchmark_ts_full, 10, 6)
        assert np.all(modal.frequencies < benchmark_ts_full.fs / 2 + 1e-9)

    def test_order_exceeding_half_height_rejected(self, small_ts):
        with pytest.raises(ValueError, match="order"):
            classical(small_ts, 3, 13)

    def test_rank_deficient_shifted_block_rejected(self):
        # 4 channels at 2 block rows leave 4 shifted rows for 6 states
        gen = np.random.default_rng(14)
        ts = TimeSeries(data=gen.standard_normal((4, 500)), fs=10.0)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            classical(ts, 2, 6)

    def test_first_block_row_is_the_output_matrix(self, small_ts):
        # the baseline is the stack pipeline's row for its observability,
        # with the first block row as C, trimmed to the modes present
        stats = HankelStats.from_record(small_ts, 10)
        modal = ssi_cov(stats, 8, small_ts.channels, 1.0 / small_ts.fs)
        h = stats.view_dims[0]
        obs = canonical_weights(stats.raw_gram() / stats.n_cols, h, 8)[:h]
        a, _ = shift_invariance(obs[None], small_ts.channels)
        (freqs,), (damping,), (shapes,), (real_pole,), (present,) = modal_parameters(
            a, obs[None, :small_ts.channels], 1.0 / small_ts.fs)
        assert np.array_equal(modal.frequencies, freqs[present])
        assert np.array_equal(modal.damping_ratios, damping[present])
        assert np.array_equal(modal.real_pole, real_pole[present])
        assert np.array_equal(modal.mode_shapes, shapes[present].T)

    def test_odd_order_allowed(self, small_ts):
        # odd truncation leaves an unpaired eigenvalue; conjugate-pair
        # filtering flags the straggler as a real pole
        modal = classical(small_ts, 10, 7)
        assert modal.n_modes >= 3
        assert np.count_nonzero(modal.real_pole) >= 1
