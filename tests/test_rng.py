import numpy as np
import pytest
import scipy.stats as st
from scipy.special import multigammaln

from bayes_ssi.rng import (
    NotPositiveDefiniteError,
    Rng,
    inverse_wishart_logpdf,
    log_multigamma,
    mvn_logpdf,
    sample_inverse_wishart,
    sample_inverse_wishart_pair,
    sample_mvn,
    sample_wishart,
    spd_cholesky,
    symmetrize,
    validate_spd,
    wishart_logpdf,
)

import oracles


def draw_many(fn, rng, n):
    return np.array([fn(rng) for _ in range(n)])


class TestRngStreams:
    def test_same_seed_stream_bit_identical(self):
        a = Rng(99, 3).generator.standard_normal(1000)
        b = Rng(99, 3).generator.standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(99, 0).generator.standard_normal(1000)
        b = Rng(99, 1).generator.standard_normal(1000)
        assert not np.array_equal(a, b)

    def test_streams_statistically_independent(self):
        n = 100_000
        a = Rng(7, 0).generator.standard_normal(n)
        b = Rng(7, 1).generator.standard_normal(n)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_spawn_matches_direct_construction(self):
        direct = Rng(5, 2).generator.standard_normal(10)
        spawned = Rng(5, 0).spawn(2).generator.standard_normal(10)
        assert np.array_equal(direct, spawned)

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            Rng(-1)


class TestSpdChecks:
    def test_validate_spd_accepts_identity(self):
        validate_spd(np.eye(3))

    def test_asymmetric_rejected(self):
        mat = np.eye(3)
        mat[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            validate_spd(mat)

    def test_failing_pivot_named(self):
        mat = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NotPositiveDefiniteError, match="pivot 3"):
            spd_cholesky(mat)

    def test_cholesky_factor_reconstructs(self):
        gen = np.random.default_rng(0)
        base = gen.standard_normal((5, 5))
        mat = base @ base.T + 5 * np.eye(5)
        chol = spd_cholesky(mat)
        assert np.allclose(chol @ chol.T, mat)


class TestSampleMvn:
    def test_identity_case_moments(self):
        # 1e5 draws: sample mean within 0.02 of zero, sample cov within
        # 0.05 of identity in Frobenius norm
        rng = Rng(11, 0)
        draws = np.array([sample_mvn(rng, np.zeros(2), np.eye(2))
                          for _ in range(100_000)])
        mean = draws.mean(axis=0)
        cov = np.cov(draws.T)
        assert np.all(np.abs(mean) < 0.02)
        assert np.linalg.norm(cov - np.eye(2)) < 0.05

    def test_diag_cov_marginal_variances(self):
        rng = Rng(12, 0)
        n = 100_000
        draws = np.array([sample_mvn(rng, np.zeros(2), np.diag([4.0, 1.0]))
                          for _ in range(n // 10)])
        # variance of the variance estimate: Var(s^2) ~ 2 sigma^4 / n
        for k, var in enumerate([4.0, 1.0]):
            se = var * np.sqrt(2.0 / (draws.shape[0] - 1))
            assert abs(draws[:, k].var(ddof=1) - var) < 3 * se

    def test_determinism(self):
        a = sample_mvn(Rng(3, 1), np.array([1.0, 2.0]), np.eye(2))
        b = sample_mvn(Rng(3, 1), np.array([1.0, 2.0]), np.eye(2))
        assert np.array_equal(a, b)

    def test_non_pd_cov_names_pivot(self):
        with pytest.raises(NotPositiveDefiniteError, match="pivot"):
            sample_mvn(Rng(0), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            sample_mvn(Rng(0), np.zeros(3), np.eye(2))


class TestSampleWishart:
    def test_mean_matches_dof_times_scale(self):
        rng = Rng(21, 0)
        n = 20_000
        draws = np.array([sample_wishart(rng, np.eye(2), 5.0) for _ in range(n)])
        se = oracles.mc_standard_error(draws)
        assert np.all(np.abs(draws.mean(axis=0) - 5.0 * np.eye(2)) < 3 * se + 1e-12)

    def test_scalar_reduces_to_gamma(self):
        # Wishart(scale=[2], dof=3) in 1-d is Gamma(shape 1.5, scale 4)
        rng = Rng(22, 0)
        n = 50_000
        draws = np.array([sample_wishart(rng, np.array([[2.0]]), 3.0)[0, 0]
                          for _ in range(n)])
        gamma = st.gamma(a=1.5, scale=4.0)
        assert abs(draws.mean() - gamma.mean()) < 3 * draws.std(ddof=1) / np.sqrt(n)
        se_var = gamma.var() * np.sqrt(2.0 / n) * 3  # loose bound for k=2 moment
        assert abs(draws.var(ddof=1) - gamma.var()) < 10 * se_var

    def test_draws_are_spd(self):
        rng = Rng(23, 0)
        base = np.array([[2.0, 0.5], [0.5, 1.0]])
        for _ in range(20):
            validate_spd(sample_wishart(rng, base, 4.5))

    def test_dof_too_small(self):
        with pytest.raises(ValueError, match="dof"):
            sample_wishart(Rng(0), np.eye(3), 1.5)


class TestSampleInverseWishart:
    def test_mean_formula(self):
        # scale = I2, dof = 6 -> mean = I / (6 - 2 - 1) = I/3
        rng = Rng(31, 0)
        n = 50_000
        draws = np.array([sample_inverse_wishart(rng, np.eye(2), 6.0)
                          for _ in range(n)])
        se = oracles.mc_standard_error(draws)
        assert np.all(np.abs(draws.mean(axis=0) - np.eye(2) / 3.0) < 3 * se)

    def test_inverse_is_wishart_ks(self):
        # inverse of each draw ~ Wishart(scale^-1, dof): two-sample KS on
        # the (1,1) marginal at the 1% level
        n = 4000
        rng_iw = Rng(32, 0)
        rng_w = Rng(32, 1)
        scale = np.array([[2.0, 0.3], [0.3, 1.0]])
        inv_scale = np.linalg.inv(scale)
        iw_inv = np.array([np.linalg.inv(sample_inverse_wishart(rng_iw, scale, 7.0))[0, 0]
                           for _ in range(n)])
        w_direct = np.array([sample_wishart(rng_w, inv_scale, 7.0)[0, 0]
                             for _ in range(n)])
        assert st.ks_2samp(iw_inv, w_direct).pvalue > 0.01

    def test_scalar_reduces_to_inverse_gamma(self):
        # 1-d inverse Wishart(scale, dof) is InvGamma(dof/2, scale/2);
        # compare log densities pointwise
        scale, dof = 3.0, 5.0
        ig = st.invgamma(a=dof / 2.0, scale=scale / 2.0)
        for x in [0.2, 0.7, 1.5, 4.0]:
            ours = inverse_wishart_logpdf(np.array([[x]]), np.array([[scale]]), dof)
            assert ours == pytest.approx(ig.logpdf(x), rel=1e-12)

    def test_draws_are_spd(self):
        rng = Rng(33, 0)
        for _ in range(20):
            validate_spd(sample_inverse_wishart(rng, np.eye(3), 5.5))

    @pytest.mark.parametrize("dim", [1, 4, 60])
    def test_pair_is_draw_and_its_inverse(self, dim):
        # same random numbers as the single draw, and the second entry
        # inverts the first
        gen = np.random.default_rng(dim)
        base = gen.standard_normal((dim, dim))
        scale = base @ base.T + dim * np.eye(dim)
        rng_pair, rng_single = Rng(34, 0), Rng(34, 0)
        for _ in range(3):
            draw, prec = sample_inverse_wishart_pair(rng_pair, scale, dim + 3.0)
            assert np.array_equal(draw, sample_inverse_wishart(rng_single, scale,
                                                               dim + 3.0))
            assert np.array_equal(prec, prec.T)
            assert prec @ draw == pytest.approx(np.eye(dim), abs=1e-9)


class TestLogMultigamma:
    def test_equals_scipy_multigammaln(self):
        for dim in range(1, 130):
            for a in (0.5 * (dim - 1) + 0.25, 0.5 * dim + 1.0, 0.5 * dim + 37.3,
                      0.5 * (dim + 8193)):
                assert log_multigamma(a, dim) == multigammaln(a, dim), (a, dim)

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            log_multigamma(1.0, 3)


class TestLogDensities:
    def test_mvn_matches_scipy(self):
        gen = np.random.default_rng(4)
        base = gen.standard_normal((3, 3))
        cov = base @ base.T + 3 * np.eye(3)
        mean = gen.standard_normal(3)
        x = gen.standard_normal(3)
        assert mvn_logpdf(x, mean, cov) == pytest.approx(
            st.multivariate_normal(mean, cov).logpdf(x), rel=1e-12)

    def test_wishart_matches_scipy(self):
        gen = np.random.default_rng(5)
        base = gen.standard_normal((2, 2))
        scale = base @ base.T + 2 * np.eye(2)
        x = symmetrize(np.array([[3.0, 0.4], [0.4, 1.5]]))
        assert wishart_logpdf(x, scale, 6.0) == pytest.approx(
            st.wishart(df=6.0, scale=scale).logpdf(x), rel=1e-12)

    def test_inverse_wishart_matches_scipy(self):
        scale = np.array([[2.0, 0.3], [0.3, 1.2]])
        x = np.array([[0.8, 0.1], [0.1, 0.5]])
        assert inverse_wishart_logpdf(x, scale, 7.0) == pytest.approx(
            st.invwishart(df=7.0, scale=scale).logpdf(x), rel=1e-12)
