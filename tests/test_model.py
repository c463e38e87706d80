import dataclasses

import numpy as np
import pytest
import scipy.stats as st

from bayes_ssi.model import LatentStats, default_priors, log_joint, view_slices
from bayes_ssi.subspace import HankelStats

from explicit import block_precision, explicit_kernel, weight_conditional


def toy_state(gen, view_dims, d, n):
    """(weights, mean, per-view noise blocks, d x n latent matrix)."""
    total = sum(view_dims)
    noise = []
    for dim in view_dims:
        base = gen.standard_normal((dim, dim))
        noise.append(base @ base.T + dim * np.eye(dim))
    return (gen.standard_normal((total, d)), gen.standard_normal(total), noise,
            gen.standard_normal((d, n)))


class TestStackedData:
    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not sum to row count"):
            HankelStats.from_matrix(np.zeros((5, 10)), (2, 2))

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="no columns"):
            HankelStats.from_matrix(np.zeros((4, 0)), (2, 2))

    def test_view_slices(self):
        assert view_slices((2, 3)) == [slice(0, 2), slice(2, 5)]


class TestDefaultPriors:
    def test_benchmark_hyperparameters(self):
        # D1 = D2 = 4, d = 2: weight prior covariance I8, noise dof D_m + 2
        priors = default_priors(4, 4, 2)
        assert priors.weight_cov == pytest.approx(np.eye(8))
        assert priors.mean_cov == pytest.approx(np.eye(8))
        assert priors.noise_dof == (6.0, 6.0)
        assert priors.noise_scale[0] == pytest.approx(100.0 * np.eye(4))

    def test_bridge_preset_identity_noise_scale(self):
        priors = default_priors(35, 35, 10, noise_scale=1.0)
        assert priors.noise_scale[1] == pytest.approx(np.eye(35))

    def test_invariants_enforced(self):
        priors = default_priors(3, 5, 2)
        assert priors.dim == 8
        for scale, dof, dim in zip(priors.noise_scale, priors.noise_dof,
                                   priors.view_dims):
            assert dof > dim - 1
            np.linalg.cholesky(scale)

    def test_bad_dof_rejected(self):
        with pytest.raises(ValueError, match="noise_dof"):
            default_priors(4, 4, 2, noise_dof_offset=-10.0)

    def test_noise_entries_must_match_view_count(self):
        # zipping would silently drop the second view's noise prior
        base = default_priors(3, 3, 2)
        for scale, dof in ((base.noise_scale, base.noise_dof[:1]),
                           (base.noise_scale[:1], base.noise_dof)):
            with pytest.raises(ValueError, match="one entry per view"):
                dataclasses.replace(base, noise_scale=scale, noise_dof=dof)


class TestLogJoint:
    def test_prior_mean_state_hand_computed(self):
        # state at the prior means with X = 0, N = 1: only normalizers and
        # the inverse-Wishart densities at the prior mean survive
        d = 1
        view_dims = (1, 1)
        priors = default_priors(1, 1, d, noise_scale=2.0, noise_dof_offset=3.0)
        noise_mean = [scale / (dof - dim - 1) for scale, dof, dim in
                      zip(priors.noise_scale, priors.noise_dof, priors.view_dims)]
        kernel, lat = explicit_kernel(np.zeros((2, 1)), view_dims, priors,
                                      np.zeros((d, 1)))

        expected = 0.0
        for blk in noise_mean:
            var = blk[0, 0]
            expected += st.norm(0.0, np.sqrt(var)).logpdf(0.0)      # likelihood
            expected += st.invgamma(a=priors.noise_dof[0] / 2.0,
                                    scale=priors.noise_scale[0][0, 0] / 2.0
                                    ).logpdf(var)                    # noise prior
        expected += st.norm(0, 1).logpdf(0.0)                        # latent prior
        expected += st.multivariate_normal(np.zeros(2), np.eye(2)).logpdf(np.zeros(2))
        expected += st.multivariate_normal(np.zeros(2), np.eye(2)).logpdf(np.zeros(2))
        value = log_joint(kernel.stats, lat, np.zeros((2, d)), np.zeros(2), noise_mean,
                          priors)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_matches_scipy_assembly(self):
        gen = np.random.default_rng(1)
        view_dims = (2, 3)
        d, n = 2, 4
        priors = default_priors(2, 3, d)
        weights, mean, noise, latent = toy_state(gen, view_dims, d, n)
        x = gen.standard_normal((5, n))
        kernel, lat = explicit_kernel(x, view_dims, priors, latent)

        expected = 0.0
        fitted = weights @ latent + mean[:, None]
        full_cov = np.zeros((5, 5))
        full_cov[:2, :2] = noise[0]
        full_cov[2:, 2:] = noise[1]
        for k in range(n):
            expected += st.multivariate_normal(fitted[:, k], full_cov).logpdf(x[:, k])
            expected += st.multivariate_normal(np.zeros(d), np.eye(d)).logpdf(
                latent[:, k])
        for blk, scale, dof in zip(noise, priors.noise_scale, priors.noise_dof):
            expected += st.invwishart(df=dof, scale=scale).logpdf(blk)
        expected += st.multivariate_normal(priors.mean_loc, priors.mean_cov).logpdf(mean)
        for i in range(d):
            expected += st.multivariate_normal(priors.weight_loc,
                                               priors.weight_cov).logpdf(weights[:, i])
        value = log_joint(kernel.stats, lat, weights, mean, noise, priors)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_duplicated_columns_double_data_terms(self):
        gen = np.random.default_rng(2)
        view_dims = (2, 2)
        d, n = 1, 6
        priors = default_priors(2, 2, d)
        weights, mean, noise, latent = toy_state(gen, view_dims, d, n)
        x = gen.standard_normal((4, n))
        single_kernel, single_lat = explicit_kernel(x, view_dims, priors, latent)
        double_kernel, double_lat = explicit_kernel(np.hstack([x, x]), view_dims, priors,
                                                    np.hstack([latent, latent]))

        # parameter-prior terms do not scale with N
        zero_stats = HankelStats(gram=np.zeros((4, 4)), row_mean=np.zeros(4), n_cols=0,
                                 view_dims=view_dims)
        zero_lat = LatentStats(cross=np.zeros((4, d)), gram=np.zeros((d, d)),
                               total=np.zeros(d))
        prior_part = log_joint(zero_stats, zero_lat, weights, mean, noise, priors)

        single = log_joint(single_kernel.stats, single_lat, weights, mean, noise,
                           priors) - prior_part
        double = log_joint(double_kernel.stats, double_lat, weights, mean, noise,
                           priors) - prior_part
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_conditional_mean_is_local_maximum(self):
        # with the other parameters held, the weight-column conditional mean
        # maximizes the joint; finite perturbations decrease it
        gen = np.random.default_rng(3)
        view_dims = (2, 2)
        d, n = 2, 30
        priors = default_priors(2, 2, d)
        weights, mean, noise, latent = toy_state(gen, view_dims, d, n)
        kernel, lat = explicit_kernel(gen.standard_normal((4, n)), view_dims, priors,
                                      latent)

        _, col_mean = weight_conditional(kernel, weights, mean, lat,
                                         block_precision(noise), 0)
        weights[:, 0] = col_mean
        baseline = log_joint(kernel.stats, lat, weights, mean, noise, priors)
        for direction in np.eye(4):
            for eps in (1e-3, 1e-2):
                bumped = weights.copy()
                bumped[:, 0] = col_mean + eps * direction
                assert log_joint(kernel.stats, lat, bumped, mean, noise, priors) < baseline

    def test_finite_for_valid_states(self):
        gen = np.random.default_rng(4)
        priors = default_priors(2, 2, 2)
        weights, mean, noise, latent = toy_state(gen, (2, 2), 2, 5)
        kernel, lat = explicit_kernel(gen.standard_normal((4, 5)), (2, 2), priors, latent)
        assert np.isfinite(log_joint(kernel.stats, lat, weights, mean, noise, priors))
