import dataclasses

import numpy as np
import pytest
import scipy.stats as st

from bayes_ssi.gibbs import weight_column_conditional
from bayes_ssi.model import (
    ModelState,
    PriorHyper,
    StackedData,
    default_priors,
    log_joint,
    view_slices,
)
from bayes_ssi.subspace import build_hankel
from bayes_ssi.simulate import TimeSeries


def toy_state(gen, view_dims, d, n):
    total = sum(view_dims)
    noise = []
    for dim in view_dims:
        base = gen.standard_normal((dim, dim))
        noise.append(base @ base.T + dim * np.eye(dim))
    return ModelState(
        weights=gen.standard_normal((total, d)),
        mean=gen.standard_normal(total),
        noise_cov=noise,
        latent=gen.standard_normal((d, n)),
    )


class TestStackedData:
    def test_from_hankel_orders_future_first(self):
        gen = np.random.default_rng(0)
        ts = TimeSeries(data=gen.standard_normal((2, 30)), fs=1.0)
        hp = build_hankel(ts, 2, center=False)
        data = StackedData.from_hankel(hp)
        assert data.view_dims == (4, 4)
        assert data.x[:4] == pytest.approx(hp.future)
        assert data.x[4:] == pytest.approx(hp.past)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StackedData(x=np.zeros((5, 10)), view_dims=(2, 2))

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
        state = ModelState(weights=np.zeros((2, d)), mean=np.zeros(2),
                           noise_cov=noise_mean, latent=np.zeros((d, 1)))
        data = StackedData(x=np.zeros((2, 1)), view_dims=view_dims)

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
        assert log_joint(state, data, priors) == pytest.approx(expected, rel=1e-12)

    def test_matches_scipy_assembly(self):
        gen = np.random.default_rng(1)
        view_dims = (2, 3)
        d, n = 2, 4
        priors = default_priors(2, 3, d)
        state = toy_state(gen, view_dims, d, n)
        data = StackedData(x=gen.standard_normal((5, n)), view_dims=view_dims)

        expected = 0.0
        fitted = state.weights @ state.latent + state.mean[:, None]
        full_cov = np.zeros((5, 5))
        full_cov[:2, :2] = state.noise_cov[0]
        full_cov[2:, 2:] = state.noise_cov[1]
        for k in range(n):
            expected += st.multivariate_normal(fitted[:, k], full_cov).logpdf(
                data.x[:, k])
            expected += st.multivariate_normal(np.zeros(d), np.eye(d)).logpdf(
                state.latent[:, k])
        for blk, scale, dof in zip(state.noise_cov, priors.noise_scale,
                                   priors.noise_dof):
            expected += st.invwishart(df=dof, scale=scale).logpdf(blk)
        expected += st.multivariate_normal(priors.mean_loc, priors.mean_cov).logpdf(
            state.mean)
        for i in range(d):
            expected += st.multivariate_normal(priors.weight_loc,
                                               priors.weight_cov).logpdf(
                state.weights[:, i])
        assert log_joint(state, data, priors) == pytest.approx(expected, rel=1e-10)

    def test_duplicated_columns_double_data_terms(self):
        gen = np.random.default_rng(2)
        view_dims = (2, 2)
        d, n = 1, 6
        priors = default_priors(2, 2, d)
        state = toy_state(gen, view_dims, d, n)
        data = StackedData(x=gen.standard_normal((4, n)), view_dims=view_dims)

        state2 = state.copy()
        state2.latent = np.hstack([state.latent, state.latent])
        data2 = StackedData(x=np.hstack([data.x, data.x]), view_dims=view_dims)

        # parameter-prior terms do not scale with N
        zero_data = StackedData(x=np.zeros((4, 0)), view_dims=view_dims)
        zero_state = state.copy()
        zero_state.latent = np.zeros((d, 0))
        prior_part = log_joint(zero_state, zero_data, priors)

        single = log_joint(state, data, priors) - prior_part
        double = log_joint(state2, data2, priors) - prior_part
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_conditional_mean_is_local_maximum(self):
        # with the other parameters held, the weight-column conditional mean
        # maximizes the joint; finite perturbations decrease it
        gen = np.random.default_rng(3)
        view_dims = (2, 2)
        d, n = 2, 30
        priors = default_priors(2, 2, d)
        state = toy_state(gen, view_dims, d, n)
        data = StackedData(x=gen.standard_normal((4, n)), view_dims=view_dims)

        mean, _ = weight_column_conditional(state, data, priors, 0)
        state.weights[:, 0] = mean
        baseline = log_joint(state, data, priors)
        for direction in np.eye(4):
            for eps in (1e-3, 1e-2):
                bumped = state.copy()
                bumped.weights[:, 0] = mean + eps * direction
                assert log_joint(bumped, data, priors) < baseline

    def test_finite_for_valid_states(self):
        gen = np.random.default_rng(4)
        priors = default_priors(2, 2, 2)
        state = toy_state(gen, (2, 2), 2, 5)
        data = StackedData(x=gen.standard_normal((4, 5)), view_dims=(2, 2))
        assert np.isfinite(log_joint(state, data, priors))
