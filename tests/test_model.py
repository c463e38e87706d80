import dataclasses

import numpy as np
import pytest

from bayes_ssi.model import default_priors, view_slices
from bayes_ssi.subspace import HankelStats

import oracles
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
            dataclasses.replace(default_priors(4, 4, 2), noise_dof=(-6.0, -6.0))

    def test_noise_entries_must_match_view_count(self):
        # zipping would silently drop the second view's noise prior
        base = default_priors(3, 3, 2)
        for scale, dof in ((base.noise_scale, base.noise_dof[:1]),
                           (base.noise_scale[:1], base.noise_dof)):
            with pytest.raises(ValueError, match="one entry per view"):
                dataclasses.replace(base, noise_scale=scale, noise_dof=dof)


class TestLogJoint:
    def test_conditional_mean_is_local_maximum(self):
        # with the other parameters held, the weight-column conditional mean
        # maximizes the joint; finite perturbations decrease it
        gen = np.random.default_rng(3)
        view_dims = (2, 2)
        d, n = 2, 30
        priors = default_priors(2, 2, d)
        weights, mean, noise, latent = toy_state(gen, view_dims, d, n)
        x = gen.standard_normal((4, n))
        kernel, lat = explicit_kernel(x, view_dims, priors, latent)

        _, col_mean = weight_conditional(kernel, weights, mean, lat,
                                         block_precision(noise), 0)
        weights[:, 0] = col_mean
        baseline = oracles.log_joint_dense(x, latent, weights, mean, noise, priors)
        for direction in np.eye(4):
            for eps in (1e-3, 1e-2):
                bumped = weights.copy()
                bumped[:, 0] = col_mean + eps * direction
                assert oracles.log_joint_dense(x, latent, bumped, mean, noise,
                                               priors) < baseline
