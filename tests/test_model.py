import dataclasses

import numpy as np
import pytest

from bayes_ssi.model import Conditionals, block_diagonal, default_priors, view_slices

import oracles
from explicit import block_precision, explicit_kernel, hankel_stats, weight_conditional


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
            hankel_stats(np.zeros((5, 10)), (2, 2))

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="no columns"):
            hankel_stats(np.zeros((4, 0)), (2, 2))

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


def _spd(gen, dim):
    base = gen.standard_normal((dim, dim))
    return base @ base.T / dim + 0.5 * np.eye(dim)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestWeightBasis:
    """The per-block weight basis against the one dense eigendecomposition
    of ``oracles.weight_basis_dense``, on a block-diagonal noise precision."""

    def _setup(self, seed, view_dims, coupled):
        gen = np.random.default_rng(seed)
        total = sum(view_dims)
        weight_cov = (_spd(gen, total) if coupled
                      else block_diagonal([_spd(gen, dim) for dim in view_dims]))
        priors = dataclasses.replace(default_priors(*view_dims, 3), weight_cov=weight_cov)
        prec = block_diagonal([_spd(gen, dim) for dim in view_dims])
        stats = hankel_stats(gen.standard_normal((total, 10)), view_dims)
        return gen, priors, prec, Conditionals(stats, priors)

    def test_coupling_prior_matches_dense_bit_for_bit(self):
        _, priors, prec, conditionals = self._setup(5, (4, 6), coupled=True)
        assert priors.factor_slices == [slice(0, 10)]
        basis, lam = conditionals.weight_basis(prec)
        dense_basis, dense_lam = oracles.weight_basis_dense(priors, prec)
        assert np.array_equal(basis, dense_basis)
        assert np.array_equal(lam, dense_lam)

    @pytest.mark.parametrize("seed,view_dims", [(6, (4, 6)), (7, (5, 5)), (8, (1, 3))])
    def test_uncoupled_blocks_match_dense(self, seed, view_dims):
        gen, priors, prec, conditionals = self._setup(seed, view_dims, coupled=False)
        views = view_slices(view_dims)
        assert priors.factor_slices == views
        basis, lam = conditionals.weight_basis(prec)
        assert not any(np.any(basis[a, b]) for a in views for b in views if a != b)
        total = sum(view_dims)
        prior_prec = np.linalg.inv(priors.weight_cov)
        assert np.max(np.abs(basis.T @ prior_prec @ basis - np.eye(total))) < 1e-10
        assert np.max(np.abs(basis.T @ prec @ basis - np.diag(lam))) < 1e-10 * np.max(lam)
        # column i's covariance B diag(e_i) B^T, e_i = 1 / (s_i lam + 1)
        dense_basis, dense_lam = oracles.weight_basis_dense(priors, prec)
        sq_sums = gen.uniform(0.5, 50.0, 3)
        _, eigs = conditionals.weight_factors(prec, sq_sums)
        dense_eigs = 1.0 / (np.outer(sq_sums, dense_lam) + 1.0)
        for e, e_dense in zip(eigs, dense_eigs):
            assert _rel((basis * e) @ basis.T, (dense_basis * e_dense) @ dense_basis.T) < 1e-10
