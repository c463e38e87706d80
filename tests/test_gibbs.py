import dataclasses

import numpy as np
import pytest

from scipy.linalg import solve_triangular

from bayes_ssi.gibbs import (
    GibbsChain,
    GibbsConfig,
    run_gibbs,
    _Kernel,
)
from bayes_ssi.model import LatentStats, PriorHyper, default_priors, latent_natural
from bayes_ssi.rng import (
    NotPositiveDefiniteError,
    Rng,
    chol_inverse,
    sample_inverse_wishart_pair,
)
from bayes_ssi.subspace import HankelStats, warm_start_point

import oracles
from explicit import (
    block_precision,
    explicit_kernel,
    hankel_stats,
    mean_conditional,
    weight_conditional,
)


def single_view_priors(dim, d, noise_scale=2.0, noise_dof=8.0,
                       weight_scale=1.0, mean_scale=1.0):
    return PriorHyper(
        mean_loc=np.zeros(dim), mean_cov=mean_scale * np.eye(dim),
        weight_loc=np.zeros(dim), weight_cov=weight_scale * np.eye(dim),
        noise_scale=(noise_scale * np.eye(dim),), noise_dof=(noise_dof,),
        latent_dim=d, view_dims=(dim,),
    )


def toy_state(gen, view_dims, d, n, noise=None):
    """(weights, mean, per-view noise blocks, d x n latent matrix)."""
    total = sum(view_dims)
    if noise is None:
        noise = []
        for dim in view_dims:
            base = gen.standard_normal((dim, dim))
            noise.append(base @ base.T + dim * np.eye(dim))
    return (gen.standard_normal((total, d)), gen.standard_normal(total), noise,
            gen.standard_normal((d, n)))


class TestNoiseConditional:
    def test_zero_state_reduces_to_prior_update(self):
        # W = 0, mean = 0, X = 0: conditional is exactly
        # InverseWishart(K0, nu0 + N); check the parameters and the
        # empirical mean of draws against the formula
        n, dim = 12, 2
        priors = default_priors(dim, dim, 1, noise_scale=3.0)
        kernel, lat = explicit_kernel(np.zeros((2 * dim, n)), (dim, dim), priors,
                                      np.zeros((1, n)))
        conds = kernel.noise_conditionals(
            kernel.residual_scatter(np.zeros((2 * dim, 1)), np.zeros(2 * dim), lat))
        for (scale, dof), scale0, dof0 in zip(conds, priors.noise_scale,
                                              priors.noise_dof):
            assert scale == pytest.approx(scale0)
            assert dof == dof0 + n

        rng = Rng(1, 0)
        scale, dof = conds[0]
        draws = np.array([sample_inverse_wishart_pair(rng, scale, dof)[0]
                          for _ in range(10_000)])
        expected = scale / (dof - dim - 1)
        se = oracles.mc_standard_error(draws)
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 3 * se)

    def test_scalar_conjugate_update(self):
        # one view of dimension 1: textbook normal-variance conjugacy,
        # posterior InvGamma((nu0 + N)/2, (k0 + sum r^2)/2)
        gen = np.random.default_rng(2)
        n = 40
        priors = single_view_priors(1, 1, noise_scale=2.5, noise_dof=5.0)
        x = gen.standard_normal((1, n))
        weights, mean, _, latent = toy_state(gen, (1,), 1, n)
        resid = x - mean[:, None] - weights @ latent
        kernel, lat = explicit_kernel(x, (1,), priors, latent)
        (scale, dof), = kernel.noise_conditionals(kernel.residual_scatter(weights, mean,
                                                                          lat))
        assert dof == 5.0 + n
        assert scale[0, 0] == pytest.approx(2.5 + float(np.sum(resid**2)), rel=1e-12)

    def test_scale_grows_linearly_with_n(self):
        gen = np.random.default_rng(3)
        priors = default_priors(2, 2, 1)
        base = gen.standard_normal((4, 2000))
        weights, mean, _, latent = toy_state(gen, (2, 2), 1, 2000)

        def scatter_trace(n):
            kernel, lat = explicit_kernel(base[:, :n], (2, 2), priors, latent[:, :n])
            conds = kernel.noise_conditionals(kernel.residual_scatter(weights, mean, lat))
            return sum(np.trace(s) - np.trace(s0)
                       for (s, _), s0 in zip(conds, priors.noise_scale))

        assert scatter_trace(2000) / scatter_trace(500) == pytest.approx(4.0, rel=0.25)


class TestMeanConditional:
    def test_zero_residual_case(self):
        # X = W Z exactly and prior mean 0: conditional mean 0 and
        # covariance (N Sigma^-1 + I)^-1
        gen = np.random.default_rng(4)
        n, d = 25, 2
        weights = gen.standard_normal((4, d))
        latent = gen.standard_normal((d, n))
        priors = default_priors(2, 2, d)
        kernel, lat = explicit_kernel(weights @ latent, (2, 2), priors, latent)
        noise = [0.5 * np.eye(2), 2.0 * np.eye(2)]
        cov, mean = mean_conditional(kernel, weights, lat, block_precision(noise))
        assert mean == pytest.approx(np.zeros(4), abs=1e-10)
        prec = np.diag([n / 0.5, n / 0.5, n / 2.0, n / 2.0]) + np.eye(4)
        assert cov == pytest.approx(np.linalg.inv(prec))

    def test_large_n_approaches_demeaned_average(self):
        # Sigma = I, prior I: posterior mean -> sample mean of (x - W z)
        gen = np.random.default_rng(5)
        n = 10_000
        priors = default_priors(1, 1, 1)
        weights = gen.standard_normal((2, 1))
        latent = gen.standard_normal((1, n))
        truth = np.array([0.7, -0.4])
        x = weights @ latent + truth[:, None] + gen.standard_normal((2, n))
        kernel, lat = explicit_kernel(x, (1, 1), priors, latent)
        _, mean = mean_conditional(kernel, weights, lat, np.eye(2))
        target = (x - weights @ latent).mean(axis=1)
        assert mean == pytest.approx(target, abs=3 / np.sqrt(n))

    def test_scalar_formula(self):
        # one view, D = 1: hand-derived normal posterior for the mean
        gen = np.random.default_rng(6)
        n = 9
        priors = single_view_priors(1, 1, mean_scale=4.0)
        x = gen.standard_normal((1, n)) + 2.0
        weights, _, noise, latent = toy_state(gen, (1,), 1, n, noise=[np.array([[0.5]])])
        kernel, lat = explicit_kernel(x, (1,), priors, latent)
        cov, mean = mean_conditional(kernel, weights, lat, block_precision(noise))
        demeaned = x - weights @ latent
        prec = n / 0.5 + 1 / 4.0
        expected_mean = (demeaned.sum() / 0.5) / prec
        assert cov[0, 0] == pytest.approx(1 / prec, rel=1e-12)
        assert mean[0] == pytest.approx(expected_mean, rel=1e-12)


class TestWeightConditional:
    def test_no_information_returns_prior(self):
        gen = np.random.default_rng(7)
        n, d = 10, 2
        priors = default_priors(2, 2, d)
        weights, mean, noise, latent = toy_state(gen, (2, 2), d, n)
        latent[0] = 0.0
        kernel, lat = explicit_kernel(gen.standard_normal((4, n)), (2, 2), priors,
                                      latent)
        cov, col_mean = weight_conditional(kernel, weights, mean, lat,
                                           block_precision(noise), 0)
        assert col_mean == pytest.approx(priors.weight_loc)
        assert cov == pytest.approx(priors.weight_cov)

    def test_matches_ridge_regression(self):
        # d = 1, one view, Sigma = I: Bayesian linear regression with
        # design vector z: cov = (z.z I + I)^-1, mean = cov (X z)
        gen = np.random.default_rng(8)
        n, dim = 50, 3
        priors = PriorHyper(
            mean_loc=np.zeros(dim), mean_cov=np.eye(dim),
            weight_loc=np.zeros(dim), weight_cov=np.eye(dim),
            noise_scale=(np.eye(dim),), noise_dof=(dim + 2.0,),
            latent_dim=1, view_dims=(dim,))
        x = gen.standard_normal((dim, n))
        z = gen.standard_normal((1, n))
        kernel, lat = explicit_kernel(x, (dim,), priors, z)
        cov, mean = weight_conditional(kernel, np.zeros((dim, 1)), np.zeros(dim), lat,
                                       np.eye(dim), 0)
        ridge_prec = float(z[0] @ z[0]) + 1.0
        assert cov == pytest.approx(np.eye(dim) / ridge_prec)
        assert mean == pytest.approx((x @ z[0]) / ridge_prec)

    def test_consistency_against_planted_weights(self):
        # orthogonal latent rows, noiseless X = W0 Z: conditional mean of
        # each column approaches the planted column
        gen = np.random.default_rng(9)
        n, d, dim = 10_000, 2, 3
        z = gen.standard_normal((d, n))
        # orthogonalize rows
        z[1] -= (z[1] @ z[0]) / (z[0] @ z[0]) * z[0]
        w0 = gen.standard_normal((dim, d))
        x = w0 @ z
        priors = PriorHyper(
            mean_loc=np.zeros(dim), mean_cov=np.eye(dim),
            weight_loc=np.zeros(dim), weight_cov=np.eye(dim),
            noise_scale=(np.eye(dim),), noise_dof=(dim + 2.0,),
            latent_dim=d, view_dims=(dim,))
        kernel, lat = explicit_kernel(x, (dim,), priors, z)
        prec = block_precision([0.01 * np.eye(dim)])
        for i in range(d):
            cov, mean = weight_conditional(kernel, w0, np.zeros(dim), lat, prec, i)
            sd = np.sqrt(np.diag(cov))
            assert np.all(np.abs(mean - w0[:, i]) < 3 * sd + 1e-9)


class TestLatentConditional:
    def test_zero_weights_prior_fallback(self):
        gen = np.random.default_rng(10)
        n = 8
        x = gen.standard_normal((4, n))
        chol, proj = latent_natural(np.zeros((4, 2)), block_precision([np.eye(2)] * 2))
        assert chol_inverse(chol) == pytest.approx(np.eye(2))
        assert proj @ x == pytest.approx(np.zeros((2, n)))

    def test_identity_weights_algebraic_identity(self):
        # W = I, Sigma = I, mean = 0: z_n ~ N(x_n / 2, I / 2)
        gen = np.random.default_rng(11)
        n = 5
        x = gen.standard_normal((2, n))
        chol, proj = latent_natural(np.eye(2), block_precision([np.eye(1)] * 2))
        assert chol_inverse(chol) == pytest.approx(np.eye(2) / 2)
        assert proj @ x == pytest.approx(x / 2)

    def test_matches_dense_gaussian_conditioning(self):
        gen = np.random.default_rng(12)
        n, d = 6, 2
        weights, mean, noise, _ = toy_state(gen, (2, 3), d, n)
        x = gen.standard_normal((5, n))
        chol, proj = latent_natural(weights, block_precision(noise))
        means = proj @ (x - mean[:, None])
        full_cov = np.zeros((5, 5))
        full_cov[:2, :2] = noise[0]
        full_cov[2:, 2:] = noise[1]
        for k in range(n):
            mean_o, cov_o = oracles.gaussian_condition_oracle(weights, mean, full_cov,
                                                              x[:, k])
            assert means[:, k] == pytest.approx(mean_o, abs=1e-10)
        assert chol_inverse(chol) == pytest.approx(cov_o, abs=1e-10)


class TestRunGibbs:
    def test_record_count_benchmark_protocol(self):
        cfg = GibbsConfig(n_samples=5000, burn_in_fraction=0.2)
        assert cfg.n_records == 4000

    def test_record_count_small(self):
        cfg = GibbsConfig(n_samples=10, burn_in_fraction=0.2, thinning=1)
        assert cfg.n_records == 8
        assert GibbsConfig(n_samples=10, burn_in_fraction=0.2, thinning=3).n_records == 2

    def test_thinning_past_every_kept_sweep_rejected(self):
        # 8 sweeps after burn-in, every 20th kept: no record would survive
        with pytest.raises(ValueError, match="retention policy keeps no samples"):
            GibbsConfig(n_samples=10, thinning=20)

    def test_chain_reproducible(self):
        gen = np.random.default_rng(13)
        stats = hankel_stats(gen.standard_normal((4, 40)), (2, 2))
        priors = default_priors(2, 2, 1)
        cfg = GibbsConfig(n_samples=30, seed=21)
        a = run_gibbs(stats, priors, cfg)
        b = run_gibbs(stats, priors, cfg)
        assert np.array_equal(a.weight_samples, b.weight_samples)
        assert np.array_equal(a.mean_samples, b.mean_samples)
        for blk_a, blk_b in zip(a.noise_samples, b.noise_samples):
            assert np.array_equal(blk_a, blk_b)

    def test_records_finite_and_spd(self):
        gen = np.random.default_rng(14)
        stats = hankel_stats(gen.standard_normal((4, 60)), (2, 2))
        priors = default_priors(2, 2, 2)
        chain = run_gibbs(stats, priors, GibbsConfig(n_samples=50, seed=3))
        assert np.all(np.isfinite(chain.weight_samples))
        assert np.all(np.isfinite(chain.mean_samples))
        for m in range(2):
            assert chain.noise_samples[m].shape == (chain.n_records, 3)
            blocks = chain.noise_matrices(m)
            assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
            for blk in blocks:
                np.linalg.cholesky(blk)

    def test_records_are_the_packed_noise_draws(self, monkeypatch):
        # each kept record unpacks to exactly the noise blocks the sweep
        # drew; unequal views make a misordered triangle show
        gen = np.random.default_rng(16)
        stats = hankel_stats(gen.standard_normal((5, 40)), (2, 3))
        drawn = []
        transition = _Kernel.transition

        def recording(self, *args):
            out = transition(self, *args)
            drawn.append(out[2])
            return out

        monkeypatch.setattr(_Kernel, "transition", recording)
        config = GibbsConfig(n_samples=12, burn_in_fraction=0.25, thinning=2, seed=5)
        chain = run_gibbs(stats, default_priors(2, 3, 1), config)
        kept = drawn[config.n_burn + config.thinning - 1::config.thinning]
        assert len(kept) == chain.n_records == 4
        for m, dim in enumerate((2, 3)):
            assert chain.noise_samples[m].shape == (4, dim * (dim + 1) // 2)
            assert np.array_equal(chain.noise_matrices(m),
                                  np.array([blocks[m] for blocks in kept]))

    def test_noise_matrices_unpack_tril_rows_exactly(self):
        # packing in np.tril_indices order and unpacking is bit-exact on
        # exactly symmetric stacks
        gen = np.random.default_rng(17)
        full, packed = [], []
        for dim in (1, 3, 4):
            base = gen.standard_normal((6, dim, dim)) * np.exp(gen.uniform(-20, 20, (6, 1, 1)))
            sym = 0.5 * (base + base.transpose(0, 2, 1))
            rows, cols = np.tril_indices(dim)
            full.append(sym)
            packed.append(sym[:, rows, cols])
        chain = GibbsChain(weight_samples=np.zeros((6, 8, 1)), mean_samples=np.zeros((6, 8)),
                           noise_samples=packed, view_dims=(1, 3, 4),
                           config=GibbsConfig(n_samples=6, burn_in_fraction=0.0))
        for m in range(3):
            assert np.array_equal(chain.noise_matrices(m), full[m])

    def test_gram_scatter_matches_residual_scatter(self):
        gen = np.random.default_rng(15)
        n = 37
        x = gen.standard_normal((5, n)) + 2.0
        weights, mean, _, latent = toy_state(gen, (2, 3), 2, n)
        resid = x - mean[:, None] - weights @ latent
        direct = resid @ resid.T
        kernel, lat = explicit_kernel(x, (2, 3), default_priors(2, 3, 2), latent)
        blocks = kernel.residual_scatter(weights, mean, lat)
        assert len(blocks) == 2
        for block, sl in zip(blocks, kernel.slices):
            assert block == pytest.approx(direct[sl, sl], rel=1e-10)

    def test_subspace_angle_shrinks_with_data(self):
        # planted two-view model: the posterior-mean weight subspace
        # approaches the planted subspace as N grows
        gen = np.random.default_rng(16)
        dims = (4, 4)
        d = 2
        w0 = gen.standard_normal((8, d))
        priors = default_priors(4, 4, d)
        angles = []
        for n in (2**8, 2**10, 2**12):
            z = gen.standard_normal((d, n))
            x = w0 @ z + 0.3 * gen.standard_normal((8, n))
            chain = run_gibbs(hankel_stats(x, dims), priors,
                              GibbsConfig(n_samples=400, seed=5))
            w_hat = chain.weight_samples[100:].mean(axis=0)
            # largest principal angle between column spaces
            q0, _ = np.linalg.qr(w0)
            q1, _ = np.linalg.qr(w_hat)
            svals = np.linalg.svd(q0.T @ q1, compute_uv=False)
            angles.append(float(np.arccos(np.clip(svals.min(), -1, 1))))
        assert angles[1] <= angles[0] * 1.25
        assert angles[2] <= angles[1] * 1.25
        assert angles[2] < angles[0]

    def test_warm_start_runs(self):
        gen = np.random.default_rng(17)
        stats = hankel_stats(gen.standard_normal((4, 120)), (2, 2))
        priors = default_priors(2, 2, 1)
        chain = run_gibbs(stats, priors,
                          GibbsConfig(n_samples=20, seed=1, warm_start=True))
        assert chain.n_records == 16


def _relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _flat_latent_stats(lat):
    upper = np.triu_indices(lat.gram.shape[0])
    return np.concatenate([lat.cross.ravel(), lat.gram[upper], lat.total])


class TestStatisticsEngine:
    def test_draws_match_dense_explicit_path(self):
        # same latent statistics, same noise: the kernel's noise, mean and
        # weight draws equal draws from dense explicit residuals
        gen = np.random.default_rng(40)
        view_dims, d, n = (2, 3), 2, 23
        x = gen.standard_normal((5, n)) + 3.0 * gen.standard_normal(5)[:, None]
        base = gen.standard_normal((5, 5))
        priors = PriorHyper(
            mean_loc=gen.standard_normal(5), mean_cov=base @ base.T + np.eye(5),
            weight_loc=gen.standard_normal(5), weight_cov=2.0 * np.eye(5),
            noise_scale=(2.0 * np.eye(2), 3.0 * np.eye(3)), noise_dof=(5.0, 6.0),
            latent_dim=d, view_dims=view_dims)
        weights0, mean0, _, z = toy_state(gen, view_dims, d, n)
        kernel, lat = explicit_kernel(x, view_dims, priors, z)
        rng_kernel, rng_dense = Rng(5, 0), Rng(5, 0)

        weights, mean, noise, prec = kernel.transition(weights0, mean0, lat, rng_kernel)
        resid = x - mean0[:, None] - weights0 @ z
        for blk, sl, scale0, dof0 in zip(noise, (slice(0, 2), slice(2, 5)),
                                         priors.noise_scale, priors.noise_dof):
            expect, _ = sample_inverse_wishart_pair(rng_dense,
                                                    scale0 + resid[sl] @ resid[sl].T, dof0 + n)
            assert _relative_gap(blk, expect) < 1e-10
        dense_prec = np.zeros((5, 5))
        dense_prec[:2, :2] = np.linalg.inv(noise[0])
        dense_prec[2:, 2:] = np.linalg.inv(noise[1])
        assert _relative_gap(prec, dense_prec) < 1e-10
        prec = dense_prec

        def dense_draw(post_prec, rhs):
            loc = np.linalg.solve(post_prec, rhs)
            white = rng_dense.standard_normal(loc.size)
            return loc + solve_triangular(np.linalg.cholesky(post_prec).T, white,
                                          lower=False)

        mean_prior_prec = np.linalg.inv(priors.mean_cov)
        dense_mean = dense_draw(n * prec + mean_prior_prec,
                                prec @ (x - weights0 @ z).sum(axis=1)
                                + mean_prior_prec @ priors.mean_loc)
        assert _relative_gap(mean, dense_mean) < 1e-10

        dense_weights = weights0.copy()
        weight_prior_prec = np.linalg.inv(priors.weight_cov)
        for i in range(d):
            others = (x - dense_mean[:, None] - dense_weights @ z
                      + np.outer(dense_weights[:, i], z[i]))
            dense_weights[:, i] = dense_draw(
                z[i] @ z[i] * prec + weight_prior_prec,
                prec @ others @ z[i] + weight_prior_prec @ priors.weight_loc)
        assert _relative_gap(weights, dense_weights) < 1e-10

    @pytest.mark.parametrize("n, data_rank", [(9, 5), (7, 5), (4, 3), (9, 2)])
    def test_latent_statistics_match_explicit_draws(self, n, data_rank):
        # first two moments of ((X - m 1^T) Z^T, Z Z^T, Z 1) drawn from the
        # statistics agree with those of explicit latent draws; the cases
        # cover N - rank - 1 >= d (Bartlett), between 0 and d, zero
        # (N < D + 1) and a rank-deficient X
        gen = np.random.default_rng(50 + n + data_rank)
        view_dims, d, n_draws = (2, 3), 2, 20_000
        x = (gen.standard_normal((5, data_rank)) @ gen.standard_normal((data_rank, n))
             + gen.standard_normal(5)[:, None])
        weights, mean, noise, _ = toy_state(gen, view_dims, d, n)
        stats = hankel_stats(x, view_dims)
        kernel = _Kernel(stats, default_priors(2, 3, d))
        assert kernel.factor.shape[1] == min(data_rank, n - 1)
        prec = block_precision(noise)

        rng = Rng(7, 0)
        fast = np.array([_flat_latent_stats(kernel.draw_latent(weights, mean, prec, rng))
                         for _ in range(n_draws)])

        chol, proj = latent_natural(weights, prec)
        noise_map = solve_triangular(chol.T, np.eye(d), lower=False)
        latent = (proj @ (x - mean[:, None])
                  + noise_map @ gen.standard_normal((n_draws, d, n)))
        centred = x - stats.row_mean[:, None]
        explicit = np.array([_flat_latent_stats(LatentStats(
            cross=centred @ z.T, gram=z @ z.T, total=z.sum(axis=1))) for z in latent])

        for moment in (1, 2):
            a, b = fast**moment, explicit**moment
            se = np.hypot(oracles.mc_standard_error(a), oracles.mc_standard_error(b))
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) < 3.0 * se), moment

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("warm_start", [False, True])
    def test_chain_matches_dense_oracle(self, center, warm_start):
        # posterior means of mu, mu^2, W W^T and the noise blocks from
        # run_gibbs agree with the dense explicit-latent chain.  The bound
        # is 4 batch-means SEs: 24 statistics per case, 96 in all.
        gen = np.random.default_rng(60)
        view_dims, d, n, n_sweeps = (2, 2), 1, 30, 6000
        w0 = gen.standard_normal((4, d))
        x = (w0 @ gen.standard_normal((d, n)) + 0.5 * gen.standard_normal((4, n))
             + np.array([0.8, -0.5, 0.3, 1.0])[:, None])
        if center:
            x -= x.mean(axis=1, keepdims=True)
        priors = default_priors(2, 2, d, noise_scale=1.0)
        stats = hankel_stats(x, view_dims)
        config = GibbsConfig(n_samples=n_sweeps, burn_in_fraction=0.2, seed=8,
                             warm_start=warm_start)
        chain = run_gibbs(stats, priors, config)
        means, weights, noise = oracles.gibbs_chain_dense(
            x, view_dims, priors, n_sweeps, seed=9,
            start=warm_start_point(stats, d) if warm_start else None)
        kept = slice(config.n_burn, None)

        def summaries(mu, w, blocks):
            upper = np.triu_indices(4)
            outer = np.einsum("kid,kjd->kij", w, w)[:, upper[0], upper[1]]
            noise_entries = [blk[:, [0, 0, 1], [0, 1, 1]] for blk in blocks]
            return np.column_stack([mu, mu**2, outer, *noise_entries])

        ours = summaries(chain.mean_samples, chain.weight_samples,
                         [chain.noise_matrices(m) for m in range(2)])
        dense = summaries(means[kept], weights[kept], [blk[kept] for blk in noise])
        for col in range(ours.shape[1]):
            se = np.hypot(oracles.batch_means_se(ours[:, col]),
                          oracles.batch_means_se(dense[:, col]))
            assert abs(ours[:, col].mean() - dense[:, col].mean()) < 4.0 * se, col

    def test_runs_from_record_statistics_without_data_matrix(self):
        import tracemalloc

        from bayes_ssi.simulate import TimeSeries

        gen = np.random.default_rng(24)
        ts = TimeSeries(data=gen.standard_normal((4, 2**15)), fs=1.0)
        stats = HankelStats.from_record(ts, 15)
        data_matrix_bytes = stats.dim * stats.n_cols * 8
        priors = default_priors(*stats.view_dims, 4)
        tracemalloc.start()
        try:
            chain = run_gibbs(stats, priors, GibbsConfig(n_samples=3, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chain.n_records == 2
        assert peak < data_matrix_bytes / 10


def _coupled_priors(gen, view_dims, d):
    """Priors whose mean and weight covariances couple the views."""
    total = sum(view_dims)
    base = gen.standard_normal((total, total))
    cov = 0.2 * base @ base.T + np.eye(total)
    default = default_priors(*view_dims, d, noise_scale=1.0)
    return PriorHyper(mean_loc=gen.standard_normal(total), mean_cov=cov,
                      weight_loc=0.1 * gen.standard_normal(total), weight_cov=0.5 * cov,
                      noise_scale=default.noise_scale, noise_dof=default.noise_dof,
                      latent_dim=d, view_dims=view_dims)


class TestBlockedTransition:
    @pytest.mark.parametrize("case", ["default", "coupled", "unequal"])
    def test_matches_dense_transition(self, case):
        # the blocked sweep against the unblocked one from one state with
        # twin generators, 200 sweeps: every draw agrees to rounding
        gen = np.random.default_rng(70)
        view_dims, d, n = {"default": ((3, 3), 2, 40), "coupled": ((3, 3), 2, 40),
                           "unequal": ((2, 3), 1, 25)}[case]
        total = sum(view_dims)
        w0 = gen.standard_normal((total, d))
        x = (w0 @ gen.standard_normal((d, n)) + 0.5 * gen.standard_normal((total, n))
             + gen.standard_normal(total)[:, None])
        priors = (_coupled_priors(gen, view_dims, d) if case == "coupled"
                  else default_priors(*view_dims, d, noise_scale=1.0))
        expected_blocks = [total] if case == "coupled" else list(view_dims)
        assert [sl.stop - sl.start for sl in priors.factor_slices] == expected_blocks

        stats = hankel_stats(x, view_dims)
        kernel = _Kernel(stats, priors)
        rng_ours, rng_dense = Rng(11, 1), Rng(11, 1)
        weights, mean, _ = warm_start_point(stats, d)
        lat = kernel.draw_prior_latent(d, Rng(3, 0))
        ours = (weights, mean, lat)
        dense = (weights, mean, lat)
        records = {"ours": [], "dense": []}
        for _ in range(200):
            weights, mean, noise, prec = kernel.transition(*ours, rng_ours)
            ours = (weights, mean, kernel.draw_latent(weights, mean, prec, rng_ours))
            records["ours"].append(np.concatenate(
                [weights.ravel(), mean, *[blk.ravel() for blk in noise]]))
            weights, mean, noise, prec = oracles.gibbs_transition_dense(
                stats, priors, *dense, rng_dense)
            dense = (weights, mean, kernel.draw_latent(weights, mean, prec, rng_dense))
            records["dense"].append(np.concatenate(
                [weights.ravel(), mean, *[blk.ravel() for blk in noise]]))
        ours, dense = np.array(records["ours"]), np.array(records["dense"])
        n_weights = total * d
        for part in (slice(0, n_weights), slice(n_weights, n_weights + total),
                     slice(n_weights + total, None)):
            assert _relative_gap(ours[:, part], dense[:, part]) < 1e-10

    @pytest.mark.parametrize("coupled", [False, True])
    def test_indefinite_precision_names_conditional(self, coupled):
        # a noise precision with one negative eigenvalue: N prec + P_mu
        # stays positive definite at N = 30, s prec + P0 does not at s = 500
        gen = np.random.default_rng(71)
        priors = (_coupled_priors(gen, (2, 2), 2) if coupled
                  else default_priors(2, 2, 2))
        kernel = _Kernel(hankel_stats(gen.standard_normal((4, 30)), (2, 2)),
                         priors)
        prec = np.diag([1.0, 1.0, 1.0, -0.01])
        kernel.precision_factors(prec, np.array([1.0, 2.0]))
        with pytest.raises(NotPositiveDefiniteError,
                           match="weight conditional precision") as err:
            kernel.precision_factors(prec, np.array([1.0, 500.0]))
        assert err.value.pivot is not None
        with pytest.raises(NotPositiveDefiniteError, match="mean conditional precision"):
            kernel.precision_factors(np.diag([1.0, 1.0, 1.0, -1.0]), np.array([1.0, 1.0]))

    def test_partition_follows_prior_structure(self):
        base = default_priors(2, 3, 1)
        assert base.factor_slices == [slice(0, 2), slice(2, 5)]
        mean_cov = base.mean_cov.copy()
        mean_cov[0, 4] = mean_cov[4, 0] = 0.1
        coupled = dataclasses.replace(base, mean_cov=mean_cov)
        assert coupled.factor_slices == [slice(0, 5)]
        # coupling inside one view keeps the view partition
        weight_cov = base.weight_cov.copy()
        weight_cov[2, 3] = weight_cov[3, 2] = 0.1
        within = dataclasses.replace(base, weight_cov=weight_cov)
        assert within.factor_slices == [slice(0, 2), slice(2, 5)]
