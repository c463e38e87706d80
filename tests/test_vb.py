import dataclasses

import numpy as np
import pytest

import scipy.linalg as sla

from bayes_ssi.model import (
    PriorHyper,
    default_priors,
    latent_natural,
    view_slices,
)
from bayes_ssi.rng import NotPositiveDefiniteError, chol_inverse
from bayes_ssi.subspace import HankelStats
from bayes_ssi.vb import (
    VBConfig,
    VBPosterior,
    initial_posterior,
    run_vb,
    _expected_precision,
    _Kernel,
)

import oracles
from explicit import (
    block_precision,
    dense_mean_cov,
    explicit_kernel,
    hankel_stats,
    latent_means,
    latent_stats,
    mean_conditional,
    weight_conditional,
    weight_cov,
)


def _psi(post):
    return _expected_precision(post)[0]


def _bound(kernel, post):
    """The bound at ``post``, its statistics and noise factors evaluated as
    run_vb evaluates them."""
    psi, scale_logdets = _expected_precision(post)
    return kernel.elbo(post, psi, kernel.latent_stats(post, True), scale_logdets)


def random_posterior(gen, view_dims, d, n, blocks=None):
    """Random surrogate; its latent means are a random affine map of the
    data columns (``n`` only sets the noise dof).  The weight basis and the
    mean covariance are block-diagonal on ``blocks`` (the views by
    default), as the engine's are on the priors' factor blocks, with a
    random orthonormal basis block per block: it whitens the identity
    weight prior covariance the tests that evaluate the bound on it use."""
    total = sum(view_dims)
    blocks = view_slices(view_dims) if blocks is None else blocks
    base = gen.standard_normal((total, total))
    basis = [np.linalg.qr(base[sl, sl])[0] for sl in blocks]
    base = gen.standard_normal((total, total))
    dense_cov = 0.1 * (base @ base.T / total) + 0.3 * np.eye(total)
    mean_cov = [dense_cov[sl, sl] for sl in blocks]
    base = gen.standard_normal((d, d))
    latent_cov = 0.1 * (base @ base.T / d) + 0.5 * np.eye(d)
    noise_scale = []
    for dim in view_dims:
        base = gen.standard_normal((dim, dim))
        noise_scale.append(base @ base.T + (dim + 3.0) * np.eye(dim))
    return VBPosterior(
        latent_cov=latent_cov,
        latent_map=gen.standard_normal((d, total)),
        latent_centre=gen.standard_normal(total),
        weight_mean=gen.standard_normal((total, d)),
        weight_basis=basis,
        weight_eigs=gen.uniform(0.5, 1.0, (d, total)),
        mean_loc=gen.standard_normal(total),
        mean_cov=mean_cov,
        mean_cov_logdet=sum(np.linalg.slogdet(cov)[1] for cov in mean_cov),
        latent_cov_logdet=np.linalg.slogdet(latent_cov)[1],
        noise_scale=noise_scale,
        noise_dof=[dim + 4.0 + n for dim in view_dims],
        view_dims=tuple(view_dims),
    )


def point_mass_posterior(x, view_dims, weights, mean, noise, latent, dof_offset=2.0):
    """Surrogate with zero-variance Gaussian factors and the noise factor a
    point mass at the noise blocks ``noise``.  The latent map is the
    least-squares map from the data columns to ``latent``, exact when the
    latent lies in the data's row space."""
    n = x.shape[1]
    total = sum(view_dims)
    d = weights.shape[1]
    dofs = [dim + dof_offset + n for dim in view_dims]
    return VBPosterior(
        latent_cov=np.zeros((d, d)),
        latent_map=latent @ np.linalg.pinv(x),
        latent_centre=np.zeros(total),
        weight_mean=weights.copy(),
        weight_basis=[np.eye(dim) for dim in view_dims],
        weight_eigs=np.zeros((d, total)),
        mean_loc=mean.copy(),
        mean_cov=[np.zeros((dim, dim)) for dim in view_dims],
        mean_cov_logdet=-np.inf,
        latent_cov_logdet=-np.inf,
        noise_scale=[dof * blk for dof, blk in zip(dofs, noise)],
        noise_dof=dofs,
        view_dims=tuple(view_dims),
    )


class TestUpdateOracles:
    def setup_method(self):
        self.gen = np.random.default_rng(42)
        self.view_dims = (2, 2)
        self.d = 2
        self.n = 50
        self.priors = default_priors(2, 2, noise_scale=1.0)
        w0 = self.gen.standard_normal((4, self.d))
        z0 = self.gen.standard_normal((self.d, self.n))
        self.x = w0 @ z0 + 0.5 * self.gen.standard_normal((4, self.n))
        self.kernel = _Kernel(hankel_stats(self.x, self.view_dims), self.priors)

    def test_zero_weights_prior_fallback(self):
        post = random_posterior(self.gen, self.view_dims, self.d, self.n)
        post.weight_mean[:] = 0.0
        post.weight_eigs[:] = 0.0
        post.mean_loc[:] = 0.0
        self.kernel.update_latent(post, _psi(post))
        assert post.latent_cov == pytest.approx(np.eye(self.d))
        assert latent_means(post, self.x) == pytest.approx(np.zeros((self.d, self.n)))

    def test_point_mass_weights_reproduce_sampling_conditional(self):
        weights = self.gen.standard_normal((4, self.d))
        mean = self.gen.standard_normal(4)
        noise = [0.5 * np.eye(2), 2.0 * np.eye(2)]
        latent = self.gen.standard_normal((self.d, self.n))
        post = point_mass_posterior(self.x, self.view_dims, weights, mean, noise, latent)
        self.kernel.update_latent(post, _psi(post))
        chol, proj = latent_natural(weights, block_precision(noise))
        assert post.latent_cov == pytest.approx(chol_inverse(chol), abs=1e-12)
        assert latent_means(post, self.x) == pytest.approx(
            proj @ (self.x - mean[:, None]), abs=1e-12)

    @pytest.mark.parametrize("update", ["latent", "weight", "noise", "mean"])
    def test_each_update_does_not_decrease_bound(self, update):
        post = random_posterior(self.gen, self.view_dims, self.d, self.n)
        before = _bound(self.kernel, post)
        psi = _psi(post)
        lat = self.kernel.latent_stats(post, True)
        if update == "latent":
            self.kernel.update_latent(post, psi)
        elif update == "weight":
            self.kernel.update_weights(post, psi, lat)
        elif update == "noise":
            self.kernel.update_noise(post, lat)
        else:
            self.kernel.update_mean(post, psi, lat)
        after = _bound(self.kernel, post)
        assert after >= before - 1e-10 * abs(before)

    def test_latent_update_strictly_improves_from_random_start(self):
        post = random_posterior(self.gen, self.view_dims, self.d, self.n)
        before = _bound(self.kernel, post)
        self.kernel.update_latent(post, _psi(post))
        assert _bound(self.kernel, post) > before

    def test_weight_no_information_returns_prior(self):
        post = random_posterior(self.gen, self.view_dims, self.d, self.n)
        post.latent_map[0] = 0.0
        post.latent_cov[0, :] = 0.0
        post.latent_cov[:, 0] = 0.0
        self.kernel.update_weights(post, _psi(post), self.kernel.latent_stats(post, True))
        assert post.weight_mean[:, 0] == pytest.approx(self.priors.weight_loc)
        assert weight_cov(post)[0] == pytest.approx(self.priors.weight_cov)

    def test_weight_update_matches_moment_ridge(self):
        # d = 1, single view: ridge regression with input-uncertainty
        # second moments sum <z^2> = |mz|^2 + N var_z
        gen = np.random.default_rng(7)
        dim, n = 3, 40
        priors = PriorHyper(
            mean_loc=np.zeros(dim), mean_cov=np.eye(dim),
            weight_loc=np.zeros(dim), weight_cov=np.eye(dim),
            noise_scale=(np.eye(dim),), noise_dof=(dim + 2.0,),
            view_dims=(dim,))
        x = gen.standard_normal((dim, n))
        post = random_posterior(gen, (dim,), 1, n)
        post.mean_loc[:] = 0.0
        post.mean_cov[0][:] = 0.0
        # noise factor: point mass at identity precision
        post.noise_scale = [post.noise_dof[0] * np.eye(dim)]
        mz = latent_means(post, x)[0]
        sq = float(mz @ mz) + n * post.latent_cov[0, 0]
        kernel = _Kernel(hankel_stats(x, (dim,)), priors)
        kernel.update_weights(post, _psi(post), kernel.latent_stats(post, True))
        assert weight_cov(post)[0] == pytest.approx(np.eye(dim) / (sq + 1.0))
        assert post.weight_mean[:, 0] == pytest.approx((x @ mz) / (sq + 1.0))

    def test_noise_update_scalar_moment_expansion(self):
        # scalar model: the updated scale matches the hand-expanded
        # E[(x - mu - w z)^2] with independent-moment algebra
        gen = np.random.default_rng(8)
        n = 30
        priors = PriorHyper(
            mean_loc=np.zeros(1), mean_cov=np.eye(1), weight_loc=np.zeros(1),
            weight_cov=np.eye(1), noise_scale=(np.array([[1.5]]),),
            noise_dof=(3.0,), view_dims=(1,))
        x = gen.standard_normal((1, n))
        post = random_posterior(gen, (1,), 1, n)
        mw = float(post.weight_mean[0, 0])
        vw = float(weight_cov(post)[0, 0, 0])
        mu = float(post.mean_loc[0])
        vmu = float(post.mean_cov[0][0, 0])
        mz = latent_means(post, x)[0]
        vz = float(post.latent_cov[0, 0])
        expected = 1.5 + sum(
            (x[0, k] - mu - mw * mz[k]) ** 2 + vmu
            + (mz[k] ** 2 + vz) * vw + mw**2 * vz
            for k in range(n))
        kernel = _Kernel(hankel_stats(x, (1,)), priors)
        kernel.update_noise(post, kernel.latent_stats(post, True))
        assert post.noise_scale[0][0, 0] == pytest.approx(expected, rel=1e-10)
        assert post.noise_dof[0] == 3.0 + n

    def test_degenerate_point_mass_scatter(self):
        # all factors point masses at a zero-residual configuration:
        # updated scale is exactly the prior scale
        n, d = 10, 1
        w = np.ones((2, d))
        z = np.linspace(-1, 1, n)[None, :]
        x = w @ z
        priors = default_priors(1, 1, noise_scale=2.0)
        post = point_mass_posterior(x, (1, 1), w, np.zeros(2), [np.eye(1), np.eye(1)], z)
        assert latent_means(post, x) == pytest.approx(z, abs=1e-12)
        kernel = _Kernel(hankel_stats(x, (1, 1)), priors)
        kernel.update_noise(post, kernel.latent_stats(post, True))
        for scale, scale0 in zip(post.noise_scale, priors.noise_scale):
            assert scale == pytest.approx(scale0, abs=1e-12)

    def test_mean_update_shrinkage(self):
        # zero weights, prior mean 0: the factor mean shrinks the sample
        # mean by (N psi + 1)^-1 N psi per coordinate
        gen = np.random.default_rng(9)
        n = 20
        priors = default_priors(1, 1)
        x = gen.standard_normal((2, n)) + 3.0
        post = random_posterior(gen, (1, 1), 1, n)
        post.weight_mean[:] = 0.0
        post.weight_eigs[:] = 0.0
        post.latent_map[:] = 0.0
        psi = [float(p) for block in _psi(post) for p in np.diag(block)]
        kernel = _Kernel(hankel_stats(x, (1, 1)), priors)
        kernel.update_mean(post, _psi(post), kernel.latent_stats(post, True))
        for row, p in enumerate(psi):
            shrink = n * p / (n * p + 1.0)
            assert post.mean_loc[row] == pytest.approx(
                shrink * x[row].mean(), rel=1e-10)

    def test_mean_update_consistency_large_n(self):
        gen = np.random.default_rng(10)
        n = 10_000
        priors = default_priors(1, 1)
        truth = np.array([1.0, -2.0])
        x = truth[:, None] + 0.3 * gen.standard_normal((2, n))
        kernel = _Kernel(hankel_stats(x, (1, 1)), priors)
        post = initial_posterior(kernel.stats, priors, 1, seed=0)
        for _ in range(5):
            kernel.update_latent(post, _psi(post))
            lat = kernel.latent_stats(post, True)
            kernel.update_weights(post, _psi(post), lat)
            kernel.update_noise(post, lat)
            kernel.update_mean(post, _psi(post), lat)
        sd = np.sqrt(np.diag(dense_mean_cov(post)))
        assert np.all(np.abs(post.mean_loc - truth) < 3 * (sd + 0.3 / np.sqrt(n)))


def _dense_factors(post, x):
    return {"latent_mean": latent_means(post, x), "latent_cov": post.latent_cov,
            "weight_mean": post.weight_mean, "weight_cov": weight_cov(post),
            "mean_loc": post.mean_loc, "mean_cov": dense_mean_cov(post),
            "noise_scale": post.noise_scale, "noise_dof": post.noise_dof}


def _rel(a, b):
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(np.asarray(b))


class TestScatterConsistency:
    def test_gram_path_matches_streaming_path(self):
        # the statistics-based scatter against the explicit residual matrix
        gen = np.random.default_rng(11)
        n = 33
        x = gen.standard_normal((5, n)) + 3.0
        post = random_posterior(gen, (2, 3), 2, n)
        kernel = _Kernel(hankel_stats(x, (2, 3)), default_priors(2, 3))
        scatter = kernel.expected_scatter(post, kernel.latent_stats(post, True))
        direct = oracles.vb_residual_scatter_dense(_dense_factors(post, x), x, (2, 3))
        assert len(scatter) == len(direct)
        for a, b in zip(scatter, direct):
            assert a == pytest.approx(b, rel=1e-9)


class TestStatisticsEngine:
    @pytest.mark.parametrize("cross_cov", [True, False])
    @pytest.mark.parametrize("warm_start", [False, True])
    @pytest.mark.parametrize("coupled_prior", [False, True])
    def test_run_vb_matches_dense_sweeps(self, cross_cov, warm_start, coupled_prior):
        self.check_against_dense(cross_cov, warm_start, coupled_prior, centred=False)

    @pytest.mark.parametrize("cross_cov", [True, False])
    @pytest.mark.parametrize("warm_start", [False, True])
    @pytest.mark.parametrize("coupled_prior", [False, True])
    def test_centred_data_matches_dense_sweeps(self, cross_cov, warm_start,
                                               coupled_prior):
        self.check_against_dense(cross_cov, warm_start, coupled_prior, centred=True)

    @staticmethod
    def check_against_dense(cross_cov, warm_start, coupled_prior, centred):
        gen = np.random.default_rng(21)
        d, n, sweeps = 2, 150, 6
        w0 = gen.standard_normal((6, d))
        x = (w0 @ gen.standard_normal((d, n)) + 0.3 * gen.standard_normal((6, n))
             + gen.uniform(-2.0, 2.0, (6, 1)))
        if centred:
            # zero row means, as a centred Hankel has; otherwise the rows
            # keep their offsets, as with --no-center
            x -= x.mean(axis=1, keepdims=True)
        stats = hankel_stats(x, (3, 3))
        priors = default_priors(3, 3, noise_scale=1.0)
        if coupled_prior:
            # weight and mean priors that couple the two views
            base = gen.standard_normal((6, 6))
            cov = 0.2 * base @ base.T + np.eye(6)
            priors = PriorHyper(mean_loc=gen.standard_normal(6), mean_cov=cov,
                                weight_loc=0.1 * gen.standard_normal(6), weight_cov=cov,
                                noise_scale=priors.noise_scale,
                                noise_dof=priors.noise_dof, view_dims=(3, 3))
        cfg = VBConfig(max_iter=sweeps, elbo_rel_tol=1e-300, seed=4,
                       latent_cross_cov=cross_cov, warm_start=warm_start)
        post = run_vb(stats, priors, d, cfg)
        assert post.n_iter == sweeps

        q = _dense_factors(initial_posterior(stats, priors, d, 4, warm_start), x)
        for bound in post.elbo_trace:
            q = oracles.vb_sweep_dense(q, x, (3, 3), priors, cross_cov)
            dense = oracles.vb_bound_dense(q, x, (3, 3), priors)
            assert abs(bound - dense) < 1e-10 * abs(dense)
        got = _dense_factors(post, x)
        for key in ("latent_mean", "latent_cov", "weight_mean", "weight_cov",
                    "mean_cov"):
            assert _rel(got[key], q[key]) < 1e-10, key
        for a, b in zip(got["noise_scale"], q["noise_scale"]):
            assert _rel(a, b) < 1e-10
        assert got["noise_dof"] == q["noise_dof"]
        rms = np.sqrt(np.mean(x**2))
        assert np.max(np.abs(got["mean_loc"] - q["mean_loc"])) < 1e-10 * rms

    def test_runs_from_record_statistics_without_data_matrix(self):
        import tracemalloc

        from bayes_ssi.simulate import TimeSeries

        gen = np.random.default_rng(22)
        ts = TimeSeries(data=gen.standard_normal((4, 2**15)), fs=1.0)
        stats = HankelStats.from_record(ts, 15)
        for value in vars(stats).values():
            assert stats.n_cols not in np.shape(value)
        data_matrix_bytes = stats.dim * stats.n_cols * 8
        priors = default_priors(*stats.view_dims)
        tracemalloc.start()
        try:
            post = run_vb(stats, priors, 4, VBConfig(max_iter=3, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert post.n_iter >= 1
        assert peak < data_matrix_bytes / 10


class TestWeightBasis:
    def _kernel_and_posterior(self, seed):
        gen = np.random.default_rng(seed)
        d, n = 3, 80
        x = gen.standard_normal((6, n)) + gen.uniform(-1.0, 1.0, (6, 1))
        base = gen.standard_normal((6, 6))
        # a weight prior that couples the two views
        priors = PriorHyper(mean_loc=np.zeros(6), mean_cov=np.eye(6),
                            weight_loc=gen.standard_normal(6),
                            weight_cov=0.3 * base @ base.T + 0.5 * np.eye(6),
                            noise_scale=(np.eye(3), 2.0 * np.eye(3)),
                            noise_dof=(6.0, 7.0), view_dims=(3, 3))
        kernel = _Kernel(hankel_stats(x, (3, 3)), priors)
        return kernel, random_posterior(gen, (3, 3), d, n, priors.factor_slices)

    def test_column_covariances_invert_column_precisions(self):
        kernel, post = self._kernel_and_posterior(31)
        psi = _psi(post)
        lat = kernel.latent_stats(post, True)
        sq = np.diag(lat.gram)
        kernel.update_weights(post, psi, lat)
        prior_prec = np.linalg.inv(kernel.priors.weight_cov)
        basis = sla.block_diag(*post.weight_basis)
        assert basis.T @ prior_prec @ basis == pytest.approx(np.eye(6), abs=1e-12)
        for i, s in enumerate(sq):
            dense = np.linalg.inv(s * sla.block_diag(*psi) + prior_prec)
            assert _rel(weight_cov(post)[i], dense) < 1e-10

    def test_indefinite_whitened_precision_raises(self):
        kernel, post = self._kernel_and_posterior(32)
        # a noise precision with a negative eigenvalue makes s_i lam + 1
        # negative for a large enough s_i
        psi = [np.eye(3), np.diag([1.0, 1.0, -1e6])]
        with pytest.raises(NotPositiveDefiniteError, match="weight conditional precision"):
            kernel.update_weights(post, psi, kernel.latent_stats(post, True))


class TestCouplingPriorBlock:
    def test_one_dense_block_matches_dense_basis(self):
        # a prior that couples the views makes one factor block of all D
        # rows: one D x D basis block, bit for bit the dense route's, and
        # one D x D mean covariance block
        gen = np.random.default_rng(33)
        x = gen.standard_normal((6, 80)) + gen.uniform(-1.0, 1.0, (6, 1))
        base = gen.standard_normal((6, 6))
        priors = dataclasses.replace(default_priors(3, 3),
                                     weight_cov=0.3 * base @ base.T + 0.5 * np.eye(6))
        assert priors.factor_slices == [slice(0, 6)]
        stats = hankel_stats(x, (3, 3))
        post = run_vb(stats, priors, 2, VBConfig(max_iter=3, seed=1))
        assert [cov.shape for cov in post.mean_cov] == [(6, 6)]
        kernel = _Kernel(stats, priors)
        psi = _psi(post)
        kernel.update_weights(post, psi, kernel.latent_stats(post, True))
        basis, lam = oracles.weight_basis_dense(priors, sla.block_diag(*psi))
        assert len(post.weight_basis) == 1
        assert np.array_equal(post.weight_basis[0], basis)


class TestDegeneracyAgainstSampler:
    def test_point_mass_sweep_equals_conditional_means(self):
        # zero-variance factors: each variational update reproduces the
        # sampling engine's full-conditional parameters, sequenced through
        # one full sweep at the conditional means
        gen = np.random.default_rng(12)
        view_dims = (2, 2)
        d, n = 2, 15
        priors = default_priors(2, 2, noise_scale=1.5)
        x = gen.standard_normal((4, n))
        weights = gen.standard_normal((4, d))
        mean = gen.standard_normal(4)
        noise = [1.2 * np.eye(2), 0.7 * np.eye(2)]
        latent = gen.standard_normal((d, n))
        post = point_mass_posterior(x, view_dims, weights, mean, noise, latent)
        gibbs_kernel, _ = explicit_kernel(x, view_dims, priors, latent)
        kernel = _Kernel(gibbs_kernel.stats, priors)

        # latent step
        kernel.update_latent(post, _psi(post))
        chol, proj = latent_natural(weights, block_precision(noise))
        latent = proj @ (x - mean[:, None])
        assert post.latent_cov == pytest.approx(chol_inverse(chol), abs=1e-10)
        assert latent_means(post, x) == pytest.approx(latent, abs=1e-10)
        post.latent_cov = np.zeros((d, d))
        lat = latent_stats(x, gibbs_kernel.stats.row_mean, latent)
        expected_lat = kernel.latent_stats(post, True)

        # weight steps: one update of every column, each mean refreshed in
        # order
        kernel.update_weights(post, _psi(post), expected_lat)
        for i in range(d):
            cov, w_mean = weight_conditional(gibbs_kernel, weights, mean, lat,
                                             block_precision(noise), i)
            assert weight_cov(post)[i] == pytest.approx(cov, abs=1e-10)
            assert post.weight_mean[:, i] == pytest.approx(w_mean, abs=1e-10)
            weights[:, i] = w_mean
        post.weight_eigs[:] = 0.0

        # noise step: compare natural parameters, then hold the precision
        # at its conditional mean on both sides
        kernel.update_noise(post, expected_lat)
        conds = gibbs_kernel.noise_conditionals(
            gibbs_kernel.residual_scatter(weights, mean, lat))
        for (scale_g, dof_g), scale_v, dof_v in zip(conds, post.noise_scale,
                                                    post.noise_dof):
            assert dof_v == dof_g
            assert scale_v == pytest.approx(scale_g, abs=1e-10)
        noise = [scale / dof for (scale, dof) in conds]

        # mean step
        kernel.update_mean(post, _psi(post), expected_lat)
        cov, m_mean = mean_conditional(gibbs_kernel, weights, lat, block_precision(noise))
        assert dense_mean_cov(post) == pytest.approx(cov, abs=1e-10)
        assert post.mean_loc == pytest.approx(m_mean, abs=1e-10)


class TestRunVb:
    def test_quadrature_bound(self):
        # scalar model, N = 3: the converged bound sits below the log
        # marginal likelihood computed by dense quadrature
        x = np.array([[0.3, -0.7, 1.1]])
        priors = PriorHyper(
            mean_loc=np.zeros(1), mean_cov=np.eye(1), weight_loc=np.zeros(1),
            weight_cov=np.eye(1), noise_scale=(np.array([[1.0]]),),
            noise_dof=(4.0,), view_dims=(1,))
        post = run_vb(hankel_stats(x, (1,)), priors, 1,
                      VBConfig(max_iter=300, elbo_rel_tol=1e-12, seed=3))
        log_z = oracles.log_marginal_quadrature_1d(
            x[0], weight_sd=1.0, mean_sd=1.0, noise_scale=1.0, noise_dof=4.0,
            n_herm=100, n_noise=600)
        bound = post.elbo_trace[-1]
        assert bound <= log_z + 0.05
        assert log_z - bound < 5.0

    def test_fixed_point_invariance(self):
        gen = np.random.default_rng(13)
        priors = default_priors(2, 2)
        kernel = _Kernel(hankel_stats(gen.standard_normal((4, 30)), (2, 2)),
                         priors)
        post = run_vb(kernel.stats, priors, 1, VBConfig(max_iter=2000, elbo_rel_tol=1e-13,
                                                        seed=5))
        settled = post.elbo_trace[-1]
        kernel.update_latent(post, _psi(post))
        lat = kernel.latent_stats(post, True)
        kernel.update_weights(post, _psi(post), lat)
        kernel.update_noise(post, lat)
        kernel.update_mean(post, _psi(post), lat)
        again = _bound(kernel, post)
        assert abs(again - settled) <= 1e-10 * abs(settled)

    @pytest.mark.parametrize("cross_cov", [True, False])
    def test_one_evaluation_per_sweep(self, monkeypatch, cross_cov):
        # a sweep evaluates the expected latent statistics once, twice when
        # the weight update drops the latent cross-covariances, and factors
        # each view's noise scale once, after one factorization at the start
        import bayes_ssi.rng as rng_mod
        import bayes_ssi.vb as vb_mod

        calls = {"latent_stats": 0, "noise scale": 0}
        latent_stats_impl = _Kernel.latent_stats
        cholesky = rng_mod.spd_cholesky

        def counted_latent_stats(*args):
            calls["latent_stats"] += 1
            return latent_stats_impl(*args)

        def counted_cholesky(mat, name="matrix"):
            calls["noise scale"] += name == "noise factor scale"
            return cholesky(mat, name)

        monkeypatch.setattr(_Kernel, "latent_stats", counted_latent_stats)
        monkeypatch.setattr(vb_mod, "spd_cholesky", counted_cholesky)
        monkeypatch.setattr(rng_mod, "spd_cholesky", counted_cholesky)
        gen = np.random.default_rng(14)
        stats = hankel_stats(gen.standard_normal((4, 60)), (2, 2))
        sweeps = 4
        post = run_vb(stats, default_priors(2, 2), 2,
                      VBConfig(max_iter=sweeps, elbo_rel_tol=1e-300, seed=6,
                               latent_cross_cov=cross_cov))
        assert post.n_iter == sweeps
        assert calls == {"latent_stats": sweeps * (1 if cross_cov else 2),
                         "noise scale": len(stats.view_dims) * (sweeps + 1)}

    def test_monotone_trace_and_termination(self):
        gen = np.random.default_rng(14)
        stats = hankel_stats(gen.standard_normal((4, 60)), (2, 2))
        priors = default_priors(2, 2)
        post = run_vb(stats, priors, 2, VBConfig(max_iter=500, elbo_rel_tol=1e-8,
                                                seed=6))
        trace = np.asarray(post.elbo_trace)
        assert post.converged
        assert post.n_iter == trace.size
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))

    def test_max_iter_logged_once(self, caplog):
        # one record when the run stops at max_iter unconverged, none when
        # it converges, also on its last allowed sweep
        gen = np.random.default_rng(14)
        stats = hankel_stats(gen.standard_normal((4, 60)), (2, 2))
        priors = default_priors(2, 2)
        with caplog.at_level("WARNING", logger="bayes_ssi.vb"):
            short = run_vb(stats, priors, 2, VBConfig(max_iter=3, elbo_rel_tol=1e-8, seed=6))
        assert not short.converged and short.n_iter == 3
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("bayes_ssi.vb", "WARNING",
             "VB at order 2 stopped at max_iter=3 without converging")]
        caplog.clear()
        with caplog.at_level("WARNING", logger="bayes_ssi.vb"):
            full = run_vb(stats, priors, 2, VBConfig(max_iter=500, elbo_rel_tol=1e-8, seed=6))
            last = run_vb(stats, priors, 2, VBConfig(max_iter=full.n_iter,
                                                     elbo_rel_tol=1e-8, seed=6))
        assert full.converged and last.converged and last.n_iter == full.n_iter
        assert caplog.records == []

    @pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
    def test_order_zero_rejected(self, warm_start):
        stats = hankel_stats(np.random.default_rng(15).standard_normal((4, 40)), (2, 2))
        with pytest.raises(ValueError, match="model order must be >= 1, got 0"):
            run_vb(stats, default_priors(2, 2), 0, VBConfig(seed=1, warm_start=warm_start))

    def test_determinism(self):
        gen = np.random.default_rng(15)
        stats = hankel_stats(gen.standard_normal((4, 40)), (2, 2))
        priors = default_priors(2, 2)
        cfg = VBConfig(max_iter=40, elbo_rel_tol=1e-9, seed=11)
        a = run_vb(stats, priors, 1, cfg)
        b = run_vb(stats, priors, 1, cfg)
        assert np.array_equal(a.weight_mean, b.weight_mean)
        assert np.array_equal(a.latent_map, b.latent_map)
        assert a.elbo_trace == b.elbo_trace

    def test_dof_offset_invariant(self):
        gen = np.random.default_rng(16)
        n = 25
        stats = hankel_stats(gen.standard_normal((4, n)), (2, 2))
        priors = default_priors(2, 2)
        post = run_vb(stats, priors, 1, VBConfig(max_iter=7, elbo_rel_tol=1e-12,
                                                seed=2))
        for dof, dof0 in zip(post.noise_dof, priors.noise_dof):
            assert dof - dof0 == n

    def test_strict_paper_mode_runs(self):
        gen = np.random.default_rng(17)
        stats = hankel_stats(gen.standard_normal((4, 50)), (2, 2))
        priors = default_priors(2, 2)
        post = run_vb(stats, priors, 2, VBConfig(max_iter=60, elbo_rel_tol=1e-8,
                                                seed=4, latent_cross_cov=False))
        assert np.all(np.isfinite(post.elbo_trace))

    def test_warm_start_converges_faster_to_equal_bound(self):
        # initializing at the classical estimate skips the slow escape from
        # the small-weight region: fewer sweeps, same (or better) bound
        gen = np.random.default_rng(18)
        d, n = 2, 800
        w0 = gen.standard_normal((6, d))
        x = w0 @ gen.standard_normal((d, n)) + 0.3 * gen.standard_normal((6, n))
        stats = hankel_stats(x, (3, 3))
        priors = default_priors(3, 3, noise_scale=1.0)
        cold = run_vb(stats, priors, d, VBConfig(max_iter=500, seed=1))
        warm = run_vb(stats, priors, d, VBConfig(max_iter=500, seed=1,
                                                warm_start=True))
        assert warm.n_iter <= cold.n_iter
        assert warm.elbo_trace[-1] >= cold.elbo_trace[-1] - 1e-4 * abs(
            cold.elbo_trace[-1])
        assert np.abs(warm.weight_mean).mean() > 0.1
