import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from bayes_ssi.model import Conditionals, PriorHyper, default_priors, view_slices
from bayes_ssi.rng import symmetrize

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

    @pytest.mark.parametrize("field", ["mean_cov", "weight_cov"])
    def test_covariance_of_wrong_size_rejected(self, field):
        # the engines would otherwise fail in their first sweep, on a matmul
        with pytest.raises(ValueError, match=f"{field} must be 6x6, got shape"):
            dataclasses.replace(default_priors(3, 3, 2), **{field: np.eye(5)})


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
    of ``oracles.weight_basis_dense``, on a block-diagonal noise precision
    (``prec``, its per-view blocks; ``dense``, the D x D matrix)."""

    def _setup(self, seed, view_dims, coupled):
        gen = np.random.default_rng(seed)
        total = sum(view_dims)
        weight_cov = (_spd(gen, total) if coupled
                      else sla.block_diag(*[_spd(gen, dim) for dim in view_dims]))
        priors = dataclasses.replace(default_priors(*view_dims, 3), weight_cov=weight_cov)
        prec = [_spd(gen, dim) for dim in view_dims]
        stats = hankel_stats(gen.standard_normal((total, 10)), view_dims)
        return gen, priors, prec, sla.block_diag(*prec), Conditionals(stats, priors)

    def test_coupling_prior_matches_dense_bit_for_bit(self):
        _, priors, prec, dense, conditionals = self._setup(5, (4, 6), coupled=True)
        assert priors.factor_slices == [slice(0, 10)]
        basis, lam = conditionals.weight_basis(prec)
        dense_basis, dense_lam = oracles.weight_basis_dense(priors, dense)
        assert len(basis) == 1
        assert np.array_equal(basis[0], dense_basis)
        assert np.array_equal(lam, dense_lam)

    @pytest.mark.parametrize("seed,view_dims", [(6, (4, 6)), (7, (5, 5)), (8, (1, 3))])
    def test_uncoupled_blocks_match_dense(self, seed, view_dims):
        gen, priors, prec, dense, conditionals = self._setup(seed, view_dims,
                                                             coupled=False)
        views = view_slices(view_dims)
        assert priors.factor_slices == views
        blocks, lam = conditionals.weight_basis(prec)
        assert [blk.shape for blk in blocks] == [(dim, dim) for dim in view_dims]
        basis = sla.block_diag(*blocks)
        total = sum(view_dims)
        prior_prec = np.linalg.inv(priors.weight_cov)
        assert np.max(np.abs(basis.T @ prior_prec @ basis - np.eye(total))) < 1e-10
        assert np.max(np.abs(basis.T @ dense @ basis - np.diag(lam))) < 1e-10 * np.max(lam)
        # column i's covariance B diag(e_i) B^T, e_i = 1 / (s_i lam + 1)
        dense_basis, dense_lam = oracles.weight_basis_dense(priors, dense)
        sq_sums = gen.uniform(0.5, 50.0, 3)
        _, eigs = conditionals.weight_factors(prec, sq_sums)
        dense_eigs = 1.0 / (np.outer(sq_sums, dense_lam) + 1.0)
        for e, e_dense in zip(eigs, dense_eigs):
            assert _rel((basis * e) @ basis.T, (dense_basis * e_dense) @ dense_basis.T) < 1e-10


class TestBlockLayout:
    """Both engines hand the shared conditionals the noise precision as its
    per-view blocks, and the variational posterior keeps one weight basis
    block and one mean covariance block per view under default priors."""

    @staticmethod
    def _record_precisions(monkeypatch):
        seen = []
        for name, pos in (("precision_factors", 0), ("weight_basis", 0),
                          ("mean_rhs", 2), ("weight_rhs", 3)):
            impl = getattr(Conditionals, name)

            def spy(self, *args, _impl=impl, _pos=pos):
                seen.append([blk.shape for blk in args[_pos]])
                return _impl(self, *args)

            monkeypatch.setattr(Conditionals, name, spy)
        return seen

    @pytest.mark.parametrize("engine", ["vb", "gibbs"])
    @pytest.mark.parametrize("view_dims", [(3, 3), (2, 3)], ids=["default", "unequal"])
    def test_per_view_noise_blocks(self, monkeypatch, engine, view_dims):
        from bayes_ssi.gibbs import GibbsConfig, run_gibbs
        from bayes_ssi.vb import VBConfig, run_vb

        gen = np.random.default_rng(12)
        stats = hankel_stats(gen.standard_normal((sum(view_dims), 40)), view_dims)
        priors = default_priors(*view_dims, 2)
        seen = self._record_precisions(monkeypatch)
        blocks = [(dim, dim) for dim in view_dims]
        if engine == "vb":
            post = run_vb(stats, priors, VBConfig(max_iter=3, seed=1))
            assert [blk.shape for blk in post.weight_basis] == blocks
            assert [cov.shape for cov in post.mean_cov] == blocks
            assert post.weight_eigs.shape == (2, sum(view_dims))
        else:
            run_gibbs(stats, priors, GibbsConfig(n_samples=3, burn_in_fraction=0.0, seed=1))
        assert seen and all(shapes == blocks for shapes in seen)


class TestPriorFactors:
    """Each prior matrix is factored once, when PriorHyper validates it,
    and the engines read that factor; the latent covariance is factored
    once per VB sweep."""

    # distinct prior matrices, so each factorization is told by its input
    @staticmethod
    def _priors():
        return PriorHyper(mean_loc=np.zeros(6), mean_cov=2.0 * np.eye(6),
                          weight_loc=np.zeros(6), weight_cov=3.0 * np.eye(6),
                          noise_scale=(100.0 * np.eye(3), 50.0 * np.eye(3)),
                          noise_dof=(5.0, 6.0), latent_dim=2, view_dims=(3, 3))

    @staticmethod
    def _record_factorizations(monkeypatch):
        """The list that every later LAPACK ``dpotrf`` input is copied to."""
        import bayes_ssi.rng as rng_mod

        inputs = []
        dpotrf = rng_mod.dpotrf

        def recorded(mat, *args, **kwargs):
            inputs.append(np.array(mat))
            return dpotrf(mat, *args, **kwargs)

        monkeypatch.setattr(rng_mod, "dpotrf", recorded)
        return inputs

    @staticmethod
    def _counts(inputs, priors):
        """How often each prior matrix was factored, and how many d x d
        matrices were (only the latent precision is d x d here)."""
        mats = {"mean_cov": priors.mean_cov, "weight_cov": priors.weight_cov,
                **{f"noise_scale[{m}]": scale for m, scale in enumerate(priors.noise_scale)}}
        counts = {name: sum(x.shape == mat.shape and np.array_equal(x, mat) for x in inputs)
                  for name, mat in mats.items()}
        d = priors.latent_dim
        counts["latent"] = sum(x.shape == (d, d) for x in inputs)
        return counts

    @staticmethod
    def _stats():
        gen = np.random.default_rng(21)
        return hankel_stats(gen.standard_normal((6, 200)), (3, 3))

    def test_construction_factors_each_prior_matrix_once(self, monkeypatch):
        inputs = self._record_factorizations(monkeypatch)
        priors = self._priors()
        assert self._counts(inputs, priors) == {
            "mean_cov": 1, "weight_cov": 1, "noise_scale[0]": 1, "noise_scale[1]": 1,
            "latent": 0}
        assert len(inputs) == 4

    @pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
    def test_vb_factors_no_prior_matrix_and_the_latent_once_per_sweep(
            self, monkeypatch, warm_start):
        from bayes_ssi.vb import VBConfig, run_vb

        priors, stats = self._priors(), self._stats()
        inputs = self._record_factorizations(monkeypatch)
        post = run_vb(stats, priors, VBConfig(max_iter=6, elbo_rel_tol=1e-300, seed=1,
                                              warm_start=warm_start))
        assert post.n_iter == 6
        # a cold start's noise factors start at the prior scales, so the
        # first expected noise precision factors those values once
        start = 0 if warm_start else 1
        assert self._counts(inputs, priors) == {
            "mean_cov": 0, "weight_cov": 0, "noise_scale[0]": start,
            "noise_scale[1]": start, "latent": post.n_iter}

    @pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
    def test_gibbs_factors_no_prior_covariance(self, monkeypatch, warm_start):
        from bayes_ssi.gibbs import GibbsConfig, run_gibbs

        priors, stats = self._priors(), self._stats()
        inputs = self._record_factorizations(monkeypatch)
        run_gibbs(stats, priors, GibbsConfig(n_samples=4, burn_in_fraction=0.0, seed=1,
                                             warm_start=warm_start))
        counts = self._counts(inputs, priors)
        # a cold start draws each view's noise block from its prior once
        start = 0 if warm_start else 1
        assert {name: counts[name] for name in
                ("mean_cov", "weight_cov", "noise_scale[0]", "noise_scale[1]")} == {
            "mean_cov": 0, "weight_cov": 0, "noise_scale[0]": start,
            "noise_scale[1]": start}

    def test_nearly_symmetric_prior_has_its_symmetric_part_factor(self):
        # a covariance symmetric only to within the 1e-12 tolerance: its
        # kept factor is that of its symmetric part, bit for bit, whatever
        # triangle LAPACK reads
        gen = np.random.default_rng(23)
        skewed = {}
        for field in ("mean_cov", "weight_cov"):
            cov = _spd(gen, 6)
            cov[np.triu_indices(6, 1)] *= 1.0 + 1e-13
            skewed[field] = cov
        base = default_priors(3, 3, 2)
        raw = dataclasses.replace(base, **skewed)
        sym = dataclasses.replace(base, **{k: symmetrize(v) for k, v in skewed.items()})
        for field in ("mean_cov", "weight_cov"):
            assert not np.array_equal(skewed[field], symmetrize(skewed[field]))
        assert np.array_equal(raw.mean_chol, sym.mean_chol)
        assert np.array_equal(raw.weight_chol, sym.weight_chol)
        assert np.array_equal(raw.mean_prior[0], sym.mean_prior[0])
        assert np.array_equal(raw.weight_prior[0], sym.weight_prior[0])
