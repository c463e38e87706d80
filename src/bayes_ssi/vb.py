"""Coordinate-ascent variational engine for the hierarchical
latent-projection model.

The surrogate posterior factorizes over the latent columns, each weight
column, the mean and the per-view noise precisions (Gaussian factors plus a
Wishart factor per view).  All updates are closed form; the evidence lower
bound is tracked every sweep and must not decrease.

The latent factor is a joint Gaussian over each column, so its covariance
couples the latent rows; the weight update therefore carries a
cross-covariance correction term.  ``latent_cross_cov=False`` drops that
correction (mean-only treatment of the other rows), which is no longer an
exact coordinate update, so the bound is then allowed to wobble (warning
instead of error).

Every update and the bound see the data only through its sufficient
statistics (:class:`~bayes_ssi.subspace.HankelStats`).  The latent means
are affine in the data, z_n = A (x_n - c), so the latent factor is held as
the d x D map A and the centre c it was applied at; :func:`latent_means`
recovers the d x N means when explicit data are at hand.  The public
``update_*`` functions take explicit data, build its statistics and call
the same kernel ``run_vb`` sweeps with.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import multigammaln, psi

from .gibbs import warm_start_point
from .model import PriorHyper, StackedData, view_slices
from .rng import Rng, chol_logdet, spd_cholesky, spd_inverse, symmetrize
from .subspace import HankelStats

__all__ = [
    "VBConfig",
    "VBPosterior",
    "ElboDecreaseError",
    "expected_noise_precision",
    "expected_residual_scatter",
    "latent_means",
    "update_latent_factor",
    "update_weight_factor",
    "update_noise_factor",
    "update_mean_factor",
    "elbo",
    "initial_posterior",
    "run_vb",
]

_MONOTONE_RTOL = 1e-8


class ElboDecreaseError(RuntimeError):
    """The bound decreased beyond floating-point tolerance."""


@dataclass(frozen=True)
class VBConfig:
    """Convergence control; the seed only randomizes the initialization.

    ``warm_start`` initializes the weight means at the classical
    canonical-variate estimate instead of small random draws.  With very
    little data and a noise-prior scale that dwarfs the data scatter, the
    mean-field objective has a degenerate local optimum with zero weights
    that the default initialization can fall into; the warm start lands in
    the informative basin.
    """

    max_iter: int = 500
    elbo_rel_tol: float = 1e-7
    seed: int = 0
    latent_cross_cov: bool = True
    warm_start: bool = False

    def __post_init__(self):
        if self.elbo_rel_tol <= 0:
            raise ValueError("elbo_rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class VBPosterior:
    """Parameters of the factorized surrogate posterior.

    The latent mean of data column x_n is ``latent_map @ (x_n -
    latent_centre)``; every column shares ``latent_cov``.
    """

    latent_cov: np.ndarray           # d x d, shared across columns
    latent_map: np.ndarray           # d x D
    latent_centre: np.ndarray        # D
    weight_mean: np.ndarray          # D x d
    weight_cov: np.ndarray           # d x D x D
    mean_loc: np.ndarray             # D
    mean_cov: np.ndarray             # D x D
    noise_scale: list[np.ndarray]    # per view
    noise_dof: list[float]           # per view
    view_dims: tuple[int, ...]
    elbo_trace: list[float] = field(default_factory=list)
    converged: bool = False
    n_iter: int = 0
    elapsed_s: float = 0.0

    def diagnostics(self) -> dict:
        """Convergence summary: sweeps run, whether the bound converged,
        and wall-clock milliseconds per sweep."""
        return {"n_iter": self.n_iter, "converged": self.converged,
                "ms_per_sweep": 1e3 * self.elapsed_s / self.n_iter if self.n_iter else 0.0}

    def copy(self) -> "VBPosterior":
        return VBPosterior(
            latent_cov=self.latent_cov.copy(), latent_map=self.latent_map.copy(),
            latent_centre=self.latent_centre.copy(),
            weight_mean=self.weight_mean.copy(), weight_cov=self.weight_cov.copy(),
            mean_loc=self.mean_loc.copy(), mean_cov=self.mean_cov.copy(),
            noise_scale=[s.copy() for s in self.noise_scale],
            noise_dof=list(self.noise_dof), view_dims=self.view_dims,
            elbo_trace=list(self.elbo_trace), converged=self.converged,
            n_iter=self.n_iter, elapsed_s=self.elapsed_s,
        )


def latent_means(post: VBPosterior, data: StackedData) -> np.ndarray:
    """d x N latent factor means of the columns of ``data``."""
    return post.latent_map @ (data.x - post.latent_centre[:, None])


def expected_noise_precision(post: VBPosterior) -> list[np.ndarray]:
    """Per-view expected precision dof * scale^-1 of the Wishart factors."""
    return [dof * spd_inverse(scale, "noise factor scale")
            for scale, dof in zip(post.noise_scale, post.noise_dof)]


def _expected_logdet_precision(scale_logdet: float, dim: int, dof: float) -> float:
    """E[ln |precision|] under a Wishart factor whose scale inverse has log
    determinant ``scale_logdet``."""
    digamma_sum = float(np.sum(psi(0.5 * (dof - np.arange(dim)))))
    return digamma_sum + dim * np.log(2.0) - scale_logdet


def _latent_moments(post: VBPosterior, stats: HankelStats,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column sums of the latent means z_n, of z_n z_n^T and of
    (x_n - mean_loc) z_n^T, from the latent map and the statistics."""
    n = stats.n_cols
    gram_map = stats.gram @ post.latent_map.T
    shift = post.latent_map @ (stats.row_mean - post.latent_centre)
    z_sum = n * shift
    z_gram = post.latent_map @ gram_map + n * np.outer(shift, shift)
    xz = gram_map + n * np.outer(stats.row_mean - post.mean_loc, shift)
    return z_sum, z_gram, xz


def _residual_scatter(post: VBPosterior, stats: HankelStats) -> list[np.ndarray]:
    """Per-view blocks of sum_n E[(x_n - mu - W z_n)(x_n - mu - W z_n)^T]."""
    n = stats.n_cols
    _, z_gram, xz = _latent_moments(post, stats)
    # second moment of W z_n summed over columns: latent means and covariance
    z_second = z_gram + n * post.latent_cov
    sq_diag = np.diag(z_second)
    out = []
    for sl in view_slices(stats.view_dims):
        wm = post.weight_mean[sl]
        dev = stats.row_mean[sl] - post.mean_loc[sl]
        block = stats.gram[sl, sl] + n * np.outer(dev, dev)
        block -= xz[sl] @ wm.T + wm @ xz[sl].T
        block += wm @ z_second @ wm.T + n * post.mean_cov[sl, sl]
        block += np.tensordot(sq_diag, post.weight_cov[:, sl, sl], axes=1)
        out.append(symmetrize(block))
    return out


class _Kernel:
    """The closed-form coordinate updates and the bound on one set of
    sufficient statistics, with the prior invariants computed once."""

    def __init__(self, stats: HankelStats, priors: PriorHyper):
        self.stats = stats
        self.priors = priors
        self.slices = view_slices(stats.view_dims)
        self.weight_prec = spd_inverse(priors.weight_cov, "weight_cov")
        self.weight_logdet = chol_logdet(spd_cholesky(priors.weight_cov, "weight_cov"))
        self.mean_prec = spd_inverse(priors.mean_cov, "mean_cov")
        self.mean_logdet = chol_logdet(spd_cholesky(priors.mean_cov, "mean_cov"))
        self.noise_prior_logdet = [chol_logdet(spd_cholesky(scale0, "noise prior scale"))
                                   for scale0 in priors.noise_scale]

    def update_latent(self, post: VBPosterior, psi_blocks: list[np.ndarray]) -> None:
        d = post.latent_cov.shape[0]
        quad = np.zeros((d, d))
        trace_corr = np.zeros(d)
        projector = np.empty((d, self.stats.dim))
        for psi_m, sl in zip(psi_blocks, self.slices):
            wm = post.weight_mean[sl]
            psi_wm = psi_m @ wm
            quad += wm.T @ psi_wm
            projector[:, sl] = psi_wm.T
            for i in range(d):
                trace_corr[i] += float(np.sum(psi_m * post.weight_cov[i][sl, sl]))
        quad += np.diag(trace_corr) + np.eye(d)
        post.latent_cov = spd_inverse(quad, "latent factor precision")
        post.latent_map = post.latent_cov @ projector
        post.latent_centre = post.mean_loc.copy()

    def update_weights(self, post: VBPosterior, columns, psi_blocks: list[np.ndarray],
                       cross_cov: bool) -> None:
        """Update the weight-column factors in ``columns``, in order; each
        sees the columns updated before it."""
        n = self.stats.n_cols
        _, z_gram, xz = _latent_moments(post, self.stats)
        for i in columns:
            sq_sum = z_gram[i, i] + n * post.latent_cov[i, i]
            prec = self.weight_prec.copy()
            for psi_m, sl in zip(psi_blocks, self.slices):
                prec[sl, sl] += sq_sum * psi_m
            cov = spd_inverse(prec, "weight factor precision")

            cross = z_gram[:, i]
            if cross_cov:
                cross = cross + n * post.latent_cov[:, i]
            data_term = xz[:, i] - (post.weight_mean @ cross
                                    - post.weight_mean[:, i] * cross[i])
            rhs = np.empty(self.stats.dim)
            for psi_m, sl in zip(psi_blocks, self.slices):
                rhs[sl] = psi_m @ data_term[sl]
            rhs += self.weight_prec @ self.priors.weight_loc
            post.weight_mean[:, i] = cov @ rhs
            post.weight_cov[i] = cov

    def update_noise(self, post: VBPosterior) -> None:
        scatter = _residual_scatter(post, self.stats)
        post.noise_scale = [symmetrize(scale0 + blk)
                            for scale0, blk in zip(self.priors.noise_scale, scatter)]
        post.noise_dof = [dof0 + self.stats.n_cols for dof0 in self.priors.noise_dof]

    def update_mean(self, post: VBPosterior, psi_blocks: list[np.ndarray]) -> None:
        n = self.stats.n_cols
        prec = self.mean_prec.copy()
        for psi_m, sl in zip(psi_blocks, self.slices):
            prec[sl, sl] += n * psi_m
        cov = spd_inverse(prec, "mean factor precision")

        z_sum, _, _ = _latent_moments(post, self.stats)
        demeaned = n * self.stats.row_mean - post.weight_mean @ z_sum
        rhs = np.empty(self.stats.dim)
        for psi_m, sl in zip(psi_blocks, self.slices):
            rhs[sl] = psi_m @ demeaned[sl]
        rhs += self.mean_prec @ self.priors.mean_loc
        post.mean_loc = cov @ rhs
        post.mean_cov = cov

    def elbo(self, post: VBPosterior, psi_blocks: list[np.ndarray]) -> float:
        """Expected log joint minus the surrogate's expected log density."""
        priors = self.priors
        n = self.stats.n_cols
        d = post.latent_cov.shape[0]
        total_dim = self.stats.dim
        log_2pi = np.log(2.0 * np.pi)
        scatter = _residual_scatter(post, self.stats)
        _, z_gram, _ = _latent_moments(post, self.stats)
        scale_logdets = [chol_logdet(spd_cholesky(scale, "noise factor scale"))
                         for scale in post.noise_scale]
        e_logdets = [_expected_logdet_precision(logdet, scale.shape[0], dof)
                     for logdet, scale, dof in zip(scale_logdets, post.noise_scale,
                                                   post.noise_dof)]

        value = 0.0
        # expected log likelihood, per view
        for psi_m, blk, e_logdet in zip(psi_blocks, scatter, e_logdets):
            dim = blk.shape[0]
            value += 0.5 * n * (e_logdet - dim * log_2pi)
            value -= 0.5 * float(np.sum(psi_m * blk))

        # expected log prior of the latent columns
        sq_total = float(np.trace(z_gram)) + n * float(np.trace(post.latent_cov))
        value += -0.5 * n * d * log_2pi - 0.5 * sq_total

        # expected log prior of the noise precisions
        for scale0, dof0, logdet0, e_logdet, psi_m in zip(
                priors.noise_scale, priors.noise_dof, self.noise_prior_logdet,
                e_logdets, psi_blocks):
            dim = scale0.shape[0]
            value += 0.5 * (dof0 - dim - 1) * e_logdet
            value -= 0.5 * float(np.sum(scale0 * psi_m))
            value += 0.5 * dof0 * logdet0
            value -= 0.5 * dof0 * dim * np.log(2.0)
            value -= multigammaln(0.5 * dof0, dim)

        # expected log prior of the mean
        dev = post.mean_loc - priors.mean_loc
        value += -0.5 * total_dim * log_2pi
        value -= 0.5 * self.mean_logdet
        value -= 0.5 * (float(dev @ self.mean_prec @ dev)
                        + float(np.sum(self.mean_prec * post.mean_cov)))

        # expected log prior of the weight columns
        for i in range(d):
            dev = post.weight_mean[:, i] - priors.weight_loc
            value += -0.5 * total_dim * log_2pi - 0.5 * self.weight_logdet
            value -= 0.5 * (float(dev @ self.weight_prec @ dev)
                            + float(np.sum(self.weight_prec * post.weight_cov[i])))

        # minus expected log of the surrogate (its negative entropy)
        value += 0.5 * n * (chol_logdet(spd_cholesky(post.latent_cov, "latent factor cov"))
                            + d * (1.0 + log_2pi))
        for i in range(d):
            value += 0.5 * (chol_logdet(spd_cholesky(post.weight_cov[i],
                                                     "weight factor cov"))
                            + total_dim * (1.0 + log_2pi))
        value += 0.5 * (chol_logdet(spd_cholesky(post.mean_cov, "mean factor cov"))
                        + total_dim * (1.0 + log_2pi))
        for scale, dof, logdet, e_logdet in zip(post.noise_scale, post.noise_dof,
                                                scale_logdets, e_logdets):
            dim = scale.shape[0]
            # E[ln q(precision)] with tr(scale <precision>) = dof * dim
            e_log_q = (0.5 * (dof - dim - 1) * e_logdet - 0.5 * dof * dim
                       - 0.5 * dof * dim * np.log(2.0)
                       + 0.5 * dof * logdet
                       - multigammaln(0.5 * dof, dim))
            value -= e_log_q
        return float(value)


def update_latent_factor(post: VBPosterior, data: StackedData, priors: PriorHyper) -> None:
    """Closed-form update of the shared latent covariance and the latent map."""
    _Kernel(data.stats(), priors).update_latent(post, expected_noise_precision(post))


def update_weight_factor(post: VBPosterior, data: StackedData, priors: PriorHyper,
                         i: int, cross_cov: bool = True) -> None:
    """Closed-form update of weight-column factor ``i``.

    ``cross_cov`` keeps the shared latent covariance's off-diagonal
    contribution when subtracting the other columns' effect.
    """
    _Kernel(data.stats(), priors).update_weights(post, [i], expected_noise_precision(post),
                                                 cross_cov)


def expected_residual_scatter(post: VBPosterior, data: StackedData) -> list[np.ndarray]:
    """Per-view blocks of sum_n E[(x_n - mu - W z_n)(x_n - mu - W z_n)^T].

    Expands every second moment of the surrogate: the mean-factor
    covariance, the shared latent covariance mapped through the weights,
    and the per-column weight covariances weighted by the latent second
    moments.  Single source of truth shared by the noise update and the
    bound.
    """
    return _residual_scatter(post, data.stats())


def update_noise_factor(post: VBPosterior, data: StackedData, priors: PriorHyper) -> None:
    """Closed-form update of the per-view Wishart precision factors."""
    _Kernel(data.stats(), priors).update_noise(post)


def update_mean_factor(post: VBPosterior, data: StackedData, priors: PriorHyper) -> None:
    """Closed-form update of the mean factor."""
    _Kernel(data.stats(), priors).update_mean(post, expected_noise_precision(post))


def elbo(post: VBPosterior, data: StackedData, priors: PriorHyper) -> float:
    """Evidence lower bound: expected log joint minus the surrogate's
    expected log density, all terms in closed form."""
    return _Kernel(data.stats(), priors).elbo(post, expected_noise_precision(post))


def initial_posterior(stats: HankelStats, priors: PriorHyper, seed: int,
                      warm_start: bool = False) -> VBPosterior:
    """Deterministic seeded initialization: small random weight means, zero
    latent means, noise factors at their prior, mean factor centred on the
    data row means.

    ``warm_start`` replaces the random weight means with the classical
    maximum-likelihood point and matches the noise factors to the residual
    covariance there.
    """
    rng = Rng(seed, stream=2)
    d = priors.latent_dim
    total_dim = stats.dim
    n = stats.n_cols
    if warm_start:
        weight_mean, _, noise_cov = warm_start_point(stats, priors)
        weight_cov = np.repeat(1e-8 * np.eye(total_dim)[None, :, :], d, axis=0)
        noise_dof = [dof0 + n for dof0 in priors.noise_dof]
        noise_scale = [dof * blk for dof, blk in zip(noise_dof, noise_cov)]
    else:
        mean_square = (float(np.trace(stats.gram)) + n * float(stats.row_mean @ stats.row_mean)
                       ) / (total_dim * n)
        scale = 0.1 * float(np.sqrt(mean_square)) + 1e-8
        weight_mean = scale * rng.generator.standard_normal((total_dim, d))
        weight_cov = np.repeat(priors.weight_cov[None, :, :], d, axis=0)
        noise_scale = [s.copy() for s in priors.noise_scale]
        noise_dof = list(priors.noise_dof)
    return VBPosterior(
        latent_cov=np.eye(d),
        latent_map=np.zeros((d, total_dim)),
        latent_centre=stats.row_mean.copy(),
        weight_mean=weight_mean,
        weight_cov=weight_cov,
        mean_loc=stats.row_mean.copy(),
        mean_cov=1e-10 * np.eye(total_dim),
        noise_scale=noise_scale,
        noise_dof=noise_dof,
        view_dims=priors.view_dims,
    )


def run_vb(stats: HankelStats, priors: PriorHyper, config: VBConfig) -> VBPosterior:
    """Iterate the coordinate updates on the sufficient statistics until the
    bound converges.

    Update order per sweep: latent factor, every weight column, noise
    factors, mean factor; the bound is evaluated after each full sweep.  A
    decrease beyond 1e-8 relative raises (warns in the non-exact
    ``latent_cross_cov=False`` mode); a non-finite bound aborts with a
    state dump.  Each sweep costs O(D^3 d), whatever the column count.
    """
    kernel = _Kernel(stats, priors)
    post = initial_posterior(stats, priors, config.seed, warm_start=config.warm_start)
    d = priors.latent_dim

    start = time.perf_counter()
    previous = -np.inf
    psi_blocks = expected_noise_precision(post)
    for sweep in range(1, config.max_iter + 1):
        kernel.update_latent(post, psi_blocks)
        kernel.update_weights(post, range(d), psi_blocks, config.latent_cross_cov)
        kernel.update_noise(post)
        psi_blocks = expected_noise_precision(post)
        kernel.update_mean(post, psi_blocks)

        bound = kernel.elbo(post, psi_blocks)
        if not np.isfinite(bound):
            raise RuntimeError(
                "bound became non-finite at sweep "
                f"{sweep}; state: |W|={np.linalg.norm(post.weight_mean):.3e}, "
                f"|mu|={np.linalg.norm(post.mean_loc):.3e}, "
                f"dof={post.noise_dof}"
            )
        if bound < previous - _MONOTONE_RTOL * abs(previous):
            message = (f"bound decreased at sweep {sweep}: "
                       f"{previous:.12e} -> {bound:.12e}")
            if config.latent_cross_cov:
                raise ElboDecreaseError(message)
            warnings.warn(message)
        post.elbo_trace.append(bound)
        post.n_iter = sweep
        if np.isfinite(previous) and abs(bound - previous) < config.elbo_rel_tol * abs(previous):
            post.converged = True
            break
        previous = bound
    post.elapsed_s = time.perf_counter() - start
    return post
