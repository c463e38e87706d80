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
recovers the d x N means when explicit data are at hand.

Every weight column's precision is s_i Psi + P0, with one expected noise
precision Psi and one prior precision P0 shared by all columns, so one
symmetric eigendecomposition per sweep diagonalizes all of them
(:meth:`~bayes_ssi.model.Conditionals.weight_basis`): the weight factors
are held as a D x D basis B with B^T P0 B = I and a d x D array e of
eigenvalues, column i's covariance being B diag(e_i) B^T.  Each update is
the model's full conditional (:class:`~bayes_ssi.model.Conditionals`, the
algebra the Gibbs engine samples from) evaluated at the expected latent
statistics and expected noise precision, plus the mean-field corrections
the other factors' covariances add.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import multigammaln, psi

from .gibbs import warm_start_point
from .model import Conditionals, LatentStats, PriorHyper, block_diagonal, latent_natural
from .rng import Rng, chol_inverse, chol_logdet, spd_cholesky, spd_inverse
from .subspace import HankelStats

__all__ = [
    "VBConfig",
    "VBPosterior",
    "ElboDecreaseError",
    "expected_noise_precision",
    "latent_means",
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
    latent_centre)``; every column shares ``latent_cov``.  Weight column
    i's covariance is ``weight_basis @ diag(weight_eigs[i]) @
    weight_basis.T``, and the basis whitens the weight prior precision P0:
    ``weight_basis.T @ P0 @ weight_basis = I``, which the bound relies on.
    """

    latent_cov: np.ndarray           # d x d, shared across columns
    latent_map: np.ndarray           # d x D
    latent_centre: np.ndarray        # D
    weight_mean: np.ndarray          # D x d
    weight_basis: np.ndarray         # D x D, shared by every column
    weight_eigs: np.ndarray          # d x D
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
        """Convergence summary: sweeps run, whether the bound converged
        (also as ``status``, "converged" or "not_converged") and
        wall-clock milliseconds per sweep."""
        return {"n_iter": self.n_iter, "converged": self.converged,
                "status": "converged" if self.converged else "not_converged",
                "ms_per_sweep": 1e3 * self.elapsed_s / self.n_iter if self.n_iter else 0.0}


def latent_means(post: VBPosterior, x: np.ndarray) -> np.ndarray:
    """d x N latent factor means of the columns of the stacked data ``x``."""
    return post.latent_map @ (x - post.latent_centre[:, None])


def expected_noise_precision(post: VBPosterior) -> list[np.ndarray]:
    """Per-view expected precision dof * scale^-1 of the Wishart factors."""
    return [dof * spd_inverse(scale, "noise factor scale")
            for scale, dof in zip(post.noise_scale, post.noise_dof)]


def _expected_logdet_precision(scale_logdet: float, dim: int, dof: float) -> float:
    """E[ln |precision|] under a Wishart factor whose scale inverse has log
    determinant ``scale_logdet``."""
    digamma_sum = float(np.sum(psi(0.5 * (dof - np.arange(dim)))))
    return digamma_sum + dim * np.log(2.0) - scale_logdet


def _wishart_log_norm(scale_logdet: float, dof: float, dim: int) -> float:
    """Log normalizer of a Wishart density on the precision, for an
    inverse-Wishart scale with log determinant ``scale_logdet``."""
    return 0.5 * dof * (scale_logdet - dim * np.log(2.0)) - multigammaln(0.5 * dof, dim)


def _gaussian_kl(dev: np.ndarray, cov: np.ndarray, prior_prec: np.ndarray,
                 prior_logdet: float) -> float:
    """KL(N(loc + dev, cov) || N(loc, prior_prec^-1)), with ``prior_logdet``
    = ln |prior_prec^-1|."""
    return 0.5 * (float(dev @ prior_prec @ dev) + float(np.sum(prior_prec * cov))
                  - dev.size + prior_logdet
                  - chol_logdet(spd_cholesky(cov, "factor cov")))


def _expected_precision(post: VBPosterior) -> np.ndarray:
    """Dense block-diagonal expected noise precision Psi."""
    return block_diagonal(expected_noise_precision(post))


class _Kernel(Conditionals):
    """The closed-form coordinate updates and the bound on one set of
    sufficient statistics.

    Each update is the model's Gibbs conditional evaluated at the expected
    latent statistics, plus the mean-field corrections the other factors'
    covariances add."""

    @cached_property
    def prior_logdets(self) -> tuple[float, list[float]]:
        """ln |mean_cov| and each view's ln |noise_scale| of the priors, for
        the bound."""
        priors = self.priors
        return (chol_logdet(spd_cholesky(priors.mean_cov, "mean_cov")),
                [chol_logdet(spd_cholesky(scale0, "noise prior scale"))
                 for scale0 in priors.noise_scale])

    @cached_property
    def noise_prior_scale(self) -> np.ndarray:
        """Dense block-diagonal noise prior scale."""
        return block_diagonal(self.priors.noise_scale)

    def latent_stats(self, post: VBPosterior, cross_cov: bool = True) -> LatentStats:
        """Expected latent statistics: (X - m 1^T) E[Z]^T = G A^T,
        E[Z] 1 = N A (m - c) and E[Z Z^T] = E[Z] E[Z]^T + N latent_cov, or
        only the diagonal of N latent_cov when ``cross_cov`` is False."""
        n = self.stats.n_cols
        cross = self.stats.gram @ post.latent_map.T
        shift = post.latent_map @ (self.stats.row_mean - post.latent_centre)
        cov = post.latent_cov if cross_cov else np.diag(np.diag(post.latent_cov))
        gram = post.latent_map @ cross + n * np.outer(shift, shift) + n * cov
        return LatentStats(cross=cross, gram=gram, total=n * shift)

    def expected_scatter(self, post: VBPosterior, lat: LatentStats) -> np.ndarray:
        """sum_n E[(x_n - mu - W z_n)(x_n - mu - W z_n)^T]: the residual
        scatter at the expected statistics plus the mean factor's covariance
        and each weight column's covariance times E[sum_n z_in^2]."""
        scatter = self.residual_scatter(post.weight_mean, post.mean_loc, lat)
        scatter += self.stats.n_cols * post.mean_cov
        basis = post.weight_basis
        scatter += (basis * (np.diag(lat.gram) @ post.weight_eigs)) @ basis.T
        return scatter

    def update_latent(self, post: VBPosterior, psi: np.ndarray) -> None:
        # E[W^T Psi W] adds tr(Psi Sigma_w_i) = e_i . diag(B^T Psi B) to
        # diagonal entry i
        basis = post.weight_basis
        trace_corr = post.weight_eigs @ np.einsum("ij,ij->j", basis, psi @ basis)
        post_chol, post.latent_map = latent_natural(post.weight_mean, psi,
                                                    np.diag(trace_corr))
        post.latent_cov = chol_inverse(post_chol)
        post.latent_centre = post.mean_loc.copy()

    def update_weights(self, post: VBPosterior, psi: np.ndarray,
                       cross_cov: bool) -> None:
        """Update every weight-column factor in column order; each mean sees
        the columns updated before it.  The covariances depend only on Psi
        and E[sum_n z_in^2], so all columns share one eigenbasis."""
        lat = self.latent_stats(post, cross_cov)
        basis, eigs = self.weight_factors(psi, np.diag(lat.gram))
        for i in range(eigs.shape[0]):
            rhs = self.weight_rhs(post.weight_mean, post.mean_loc, lat, psi, i)
            post.weight_mean[:, i] = basis @ (eigs[i] * (rhs @ basis))
        post.weight_basis, post.weight_eigs = basis, eigs

    def update_noise(self, post: VBPosterior) -> None:
        params = self.noise_conditionals(self.expected_scatter(post, self.latent_stats(post)))
        post.noise_scale = [scale for scale, _ in params]
        post.noise_dof = [dof for _, dof in params]

    def update_mean(self, post: VBPosterior, psi: np.ndarray) -> None:
        post_chol, post.mean_loc = self.mean_natural(post.weight_mean,
                                                     self.latent_stats(post), psi)
        post.mean_cov = chol_inverse(post_chol)

    def elbo(self, post: VBPosterior, psi: np.ndarray) -> float:
        """Expected log likelihood minus each surrogate factor's KL
        divergence from its prior."""
        priors = self.priors
        n = self.stats.n_cols
        d = post.latent_cov.shape[0]
        lat = self.latent_stats(post)
        mean_logdet, noise_prior_logdets = self.prior_logdets
        scale_logdets = [chol_logdet(spd_cholesky(scale, "noise factor scale"))
                         for scale in post.noise_scale]
        e_logdets = [_expected_logdet_precision(logdet, scale.shape[0], dof)
                     for logdet, scale, dof in zip(scale_logdets, post.noise_scale,
                                                   post.noise_dof)]

        value = 0.5 * n * (sum(e_logdets) - self.stats.dim * np.log(2.0 * np.pi))
        value -= 0.5 * float(np.sum(psi * self.expected_scatter(post, lat)))
        # latent factors against N(0, I), summed over the columns
        latent_logdet = chol_logdet(spd_cholesky(post.latent_cov, "latent factor cov"))
        value -= 0.5 * (float(np.trace(lat.gram)) - n * d - n * latent_logdet)
        value -= _gaussian_kl(post.mean_loc - priors.mean_loc, post.mean_cov,
                              priors.mean_prior[0], mean_logdet)
        # weight columns against their prior: B^T P0 B = I makes the trace
        # term sum(e_i) and ln |P0^-1| - ln |Sigma_w_i| = -sum(ln e_i)
        dev = post.weight_mean - priors.weight_loc[:, None]
        eigs = post.weight_eigs
        value -= 0.5 * (float(np.sum(dev * (priors.weight_prior[0] @ dev)))
                        + float(np.sum(eigs - np.log(eigs))) - eigs.size)
        # Wishart factors; tr(scale E[precision]) = dof * dim under the factor
        value -= 0.5 * float(np.sum(self.noise_prior_scale * psi))
        for dof0, logdet0, scale, dof, logdet, e_logdet in zip(
                priors.noise_dof, noise_prior_logdets, post.noise_scale,
                post.noise_dof, scale_logdets, e_logdets):
            dim = scale.shape[0]
            value -= (0.5 * (dof - dof0) * e_logdet - 0.5 * dof * dim
                      + _wishart_log_norm(logdet, dof, dim)
                      - _wishart_log_norm(logdet0, dof0, dim))
        return float(value)


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
        # 1e-8 I = B diag(1e-8 / lam) B^T for the basis with B^T B = diag(lam)
        weight_basis, lam = Conditionals(stats, priors).weight_basis(np.eye(total_dim))
        weight_eigs = np.tile(1e-8 / lam, (d, 1))
        noise_dof = [dof0 + n for dof0 in priors.noise_dof]
        noise_scale = [dof * blk for dof, blk in zip(noise_dof, noise_cov)]
    else:
        mean_square = (float(np.trace(stats.gram)) + n * float(stats.row_mean @ stats.row_mean)
                       ) / (total_dim * n)
        scale = 0.1 * float(np.sqrt(mean_square)) + 1e-8
        weight_mean = scale * rng.generator.standard_normal((total_dim, d))
        # the prior covariance L L^T: B = L, e_i = 1
        weight_basis = priors.weight_chol.copy()
        weight_eigs = np.ones((d, total_dim))
        noise_scale = [s.copy() for s in priors.noise_scale]
        noise_dof = list(priors.noise_dof)
    return VBPosterior(
        latent_cov=np.eye(d),
        latent_map=np.zeros((d, total_dim)),
        latent_centre=stats.row_mean.copy(),
        weight_mean=weight_mean,
        weight_basis=weight_basis,
        weight_eigs=weight_eigs,
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
    state dump.  Each sweep costs O(D^3 + D^2 d), whatever the column count.
    """
    kernel = _Kernel(stats, priors)
    post = initial_posterior(stats, priors, config.seed, warm_start=config.warm_start)

    start = time.perf_counter()
    previous = -np.inf
    psi = _expected_precision(post)
    for sweep in range(1, config.max_iter + 1):
        kernel.update_latent(post, psi)
        kernel.update_weights(post, psi, config.latent_cross_cov)
        kernel.update_noise(post)
        psi = _expected_precision(post)
        kernel.update_mean(post, psi)

        bound = kernel.elbo(post, psi)
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
