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
exact coordinate update, so the bound is then allowed to wobble (a logged
warning instead of an error).

Every update and the bound see the data only through its sufficient
statistics (:class:`~bayes_ssi.subspace.HankelStats`).  The latent means
are affine in the data, z_n = A (x_n - c), so the latent factor is held as
the d x D map A and the centre c it was applied at.

:func:`run_vb` holds one sweep's data flow: it evaluates the expected
latent statistics once, after the latent update, and factors each view's
noise scale once, after the noise update, and passes both to the updates
and the bound that read them.  Under ``latent_cross_cov=False`` the weight
update reads a second evaluation, without the latent cross-covariances.
The latent and mean updates keep their covariance's log determinant
(``latent_cov_logdet``, ``mean_cov_logdet``) from the one factorization of
its precision, so the bound, which reads the priors' kept factors too,
factors nothing.

The expected noise precision Psi is held as its per-view blocks.  Every
weight column's precision is s_i Psi + P0, with one prior precision P0,
so one symmetric eigendecomposition per factor block and sweep
diagonalizes all of them (:meth:`~bayes_ssi.model.Conditionals.weight_basis`):
one per view under the default priors, one of all D rows under priors
that couple the views.  The weight factors are that basis B, one
h_b x h_b array per block with B^T P0 B = I, and a d x D array e of
eigenvalues, column i's covariance being B diag(e_i) B^T; the mean
factor's covariance is held per block too.  Each update is
the model's full conditional (:class:`~bayes_ssi.model.Conditionals`, the
algebra the Gibbs engine samples from) evaluated at the expected latent
statistics and expected noise precision, plus the mean-field corrections
the other factors' covariances add.

The warm start sets the weight means and noise factors at the
canonical-variate point of :func:`~bayes_ssi.subspace.warm_start_point`,
the one the Gibbs engine can start from too.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Conditionals, LatentStats, PriorHyper, check_order, latent_natural
from .rng import (
    VB_INIT_STREAM,
    Rng,
    chol_inverse,
    chol_logdet,
    digamma,
    log_multigamma,
    spd_cholesky,
    symmetrize,
)
from .subspace import HankelStats, warm_start_point

__all__ = [
    "VBConfig",
    "VBPosterior",
    "ElboDecreaseError",
    "NonFiniteBoundError",
    "initial_posterior",
    "run_vb",
]

logger = logging.getLogger(__name__)

_MONOTONE_RTOL = 1e-8


class ElboDecreaseError(RuntimeError):
    """The bound decreased beyond floating-point tolerance."""


class NonFiniteBoundError(RuntimeError):
    """The bound became non-finite."""


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
        if not (np.isfinite(self.elbo_rel_tol) and self.elbo_rel_tol > 0):
            raise ValueError(
                f"elbo_rel_tol must be finite and positive, got {self.elbo_rel_tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class VBPosterior:
    """Parameters of the factorized surrogate posterior.

    The latent mean of data column x_n is ``latent_map @ (x_n -
    latent_centre)``; every column shares ``latent_cov``.  The basis B and
    the mean covariance are block-diagonal and held as one h_b x h_b array
    per factor block (:attr:`~bayes_ssi.model.PriorHyper.factor_slices`),
    and the columns of ``weight_eigs`` follow the block order: weight
    column i's covariance is B diag(weight_eigs[i]) B^T, and B whitens the
    weight prior precision P0, B^T P0 B = I, which the bound relies on.
    """

    latent_cov: np.ndarray           # d x d, shared across columns
    latent_map: np.ndarray           # d x D
    latent_centre: np.ndarray        # D
    weight_mean: np.ndarray          # D x d
    weight_basis: list[np.ndarray]   # per factor block, shared by every column
    weight_eigs: np.ndarray          # d x D, columns in block order
    mean_loc: np.ndarray             # D
    mean_cov: list[np.ndarray]       # per factor block
    mean_cov_logdet: float           # ln |mean_cov|
    latent_cov_logdet: float         # ln |latent_cov|
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


def _expected_logdet_precision(scale_logdet: float, dim: int, dof: float) -> float:
    """E[ln |precision|] under a Wishart factor whose scale inverse has log
    determinant ``scale_logdet``."""
    digamma_sum = float(np.sum(digamma(0.5 * (dof - np.arange(dim)))))
    return digamma_sum + dim * np.log(2.0) - scale_logdet


def _wishart_log_norm(scale_logdet: float, dof: float, dim: int) -> float:
    """Log normalizer of a Wishart density on the precision, for an
    inverse-Wishart scale with log determinant ``scale_logdet``."""
    return 0.5 * dof * (scale_logdet - dim * np.log(2.0)) - log_multigamma(0.5 * dof, dim)


def _expected_precision(post: VBPosterior) -> tuple[list[np.ndarray], list[float]]:
    """The expected noise precision Psi as its per-view blocks
    dof * scale^-1 of the Wishart factors, and each view's ln |scale|, from
    one Cholesky factorization of each scale."""
    chols = [spd_cholesky(symmetrize(scale), "noise factor scale")
             for scale in post.noise_scale]
    return ([dof * chol_inverse(chol) for chol, dof in zip(chols, post.noise_dof)],
            [chol_logdet(chol) for chol in chols])


class _Kernel(Conditionals):
    """The closed-form coordinate updates and the bound on one set of
    sufficient statistics, worked block by block."""

    def latent_stats(self, post: VBPosterior, cross_cov: bool) -> LatentStats:
        """Expected latent statistics: (X - m 1^T) E[Z]^T = G A^T,
        E[Z] 1 = N A (m - c) and E[Z Z^T] = E[Z] E[Z]^T + N latent_cov, or
        only the diagonal of N latent_cov when ``cross_cov`` is False."""
        n = self.stats.n_cols
        cross = self.stats.gram @ post.latent_map.T
        shift = post.latent_map @ (self.stats.row_mean - post.latent_centre)
        cov = post.latent_cov if cross_cov else np.diag(np.diag(post.latent_cov))
        gram = post.latent_map @ cross + n * np.outer(shift, shift) + n * cov
        return LatentStats(cross=cross, gram=gram, total=n * shift)

    def expected_scatter(self, post: VBPosterior, lat: LatentStats,
                         ) -> list[np.ndarray]:
        """Per-view diagonal blocks of sum_n E[(x_n - mu - W z_n)(x_n - mu -
        W z_n)^T]: the residual scatter at the expected statistics plus the
        mean factor's covariance and each weight column's covariance times
        E[sum_n z_in^2], on the view's rows of its factor block."""
        n = self.stats.n_cols
        sq_eigs = np.diag(lat.gram) @ post.weight_eigs
        out = self.residual_scatter(post.weight_mean, post.mean_loc, lat)
        for block, basis, cov in zip(self.priors.factor_slices, post.weight_basis,
                                     post.mean_cov):
            weighted = basis * sq_eigs[block]
            for m, view in enumerate(self.slices):
                if block.start <= view.start < block.stop:
                    rows = slice(view.start - block.start, view.stop - block.start)
                    out[m] = out[m] + n * cov[rows, rows] + weighted[rows] @ basis[rows].T
        return out

    def update_latent(self, post: VBPosterior, psi: list[np.ndarray]) -> None:
        # E[W^T Psi W] adds tr(Psi Sigma_w_i) = e_i . diag(B^T Psi B) to
        # diagonal entry i, B and Psi taken block by block
        quad = [np.einsum("ij,ij->j", basis, block_psi @ basis)
                for basis, block_psi in zip(post.weight_basis,
                                            self.factor_precisions(psi))]
        trace_corr = post.weight_eigs @ np.concatenate(quad)
        post_chol, post.latent_map = latent_natural(post.weight_mean, psi,
                                                    np.diag(trace_corr))
        post.latent_cov = chol_inverse(post_chol)
        post.latent_cov_logdet = -chol_logdet(post_chol)
        post.latent_centre = post.mean_loc.copy()

    def update_weights(self, post: VBPosterior, psi: list[np.ndarray],
                       lat: LatentStats) -> None:
        """Update every weight-column factor in column order; each mean sees
        the columns updated before it.  The covariances depend only on Psi
        and E[sum_n z_in^2], so all columns share one eigenbasis."""
        basis, eigs = self.weight_factors(psi, np.diag(lat.gram))
        for i in range(eigs.shape[0]):
            rhs = self.weight_rhs(post.weight_mean, post.mean_loc, lat, psi, i)
            for sl, block in zip(self.priors.factor_slices, basis):
                post.weight_mean[sl, i] = block @ (eigs[i, sl] * (rhs[sl] @ block))
        post.weight_basis, post.weight_eigs = basis, eigs

    def update_noise(self, post: VBPosterior, lat: LatentStats) -> None:
        post.noise_scale, post.noise_dof = map(
            list, zip(*self.noise_conditionals(self.expected_scatter(post, lat))))

    def update_mean(self, post: VBPosterior, psi: list[np.ndarray],
                    lat: LatentStats) -> None:
        """One factorization of N Psi + P_mu on the factor blocks gives the
        mean, the covariance and its log determinant."""
        factors = self.precision_factors(psi, np.empty(0))
        post.mean_loc = self.factor_solve(
            factors, 0, self.mean_rhs(post.weight_mean, lat, psi))
        post.mean_cov = [chol_inverse(chol[0]) for chol in factors]
        post.mean_cov_logdet = -sum(chol_logdet(chol[0]) for chol in factors)

    def elbo(self, post: VBPosterior, psi: list[np.ndarray], lat: LatentStats,
             scale_logdets: list[float]) -> float:
        """Expected log likelihood minus each surrogate factor's KL
        divergence from its prior, given the noise factors' ln |scale|."""
        priors = self.priors
        n = self.stats.n_cols
        d = post.latent_cov.shape[0]
        e_logdets = [_expected_logdet_precision(logdet, scale.shape[0], dof)
                     for logdet, scale, dof in zip(scale_logdets, post.noise_scale,
                                                   post.noise_dof)]

        value = 0.5 * n * (sum(e_logdets) - self.stats.dim * np.log(2.0 * np.pi))
        value -= 0.5 * sum(float(np.sum(block_psi * block)) for block_psi, block
                           in zip(psi, self.expected_scatter(post, lat)))
        # latent factors against N(0, I), summed over the columns
        value -= 0.5 * (float(np.trace(lat.gram)) - n * d - n * post.latent_cov_logdet)
        # the mean factor against its prior, block by block
        dev = post.mean_loc - priors.mean_loc
        prec0 = priors.mean_prior[0]
        value -= 0.5 * (sum(float(dev[sl] @ prec0[sl, sl] @ dev[sl])
                            + float(np.sum(prec0[sl, sl] * cov))
                            for sl, cov in zip(priors.factor_slices, post.mean_cov))
                        - dev.size + chol_logdet(priors.mean_chol) - post.mean_cov_logdet)
        # weight columns against their prior: B^T P0 B = I makes the trace
        # term sum(e_i) and ln |P0^-1| - ln |Sigma_w_i| = -sum(ln e_i)
        dev = post.weight_mean - priors.weight_loc[:, None]
        prec0 = priors.weight_prior[0]
        eigs = post.weight_eigs
        value -= 0.5 * (sum(float(np.sum(dev[sl] * (prec0[sl, sl] @ dev[sl])))
                            for sl in priors.factor_slices)
                        + float(np.sum(eigs - np.log(eigs))) - eigs.size)
        # Wishart factors; tr(scale E[precision]) = dof * dim under the factor
        value -= 0.5 * sum(float(np.sum(scale0 * block_psi))
                           for scale0, block_psi in zip(priors.noise_scale, psi))
        for dof0, chol0, scale, dof, logdet, e_logdet in zip(
                priors.noise_dof, priors.noise_chols, post.noise_scale,
                post.noise_dof, scale_logdets, e_logdets):
            dim = scale.shape[0]
            value -= (0.5 * (dof - dof0) * e_logdet - 0.5 * dof * dim
                      + _wishart_log_norm(logdet, dof, dim)
                      - _wishart_log_norm(chol_logdet(chol0), dof0, dim))
        return float(value)


def initial_posterior(stats: HankelStats, priors: PriorHyper, order: int, seed: int,
                      warm_start: bool = False) -> VBPosterior:
    """Deterministic seeded initialization at model order ``order``: small
    random weight means, zero latent means, noise factors at their prior,
    mean factor centred on the data row means.

    ``warm_start`` replaces the random weight means with the classical
    maximum-likelihood point and matches the noise factors to the residual
    covariance there.
    """
    check_order(order)
    rng = Rng(seed, VB_INIT_STREAM)
    total_dim = stats.dim
    n = stats.n_cols
    if warm_start:
        weight_mean, _, noise_cov = warm_start_point(stats, order)
        # 1e-8 I = B diag(1e-8 / lam) B^T for the basis with B^T B = diag(lam)
        weight_basis, lam = Conditionals(stats, priors).weight_basis(
            [np.eye(dim) for dim in priors.view_dims])
        weight_eigs = np.tile(1e-8 / lam, (order, 1))
        noise_dof = [dof0 + n for dof0 in priors.noise_dof]
        noise_scale = [dof * blk for dof, blk in zip(noise_dof, noise_cov)]
    else:
        mean_square = (float(np.trace(stats.gram)) + n * float(stats.row_mean @ stats.row_mean)
                       ) / (total_dim * n)
        scale = 0.1 * float(np.sqrt(mean_square)) + 1e-8
        weight_mean = scale * rng.standard_normal((total_dim, order))
        # the prior covariance L L^T: B = L, e_i = 1
        weight_basis = [priors.weight_chol[sl, sl].copy() for sl in priors.factor_slices]
        weight_eigs = np.ones((order, total_dim))
        noise_scale = [s.copy() for s in priors.noise_scale]
        noise_dof = list(priors.noise_dof)
    return VBPosterior(
        latent_cov=np.eye(order),
        latent_map=np.zeros((order, total_dim)),
        latent_centre=stats.row_mean.copy(),
        weight_mean=weight_mean,
        weight_basis=weight_basis,
        weight_eigs=weight_eigs,
        mean_loc=stats.row_mean.copy(),
        mean_cov=[1e-10 * np.eye(sl.stop - sl.start) for sl in priors.factor_slices],
        mean_cov_logdet=total_dim * np.log(1e-10),
        latent_cov_logdet=0.0,
        noise_scale=noise_scale,
        noise_dof=noise_dof,
        view_dims=priors.view_dims,
    )


def run_vb(stats: HankelStats, priors: PriorHyper, order: int,
           config: VBConfig) -> VBPosterior:
    """Iterate the coordinate updates on the sufficient statistics at model
    order ``order`` until the bound converges.

    Update order per sweep: latent factor, every weight column, noise
    factors, mean factor; the bound is evaluated after each full sweep.  A
    decrease beyond 1e-8 relative raises (logs a warning in the non-exact
    ``latent_cross_cov=False`` mode); a non-finite bound aborts with a
    state dump, and a run that stops at ``max_iter`` unconverged logs one
    warning naming the order.  Each sweep costs O(sum_b h_b^3 + D^2 d) over
    the factor blocks h_b, whatever the column count.
    """
    kernel = _Kernel(stats, priors)
    post = initial_posterior(stats, priors, order, config.seed, warm_start=config.warm_start)

    start = time.perf_counter()
    previous = -np.inf
    psi, _ = _expected_precision(post)
    for sweep in range(1, config.max_iter + 1):
        kernel.update_latent(post, psi)
        lat = kernel.latent_stats(post, True)
        kernel.update_weights(post, psi, lat if config.latent_cross_cov
                              else kernel.latent_stats(post, False))
        kernel.update_noise(post, lat)
        psi, scale_logdets = _expected_precision(post)
        kernel.update_mean(post, psi, lat)

        bound = kernel.elbo(post, psi, lat, scale_logdets)
        if not np.isfinite(bound):
            raise NonFiniteBoundError(
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
            logger.warning(message)
        post.elbo_trace.append(bound)
        post.n_iter = sweep
        if np.isfinite(previous) and abs(bound - previous) < config.elbo_rel_tol * abs(previous):
            post.converged = True
            break
        previous = bound
    else:
        logger.warning("VB at order %d stopped at max_iter=%d without converging",
                       order, config.max_iter)
    post.elapsed_s = time.perf_counter() - start
    return post
