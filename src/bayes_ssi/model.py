"""Shared definition of the hierarchical latent-projection model used by
both inference engines: prior hyperparameters, the per-view block
structure of the noise covariance, and the model's conditionals and log
joint density on the data statistics.

The observation model for each column x_n of the stacked data is

    z_n ~ N(0, I_d)
    x_n | z_n ~ N(W z_n + mu, Sigma)

with Sigma block-diagonal across views, Gaussian priors on mu and on each
column of W (columns share one prior), and an inverse-Wishart prior on each
view's noise block.  The machinery is generic in the number of views; the
identification pipeline always stacks exactly two (future rows first, then
past rows).

Given the latent matrix Z, the noise, mean and weight-column conditionals
and the log joint see the data only through its statistics
(:class:`~bayes_ssi.subspace.HankelStats`) and the latent statistics
(:class:`LatentStats`).  :class:`Conditionals` and :func:`latent_natural`
are the one implementation of that algebra: the Gibbs engine evaluates it
at drawn latent statistics, the variational engine at its expected ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve

from .rng import (
    chol_logdet,
    inverse_wishart_logpdf,
    mvn_logpdf,
    spd_cholesky,
    spd_inverse,
    symmetrize,
    validate_spd,
)
from .subspace import HankelStats

__all__ = [
    "PriorHyper",
    "LatentStats",
    "Conditionals",
    "view_slices",
    "block_diagonal",
    "latent_natural",
    "default_priors",
    "log_joint",
]


def view_slices(view_dims: tuple[int, ...]) -> list[slice]:
    """Row slices of the stacked vector belonging to each view."""
    edges = np.concatenate([[0], np.cumsum(view_dims)])
    return [slice(int(edges[m]), int(edges[m + 1])) for m in range(len(view_dims))]


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """Dense block-diagonal matrix with the per-view ``blocks`` on its
    diagonal."""
    dims = [blk.shape[0] for blk in blocks]
    out = np.zeros((sum(dims), sum(dims)))
    start = 0
    for blk, dim in zip(blocks, dims):
        out[start:start + dim, start:start + dim] = blk
        start += dim
    return out


@dataclass(frozen=True)
class PriorHyper:
    """Hyperparameters of the hierarchical model.

    The weight-column prior is shared by every column; the noise prior is
    an inverse Wishart per view with scale ``noise_scale[m]`` and degrees
    of freedom ``noise_dof[m]``.
    """

    mean_loc: np.ndarray
    mean_cov: np.ndarray
    weight_loc: np.ndarray
    weight_cov: np.ndarray
    noise_scale: tuple[np.ndarray, ...]
    noise_dof: tuple[float, ...]
    latent_dim: int
    view_dims: tuple[int, ...]

    def __post_init__(self):
        total = sum(self.view_dims)
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.mean_loc.shape != (total,) or self.weight_loc.shape != (total,):
            raise ValueError("prior location vectors must have the stacked dimension")
        validate_spd(self.mean_cov, "mean_cov")
        validate_spd(self.weight_cov, "weight_cov")
        if not len(self.noise_scale) == len(self.noise_dof) == len(self.view_dims):
            raise ValueError(
                f"noise_scale and noise_dof need one entry per view "
                f"({len(self.view_dims)}), got {len(self.noise_scale)} and "
                f"{len(self.noise_dof)}"
            )
        for m, (scale, dof, dim) in enumerate(
                zip(self.noise_scale, self.noise_dof, self.view_dims)):
            validate_spd(scale, f"noise_scale[{m}]")
            if scale.shape != (dim, dim):
                raise ValueError(f"noise_scale[{m}] must be {dim}x{dim}")
            if dof <= dim - 1:
                raise ValueError(
                    f"noise_dof[{m}] must exceed view dim - 1 = {dim - 1}, got {dof}"
                )

    @property
    def dim(self) -> int:
        return sum(self.view_dims)

    @cached_property
    def mean_prior(self) -> tuple[np.ndarray, np.ndarray]:
        """(precision, precision @ location) of the mean prior."""
        prec = spd_inverse(self.mean_cov, "mean_cov")
        return prec, prec @ self.mean_loc

    @cached_property
    def weight_prior(self) -> tuple[np.ndarray, np.ndarray]:
        """(precision, precision @ location) of the weight-column prior."""
        prec = spd_inverse(self.weight_cov, "weight_cov")
        return prec, prec @ self.weight_loc


@dataclass(frozen=True)
class LatentStats:
    """Sufficient statistics of a d x N latent matrix Z against data X whose
    rows have means m: (X - m 1^T) Z^T, Z Z^T and Z 1."""

    cross: np.ndarray    # D x d
    gram: np.ndarray     # d x d
    total: np.ndarray    # d

    @classmethod
    def from_latent(cls, x: np.ndarray, row_mean: np.ndarray,
                    latent: np.ndarray) -> "LatentStats":
        return cls(cross=(x - row_mean[:, None]) @ latent.T,
                   gram=symmetrize(latent @ latent.T), total=latent.sum(axis=1))


def latent_natural(weights: np.ndarray, prec: np.ndarray,
                   extra: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(chol of the shared conditional precision P = W^T prec W + I + extra,
    map A = P^-1 W^T prec) of the latent conditional
    z_n | x_n ~ N(A (x_n - mean), P^-1).

    ``extra`` (d x d) is added to the precision; the variational engine
    passes its weight-uncertainty correction there."""
    d = weights.shape[1]
    prec_w = prec @ weights                      # D x d
    post_prec = weights.T @ prec_w + np.eye(d)
    if extra is not None:
        post_prec += extra
    post_chol = spd_cholesky(symmetrize(post_prec), "latent conditional precision")
    return post_chol, cho_solve((post_chol, True), prec_w.T, check_finite=False)


class Conditionals:
    """The residual scatter, the noise conditional and the Gaussian
    conditionals of the mean and of each weight column, on one set of data
    statistics and given latent statistics.

    ``prec`` is the dense block-diagonal noise precision; the mean and
    weight conditionals return (chol of the conditional precision,
    conditional mean).  The residual scatter does not read ``priors``."""

    def __init__(self, stats: HankelStats, priors: PriorHyper):
        self.stats = stats
        self.priors = priors
        self.slices = view_slices(stats.view_dims)

    def residual_scatter(self, weights: np.ndarray, mean: np.ndarray,
                         lat: LatentStats) -> np.ndarray:
        """sum_n (x_n - mean - W z_n)(x_n - mean - W z_n)^T, expanded about
        the row means so only D x D and D x d arrays appear."""
        dev = self.stats.row_mean - mean
        fitted = weights @ lat.total
        scatter = self.stats.gram + self.stats.n_cols * np.outer(dev, dev)
        scatter -= lat.cross @ weights.T + weights @ lat.cross.T
        scatter -= np.outer(dev, fitted) + np.outer(fitted, dev)
        scatter += weights @ lat.gram @ weights.T
        return symmetrize(scatter)

    def noise_conditionals(self, scatter: np.ndarray,
                           ) -> list[tuple[np.ndarray, float]]:
        """Per-view (scale, dof) of the inverse-Wishart conditional given the
        residual scatter."""
        return [(symmetrize(scale0 + scatter[sl, sl]), dof0 + self.stats.n_cols)
                for sl, scale0, dof0 in zip(self.slices, self.priors.noise_scale,
                                            self.priors.noise_dof)]

    def mean_natural(self, weights: np.ndarray, lat: LatentStats,
                     prec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(chol of conditional precision, conditional mean) for the mean."""
        n = self.stats.n_cols
        prior_prec, prior_rhs = self.priors.mean_prior
        post_chol = spd_cholesky(symmetrize(n * prec + prior_prec),
                                 "mean conditional precision")
        # sum over columns of (x_n - W z_n)
        demeaned_sum = n * self.stats.row_mean - weights @ lat.total
        post_mean = cho_solve((post_chol, True), prec @ demeaned_sum + prior_rhs,
                              check_finite=False)
        return post_chol, post_mean

    def weight_natural(self, weights: np.ndarray, mean: np.ndarray,
                       lat: LatentStats, prec: np.ndarray, i: int,
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(chol of conditional precision, conditional mean) for weight column i."""
        sq_sum = lat.gram[i, i]
        prior_prec, prior_rhs = self.priors.weight_prior
        post_chol = spd_cholesky(symmetrize(sq_sum * prec + prior_prec),
                                 "weight conditional precision")
        # sum over columns of (x_n - mean - sum_{k != i} w_k z_kn) z_in
        data_term = (lat.cross[:, i] + (self.stats.row_mean - mean) * lat.total[i]
                     - weights @ lat.gram[:, i] + weights[:, i] * sq_sum)
        post_mean = cho_solve((post_chol, True), prec @ data_term + prior_rhs,
                              check_finite=False)
        return post_chol, post_mean


def default_priors(view_dim_future: int, view_dim_past: int, latent_dim: int, *,
                   weight_scale: float = 1.0, mean_scale: float = 1.0,
                   noise_scale: float = 100.0, noise_dof_offset: float = 2.0,
                   ) -> PriorHyper:
    """Weakly informative proper priors.

    Defaults follow the benchmark study: unit-variance Gaussian priors on
    the mean and on each weight column, noise scale 100*I with degrees of
    freedom D_m + 2 per view.  Pass ``noise_scale=1.0`` for the
    identity-scale variant used on measured bridge data.
    """
    dims = (int(view_dim_future), int(view_dim_past))
    if any(d < 1 for d in dims):
        raise ValueError("view dims must be positive")
    total = sum(dims)
    return PriorHyper(
        mean_loc=np.zeros(total),
        mean_cov=mean_scale * np.eye(total),
        weight_loc=np.zeros(total),
        weight_cov=weight_scale * np.eye(total),
        noise_scale=tuple(noise_scale * np.eye(d) for d in dims),
        noise_dof=tuple(float(d + noise_dof_offset) for d in dims),
        latent_dim=int(latent_dim),
        view_dims=dims,
    )


def log_joint(stats: HankelStats, lat: LatentStats, weights: np.ndarray,
              mean: np.ndarray, noise_cov: list[np.ndarray],
              priors: PriorHyper) -> float:
    """Log of the full joint density at (weights, mean, per-view noise
    blocks, latent matrix Z), constants included so values are comparable
    across states.  The data enter through ``stats`` and Z through its
    statistics ``lat``."""
    n = stats.n_cols
    scatter = Conditionals(stats, priors).residual_scatter(weights, mean, lat)

    total = 0.0
    for sl, cov in zip(view_slices(stats.view_dims), noise_cov):
        dim = cov.shape[0]
        chol = spd_cholesky(cov, "noise_cov")
        total += -0.5 * n * (dim * np.log(2.0 * np.pi) + chol_logdet(chol))
        total += -0.5 * float(np.trace(cho_solve((chol, True), scatter[sl, sl],
                                                 check_finite=False)))

    # standard-normal latent prior
    d = lat.gram.shape[0]
    total += -0.5 * (n * d * np.log(2.0 * np.pi) + float(np.trace(lat.gram)))

    for cov, scale, dof in zip(noise_cov, priors.noise_scale, priors.noise_dof):
        total += inverse_wishart_logpdf(cov, scale, dof)

    total += mvn_logpdf(mean, priors.mean_loc, priors.mean_cov)
    for i in range(weights.shape[1]):
        total += mvn_logpdf(weights[:, i], priors.weight_loc, priors.weight_cov)
    return float(total)
