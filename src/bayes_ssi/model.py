"""Shared definition of the hierarchical latent-projection model used by
both inference engines: prior hyperparameters, the per-view block
structure of the noise covariance, and the model's conditionals on the
data statistics.

The observation model for each column x_n of the stacked data is

    z_n ~ N(0, I_d)
    x_n | z_n ~ N(W z_n + mu, Sigma)

with Sigma block-diagonal across views, Gaussian priors on mu and on each
column of W (columns share one prior), and an inverse-Wishart prior on each
view's noise block.  The machinery is generic in the number of views; the
identification pipeline always stacks exactly two (future rows first, then
past rows).

Given the latent matrix Z, the noise, mean and weight-column conditionals
see the data only through its statistics
(:class:`~bayes_ssi.subspace.HankelStats`) and the latent statistics
(:class:`LatentStats`).  :class:`Conditionals` and :func:`latent_natural`
are the one implementation of that algebra: the Gibbs engine evaluates it
at drawn latent statistics, the variational engine at its expected ones.

Every function here takes the noise precision as its list of per-view
blocks.  When the mean and weight priors are block-diagonal too (the
default), so is every mean and weight-column conditional precision, and
each is factored per view (:attr:`PriorHyper.factor_slices`), as is the
variational engine's weight basis (:meth:`Conditionals.weight_basis`),
one array per view.  A prior that couples the views makes the partition
one block of all D rows, the one case that assembles the D x D noise
precision (:meth:`Conditionals.factor_precisions`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import (
    NotPositiveDefiniteError,
    chol_solve,
    solve_lower,
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
    "latent_natural",
    "default_priors",
]


def view_slices(view_dims: tuple[int, ...]) -> list[slice]:
    """Row slices of the stacked vector belonging to each view."""
    edges = np.concatenate([[0], np.cumsum(view_dims)])
    return [slice(int(edges[m]), int(edges[m + 1])) for m in range(len(view_dims))]


def _block_product(blocks: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """blockdiag(``blocks``) @ ``x``, one product per diagonal block."""
    out, stop = np.empty(x.shape), 0
    for blk in blocks:
        start, stop = stop, stop + len(blk)
        np.matmul(blk, x[start:stop], out=out[start:stop])
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
            raise ValueError(f"latent_dim (model order) must be >= 1, got {self.latent_dim}")
        for name in ("mean_loc", "weight_loc"):
            loc = getattr(self, name)
            if loc.shape != (total,):
                raise ValueError(f"{name} must have the stacked dimension {total}")
            if not np.all(np.isfinite(loc)):
                raise ValueError(f"{name} must be finite")
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
            if not (np.isfinite(dof) and dof > dim - 1):
                raise ValueError(f"noise_dof[{m}] must be finite and exceed "
                                 f"view dim - 1 = {dim - 1}, got {dof}")

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

    @cached_property
    def weight_chol(self) -> np.ndarray:
        """Lower Cholesky factor of the weight-column prior covariance."""
        return spd_cholesky(self.weight_cov, "weight_cov")

    @cached_property
    def factor_slices(self) -> list[slice]:
        """Row blocks on which the mean and weight-column conditional
        precisions are block-diagonal: the view slices when ``mean_cov`` and
        ``weight_cov`` have exactly zero cross-view blocks, otherwise one
        block of all D rows."""
        views = view_slices(self.view_dims)
        coupled = any(np.any(cov[a, b]) for cov in (self.mean_cov, self.weight_cov)
                      for a in views for b in views if a != b)
        return [slice(0, self.dim)] if coupled else views


@dataclass(frozen=True)
class LatentStats:
    """Sufficient statistics of a d x N latent matrix Z against data X whose
    rows have means m: (X - m 1^T) Z^T, Z Z^T and Z 1."""

    cross: np.ndarray    # D x d
    gram: np.ndarray     # d x d
    total: np.ndarray    # d


def latent_natural(weights: np.ndarray, prec: list[np.ndarray],
                   extra: np.ndarray | None = None,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(chol of the shared conditional precision P = W^T prec W + I + extra,
    map A = P^-1 W^T prec) of the latent conditional
    z_n | x_n ~ N(A (x_n - mean), P^-1), for the noise precision given as
    its per-view blocks ``prec``.

    ``extra`` (d x d) is added to the precision; the variational engine
    passes its weight-uncertainty correction there."""
    d = weights.shape[1]
    prec_w = _block_product(prec, weights)       # D x d
    post_prec = weights.T @ prec_w + np.eye(d)
    if extra is not None:
        post_prec += extra
    post_chol = spd_cholesky(symmetrize(post_prec), "latent conditional precision")
    return post_chol, chol_solve(post_chol, prec_w.T)


class Conditionals:
    """The residual scatter, the noise conditional and the Gaussian
    conditionals of the mean and of each weight column, on one set of data
    statistics and given latent statistics.

    ``prec`` is the noise precision as its list of per-view blocks.  The
    Gaussian conditionals are held as right-hand sides (precision times
    mean) and the Cholesky factors of their precisions on the factor blocks
    (:meth:`precision_factors`); :meth:`factor_solve` turns the two into a
    conditional mean or a draw.  The residual scatter does not read
    ``priors``."""

    def __init__(self, stats: HankelStats, priors: PriorHyper):
        self.stats = stats
        self.priors = priors
        self.slices = view_slices(stats.view_dims)

    def factor_precisions(self, prec: list[np.ndarray]) -> list[np.ndarray]:
        """The noise precision on each factor block: the per-view blocks
        themselves, or, when a coupling prior makes one block of all D
        rows, the D x D block-diagonal matrix."""
        if len(self.priors.factor_slices) == len(prec):
            return prec
        dense = np.zeros((self.stats.dim, self.stats.dim))
        for sl, blk in zip(self.slices, prec):
            dense[sl, sl] = blk
        return [dense]

    def residual_scatter(self, weights: np.ndarray, mean: np.ndarray,
                         lat: LatentStats) -> list[np.ndarray]:
        """Per-view diagonal blocks of sum_n (x_n - mean - W z_n)(x_n - mean
        - W z_n)^T, expanded about the row means so only D_m x D_m and
        D_m x d arrays appear."""
        dev = self.stats.row_mean - mean
        fitted = weights @ lat.total
        blocks = []
        for sl in self.slices:
            w = weights[sl]
            cross = lat.cross[sl] @ w.T
            outer = np.outer(dev[sl], fitted[sl])
            scatter = self.stats.gram[sl, sl] + self.stats.n_cols * np.outer(dev[sl], dev[sl])
            scatter -= cross + cross.T
            scatter -= outer + outer.T
            scatter += w @ lat.gram @ w.T
            blocks.append(symmetrize(scatter))
        return blocks

    def noise_conditionals(self, scatter: list[np.ndarray],
                           ) -> list[tuple[np.ndarray, float]]:
        """Per-view (scale, dof) of the inverse-Wishart conditional given the
        per-view blocks of the residual scatter."""
        return [(symmetrize(scale0 + block), dof0 + self.stats.n_cols)
                for block, scale0, dof0 in zip(scatter, self.priors.noise_scale,
                                               self.priors.noise_dof)]

    def mean_rhs(self, weights: np.ndarray, lat: LatentStats,
                 prec: list[np.ndarray]) -> np.ndarray:
        """Conditional precision times conditional mean of the mean:
        prec @ sum_n (x_n - W z_n) plus the prior precision times the prior
        location."""
        demeaned_sum = self.stats.n_cols * self.stats.row_mean - weights @ lat.total
        return _block_product(prec, demeaned_sum) + self.priors.mean_prior[1]

    def weight_rhs(self, weights: np.ndarray, mean: np.ndarray, lat: LatentStats,
                   prec: list[np.ndarray], i: int) -> np.ndarray:
        """Conditional precision times conditional mean of weight column i:
        prec @ sum_n (x_n - mean - sum_{k != i} w_k z_kn) z_in plus the
        prior precision times the prior location."""
        data_term = (lat.cross[:, i] + (self.stats.row_mean - mean) * lat.total[i]
                     - weights @ lat.gram[:, i] + weights[:, i] * lat.gram[i, i])
        return _block_product(prec, data_term) + self.priors.weight_prior[1]

    def precision_factors(self, prec: list[np.ndarray], sq_sums: np.ndarray,
                          ) -> list[np.ndarray]:
        """Lower Cholesky factors of the mean's conditional precision
        N prec + P_mu and of each weight column's s_i prec + P0, for
        s_i = ``sq_sums[i]`` = (Z Z^T)_ii: per factor block one
        (1 + len(sq_sums)) x h x h stack, the mean's first, factored in
        one call."""
        scales = np.concatenate([[self.stats.n_cols], sq_sums])[:, None, None]
        mean_prior, weight_prior = self.priors.mean_prior[0], self.priors.weight_prior[0]
        factors = []
        for sl, block_prec in zip(self.priors.factor_slices, self.factor_precisions(prec)):
            stack = scales * block_prec
            stack[0] += mean_prior[sl, sl]
            stack[1:] += weight_prior[sl, sl]
            try:
                factors.append(np.linalg.cholesky(stack))
            except np.linalg.LinAlgError:
                for k, mat in enumerate(stack):
                    spd_cholesky(mat, "mean conditional precision" if k == 0
                                 else "weight conditional precision")
                raise
        return factors

    def factor_solve(self, factors: list[np.ndarray], k: int, rhs: np.ndarray,
                     white: np.ndarray | None = None) -> np.ndarray:
        """P^-1 rhs for the precision P whose block factors L are entry
        ``k`` of ``factors`` (0 the mean, i + 1 weight column i), by two
        triangular solves per block: L^-T (L^-1 rhs + white).  A
        standard-normal ``white`` makes it a draw from N(P^-1 rhs, P^-1)."""
        out = np.empty_like(rhs)
        for sl, chol in zip(self.priors.factor_slices, factors):
            half = solve_lower(chol[k], rhs[sl])
            if white is not None:
                half += white[sl]
            out[sl] = solve_lower(chol[k], half, transpose=True)
        return out

    def weight_basis(self, prec: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
        """(B, lam) diagonalizing the weight prior precision P0 and ``prec``
        at once, B block-diagonal on the factor blocks and returned as its
        h_b x h_b blocks: B^T P0 B = I and B^T prec B = diag(lam).

        With L L^T the prior covariance, block b has
        L_b^T prec_b L_b = V_b diag(lam_b) V_b^T and B_b = L_b V_b: one
        symmetric eigendecomposition per block, one of all D rows under a
        coupling prior, with lam the eigenvalues in block order.  Every
        weight column's conditional precision s_i prec + P0 is then
        B^-T diag(s_i lam + 1) B^-1."""
        chol = self.priors.weight_chol
        bases, lams = [], []
        for sl, block_prec in zip(self.priors.factor_slices, self.factor_precisions(prec)):
            block = chol[sl, sl]
            lam, vecs = np.linalg.eigh(symmetrize(block.T @ block_prec @ block))
            bases.append(block @ vecs)
            lams.append(lam)
        return bases, np.concatenate(lams)

    def weight_factors(self, prec: list[np.ndarray], sq_sums: np.ndarray,
                       ) -> tuple[list[np.ndarray], np.ndarray]:
        """(B, e): the shared basis blocks and the d x D eigenvalues
        e_i = 1 / (s_i lam + 1) of the weight columns' conditional
        covariances B diag(e_i) B^T, for s_i = ``sq_sums[i]`` = (Z Z^T)_ii."""
        basis, lam = self.weight_basis(prec)
        whitened = np.outer(sq_sums, lam) + 1.0
        if not np.all(whitened > 0.0):
            raise NotPositiveDefiniteError(
                "weight conditional precision is not positive definite: "
                f"whitened eigenvalue {whitened.min():.3e}")
        return basis, 1.0 / whitened


def default_priors(view_dim_future: int, view_dim_past: int, latent_dim: int, *,
                   noise_scale: float = 100.0) -> PriorHyper:
    """Weakly informative proper priors.

    Defaults follow the benchmark study: zero-mean unit-variance Gaussian
    priors on the mean and on each weight column, noise scale
    ``noise_scale`` * I (100 by default) with degrees of freedom D_m + 2
    per view.  Pass ``noise_scale=1.0`` for the identity-scale variant
    used on measured bridge data; set any other field with
    :func:`dataclasses.replace` on the result.
    """
    dims = (int(view_dim_future), int(view_dim_past))
    if any(d < 1 for d in dims):
        raise ValueError("view dims must be positive")
    total = sum(dims)
    return PriorHyper(
        mean_loc=np.zeros(total),
        mean_cov=np.eye(total),
        weight_loc=np.zeros(total),
        weight_cov=np.eye(total),
        noise_scale=tuple(noise_scale * np.eye(d) for d in dims),
        noise_dof=tuple(float(d + 2) for d in dims),
        latent_dim=int(latent_dim),
        view_dims=dims,
    )

