"""Shared definition of the hierarchical latent-projection model used by
both inference engines: stacked two-view data, prior hyperparameters, and
the per-view block structure of the noise covariance.

The observation model for each column x_n of the stacked data is

    z_n ~ N(0, I_d)
    x_n | z_n ~ N(W z_n + mu, Sigma)

with Sigma block-diagonal across views, Gaussian priors on mu and on each
column of W (columns share one prior), and an inverse-Wishart prior on each
view's noise block.  The machinery is generic in the number of views; the
identification pipeline always stacks exactly two (future rows first, then
past rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .rng import (
    chol_logdet,
    inverse_wishart_logpdf,
    mvn_logpdf,
    spd_cholesky,
    validate_spd,
)
from .subspace import HankelPair, HankelStats

__all__ = [
    "StackedData",
    "PriorHyper",
    "ModelState",
    "view_slices",
    "default_priors",
    "log_joint",
]


def view_slices(view_dims: tuple[int, ...]) -> list[slice]:
    """Row slices of the stacked vector belonging to each view."""
    edges = np.concatenate([[0], np.cumsum(view_dims)])
    return [slice(int(edges[m]), int(edges[m + 1])) for m in range(len(view_dims))]


@dataclass(frozen=True)
class StackedData:
    """Column-wise observations with the first view's rows on top.

    For the identification pipeline the first view is the future Hankel
    half and the second the past half, so both views have l*j rows and
    there are N_cols columns.
    """

    x: np.ndarray
    view_dims: tuple[int, ...]

    def __post_init__(self):
        if self.x.ndim != 2:
            raise ValueError("stacked data must be a 2-d matrix")
        if sum(self.view_dims) != self.x.shape[0]:
            raise ValueError(
                f"view dims {self.view_dims} do not sum to row count {self.x.shape[0]}"
            )

    @classmethod
    def from_hankel(cls, hp: HankelPair) -> "StackedData":
        """Stack the future rows over the past rows."""
        return cls(x=np.vstack([hp.future, hp.past]),
                   view_dims=(hp.future.shape[0], hp.past.shape[0]))

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    @property
    def n_columns(self) -> int:
        return self.x.shape[1]

    def stats(self) -> HankelStats:
        """Sufficient statistics (centred Gram, row means, column count)."""
        return HankelStats.from_matrix(self.x, self.view_dims)

    def slices(self) -> list[slice]:
        return view_slices(self.view_dims)


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

    def slices(self) -> list[slice]:
        return view_slices(self.view_dims)


@dataclass
class ModelState:
    """One point in parameter space: weights, mean, per-view noise blocks
    and the latent matrix."""

    weights: np.ndarray              # D x d
    mean: np.ndarray                 # D
    noise_cov: list[np.ndarray]      # per-view blocks
    latent: np.ndarray               # d x N

    def copy(self) -> "ModelState":
        return ModelState(weights=self.weights.copy(), mean=self.mean.copy(),
                          noise_cov=[s.copy() for s in self.noise_cov],
                          latent=self.latent.copy())


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


def log_joint(state: ModelState, data: StackedData, priors: PriorHyper) -> float:
    """Log of the full joint density at ``state``, constants included so
    values are comparable across states."""
    x = data.x
    n = data.n_columns
    resid = x - state.mean[:, None] - state.weights @ state.latent

    total = 0.0
    for sl, cov in zip(data.slices(), state.noise_cov):
        dim = cov.shape[0]
        chol = spd_cholesky(cov, "noise_cov")
        white = solve_triangular(chol, resid[sl], lower=True)
        total += -0.5 * n * (dim * np.log(2.0 * np.pi) + chol_logdet(chol))
        total += -0.5 * float(np.sum(white * white))

    # standard-normal latent prior
    d = state.latent.shape[0]
    total += -0.5 * n * d * np.log(2.0 * np.pi) - 0.5 * float(np.sum(state.latent**2))

    for cov, scale, dof in zip(state.noise_cov, priors.noise_scale, priors.noise_dof):
        total += inverse_wishart_logpdf(cov, scale, dof)

    total += mvn_logpdf(state.mean, priors.mean_loc, priors.mean_cov)
    for i in range(state.weights.shape[1]):
        total += mvn_logpdf(state.weights[:, i], priors.weight_loc, priors.weight_cov)
    return float(total)
