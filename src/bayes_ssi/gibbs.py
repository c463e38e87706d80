"""Gibbs sampler for the hierarchical latent-projection model.

Each sweep draws the per-view noise blocks, the mean, every weight column
(new columns are used immediately within the sweep) and the latent
variables from their full conditionals, in that order.

Given the latent matrix Z, the noise, mean and weight conditionals see the
data X only through its statistics (:class:`~bayes_ssi.subspace.HankelStats`:
the Gram G of the columns about their row means m, m itself and the column
count N) and through the latent statistics (X - m 1^T) Z^T, Z Z^T and Z 1
(:class:`~bayes_ssi.model.LatentStats`); their algebra is
:class:`~bayes_ssi.model.Conditionals`, shared with the variational engine.
``run_gibbs`` therefore never forms X or Z: each sweep draws the latent
statistics exactly from the latent conditional, so a sweep costs the same at
any N.

Given the latent statistics, the mean's and every weight column's
conditional precision depend only on the drawn noise precision, kept as
its per-view blocks, so each sweep factors all of them first, per view
block when the priors allow (:attr:`~bayes_ssi.model.PriorHyper.factor_slices`),
before drawing the mean and the columns in turn.

The warm start is :func:`~bayes_ssi.subspace.warm_start_point`, the
canonical-variate point the variational engine starts from too; neither
engine imports the other.

Every noise draw is exactly symmetric, so the chain keeps each one as its
packed lower triangle, in ``np.tril_indices`` order, and
:meth:`GibbsChain.noise_matrices` rebuilds the full matrices on demand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import Conditionals, LatentStats, PriorHyper, latent_natural
from .rng import (
    GIBBS_STREAM,
    Rng,
    _bartlett_factor,
    sample_inverse_wishart_pair,
    solve_lower,
    spd_inverse,
    symmetrize,
)
from .subspace import HankelStats, warm_start_point
from .subspace import cca  # noqa: F401  -- perfbench/tracing.py wraps this attribute

__all__ = [
    "GibbsConfig",
    "GibbsChain",
    "run_gibbs",
]


@dataclass(frozen=True)
class GibbsConfig:
    """Chain length and retention policy."""

    n_samples: int
    burn_in_fraction: float = 0.2
    thinning: int = 1
    seed: int = 0
    warm_start: bool = False

    def __post_init__(self):
        if not 0.0 <= self.burn_in_fraction < 1.0:
            raise ValueError("burn_in_fraction must lie in [0, 1)")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.n_records < 1:
            raise ValueError("retention policy keeps no samples")

    @property
    def n_burn(self) -> int:
        return self.n_samples - int(self.n_samples * (1.0 - self.burn_in_fraction) + 1e-9)

    @property
    def n_records(self) -> int:
        return (self.n_samples - self.n_burn) // self.thinning


@dataclass
class GibbsChain:
    """Retained draws, one leading axis entry per record."""

    weight_samples: np.ndarray          # n_records x D x d
    mean_samples: np.ndarray            # n_records x D
    # per view, n_records x D_m(D_m + 1)/2: each draw's lower triangle in
    # np.tril_indices order (the draws are exactly symmetric)
    noise_samples: list[np.ndarray]
    view_dims: tuple[int, ...]
    config: GibbsConfig
    elapsed_s: float = 0.0
    factor_blocks: tuple[int, ...] = ()

    @property
    def n_records(self) -> int:
        return self.weight_samples.shape[0]

    def noise_matrices(self, m: int) -> np.ndarray:
        """n_records x D_m x D_m stack of the noise covariances of view
        ``m`` (0-based: ``noise_samples[m]``, the container's
        ``sigma_view{m+1}_samples``), rebuilt from their packed lower
        triangles."""
        dim = self.view_dims[m]
        rows, cols = np.tril_indices(dim)
        packed = self.noise_samples[m]
        full = np.empty((packed.shape[0], dim, dim))
        full[:, rows, cols] = packed
        full[:, cols, rows] = packed
        return full

    def diagnostics(self) -> dict:
        """Run summary: sweeps run, records kept, wall-clock milliseconds
        per sweep and the sizes of the blocks the sweep factored the mean
        and weight conditional precisions on."""
        n_sweeps = self.config.n_samples
        return {"n_sweeps": n_sweeps, "n_records": self.n_records,
                "ms_per_sweep": 1e3 * self.elapsed_s / n_sweeps,
                "factor_blocks": list(self.factor_blocks)}


def _gram_factor(gram: np.ndarray) -> np.ndarray:
    """D x r factor F with F F^T = gram, r the numerical rank of the
    positive semi-definite ``gram``."""
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > max(vals[-1], 0.0) * gram.shape[0] * np.finfo(float).eps
    return vecs[:, keep] * np.sqrt(vals[keep])


class _Kernel(Conditionals):
    """The model's conditionals with their draws, and the exact draw of the
    latent statistics."""

    @cached_property
    def factor(self) -> np.ndarray:
        """Rank-revealing factor F of the centred data Gram, F F^T = G."""
        return _gram_factor(self.stats.gram)

    def transition(self, weights: np.ndarray, mean: np.ndarray, lat: LatentStats,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray,
                                                      list[np.ndarray], list[np.ndarray]]:
        """Draw the per-view noise blocks, then the mean, then every weight
        column in order (each seeing the columns drawn before it) from their
        full conditionals given the latent statistics.  Returns (weights,
        mean, noise blocks, noise precision blocks).

        The random numbers are consumed in that order: each noise block's
        Bartlett factor, D normals for the mean, D normals per column."""
        draws = [sample_inverse_wishart_pair(rng, scale, dof)
                 for scale, dof in self.noise_conditionals(
                     self.residual_scatter(weights, mean, lat))]
        noise, prec = map(list, zip(*draws))
        factors = self.precision_factors(prec, np.diag(lat.gram))
        normal = rng.standard_normal
        dim = self.stats.dim
        mean = self.factor_solve(factors, 0, self.mean_rhs(weights, lat, prec),
                                 normal(dim))
        weights = weights.copy()
        for i in range(weights.shape[1]):
            weights[:, i] = self.factor_solve(
                factors, i + 1, self.weight_rhs(weights, mean, lat, prec, i), normal(dim))
        return weights, mean, noise, prec

    def draw_latent(self, weights: np.ndarray, mean: np.ndarray, prec: list[np.ndarray],
                    rng: np.random.Generator | None) -> LatentStats:
        """Statistics of a latent matrix drawn from its full conditional
        (noise precision blocks ``prec``), or of its means if ``rng`` is None."""
        post_chol, proj = latent_natural(weights, prec)
        return self._latent_stats(post_chol, proj, proj @ (self.stats.row_mean - mean),
                                  rng)

    def draw_prior_latent(self, d: int, rng: np.random.Generator) -> LatentStats:
        """Statistics of a standard-normal d x N latent matrix."""
        return self._latent_stats(np.eye(d), np.zeros((d, self.stats.dim)),
                                  np.zeros(d), rng)

    def _latent_stats(self, chol: np.ndarray, proj: np.ndarray, shift: np.ndarray,
                      rng: np.random.Generator | None) -> LatentStats:
        """Statistics of Z = proj (X - m 1^T) + shift 1^T + chol^-T E, with E
        a d x N standard-normal matrix (zero when ``rng`` is None), drawn
        exactly without forming X, Z or E.

        [X - m 1^T; 1^T] = blockdiag(F, sqrt(N)) Q with Q of r + 1
        orthonormal rows.  Then H = Q E^T is an (r + 1) x d standard-normal
        matrix and E E^T = H^T H + Wishart(I_d, N - r - 1), independent of
        H.  With K = [proj F, sqrt(N) shift] + chol^-T H^T:
        (X - m 1^T) Z^T = F K_F^T, Z 1 = sqrt(N) K_1 and
        Z Z^T = K K^T + chol^-T Wishart chol^-1.
        """
        factor = self.factor
        n = self.stats.n_cols
        d = chol.shape[0]
        rank = factor.shape[1] + 1
        k = np.empty((d, rank))
        k[:, :-1] = proj @ factor
        k[:, -1] = np.sqrt(n) * shift
        spare = None
        if rng is not None:
            k += solve_lower(chol, rng.standard_normal((d, rank)),
                             transpose=True)
            dof = n - rank
            if dof >= d:
                spare = _bartlett_factor(rng, d, dof)
            elif dof > 0:
                spare = rng.standard_normal((d, dof))
        gram = k @ k.T
        if spare is not None:
            spare = solve_lower(chol, spare, transpose=True)
            gram += spare @ spare.T
        return LatentStats(cross=factor @ k[:, :-1].T, gram=symmetrize(gram),
                           total=np.sqrt(n) * k[:, -1])


def _prior_point(priors: PriorHyper, rng: np.random.Generator,
                 ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(weights, mean, per-view noise blocks) drawn from the priors."""
    noise = [sample_inverse_wishart_pair(rng, scale, dof)[0]
             for scale, dof in zip(priors.noise_scale, priors.noise_dof)]
    mean = priors.mean_loc + priors.mean_chol @ rng.standard_normal(priors.dim)
    weights = (priors.weight_loc[:, None] + priors.weight_chol
               @ rng.standard_normal((priors.dim, priors.latent_dim)))
    return weights, mean, noise


def run_gibbs(stats: HankelStats, priors: PriorHyper, config: GibbsConfig) -> GibbsChain:
    """Run the sampler on the data statistics and return the retained records.

    The chain starts from a prior draw (latent statistics included) or,
    with ``config.warm_start``, at
    :func:`~bayes_ssi.subspace.warm_start_point` with the latent statistics
    at their conditional means.  Deterministic given (seed, config, stats):
    reruns reproduce the chain bit for bit.  A sweep costs
    O(d sum_b h_b^3) over the factor blocks h_b (O(d D^3) when the priors
    couple the views) whatever the column count.
    """
    rng = Rng(config.seed, GIBBS_STREAM)
    kernel = _Kernel(stats, priors)
    d = priors.latent_dim
    n_records = config.n_records
    if config.warm_start:
        weights, mean, noise = warm_start_point(stats, d)
        lat = kernel.draw_latent(weights, mean,
                                 [spd_inverse(blk, "noise_cov") for blk in noise], None)
    else:
        weights, mean, noise = _prior_point(priors, rng)
        lat = kernel.draw_prior_latent(d, rng)

    weight_samples = np.empty((n_records, priors.dim, d))
    mean_samples = np.empty((n_records, priors.dim))
    packed = [np.tril_indices(dim) for dim in priors.view_dims]
    noise_samples = [np.empty((n_records, rows.size)) for rows, _ in packed]

    start = time.perf_counter()
    record = 0
    for sweep in range(1, config.n_samples + 1):
        weights, mean, noise, prec = kernel.transition(weights, mean, lat, rng)
        lat = kernel.draw_latent(weights, mean, prec, rng)

        kept = sweep > config.n_burn and (sweep - config.n_burn) % config.thinning == 0
        if kept:
            weight_samples[record] = weights
            mean_samples[record] = mean
            for samples, (rows, cols), block in zip(noise_samples, packed, noise):
                samples[record] = block[rows, cols]
            record += 1
    elapsed = time.perf_counter() - start

    return GibbsChain(weight_samples=weight_samples, mean_samples=mean_samples,
                      noise_samples=noise_samples, view_dims=priors.view_dims,
                      config=config, elapsed_s=elapsed,
                      factor_blocks=tuple(sl.stop - sl.start
                                          for sl in priors.factor_slices))

