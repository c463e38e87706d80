"""Gibbs sampler for the hierarchical latent-projection model.

Each sweep draws the per-view noise blocks, the mean, every weight column
(new columns are used immediately within the sweep) and the latent matrix
from their full conditionals, in that order.  Conditional-parameter
functions are exposed separately from the draws so they can be checked
against closed-form oracles and against the variational updates.

The update functions accept optional precomputed quantities (current
residual, block precision, prior precision); ``run_gibbs`` passes them to
avoid recomputing invariants inside the sweep, which does not change any
draw.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .model import ModelState, PriorHyper, StackedData
from .rng import Rng, sample_inverse_wishart, spd_cholesky, spd_inverse, symmetrize
from .subspace import HankelStats, cca, chol_with_jitter

__all__ = [
    "GibbsConfig",
    "GibbsChain",
    "noise_conditionals",
    "mean_conditional",
    "weight_column_conditional",
    "latent_conditional",
    "update_noise",
    "update_mean",
    "update_weight_column",
    "update_latent",
    "initial_state",
    "warm_start_point",
    "run_gibbs",
    "effective_sample_size",
    "split_rhat",
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
        if int(self.n_samples * (1.0 - self.burn_in_fraction)) < 1:
            raise ValueError("retention policy keeps no samples")

    @property
    def n_burn(self) -> int:
        return self.n_samples - int(self.n_samples * (1.0 - self.burn_in_fraction) + 1e-9)

    @property
    def n_records(self) -> int:
        return (self.n_samples - self.n_burn) // self.thinning


@dataclass
class GibbsChain:
    """Retained draws, one leading axis entry per record.

    Every conditional draw is accepted by construction, so the acceptance
    rate is identically one; it is recorded for interface parity with
    proposal-based samplers.
    """

    weight_samples: np.ndarray          # n_records x D x d
    mean_samples: np.ndarray            # n_records x D
    noise_samples: list[np.ndarray]     # per view, n_records x D_m x D_m
    view_dims: tuple[int, ...]
    config: GibbsConfig
    elapsed_s: float = 0.0
    acceptance_rate: float = 1.0

    @property
    def n_records(self) -> int:
        return self.weight_samples.shape[0]


def _residual(state: ModelState, data: StackedData) -> np.ndarray:
    resid = data.x - state.mean[:, None]
    np.subtract(resid, state.weights @ state.latent, out=resid)
    return resid


def _block_precision(state: ModelState) -> np.ndarray:
    """Dense block-diagonal inverse of the noise covariance."""
    dims = [cov.shape[0] for cov in state.noise_cov]
    prec = np.zeros((sum(dims), sum(dims)))
    start = 0
    for cov, dim in zip(state.noise_cov, dims):
        prec[start:start + dim, start:start + dim] = spd_inverse(cov, "noise_cov")
        start += dim
    return prec


def _draw_from_natural(prec_chol: np.ndarray, mean: np.ndarray,
                       noise: np.ndarray) -> np.ndarray:
    """Sample N(mean, prec^-1) given chol(prec) and standard-normal noise."""
    return mean + solve_triangular(prec_chol.T, noise, lower=False,
                                   check_finite=False)


def noise_conditionals(state: ModelState, data: StackedData, priors: PriorHyper,
                       resid: np.ndarray | None = None,
                       ) -> list[tuple[np.ndarray, float]]:
    """Per-view (scale, dof) of the inverse-Wishart full conditional."""
    if resid is None:
        resid = _residual(state, data)
    n = data.n_columns
    out = []
    for sl, scale0, dof0 in zip(data.slices(), priors.noise_scale, priors.noise_dof):
        block = resid[sl]
        out.append((symmetrize(scale0 + block @ block.T), dof0 + n))
    return out


def _mean_natural(state: ModelState, data: StackedData, priors: PriorHyper,
                  resid: np.ndarray | None = None,
                  prec: np.ndarray | None = None,
                  prior_prec: np.ndarray | None = None,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(chol of conditional precision, conditional mean) for the mean."""
    if resid is None:
        resid = _residual(state, data)
    if prec is None:
        prec = _block_precision(state)
    if prior_prec is None:
        prior_prec = spd_inverse(priors.mean_cov, "mean_cov")
    n = data.n_columns
    # sum over columns of (x_n - W z_n) = residual sum + N * current mean
    demeaned_sum = resid.sum(axis=1) + n * state.mean
    post_prec = symmetrize(n * prec + prior_prec)
    post_chol = spd_cholesky(post_prec, "mean conditional precision")
    rhs = prec @ demeaned_sum + prior_prec @ priors.mean_loc
    post_mean = cho_solve((post_chol, True), rhs, check_finite=False)
    return post_chol, post_mean


def mean_conditional(state: ModelState, data: StackedData, priors: PriorHyper,
                     resid: np.ndarray | None = None,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) of the Gaussian full conditional of the mean vector."""
    post_chol, post_mean = _mean_natural(state, data, priors, resid)
    post_cov = symmetrize(cho_solve((post_chol, True), np.eye(priors.dim),
                                    check_finite=False))
    return post_mean, post_cov


def _weight_column_natural(state: ModelState, data: StackedData, priors: PriorHyper,
                           i: int, resid: np.ndarray | None = None,
                           prec: np.ndarray | None = None,
                           prior_prec: np.ndarray | None = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(chol of conditional precision, conditional mean) for weight column i."""
    if resid is None:
        resid = _residual(state, data)
    if prec is None:
        prec = _block_precision(state)
    if prior_prec is None:
        prior_prec = spd_inverse(priors.weight_cov, "weight_cov")
    z_row = state.latent[i]
    sq_sum = float(z_row @ z_row)
    post_prec = symmetrize(sq_sum * prec + prior_prec)
    post_chol = spd_cholesky(post_prec, "weight conditional precision")
    # residual with column i added back: x - mean - sum_{k != i} w_k z_k
    data_term = resid @ z_row + state.weights[:, i] * sq_sum
    rhs = prec @ data_term + prior_prec @ priors.weight_loc
    post_mean = cho_solve((post_chol, True), rhs, check_finite=False)
    return post_chol, post_mean


def weight_column_conditional(state: ModelState, data: StackedData,
                              priors: PriorHyper, i: int,
                              resid: np.ndarray | None = None,
                              ) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) of the Gaussian full conditional of weight column ``i``."""
    post_chol, post_mean = _weight_column_natural(state, data, priors, i, resid)
    post_cov = symmetrize(cho_solve((post_chol, True), np.eye(priors.dim),
                                    check_finite=False))
    return post_mean, post_cov


def _latent_natural(state: ModelState, data: StackedData,
                    prec: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(chol of shared conditional precision, conditional means) for the
    latent columns."""
    if prec is None:
        prec = _block_precision(state)
    d = state.latent.shape[0]
    prec_w = prec @ state.weights                      # D x d
    post_prec = symmetrize(state.weights.T @ prec_w + np.eye(d))
    post_chol = spd_cholesky(post_prec, "latent conditional precision")
    centred = data.x - state.mean[:, None]
    projected = cho_solve((post_chol, True), prec_w.T, check_finite=False)
    means = projected @ centred
    return post_chol, means


def latent_conditional(state: ModelState, data: StackedData,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(means, shared cov) of the latent columns' Gaussian full conditional."""
    post_chol, means = _latent_natural(state, data)
    d = state.latent.shape[0]
    post_cov = symmetrize(cho_solve((post_chol, True), np.eye(d),
                                    check_finite=False))
    return means, post_cov


def update_noise(state: ModelState, data: StackedData, priors: PriorHyper, rng: Rng,
                 resid: np.ndarray | None = None) -> None:
    for m, (scale, dof) in enumerate(noise_conditionals(state, data, priors, resid)):
        state.noise_cov[m] = sample_inverse_wishart(rng, scale, dof)


def update_mean(state: ModelState, data: StackedData, priors: PriorHyper, rng: Rng,
                resid: np.ndarray | None = None, prec: np.ndarray | None = None,
                prior_prec: np.ndarray | None = None) -> None:
    post_chol, post_mean = _mean_natural(state, data, priors, resid, prec, prior_prec)
    noise = rng.generator.standard_normal(post_mean.size)
    state.mean = _draw_from_natural(post_chol, post_mean, noise)


def update_weight_column(state: ModelState, data: StackedData, priors: PriorHyper,
                         i: int, rng: Rng, resid: np.ndarray | None = None,
                         prec: np.ndarray | None = None,
                         prior_prec: np.ndarray | None = None) -> None:
    post_chol, post_mean = _weight_column_natural(state, data, priors, i,
                                                  resid, prec, prior_prec)
    noise = rng.generator.standard_normal(post_mean.size)
    state.weights[:, i] = _draw_from_natural(post_chol, post_mean, noise)


def update_latent(state: ModelState, data: StackedData, rng: Rng,
                  prec: np.ndarray | None = None) -> None:
    post_chol, means = _latent_natural(state, data, prec)
    noise = rng.generator.standard_normal(means.shape)
    state.latent = _draw_from_natural(post_chol, means, noise)


def initial_state(data: StackedData, priors: PriorHyper, rng: Rng,
                  warm_start: bool = False) -> ModelState:
    """Draw a starting point from the priors, or optionally warm start at
    the classical maximum-likelihood point for slow-mixing problems."""
    if warm_start:
        return _warm_start_state(data, priors)
    d = priors.latent_dim
    noise = [sample_inverse_wishart(rng, scale, dof)
             for scale, dof in zip(priors.noise_scale, priors.noise_dof)]
    mean_chol = spd_cholesky(priors.mean_cov)
    mean = priors.mean_loc + mean_chol @ rng.generator.standard_normal(priors.dim)
    w_chol = spd_cholesky(priors.weight_cov)
    weights = (priors.weight_loc[:, None]
               + w_chol @ rng.generator.standard_normal((priors.dim, d)))
    latent = rng.generator.standard_normal((d, data.n_columns))
    return ModelState(weights=weights, mean=mean, noise_cov=noise, latent=latent)


def warm_start_point(stats: HankelStats, priors: PriorHyper,
                     ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(weights, mean, per-view noise blocks) at the maximum-likelihood
    point of the two-view latent projection model, from the statistics."""
    if len(stats.view_dims) != 2:
        raise ValueError("warm start requires exactly two views")
    d = priors.latent_dim
    h = stats.view_dims[0]
    cov = stats.gram / stats.n_cols
    auto1 = symmetrize(cov[:h, :h])
    auto2 = symmetrize(cov[h:, h:])
    cross = cov[:h, h:]
    left, corr, right = cca(auto1, auto2, cross)
    root = np.sqrt(corr[:d])
    chol1, _ = chol_with_jitter(auto1, "first-view auto-covariance")
    chol2, _ = chol_with_jitter(auto2, "second-view auto-covariance")
    w1 = (chol1 @ left[:, :d]) * root
    w2 = (chol2 @ right[:, :d]) * root
    weights = np.vstack([w1, w2])
    noise = [symmetrize(auto1 - w1 @ w1.T), symmetrize(auto2 - w2 @ w2.T)]
    # keep the MLE noise blocks safely positive definite
    noise = [blk + 1e-8 * np.trace(blk) / blk.shape[0] * np.eye(blk.shape[0])
             for blk in noise]
    return weights, stats.row_mean.copy(), noise


def _warm_start_state(data: StackedData, priors: PriorHyper) -> ModelState:
    """Maximum-likelihood point with the latent at its conditional mean."""
    weights, mean, noise = warm_start_point(data.stats(), priors)
    state = ModelState(weights=weights, mean=mean, noise_cov=noise,
                       latent=np.zeros((priors.latent_dim, data.n_columns)))
    state.latent, _ = latent_conditional(state, data)
    return state


def _scatter_from_grams(data_gram: np.ndarray, data_sum: np.ndarray,
                        cross_gram: np.ndarray, latent_gram: np.ndarray,
                        latent_sum: np.ndarray, weights: np.ndarray,
                        mean: np.ndarray, n: int) -> np.ndarray:
    """Residual scatter sum_n r_n r_n^T expanded through Gram matrices.

    Touches only small (D x D, D x d) arrays: the data Gram X X^T and row
    sum are precomputed once per run, the data-latent cross Gram X Z^T once
    per sweep.
    """
    fitted = weights @ latent_sum
    scatter = data_gram - np.outer(data_sum, mean) - np.outer(mean, data_sum)
    scatter -= cross_gram @ weights.T + weights @ cross_gram.T
    scatter += n * np.outer(mean, mean)
    scatter += np.outer(mean, fitted) + np.outer(fitted, mean)
    scatter += weights @ latent_gram @ weights.T
    return symmetrize(scatter)


def run_gibbs(data: StackedData, priors: PriorHyper, config: GibbsConfig) -> GibbsChain:
    """Run the sampler and return the retained records.

    Deterministic given (seed, config, data): reruns reproduce the chain
    bit for bit.  The sweep evaluates the same full conditionals as the
    public update functions but through per-sweep Gram matrices, so the
    large data matrix is streamed only twice per sweep.
    """
    rng = Rng(config.seed, stream=1)
    state = initial_state(data, priors, rng, warm_start=config.warm_start)
    d = priors.latent_dim
    n = data.n_columns
    n_records = config.n_records
    total_dim = priors.dim
    slices = data.slices()

    prior_mean_prec = spd_inverse(priors.mean_cov, "mean_cov")
    prior_mean_rhs = prior_mean_prec @ priors.mean_loc
    prior_weight_prec = spd_inverse(priors.weight_cov, "weight_cov")
    prior_weight_rhs = prior_weight_prec @ priors.weight_loc
    stats = data.stats()
    data_gram = stats.raw_gram()
    data_sum = n * stats.row_mean

    weight_samples = np.empty((n_records, total_dim, d))
    mean_samples = np.empty((n_records, total_dim))
    noise_samples = [np.empty((n_records, dim, dim)) for dim in priors.view_dims]

    start = time.perf_counter()
    record = 0
    for sweep in range(1, config.n_samples + 1):
        cross_gram = data.x @ state.latent.T            # D x d
        latent_gram = state.latent @ state.latent.T     # d x d
        latent_sum = state.latent.sum(axis=1)

        # noise blocks
        scatter = _scatter_from_grams(data_gram, data_sum, cross_gram,
                                      latent_gram, latent_sum, state.weights,
                                      state.mean, n)
        for m, (sl, scale0, dof0) in enumerate(zip(slices, priors.noise_scale,
                                                   priors.noise_dof)):
            state.noise_cov[m] = sample_inverse_wishart(
                rng, symmetrize(scale0 + scatter[sl, sl]), dof0 + n)
        prec = _block_precision(state)

        # mean
        demeaned_sum = data_sum - state.weights @ latent_sum
        post_prec = symmetrize(n * prec + prior_mean_prec)
        post_chol = spd_cholesky(post_prec, "mean conditional precision")
        post_mean = cho_solve((post_chol, True), prec @ demeaned_sum + prior_mean_rhs,
                              check_finite=False)
        state.mean = _draw_from_natural(
            post_chol, post_mean, rng.generator.standard_normal(total_dim))

        # weight columns, refreshed in place within the sweep
        for i in range(d):
            sq_sum = latent_gram[i, i]
            post_prec = symmetrize(sq_sum * prec + prior_weight_prec)
            post_chol = spd_cholesky(post_prec, "weight conditional precision")
            data_term = (cross_gram[:, i] - state.mean * latent_sum[i]
                         - state.weights @ latent_gram[:, i]
                         + state.weights[:, i] * sq_sum)
            post_mean = cho_solve((post_chol, True),
                                  prec @ data_term + prior_weight_rhs,
                                  check_finite=False)
            state.weights[:, i] = _draw_from_natural(
                post_chol, post_mean, rng.generator.standard_normal(total_dim))

        # latent columns
        prec_w = prec @ state.weights
        post_prec = symmetrize(state.weights.T @ prec_w + np.eye(d))
        post_chol = spd_cholesky(post_prec, "latent conditional precision")
        projected = cho_solve((post_chol, True), prec_w.T, check_finite=False)
        means = projected @ data.x
        means -= (projected @ state.mean)[:, None]
        state.latent = _draw_from_natural(
            post_chol, means, rng.generator.standard_normal((d, n)))

        kept = sweep > config.n_burn and (sweep - config.n_burn) % config.thinning == 0
        if kept and record < n_records:
            weight_samples[record] = state.weights
            mean_samples[record] = state.mean
            for m, block in enumerate(state.noise_cov):
                noise_samples[m][record] = block
            record += 1
    elapsed = time.perf_counter() - start

    return GibbsChain(weight_samples=weight_samples, mean_samples=mean_samples,
                      noise_samples=noise_samples, view_dims=priors.view_dims,
                      config=config, elapsed_s=elapsed)


def effective_sample_size(draws: np.ndarray) -> float:
    """Autocorrelation-based effective sample size of a scalar chain
    (initial positive sequence estimator)."""
    x = np.asarray(draws, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0:
        return float(n)
    acf = np.correlate(x, x, mode="full")[n - 1:] / (n * var)
    total = 1.0
    for k in range(1, n - 2, 2):
        pair = acf[k] + acf[k + 1]
        if pair < 0:
            break
        total += 2.0 * pair
    return float(n / max(total, 1.0))


def split_rhat(draws: np.ndarray) -> float:
    """Split-chain potential scale reduction factor of a scalar chain."""
    x = np.asarray(draws, dtype=float)
    half = x.size // 2
    chains = np.stack([x[:half], x[half:2 * half]])
    n = chains.shape[1]
    means = chains.mean(axis=1)
    within = chains.var(axis=1, ddof=1).mean()
    between = n * means.var(ddof=1)
    var_plus = (n - 1) / n * within + between / n
    if within == 0:
        return 1.0
    return float(np.sqrt(var_plus / within))
