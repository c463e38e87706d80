"""Statistics of explicit stacked data X and an explicit latent matrix Z,
the form the library's kernels take them in, the variational latent means
of explicit data, the dense covariances of the variational weight
factors, the dense mean and weight-column conditionals assembled from the
kernels' block factors, and a reader for the CSV tables the commands
write."""

import numpy as np

from bayes_ssi.gibbs import _Kernel
from bayes_ssi.model import LatentStats, block_diagonal
from bayes_ssi.rng import chol_inverse, spd_inverse, symmetrize
from bayes_ssi.subspace import HankelStats


def hankel_stats(x: np.ndarray, view_dims: tuple[int, ...]) -> HankelStats:
    """Statistics of an explicit stacked matrix, one column per
    observation, whose rows split into views of ``view_dims`` rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("stacked data must be a 2-d matrix")
    if x.shape[1] == 0:
        raise ValueError("stacked data has no columns")
    if sum(view_dims) != x.shape[0]:
        raise ValueError(
            f"view dims {tuple(view_dims)} do not sum to row count {x.shape[0]}"
        )
    row_mean = x.mean(axis=1)
    centred = x - row_mean[:, None]
    return HankelStats(gram=symmetrize(centred @ centred.T), row_mean=row_mean,
                       n_cols=x.shape[1], view_dims=tuple(view_dims))


def latent_stats(x: np.ndarray, row_mean: np.ndarray, latent: np.ndarray) -> LatentStats:
    """Statistics (X - m 1^T) Z^T, Z Z^T and Z 1 of the d x N latent ``latent``
    against the data ``x`` whose rows have means ``row_mean``."""
    return LatentStats(cross=(x - row_mean[:, None]) @ latent.T,
                       gram=symmetrize(latent @ latent.T), total=latent.sum(axis=1))


def latent_means(post, x: np.ndarray) -> np.ndarray:
    """d x N latent factor means of the columns of the stacked data ``x``."""
    return post.latent_map @ (x - post.latent_centre[:, None])


def read_matrix_csv(path, skip_header: bool = False) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0,
                      ndmin=2)


def explicit_kernel(x, view_dims, priors, latent):
    """(Gibbs kernel on the statistics of X, latent statistics of Z)."""
    stats = hankel_stats(x, view_dims)
    return _Kernel(stats, priors), latent_stats(x, stats.row_mean, latent)


def weight_cov(post):
    """d x D x D covariances B diag(e_i) B^T of the weight-column factors."""
    return (post.weight_basis * post.weight_eigs[:, None, :]) @ post.weight_basis.T


def block_precision(noise):
    """Dense block-diagonal inverse of the per-view noise blocks."""
    return block_diagonal([spd_inverse(blk) for blk in noise])


def _conditional(kernel, lat, prec, k, rhs):
    factors = kernel.precision_factors(prec, np.diag(lat.gram))
    cov = block_diagonal([chol_inverse(chol[k]) for chol in factors])
    return cov, kernel.factor_solve(factors, k, rhs)


def mean_conditional(kernel, weights, lat, prec):
    """(covariance, mean) of the mean's full conditional."""
    return _conditional(kernel, lat, prec, 0, kernel.mean_rhs(weights, lat, prec))


def weight_conditional(kernel, weights, mean, lat, prec, i):
    """(covariance, mean) of weight column i's full conditional."""
    return _conditional(kernel, lat, prec, i + 1,
                        kernel.weight_rhs(weights, mean, lat, prec, i))
