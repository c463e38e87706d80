"""Statistics of explicit stacked data X and an explicit latent matrix Z,
the form the library's kernels take them in, the dense covariances of
the variational weight factors, and the dense mean and weight-column
conditionals assembled from the kernels' block factors."""

import numpy as np

from bayes_ssi.gibbs import _Kernel
from bayes_ssi.model import LatentStats, block_diagonal
from bayes_ssi.rng import chol_inverse, spd_inverse
from bayes_ssi.subspace import HankelStats


def explicit_kernel(x, view_dims, priors, latent):
    """(Gibbs kernel on the statistics of X, latent statistics of Z)."""
    stats = HankelStats.from_matrix(x, view_dims)
    return _Kernel(stats, priors), LatentStats.from_latent(x, stats.row_mean, latent)


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
