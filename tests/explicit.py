"""Statistics of explicit stacked data X and an explicit latent matrix Z,
the form the library's kernels take them in."""

from bayes_ssi.gibbs import _Kernel
from bayes_ssi.model import LatentStats
from bayes_ssi.subspace import HankelStats


def explicit_kernel(x, view_dims, priors, latent):
    """(Gibbs kernel on the statistics of X, latent statistics of Z)."""
    stats = HankelStats.from_matrix(x, view_dims)
    return _Kernel(stats, priors), LatentStats.from_latent(x, stats.row_mean, latent)
