"""Seeded random streams and the matrix-variate distributions the model draws from.

Only the three families the hierarchical model needs are implemented:
multivariate Gaussian, Wishart and inverse Wishart.  Sampling is exact
(Bartlett construction for the Wishart families) and fully reproducible
given a (seed, stream) pair.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import multigammaln

__all__ = [
    "Rng",
    "NotPositiveDefiniteError",
    "symmetrize",
    "check_symmetric",
    "spd_cholesky",
    "spd_inverse",
    "chol_inverse",
    "chol_logdet",
    "validate_spd",
    "psd_factor",
    "sample_mvn",
    "sample_wishart",
    "sample_inverse_wishart",
    "mvn_logpdf",
    "wishart_logpdf",
    "inverse_wishart_logpdf",
]

_SYM_RTOL = 1e-12


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix required to be symmetric positive definite failed a Cholesky pivot."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class Rng:
    """Deterministic random stream keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce bit-identical draw sequences;
    distinct streams derived from the same seed are statistically
    independent.  Instances are stateful and must not be shared between
    concurrent workers; derive one substream per worker with :meth:`spawn`.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or seed > 2**64 - 1:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.stream = int(stream)
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def spawn(self, stream: int) -> "Rng":
        """New independent stream sharing this Rng's seed."""
        return Rng(self.seed, stream)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of ``mat``."""
    return 0.5 * (mat + mat.T)


def check_symmetric(mat: np.ndarray, name: str = "matrix", rtol: float = _SYM_RTOL) -> None:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > rtol * scale:
        raise ValueError(f"{name} is not symmetric to within relative {rtol:g}")


def _failing_pivot(mat: np.ndarray) -> int:
    """1-based index of the first leading minor that is not positive definite."""
    for k in range(1, mat.shape[0] + 1):
        try:
            np.linalg.cholesky(mat[:k, :k])
        except np.linalg.LinAlgError:
            return k
    return mat.shape[0]


def spd_cholesky(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of ``mat``, naming the failing pivot on error."""
    mat = np.asarray(mat, dtype=float)
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pivot = _failing_pivot(mat)
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite: Cholesky pivot {pivot} failed",
            pivot=pivot,
        ) from None


def spd_inverse(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Exactly symmetric inverse of the symmetric positive definite ``mat``,
    through its Cholesky factor."""
    return chol_inverse(spd_cholesky(symmetrize(np.asarray(mat, dtype=float)), name))


def chol_inverse(chol: np.ndarray) -> np.ndarray:
    """Exactly symmetric A^-1 from the lower Cholesky factor of A."""
    return symmetrize(cho_solve((chol, True), np.eye(chol.shape[0]),
                                check_finite=False))


def chol_logdet(chol: np.ndarray) -> float:
    """ln |A| from the Cholesky factor of A."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def validate_spd(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Check symmetry and positive definiteness; return the validated array."""
    mat = np.asarray(mat, dtype=float)
    check_symmetric(mat, name)
    spd_cholesky(mat, name)
    return mat


def psd_factor(mat: np.ndarray) -> np.ndarray:
    """Factor F with F @ F.T = mat for symmetric positive SEMI-definite mat.

    Eigen-based, tolerant of exact singularity (zero matrices give zero
    factors); tiny negative eigenvalues are clipped.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.any(mat):
        return np.zeros_like(mat)
    vals, vecs = np.linalg.eigh(symmetrize(mat))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def sample_mvn(rng: Rng, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """One draw from N(mean, cov)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
        raise ValueError(f"mean of size {mean.size} incompatible with cov {cov.shape}")
    chol = spd_cholesky(cov, "cov")
    return mean + chol @ rng.generator.standard_normal(mean.size)


def _bartlett_factor(rng: Rng, dim: int, dof: float) -> np.ndarray:
    """Lower-triangular Bartlett factor A with A @ A.T ~ Wishart(I, dof):
    chi-square draws with dof - i degrees of freedom on the diagonal, then
    standard normals below it in row order (Smith & Hocking, AS 53)."""
    a = np.zeros((dim, dim))
    gen = rng.generator
    a.flat[::dim + 1] = np.sqrt(gen.chisquare(dof - np.arange(dim)))
    a[_strict_lower(dim)] = gen.standard_normal(dim * (dim - 1) // 2)
    return a


@lru_cache(maxsize=None)
def _strict_lower(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the strict lower triangle of a dim x dim matrix,
    cached: at the latent dimensions the Gibbs sweep draws, building them
    costs more than the draws themselves."""
    return np.tril_indices(dim, -1)


def sample_wishart(rng: Rng, scale: np.ndarray, dof: float) -> np.ndarray:
    """One draw from Wishart(scale, dof); expectation is dof * scale."""
    scale = np.asarray(scale, dtype=float)
    dim = scale.shape[0]
    if dof <= dim - 1:
        raise ValueError(f"Wishart dof must exceed dim - 1 = {dim - 1}, got {dof}")
    chol = spd_cholesky(scale, "scale")
    factor = chol @ _bartlett_factor(rng, dim, dof)
    return symmetrize(factor @ factor.T)


def sample_inverse_wishart(rng: Rng, scale: np.ndarray, dof: float) -> np.ndarray:
    """One draw from InverseWishart(scale, dof).

    Equal in distribution to the inverse of a Wishart(scale^-1, dof) draw;
    computed through triangular solves only (no general inverse).  The mean
    is scale / (dof - dim - 1) when dof > dim + 1.
    """
    scale = np.asarray(scale, dtype=float)
    dim = scale.shape[0]
    if dof <= dim - 1:
        raise ValueError(f"inverse-Wishart dof must exceed dim - 1 = {dim - 1}, got {dof}")
    chol = spd_cholesky(scale, "scale")
    bart = _bartlett_factor(rng, dim, dof)
    # draw = L A^-T A^-1 L^T where L L^T = scale and A A^T ~ Wishart(I, dof)
    m = solve_triangular(bart, chol.T, lower=True)
    return symmetrize(m.T @ m)


def mvn_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Log density of N(mean, cov) at x, constants included."""
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    dim = mean.size
    chol = spd_cholesky(np.asarray(cov, dtype=float), "cov")
    dev = solve_triangular(chol, x - mean, lower=True)
    return -0.5 * (dim * np.log(2.0 * np.pi) + chol_logdet(chol) + float(dev @ dev))


def wishart_logpdf(x: np.ndarray, scale: np.ndarray, dof: float) -> float:
    """Log density of Wishart(scale, dof) at x, constants included."""
    x = np.asarray(x, dtype=float)
    scale = np.asarray(scale, dtype=float)
    dim = scale.shape[0]
    chol_x = spd_cholesky(x, "x")
    chol_s = spd_cholesky(scale, "scale")
    # tr(scale^-1 x) via triangular solve
    half = solve_triangular(chol_s, chol_x, lower=True)
    trace_term = float(np.sum(half * half))
    return (
        0.5 * (dof - dim - 1) * chol_logdet(chol_x)
        - 0.5 * trace_term
        - 0.5 * dof * dim * np.log(2.0)
        - 0.5 * dof * chol_logdet(chol_s)
        - multigammaln(0.5 * dof, dim)
    )


def inverse_wishart_logpdf(x: np.ndarray, scale: np.ndarray, dof: float) -> float:
    """Log density of InverseWishart(scale, dof) at x, constants included."""
    x = np.asarray(x, dtype=float)
    scale = np.asarray(scale, dtype=float)
    dim = scale.shape[0]
    chol_x = spd_cholesky(x, "x")
    chol_s = spd_cholesky(scale, "scale")
    # tr(scale x^-1) via triangular solve
    half = solve_triangular(chol_x, chol_s, lower=True)
    trace_term = float(np.sum(half * half))
    return (
        -0.5 * (dof + dim + 1) * chol_logdet(chol_x)
        - 0.5 * trace_term
        + 0.5 * dof * chol_logdet(chol_s)
        - 0.5 * dof * dim * np.log(2.0)
        - multigammaln(0.5 * dof, dim)
    )
