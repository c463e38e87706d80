"""Seeded random streams, symmetric positive definite matrix helpers and
the one matrix-variate draw the model needs.

``Rng(seed, stream)`` is numpy's PCG64 ``Generator``, which every draw site
calls directly; the streams a run derives from its seed are allocated here.

The inverse-Wishart draw of the Gibbs sampler's noise blocks is exact
(Bartlett construction) and fully reproducible given a (seed, stream)
pair; the Gaussian conditional draws are triangular solves on standard
normals, done where the conditionals are factored.  ``spd_cholesky``
(LAPACK ``dpotrf``) is the package's only Cholesky factorization, and
``solve_lower`` (``dtrtrs``) and ``chol_solve`` (``dpotrs``) its only
LAPACK solves.

This is the one module that touches scipy's compiled code outside the
simulator: it loads the extension modules behind ``scipy.linalg.lapack``
(``dtrtrs``, ``dpotrs``, ``dpotrf``) and ``scipy.special`` (``gammaln``,
``psi``) straight from their files.  Importing those subpackages would roughly
double every command's start-up time and memory before it reads its input;
the functions are the very objects the subpackages export, so every result
is bit-for-bit the same.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

__all__ = [
    "Rng",
    "SIMULATE_STREAM", "GIBBS_STREAM", "VB_INIT_STREAM", "DRAW_STREAM", "STAB_DRAW_STREAM_BASE",
    "NotPositiveDefiniteError",
    "symmetrize",
    "spd_cholesky",
    "spd_inverse",
    "chol_inverse",
    "chol_solve",
    "solve_lower",
    "chol_logdet",
    "validate_spd",
    "psd_factor",
    "sample_inverse_wishart_pair",
    "log_multigamma",
    "digamma",
]

_SYM_RTOL = 1e-12


def _scipy_extension(package: str, name: str, public: str, needed: tuple[str, ...]):
    """scipy's compiled module ``scipy.<package>.<name>``, loaded from its
    file under its canonical name without importing ``scipy.<package>``;
    the module ``public`` that re-exports its functions when that file is
    absent or lacks one of the ``needed`` names (another scipy layout).
    Registered in ``sys.modules``, so a later import of the subpackage
    reuses it."""
    canonical = f"scipy.{package}.{name}"
    module = sys.modules.get(canonical)
    folder = Path(scipy.__file__).parent / package
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"{name}{suffix}"
        if module is None and path.is_file():
            spec = importlib.util.spec_from_file_location(canonical, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[canonical] = module
            spec.loader.exec_module(module)
    if module is not None and all(hasattr(module, attr) for attr in needed):
        return module
    return importlib.import_module(public)


_flapack = _scipy_extension("linalg", "_flapack", "scipy.linalg.lapack",
                            ("dtrtrs", "dpotrs", "dpotrf"))
_ufuncs = _scipy_extension("special", "_special_ufuncs", "scipy.special", ("gammaln", "psi"))
dtrtrs, dpotrs, dpotrf = _flapack.dtrtrs, _flapack.dpotrs, _flapack.dpotrf
gammaln, digamma = _ufuncs.gammaln, _ufuncs.psi


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A matrix required to be symmetric positive definite failed a Cholesky pivot."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


# one stream per consumer of a run's seed; stabilisation draws at base + order
SIMULATE_STREAM = 0
GIBBS_STREAM = 1
VB_INIT_STREAM = 2
DRAW_STREAM = 3
STAB_DRAW_STREAM_BASE = 100


def Rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic PCG64 generator keyed by (seed, stream).

    Identical (seed, stream) pairs reproduce bit-identical draw sequences;
    distinct streams derived from the same seed are statistically
    independent.  Generators are stateful and must not be shared between
    concurrent workers; give each worker its own stream.
    """
    if seed < 0 or seed > 2**64 - 1:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    seq = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(seq))


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of ``mat``."""
    return 0.5 * (mat + mat.T)


def spd_cholesky(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """C-ordered lower Cholesky factor of ``mat`` from LAPACK ``potrf``,
    naming the failing pivot on error: ``potrf``'s ``info``, the first
    leading minor that is not positive definite.  A matrix that is not
    square raises numpy's ``LinAlgError``."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise np.linalg.LinAlgError(f"{name} must be square, got shape {mat.shape}")
    chol, pivot = dpotrf(mat, lower=1)
    if pivot:
        raise NotPositiveDefiniteError(f"{name} is not positive definite: Cholesky "
                                       f"pivot {pivot} failed", pivot=pivot)
    return np.ascontiguousarray(chol)


def spd_inverse(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Exactly symmetric inverse of the symmetric positive definite ``mat``,
    through its Cholesky factor."""
    return chol_inverse(spd_cholesky(symmetrize(np.asarray(mat, dtype=float)), name))


def chol_inverse(chol: np.ndarray) -> np.ndarray:
    """Exactly symmetric A^-1 from the lower Cholesky factor of A."""
    return symmetrize(chol_solve(chol, np.eye(chol.shape[0])))


def chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A^-1 rhs from the lower Cholesky factor of A.  Calls LAPACK
    ``potrs`` as ``cho_solve`` does, without its per-call checks."""
    return dpotrs(chol, rhs, lower=1)[0]


def solve_lower(lower: np.ndarray, rhs: np.ndarray, transpose: bool = False,
                ) -> np.ndarray:
    """lower^-1 rhs, or lower^-T rhs with ``transpose``, for a C-ordered
    lower-triangular ``lower`` with a nonzero diagonal (a Cholesky or
    Bartlett factor).  Calls LAPACK ``trtrs`` on the Fortran-ordered
    transpose directly, as ``solve_triangular`` does, without its
    per-call checks: the sweeps solve many small systems."""
    return dtrtrs(lower.T, rhs, lower=0, trans=0 if transpose else 1)[0]


def chol_logdet(chol: np.ndarray) -> float:
    """ln |A| from the Cholesky factor of A."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def validate_spd(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of the symmetric part of ``mat``, once ``mat`` is
    checked finite, square, symmetric to 1e-12 and positive definite."""
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > _SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric to within relative {_SYM_RTOL:g}")
    return spd_cholesky(symmetrize(mat), name)


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


def _bartlett_factor(rng: np.random.Generator, dim: int, dof: float) -> np.ndarray:
    """Lower-triangular Bartlett factor A with A @ A.T ~ Wishart(I, dof):
    chi-square draws with dof - i degrees of freedom on the diagonal, then
    standard normals below it in row order (Smith & Hocking, AS 53)."""
    a = np.zeros((dim, dim))
    a.flat[::dim + 1] = np.sqrt(rng.chisquare(dof - np.arange(dim)))
    a[_strict_lower(dim)] = rng.standard_normal(dim * (dim - 1) // 2)
    return a


@lru_cache(maxsize=None)
def _strict_lower(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major indices of the strict lower triangle of a dim x dim matrix,
    cached: at the latent dimensions the Gibbs sweep draws, building them
    costs more than the draws themselves."""
    return np.tril_indices(dim, -1)


def sample_inverse_wishart_pair(rng: np.random.Generator, scale: np.ndarray, dof: float,
                                ) -> tuple[np.ndarray, np.ndarray]:
    """(draw, its inverse): one draw from InverseWishart(scale, dof) and its
    inverse, through triangular solves only (no general inverse).

    With L the lower Cholesky factor of ``scale`` and A a Bartlett factor
    of Wishart(I, dof), the draw is L A^-T A^-1 L^T and its inverse
    (L^-T A)(L^-T A)^T.  The draw's mean is scale / (dof - dim - 1) when
    dof > dim + 1."""
    scale = np.asarray(scale, dtype=float)
    dim = scale.shape[0]
    if dof <= dim - 1:
        raise ValueError(f"inverse-Wishart dof must exceed dim - 1 = {dim - 1}, got {dof}")
    chol = spd_cholesky(scale, "scale")
    bart = _bartlett_factor(rng, dim, dof)
    m = solve_lower(bart, chol.T)
    root = solve_lower(chol, bart, transpose=True)
    return symmetrize(m.T @ m), symmetrize(root @ root.T)


def log_multigamma(a: float, dim: int) -> float:
    """ln Gamma_dim(a) = dim (dim - 1) / 4 ln pi + sum_j ln Gamma(a - j / 2)
    over j < dim; equal to ``scipy.special.multigammaln`` without its
    Python list of terms, and through the same ``gammaln`` (loaded without
    importing ``scipy.special``)."""
    if a <= 0.5 * (dim - 1):
        raise ValueError(f"log_multigamma needs a > (dim - 1) / 2, got a = {a}, dim = {dim}")
    return float((dim * (dim - 1) * 0.25) * np.log(np.pi)
                 + np.sum(gammaln(a - 0.5 * np.arange(dim))))
