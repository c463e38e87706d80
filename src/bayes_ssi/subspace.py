"""Deterministic subspace machinery: block-Hankel assembly, the Hankel
sufficient statistics and their covariance blocks, canonical correlation
analysis, the canonical-variate weighted covariance-driven identification
baseline, and modal extraction from a state-space realization."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .rng import symmetrize
from .simulate import TimeSeries

__all__ = [
    "HankelPair",
    "HankelStats",
    "CovBlocks",
    "Realization",
    "ModalSet",
    "IllConditionedError",
    "build_hankel",
    "covariance_blocks",
    "chol_with_jitter",
    "matrix_sqrt",
    "cca",
    "observability_controllability",
    "ssi_cov",
    "realization_from_observability",
    "modal_from_state_matrix",
]

# jitter ladder for near-singular auto-covariances, relative to trace/dim
_JITTER_LEVELS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


class IllConditionedError(np.linalg.LinAlgError):
    """Auto-covariance stayed non-positive-definite through the jitter ladder."""


@dataclass(frozen=True)
class HankelPair:
    """Past/future block-Hankel matrices.

    Row b*l + c of the past half holds channel c at lag b (b = 0..j-1); the
    future half holds lags j..2j-1.  Columns are sliding windows.
    """

    past: np.ndarray
    future: np.ndarray
    n_channels: int
    block_rows: int
    centred: bool

    @property
    def n_cols(self) -> int:
        return self.past.shape[1]


@dataclass(frozen=True)
class HankelStats:
    """Sufficient statistics of the stacked Hankel (future rows over past
    rows, as the engines stack them).

    Every covariance-driven computation sees the data only through the
    Gram ``gram`` of the columns centred about their mean ``row_mean`` and
    the column count ``n_cols``; no D x N array is kept.  For a centred
    Hankel ``row_mean`` is zero.
    """

    gram: np.ndarray          # D x D, sum_n (x_n - row_mean)(x_n - row_mean)^T
    row_mean: np.ndarray      # D
    n_cols: int
    view_dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.row_mean.size

    def raw_gram(self) -> np.ndarray:
        """sum_n x_n x_n^T, the Gram about zero."""
        return self.gram + self.n_cols * np.outer(self.row_mean, self.row_mean)

    def cov_blocks(self) -> "CovBlocks":
        """Covariance blocks of the Hankel halves with 1/N_cols scaling,
        taken about zero like the products of the Hankel rows themselves."""
        raw = self.raw_gram() / self.n_cols
        half = self.view_dims[0]
        return CovBlocks(past_past=symmetrize(raw[half:, half:]),
                         future_future=symmetrize(raw[:half, :half]),
                         future_past=raw[:half, half:].copy())

    @classmethod
    def from_matrix(cls, x: np.ndarray, view_dims: tuple[int, ...]) -> "HankelStats":
        """Statistics of an explicit stacked matrix, one column per observation."""
        x = np.asarray(x, dtype=float)
        row_mean = x.mean(axis=1)
        centred = x - row_mean[:, None]
        return cls(gram=symmetrize(centred @ centred.T), row_mean=row_mean,
                   n_cols=x.shape[1], view_dims=tuple(view_dims))

    @classmethod
    def from_record(cls, ts: TimeSeries, block_rows: int,
                    center: bool = True) -> "HankelStats":
        """Statistics of the stacked Hankel of ``ts``, built from the record.

        With y the record minus each channel's mean, block (b, b + k) of
        the lag-ordered Gram is the full lag-k product
        sum_s y_s y_{s+k}^T minus the few terms before and after the
        Hankel's window, so the work is one l x l product per lag.  Window
        sums are corrected the same way, and centring subtracts their
        small outer products, never two large numbers.
        """
        j = int(block_rows)
        n_cols = _hankel_cols(ts, j)
        l = ts.channels
        n_blocks = 2 * j
        channel_mean = ts.data.mean(axis=1)
        y = ts.data - channel_mean[:, None]

        total = y.sum(axis=1)
        head_sums = np.cumsum(y[:, :n_blocks - 1], axis=1)
        tail_sums = np.cumsum(y[:, ::-1][:, :n_blocks - 1], axis=1)[:, ::-1]
        window = np.empty((n_blocks, l))
        for b in range(n_blocks):
            # samples before the window are 0..b-1, after it n_cols+b..end
            before = head_sums[:, b - 1] if b else 0.0
            after = tail_sums[:, b] if b < n_blocks - 1 else 0.0
            window[b] = total - before - after

        lagged = np.empty((n_blocks, n_blocks, l, l))
        for k in range(n_blocks):
            m = n_blocks - k
            full = y[:, :y.shape[1] - k] @ y[:, k:].T
            head = np.einsum("is,js->sij", y[:, :m - 1], y[:, k:k + m - 1])
            tail = np.einsum("is,js->sij", y[:, n_cols:n_cols + m - 1],
                             y[:, n_cols + k:n_cols + k + m - 1])
            before = np.concatenate([np.zeros((1, l, l)), np.cumsum(head, axis=0)])
            after = np.concatenate([np.cumsum(tail[::-1], axis=0)[::-1],
                                    np.zeros((1, l, l))])
            b = np.arange(m)
            lagged[b, b + k] = full - before - after
            lagged[b + k, b] = np.swapaxes(lagged[b, b + k], 1, 2)
        lagged -= np.einsum("bi,cj->bcij", window, window) / n_cols

        # stacked order: future lags j..2j-1, then past lags 0..j-1
        order = np.r_[j:n_blocks, 0:j]
        dim = n_blocks * l
        gram = lagged[np.ix_(order, order)].transpose(0, 2, 1, 3).reshape(dim, dim)
        if center:
            row_mean = np.zeros(dim)
        else:
            row_mean = (window[order] / n_cols + channel_mean).reshape(dim)
        return cls(gram=symmetrize(gram), row_mean=row_mean, n_cols=n_cols,
                   view_dims=(j * l, j * l))


@dataclass(frozen=True)
class CovBlocks:
    """Auto- and cross-covariance blocks of the Hankel halves (1/N scaling)."""

    past_past: np.ndarray
    future_future: np.ndarray
    future_past: np.ndarray


@dataclass(frozen=True)
class Realization:
    """Truncated decomposition of the future-past covariance plus the
    recovered state-space matrices."""

    observability: np.ndarray   # l*j x d
    controllability: np.ndarray  # d x l*j
    a: np.ndarray               # d x d
    c_out: np.ndarray           # l x d
    order: int
    shift_residual: float


@dataclass(frozen=True)
class ModalSet:
    """Modal parameters with conjugate pairs collapsed to one entry each.

    ``real_pole`` flags entries that came from a real eigenvalue of the
    state matrix (retained but non-physical for vibrating modes);
    ``n_dropped`` counts zero eigenvalues whose continuous-time log is
    undefined.
    """

    frequencies: np.ndarray       # Hz
    damping_ratios: np.ndarray
    mode_shapes: np.ndarray       # complex, l x n_modes
    eigenvalues: np.ndarray       # discrete-time, complex
    real_pole: np.ndarray         # bool mask
    n_dropped: int = 0

    @property
    def n_modes(self) -> int:
        return self.frequencies.size


def _hankel_cols(ts: TimeSeries, j: int) -> int:
    """Column count N - 2j + 1 of the Hankel halves, validated."""
    if j < 1:
        raise ValueError("block_rows must be >= 1")
    n_cols = ts.n_samples - 2 * j + 1
    if n_cols < 1:
        raise ValueError(
            f"time series too short: {ts.n_samples} samples, need at least {2 * j} "
            f"for {j} block rows"
        )
    return n_cols


def build_hankel(ts: TimeSeries, block_rows: int, center: bool = True) -> HankelPair:
    """Stack the record into past (lags 0..j-1) and future (lags j..2j-1)
    block-Hankel matrices with N - 2j + 1 columns.

    Rows are mean-centred by default; disable to feed the engines raw rows
    (the Bayesian model absorbs means through its mean parameter).
    """
    j = int(block_rows)
    n_cols = _hankel_cols(ts, j)
    l = ts.channels
    stacked = np.empty((2 * j * l, n_cols))
    for b in range(2 * j):
        stacked[b * l:(b + 1) * l] = ts.data[:, b:b + n_cols]
    if center:
        stacked -= stacked.mean(axis=1, keepdims=True)
    half = j * l
    return HankelPair(past=stacked[:half].copy(), future=stacked[half:].copy(),
                      n_channels=l, block_rows=j, centred=center)


def covariance_blocks(hp: HankelPair) -> CovBlocks:
    """Covariance blocks with 1/N_cols scaling; auto-blocks symmetrized."""
    n = hp.n_cols
    return CovBlocks(
        past_past=symmetrize(hp.past @ hp.past.T / n),
        future_future=symmetrize(hp.future @ hp.future.T / n),
        future_past=hp.future @ hp.past.T / n,
    )


def chol_with_jitter(mat: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, float]:
    """Lower Cholesky factor, escalating diagonal jitter up to 1e-6*trace/dim.

    Returns the factor and the jitter actually applied.  Raises
    :class:`IllConditionedError` with a condition-number report if the
    ladder is exhausted.
    """
    mat = np.asarray(mat, dtype=float)
    dim = mat.shape[0]
    base = float(np.trace(mat)) / dim
    if base <= 0:
        base = 1.0
    eye = np.eye(dim)
    for level in _JITTER_LEVELS:
        try:
            return np.linalg.cholesky(mat + level * base * eye), level * base
        except np.linalg.LinAlgError:
            continue
    cond = np.linalg.cond(symmetrize(mat))
    raise IllConditionedError(
        f"{name} is not positive definite after jitter ladder "
        f"(condition number {cond:.3e})"
    )


def matrix_sqrt(mat: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T = mat (Cholesky square root)."""
    factor, _ = chol_with_jitter(mat, "matrix")
    return factor


def cca(auto_x: np.ndarray, auto_y: np.ndarray, cross_xy: np.ndarray,
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical correlation analysis of two views from their covariances.

    Returns (V1, correlations, V2) from the SVD of
    L_x^-1 @ cross_xy @ L_y^-T where L are Cholesky factors of the
    auto-covariances.  Correlations are clamped to [0, 1] (numerical noise
    above 1 is truncated).
    """
    chol_x, _ = chol_with_jitter(auto_x, "first-view auto-covariance")
    chol_y, _ = chol_with_jitter(auto_y, "second-view auto-covariance")
    normalized = solve_triangular(chol_x, cross_xy, lower=True)
    normalized = solve_triangular(chol_y, normalized.T, lower=True).T
    left, svals, right_t = np.linalg.svd(normalized)
    return left, np.clip(svals, 0.0, 1.0), right_t.T


def observability_controllability(cb: CovBlocks, order: int,
                                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical-variate weighted factorization of the future-past
    covariance, truncated to ``order`` states.

    Returns (observability, controllability, correlations) such that
    observability @ controllability reconstructs the cross-covariance up to
    the discarded singular-value energy.
    """
    dim = cb.future_past.shape[0]
    if not 1 <= order <= dim:
        raise ValueError(f"order must be in [1, {dim}], got {order}")
    chol_f, _ = chol_with_jitter(cb.future_future, "future auto-covariance")
    chol_p, _ = chol_with_jitter(cb.past_past, "past auto-covariance")
    normalized = solve_triangular(chol_f, cb.future_past, lower=True)
    normalized = solve_triangular(chol_p, normalized.T, lower=True).T
    left, svals, right_t = np.linalg.svd(normalized)
    root = np.sqrt(svals[:order])
    obs = (chol_f @ left[:, :order]) * root
    ctrb = (root[:, None] * right_t[:order]) @ chol_p.T
    return obs, ctrb, svals


def realization_from_observability(obs: np.ndarray, n_channels: int,
                                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Recover (A, C) from the extended observability by the shift-invariance
    least-squares solve; also returns the residual norm of the solve."""
    obs = np.asarray(obs, dtype=float)
    l = int(n_channels)
    rows, order = obs.shape
    if rows < 2 * l or rows % l:
        raise ValueError("observability must stack at least 2 complete block rows")
    top = obs[:-l]
    bottom = obs[l:]
    svals = np.linalg.svd(top, compute_uv=False)
    if svals.size < order or svals[order - 1] <= 1e-12 * svals[0]:
        raise np.linalg.LinAlgError(
            "shifted observability block is rank deficient; cannot solve for the state matrix"
        )
    a = np.linalg.pinv(top, rcond=1e-12) @ bottom
    residual = float(np.linalg.norm(top @ a - bottom))
    return a, obs[:l].copy(), residual


def modal_from_state_matrix(a: np.ndarray, c_out: np.ndarray, dt: float) -> ModalSet:
    """Eigen-decompose the discrete state matrix and convert to natural
    frequencies, damping ratios and mode shapes.

    Complex-conjugate eigenvalue pairs are collapsed to the
    positive-imaginary representative; real eigenvalues are retained with
    ``real_pole`` set.  Zero eigenvalues are dropped (continuous-time log
    undefined) and counted.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    eigvals, eigvecs = np.linalg.eig(np.asarray(a, dtype=float))
    nonzero = np.abs(eigvals) > 1e-300
    n_dropped = int(np.count_nonzero(~nonzero))
    if n_dropped:
        warnings.warn(f"dropped {n_dropped} zero eigenvalue(s) with undefined log")

    keep = nonzero & ((eigvals.imag > 0) | (eigvals.imag == 0))
    mu = eigvals[keep]
    shapes = np.asarray(c_out, dtype=float) @ eigvecs[:, keep]

    lam = np.log(mu.astype(complex)) / dt
    mag = np.abs(lam)
    freqs = mag / (2.0 * np.pi)
    with np.errstate(invalid="ignore", divide="ignore"):
        damping = np.where(mag > 0, -lam.real / np.where(mag > 0, mag, 1.0), 0.0)
    real_pole = mu.imag == 0

    idx = np.argsort(freqs, kind="stable")
    return ModalSet(
        frequencies=freqs[idx],
        damping_ratios=damping[idx],
        mode_shapes=shapes[:, idx],
        eigenvalues=mu[idx],
        real_pole=real_pole[idx],
        n_dropped=n_dropped,
    )


def ssi_cov(ts: TimeSeries, block_rows: int, order: int, center: bool = True,
            ) -> tuple[Realization, ModalSet]:
    """Classical canonical-variate weighted covariance-driven identification.

    Builds the Hankel statistics from the record, factorizes their
    covariance blocks at the requested order and extracts modal parameters
    from the realization.
    """
    if order > ts.channels * block_rows:
        raise ValueError(
            f"order {order} exceeds Hankel half-height {ts.channels * block_rows}"
        )
    cb = HankelStats.from_record(ts, block_rows, center=center).cov_blocks()
    obs, ctrb, _ = observability_controllability(cb, order)
    a, c_out, residual = realization_from_observability(obs, ts.channels)
    modal = modal_from_state_matrix(a, c_out, 1.0 / ts.fs)
    realization = Realization(observability=obs, controllability=ctrb, a=a,
                              c_out=c_out, order=order, shift_residual=residual)
    return realization, modal
