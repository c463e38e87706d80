"""Deterministic subspace machinery: block-Hankel assembly, the Hankel
sufficient statistics, canonical correlation analysis, the
canonical-variate weighted covariance-driven identification baseline, and
modal extraction from state-space realizations.

``canonical_weights`` is the one factorization of a two-view covariance
into canonical-variate weights, built once per statistics value and
covariance (:meth:`HankelStats.canonical_weights`).  The classical baseline
``ssi_cov`` takes its observability from it, and ``warm_start_point`` takes
from it the maximum-likelihood point of the latent projection model (the
CCA solution, Bach & Jordan 2005) that both engines can start from.

The shift-invariance solve and the eigen -> modal conversion run on stacks
of matrices (``shift_invariance``, ``modal_parameters``); the classical
baseline ``ssi_cov`` runs them on a stack of one, as the posterior draws
run them on stacks of many."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .rng import NotPositiveDefiniteError, solve_lower, spd_cholesky, symmetrize
from .simulate import TimeSeries

__all__ = [
    "HankelPair",
    "HankelStats",
    "ModalSet",
    "IllConditionedError",
    "build_hankel",
    "chol_with_jitter",
    "cca",
    "canonical_weights",
    "warm_start_point",
    "ssi_cov",
    "shift_invariance",
    "modal_parameters",
]

# jitter ladder for near-singular auto-covariances, relative to trace/dim
_JITTER_LEVELS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)

logger = logging.getLogger(__name__)


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
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.row_mean.size

    def raw_gram(self) -> np.ndarray:
        """sum_n x_n x_n^T, the Gram about zero."""
        return self.gram + self.n_cols * np.outer(self.row_mean, self.row_mean)

    def canonical_weights(self, order: int, about_zero: bool = False) -> np.ndarray:
        """:func:`canonical_weights` of the covariance about the row means,
        or about zero with ``about_zero``: the first ``order`` columns of one
        decomposition per covariance (one for both when the means are zero)."""
        h = self.view_dims[0]
        full = min(h, self.dim - h)
        if not 1 <= order <= full:
            raise ValueError(f"order must be in [1, {full}], got {order}")
        key = about_zero and bool(np.any(self.row_mean))
        if key not in self._weights:
            gram = self.raw_gram() if key else self.gram
            self._weights[key] = canonical_weights(gram / self.n_cols, h, full)
        return self._weights[key][:, :order].copy()

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
class ModalSet:
    """Modal parameters with conjugate pairs collapsed to one entry each.

    ``real_pole`` flags entries that came from a real eigenvalue of the
    state matrix (retained but non-physical for vibrating modes).
    """

    frequencies: np.ndarray       # Hz
    damping_ratios: np.ndarray
    mode_shapes: np.ndarray       # complex, l x n_modes
    real_pole: np.ndarray         # bool mask

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
    return HankelPair(past=stacked[:half].copy(), future=stacked[half:].copy())


def chol_with_jitter(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter up to 1e-6*trace/dim
    for as long as a pivot fails.

    Logs one warning naming ``name`` and the jitter level when any jitter
    was needed.  Raises :class:`IllConditionedError` with a
    condition-number report if the ladder is exhausted.
    """
    mat = np.asarray(mat, dtype=float)
    dim = mat.shape[0]
    base = float(np.trace(mat)) / dim
    if base <= 0:
        base = 1.0
    for level in _JITTER_LEVELS:
        try:
            factor = spd_cholesky(mat + level * base * np.eye(dim), name)
        except NotPositiveDefiniteError:
            continue
        if level > 0:
            logger.warning("%s is not positive definite: added diagonal jitter "
                           "%g x trace/dim = %.3g", name, level, level * base)
        return factor
    cond = np.linalg.cond(symmetrize(mat))
    raise IllConditionedError(
        f"{name} is not positive definite after jitter ladder "
        f"(condition number {cond:.3e})"
    )


def cca(auto_x: np.ndarray, auto_y: np.ndarray, cross_xy: np.ndarray,
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical correlation analysis of two views from their covariances.

    With L the Cholesky factors of the auto-covariances and U S V^T the SVD
    of L_x^-1 @ cross_xy @ L_y^-T, returns the canonical loadings
    (L_x U, correlations S, L_y V); L_x U[:, :k] diag(S[:k]) (L_y V[:, :k])^T
    is the rank-k canonical approximation of ``cross_xy``.  Correlations are
    clamped to [0, 1] (numerical noise above 1 is truncated).
    """
    if not all(np.isfinite(m).all() for m in (auto_x, auto_y, cross_xy)):
        raise ValueError("CCA covariances must be finite")
    chol_x = chol_with_jitter(auto_x, "first-view auto-covariance")
    chol_y = chol_with_jitter(auto_y, "second-view auto-covariance")
    normalized = solve_lower(chol_x, cross_xy)
    normalized = solve_lower(chol_y, normalized.T).T
    left, svals, right_t = np.linalg.svd(normalized)
    return chol_x @ left, np.clip(svals, 0.0, 1.0), chol_y @ right_t.T


def canonical_weights(cov: np.ndarray, view_dim: int, order: int) -> np.ndarray:
    """Canonical-variate weights of the covariance ``cov`` of two stacked
    views, the first ``view_dim`` rows long, truncated to ``order`` states.

    With ``cca``'s loadings (L_1 U, rho, L_2 V) of the view blocks, returns
    the D x order matrix W = [L_1 U_k; L_2 V_k] diag(sqrt(rho_k)).  Its
    first-view block W_1 times the transpose of its second W_2 is the
    rank-``order`` canonical approximation of the cross-covariance block.
    """
    h = int(view_dim)
    limit = min(h, cov.shape[0] - h)
    if not 1 <= order <= limit:
        raise ValueError(f"order must be in [1, {limit}], got {order}")
    load1, corr, load2 = cca(symmetrize(cov[:h, :h]), symmetrize(cov[h:, h:]),
                             cov[:h, h:])
    return np.vstack([load1[:, :order], load2[:, :order]]) * np.sqrt(corr[:order])


def warm_start_point(stats: HankelStats, order: int,
                     ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(weights, mean, per-view noise blocks) at the maximum-likelihood
    point of the two-view latent projection model, from the statistics.

    The weights are the canonical weights of the covariance about the row
    means (the model carries the mean), and each noise block is its view's
    auto-covariance minus W_m W_m^T, plus 1e-8 of its mean diagonal on the
    diagonal.
    """
    if len(stats.view_dims) != 2:
        raise ValueError("warm start requires exactly two views")
    h = stats.view_dims[0]
    cov = stats.gram / stats.n_cols
    weights = stats.canonical_weights(order)
    noise = [symmetrize(cov[view, view] - weights[view] @ weights[view].T)
             for view in (slice(None, h), slice(h, None))]
    # keep the MLE noise blocks safely positive definite
    noise = [blk + 1e-8 * np.trace(blk) / blk.shape[0] * np.eye(blk.shape[0])
             for blk in noise]
    return weights, stats.row_mean.copy(), noise


def shift_invariance(obs: np.ndarray, n_channels: int,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """State matrices A = pinv(O[:-l]) O[l:] of a stack of extended
    observabilities O (n x rows x order), and the mask of degenerate ones:
    not finite, or a shifted block whose smallest singular value is at most
    1e-12 of its largest.  Degenerate state matrices are NaN."""
    obs = np.asarray(obs, dtype=float)
    l = int(n_channels)
    n, rows, order = obs.shape
    if rows < 2 * l or rows % l:
        raise ValueError("observability must stack at least 2 complete block rows")
    a = np.full((n, order, order), np.nan)
    degenerate = np.ones(n, dtype=bool)
    if rows - l < order:
        return a, degenerate
    good = np.flatnonzero(np.isfinite(obs).all(axis=(1, 2)))
    u, s, vt = np.linalg.svd(obs[good, :-l], full_matrices=False)
    full_rank = s[:, order - 1] > 1e-12 * s[:, 0]
    good, u, s, vt = good[full_rank], u[full_rank], s[full_rank], vt[full_rank]
    degenerate[good] = False
    # every kept singular value clears pinv's 1e-12 cutoff, so this is
    # pinv(O[:-l], rcond=1e-12) in pinv's own operand order
    pinv = np.swapaxes(vt, -1, -2) @ ((1 / s)[..., None] * np.swapaxes(u, -1, -2))
    a[good] = pinv @ obs[good, l:]
    return a, degenerate


def modal_parameters(a: np.ndarray, c_out: np.ndarray, dt: float,
                     shapes: bool = True) -> tuple[np.ndarray, ...]:
    """Natural frequencies, damping ratios and mode shapes of a stack of
    discrete state matrices (n x d x d) with output matrices (n x l x d).

    Conjugate eigenvalue pairs collapse to their positive-imaginary member;
    real eigenvalues are kept with ``real_pole`` set; zero eigenvalues
    (continuous-time log undefined) are dropped with one logged warning
    counting them.  Returns (frequencies, damping_ratios, mode_shapes,
    real_pole, present), n x d each (shapes n x d x l, complex): row k
    holds matrix k's modes in ascending frequency where ``present``, then
    zeros.  With ``shapes=False`` only the eigenvalues are computed
    (``np.linalg.eigvals``, no eigenvectors) and the shapes are n x d x 0.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    c_out = np.asarray(c_out, dtype=float)
    a = np.asarray(a, dtype=float)
    if shapes:
        eigvals, eigvecs = np.linalg.eig(a)
    else:
        eigvals = np.linalg.eigvals(a)
    nonzero = np.abs(eigvals) > 1e-300
    n_dropped = int(np.count_nonzero(~nonzero))
    if n_dropped:
        logger.warning("dropped %d zero eigenvalue(s) with undefined log", n_dropped)
    keep = nonzero & ((eigvals.imag > 0) | (eigvals.imag == 0))

    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.log(eigvals.astype(complex)) / dt
        mag = np.abs(lam)
        damping = np.where(mag > 0, -lam.real / np.where(mag > 0, mag, 1.0), 0.0)
    freqs = mag / (2.0 * np.pi)

    idx = np.argsort(np.where(keep, freqs, np.inf), axis=-1, kind="stable")
    present = np.take_along_axis(keep, idx, axis=-1)

    def sort(values):
        return np.where(present, np.take_along_axis(values, idx, axis=-1), 0)

    mode_shapes = np.zeros(present.shape + (c_out.shape[-2] if shapes else 0,),
                           dtype=complex)
    if shapes:
        width = int(present.sum(axis=-1).max(initial=0))
        # gather eigenvectors as rows and multiply by their transpose: the
        # operands keep the layout of one matrix's ``c_out @ eigvecs[:, kept]``
        vecs = np.take_along_axis(np.swapaxes(eigvecs, -1, -2), idx[:, :width, None],
                                  axis=1)
        mode_shapes[:, :width] = np.swapaxes(c_out @ np.swapaxes(vecs, -1, -2), -1, -2)
        mode_shapes[~present] = 0
    real_pole = present & np.take_along_axis(eigvals.imag == 0, idx, axis=-1)
    return sort(freqs), sort(damping), mode_shapes, real_pole, present


def ssi_cov(stats: HankelStats, order: int, n_channels: int, dt: float,
            ) -> ModalSet:
    """Classical canonical-variate weighted covariance-driven identification.

    Takes the observability as the first-view block of the canonical
    weights of the Hankel statistics' covariance about zero (like the
    products of the Hankel rows themselves, with 1/N_cols scaling) at the
    requested order, for an ``n_channels`` record sampled every ``dt``
    seconds, and extracts modal parameters from the realization, with the
    observability's first block row as C; raises LinAlgError if degenerate.
    """
    h = stats.view_dims[0]
    obs = stats.canonical_weights(order, about_zero=True)[:h]
    a, degenerate = shift_invariance(obs[None], n_channels)
    if degenerate[0]:
        raise np.linalg.LinAlgError("shifted observability block is rank deficient; "
                                    "cannot solve for the state matrix")
    freqs, damping, shapes, real_pole, present = modal_parameters(
        a, obs[None, :n_channels], dt)
    k = int(present.sum())
    return ModalSet(frequencies=freqs[0, :k], damping_ratios=damping[0, :k],
                    mode_shapes=shapes[0, :k].T, real_pole=real_pole[0, :k])
