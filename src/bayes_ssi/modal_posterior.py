"""Propagate posterior weight draws to modal-parameter posteriors.

Each draw of the first-view weight block is an extended observability
sample.  The stack of draws goes, ``DRAW_BLOCK`` at a time, through the
baseline's shift-invariance solve and eigen-decomposition into one
``ModalDraws`` container of padded arrays, whose modes are then aligned to
the classical reference by MAC in array operations.  Negative damping
draws are kept (they occur legitimately); summaries report their fraction.
"""

from __future__ import annotations

import functools
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .gibbs import GibbsChain
from .model import default_priors
from .rng import Rng
from .simulate import TimeSeries
from .subspace import (
    HankelStats,
    ModalSet,
    build_hankel,  # noqa: F401  -- perfbench/tracing.py wraps this attribute
    modal_parameters,
    shift_invariance,
)
from .vb import VBConfig, VBPosterior, run_vb

__all__ = [
    "ModalDraws",
    "ModeCluster",
    "ModalPosterior",
    "StabilisationData",
    "mac",
    "phase_align",
    "draw_observability_samples",
    "chain_observability_samples",
    "propagate_many",
    "align_modes",
    "summarize",
    "stabilisation",
]

logger = logging.getLogger(__name__)

# draw-stream allocation: per-order stabilisation draws live at 100 + order
DRAW_STREAM = 3
STAB_DRAW_STREAM_BASE = 100

# draws generated and propagated per block, which bounds the working memory
DRAW_BLOCK = 256

# decimals of the MACs that alignment ranks on
MAC_DECIMALS = 12


@dataclass(frozen=True)
class ModalDraws:
    """Modes of a stack of propagated draws, padded to a common width m.

    Row k is draw ``index[k]`` of the propagated stack (degenerate draws
    are excluded).  Its modes fill the columns where ``present`` is set, in
    ascending frequency; the padding after them is zero.
    """

    frequencies: np.ndarray     # n x m, Hz
    damping_ratios: np.ndarray  # n x m
    mode_shapes: np.ndarray     # n x m x l, complex
    real_pole: np.ndarray       # n x m, bool
    present: np.ndarray         # n x m, bool
    index: np.ndarray           # n
    source: str                 # "gibbs" or "vb"
    order: int


@dataclass
class ModeCluster:
    """Draws aligned to one reference mode."""

    reference_frequency: float
    reference_shape: np.ndarray
    frequencies: np.ndarray
    damping_ratios: np.ndarray
    mode_shapes: np.ndarray   # n_aligned x l, complex, unit-norm, phase-aligned
    mac_scores: np.ndarray
    draw_indices: np.ndarray

    @property
    def n_aligned(self) -> int:
        return self.frequencies.size


@dataclass
class ModalPosterior:
    """Per-mode aligned draws plus alignment diagnostics."""

    clusters: list[ModeCluster]
    n_draws: int
    n_excluded: int
    n_unassigned: int
    source: str
    order: int


@dataclass
class StabilisationData:
    """Flat (order, frequency, damping) triples across model orders, with
    non-conjugate (real-pole) entries removed, plus the variational
    engine's convergence diagnostics per order that ran and the number of
    processes the orders ran in."""

    orders: np.ndarray
    frequencies: np.ndarray
    damping_ratios: np.ndarray
    requested_orders: tuple[int, ...]
    failures: dict[int, str] = field(default_factory=dict)
    diagnostics: dict[int, dict] = field(default_factory=dict)
    workers: int = 1


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b along the last axis, broadcast over the others."""
    return np.einsum("...i,...i->...", np.conj(a), b)


def mac(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Modal assurance criterion between complex shape vectors along the
    last axis, broadcast over the others; 0 where a vector is zero."""
    num = np.abs(_inner(a, b)) ** 2
    den = np.real(_inner(a, a)) * np.real(_inner(b, b))
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)[()]


def phase_align(shape: np.ndarray) -> np.ndarray:
    """Unit-normalized copy rotated to the phase maximizing the real part,
    along the last axis; zero vectors stay zero."""
    shape = np.asarray(shape, dtype=complex)
    norm = np.linalg.norm(shape, axis=-1, keepdims=True)
    rotated = np.divide(shape, norm, out=np.zeros_like(shape), where=norm != 0)
    s = np.sum(rotated**2, axis=-1, keepdims=True)
    return rotated * np.exp(-0.5j * np.angle(s))


def draw_observability_samples(post: VBPosterior, n: int, rng: Rng) -> np.ndarray:
    """Monte Carlo observability samples from the variational posterior:
    every weight column drawn from its Gaussian factor, first-view rows
    kept, ``DRAW_BLOCK`` draws at a time in draw, column, row order."""
    if n < 1:
        raise ValueError("need at least one draw")
    total_dim, d = post.weight_mean.shape
    d1 = post.view_dims[0]
    # d x D x d1: column i's factor B diag(sqrt(e_i)) restricted to the
    # first-view rows
    factors = np.sqrt(post.weight_eigs)[:, :, None] * post.weight_basis[:d1].T
    mean = post.weight_mean[:d1]
    out = np.empty((n, d1, d))
    gen = rng.generator
    for start in range(0, n, DRAW_BLOCK):
        noise = gen.standard_normal((min(DRAW_BLOCK, n - start), d, total_dim))
        # (d, B, D) @ (d, D, d1) -> (d, B, d1) -> B x d1 x d
        spread = (noise.transpose(1, 0, 2) @ factors).transpose(1, 2, 0)
        out[start:start + noise.shape[0]] = mean + spread
    return out


def chain_observability_samples(chain: GibbsChain) -> np.ndarray:
    """First-view rows of every retained weight record, in chain order."""
    if chain.n_records == 0:
        raise ValueError("chain holds no retained records")
    d1 = chain.view_dims[0]
    return chain.weight_samples[:, :d1, :]


def propagate_many(samples: np.ndarray, n_channels: int, dt: float,
                   source: str, order: int) -> tuple[ModalDraws, int]:
    """Modes of the non-degenerate draws of a stack, ``DRAW_BLOCK`` at a
    time, and the number of degenerate draws excluded (logged as one line,
    never silent)."""
    parts, kept = [], []
    for start in range(0, samples.shape[0], DRAW_BLOCK):
        block = samples[start:start + DRAW_BLOCK]
        a, degenerate = shift_invariance(block, n_channels)
        good = np.flatnonzero(~degenerate)
        parts.append(modal_parameters(a[good], block[good, :n_channels], dt))
        kept.append(start + good)
    freqs, damping, shapes, real_pole, present = (np.concatenate(p) for p in zip(*parts))
    index = np.concatenate(kept)
    n_excluded = samples.shape[0] - index.size
    if n_excluded:
        logger.warning("excluded %d of %d draws as degenerate",
                       n_excluded, samples.shape[0])
    width = int(present.sum(axis=1).max(initial=0))
    draws = ModalDraws(frequencies=freqs[:, :width], damping_ratios=damping[:, :width],
                       mode_shapes=shapes[:, :width], real_pole=real_pole[:, :width],
                       present=present[:, :width], index=index, source=source,
                       order=order)
    return draws, n_excluded


def align_modes(draws: ModalDraws, reference: ModalSet,
                mac_threshold: float = 0.8, freq_gate: float = 0.1,
                n_excluded: int = 0) -> ModalPosterior:
    """Match every draw's modes to the classical reference modes.

    Greedy per draw over the pairs with MAC >= ``mac_threshold`` inside the
    relative frequency gate: best MAC (to ``MAC_DECIMALS`` decimals) first,
    then frequency distance, then the higher mode index; each mode is used
    once, and unmatched draw modes are counted as unassigned.  Shapes are
    unit-normalized, rotated to real-maximal phase and sign-aligned to the
    reference.
    """
    n, m = draws.present.shape
    if n == 0:
        raise ValueError("no modal samples to align")
    ref_idx = np.flatnonzero(~reference.real_pole)
    ref_shapes = phase_align(reference.mode_shapes[:, ref_idx].T)
    ref_freqs = reference.frequencies[ref_idx]
    r = ref_idx.size

    # n x m x r: every draw mode against every reference mode
    gap = np.abs(draws.frequencies[:, :, None] - ref_freqs)
    score = mac(draws.mode_shapes[:, :, None, :], ref_shapes)
    gated = (ref_freqs > 0) & (gap > freq_gate * ref_freqs)
    # rank on MACs rounded to MAC_DECIMALS, so that MACs equal up to
    # rounding (every MAC of a one-channel record is 1) tie and fall
    # through to the frequency distance
    free = np.where(draws.present[:, :, None] & ~gated & (score >= mac_threshold),
                    np.round(score, MAC_DECIMALS), -np.inf)
    # taking each draw's highest-ranked free pair min(m, r) times assigns
    # the same pairs as scanning all its pairs in rank order
    rank = np.arange(m * r).reshape(m, r)
    rows = np.arange(n)
    assigned = np.full((n, r), -1)
    for _ in range(min(m, r)):
        tie = np.isfinite(free) & (free == free.max(axis=(1, 2), keepdims=True))
        near = np.where(tie, -gap, -np.inf).max(axis=(1, 2), keepdims=True)
        pick = np.where(tie & (-gap == near), rank, -1).max(axis=(1, 2))
        hit = rows[pick >= 0]
        jm, jr = np.divmod(pick[hit], r)
        assigned[hit, jr] = jm
        free[hit, jm, :] = -np.inf
        free[hit, :, jr] = -np.inf

    clusters = []
    for jr in range(r):
        k = np.flatnonzero(assigned[:, jr] >= 0)
        jm = assigned[k, jr]
        shapes = phase_align(draws.mode_shapes[k, jm])
        flip = np.real(_inner(ref_shapes[jr], shapes)) < 0
        clusters.append(ModeCluster(
            reference_frequency=float(ref_freqs[jr]),
            reference_shape=ref_shapes[jr],
            frequencies=draws.frequencies[k, jm],
            damping_ratios=draws.damping_ratios[k, jm],
            mode_shapes=np.where(flip[:, None], -shapes, shapes),
            mac_scores=score[k, jm, jr],
            draw_indices=draws.index[k],
        ))
    n_unassigned = int(np.count_nonzero(draws.present) - np.count_nonzero(assigned >= 0))
    return ModalPosterior(clusters=clusters, n_draws=n + n_excluded,
                          n_excluded=n_excluded, n_unassigned=n_unassigned,
                          source=draws.source, order=draws.order)


def summarize(posterior: ModalPosterior) -> dict:
    """Per-mode summary statistics over aligned draws.

    Damping draws are never clipped; the negative fraction is reported
    per mode.
    """
    modes = []
    for cluster in posterior.clusters:
        freq = cluster.frequencies
        damp = cluster.damping_ratios
        entry = {
            "reference_frequency_hz": cluster.reference_frequency,
            "n_aligned": int(cluster.n_aligned),
        }
        if cluster.n_aligned:
            entry.update({
                "frequency_mean_hz": float(freq.mean()),
                "frequency_sd_hz": float(freq.std(ddof=1)) if freq.size > 1 else 0.0,
                "frequency_ci_hz": [float(v) for v in
                                    np.percentile(freq, [2.5, 50.0, 97.5])],
                "damping_mean": float(damp.mean()),
                "damping_sd": float(damp.std(ddof=1)) if damp.size > 1 else 0.0,
                "damping_ci": [float(v) for v in
                               np.percentile(damp, [2.5, 50.0, 97.5])],
                "damping_negative_fraction": float(np.mean(damp < 0)),
                "mac_mean": float(cluster.mac_scores.mean()),
                "mac_min": float(cluster.mac_scores.min()),
            })
        modes.append(entry)
    n_draws = posterior.n_draws
    return {
        "source": posterior.source,
        "order": posterior.order,
        "n_draws": n_draws,
        "n_excluded": posterior.n_excluded,
        "exclusion_rate": posterior.n_excluded / n_draws if n_draws else 0.0,
        "n_unassigned_modes": posterior.n_unassigned,
        "modes": modes,
    }


def _sweep_order(stats: HankelStats, config: VBConfig, n_draws: int,
                 n_channels: int, fs: float, priors, order: int) -> tuple:
    """One order of the stabilisation sweep: the variational run, its draws
    (stream ``STAB_DRAW_STREAM_BASE + order``) and their propagation.

    Returns ``(diagnostics, frequencies, damping_ratios, failure)``: the
    run's diagnostics (None if the engine failed), the order's complex
    poles below Nyquist (None on failure) and the numerical-failure message
    (None on success).  Any other exception propagates.
    """
    diagnostics = None
    try:
        post = run_vb(stats, priors, config)
        diagnostics = post.diagnostics()
        draws = draw_observability_samples(
            post, n_draws, Rng(config.seed, STAB_DRAW_STREAM_BASE + order))
        modal, n_excluded = propagate_many(draws, n_channels, 1.0 / fs, "vb", order)
    except (np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        return diagnostics, None, None, str(exc)
    if modal.index.size == 0:
        return diagnostics, None, None, (
            f"all {n_excluded} draws degenerate; the shift-invariance "
            f"solve needs (block_rows - 1) * channels >= order"
        )
    keep = modal.present & ~modal.real_pole & (modal.frequencies < fs / 2.0)
    return diagnostics, modal.frequencies[keep], modal.damping_ratios[keep], None


def _map_orders(run, priors: dict, workers: int) -> dict:
    """``run(priors[order], order)`` for every order: in process for one
    worker, else in ``workers`` forked processes, highest (costliest) order
    first.  Results are keyed in the order of ``priors``."""
    if workers == 1:
        return {order: run(hyper, order) for order, hyper in priors.items()}
    # imported here, so commands that never start a pool do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: the workers inherit the imported modules instead of importing
    # them again, and the executor starts them before its own thread
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {order: pool.submit(run, priors[order], order)
                   for order in sorted(priors, reverse=True)}
        return {order: futures[order].result() for order in priors}
    finally:
        pool.shutdown(cancel_futures=True)


def stabilisation(ts: TimeSeries, block_rows: int, orders: list[int],
                  vb_config: VBConfig, n_draws: int = 500, *,
                  center: bool = True, priors_factory=default_priors,
                  ) -> StabilisationData:
    """Run the variational engine at multiple model orders and pool the
    propagated (frequency, damping, order) triples.

    ``priors_factory(view_dim_future, view_dim_past, order)`` supplies the
    priors for each order; it is called in this process, so it need not be
    picklable.  The orders run in one forked worker process per order, at
    most one per CPU this process may run on (in this process for one).
    Each order's result depends only on its own inputs, so the output is
    the same for any worker count.  Numerical per-order failures
    (linear-algebra errors, invalid values, a decreasing or non-finite
    bound) are recorded and logged in ascending order, and the sweep
    continues; any other exception propagates, and so does the death of a
    worker.  Real-pole entries are removed from the pooled triples.
    """
    orders = sorted(set(int(o) for o in orders))
    if not orders:
        raise ValueError("orders must be non-empty")
    half = ts.channels * block_rows
    if orders[-1] > half:
        raise ValueError(f"max order {orders[-1]} exceeds Hankel half-height {half}")

    stats = HankelStats.from_record(ts, block_rows, center=center)
    results: dict[int, tuple] = {}
    priors = {}
    for order in orders:
        try:
            priors[order] = priors_factory(stats.view_dims[0], stats.view_dims[1], order)
        except (np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
            results[order] = (None, None, None, str(exc))
    # one worker per order, at most one per CPU this process may run on;
    # in process where the platform reports no CPU affinity
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(orders), cpus)
    run = functools.partial(_sweep_order, stats, vb_config, n_draws, ts.channels, ts.fs)
    results.update(_map_orders(run, priors, workers))

    all_orders: list[np.ndarray] = []
    all_freqs: list[np.ndarray] = []
    all_damps: list[np.ndarray] = []
    failures: dict[int, str] = {}
    diagnostics: dict[int, dict] = {}
    for order in orders:
        diag, freqs, damps, failure = results[order]
        if diag is not None:
            diagnostics[order] = diag
        if failure is not None:
            logger.warning("stabilisation failed at order %d: %s", order, failure)
            failures[order] = failure
            continue
        all_orders.append(np.full(freqs.size, order, dtype=int))
        all_freqs.append(freqs)
        all_damps.append(damps)

    return StabilisationData(
        orders=(np.concatenate(all_orders) if all_orders else np.empty(0, dtype=int)),
        frequencies=(np.concatenate(all_freqs) if all_freqs else np.empty(0)),
        damping_ratios=(np.concatenate(all_damps) if all_damps else np.empty(0)),
        requested_orders=tuple(orders),
        failures=failures,
        diagnostics=diagnostics,
        workers=workers,
    )
