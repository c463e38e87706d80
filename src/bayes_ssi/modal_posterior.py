"""Propagate posterior weight draws to modal-parameter posteriors.

Each draw of the first-view weight block is an extended observability
sample.  The stack of draws goes, ``DRAW_BLOCK`` at a time, through the
baseline's shift-invariance solve and eigen-decomposition into one
``ModalDraws`` container of padded arrays, whose modes are then aligned to
the classical reference by MAC in array operations.  The blocks run on
every CPU the process may use (``usable_cpus``) and are collected in
order, so the result is the same for any thread count.  The container
carries the order and the count of the draws it came from.  Negative
damping draws are kept (they occur legitimately); summaries report their
fraction.

``stabilisation`` runs the variational engine on one set of Hankel
statistics at several model orders, all under one set of priors, and pools
the propagated (order, frequency, damping) triples.  Its orders run in
worker processes, and each order's propagation gets an equal share of the
CPUs.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .gibbs import GibbsChain
from .model import PriorHyper, check_order
from .rng import STAB_DRAW_STREAM_BASE, Rng
from .subspace import (
    HankelStats,
    ModalSet,
    build_hankel,  # noqa: F401  -- perfbench/tracing.py wraps this attribute
    modal_parameters,
    shift_invariance,
)
from .vb import ElboDecreaseError, NonFiniteBoundError, VBConfig, VBPosterior, run_vb

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
    "usable_cpus",
]

logger = logging.getLogger(__name__)

# draws generated and propagated per block, which bounds the working memory
# of each thread; two threads at 128 hold what one did at 256
DRAW_BLOCK = 128

# decimals of the MACs that alignment ranks on
MAC_DECIMALS = 12
# a draw mode matches at MAC >= MAC_THRESHOLD within a relative FREQ_GATE
MAC_THRESHOLD = 0.8
FREQ_GATE = 0.1


@dataclass(frozen=True)
class ModalDraws:
    """Modes of a stack of propagated draws, padded to a common width m.

    Row k is draw ``index[k]`` of the ``n_draws`` propagated (degenerate
    draws are excluded).  Its modes fill the columns where ``present`` is
    set, in ascending frequency; the padding after them is zero.  Draws
    propagated without shapes (``propagate_many(..., shapes=False)``) hold
    mode shapes with a zero-length channel axis, so they cannot be aligned.
    """

    frequencies: np.ndarray     # n x m, Hz
    damping_ratios: np.ndarray  # n x m
    mode_shapes: np.ndarray     # n x m x l, complex; l = 0 without shapes
    real_pole: np.ndarray       # n x m, bool
    present: np.ndarray         # n x m, bool
    index: np.ndarray           # n
    n_draws: int                # draws propagated, excluded ones included
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
    order: int


@dataclass
class StabilisationData:
    """Flat (order, frequency, damping) triples across model orders, with
    non-conjugate (real-pole) entries removed, plus the variational
    engine's convergence diagnostics per order that ran, the number of
    processes the orders ran in and the threads each order propagated on."""

    orders: np.ndarray
    frequencies: np.ndarray
    damping_ratios: np.ndarray
    failures: dict[int, str] = field(default_factory=dict)
    diagnostics: dict[int, dict] = field(default_factory=dict)
    workers: int = 1
    propagation_threads: int = 1


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


def draw_observability_samples(post: VBPosterior, n: int, rng: np.random.Generator,
                               ) -> np.ndarray:
    """Monte Carlo observability samples from the variational posterior:
    the first-view rows of every weight column, drawn from their marginal
    Gaussian, ``DRAW_BLOCK`` draws at a time in draw, column, row order.

    Column i's first-view rows have mean ``weight_mean[:d1, i]`` and
    covariance B1 diag(e_i) B1^T, with B1 the first d1 rows of the first
    ``weight_basis`` block (d1 x D when the priors couple the views) and
    e_i the matching part of its ``weight_eigs`` row.  The R of one QR of
    (B1 diag(sqrt(e_i)))^T, batched over the columns, is d1 x d1 with
    R^T R that covariance, so each column of each draw takes d1 standard
    normals through R^T; a zero covariance gives its mean."""
    if n < 1:
        raise ValueError("need at least one draw")
    d1 = post.view_dims[0]
    basis = post.weight_basis[0][:d1]
    scaled = basis * np.sqrt(post.weight_eigs[:, None, :basis.shape[1]])
    # d x d1 x d1: R_i, the transposed factor R_i^T of column i's marginal
    factors = np.linalg.qr(scaled.transpose(0, 2, 1), mode="r")
    mean = post.weight_mean[:d1]
    d = mean.shape[1]
    out = np.empty((n, d1, d))
    for start in range(0, n, DRAW_BLOCK):
        noise = rng.standard_normal((min(DRAW_BLOCK, n - start), d, d1))
        # (d, B, d1) @ (d, d1, d1) -> (d, B, d1) -> B x d1 x d
        spread = (noise.transpose(1, 0, 2) @ factors).transpose(1, 2, 0)
        out[start:start + noise.shape[0]] = mean + spread
    return out


def chain_observability_samples(chain: GibbsChain) -> np.ndarray:
    """First-view rows of every retained weight record, in chain order."""
    if chain.n_records == 0:
        raise ValueError("chain holds no retained records")
    d1 = chain.view_dims[0]
    return chain.weight_samples[:, :d1, :]


def usable_cpus() -> int:
    """CPUs this process may run on: its CPU affinity, so ``taskset``
    lowers it; 1 where the platform reports no affinity."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _map_threads(run, items: Sequence, threads: int) -> list:
    """``[run(x) for x in items]`` on the calling thread and up to
    ``threads - 1`` worker threads, which take the items in turn; with one
    thread, in this one alone.  Results come in item order, an exception in
    any call propagates once every thread has stopped, and no worker
    outlives the call.  The calling thread works rather than waits, because
    ``ThreadPoolExecutor(threads).map`` with the caller idle wrote the same
    bytes but ran slower, and peaked higher, in 4 of 4 paired ``identify``
    runs (2^16 samples, 4000 draws, 2 CPUs)."""
    threads = min(threads, len(items))
    if threads <= 1:
        return [run(x) for x in items]
    # imported here, so commands that never start a pool do not load it
    from concurrent.futures import ThreadPoolExecutor

    results = [None] * len(items)
    tickets = iter(range(len(items)))
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                k = next(tickets, None)
            if k is None:
                return
            results[k] = run(items[k])

    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(work) for _ in range(threads - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results


def propagate_many(samples: np.ndarray, n_channels: int, dt: float,
                   threads: int | None = None, shapes: bool = True,
                   ) -> tuple[ModalDraws, int]:
    """Modes of the non-degenerate draws of an n x D1 x order stack, and
    the number of degenerate draws excluded (logged as one line, never
    silent).  ``shapes=False`` computes eigenvalues only, for callers that
    keep no mode shape (see :func:`~bayes_ssi.subspace.modal_parameters`).

    The draws go ``DRAW_BLOCK`` at a time through the shift-invariance
    solve and the eigen-decomposition, on ``threads`` threads (default
    ``usable_cpus()``): numpy's batched ``svd`` and ``eig`` release the
    GIL.  The blocks are collected in order, so the result is the same
    bits for any thread count; warnings logged inside a block may come in
    any order."""
    n = samples.shape[0]
    if n == 0:
        raise ValueError("no draws to propagate")

    def block(start):
        chunk = samples[start:start + DRAW_BLOCK]
        a, degenerate = shift_invariance(chunk, n_channels)
        good = np.flatnonzero(~degenerate)
        return (modal_parameters(a[good], chunk[good, :n_channels], dt, shapes=shapes),
                start + good)

    parts, kept = zip(*_map_threads(block, range(0, n, DRAW_BLOCK),
                                    usable_cpus() if threads is None else threads))
    freqs, damping, shapes, real_pole, present = (np.concatenate(p) for p in zip(*parts))
    index = np.concatenate(kept)
    n_excluded = n - index.size
    if n_excluded:
        logger.warning("excluded %d of %d draws as degenerate", n_excluded, n)
    width = int(present.sum(axis=1).max(initial=0))
    draws = ModalDraws(frequencies=freqs[:, :width], damping_ratios=damping[:, :width],
                       mode_shapes=shapes[:, :width], real_pole=real_pole[:, :width],
                       present=present[:, :width], index=index,
                       n_draws=n, order=samples.shape[2])
    return draws, n_excluded


def align_modes(draws: ModalDraws, reference: ModalSet) -> ModalPosterior:
    """Match every draw's modes to the classical reference modes.

    Greedy per draw over the pairs with MAC >= ``MAC_THRESHOLD`` inside the
    relative frequency gate ``FREQ_GATE``: best MAC (to ``MAC_DECIMALS``
    decimals) first, then frequency distance, then the higher mode index;
    each mode is used once, and unmatched draw modes are counted as
    unassigned.  Shapes are unit-normalized, rotated to real-maximal phase
    and sign-aligned to the reference.
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
    gated = (ref_freqs > 0) & (gap > FREQ_GATE * ref_freqs)
    # rank on MACs rounded to MAC_DECIMALS, so that MACs equal up to
    # rounding (every MAC of a one-channel record is 1) tie and fall
    # through to the frequency distance
    free = np.where(draws.present[:, :, None] & ~gated & (score >= MAC_THRESHOLD),
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
    return ModalPosterior(clusters=clusters, n_draws=draws.n_draws,
                          n_excluded=draws.n_draws - n, n_unassigned=n_unassigned,
                          order=draws.order)


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
        "order": posterior.order,
        "n_draws": n_draws,
        "n_excluded": posterior.n_excluded,
        "exclusion_rate": posterior.n_excluded / n_draws if n_draws else 0.0,
        "n_unassigned_modes": posterior.n_unassigned,
        "modes": modes,
    }


def _sweep_order(stats: HankelStats, priors: PriorHyper, config: VBConfig, n_draws: int,
                 n_channels: int, fs: float, threads: int, order: int) -> tuple:
    """One order of the stabilisation sweep: the variational run at
    ``order``, its draws (stream ``STAB_DRAW_STREAM_BASE + order``)
    and their propagation on ``threads`` threads, to eigenvalues only,
    since no mode shape is kept.

    Returns ``(diagnostics, frequencies, damping_ratios, failure)``: the
    run's diagnostics (None if the engine failed), the order's complex
    poles below Nyquist (empty on failure) and the numerical-failure
    message (None on success): a linear-algebra error or a decreasing or
    non-finite bound.  Any other exception propagates.
    """
    diagnostics = None
    empty = np.empty(0)
    try:
        post = run_vb(stats, priors, order, config)
        diagnostics = post.diagnostics()
        draws = draw_observability_samples(
            post, n_draws, Rng(config.seed, STAB_DRAW_STREAM_BASE + order))
        modal, n_excluded = propagate_many(draws, n_channels, 1.0 / fs, threads,
                                           shapes=False)
    except (np.linalg.LinAlgError, ElboDecreaseError, NonFiniteBoundError) as exc:
        return diagnostics, empty, empty, str(exc)
    if modal.index.size == 0:
        return diagnostics, empty, empty, (
            f"all {n_excluded} draws degenerate; the shift-invariance "
            f"solve needs (block_rows - 1) * channels >= order"
        )
    keep = modal.present & ~modal.real_pole & (modal.frequencies < fs / 2.0)
    return diagnostics, modal.frequencies[keep], modal.damping_ratios[keep], None


def _map_orders(run, orders: Sequence[int], workers: int) -> dict:
    """``run(order)`` for every order: in process for one worker, else in
    ``workers`` forked processes, highest (costliest) order first.  Results
    are keyed by order, and collected, in ascending order."""
    ascending = sorted(orders)
    if workers == 1:
        return {order: run(order) for order in ascending}
    # imported here, so commands that never start a pool do not load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: the workers inherit the imported modules instead of importing
    # them again, and the executor starts them before its own thread
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = {order: pool.submit(run, order) for order in reversed(ascending)}
        return {order: futures[order].result() for order in ascending}
    finally:
        pool.shutdown(cancel_futures=True)


def stabilisation(stats: HankelStats, priors: PriorHyper, orders: Sequence[int],
                  vb_config: VBConfig, n_draws: int, n_channels: int,
                  fs: float) -> StabilisationData:
    """Run the variational engine on ``stats`` under ``priors`` at every
    model order in ``orders``, and pool the propagated (frequency, damping,
    order) triples of ``n_draws`` draws each.  Every order must be at least
    1, given once and at most the Hankel half-height.

    The orders run in one forked worker process per order, at most one per
    CPU this process may run on (in this process for one), and each order
    propagates its draws on ``max(1, cpus // workers)`` threads.  Each
    order's result depends only on its own inputs, so the output is the
    same for any worker or thread count.  Numerical per-order failures
    (linear-algebra errors, a decreasing or non-finite bound, every draw
    degenerate) are recorded and logged in ascending order, and the sweep
    continues; any other exception propagates, and so does the death of a
    worker.  With ``vb_config.warm_start`` the orders share one canonical
    decomposition of ``stats``, built here, whose failure fails the sweep.
    Real-pole entries are removed from the pooled triples.
    """
    if not orders:
        raise ValueError("orders must be non-empty")
    check_order(min(orders))
    repeated = sorted({order for order in orders if orders.count(order) > 1})
    if repeated:
        raise ValueError(f"orders given more than once: {repeated}")
    half = stats.view_dims[0]
    if max(orders) > half:
        raise ValueError(f"max order {max(orders)} exceeds Hankel half-height {half}")

    if vb_config.warm_start:
        # every order's warm start slices one decomposition: built before the fork
        stats.canonical_weights(max(orders))
    # one worker per order, at most one per CPU, and the CPUs shared out
    # among the workers' propagations
    cpus = usable_cpus()
    workers = min(len(orders), cpus)
    threads = max(1, cpus // workers)
    run = functools.partial(_sweep_order, stats, priors, vb_config, n_draws, n_channels, fs,
                            threads)
    results = _map_orders(run, orders, workers)

    failures: dict[int, str] = {}
    diagnostics: dict[int, dict] = {}
    for order, (diag, _, _, failure) in results.items():
        if diag is not None:
            diagnostics[order] = diag
        if failure is not None:
            logger.warning("stabilisation failed at order %d: %s", order, failure)
            failures[order] = failure
    _, freqs, damps, _ = zip(*results.values())
    return StabilisationData(
        orders=np.repeat(list(results), [f.size for f in freqs]),
        frequencies=np.concatenate(freqs),
        damping_ratios=np.concatenate(damps),
        failures=failures,
        diagnostics=diagnostics,
        workers=workers,
        propagation_threads=threads,
    )
