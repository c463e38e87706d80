"""Propagate posterior weight draws to modal-parameter posteriors.

Each draw of the first-view weight block is treated as an extended
observability sample: the state matrix is recovered by the same
shift-invariance solve as the classical baseline, eigen-decomposed, and the
resulting modal sets are aligned across draws against a classical reference
so per-mode histograms and summaries are well defined.  Negative damping
draws are kept (they occur legitimately); summaries report their fraction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .gibbs import GibbsChain
from .model import default_priors
from .rng import Rng, psd_factor
from .simulate import TimeSeries
from .spectral import WelchSpec
from .subspace import (
    HankelStats,
    ModalSet,
    build_hankel,  # noqa: F401  -- perfbench/tracing.py wraps this attribute
    modal_from_state_matrix,
    realization_from_observability,
)
from .vb import VBConfig, VBPosterior, run_vb

__all__ = [
    "ModalSample",
    "ModeCluster",
    "ModalPosterior",
    "StabilisationData",
    "mac",
    "phase_align",
    "draw_observability_samples",
    "chain_observability_samples",
    "propagate_to_modal",
    "propagate_many",
    "align_modes",
    "summarize",
    "stabilisation",
]

logger = logging.getLogger(__name__)

# draw-stream allocation: per-order stabilisation draws live at 100 + order
DRAW_STREAM = 3
STAB_DRAW_STREAM_BASE = 100


@dataclass(frozen=True)
class ModalSample:
    """Modal parameters extracted from one posterior draw."""

    index: int
    modal: ModalSet
    source: str          # "gibbs" or "vb"
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
    reference: ModalSet
    n_draws: int
    n_excluded: int
    n_unassigned: int
    source: str
    order: int


@dataclass
class StabilisationData:
    """Flat (order, frequency, damping) triples across model orders, with
    non-conjugate (real-pole) entries removed, plus the variational
    engine's convergence diagnostics per order that ran."""

    orders: np.ndarray
    frequencies: np.ndarray
    damping_ratios: np.ndarray
    requested_orders: tuple[int, ...]
    failures: dict[int, str] = field(default_factory=dict)
    welch: WelchSpec | None = None
    diagnostics: dict[int, dict] = field(default_factory=dict)


def mac(a: np.ndarray, b: np.ndarray) -> float:
    """Modal assurance criterion between two complex shape vectors."""
    num = abs(np.vdot(a, b)) ** 2
    den = float(np.real(np.vdot(a, a)) * np.real(np.vdot(b, b)))
    if den == 0.0:
        return 0.0
    return float(num / den)


def phase_align(shape: np.ndarray) -> np.ndarray:
    """Unit-normalized copy rotated to the phase maximizing the real part."""
    norm = np.linalg.norm(shape)
    if norm == 0:
        return shape.astype(complex)
    rotated = shape / norm
    s = complex(np.sum(rotated**2))
    if abs(s) > 0:
        rotated = rotated * np.exp(-0.5j * np.angle(s))
    return rotated


def draw_observability_samples(post: VBPosterior, n: int, rng: Rng) -> np.ndarray:
    """Monte Carlo observability samples from the variational posterior.

    Each draw samples every weight column from its Gaussian factor,
    assembles the full matrix and keeps the first-view rows.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    total_dim, d = post.weight_mean.shape
    d1 = post.view_dims[0]
    factors = [psd_factor(post.weight_cov[i]) for i in range(d)]
    out = np.empty((n, d1, d))
    gen = rng.generator
    for k in range(n):
        for i in range(d):
            col = post.weight_mean[:, i] + factors[i] @ gen.standard_normal(total_dim)
            out[k, :, i] = col[:d1]
    return out


def chain_observability_samples(chain: GibbsChain) -> np.ndarray:
    """First-view rows of every retained weight record, in chain order."""
    if chain.n_records == 0:
        raise ValueError("chain holds no retained records")
    d1 = chain.view_dims[0]
    return chain.weight_samples[:, :d1, :]


def propagate_to_modal(w1: np.ndarray, n_channels: int, dt: float,
                       source: str = "vb", order: int | None = None,
                       index: int = 0) -> ModalSample:
    """Observability sample -> state matrix -> modal set.

    Raises numpy.linalg.LinAlgError for degenerate draws (rank-deficient
    shifted block); callers exclude and count those.
    """
    a, c_out, _ = realization_from_observability(w1, n_channels)
    modal = modal_from_state_matrix(a, c_out, dt)
    return ModalSample(index=index, modal=modal, source=source,
                       order=order if order is not None else w1.shape[1])


def propagate_many(samples: np.ndarray, n_channels: int, dt: float,
                   source: str, order: int) -> tuple[list[ModalSample], int]:
    """Propagate a stack of observability draws, excluding degenerate ones.

    Exclusions are counted and logged as one line, never silent.
    """
    out: list[ModalSample] = []
    n_excluded = 0
    for k in range(samples.shape[0]):
        try:
            out.append(propagate_to_modal(samples[k], n_channels, dt,
                                          source=source, order=order, index=k))
        except np.linalg.LinAlgError:
            n_excluded += 1
    if n_excluded:
        logger.warning("excluded %d of %d draws as degenerate",
                       n_excluded, samples.shape[0])
    return out, n_excluded


def align_modes(samples: list[ModalSample], reference: ModalSet,
                mac_threshold: float = 0.8, freq_gate: float = 0.1,
                n_excluded: int = 0) -> ModalPosterior:
    """Match every draw's modes to the classical reference modes.

    Greedy best-MAC assignment with a relative frequency gate and a
    frequency-distance tiebreak; unmatched draw modes land in the
    unassigned pool.  Shapes are unit-normalized, rotated to real-maximal
    phase and sign-aligned to the reference.
    """
    if not samples:
        raise ValueError("no modal samples to align")
    ref_idx = np.flatnonzero(~reference.real_pole)
    ref_shapes = [phase_align(reference.mode_shapes[:, j]) for j in ref_idx]
    ref_freqs = reference.frequencies[ref_idx]

    buckets: list[dict[str, list]] = [
        {"freq": [], "damp": [], "shape": [], "mac": [], "idx": []}
        for _ in ref_idx
    ]
    n_unassigned = 0
    for sample in samples:
        modal = sample.modal
        pairs = []
        for jm in range(modal.n_modes):
            f = modal.frequencies[jm]
            shape = modal.mode_shapes[:, jm]
            for jr, (f_ref, s_ref) in enumerate(zip(ref_freqs, ref_shapes)):
                if f_ref > 0 and abs(f - f_ref) > freq_gate * f_ref:
                    continue
                score = mac(shape, s_ref)
                if score < mac_threshold:
                    continue
                pairs.append((score, -abs(f - f_ref), jm, jr))
        pairs.sort(reverse=True)
        used_draw: set[int] = set()
        used_ref: set[int] = set()
        for score, _, jm, jr in pairs:
            if jm in used_draw or jr in used_ref:
                continue
            used_draw.add(jm)
            used_ref.add(jr)
            aligned = phase_align(modal.mode_shapes[:, jm])
            if np.real(np.vdot(ref_shapes[jr], aligned)) < 0:
                aligned = -aligned
            bucket = buckets[jr]
            bucket["freq"].append(modal.frequencies[jm])
            bucket["damp"].append(modal.damping_ratios[jm])
            bucket["shape"].append(aligned)
            bucket["mac"].append(score)
            bucket["idx"].append(sample.index)
        n_unassigned += modal.n_modes - len(used_draw)

    clusters = []
    for jr, bucket in enumerate(buckets):
        clusters.append(ModeCluster(
            reference_frequency=float(ref_freqs[jr]),
            reference_shape=ref_shapes[jr],
            frequencies=np.asarray(bucket["freq"]),
            damping_ratios=np.asarray(bucket["damp"]),
            mode_shapes=(np.vstack(bucket["shape"]) if bucket["shape"]
                         else np.empty((0, reference.mode_shapes.shape[0]), complex)),
            mac_scores=np.asarray(bucket["mac"]),
            draw_indices=np.asarray(bucket["idx"], dtype=int),
        ))
    first = samples[0]
    return ModalPosterior(clusters=clusters, reference=reference,
                          n_draws=len(samples) + n_excluded,
                          n_excluded=n_excluded, n_unassigned=n_unassigned,
                          source=first.source, order=first.order)


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


def stabilisation(ts: TimeSeries, block_rows: int, orders: list[int],
                  vb_config: VBConfig, n_draws: int = 500, *,
                  center: bool = True, priors_factory=default_priors,
                  welch: WelchSpec | None = None) -> StabilisationData:
    """Run the variational engine at multiple model orders and pool the
    propagated (frequency, damping, order) triples.

    ``priors_factory(view_dim_future, view_dim_past, order)`` supplies the
    priors for each order.  Numerical per-order failures (linear-algebra
    errors, invalid values, a decreasing or non-finite bound) are recorded
    and the sweep continues; any other exception propagates.  Real-pole
    entries are removed from the pooled triples.
    """
    orders = sorted(set(int(o) for o in orders))
    if not orders:
        raise ValueError("orders must be non-empty")
    half = ts.channels * block_rows
    if orders[-1] > half:
        raise ValueError(f"max order {orders[-1]} exceeds Hankel half-height {half}")

    stats = HankelStats.from_record(ts, block_rows, center=center)
    dt = 1.0 / ts.fs

    all_orders: list[np.ndarray] = []
    all_freqs: list[np.ndarray] = []
    all_damps: list[np.ndarray] = []
    failures: dict[int, str] = {}
    diagnostics: dict[int, dict] = {}
    for order in orders:
        try:
            priors = priors_factory(stats.view_dims[0], stats.view_dims[1], order)
            post = run_vb(stats, priors, vb_config)
            diagnostics[order] = post.diagnostics()
            draws = draw_observability_samples(
                post, n_draws, Rng(vb_config.seed, STAB_DRAW_STREAM_BASE + order))
            modal_samples, n_excluded = propagate_many(draws, ts.channels, dt,
                                                       "vb", order)
            if not modal_samples:
                failures[order] = (
                    f"all {n_excluded} draws degenerate; the shift-invariance "
                    f"solve needs (block_rows - 1) * channels >= order"
                )
                continue
            nyquist = ts.fs / 2.0
            freqs, damps = [], []
            for sample in modal_samples:
                keep = ~sample.modal.real_pole & (sample.modal.frequencies < nyquist)
                freqs.append(sample.modal.frequencies[keep])
                damps.append(sample.modal.damping_ratios[keep])
            freq_arr = np.concatenate(freqs) if freqs else np.empty(0)
            damp_arr = np.concatenate(damps) if damps else np.empty(0)
            all_orders.append(np.full(freq_arr.size, order, dtype=int))
            all_freqs.append(freq_arr)
            all_damps.append(damp_arr)
        except (np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
            logger.warning("stabilisation failed at order %d: %s", order, exc)
            failures[order] = str(exc)

    return StabilisationData(
        orders=(np.concatenate(all_orders) if all_orders else np.empty(0, dtype=int)),
        frequencies=(np.concatenate(all_freqs) if all_freqs else np.empty(0)),
        damping_ratios=(np.concatenate(all_damps) if all_damps else np.empty(0)),
        requested_orders=tuple(orders),
        failures=failures,
        welch=welch,
        diagnostics=diagnostics,
    )
