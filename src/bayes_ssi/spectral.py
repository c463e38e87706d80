"""Welch spectral estimates used for overlay data next to the posterior
frequency histograms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .simulate import TimeSeries

__all__ = ["WelchSpec", "welch_psd"]

# segments transformed at once, which bounds the working memory at any overlap
WELCH_BLOCK = 128


@dataclass(frozen=True)
class WelchSpec:
    """Hann-windowed averaged periodogram per channel plus the channel sum.

    Density scaling: the integral of each channel's one-sided PSD over
    frequency approximates the channel variance.
    """

    frequencies: np.ndarray   # Hz, 0 .. fs/2
    psd: np.ndarray           # channels x n_freq
    psd_sum: np.ndarray       # n_freq


def welch_psd(ts: TimeSeries, segment_length: int = 1024,
              overlap: float = 0.5) -> WelchSpec:
    """Averaged periodogram of every channel of the record (Welch, 1967).

    Segments of ``segment_length`` samples start every
    ``segment_length - int(overlap * segment_length)`` samples; each is
    mean-removed, multiplied by a periodic Hann window and transformed,
    ``WELCH_BLOCK`` segments at a time, and each segment's periodogram is
    added to the running sum in segment order, the order of
    ``power.mean(axis=1)`` over all of them at once.  The one-sided density
    doubles every bin but DC and, for even segment lengths, Nyquist.
    """
    if segment_length < 2:
        raise ValueError("segment_length must be >= 2")
    if segment_length > ts.n_samples:
        raise ValueError(
            f"segment_length {segment_length} exceeds record length {ts.n_samples}"
        )
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must lie in [0, 1)")
    m = segment_length
    step = m - int(overlap * m)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(m) / m)
    scale = ts.fs * np.sum(window ** 2)
    windows = sliding_window_view(ts.data, m, axis=1)[:, ::step]
    n_segments = windows.shape[1]
    total = np.zeros((ts.channels, m // 2 + 1))
    for start in range(0, n_segments, WELCH_BLOCK):
        segments = windows[:, start:start + WELCH_BLOCK]
        segments = segments - segments.mean(axis=-1, keepdims=True)
        spectra = np.fft.rfft(segments * window, axis=-1)
        power = (spectra.real ** 2 + spectra.imag ** 2) / scale
        power[..., 1:-1 if m % 2 == 0 else None] *= 2.0
        for k in range(power.shape[1]):
            total += power[:, k]
    psd = np.clip(total / n_segments, 0.0, None)
    return WelchSpec(frequencies=np.fft.rfftfreq(m, 1.0 / ts.fs), psd=psd,
                     psd_sum=psd.sum(axis=0))
