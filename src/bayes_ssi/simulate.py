"""Shear-frame benchmark: assemble the structural model, discretise the
white-noise-driven equations of motion exactly, and generate noisy
acceleration records.

Conventions
-----------
The continuous forcing is white with two-sided spectral density ``q`` per
floor, i.e. E[f(t) f(t')^T] = q * I * delta(t - t'); that density enters the
Van Loan block directly.  Measurement noise is added i.i.d. per channel per
sample.

The states of x_{k+1} = A x_k + w_k come from a chunked recursion, the
blocked prefix scan (Blelloch, "Prefix sums and their applications",
CMU-CS-90-190, 1990): about sqrt(N) chunks advanced together, about
3 sqrt(N) batched steps in all instead of N single ones.  It is exact up to
rounding and draws the same normals in the same order as a per-sample loop,
so records differ from such a loop's only in their last bits; reruns are
byte-identical at any BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import psd_factor, symmetrize

__all__ = [
    "ContinuousSS",
    "DiscreteSS",
    "TimeSeries",
    "build_shear_frame",
    "to_continuous_ss",
    "van_loan_discretize",
    "discretize",
    "stationary_state_covariance",
    "simulate_response",
]


@dataclass(frozen=True)
class ContinuousSS:
    """Continuous stochastic state space dx = A x dt + G f dt with
    acceleration outputs y = C x (plus measurement noise in discrete time)."""

    a: np.ndarray            # state matrix, 1/s
    noise_input: np.ndarray  # maps per-floor forcing into the state
    forcing_density: float   # two-sided spectral density per floor
    c_out: np.ndarray        # acceleration output rows
    meas_noise_cov: np.ndarray

    def __post_init__(self):
        eigs = np.linalg.eigvals(self.a)
        # undamped (marginally stable) systems are admitted for analysis;
        # discretization still rejects anything with unit spectral radius
        if np.max(eigs.real) > 1e-10 * max(1.0, np.max(np.abs(eigs))):
            raise ValueError("continuous state matrix is not stable")


@dataclass(frozen=True)
class DiscreteSS:
    """Exactly discretised state space x_{k+1} = A x_k + w_k, y_k = C x_k + v_k."""

    a: np.ndarray
    process_noise_cov: np.ndarray
    c_out: np.ndarray
    meas_noise_cov: np.ndarray
    dt: float

    def __post_init__(self):
        rho = np.max(np.abs(np.linalg.eigvals(self.a)))
        if rho >= 1.0:
            raise ValueError(f"discrete state matrix has spectral radius {rho:.6g} >= 1")

    @property
    def fs(self) -> float:
        return 1.0 / self.dt


@dataclass(frozen=True)
class TimeSeries:
    """Multichannel sampled record, channels along the first axis."""

    data: np.ndarray  # channels x n_samples
    fs: float

    def __post_init__(self):
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be finite and positive, got {self.fs}")
        if self.data.ndim != 2:
            raise ValueError("data must be a channels x n_samples matrix")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("time series contains non-finite samples")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


def build_shear_frame(n_floors: int, mass, stiffness) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble (M, C, K) for the shear frame.

    Each storey carries two columns of stiffness k_j, hence the factor 2 in
    K; damping is stiffness-proportional, C = K / 1000.
    """
    if n_floors < 1:
        raise ValueError("n_floors must be >= 1")
    m = np.broadcast_to(np.asarray(mass, dtype=float), (n_floors,)).copy()
    k = np.broadcast_to(np.asarray(stiffness, dtype=float), (n_floors,)).copy()
    for name, values in (("masses", m), ("stiffnesses", k)):
        if not np.all(np.isfinite(values) & (values > 0)):
            raise ValueError(f"{name} must be finite and positive, got {values}")

    mass_mat = np.diag(m)
    stiff = np.zeros((n_floors, n_floors))
    for j in range(n_floors):
        stiff[j, j] = k[j] + (k[j + 1] if j + 1 < n_floors else 0.0)
        if j + 1 < n_floors:
            stiff[j, j + 1] = stiff[j + 1, j] = -k[j + 1]
    stiff *= 2.0
    damp = stiff / 1000.0
    return mass_mat, damp, stiff


def to_continuous_ss(mass_mat, damp, stiff, forcing_density: float,
                     meas_noise_sd: float) -> ContinuousSS:
    """Companion-form stochastic state space with acceleration outputs.

    The forcing enters through M^-1 on the velocity states with spectral
    density ``forcing_density`` per floor; the measurement-noise covariance
    is meas_noise_sd**2 * I.
    """
    mass_mat = np.asarray(mass_mat, dtype=float)
    damp = np.asarray(damp, dtype=float)
    stiff = np.asarray(stiff, dtype=float)
    if not (np.isfinite(forcing_density) and forcing_density > 0):
        raise ValueError(f"forcing_density must be finite and positive, got {forcing_density}")
    if not (np.isfinite(meas_noise_sd) and meas_noise_sd >= 0):
        raise ValueError(f"meas_noise_sd must be finite and non-negative, got {meas_noise_sd}")
    n = mass_mat.shape[0]
    try:
        minv_k = np.linalg.solve(mass_mat, stiff)
        minv_c = np.linalg.solve(mass_mat, damp)
        minv = np.linalg.solve(mass_mat, np.eye(n))
    except np.linalg.LinAlgError:
        raise ValueError("mass matrix is singular") from None

    a = np.block([
        [np.zeros((n, n)), np.eye(n)],
        [-minv_k, -minv_c],
    ])
    noise_input = np.vstack([np.zeros((n, n)), minv])
    c_out = np.hstack([-minv_k, -minv_c])
    r = meas_noise_sd**2 * np.eye(n)
    return ContinuousSS(a=a, noise_input=noise_input, forcing_density=forcing_density,
                        c_out=c_out, meas_noise_cov=r)


def van_loan_discretize(a: np.ndarray, noise_input: np.ndarray, density: float,
                        dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (A_d, Q_d) via the matrix exponential of the augmented block matrix."""
    from scipy.linalg import expm  # here, so that no other command loads scipy.linalg

    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    noise_input = np.atleast_2d(np.asarray(noise_input, dtype=float))
    p = a.shape[0]
    q_cont = density * (noise_input @ noise_input.T)

    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = -a
    block[:p, p:] = q_cont
    block[p:, p:] = a.T
    exp_block = expm(block * dt)

    ad = exp_block[p:, p:].T
    qd = ad @ exp_block[:p, p:]
    return ad, symmetrize(qd)


def discretize(css: ContinuousSS, dt: float) -> DiscreteSS:
    ad, qd = van_loan_discretize(css.a, css.noise_input, css.forcing_density, dt)
    return DiscreteSS(a=ad, process_noise_cov=qd, c_out=css.c_out,
                      meas_noise_cov=css.meas_noise_cov, dt=dt)


def stationary_state_covariance(dss: DiscreteSS) -> np.ndarray:
    """Solve P = A P A^T + Q for the stationary state covariance."""
    from scipy.linalg import solve_discrete_lyapunov

    if not np.any(dss.process_noise_cov):
        return np.zeros_like(dss.process_noise_cov)
    return symmetrize(solve_discrete_lyapunov(dss.a, dss.process_noise_cov))


# columns per block of the products applied over the whole record: bounds
# their temporaries, so the record needs no N-sized array beyond two buffers
COLUMN_BLOCK = 4096


def _chunk_length(n_steps: int) -> int:
    """Samples per chunk of the state recursion: about sqrt(n_steps)."""
    return max(1, math.isqrt(n_steps))


def _column_blocks(n: int):
    """Slices of COLUMN_BLOCK consecutive columns covering ``n`` columns."""
    return (slice(start, min(start + COLUMN_BLOCK, n)) for start in range(0, n, COLUMN_BLOCK))


def _run_states(a: np.ndarray, state: np.ndarray, buf: np.ndarray) -> None:
    """Overwrite column k of ``buf`` (p x N, holding w_k) with x_{k+1} of
    x_{k+1} = A x_k + w_k, x_0 = ``state``, in about 3 sqrt(N) batched steps.

    The first N - N mod b columns form chunks of b samples.  One pass of b
    steps, A @ S over all chunks at once, gives each chunk's end state from
    a zero start; the true start states follow chunk by chunk through A^b;
    a second pass from those starts writes the states over the noise.  The
    last N mod b samples take plain steps from the last start.
    """
    p, n = buf.shape
    b = _chunk_length(n)
    m = n // b
    chunks = buf[:, :m * b].reshape(p, m, b)   # a view: writes land in buf
    ends = np.zeros((p, m))
    for j in range(b):
        ends = a @ ends + chunks[:, :, j]
    a_b = np.linalg.matrix_power(a, b)
    starts = np.empty((p, m + 1))
    starts[:, 0] = state
    for c in range(m):
        starts[:, c + 1] = a_b @ starts[:, c] + ends[:, c]
    batch = starts[:, :m]
    for j in range(b):
        batch = a @ batch + chunks[:, :, j]
        chunks[:, :, j] = batch
    state = starts[:, m]
    for k in range(m * b, n):
        state = a @ state + buf[:, k]
        buf[:, k] = state


def simulate_response(dss: DiscreteSS, n_samples: int, rng: np.random.Generator) -> TimeSeries:
    """Simulate the measured accelerations for ``n_samples`` steps.

    The initial state is drawn from the stationary distribution so the
    record carries no start-up transient.  The noise draws are scaled in
    place, the states of :func:`_run_states` overwrite the process noise and
    the outputs accumulate onto the measurement noise, so the record needs
    no N-sized array beyond the two noise buffers.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    p = dss.a.shape[0]
    l = dss.c_out.shape[0]

    f_init = psd_factor(stationary_state_covariance(dss))
    f_proc = psd_factor(dss.process_noise_cov)
    f_meas = psd_factor(dss.meas_noise_cov)

    state = f_init @ rng.standard_normal(p)
    proc = rng.standard_normal((p, n_samples))
    for cols in _column_blocks(n_samples):
        proc[:, cols] = f_proc @ proc[:, cols]
    meas = rng.standard_normal((l, n_samples))
    for cols in _column_blocks(n_samples):
        meas[:, cols] = f_meas @ meas[:, cols]

    _run_states(dss.a, state, proc)   # column k now holds x_{k+1}
    meas[:, 0] += dss.c_out @ state
    outputs, states = meas[:, 1:], proc[:, :-1]
    for cols in _column_blocks(n_samples - 1):
        outputs[:, cols] += dss.c_out @ states[:, cols]
    return TimeSeries(data=meas, fs=dss.fs)
