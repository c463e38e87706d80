"""Bayesian covariance-driven stochastic subspace identification.

Output-only vibration records go in; full posterior distributions over
natural frequencies, damping ratios and mode shapes come out, via either a
Gibbs sampler or a coordinate-ascent variational engine, next to the
classical canonical-variate weighted baseline.
"""

__version__ = "0.1.0"

from .rng import Rng
from .simulate import (
    ContinuousSS,
    DiscreteSS,
    TimeSeries,
    build_shear_frame,
    discretize,
    simulate_response,
    to_continuous_ss,
    van_loan_discretize,
)
from .subspace import (
    HankelPair,
    HankelStats,
    ModalSet,
    build_hankel,
    cca,
    modal_parameters,
    shift_invariance,
    ssi_cov,
)
from .model import PriorHyper, default_priors
from .gibbs import GibbsChain, GibbsConfig, run_gibbs
from .vb import VBConfig, VBPosterior, latent_means, run_vb
from .modal_posterior import (
    ModalDraws,
    ModalPosterior,
    StabilisationData,
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    mac,
    propagate_many,
    stabilisation,
    summarize,
)
from .spectral import WelchSpec, welch_psd
from .io import ingest_csv

__all__ = [
    "Rng", "ContinuousSS", "DiscreteSS", "TimeSeries", "build_shear_frame",
    "discretize", "simulate_response", "to_continuous_ss",
    "van_loan_discretize", "HankelPair", "HankelStats", "ModalSet",
    "build_hankel", "cca", "modal_parameters", "shift_invariance", "ssi_cov",
    "PriorHyper", "default_priors", "GibbsChain", "GibbsConfig",
    "run_gibbs", "VBConfig", "VBPosterior", "latent_means", "run_vb",
    "ModalDraws", "ModalPosterior", "StabilisationData", "align_modes",
    "chain_observability_samples", "draw_observability_samples", "mac",
    "propagate_many", "stabilisation", "summarize", "WelchSpec", "welch_psd",
    "ingest_csv",
]
