"""Bayesian covariance-driven stochastic subspace identification.

Output-only vibration records go in; full posterior distributions over
natural frequencies, damping ratios and mode shapes come out, via either a
Gibbs sampler or a coordinate-ascent variational engine, next to the
classical canonical-variate weighted baseline.
"""

__version__ = "0.1.0"

from .rng import Rng, sample_inverse_wishart, sample_mvn, sample_wishart
from .simulate import (
    ContinuousSS,
    DiscreteSS,
    ShearFrame,
    TimeSeries,
    build_shear_frame,
    discretize,
    simulate_response,
    to_continuous_ss,
    van_loan_discretize,
)
from .subspace import (
    CovBlocks,
    HankelPair,
    HankelStats,
    ModalSet,
    Realization,
    build_hankel,
    cca,
    covariance_blocks,
    matrix_sqrt,
    modal_from_state_matrix,
    realization_from_observability,
    ssi_cov,
)
from .model import ModelState, PriorHyper, StackedData, default_priors, log_joint
from .gibbs import GibbsChain, GibbsConfig, run_gibbs
from .vb import VBConfig, VBPosterior, elbo, latent_means, run_vb
from .modal_posterior import (
    ModalPosterior,
    ModalSample,
    StabilisationData,
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    mac,
    propagate_to_modal,
    stabilisation,
    summarize,
)
from .spectral import WelchSpec, welch_psd
from .io import ingest_csv
