"""Bayesian covariance-driven stochastic subspace identification.

Output-only vibration records go in; full posterior distributions over
natural frequencies, damping ratios and mode shapes come out, via either a
Gibbs sampler or a coordinate-ascent variational engine, next to the
classical canonical-variate weighted baseline.

The names below are re-exported from their modules on first access
(PEP 562), so ``import bayes_ssi`` loads no numpy: the command line sets
the BLAS thread count before numpy and scipy load their OpenBLAS.
"""

import importlib

__version__ = "0.1.0"

# re-exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["Rng"], "rng"),
    **dict.fromkeys(["ContinuousSS", "DiscreteSS", "TimeSeries", "build_shear_frame",
                     "discretize", "simulate_response", "to_continuous_ss",
                     "van_loan_discretize"], "simulate"),
    **dict.fromkeys(["HankelPair", "HankelStats", "ModalSet", "build_hankel", "cca",
                     "modal_parameters", "shift_invariance", "ssi_cov"], "subspace"),
    **dict.fromkeys(["PriorHyper", "default_priors"], "model"),
    **dict.fromkeys(["GibbsChain", "GibbsConfig", "run_gibbs"], "gibbs"),
    **dict.fromkeys(["VBConfig", "VBPosterior", "run_vb"], "vb"),
    **dict.fromkeys(["ModalDraws", "ModalPosterior", "StabilisationData", "align_modes",
                     "chain_observability_samples", "draw_observability_samples", "mac",
                     "propagate_many", "stabilisation", "summarize"], "modal_posterior"),
    **dict.fromkeys(["WelchSpec", "welch_psd"], "spectral"),
    **dict.fromkeys(["ingest_csv"], "io"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
