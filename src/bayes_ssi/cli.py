"""Command-line pipeline: simulate the benchmark frame, identify modal
posteriors from any CSV record, sweep model orders for stabilisation data,
and emit Welch spectra.

Every command validates its configuration up front, owns its output
directory through a lockfile, echoes the fully resolved configuration next
to the numeric artifacts, and cleans partial artifacts up on failure.
Reruns with the same configuration and seed reproduce every numeric output
byte for byte; wall-clock metadata lives only in the run manifest.  The
bundled OpenBLAS libraries of numpy and scipy run on one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, so the bytes do not
depend on the machine's core count.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import shutil
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .gibbs import GibbsConfig, run_gibbs
from .io import (
    describe_priors,
    ingest_csv,
    save_chain,
    save_vb_posterior,
    write_json,
    write_matrix_csv,
    write_timeseries_csv,
)
from .modal_posterior import (
    DRAW_STREAM,
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    propagate_many,
    stabilisation,
    summarize,
)
from .model import PriorHyper, default_priors
from .rng import Rng
from .simulate import build_shear_frame, discretize, simulate_response, to_continuous_ss
from .spectral import welch_psd
from .subspace import (
    HankelStats,
    build_hankel,  # noqa: F401  -- perfbench/tracing.py wraps this attribute
    ssi_cov,
)
from .vb import VBConfig, run_vb

__all__ = [
    "main",
    "cmd_simulate",
    "cmd_identify",
    "cmd_stabilise",
    "cmd_spectrum",
    "build_priors",
    "load_prior_overrides",
    "pin_blas_threads",
    "blas_threads",
]

SIMULATE_STREAM = 0

# package -> (library directory beside it, OpenBLAS file pattern, symbol suffix)
_OPENBLAS = {"numpy": ("numpy.libs", "libscipy_openblas64_*.so*", "64_"),
             "scipy": ("scipy.libs", "libscipy_openblas-*.so*", "")}
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _openblas_threads_call(package: str, verb: str):
    """``scipy_openblas_<verb>_num_threads`` of the OpenBLAS bundled with
    ``package``, or None if that library or symbol is not there."""
    libdir, pattern, suffix = _OPENBLAS[package]
    root = Path(sys.modules[package].__file__).parent.parent / libdir
    for path in sorted(root.glob(pattern)):
        try:
            return getattr(ctypes.CDLL(str(path)),
                           f"scipy_openblas_{verb}_num_threads{suffix}")
        except (OSError, AttributeError):
            return None
    return None


def pin_blas_threads() -> None:
    """Run numpy's and scipy's OpenBLAS on one thread each, unless the
    user set a thread count in the environment."""
    if any(os.environ.get(name) for name in _THREAD_ENV):
        return
    for package in _OPENBLAS:
        setter = _openblas_threads_call(package, "set")
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter(1)


def blas_threads() -> dict:
    """OpenBLAS threads in effect per package, None where unknown."""
    counts = {}
    for package in _OPENBLAS:
        getter = _openblas_threads_call(package, "get")
        if getter is not None:
            getter.restype = ctypes.c_int
        counts[package] = None if getter is None else int(getter())
    return counts


class OutputDir:
    """Exclusive ownership of an artifact directory via a lockfile, with
    partial-artifact cleanup if the command fails."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = self.path / ".lock"
        self._written: list[Path] = []

    def __enter__(self) -> "OutputDir":
        self.path.mkdir(parents=True, exist_ok=True)
        try:
            self._lock.touch(exist_ok=False)
        except FileExistsError:
            raise RuntimeError(
                f"output directory {self.path} is locked by another run "
                f"(remove {self._lock} if stale)"
            ) from None
        return self

    def file(self, name: str) -> Path:
        target = self.path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        self._written.append(target)
        return target

    def subdir(self, name: str) -> Path:
        target = self.path / name
        self._written.append(target)
        return target

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for target in reversed(self._written):
                if target.is_dir():
                    shutil.rmtree(target)
                else:
                    target.unlink(missing_ok=True)
        self._lock.unlink(missing_ok=True)
        return False


def _manifest(command: str, cfg: dict, started: float,
              failures: dict | None = None, diagnostics: dict | None = None) -> dict:
    return {
        "command": command,
        "seed": cfg.get("seed"),
        "versions": {
            "bayes_ssi": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "started_utc": datetime.fromtimestamp(started, timezone.utc).isoformat(),
        "elapsed_s": time.time() - started,
        "failures": {str(k): v for k, v in (failures or {}).items()},
        "status": "partial" if failures else "ok",
        "diagnostics": diagnostics,
        "blas_threads": blas_threads(),
    }


def _config_echo(command: str, cfg: dict) -> dict:
    """The resolved configuration as written to ``config.json``."""
    return {"command": command,
            **{k: (str(v) if isinstance(v, Path) else v) for k, v in cfg.items()}}


def _vb_config(cfg: dict) -> VBConfig:
    return VBConfig(max_iter=cfg.get("max_iter", 500),
                    elbo_rel_tol=cfg.get("tol", 1e-7),
                    seed=cfg["seed"],
                    latent_cross_cov=not cfg.get("strict_paper_vb", False),
                    warm_start=cfg.get("warm_start", False))


def _require_draws(cfg: dict, default: int) -> int:
    """The ``--draws`` count, rejected before any engine runs if below one."""
    n_draws = cfg.get("draws", default)
    if n_draws < 1:
        raise ValueError(f"--draws must be at least 1, got {n_draws}")
    return n_draws


def _warn_not_converged(diag: dict, max_iter: int, where: str = "") -> None:
    if not diag["converged"]:
        print(f"warning: VB{where} stopped at max_iter={max_iter} without "
              f"converging", file=sys.stderr)


def load_prior_overrides(path) -> dict:
    """Prior configuration file: JSON whose keys mirror the prior
    hyperparameter fields; scalars expand to scaled identities or constant
    vectors."""
    with open(path) as fh:
        raw = json.load(fh)
    allowed = {"mean_loc", "mean_cov", "weight_loc", "weight_cov",
               "noise_scale", "noise_dof"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown prior keys: {sorted(unknown)}")
    return raw


def _expand_vector(value, dim: int) -> np.ndarray:
    if np.isscalar(value):
        return float(value) * np.ones(dim)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"prior vector must have length {dim}, got {arr.shape}")
    return arr


def _expand_matrix(value, dim: int) -> np.ndarray:
    if np.isscalar(value):
        return float(value) * np.eye(dim)
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim, dim):
        raise ValueError(f"prior matrix must be {dim}x{dim}, got {arr.shape}")
    return arr


def build_priors(view_dim_future: int, view_dim_past: int, order: int,
                 overrides: dict | None = None) -> PriorHyper:
    """Default priors with optional overrides from a prior config file."""
    base = default_priors(view_dim_future, view_dim_past, order)
    if not overrides:
        return base
    fields = {}
    for key in ("mean_loc", "weight_loc"):
        if key in overrides:
            fields[key] = _expand_vector(overrides[key], base.dim)
    for key in ("mean_cov", "weight_cov"):
        if key in overrides:
            fields[key] = _expand_matrix(overrides[key], base.dim)
    if "noise_scale" in overrides:
        value = overrides["noise_scale"]
        try:
            rank = np.ndim(value)
        except ValueError:      # ragged: a list of per-view entries
            rank = None
        shared = rank == 0 or (rank == 2 and all(np.shape(value) == (d, d)
                                                 for d in base.view_dims))
        per_view = _per_view("noise_scale", value, shared)
        fields["noise_scale"] = tuple(_expand_matrix(v, d)
                                      for v, d in zip(per_view, base.view_dims))
    if "noise_dof" in overrides:
        value = overrides["noise_dof"]
        per_view = _per_view("noise_dof", value, not isinstance(value, list))
        fields["noise_dof"] = tuple(float(v) for v in per_view)
    return dataclasses.replace(base, **fields)


def _per_view(key: str, value, shared: bool) -> list:
    """The two per-view entries of a noise prior override: ``value`` for
    both views when ``shared``, else ``value`` itself, which must then be a
    list of exactly two entries."""
    if shared:
        return [value, value]
    if not isinstance(value, list) or len(value) != 2:
        got = f"a list of {len(value)}" if isinstance(value, list) else repr(value)
        raise ValueError(f"{key} must be one value for both views or a list of 2 "
                         f"per-view values, got {got}")
    return value


def _load_input(cfg: dict):
    """Resolve the input record: CSV plus fs from the flag or a sidecar."""
    path = Path(cfg["input"])
    fs = cfg.get("fs")
    if fs is None:
        sidecar = path.with_suffix(".json")
        if sidecar.exists():
            with open(sidecar) as fh:
                fs = json.load(fh).get("fs")
        if fs is None:
            raise ValueError(
                f"--fs is required: no sampling rate flag and no sidecar {sidecar}"
            )
    return ingest_csv(path, float(fs))


def _write_welch_overlay(out: OutputDir, ts) -> None:
    spec = welch_psd(ts, segment_length=min(1024, ts.n_samples), overlap=0.5)
    write_matrix_csv(out.file("welch_sum.csv"),
                     np.column_stack([spec.frequencies, spec.psd_sum]),
                     header=["frequency_hz", "psd_sum"])


def _modal_estimate_payload(modal, order: int, block_rows: int) -> dict:
    return {
        "order": order,
        "block_rows": block_rows,
        "frequencies_hz": [float(v) for v in modal.frequencies],
        "damping_ratios": [float(v) for v in modal.damping_ratios],
        "real_pole": [bool(v) for v in modal.real_pole],
        "mode_shapes_real": modal.mode_shapes.real.tolist(),
        "mode_shapes_imag": modal.mode_shapes.imag.tolist(),
    }


def _write_mode_draws(out: OutputDir, posterior) -> None:
    for k, cluster in enumerate(posterior.clusters, start=1):
        write_matrix_csv(
            out.file(f"mode_{k:02d}_draws.csv"),
            np.column_stack([cluster.frequencies, cluster.damping_ratios])
            if cluster.n_aligned else np.empty((0, 2)),
            header=["frequency_hz", "damping_ratio"],
        )
        l = cluster.reference_shape.size
        shape_cols = np.empty((cluster.n_aligned, 2 * l))
        shape_cols[:, 0::2] = cluster.mode_shapes.real
        shape_cols[:, 1::2] = cluster.mode_shapes.imag
        header = []
        for c in range(l):
            header += [f"ch{c + 1}_re", f"ch{c + 1}_im"]
        write_matrix_csv(out.file(f"mode_{k:02d}_shapes.csv"), shape_cols,
                         header=header)


def cmd_simulate(cfg: dict) -> Path:
    """Generate the benchmark response record and its sidecar."""
    started = time.time()
    mass_mat, damp, stiff = build_shear_frame(cfg["floors"], cfg["mass"],
                                              cfg["stiffness"])
    css = to_continuous_ss(mass_mat, damp, stiff, cfg["forcing_density"],
                           cfg["measurement_sd"])
    dss = discretize(css, 1.0 / cfg["fs"])
    ts = simulate_response(dss, cfg["samples"], Rng(cfg["seed"], SIMULATE_STREAM))

    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"), _config_echo("simulate", cfg))
        write_timeseries_csv(out.file("response.csv"), ts)
        write_json(out.file("response.json"), {
            "fs": cfg["fs"], "seed": cfg["seed"], "n_floors": cfg["floors"],
            "mass": cfg["mass"], "stiffness": cfg["stiffness"],
            "forcing_density": cfg["forcing_density"],
            "measurement_sd": cfg["measurement_sd"],
            "n_samples": cfg["samples"],
        })
        write_json(out.file("run_manifest.json"),
                   _manifest("simulate", cfg, started))
    return Path(cfg["out"])


def cmd_identify(cfg: dict) -> Path:
    """Hankel statistics -> engine -> modal posterior, with a classical point
    estimate as the alignment reference."""
    started = time.time()
    n_draws = _require_draws(cfg, 4000)
    ts = _load_input(cfg)
    j = cfg["block_rows"]
    order = cfg["order"]
    center = not cfg.get("no_center", False)
    engine = cfg["engine"]
    overrides = (load_prior_overrides(cfg["priors"]) if cfg.get("priors") else None)

    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"), _config_echo("identify", cfg))
        stats = HankelStats.from_record(ts, j, center=center)
        reference = ssi_cov(stats, order, ts.channels, 1.0 / ts.fs)
        write_json(out.file("modal_estimate.json"),
                   _modal_estimate_payload(reference, order, j))

        if engine == "ssi":
            write_json(out.file("run_manifest.json"),
                       _manifest("identify", cfg, started))
            return Path(cfg["out"])

        half = ts.channels * j
        priors = build_priors(half, half, order, overrides)
        _write_welch_overlay(out, ts)

        diagnostics = None
        if engine == "vb":
            vb_config = _vb_config(cfg)
            post = run_vb(stats, priors, vb_config)
            diagnostics = post.diagnostics()
            _warn_not_converged(diagnostics, vb_config.max_iter)
            save_vb_posterior(out.subdir("vb_posterior"), post,
                              extra_meta={"seed": cfg["seed"],
                                          "priors": describe_priors(priors)})
            write_matrix_csv(out.file("elbo_trace.csv"),
                             np.asarray(post.elbo_trace)[:, None],
                             header=["elbo"])
            draws = draw_observability_samples(post, n_draws, Rng(cfg["seed"], DRAW_STREAM))
        elif engine == "gibbs":
            gibbs_config = GibbsConfig(n_samples=cfg.get("samples", 5000),
                                       burn_in_fraction=cfg.get("burn_in", 0.2),
                                       thinning=cfg.get("thin", 1),
                                       seed=cfg["seed"],
                                       warm_start=cfg.get("warm_start", False))
            chain = run_gibbs(stats, priors, gibbs_config)
            diagnostics = chain.diagnostics()
            save_chain(out.subdir("chain"), chain,
                       extra_meta={"priors": describe_priors(priors)})
            draws = chain_observability_samples(chain)
        else:
            raise ValueError(f"unknown engine {engine!r}")

        modal, n_excluded = propagate_many(draws, ts.channels, 1.0 / ts.fs,
                                           engine, order)
        posterior = align_modes(modal, reference, n_excluded=n_excluded)
        summary = summarize(posterior)
        if engine == "vb":
            summary["status"] = diagnostics["status"]
        write_json(out.file("modes_summary.json"), summary)
        _write_mode_draws(out, posterior)
        write_json(out.file("run_manifest.json"),
                   _manifest("identify", cfg, started, diagnostics=diagnostics))
    return Path(cfg["out"])


def cmd_stabilise(cfg: dict) -> tuple[Path, dict]:
    """Variational sweep over model orders; per-order failures are recorded
    in the manifest and the exit code, not raised."""
    started = time.time()
    n_draws = _require_draws(cfg, 500)
    ts = _load_input(cfg)
    orders = cfg["orders"]
    overrides = (load_prior_overrides(cfg["priors"]) if cfg.get("priors") else None)
    vb_config = _vb_config(cfg)
    # invalid priors fail the command here, not as a failure at every order
    half = ts.channels * cfg["block_rows"]
    priors = {order: build_priors(half, half, order, overrides) for order in orders}

    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"), _config_echo("stabilise", cfg))
        _write_welch_overlay(out, ts)
        result = stabilisation(ts, cfg["block_rows"], orders, vb_config,
                               n_draws=n_draws,
                               center=not cfg.get("no_center", False),
                               priors_factory=lambda _d1, _d2, order: priors[order])
        triples = np.column_stack([
            result.orders.astype(float), result.frequencies, result.damping_ratios,
        ]) if result.orders.size else np.empty((0, 3))
        write_matrix_csv(out.file("stabilisation.csv"), triples,
                         header=["order", "frequency_hz", "damping_ratio"])
        for order, diag in result.diagnostics.items():
            _warn_not_converged(diag, vb_config.max_iter, f" at order {order}")
        manifest = _manifest("stabilise", cfg, started, failures=result.failures,
                             diagnostics={str(k): v for k, v in result.diagnostics.items()})
        write_json(out.file("run_manifest.json"), {**manifest, "workers": result.workers})
    return Path(cfg["out"]), result.failures


def cmd_spectrum(cfg: dict) -> Path:
    """Per-channel Welch spectra plus the channel sum on one grid."""
    started = time.time()
    ts = _load_input(cfg)
    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"), _config_echo("spectrum", cfg))
        spec = welch_psd(ts, segment_length=cfg.get("segment", 1024),
                         overlap=cfg.get("overlap", 0.5))
        header = (["frequency_hz"] + [f"ch{i + 1}" for i in range(ts.channels)]
                  + ["sum"])
        write_matrix_csv(out.file("psd.csv"),
                         np.column_stack([spec.frequencies, spec.psd.T, spec.psd_sum]),
                         header=header)
        write_json(out.file("run_manifest.json"),
                   _manifest("spectrum", cfg, started))
    return Path(cfg["out"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayes-ssi",
        description="Bayesian covariance-driven stochastic subspace identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate the shear-frame benchmark")
    sim.add_argument("--floors", type=int, default=4)
    sim.add_argument("--mass", type=float, default=2.0)
    sim.add_argument("--stiffness", type=float, default=2500.0)
    sim.add_argument("--forcing-density", type=float, default=5e-5)
    sim.add_argument("--measurement-sd", type=float, default=0.05)
    sim.add_argument("--fs", type=float, default=50.0)
    sim.add_argument("--samples", type=int, default=2**16)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    def common_input(p):
        p.add_argument("--input", required=True)
        p.add_argument("--fs", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)

    def common_model(p):
        p.add_argument("--block-rows", type=int, required=True)
        p.add_argument("--order", type=int, action="append", required=True)
        p.add_argument("--priors", default=None)
        p.add_argument("--no-center", action="store_true")
        p.add_argument("--strict-paper-vb", action="store_true")
        p.add_argument("--warm-start", action="store_true")
        p.add_argument("--max-iter", type=int, default=500)
        p.add_argument("--tol", type=float, default=1e-7)

    ident = sub.add_parser("identify", help="single-order identification")
    common_input(ident)
    common_model(ident)
    ident.add_argument("--engine", choices=["ssi", "gibbs", "vb"], default="vb")
    ident.add_argument("--samples", type=int, default=5000,
                       help="Gibbs sweeps before burn-in removal")
    ident.add_argument("--burn-in", type=float, default=0.2)
    ident.add_argument("--thin", type=int, default=1)
    ident.add_argument("--draws", type=int, default=4000,
                       help="Monte Carlo draws propagated from the VB posterior")

    stab = sub.add_parser("stabilise", help="multi-order variational sweep")
    common_input(stab)
    common_model(stab)
    stab.add_argument("--draws", type=int, default=500)

    spec = sub.add_parser("spectrum", help="Welch spectra of a record")
    common_input(spec)
    spec.add_argument("--segment", type=int, default=1024)
    spec.add_argument("--overlap", type=float, default=0.5)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    pin_blas_threads()
    cfg = {k: v for k, v in vars(args).items() if k != "command"}
    if args.command == "identify":
        orders = cfg.pop("order")
        if len(orders) != 1:
            parser.error("identify takes exactly one --order")
        cfg["order"] = orders[0]
    elif args.command == "stabilise":
        cfg["orders"] = cfg.pop("order")
    try:
        if args.command == "stabilise":
            _, failures = cmd_stabilise(cfg)
            return 1 if failures else 0
        {"simulate": cmd_simulate, "identify": cmd_identify,
         "spectrum": cmd_spectrum}[args.command](cfg)
    except Exception as exc:  # surface engine failures with nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
