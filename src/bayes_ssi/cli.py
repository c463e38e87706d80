"""Command-line pipeline: simulate the benchmark frame, identify modal
posteriors from any CSV record, sweep model orders for stabilisation data,
and emit Welch spectra.

Every command validates its configuration up front, owns its output
directory through a lockfile, echoes the fully resolved configuration next
to the numeric artifacts, and cleans partial artifacts up on failure.
Reruns with the same configuration and seed reproduce every numeric output
byte for byte; wall-clock metadata lives only in the run manifest.
"""

from __future__ import annotations

import argparse
import json
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
from .model import PriorHyper, StackedData, default_priors
from .rng import Rng
from .simulate import build_shear_frame, discretize, simulate_response, to_continuous_ss
from .spectral import welch_psd
from .subspace import HankelStats, build_hankel, ssi_cov
from .vb import VBConfig, run_vb

__all__ = [
    "main",
    "cmd_simulate",
    "cmd_identify",
    "cmd_stabilise",
    "cmd_spectrum",
    "build_priors",
    "load_prior_overrides",
]

SIMULATE_STREAM = 0


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
                    for child in sorted(target.rglob("*"), reverse=True):
                        if child.is_file():
                            child.unlink(missing_ok=True)
                        else:
                            child.rmdir()
                    if target.exists():
                        target.rmdir()
                elif target.exists():
                    target.unlink()
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
    }


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
    dims = (view_dim_future, view_dim_past)
    total = sum(dims)
    mean_loc = base.mean_loc
    mean_cov = base.mean_cov
    weight_loc = base.weight_loc
    weight_cov = base.weight_cov
    noise_scale = list(base.noise_scale)
    noise_dof = list(base.noise_dof)
    if "mean_loc" in overrides:
        mean_loc = _expand_vector(overrides["mean_loc"], total)
    if "mean_cov" in overrides:
        mean_cov = _expand_matrix(overrides["mean_cov"], total)
    if "weight_loc" in overrides:
        weight_loc = _expand_vector(overrides["weight_loc"], total)
    if "weight_cov" in overrides:
        weight_cov = _expand_matrix(overrides["weight_cov"], total)
    if "noise_scale" in overrides:
        value = overrides["noise_scale"]
        per_view = value if isinstance(value, list) and len(value) == 2 else [value, value]
        noise_scale = [_expand_matrix(v, d) for v, d in zip(per_view, dims)]
    if "noise_dof" in overrides:
        value = overrides["noise_dof"]
        per_view = value if isinstance(value, list) else [value, value]
        noise_dof = [float(v) for v in per_view]
    return PriorHyper(mean_loc=mean_loc, mean_cov=mean_cov, weight_loc=weight_loc,
                      weight_cov=weight_cov, noise_scale=tuple(noise_scale),
                      noise_dof=tuple(noise_dof), latent_dim=order, view_dims=dims)


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


def _write_welch_overlay(out: OutputDir, ts, segment: int | None = None,
                         overlap: float = 0.5):
    segment = segment or min(1024, ts.n_samples)
    spec = welch_psd(ts, segment_length=segment, overlap=overlap)
    write_matrix_csv(out.file("welch_sum.csv"),
                     np.column_stack([spec.frequencies, spec.psd_sum]),
                     header=["frequency_hz", "psd_sum"])
    return spec


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
        write_json(out.file("config.json"), {"command": "simulate", **cfg,
                                             "out": str(cfg["out"])})
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
    """Hankel -> engine -> modal posterior, with a classical point estimate
    as the alignment reference."""
    started = time.time()
    ts = _load_input(cfg)
    j = cfg["block_rows"]
    order = cfg["order"]
    center = not cfg.get("no_center", False)
    engine = cfg["engine"]
    overrides = (load_prior_overrides(cfg["priors"]) if cfg.get("priors") else None)

    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"),
                   {"command": "identify", **{k: (str(v) if isinstance(v, Path) else v)
                                              for k, v in cfg.items()}})
        _, reference = ssi_cov(ts, j, order, center=center)
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
            vb_config = VBConfig(max_iter=cfg.get("max_iter", 500),
                                 elbo_rel_tol=cfg.get("tol", 1e-7),
                                 seed=cfg["seed"],
                                 latent_cross_cov=not cfg.get("strict_paper_vb", False),
                                 warm_start=cfg.get("warm_start", False))
            post = run_vb(HankelStats.from_record(ts, j, center=center), priors,
                          vb_config)
            diagnostics = post.diagnostics()
            _warn_not_converged(diagnostics, vb_config.max_iter)
            save_vb_posterior(out.subdir("vb_posterior"), post,
                              extra_meta={"seed": cfg["seed"],
                                          "priors": describe_priors(priors)})
            write_matrix_csv(out.file("elbo_trace.csv"),
                             np.asarray(post.elbo_trace)[:, None],
                             header=["elbo"])
            draws = draw_observability_samples(post, cfg.get("draws", 4000),
                                               Rng(cfg["seed"], DRAW_STREAM))
        elif engine == "gibbs":
            gibbs_config = GibbsConfig(n_samples=cfg.get("samples", 5000),
                                       burn_in_fraction=cfg.get("burn_in", 0.2),
                                       thinning=cfg.get("thin", 1),
                                       seed=cfg["seed"],
                                       warm_start=cfg.get("warm_start", False))
            data = StackedData.from_hankel(build_hankel(ts, j, center=center))
            chain = run_gibbs(data, priors, gibbs_config)
            save_chain(out.subdir("chain"), chain,
                       extra_meta={"priors": describe_priors(priors)})
            draws = chain_observability_samples(chain)
        else:
            raise ValueError(f"unknown engine {engine!r}")

        modal_samples, n_excluded = propagate_many(draws, ts.channels, 1.0 / ts.fs,
                                                   engine, order)
        posterior = align_modes(modal_samples, reference, n_excluded=n_excluded)
        write_json(out.file("modes_summary.json"), summarize(posterior))
        _write_mode_draws(out, posterior)
        write_json(out.file("run_manifest.json"),
                   _manifest("identify", cfg, started, diagnostics=diagnostics))
    return Path(cfg["out"])


def cmd_stabilise(cfg: dict) -> tuple[Path, dict]:
    """Variational sweep over model orders; per-order failures are recorded
    in the manifest and the exit code, not raised."""
    started = time.time()
    ts = _load_input(cfg)
    orders = cfg["orders"]
    overrides = (load_prior_overrides(cfg["priors"]) if cfg.get("priors") else None)
    vb_config = VBConfig(max_iter=cfg.get("max_iter", 500),
                         elbo_rel_tol=cfg.get("tol", 1e-7),
                         seed=cfg["seed"],
                         latent_cross_cov=not cfg.get("strict_paper_vb", False),
                         warm_start=cfg.get("warm_start", False))

    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"),
                   {"command": "stabilise", **{k: (str(v) if isinstance(v, Path) else v)
                                               for k, v in cfg.items()}})
        welch = _write_welch_overlay(out, ts)

        def priors_factory(d1, d2, order):
            return build_priors(d1, d2, order, overrides)

        result = stabilisation(ts, cfg["block_rows"], orders, vb_config,
                               n_draws=cfg.get("draws", 500),
                               center=not cfg.get("no_center", False),
                               priors_factory=priors_factory, welch=welch)
        triples = np.column_stack([
            result.orders.astype(float), result.frequencies, result.damping_ratios,
        ]) if result.orders.size else np.empty((0, 3))
        write_matrix_csv(out.file("stabilisation.csv"), triples,
                         header=["order", "frequency_hz", "damping_ratio"])
        for order, diag in result.diagnostics.items():
            _warn_not_converged(diag, vb_config.max_iter, f" at order {order}")
        write_json(out.file("run_manifest.json"),
                   _manifest("stabilise", cfg, started, failures=result.failures,
                             diagnostics={str(k): v for k, v in
                                          result.diagnostics.items()}))
    return Path(cfg["out"]), result.failures


def cmd_spectrum(cfg: dict) -> Path:
    """Per-channel Welch spectra plus the channel sum on one grid."""
    started = time.time()
    ts = _load_input(cfg)
    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"),
                   {"command": "spectrum", **{k: (str(v) if isinstance(v, Path) else v)
                                              for k, v in cfg.items()}})
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

    ident = sub.add_parser("identify", help="single-order identification")
    common_input(ident)
    ident.add_argument("--block-rows", type=int, required=True)
    ident.add_argument("--order", type=int, action="append", required=True)
    ident.add_argument("--engine", choices=["ssi", "gibbs", "vb"], default="vb")
    ident.add_argument("--samples", type=int, default=5000,
                       help="Gibbs sweeps before burn-in removal")
    ident.add_argument("--burn-in", type=float, default=0.2)
    ident.add_argument("--thin", type=int, default=1)
    ident.add_argument("--draws", type=int, default=4000,
                       help="Monte Carlo draws propagated from the VB posterior")
    ident.add_argument("--priors", default=None)
    ident.add_argument("--no-center", action="store_true")
    ident.add_argument("--strict-paper-vb", action="store_true")
    ident.add_argument("--warm-start", action="store_true")
    ident.add_argument("--max-iter", type=int, default=500)
    ident.add_argument("--tol", type=float, default=1e-7)

    stab = sub.add_parser("stabilise", help="multi-order variational sweep")
    common_input(stab)
    stab.add_argument("--block-rows", type=int, required=True)
    stab.add_argument("--order", type=int, action="append", required=True)
    stab.add_argument("--draws", type=int, default=500)
    stab.add_argument("--priors", default=None)
    stab.add_argument("--no-center", action="store_true")
    stab.add_argument("--strict-paper-vb", action="store_true")
    stab.add_argument("--warm-start", action="store_true")
    stab.add_argument("--max-iter", type=int, default=500)
    stab.add_argument("--tol", type=float, default=1e-7)

    spec = sub.add_parser("spectrum", help="Welch spectra of a record")
    common_input(spec)
    spec.add_argument("--segment", type=int, default=1024)
    spec.add_argument("--overlap", type=float, default=0.5)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate({k: v for k, v in vars(args).items() if k != "command"})
            return 0
        if args.command == "identify":
            cfg = {k: v for k, v in vars(args).items() if k != "command"}
            orders = cfg.pop("order")
            if len(orders) != 1:
                parser.error("identify takes exactly one --order")
            cfg["order"] = orders[0]
            cmd_identify(cfg)
            return 0
        if args.command == "stabilise":
            cfg = {k: v for k, v in vars(args).items() if k != "command"}
            cfg["orders"] = cfg.pop("order")
            _, failures = cmd_stabilise(cfg)
            return 1 if failures else 0
        if args.command == "spectrum":
            cmd_spectrum({k: v for k, v in vars(args).items() if k != "command"})
            return 0
        parser.error(f"unknown command {args.command}")
    except Exception as exc:  # surface engine failures with nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
