"""Command-line pipeline: simulate the benchmark frame, identify modal
posteriors from any CSV record, sweep model orders for stabilisation data,
and emit Welch spectra.

Every command validates its configuration up front, owns its output
directory through a lockfile, and echoes the fully resolved configuration
next to the numeric artifacts.  It writes them into a staging directory and
moves them into place only once it succeeds, so a run that fails leaves an
earlier run's artifacts as they were.
Reruns with the same configuration and seed reproduce every numeric output
byte for byte; wall-clock metadata lives only in the run manifest.  The
bundled OpenBLAS libraries of numpy and scipy run on one thread unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, so the bytes do not
depend on the machine's core count; the propagation of posterior draws
runs on every CPU the process may use, with the same bytes at any count.
Importing this module first sets that one thread before the libraries
load, so they start no thread pool; a program that imported numpy before
gets the same count from :func:`main`, through :func:`pin_blas_threads`.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import shutil
import sys
import time
from contextlib import suppress
from datetime import datetime, timezone
from pathlib import Path

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# numpy's and scipy's OpenBLAS each start a worker per extra CPU as they
# load, and the workers spin before they sleep; a count of one set before
# the load starts none.  Only when the user set no count and nothing loaded
# numpy yet; the variable is removed once this module's imports are done
_ONE_THREAD_AT_LOAD = (not any(os.environ.get(name) for name in _THREAD_ENV)
                       and "numpy" not in sys.modules)
if _ONE_THREAD_AT_LOAD:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import scipy

from . import __version__
from .gibbs import GibbsConfig, run_gibbs
from .io import (
    create_json,
    ingest_csv,
    save_chain,
    save_vb_posterior,
    write_array,
    write_json,
    write_matrix_csv,
    write_timeseries_csv,
)
from .modal_posterior import (
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    propagate_many,
    stabilisation,
    summarize,
    usable_cpus,
)
from .model import PriorHyper, default_priors
from .rng import DRAW_STREAM, SIMULATE_STREAM, Rng
from .simulate import build_shear_frame, discretize, simulate_response, to_continuous_ss
from .spectral import welch_psd
from .subspace import (
    HankelStats,
    build_hankel,  # noqa: F401  -- perfbench/tracing.py wraps this attribute
    ssi_cov,
)
from .vb import VBConfig, run_vb

if _ONE_THREAD_AT_LOAD:
    del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "main",
    "cmd_simulate",
    "cmd_identify",
    "cmd_stabilise",
    "cmd_spectrum",
    "build_priors",
    "load_prior_overrides",
    "prior_overrides",
    "pin_blas_threads",
    "blas_threads",
]

# package -> (library directory beside it, OpenBLAS file pattern, symbol suffix)
_OPENBLAS = {"numpy": ("numpy.libs", "libscipy_openblas64_*.so*", "64_"),
             "scipy": ("scipy.libs", "libscipy_openblas-*.so*", "")}
# ``os.kill(pid, 0)`` probes a pid only on POSIX; on Windows it ends the process
_POSIX = os.name == "posix"


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
    every artifact staged until the command succeeds.

    The lockfile ``.lock`` holds the owner's pid, host and UTC start time.
    A run that finds it names that owner, and calls the lock stale when the
    owner ran on this host and its process no longer exists; removing a
    lock is left to the user.

    :meth:`file` paths lie in the staging directory ``.bayes-ssi-staging``.
    On a normal return each staged entry is renamed over its namesake, in
    sorted order, a directory after the old tree is removed; on any
    exception the staging directory is removed, and then, deepest first,
    each directory this run created that is still empty.  A killed run's
    staging directory is removed once the lock is held."""

    def __init__(self, path):
        self.path = Path(path)
        self._lock = self.path / ".lock"
        self._staging = self.path / ".bayes-ssi-staging"

    def __enter__(self) -> "OutputDir":
        # the directories this run makes, deepest first
        self._made = [folder for folder in (self.path, *self.path.parents)
                      if not folder.exists()]
        self.path.mkdir(parents=True, exist_ok=True)
        stamp = {"pid": os.getpid(), "host": platform.node(),
                 "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds")}
        try:
            create_json(self._lock, stamp)
        except FileExistsError:
            raise RuntimeError(self._locked_message()) from None
        shutil.rmtree(self._staging, ignore_errors=True)
        return self

    def _locked_message(self) -> str:
        """The error for a lockfile found in place: its owner if the file
        names one, and whether that owner is known to have ended."""
        try:
            with open(self._lock) as fh:
                owner = json.load(fh)
            pid, host, started = owner["pid"], owner["host"], owner["started_utc"]
        except (OSError, ValueError, KeyError, TypeError):
            pid = None
        if not (isinstance(pid, int) and pid > 0):
            return (f"output directory {self.path} is locked by another run "
                    f"(remove {self._lock} if stale)")
        locked = f"output directory {self.path} is locked by pid {pid} on {host} since {started}"
        if _POSIX and host == platform.node() and not _process_exists(pid):
            return (f"{locked}; that process no longer exists, so the lock is stale "
                    f"(remove {self._lock})")
        return f"{locked} (remove {self._lock} if stale)"

    def file(self, name: str) -> Path:
        """The staged path of artifact ``name``, a file or a directory."""
        target = self._staging / name
        target.parent.mkdir(parents=True, exist_ok=True)
        return target

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None and self._staging.is_dir():
                for entry in sorted(self._staging.iterdir()):
                    target = self.path / entry.name
                    if target.is_dir() and not target.is_symlink():
                        shutil.rmtree(target)
                    os.replace(entry, target)
        finally:
            shutil.rmtree(self._staging, ignore_errors=True)
            self._lock.unlink(missing_ok=True)
            if exc_type is not None:
                for folder in self._made:   # rmdir refuses one another run has filled
                    with suppress(OSError):
                        os.rmdir(folder)
        return False


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)   # signal 0 only checks that the process exists
    except ProcessLookupError:
        return False
    except PermissionError:   # it exists, owned by another user
        return True
    return True


def _manifest(command: str, cfg: dict, started: float,
              failures: dict | None = None, diagnostics: dict | None = None) -> dict:
    return {
        "command": command,
        "seed": cfg["seed"],
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
    return VBConfig(max_iter=cfg["max_iter"],
                    elbo_rel_tol=cfg["tol"],
                    seed=cfg["seed"],
                    latent_cross_cov=not cfg["strict_paper_vb"],
                    warm_start=cfg["warm_start"])


def _require_draws(cfg: dict) -> int:
    """The ``--draws`` count, rejected before any engine runs if below one."""
    n_draws = cfg["draws"]
    if n_draws < 1:
        raise ValueError(f"--draws must be at least 1, got {n_draws}")
    return n_draws


def _require_block_rows(cfg: dict) -> None:
    """Reject a ``--block-rows`` count below the two that the
    shift-invariance solve needs, before any engine runs."""
    if cfg["block_rows"] < 2:
        raise ValueError("--block-rows must be at least 2 complete block rows "
                         f"for the shift-invariance solve, got {cfg['block_rows']}")


# the fields a ``--priors`` file may set besides the per-view noise prior
_ARRAY_FIELDS = ("mean_loc", "mean_cov", "weight_loc", "weight_cov")


def load_prior_overrides(path) -> dict:
    """Prior configuration file: JSON whose keys mirror the prior
    hyperparameter fields; scalars expand to scaled identities or constant
    vectors.  :func:`prior_overrides` writes this form."""
    with open(path) as fh:
        raw = json.load(fh)
    unknown = set(raw) - {*_ARRAY_FIELDS, "noise_scale", "noise_dof"}
    if unknown:
        raise ValueError(f"unknown prior keys: {sorted(unknown)}")
    return raw


def _expand(value, shape: tuple[int, ...]) -> np.ndarray:
    """A prior vector or square matrix of ``shape`` from its file entry: a
    scalar is a constant vector or a scaled identity."""
    if np.isscalar(value):
        return float(value) * (np.ones(shape) if len(shape) == 1 else np.eye(*shape))
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        dim = shape[0]
        need = (f"vector must have length {dim}" if len(shape) == 1
                else f"matrix must be {dim}x{dim}")
        raise ValueError(f"prior {need}, got {arr.shape}")
    return arr


def _compact(arr: np.ndarray):
    """The file entry :func:`_expand` reads back as ``arr`` exactly: a
    scalar for a constant vector or a scaled identity, else the nested
    list."""
    scalar = float(arr.flat[0])
    return scalar if np.array_equal(arr, _expand(scalar, arr.shape)) else arr.tolist()


def prior_overrides(priors: PriorHyper) -> dict:
    """``priors`` as a ``--priors`` file, JSON-ready, with the noise prior
    as per-view lists: :func:`build_priors` at the same view dims and order
    reads it back exactly."""
    return {**{key: _compact(getattr(priors, key)) for key in _ARRAY_FIELDS},
            "noise_scale": [_compact(scale) for scale in priors.noise_scale],
            "noise_dof": [float(dof) for dof in priors.noise_dof]}


def build_priors(view_dim_future: int, view_dim_past: int, order: int,
                 overrides: dict | None = None) -> PriorHyper:
    """Default priors with optional overrides from a prior config file."""
    base = default_priors(view_dim_future, view_dim_past, order)
    if not overrides:
        return base
    fields = {key: _expand(overrides[key], getattr(base, key).shape)
              for key in _ARRAY_FIELDS if key in overrides}
    if "noise_scale" in overrides:
        value = overrides["noise_scale"]
        try:
            rank = np.ndim(value)
        except ValueError:      # ragged: a list of per-view entries
            rank = None
        shared = rank == 0 or (rank == 2 and all(np.shape(value) == (d, d)
                                                 for d in base.view_dims))
        per_view = _per_view("noise_scale", value, shared)
        fields["noise_scale"] = tuple(_expand(v, (d, d))
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
    """Resolve the input record: CSV plus fs from the flag or a sidecar.

    A sidecar that is not valid JSON, not a JSON object, or whose ``fs`` is
    not a number raises ``ValueError`` naming the sidecar."""
    path = Path(cfg["input"])
    fs = cfg["fs"]
    if fs is None:
        sidecar = path.with_suffix(".json")
        if sidecar.exists():
            with open(sidecar) as fh:
                try:
                    meta = json.load(fh)
                except ValueError as exc:
                    raise ValueError(
                        f"sidecar {sidecar} is not valid JSON: {exc}") from None
            if not isinstance(meta, dict):
                raise ValueError(f"sidecar {sidecar} must hold a JSON object, "
                                 f"got {type(meta).__name__}")
            fs = meta.get("fs")
            # JSON true and false load as bool, which is an int
            if isinstance(fs, bool) or not isinstance(fs, (int, float, type(None))):
                raise ValueError(f"sidecar {sidecar}: fs must be a number, got {fs!r}")
        if fs is None:
            raise ValueError(
                f"--fs is required: no sampling rate flag and no sidecar {sidecar}"
            )
    return ingest_csv(path, float(fs))


def _write_welch_overlay(out: OutputDir, ts) -> None:
    """``welch_sum.csv``: frequency and the channel-sum spectrum."""
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
    """Each reference mode's aligned draws as ``mode_XX_draws.npy`` (n x 2
    float64: frequency in Hz, damping ratio) and ``mode_XX_shapes.npy``
    (n x l complex128: unit-norm, phase- and sign-aligned shapes)."""
    for k, cluster in enumerate(posterior.clusters, start=1):
        write_array(out.file(f"mode_{k:02d}_draws.npy"),
                    np.column_stack([cluster.frequencies, cluster.damping_ratios]))
        write_array(out.file(f"mode_{k:02d}_shapes.npy"), cluster.mode_shapes)


def cmd_simulate(cfg: dict) -> Path:
    """Generate the benchmark response record and its sidecar."""
    started = time.time()
    if not (np.isfinite(cfg["fs"]) and cfg["fs"] > 0):
        raise ValueError(f"fs must be finite and positive, got {cfg['fs']}")
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
    n_draws = _require_draws(cfg)
    engine = cfg["engine"]
    # an invalid engine configuration fails before any output is written
    if engine == "vb":
        engine_config = _vb_config(cfg)
    elif engine == "gibbs":
        engine_config = GibbsConfig(n_samples=cfg["samples"],
                                    burn_in_fraction=cfg["burn_in"],
                                    thinning=cfg["thin"],
                                    seed=cfg["seed"],
                                    warm_start=cfg["warm_start"])
    elif engine != "ssi":
        raise ValueError(f"unknown engine {engine!r}")
    _require_block_rows(cfg)
    ts = _load_input(cfg)
    j = cfg["block_rows"]
    order = cfg["order"]
    overrides = load_prior_overrides(cfg["priors"]) if cfg["priors"] else None
    stats = HankelStats.from_record(ts, j, center=not cfg["no_center"])
    # invalid priors fail every engine, ssi included, before any output
    priors = build_priors(*stats.view_dims, order, overrides)

    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"), _config_echo("identify", cfg))
        reference = ssi_cov(stats, order, ts.channels, 1.0 / ts.fs)
        write_json(out.file("modal_estimate.json"),
                   _modal_estimate_payload(reference, order, j))
        if engine == "ssi":
            write_json(out.file("run_manifest.json"),
                       _manifest("identify", cfg, started))
            return Path(cfg["out"])

        _write_welch_overlay(out, ts)
        if engine == "vb":
            post = run_vb(stats, priors, engine_config)
            diagnostics = post.diagnostics()
            save_vb_posterior(out.file("vb_posterior"), post,
                              extra_meta={"seed": cfg["seed"],
                                          "priors": prior_overrides(priors)})
            write_matrix_csv(out.file("elbo_trace.csv"),
                             np.asarray(post.elbo_trace)[:, None],
                             header=["elbo"])
            draws = draw_observability_samples(post, n_draws, Rng(cfg["seed"], DRAW_STREAM))
        else:
            chain = run_gibbs(stats, priors, engine_config)
            diagnostics = chain.diagnostics()
            save_chain(out.file("chain"), chain,
                       extra_meta={"priors": prior_overrides(priors)})
            draws = chain_observability_samples(chain)
        threads = usable_cpus()
        modal, _ = propagate_many(draws, ts.channels, 1.0 / ts.fs, threads)
        # the stack (15 MB at 4000 draws) is not needed past here, so its
        # memory is free for the alignment
        del draws
        posterior = align_modes(modal, reference)
        summary = {**summarize(posterior), "source": engine}
        if engine == "vb":
            summary["status"] = diagnostics["status"]
        write_json(out.file("modes_summary.json"), summary)
        _write_mode_draws(out, posterior)
        write_json(out.file("run_manifest.json"),
                   {**_manifest("identify", cfg, started, diagnostics=diagnostics),
                    "propagation_threads": threads})
    return Path(cfg["out"])


def cmd_stabilise(cfg: dict) -> tuple[Path, dict]:
    """Variational sweep over model orders; per-order failures are recorded
    in the manifest and the exit code, not raised."""
    started = time.time()
    n_draws = _require_draws(cfg)
    _require_block_rows(cfg)
    ts = _load_input(cfg)
    overrides = load_prior_overrides(cfg["priors"]) if cfg["priors"] else None
    vb_config = _vb_config(cfg)
    stats = HankelStats.from_record(ts, cfg["block_rows"], center=not cfg["no_center"])
    # invalid priors fail the command here, not as a failure at every order
    priors = [build_priors(*stats.view_dims, order, overrides) for order in cfg["orders"]]

    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"), _config_echo("stabilise", cfg))
        _write_welch_overlay(out, ts)
        result = stabilisation(stats, priors, vb_config, n_draws, ts.channels, ts.fs)
        triples = np.column_stack([
            result.orders.astype(float), result.frequencies, result.damping_ratios,
        ])
        write_matrix_csv(out.file("stabilisation.csv"), triples,
                         header=["order", "frequency_hz", "damping_ratio"])
        manifest = _manifest("stabilise", cfg, started, failures=result.failures,
                             diagnostics={str(k): v for k, v in result.diagnostics.items()})
        write_json(out.file("run_manifest.json"),
                   {**manifest, "workers": result.workers,
                    "propagation_threads": result.propagation_threads})
    return Path(cfg["out"]), result.failures


def cmd_spectrum(cfg: dict) -> Path:
    """Per-channel Welch spectra plus the channel sum on one grid."""
    started = time.time()
    ts = _load_input(cfg)
    with OutputDir(cfg["out"]) as out:
        write_json(out.file("config.json"), _config_echo("spectrum", cfg))
        spec = welch_psd(ts, segment_length=cfg["segment"], overlap=cfg["overlap"])
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
        p.add_argument("--max-iter", type=int, default=VBConfig.max_iter)
        p.add_argument("--tol", type=float, default=VBConfig.elbo_rel_tol)

    ident = sub.add_parser("identify", help="single-order identification")
    common_input(ident)
    common_model(ident)
    ident.add_argument("--engine", choices=["ssi", "gibbs", "vb"], default="vb")
    ident.add_argument("--samples", type=int, default=5000,
                       help="Gibbs sweeps before burn-in removal")
    ident.add_argument("--burn-in", type=float, default=GibbsConfig.burn_in_fraction)
    ident.add_argument("--thin", type=int, default=GibbsConfig.thinning)
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
