"""CSV/JSON/.npy artifact ingestion and persistence.

All numeric CSV output is written with 17 significant digits so 64-bit
floats round-trip exactly.  Engine containers (the Gibbs chain and the
variational factors) hold one ``.npy`` file per array, shape kept, next to
a JSON manifest.  Reruns with the same seed therefore reproduce
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .gibbs import GibbsChain, GibbsConfig
from .simulate import TimeSeries
from .vb import VBPosterior

__all__ = [
    "ingest_csv",
    "write_timeseries_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_json",
    "save_chain",
    "load_chain",
    "save_vb_posterior",
]

FLOAT_FMT = "%.17g"


def _describe_matrix(mat: np.ndarray) -> dict | list:
    """Compact exact JSON form: scaled identities stay scalar."""
    mat = np.asarray(mat)
    dim = mat.shape[0]
    diag = mat[0, 0]
    if np.array_equal(mat, diag * np.eye(dim)):
        return {"scaled_identity": float(diag), "dim": dim}
    return mat.tolist()


def describe_priors(priors) -> dict:
    """JSON-ready echo of the prior hyperparameters for run manifests."""
    return {
        "mean_loc": ({"constant": float(priors.mean_loc[0]), "dim": priors.mean_loc.size}
                     if np.all(priors.mean_loc == priors.mean_loc[0])
                     else priors.mean_loc.tolist()),
        "mean_cov": _describe_matrix(priors.mean_cov),
        "weight_loc": ({"constant": float(priors.weight_loc[0]),
                        "dim": priors.weight_loc.size}
                       if np.all(priors.weight_loc == priors.weight_loc[0])
                       else priors.weight_loc.tolist()),
        "weight_cov": _describe_matrix(priors.weight_cov),
        "noise_scale": [_describe_matrix(s) for s in priors.noise_scale],
        "noise_dof": list(priors.noise_dof),
        "latent_dim": priors.latent_dim,
        "view_dims": list(priors.view_dims),
    }


def ingest_csv(path, fs: float) -> TimeSeries:
    """Read a rectangular numeric CSV (optional single header row) into a
    TimeSeries with one channel per column.

    Ragged rows, non-numeric cells, non-finite values and empty files all
    raise with the offending 1-based data row named.
    """
    if fs <= 0:
        raise ValueError("fs must be positive")
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if row)
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        try:
            list(map(float, first))
            header_lines = 0
        except ValueError:
            header_lines = reader.line_num
            if next(rows, None) is None:
                raise ValueError(f"{path}: no data rows below the header") from None
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=header_lines, ndmin=2,
                          comments=None)
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        # quoted cells, which numpy's parser rejects, or a bad row: parse
        # cell by cell to read the former and name the latter
        with open(path, newline="") as fh:
            body = [row for row in csv.reader(fh) if row][int(header_lines > 0):]
        width = len(body[0])
        data = np.empty((len(body), width))
        for r, row in enumerate(body, start=1):
            if len(row) != width:
                raise ValueError(
                    f"{path}: ragged row {r}: expected {width} cells, got {len(row)}"
                )
            try:
                data[r - 1] = list(map(float, row))
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell at row {r}") from None
            if not np.all(np.isfinite(data[r - 1])):
                raise ValueError(f"{path}: non-finite value at row {r}")
    return TimeSeries(data=data.T.copy(), fs=float(fs))


def write_timeseries_csv(path, ts: TimeSeries, channel_names=None) -> None:
    """One row per sample, header row of channel names."""
    names = channel_names or [f"ch{i + 1}" for i in range(ts.channels)]
    if len(names) != ts.channels:
        raise ValueError("channel_names length mismatch")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, ts.data.T, fmt=FLOAT_FMT, delimiter=",")


def write_matrix_csv(path, mat: np.ndarray, header: list[str] | None = None) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        np.savetxt(fh, mat, fmt=FLOAT_FMT, delimiter=",")


def read_matrix_csv(path, skip_header: bool = False) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1 if skip_header else 0,
                      ndmin=2)


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _save_arrays(directory: Path, arrays: dict[str, np.ndarray]) -> dict:
    """One ``<name>.npy`` file per array, shape kept; returns the shapes
    for the manifest."""
    for name, arr in arrays.items():
        np.save(directory / f"{name}.npy", np.asarray(arr, dtype=float),
                allow_pickle=False)
    return {name: list(np.shape(arr)) for name, arr in arrays.items()}


def _load_array(directory: Path, name: str) -> np.ndarray:
    return np.load(directory / f"{name}.npy", allow_pickle=False)


def save_chain(directory, chain: GibbsChain, extra_meta: dict | None = None) -> Path:
    """Persist a chain: JSON manifest plus one ``.npy`` file per parameter
    with the record index leading (``w_samples`` n x D x d,
    ``mu_samples`` n x D, ``sigma_view{m}_samples`` n x D_m x D_m)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    total_dim, d = chain.weight_samples.shape[1:]
    arrays = {"w_samples": chain.weight_samples, "mu_samples": chain.mean_samples}
    for m, block in enumerate(chain.noise_samples, start=1):
        arrays[f"sigma_view{m}_samples"] = block
    manifest = {
        "kind": "gibbs_chain",
        "n_records": chain.n_records,
        "dim": total_dim,
        "latent_dim": d,
        "view_dims": list(chain.view_dims),
        "arrays": _save_arrays(directory, arrays),
        "config": {
            "n_samples": chain.config.n_samples,
            "burn_in_fraction": chain.config.burn_in_fraction,
            "thinning": chain.config.thinning,
            "seed": chain.config.seed,
            "warm_start": chain.config.warm_start,
        },
    }
    if extra_meta:
        manifest.update(extra_meta)
    write_json(directory / "chain_manifest.json", manifest)
    return directory


def load_chain(directory) -> GibbsChain:
    directory = Path(directory)
    with open(directory / "chain_manifest.json") as fh:
        manifest = json.load(fh)
    view_dims = tuple(manifest["view_dims"])
    noise = [_load_array(directory, f"sigma_view{m}_samples")
             for m in range(1, len(view_dims) + 1)]
    cfg = manifest["config"]
    config = GibbsConfig(n_samples=cfg["n_samples"],
                         burn_in_fraction=cfg["burn_in_fraction"],
                         thinning=cfg["thinning"], seed=cfg["seed"],
                         warm_start=cfg.get("warm_start", False))
    return GibbsChain(weight_samples=_load_array(directory, "w_samples"),
                      mean_samples=_load_array(directory, "mu_samples"),
                      noise_samples=noise, view_dims=view_dims, config=config)


def save_vb_posterior(directory, post: VBPosterior, extra_meta: dict | None = None) -> Path:
    """Persist the variational posterior: JSON manifest plus one ``.npy``
    file per factor array (same container layout as the chain), the bound
    trace included.

    The latent factor is stored as its d x D map and centre: the latent
    mean of data column x_n is latent_map @ (x_n - latent_centre).  The
    weight factors are stored as their shared basis B (D x D) and
    eigenvalues e (d x D): column i's covariance is B diag(e_i) B^T.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    total_dim, d = post.weight_mean.shape
    arrays = {
        "weight_mean": post.weight_mean,
        "weight_basis": post.weight_basis,
        "weight_eigs": post.weight_eigs,
        "latent_cov": post.latent_cov,
        "latent_map": post.latent_map,
        "latent_centre": post.latent_centre,
        "mean_loc": post.mean_loc,
        "mean_cov": post.mean_cov,
    }
    for m, scale in enumerate(post.noise_scale, start=1):
        arrays[f"noise_scale_view{m}"] = scale
    arrays["elbo_trace"] = np.asarray(post.elbo_trace)
    manifest = {
        "kind": "vb_posterior",
        "dim": total_dim,
        "latent_dim": d,
        "view_dims": list(post.view_dims),
        "arrays": _save_arrays(directory, arrays),
        "noise_dof": list(post.noise_dof),
        "converged": post.converged,
        "n_iter": post.n_iter,
    }
    if extra_meta:
        manifest.update(extra_meta)
    write_json(directory / "vb_manifest.json", manifest)
    return directory
