"""CSV/JSON artifact ingestion and persistence.

All numeric CSV output is written with 17 significant digits so 64-bit
floats round-trip exactly; reruns with the same seed therefore reproduce
byte-identical files.  Matrix-per-row files vectorize column-major, as
stated in the accompanying manifests.
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
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")

    def parse(row):
        return [float(cell) for cell in row]

    header_offset = 0
    try:
        parse(rows[0])
    except ValueError:
        header_offset = 1
        if len(rows) == 1:
            raise ValueError(f"{path}: no data rows below the header") from None

    width = len(rows[header_offset])
    data = np.empty((len(rows) - header_offset, width))
    for r, row in enumerate(rows[header_offset:], start=1):
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {r}: expected {width} cells, got {len(row)}"
            )
        try:
            data[r - 1] = parse(row)
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


def _flatten_records(records: np.ndarray) -> np.ndarray:
    """Stack of matrices -> one column-major row per record."""
    n = records.shape[0]
    return records.reshape(n, -1, order="F").copy() if records.ndim == 3 else records


def save_chain(directory, chain: GibbsChain, extra_meta: dict | None = None) -> Path:
    """Persist a chain: JSON manifest plus one CSV per parameter, one row
    per retained sample, matrices vectorized column-major."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    total_dim, d = chain.weight_samples.shape[1:]
    manifest = {
        "kind": "gibbs_chain",
        "n_records": chain.n_records,
        "dim": total_dim,
        "latent_dim": d,
        "view_dims": list(chain.view_dims),
        "vectorization": "column-major",
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
    write_matrix_csv(directory / "w_samples.csv", _flatten_records(chain.weight_samples))
    write_matrix_csv(directory / "mu_samples.csv", chain.mean_samples)
    for m, block in enumerate(chain.noise_samples, start=1):
        write_matrix_csv(directory / f"sigma_view{m}_samples.csv",
                         _flatten_records(block))
    return directory


def load_chain(directory) -> GibbsChain:
    directory = Path(directory)
    with open(directory / "chain_manifest.json") as fh:
        manifest = json.load(fh)
    total_dim = manifest["dim"]
    d = manifest["latent_dim"]
    view_dims = tuple(manifest["view_dims"])
    n = manifest["n_records"]
    weights = read_matrix_csv(directory / "w_samples.csv").reshape(
        n, total_dim, d, order="F")
    means = read_matrix_csv(directory / "mu_samples.csv").reshape(n, total_dim)
    noise = []
    for m, dim in enumerate(view_dims, start=1):
        noise.append(read_matrix_csv(directory / f"sigma_view{m}_samples.csv")
                     .reshape(n, dim, dim, order="F"))
    cfg = manifest["config"]
    config = GibbsConfig(n_samples=cfg["n_samples"],
                         burn_in_fraction=cfg["burn_in_fraction"],
                         thinning=cfg["thinning"], seed=cfg["seed"],
                         warm_start=cfg.get("warm_start", False))
    return GibbsChain(weight_samples=weights, mean_samples=means,
                      noise_samples=noise, view_dims=view_dims, config=config)


def save_vb_posterior(directory, post: VBPosterior, extra_meta: dict | None = None) -> Path:
    """Persist the variational posterior: JSON manifest plus matrix CSVs
    (same container layout as the chain) and the bound trace.

    The latent factor is stored as its d x D map and centre: the latent
    mean of data column x_n is latent_map @ (x_n - latent_centre).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    total_dim, d = post.weight_mean.shape
    manifest = {
        "kind": "vb_posterior",
        "dim": total_dim,
        "latent_dim": d,
        "view_dims": list(post.view_dims),
        "vectorization": "column-major",
        "noise_dof": list(post.noise_dof),
        "converged": post.converged,
        "n_iter": post.n_iter,
    }
    if extra_meta:
        manifest.update(extra_meta)
    write_json(directory / "vb_manifest.json", manifest)
    write_matrix_csv(directory / "weight_mean.csv", post.weight_mean)
    write_matrix_csv(directory / "weight_cov.csv", _flatten_records(post.weight_cov))
    write_matrix_csv(directory / "latent_cov.csv", post.latent_cov)
    write_matrix_csv(directory / "latent_map.csv", post.latent_map)
    write_matrix_csv(directory / "latent_centre.csv", post.latent_centre[None, :])
    write_matrix_csv(directory / "mean_loc.csv", post.mean_loc[None, :])
    write_matrix_csv(directory / "mean_cov.csv", post.mean_cov)
    for m, scale in enumerate(post.noise_scale, start=1):
        write_matrix_csv(directory / f"noise_scale_view{m}.csv", scale)
    write_matrix_csv(directory / "elbo_trace.csv",
                     np.asarray(post.elbo_trace)[:, None])
    return directory
