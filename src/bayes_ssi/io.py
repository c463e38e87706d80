"""CSV/JSON/.npy artifact ingestion and persistence; every artifact file
a command writes is written here.

Tables (the record, spectra, the bound trace, stabilisation triples) stay
CSV, with 17 significant digits so 64-bit floats round-trip exactly; the
text is byte for byte what ``np.savetxt(fmt="%.17g", delimiter=",")``
writes.  Per-draw arrays are ``.npy`` files, float64 or complex128 only,
written by :func:`write_array`: ``identify``'s per-mode draws and shapes,
and the engine containers (the Gibbs chain and the variational factors),
which hold one file per array, shape kept, next to a JSON manifest, in
the layout the container keeps: the chain's noise covariances as packed
lower triangles, the variational basis and mean covariance per factor
block.  Reruns with the same seed therefore reproduce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
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
    "write_json",
    "create_json",
    "write_array",
    "save_chain",
    "load_chain",
    "save_vb_posterior",
]

FLOAT_FMT = "%.17g"
# input records: UTF-8, with or without a leading byte-order mark
CSV_ENCODING = "utf-8-sig"
# rows formatted by one ``%``: bounds the text held at once, so writing a
# long record does not raise the writer's peak memory above np.savetxt's
CSV_BLOCK_ROWS = 512
# the chain manifest's name for the packed noise rows (GibbsChain.noise_samples)
NOISE_LAYOUT = "lower triangle, numpy.tril_indices order"


def ingest_csv(path, fs: float) -> TimeSeries:
    """Read a rectangular numeric CSV (optional single header row) into a
    TimeSeries with one channel per column.

    The text is UTF-8, and a leading byte-order mark is skipped, so it
    neither hides a numeric first row as a header nor enters a header.
    Ragged rows, non-numeric cells, non-finite values and empty files all
    raise with the offending 1-based data row named.
    """
    if not (np.isfinite(fs) and fs > 0):
        raise ValueError(f"fs must be finite and positive, got {fs}")
    path = Path(path)
    with open(path, newline="", encoding=CSV_ENCODING) as fh:
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
                          comments=None, encoding=CSV_ENCODING)
    except ValueError:
        data = None
    if data is None or not np.isfinite(data).all():
        # quoted cells, which numpy's parser rejects, or a bad row: parse
        # cell by cell to read the former and name the latter
        with open(path, newline="", encoding=CSV_ENCODING) as fh:
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


def _write_rows(fh, mat: np.ndarray) -> None:
    """The rows of 2-D ``mat`` exactly as ``np.savetxt(fh, mat,
    fmt=FLOAT_FMT, delimiter=",")`` writes them, formatting
    ``CSV_BLOCK_ROWS`` rows with one ``%``."""
    row = ",".join([FLOAT_FMT] * mat.shape[1]) + "\n"
    for start in range(0, mat.shape[0], CSV_BLOCK_ROWS):
        block = mat[start:start + CSV_BLOCK_ROWS]
        fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def write_timeseries_csv(path, ts: TimeSeries) -> None:
    """One row per sample, header row of channel names ch1, ch2, ..."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"ch{i + 1}" for i in range(ts.channels)) + "\n")
        _write_rows(fh, ts.data.T)


def write_matrix_csv(path, mat: np.ndarray, header: list[str] | None = None) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        _write_rows(fh, mat)


def _dump_json(fh, payload: dict) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        _dump_json(fh, payload)


def create_json(path, payload: dict) -> None:
    """:func:`write_json` into a file that does not exist yet: creation is
    exclusive, and an existing file raises ``FileExistsError``."""
    with open(path, "x") as fh:
        _dump_json(fh, payload)


def write_array(path, arr: np.ndarray) -> None:
    """``arr`` as one ``.npy`` file, shape and dtype kept, read back
    exactly by ``np.load(path, allow_pickle=False)``.  Only float64 and
    complex128 arrays are written; any other dtype raises ``TypeError``
    rather than being cast."""
    arr = np.asarray(arr)
    if arr.dtype not in (np.float64, np.complex128):
        raise TypeError(f"{path}: write_array takes float64 or complex128, "
                        f"got {arr.dtype}")
    np.save(path, arr, allow_pickle=False)


def _save_arrays(directory: Path, arrays: dict[str, np.ndarray]) -> dict:
    """One ``<name>.npy`` file per array, shape kept; returns the shapes
    for the manifest."""
    for name, arr in arrays.items():
        write_array(directory / f"{name}.npy", arr)
    return {name: list(np.shape(arr)) for name, arr in arrays.items()}


def _load_array(directory: Path, name: str) -> np.ndarray:
    return np.load(directory / f"{name}.npy", allow_pickle=False)


def save_chain(directory, chain: GibbsChain, extra_meta: dict | None = None) -> Path:
    """Persist a chain: JSON manifest plus one ``.npy`` file per parameter
    with the record index leading (``w_samples`` n x D x d,
    ``mu_samples`` n x D, ``sigma_view{m}_samples`` n x D_m(D_m + 1)/2:
    each noise covariance's lower triangle in ``np.tril_indices`` order,
    which the manifest's ``noise_layout`` names)."""
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
        "factor_blocks": list(chain.factor_blocks),
        "noise_layout": NOISE_LAYOUT,
        "arrays": _save_arrays(directory, arrays),
        "config": dataclasses.asdict(chain.config),
    }
    if extra_meta:
        manifest.update(extra_meta)
    write_json(directory / "chain_manifest.json", manifest)
    return directory


def load_chain(directory) -> GibbsChain:
    """Read a chain written by :func:`save_chain`; the noise rows stay packed
    (see :meth:`~bayes_ssi.gibbs.GibbsChain.noise_matrices`).  A noise file
    of any other shape, such as the full n x D_m x D_m stack of a container
    written before the packed layout, raises ``ValueError``."""
    directory = Path(directory)
    with open(directory / "chain_manifest.json") as fh:
        manifest = json.load(fh)
    view_dims = tuple(manifest["view_dims"])
    noise = []
    for m, dim in enumerate(view_dims, start=1):
        name = f"sigma_view{m}_samples"
        packed = _load_array(directory, name)
        expected = (manifest["n_records"], dim * (dim + 1) // 2)
        if packed.shape != expected:
            raise ValueError(
                f"{directory / (name + '.npy')}: expected shape {expected} "
                f"(records x packed lower triangle), found {packed.shape}")
        noise.append(packed)
    config = GibbsConfig(**manifest["config"])
    return GibbsChain(weight_samples=_load_array(directory, "w_samples"),
                      mean_samples=_load_array(directory, "mu_samples"),
                      noise_samples=noise, view_dims=view_dims, config=config,
                      factor_blocks=tuple(manifest.get("factor_blocks", ())))


def save_vb_posterior(directory, post: VBPosterior, extra_meta: dict | None = None) -> Path:
    """Persist the variational posterior: JSON manifest plus one ``.npy``
    file per factor array (same container layout as the chain), the bound
    trace included.

    The latent factor is stored as its d x D map and centre: the latent
    mean of data column x_n is latent_map @ (x_n - latent_centre).  The
    weight factors are stored as their shared basis B and eigenvalues e
    (d x D): column i's covariance is B diag(e_i) B^T.  B and the mean
    covariance take one h_b x h_b file per factor block b, from 0
    (``weight_basis_block{b}``, ``mean_cov_block{b}``; ``factor_blocks``
    in the manifest lists the h_b).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    total_dim, d = post.weight_mean.shape
    arrays = {
        "weight_mean": post.weight_mean,
        **{f"weight_basis_block{b}": basis for b, basis in enumerate(post.weight_basis)},
        "weight_eigs": post.weight_eigs,
        "latent_cov": post.latent_cov,
        "latent_map": post.latent_map,
        "latent_centre": post.latent_centre,
        "mean_loc": post.mean_loc,
        **{f"mean_cov_block{b}": cov for b, cov in enumerate(post.mean_cov)},
        **{f"noise_scale_view{m}": scale for m, scale in enumerate(post.noise_scale, start=1)},
        "elbo_trace": np.asarray(post.elbo_trace),
    }
    manifest = {
        "kind": "vb_posterior",
        "dim": total_dim,
        "latent_dim": d,
        "view_dims": list(post.view_dims),
        "factor_blocks": [basis.shape[0] for basis in post.weight_basis],
        "arrays": _save_arrays(directory, arrays),
        "noise_dof": list(post.noise_dof),
        "converged": post.converged,
        "n_iter": post.n_iter,
    }
    if extra_meta:
        manifest.update(extra_meta)
    write_json(directory / "vb_manifest.json", manifest)
    return directory
