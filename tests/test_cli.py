import dataclasses
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import bayes_ssi
from bayes_ssi.cli import (
    OutputDir,
    _write_mode_draws,
    build_priors,
    load_prior_overrides,
    main,
    prior_overrides,
)
from bayes_ssi.io import load_chain, write_timeseries_csv
from bayes_ssi.modal_posterior import ModalPosterior, ModeCluster

from explicit import read_matrix_csv

SRC = str(Path(bayes_ssi.__file__).resolve().parent.parent)


def run_cli(*args):
    return main([str(a) for a in args])


def run_cli_process(*args):
    """Run the CLI in a fresh interpreter, whose stderr is what a user
    sees: the library's log records reach it through logging's last-resort
    handler, not through the test run's log capture."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "bayes_ssi.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """A small simulated record shared by the CLI tests."""
    out = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--floors", 4, "--samples", 4096, "--fs", 50,
                   "--seed", 7, "--out", out)
    assert code == 0
    return out


# prior files with a non-finite field, and the field the error must name
NON_FINITE_PRIORS = [('{"noise_dof": NaN}', "noise_dof[0]"),
                     ('{"noise_dof": Infinity}', "noise_dof[0]"),
                     ('{"noise_scale": NaN}', "noise_scale[0]"),
                     ('{"mean_loc": NaN}', "mean_loc"),
                     ('{"weight_cov": NaN}', "weight_cov")]


def _spd(gen, dim):
    """A random dim x dim symmetric positive-definite matrix."""
    root = gen.standard_normal((dim, dim))
    return root @ root.T / dim + np.eye(dim)


_gen = np.random.default_rng(9)
# (view dims, order, --priors overrides) of the prior sets written and read back
ROUND_TRIP_PRIORS = [
    ((4, 4), 2, None),
    ((4, 4), 2, {"weight_cov": 2.0, "noise_scale": [1.0, 3.0], "noise_dof": 40.0}),
    ((3, 3), 2, {"noise_scale": [_spd(_gen, 3).tolist(), 2.0], "noise_dof": [5.5, 70]}),
    ((4, 4), 3, {"mean_loc": _gen.standard_normal(8).tolist(),
                 "mean_cov": _spd(_gen, 8).tolist(),
                 "weight_loc": _gen.standard_normal(8).tolist(),
                 "weight_cov": _spd(_gen, 8).tolist(),
                 "noise_scale": [_spd(_gen, 4).tolist(), _spd(_gen, 4).tolist()]}),
    ((1, 1), 1, {"mean_loc": [0.5, -1.25], "noise_scale": [0.3, 7.0],
                 "noise_dof": [0.5, 2.0]}),
    # one matrix for both views, constant on the diagonal but no scaled identity
    ((2, 2), 1, {"noise_scale": [[2.0, 0.25], [0.25, 2.0]]}),
]


def listing(path):
    return sorted(p.name for p in Path(path).iterdir())


def contents(path):
    """Every file under ``path``, by relative path, with its bytes."""
    return {str(p.relative_to(path)): p.read_bytes()
            for p in Path(path).rglob("*") if p.is_file()}


class TestOutputDir:
    def test_lock_names_its_owner_and_is_removed(self, tmp_path):
        before = datetime.now(timezone.utc).replace(microsecond=0)
        with OutputDir(tmp_path):
            stamp = json.loads((tmp_path / ".lock").read_text())
        assert stamp["pid"] == os.getpid()
        assert stamp["host"] == platform.node()
        assert before <= datetime.fromisoformat(stamp["started_utc"]) <= datetime.now(
            timezone.utc)
        assert not (tmp_path / ".lock").exists()

    def test_live_owner_named_and_not_called_stale(self, tmp_path):
        with OutputDir(tmp_path):
            stamp = json.loads((tmp_path / ".lock").read_text())
            with pytest.raises(RuntimeError) as info:
                OutputDir(tmp_path).__enter__()
            message = str(info.value)
        assert (f"locked by pid {os.getpid()} on {platform.node()} "
                f"since {stamp['started_utc']}") in message
        assert message.endswith("if stale)")
        assert "no longer exists" not in message

    @pytest.mark.parametrize("text", ["", "{not json", '{"pid": 0, "host": "h", '
                                      '"started_utc": "t"}', '["pid"]'])
    def test_unreadable_lock_still_refused(self, tmp_path, text):
        (tmp_path / ".lock").write_text(text)
        with pytest.raises(RuntimeError, match="is locked by another run"):
            OutputDir(tmp_path).__enter__()
        assert (tmp_path / ".lock").read_text() == text

    def test_owner_not_probed_off_posix(self, tmp_path, monkeypatch):
        import bayes_ssi.cli as cli_mod

        def kill(pid, sig):
            raise AssertionError("os.kill called off POSIX")

        # a pid no process has, which a POSIX probe would call stale
        stamp = {"pid": 2**22 + 1, "host": platform.node(), "started_utc": "t"}
        (tmp_path / ".lock").write_text(json.dumps(stamp))
        monkeypatch.setattr(cli_mod, "_POSIX", False)
        monkeypatch.setattr(cli_mod.os, "kill", kill)
        with pytest.raises(RuntimeError) as info:
            OutputDir(tmp_path).__enter__()
        message = str(info.value)
        assert f"locked by pid {stamp['pid']} on {platform.node()} since t" in message
        assert message.endswith("if stale)")
        assert "no longer exists" not in message

    def test_killed_runs_staging_removed(self, sim_dir, tmp_path):
        # a killed run leaves its staging directory but, once removed, no lock
        stray = tmp_path / ".bayes-ssi-staging" / "stray.txt"
        stray.parent.mkdir()
        stray.write_text("left by a killed run")
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "ssi",
                       "--seed", 1, "--out", tmp_path)
        assert code == 0
        assert listing(tmp_path) == ["config.json", "modal_estimate.json",
                                     "run_manifest.json"]


class TestSimulate:
    def test_artifacts(self, sim_dir):
        names = listing(sim_dir)
        assert "response.csv" in names
        assert "response.json" in names
        assert "config.json" in names
        assert "run_manifest.json" in names
        assert ".lock" not in names
        sidecar = json.loads((sim_dir / "response.json").read_text())
        assert sidecar["fs"] == 50
        assert sidecar["seed"] == 7

    def test_header_and_shape(self, sim_dir):
        lines = (sim_dir / "response.csv").read_text().splitlines()
        assert lines[0] == "ch1,ch2,ch3,ch4"
        assert len(lines) == 4097

    def test_rerun_byte_identical(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        assert run_cli("simulate", "--floors", 4, "--samples", 4096, "--fs", 50,
                       "--seed", 7, "--out", out2) == 0
        assert (out2 / "response.csv").read_bytes() == \
            (sim_dir / "response.csv").read_bytes()


class TestIdentify:
    def test_ssi_engine_point_estimate_only(self, sim_dir, tmp_path):
        out = tmp_path / "ssi"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 10, "--order", 8, "--engine", "ssi",
                       "--seed", 1, "--out", out)
        assert code == 0
        names = listing(out)
        assert "modal_estimate.json" in names
        assert not any(n.startswith("mode_") for n in names)
        est = json.loads((out / "modal_estimate.json").read_text())
        assert len(est["frequencies_hz"]) >= 4

    def test_fs_resolved_from_sidecar(self, sim_dir, tmp_path):
        # no --fs flag: the response.json sidecar supplies it
        out = tmp_path / "sidecar"
        assert run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "ssi",
                       "--seed", 1, "--out", out) == 0

    def test_fs_missing_errors(self, tmp_path):
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, np.random.default_rng(0).standard_normal((200, 2)),
                   delimiter=",")
        code = run_cli("identify", "--input", raw, "--block-rows", 4,
                       "--order", 2, "--engine", "ssi", "--seed", 0,
                       "--out", tmp_path / "x")
        assert code == 1

    def test_vb_engine_artifacts_and_monotone_trace(self, sim_dir, tmp_path):
        out = tmp_path / "vb"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 15, "--order", 8, "--engine", "vb",
                       "--draws", 200, "--max-iter", 300, "--tol", "1e-7",
                       "--seed", 3, "--out", out)
        assert code == 0
        names = listing(out)
        for required in ("elbo_trace.csv", "modes_summary.json", "welch_sum.csv",
                         "modal_estimate.json", "vb_posterior", "config.json",
                         "run_manifest.json", "mode_01_draws.npy"):
            assert required in names
        trace = read_matrix_csv(out / "elbo_trace.csv", skip_header=True)[:, 0]
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
        summary = json.loads((out / "modes_summary.json").read_text())
        assert summary["n_draws"] == 200
        draws = np.load(out / "mode_01_draws.npy", allow_pickle=False)
        assert draws.shape[1] == 2

    @pytest.mark.parametrize("engine", [("vb", "--draws", 100, "--max-iter", 60),
                                        ("gibbs", "--samples", 150)])
    def test_mode_arrays(self, sim_dir, tmp_path, engine):
        # each reference mode's draws and shapes are two .npy arrays, with
        # as many rows as the summary's aligned draws
        out = tmp_path / engine[0]
        assert run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", *engine,
                       "--seed", 6, "--out", out) == 0
        summary = json.loads((out / "modes_summary.json").read_text())
        assert summary["source"] == engine[0]
        modes = summary["modes"]
        assert [n for n in listing(out) if n.startswith("mode_")] == [
            f"mode_{k:02d}_{kind}.npy" for k in range(1, len(modes) + 1)
            for kind in ("draws", "shapes")]
        assert sum(mode["n_aligned"] for mode in modes) > 0
        for k, mode in enumerate(modes, start=1):
            draws = np.load(out / f"mode_{k:02d}_draws.npy", allow_pickle=False)
            shapes = np.load(out / f"mode_{k:02d}_shapes.npy", allow_pickle=False)
            assert draws.dtype == np.float64 and draws.shape == (mode["n_aligned"], 2)
            assert shapes.dtype == np.complex128
            assert shapes.shape == (mode["n_aligned"], 4)
            assert np.all(np.abs(np.linalg.norm(shapes, axis=1) - 1.0) <= 1e-12)
            if mode["n_aligned"]:
                assert mode["frequency_mean_hz"] == float(draws[:, 0].mean())

    def test_mode_without_aligned_draws_writes_empty_arrays(self, tmp_path):
        cluster = ModeCluster(reference_frequency=1.0, reference_shape=np.full(3, 3**-0.5),
                              frequencies=np.empty(0), damping_ratios=np.empty(0),
                              mode_shapes=np.empty((0, 3), dtype=complex),
                              mac_scores=np.empty(0), draw_indices=np.empty(0, dtype=int))
        posterior = ModalPosterior(clusters=[cluster], n_draws=5, n_excluded=0,
                                   n_unassigned=5, order=2)
        with OutputDir(tmp_path) as out:
            _write_mode_draws(out, posterior)
        draws = np.load(tmp_path / "mode_01_draws.npy", allow_pickle=False)
        shapes = np.load(tmp_path / "mode_01_shapes.npy", allow_pickle=False)
        assert (draws.dtype, draws.shape) == (np.float64, (0, 2))
        assert (shapes.dtype, shapes.shape) == (np.complex128, (0, 3))

    def test_vb_diagnostics_in_manifest(self, sim_dir, tmp_path):
        out = tmp_path / "vb_diag"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "vb",
                       "--draws", 20, "--seed", 3, "--out", out)
        assert code == 0
        diag = json.loads((out / "run_manifest.json").read_text())["diagnostics"]
        assert diag["converged"] is True
        assert diag["status"] == "converged"
        assert json.loads((out / "modes_summary.json").read_text())["status"] == "converged"
        trace = read_matrix_csv(out / "elbo_trace.csv", skip_header=True)
        assert diag["n_iter"] == trace.shape[0]
        assert diag["ms_per_sweep"] > 0

    def test_vb_not_converged_reported(self, sim_dir, tmp_path, caplog):
        out = tmp_path / "vb_short"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "vb",
                       "--draws", 20, "--max-iter", 2, "--seed", 3, "--out", out)
        assert code == 0
        diag = json.loads((out / "run_manifest.json").read_text())["diagnostics"]
        assert diag["converged"] is False
        assert diag["status"] == "not_converged"
        assert diag["n_iter"] == 2
        summary = json.loads((out / "modes_summary.json").read_text())
        assert summary["status"] == "not_converged"
        assert [r.getMessage() for r in caplog.records] == [
            "VB at order 4 stopped at max_iter=2 without converging"]

    def test_gibbs_full_protocol_row_count(self, tmp_path):
        # 5000 sweeps with 20% burn-in leaves 4000 retained weight rows;
        # run on a tiny two-channel record to keep the protocol affordable
        raw = tmp_path / "tiny.csv"
        gen = np.random.default_rng(5)
        np.savetxt(raw, gen.standard_normal((400, 2)), delimiter=",")
        out = tmp_path / "gibbs"
        code = run_cli("identify", "--input", raw, "--fs", 10.0,
                       "--block-rows", 2, "--order", 2, "--engine", "gibbs",
                       "--samples", 5000, "--burn-in", 0.2,
                       "--seed", 4, "--out", out)
        assert code == 0
        weights = np.load(out / "chain" / "w_samples.npy", allow_pickle=False)
        assert weights.shape == (4000, 8, 2)
        # each view's noise draws are stored as their 10 lower-triangle entries
        manifest = json.loads((out / "chain" / "chain_manifest.json").read_text())
        assert manifest["noise_layout"] == "lower triangle, numpy.tril_indices order"
        chain = load_chain(out / "chain")
        for m in (1, 2):
            assert manifest["arrays"][f"sigma_view{m}_samples"] == [4000, 10]
            packed = np.load(out / "chain" / f"sigma_view{m}_samples.npy",
                             allow_pickle=False)
            assert packed.shape == (4000, 10)
            full = chain.noise_matrices(m - 1)
            assert full.shape == (4000, 4, 4)
            rows, cols = np.tril_indices(4)
            assert np.array_equal(full[:, rows, cols], packed)
        diag = json.loads((out / "run_manifest.json").read_text())["diagnostics"]
        assert diag["n_sweeps"] == 5000
        assert diag["n_records"] == 4000
        assert diag["ms_per_sweep"] > 0

    @pytest.mark.parametrize("weight_cov, blocks", [(None, [4, 4]),
                                                    ("dense", [8])])
    def test_gibbs_factor_blocks_in_manifest(self, tmp_path, weight_cov, blocks):
        # default priors factor per view; a weight prior that couples the
        # views makes one block of all D = 8 rows
        raw = tmp_path / "tiny.csv"
        np.savetxt(raw, np.random.default_rng(6).standard_normal((200, 2)),
                   delimiter=",")
        extra = ()
        if weight_cov == "dense":
            priors_file = tmp_path / "priors.json"
            cov = 0.5 * np.eye(8) + 0.1 * np.ones((8, 8))
            priors_file.write_text(json.dumps({"weight_cov": cov.tolist()}))
            extra = ("--priors", priors_file)
        out = tmp_path / "gibbs"
        code = run_cli("identify", "--input", raw, "--fs", 10.0,
                       "--block-rows", 2, "--order", 2, "--engine", "gibbs",
                       "--samples", 20, "--seed", 4, *extra, "--out", out)
        assert code == 0
        diag = json.loads((out / "run_manifest.json").read_text())["diagnostics"]
        assert diag["factor_blocks"] == blocks

    def test_rerun_byte_identical_numeric_artifacts(self, sim_dir, tmp_path):
        args = ("identify", "--input", sim_dir / "response.csv",
                "--block-rows", 8, "--order", 4, "--engine", "vb",
                "--draws", 50, "--max-iter", 60, "--seed", 11)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        for path1 in sorted(Path(out1).rglob("*")):
            if path1.is_dir():
                continue
            rel = path1.relative_to(out1)
            if rel.name == "run_manifest.json":
                continue  # carries wall-clock metadata only
            path2 = out2 / rel
            if rel.name == "config.json":
                cfg1 = json.loads(path1.read_text())
                cfg2 = json.loads(path2.read_text())
                cfg1.pop("out"), cfg2.pop("out")
                assert cfg1 == cfg2
                continue
            assert path1.read_bytes() == path2.read_bytes(), rel

    def test_priors_file_override(self, sim_dir, tmp_path):
        priors_file = tmp_path / "priors.json"
        priors_file.write_text(json.dumps({"noise_scale": 1.0}))
        out = tmp_path / "prior_override"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "vb",
                       "--draws", 20, "--max-iter", 40, "--seed", 2,
                       "--priors", priors_file, "--out", out)
        assert code == 0

    @pytest.mark.parametrize("engine", [("vb", "--max-iter", 40),
                                        ("gibbs", "--samples", 100)])
    def test_manifest_priors_rerun_as_prior_file(self, sim_dir, tmp_path, engine):
        # the container manifest's priors entry is a --priors file that
        # reproduces the run
        gen = np.random.default_rng(8)
        priors_file = tmp_path / "priors.json"
        priors_file.write_text(json.dumps({
            "mean_loc": gen.standard_normal(64).tolist(), "weight_cov": 2.0,
            "noise_scale": [_spd(gen, 32).tolist(), 3.0],
            "noise_dof": [40, 50.5]}))
        args = ("identify", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--order", 4, "--engine", *engine, "--draws", 20, "--seed", 2)
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(*args, "--priors", priors_file, "--out", first) == 0
        container = {"vb": "vb_posterior/vb_manifest.json",
                     "gibbs": "chain/chain_manifest.json"}[engine[0]]
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(json.loads((first / container).read_text())["priors"]))
        assert run_cli(*args, "--priors", echo, "--out", second) == 0
        files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(second) for p in second.rglob("*")
                               if p.is_file())
        for rel in files:
            if rel.name not in ("config.json", "run_manifest.json"):
                assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

    def test_ssi_engine_rejects_invalid_priors(self, sim_dir, tmp_path, capsys):
        # the priors are built for every engine: ssi fails as vb does,
        # with the same error line and no output left behind
        priors_file = tmp_path / "priors.json"
        priors_file.write_text(json.dumps({"noise_dof": 1}))
        errors = {}
        for engine in ("ssi", "vb"):
            out = tmp_path / engine
            code = run_cli("identify", "--input", sim_dir / "response.csv",
                           "--block-rows", 8, "--order", 4, "--engine", engine,
                           "--draws", 20, "--seed", 2, "--priors", priors_file,
                           "--out", out)
            assert code == 1
            assert listing(out) == []
            errors[engine] = capsys.readouterr().err.splitlines()
        assert len(errors["ssi"]) == 1 and errors["ssi"][0].startswith("error:")
        assert "noise_dof" in errors["ssi"][0]
        assert errors["ssi"] == errors["vb"]

    def test_ssi_engine_valid_priors_leave_estimate_unchanged(self, sim_dir, tmp_path):
        priors_file = tmp_path / "priors.json"
        priors_file.write_text(json.dumps({"noise_scale": 1.0, "noise_dof": 40}))
        args = ("identify", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--order", 4, "--engine", "ssi", "--seed", 1)
        plain, primed = tmp_path / "plain", tmp_path / "primed"
        assert run_cli(*args, "--out", plain) == 0
        assert run_cli(*args, "--priors", priors_file, "--out", primed) == 0
        assert (plain / "modal_estimate.json").read_bytes() == \
            (primed / "modal_estimate.json").read_bytes()

    def test_no_center_flag(self, sim_dir, tmp_path):
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "ssi",
                       "--no-center", "--seed", 1, "--out", tmp_path / "nc")
        assert code == 0

    def test_locked_directory_rejected(self, sim_dir, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "ssi",
                       "--seed", 1, "--out", out)
        assert code == 1

    def test_killed_run_lock_reported_stale(self, sim_dir, tmp_path, capsys):
        # the lock of a run killed before it could remove it: its pid has exited
        child = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                               capture_output=True, text=True, check=True)
        out = tmp_path / "stale"
        out.mkdir()
        stamp = {"pid": int(child.stdout), "host": platform.node(),
                 "started_utc": "2026-01-02T03:04:05+00:00"}
        (out / ".lock").write_text(json.dumps(stamp))
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "ssi",
                       "--seed", 1, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert (f"locked by pid {stamp['pid']} on {stamp['host']} since "
                "2026-01-02T03:04:05+00:00; that process no longer exists, so the lock "
                "is stale") in err
        assert sorted(p.name for p in out.iterdir()) == [".lock"]

    def test_noise_dof_of_wrong_length_rejected(self, sim_dir, tmp_path, capsys):
        priors_file = tmp_path / "priors.json"
        priors_file.write_text(json.dumps({"noise_dof": [70]}))
        out = tmp_path / "bad_dof"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "vb",
                       "--draws", 20, "--max-iter", 40, "--seed", 2,
                       "--priors", priors_file, "--out", out)
        assert code == 1
        assert "noise_dof" in capsys.readouterr().err
        assert listing(out) == []

    @pytest.mark.parametrize("text,field", NON_FINITE_PRIORS)
    def test_non_finite_prior_rejected(self, sim_dir, tmp_path, capsys, text, field):
        priors_file = tmp_path / "priors.json"
        priors_file.write_text(text)
        out = tmp_path / "non_finite"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "vb",
                       "--draws", 20, "--max-iter", 40, "--seed", 2,
                       "--priors", priors_file, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "must be finite" in err
        assert listing(out) == []

    def test_engine_failure_cleans_partial_artifacts(self, sim_dir, tmp_path):
        # order larger than the Hankel half-height fails before any file is
        # written; the directory must be left clean
        out = tmp_path / "fail"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 2, "--order", 50, "--engine", "ssi",
                       "--seed", 1, "--out", out)
        assert code == 1
        assert listing(out) == []

    def test_late_write_failure_leaves_directory_empty(self, sim_dir, tmp_path,
                                                       monkeypatch):
        import bayes_ssi.cli as cli_mod

        def failing_writer(out, posterior):
            raise OSError("synthetic write failure")

        monkeypatch.setattr(cli_mod, "_write_mode_draws", failing_writer)
        out = tmp_path / "late"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 4, "--engine", "vb",
                       "--draws", 20, "--max-iter", 40, "--seed", 1, "--out", out)
        assert code == 1
        assert listing(out) == []

    def test_late_write_failure_leaves_previous_run_intact(self, sim_dir, tmp_path,
                                                           monkeypatch):
        import bayes_ssi.cli as cli_mod

        def failing_writer(out, posterior):
            raise OSError("synthetic write failure")

        args = ["identify", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--order", 4, "--engine", "vb", "--draws", 20, "--max-iter", 40,
                "--out", tmp_path]
        assert run_cli(*args, "--seed", 1) == 0
        before, names = contents(tmp_path), listing(tmp_path)
        monkeypatch.setattr(cli_mod, "_write_mode_draws", failing_writer)
        assert run_cli(*args, "--seed", 2) == 1
        assert contents(tmp_path) == before
        assert listing(tmp_path) == names

    def test_rerun_replaces_directory_artifact(self, sim_dir, tmp_path):
        args = ["identify", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--order", 4, "--engine", "vb", "--draws", 20, "--max-iter", 40,
                "--seed", 1, "--out", tmp_path]
        assert run_cli(*args) == 0
        first = contents(tmp_path / "vb_posterior")
        (tmp_path / "vb_posterior" / "planted.txt").write_text("not from this run")
        assert run_cli(*args) == 0
        assert contents(tmp_path / "vb_posterior") == first

    @pytest.mark.parametrize("failure", ["order", "engine"])
    def test_failing_rerun_leaves_previous_run_intact(self, sim_dir, tmp_path,
                                                      monkeypatch, failure):
        import bayes_ssi.cli as cli_mod

        args = ["identify", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--engine", "vb", "--draws", 20, "--max-iter", 40, "--seed", 1,
                "--out", tmp_path]
        assert run_cli(*args, "--order", 4) == 0
        before = contents(tmp_path)
        if failure == "engine":
            def failing_run_vb(stats, priors, config):
                raise np.linalg.LinAlgError("synthetic engine failure")

            monkeypatch.setattr(cli_mod, "run_vb", failing_run_vb)
            assert run_cli(*args, "--order", 4) == 1
        else:
            # above the Hankel half-height 32
            assert run_cli(*args, "--order", 61) == 1
        assert contents(tmp_path) == before


class TestStabilise:
    def test_orders_span_and_welch_overlay(self, sim_dir, tmp_path):
        out = tmp_path / "stab"
        code = run_cli("stabilise", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 2, "--order", 4,
                       "--order", 6, "--draws", 30, "--max-iter", 60,
                       "--tol", "1e-6", "--seed", 5, "--out", out)
        assert code == 0
        triples = read_matrix_csv(out / "stabilisation.csv", skip_header=True)
        assert triples.shape[1] == 3
        assert set(np.unique(triples[:, 0])) <= {2.0, 4.0, 6.0}
        assert (out / "welch_sum.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["failures"] == {}
        assert set(manifest["diagnostics"]) == {"2", "4", "6"}
        for diag in manifest["diagnostics"].values():
            assert set(diag) == {"n_iter", "converged", "status", "ms_per_sweep"}

    def test_not_converged_status_per_order(self, sim_dir, tmp_path):
        # the lines come from the workers, as each one finishes
        out = tmp_path / "stab_short"
        result = run_cli_process("stabilise", "--input", sim_dir / "response.csv",
                                 "--block-rows", 8, "--order", 2, "--order", 4,
                                 "--draws", 10, "--max-iter", 2, "--seed", 5,
                                 "--out", out)
        assert result.returncode == 0, result.stderr
        diagnostics = json.loads((out / "run_manifest.json").read_text())["diagnostics"]
        assert {order: diag["status"] for order, diag in diagnostics.items()} == {
            "2": "not_converged", "4": "not_converged"}
        assert sorted(result.stderr.strip().splitlines()) == [
            f"VB at order {order} stopped at max_iter=2 without converging"
            for order in (2, 4)]

    def test_rerun_byte_identical(self, sim_dir, tmp_path):
        args = ("stabilise", "--input", sim_dir / "response.csv",
                "--block-rows", 8, "--order", 2, "--order", 4, "--draws", 10,
                "--max-iter", 40, "--tol", "1e-6", "--seed", 5)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        assert (out1 / "stabilisation.csv").read_bytes() == \
            (out2 / "stabilisation.csv").read_bytes()

    def test_partial_failure_nonzero_exit(self, sim_dir, tmp_path, monkeypatch):
        import bayes_ssi.modal_posterior as mp

        original = mp.run_vb

        def failing_run_vb(data, priors, config):
            if priors.latent_dim == 4:
                raise np.linalg.LinAlgError("synthetic engine failure")
            return original(data, priors, config)

        monkeypatch.setattr(mp, "run_vb", failing_run_vb)
        out = tmp_path / "partial"
        # about 30% of the order-2 draws of this record have a complex pole
        # below Nyquist, so 40 draws leave order 2 without a triple with
        # probability 0.7**40, 10 draws with 0.7**10 = 3%
        code = run_cli("stabilise", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 2, "--order", 4,
                       "--draws", 40, "--max-iter", 30, "--tol", "1e-6",
                       "--seed", 5, "--out", out)
        assert code == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "4" in manifest["failures"]
        triples = read_matrix_csv(out / "stabilisation.csv", skip_header=True)
        assert set(np.unique(triples[:, 0])) == {2.0}


    def test_failing_rerun_leaves_previous_run_intact(self, sim_dir, tmp_path):
        args = ["stabilise", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--draws", 10, "--max-iter", 30, "--seed", 5, "--out", tmp_path]
        assert run_cli(*args, "--order", 2, "--order", 4) == 0
        before = contents(tmp_path)
        assert run_cli(*args, "--order", 2, "--order", 61) == 1
        assert contents(tmp_path) == before

    def test_late_write_failure_leaves_previous_run_intact(self, sim_dir, tmp_path,
                                                           monkeypatch):
        import bayes_ssi.cli as cli_mod

        original = cli_mod.write_json

        def failing_write_json(path, payload):
            if Path(path).name == "run_manifest.json":
                raise OSError("synthetic write failure")
            original(path, payload)

        args = ["stabilise", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--order", 2, "--order", 4, "--draws", 10, "--max-iter", 30,
                "--out", tmp_path]
        assert run_cli(*args, "--seed", 5) == 0
        before, names = contents(tmp_path), listing(tmp_path)
        monkeypatch.setattr(cli_mod, "write_json", failing_write_json)
        assert run_cli(*args, "--seed", 6) == 1
        assert contents(tmp_path) == before
        assert listing(tmp_path) == names

    def test_repeated_order_rejected(self, sim_dir, tmp_path, capsys):
        args = ["stabilise", "--input", sim_dir / "response.csv", "--block-rows", 8,
                "--draws", 10, "--max-iter", 30, "--seed", 5, "--out", tmp_path]
        assert run_cli(*args, "--order", 2, "--order", 4) == 0
        before = contents(tmp_path)
        capsys.readouterr()
        assert run_cli(*args, "--order", 2, "--order", 4, "--order", 4) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert err == ["error: orders given more than once: [4]"]
        assert contents(tmp_path) == before

    def test_programming_error_writes_nothing(self, sim_dir, tmp_path, capsys):
        # one block row leaves no shift-invariance solve to run: an invalid
        # call, not a numerical failure at every order
        out = tmp_path / "one_block_row"
        code = run_cli("stabilise", "--input", sim_dir / "response.csv",
                       "--block-rows", 1, "--order", 2, "--order", 4,
                       "--draws", 10, "--max-iter", 30, "--seed", 5, "--out", out)
        assert code == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(err) == 1 and err[0].startswith("error:")
        assert "at least 2 complete block rows" in err[0]
        assert listing(out) == []

    def test_invalid_priors_fail_before_any_order(self, sim_dir, tmp_path, capsys):
        # an invalid prior file is a configuration error, not a failure at
        # every order: exit 1, one error line, no stabilisation output
        priors_file = tmp_path / "priors.json"
        priors_file.write_text(json.dumps({"noise_dof": 1}))
        out = tmp_path / "bad_priors"
        code = run_cli("stabilise", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 2, "--order", 4,
                       "--draws", 10, "--max-iter", 30, "--seed", 5,
                       "--priors", priors_file, "--out", out)
        assert code == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(err) == 1 and err[0].startswith("error:") and "noise_dof" in err[0]
        assert not (out / "stabilisation.csv").exists()
        assert not (out / "run_manifest.json").exists()

    def test_non_finite_priors_fail_before_any_order(self, sim_dir, tmp_path, capsys):
        # a failure at every order would print one line per order and
        # leave the Welch overlay and the manifest behind
        priors_file = tmp_path / "priors.json"
        priors_file.write_text('{"noise_scale": NaN}')
        out = tmp_path / "nan_priors"
        code = run_cli("stabilise", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 2, "--order", 4,
                       "--draws", 10, "--max-iter", 30, "--seed", 5,
                       "--priors", priors_file, "--out", out)
        assert code == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(err) == 1 and "noise_scale[0] must be finite" in err[0]
        assert not out.exists()


@pytest.mark.parametrize("command", [("identify", "--engine", "vb"), ("stabilise",)])
def test_draws_below_one_rejected_before_any_engine(sim_dir, tmp_path, capsys,
                                                    monkeypatch, command):
    import bayes_ssi.cli as cli_mod
    import bayes_ssi.modal_posterior as mp

    def engine_must_not_run(*args):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(cli_mod, "run_vb", engine_must_not_run)
    monkeypatch.setattr(mp, "run_vb", engine_must_not_run)
    out = tmp_path / "no_draws"
    code = run_cli(*command, "--input", sim_dir / "response.csv", "--block-rows", 8,
                   "--order", 4, "--draws", 0, "--seed", 1, "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("error:") and "--draws" in err[0]
    assert not out.exists() or listing(out) == []


@pytest.mark.parametrize("command", [("identify", "--engine", "ssi"),
                                     ("identify", "--engine", "vb"), ("stabilise",)])
def test_one_block_row_rejected_before_any_engine(sim_dir, tmp_path, capsys,
                                                  monkeypatch, command):
    # the shift-invariance solve needs two block rows, so no engine result
    # at fewer could be used
    import bayes_ssi.cli as cli_mod
    import bayes_ssi.modal_posterior as mp

    def engine_must_not_run(*args):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(cli_mod, "ssi_cov", engine_must_not_run)
    monkeypatch.setattr(cli_mod, "run_vb", engine_must_not_run)
    monkeypatch.setattr(mp, "run_vb", engine_must_not_run)
    # zero block rows would otherwise fail inside the statistics build,
    # under a message that does not name the flag
    for block_rows in (1, 0):
        out = tmp_path / f"few_block_rows_{block_rows}"
        code = run_cli(*command, "--input", sim_dir / "response.csv",
                       "--block-rows", block_rows, "--order", 4, "--seed", 1, "--out", out)
        assert code == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert len(err) == 1 and err[0].startswith("error:") and "--block-rows" in err[0]
        assert not out.exists() or listing(out) == []


@pytest.mark.parametrize("fs", ["nan", "inf", "sidecar-nan"])
def test_non_finite_fs_rejected(sim_dir, tmp_path, capsys, fs):
    record = tmp_path / "rec.csv"
    record.write_bytes((sim_dir / "response.csv").read_bytes())
    if fs == "sidecar-nan":
        record.with_suffix(".json").write_text('{"fs": NaN}')
        flag = ()
    else:
        flag = ("--fs", fs)
    out = tmp_path / "bad_fs"
    code = run_cli("identify", "--input", record, *flag, "--block-rows", 8,
                   "--order", 4, "--engine", "ssi", "--seed", 1, "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("error:") and "fs" in err[0]
    assert not out.exists() or listing(out) == []


@pytest.mark.parametrize("sidecar,problem", [
    ('{"fs": 50', "not valid JSON"),
    ('[{"fs": 50}]', "must hold a JSON object, got list"),
    ('{"fs": "50"}', "fs must be a number, got '50'"),
])
def test_malformed_sidecar_rejected(sim_dir, tmp_path, capsys, sidecar, problem):
    record = tmp_path / "rec.csv"
    record.write_bytes((sim_dir / "response.csv").read_bytes())
    record.with_suffix(".json").write_text(sidecar)
    out = tmp_path / "bad_sidecar"
    code = run_cli("identify", "--input", record, "--block-rows", 8, "--order", 4,
                   "--engine", "ssi", "--seed", 1, "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(record.with_suffix(".json")) in err[0] and problem in err[0]
    assert not out.exists() or listing(out) == []


@pytest.mark.parametrize("fs", ["0", "-5", "nan", "inf"])
def test_simulate_bad_fs_rejected(tmp_path, capsys, fs):
    out = tmp_path / "bad_fs"
    code = run_cli("simulate", "--floors", 2, "--samples", 64, "--fs", fs,
                   "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("error:") and "fs" in err[0]
    assert not out.exists() or listing(out) == []


@pytest.mark.parametrize("flag,value,quantity", [
    ("--mass", "nan", "masses"), ("--mass", "inf", "masses"),
    ("--stiffness", "nan", "stiffnesses"), ("--stiffness", "inf", "stiffnesses"),
    ("--forcing-density", "nan", "forcing_density"),
    ("--forcing-density", "inf", "forcing_density"),
    ("--measurement-sd", "nan", "meas_noise_sd"),
    ("--measurement-sd", "inf", "meas_noise_sd"),
])
def test_simulate_non_finite_physical_flag_rejected(tmp_path, capsys, flag, value,
                                                    quantity):
    out = tmp_path / "bad_frame"
    code = run_cli("simulate", "--floors", 2, "--samples", 64, flag, value,
                   "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"{quantity} must be finite" in err[0]
    assert not out.exists() or listing(out) == []


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_rejected(sim_dir, tmp_path, capsys, tol):
    out = tmp_path / "bad_tol"
    code = run_cli("identify", "--input", sim_dir / "response.csv", "--block-rows", 8,
                   "--order", 4, "--engine", "vb", "--tol", tol, "--seed", 1,
                   "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("error:")
    assert "elbo_rel_tol must be finite and positive" in err[0]
    assert not out.exists() or listing(out) == []


def test_stabilise_order_zero_rejected(sim_dir, tmp_path, capsys):
    out = tmp_path / "order_zero"
    code = run_cli("stabilise", "--input", sim_dir / "response.csv", "--block-rows", 8,
                   "--order", 0, "--draws", 10, "--seed", 1, "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and err[0].startswith("error:")
    assert "model order" in err[0] and "got 0" in err[0]
    assert not out.exists() or listing(out) == []


def test_gibbs_retention_keeping_nothing_rejected_before_any_sweep(
        sim_dir, tmp_path, capsys, monkeypatch):
    import bayes_ssi.cli as cli_mod

    def sampler_must_not_run(*args):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(cli_mod, "run_gibbs", sampler_must_not_run)
    out = tmp_path / "no_records"
    code = run_cli("identify", "--input", sim_dir / "response.csv", "--block-rows", 8,
                   "--order", 4, "--engine", "gibbs", "--samples", 10, "--thin", 20,
                   "--seed", 1, "--out", out)
    assert code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert len(err) == 1 and "retention policy keeps no samples" in err[0]
    assert not out.exists()


class TestJitterWarning:
    """A duplicated or constant channel makes both view auto-covariances
    singular; the command still runs and says once per view that it added
    jitter."""

    @pytest.mark.parametrize("channel", ["duplicated", "constant"])
    def test_singular_view_warns_once_per_view(self, sim_dir, tmp_path, channel):
        data = np.loadtxt(sim_dir / "response.csv", delimiter=",", skiprows=1)
        extra = data[:, 0] if channel == "duplicated" else np.full(len(data), 0.25)
        raw = tmp_path / "singular.csv"
        np.savetxt(raw, np.column_stack([data, extra]), delimiter=",", fmt="%.17g")
        result = run_cli_process("identify", "--input", raw, "--fs", 50,
                                 "--block-rows", 10, "--order", 8, "--engine", "ssi",
                                 "--seed", 1, "--out", tmp_path / "out")
        assert result.returncode == 0, result.stderr
        err = result.stderr.splitlines()
        assert len(err) == 2, err
        for line, view in zip(err, ("first", "second")):
            assert line.startswith(f"{view}-view auto-covariance is not positive "
                                   "definite: added diagonal jitter 1e-12 x trace/dim")

    def test_acceptance_record_prints_nothing(self, benchmark_ts_full, tmp_path):
        record = tmp_path / "acceptance.csv"
        write_timeseries_csv(record, benchmark_ts_full)
        result = run_cli_process("identify", "--input", record, "--fs", 50,
                                 "--block-rows", 15, "--order", 8, "--engine", "ssi",
                                 "--seed", 1234, "--out", tmp_path / "out")
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


class TestSpectrum:
    def test_psd_csv_layout(self, sim_dir, tmp_path):
        out = tmp_path / "spec"
        code = run_cli("spectrum", "--input", sim_dir / "response.csv",
                       "--segment", 512, "--seed", 0, "--out", out)
        assert code == 0
        table = read_matrix_csv(out / "psd.csv", skip_header=True)
        # frequency + 4 channels + sum
        assert table.shape[1] == 6
        assert table[:, 1:].min() >= 0.0
        assert table[0, 0] == 0.0
        assert table[-1, 0] == pytest.approx(25.0)


class TestPriorConfig:
    def test_scalar_shorthand_expands(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "weight_cov": 2.0, "noise_scale": [1.0, 3.0], "noise_dof": 40.0,
        }))
        overrides = load_prior_overrides(path)
        priors = build_priors(4, 4, 2, overrides)
        assert priors.weight_cov == pytest.approx(2.0 * np.eye(8))
        assert priors.noise_scale[0] == pytest.approx(np.eye(4))
        assert priors.noise_scale[1] == pytest.approx(3.0 * np.eye(4))
        assert priors.noise_dof == (40.0, 40.0)

    def test_full_matrix_accepted(self, tmp_path):
        mat = (2.0 * np.eye(8)).tolist()
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"mean_cov": mat}))
        priors = build_priors(4, 4, 2, load_prior_overrides(path))
        assert priors.mean_cov == pytest.approx(2.0 * np.eye(8))

    def test_noise_dof_needs_one_entry_per_view(self):
        assert build_priors(3, 3, 2, {"noise_dof": [70, 80]}).noise_dof == (70.0, 80.0)
        for value in ([70], [70, 80, 90]):
            with pytest.raises(ValueError, match="noise_dof"):
                build_priors(3, 3, 2, {"noise_dof": value})

    def test_noise_scale_read_by_rank(self):
        # a 2x2 matrix for views of dimension 2 is one prior shared by both
        # views, not two per-view rows; other two-element lists are per view
        shared = build_priors(2, 2, 1, {"noise_scale": [[1, 0], [0, 2]]})
        for scale in shared.noise_scale:
            assert scale == pytest.approx(np.diag([1.0, 2.0]))
        per_view = build_priors(2, 2, 1, {"noise_scale": [[[1, 0], [0, 2]], 3.0]})
        assert per_view.noise_scale[0] == pytest.approx(np.diag([1.0, 2.0]))
        assert per_view.noise_scale[1] == pytest.approx(3.0 * np.eye(2))
        with pytest.raises(ValueError, match="noise_scale"):
            build_priors(2, 2, 1, {"noise_scale": [1.0, 2.0, 3.0]})

    def test_defaults_written_compactly(self):
        assert prior_overrides(build_priors(4, 4, 2)) == {
            "mean_loc": 0.0, "mean_cov": 1.0, "weight_loc": 0.0, "weight_cov": 1.0,
            "noise_scale": [100.0, 100.0], "noise_dof": [6.0, 6.0]}

    @pytest.mark.parametrize("view_dims, order, overrides", ROUND_TRIP_PRIORS,
                             ids=["defaults", "scalar-shorthand", "per-view-noise",
                                  "full-matrices", "1x1-views", "2x2-shared-matrix"])
    def test_prior_file_round_trip_exact(self, view_dims, order, overrides):
        p = build_priors(*view_dims, order, overrides)
        back = build_priors(*p.view_dims, p.latent_dim,
                            json.loads(json.dumps(prior_overrides(p))))
        for field in dataclasses.fields(p):
            a, b = getattr(p, field.name), getattr(back, field.name)
            if field.name == "noise_scale":
                assert len(a) == len(b)
                assert all(np.array_equal(x, y) for x, y in zip(a, b))
            else:
                assert np.array_equal(a, b), field.name

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"bogus": 1.0}))
        with pytest.raises(ValueError, match="unknown prior keys"):
            load_prior_overrides(path)
