import json
from pathlib import Path

import numpy as np
import pytest

from bayes_ssi.cli import build_priors, load_prior_overrides, main
from bayes_ssi.io import read_matrix_csv


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """A small simulated record shared by the CLI tests."""
    out = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--floors", 4, "--samples", 4096, "--fs", 50,
                   "--seed", 7, "--out", out)
    assert code == 0
    return out


def listing(path):
    return sorted(p.name for p in Path(path).iterdir())


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
                         "run_manifest.json", "mode_01_draws.csv"):
            assert required in names
        trace = read_matrix_csv(out / "elbo_trace.csv", skip_header=True)[:, 0]
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
        summary = json.loads((out / "modes_summary.json").read_text())
        assert summary["n_draws"] == 200
        draws = read_matrix_csv(out / "mode_01_draws.csv", skip_header=True)
        assert draws.shape[1] == 2

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

    def test_vb_not_converged_reported(self, sim_dir, tmp_path, capsys):
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
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "max_iter=2" in err[0]

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

    def test_engine_failure_cleans_partial_artifacts(self, sim_dir, tmp_path):
        # order larger than the Hankel half-height fails after config.json
        # is staged; the directory must be left clean
        out = tmp_path / "fail"
        code = run_cli("identify", "--input", sim_dir / "response.csv",
                       "--block-rows", 2, "--order", 50, "--engine", "ssi",
                       "--seed", 1, "--out", out)
        assert code == 1
        assert listing(out) == []


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

    def test_not_converged_status_per_order(self, sim_dir, tmp_path, capsys):
        out = tmp_path / "stab_short"
        code = run_cli("stabilise", "--input", sim_dir / "response.csv",
                       "--block-rows", 8, "--order", 2, "--order", 4,
                       "--draws", 10, "--max-iter", 2, "--seed", 5, "--out", out)
        assert code == 0
        diagnostics = json.loads((out / "run_manifest.json").read_text())["diagnostics"]
        assert {order: diag["status"] for order, diag in diagnostics.items()} == {
            "2": "not_converged", "4": "not_converged"}
        assert len(capsys.readouterr().err.strip().splitlines()) == 2

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
                raise RuntimeError("synthetic engine failure")
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

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"bogus": 1.0}))
        with pytest.raises(ValueError, match="unknown prior keys"):
            load_prior_overrides(path)
