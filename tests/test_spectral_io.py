import json

import numpy as np
import pytest

from bayes_ssi.gibbs import GibbsConfig, run_gibbs
from bayes_ssi.io import (
    ingest_csv,
    load_chain,
    read_matrix_csv,
    save_chain,
    save_vb_posterior,
    write_matrix_csv,
    write_timeseries_csv,
)
from bayes_ssi.model import StackedData, default_priors
from bayes_ssi.simulate import TimeSeries
from bayes_ssi.spectral import welch_psd
from bayes_ssi.vb import VBConfig, run_vb


class TestWelch:
    def test_sine_peak_bin(self):
        fs, f0 = 50.0, 4.0
        t = np.arange(20_000) / fs
        ts = TimeSeries(data=np.sin(2 * np.pi * f0 * t)[None, :], fs=fs)
        spec = welch_psd(ts, segment_length=1024)
        peak = spec.frequencies[np.argmax(spec.psd_sum)]
        assert peak == pytest.approx(f0, abs=spec.frequencies[1])

    def test_white_noise_integral_matches_variance(self):
        gen = np.random.default_rng(0)
        ts = TimeSeries(data=gen.standard_normal((1, 2**16)), fs=10.0)
        spec = welch_psd(ts, segment_length=1024)
        integral = np.trapezoid(spec.psd[0], spec.frequencies)
        assert integral == pytest.approx(1.0, rel=0.05)

    def test_zero_signal_zero_psd(self):
        ts = TimeSeries(data=np.zeros((2, 4096)), fs=10.0)
        spec = welch_psd(ts)
        assert np.all(spec.psd == 0.0)
        assert np.all(spec.psd_sum == 0.0)

    def test_grid_spans_zero_to_nyquist(self):
        gen = np.random.default_rng(1)
        ts = TimeSeries(data=gen.standard_normal((3, 4096)), fs=32.0)
        spec = welch_psd(ts, segment_length=256)
        assert spec.frequencies[0] == 0.0
        assert spec.frequencies[-1] == pytest.approx(16.0)
        assert np.all(spec.psd >= 0.0)
        assert spec.psd_sum == pytest.approx(spec.psd.sum(axis=0))

    def test_segment_longer_than_record_rejected(self):
        ts = TimeSeries(data=np.zeros((1, 100)), fs=1.0)
        with pytest.raises(ValueError, match="segment_length"):
            welch_psd(ts, segment_length=256)


class TestIngestCsv:
    def test_plain_rectangular(self, tmp_path):
        path = tmp_path / "rec.csv"
        gen = np.random.default_rng(2)
        data = gen.standard_normal((100, 3))
        np.savetxt(path, data, delimiter=",")
        ts = ingest_csv(path, fs=50.0)
        assert ts.channels == 3
        assert ts.n_samples == 100
        assert ts.fs == 50.0
        assert ts.data == pytest.approx(data.T)

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        ts = ingest_csv(path, fs=1.0)
        assert ts.data == pytest.approx(np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_nan_names_row(self, tmp_path):
        path = tmp_path / "rec.csv"
        rows = ["0.0,0.0"] * 30
        rows[16] = "0.0,nan"  # data row 17, 1-based
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="row 17"):
            ingest_csv(path, fs=1.0)

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match="ragged row 2"):
            ingest_csv(path, fs=1.0)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match="row 2"):
            ingest_csv(path, fs=1.0)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(path, fs=1.0)

    def test_write_then_ingest_roundtrip_bit_exact(self, tmp_path):
        gen = np.random.default_rng(3)
        ts = TimeSeries(data=gen.standard_normal((4, 200)), fs=50.0)
        path = tmp_path / "out.csv"
        write_timeseries_csv(path, ts)
        back = ingest_csv(path, fs=50.0)
        assert np.array_equal(back.data, ts.data)


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        gen = np.random.default_rng(4)
        mat = gen.standard_normal((7, 3)) * np.exp(gen.uniform(-20, 20, (7, 3)))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        assert np.array_equal(read_matrix_csv(path), mat)

    def test_header_skip(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.eye(2), header=["a", "b"])
        assert np.array_equal(read_matrix_csv(path, skip_header=True), np.eye(2))


class TestChainPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        gen = np.random.default_rng(5)
        data = StackedData(x=gen.standard_normal((4, 50)), view_dims=(2, 2))
        priors = default_priors(2, 2, 2)
        chain = run_gibbs(data, priors, GibbsConfig(n_samples=20, seed=9))
        save_chain(tmp_path / "chain", chain)
        back = load_chain(tmp_path / "chain")
        assert np.array_equal(back.weight_samples, chain.weight_samples)
        assert np.array_equal(back.mean_samples, chain.mean_samples)
        for a, b in zip(back.noise_samples, chain.noise_samples):
            assert np.array_equal(a, b)
        assert back.config == chain.config

    def test_manifest_documents_vectorization(self, tmp_path):
        gen = np.random.default_rng(6)
        data = StackedData(x=gen.standard_normal((4, 30)), view_dims=(2, 2))
        priors = default_priors(2, 2, 1)
        chain = run_gibbs(data, priors, GibbsConfig(n_samples=10, seed=1))
        save_chain(tmp_path / "chain", chain)
        manifest = json.loads((tmp_path / "chain" / "chain_manifest.json").read_text())
        assert manifest["vectorization"] == "column-major"
        assert manifest["n_records"] == 8
        rows = read_matrix_csv(tmp_path / "chain" / "w_samples.csv")
        assert rows.shape == (8, 4 * 1)


class TestVbPersistence:
    def test_files_written_with_trace(self, tmp_path):
        gen = np.random.default_rng(7)
        data = StackedData(x=gen.standard_normal((4, 40)), view_dims=(2, 2))
        priors = default_priors(2, 2, 1)
        post = run_vb(data.stats(), priors, VBConfig(max_iter=20, elbo_rel_tol=1e-9, seed=2))
        out = save_vb_posterior(tmp_path / "vb", post)
        for name in ("vb_manifest.json", "weight_mean.csv", "weight_cov.csv",
                     "latent_cov.csv", "latent_map.csv", "latent_centre.csv",
                     "mean_loc.csv",
                     "mean_cov.csv", "noise_scale_view1.csv",
                     "noise_scale_view2.csv", "elbo_trace.csv"):
            assert (out / name).exists()
        trace = read_matrix_csv(out / "elbo_trace.csv")
        assert trace.size == post.n_iter
        weight_back = read_matrix_csv(out / "weight_mean.csv")
        assert np.array_equal(weight_back, post.weight_mean)
