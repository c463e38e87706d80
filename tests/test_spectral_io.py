import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import signal

from bayes_ssi.gibbs import GibbsConfig, run_gibbs
from bayes_ssi.io import (
    CSV_BLOCK_ROWS,
    ingest_csv,
    load_chain,
    save_chain,
    save_vb_posterior,
    write_array,
    write_matrix_csv,
    write_timeseries_csv,
)
from bayes_ssi.model import default_priors
from bayes_ssi.simulate import TimeSeries
from bayes_ssi.spectral import welch_psd
from bayes_ssi.vb import VBConfig, run_vb

import oracles
from explicit import hankel_stats, read_matrix_csv


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


@st.composite
def welch_cases(draw):
    """(record length, segment length, overlap): odd and even segments
    down to 2, segments as long as the record, no overlap and overlaps
    near 1."""
    n = draw(st.integers(2, 700))
    segment = draw(st.one_of(st.just(2), st.just(n), st.integers(2, n)))
    overlap = draw(st.one_of(st.just(0.0), st.floats(0.95, 0.999),
                             st.floats(0.0, 0.999)))
    return n, segment, overlap


class TestWelchAgainstScipy:
    @settings(max_examples=150, deadline=None)
    @given(case=welch_cases(), channels=st.integers(1, 4),
           fs=st.floats(0.5, 2000.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_welch(self, case, channels, fs, seed):
        n, segment, overlap = case
        gen = np.random.default_rng(seed)
        means = gen.uniform(-10.0, 10.0, (channels, 1))
        data = means + gen.uniform(0.1, 5.0, (channels, 1)) * gen.standard_normal(
            (channels, n))
        spec = welch_psd(TimeSeries(data=data, fs=fs), segment_length=segment,
                         overlap=overlap)
        freqs, psd = signal.welch(data, fs=fs, window="hann", nperseg=segment,
                                  noverlap=int(overlap * segment),
                                  detrend="constant", scaling="density", axis=1)
        assert np.array_equal(spec.frequencies, freqs)
        assert np.abs(spec.psd - psd).max() <= 1e-12 * np.abs(psd).max()
        assert np.array_equal(spec.psd_sum, spec.psd.sum(axis=0))


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

    @pytest.mark.parametrize("first", ["0.1,0.2", '"0.1",0.2'])
    def test_byte_order_mark_keeps_numeric_first_row(self, tmp_path, first):
        # the quoted cell takes the cell-by-cell reader
        path = tmp_path / "rec.csv"
        path.write_bytes(b"\xef\xbb\xbf" + f"{first}\n0.3,0.4\n0.5,0.6\n".encode())
        ts = ingest_csv(path, fs=1.0)
        assert np.array_equal(ts.data, np.array([[0.1, 0.3, 0.5], [0.2, 0.4, 0.6]]))

    def test_byte_order_mark_before_header_skips_only_header(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_bytes(b"\xef\xbb\xbfch1,ch2\n0.3,0.4\n0.5,0.6\n")
        ts = ingest_csv(path, fs=1.0)
        assert np.array_equal(ts.data, np.array([[0.3, 0.5], [0.4, 0.6]]))

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

    @pytest.mark.parametrize("fs", [0.0, np.nan, np.inf])
    def test_bad_fs_rejected(self, tmp_path, fs):
        path = tmp_path / "rec.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match="fs must be finite and positive"):
            ingest_csv(path, fs=fs)

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


INGEST_CASES = {
    "crlf": "a,b\r\n1.5,2\r\n-3e-7,4\r\n",
    "carriage_returns_only": "1,2\r3,4\r",
    "blank_lines_between_rows": "1,2\n\n\n3,4\n\n",
    "blank_line_before_header": "\n\ntime,accel\n1,2\n3,4\n",
    "quoted_header_over_two_lines": '"time\n(s)",accel\n1,2\n3,4\n',
    "quoted_numeric_cells": '"1.0","2.5"\n3,"4"\n',
    "hash_inside_cell": "1,2#3\n4,5\n",
    "hash_in_header": "# a,b\n1,2\n",
    "leading_trailing_spaces": " 1.0, 2.0 \n3.0 ,\t4.0\n",
    "whitespace_only_line": "1,2\n  \n3,4\n",
    "empty_cell": "1,2\n3,\n",
    "trailing_comma": "1,2,\n3,4,\n",
    "nan_row": "1,2\n3,nan\n5,6\n",
    "inf_row_below_header": "h1,h2\n1,2\n-inf,3\n",
    "ragged_row": "1,2\n3\n4,5\n",
    "header_only": "a,b\n",
    "header_then_blank_lines": "a,b\n\n\n",
    "empty": "",
    "blank_lines_only": "\n\n",
    "one_row": "1.25,2.5,3.75\n",
    "one_column": "x\n1\n2\n3\n",
    "no_final_newline": "1,2\n3,4",
    "exponents_and_signs": "+1e5,-.5\n5.,1E-3\n",
}


class TestIngestFastPath:
    """``ingest_csv`` returns the row-by-row reading's array bit for bit, or
    raises its message."""

    @pytest.mark.parametrize("name", sorted(INGEST_CASES))
    def test_matches_row_reading(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(INGEST_CASES[name].encode())
        try:
            expected = oracles.csv_rows_reading(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                ingest_csv(path, fs=1.0)
            assert str(raised.value) == str(exc)
        else:
            ts = ingest_csv(path, fs=1.0)
            assert ts.data.shape == expected.T.shape
            assert np.array_equal(ts.data.view(np.uint64), expected.T.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(bits=arrays(np.uint64, st.tuples(st.integers(1, 30), st.integers(1, 5))))
    def test_random_bit_patterns_round_trip(self, tmp_path_factory, bits):
        values = bits.view(np.float64).copy()
        values[~np.isfinite(values)] = 0.0
        path = tmp_path_factory.mktemp("bits") / "rec.csv"
        write_timeseries_csv(path, TimeSeries(data=values.T, fs=1.0))
        back = ingest_csv(path, fs=1.0)
        assert np.array_equal(back.data.view(np.uint64), values.T.view(np.uint64))


# arrays whose CSV text must be np.savetxt's, byte for byte
SAVETXT_CASES = {
    "no_rows": np.empty((0, 3)),
    "negative_zero": np.array([[-0.0, 0.0], [1.0, -0.0]]),
    "subnormals": np.array([[5e-324, -2.2250738585072e-308, 1e-310]]),
    "non_finite": np.array([[np.nan, np.inf], [-np.inf, -np.nan]]),
    "one_dimensional": np.array([0.1, -2.5e17, 3.0]),
    "empty_one_dimensional": np.array([]),
    "blocks_and_a_tail": np.random.default_rng(12).standard_normal(
        (2 * CSV_BLOCK_ROWS + 7, 3)) * 10.0 ** np.arange(-150, 150, 100),
}


def savetxt_bytes(path, mat, header=None) -> bytes:
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        np.savetxt(fh, np.atleast_2d(mat), fmt="%.17g", delimiter=",")
    return path.read_bytes()


class TestCsvBytes:
    """The CSV writers emit exactly the bytes of ``np.savetxt`` with 17
    significant digits."""

    @pytest.mark.parametrize("name", sorted(SAVETXT_CASES))
    def test_matrix_matches_savetxt(self, tmp_path, name):
        mat = SAVETXT_CASES[name]
        for header in (None, ["a", "b"]):
            write_matrix_csv(tmp_path / "m.csv", mat, header=header)
            assert (tmp_path / "m.csv").read_bytes() == \
                savetxt_bytes(tmp_path / "ref.csv", mat, header)

    @pytest.mark.parametrize("name", ["no_rows", "subnormals", "blocks_and_a_tail"])
    def test_timeseries_matches_savetxt(self, tmp_path, name):
        rows = SAVETXT_CASES[name]
        write_timeseries_csv(tmp_path / "ts.csv", TimeSeries(data=rows.T, fs=1.0))
        header = [f"ch{i + 1}" for i in range(rows.shape[1])]
        assert (tmp_path / "ts.csv").read_bytes() == \
            savetxt_bytes(tmp_path / "ref.csv", rows, header)


class TestWriteArray:
    @pytest.mark.parametrize("arr", [np.arange(6.0).reshape(3, 2),
                                     np.array([[1 + 2j, -0.5j]]),
                                     np.empty((0, 4), dtype=complex)])
    def test_round_trip_exact(self, tmp_path, arr):
        write_array(tmp_path / "a.npy", arr)
        back = np.load(tmp_path / "a.npy", allow_pickle=False)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        assert np.array_equal(back, arr)

    @pytest.mark.parametrize("arr", [np.arange(3), np.ones(3, dtype=np.float32)])
    def test_other_dtypes_rejected(self, tmp_path, arr):
        with pytest.raises(TypeError, match=str(arr.dtype)):
            write_array(tmp_path / "a.npy", arr)
        assert not (tmp_path / "a.npy").exists()


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
        stats = hankel_stats(gen.standard_normal((4, 50)), (2, 2))
        priors = default_priors(2, 2, 2)
        chain = run_gibbs(stats, priors, GibbsConfig(n_samples=20, seed=9))
        save_chain(tmp_path / "chain", chain)
        back = load_chain(tmp_path / "chain")
        assert np.array_equal(back.weight_samples, chain.weight_samples)
        assert np.array_equal(back.mean_samples, chain.mean_samples)
        for a, b in zip(back.noise_samples, chain.noise_samples):
            assert np.array_equal(a, b)
        assert back.config == chain.config
        assert back.factor_blocks == chain.factor_blocks == (2, 2)

    def test_manifest_lists_array_shapes(self, tmp_path):
        gen = np.random.default_rng(6)
        stats = hankel_stats(gen.standard_normal((4, 30)), (2, 2))
        priors = default_priors(2, 2, 1)
        chain = run_gibbs(stats, priors, GibbsConfig(n_samples=10, seed=1))
        save_chain(tmp_path / "chain", chain)
        manifest = json.loads((tmp_path / "chain" / "chain_manifest.json").read_text())
        assert manifest["n_records"] == 8
        assert manifest["arrays"] == {"w_samples": [8, 4, 1], "mu_samples": [8, 4],
                                      "sigma_view1_samples": [8, 3],
                                      "sigma_view2_samples": [8, 3]}
        assert manifest["noise_layout"] == "lower triangle, numpy.tril_indices order"
        weights = np.load(tmp_path / "chain" / "w_samples.npy", allow_pickle=False)
        assert np.array_equal(weights, chain.weight_samples)

    def test_full_noise_stack_rejected(self, tmp_path):
        # a container holding full n x D_m x D_m noise stacks, as written
        # before the packed layout, is refused with the file and both shapes
        gen = np.random.default_rng(7)
        stats = hankel_stats(gen.standard_normal((5, 30)), (2, 3))
        chain = run_gibbs(stats, default_priors(2, 3, 1), GibbsConfig(n_samples=10, seed=1))
        save_chain(tmp_path / "chain", chain)
        path = tmp_path / "chain" / "sigma_view2_samples.npy"
        np.save(path, chain.noise_matrices(1), allow_pickle=False)
        with pytest.raises(ValueError, match=r"sigma_view2_samples\.npy: expected shape "
                           r"\(8, 6\) .*found \(8, 3, 3\)"):
            load_chain(tmp_path / "chain")

    def test_config_written_before_warm_start_loads_with_default(self, tmp_path):
        gen = np.random.default_rng(8)
        stats = hankel_stats(gen.standard_normal((4, 30)), (2, 2))
        config = GibbsConfig(n_samples=10, burn_in_fraction=0.5, thinning=2, seed=3)
        save_chain(tmp_path / "chain", run_gibbs(stats, default_priors(2, 2, 1), config))
        path = tmp_path / "chain" / "chain_manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["config"] == {"n_samples": 10, "burn_in_fraction": 0.5,
                                      "thinning": 2, "seed": 3, "warm_start": False}
        del manifest["config"]["warm_start"]
        path.write_text(json.dumps(manifest))
        assert load_chain(tmp_path / "chain").config == config


class TestVbPersistence:
    def test_files_written_with_trace(self, tmp_path):
        gen = np.random.default_rng(7)
        stats = hankel_stats(gen.standard_normal((4, 40)), (2, 2))
        priors = default_priors(2, 2, 1)
        post = run_vb(stats, priors, VBConfig(max_iter=20, elbo_rel_tol=1e-9, seed=2))
        out = save_vb_posterior(tmp_path / "vb", post)
        for name in ("vb_manifest.json", "weight_mean.npy", "weight_basis_block0.npy",
                     "weight_basis_block1.npy", "weight_eigs.npy",
                     "latent_cov.npy", "latent_map.npy", "latent_centre.npy",
                     "mean_loc.npy", "mean_cov_block0.npy", "mean_cov_block1.npy",
                     "noise_scale_view1.npy", "noise_scale_view2.npy", "elbo_trace.npy"):
            assert (out / name).exists()
        trace = np.load(out / "elbo_trace.npy", allow_pickle=False)
        assert trace.size == post.n_iter
        weight_back = np.load(out / "weight_mean.npy", allow_pickle=False)
        assert np.array_equal(weight_back, post.weight_mean)
        assert not (out / "weight_cov.npy").exists()
        eigs = np.load(out / "weight_eigs.npy", allow_pickle=False)
        for b, block in enumerate(post.weight_basis):
            basis = np.load(out / f"weight_basis_block{b}.npy", allow_pickle=False)
            assert np.array_equal(basis, block)
        assert np.array_equal(eigs, post.weight_eigs)

    @pytest.mark.parametrize("case", ["default", "unequal", "coupled"])
    def test_one_file_per_factor_block(self, tmp_path, case):
        # the basis and the mean covariance are stored as the posterior
        # holds them: one h_b x h_b file per factor block, named in the
        # manifest's factor_blocks; no D x D file
        view_dims = (2, 3) if case == "unequal" else (2, 2)
        total = sum(view_dims)
        gen = np.random.default_rng(8)
        stats = hankel_stats(gen.standard_normal((total, 40)), view_dims)
        priors = default_priors(*view_dims, 1)
        if case == "coupled":
            mean_cov = np.eye(total)
            mean_cov[0, -1] = mean_cov[-1, 0] = 0.2
            priors = dataclasses.replace(priors, mean_cov=mean_cov)
        blocks = [total] if case == "coupled" else list(view_dims)
        post = run_vb(stats, priors, VBConfig(max_iter=5, seed=2))
        out = save_vb_posterior(tmp_path / "vb", post)
        manifest = json.loads((out / "vb_manifest.json").read_text())
        assert manifest["factor_blocks"] == blocks
        for b, dim in enumerate(blocks):
            for name in ("weight_basis", "mean_cov"):
                arr = np.load(out / f"{name}_block{b}.npy", allow_pickle=False)
                assert arr.shape == (dim, dim)
                assert manifest["arrays"][f"{name}_block{b}"] == [dim, dim]
        assert not (out / f"weight_basis_block{len(blocks)}.npy").exists()
        assert not (out / "weight_basis.npy").exists()
        assert not (out / "mean_cov.npy").exists()
