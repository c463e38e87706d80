import logging

import numpy as np
import pytest

from bayes_ssi.gibbs import GibbsChain, GibbsConfig
from bayes_ssi.modal_posterior import (
    ModalSample,
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    mac,
    phase_align,
    propagate_many,
    propagate_to_modal,
    stabilisation,
    summarize,
)
from bayes_ssi.rng import Rng
from bayes_ssi.subspace import ModalSet, modal_from_state_matrix
from bayes_ssi.vb import VBConfig, VBPosterior

import oracles


def make_vb_posterior(gen, d1, d2, d, w_scale=0.0):
    total = d1 + d2
    w_cov = np.zeros((d, total, total))
    for i in range(d):
        w_cov[i] = w_scale * np.eye(total)
    return VBPosterior(
        latent_cov=np.eye(d), latent_map=np.zeros((d, total)),
        latent_centre=np.zeros(total),
        weight_mean=gen.standard_normal((total, d)),
        weight_cov=w_cov, mean_loc=np.zeros(total),
        mean_cov=np.eye(total), noise_scale=[np.eye(d1), np.eye(d2)],
        noise_dof=[d1 + 2.0, d2 + 2.0], view_dims=(d1, d2),
    )


def stable_modal_set(gen, n_modes=2, l=3, dt=0.02):
    """Modal set built from a random stable state matrix."""
    angles = np.sort(gen.uniform(0.2, 2.5, n_modes))
    radii = gen.uniform(0.93, 0.99, n_modes)
    blocks = []
    for ang, rad in zip(angles, radii):
        blocks.append(rad * np.array([[np.cos(ang), np.sin(ang)],
                                      [-np.sin(ang), np.cos(ang)]]))
    a = np.zeros((2 * n_modes, 2 * n_modes))
    for k, blk in enumerate(blocks):
        a[2 * k:2 * k + 2, 2 * k:2 * k + 2] = blk
    c_out = gen.standard_normal((l, 2 * n_modes))
    return a, c_out, modal_from_state_matrix(a, c_out, dt)


class TestMac:
    def test_identical_vectors(self):
        v = np.array([1.0 + 0.2j, -0.5, 0.3j])
        assert mac(v, 3.7j * v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert mac(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_phase_align_real_maximal_unit_norm(self):
        gen = np.random.default_rng(0)
        v = gen.standard_normal(4) + 1j * gen.standard_normal(4)
        aligned = phase_align(v)
        assert np.linalg.norm(aligned) == pytest.approx(1.0)
        # no further rotation improves the summed squared real part
        base = np.sum(aligned.real**2)
        for phi in np.linspace(0.05, 3.1, 25):
            assert np.sum((aligned * np.exp(-1j * phi)).real ** 2) <= base + 1e-12


class TestDrawSamples:
    def test_degenerate_covariance_returns_mean(self):
        gen = np.random.default_rng(1)
        post = make_vb_posterior(gen, 6, 6, 2, w_scale=0.0)
        draws = draw_observability_samples(post, 5, Rng(0, 3))
        for k in range(5):
            assert draws[k] == pytest.approx(post.weight_mean[:6])

    def test_sample_mean_approaches_factor_mean(self):
        gen = np.random.default_rng(2)
        post = make_vb_posterior(gen, 4, 4, 2, w_scale=0.04)
        n = 10_000
        draws = draw_observability_samples(post, n, Rng(1, 3))
        se = 0.2 / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - post.weight_mean[:4]) < 3 * se)

    def test_large_draw_count_shapes(self):
        gen = np.random.default_rng(3)
        post = make_vb_posterior(gen, 8, 8, 4, w_scale=0.01)
        draws = draw_observability_samples(post, 4000, Rng(2, 3))
        assert draws.shape == (4000, 8, 4)

    def test_deterministic_given_stream(self):
        gen = np.random.default_rng(4)
        post = make_vb_posterior(gen, 4, 4, 2, w_scale=0.01)
        a = draw_observability_samples(post, 3, Rng(9, 3))
        b = draw_observability_samples(post, 3, Rng(9, 3))
        assert np.array_equal(a, b)


class TestChainSamples:
    def _chain(self, gen, n_records):
        weights = gen.standard_normal((n_records, 6, 2))
        return GibbsChain(
            weight_samples=weights,
            mean_samples=gen.standard_normal((n_records, 6)),
            noise_samples=[gen.standard_normal((n_records, 3, 3)) for _ in range(2)],
            view_dims=(3, 3),
            config=GibbsConfig(n_samples=n_records, burn_in_fraction=0.0),
        )

    def test_record_count_and_order(self):
        gen = np.random.default_rng(5)
        chain = self._chain(gen, 7)
        obs = chain_observability_samples(chain)
        assert obs.shape == (7, 3, 2)
        assert obs[4] == pytest.approx(chain.weight_samples[4, :3])

    def test_single_record(self):
        gen = np.random.default_rng(6)
        obs = chain_observability_samples(self._chain(gen, 1))
        assert obs.shape == (1, 3, 2)

    def test_empty_chain_rejected(self):
        gen = np.random.default_rng(7)
        with pytest.raises(ValueError):
            chain_observability_samples(self._chain(gen, 0))


class TestPropagate:
    def test_forward_construction_roundtrip(self):
        gen = np.random.default_rng(8)
        a0, c0, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        obs = oracles.observability_forward(a0, c0, 5)
        sample = propagate_to_modal(obs, 3, 0.02)
        keep = ~sample.modal.real_pole
        ref = ~modal0.real_pole
        assert sample.modal.frequencies[keep] == pytest.approx(
            modal0.frequencies[ref], rel=1e-8)
        assert sample.modal.damping_ratios[keep] == pytest.approx(
            modal0.damping_ratios[ref], rel=1e-8)

    def test_similarity_transform_invariance(self):
        gen = np.random.default_rng(9)
        a0, c0, _ = stable_modal_set(gen, n_modes=2, l=3)
        obs = oracles.observability_forward(a0, c0, 5)
        rot = gen.standard_normal((4, 4)) + 3 * np.eye(4)
        plain = propagate_to_modal(obs, 3, 0.02)
        rotated = propagate_to_modal(obs @ rot, 3, 0.02)
        assert rotated.modal.frequencies == pytest.approx(
            plain.modal.frequencies, abs=1e-8)
        assert rotated.modal.damping_ratios == pytest.approx(
            plain.modal.damping_ratios, abs=1e-8)
        for j in range(plain.modal.n_modes):
            assert mac(plain.modal.mode_shapes[:, j],
                       rotated.modal.mode_shapes[:, j]) == pytest.approx(1.0, abs=1e-8)

    def test_degenerate_draws_excluded_and_counted(self, caplog):
        gen = np.random.default_rng(10)
        a0, c0, _ = stable_modal_set(gen, n_modes=2, l=3)
        good = oracles.observability_forward(a0, c0, 5)
        bad = np.zeros_like(good)
        bad[:, 0] = 1.0
        stack = np.stack([good, bad, good])
        with caplog.at_level(logging.WARNING):
            samples, n_excluded = propagate_many(stack, 3, 0.02, "vb", 4)
        assert n_excluded == 1
        assert len(samples) == 2
        assert "degenerate" in caplog.text

    def test_degenerate_draws_logged_as_one_count(self, caplog):
        gen = np.random.default_rng(11)
        a0, c0, _ = stable_modal_set(gen, n_modes=2, l=3)
        good = oracles.observability_forward(a0, c0, 5)
        bad = np.zeros_like(good)
        bad[:, 0] = 1.0
        stack = np.stack([bad, good, bad, bad, good, bad])
        with caplog.at_level(logging.WARNING, logger="bayes_ssi.modal_posterior"):
            _, n_excluded = propagate_many(stack, 3, 0.02, "vb", 4)
        assert n_excluded == 4
        assert len(caplog.records) == 1
        assert "excluded 4 of 6 draws" in caplog.records[0].getMessage()


class TestAlignModes:
    def test_identical_draws_full_mac(self):
        gen = np.random.default_rng(11)
        _, _, modal0 = stable_modal_set(gen, n_modes=3, l=4)
        samples = [ModalSample(index=k, modal=modal0, source="vb", order=6)
                   for k in range(5)]
        posterior = align_modes(samples, modal0)
        assert posterior.n_unassigned == 0
        for cluster in posterior.clusters:
            assert cluster.n_aligned == 5
            assert cluster.mac_scores == pytest.approx(np.ones(5))

    def test_permuted_modes_realigned(self):
        gen = np.random.default_rng(12)
        _, _, modal0 = stable_modal_set(gen, n_modes=3, l=4)
        perm = [2, 0, 1]
        permuted = ModalSet(
            frequencies=modal0.frequencies[perm],
            damping_ratios=modal0.damping_ratios[perm],
            mode_shapes=modal0.mode_shapes[:, perm],
            eigenvalues=modal0.eigenvalues[perm],
            real_pole=modal0.real_pole[perm],
        )
        posterior = align_modes(
            [ModalSample(index=0, modal=permuted, source="vb", order=6)], modal0)
        for cluster in posterior.clusters:
            assert cluster.n_aligned == 1
            assert cluster.frequencies[0] == pytest.approx(
                cluster.reference_frequency)

    def test_negative_damping_never_clipped(self):
        gen = np.random.default_rng(13)
        _, _, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        tweaked = ModalSet(
            frequencies=modal0.frequencies,
            damping_ratios=np.array([-0.01, modal0.damping_ratios[1]]),
            mode_shapes=modal0.mode_shapes,
            eigenvalues=modal0.eigenvalues,
            real_pole=modal0.real_pole,
        )
        posterior = align_modes(
            [ModalSample(index=0, modal=tweaked, source="vb", order=4)], modal0)
        summary = summarize(posterior)
        assert posterior.clusters[0].damping_ratios[0] == -0.01
        assert summary["modes"][0]["damping_negative_fraction"] == 1.0

    def test_empty_sample_list_rejected(self):
        gen = np.random.default_rng(14)
        _, _, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        with pytest.raises(ValueError):
            align_modes([], modal0)

    def test_summary_reports_exclusions(self):
        gen = np.random.default_rng(15)
        _, _, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        samples = [ModalSample(index=0, modal=modal0, source="gibbs", order=4)]
        posterior = align_modes(samples, modal0, n_excluded=3)
        summary = summarize(posterior)
        assert summary["n_draws"] == 4
        assert summary["n_excluded"] == 3
        assert summary["exclusion_rate"] == pytest.approx(0.75)


@pytest.fixture(scope="module")
def short_benchmark(benchmark_ts_full):
    from bayes_ssi.simulate import TimeSeries
    return TimeSeries(data=benchmark_ts_full.data[:, :2**11].copy(),
                      fs=benchmark_ts_full.fs)


class TestStabilisation:
    def test_single_order_matches_direct_pipeline(self, short_benchmark):
        cfg = VBConfig(max_iter=60, elbo_rel_tol=1e-6, seed=3)
        result = stabilisation(short_benchmark, 6, [4], cfg, n_draws=40)
        assert result.failures == {}
        assert set(np.unique(result.orders)) == {4}
        assert np.all(result.frequencies > 0)
        assert result.frequencies.size == result.damping_ratios.size

    def test_multiple_orders_collects_triples(self, short_benchmark):
        cfg = VBConfig(max_iter=60, elbo_rel_tol=1e-6, seed=3)
        result = stabilisation(short_benchmark, 6, [2, 4, 6], cfg, n_draws=25)
        assert result.requested_orders == (2, 4, 6)
        assert set(np.unique(result.orders)) <= {2, 4, 6}
        # non-conjugate entries removed: all retained frequencies strictly
        # inside (0, fs/2)
        assert np.all(result.frequencies > 0)
        assert np.all(result.frequencies < short_benchmark.fs / 2)

    def test_order_exceeding_half_height_rejected(self, short_benchmark):
        cfg = VBConfig(max_iter=10, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            stabilisation(short_benchmark, 2, [2, 50], cfg)

    def test_per_order_failure_recorded_run_continues(self, short_benchmark):
        cfg = VBConfig(max_iter=5, elbo_rel_tol=1e-6, seed=3)

        def flaky_priors(d1, d2, order):
            if order == 4:
                raise RuntimeError("boom")
            from bayes_ssi.model import default_priors
            return default_priors(d1, d2, order)

        result = stabilisation(short_benchmark, 6, [2, 4], cfg, n_draws=10,
                               priors_factory=flaky_priors)
        assert 4 in result.failures and "boom" in result.failures[4]
        assert set(np.unique(result.orders)) == {2}

    def test_programming_error_propagates(self, short_benchmark, monkeypatch):
        import bayes_ssi.modal_posterior as mp

        def broken_run_vb(stats, priors, config):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(mp, "run_vb", broken_run_vb)
        cfg = VBConfig(max_iter=5, seed=3)
        with pytest.raises(TypeError, match="synthetic programming error"):
            stabilisation(short_benchmark, 6, [2, 4], cfg, n_draws=10)

    def test_diagnostics_per_order(self, short_benchmark):
        cfg = VBConfig(max_iter=2, seed=3)
        result = stabilisation(short_benchmark, 6, [2, 4], cfg, n_draws=10)
        assert set(result.diagnostics) == {2, 4}
        for diag in result.diagnostics.values():
            assert diag["n_iter"] == 2
            assert diag["converged"] is False
            assert diag["ms_per_sweep"] > 0
