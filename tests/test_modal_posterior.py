import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayes_ssi.gibbs import GibbsChain, GibbsConfig
from bayes_ssi.modal_posterior import (
    ModalDraws,
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    mac,
    phase_align,
    propagate_many,
    stabilisation,
    summarize,
)
from bayes_ssi.rng import Rng
from bayes_ssi.subspace import ModalSet, modal_from_state_matrix
from bayes_ssi.vb import VBConfig, VBPosterior

import oracles


def make_vb_posterior(gen, d1, d2, d, w_scale=0.0):
    """Weight factors with covariance ``w_scale`` I for every column."""
    total = d1 + d2
    return VBPosterior(
        latent_cov=np.eye(d), latent_map=np.zeros((d, total)),
        latent_centre=np.zeros(total),
        weight_mean=gen.standard_normal((total, d)),
        weight_basis=np.eye(total), weight_eigs=np.full((d, total), w_scale),
        mean_loc=np.zeros(total),
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


def stack_modal_sets(modal_sets, source="vb", order=4):
    """ModalDraws holding one modal set per draw, padded to the widest."""
    n, width = len(modal_sets), max(m.n_modes for m in modal_sets)
    l = modal_sets[0].mode_shapes.shape[0]
    freqs, damping = np.zeros((n, width)), np.zeros((n, width))
    shapes = np.zeros((n, width, l), complex)
    real_pole, present = np.zeros((n, width), bool), np.zeros((n, width), bool)
    for k, m in enumerate(modal_sets):
        freqs[k, :m.n_modes] = m.frequencies
        damping[k, :m.n_modes] = m.damping_ratios
        shapes[k, :m.n_modes] = m.mode_shapes.T
        real_pole[k, :m.n_modes] = m.real_pole
        present[k, :m.n_modes] = True
    return ModalDraws(frequencies=freqs, damping_ratios=damping, mode_shapes=shapes,
                      real_pole=real_pole, present=present, index=np.arange(n),
                      source=source, order=order)


def one_draw_modes(obs, n_channels, dt):
    """(frequencies, damping, shapes n_modes x l, real_pole) of one draw."""
    draws, n_excluded = propagate_many(obs[None], n_channels, dt, "vb", obs.shape[1])
    assert n_excluded == 0
    keep = draws.present[0]
    return (draws.frequencies[0, keep], draws.damping_ratios[0, keep],
            draws.mode_shapes[0, keep], draws.real_pole[0, keep])


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
        freqs, damping, _, real_pole = one_draw_modes(obs, 3, 0.02)
        ref = ~modal0.real_pole
        assert freqs[~real_pole] == pytest.approx(modal0.frequencies[ref], rel=1e-8)
        assert damping[~real_pole] == pytest.approx(modal0.damping_ratios[ref], rel=1e-8)

    def test_similarity_transform_invariance(self):
        gen = np.random.default_rng(9)
        a0, c0, _ = stable_modal_set(gen, n_modes=2, l=3)
        obs = oracles.observability_forward(a0, c0, 5)
        rot = gen.standard_normal((4, 4)) + 3 * np.eye(4)
        freqs, damping, shapes, _ = one_draw_modes(obs, 3, 0.02)
        freqs_r, damping_r, shapes_r, _ = one_draw_modes(obs @ rot, 3, 0.02)
        assert freqs_r == pytest.approx(freqs, abs=1e-8)
        assert damping_r == pytest.approx(damping, abs=1e-8)
        assert mac(shapes, shapes_r) == pytest.approx(np.ones(freqs.size), abs=1e-8)

    def test_degenerate_draws_excluded_and_counted(self, caplog):
        gen = np.random.default_rng(10)
        a0, c0, _ = stable_modal_set(gen, n_modes=2, l=3)
        good = oracles.observability_forward(a0, c0, 5)
        bad = np.zeros_like(good)
        bad[:, 0] = 1.0
        stack = np.stack([good, bad, good])
        with caplog.at_level(logging.WARNING):
            draws, n_excluded = propagate_many(stack, 3, 0.02, "vb", 4)
        assert n_excluded == 1
        assert draws.index.tolist() == [0, 2]
        assert draws.frequencies.shape[0] == 2
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
        posterior = align_modes(stack_modal_sets([modal0] * 5, order=6), modal0)
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
            real_pole=modal0.real_pole[perm],
        )
        posterior = align_modes(stack_modal_sets([permuted], order=6), modal0)
        for cluster in posterior.clusters:
            assert cluster.n_aligned == 1
            assert cluster.frequencies[0] == pytest.approx(
                cluster.reference_frequency)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 4),
           l=st.integers(2, 5), n_draws=st.integers(1, 8),
           n_spurious=st.integers(0, 2))
    def test_summary_unchanged_when_draw_modes_permuted(self, seed, n_modes, l,
                                                       n_draws, n_spurious):
        # generic draws (no exact MAC or frequency ties): the assignment
        # does not depend on the order of a draw's modes
        gen = np.random.default_rng(seed)
        _, _, modal0 = stable_modal_set(gen, n_modes=n_modes, l=l)
        width = n_modes + n_spurious

        def noisy(values, scale):
            return values * (1.0 + scale * gen.standard_normal(values.shape))

        draws = []
        for _ in range(n_draws):
            freqs = np.concatenate([noisy(modal0.frequencies, 0.03),
                                    gen.uniform(0.1, 25.0, n_spurious)])
            shapes = np.concatenate(
                [modal0.mode_shapes, gen.standard_normal((l, n_spurious))], axis=1)
            shapes = shapes + 0.3 * (gen.standard_normal((l, width))
                                     + 1j * gen.standard_normal((l, width)))
            draws.append(ModalSet(frequencies=freqs,
                                  damping_ratios=gen.uniform(-0.01, 0.1, width),
                                  mode_shapes=shapes,
                                  real_pole=np.zeros(width, bool)))

        def summary(modal_sets):
            return summarize(align_modes(
                stack_modal_sets(modal_sets, order=2 * n_modes), modal0))

        permuted = []
        for draw in draws:
            perm = gen.permutation(width)
            permuted.append(ModalSet(
                frequencies=draw.frequencies[perm],
                damping_ratios=draw.damping_ratios[perm],
                mode_shapes=draw.mode_shapes[:, perm], real_pole=draw.real_pole[perm]))
        assert summary(permuted) == summary(draws)

    def test_mac_ties_broken_by_frequency_then_mode_index(self):
        # equal shapes give equal MACs: the closer frequency wins, and at
        # equal distance the higher draw mode index
        shape = np.array([[1.0], [0.5 + 0.25j], [-0.5]])
        reference = ModalSet(frequencies=np.array([2.0]), damping_ratios=np.array([0.01]),
                             mode_shapes=shape, real_pole=np.array([False]))
        draws = [ModalSet(frequencies=np.array(freqs), damping_ratios=np.array([0.01, 0.02]),
                          mode_shapes=np.hstack([shape, shape]),
                          real_pole=np.zeros(2, bool))
                 for freqs in ([1.9, 2.05], [2.05, 1.9], [1.75, 2.25], [2.25, 1.75])]
        posterior = align_modes(stack_modal_sets(draws), reference, freq_gate=0.2)
        cluster, = posterior.clusters
        assert cluster.frequencies.tolist() == [2.05, 2.05, 2.25, 1.75]
        assert cluster.damping_ratios.tolist() == [0.02, 0.01, 0.02, 0.02]
        assert posterior.n_unassigned == 4

    def test_negative_damping_never_clipped(self):
        gen = np.random.default_rng(13)
        _, _, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        tweaked = ModalSet(
            frequencies=modal0.frequencies,
            damping_ratios=np.array([-0.01, modal0.damping_ratios[1]]),
            mode_shapes=modal0.mode_shapes,
            real_pole=modal0.real_pole,
        )
        posterior = align_modes(stack_modal_sets([tweaked]), modal0)
        summary = summarize(posterior)
        assert posterior.clusters[0].damping_ratios[0] == -0.01
        assert summary["modes"][0]["damping_negative_fraction"] == 1.0

    def test_empty_sample_list_rejected(self):
        gen = np.random.default_rng(14)
        _, _, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        bad = np.zeros((2, 15, 4))
        bad[:, :, 0] = 1.0
        draws, n_excluded = propagate_many(bad, 3, 0.02, "vb", 4)
        assert n_excluded == 2
        with pytest.raises(ValueError):
            align_modes(draws, modal0, n_excluded=n_excluded)

    def test_summary_reports_exclusions(self):
        gen = np.random.default_rng(15)
        _, _, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        posterior = align_modes(stack_modal_sets([modal0], source="gibbs"), modal0,
                                n_excluded=3)
        summary = summarize(posterior)
        assert summary["source"] == "gibbs"
        assert summary["n_draws"] == 4
        assert summary["n_excluded"] == 3
        assert summary["exclusion_rate"] == pytest.approx(0.75)


def random_draw_stack(gen, a0, c0, n_blocks, n_draws):
    """Observability draws around (a0, c0): perturbed ones, pure noise with
    real poles and spurious modes, draws with a real-pole block, and
    degenerate ones (a repeated column, or a non-finite entry)."""
    dim, l = a0.shape[0], c0.shape[0]
    draws = []
    for kind in gen.integers(0, 5, n_draws):
        a = a0 + 0.02 * gen.standard_normal(a0.shape)
        if kind == 2:
            a[:2, :2] = np.diag(gen.uniform(-0.9, 0.9, 2))
        obs = oracles.observability_forward(a, c0 + 0.05 * gen.standard_normal(c0.shape),
                                            n_blocks)
        if kind == 1:
            obs = gen.standard_normal((n_blocks * l, dim))
        elif kind == 3:
            obs[:, -1] = obs[:, 0]
        elif kind == 4 and gen.random() < 0.3:
            obs[gen.integers(obs.shape[0]), 0] = np.nan
        draws.append(obs)
    return np.stack(draws)


class TestStackedAgainstLoop:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(1, 4),
           l=st.integers(1, 4), n_draws=st.integers(1, 40))
    def test_matches_per_draw_loop(self, seed, n_modes, l, n_draws):
        self.check(seed, n_modes, l, n_draws)

    def test_one_channel_macs_tie_on_rounding(self):
        # with one channel every MAC is 1 up to rounding; ranked unrounded,
        # this stack's draw 3 went to the second reference mode in the
        # per-draw loop and stayed unassigned in the batched path
        self.check(seed=32, n_modes=4, l=1, n_draws=27)

    @staticmethod
    def check(seed, n_modes, l, n_draws):
        gen = np.random.default_rng(seed)
        a0, c0, reference = stable_modal_set(gen, n_modes=n_modes, l=l)
        n_blocks = 2 * n_modes // l + 3
        stack = random_draw_stack(gen, a0, c0, n_blocks, n_draws)
        n_excluded, n_unassigned, expected = oracles.propagate_and_align_loop(
            stack, l, 0.02, reference)

        draws, excluded = propagate_many(stack, l, 0.02, "vb", 2 * n_modes)
        assert excluded == n_excluded
        if draws.index.size == 0:
            return
        posterior = align_modes(draws, reference, n_excluded=excluded)
        assert posterior.n_unassigned == n_unassigned
        assert posterior.n_draws == n_draws
        assert len(posterior.clusters) == len(expected)
        for cluster, (freqs, damping, shapes, macs, idx) in zip(posterior.clusters,
                                                                expected):
            assert cluster.draw_indices.tolist() == idx.tolist()
            if idx.size == 0:
                continue
            assert cluster.frequencies == pytest.approx(freqs, rel=1e-12, abs=0)
            assert cluster.damping_ratios == pytest.approx(damping, rel=1e-12, abs=0)
            assert cluster.mac_scores == pytest.approx(macs, rel=1e-12, abs=0)
            assert np.abs(cluster.mode_shapes - shapes).max() <= 1e-12


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
            assert diag["status"] == "not_converged"
            assert diag["ms_per_sweep"] > 0
