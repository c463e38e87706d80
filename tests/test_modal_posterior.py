import dataclasses
import itertools
import logging
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayes_ssi.gibbs import GibbsChain, GibbsConfig
from bayes_ssi.modal_posterior import (
    DRAW_BLOCK,
    ModalDraws,
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    mac,
    phase_align,
    propagate_many,
    stabilisation,
    summarize,
    usable_cpus,
)
from bayes_ssi.model import default_priors
from bayes_ssi.rng import STAB_DRAW_STREAM_BASE, Rng
from bayes_ssi.subspace import HankelStats, ModalSet, modal_parameters
from bayes_ssi.vb import (
    ElboDecreaseError,
    NonFiniteBoundError,
    VBConfig,
    VBPosterior,
    run_vb,
)

import oracles


def make_vb_posterior(gen, d1, d2, d, w_scale=0.0):
    """Weight factors with covariance ``w_scale`` I for every column."""
    total = d1 + d2
    return VBPosterior(
        latent_cov=np.eye(d), latent_map=np.zeros((d, total)),
        latent_centre=np.zeros(total),
        weight_mean=gen.standard_normal((total, d)),
        weight_basis=[np.eye(d1), np.eye(d2)],
        weight_eigs=np.full((d, total), w_scale),
        mean_loc=np.zeros(total),
        mean_cov=[np.eye(d1), np.eye(d2)], mean_cov_logdet=0.0,
        noise_scale=[np.eye(d1), np.eye(d2)],
        noise_dof=[d1 + 2.0, d2 + 2.0], view_dims=(d1, d2),
    )


def random_basis_posterior(gen, d1, d2, d, coupled):
    """Weight factors on a random non-identity basis: one block per view,
    as priors that do not couple them give, or one full block."""
    total = d1 + d2
    if coupled:
        basis = [gen.standard_normal((total, total)) / np.sqrt(total)]
    else:
        basis = [gen.standard_normal((d1, d1)) / np.sqrt(d1),
                 gen.standard_normal((d2, d2)) / np.sqrt(d2)]
    return dataclasses.replace(make_vb_posterior(gen, d1, d2, d), weight_basis=basis,
                               weight_eigs=gen.uniform(0.2, 2.0, (d, total)))


def draw_moments(draws, mean):
    """Per-draw statistics of n x d1 x d draws: every entry, and the product
    of every pair of entries centred at ``mean`` (within and across
    columns)."""
    flat = (draws - mean).reshape(draws.shape[0], -1)
    rows, cols = np.triu_indices(flat.shape[1])
    return np.hstack([draws.reshape(draws.shape[0], -1), flat[:, rows] * flat[:, cols]])


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
    # every eigenvalue is one of a complex pair, so the modes are the
    # first n_modes entries
    (freqs,), (damping,), (shapes,), (real_pole,), _ = modal_parameters(
        a[None], c_out[None], dt)
    return a, c_out, ModalSet(frequencies=freqs[:n_modes], damping_ratios=damping[:n_modes],
                              mode_shapes=shapes[:n_modes].T, real_pole=real_pole[:n_modes])


def stack_modal_sets(modal_sets, n_excluded=0, order=4):
    """ModalDraws holding one modal set per draw, padded to the widest, as
    propagated from a stack with ``n_excluded`` more (degenerate) draws."""
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
                      n_draws=n + n_excluded, order=order)


def one_draw_modes(obs, n_channels, dt):
    """(frequencies, damping, shapes n_modes x l, real_pole) of one draw."""
    draws, n_excluded = propagate_many(obs[None], n_channels, dt)
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

    @pytest.mark.parametrize("coupled", [False, True])
    def test_moments_match_full_basis_draw(self, coupled):
        # the first-view marginal and the full-basis draw are one
        # distribution: every mean and second moment agrees within its
        # batch-means standard errors
        gen = np.random.default_rng(20 + coupled)
        post = random_basis_posterior(gen, 4, 3, 2, coupled)
        n = 20_000
        mean = post.weight_mean[:4]
        ours = draw_moments(draw_observability_samples(post, n, Rng(5, 3)), mean)
        oracle = draw_moments(oracles.vb_observability_draw_full_basis(post, n, Rng(6, 3)),
                              mean)
        for a, b in zip(ours.T, oracle.T):
            se = np.hypot(oracles.batch_means_se(a), oracles.batch_means_se(b))
            assert abs(a.mean() - b.mean()) < 4.5 * se

    def test_d1_normals_per_column_whatever_the_block(self, monkeypatch):
        import bayes_ssi.modal_posterior as mp

        gen = np.random.default_rng(22)
        post = random_basis_posterior(gen, 4, 3, 2, coupled=True)
        rng = Rng(7, 3)
        draws = draw_observability_samples(post, 300, rng)
        fresh = Rng(7, 3)
        fresh.standard_normal(300 * 2 * 4)
        assert rng.standard_normal() == fresh.standard_normal()
        monkeypatch.setattr(mp, "DRAW_BLOCK", 7)
        assert np.array_equal(draw_observability_samples(post, 300, Rng(7, 3)), draws)

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
            noise_samples=[gen.standard_normal((n_records, 6)) for _ in range(2)],
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
            draws, n_excluded = propagate_many(stack, 3, 0.02)
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
            _, n_excluded = propagate_many(stack, 3, 0.02)
        assert n_excluded == 4
        assert len(caplog.records) == 1
        assert "excluded 4 of 6 draws" in caplog.records[0].getMessage()

    def test_order_and_count_read_from_the_stack(self):
        gen = np.random.default_rng(16)
        a0, c0, _ = stable_modal_set(gen, n_modes=3, l=3)
        good = oracles.observability_forward(a0, c0, 5)
        bad = np.zeros_like(good)
        bad[:, 0] = 1.0
        draws, n_excluded = propagate_many(np.stack([good, bad, good]), 3, 0.02)
        assert draws.order == good.shape[1] == 6
        assert (draws.n_draws, n_excluded) == (3, 1)


    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="no draws to propagate"):
            propagate_many(np.empty((0, 60, 8)), 4, 0.02)


@pytest.fixture(scope="module")
def mixed_stack():
    """More than five blocks of order-8 draws on four channels, with
    degenerate ones among them (repeated columns, non-finite entries)."""
    gen = np.random.default_rng(23)
    a0, c0, _ = stable_modal_set(gen, n_modes=4, l=4)
    return random_draw_stack(gen, a0, c0, 5, 5 * DRAW_BLOCK + 17)


class TestPropagateThreads:
    def test_same_bits_on_any_thread_count(self, mixed_stack):
        # more threads than CPUs, switching as often as the interpreter
        # allows: a block lost or taken twice changes the result
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (first, first_excluded), *others = [
                propagate_many(mixed_stack, 4, 0.02, threads) for threads in (1, 2, 3, 8)]
        finally:
            sys.setswitchinterval(interval)
        assert first_excluded > 0
        assert np.isnan(mixed_stack).any(axis=(1, 2)).any()
        for draws, n_excluded in others:
            assert n_excluded == first_excluded
            for field in dataclasses.fields(ModalDraws):
                assert np.array_equal(getattr(draws, field.name),
                                      getattr(first, field.name)), field.name

    def test_eigenvalues_only_keep_all_but_shapes(self, mixed_stack):
        full, excluded = propagate_many(mixed_stack, 4, 0.02, 2)
        only, only_excluded = propagate_many(mixed_stack, 4, 0.02, 2, shapes=False)
        assert only_excluded == excluded
        assert only.mode_shapes.shape == full.present.shape + (0,)
        for name in ("present", "real_pole", "index", "n_draws", "order"):
            assert np.array_equal(getattr(only, name), getattr(full, name)), name
        assert only.frequencies == pytest.approx(full.frequencies, rel=1e-10, abs=1e-10)
        assert only.damping_ratios == pytest.approx(full.damping_ratios, rel=1e-10,
                                                    abs=1e-10)

    def test_default_uses_every_usable_cpu(self, mixed_stack, monkeypatch):
        import bayes_ssi.modal_posterior as mp

        asked = []
        original = mp._map_threads

        def recording(run, items, threads):
            asked.append(threads)
            return original(run, items, threads)

        monkeypatch.setattr(mp, "_map_threads", recording)
        propagate_many(mixed_stack[:10], 4, 0.02)
        assert asked == [usable_cpus()]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_block_error_propagates_and_threads_end(self, mixed_stack, monkeypatch,
                                                    threads):
        import bayes_ssi.modal_posterior as mp

        calls = itertools.count()

        def failing_third_block(a, c_out, dt, **kwargs):
            if next(calls) == 2:
                raise np.linalg.LinAlgError("synthetic block failure")
            return modal_parameters(a, c_out, dt, **kwargs)

        monkeypatch.setattr(mp, "modal_parameters", failing_third_block)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match="synthetic block failure"):
            propagate_many(mixed_stack, 4, 0.02, threads)
        assert threading.active_count() == before


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
                 for freqs in ([1.9, 2.05], [2.05, 1.9], [1.85, 2.15], [2.15, 1.85])]
        posterior = align_modes(stack_modal_sets(draws), reference)
        cluster, = posterior.clusters
        assert cluster.frequencies.tolist() == [2.05, 2.05, 2.15, 1.85]
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
        draws, n_excluded = propagate_many(bad, 3, 0.02)
        assert n_excluded == 2
        with pytest.raises(ValueError):
            align_modes(draws, modal0)

    def test_exclusions_counted_from_the_draws(self):
        gen = np.random.default_rng(17)
        a0, c0, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        good = oracles.observability_forward(a0, c0, 5)
        bad = np.zeros_like(good)
        bad[:, 0] = 1.0
        draws, n_excluded = propagate_many(np.stack([good, bad, good, bad, bad]), 3, 0.02)
        summary = summarize(align_modes(draws, modal0))
        assert (summary["n_draws"], summary["n_excluded"], n_excluded) == (5, 3, 3)
        assert summary["exclusion_rate"] == pytest.approx(0.6)
        assert [mode["n_aligned"] for mode in summary["modes"]] == [2, 2]

    def test_summary_reports_exclusions(self):
        gen = np.random.default_rng(15)
        _, _, modal0 = stable_modal_set(gen, n_modes=2, l=3)
        posterior = align_modes(stack_modal_sets([modal0], n_excluded=3), modal0)
        summary = summarize(posterior)
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

        draws, excluded = propagate_many(stack, l, 0.02)
        assert excluded == n_excluded
        if draws.index.size == 0:
            return
        posterior = align_modes(draws, reference)
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


def sweep(ts, block_rows, orders, cfg, n_draws):
    """``stabilisation`` on the centred statistics of ``ts`` with default
    priors at every order."""
    stats = HankelStats.from_record(ts, block_rows)
    priors = [default_priors(*stats.view_dims, order) for order in orders]
    return stabilisation(stats, priors, cfg, n_draws, ts.channels, ts.fs)


class TestStabilisation:
    def test_single_order_matches_direct_pipeline(self, short_benchmark):
        cfg = VBConfig(max_iter=60, elbo_rel_tol=1e-6, seed=3)
        result = sweep(short_benchmark, 6, [4], cfg, 40)
        assert result.failures == {}
        assert set(np.unique(result.orders)) == {4}
        assert np.all(result.frequencies > 0)
        assert result.frequencies.size == result.damping_ratios.size

    def test_multiple_orders_collects_triples(self, short_benchmark):
        cfg = VBConfig(max_iter=60, elbo_rel_tol=1e-6, seed=3)
        result = sweep(short_benchmark, 6, [2, 4, 6], cfg, 25)
        # every requested order either ran or is recorded as failed
        assert set(result.diagnostics) | set(result.failures) == {2, 4, 6}
        # each order's propagation gets its share of the CPUs
        assert result.workers == min(3, usable_cpus())
        assert result.propagation_threads == max(1, usable_cpus() // result.workers)
        assert set(np.unique(result.orders)) <= {2, 4, 6}
        # non-conjugate entries removed: all retained frequencies strictly
        # inside (0, fs/2)
        assert np.all(result.frequencies > 0)
        assert np.all(result.frequencies < short_benchmark.fs / 2)

    def test_order_exceeding_half_height_rejected(self, short_benchmark):
        cfg = VBConfig(max_iter=10, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            sweep(short_benchmark, 2, [2, 50], cfg, 10)

    def test_per_order_failure_recorded_run_continues(self, short_benchmark):
        # 4 channels at 2 block rows: order 6 is within the half-height 8
        # but above (2 - 1) * 4, so every shift-invariance solve degenerates
        cfg = VBConfig(max_iter=5, elbo_rel_tol=1e-6, seed=3)
        result = sweep(short_benchmark, 2, [2, 6], cfg, 10)
        assert list(result.failures) == [6]
        assert result.failures[6].startswith("all 10 draws degenerate")
        assert set(result.diagnostics) == {2, 6}
        assert set(np.unique(result.orders)) == {2}
        assert result.frequencies.size == result.damping_ratios.size > 0

    def test_programming_error_propagates(self, short_benchmark, monkeypatch):
        import bayes_ssi.modal_posterior as mp

        def broken_run_vb(stats, priors, config):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(mp, "run_vb", broken_run_vb)
        cfg = VBConfig(max_iter=5, seed=3)
        with pytest.raises(TypeError, match="synthetic programming error"):
            sweep(short_benchmark, 6, [2, 4], cfg, 10)

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_untyped_error_propagates(self, short_benchmark, monkeypatch, error):
        # only the typed numerical errors are recorded as an order failure
        import bayes_ssi.modal_posterior as mp

        def broken_run_vb(stats, priors, config):
            raise error("synthetic error")

        monkeypatch.setattr(mp, "run_vb", broken_run_vb)
        with pytest.raises(error, match="synthetic error"):
            sweep(short_benchmark, 6, [2, 4], VBConfig(max_iter=5, seed=3), 10)

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ElboDecreaseError,
                                       NonFiniteBoundError])
    def test_numerical_failure_recorded(self, short_benchmark, monkeypatch, error):
        import bayes_ssi.modal_posterior as mp

        def failing_at_order_4(stats, priors, config):
            if priors.latent_dim == 4:
                raise error("synthetic numerical failure")
            return run_vb(stats, priors, config)

        monkeypatch.setattr(mp, "run_vb", failing_at_order_4)
        result = sweep(short_benchmark, 6, [2, 4], VBConfig(max_iter=5, seed=3), 10)
        assert result.failures == {4: "synthetic numerical failure"}
        assert set(result.diagnostics) == {2}
        assert set(np.unique(result.orders)) == {2}

    def test_block_failure_recorded_for_its_order(self, short_benchmark, monkeypatch):
        # one order runs in this process and propagates on every CPU; an
        # error in one of its blocks is that order's failure
        import bayes_ssi.modal_posterior as mp

        calls = itertools.count()

        def failing_second_block(a, c_out, dt, **kwargs):
            if next(calls) == 1:
                raise np.linalg.LinAlgError("synthetic block failure")
            return modal_parameters(a, c_out, dt, **kwargs)

        monkeypatch.setattr(mp, "modal_parameters", failing_second_block)
        before = threading.active_count()
        result = sweep(short_benchmark, 6, [4], VBConfig(max_iter=5, seed=3),
                       4 * DRAW_BLOCK + 1)
        assert threading.active_count() == before
        assert (result.workers, result.propagation_threads) == (1, usable_cpus())
        assert result.failures == {4: "synthetic block failure"}
        assert set(result.diagnostics) == {4}
        assert result.frequencies.size == 0

    def test_zero_draws_raise(self, short_benchmark):
        with pytest.raises(ValueError, match="at least one draw"):
            sweep(short_benchmark, 6, [2, 4], VBConfig(max_iter=2, seed=3), 0)

    def test_orders_read_from_the_priors(self, short_benchmark):
        # each entry's latent dimension labels its triples and diagnostics
        # and picks its draw stream, whatever the list order
        ts = short_benchmark
        cfg = VBConfig(max_iter=5, seed=3)
        stats = HankelStats.from_record(ts, 6)
        priors = [default_priors(*stats.view_dims, order) for order in (6, 2)]
        result = stabilisation(stats, priors, cfg, 10, ts.channels, ts.fs)
        assert list(result.diagnostics) == [2, 6]
        samples = draw_observability_samples(run_vb(stats, priors[0], cfg), 10,
                                             Rng(3, STAB_DRAW_STREAM_BASE + 6))
        modal, _ = propagate_many(samples, ts.channels, 1.0 / ts.fs)
        keep = modal.present & ~modal.real_pole & (modal.frequencies < ts.fs / 2)
        assert result.frequencies[result.orders == 6].tolist() == \
            modal.frequencies[keep].tolist()

    def test_repeated_order_rejected(self, short_benchmark):
        with pytest.raises(ValueError, match=r"orders given more than once: \[4\]"):
            sweep(short_benchmark, 6, [2, 4, 4], VBConfig(max_iter=5, seed=3), 10)

    def test_diagnostics_per_order(self, short_benchmark):
        cfg = VBConfig(max_iter=2, seed=3)
        result = sweep(short_benchmark, 6, [2, 4], cfg, 10)
        assert set(result.diagnostics) == {2, 4}
        for diag in result.diagnostics.values():
            assert diag["n_iter"] == 2
            assert diag["converged"] is False
            assert diag["status"] == "not_converged"
            assert diag["ms_per_sweep"] > 0
