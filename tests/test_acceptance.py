"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy engine runs are shared through module-scoped fixtures.  The engine
agreement criterion runs the reduced CI profile (N = 2**13, 1000 sampler
sweeps) by default; set BAYES_SSI_FULL_ACCEPTANCE=1 to run the full-size
protocol (N = 2**16, 5000 sweeps) under the stated laptop budgets.
"""

import json
import os
import time

import numpy as np
import pytest

from scipy.linalg import solve_triangular

from bayes_ssi.cli import main as cli_main
from bayes_ssi.gibbs import GibbsConfig, run_gibbs, _prior_point
from bayes_ssi.model import PriorHyper, default_priors, latent_natural
from bayes_ssi.modal_posterior import (
    align_modes,
    chain_observability_samples,
    draw_observability_samples,
    propagate_many,
    stabilisation,
    summarize,
)
from bayes_ssi.rng import Rng, chol_inverse
from bayes_ssi.simulate import TimeSeries, build_shear_frame, discretize, simulate_response, to_continuous_ss
from bayes_ssi.subspace import HankelStats, canonical_weights, cca, ssi_cov
from bayes_ssi.vb import VBConfig, VBPosterior, run_vb, _expected_precision
from bayes_ssi.vb import _Kernel as VBKernel

import oracles
from explicit import (
    block_precision,
    dense_mean_cov,
    explicit_kernel,
    latent_means,
    latent_stats,
    mean_conditional,
    read_matrix_csv,
    weight_conditional,
    weight_cov,
)

FULL_PROFILE = os.environ.get("BAYES_SSI_FULL_ACCEPTANCE", "") not in ("", "0")
BLOCK_ROWS = 15
ORDER = 8


def slice_ts(ts, n):
    return TimeSeries(data=ts.data[:, :n].copy(), fs=ts.fs)


def engine_posterior(ts, engine, seed=0, gibbs_sweeps=1000, vb_draws=4000):
    """One full identification run; returns (summary dict, extras)."""
    stats = HankelStats.from_record(ts, BLOCK_ROWS)
    priors = default_priors(*stats.view_dims)
    reference = ssi_cov(stats, ORDER, ts.channels, 1.0 / ts.fs)
    if engine == "gibbs":
        chain = run_gibbs(stats, priors, ORDER, GibbsConfig(n_samples=gibbs_sweeps,
                                                            burn_in_fraction=0.2, seed=seed))
        draws = chain_observability_samples(chain)
        extras = {"chain": chain}
    else:
        post = run_vb(stats, priors, ORDER, VBConfig(seed=seed))
        draws = draw_observability_samples(post, vb_draws, Rng(seed, 3))
        extras = {"post": post}
    samples, _ = propagate_many(draws, ts.channels, 1.0 / ts.fs)
    aligned = align_modes(samples, reference)
    summary = summarize(aligned)
    summary["reference"] = reference
    return summary, extras


@pytest.fixture(scope="module")
def benchmark_oracle(benchmark_system):
    return benchmark_system["oracle_freqs"], benchmark_system["oracle_zetas"]


@pytest.fixture(scope="module")
def agreement_runs(benchmark_ts_full):
    """Criterion 2 runs: both engines on the CI profile (or full protocol)."""
    if FULL_PROFILE:
        ts = benchmark_ts_full
        gibbs_sweeps = 5000
    else:
        ts = slice_ts(benchmark_ts_full, 2**13)
        gibbs_sweeps = 1000
    start = time.perf_counter()
    gibbs_summary, _ = engine_posterior(ts, "gibbs", seed=0,
                                        gibbs_sweeps=gibbs_sweeps)
    gibbs_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    vb_summary, vb_extras = engine_posterior(ts, "vb", seed=0, vb_draws=4000)
    vb_elapsed = time.perf_counter() - start
    return {
        "gibbs": gibbs_summary, "vb": vb_summary,
        "gibbs_elapsed": gibbs_elapsed, "vb_elapsed": vb_elapsed,
        "vb_post": vb_extras["post"], "profile_full": FULL_PROFILE,
    }


@pytest.fixture(scope="module")
def shrinkage_runs(benchmark_ts_full):
    """Criterion 3 runs: both engines at N in {2^12, 2^14, 2^16}."""
    out = {}
    for n_exp in (12, 14, 16):
        ts = slice_ts(benchmark_ts_full, 2**n_exp)
        for engine in ("gibbs", "vb"):
            summary, extras = engine_posterior(ts, engine, seed=0,
                                               gibbs_sweeps=1000, vb_draws=1000)
            out[(engine, n_exp)] = {"summary": summary, "extras": extras}
    return out


def test_criterion_1_classical_baseline(benchmark_ts_full, benchmark_oracle):
    """ssi_cov at d=8, j=15 on the full benchmark recovers all 4 modes:
    frequencies within 2%, damping within 30%, in under 30 s."""
    oracle_freqs, oracle_zetas = benchmark_oracle
    start = time.perf_counter()
    modal = ssi_cov(HankelStats.from_record(benchmark_ts_full, BLOCK_ROWS), ORDER,
                    benchmark_ts_full.channels, 1.0 / benchmark_ts_full.fs)
    elapsed = time.perf_counter() - start
    keep = ~modal.real_pole
    freqs = np.sort(modal.frequencies[keep])
    zetas = modal.damping_ratios[keep][np.argsort(modal.frequencies[keep])]
    assert freqs.size == 4
    assert np.all(np.abs(freqs - oracle_freqs) / oracle_freqs < 0.02)
    assert np.all(np.abs(zetas - oracle_zetas) / oracle_zetas < 0.30)
    assert elapsed < 30.0


def test_criterion_2_engine_agreement(agreement_runs):
    """Per-mode Gibbs and VB posterior mean frequencies agree within 1%
    relative; each lies within 2 posterior SDs of the classical point
    estimate; the reduced CI profile completes in under 5 minutes."""
    gibbs_modes = agreement_runs["gibbs"]["modes"]
    vb_modes = agreement_runs["vb"]["modes"]
    assert len(gibbs_modes) == len(vb_modes) == 4
    for mode_g, mode_v in zip(gibbs_modes, vb_modes):
        assert mode_g["n_aligned"] > 50
        assert mode_v["n_aligned"] > 200
        f_g = mode_g["frequency_mean_hz"]
        f_v = mode_v["frequency_mean_hz"]
        assert abs(f_g - f_v) / f_v < 0.01
        for mode in (mode_g, mode_v):
            f_ref = mode["reference_frequency_hz"]
            assert abs(mode["frequency_mean_hz"] - f_ref) <= \
                2.0 * mode["frequency_sd_hz"]
    total = agreement_runs["gibbs_elapsed"] + agreement_runs["vb_elapsed"]
    if agreement_runs["profile_full"]:
        assert agreement_runs["vb_elapsed"] < 300.0
        assert agreement_runs["gibbs_elapsed"] < 3600.0
    else:
        assert total < 300.0


def test_criterion_3_variance_shrinkage(shrinkage_runs):
    """For every mode and both engines, the posterior frequency SD at
    N = 2^16 is strictly smaller than at N = 2^12."""
    for engine in ("gibbs", "vb"):
        sd_small = [m["frequency_sd_hz"]
                    for m in shrinkage_runs[(engine, 12)]["summary"]["modes"]]
        sd_large = [m["frequency_sd_hz"]
                    for m in shrinkage_runs[(engine, 16)]["summary"]["modes"]]
        assert len(sd_small) == len(sd_large) == 4
        for k, (lo, hi) in enumerate(zip(sd_large, sd_small)):
            assert lo < hi, f"{engine} mode {k}: SD {lo} !< {hi}"


def test_criterion_4_elbo_monotonicity(agreement_runs, shrinkage_runs,
                                       benchmark_ts_full):
    """Every variational run in the suite has a monotone bound (within
    1e-8 relative) and the benchmark run converges within 500 sweeps."""
    traces = [np.asarray(agreement_runs["vb_post"].elbo_trace)]
    converged = [agreement_runs["vb_post"].converged]
    for n_exp in (12, 14, 16):
        post = shrinkage_runs[("vb", n_exp)]["extras"]["post"]
        traces.append(np.asarray(post.elbo_trace))
        converged.append(post.converged)
    for trace in traces:
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
        assert trace.size <= 500
    assert all(converged)


def test_criterion_5_getting_it_right():
    """On a two-view scalar toy model, marginal first and second moments of
    the noise blocks, mean and weights agree between forward
    prior-predictive simulation and the Gibbs-with-data-refresh scheme
    within 3 Monte Carlo standard errors."""
    view_dims = (1, 1)
    d, n = 1, 5
    priors = PriorHyper(
        mean_loc=np.zeros(2), mean_cov=0.5 * np.eye(2),
        weight_loc=np.zeros(2), weight_cov=0.5 * np.eye(2),
        noise_scale=(np.array([[2.0]]), np.array([[1.0]])),
        noise_dof=(12.0, 12.0), view_dims=view_dims,
    )
    n_iter = 60_000
    rng = Rng(2024, 0)

    def prior_state(r):
        weights, mean, noise = _prior_point(priors, d, r)
        return weights, mean, noise, r.standard_normal((d, n))

    def observe(weights, mean, noise, latent, r):
        fitted = weights @ latent + mean[:, None]
        noise_sd = np.sqrt([noise[0][0, 0], noise[1][0, 0]])
        return fitted + noise_sd[:, None] * r.standard_normal((2, n))

    def stats(weights, mean, noise):
        return np.array([
            noise[0][0, 0], noise[1][0, 0],
            mean[0], mean[1],
            weights[0, 0], weights[1, 0],
        ])

    # forward: independent draws from the prior and the likelihood
    forward = np.empty((n_iter, 6))
    for k in range(n_iter):
        weights, mean, noise, latent = prior_state(rng)
        observe(weights, mean, noise, latent, rng)  # x is not needed for the stats
        forward[k] = stats(weights, mean, noise)

    # successive-conditional: Gibbs transition, then refresh the data
    chain_rng = Rng(2024, 1)
    weights, mean, noise, latent = prior_state(chain_rng)
    x = observe(weights, mean, noise, latent, chain_rng)
    chain = np.empty((n_iter, 6))
    for k in range(n_iter):
        kernel, lat = explicit_kernel(x, view_dims, priors, latent)
        weights, mean, noise, prec = kernel.transition(weights, mean, lat, chain_rng)
        # explicit latent draw Z = A (X - mu 1^T) + L^-T E
        chol, proj = latent_natural(weights, prec)
        latent = proj @ (x - mean[:, None]) + solve_triangular(
            chol.T, chain_rng.standard_normal((d, n)), lower=False,
            check_finite=False)
        x = observe(weights, mean, noise, latent, chain_rng)
        chain[k] = stats(weights, mean, noise)

    for col in range(6):
        for moment in (1, 2):
            fwd = forward[:, col] ** moment
            suc = chain[:, col] ** moment
            se = np.hypot(oracles.mc_standard_error(fwd),
                          oracles.batch_means_se(suc))
            assert abs(fwd.mean() - suc.mean()) < 3.0 * se, (
                f"stat {col} moment {moment}: "
                f"{fwd.mean():.4f} vs {suc.mean():.4f} (se {se:.4f})"
            )


def test_criterion_6_conditional_and_subspace_oracles():
    """Latent conditional matches dense joint-Gaussian conditioning to
    1e-10; canonical correlations match the generalized eigenproblem to
    1e-10; the full-rank factorization reconstructs the cross-covariance
    block to 1e-8."""
    gen = np.random.default_rng(99)
    # latent conditional vs brute force
    n = 7
    noise = []
    for dim in (2, 3):
        base = gen.standard_normal((dim, dim))
        noise.append(base @ base.T + dim * np.eye(dim))
    weights = gen.standard_normal((5, 2))
    mean = gen.standard_normal(5)
    x = gen.standard_normal((5, n))
    chol, proj = latent_natural(weights, block_precision(noise))
    means = proj @ (x - mean[:, None])
    cov = chol_inverse(chol)
    full_cov = np.zeros((5, 5))
    full_cov[:2, :2] = noise[0]
    full_cov[2:, 2:] = noise[1]
    for k in range(n):
        mean_o, cov_o = oracles.gaussian_condition_oracle(weights, mean, full_cov,
                                                          x[:, k])
        assert np.max(np.abs(means[:, k] - mean_o)) < 1e-10
    assert np.max(np.abs(cov - cov_o)) < 1e-10

    # canonical correlations vs generalized eigenproblem
    joint = gen.standard_normal((8, 8))
    joint = joint @ joint.T + 8 * np.eye(8)
    _, corr, _ = cca(joint[:4, :4], joint[4:, 4:], joint[:4, 4:])
    expected = oracles.cca_generalized_eig_oracle(joint[:4, :4], joint[4:, 4:],
                                                  joint[:4, 4:])
    assert np.max(np.abs(corr - expected)) < 1e-10

    # exact factorization at full rank
    ts = TimeSeries(data=gen.standard_normal((2, 3000)), fs=1.0)
    stats = HankelStats.from_record(ts, 3)
    weights = canonical_weights(stats.raw_gram() / stats.n_cols, 6, 6)
    obs, ctrb = weights[:6], weights[6:].T
    cross = stats.raw_gram()[:6, 6:] / stats.n_cols
    rel = np.linalg.norm(obs @ ctrb - cross, "fro") / np.linalg.norm(cross, "fro")
    assert rel < 1e-8


def test_criterion_7_vb_gibbs_degeneracy():
    """One variational sweep with zero-variance factors equals one Gibbs
    sweep at the conditional means to 1e-10."""
    gen = np.random.default_rng(123)
    view_dims = (2, 2)
    d, n = 2, 12
    priors = default_priors(2, 2, noise_scale=2.0)
    x = gen.standard_normal((4, n))
    weights = gen.standard_normal((4, d))
    mean = gen.standard_normal(4)
    noise = [0.8 * np.eye(2), 1.4 * np.eye(2)]
    latent = gen.standard_normal((d, n))
    gibbs_kernel, _ = explicit_kernel(x, view_dims, priors, latent)
    kernel = VBKernel(gibbs_kernel.stats, priors)
    dofs = [dim + 2.0 + n for dim in view_dims]
    post = VBPosterior(
        latent_cov=np.zeros((d, d)), latent_map=np.zeros((d, 4)),
        latent_centre=np.zeros(4),
        weight_mean=weights.copy(), weight_basis=[np.eye(2), np.eye(2)],
        weight_eigs=np.zeros((d, 4)),
        mean_loc=mean.copy(), mean_cov=[np.zeros((2, 2)), np.zeros((2, 2))],
        mean_cov_logdet=-np.inf, latent_cov_logdet=-np.inf,
        noise_scale=[dof * blk for dof, blk in zip(dofs, noise)],
        noise_dof=dofs, view_dims=view_dims,
    )

    kernel.update_latent(post, _expected_precision(post)[0])
    chol, proj = latent_natural(weights, block_precision(noise))
    latent = proj @ (x - mean[:, None])
    assert np.max(np.abs(post.latent_cov - chol_inverse(chol))) < 1e-10
    assert np.max(np.abs(latent_means(post, x) - latent)) < 1e-10
    post.latent_cov = np.zeros((d, d))
    lat = latent_stats(x, gibbs_kernel.stats.row_mean, latent)
    expected_lat = kernel.latent_stats(post, True)

    # every column in one update, each mean refreshed in order
    kernel.update_weights(post, _expected_precision(post)[0], expected_lat)
    for i in range(d):
        cov, w_mean = weight_conditional(gibbs_kernel, weights, mean, lat,
                                         block_precision(noise), i)
        assert np.max(np.abs(weight_cov(post)[i] - cov)) < 1e-10
        assert np.max(np.abs(post.weight_mean[:, i] - w_mean)) < 1e-10
        weights[:, i] = w_mean
    post.weight_eigs[:] = 0.0

    kernel.update_noise(post, expected_lat)
    conds = gibbs_kernel.noise_conditionals(gibbs_kernel.residual_scatter(weights, mean,
                                                                          lat))
    for (scale_g, dof_g), scale_v, dof_v in zip(conds, post.noise_scale,
                                                post.noise_dof):
        assert dof_v == dof_g
        assert np.max(np.abs(scale_v - scale_g)) < 1e-10
    # hold the precision at its conditional mean on both sides
    noise = [scale / dof for scale, dof in conds]

    kernel.update_mean(post, _expected_precision(post)[0], expected_lat)
    cov, m_mean = mean_conditional(gibbs_kernel, weights, lat, block_precision(noise))
    assert np.max(np.abs(dense_mean_cov(post) - cov)) < 1e-10
    assert np.max(np.abs(post.mean_loc - m_mean)) < 1e-10


def test_criterion_8_stabilisation(benchmark_ts_full, benchmark_oracle,
                                   tmp_path):
    """Across orders 2..16, frequency clusters within 2% of every oracle
    frequency persist over at least 5 consecutive orders and are tighter
    than the off-cluster draws; the bridge-format pathway runs to
    completion at orders 10 and 30."""
    oracle_freqs, _ = benchmark_oracle
    orders = list(range(2, 17, 2))
    stats = HankelStats.from_record(benchmark_ts_full, BLOCK_ROWS)
    result = stabilisation(stats, default_priors(*stats.view_dims), orders,
                           VBConfig(seed=0, warm_start=True), 400,
                           benchmark_ts_full.channels, benchmark_ts_full.fs)
    assert result.failures == {}

    outside = np.ones(result.frequencies.size, dtype=bool)
    for f_oracle in oracle_freqs:
        in_band = np.abs(result.frequencies - f_oracle) <= 0.02 * f_oracle
        outside &= ~in_band
        present = []
        for order in orders:
            count = int(np.count_nonzero(in_band & (result.orders == order)))
            present.append(count >= 10)
        # longest run of consecutive orders with the cluster present
        best = run = 0
        for flag in present:
            run = run + 1 if flag else 0
            best = max(best, run)
        assert best >= 5, f"cluster at {f_oracle:.2f} Hz present runs: {present}"
        inside_sd = float(np.std(result.frequencies[in_band]))
        assert inside_sd < float(np.std(result.frequencies[outside]))

    # bridge-format stand-in: 7 channels, 8192 samples, fs = 100 Hz,
    # identity noise-prior scale, orders 10 and 30 through the CLI
    mass_mat, damp, stiff = build_shear_frame(7, 2.0, 40000.0)
    css = to_continuous_ss(mass_mat, damp, stiff, 5e-5, 0.05)
    dss = discretize(css, 1.0 / 100.0)
    ts = simulate_response(dss, 8192, Rng(777, 0))
    record = tmp_path / "standin.csv"
    from bayes_ssi.io import write_timeseries_csv
    write_timeseries_csv(record, ts)
    priors_file = tmp_path / "bridge_priors.json"
    priors_file.write_text(json.dumps({"noise_scale": 1.0}))
    # the shift-invariance solve needs (block_rows - 1) * channels >= order
    out = tmp_path / "bridge_stab"
    code = cli_main(["stabilise", "--input", str(record), "--fs", "100",
                     "--block-rows", "6", "--order", "10", "--order", "30",
                     "--draws", "100", "--priors", str(priors_file),
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    triples = read_matrix_csv(out / "stabilisation.csv", skip_header=True)
    assert set(np.unique(triples[:, 0])) == {10.0, 30.0}


def test_criterion_9_determinism(tmp_path):
    """Rerunning every pipeline command with identical configuration and
    seed reproduces byte-identical numeric artifacts."""
    sim1, sim2 = tmp_path / "sim1", tmp_path / "sim2"
    for out in (sim1, sim2):
        assert cli_main(["simulate", "--samples", "4096", "--seed", "42",
                         "--out", str(out)]) == 0

    run_dirs = {}
    for tag, out_root in (("a", tmp_path / "runa"), ("b", tmp_path / "runb")):
        ident = out_root / "identify"
        assert cli_main(["identify", "--input", str(sim1 / "response.csv"),
                         "--block-rows", "15", "--order", "8", "--engine", "vb",
                         "--draws", "100", "--seed", "9",
                         "--out", str(ident)]) == 0
        gibbs = out_root / "gibbs"
        assert cli_main(["identify", "--input", str(sim1 / "response.csv"),
                         "--block-rows", "10", "--order", "4",
                         "--engine", "gibbs", "--samples", "60", "--seed", "9",
                         "--out", str(gibbs)]) == 0
        stab = out_root / "stabilise"
        assert cli_main(["stabilise", "--input", str(sim1 / "response.csv"),
                         "--block-rows", "10", "--order", "4", "--order", "6",
                         "--draws", "25", "--seed", "9",
                         "--out", str(stab)]) == 0
        spectrum = out_root / "spectrum"
        assert cli_main(["spectrum", "--input", str(sim1 / "response.csv"),
                         "--seed", "0", "--out", str(spectrum)]) == 0
        run_dirs[tag] = out_root

    # simulate artifacts byte-identical
    assert (sim1 / "response.csv").read_bytes() == (sim2 / "response.csv").read_bytes()
    assert (sim1 / "response.json").read_bytes() == (sim2 / "response.json").read_bytes()

    mismatches = []
    for path_a in sorted(run_dirs["a"].rglob("*")):
        if path_a.is_dir():
            continue
        rel = path_a.relative_to(run_dirs["a"])
        if rel.name == "run_manifest.json":
            continue  # wall-clock metadata lives here only
        path_b = run_dirs["b"] / rel
        if rel.name == "config.json":
            cfg_a = json.loads(path_a.read_text())
            cfg_b = json.loads(path_b.read_text())
            cfg_a.pop("out"), cfg_b.pop("out")
            if cfg_a != cfg_b:
                mismatches.append(rel)
            continue
        if path_a.read_bytes() != path_b.read_bytes():
            mismatches.append(rel)
    assert not mismatches, f"non-deterministic artifacts: {mismatches}"
