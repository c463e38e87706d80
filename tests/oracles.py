"""Independent oracles used to freeze expected values.

Everything here is deliberately implemented through routes the library does
not use: dense generalized eigenproblems, brute-force Gaussian
conditioning, quadrature, long-run Monte Carlo.  scipy.stats serves as the
reference distribution implementation.
"""

import csv
import math

import numpy as np
import scipy.linalg as sla


def proportional_damping_oracle(mass_mat, damp, stiff):
    """(frequencies Hz, damping ratios) from the dense generalized
    eigenproblem det(K - w^2 M) = 0, with stiffness-proportional damping
    C = beta * K giving zeta_i = beta * w_i / 2."""
    evals = sla.eigh(stiff, mass_mat, eigvals_only=True)
    omega = np.sqrt(np.clip(evals, 0.0, None))
    beta = damp[0, 0] / stiff[0, 0]
    return omega / (2.0 * np.pi), beta * omega / 2.0


def cca_generalized_eig_oracle(auto_x, auto_y, cross_xy):
    """Canonical correlations as eigenvalues of the paired generalized
    eigenproblem (dense route, no SVD)."""
    dx = auto_x.shape[0]
    dy = auto_y.shape[0]
    lhs = np.zeros((dx + dy, dx + dy))
    lhs[:dx, dx:] = cross_xy
    lhs[dx:, :dx] = cross_xy.T
    rhs = sla.block_diag(auto_x, auto_y)
    evals = sla.eig(lhs, rhs, right=False)
    evals = np.sort(np.real(evals))[::-1]
    return evals[:min(dx, dy)]


def gaussian_condition_oracle(weights, mean, cov, x):
    """E[z | x] and Cov[z | x] by brute-force joint-Gaussian conditioning.

    z ~ N(0, I), x | z ~ N(W z + mean, cov); the joint covariance is
    [[I, W^T], [W, W W^T + cov]].
    """
    d = weights.shape[1]
    joint_xx = weights @ weights.T + cov
    gain = weights.T @ np.linalg.inv(joint_xx)
    cond_mean = gain @ (x - mean)
    cond_cov = np.eye(d) - gain @ weights
    return cond_mean, cond_cov


def observability_forward(a, c_out, n_blocks):
    """Stack c_out @ a^b for b = 0..n_blocks-1."""
    rows = [c_out]
    for _ in range(n_blocks - 1):
        rows.append(rows[-1] @ a)
    return np.vstack(rows)


def weight_basis_dense(priors, prec):
    """(B, lam) of the variational weight basis by one D x D symmetric
    eigendecomposition, whatever blocks the priors factor on: with L the
    Cholesky factor of the weight prior covariance, L^T prec L = V diag(lam)
    V^T and B = L V.  This is the library's one-block route, operation for
    operation, applied to every prior: priors that couple the views must
    match it bit for bit, block-diagonal ones to rounding."""
    chol = priors.weight_chol
    quad = chol.T @ prec @ chol
    lam, vecs = np.linalg.eigh(0.5 * (quad + quad.T))
    return chol @ vecs, lam


def vb_observability_draw_full_basis(post, n, rng):
    """First-view rows of ``n`` full weight draws from the variational
    posterior: every column drawn over all D rows, D standard normals per
    column through its factor B diag(sqrt(e_i)), then the first-view rows
    kept (n x d1 x d)."""
    total_dim, d = post.weight_mean.shape
    d1 = post.view_dims[0]
    # d x D x d1: column i's factor restricted to the first-view rows
    factors = np.sqrt(post.weight_eigs)[:, :, None] * post.weight_basis[:d1].T
    noise = rng.standard_normal((n, d, total_dim))
    spread = (noise.transpose(1, 0, 2) @ factors).transpose(1, 2, 0)
    return post.weight_mean[:d1] + spread


def log_marginal_quadrature_1d(x, weight_sd, mean_sd, noise_scale, noise_dof,
                               n_herm=80, n_noise=400):
    """Log marginal likelihood of the one-view scalar model by quadrature.

    Model: z_n ~ N(0,1); x_n | z_n ~ N(w z_n + mu, sigma2) with priors
    w ~ N(0, weight_sd^2), mu ~ N(0, mean_sd^2) and sigma2 inverse-gamma
    (the 1-d inverse Wishart: shape noise_dof/2, scale noise_scale/2).
    z is integrated analytically (x_n | w, mu ~ N(mu, w^2 + sigma2) iid),
    then (w, mu) by Gauss-Hermite and sigma2 on a log grid.
    """
    from numpy.polynomial.hermite_e import hermegauss
    from scipy.stats import invgamma

    x = np.asarray(x, dtype=float)
    nodes, weights_h = hermegauss(n_herm)
    w_nodes = nodes * weight_sd
    mu_nodes = nodes * mean_sd

    shape = noise_dof / 2.0
    scale = noise_scale / 2.0
    # equal-probability-mass quantile grid for the sigma2 prior
    qs = (np.arange(n_noise) + 0.5) / n_noise
    sigma2_grid = invgamma.ppf(qs, a=shape, scale=scale)
    log_prior_mass = np.log(np.full(n_noise, 1.0 / n_noise))

    w_grid, mu_grid, s2_grid = np.meshgrid(w_nodes, mu_nodes, sigma2_grid,
                                           indexing="ij")
    var = w_grid**2 + s2_grid
    loglik = np.zeros_like(var)
    for xn in x:
        loglik += -0.5 * np.log(2.0 * np.pi * var) - 0.5 * (xn - mu_grid)**2 / var

    log_w_weights = np.log(weights_h / np.sqrt(2.0 * np.pi))
    # integral over standard-normal-like nodes: sum w_i f(nodes_i)/sqrt(2pi)
    total = (loglik
             + log_w_weights[:, None, None]
             + log_w_weights[None, :, None]
             + log_prior_mass[None, None, :])
    flat = total.reshape(-1)
    peak = flat.max()
    return float(peak + np.log(np.sum(np.exp(flat - peak))))


def mc_standard_error(draws, axis=0):
    """Monte Carlo standard error of the sample mean along ``axis``."""
    draws = np.asarray(draws)
    n = draws.shape[axis]
    return draws.std(axis=axis, ddof=1) / np.sqrt(n)


def batch_means_se(chain, n_batches=40):
    """Standard error of a correlated scalar chain via batch means."""
    chain = np.asarray(chain, dtype=float)
    n = chain.size
    batch = n // n_batches
    means = chain[:batch * n_batches].reshape(n_batches, batch).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def _view_slices(view_dims):
    edges = np.concatenate([[0], np.cumsum(view_dims)]).astype(int)
    return [slice(edges[m], edges[m + 1]) for m in range(len(view_dims))]


def vb_residual_scatter_dense(q, x, view_dims):
    """Per-view blocks of sum_n E[(x_n - mu - W z_n)(...)^T], streaming the
    explicit residual matrix and the d x N latent means ``q["latent_mean"]``."""
    n = x.shape[1]
    wm, zm, lc = q["weight_mean"], q["latent_mean"], q["latent_cov"]
    resid = x - q["mean_loc"][:, None] - wm @ zm
    sq_diag = np.sum(zm**2, axis=1) + n * np.diag(lc)
    out = []
    for sl in _view_slices(view_dims):
        block = resid[sl] @ resid[sl].T + n * q["mean_cov"][sl, sl]
        block = block + n * wm[sl] @ lc @ wm[sl].T
        for i in range(wm.shape[1]):
            block = block + sq_diag[i] * q["weight_cov"][i][sl, sl]
        out.append(0.5 * (block + block.T))
    return out


def vb_sweep_dense(q, x, view_dims, priors, cross_cov=True):
    """One coordinate-ascent sweep (latent, each weight column, noise, mean)
    of the variational engine with explicit d x N latent means and dense
    inverses.  ``q`` is a dict of factor parameters; a new dict is returned."""
    q = {k: (np.copy(v) if isinstance(v, np.ndarray) else [np.copy(b) for b in v])
         for k, v in q.items()}
    n = x.shape[1]
    d = q["weight_mean"].shape[1]

    def block_precision():
        return sla.block_diag(*[dof * np.linalg.inv(scale) for scale, dof
                                in zip(q["noise_scale"], q["noise_dof"])])

    prec = block_precision()
    wm, wc = q["weight_mean"], q["weight_cov"]
    quad = (wm.T @ prec @ wm + np.diag([np.sum(prec * wc[i]) for i in range(d)])
            + np.eye(d))
    q["latent_cov"] = np.linalg.inv(quad)
    q["latent_mean"] = q["latent_cov"] @ wm.T @ prec @ (x - q["mean_loc"][:, None])

    w_prior_prec = np.linalg.inv(priors.weight_cov)
    zm, lc = q["latent_mean"], q["latent_cov"]
    centred = x - q["mean_loc"][:, None]
    for i in range(d):
        sq_sum = zm[i] @ zm[i] + n * lc[i, i]
        cov = np.linalg.inv(w_prior_prec + sq_sum * prec)
        cross = zm @ zm[i] + (n * lc[:, i] if cross_cov else 0.0)
        term = centred @ zm[i] - (wm @ cross - wm[:, i] * cross[i])
        wm[:, i] = cov @ (prec @ term + w_prior_prec @ priors.weight_loc)
        wc[i] = cov

    scatter = vb_residual_scatter_dense(q, x, view_dims)
    q["noise_scale"] = [scale0 + blk for scale0, blk in zip(priors.noise_scale, scatter)]
    q["noise_dof"] = [dof0 + n for dof0 in priors.noise_dof]

    prec = block_precision()
    m_prior_prec = np.linalg.inv(priors.mean_cov)
    q["mean_cov"] = np.linalg.inv(m_prior_prec + n * prec)
    demeaned = x.sum(axis=1) - wm @ zm.sum(axis=1)
    q["mean_loc"] = q["mean_cov"] @ (prec @ demeaned + m_prior_prec @ priors.mean_loc)
    return q


def vb_bound_dense(q, x, view_dims, priors):
    """Evidence lower bound of the surrogate ``q`` (factor parameters as in
    ``vb_sweep_dense``) on the explicit data: the expected log likelihood
    from the explicit residuals, minus the KL divergence of every factor
    from its prior, with dense inverses and slogdet log determinants."""
    from scipy.special import digamma, multigammaln

    n = x.shape[1]

    def logdet(a):
        return np.linalg.slogdet(a)[1]

    def gaussian_kl(loc, cov, loc0, cov0):
        prec0 = np.linalg.inv(cov0)
        dev = loc - loc0
        return 0.5 * (np.trace(prec0 @ cov) + dev @ prec0 @ dev - loc.size
                      + logdet(cov0) - logdet(cov))

    def e_logdet(scale, dof):
        # E ln |precision| for precision ~ Wishart(dof, scale^-1)
        dim = scale.shape[0]
        return (sum(digamma(0.5 * (dof - k)) for k in range(dim))
                + dim * np.log(2.0) - logdet(scale))

    def wishart_kl(scale, dof, scale0, dof0):
        # KL(Wishart(dof, V) || Wishart(dof0, V0)), V = scale^-1, V0 = scale0^-1
        dim = scale.shape[0]
        return (0.5 * (dof - dof0) * e_logdet(scale, dof) - 0.5 * dof * dim
                + 0.5 * dof * np.trace(scale0 @ np.linalg.inv(scale))
                - 0.5 * (dof - dof0) * dim * np.log(2.0)
                + 0.5 * dof * logdet(scale) - 0.5 * dof0 * logdet(scale0)
                - multigammaln(0.5 * dof, dim) + multigammaln(0.5 * dof0, dim))

    value = 0.0
    scatter = vb_residual_scatter_dense(q, x, view_dims)
    for blk, scale, dof in zip(scatter, q["noise_scale"], q["noise_dof"]):
        dim = scale.shape[0]
        value += 0.5 * n * (e_logdet(scale, dof) - dim * np.log(2.0 * np.pi))
        value -= 0.5 * dof * np.trace(np.linalg.inv(scale) @ blk)
    zm, lc = q["latent_mean"], q["latent_cov"]
    d = lc.shape[0]
    value -= 0.5 * (n * np.trace(lc) + np.sum(zm**2) - n * d - n * logdet(lc))
    value -= gaussian_kl(q["mean_loc"], q["mean_cov"], priors.mean_loc, priors.mean_cov)
    for i in range(d):
        value -= gaussian_kl(q["weight_mean"][:, i], q["weight_cov"][i],
                             priors.weight_loc, priors.weight_cov)
    for scale, dof, scale0, dof0 in zip(q["noise_scale"], q["noise_dof"],
                                        priors.noise_scale, priors.noise_dof):
        value -= wishart_kl(scale, dof, scale0, dof0)
    return float(value)


def log_joint_dense(x, latent, weights, mean, noise, priors):
    """Log of the full joint density at (weights, mean, per-view noise
    blocks, latent matrix) on the explicit data ``x``, constants included,
    assembled from scipy.stats densities column by column."""
    import scipy.stats as st

    fitted = weights @ latent + mean[:, None]
    full_cov = sla.block_diag(*noise)
    d = latent.shape[0]
    value = 0.0
    for k in range(x.shape[1]):
        value += st.multivariate_normal(fitted[:, k], full_cov).logpdf(x[:, k])
        value += st.multivariate_normal(np.zeros(d), np.eye(d)).logpdf(latent[:, k])
    for blk, scale, dof in zip(noise, priors.noise_scale, priors.noise_dof):
        value += st.invwishart(df=dof, scale=scale).logpdf(blk)
    value += st.multivariate_normal(priors.mean_loc, priors.mean_cov).logpdf(mean)
    for i in range(d):
        value += st.multivariate_normal(priors.weight_loc,
                                        priors.weight_cov).logpdf(weights[:, i])
    return float(value)


def gibbs_chain_dense(x, view_dims, priors, n_sweeps, seed, start=None):
    """Gibbs chain with an explicit d x N latent matrix, explicit residuals
    and dense inverses; scipy.stats draws the inverse-Wishart noise blocks.

    Each sweep draws the noise blocks, the mean, every weight column (in
    place) and the latent columns.  ``start`` is (weights, mean, noise
    blocks) with the latent at its conditional mean there; without it the
    chain starts from a prior draw.  Returns per-sweep arrays
    (means n x D, weights n x D x d, one n x D_m x D_m array per view).
    """
    from scipy.stats import invwishart

    gen = np.random.default_rng(seed)
    total_dim, n = x.shape
    d = priors.latent_dim
    slices = _view_slices(view_dims)
    mean_prior_prec = np.linalg.inv(priors.mean_cov)
    weight_prior_prec = np.linalg.inv(priors.weight_cov)

    def draw_noise(scales, dofs):
        return [np.atleast_2d(invwishart.rvs(df=dof, scale=scale, random_state=gen))
                for scale, dof in zip(scales, dofs)]

    def latent_moments(weights, mean, noise):
        prec = sla.block_diag(*[np.linalg.inv(blk) for blk in noise])
        cov = np.linalg.inv(weights.T @ prec @ weights + np.eye(d))
        return cov @ weights.T @ prec @ (x - mean[:, None]), cov

    if start is None:
        noise = draw_noise(priors.noise_scale, priors.noise_dof)
        mean = gen.multivariate_normal(priors.mean_loc, priors.mean_cov)
        weights = np.column_stack([gen.multivariate_normal(priors.weight_loc,
                                                           priors.weight_cov)
                                   for _ in range(d)])
        latent = gen.standard_normal((d, n))
    else:
        weights, mean, noise = (np.array(start[0]), np.array(start[1]),
                                [np.array(blk) for blk in start[2]])
        latent, _ = latent_moments(weights, mean, noise)

    out_mean = np.empty((n_sweeps, total_dim))
    out_weights = np.empty((n_sweeps, total_dim, d))
    out_noise = [np.empty((n_sweeps, sl.stop - sl.start, sl.stop - sl.start))
                 for sl in slices]
    for sweep in range(n_sweeps):
        resid = x - mean[:, None] - weights @ latent
        noise = draw_noise([scale0 + resid[sl] @ resid[sl].T
                            for sl, scale0 in zip(slices, priors.noise_scale)],
                           [dof0 + n for dof0 in priors.noise_dof])
        prec = sla.block_diag(*[np.linalg.inv(blk) for blk in noise])

        cov = np.linalg.inv(n * prec + mean_prior_prec)
        loc = cov @ (prec @ (x - weights @ latent).sum(axis=1)
                     + mean_prior_prec @ priors.mean_loc)
        mean = gen.multivariate_normal(loc, cov)

        for i in range(d):
            others = (x - mean[:, None] - weights @ latent
                      + np.outer(weights[:, i], latent[i]))
            cov = np.linalg.inv(latent[i] @ latent[i] * prec + weight_prior_prec)
            loc = cov @ (prec @ others @ latent[i] + weight_prior_prec @ priors.weight_loc)
            weights[:, i] = gen.multivariate_normal(loc, cov)

        means, cov = latent_moments(weights, mean, noise)
        latent = means + np.linalg.cholesky(cov) @ gen.standard_normal((d, n))

        out_mean[sweep] = mean
        out_weights[sweep] = weights
        for blocks, blk in zip(out_noise, noise):
            blocks[sweep] = blk
    return out_mean, out_weights, out_noise


def gibbs_transition_dense(stats, priors, weights, mean, lat, rng):
    """The sampler's noise, mean and weight-column draws given the latent
    statistics ``lat``, the unblocked way: the full D x D residual scatter,
    the noise precision by inverting each drawn block, and one dense
    D x D Cholesky factor per conditional.  Consumes ``rng`` in the
    sampler's order (both noise blocks, D normals for the mean, D per
    column) and returns (weights, mean, noise blocks, dense precision)."""
    from bayes_ssi.rng import sample_inverse_wishart_pair

    def sym(a):
        return 0.5 * (a + a.T)

    def spd_inv(a):
        return sym(sla.cho_solve((np.linalg.cholesky(sym(a)), True), np.eye(a.shape[0])))

    def draw(post_prec, rhs):
        chol = np.linalg.cholesky(sym(post_prec))
        loc = sla.cho_solve((chol, True), rhs)
        white = rng.standard_normal(rhs.size)
        return loc + sla.solve_triangular(chol.T, white, lower=False)

    n = stats.n_cols
    dev = stats.row_mean - mean
    fitted = weights @ lat.total
    scatter = sym(stats.gram + n * np.outer(dev, dev)
                  - lat.cross @ weights.T - weights @ lat.cross.T
                  - np.outer(dev, fitted) - np.outer(fitted, dev)
                  + weights @ lat.gram @ weights.T)
    noise = [sample_inverse_wishart_pair(rng, sym(scale0 + scatter[sl, sl]), dof0 + n)[0]
             for sl, scale0, dof0 in zip(_view_slices(stats.view_dims),
                                         priors.noise_scale, priors.noise_dof)]
    prec = sla.block_diag(*[spd_inv(blk) for blk in noise])

    mean_prior_prec = spd_inv(priors.mean_cov)
    weight_prior_prec = spd_inv(priors.weight_cov)
    mean = draw(n * prec + mean_prior_prec,
                prec @ (n * stats.row_mean - fitted) + mean_prior_prec @ priors.mean_loc)
    weights = weights.copy()
    for i in range(weights.shape[1]):
        data = (lat.cross[:, i] + (stats.row_mean - mean) * lat.total[i]
                - weights @ lat.gram[:, i] + weights[:, i] * lat.gram[i, i])
        weights[:, i] = draw(lat.gram[i, i] * prec + weight_prior_prec,
                             prec @ data + weight_prior_prec @ priors.weight_loc)
    return weights, mean, noise, prec


def propagate_and_align_loop(samples, n_channels, dt, reference,
                             mac_threshold=0.8, freq_gate=0.1, mac_decimals=12):
    """Posterior draws propagated and aligned one draw at a time.

    Each draw's shifted block gets an SVD rank test, a pinv solve and an
    ``eig``; its modes are matched to the reference by scanning every
    gated (MAC rounded to ``mac_decimals``, -frequency distance, draw
    mode, reference mode) tuple in descending order.  Returns the excluded and unassigned counts and, per
    complex reference mode, the aligned (frequencies, damping ratios,
    phase-aligned shapes, MACs, draw indices).
    """
    def vdot_mac(a, b):
        den = float(np.real(np.vdot(a, a)) * np.real(np.vdot(b, b)))
        return abs(np.vdot(a, b)) ** 2 / den if den else 0.0

    def unit_phase(shape):
        norm = np.linalg.norm(shape)
        if norm == 0:
            return shape.astype(complex)
        rotated = shape / norm
        s = complex(np.sum(rotated**2))
        return rotated * np.exp(-0.5j * np.angle(s)) if abs(s) > 0 else rotated

    def modes(obs):
        top, bottom = obs[:-n_channels], obs[n_channels:]
        order = obs.shape[1]
        svals = np.linalg.svd(top, compute_uv=False)
        if svals.size < order or svals[order - 1] <= 1e-12 * svals[0]:
            raise np.linalg.LinAlgError("rank deficient")
        eigvals, eigvecs = np.linalg.eig(np.linalg.pinv(top, rcond=1e-12) @ bottom)
        keep = (np.abs(eigvals) > 1e-300) & (eigvals.imag >= 0)
        lam = np.log(eigvals[keep].astype(complex)) / dt
        mag = np.abs(lam)
        with np.errstate(invalid="ignore", divide="ignore"):
            damping = np.where(mag > 0, -lam.real / np.where(mag > 0, mag, 1.0), 0.0)
        freqs = mag / (2.0 * np.pi)
        idx = np.argsort(freqs, kind="stable")
        return freqs[idx], damping[idx], (obs[:n_channels] @ eigvecs[:, keep])[:, idx]

    ref_idx = np.flatnonzero(~reference.real_pole)
    ref_shapes = [unit_phase(reference.mode_shapes[:, j]) for j in ref_idx]
    ref_freqs = reference.frequencies[ref_idx]
    buckets = [([], [], [], [], []) for _ in ref_idx]
    n_excluded = n_unassigned = 0
    for k, obs in enumerate(samples):
        if not np.all(np.isfinite(obs)):
            n_excluded += 1
            continue
        try:
            freqs, damping, shapes = modes(obs)
        except np.linalg.LinAlgError:
            n_excluded += 1
            continue
        pairs = []
        for jm, f in enumerate(freqs):
            for jr, (f_ref, s_ref) in enumerate(zip(ref_freqs, ref_shapes)):
                if f_ref > 0 and abs(f - f_ref) > freq_gate * f_ref:
                    continue
                score = vdot_mac(shapes[:, jm], s_ref)
                if score >= mac_threshold:
                    pairs.append((float(np.round(score, mac_decimals)), -abs(f - f_ref),
                                  jm, jr))
        used_draw, used_ref = set(), set()
        for _, _, jm, jr in sorted(pairs, reverse=True):
            if jm in used_draw or jr in used_ref:
                continue
            score = vdot_mac(shapes[:, jm], ref_shapes[jr])
            used_draw.add(jm)
            used_ref.add(jr)
            aligned = unit_phase(shapes[:, jm])
            if np.real(np.vdot(ref_shapes[jr], aligned)) < 0:
                aligned = -aligned
            for bucket, value in zip(buckets[jr], (freqs[jm], damping[jm], aligned,
                                                   score, k)):
                bucket.append(value)
        n_unassigned += freqs.size - len(used_draw)
    clusters = [tuple(np.array(values) for values in bucket) for bucket in buckets]
    return n_excluded, n_unassigned, clusters


def csv_rows_reading(path):
    """Samples x channels array of a numeric CSV read row by row: the csv
    module splits every non-empty row, Python's ``float`` parses each cell,
    and a first row that does not parse is the header.  Raises ValueError
    with the messages ``io.ingest_csv`` uses."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        rows = rows[1:]
        if not rows:
            raise ValueError(f"{path}: no data rows below the header") from None
    width = len(rows[0])
    values = []
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {r}: expected {width} cells, got {len(row)}")
        try:
            values.append([float(cell) for cell in row])
        except ValueError:
            raise ValueError(f"{path}: non-numeric cell at row {r}") from None
        if not all(math.isfinite(v) for v in values[-1]):
            raise ValueError(f"{path}: non-finite value at row {r}")
    return np.array(values)


def simulate_response_loop(dss, n_samples, rng):
    """The simulator's record stepped one sample at a time: the same
    normals as ``simulate.simulate_response``, drawn in the same order,
    then y_k = C x_k + v_k and x_{k+1} = A x_k + w_k in a Python loop."""
    from bayes_ssi.rng import psd_factor
    from bayes_ssi.simulate import TimeSeries, stationary_state_covariance

    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    p = dss.a.shape[0]
    l = dss.c_out.shape[0]

    f_init = psd_factor(stationary_state_covariance(dss))
    f_proc = psd_factor(dss.process_noise_cov)
    f_meas = psd_factor(dss.meas_noise_cov)

    state = f_init @ rng.standard_normal(p)
    proc = f_proc @ rng.standard_normal((p, n_samples))
    meas = f_meas @ rng.standard_normal((l, n_samples))

    data = np.empty((l, n_samples))
    for k in range(n_samples):
        data[:, k] = dss.c_out @ state + meas[:, k]
        state = dss.a @ state + proc[:, k]
    return TimeSeries(data=data, fs=dss.fs)
