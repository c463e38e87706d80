"""Independent oracles used to freeze expected values.

Everything here is deliberately implemented through routes the library does
not use: dense generalized eigenproblems, brute-force Gaussian
conditioning, quadrature, long-run Monte Carlo.  scipy.stats serves as the
reference distribution implementation.
"""

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
