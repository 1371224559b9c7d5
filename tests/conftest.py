import math

import numpy as np
import pytest

from bgwr.assessment import _obs_deviance
from bgwr.bayes_gwr import (MH_ADAPT_FACTOR, MH_ADAPT_WINDOW, MH_TARGET_ACCEPT, GwrPosterior,
                            _cell_layout, _kernel_state, _location_pairs, _total_loglik,
                            _weighted_rss)
from bgwr.dataio import china_graph
from bgwr.spatial_graph import build_graph, graph_distances
from bgwr.suffstats import block_stats


# one "criterion N: PASS/FAIL - ..." line per acceptance check, echoed in
# the terminal summary so they survive pytest's output capture
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def china():
    return china_graph()


@pytest.fixture(scope="session")
def china_d(china):
    return graph_distances(china)


@pytest.fixture(scope="session")
def line_graph():
    """Path graph A-B-C-D, distances 0..3."""
    return build_graph("ABCD", [("A", "B"), ("B", "C"), ("C", "D")])


def lattice_graph(w):
    """w x w grid graph, vertices r{i}c{j} joined to their row and column
    neighbours."""
    labels = [f"r{i}c{j}" for i in range(w) for j in range(w)]
    edges = ([(f"r{i}c{j}", f"r{i}c{j + 1}") for i in range(w) for j in range(w - 1)]
             + [(f"r{i}c{j}", f"r{i + 1}c{j}") for i in range(w - 1) for j in range(w)])
    return build_graph(labels, edges)


def random_graph(rng, n):
    """Erdos-Renyi style random graph over string vertex ids."""
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                edges.append((vertices[i], vertices[j]))
    return build_graph(vertices, edges)


def floyd_warshall(g):
    """Independent all-pairs shortest-path oracle."""
    n = g.n
    index = {v: i for i, v in enumerate(g.vertices)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for e in g.edges:
        a, b = tuple(e)
        dist[index[a], index[b]] = 1.0
        dist[index[b], index[a]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def sampler_loglik(data, d, kernel, b, beta, sigma2):
    """The log pseudo-likelihood run_sampler targets at (beta, sigma2, b),
    computed as the sampler does, from block statistics: the sum over
    locations s of log MVN(y; X beta_s, sigma2_s W(s|b)^-1) over the rows
    with positive weight.  ``beta`` is (L, p), ``sigma2`` (L,), both in
    ``data.unique_locations()`` order."""
    locs = data.unique_locations()
    G, h, q, counts = block_stats(data, locs)
    state = _kernel_state(kernel, _location_pairs(d.submatrix(locs), counts, G, h, q), b)
    Q = _weighted_rss(state, np.asarray(beta, dtype=float))
    return _total_loglik(state, Q, np.asarray(sigma2, dtype=float))


def loglik_oracle(data, log_w, beta, sigma2):
    """Row-by-row oracle for sampler_loglik from log weights.

    ``log_w`` is (L, n): the log weight of every row at every location, -inf
    for a dropped row.  Each kept row adds log N(y_i | x_i' beta_s,
    sigma2_s / w_si), written with log w so that an underflowed weight keeps
    its log-weight penalty.
    """
    total = 0.0
    for s in range(len(beta)):
        for i in range(data.n):
            lw = log_w[s, i]
            if np.isfinite(lw):
                r = data.y[i] - data.X[i] @ beta[s]
                total += -0.5 * (math.log(2 * math.pi * sigma2[s]) - lw
                                 + math.exp(lw) * r * r / sigma2[s])
    return total


def log_cpo_oracle(post, data):
    """One-shot log CPO: gathers every draw's parameters for every
    observation, a (T, n, p) array, and takes one log-sum-exp over draws."""
    loc_index = {s: k for k, s in enumerate(post.locations)}
    idx = np.array([loc_index[s] for s in data.locations])
    mu = np.einsum("tnp,np->tn", post.beta[:, idx, :], data.X)
    s2 = post.sigma2[:, idx]
    neg = 0.5 * (np.log(2 * math.pi * s2) + (data.y[None, :] - mu) ** 2 / s2)
    m = neg.max(axis=0)
    return math.log(post.n_draws) - (m + np.log(np.exp(neg - m).sum(axis=0)))


def dic_oracle(post, data):
    """One-shot (dic, p_d, mean_deviance, deviance_at_mean): the deviance of
    every draw at once, plug-in at the mean of beta and exp(E[log sigma2])."""
    G, h, q, counts = block_stats(data, post.locations)
    mean_dev = float(_obs_deviance(post.beta, post.sigma2, G, h, q, counts).mean())
    dev_at_mean = float(_obs_deviance(post.beta.mean(axis=0),
                                      np.exp(np.log(post.sigma2).mean(axis=0)),
                                      G, h, q, counts))
    p_d = mean_dev - dev_at_mean
    return dev_at_mean + 2.0 * p_d, p_d, mean_dev, dev_at_mean


def reference_sampler(data, d, kernel, cfg):
    """run_sampler with one covariate at a time: every (gamma_j, beta_j) update
    recomputes its conditional from the kernel state, and MH scores the
    proposal and the current state with two full log-likelihoods.  Same
    random stream as run_sampler, so the draws agree up to rounding."""
    locs = data.unique_locations()
    L, p = len(locs), data.p
    dsub = d.submatrix(locs)
    G, h, q, counts = block_stats(data, locs)
    rng = np.random.default_rng(cfg.seed)
    D = cfg.bandwidth_upper
    flat = cfg.flat_likelihood

    gamma = np.ones(p, dtype=int) if cfg.fix_gamma is None else np.asarray(cfg.fix_gamma, dtype=int)
    tau2 = np.full(p, cfg.tau2)
    b = cfg.fix_bandwidth if cfg.fix_bandwidth is not None else D / 2.0
    cells = _cell_layout(dsub, counts, G, h, q, cfg.fix_bandwidth is None)

    def fold(x):
        period = 2.0 * D
        x = np.abs(x) % period
        return period - x if x > D else x

    state = _kernel_state(kernel, cells, b)
    ridge = state["M"] + 1e-8 * np.eye(p)
    beta = np.linalg.solve(ridge, state["V"][..., None])[..., 0]
    Q = _weighted_rss(state, beta)
    sigma2 = np.maximum(Q / np.maximum(state["npos"], 1.0), 1e-6)
    if cfg.fix_sigma2 is not None:
        sigma2 = np.full(L, float(cfg.fix_sigma2))

    logit_prior = math.log(cfg.inclusion_prior) - math.log1p(-cfg.inclusion_prior)
    prop_scale = D / 10.0
    adapt_accepts = 0
    n_keep = cfg.chain_length - cfg.burn_in
    beta_out = np.empty((n_keep, L, p))
    sigma2_out = np.empty((n_keep, L))
    gamma_out = np.empty((n_keep, p), dtype=int)
    b_out = np.empty(n_keep)
    accepted_post = 0

    for t in range(cfg.chain_length):
        Mdiag = np.diagonal(state["M"], axis1=1, axis2=2)
        if flat:
            lam = tstat = np.zeros(L)
        else:
            has_obs = Mdiag > 0
            lam_all = np.where(has_obs, Mdiag / sigma2[:, None], 0.0)
            den_all = np.where(has_obs, Mdiag, 1.0) * sigma2[:, None]
        Mbeta = (state["M"] @ beta[:, :, None])[:, :, 0]
        for j in range(p):
            v0 = tau2[j]
            v1 = cfg.c2 * tau2[j]
            num = state["V"][:, j] - Mbeta[:, j] + Mdiag[:, j] * beta[:, j]
            if not flat:
                lam = lam_all[:, j]
                tstat = np.where(has_obs[:, j], num ** 2 / den_all[:, j], 0.0)
            if not cfg.selection:
                gamma[j] = 1
                v = cfg.slab_only_var
            else:
                if cfg.fix_gamma is None:
                    log_bf = (-0.5 * (np.log1p(lam * v1) - np.log1p(lam * v0))
                              - 0.5 * tstat * (1.0 / (lam * v1 + 1.0) - 1.0 / (lam * v0 + 1.0)))
                    log_odds = logit_prior + float(log_bf.sum())
                    u = rng.random()
                    gamma[j] = 1 if math.log(u) - math.log1p(-u) < log_odds else 0
                v = v1 if gamma[j] == 1 else v0
            if flat:
                new_bj = rng.normal(0.0, math.sqrt(v), size=L)
            else:
                prec = lam + 1.0 / v
                mean = np.where(has_obs[:, j], num / sigma2, 0.0) / prec
                new_bj = mean + rng.normal(size=L) / np.sqrt(prec)
            Mbeta += state["M"][:, :, j] * (new_bj - beta[:, j])[:, None]
            beta[:, j] = new_bj

        if not flat:
            Q = _weighted_rss(state, beta)
        if cfg.fix_sigma2 is None:
            if flat:
                g = np.maximum(rng.gamma(cfg.alpha1, 1.0 / cfg.alpha2, size=L),
                               np.finfo(float).tiny)
                sigma2 = 1.0 / g
            else:
                shape = cfg.alpha1 + state["npos"] / 2.0
                rate = cfg.alpha2 + Q / 2.0
                sigma2 = rate / rng.standard_gamma(shape)
        if cfg.tau_hyperprior and cfg.selection:
            scale_div = np.where(gamma == 1, cfg.c2, 1.0)
            rate = cfg.alpha2 + 0.5 * (beta ** 2 / scale_div).sum(axis=0)
            tau2 = rate / rng.standard_gamma(cfg.alpha1 + L / 2.0, size=p)

        if cfg.fix_bandwidth is None:
            b_prop = fold(state["b"] + prop_scale * rng.normal())
            prop_state = _kernel_state(kernel, cells, b_prop)
            if flat:
                accept = True
            else:
                log_ratio = (_total_loglik(prop_state, _weighted_rss(prop_state, beta), sigma2)
                             - _total_loglik(state, Q, sigma2))
                accept = math.log(rng.random()) < log_ratio
            if accept:
                state = prop_state
                adapt_accepts += 1
                if t >= cfg.burn_in:
                    accepted_post += 1
            if t < cfg.burn_in and (t + 1) % MH_ADAPT_WINDOW == 0:
                rate = adapt_accepts / MH_ADAPT_WINDOW
                if rate > MH_TARGET_ACCEPT + 0.05:
                    prop_scale = min(prop_scale * MH_ADAPT_FACTOR, 50.0 * D)
                elif rate < MH_TARGET_ACCEPT - 0.05:
                    prop_scale = max(prop_scale / MH_ADAPT_FACTOR, 1e-6 * D)
                adapt_accepts = 0

        if t >= cfg.burn_in:
            k = t - cfg.burn_in
            beta_out[k] = beta
            sigma2_out[k] = sigma2
            gamma_out[k] = gamma
            b_out[k] = state["b"]

    sampled = cfg.fix_bandwidth is None
    return GwrPosterior(locations=locs, beta=beta_out, sigma2=sigma2_out,
                        gamma=gamma_out, b=b_out,
                        acceptance_rate_b=accepted_post / n_keep if sampled else 0.0,
                        proposal_scale=prop_scale if sampled else math.nan)
