"""Bayesian GWR with spike-and-slab variable selection and bandwidth inference.

The target posterior multiplies, across locations s, the weighted
multivariate-normal likelihood MVN(Y; X beta(s), sigma2(s) W(s|b)^-1) with
per-location coefficient and variance priors, a single inclusion indicator
gamma_j shared by all locations, and a single bandwidth b with a Uniform(0, D)
prior.

Update scheme per sweep:

* for each covariate j: draw gamma_j from its conditional with beta_j(.)
  integrated out (exact Gaussian marginal), then redraw beta_j(s) from its
  conjugate normal conditional -- a blocked update that mixes across the
  spike/slab states without random-walk moves;
* sigma2(s) from its conjugate inverse-gamma conditional;
* optionally tau_j^2 from its inverse-gamma conditional (hyperprior variant);
* b by random-walk Metropolis--Hastings, proposals folded back into (0, D)
  by reflection; the proposal scale adapts toward ~0.3 acceptance during
  burn-in and is frozen afterwards.

Observations with weight zero at a location contribute nothing to that
location's likelihood (sigma2 W^-1 is undefined at w = 0); the log-determinant
runs over positive-weight rows only.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .weighting import WeightScheme, log_kernel_weight

MH_TARGET_ACCEPT = 0.3
MH_ADAPT_WINDOW = 50
MH_ADAPT_FACTOR = 1.5


@dataclass(frozen=True)
class BayesConfig:
    """Priors, chain settings, and diagnostic switches.

    tau2/c2 give the spike and slab variances (slab variance = c2*tau2);
    setting ``tau_hyperprior`` replaces the fixed tau2 with an
    IGamma(alpha1, alpha2) hyperprior.  ``selection=False`` drops the
    spike-and-slab layer and uses a fixed N(0, slab_only_var I) coefficient
    prior.  The fix_* fields pin a component for validation runs, and
    ``flat_likelihood`` replaces the data likelihood by a constant so the
    chain should recover the prior.
    """

    tau2: float = 0.001
    c2: float = 10000.0
    inclusion_prior: float = 0.5
    alpha1: float = 0.01
    alpha2: float = 0.01
    bandwidth_upper: float = 100.0
    chain_length: int = 4000
    burn_in: int = 1000
    seed: int = 0
    tau_hyperprior: bool = False
    selection: bool = True
    slab_only_var: float = 100.0
    fix_sigma2: float = None
    fix_gamma: tuple = None
    fix_bandwidth: float = None
    flat_likelihood: bool = False

    def __post_init__(self):
        if self.tau2 <= 0 or self.c2 <= 1:
            raise ValueError("require tau2 > 0 and c2 > 1")
        if not 0 < self.inclusion_prior < 1:
            raise ValueError("inclusion_prior must be in (0, 1)")
        if self.bandwidth_upper <= 0:
            raise ValueError("bandwidth upper limit D must be positive")
        if not 0 <= self.burn_in < self.chain_length:
            raise ValueError("require 0 <= burn_in < chain_length")
        if self.fix_sigma2 is not None and not self.fix_sigma2 > 0:
            raise ValueError("fix_sigma2 must be positive")


@dataclass
class GwrPosterior:
    """Post-burn-in chains plus the geometry needed to re-evaluate them."""

    locations: tuple
    beta: np.ndarray      # (T, L, p)
    sigma2: np.ndarray    # (T, L)
    gamma: np.ndarray     # (T, p) of 0/1
    b: np.ndarray         # (T,)
    acceptance_rate_b: float
    kernel: str
    dsub: np.ndarray      # (L, L) distances between data locations
    config: BayesConfig

    @property
    def n_draws(self):
        return self.beta.shape[0]


@dataclass
class PosteriorSummary:
    locations: tuple
    beta_mean: np.ndarray     # (L, p)
    sigma2_mean: np.ndarray   # (L,)
    hpd_lower: np.ndarray     # (L, p)
    hpd_upper: np.ndarray     # (L, p)
    inclusion_freq: np.ndarray  # (p,)
    selected: tuple           # 1-based covariate indices
    b_mean: float


def block_stats(data, locations):
    """Per-location sufficient statistics of the design.

    Returns (G, h, q, counts): Gram blocks X_l'X_l, cross products X_l'y_l,
    squared norms y_l'y_l, and observation counts, in ``locations`` order.
    """
    p = data.p
    L = len(locations)
    G = np.zeros((L, p, p))
    h = np.zeros((L, p))
    q = np.zeros(L)
    # group the rows by location once (rows elsewhere go to group L, which
    # is dropped), keeping each location's rows in data order
    index = {s: k for k, s in enumerate(locations)}
    group = np.array([index.get(s, L) for s in data.locations])
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(L + 1))
    for k in range(L):
        rows = order[bounds[k]:bounds[k + 1]]
        Xs, ys = data.X[rows], data.y[rows]
        G[k] = Xs.T @ Xs
        h[k] = Xs.T @ ys
        q[k] = ys @ ys
    return G, h, q, np.diff(bounds).astype(float)


def weighted_blocks(K, G, h):
    """X'W(s)X = sum_l K[s, l] G_l and X'W(s)y = sum_l K[s, l] h_l at every
    location s, from (L, L) weights K and the Gram blocks and cross products
    of ``block_stats``; the sampler and the frequentist fit share it."""
    L, p, _ = G.shape
    return (K @ G.reshape(L, p * p)).reshape(-1, p, p), K @ h


def _kernel_state(kernel, dsub, b, counts, G, h, q):
    """Everything that depends on the bandwidth: the weighted blocks M and V,
    the weighted response norms Kq, the diagonal of M and the log-det terms.

    Positivity is judged on the analytic log weights so that underflowed
    (but structurally positive) weights keep their observations in the
    likelihood with the exact log-weight penalty.
    """
    logK = log_kernel_weight(WeightScheme(kernel, b), dsub)
    K = np.exp(logK)
    pos = np.isfinite(logK)
    npos = pos @ counts
    sumlogw = np.where(pos, logK, 0.0) @ counts
    M, V = weighted_blocks(K, G, h)
    return {"b": b, "npos": npos, "sumlogw": sumlogw, "M": M, "V": V,
            "Kq": K @ q, "Mdiag": np.diagonal(M, axis1=1, axis2=2).copy()}


def _weighted_rss(state, beta):
    """Q_s = sum_l K[s, l] (q_l - 2 beta_s . h_l + beta_s' G_l beta_s), the
    kernel-weighted residual sum of squares at every location, in O(L p^2)
    from the kernel state: Q_s = Kq_s - 2 beta_s . V_s + beta_s' M_s beta_s."""
    Mbeta = (state["M"] @ beta[:, :, None])[:, :, 0]
    return state["Kq"] + np.einsum("sp,sp->s", beta, Mbeta - 2.0 * state["V"])


def _total_loglik(state, Q, sigma2):
    return -0.5 * float(np.sum(state["npos"] * (math.log(2 * math.pi) + np.log(sigma2))
                               - state["sumlogw"] + Q / sigma2))


def _fold(x, upper):
    """Reflect a proposal back into (0, upper)."""
    period = 2.0 * upper
    x = np.abs(x) % period
    return period - x if x > upper else x


def run_sampler(data, d, kernel, cfg):
    """Run the MCMC chain and return post-burn-in draws.

    ``kernel`` is a kernel name (or WeightScheme, whose bandwidth is
    ignored -- the bandwidth is sampled).  Bit-identical output for
    identical (data, d, kernel, cfg).
    """
    if isinstance(kernel, WeightScheme):
        kernel = kernel.kernel
    if data.n == 0:
        raise ValueError("empty dataset")
    locs = data.unique_locations()
    L, p = len(locs), data.p
    dsub = d.submatrix(locs)
    G, h, q, counts = block_stats(data, locs)
    rng = np.random.default_rng(cfg.seed)
    D = cfg.bandwidth_upper
    flat = cfg.flat_likelihood

    gamma = np.ones(p, dtype=int) if cfg.fix_gamma is None else np.asarray(cfg.fix_gamma, dtype=int)
    if cfg.fix_gamma is not None and gamma.shape != (p,):
        raise ValueError("fix_gamma length must match the covariate count")
    tau2 = np.full(p, cfg.tau2)
    b = cfg.fix_bandwidth if cfg.fix_bandwidth is not None else D / 2.0

    state = _kernel_state(kernel, dsub, b, counts, G, h, q)
    # deterministic start: ridge-stabilized WLS coefficients, residual variance
    ridge = state["M"] + 1e-8 * np.eye(p)
    beta = np.linalg.solve(ridge, state["V"][..., None])[..., 0]
    Q = _weighted_rss(state, beta)
    sigma2 = np.maximum(Q / np.maximum(state["npos"], 1.0), 1e-6)
    if cfg.fix_sigma2 is not None:
        sigma2 = np.full(L, float(cfg.fix_sigma2))
    if not flat and not np.isfinite(_total_loglik(state, Q, sigma2)):
        raise ValueError("non-finite posterior density at initialization")

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
        # --- (gamma_j, beta_j(.)) blocked updates -------------------------
        # fixed while sigma2 and b are: the diagonal of M, its positive
        # entries, the likelihood precisions and the t-statistic denominators
        Mdiag = state["Mdiag"]
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
                    # beta_j integrated out: per-location Bayes factor of
                    # slab vs spike given the conditional Gaussian likelihood
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

        # the current state's weighted RSS, shared by the sigma2 draw and MH
        if not flat:
            Q = _weighted_rss(state, beta)

        # --- sigma2(s) ----------------------------------------------------
        if cfg.fix_sigma2 is None:
            if flat:
                # guard the reciprocal: a tiny-shape gamma draw can underflow to 0
                g = np.maximum(rng.gamma(cfg.alpha1, 1.0 / cfg.alpha2, size=L),
                               np.finfo(float).tiny)
                sigma2 = 1.0 / g
            else:
                shape = cfg.alpha1 + state["npos"] / 2.0
                rate = cfg.alpha2 + Q / 2.0
                sigma2 = rate / rng.gamma(shape, 1.0, size=L)

        # --- tau_j^2 hyperprior -------------------------------------------
        if cfg.tau_hyperprior and cfg.selection:
            scale_div = np.where(gamma == 1, cfg.c2, 1.0)
            rate = cfg.alpha2 + 0.5 * (beta ** 2 / scale_div).sum(axis=0)
            tau2 = rate / rng.gamma(cfg.alpha1 + L / 2.0, 1.0, size=p)

        # --- bandwidth by folded random-walk MH ---------------------------
        if cfg.fix_bandwidth is None:
            b_prop = _fold(state["b"] + prop_scale * rng.normal(), D)
            prop_state = _kernel_state(kernel, dsub, b_prop, counts, G, h, q)
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

    acc = accepted_post / n_keep if cfg.fix_bandwidth is None else 0.0
    return GwrPosterior(locations=locs, beta=beta_out, sigma2=sigma2_out,
                        gamma=gamma_out, b=b_out, acceptance_rate_b=acc,
                        kernel=kernel, dsub=dsub, config=cfg)


def hpd_interval(samples, mass=0.95):
    """Shortest contiguous window of sorted samples holding ceil(mass*T).

    Works along axis 0 of a (T, ...) array and returns (lower, upper) arrays
    of the trailing shape; for 1-D input they are floats.
    """
    x = np.sort(np.asarray(samples, dtype=float), axis=0)
    T = x.shape[0]
    if T == 0:
        raise ValueError("empty sample")
    m = int(math.ceil(mass * T))
    widths = x[m - 1:] - x[:T - m + 1]
    i = np.argmin(widths, axis=0)
    lower = np.take_along_axis(x, i[None], axis=0)[0]
    upper = np.take_along_axis(x, (i + m - 1)[None], axis=0)[0]
    if x.ndim == 1:
        return float(lower), float(upper)
    return lower, upper


def posterior_summary(post, mass=0.95):
    """Posterior means, HPD intervals, inclusion frequencies, selected set."""
    if post.n_draws == 0:
        raise ValueError("empty chain")
    lower, upper = hpd_interval(post.beta, mass)
    freq = post.gamma.mean(axis=0)
    return PosteriorSummary(
        locations=post.locations,
        beta_mean=post.beta.mean(axis=0),
        sigma2_mean=post.sigma2.mean(axis=0),
        hpd_lower=lower,
        hpd_upper=upper,
        inclusion_freq=freq,
        selected=selected_model(post),
        b_mean=float(post.b.mean()),
    )


def selected_model(post):
    """1-based covariate indices with posterior inclusion frequency >= 0.5.

    Frequencies exactly at 0.5 count as selected.
    """
    freq = post.gamma.mean(axis=0)
    return tuple(int(j) + 1 for j in np.flatnonzero(freq >= 0.5))
