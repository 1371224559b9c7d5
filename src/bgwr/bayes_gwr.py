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
  spike/slab states without random-walk moves.  Everything these
  conditionals take from (sigma2, b, tau2) is computed once per sweep for
  all p covariates, as (p, L) rows: the likelihood precision lam, the
  log Bayes-factor constant and t-statistic weight of the gamma_j draw, and
  for both gamma states the posterior-mean factor and standard deviation.
  What they take from b alone is derived once per accepted bandwidth: the
  (p, L) layouts of M and V, 0.5 / diag(M) (guarded where it is zero), the
  mask of where diag(M) > 0 (kept only when it is somewhere false) and the
  sigma2 draw's shape alpha1 + npos / 2 (a scalar when it is the same at
  every location); what they take from tau2 alone, the prior variances and
  their reciprocals, only when tau2 changes.  What they take from the other
  coefficients is the running (p, L) array num, num[j] = V_j - sum_{k != j}
  M_jk beta_k, built at the start of the sweep and updated by
  M[:, :, j].T * delta after each beta_j draw, so one covariate costs a dot
  product, one uniform and L normal draws and a few elementwise operations;
* sigma2(s) from its conjugate inverse-gamma conditional, whose weighted
  RSS Q_s = Kq_s - 2 beta_s . V_s + beta_s' M_s beta_s the Gibbs block
  leaves behind: after the loop num - diag(M) beta_start = V - M beta, so
  Q = Kq - sum_j beta_j (V_j + (V - M beta)_j);
* optionally tau_j^2 from its inverse-gamma conditional (hyperprior variant);
* b by random-walk Metropolis--Hastings, proposals folded back into (0, D)
  by reflection; the proposal scale adapts toward ~0.3 acceptance during
  burn-in and is frozen afterwards.  A bandwidth enters the likelihood only
  through the kernel weights of a set of cells, each gathering packed
  block statistics (``suffstats.packed_stats``) at one distance: the U
  distance shells when the distances take U < L distinct values, as graph
  hop counts do, and b is sampled, else the L x L location pairs.  A
  proposal costs its kernel weights, their one product with the cells'
  statistics, which gives its (C, L) weighted statistics S(b), and O(C L)
  arithmetic, as sum_s Q_s(b) / sigma2_s = sum(phi * S(b)) for the (C, L)
  rows phi of the current (beta, sigma2); the kernel state and the Gibbs
  block's (p, L) layouts of it are derived from S(b) only when the
  proposal is accepted.

Observations with weight zero at a location contribute nothing to that
location's likelihood (sigma2 W^-1 is undefined at w = 0); the log-determinant
runs over positive-weight rows only.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .suffstats import _triangle, block_stats, packed_stats, rss, unpack
from .weighting import WeightScheme, log_kernel_weight

MH_TARGET_ACCEPT = 0.3
MH_ADAPT_WINDOW = 50
MH_ADAPT_FACTOR = 1.5
LOG_2PI = math.log(2 * math.pi)


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
        # each test is written so that NaN fails it
        if not (self.tau2 > 0 and self.c2 > 1):
            raise ValueError("require tau2 > 0 and c2 > 1")
        if not 0 < self.inclusion_prior < 1:
            raise ValueError("inclusion_prior must be in (0, 1)")
        if not 0 < self.bandwidth_upper < math.inf:
            raise ValueError("bandwidth upper limit D must be positive and finite")
        if not (self.alpha1 > 0 and self.alpha2 > 0 and self.slab_only_var > 0):
            raise ValueError("require alpha1 > 0, alpha2 > 0 and slab_only_var > 0")
        if not 0 <= self.burn_in < self.chain_length:
            raise ValueError("require 0 <= burn_in < chain_length")
        if self.fix_sigma2 is not None and not self.fix_sigma2 > 0:
            raise ValueError("fix_sigma2 must be positive")


@dataclass
class GwrPosterior:
    """Post-burn-in draws, with locations in the order of their axis."""

    locations: tuple
    beta: np.ndarray      # (T, L, p)
    sigma2: np.ndarray    # (T, L)
    gamma: np.ndarray     # (T, p) of 0/1
    b: np.ndarray         # (T,)
    acceptance_rate_b: float  # post-burn-in MH acceptance of b
    proposal_scale: float     # the MH proposal sd after burn-in adaptation

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


def _shell_index(dsub):
    """The U distinct finite distances u of ``dsub`` and, for every pair, the
    position in u of its distance, U where it is not finite.

    Integer distances in [0, L], such as graph hop counts, are ranked by a
    bincount in O(L^2); other values take a sort.
    """
    L = len(dsub)
    finite = np.isfinite(dsub)
    x = np.where(finite, dsub, L)  # L also marks a pair that is not finite
    if dsub.min() >= 0 and x.max() <= L and np.array_equal(xi := x.astype(np.intp), x):
        bins = np.bincount(xi.ravel(), minlength=L + 1)
        bins[L] -= finite.size - np.count_nonzero(finite)
        seen = bins > 0
        u = np.flatnonzero(seen).astype(float)
        k = (np.cumsum(seen) - 1)[xi]
        k[~finite] = len(u)
        return u, k
    u, k = np.unique(dsub.ravel(), return_inverse=True)
    # non-finite values sort last, so their positions are >= U
    return u[np.isfinite(u)], k.reshape(L, L)


# The bandwidth step's cells, each at one distance u and so sharing one kernel
# weight: x @ n sums a cell vector x (shaped like u) per location, n_loc is that
# sum of ones, and weigh takes cell weights w to the (C, L) weighted packed
# statistics.
_Cells = namedtuple("_Cells", "p u n n_loc weigh")


def _distance_shells(dsub, counts, G, h, q):
    """The cells as distance shells, or None when the distances are not
    shared enough to pay (U >= L distinct finite values).

    The U distinct finite distances u are the cells; T[k, :, s] sums the
    ``packed_stats`` columns of the l with dsub[s, l] == u[k], and n[k, s]
    their counts, so weighing is one product with T.
    Unreachable pairs are left out, as every kernel gives them weight zero.
    Graph hop counts always qualify: U is the diameter plus one.
    """
    u, k = _shell_index(dsub)
    L, U = len(dsub), len(u)
    if U >= L:
        return None
    idx = (k * L + np.arange(L)[:, None]).ravel()  # bins >= U * L drop a pair

    def shell_sum(col):
        return np.bincount(idx, weights=np.tile(col, L), minlength=U * L)[:U * L].reshape(U, L)

    T = np.stack([shell_sum(col) for col in packed_stats(G, h, q)], axis=1).reshape(U, -1)
    n = shell_sum(counts)
    return _Cells(G.shape[1], u, n, n.sum(axis=0), lambda w: (w @ T).reshape(-1, L))


def _location_pairs(dsub, counts, G, h, q):
    """The cells as location pairs, cell (s, l) at distance dsub[s, l]: the
    weights are the (L, L) kernel matrix w, weighed as stats @ w.T."""
    stats = packed_stats(G, h, q)
    return _Cells(G.shape[1], dsub, counts, np.full(len(dsub), counts.sum()),
                  lambda w: stats @ w.T)


def _cell_layout(dsub, counts, G, h, q, sampled):
    """The distance shells when b is sampled and they pay (the shell build
    pays off only over many bandwidths), else the location pairs."""
    shells = _distance_shells(dsub, counts, G, h, q) if sampled else None
    return _location_pairs(dsub, counts, G, h, q) if shells is None else shells


def _weighed_stats(kernel, cells, b):
    """A bandwidth's (C, L) weighted packed statistics S, one weighing of its
    kernel weights at the cell distances, and its log-det terms at every
    location: npos, the count of rows with positive weight (``cells.n_loc``
    itself when every weight is positive), and sumlogw, the sum of their log
    weights.

    Positivity is judged on the analytic log weights so that underflowed
    (but structurally positive) weights keep their observations in the
    likelihood with the exact log-weight penalty.
    """
    lw = log_kernel_weight(WeightScheme(kernel, b), cells.u)
    pos = np.isfinite(lw)
    S = cells.weigh(np.exp(lw))
    if pos.all():
        return S, cells.n_loc, lw @ cells.n
    return S, pos @ cells.n, np.where(pos, lw, 0.0) @ cells.n


def _kernel_state(kernel, cells, b, weighed=None):
    """Everything that depends on the bandwidth, from its ``_weighed_stats``
    (``weighed``, when already known): the weighted blocks M and V (M in the
    layout ``_gibbs_layout`` takes without a copy), the weighted response
    norms Kq and the log-det terms."""
    S, npos, sumlogw = _weighed_stats(kernel, cells, b) if weighed is None else weighed
    M, V, Kq = unpack(S, cells.p)
    return {"b": b, "npos": npos, "sumlogw": sumlogw, "M": M, "V": V, "Kq": Kq}


def _log_ratio(cur, prop, betaT, sigma2, phi):
    """The log-likelihood difference between two bandwidths, summed over
    locations, at the same (beta, sigma2); ``cur`` and ``prop`` are their
    ``_weighed_stats``.

    Q_s(b) = phi_s . S_s(b) with phi_s = [beta_i beta_j (doubled for i < j)
    | -2 beta_s | 1]; the (C, L) scratch ``phi`` is filled with phi_s /
    sigma2_s, so the weighted RSS term costs C L arithmetic and neither
    bandwidth needs its (L, p, p) blocks.
    """
    p = len(betaT)
    iu, ju, twice, _ = _triangle(p)
    scaled = betaT / sigma2
    tri_rows = phi[:len(iu)]
    np.take(betaT, iu, axis=0, out=tri_rows)
    tri_rows *= scaled[ju] * twice
    np.multiply(scaled, -2.0, out=phi[-p - 1:-1])
    np.divide(1.0, sigma2, out=phi[-1])
    S0, npos0, sumlogw0 = cur
    S1, npos1, sumlogw1 = prop
    # npos moves only where a cutoff kernel gains or drops a cell
    npos_term = 0.0 if npos1 is npos0 else float((npos1 - npos0) @ (LOG_2PI + np.log(sigma2)))
    return -0.5 * (npos_term - float(np.sum(sumlogw1 - sumlogw0)) + float(np.vdot(phi, S1 - S0)))


def _weighted_rss(state, beta):
    """Q_s = sum_l K[s, l] (q_l - 2 beta_s . h_l + beta_s' G_l beta_s), the
    kernel-weighted residual sum of squares at every location, in O(L p^2)
    from the kernel state: Q_s = Kq_s - 2 beta_s . V_s + beta_s' M_s beta_s."""
    return rss(beta, state["M"], state["V"], state["Kq"])


def _total_loglik(state, Q, sigma2):
    return -0.5 * float(np.sum(state["npos"] * (LOG_2PI + np.log(sigma2))
                               - state["sumlogw"] + Q / sigma2))


def _gibbs_layout(state, alpha1):
    """The kernel state as the Gibbs block reads it, derived once per
    accepted bandwidth: Mt[j] = M[:, :, j].T, V.T and the diagonal of M as
    contiguous (p, L) rows; 0.5 / diag(M), with 0.5 where the diagonal is 0;
    the mask of where it is positive, None when it is everywhere; and the
    sigma2 draw's shape alpha1 + npos / 2, a float when it is the same at
    every location."""
    M = state["M"]
    diag = np.diagonal(M, axis1=1, axis2=2).T.copy()
    mass = diag > 0
    shape = alpha1 + state["npos"] / 2.0
    if (shape == shape[0]).all():
        shape = float(shape[0])
    return (np.ascontiguousarray(M.transpose(2, 1, 0)), state["V"].T.copy(), diag,
            0.5 / np.where(mass, diag, 1.0), None if mass.all() else mass, shape)


def _coin(rng, log_odds):
    """1 with probability 1 / (1 + exp(-log_odds)), from one uniform draw."""
    u = rng.random()
    return 1 if math.log(u) - math.log1p(-u) < log_odds else 0


def _fold(x, upper):
    """Reflect a proposal (a float) back into (0, upper)."""
    period = 2.0 * upper
    x = abs(x) % period
    return period - x if x > upper else x


def run_sampler(data, d, kernel, cfg):
    """Run the MCMC chain and return post-burn-in draws.

    ``kernel`` is a kernel name; the bandwidth is sampled.  Bit-identical
    output for identical (data, d, kernel, cfg).
    """
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
    if not np.isin(gamma, (0, 1)).all():
        raise ValueError("fix_gamma entries must be 0 or 1")
    if not cfg.selection:
        gamma[:] = 1
    sample_gamma = cfg.selection and cfg.fix_gamma is None
    tau2 = np.full(p, cfg.tau2)
    b = cfg.fix_bandwidth if cfg.fix_bandwidth is not None else D / 2.0

    cells = _cell_layout(dsub, counts, G, h, q, cfg.fix_bandwidth is None)
    # the current bandwidth's weighed statistics, and the MH ratio's (C, L) scratch
    cur = _weighed_stats(kernel, cells, b)
    state = _kernel_state(kernel, cells, b, cur)
    phi = np.empty_like(cur[0])
    Mt, VT, Mdiag, half_inv_diag, mass, sigma2_shape = _gibbs_layout(state, cfg.alpha1)
    # deterministic start: ridge-stabilized WLS coefficients, residual variance
    ridge = state["M"] + 1e-8 * np.eye(p)
    betaT = np.linalg.solve(ridge, state["V"][..., None])[..., 0].T.copy()
    beta = betaT.T  # (L, p) view
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

    def prior_variances():
        """v[g, j, 0], the prior variance of beta_j(.) under gamma_j = g, and
        its reciprocal."""
        if not cfg.selection:
            v = np.full((2, p, 1), cfg.slab_only_var)
        else:
            v = np.stack((tau2, cfg.c2 * tau2))[:, :, None]
        return v, 1.0 / v

    v, inv_v = prior_variances()
    for t in range(cfg.chain_length):
        # --- (gamma_j, beta_j(.)) blocked updates -------------------------
        if flat:
            for j in range(p):
                if sample_gamma:
                    gamma[j] = _coin(rng, logit_prior)
                betaT[j] = rng.normal(0.0, math.sqrt(v[gamma[j], j, 0]), size=L)
        else:
            # fixed while sigma2, b and tau2 are, for all p covariates at
            # once; the (2, p, L) arrays are indexed [gamma_j, j]
            lam = Mdiag / sigma2  # 0 where Mdiag = 0, as Mdiag >= 0
            lv = lam * v
            prec = lam + inv_v
            mean_factor = 1.0 / (sigma2 * prec)
            if mass is not None:
                mean_factor *= mass  # 0 where Mdiag = 0
            sd = 1.0 / np.sqrt(prec)
            if sample_gamma:
                # log odds of slab vs spike, beta_j integrated out:
                # log_odds[j] + sum_s w[j, s] num[j, s]^2; lam = 0 makes
                # w = 0 where Mdiag = 0
                log1p_lv = np.log1p(lv)
                inv_lv1 = 1.0 / (lv + 1.0)
                log_odds = (logit_prior - 0.5 * (log1p_lv[1] - log1p_lv[0]).sum(axis=1)).tolist()
                w = (inv_lv1[0] - inv_lv1[1]) * half_inv_diag / sigma2
            # num[j] = V_j - sum_{k != j} M_jk beta_k, kept current as beta
            # moves; every row takes every update, so after the loop
            # num - diag_beta = V - M beta at the new beta
            diag_beta = Mdiag * betaT
            num = VT - (Mt * betaT[:, None, :]).sum(axis=0) + diag_beta
            for j in range(p):
                nj = num[j]
                if sample_gamma:
                    # _coin, inlined: the call would cost more than its arithmetic
                    u = rng.random()
                    g = int(math.log(u) - math.log1p(-u) < log_odds[j] + float(nj @ (nj * w[j])))
                    gamma[j] = g
                else:
                    g = gamma[j]
                new_bj = nj * mean_factor[g, j] + rng.normal(size=L) * sd[g, j]
                num -= Mt[j] * (new_bj - betaT[j])
                betaT[j] = new_bj
            # the current weighted RSS Kq - 2 beta.V + beta'M beta
            Q = state["Kq"] - (betaT * (VT + num - diag_beta)).sum(axis=0)

        # --- sigma2(s) ----------------------------------------------------
        if cfg.fix_sigma2 is None:
            if flat:
                # guard the reciprocal: a tiny-shape gamma draw can underflow to 0
                g = np.maximum(rng.gamma(cfg.alpha1, 1.0 / cfg.alpha2, size=L),
                               np.finfo(float).tiny)
                sigma2 = 1.0 / g
            else:
                # the same variates whether the shape is a float or an L-vector
                rate = cfg.alpha2 + Q / 2.0
                sigma2 = rate / rng.standard_gamma(sigma2_shape, size=L)

        # --- tau_j^2 hyperprior -------------------------------------------
        if cfg.tau_hyperprior and cfg.selection:
            scale_div = np.where(gamma == 1, cfg.c2, 1.0)
            rate = cfg.alpha2 + 0.5 * (betaT ** 2).sum(axis=1) / scale_div
            tau2 = rate / rng.standard_gamma(cfg.alpha1 + L / 2.0, size=p)
            v, inv_v = prior_variances()

        # --- bandwidth by folded random-walk MH ---------------------------
        if cfg.fix_bandwidth is None:
            b_prop = _fold(state["b"] + prop_scale * rng.normal(), D)
            # the proposal's kernel state is built only on acceptance
            prop = _weighed_stats(kernel, cells, b_prop)
            if flat:
                accept = True
            else:
                log_ratio = _log_ratio(cur, prop, betaT, sigma2, phi)
                accept = math.log(rng.random()) < log_ratio
            if accept:
                cur = prop
                state = _kernel_state(kernel, cells, b_prop, prop)
                if not flat:
                    Mt, VT, Mdiag, half_inv_diag, mass, sigma2_shape = _gibbs_layout(
                        state, cfg.alpha1)
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
