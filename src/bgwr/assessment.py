"""Bayesian model comparison: deviance, DIC, effective parameters, CPO, LPML.

Both the DIC and the LPML score each observation once, with the univariate
normal density at its own location's parameters:
log f(y_i | theta) = log N(y_i | x_i' beta(l_i), sigma2(l_i)).
The DIC deviance is D(theta) = -2 sum_i log f(y_i | theta), so its scale does
not depend on the kernel or the bandwidth and DICs of different kernels are
comparable.  The kernel-weighted pseudo-likelihood that the sampler targets
is not a likelihood of the data, and is not used for the DIC.

All density accumulation runs in the log domain; the harmonic-mean CPO
estimator uses log-sum-exp so small per-draw densities cannot underflow.
dic and cpo_lpml walk the chain in blocks of draws and fold each block into
running sums, so their memory is bounded by one block, not by the chain.
"""

import math
from dataclasses import dataclass

import numpy as np

from .suffstats import block_stats, location_index, rss

# draws x observations per block of the chain that dic and cpo_lpml hold at
# once, so their memory does not grow with the chain length
DRAW_BLOCK = 2 ** 15


@dataclass
class ModelAssessment:
    dic: float = None
    p_d: float = None
    mean_deviance: float = None
    deviance_at_mean: float = None
    lpml: float = None
    cpo: np.ndarray = None
    log_cpo: np.ndarray = None


def _obs_deviance(beta, sigma2, G, h, q, counts):
    """-2 sum_i log N(y_i | x_i' beta(l_i), sigma2(l_i)) from block statistics.

    ``beta`` is (..., L, p) and ``sigma2`` (..., L); leading axes (draws) are
    kept.  Location l contributes n_l log(2 pi sigma2_l) + RSS_l / sigma2_l with
    RSS_l = q_l - 2 beta_l . h_l + beta_l' G_l beta_l.
    """
    return (counts * np.log(2 * math.pi * sigma2) + rss(beta, G, h, q) / sigma2).sum(axis=-1)


def _draw_blocks(n_draws, n):
    """Slices [t0, t1) covering the chain, each of at most
    max(1, DRAW_BLOCK // n) draws for ``n`` observations."""
    step = max(1, DRAW_BLOCK // n)
    for t0 in range(0, n_draws, step):
        yield slice(t0, min(t0 + step, n_draws))


def dic(post, data):
    """DIC = D(plug-in) + 2 p_D, with p_D = mean D - D(plug-in).

    D is the per-observation deviance of the module docstring, evaluated at
    every draw.  The plug-in is the posterior mean of beta and, per location,
    the geometric mean exp(E[log sigma2]) of sigma2; the arithmetic mean of
    a right-skewed sigma2 posterior can make p_D negative.  The bandwidth
    does not enter D.  Both algebraic forms of the DIC are computed and must
    agree.
    """
    T = post.n_draws
    if T == 0:
        raise ValueError("empty chain")
    G, h, q, counts = block_stats(data, post.locations)
    if counts.sum() != data.n:
        raise ValueError("data has observations at locations without draws")
    dev_sum = 0.0
    beta_sum = np.zeros(post.beta.shape[1:])
    log_s2_sum = np.zeros(post.sigma2.shape[1:])
    for blk in _draw_blocks(T, data.n):
        beta, sigma2 = post.beta[blk], post.sigma2[blk]
        dev_sum += float(_obs_deviance(beta, sigma2, G, h, q, counts).sum())
        beta_sum += beta.sum(axis=0)
        log_s2_sum += np.log(sigma2).sum(axis=0)
    dev_at_mean = float(_obs_deviance(beta_sum / T, np.exp(log_s2_sum / T),
                                      G, h, q, counts))
    mean_dev = dev_sum / T
    p_d = mean_dev - dev_at_mean
    dic_1 = dev_at_mean + 2.0 * p_d
    dic_2 = 2.0 * mean_dev - dev_at_mean
    if abs(dic_1 - dic_2) > 1e-8 * max(1.0, abs(dic_1)):
        raise AssertionError("DIC identity violated")
    return ModelAssessment(dic=dic_1, p_d=p_d, mean_deviance=mean_dev,
                           deviance_at_mean=dev_at_mean)


def cpo_lpml(post, data):
    """Harmonic-mean CPO per observation and the LPML.

    The per-draw density of observation i is the univariate normal at its
    own location's parameters (self-weight 1):
    CPO_i^-1 = (1/T) sum_t 1/f(y_i | x_i, beta_t(l_i), sigma2_t(l_i)).
    log CPO_i = log T - logsumexp_t(-log f_ti), with the log-sum-exp kept
    as a running maximum m_i and scaled sum s_i over blocks of draws.
    """
    T = post.n_draws
    if T == 0:
        raise ValueError("empty chain")
    idx = location_index(data.locations, post.locations)
    if (idx == len(post.locations)).any():
        raise ValueError("data has observations at locations without draws")
    m = np.full(data.n, -np.inf)
    s = np.zeros(data.n)
    for blk in _draw_blocks(T, data.n):
        mu = np.einsum("tnp,np->tn", post.beta[blk, idx], data.X)
        s2 = post.sigma2[blk, idx]
        neg_logf = 0.5 * (np.log(2 * math.pi * s2) + (data.y - mu) ** 2 / s2)
        m_new = np.maximum(m, neg_logf.max(axis=0))
        s = s * np.exp(m - m_new) + np.exp(neg_logf - m_new).sum(axis=0)
        m = m_new
    log_cpo = math.log(T) - (m + np.log(s))
    return ModelAssessment(lpml=float(log_cpo.sum()), cpo=np.exp(log_cpo),
                           log_cpo=log_cpo)


def assess(post, data):
    """DIC and LPML in one ModelAssessment."""
    a = dic(post, data)
    b = cpo_lpml(post, data)
    a.lpml = b.lpml
    a.cpo = b.cpo
    a.log_cpo = b.log_cpo
    return a
