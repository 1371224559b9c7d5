"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a single pass/fail line, echoed live with -s and always
repeated in an "acceptance criteria" terminal summary section.
"""

import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from bgwr.assessment import assess
from bgwr.bayes_gwr import BayesConfig, hpd_interval, run_sampler
from bgwr.dataio import china_graph, china_regions
from bgwr.freq_gwr import effective_params_freq, wls_fit
from bgwr.simulation import (BASE_BETAS, REGIONAL_BETAS, SimulationDesign,
                             generate_dataset, replicate_seed, run_study,
                             true_beta)
from bgwr.spatial_graph import DistanceMatrix, graph_distances
from bgwr.suffstats import Dataset
from bgwr.weighting import WeightMatrix, WeightScheme, kernel_weight

import conftest
from conftest import floyd_warshall, random_graph

MASTER_SEED = 123

# study configuration shared by the simulation-based criteria; the spike
# variance 0.01 with slab ratio 1e4 gives slab variance 100
STUDY_CFG = BayesConfig(tau2=0.01, c2=10000.0, chain_length=4000, burn_in=1000,
                        bandwidth_upper=100.0)


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.CRITERION_LINES.append(line)
    return ok


def batch_mcse(x, n_batches=50):
    """Batch-means Monte Carlo standard error of the sample mean."""
    T = x.size - x.size % n_batches
    means = x[:T].reshape(n_batches, -1).mean(axis=1)
    return means.std(ddof=1) / math.sqrt(n_batches)


@pytest.fixture(scope="module")
def china_d():
    return graph_distances(china_graph())


@pytest.fixture(scope="module")
def setting1_study(china_d):
    """Twenty-replicate constant-pattern study shared by criteria 6 and 8."""
    design = SimulationDesign(pattern="constant", base_beta=BASE_BETAS[1],
                              replicates=20, seed=MASTER_SEED)
    t0 = time.time()
    rep = run_study(design, china_d, "exponential", STUDY_CFG,
                    with_assessment=True)
    rep.wall_time = time.time() - t0
    return rep


def test_criterion_1_wls_oracle():
    rng = np.random.default_rng(1)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        p = int(rng.integers(1, min(n, 5) + 1))
        data = Dataset(y=rng.normal(size=n), X=rng.normal(size=(n, p)),
                       locations=("a",) * n)
        wt = rng.uniform(0.05, 1.0, size=n)
        beta = wls_fit(data, WeightMatrix("a", wt))
        W = np.diag(wt)
        ref = np.linalg.solve(data.X.T @ W @ data.X, data.X.T @ W @ data.y)
        worst = max(worst, float(np.max(np.abs(beta - ref))))
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    assert report(1, ok, f"WLS vs normal equations, max abs error "
                         f"{worst:.2e} over 100 instances in {elapsed:.2f}s")
    assert worst < 1e-10 and elapsed < 5.0


def test_criterion_2_graph_distance(china_d):
    rng = np.random.default_rng(2)
    t0 = time.time()
    exact = True
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 41)))
        d = graph_distances(g)
        if not np.array_equal(d.values, floyd_warshall(g)):
            exact = False
            break
    finite = china_d.values[np.isfinite(china_d.values)]
    china_max = float(finite.max())
    elapsed = time.time() - t0
    ok = exact and china_max == 6.0 and elapsed < 5.0
    assert report(2, ok, f"BFS equals Floyd-Warshall on 50 graphs: {exact}; "
                         f"China max distance {china_max:g} in {elapsed:.2f}s")
    assert exact and china_max == 6.0 and elapsed < 5.0


def test_criterion_3_kernel_point_checks():
    w1 = kernel_weight(WeightScheme("graph_exp", 100.0), 6.0)
    w2 = kernel_weight(WeightScheme("gaussian", 9.40), 6.0)
    ok = abs(w1 - 0.9418) < 0.0005 and abs(w2 - 0.665) < 0.001
    assert report(3, ok, f"graph_exp(100, 6) = {w1:.4f}; gaussian(9.40, 6) = {w2:.4f}")
    assert abs(w1 - 0.9418) < 0.0005
    assert abs(w2 - 0.665) < 0.001


def test_criterion_4_conjugate_exactness():
    n, p, s2 = 40, 5, 1.3
    d = DistanceMatrix(("a",), np.zeros((1, 1)))
    cfg = BayesConfig(tau2=0.01, c2=10000.0, chain_length=20500, burn_in=500,
                      fix_sigma2=s2, fix_gamma=(1,) * p, fix_bandwidth=10.0)
    t0 = time.time()
    passed = 0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) * 2.0 + rng.normal(size=n) * math.sqrt(s2)
        data = Dataset(y=y, X=X, locations=("a",) * n)
        post = run_sampler(data, d, "unity", replace(cfg, seed=seed))
        v1 = cfg.c2 * cfg.tau2
        prec = X.T @ X / s2 + np.eye(p) / v1
        cov = np.linalg.inv(prec)
        mean = cov @ (X.T @ y / s2)
        draws = post.beta[:, 0, :]
        good = True
        for j in range(p):
            xj = draws[:, j]
            if abs(xj.mean() - mean[j]) > 3 * batch_mcse(xj):
                good = False
            sq = (xj - xj.mean()) ** 2
            if abs(xj.var(ddof=1) - cov[j, j]) > 3 * batch_mcse(sq):
                good = False
        passed += good
    elapsed = time.time() - t0
    ok = passed == 10 and elapsed < 60.0
    assert report(4, ok, f"conjugate posterior moments matched on {passed}/10 "
                         f"seeds (20,000 draws each) in {elapsed:.1f}s")
    assert passed == 10 and elapsed < 60.0


def test_criterion_5_prior_recovery():
    rng = np.random.default_rng(50)
    n = 20
    data = Dataset(y=rng.normal(size=n), X=rng.normal(size=(n, 5)),
                   locations=("a", "b") * 10)
    d = DistanceMatrix(("a", "b"), np.array([[0., 1.], [1., 0.]]))
    cfg = BayesConfig(bandwidth_upper=100.0, chain_length=13000, burn_in=3000,
                      seed=MASTER_SEED, flat_likelihood=True)
    t0 = time.time()
    post = run_sampler(data, d, "exponential", cfg)
    ks = kstest(post.b, "uniform", args=(0.0, 100.0))
    freq = post.gamma.mean(axis=0)
    gamma_dev = float(np.max(np.abs(freq - 0.5)))
    elapsed = time.time() - t0
    ok = ks.pvalue > 0.01 and gamma_dev <= 0.02 and elapsed < 60.0
    assert report(5, ok, f"flat likelihood: KS p-value {ks.pvalue:.3f} vs "
                         f"Uniform(0,100) on 10,000 draws; max |gamma freq - 0.5| "
                         f"= {gamma_dev:.4f}; {elapsed:.1f}s")
    assert ks.pvalue > 0.01
    assert gamma_dev <= 0.02
    assert elapsed < 60.0


def test_criterion_6_constant_pattern_table(setting1_study):
    rep = setting1_study
    acc_ok = bool(np.all(rep.acc == 1.0)) and rep.model_acc == 1.0
    mab1 = float(rep.mab[0])
    mab_ok = abs(mab1 - 0.055) <= 0.03
    mcr_ok = bool(np.all((rep.mcr >= 0.88) & (rep.mcr <= 1.0)))
    b_ok = rep.mean_bandwidth > 50.0
    time_ok = rep.wall_time < 15 * 60
    ok = acc_ok and mab_ok and mcr_ok and b_ok and time_ok and not rep.errors
    assert report(6, ok, f"setting 1, 20 replicates: ACC {rep.acc.tolist()}, "
                         f"Model ACC {rep.model_acc:.2f}, MAB(beta1) {mab1:.4f}, "
                         f"MCR {np.round(rep.mcr, 3).tolist()}, "
                         f"mean bandwidth {rep.mean_bandwidth:.1f}, "
                         f"{rep.wall_time:.0f}s")
    assert not rep.errors
    assert acc_ok, "per-covariate or model selection accuracy below 100%"
    assert mab_ok, f"MAB for beta1 {mab1} outside 0.055 +/- 0.03"
    assert mcr_ok, f"some MCR outside [0.88, 1.0]: {rep.mcr}"
    assert b_ok, f"mean selected bandwidth {rep.mean_bandwidth} not > 50"
    assert time_ok


def test_criterion_7_regional_design(china_d):
    design = SimulationDesign(pattern="regional", base_beta=BASE_BETAS[1],
                              regions=china_regions(),
                              region_betas=REGIONAL_BETAS[1],
                              replicates=10, seed=MASTER_SEED)
    t0 = time.time()
    rep = run_study(design, china_d, "exponential", STUDY_CFG)
    elapsed = time.time() - t0
    hard_ok = rep.mab[4] > rep.mab[1]
    ok = rep.model_acc == 1.0 and hard_ok and elapsed < 600 and not rep.errors
    assert report(7, ok, f"regional setting 1: Model ACC {rep.model_acc:.2f}; "
                         f"MAB(beta5) {rep.mab[4]:.3f} > MAB(beta2) "
                         f"{rep.mab[1]:.3f}: {hard_ok}; {elapsed:.0f}s")
    assert not rep.errors
    assert rep.model_acc == 1.0
    assert hard_ok, "strongly region-varying coefficient should be hardest"
    assert elapsed < 600


def test_criterion_8_mds_linear_design(china_d, setting1_study):
    design = SimulationDesign(pattern="mds_linear", base_beta=BASE_BETAS[1],
                              replicates=10, seed=MASTER_SEED)
    rep = run_study(design, china_d, "exponential", STUDY_CFG)
    in_model = np.array(BASE_BETAS[1]) != 0
    drop_ok = bool(np.all(rep.mcr[in_model] < setting1_study.mcr[in_model]))
    ok = rep.model_acc == 1.0 and drop_ok and not rep.errors
    assert report(8, ok, f"mds_linear: Model ACC {rep.model_acc:.2f}; in-model "
                         f"MCR {np.round(rep.mcr[in_model], 3).tolist()} all below "
                         f"constant-pattern "
                         f"{np.round(setting1_study.mcr[in_model], 3).tolist()}: "
                         f"{drop_ok}")
    assert not rep.errors
    assert rep.model_acc == 1.0
    assert drop_ok, "spatially varying truth should reduce in-model coverage"


def test_criterion_9_dic_pd_and_ranking(china_d):
    # p_D is checked against the trace of the GWR hat matrix tr(S) at the
    # posterior-mean bandwidth.  With sigma2 fixed and a flat prior, the
    # per-observation p_D of beta is sum_l tr(X_l'X_l (X'W_l X)^-1) = tr(S).
    # The sigma2 field adds about one more parameter under a wide kernel, and
    # the spike prior on the two excluded covariates can only lower p_D, so
    # |p_D - tr(S)| <= 1 on every correctly specified fit.
    def pd_gap(post, a, data):
        scheme = WeightScheme("exponential", float(post.b.mean()))
        return a.p_d - effective_params_freq(data, scheme, china_d)

    # part 1: identity + p_D on the criterion-6 configuration
    design = SimulationDesign(pattern="constant", base_beta=BASE_BETAS[1],
                              replicates=20, seed=MASTER_SEED)
    locs = tuple(china_d.labels)
    truth = true_beta(design, locs)
    data = generate_dataset(design, locs, truth, replicate_seed(MASTER_SEED, 0, 0))
    cfg = replace(STUDY_CFG, seed=replicate_seed(MASTER_SEED, 0, 1))
    post = run_sampler(data, china_d, "exponential", cfg)
    good = assess(post, data)
    identity_err = abs(good.dic - (2.0 * good.mean_deviance - good.deviance_at_mean))
    identity_ok = identity_err <= 1e-8 * max(1.0, abs(good.dic))

    # part 2: ranking a correctly specified kernel against a degenerate
    # step(0) weighting that keeps only each location's own observations
    gaps = []
    dic_wins = lpml_wins = 0
    for r in range(10):
        seed = replicate_seed(MASTER_SEED, r, 1)
        if r > 0:  # replicate 0 is part 1's fit: same data and chain seeds
            data = generate_dataset(design, locs, truth,
                                    replicate_seed(MASTER_SEED, r, 0))
            post = run_sampler(data, china_d, "exponential",
                               replace(STUDY_CFG, seed=seed))
            good = assess(post, data)
        gaps.append(pd_gap(post, good, data))
        bad = assess(run_sampler(data, china_d, "step",
                                 replace(STUDY_CFG, seed=seed,
                                         fix_bandwidth=0.0)), data)
        dic_wins += good.dic < bad.dic
        lpml_wins += good.lpml > bad.lpml

    worst_gap = max(gaps, key=abs)
    pd_ok = abs(worst_gap) <= 1.0
    ok = identity_ok and pd_ok and lpml_wins >= 8 and dic_wins >= 8
    assert report(9, ok, f"DIC identity error {identity_err:.2e}; worst "
                         f"p_D - tr(S) over 10 fits {worst_gap:+.2f} within "
                         f"+/-1: {pd_ok}; LPML ranking {lpml_wins}/10; "
                         f"DIC ranking {dic_wins}/10")
    assert identity_ok
    assert pd_ok, f"p_D - tr(S) = {np.round(gaps, 3).tolist()}, some beyond +/-1"
    assert lpml_wins >= 8
    # both deviances score the same 150 observations once each, whatever the
    # kernel, so the two DICs are on one scale
    assert dic_wins >= 8, (
        f"DIC ranked the correct kernel above step(0) in only {dic_wins}/10 seeds")


def test_criterion_10_hpd_and_cpo():
    x = np.random.default_rng(10).standard_normal(100_000)
    lo, hi = hpd_interval(x, mass=0.95)
    hpd_ok = abs(lo + 1.96) < 0.05 and abs(hi - 1.96) < 0.05

    from bgwr.assessment import cpo_lpml
    from bgwr.bayes_gwr import GwrPosterior
    rng = np.random.default_rng(11)
    n = 12
    data = Dataset(y=rng.normal(size=n), X=rng.normal(size=(n, 2)),
                   locations=("a",) * n)
    beta = rng.normal(size=(1, 1, 2))
    s2 = 0.7
    post = GwrPosterior(locations=("a",), beta=beta,
                        sigma2=np.full((1, 1), s2),
                        gamma=np.ones((1, 2), dtype=int), b=np.ones(1),
                        acceptance_rate_b=0.0, proposal_scale=np.nan)
    a = cpo_lpml(post, data)
    mu = data.X @ beta[0, 0]
    dens = np.exp(-0.5 * (data.y - mu) ** 2 / s2) / math.sqrt(2 * math.pi * s2)
    cpo_err = float(np.max(np.abs(a.cpo / dens - 1.0)))
    cpo_ok = cpo_err < 1e-12

    ok = hpd_ok and cpo_ok
    assert report(10, ok, f"95% HPD of 1e5 N(0,1) draws = ({lo:.3f}, {hi:.3f}); "
                          f"single-draw CPO max rel error {cpo_err:.1e}")
    assert hpd_ok
    assert cpo_ok
