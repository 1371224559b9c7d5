import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from bgwr import assessment
from bgwr.assessment import assess, cpo_lpml, dic
from bgwr.bayes_gwr import BayesConfig, GwrPosterior, run_sampler
from bgwr.simulation import (BASE_BETAS, SimulationDesign, generate_dataset,
                             replicate_seed, true_beta)
from bgwr.spatial_graph import DistanceMatrix, graph_distances
from bgwr.suffstats import Dataset
from conftest import (dic_oracle, lattice_graph, log_cpo_oracle, loglik_oracle,
                      sampler_loglik)


def two_location_setup(rng, n_per=6, p=2):
    locs = ("a", "b")
    values = np.array([[0., 1.], [1., 0.]])
    d = DistanceMatrix(locs, values)
    obs = tuple(s for s in locs for _ in range(n_per))
    X = rng.normal(size=(2 * n_per, p))
    y = X @ rng.normal(size=p) + rng.normal(size=2 * n_per)
    return Dataset(y=y, X=X, locations=obs), d


def constant_posterior(data, b, beta, sigma2, T=5):
    """Posterior whose every draw is the same point."""
    return GwrPosterior(locations=data.unique_locations(),
                        beta=np.tile(beta, (T, 1, 1)),
                        sigma2=np.tile(sigma2, (T, 1)),
                        gamma=np.ones((T, beta.shape[1]), dtype=int),
                        b=np.full(T, b), acceptance_rate_b=0.3, proposal_scale=np.nan)


def log_weights(data, d, log_kernel):
    """(L, n) log weight of every observation at every location, from a log
    kernel written out in the test."""
    return np.array([[log_kernel(d.get(s, o)) for o in data.locations]
                     for s in data.unique_locations()])


def obs_deviance_oracle(data, locations, beta, sigma2):
    """-2 sum_i log N(y_i | x_i' beta(l_i), sigma2(l_i)), one term per row."""
    k = [locations.index(s) for s in data.locations]
    return -2.0 * float(norm.logpdf(data.y, loc=np.einsum("np,np->n", data.X, beta[k]),
                                    scale=np.sqrt(sigma2[k])).sum())


class TestDeviance:
    """-2 x the log pseudo-likelihood the sampler targets, as it computes it
    from block statistics; dic() scores the per-observation density instead."""

    def test_zero_residual_unity_value(self):
        X = np.ones((4, 1))
        data = Dataset(y=X[:, 0] * 2.0, X=X, locations=("a",) * 4)
        d = DistanceMatrix(("a",), np.zeros((1, 1)))
        dev = -2.0 * sampler_loglik(data, d, "unity", None, np.array([[2.0]]),
                                    np.array([1.0]))
        assert abs(dev - 4 * math.log(2 * math.pi)) < 1e-12

    def test_equals_minus_two_loglik(self):
        rng = np.random.default_rng(0)
        data, d = two_location_setup(rng)
        beta = rng.normal(size=(2, 2))
        sigma2 = np.array([0.8, 1.3])
        dev = -2.0 * sampler_loglik(data, d, "exponential", 2.0, beta, sigma2)
        ref = -2.0 * loglik_oracle(data, log_weights(data, d, lambda r: -r / 2.0),
                                   beta, sigma2)
        assert abs(dev - ref) < 1e-9

    def test_matches_dense_mvn_oracle(self):
        rng = np.random.default_rng(1)
        data, d = two_location_setup(rng, n_per=4)
        w = np.exp(log_weights(data, d, lambda r: -(r / 1.5) ** 2))
        beta = rng.normal(size=(2, 2))
        sigma2 = np.array([1.1, 0.6])
        dev = -2.0 * sampler_loglik(data, d, "gaussian", 1.5, beta, sigma2)
        ref = 0.0
        for k in range(2):
            mask = w[k] > 0
            ref += -2.0 * multivariate_normal.logpdf(
                data.y[mask], mean=data.X[mask] @ beta[k],
                cov=sigma2[k] * np.diag(1.0 / w[k][mask]))
        assert abs(dev - ref) < 1e-9

    def test_nonpositive_sigma2_rejected(self):
        # the deviance is undefined at sigma2 <= 0, so the config refuses it
        with pytest.raises(ValueError, match="fix_sigma2 must be positive"):
            BayesConfig(chain_length=2, burn_in=1, bandwidth_upper=10.0,
                        fix_sigma2=-1.0)


class TestDic:
    def test_constant_chain_pd_zero(self):
        rng = np.random.default_rng(3)
        data, _ = two_location_setup(rng)
        beta = rng.normal(size=(2, 2))
        sigma2 = np.array([1.0, 2.0])
        post = constant_posterior(data, 2.0, beta, sigma2)
        a = dic(post, data)
        assert abs(a.p_d) < 1e-9
        ref = obs_deviance_oracle(data, post.locations, beta, sigma2)
        assert abs(a.dic - ref) < 1e-8

    def test_identity_on_sampled_chain(self):
        rng = np.random.default_rng(4)
        data, d = two_location_setup(rng, n_per=8)
        cfg = BayesConfig(tau2=0.01, chain_length=600, burn_in=100, seed=1,
                          bandwidth_upper=10.0)
        post = run_sampler(data, d, "exponential", cfg)
        a = dic(post, data)
        assert abs(a.dic - (2.0 * a.mean_deviance - a.deviance_at_mean)) \
            <= 1e-8 * max(1.0, abs(a.dic))
        assert a.p_d == pytest.approx(a.mean_deviance - a.deviance_at_mean)

    def test_mean_deviance_matches_per_draw_recomputation(self):
        rng = np.random.default_rng(5)
        data, d = two_location_setup(rng, n_per=5)
        cfg = BayesConfig(tau2=0.01, chain_length=60, burn_in=10, seed=2,
                          bandwidth_upper=10.0)
        post = run_sampler(data, d, "exponential", cfg)
        a = dic(post, data)
        devs = [obs_deviance_oracle(data, post.locations, post.beta[t],
                                    post.sigma2[t])
                for t in range(post.n_draws)]
        assert a.mean_deviance == pytest.approx(float(np.mean(devs)), rel=1e-10)

    def test_plug_in_uses_geometric_mean_sigma2(self):
        rng = np.random.default_rng(12)
        data, _ = two_location_setup(rng)
        beta = rng.normal(size=(2, 2))
        post = constant_posterior(data, 2.0, beta,
                                  np.array([0.5, 1.5]), T=6)
        post.beta = post.beta + rng.normal(scale=0.1, size=post.beta.shape)
        post.sigma2[3:] *= 4.0
        a = dic(post, data)
        ref = obs_deviance_oracle(data, post.locations, post.beta.mean(axis=0),
                                  np.array([0.5, 1.5]) * 2.0)
        assert a.deviance_at_mean == pytest.approx(ref, rel=1e-10)

    def test_independent_of_kernel_and_bandwidth(self):
        rng = np.random.default_rng(13)
        data, d = two_location_setup(rng, n_per=8)
        cfg = BayesConfig(tau2=0.01, chain_length=300, burn_in=50, seed=5,
                          bandwidth_upper=10.0)
        post = run_sampler(data, d, "exponential", cfg)
        a = dic(post, data)
        b = dic(replace(post, b=np.zeros_like(post.b)), data)
        for field in ("dic", "p_d", "mean_deviance", "deviance_at_mean"):
            assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-12)

    def test_unknown_location_rejected(self):
        rng = np.random.default_rng(14)
        data, _ = two_location_setup(rng)
        post = constant_posterior(data, 1.0,
                                  np.zeros((2, 2)), np.ones(2))
        post.locations = ("a", "c")
        with pytest.raises(ValueError, match="locations without draws"):
            dic(post, data)

    def test_empty_chain_rejected(self):
        rng = np.random.default_rng(6)
        data, _ = two_location_setup(rng)
        post = constant_posterior(data, 1.0,
                                  np.zeros((2, 2)), np.ones(2), T=5)
        post.beta = post.beta[:0]
        with pytest.raises(ValueError, match="empty"):
            dic(post, data)


class TestCpoLpml:
    def test_single_draw_equals_density(self):
        rng = np.random.default_rng(7)
        data, _ = two_location_setup(rng)
        beta = rng.normal(size=(2, 2))
        sigma2 = np.array([1.2, 0.5])
        post = constant_posterior(data, 1.0, beta, sigma2, T=1)
        a = cpo_lpml(post, data)
        loc_index = {s: k for k, s in enumerate(post.locations)}
        for i in range(data.n):
            k = loc_index[data.locations[i]]
            f = norm.pdf(data.y[i], loc=data.X[i] @ beta[k],
                         scale=math.sqrt(sigma2[k]))
            assert a.cpo[i] == pytest.approx(f, rel=1e-12)

    def test_true_parameter_chain_lpml(self):
        rng = np.random.default_rng(8)
        n = 50
        data = Dataset(y=rng.standard_normal(n), X=np.zeros((n, 1)) + 1e-12,
                       locations=("a",) * n)
        post = constant_posterior(data, 1.0,
                                  np.zeros((1, 1)), np.ones(1), T=10)
        a = cpo_lpml(post, data)
        ref = float(norm.logpdf(data.y).sum())
        assert abs(a.lpml - ref) < 1e-6

    def test_log_domain_matches_naive(self):
        rng = np.random.default_rng(9)
        data, d = two_location_setup(rng)
        cfg = BayesConfig(tau2=0.01, chain_length=300, burn_in=50, seed=3,
                          bandwidth_upper=10.0)
        post = run_sampler(data, d, "exponential", cfg)
        a = cpo_lpml(post, data)
        loc_index = {s: k for k, s in enumerate(post.locations)}
        idx = [loc_index[s] for s in data.locations]
        mu = np.einsum("tnp,np->tn", post.beta[:, idx, :], data.X)
        s2 = post.sigma2[:, idx]
        dens = np.exp(-0.5 * ((data.y - mu) ** 2 / s2)) / np.sqrt(2 * math.pi * s2)
        naive = 1.0 / (1.0 / dens).mean(axis=0)
        np.testing.assert_allclose(a.cpo, naive, rtol=1e-8)

    def test_unknown_location_rejected(self):
        rng = np.random.default_rng(14)
        data, _ = two_location_setup(rng)
        post = constant_posterior(data, 1.0,
                                  np.zeros((2, 2)), np.ones(2))
        post.locations = ("a", "c")
        with pytest.raises(ValueError, match="locations without draws"):
            cpo_lpml(post, data)

    def test_lpml_invariant_under_permutation(self):
        rng = np.random.default_rng(10)
        data, _ = two_location_setup(rng)
        post = constant_posterior(data, 1.0,
                                  rng.normal(size=(2, 2)), np.ones(2), T=3)
        a = cpo_lpml(post, data)
        perm = rng.permutation(data.n)
        data2 = Dataset(y=data.y[perm], X=data.X[perm],
                        locations=tuple(data.locations[i] for i in perm))
        a2 = cpo_lpml(post, data2)
        assert a2.lpml == pytest.approx(a.lpml, rel=1e-12)


def test_assess_combines_both():
    rng = np.random.default_rng(11)
    data, d = two_location_setup(rng)
    cfg = BayesConfig(tau2=0.01, chain_length=200, burn_in=50, seed=4,
                      bandwidth_upper=10.0)
    post = run_sampler(data, d, "exponential", cfg)
    a = assess(post, data)
    assert a.dic is not None and a.lpml is not None
    assert np.all(a.cpo > 0)
    assert a.lpml == pytest.approx(float(np.log(a.cpo).sum()))


def simulated_chain(d, chain_length, burn_in, seed=5):
    """A criterion-6 style constant-pattern dataset on ``d``'s locations and
    the exponential-kernel chain sampled from it."""
    design = SimulationDesign(pattern="constant", base_beta=BASE_BETAS[1],
                              replicates=1, seed=seed)
    locs = tuple(d.labels)
    data = generate_dataset(design, locs, true_beta(design, locs),
                            replicate_seed(seed, 0, 0))
    cfg = BayesConfig(tau2=0.01, c2=1e4, chain_length=chain_length,
                      burn_in=burn_in, seed=replicate_seed(seed, 0, 1))
    return run_sampler(data, d, "exponential", cfg), data


@pytest.fixture(scope="module")
def china_chain(china_d):
    # T = 3000 draws of n = 150 rows: several blocks and a partial last one
    return simulated_chain(china_d, 4000, 1000)


@pytest.fixture(scope="module")
def lattice_chain():
    return simulated_chain(graph_distances(lattice_graph(16)), 250, 40)


class TestDrawBlocks:
    """dic and cpo_lpml walk the chain in blocks of draws; both must equal
    the one-shot formulas over the whole chain in tests/conftest.py."""

    @staticmethod
    def assert_matches_oracles(post, data):
        a = assess(post, data)
        ref = log_cpo_oracle(post, data)
        np.testing.assert_allclose(a.log_cpo, ref, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(a.cpo, np.exp(a.log_cpo))
        assert a.lpml == float(a.log_cpo.sum())
        dic_, p_d, mean_dev, dev_at_mean = dic_oracle(post, data)
        for got, want in ((a.dic, dic_), (a.mean_deviance, mean_dev),
                          (a.deviance_at_mean, dev_at_mean)):
            assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(a.p_d - p_d) <= 1e-12 * abs(mean_dev)

    def test_blocks_cover_the_chain(self, monkeypatch):
        for draw_block, n_draws, n, step in ((2 ** 15, 3000, 150, 218),
                                             (7, 5, 12, 1), (100, 9, 12, 8)):
            monkeypatch.setattr(assessment, "DRAW_BLOCK", draw_block)
            blocks = list(assessment._draw_blocks(n_draws, n))
            assert blocks[0].start == 0 and blocks[-1].stop == n_draws
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            sizes = [b.stop - b.start for b in blocks]
            assert sizes[:-1] == [step] * (len(blocks) - 1) and 0 < sizes[-1] <= step

    @pytest.mark.parametrize("draw_block", [None, 1, 1000])
    def test_china_chain(self, china_chain, monkeypatch, draw_block):
        post, data = china_chain
        assert post.n_draws == 3000 and data.n == 150
        if draw_block is not None:
            monkeypatch.setattr(assessment, "DRAW_BLOCK", draw_block)
        self.assert_matches_oracles(post, data)

    @pytest.mark.parametrize("draw_block", [None, 1])
    def test_lattice_chain(self, lattice_chain, monkeypatch, draw_block):
        post, data = lattice_chain
        assert post.n_draws > assessment.DRAW_BLOCK // data.n
        if draw_block is not None:
            monkeypatch.setattr(assessment, "DRAW_BLOCK", draw_block)
        self.assert_matches_oracles(post, data)

    def test_chain_in_one_block(self):
        rng = np.random.default_rng(15)
        data, d = two_location_setup(rng)
        cfg = BayesConfig(tau2=0.01, chain_length=300, burn_in=50, seed=6,
                          bandwidth_upper=10.0)
        post = run_sampler(data, d, "exponential", cfg)
        assert post.n_draws * data.n <= assessment.DRAW_BLOCK
        self.assert_matches_oracles(post, data)

    def test_assess_memory_bounded_by_a_block(self):
        # a (T, n, .) array of this chain is ten times the beta chain itself
        rng = np.random.default_rng(16)
        L, rows, p, T = 64, 10, 5, 2000
        locs = tuple(f"s{k}" for k in range(L))
        data = Dataset(y=rng.normal(size=L * rows), X=rng.normal(size=(L * rows, p)),
                       locations=tuple(s for s in locs for _ in range(rows)))
        post = GwrPosterior(locations=locs, beta=rng.normal(size=(T, L, p)),
                            sigma2=rng.gamma(2.0, size=(T, L)),
                            gamma=np.ones((T, p), dtype=int), b=np.ones(T),
                            acceptance_rate_b=0.0, proposal_scale=np.nan)
        tracemalloc.start()
        try:
            a = assess(post, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(a.lpml) and np.isfinite(a.dic)
        assert peak < post.beta.nbytes
