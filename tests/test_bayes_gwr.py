import math

import numpy as np
import pytest
from scipy.stats import kstest, multivariate_normal

from bgwr import bayes_gwr
from bgwr.bayes_gwr import (BayesConfig, GwrPosterior, _cell_layout, _distance_shells,
                            _gibbs_layout, _kernel_state, _location_pairs, _log_ratio,
                            _total_loglik, _weighed_stats, _weighted_rss, hpd_interval,
                            posterior_summary, run_sampler, selected_model)
from bgwr.spatial_graph import (DistanceMatrix, build_graph, euclidean_distances,
                                graph_distances)
from bgwr.suffstats import Dataset, block_stats, packed_stats, unpack
from bgwr.weighting import WeightScheme, kernel_weight, log_kernel_weight
from conftest import lattice_graph, loglik_oracle, reference_sampler, sampler_loglik


def one_location_distance():
    return DistanceMatrix(("a",), np.zeros((1, 1)))


def make_posterior(gamma_freq, T=100):
    """Synthetic posterior with prescribed inclusion frequencies."""
    p = len(gamma_freq)
    gamma = np.zeros((T, p), dtype=int)
    for j, f in enumerate(gamma_freq):
        gamma[: int(round(f * T)), j] = 1
    return GwrPosterior(locations=("a",), beta=np.zeros((T, 1, p)),
                        sigma2=np.ones((T, 1)), gamma=gamma,
                        b=np.full(T, 1.0), acceptance_rate_b=0.3, proposal_scale=np.nan)


NAN, INF = float("nan"), float("inf")


class TestConfigValidation:
    def test_bad_tau2(self):
        for value in (0.0, NAN):
            with pytest.raises(ValueError):
                BayesConfig(tau2=value)

    def test_bad_c2(self):
        for value in (1.0, NAN):
            with pytest.raises(ValueError):
                BayesConfig(c2=value)

    def test_bad_inclusion_prior(self):
        with pytest.raises(ValueError):
            BayesConfig(inclusion_prior=1.0)

    def test_bad_burnin(self):
        with pytest.raises(ValueError):
            BayesConfig(chain_length=100, burn_in=100)

    def test_bad_bandwidth_upper(self):
        # an infinite D would be recorded as the bandwidth itself
        for value in (0.0, INF, NAN):
            with pytest.raises(ValueError):
                BayesConfig(bandwidth_upper=value)

    @pytest.mark.parametrize("field", ["alpha1", "alpha2", "slab_only_var"])
    def test_bad_prior_scale(self, field):
        for value in (0.0, -1.0, NAN):
            with pytest.raises(ValueError, match=field):
                BayesConfig(**{field: value})

    def test_nonpositive_fix_sigma2(self):
        # the flat chain never evaluates the likelihood, so only the config
        # stands between it and recording sigma2 <= 0
        for flat in (False, True):
            for value in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="fix_sigma2 must be positive"):
                    BayesConfig(fix_sigma2=value, flat_likelihood=flat)
        assert BayesConfig(fix_sigma2=1e-300, flat_likelihood=True).fix_sigma2 == 1e-300


class TestLogLikelihoodLocation:
    """The per-location weighted Gaussian log-likelihood, summed over
    locations, as the sampler computes it from block statistics."""

    def test_unity_weights_iid_normal(self):
        rng = np.random.default_rng(0)
        data = Dataset(y=rng.normal(size=8), X=rng.normal(size=(8, 2)),
                       locations=("a",) * 8)
        beta = np.array([0.4, -1.1])
        s2 = 1.7
        got = sampler_loglik(data, one_location_distance(), "unity", None,
                             beta[None], np.array([s2]))
        resid = data.y - data.X @ beta
        ref = -0.5 * (8 * math.log(2 * math.pi * s2) + resid @ resid / s2)
        assert abs(got - ref) < 1e-12

    def test_doubling_sigma2_with_zero_residuals(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 2))
        beta = np.array([2.0, -3.0])
        data = Dataset(y=X @ beta, X=X, locations=("A", "A", "B", "B", "C", "C"))
        d = graph_distances(build_graph("ABC", [("A", "B"), ("B", "C")]))
        betas = np.tile(beta, (3, 1))
        low = sampler_loglik(data, d, "exponential", 1.5, betas, np.ones(3))
        high = sampler_loglik(data, d, "exponential", 1.5, betas, np.full(3, 2.0))
        # every row has positive weight at each of the three locations
        assert abs((high - low) - (-3 * 6 / 2 * math.log(2))) < 1e-12

    def test_matches_dense_mvn_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            # one row per location, so the weights vary row by row
            labels = tuple(f"l{i}" for i in range(n))
            dist = np.triu(rng.uniform(0.1, 3.0, size=(n, n)), 1)
            d = DistanceMatrix(labels, dist + dist.T)
            data = Dataset(y=rng.normal(size=n), X=rng.normal(size=(n, 2)),
                           locations=labels)
            b = float(rng.uniform(0.5, 4.0))
            beta = rng.normal(size=(n, 2))
            s2 = rng.uniform(0.3, 3.0, size=n)
            got = sampler_loglik(data, d, "exponential", b, beta, s2)
            ref = sum(multivariate_normal.logpdf(
                data.y, mean=data.X @ beta[s],
                cov=s2[s] * np.diag(np.exp(d.values[s] / b))) for s in range(n))
            assert abs(got - ref) < 1e-9

    def test_zero_weight_rows_excluded(self):
        rng = np.random.default_rng(3)
        # path A-B-C plus an unreachable D; step(1) keeps adjacent rows only
        d = graph_distances(build_graph("ABCD", [("A", "B"), ("B", "C")]))
        locs = ("A", "B", "C", "D", "A", "C", "D")
        data = Dataset(y=rng.normal(size=7), X=rng.normal(size=(7, 2)), locations=locs)
        beta = rng.normal(size=(4, 2))
        s2 = rng.uniform(0.5, 2.0, size=4)
        full = sampler_loglik(data, d, "step", 1.0, beta, s2)
        ref = 0.0
        for k, s in enumerate(data.unique_locations()):
            keep = np.array([d.get(s, o) <= 1.0 for o in locs])
            sub = Dataset(y=data.y[keep], X=data.X[keep], locations=("a",) * keep.sum())
            ref += sampler_loglik(sub, one_location_distance(), "unity", None,
                                  beta[k][None], s2[k:k + 1])
        assert abs(full - ref) < 1e-12

    def test_underflowed_weights_keep_log_weight_penalty(self):
        rng = np.random.default_rng(4)
        d = DistanceMatrix(("a", "b"), np.array([[0.0, 800.0], [800.0, 0.0]]))
        data = Dataset(y=rng.normal(size=6), X=rng.normal(size=(6, 2)),
                       locations=("a",) * 3 + ("b",) * 3)
        beta = rng.normal(size=(2, 2))
        s2 = np.array([0.7, 1.9])
        assert np.exp(-800.0) == 0.0
        got = sampler_loglik(data, d, "exponential", 1.0, beta, s2)
        own = np.array([[0.0] * 3 + [-800.0] * 3, [-800.0] * 3 + [0.0] * 3])
        ref = loglik_oracle(data, own, beta, s2)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_nonpositive_sigma2_rejected(self):
        # the likelihood is undefined at sigma2 <= 0, so the config refuses it
        with pytest.raises(ValueError, match="fix_sigma2 must be positive"):
            BayesConfig(chain_length=2, burn_in=1, fix_sigma2=0.0)


# every kernel on a path a-b-c-d plus an unreachable e; the small
# exponential, gaussian and graph_exp bandwidths underflow exp (d/b > 745)
CORE_SCHEMES = [WeightScheme("unity"), WeightScheme("step", 1.0),
                WeightScheme("exponential", 2.0), WeightScheme("exponential", 0.002),
                WeightScheme("gaussian", 1.5), WeightScheme("gaussian", 0.05),
                WeightScheme("bisquare", 2.5), WeightScheme("graph_exp", 0.002)]
CORE_IDS = [f"{s.kernel}-{s.bandwidth}" for s in CORE_SCHEMES]


class TestLikelihoodCore:
    """The kernel-state sums against dense (L, L) references."""

    def setup_case(self, scheme):
        rng = np.random.default_rng(30)
        d = graph_distances(build_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d")]))
        n, p = 23, 3
        data = Dataset(y=rng.normal(size=n), X=rng.normal(size=(n, p)),
                       locations=tuple("abcde"[i % 5] for i in range(n)))
        locs = data.unique_locations()
        G, h, q, counts = block_stats(data, locs)
        K = kernel_weight(scheme, d.submatrix(locs))
        return rng, data, locs, d, (G, h, q, counts), K

    @pytest.mark.parametrize("scheme", CORE_SCHEMES, ids=CORE_IDS)
    def test_weighted_rss_matches_dense_row_sum(self, scheme):
        rng, data, locs, d, (G, h, q, counts), K = self.setup_case(scheme)
        beta = rng.normal(size=(len(locs), data.p))
        # A[s, l]: squared residuals of location l's rows under beta_s
        A = np.array([[np.sum((data.y[rows] - data.X[rows] @ beta[s]) ** 2)
                       for rows in (np.array(data.locations) == l for l in locs)]
                      for s in range(len(locs))])
        state = _kernel_state(scheme.kernel, _location_pairs(d.submatrix(locs), counts, G, h, q),
                              scheme.bandwidth)
        np.testing.assert_allclose(_weighted_rss(state, beta), (K * A).sum(axis=1),
                                   rtol=1e-10, atol=0)
        Mt, VT, Mdiag, half_inv_diag, mass, shape = _gibbs_layout(state, 0.01)
        for j in range(data.p):
            np.testing.assert_array_equal(Mt[j], state["M"][:, :, j].T)
        np.testing.assert_array_equal(VT, state["V"].T)
        np.testing.assert_array_equal(Mdiag, np.diagonal(state["M"], axis1=1, axis2=2).T)
        has_obs = Mdiag > 0
        assert mass is None if has_obs.all() else np.array_equal(mass, has_obs)
        np.testing.assert_array_equal(half_inv_diag, 0.5 / np.where(has_obs, Mdiag, 1.0))
        np.testing.assert_array_equal(np.broadcast_to(shape, (len(locs),)),
                                      0.01 + state["npos"] / 2.0)
        assert isinstance(shape, float) == (state["npos"] == state["npos"][0]).all()
        assert all(a.flags.c_contiguous for a in (Mt, VT, Mdiag))

    def test_block_stats_match_per_location_masks(self):
        rng = np.random.default_rng(31)
        data = Dataset(y=rng.normal(size=40), X=rng.normal(size=(40, 3)),
                       locations=tuple(rng.choice(list("abcdef"), size=40).tolist()))
        # another order, a location without rows, and rows ("f") left out
        locs = ("e", "c", "z", "a", "d", "b")
        got = block_stats(data, locs)
        loc_arr = np.array(data.locations)
        for k, s in enumerate(locs):
            rows = loc_arr == s
            Xs, ys = data.X[rows], data.y[rows]
            np.testing.assert_array_equal(got[0][k], Xs.T @ Xs)
            np.testing.assert_array_equal(got[1][k], Xs.T @ ys)
            assert got[2][k] == ys @ ys
            assert got[3][k] == rows.sum()

    @pytest.mark.parametrize("scheme", CORE_SCHEMES, ids=CORE_IDS)
    def test_weighted_blocks_match_einsum(self, scheme):
        _, _, _, _, (G, h, q, _), K = self.setup_case(scheme)
        M, V, _ = unpack(packed_stats(G, h, q) @ K.T, G.shape[1])
        ref = np.einsum("sl,lij->sij", K, G)
        assert M.shape == ref.shape
        assert np.abs(M - ref).max() <= 1e-12 * np.abs(ref).max()
        np.testing.assert_allclose(V, np.einsum("sl,li->si", K, h), rtol=1e-12)

    @pytest.mark.parametrize("scheme", CORE_SCHEMES, ids=CORE_IDS)
    def test_shell_state_matches_dense(self, scheme):
        _, _, locs, d, (G, h, q, counts), _ = self.setup_case(scheme)
        dsub = d.submatrix(locs)
        shells = _distance_shells(dsub, counts, G, h, q)
        assert shells is not None  # hop counts 0-3 over 5 locations
        got = _kernel_state(scheme.kernel, shells, scheme.bandwidth)
        ref = _kernel_state(scheme.kernel, _location_pairs(dsub, counts, G, h, q),
                            scheme.bandwidth)
        assert got.keys() == ref.keys()
        for field in ("npos", "sumlogw", "M", "V", "Kq"):
            assert got[field].shape == ref[field].shape, field
            scale = np.abs(ref[field]).max()
            assert np.abs(got[field] - ref[field]).max() <= 1e-12 * scale, field

    def test_shell_state_keeps_underflowed_log_weights(self):
        scheme = WeightScheme("exponential", 0.002)
        _, _, locs, d, (G, h, q, counts), K = self.setup_case(scheme)
        dsub = d.submatrix(locs)
        logK = log_kernel_weight(scheme, dsub)
        assert ((K == 0) & np.isfinite(logK)).any()  # d/b = 1000 > 745
        state = _kernel_state(scheme.kernel, _distance_shells(dsub, counts, G, h, q),
                              scheme.bandwidth)
        for s in range(len(locs)):
            reach = np.isfinite(dsub[s])
            assert state["npos"][s] == counts[reach].sum()
            ref = sum(counts[l] * -dsub[s, l] / scheme.bandwidth for l in np.flatnonzero(reach))
            assert state["sumlogw"][s] == pytest.approx(ref, rel=1e-12)

    def test_euclidean_distances_take_dense_path(self):
        rng = np.random.default_rng(32)
        d = euclidean_distances(list("abcdef"), rng.normal(size=(6, 2)))
        data = Dataset(y=rng.normal(size=12), X=rng.normal(size=(12, 2)),
                       locations=tuple("abcdef" * 2))
        locs = data.unique_locations()
        G, h, q, counts = block_stats(data, locs)
        assert _distance_shells(d.submatrix(locs), counts, G, h, q) is None

    def test_sampler_same_chains_from_shells_and_dense(self, china_d, monkeypatch):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(150, 3))
        y = X @ np.array([2.0, 0.0, 4.0]) + rng.normal(size=150)
        data = Dataset(y=y, X=X, locations=tuple(s for s in china_d.labels for _ in range(5)))
        locs = data.unique_locations()
        G, h, q, counts = block_stats(data, locs)
        assert _distance_shells(china_d.submatrix(locs), counts, G, h, q) is not None
        cfg = BayesConfig(tau2=0.01, chain_length=600, burn_in=200, seed=8)
        shell = run_sampler(data, china_d, "exponential", cfg)
        monkeypatch.setattr(bayes_gwr, "_distance_shells", lambda *args: None)
        dense = run_sampler(data, china_d, "exponential", cfg)
        assert 0 < shell.acceptance_rate_b < 1
        np.testing.assert_array_equal(shell.gamma, dense.gamma)
        np.testing.assert_array_equal(shell.b, dense.b)
        np.testing.assert_allclose(shell.beta.mean(axis=0), dense.beta.mean(axis=0),
                                   rtol=0, atol=1e-10)


@pytest.fixture(scope="module")
def lattice_d():
    return graph_distances(lattice_graph(5))


@pytest.fixture(scope="module")
def plane_d():
    """Euclidean distances between 30 points of a 5 x 5 square: all distinct,
    so the bandwidth step takes the location pairs, and spread over (0, 7),
    so the step and bisquare cutoffs of RATIO_CASES move between them."""
    coords = np.random.default_rng(47).uniform(0.0, 5.0, size=(30, 2))
    return euclidean_distances([f"p{i}" for i in range(30)], coords)


def sweep_dataset(d, rows, p, seed, zero_at=None):
    """``rows`` rows at every location of ``d``; ``zero_at`` names a location
    whose rows get a zero second covariate."""
    rng = np.random.default_rng(seed)
    locations = tuple(s for s in d.labels for _ in range(rows))
    X = rng.normal(size=(len(locations), p))
    if zero_at is not None:
        X[np.array(locations) == zero_at, 1] = 0.0
    y = X @ np.linspace(2.0, 0.0, p) + rng.normal(size=len(locations))
    return Dataset(y=y, X=X, locations=locations)


SWEEP_CASES = {"sampled": {}, "no-selection": {"selection": False},
               "fix-gamma": {"fix_gamma": (1, 0, 1, 0, 1)},
               "tau-hyperprior": {"tau_hyperprior": True}, "fix-sigma2": {"fix_sigma2": 0.5},
               "flat": {"flat_likelihood": True}, "fix-bandwidth": {"fix_bandwidth": 3.0}}


class TestSweepOracle:
    """run_sampler against reference_sampler (tests/conftest.py), which
    updates one covariate at a time and draws the same random stream."""

    @staticmethod
    def assert_same_chain(data, d, kernel, cfg):
        got = run_sampler(data, d, kernel, cfg)
        ref = reference_sampler(data, d, kernel, cfg)
        np.testing.assert_array_equal(got.gamma, ref.gamma)
        np.testing.assert_array_equal(got.b, ref.b)
        np.testing.assert_allclose(got.beta, ref.beta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.sigma2, ref.sigma2, rtol=1e-12, atol=0)
        assert got.acceptance_rate_b == ref.acceptance_rate_b
        np.testing.assert_array_equal(got.proposal_scale, ref.proposal_scale)

    @pytest.mark.parametrize("graph", ["china", "lattice", "plane"])
    @pytest.mark.parametrize("case", SWEEP_CASES, ids=list(SWEEP_CASES))
    def test_exponential(self, request, graph, case):
        d = request.getfixturevalue(f"{graph}_d")
        data = sweep_dataset(d, rows=5, p=5, seed=40)
        cfg = BayesConfig(tau2=0.01, chain_length=400, burn_in=200, seed=9,
                          **SWEEP_CASES[case])
        self.assert_same_chain(data, d, "exponential", cfg)

    @pytest.mark.parametrize("graph", ["china", "lattice"])
    @pytest.mark.parametrize("kernel", ["step", "bisquare"])
    def test_location_without_covariate_mass(self, china_d, lattice_d, graph, kernel):
        # b starts at D/2 < 1, where either kernel weighs a location's own
        # rows only, so covariate 2 has no weighted mass at zero_at
        d = china_d if graph == "china" else lattice_d
        data = sweep_dataset(d, rows=8, p=3, seed=41, zero_at=d.labels[3])
        cfg = BayesConfig(tau2=0.01, bandwidth_upper=1.5, chain_length=400,
                          burn_in=200, seed=10)
        locs = data.unique_locations()
        G, h, q, counts = block_stats(data, locs)
        state = _kernel_state(kernel, _location_pairs(d.submatrix(locs), counts, G, h, q), 0.75)
        mass = _gibbs_layout(state, cfg.alpha1)[4]
        assert not mass[1, locs.index(d.labels[3])] and mass.sum() == mass.size - 1
        self.assert_same_chain(data, d, kernel, cfg)

    @staticmethod
    def uneven_npos_case(china_d, case):
        """A chain whose sigma2 shape alpha1 + npos / 2 differs across
        locations: the step kernel on China with b in (0, 3), where b >= 1
        reaches as many rows as a location has neighbours and b < 1 its own
        rows only, or the exponential kernel on a graph with an isolated
        vertex, whose rows no other location reaches."""
        if case == "step-china":
            d, kernel, upper = china_d, "step", 3.0
        else:
            d = graph_distances(build_graph("abcdefg", [("a", "b"), ("b", "c"), ("c", "d"),
                                                        ("d", "e"), ("e", "f"), ("a", "f")]))
            kernel, upper = "exponential", 10.0
        data = sweep_dataset(d, rows=5, p=3, seed=46)
        # no burn-in, so that the draws show the start at b = upper / 2
        cfg = BayesConfig(tau2=0.01, bandwidth_upper=upper, chain_length=400, burn_in=0,
                          seed=13)
        locs = data.unique_locations()
        G, h, q, counts = block_stats(data, locs)
        state = _kernel_state(kernel, _location_pairs(d.submatrix(locs), counts, G, h, q),
                              upper / 2.0)
        assert not isinstance(_gibbs_layout(state, cfg.alpha1)[5], float)
        return data, d, kernel, cfg

    @pytest.mark.parametrize("case", ["step-china", "isolated-vertex"])
    def test_sigma2_shape_uneven_across_locations(self, china_d, case):
        data, d, kernel, cfg = self.uneven_npos_case(china_d, case)
        post = run_sampler(data, d, kernel, cfg)
        if case == "step-china":  # b crosses 1, so the chain takes both shape forms
            assert (post.b < 1).any() and (post.b >= 1).any()
        self.assert_same_chain(data, d, kernel, cfg)

    @pytest.mark.parametrize("case", ["step-china", "isolated-vertex"])
    def test_scalar_shape_forced_is_caught(self, china_d, monkeypatch, case):
        # drawing every sigma2 with the first location's shape must break
        # the agreement with the oracle
        data, d, kernel, cfg = self.uneven_npos_case(china_d, case)
        layout = bayes_gwr._gibbs_layout

        def first_shape(state, alpha1):
            *rest, shape = layout(state, alpha1)
            return (*rest, float(np.ravel(shape)[0]))

        monkeypatch.setattr(bayes_gwr, "_gibbs_layout", first_shape)
        with pytest.raises(AssertionError):
            self.assert_same_chain(data, d, kernel, cfg)

    @pytest.mark.parametrize("shape", [0.01, 0.7, 2.505, 75.01])
    def test_scalar_shape_gamma_draw_is_the_vector_draw(self, shape):
        # the sampler draws sigma2 with a float shape when it is the same at
        # every location: same variates, same generator state afterwards
        L = 30
        a, b = np.random.default_rng(14), np.random.default_rng(14)
        for _ in range(200):
            np.testing.assert_array_equal(a.standard_gamma(shape, size=L),
                                          b.standard_gamma(np.full(L, shape)))
        assert a.random() == b.random()


# (kernel, current b, proposed b): step and bisquare gain shells between the
# two, and b = 0.002 underflows exp(lw) beyond the own location
RATIO_CASES = [("unity", 1.0, 2.0), ("step", 1.5, 3.5), ("exponential", 2.0, 5.0),
               ("exponential", 0.002, 0.5), ("exponential", 0.5, 0.002),
               ("gaussian", 1.5, 3.0), ("bisquare", 1.5, 4.0), ("bisquare", 4.0, 1.5),
               ("graph_exp", 0.002, 2.0)]


class TestShellMH:
    """The bandwidth step's cell identities against full kernel states."""

    @pytest.mark.parametrize("graph", ["china", "lattice", "plane"])
    @pytest.mark.parametrize("kernel,b0,b1", RATIO_CASES,
                             ids=[f"{k}-{b0}-{b1}" for k, b0, b1 in RATIO_CASES])
    def test_log_ratio_matches_dense_states(self, request, graph, kernel, b0, b1):
        d = request.getfixturevalue(f"{graph}_d")
        data = sweep_dataset(d, rows=5, p=5, seed=42)
        locs = data.unique_locations()
        dsub = d.submatrix(locs)
        G, h, q, counts = block_stats(data, locs)
        rng = np.random.default_rng(43)
        beta = rng.normal(size=(len(locs), 5))
        sigma2 = rng.gamma(2.0, size=len(locs))

        def loglik(b):
            state = _kernel_state(kernel, _location_pairs(dsub, counts, G, h, q), b)
            return state, _total_loglik(state, _weighted_rss(state, beta), sigma2)

        (s0, ll0), (s1, ll1) = loglik(b0), loglik(b1)
        if kernel in ("step", "bisquare"):
            assert (s0["npos"] != s1["npos"]).any()
        # the layout the sampler takes: shells on the graphs, pairs on the plane
        cells = _cell_layout(dsub, counts, G, h, q, True)
        assert (cells.u.shape == dsub.shape) == (graph == "plane")
        cur, prop = (_weighed_stats(kernel, cells, b) for b in (b0, b1))
        got = _log_ratio(cur, prop, beta.T.copy(), sigma2, np.empty_like(cur[0]))
        assert got == pytest.approx(ll1 - ll0, rel=1e-9, abs=0)

    def test_sigma2_draw_reads_the_weighted_rss(self, china_d, monkeypatch):
        # record the gamma variates of the sigma2 draws: sigma2 = (alpha2 +
        # Q / 2) / g gives back the Q the sweep took from its Gibbs block
        variates = []
        default_rng = np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_gamma(self, shape, size=None):
                variates.append(self.rng.standard_gamma(shape, size=size))
                return variates[-1]

        monkeypatch.setattr(bayes_gwr.np.random, "default_rng", Recorder)
        data = sweep_dataset(china_d, rows=5, p=5, seed=44)
        cfg = BayesConfig(tau2=0.01, chain_length=60, burn_in=0, seed=12)
        post = run_sampler(data, china_d, "exponential", cfg)
        assert 0 < post.acceptance_rate_b < 1
        locs = data.unique_locations()
        G, h, q, counts = block_stats(data, locs)
        b_before = np.concatenate(([cfg.bandwidth_upper / 2.0], post.b[:-1]))
        for t, g in enumerate(variates):
            state = _kernel_state("exponential",
                                  _location_pairs(china_d.submatrix(locs), counts, G, h, q),
                                  b_before[t])
            Q = 2.0 * (post.sigma2[t] * g - cfg.alpha2)
            np.testing.assert_allclose(Q, _weighted_rss(state, post.beta[t]), rtol=1e-9)

    @pytest.mark.parametrize("values,shells", [((2.0, 5.0, np.inf), (0.0, 2.0, 5.0)),
                                               ((2.0, 6.0, 5.0, np.inf), (0.0, 2.0, 5.0, 6.0)),
                                               ((0.5, 1.7, 0.5), (0.0, 0.5, 1.7))],
                             ids=["integers-with-gaps", "integers-up-to-L",
                                  "repeated-non-integers"])
    @pytest.mark.parametrize("scheme", CORE_SCHEMES, ids=CORE_IDS)
    def test_shells_match_dense_state_on_other_distances(self, values, shells, scheme):
        # 6 locations whose off-diagonal distances cycle through ``values``,
        # inf an unreachable pair; 6 = L is still an integer shell
        L = 6
        rng = np.random.default_rng(45)
        upper = np.triu(np.resize(values, (L, L)), 1)
        dsub = upper + upper.T
        data = Dataset(y=rng.normal(size=4 * L), X=rng.normal(size=(4 * L, 3)),
                       locations=tuple(f"s{i % L}" for i in range(4 * L)))
        G, h, q, counts = block_stats(data, data.unique_locations())
        found = _distance_shells(dsub, counts, G, h, q)
        np.testing.assert_array_equal(found.u, shells)
        got = _kernel_state(scheme.kernel, found, scheme.bandwidth)
        ref = _kernel_state(scheme.kernel, _location_pairs(dsub, counts, G, h, q),
                            scheme.bandwidth)
        for field in ("npos", "sumlogw", "M", "V", "Kq"):
            scale = np.abs(ref[field]).max()
            assert np.abs(got[field] - ref[field]).max() <= 1e-12 * scale, field


class TestConjugateExactness:
    def test_beta_posterior_matches_closed_form(self):
        # one location, unity weights, known sigma2, all indicators slab
        rng = np.random.default_rng(10)
        n, p = 40, 3
        X = rng.normal(size=(n, p))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=n)
        data = Dataset(y=y, X=X, locations=("a",) * n)
        s2 = 1.0
        cfg = BayesConfig(tau2=0.01, c2=10000.0, chain_length=6000, burn_in=500,
                          seed=99, fix_sigma2=s2, fix_gamma=(1, 1, 1),
                          fix_bandwidth=10.0)
        post = run_sampler(data, one_location_distance(), "unity", cfg)
        v1 = cfg.c2 * cfg.tau2
        prec = X.T @ X / s2 + np.eye(p) / v1
        cov = np.linalg.inv(prec)
        mean = cov @ (X.T @ y / s2)
        draws = post.beta[:, 0, :]
        T = draws.shape[0]
        for j in range(p):
            mcse = draws[:, j].std(ddof=1) / math.sqrt(T / 5.0)  # conservative
            assert abs(draws[:, j].mean() - mean[j]) < 3 * mcse
            var_mcse = draws[:, j].var(ddof=1) * math.sqrt(2.0 / (T / 5.0))
            assert abs(draws[:, j].var(ddof=1) - cov[j, j]) < 3 * var_mcse

    def test_sigma2_conditional_moments(self):
        # pin the coefficients near zero so sigma2's conditional is fixed
        rng = np.random.default_rng(11)
        n = 25
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        data = Dataset(y=y, X=X, locations=("a",) * n)
        cfg = BayesConfig(chain_length=21000, burn_in=1000, seed=4,
                          selection=False, slab_only_var=1e-14,
                          fix_bandwidth=10.0)
        post = run_sampler(data, one_location_distance(), "unity", cfg)
        shape = cfg.alpha1 + n / 2.0
        rate = cfg.alpha2 + float(y @ y) / 2.0
        ref_mean = rate / (shape - 1.0)
        draws = post.sigma2[:, 0]
        mcse = draws.std(ddof=1) / math.sqrt(draws.size / 3.0)
        assert abs(draws.mean() - ref_mean) < 3 * mcse


class TestPriorRecovery:
    def test_flat_likelihood_recovers_prior(self):
        rng = np.random.default_rng(12)
        n = 20
        data = Dataset(y=rng.normal(size=n), X=rng.normal(size=(n, 3)),
                       locations=("a", "b") * 10)
        d = DistanceMatrix(("a", "b"), np.array([[0., 1.], [1., 0.]]))
        cfg = BayesConfig(bandwidth_upper=100.0, chain_length=9000,
                          burn_in=1000, seed=5, flat_likelihood=True)
        post = run_sampler(data, d, "exponential", cfg)
        stat = kstest(post.b, "uniform", args=(0.0, 100.0))
        assert stat.pvalue > 0.01
        freq = post.gamma.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) <= 0.02)


class TestSamplerContracts:
    def _fit(self, seed=0, **kw):
        rng = np.random.default_rng(100)
        n = 30
        X = rng.normal(size=(n, 3))
        y = X @ np.array([2.0, 0.0, 4.0]) + rng.normal(size=n)
        data = Dataset(y=y, X=X, locations=("a", "b", "c") * 10)
        values = np.array([[0., 1., 2.], [1., 0., 1.], [2., 1., 0.]])
        d = DistanceMatrix(("a", "b", "c"), values)
        cfg = BayesConfig(tau2=0.01, chain_length=1500, burn_in=500,
                          seed=seed, **kw)
        return run_sampler(data, d, "exponential", cfg)

    def test_chain_shapes_and_ranges(self):
        post = self._fit()
        T = post.n_draws
        assert T == 1000
        assert post.beta.shape == (T, 3, 3)
        assert post.sigma2.shape == (T, 3) and np.all(post.sigma2 > 0)
        assert np.isin(post.gamma, (0, 1)).all()
        assert np.all((post.b > 0) & (post.b < 100.0))

    def test_acceptance_rate_in_band(self, china_d):
        # needs a bandwidth posterior with real curvature, so use the full
        # 30-location layout
        rng = np.random.default_rng(200)
        locs = tuple(china_d.labels)
        X = rng.normal(size=(150, 3))
        beta = np.array([2.0, 0.0, 4.0])
        y = X @ beta + rng.normal(size=150)
        data = Dataset(y=y, X=X, locations=tuple(s for s in locs for _ in range(5)))
        cfg = BayesConfig(tau2=0.01, chain_length=2000, burn_in=800, seed=6)
        post = run_sampler(data, china_d, "exponential", cfg)
        assert 0.1 <= post.acceptance_rate_b <= 0.7

    def test_reproducibility_bit_identical(self):
        a, b = self._fit(seed=7), self._fit(seed=7)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.sigma2, b.sigma2)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.b, b.b)

    def test_different_seeds_differ(self):
        a, b = self._fit(seed=1), self._fit(seed=2)
        assert not np.array_equal(a.b, b.b)

    def test_fix_gamma_respected(self):
        post = self._fit(fix_gamma=(1, 0, 1))
        np.testing.assert_array_equal(post.gamma[0], (1, 0, 1))
        assert (post.gamma == post.gamma[0]).all()

    def test_fix_gamma_must_be_binary(self):
        with pytest.raises(ValueError, match="fix_gamma entries must be 0 or 1"):
            self._fit(fix_gamma=(1, -1, 1))

    def test_fix_bandwidth_respected(self):
        post = self._fit(fix_bandwidth=3.5)
        assert np.all(post.b == 3.5)
        assert post.acceptance_rate_b == 0.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            Dataset(y=np.empty(0), X=np.empty((0, 2)), locations=())


class TestHpd:
    def test_constant_chain_is_a_point(self):
        lo, hi = hpd_interval(np.full(50, 3.25))
        assert lo == hi == 3.25

    def test_large_normal_sample(self):
        x = np.random.default_rng(42).standard_normal(100_000)
        lo, hi = hpd_interval(x, mass=0.95)
        assert abs(lo + 1.96) < 0.05 and abs(hi - 1.96) < 0.05

    def test_shortest_window_by_hand(self):
        # ceil(0.8*5)=4 consecutive sorted values; [0..3] is narrower than [1..10]
        lo, hi = hpd_interval([10.0, 1.0, 0.0, 3.0, 2.0], mass=0.8)
        assert (lo, hi) == (0.0, 3.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hpd_interval([])

    def test_along_axis_zero_matches_each_column(self):
        x = np.random.default_rng(5).gamma(2.0, size=(300, 4, 3))
        lo, hi = hpd_interval(x, mass=0.9)
        assert lo.shape == hi.shape == (4, 3)
        for k in range(4):
            for j in range(3):
                assert (lo[k, j], hi[k, j]) == hpd_interval(x[:, k, j], mass=0.9)


class TestSummaryAndSelection:
    def test_threshold_selection(self):
        post = make_posterior((0.99, 0.01, 0.01, 0.99, 0.99))
        assert selected_model(post) == (1, 4, 5)

    def test_exact_half_counts_as_selected(self):
        post = make_posterior((0.5, 0.5, 0.5))
        assert selected_model(post) == (1, 2, 3)

    def test_sixty_percent_selected(self):
        post = make_posterior((0.6,))
        summ = posterior_summary(post)
        assert summ.selected == (1,)
        assert summ.inclusion_freq[0] == pytest.approx(0.6)

    def test_summary_matches_hpd_interval(self):
        rng = np.random.default_rng(3)
        T = 400
        post = make_posterior((1.0,), T=T)
        post.beta = rng.normal(size=(T, 1, 1))
        summ = posterior_summary(post)
        lo, hi = hpd_interval(post.beta[:, 0, 0])
        assert summ.hpd_lower[0, 0] == lo and summ.hpd_upper[0, 0] == hi
        assert summ.beta_mean[0, 0] == pytest.approx(post.beta.mean())
