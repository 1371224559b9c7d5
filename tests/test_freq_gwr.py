import numpy as np
import pytest

from bgwr.bayes_gwr import BayesConfig, run_sampler
from bgwr.freq_gwr import (RCOND_MIN, SingularSystemError,
                           default_bandwidth_grid, effective_params_freq,
                           fit_all_locations, select_bandwidth_grid, wls_fit)
from bgwr.spatial_graph import DistanceMatrix, build_graph, graph_distances
from bgwr.suffstats import Dataset
from bgwr.weighting import KERNELS, WeightMatrix, WeightScheme, kernel_weight, weight_matrix


def two_location_distance():
    return DistanceMatrix(("a", "b"), np.array([[0., 2.], [2., 0.]]))


def random_dataset(rng, n=12, p=3, locations=("a", "b")):
    X = rng.normal(size=(n, p))
    y = rng.normal(size=n)
    locs = tuple(locations[i % len(locations)] for i in range(n))
    return Dataset(y=y, X=X, locations=locs)


class TestDatasetValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            Dataset(y=np.empty(0), X=np.empty((0, 2)), locations=())

    def test_more_covariates_than_rows_rejected(self):
        with pytest.raises(ValueError, match="at least as many"):
            Dataset(y=np.zeros(2), X=np.zeros((2, 3)), locations=("a", "a"))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(y=np.array([1.0, np.inf]), X=np.ones((2, 1)),
                    locations=("a", "b"))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="agree in length"):
            Dataset(y=np.zeros(3), X=np.zeros((3, 1)), locations=("a", "b"))

    def test_unique_locations_order(self):
        ds = Dataset(y=np.zeros(4), X=np.ones((4, 1)),
                     locations=("b", "a", "b", "c"))
        assert ds.unique_locations() == ("b", "a", "c")


class TestWlsFit:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            p = int(rng.integers(1, min(n, 5) + 1))
            data = Dataset(y=rng.normal(size=n), X=rng.normal(size=(n, p)),
                           locations=("a",) * n)
            wt = rng.uniform(0.05, 1.0, size=n)
            beta = wls_fit(data, WeightMatrix("a", wt))
            W = np.diag(wt)
            ref = np.linalg.solve(data.X.T @ W @ data.X, data.X.T @ W @ data.y)
            np.testing.assert_allclose(beta, ref, atol=1e-10)

    def test_identity_weights_equal_ols(self):
        rng = np.random.default_rng(1)
        data = random_dataset(rng)
        beta = wls_fit(data, WeightMatrix("a", np.ones(data.n)))
        ref, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        np.testing.assert_allclose(beta, ref, atol=1e-10)

    def test_interpolation_zero_residuals(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        truth = np.array([1.5, -2.0, 0.25])
        data = Dataset(y=X @ truth, X=X, locations=("a",) * 10)
        wt = rng.uniform(0.1, 1.0, size=10)
        beta = wls_fit(data, WeightMatrix("a", wt))
        np.testing.assert_allclose(data.y - X @ beta, 0.0, atol=1e-9)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng)
        wt = rng.uniform(0.1, 1.0, size=data.n)
        base = wls_fit(data, WeightMatrix("a", wt))
        for c in (0.5, 2.0, 10.0):
            scaled = wls_fit(data, WeightMatrix("a", c * wt))
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng)
        wt = rng.uniform(0.1, 1.0, size=data.n)
        beta = wls_fit(data, WeightMatrix("a", wt))
        grad = data.X.T @ (wt * (data.y - data.X @ beta))
        assert np.max(np.abs(grad)) < 1e-8

    def test_singular_names_location(self):
        X = np.ones((5, 2))  # duplicated column
        data = Dataset(y=np.zeros(5), X=X, locations=("west",) * 5)
        with pytest.raises(SingularSystemError, match="west"):
            wls_fit(data, WeightMatrix("west", np.ones(5)))

    def test_too_few_positive_weight_rows(self):
        rng = np.random.default_rng(5)
        data = Dataset(y=rng.normal(size=4), X=rng.normal(size=(4, 3)),
                       locations=("a",) * 4)
        wt = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(SingularSystemError):
            wls_fit(data, WeightMatrix("a", wt))


class TestFitAllLocations:
    def test_single_location_unity_is_ols(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, locations=("a",))
        d = DistanceMatrix(("a",), np.zeros((1, 1)))
        fit = fit_all_locations(data, WeightScheme("unity"), d)
        ref, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        np.testing.assert_allclose(fit.beta_hat[0], ref, atol=1e-10)
        resid = data.y - data.X @ ref
        assert abs(fit.sse - resid @ resid) < 1e-10

    def test_disjoint_step_fits_are_local_ols(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, n=12, p=2)
        fit = fit_all_locations(data, WeightScheme("step", 0.5),
                                two_location_distance())
        loc_arr = np.array(data.locations)
        for k, s in enumerate(fit.locations):
            rows = loc_arr == s
            ref, *_ = np.linalg.lstsq(data.X[rows], data.y[rows], rcond=None)
            np.testing.assert_allclose(fit.beta_hat[k], ref, atol=1e-10)

    def test_sse_sums_own_location_residuals(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng)
        fit = fit_all_locations(data, WeightScheme("exponential", 3.0),
                                two_location_distance())
        loc_arr = np.array(data.locations)
        total = 0.0
        for k, s in enumerate(fit.locations):
            rows = loc_arr == s
            r = data.y[rows] - data.X[rows] @ fit.beta_hat[k]
            total += r @ r
        assert abs(fit.sse - total) < 1e-10


class TestBandwidthGrid:
    def test_singleton_grid(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng)
        b, table = select_bandwidth_grid(data, "exponential", two_location_distance(), [2.5])
        assert b == 2.5 and len(table) == 1

    def test_table_matches_independent_fits(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng)
        d = two_location_distance()
        grid = [0.5, 2.0, 8.0]
        _, table = select_bandwidth_grid(data, "exponential", d, grid)
        for b, sse in table:
            ref = fit_all_locations(data, WeightScheme("exponential", b), d).sse
            assert sse == ref

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_weight_scheme_rejected_as_kernel(self, kernel, china_d):
        # the kernel argument is a name; a scheme's bandwidth would be ignored
        rng = np.random.default_rng(14)
        data = random_dataset(rng, n=90, locations=china_d.labels)
        scheme = WeightScheme(kernel, None if kernel == "unity" else 1.0)
        grid = default_bandwidth_grid(china_d, num=8)
        with pytest.raises(ValueError, match="unknown kernel"):
            select_bandwidth_grid(data, scheme, china_d, grid)
        with pytest.raises(ValueError, match="unknown kernel"):
            run_sampler(data, china_d, scheme, BayesConfig(chain_length=2, burn_in=1))

    def test_tie_breaks_toward_smaller(self):
        # step thresholds inside the same distance gap give identical weights,
        # hence exactly tied SSE
        rng = np.random.default_rng(11)
        data = random_dataset(rng)
        b, table = select_bandwidth_grid(data, "step", two_location_distance(),
                                         [1.7, 0.5, 1.2])
        sses = [sse for _, sse in table]
        assert sses[0] == sses[1] == sses[2]
        assert b == 0.5

    def test_empty_and_invalid_grids(self):
        rng = np.random.default_rng(12)
        data = random_dataset(rng)
        with pytest.raises(ValueError, match="empty"):
            select_bandwidth_grid(data, "exponential", two_location_distance(), [])
        with pytest.raises(ValueError, match="positive"):
            select_bandwidth_grid(data, "exponential", two_location_distance(), [-1.0, 2.0])

    def test_all_singular_raises(self):
        X = np.ones((6, 2))
        data = Dataset(y=np.zeros(6), X=X, locations=("a", "b") * 3)
        with pytest.raises(SingularSystemError):
            select_bandwidth_grid(data, "exponential", two_location_distance(), [1.0, 2.0])

    def test_default_grid_span(self, china_d):
        grid = default_bandwidth_grid(china_d)
        assert len(grid) == 40
        assert abs(grid[0] - 0.6) < 1e-12
        assert abs(grid[-1] - 60.0) < 1e-12


class TestEffectiveParams:
    def test_unity_single_location_equals_p(self):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, n=10, p=4, locations=("a",))
        d = DistanceMatrix(("a",), np.zeros((1, 1)))
        enp = effective_params_freq(data, WeightScheme("unity"), d)
        assert abs(enp - 4.0) < 1e-10

    def test_isolating_step_approaches_l_times_p(self):
        rng = np.random.default_rng(14)
        data = random_dataset(rng, n=12, p=2)
        enp = effective_params_freq(data, WeightScheme("step", 0.5),
                                    two_location_distance())
        assert abs(enp - 2 * 2) < 1e-10

    def test_between_p_and_lp_for_intermediate_bandwidth(self):
        rng = np.random.default_rng(15)
        data = random_dataset(rng, n=16, p=2)
        enp = effective_params_freq(data, WeightScheme("exponential", 2.0),
                                    two_location_distance())
        assert 2.0 < enp < 4.0


# ---- the batched fit against a per-location oracle --------------------------

def path_with_island():
    """Path a-b-c-d plus an isolated e: distances 0..3 and unreachable pairs."""
    return graph_distances(build_graph("abcde", [("a", "b"), ("b", "c"), ("c", "d")]))


def per_location_oracle(data, scheme, d):
    """One normal-equations solve per location from its weight_matrix rows.

    Returns (beta, sse, trace of the hat matrix); raises SingularSystemError
    at the first location, in unique_locations() order, with fewer than p
    positive-weight rows or rcond below RCOND_MIN judged by an SVD of
    sqrt(W)X.
    """
    locs = data.unique_locations()
    loc_arr = np.array(data.locations)
    beta = np.empty((len(locs), data.p))
    sse = trace = 0.0
    for k, s in enumerate(locs):
        wt = weight_matrix(scheme, d, s, data.locations).weights
        pos = wt > 0
        if pos.sum() < data.p:
            raise SingularSystemError(s)
        sv = np.linalg.svd(data.X[pos] * np.sqrt(wt[pos])[:, None], compute_uv=False)
        if (sv[-1] / sv[0]) ** 2 < RCOND_MIN:
            raise SingularSystemError(s)
        XtW = data.X.T * wt
        M = XtW @ data.X
        beta[k] = np.linalg.solve(M, XtW @ data.y)
        own = loc_arr == s
        resid = data.y[own] - data.X[own] @ beta[k]
        sse += resid @ resid
        # hat-matrix diagonal at own row i: w_i x_i' M^-1 x_i
        Xo = data.X[own]
        trace += np.sum(wt[own] * np.einsum("ij,ji->i", Xo, np.linalg.solve(M, Xo.T)))
    return beta, sse, trace


# (scheme, whether some finite distance gets weight 0 through exp underflow,
# d/b > 745, rather than through a cutoff)
ORACLE_SCHEMES = [
    (WeightScheme("unity"), False),
    (WeightScheme("step", 1.0), False),
    (WeightScheme("exponential", 2.0), False),
    (WeightScheme("exponential", 0.002), True),
    (WeightScheme("gaussian", 0.05), True),
    (WeightScheme("bisquare", 2.5), False),
    (WeightScheme("graph_exp", 0.002), True),
]


@pytest.mark.parametrize("scheme,underflows", ORACLE_SCHEMES,
                         ids=[f"{s.kernel}-{s.bandwidth}" for s, _ in ORACLE_SCHEMES])
def test_batched_fit_matches_per_location_oracle(scheme, underflows):
    rng = np.random.default_rng(20)
    d = path_with_island()
    data = random_dataset(rng, n=25, p=3, locations="abcde")
    K = kernel_weight(scheme, d.values)
    assert (K[np.isinf(d.values)] == 0).all()
    if underflows:
        assert ((K == 0) & np.isfinite(d.values)).any()
    beta, sse, trace = per_location_oracle(data, scheme, d)
    fit = fit_all_locations(data, scheme, d)
    assert fit.locations == data.unique_locations()
    np.testing.assert_allclose(fit.beta_hat, beta, rtol=0, atol=1e-10)
    assert abs(fit.sse - sse) < 1e-10
    assert abs(fit.effective_params - trace) < 1e-10
    assert abs(effective_params_freq(data, scheme, d) - trace) < 1e-10


def names_singular(fn, *args):
    with pytest.raises(SingularSystemError) as err:
        fn(*args)
    return err.value.location


@pytest.mark.parametrize("scheme", [WeightScheme("step", 0.5),
                                    WeightScheme("exponential", 0.001)],
                         ids=["step", "exponential-underflow"])
def test_singular_location_named_as_by_oracle(scheme):
    # rows cycle through c, b, e, d, a, so unique_locations() is (c, b, e, d, a);
    # under these kernels each location sees only its own rows
    rng = np.random.default_rng(21)
    d = path_with_island()
    locs = tuple("cbeda"[i % 5] for i in range(20))
    X = rng.normal(size=(20, 2))
    loc_arr = np.array(locs)
    X[loc_arr == "a", 1] = 2.0 * X[loc_arr == "a", 0]   # rank one at a
    X[loc_arr == "d", 1] = -X[loc_arr == "d", 0]        # rank one at d
    data = Dataset(y=rng.normal(size=20), X=X, locations=locs)
    assert names_singular(per_location_oracle, data, scheme, d) == "d"
    assert names_singular(fit_all_locations, data, scheme, d) == "d"
    assert names_singular(effective_params_freq, data, scheme, d) == "d"
    # a wide bandwidth lets a and d borrow their neighbours' rows
    best, table = select_bandwidth_grid(data, scheme.kernel, d, [scheme.bandwidth, 5.0])
    assert np.isnan(table[0][1]) and np.isfinite(table[1][1]) and best == 5.0


def test_too_few_positive_weight_rows_named():
    # b has two rows, fewer than p = 3, and step(0.5) isolates every location
    rng = np.random.default_rng(22)
    d = path_with_island()
    locs = ("a",) * 4 + ("b",) * 2 + ("c",) * 4
    data = Dataset(y=rng.normal(size=10), X=rng.normal(size=(10, 3)), locations=locs)
    with pytest.raises(SingularSystemError) as err:
        fit_all_locations(data, WeightScheme("step", 0.5), d)
    assert err.value.location == "b" and err.value.rcond is None
    # under step(1.5) b borrows a's and c's rows and is no longer short
    fit_all_locations(data, WeightScheme("step", 1.5), d)


def conditioned_design(rng, n, p, rcond):
    """Weights w and X with rcond(X'WX) = rcond: sqrt(W)X = U diag(s) V'."""
    U, _ = np.linalg.qr(rng.normal(size=(n, p)))
    V, _ = np.linalg.qr(rng.normal(size=(p, p)))
    s = np.ones(p)
    s[-1] = np.sqrt(rcond)
    w = rng.uniform(0.2, 1.0, size=n)
    return w, (U * s) @ V.T / np.sqrt(w)[:, None]


@pytest.mark.parametrize("rcond,singular", [(1e-13, True), (1e-11, False)])
def test_singularity_rule_near_threshold(rcond, singular):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w, X = conditioned_design(rng, 12, 3, rcond)
        sv = np.linalg.svd(X * np.sqrt(w)[:, None], compute_uv=False)
        assert ((sv[-1] / sv[0]) ** 2 < RCOND_MIN) == singular
        data = Dataset(y=rng.normal(size=12), X=X, locations=("a",) * 12)
        # the same system with sqrt(W) folded into X, for the all-locations
        # fit at one location under unity weights
        folded = Dataset(y=data.y * np.sqrt(w), X=X * np.sqrt(w)[:, None],
                         locations=data.locations)
        unit = DistanceMatrix(("a",), np.zeros((1, 1)))
        if singular:
            with pytest.raises(SingularSystemError):
                wls_fit(data, WeightMatrix("a", w))
            with pytest.raises(SingularSystemError):
                fit_all_locations(folded, WeightScheme("unity"), unit)
        else:
            beta = wls_fit(data, WeightMatrix("a", w))
            ref, *_ = np.linalg.lstsq(X * np.sqrt(w)[:, None], data.y * np.sqrt(w),
                                      rcond=None)
            # normal equations lose up to cond(X'WX) * eps = 2e-5 relative
            assert np.max(np.abs(beta - ref)) <= 1e-3 * np.max(np.abs(ref))
            fit = fit_all_locations(folded, WeightScheme("unity"), unit)
            assert np.max(np.abs(fit.beta_hat[0] - ref)) <= 1e-3 * np.max(np.abs(ref))
