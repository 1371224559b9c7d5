import numpy as np
import pytest

from bgwr.spatial_graph import UNREACHABLE, DistanceMatrix
from bgwr.weighting import (KERNELS, WeightScheme, kernel_weight,
                            log_kernel_weight, weight_matrix)


def scheme_for(kernel, b=2.0):
    return WeightScheme(kernel, None if kernel == "unity" else b)


class TestSchemeValidation:
    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            WeightScheme("triangular", 1.0)

    def test_missing_bandwidth(self):
        with pytest.raises(ValueError, match="requires a bandwidth"):
            WeightScheme("exponential")

    def test_nonpositive_bandwidth(self):
        for kernel in ("exponential", "gaussian", "bisquare", "graph_exp"):
            for b in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="positive"):
                    WeightScheme(kernel, b)

    def test_step_allows_zero_threshold(self):
        s = WeightScheme("step", 0.0)
        assert kernel_weight(s, 0.0) == 1.0
        assert kernel_weight(s, 1.0) == 0.0

    def test_step_rejects_negative_threshold(self):
        for b in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="nonnegative"):
                WeightScheme("step", b)


class TestKernelWeight:
    def test_point_check_graph_exp(self):
        # six hops under a wide bandwidth retain almost full weight
        w = kernel_weight(WeightScheme("graph_exp", 100.0), 6.0)
        assert abs(w - 0.9418) < 0.0005

    def test_point_check_gaussian(self):
        w = kernel_weight(WeightScheme("gaussian", 9.40), 6.0)
        assert abs(w - 0.665) < 0.001

    def test_zero_distance_gives_one(self):
        for kernel in KERNELS:
            assert kernel_weight(scheme_for(kernel), 0.0) == 1.0

    def test_unreachable_gives_zero(self):
        for kernel in KERNELS:
            assert kernel_weight(scheme_for(kernel), UNREACHABLE) == 0.0

    def test_bisquare_vanishes_at_bandwidth(self):
        assert kernel_weight(WeightScheme("bisquare", 3.0), 3.0) == 0.0
        assert kernel_weight(WeightScheme("bisquare", 3.0), 5.0) == 0.0

    def test_graph_exp_unity_within_one_hop(self):
        for b in (0.1, 1.0, 42.0):
            s = WeightScheme("graph_exp", b)
            assert kernel_weight(s, 0.0) == 1.0
            assert kernel_weight(s, 1.0) == 1.0
            assert kernel_weight(s, 1.5) < 1.0

    def test_nonincreasing_in_distance(self):
        grid = np.linspace(0.0, 10.0, 101)
        for kernel in KERNELS:
            w = kernel_weight(scheme_for(kernel, 3.0), grid)
            assert np.all(np.diff(w) <= 1e-15)
            assert np.all((0.0 <= w) & (w <= 1.0))

    def test_nondecreasing_in_bandwidth(self):
        d = 4.0
        for kernel in ("exponential", "gaussian", "graph_exp"):
            ws = [kernel_weight(WeightScheme(kernel, b), d)
                  for b in np.linspace(0.5, 50.0, 60)]
            assert np.all(np.diff(ws) >= -1e-15)
            assert kernel_weight(WeightScheme(kernel, 1000.0 * d), d) > 0.99

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="negative distance"):
            kernel_weight(WeightScheme("exponential", 1.0), -0.5)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(0.0, 8.0, size=20)
        for kernel in KERNELS:
            s = scheme_for(kernel, 2.5)
            vec = kernel_weight(s, d)
            for i in range(20):
                assert vec[i] == kernel_weight(s, float(d[i]))


class TestLogKernelWeight:
    def test_consistent_with_linear_domain(self):
        rng = np.random.default_rng(8)
        d = rng.uniform(0.0, 8.0, size=50)
        for kernel in KERNELS:
            s = scheme_for(kernel, 2.5)
            w = kernel_weight(s, d)
            lw = log_kernel_weight(s, d)
            np.testing.assert_allclose(np.exp(lw), w, rtol=1e-12, atol=0.0)
            assert np.all(np.isneginf(lw[w == 0.0]))

    def test_survives_exp_underflow(self):
        s = WeightScheme("exponential", 1.0)
        assert kernel_weight(s, 800.0) == 0.0  # underflows in linear domain
        assert log_kernel_weight(s, 800.0) == -800.0

    def test_structural_zeros(self):
        assert np.isneginf(log_kernel_weight(WeightScheme("step", 1.0), 2.0))
        assert np.isneginf(log_kernel_weight(WeightScheme("bisquare", 2.0), 2.0))
        assert np.isneginf(log_kernel_weight(WeightScheme("unity"), UNREACHABLE))


# the log weight at a NaN distance under each kernel: NaN passes through the
# formulas, and a comparison with NaN is false
NAN_LOG_WEIGHT = {"unity": 0.0, "step": -np.inf, "exponential": np.nan,
                  "gaussian": np.nan, "bisquare": -np.inf, "graph_exp": np.nan}


class TestLogKernelWeightEdges:
    """The input checks and the infinite-distance mapping of
    ``log_kernel_weight``, at every kernel."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("b", [0.002, 2.5, 1e300, np.inf])
    def test_infinite_distance_maps_to_neg_inf(self, kernel, b):
        s = scheme_for(kernel, b)
        # at b = inf the formulas meet inf / inf, which numpy warns about
        with np.errstate(invalid="ignore" if b == np.inf else "raise"):
            lw = log_kernel_weight(s, np.array([[0.0, 1.5], [np.inf, 7.0]]))
            assert log_kernel_weight(s, np.inf) == -np.inf
        assert np.isneginf(lw[1, 0])
        assert np.isfinite(lw[0, 0]) and not np.isnan(lw).any()

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_negative_distance_raises(self, kernel):
        s = scheme_for(kernel, 2.5)
        for d in (-0.5, np.array([0.0, 3.0, -1e-300]), np.array([[1.0], [-np.inf]])):
            with pytest.raises(ValueError, match="negative distance"):
                log_kernel_weight(s, d)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_nan_distance_passes_through(self, kernel):
        s = scheme_for(kernel, 2.5)
        lw = log_kernel_weight(s, np.array([np.nan, 0.0]))
        np.testing.assert_array_equal(lw, [NAN_LOG_WEIGHT[kernel], 0.0])
        np.testing.assert_array_equal(log_kernel_weight(s, np.nan), NAN_LOG_WEIGHT[kernel])

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_scalar_input_returns_float(self, kernel):
        s = scheme_for(kernel, 2.5)
        for d in (1.0, 3, np.float64(1.0), np.array(1.0), np.inf):
            assert type(log_kernel_weight(s, d)) is float
        lw = log_kernel_weight(s, np.ones((2, 3)))
        assert isinstance(lw, np.ndarray) and lw.shape == (2, 3)


class TestWeightMatrix:
    def _distance(self):
        values = np.array([[0., 1., 2.], [1., 0., 1.], [2., 1., 0.]])
        return DistanceMatrix(("a", "b", "c"), values)

    def test_unity_all_ones(self):
        d = self._distance()
        w = weight_matrix(WeightScheme("unity"), d, "a", ("a", "b", "c", "b"))
        np.testing.assert_array_equal(w.weights, 1.0)

    def test_colocated_share_weight(self):
        d = self._distance()
        obs = ("a", "a", "b", "b", "c")
        w = weight_matrix(WeightScheme("graph_exp", 100.0), d, "a", obs)
        assert w.weights[0] == w.weights[1] == 1.0
        assert w.weights[2] == w.weights[3]

    def test_matches_scalar_oracle(self):
        d = self._distance()
        obs = ("c", "a", "b", "a")
        for kernel in KERNELS:
            s = scheme_for(kernel, 1.5)
            w = weight_matrix(s, d, "b", obs)
            expect = [kernel_weight(s, d.get("b", o)) for o in obs]
            np.testing.assert_array_equal(w.weights, expect)

    def test_unknown_location_rejected(self):
        d = self._distance()
        with pytest.raises(KeyError):
            weight_matrix(WeightScheme("unity"), d, "z", ("a",))
