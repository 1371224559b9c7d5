import numpy as np
import pytest

from bgwr.bayes_gwr import BayesConfig
from bgwr.dataio import china_regions
from bgwr.simulation import (BASE_BETAS, REGIONAL_BETAS, SimulationDesign,
                             generate_dataset, metrics, replicate_seed,
                             run_study, true_beta)
from bgwr.spatial_graph import build_graph, graph_distances, mds_embed


def constant_design(setting=1, **kw):
    return SimulationDesign(pattern="constant", base_beta=BASE_BETAS[setting], **kw)


class TestDesignValidation:
    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            SimulationDesign(pattern="spiral", base_beta=(1.0,))

    def test_regional_requires_tables(self):
        with pytest.raises(ValueError, match="regional"):
            SimulationDesign(pattern="regional", base_beta=(1.0,))

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_needs_a_replicate(self, replicates):
        with pytest.raises(ValueError, match="at least one replicate"):
            constant_design(replicates=replicates)


class TestTrueBeta:
    def test_constant_setting1(self):
        out = true_beta(constant_design(), ("x", "y", "z"))
        assert out.shape == (3, 5)
        np.testing.assert_array_equal(out, np.tile((2, 0, 0, 4, 8), (3, 1)))

    def test_regional_lookup(self, china_d):
        regions = china_regions()
        design = SimulationDesign(pattern="regional", base_beta=BASE_BETAS[1],
                                  regions=regions,
                                  region_betas=REGIONAL_BETAS[1])
        northeast = [s for s, r in regions.items() if r == 1]
        out = true_beta(design, tuple(northeast))
        np.testing.assert_array_equal(out, np.tile((1.5, 0, 0, 3.8, 9.0),
                                                   (len(northeast), 1)))

    def test_missing_region_raises(self):
        design = SimulationDesign(pattern="regional", base_beta=BASE_BETAS[1],
                                  regions={"a": 0},
                                  region_betas=REGIONAL_BETAS[1])
        with pytest.raises(ValueError, match="no region assignment"):
            true_beta(design, ("a", "b"))

    def test_mds_linear_offsets(self, china_d):
        emb = mds_embed(china_d)
        design = SimulationDesign(pattern="mds_linear", base_beta=BASE_BETAS[1])
        out = true_beta(design, tuple(china_d.labels), emb)
        shift = 0.2 * emb.coords.sum(axis=1)
        np.testing.assert_allclose(out[:, 0], 2.0 + shift)
        np.testing.assert_allclose(out[:, 3], 4.0 + shift)
        np.testing.assert_array_equal(out[:, 1], 0.0)  # null covariates stay null
        np.testing.assert_array_equal(out[:, 2], 0.0)

    def test_mds_linear_requires_embedding(self):
        design = SimulationDesign(pattern="mds_linear", base_beta=BASE_BETAS[1])
        with pytest.raises(ValueError, match="embedding"):
            true_beta(design, ("a", "b"))


class TestGenerateDataset:
    def test_shape_and_layout(self, china_d):
        design = constant_design()
        locs = tuple(china_d.labels)
        truth = true_beta(design, locs)
        data = generate_dataset(design, locs, truth, 12345)
        assert data.n == 150 and data.p == 5
        assert data.locations[:5] == (locs[0],) * 5

    def test_noiseless_reproduces_truth(self):
        design = constant_design(noise_sd=0.0)
        truth = true_beta(design, ("a", "b"))
        data = generate_dataset(design, ("a", "b"), truth, 7)
        expect = np.einsum("ij,ij->i", data.X,
                           np.repeat(truth, design.obs_per_location, axis=0))
        np.testing.assert_allclose(data.y, expect, atol=1e-12)

    def test_covariates_standard_normal(self):
        design = constant_design(obs_per_location=50_000)
        truth = true_beta(design, ("a",))
        data = generate_dataset(design, ("a",), truth, 99)
        v = data.X.var(axis=0, ddof=1)
        assert np.all((0.98 < v) & (v < 1.02))
        assert np.all(np.abs(data.X.mean(axis=0)) < 0.02)

    def test_seed_determinism(self):
        design = constant_design()
        truth = true_beta(design, ("a", "b"))
        d1 = generate_dataset(design, ("a", "b"), truth, 3)
        d2 = generate_dataset(design, ("a", "b"), truth, 3)
        np.testing.assert_array_equal(d1.y, d2.y)


class TestMetrics:
    def test_perfect_recovery(self):
        truth = np.array([[2.0, 0.0], [3.0, 0.0]])
        est = np.tile(truth, (4, 1, 1))
        sel = np.tile([True, False], (4, 1))
        rep = metrics(est, est - 0.1, est + 0.1, sel, truth)
        np.testing.assert_array_equal(rep.mab, 0.0)
        np.testing.assert_array_equal(rep.msd, 0.0)
        np.testing.assert_array_equal(rep.mmse, 0.0)
        np.testing.assert_array_equal(rep.mcr, 1.0)
        np.testing.assert_array_equal(rep.acc, 1.0)
        assert rep.model_acc == 1.0

    def test_hand_computed_two_replicates(self):
        delta = 0.3
        truth = np.array([[1.0]])
        est = np.array([[[1.0 + delta]], [[1.0 - delta]]])
        hpd = np.zeros_like(est)
        sel = np.ones((2, 1), dtype=bool)
        rep = metrics(est, hpd, hpd, sel, truth)
        assert rep.mab[0] == pytest.approx(delta)
        assert rep.msd[0] == pytest.approx(delta * np.sqrt(2.0))
        assert rep.mmse[0] == pytest.approx(delta ** 2)

    def test_replicate_permutation_invariance(self):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=(3, 2))
        est = truth + rng.normal(size=(6, 3, 2), scale=0.1)
        lo, hi = est - 0.2, est + 0.2
        sel = rng.random((6, 2)) < 0.7
        rep = metrics(est, lo, hi, sel, truth)
        perm = rng.permutation(6)
        rep2 = metrics(est[perm], lo[perm], hi[perm], sel[perm], truth)
        np.testing.assert_allclose(rep2.mab, rep.mab)
        np.testing.assert_allclose(rep2.msd, rep.msd)
        np.testing.assert_allclose(rep2.mcr, rep.mcr)
        assert rep2.model_acc == rep.model_acc

    def test_model_acc_bounded_by_margins(self):
        rng = np.random.default_rng(1)
        truth = np.array([[2.0, 0.0, 1.0]])
        est = np.zeros((8, 1, 3))
        sel = rng.random((8, 3)) < 0.5
        rep = metrics(est, est, est, sel, truth)
        assert rep.model_acc <= rep.acc.min() + 1e-12

    def test_shape_mismatches_rejected(self):
        truth = np.zeros((2, 1))
        est = np.zeros((3, 2, 1))
        with pytest.raises(ValueError, match="replicate counts"):
            metrics(est, np.zeros((2, 2, 1)), np.zeros((3, 2, 1)),
                    np.zeros((3, 1), dtype=bool), truth)
        with pytest.raises(ValueError, match="selected"):
            metrics(est, est, est, np.zeros((2, 1), dtype=bool), truth)


class TestSeeds:
    def test_substreams_distinct_and_stable(self):
        a = replicate_seed(7, 0, 0)
        assert a == replicate_seed(7, 0, 0)
        assert a != replicate_seed(7, 0, 1)
        assert a != replicate_seed(7, 1, 0)
        assert a != replicate_seed(8, 0, 0)


class TestRunStudy:
    def tiny_setup(self):
        g = build_graph("ABC", [("A", "B"), ("B", "C")])
        d = graph_distances(g)
        design = SimulationDesign(pattern="constant", base_beta=(2.0, 0.0),
                                  obs_per_location=6, replicates=1, seed=1)
        cfg = BayesConfig(tau2=0.01, chain_length=400, burn_in=100,
                          bandwidth_upper=10.0)
        return design, d, cfg

    def test_single_replicate_smoke(self):
        design, d, cfg = self.tiny_setup()
        rep = run_study(design, d, "exponential", cfg)
        assert rep.replicates_done == 1 and not rep.errors
        assert set(np.unique(rep.mcr)) <= {0.0, 1.0} or np.all((0 <= rep.mcr) & (rep.mcr <= 1))
        assert rep.coefficients == ("x1", "x2")
        assert rep.mean_bandwidth > 0

    def test_freq_method_reported(self):
        design, d, cfg = self.tiny_setup()
        rep = run_study(design, d, "exponential", cfg, methods=("bayes", "freq"),
                        freq_grid=[1.0, 3.0])
        assert rep.freq_mab is not None and rep.freq_effective_params > 0

    @pytest.mark.parametrize("methods", [(), ("baye",), ("bayes", "gwr")])
    def test_rejects_unknown_or_no_methods(self, methods):
        design, d, cfg = self.tiny_setup()
        with pytest.raises(ValueError, match="non-empty subset"):
            run_study(design, d, "exponential", cfg, methods=methods)

    def test_failed_replicates_recorded(self):
        _, d, cfg = self.tiny_setup()
        # one observation per location under a purely local step kernel:
        # every weighted system is underdetermined
        bad = SimulationDesign(pattern="constant", base_beta=(2.0, 0.0),
                               obs_per_location=1, replicates=2, seed=1)
        rep = run_study(bad, d, "step", cfg, methods=("freq",),
                        freq_grid=[0.5])
        assert rep.replicates_done == 0
        assert len(rep.errors) == 2
        assert all("SingularSystemError" in msg for _, msg in rep.errors)
