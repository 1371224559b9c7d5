"""The benchmark's workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
closed-loop operation per ``op`` call: one caller, and each operation starts
when the previous one returns.  ``check`` returns the failed correctness
checks of an operation's outputs and ``digest`` hashes them, so repeated
operations on the same seed can be compared byte for byte.

``timed_ops`` is the number of untraced operations whose times a run
reports, sized so that a two-core machine slowed by other tenants still
finishes them within a 30 s run.

``phases`` maps each end-to-end phase metric to the span names whose
durations it sums.  ``phase_bindings`` are the few library boundaries a
phase needs when the benchmark itself cannot time it; they are wrapped in
untraced runs too, at a cost of one span per replicate.
"""

import hashlib
import os
import shutil
from dataclasses import replace

import numpy as np

from bgwr import assessment, bayes_gwr, cli, dataio, freq_gwr, simulation, spatial_graph
from bgwr.bayes_gwr import BayesConfig
from bgwr.simulation import BASE_BETAS, SimulationDesign
from bgwr.weighting import WeightScheme

KERNEL = "exponential"

# criterion-6 chain settings (constant pattern, setting 1)
STUDY_CFG = BayesConfig(tau2=0.01, c2=1e4, chain_length=4000, burn_in=1000)


def _finite(*values):
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def _hash_arrays(*values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(np.asarray(v, dtype=float)).tobytes())
    return h.hexdigest()


class ChinaStudy:
    """Criterion-6 study on the packaged China graph, plus the frequentist
    baseline study on the same replicates (timed apart, as freq_s)."""

    name = "china-study"
    timed_ops = 5
    replicates = 2
    phases = {"study_s": ("e2e.study",),
              "fit_s": ("bayes_gwr.run_sampler", "bayes_gwr.posterior_summary"),
              "assess_s": ("assessment.assess",),
              "freq_s": ("e2e.freq",)}
    phase_bindings = [("bgwr.simulation", "run_sampler", "bayes_gwr.run_sampler", None),
                      ("bgwr.simulation", "posterior_summary",
                       "bayes_gwr.posterior_summary", None),
                      ("bgwr.assessment", "assess", "assessment.assess", None)]

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.d = spatial_graph.graph_distances(dataio.china_graph())

    def op(self, clock):
        design = SimulationDesign(pattern="constant", base_beta=BASE_BETAS[1],
                                  replicates=self.replicates, seed=self.seed)
        with clock.span("e2e.study"):
            bayes = simulation.run_study(design, self.d, KERNEL, STUDY_CFG,
                                         methods=("bayes",), with_assessment=True)
        with clock.span("e2e.freq"):
            freq = simulation.run_study(design, self.d, KERNEL, STUDY_CFG,
                                        methods=("freq",))
        return bayes, freq

    def check(self, out):
        bayes, freq = out
        failures = []
        for label, rep in (("bayes", bayes), ("freq", freq)):
            if rep.errors:
                failures.append(f"{label} study replicate errors: {rep.errors}")
        if not _finite(bayes.mab, bayes.mmse, bayes.mean_lpml, bayes.mean_dic):
            failures.append("non-finite MAB, MMSE, DIC or LPML")
        if not _finite(freq.freq_mab, freq.freq_mmse, freq.freq_effective_params):
            failures.append("non-finite frequentist MAB or MMSE")
        return failures

    def digest(self, out):
        bayes, freq = out
        return _hash_arrays(bayes.mab, bayes.msd, bayes.mmse, bayes.mcr, bayes.acc,
                            bayes.model_acc, bayes.mean_bandwidth, bayes.mean_p_d,
                            bayes.mean_dic, bayes.mean_lpml, freq.freq_mab,
                            freq.freq_msd, freq.freq_mmse, freq.freq_effective_params)


class ChinaCli:
    """One user fitting one 150-row dataset through ``bgwr.cli.main``."""

    name = "china-cli"
    timed_ops = 6
    chain, burn_in = 4000, 1000
    phases = {"study_s": ("e2e.study",), "fit_s": ("e2e.fit",),
              "assess_s": ("e2e.assess",), "freq_s": ("e2e.freq",)}
    phase_bindings = []

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.csv = os.path.join(workdir, "data.csv")
        self.outdirs = {k: os.path.join(workdir, k) for k in ("fit", "assess", "freq")}
        self.chains = os.path.join(self.outdirs["fit"], "chains.csv")

    def setup(self):
        d = spatial_graph.graph_distances(dataio.china_graph())
        design = SimulationDesign(pattern="mds_linear", base_beta=BASE_BETAS[1],
                                  replicates=1, seed=self.seed)
        truth = simulation.true_beta(design, d.labels, spatial_graph.mds_embed(d))
        data = simulation.generate_dataset(design, d.labels, truth,
                                           simulation.replicate_seed(self.seed, 0, 0))
        dataio.write_dataset(self.csv, data)
        self.n_locations = len(d.labels)

    def op(self, clock):
        for path in self.outdirs.values():
            shutil.rmtree(path, ignore_errors=True)
        common = ["--data", self.csv, "--kernel", KERNEL]
        with clock.span("e2e.study"):
            with clock.span("e2e.fit"):
                rc_fit = cli.main(["fit", *common, "--seed", str(self.seed),
                                   "--chain", str(self.chain), "--burnin", str(self.burn_in),
                                   "--dump-chains", "--out", self.outdirs["fit"]])
            with clock.span("e2e.assess"):
                rc_assess = cli.main(["assess", *common, "--chains", self.chains,
                                      "--out", self.outdirs["assess"]])
            with clock.span("e2e.freq"):
                rc_freq = cli.main(["fit", *common, "--method", "freq",
                                    "--out", self.outdirs["freq"]])
        return {"fit": rc_fit, "assess": rc_assess, "freq": rc_freq}

    def check(self, codes):
        failures = [f"bgwr {k} exited {rc}" for k, rc in codes.items() if rc != 0]
        if failures:
            return failures
        with open(self.chains) as fh:
            rows = sum(1 for _ in fh) - 1
        want = (self.chain - self.burn_in) * self.n_locations
        if rows != want:
            failures.append(f"chains.csv has {rows} data rows, expected {want}")
        assess_dir = self.outdirs["assess"]
        values = dataio.load_config(os.path.join(assess_dir, "assessment.csv"))
        if not _finite([float(v) for v in values.values()]):
            failures.append(f"non-finite assessment: {values}")
        cpo = np.loadtxt(os.path.join(assess_dir, "cpo.csv"), delimiter=",", skiprows=1)
        if not _finite(cpo):
            failures.append("non-finite CPO")
        coef = np.loadtxt(os.path.join(self.outdirs["freq"], "coefficients.csv"),
                          delimiter=",", skiprows=1,
                          usecols=range(1, 1 + len(BASE_BETAS[1])))
        if not _finite(coef):
            failures.append("non-finite frequentist coefficients")
        return failures

    def digest(self, codes):
        h = hashlib.sha256()
        for key in sorted(self.outdirs):
            for name in sorted(os.listdir(self.outdirs[key])):
                h.update(f"{key}/{name}\0".encode())
                with open(os.path.join(self.outdirs[key], name), "rb") as fh:
                    h.update(fh.read())
        return h.hexdigest()


class LatticeFit:
    """A k x k lattice built in the benchmark, large enough (L=256, n=1280)
    that array work outweighs the interpreter.  k=16 rather than 20 keeps
    peak RSS near 260 MB (530 MB at k=20, where the DIC holds a 256 MB
    T x L x L tensor) and an operation near 3 s instead of 11 s."""

    name = "lattice-fit"
    timed_ops = 7
    k = 16
    bandwidth = 4.0
    cfg = BayesConfig(tau2=0.01, c2=1e4, chain_length=250, burn_in=50)
    phases = {"study_s": ("e2e.study",), "fit_s": ("e2e.fit",),
              "assess_s": ("e2e.assess",), "freq_s": ("e2e.freq",)}
    phase_bindings = []

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        k = self.k
        labels = [f"r{i}c{j}" for i in range(k) for j in range(k)]
        edges = ([(f"r{i}c{j}", f"r{i}c{j + 1}") for i in range(k) for j in range(k - 1)]
                 + [(f"r{i}c{j}", f"r{i + 1}c{j}") for i in range(k - 1) for j in range(k)])
        self.d = spatial_graph.graph_distances(spatial_graph.build_graph(labels, edges))
        design = SimulationDesign(pattern="constant", base_beta=BASE_BETAS[1],
                                  replicates=1, seed=self.seed)
        truth = simulation.true_beta(design, labels)
        self.data = simulation.generate_dataset(design, labels, truth,
                                                simulation.replicate_seed(self.seed, 0, 0))
        self.run_cfg = replace(self.cfg, seed=simulation.replicate_seed(self.seed, 0, 1))

    def op(self, clock):
        with clock.span("e2e.study"):
            with clock.span("e2e.fit"):
                post = bayes_gwr.run_sampler(self.data, self.d, KERNEL, self.run_cfg)
                summ = bayes_gwr.posterior_summary(post)
            with clock.span("e2e.assess"):
                a = assessment.assess(post, self.data)
            with clock.span("e2e.freq"):
                fit = freq_gwr.fit_all_locations(
                    self.data, WeightScheme(KERNEL, self.bandwidth), self.d)
        return summ, a, fit

    def check(self, out):
        summ, a, fit = out
        failures = []
        if not _finite(summ.beta_mean, summ.sigma2_mean, summ.hpd_lower, summ.hpd_upper,
                       summ.b_mean, a.dic, a.p_d, a.lpml, a.cpo, fit.beta_hat, fit.sse,
                       fit.effective_params):
            failures.append("non-finite output")
        # independent normal-equations solve at three seeded locations
        index = {s: i for i, s in enumerate(self.d.labels)}
        obs = np.array([index[s] for s in self.data.locations])
        rng = np.random.default_rng(self.seed)
        X, y = self.data.X, self.data.y
        for k in rng.choice(len(fit.locations), size=3, replace=False):
            w = np.exp(-self.d.values[index[fit.locations[k]], obs] / self.bandwidth)
            XtW = X.T * w
            ref = np.linalg.solve(XtW @ X, XtW @ y)
            err = float(np.max(np.abs(ref - fit.beta_hat[k])))
            if not err <= 1e-8:
                failures.append(f"WLS at {fit.locations[k]} off by {err:.3e}")
        return failures

    def digest(self, out):
        summ, a, fit = out
        return _hash_arrays(summ.beta_mean, summ.sigma2_mean, summ.hpd_lower,
                            summ.hpd_upper, summ.inclusion_freq, summ.b_mean,
                            a.dic, a.p_d, a.lpml, a.cpo, fit.beta_hat, fit.sse,
                            fit.effective_params)


WORKLOADS = {w.name: w for w in (ChinaStudy, ChinaCli, LatticeFit)}
