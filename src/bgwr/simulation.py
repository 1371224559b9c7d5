"""Simulation designs and evaluation metrics for the GWR samplers.

Three spatial patterns for the true coefficients:

* ``constant``   -- one beta vector shared by all locations;
* ``mds_linear`` -- in-model coefficients shift linearly in the 2-D MDS
  coordinates of the graph-distance matrix: beta_m + 0.2 (x_l + y_l);
* ``regional``   -- a lookup table of per-region beta vectors.

Estimates are scored per coefficient by mean absolute bias (MAB), mean
standard deviation over replicates (MSD), mean of mean squared error (MMSE),
and mean 95% HPD coverage rate (MCR), each computed per location first and
then averaged over locations.  Selection is scored by per-covariate accuracy
(ACC) and exact-support recovery (Model ACC).  The frequentist baseline's
estimates are scored by the same MAB, MSD and MMSE.

A study makes one pass over its replicates: each generates its data, fits
every requested method and, when all of them succeed, adds one row per
method to that method's scores.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .bayes_gwr import posterior_summary, run_sampler
from .freq_gwr import fit_all_locations, select_bandwidth_grid, default_bandwidth_grid
from .spatial_graph import mds_embed
from .suffstats import Dataset
from .weighting import WeightScheme
from . import assessment

BASE_BETAS = {
    1: (2.0, 0.0, 0.0, 4.0, 8.0),
    2: (2.0, 2.0, 0.0, 4.0, 8.0),
    3: (2.0, 2.0, 3.0, 4.0, 8.0),
}

# Region-wise true coefficient vectors for the four-region designs,
# regions coded 0 = west, 1 = northeast, 2 = central, 3 = east.
REGIONAL_BETAS = {
    1: {0: (1.8, 0.0, 0.0, 4.2, 7.0), 1: (1.5, 0.0, 0.0, 3.8, 9.0),
        2: (2.2, 0.0, 0.0, 4.0, 8.5), 3: (2.0, 0.0, 0.0, 4.0, 8.0)},
    2: {0: (1.8, 1.8, 0.0, 4.2, 7.0), 1: (1.5, 1.5, 0.0, 3.8, 9.0),
        2: (2.2, 2.2, 0.0, 4.0, 8.5), 3: (2.0, 2.0, 0.0, 4.0, 8.0)},
    3: {0: (1.8, 1.8, 2.9, 4.2, 7.0), 1: (1.5, 1.5, 3.4, 3.8, 9.0),
        2: (2.2, 2.2, 3.1, 4.0, 8.5), 3: (2.0, 2.0, 3.0, 4.0, 8.0)},
}

PATTERNS = ("constant", "mds_linear", "regional")


@dataclass
class SimulationDesign:
    pattern: str
    base_beta: tuple
    regions: dict = None          # location id -> region code
    region_betas: dict = None     # region code -> beta tuple
    obs_per_location: int = 5
    replicates: int = 20
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if not self.replicates >= 1:
            raise ValueError(f"a study needs at least one replicate, got {self.replicates!r}")
        self.base_beta = tuple(float(v) for v in self.base_beta)
        if self.pattern == "regional" and (self.regions is None or self.region_betas is None):
            raise ValueError("regional pattern requires regions and region_betas")

    @property
    def p(self):
        return len(self.base_beta)


@dataclass
class SimulationReport:
    coefficients: tuple        # covariate names x1..xp
    mab: np.ndarray
    msd: np.ndarray
    mmse: np.ndarray
    mcr: np.ndarray
    acc: np.ndarray
    model_acc: float
    mean_bandwidth: float = None
    mean_p_d: float = None
    mean_dic: float = None
    mean_lpml: float = None
    freq_mab: np.ndarray = None
    freq_msd: np.ndarray = None
    freq_mmse: np.ndarray = None
    freq_effective_params: float = None
    errors: list = field(default_factory=list)
    replicates_done: int = 0

    def scores(self):
        """The scores of the methods the study scored, by name: the
        per-coefficient arrays, then the scalars that are set.  A
        frequentist-only study leaves the Bayesian arrays NaN and
        mean_bandwidth unset, so they are left out."""
        freq = self.freq_mab is not None
        columns, scalars = [], []
        if not freq or self.mean_bandwidth is not None:
            columns += ["mab", "msd", "mmse", "mcr", "acc"]
            scalars += ["model_acc"]
        if freq:
            columns += ["freq_mab", "freq_msd", "freq_mmse"]
        scalars += [name for name in ("mean_bandwidth", "mean_p_d", "mean_dic", "mean_lpml",
                                      "freq_effective_params") if getattr(self, name) is not None]
        return ({name: getattr(self, name) for name in columns},
                {name: getattr(self, name) for name in scalars})


def true_beta(design, locations, embedding=None):
    """(L, p) matrix of true coefficients per location."""
    L = len(locations)
    base = np.array(design.base_beta)
    if design.pattern == "constant":
        return np.tile(base, (L, 1))
    if design.pattern == "mds_linear":
        if embedding is None:
            raise ValueError("mds_linear pattern requires an MDS embedding")
        emb_index = {lab: i for i, lab in enumerate(embedding.labels)}
        out = np.zeros((L, design.p))
        in_model = base != 0
        for k, s in enumerate(locations):
            xc, yc = embedding.coords[emb_index[s]]
            out[k, in_model] = base[in_model] + 0.2 * (xc + yc)
        return out
    out = np.zeros((L, design.p))
    for k, s in enumerate(locations):
        if s not in design.regions:
            raise ValueError(f"location {s!r} has no region assignment")
        region = design.regions[s]
        if region not in design.region_betas:
            raise ValueError(f"region {region!r} has no beta row")
        out[k] = design.region_betas[region]
    return out


def generate_dataset(design, locations, true_betas, replicate_seed):
    """One replicate: X ~ iid N(0,1), y = X beta(location) + N(0, noise_sd^2)."""
    rng = np.random.default_rng(replicate_seed)
    m = design.obs_per_location
    n = m * len(locations)
    X = rng.standard_normal((n, design.p))
    locs = tuple(s for s in locations for _ in range(m))
    beta_rows = np.repeat(np.asarray(true_betas, dtype=float), m, axis=0)
    eps = design.noise_sd * rng.standard_normal(n)
    y = np.einsum("ij,ij->i", X, beta_rows) + eps
    return Dataset(y=y, X=X, locations=locs)


def _accuracy(est, truth):
    """(MAB, MSD, MMSE) per coefficient of (R, L, p) estimates against the
    (L, p) truth, each averaged over locations; MSD is 0 for one replicate."""
    err = est - truth[None]
    mab = np.abs(err).mean(axis=0).mean(axis=0)
    mmse = (err ** 2).mean(axis=0).mean(axis=0)
    msd = est.std(axis=0, ddof=1).mean(axis=0) if len(est) > 1 else np.zeros(est.shape[2])
    return mab, msd, mmse


def metrics(estimates, hpd_lower, hpd_upper, selected, true_betas):
    """Score replicate estimates against the truth.

    estimates/hpd_lower/hpd_upper: (R, L, p); selected: (R, p) booleans;
    true_betas: (L, p).
    """
    est = np.asarray(estimates, dtype=float)
    if est.ndim != 3:
        raise ValueError("estimates must be (replicates, locations, coefficients)")
    R, L, p = est.shape
    truth = np.asarray(true_betas, dtype=float)
    sel = np.asarray(selected, dtype=bool)
    for arr, name in ((hpd_lower, "hpd_lower"), (hpd_upper, "hpd_upper")):
        if np.asarray(arr).shape != (R, L, p):
            raise ValueError(f"{name} shape mismatch: replicate counts must agree")
    if sel.shape != (R, p):
        raise ValueError("selected shape mismatch")

    mab, msd, mmse = _accuracy(est, truth)
    covered = (np.asarray(hpd_lower) <= truth[None]) & (truth[None] <= np.asarray(hpd_upper))
    mcr = covered.mean(axis=0).mean(axis=0)

    in_model = np.any(truth != 0, axis=0)
    acc = np.where(in_model, sel.mean(axis=0), (~sel).mean(axis=0))
    model_acc = float(np.all(sel == in_model[None, :], axis=1).mean())
    names = tuple(f"x{j + 1}" for j in range(p))
    return SimulationReport(coefficients=names, mab=mab, msd=msd, mmse=mmse,
                            mcr=mcr, acc=acc, model_acc=model_acc,
                            replicates_done=R)


def replicate_seed(master_seed, replicate, stream):
    """Named substream: (master seed, replicate index, stream index)."""
    ss = np.random.SeedSequence([int(master_seed), int(replicate), int(stream)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_study(design, d, kernel, cfg, methods=("bayes",), with_assessment=False,
              freq_grid=None):
    """Generate -> fit -> summarize -> score, in one pass over the replicates.

    ``kernel`` is a kernel name and ``methods`` a non-empty subset of
    ("bayes", "freq").  Replicate r draws its data from substream (seed, r, 0)
    and its chain from (seed, r, 1), so the study is deterministic given the
    master seed.  The frequentist baseline selects its bandwidth from
    ``freq_grid``, by default ``default_bandwidth_grid(d)``.
    A replicate whose fit fails in any method is scored by none and recorded
    in the report's ``errors`` list, never silently dropped.
    """
    if not methods or set(methods) - {"bayes", "freq"}:
        raise ValueError(f"methods must be a non-empty subset of ('bayes', 'freq'), "
                         f"got {tuple(methods)!r}")
    locations = tuple(d.labels)
    embedding = mds_embed(d) if design.pattern == "mds_linear" else None
    truth = true_beta(design, locations, embedding)
    p = truth.shape[1]
    if "freq" in methods and freq_grid is None:
        freq_grid = default_bandwidth_grid(d)

    bayes_rows, freq_rows, errors = [], [], []
    for r in range(design.replicates):
        data = generate_dataset(design, locations, truth, replicate_seed(design.seed, r, 0))
        try:
            if "bayes" in methods:
                rcfg = replace(cfg, seed=replicate_seed(design.seed, r, 1))
                post = run_sampler(data, d, kernel, rcfg)
                summ = posterior_summary(post)
                sel = np.zeros(p, dtype=bool)
                sel[[j - 1 for j in summ.selected]] = True
                bayes_row = (summ.beta_mean, summ.hpd_lower, summ.hpd_upper, sel, summ.b_mean)
                if with_assessment:
                    a = assessment.assess(post, data)
                    bayes_row += (a.p_d, a.dic, a.lpml)
                del post  # free the draws before the next replicate samples its own
            if "freq" in methods:
                b_star, _ = select_bandwidth_grid(data, kernel, d, freq_grid)
                fit = fit_all_locations(data, WeightScheme(kernel, b_star), d)
        except Exception as exc:  # surfaced per replicate in the report
            errors.append((r, f"{type(exc).__name__}: {exc}"))
            continue
        if "bayes" in methods:
            bayes_rows.append(bayes_row)
        if "freq" in methods:
            freq_rows.append((fit.beta_hat, fit.effective_params))

    if bayes_rows:
        est, lower, upper, selected, b_means, *assessed = map(np.array, zip(*bayes_rows))
        report = metrics(est, lower, upper, selected, truth)
        report.mean_bandwidth = float(np.mean(b_means))
        if with_assessment:
            report.mean_p_d, report.mean_dic, report.mean_lpml = (float(np.mean(v))
                                                                  for v in assessed)
    else:
        z = np.full(p, np.nan)
        report = SimulationReport(coefficients=tuple(f"x{j + 1}" for j in range(p)), mab=z,
                                  msd=z.copy(), mmse=z.copy(), mcr=z.copy(), acc=z.copy(),
                                  model_acc=float("nan"))
    if freq_rows:
        f_est, f_enp = zip(*freq_rows)
        report.freq_mab, report.freq_msd, report.freq_mmse = _accuracy(np.array(f_est), truth)
        report.freq_effective_params = float(np.mean(f_enp))
    report.errors = errors
    report.replicates_done = design.replicates - len(errors)
    return report
