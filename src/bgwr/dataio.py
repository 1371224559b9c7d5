"""Data ingestion and result serialization.

File formats:

* adjacency: plain text with ``# vertices`` / ``# edges`` / ``# patches``
  sections; one vertex id per line, one ``idA,idB`` pair per line.  The
  vertex order defines distance-matrix label order.
* dataset: CSV with header ``location,y,x1,...,xp`` and a numeric body.
* config: flat ``key = value`` lines, ``#`` comments, mirroring CLI flags.

Floats are serialized with 17 significant digits so a written value
round-trips exactly.
"""

import importlib.resources
import math

import numpy as np

from .freq_gwr import Dataset
from .spatial_graph import build_graph

FLOAT_FMT = ".17g"


def fmt(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, FLOAT_FMT)
    return str(x)


def load_adjacency(path):
    """Parse a sectioned adjacency file into a SpatialGraph."""
    vertices, edges, patches = [], [], []
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                low = line.lower()
                if "vertices" in low:
                    section = "vertices"
                elif "edges" in low:
                    section = "edges"
                elif "patches" in low:
                    section = "patches"
                continue
            if section == "vertices":
                if "," in line:
                    raise ValueError(f"{path}:{lineno}: vertex id must not contain a comma")
                vertices.append(line)
            elif section in ("edges", "patches"):
                parts = [c.strip() for c in line.split(",")]
                if len(parts) != 2:
                    raise ValueError(f"{path}:{lineno}: expected 'idA,idB'")
                (edges if section == "edges" else patches).append(tuple(parts))
            else:
                raise ValueError(f"{path}:{lineno}: content before a section header")
    return build_graph(vertices, edges, patches)


def china_graph():
    """The packaged 30-province adjacency with the Hainan-Guangdong patch."""
    ref = importlib.resources.files("bgwr") / "data" / "china_adjacency.txt"
    with importlib.resources.as_file(ref) as path:
        return load_adjacency(path)


def china_regions():
    """Packaged location -> economic-region (0..3) map."""
    ref = importlib.resources.files("bgwr") / "data" / "china_regions.csv"
    out = {}
    for line in ref.read_text().splitlines()[1:]:
        if not line.strip():
            continue
        loc, region = line.split(",")
        out[loc] = int(region)
    return out


def parse_dataset(path, standardize=False, log_response=False):
    """Read a ``location,y,x1..xp`` CSV into a Dataset.

    ``standardize`` centers and scales each covariate column to unit sample
    standard deviation; ``log_response`` replaces y by log(y).
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) < 3 or header[0] != "location" or header[1] != "y":
            raise ValueError(f"{path}: header must be 'location,y,x1,...,xp'")
        p = len(header) - 2
        locations, y, X = [], [], []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != p + 2:
                raise ValueError(f"{path}:{lineno}: expected {p + 2} fields, got {len(cells)}")
            locations.append(cells[0])
            try:
                y.append(float(cells[1]))
                X.append([float(c) for c in cells[2:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from None
    if not locations:
        raise ValueError(f"{path}: empty dataset")
    y = np.array(y)
    X = np.array(X)
    if log_response:
        if np.any(y <= 0):
            raise ValueError("log_response requires strictly positive responses")
        y = np.log(y)
    if standardize:
        sd = X.std(axis=0, ddof=1)
        if np.any(sd == 0):
            raise ValueError("cannot standardize a constant covariate column")
        X = (X - X.mean(axis=0)) / sd
    return Dataset(y=y, X=X, locations=locations)


def write_dataset(path, data):
    p = data.p
    with open(path, "w") as fh:
        fh.write("location,y," + ",".join(f"x{j + 1}" for j in range(p)) + "\n")
        for i in range(data.n):
            row = [data.locations[i], fmt(float(data.y[i]))]
            row += [fmt(float(v)) for v in data.X[i]]
            fh.write(",".join(row) + "\n")


def write_posterior_summary(path, summary):
    p = summary.beta_mean.shape[1]
    cols = ["location", "sigma2_mean"]
    for j in range(p):
        cols += [f"beta_{j + 1}_mean", f"beta_{j + 1}_hpd_lower", f"beta_{j + 1}_hpd_upper"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k, s in enumerate(summary.locations):
            row = [s, fmt(float(summary.sigma2_mean[k]))]
            for j in range(p):
                row += [fmt(float(summary.beta_mean[k, j])),
                        fmt(float(summary.hpd_lower[k, j])),
                        fmt(float(summary.hpd_upper[k, j]))]
            fh.write(",".join(row) + "\n")


def write_gamma_table(path, summary):
    with open(path, "w") as fh:
        fh.write("covariate,inclusion_frequency,selected\n")
        for j, freq in enumerate(summary.inclusion_freq):
            sel = 1 if (j + 1) in summary.selected else 0
            fh.write(f"x{j + 1},{fmt(float(freq))},{sel}\n")


def write_b_trace(path, post):
    with open(path, "w") as fh:
        fh.write("draw,b\n")
        for t, b in enumerate(post.b):
            fh.write(f"{t},{fmt(float(b))}\n")


def write_chains(path, post):
    """Columnar chain dump: one row per (draw, location)."""
    p = post.beta.shape[2]
    cols = (["draw", "location", "b", "sigma2"]
            + [f"beta_{j + 1}" for j in range(p)]
            + [f"gamma_{j + 1}" for j in range(p)])
    numbers = "%" + ",%".join([FLOAT_FMT] * (p + 1))
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(post.n_draws):
            # b and gamma are shared by the draw's rows: format them once
            row = (f"{t},%s,{fmt(float(post.b[t]))},{numbers},"
                   + ",".join(str(int(g)) for g in post.gamma[t]) + "\n")
            values = np.column_stack((post.sigma2[t], post.beta[t]))
            values[np.isinf(values)] = np.inf  # fmt writes either infinity as "inf"
            fh.write("".join([row % (s, *v) for s, v in
                              zip(post.locations, values.tolist())]))


def read_chains(path, kernel, d):
    """Rebuild a GwrPosterior from a chain dump.

    The kernel name and distance matrix are not stored in the dump and must
    be supplied to make the posterior assessable.  A dump that lacks a
    (draw, location) row or repeats one, or whose rows for one draw disagree
    on b or gamma, is rejected with ValueError.
    """
    from .bayes_gwr import BayesConfig, GwrPosterior

    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not any(line.strip() for line in fh):
            raise ValueError(f"{path}: empty chain dump")
    p = sum(1 for c in header if c.startswith("beta_"))
    # columns draw, b, sigma2, beta_1..p, gamma_1..p; then the location column
    num = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2,
                     usecols=[0, *range(2, 4 + 2 * p)])
    names = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=1,
                       usecols=1, dtype=str).tolist()
    locations = tuple(dict.fromkeys(names))
    loc_index = {s: k for k, s in enumerate(locations)}
    k = np.array([loc_index[s] for s in names])
    t = num[:, 0].astype(int)
    if (t != num[:, 0]).any() or t.min() < 0:
        raise ValueError(f"{path}: draw index that is not a nonnegative integer")
    T = int(t.max()) + 1
    L = len(locations)
    if (np.bincount(t * L + k, minlength=T * L) != 1).any():
        raise ValueError(f"{path}: incomplete chain dump; every draw needs "
                         f"exactly one row for each of the {L} locations")
    beta = np.empty((T, L, p))
    sigma2 = np.empty((T, L))
    gamma = np.empty((T, p), dtype=int)
    b = np.empty(T)
    beta[t, k] = num[:, 3:3 + p]
    sigma2[t, k] = num[:, 2]
    b[t] = num[:, 1]
    gamma[t] = num[:, 3 + p:]
    if (b[t] != num[:, 1]).any() or (gamma[t] != num[:, 3 + p:]).any():
        raise ValueError(f"{path}: rows of one draw disagree on b or gamma")
    cfg = BayesConfig(chain_length=T + 1, burn_in=1)
    return GwrPosterior(locations=locations, beta=beta, sigma2=sigma2,
                        gamma=gamma, b=b, acceptance_rate_b=float("nan"),
                        kernel=kernel, dsub=d.submatrix(locations), config=cfg)


def write_coefficients(path, fit):
    p = fit.beta_hat.shape[1]
    with open(path, "w") as fh:
        fh.write("location," + ",".join(f"beta_{j + 1}" for j in range(p)) + "\n")
        for k, s in enumerate(fit.locations):
            fh.write(s + "," + ",".join(fmt(float(v)) for v in fit.beta_hat[k]) + "\n")


def write_sse_table(path, table):
    with open(path, "w") as fh:
        fh.write("bandwidth,sse\n")
        for b, sse in table:
            fh.write(f"{fmt(float(b))},{fmt(float(sse))}\n")


def write_report(path, report):
    with open(path, "w") as fh:
        fh.write("coefficient,mab,msd,mmse,mcr,acc\n")
        for j, name in enumerate(report.coefficients):
            fh.write(",".join([name, fmt(float(report.mab[j])), fmt(float(report.msd[j])),
                               fmt(float(report.mmse[j])), fmt(float(report.mcr[j])),
                               fmt(float(report.acc[j]))]) + "\n")
        fh.write(f"model_acc,{fmt(float(report.model_acc))}\n")
        if report.mean_bandwidth is not None:
            fh.write(f"mean_bandwidth,{fmt(float(report.mean_bandwidth))}\n")
        for attr in ("mean_p_d", "mean_dic", "mean_lpml", "freq_effective_params"):
            v = getattr(report, attr)
            if v is not None:
                fh.write(f"{attr},{fmt(float(v))}\n")
        for r, msg in report.errors:
            fh.write(f"error_replicate_{r},{msg}\n")


def write_keyvalues(path, mapping):
    with open(path, "w") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {fmt(value) if isinstance(value, float) else value}\n")


def load_config(path):
    """Flat ``key = value`` config file; values stay strings."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out
