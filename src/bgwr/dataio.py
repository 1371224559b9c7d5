"""Data ingestion and result serialization.

File formats:

* adjacency: plain text with ``# vertices`` / ``# edges`` / ``# patches``
  sections; one vertex id per line, one ``idA,idB`` pair per line.  The
  vertex order defines distance-matrix label order.
* dataset: CSV with header ``location,y,x1,...,xp`` and a numeric body.
* config: flat ``key = value`` lines, ``#`` comments, mirroring CLI flags.

Floats are serialized with 17 significant digits so a written value
round-trips exactly.  Every result table goes through ``write_table`` except
the chain dump, whose tens of thousands of rows take a ``%``-format path.
"""

import importlib.resources

import numpy as np

from .bayes_gwr import GwrPosterior
from .spatial_graph import build_graph
from .suffstats import Dataset

FLOAT_FMT = ".17g"


def fmt(x):
    return format(x, FLOAT_FMT) if isinstance(x, float) else str(x)


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


def write_table(path, header, rows):
    """CSV: the header line, then one line per row, each field through ``fmt``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def labelled_rows(labels, *arrays):
    """Rows ``[label, *values]``: each array has one row, (n,) or (n, k), per
    label, and gives its values as Python floats in column order."""
    values = np.column_stack(arrays).astype(float).tolist()
    return [[label, *row] for label, row in zip(labels, values)]


def write_dataset(path, data):
    write_table(path, ["location", "y"] + [f"x{j + 1}" for j in range(data.p)],
                labelled_rows(data.locations, data.y, data.X))


def write_posterior_summary(path, summary):
    L, p = summary.beta_mean.shape
    header = ["location", "sigma2_mean"] + [f"beta_{j + 1}_{stat}" for j in range(p)
                                            for stat in ("mean", "hpd_lower", "hpd_upper")]
    beta = np.stack((summary.beta_mean, summary.hpd_lower, summary.hpd_upper), axis=2)
    write_table(path, header,
                labelled_rows(summary.locations, summary.sigma2_mean, beta.reshape(L, 3 * p)))


def write_gamma_table(path, summary):
    freqs = np.asarray(summary.inclusion_freq, dtype=float).tolist()
    write_table(path, ["covariate", "inclusion_frequency", "selected"],
                [[f"x{j + 1}", f, int(j + 1 in summary.selected)] for j, f in enumerate(freqs)])


def write_b_trace(path, post):
    write_table(path, ["draw", "b"], enumerate(np.asarray(post.b, dtype=float).tolist()))


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
            fh.write("".join([row % (s, *v) for s, v in
                              zip(post.locations, values.tolist())]))


def read_chains(path):
    """Rebuild a GwrPosterior from a chain dump.

    Locations take the order of their first rows.  A dump that lacks a
    (draw, location) row or repeats one, or whose rows for one draw disagree
    on b or gamma, is rejected with ValueError.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not any(line.strip() for line in fh):
            raise ValueError(f"{path}: empty chain dump")
    p = sum(1 for c in header if c.startswith("beta_"))
    # columns draw, b, sigma2, beta_1..p, gamma_1..p; then the location column
    num = np.loadtxt(path, delimiter=",", skiprows=1, comments=None, ndmin=2,
                     usecols=[0, *range(2, 4 + 2 * p)])
    # each row's location as an index, in order of first appearance, row for
    # row as np.loadtxt read them: it skips empty lines only
    first = {}
    with open(path) as fh:
        fh.readline()
        k = np.array([first.setdefault(line.split(",", 2)[1], len(first))
                      for line in fh if line != "\n"])
    locations = tuple(first)
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
    # one column at a time: gamma[t] whole would be an (n_rows, p) int array
    if (b[t] != num[:, 1]).any() or any((gamma[t, j] != num[:, 3 + p + j]).any()
                                        for j in range(p)):
        raise ValueError(f"{path}: rows of one draw disagree on b or gamma")
    return GwrPosterior(locations=locations, beta=beta, sigma2=sigma2,
                        gamma=gamma, b=b, acceptance_rate_b=float("nan"),
                        proposal_scale=float("nan"))


def write_coefficients(path, fit):
    write_table(path, ["location"] + [f"beta_{j + 1}" for j in range(fit.beta_hat.shape[1])],
                labelled_rows(fit.locations, fit.beta_hat))


def write_sse_table(path, table):
    write_table(path, ["bandwidth", "sse"], [[float(b), float(sse)] for b, sse in table])


def write_report(path, report):
    """Per-coefficient scores, then one ``name,value`` line per scalar score
    and per failed replicate, of the methods the study scored."""
    columns, scalars = report.scores()
    rows = labelled_rows(report.coefficients, *columns.values())
    rows += [[name, float(v)] for name, v in scalars.items()]
    rows += [[f"error_replicate_{r}", msg] for r, msg in report.errors]
    write_table(path, ["coefficient", *columns], rows)


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
