import math

import numpy as np
import pytest

from bgwr.bayes_gwr import _kernel_state, _total_loglik, _weighted_rss, block_stats
from bgwr.dataio import china_graph
from bgwr.spatial_graph import build_graph, graph_distances


# one "criterion N: PASS/FAIL - ..." line per acceptance check, echoed in
# the terminal summary so they survive pytest's output capture
CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def china():
    return china_graph()


@pytest.fixture(scope="session")
def china_d(china):
    return graph_distances(china)


@pytest.fixture(scope="session")
def line_graph():
    """Path graph A-B-C-D, distances 0..3."""
    return build_graph("ABCD", [("A", "B"), ("B", "C"), ("C", "D")])


def random_graph(rng, n):
    """Erdos-Renyi style random graph over string vertex ids."""
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                edges.append((vertices[i], vertices[j]))
    return build_graph(vertices, edges)


def floyd_warshall(g):
    """Independent all-pairs shortest-path oracle."""
    n = g.n
    index = {v: i for i, v in enumerate(g.vertices)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for e in g.edges:
        a, b = tuple(e)
        dist[index[a], index[b]] = 1.0
        dist[index[b], index[a]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return dist


def sampler_loglik(data, d, kernel, b, beta, sigma2):
    """The log pseudo-likelihood run_sampler targets at (beta, sigma2, b),
    computed as the sampler does, from block statistics: the sum over
    locations s of log MVN(y; X beta_s, sigma2_s W(s|b)^-1) over the rows
    with positive weight.  ``beta`` is (L, p), ``sigma2`` (L,), both in
    ``data.unique_locations()`` order."""
    locs = data.unique_locations()
    G, h, q, counts = block_stats(data, locs)
    state = _kernel_state(kernel, d.submatrix(locs), b, counts, G, h, q)
    Q = _weighted_rss(state, np.asarray(beta, dtype=float))
    return _total_loglik(state, Q, np.asarray(sigma2, dtype=float))


def loglik_oracle(data, log_w, beta, sigma2):
    """Row-by-row oracle for sampler_loglik from log weights.

    ``log_w`` is (L, n): the log weight of every row at every location, -inf
    for a dropped row.  Each kept row adds log N(y_i | x_i' beta_s,
    sigma2_s / w_si), written with log w so that an underflowed weight keeps
    its log-weight penalty.
    """
    total = 0.0
    for s in range(len(beta)):
        for i in range(data.n):
            lw = log_w[s, i]
            if np.isfinite(lw):
                r = data.y[i] - data.X[i] @ beta[s]
                total += -0.5 * (math.log(2 * math.pi * sigma2[s]) - lw
                                 + math.exp(lw) * r * r / sigma2[s])
    return total
