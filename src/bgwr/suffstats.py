"""The dataset and its per-location sufficient statistics.

The sampler's weighted likelihood, the DIC's deviance and the frequentist
normal equations read the data only through, per location l, G_l = X_l'X_l,
h_l = X_l'y_l, q_l = y_l'y_l and the row count n_l, all laid out here.
Every kernel-weighted sum of them is one product with the rows of
``packed_stats``, which ``unpack`` reads back as X'W(s)X, X'W(s)y, y'W(s)y.
"""

import functools
from dataclasses import dataclass

import numpy as np


@dataclass
class Dataset:
    """Response vector, covariate matrix, and the areal unit of each row."""

    y: np.ndarray
    X: np.ndarray
    locations: tuple

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        self.locations = tuple(self.locations)
        if self.X.ndim != 2:
            raise ValueError("X must be two-dimensional")
        n, p = self.X.shape
        if self.y.shape != (n,) or len(self.locations) != n:
            raise ValueError("y, X, and locations must agree in length")
        if n == 0:
            raise ValueError("empty dataset")
        if n < p:
            raise ValueError("need at least as many observations as covariates")
        if not (np.isfinite(self.y).all() and np.isfinite(self.X).all()):
            raise ValueError("non-finite entry in dataset")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]

    def unique_locations(self):
        """Distinct location ids in order of first appearance."""
        return tuple(dict.fromkeys(self.locations))


def location_index(rows, locations):
    """Position in ``locations`` of each entry of ``rows`` (a location id per
    row); ids that ``locations`` does not list get len(locations)."""
    index = {s: k for k, s in enumerate(locations)}
    L = len(locations)
    return np.array([index.get(s, L) for s in rows], dtype=int)


def block_stats(data, locations):
    """Per-location sufficient statistics of the design.

    Returns (G, h, q, counts): Gram blocks X_l'X_l, cross products X_l'y_l,
    squared norms y_l'y_l, and observation counts, in ``locations`` order.
    Rows at locations not in ``locations`` are left out.
    """
    p = data.p
    L = len(locations)
    G = np.zeros((L, p, p))
    h = np.zeros((L, p))
    q = np.zeros(L)
    # group the rows by location once (rows elsewhere go to group L, which
    # is dropped), keeping each location's rows in data order
    group = location_index(data.locations, locations)
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(L + 1))
    for k in range(L):
        rows = order[bounds[k]:bounds[k + 1]]
        Xs, ys = data.X[rows], data.y[rows]
        G[k] = Xs.T @ Xs
        h[k] = Xs.T @ ys
        q[k] = ys @ ys
    return G, h, q, np.diff(bounds).astype(float)


@functools.cache
def _triangle(p):
    """The upper triangle of a p x p block in row-major order, (iu, ju);
    a column of 1 on its diagonal and 2 off it; and the position in
    that order of each of the p^2 entries, (i, j) and (j, i) alike."""
    iu, ju = np.triu_indices(p)
    tri = np.empty((p, p), dtype=np.intp)
    tri[iu, ju] = tri[ju, iu] = np.arange(len(iu))
    return iu, ju, np.where(iu == ju, 1.0, 2.0)[:, None], tri.ravel()


def packed_stats(G, h, q):
    """The (C, L) rows [upper triangle of G_l (``_triangle`` order) | h_l |
    q_l], C = p(p+1)/2 + p + 1, from the statistics of ``block_stats``; any
    kernel-weighted sum of them is one product with these rows."""
    iu, ju = _triangle(G.shape[1])[:2]
    return np.vstack((G[:, iu, ju].T, h.T, q))


def unpack(S, p):
    """X'W(s)X, X'W(s)y and y'W(s)y at every s, (M, V, Kq), from the (C, L)
    weighted ``packed_stats`` columns S; M (L, p, p) is a view of (p, p, L) rows."""
    M = S[_triangle(p)[3]].reshape(p, p, -1).transpose(2, 1, 0)
    return M, S[-p - 1:-1].T, S[-1]


def rss(beta, G, h, q):
    """q - 2 beta . h + beta' G beta per location, from plain (``block_stats``)
    or kernel-weighted (``unpack``) statistics; ``beta`` is
    (..., L, p), and its leading axes (draws) are kept."""
    Gbeta = (G @ beta[..., None])[..., 0]
    return q + np.einsum("...lp,...lp->...l", beta, Gbeta - 2.0 * h)
