"""Areal adjacency graphs, all-pairs distances, and classical MDS embedding.

Administrative units are vertices of an undirected graph; an edge joins two
units that share a boundary.  Graph distance is the hop count of the shortest
path.  Disconnected pairs carry the sentinel ``UNREACHABLE`` (infinity), which
every weighting kernel maps to weight zero.
"""

from dataclasses import dataclass

import numpy as np

UNREACHABLE = np.inf


class GraphError(ValueError):
    """Raised for structurally invalid graph input."""


@dataclass(frozen=True)
class SpatialGraph:
    """Undirected graph over areal units.

    ``patches`` records manually added edges (e.g. an island linked to the
    mainland); they are also present in ``edges``.
    """

    vertices: tuple
    edges: frozenset
    patches: tuple

    @property
    def n(self):
        return len(self.vertices)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric all-pairs distance with labeled rows/columns; graph hop
    counts may be UNREACHABLE."""

    labels: tuple
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        n = len(self.labels)
        if self.values.shape != (n, n):
            raise ValueError("distance matrix shape does not match labels")
        # label -> row, built once so that each lookup is O(1)
        object.__setattr__(self, "_rows", {s: k for k, s in enumerate(self.labels)})
        if len(self._rows) != n:
            raise ValueError("duplicate location id in distance matrix labels")

    def index(self, label):
        try:
            return self._rows[label]
        except KeyError:
            raise KeyError(f"unknown location id: {label!r}") from None

    def get(self, a, b):
        return self.values[self.index(a), self.index(b)]

    def submatrix(self, labels):
        idx = [self.index(x) for x in labels]
        return self.values[np.ix_(idx, idx)]

    def to_csv(self, path):
        """Write as CSV: header of labels, 'inf' for unreachable entries."""
        with open(path, "w") as fh:
            fh.write("location," + ",".join(self.labels) + "\n")
            for lab, row in zip(self.labels, self.values):
                cells = ["inf" if np.isinf(v) else format(v, ".17g") for v in row]
                fh.write(lab + "," + ",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path):
        with open(path) as fh:
            header = fh.readline().strip().split(",")[1:]
            rows = []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                rows.append([np.inf if c == "inf" else float(c) for c in cells[1:]])
        return cls(labels=tuple(header), values=np.array(rows))


@dataclass(frozen=True)
class MdsEmbedding:
    """2-D classical MDS coordinates, one row per location."""

    labels: tuple
    coords: np.ndarray
    eigenvalues: np.ndarray


def build_graph(vertices, edges, patches=()):
    """Validate and assemble a SpatialGraph.

    Duplicate edges are deduplicated; patch edges are merged into the edge
    set.  Rejects self-loops and edges referencing unknown vertices.
    """
    vertices = tuple(vertices)
    if len(set(vertices)) != len(vertices):
        raise GraphError("duplicate vertex ids")
    known = set(vertices)
    patches = tuple(tuple(p) for p in patches)
    edge_set = set()
    for a, b in list(edges) + list(patches):
        if a == b:
            raise GraphError(f"self-loop on vertex {a!r}")
        if a not in known or b not in known:
            raise GraphError(f"edge ({a!r}, {b!r}) references unknown vertex")
        edge_set.add(frozenset((a, b)))
    return SpatialGraph(vertices=vertices, edges=frozenset(edge_set), patches=patches)


def graph_distances(g):
    """All-pairs hop-count distance by a breadth-first search from every
    source at once.

    Row v of the frontier marks the sources whose level k-1 holds vertex v;
    level k marks, for all sources together, the unvisited vertices with a
    neighbour on level k-1.  Vertices are relabeled by decreasing degree,
    so those with an s-th neighbour are a prefix of the rows: neighbour
    slot s costs one gather of frontier rows for that prefix.  The hubs,
    the vertices of degree above K, each take one OR over their own
    neighbours' rows instead, with K chosen to minimize the K + (number of
    hubs) array operations a level makes.  A level's array work is thus
    the edge count times n whatever the degrees.  Disconnected pairs get
    UNREACHABLE; this is a value, not an error.
    """
    n = g.n
    if n == 0:
        raise GraphError("empty graph")
    index = {v: i for i, v in enumerate(g.vertices)}
    pairs = np.array([[index[v] for v in e] for e in g.edges], dtype=int).reshape(-1, 2)
    src, dst = np.concatenate((pairs, pairs[:, ::-1])).T
    deg = np.bincount(src, minlength=n)
    rank = np.empty(n, dtype=int)
    rank[np.argsort(-deg, kind="stable")] = np.arange(n)
    src, dst = rank[src], rank[dst]
    order = np.argsort(src, kind="stable")
    dst = dst[order]
    deg = np.sort(deg)[::-1]
    start = np.cumsum(deg) - deg
    # above[k]: the number of vertices of degree above k
    above = n - np.cumsum(np.bincount(deg))
    K = int(np.argmin(np.arange(len(above)) + above))
    hubs = [dst[start[v]:start[v] + deg[v]] for v in range(above[K])]
    slots = [(slice(above[K], above[s]), dst[start[above[K]:above[s]] + s]) for s in range(K)]

    own = (rank, np.arange(n))
    values = np.full((n, n), UNREACHABLE)
    values[own] = 0.0
    reached = np.zeros((n, n), dtype=bool)
    reached[own] = True
    frontier = reached.copy()
    level = 0
    while frontier.any():
        level += 1
        new = np.zeros((n, n), dtype=bool)
        for v, nbrs in enumerate(hubs):
            new[v] = frontier[nbrs].any(axis=0)
        for rows, nbrs in slots:
            new[rows] |= frontier[nbrs]
        new &= ~reached
        values[new] = level
        reached |= new
        frontier = new
    return DistanceMatrix(labels=g.vertices, values=values[rank])


def euclidean_distances(labels, coords):
    """Pairwise sqrt((lat_i-lat_j)^2 + (lon_i-lon_j)^2)."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape != (len(labels), 2):
        raise ValueError("coords must be an (n, 2) array of (latitude, longitude)")
    if not np.isfinite(coords).all():
        raise ValueError("non-finite coordinate")
    diff = coords[:, None, :] - coords[None, :, :]
    values = np.sqrt((diff ** 2).sum(axis=2))
    return DistanceMatrix(labels=tuple(labels), values=values)


def mds_embed(d):
    """Classical MDS of a distance matrix into two dimensions.

    Double-centers the squared distances, takes the top-2 eigenpairs, and
    scales eigenvectors by sqrt of the (zero-clamped) eigenvalues.  Sign
    convention: within each coordinate column the entry of largest absolute
    value is made positive, so the embedding is deterministic.
    """
    if np.isinf(d.values).any():
        raise ValueError("distance matrix contains UNREACHABLE entries")
    n = len(d.labels)
    if n < 3:
        raise ValueError("MDS embedding requires at least 3 locations")
    D2 = d.values ** 2
    J = np.eye(n) - np.ones((n, n)) / n
    B = -0.5 * J @ D2 @ J
    evals, evecs = np.linalg.eigh(B)
    order = np.argsort(evals)[::-1][:2]
    top = np.clip(evals[order], 0.0, None)
    coords = evecs[:, order] * np.sqrt(top)
    for k in range(2):
        col = coords[:, k]
        if np.any(col != 0) and col[np.argmax(np.abs(col))] < 0:
            coords[:, k] = -col
    return MdsEmbedding(labels=d.labels, coords=coords, eigenvalues=top)
