import numpy as np
import pytest
from scipy.stats import spearmanr

from bgwr.spatial_graph import (GraphError, DistanceMatrix, build_graph,
                                euclidean_distances, graph_distances, mds_embed)

from conftest import floyd_warshall, lattice_graph, random_graph


class TestBuildGraph:
    def test_singleton(self):
        g = build_graph(["A"], [])
        assert g.n == 1 and not g.edges

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(["A", "B"], [("A", "A")])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            build_graph(["A", "B"], [("A", "C")])

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(GraphError):
            build_graph(["A", "A"], [])

    def test_duplicate_edges_deduplicated(self):
        g = build_graph(["A", "B"], [("A", "B"), ("B", "A"), ("A", "B")])
        assert len(g.edges) == 1

    def test_patch_edges_merged(self):
        g = build_graph(["A", "B", "C"], [("A", "B")], patches=[("B", "C")])
        assert frozenset(("B", "C")) in g.edges
        assert g.patches == (("B", "C"),)


class TestGraphDistances:
    def test_adjacent_pair_is_one(self, line_graph):
        d = graph_distances(line_graph)
        assert d.get("A", "B") == 1.0
        assert d.get("A", "D") == 3.0

    def test_disconnected_pair_unreachable(self):
        g = build_graph(["A", "B", "C"], [("A", "B")])
        d = graph_distances(g)
        assert np.isinf(d.get("A", "C"))

    def test_matches_floyd_warshall_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(2, 25)))
            d = graph_distances(g)
            np.testing.assert_array_equal(d.values, floyd_warshall(g))

    @pytest.mark.parametrize("n", [1, 4])
    def test_edgeless_graph(self, n):
        g = build_graph([f"v{i}" for i in range(n)], [])
        d = graph_distances(g)
        np.testing.assert_array_equal(d.values, floyd_warshall(g))
        assert np.isinf(d.values[~np.eye(n, dtype=bool)]).all()

    def test_lattice_matches_floyd_warshall(self):
        w = 12
        g = lattice_graph(w)
        d = graph_distances(g)
        np.testing.assert_array_equal(d.values, floyd_warshall(g))
        assert d.values.max() == 2 * (w - 1)

    @pytest.mark.parametrize("tail", [0, 5])
    def test_star_matches_floyd_warshall(self, tail):
        # a hub of degree 40 among leaves of degree 1, an isolated vertex,
        # and optionally a path hanging off one leaf
        ids = [f"v{i}" for i in range(42 + tail)]
        edges = ([(ids[0], ids[i]) for i in range(1, 41)]
                 + [(ids[i], ids[i + 1]) for i in range(40, 40 + tail)])
        g = build_graph(ids, edges)
        d = graph_distances(g)
        np.testing.assert_array_equal(d.values, floyd_warshall(g))
        assert d.values[np.isfinite(d.values)].max() == 2 + tail

    def test_symmetric_zero_diagonal_triangle(self, china_d):
        v = china_d.values
        np.testing.assert_array_equal(v, v.T)
        assert np.all(np.diag(v) == 0)
        n = v.shape[0]
        for k in range(n):
            assert np.all(v <= v[:, k:k + 1] + v[k:k + 1, :] + 1e-12)

    def test_china_graph_shape(self, china, china_d):
        assert china.n == 30
        finite = china_d.values[np.isfinite(china_d.values)]
        assert finite.size == 900  # connected
        assert finite.max() == 6.0

    def test_china_patch_present(self, china, china_d):
        assert china.patches == (("Hainan", "Guangdong"),)
        assert china_d.get("Hainan", "Guangdong") == 1.0

    def test_patch_never_increases_distance(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = random_graph(rng, 12)
            before = graph_distances(g).values
            ids = list(g.vertices)
            a, b = rng.choice(len(ids), size=2, replace=False)
            patched = build_graph(g.vertices, [tuple(e) for e in g.edges],
                                  patches=[(ids[a], ids[b])])
            after = graph_distances(patched).values
            assert np.all(after <= before + 1e-12)

    def test_relabeling_preserves_distances(self):
        g1 = build_graph("ABC", [("A", "B"), ("B", "C")])
        g2 = build_graph("CBA", [("A", "B"), ("B", "C")])
        d1, d2 = graph_distances(g1), graph_distances(g2)
        assert d1.get("A", "C") == d2.get("A", "C") == 2.0


class TestEuclidean:
    def test_identical_points_zero(self):
        d = euclidean_distances(["a", "b"], [(1.0, 2.0), (1.0, 2.0)])
        assert d.get("a", "b") == 0.0

    def test_three_four_five(self):
        d = euclidean_distances(["a", "b"], [(0.0, 0.0), (3.0, 4.0)])
        assert d.get("a", "b") == 5.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        coords = rng.normal(size=(8, 2))
        labels = [f"p{i}" for i in range(8)]
        d = euclidean_distances(labels, coords)
        for i in range(8):
            for j in range(8):
                ref = np.sqrt((coords[i, 0] - coords[j, 0]) ** 2
                              + (coords[i, 1] - coords[j, 1]) ** 2)
                assert abs(d.values[i, j] - ref) < 1e-12

    def test_non_finite_coordinate_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            euclidean_distances(["a", "b"], [(0.0, np.nan), (1.0, 1.0)])


class TestMds:
    def test_line_recovered(self):
        labels = ("a", "b", "c", "d")
        pos = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.abs(pos[:, None] - pos[None, :])
        emb = mds_embed(DistanceMatrix(labels, values))
        x = emb.coords[:, 0]
        np.testing.assert_allclose(np.diff(x), np.full(3, np.sign(x[-1] - x[0])),
                                   atol=1e-9)
        np.testing.assert_allclose(emb.coords[:, 1], 0.0, atol=1e-7)

    def test_regular_triangle_symmetric(self):
        values = np.ones((3, 3)) - np.eye(3)
        emb = mds_embed(DistanceMatrix(("a", "b", "c"), values))
        c = emb.coords
        dists = sorted(np.linalg.norm(c[i] - c[j]) for i, j in ((0, 1), (0, 2), (1, 2)))
        assert dists[-1] - dists[0] < 1e-9

    def test_columns_centered(self, china_d):
        emb = mds_embed(china_d)
        assert np.all(np.abs(emb.coords.sum(axis=0)) < 1e-8)
        assert np.all(emb.eigenvalues >= 0)

    def test_china_embedding_tracks_graph_distance(self, china_d):
        emb = mds_embed(china_d)
        diff = emb.coords[:, None, :] - emb.coords[None, :, :]
        embedded = np.sqrt((diff ** 2).sum(axis=2))
        iu = np.triu_indices(30, k=1)
        rho, _ = spearmanr(embedded[iu], china_d.values[iu])
        assert rho > 0.8

    def test_sign_convention_deterministic_under_relabel(self, china_d):
        emb = mds_embed(china_d)
        perm = np.random.default_rng(0).permutation(30)
        labels = tuple(china_d.labels[i] for i in perm)
        shuffled = DistanceMatrix(labels, china_d.values[np.ix_(perm, perm)])
        emb2 = mds_embed(shuffled)
        np.testing.assert_allclose(emb2.coords, emb.coords[perm], atol=1e-8)

    def test_unreachable_rejected(self):
        values = np.array([[0, 1, np.inf], [1, 0, 1], [np.inf, 1, 0]], dtype=float)
        with pytest.raises(ValueError, match="UNREACHABLE"):
            mds_embed(DistanceMatrix(("a", "b", "c"), values))

    def test_too_few_locations_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            mds_embed(DistanceMatrix(("a", "b"), np.array([[0., 1.], [1., 0.]])))


def test_distance_matrix_label_lookup(china_d):
    labels = list(reversed(china_d.labels[::3]))
    idx = [china_d.labels.index(s) for s in labels]
    assert [china_d.index(s) for s in labels] == idx
    np.testing.assert_array_equal(china_d.submatrix(labels), china_d.values[np.ix_(idx, idx)])
    with pytest.raises(KeyError, match="unknown location id: 'Atlantis'"):
        china_d.submatrix(labels + ["Atlantis"])
    with pytest.raises(ValueError, match="duplicate location id"):
        DistanceMatrix(("a", "b", "a"), np.zeros((3, 3)))


def test_distance_matrix_csv_round_trip(tmp_path):
    values = np.array([[0, 2, np.inf], [2, 0, 1], [np.inf, 1, 0]], dtype=float)
    d = DistanceMatrix(("a", "b", "c"), values)
    path = tmp_path / "d.csv"
    d.to_csv(path)
    back = DistanceMatrix.from_csv(path)
    assert back.labels == d.labels
    np.testing.assert_array_equal(back.values, d.values)
