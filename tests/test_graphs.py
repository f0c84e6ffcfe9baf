"""Tests for the graph substrate: container, normalization, metrics,
partitioning and samplers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import (
    Graph,
    add_self_loops,
    average_path_length,
    clustering_summary,
    degree_distribution,
    drop_edge,
    edge_homophily,
    fastgcn_layer_sample,
    gcn_norm,
    normalize_features,
    pagerank,
    khop_neighborhood,
    partition_graph,
    row_norm,
    saint_edge_sample,
    saint_node_sample,
    sample_neighbors,
)
from repro.graphs.partition import edge_cut_fraction

RNG = np.random.default_rng(0)


def ring_graph(n=10, features=4, classes=2):
    """Simple cycle graph fixture with alternating labels."""
    rows = np.arange(n)
    cols = (rows + 1) % n
    adj = sp.coo_matrix((np.ones(n), (rows, cols)), shape=(n, n))
    adj = (adj + adj.T).tocsr()
    adj.data[:] = 1.0
    labels = rows % classes
    masks = np.zeros((3, n), dtype=bool)
    masks[0, : n // 2] = True
    masks[1, n // 2 : n // 2 + n // 4] = True
    masks[2, n // 2 + n // 4 :] = True
    return Graph(
        adj=adj,
        features=RNG.normal(size=(n, features)),
        labels=labels,
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
        name="ring",
    )


def community_graph(n=60, p_in=0.3, p_out=0.01, seed=1):
    """Two dense communities, sparse between — for partition/homophily tests."""
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adj = sp.csr_matrix(upper.astype(float))
    adj = adj + adj.T
    masks = np.zeros((3, n), dtype=bool)
    masks[0, :20] = True
    masks[1, 20:30] = True
    masks[2, 30:] = True
    return Graph(
        adj=adj,
        features=rng.normal(size=(n, 5)),
        labels=labels,
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
        name="two-communities",
    )


class TestGraphContainer:
    def test_basic_counts(self):
        g = ring_graph(10)
        assert g.num_nodes == 10
        assert g.num_edges == 10
        assert g.num_features == 4
        assert g.num_classes == 2

    def test_degrees(self):
        g = ring_graph(8)
        np.testing.assert_array_equal(g.degrees(), np.full(8, 2))

    def test_split_indices_disjoint(self):
        g = ring_graph(12)
        all_idx = np.concatenate(
            [g.train_indices(), g.val_indices(), g.test_indices()]
        )
        assert len(all_idx) == len(set(all_idx))

    def test_validate_passes_on_good_graph(self):
        ring_graph().validate()

    def test_validate_rejects_self_loops(self):
        g = ring_graph()
        g.adj = (g.adj + sp.identity(g.num_nodes)).tocsr()
        with pytest.raises(ValueError, match="self-loops"):
            g.validate()

    def test_validate_rejects_asymmetric(self):
        g = ring_graph()
        adj = g.adj.tolil()
        adj[0, 1] = 0
        g.adj = adj.tocsr()
        with pytest.raises(ValueError, match="symmetric"):
            g.validate()

    def test_validate_rejects_overlapping_masks(self):
        g = ring_graph()
        g.val_mask = g.train_mask.copy()
        with pytest.raises(ValueError, match="disjoint"):
            g.validate()

    def test_constructor_rejects_bad_feature_rows(self):
        g = ring_graph()
        with pytest.raises(ValueError):
            Graph(
                adj=g.adj,
                features=g.features[:-1],
                labels=g.labels,
                train_mask=g.train_mask,
                val_mask=g.val_mask,
                test_mask=g.test_mask,
            )

    def test_subgraph_structure(self):
        g = ring_graph(10)
        sub = g.subgraph(np.arange(5))
        assert sub.num_nodes == 5
        # A path 0-1-2-3-4 has 4 edges (ring edge 4-0... not within first 5
        # nodes unless n=5); here nodes 0..4 of a 10-ring form a path.
        assert sub.num_edges == 4

    def test_subgraph_bool_mask(self):
        g = ring_graph(10)
        sub = g.subgraph(g.train_mask)
        assert sub.num_nodes == int(g.train_mask.sum())

    def test_training_subgraph_has_all_train_nodes(self):
        g = community_graph()
        sub = g.training_subgraph()
        assert sub.num_nodes == int(g.train_mask.sum())
        assert sub.train_mask.all()

    def test_edge_index_shape(self):
        g = ring_graph(6)
        ei = g.edge_index()
        assert ei.shape == (2, 12)

    def test_repr(self):
        assert "ring" in repr(ring_graph())


class TestNormalize:
    def test_add_self_loops_diagonal(self):
        g = ring_graph(5)
        a = add_self_loops(g.adj)
        np.testing.assert_allclose(a.diagonal(), np.ones(5))

    def test_gcn_norm_symmetric(self):
        g = community_graph()
        norm = gcn_norm(g.adj)
        dense = norm.todense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    def test_gcn_norm_ring_values(self):
        # On a ring every node has degree 3 after self-loops, so every
        # nonzero entry of Â is exactly 1/3.
        g = ring_graph(6)
        dense = gcn_norm(g.adj).todense()
        nonzero = dense[dense > 0]
        np.testing.assert_allclose(nonzero, np.full(nonzero.size, 1 / 3))

    def test_gcn_norm_isolated_node_no_nan(self):
        adj = sp.csr_matrix((3, 3))
        dense = gcn_norm(adj, self_loops=False).todense()
        assert np.isfinite(dense).all()

    def test_row_norm_rows_sum_to_one(self):
        g = community_graph()
        dense = row_norm(g.adj).todense()
        np.testing.assert_allclose(dense.sum(axis=1), np.ones(g.num_nodes))

    def test_gcn_norm_spectral_radius_at_most_one(self):
        g = community_graph()
        dense = gcn_norm(g.adj).todense()
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_normalize_features_l1(self):
        x = np.abs(RNG.normal(size=(5, 4))) + 0.1
        out = normalize_features(x)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5))

    def test_normalize_features_zero_row_safe(self):
        x = np.zeros((2, 3))
        out = normalize_features(x)
        assert np.isfinite(out).all()


class TestMetrics:
    def test_pagerank_sums_to_one(self):
        g = community_graph()
        pr = pagerank(g.adj)
        assert pr.sum() == pytest.approx(1.0, abs=1e-8)

    def test_pagerank_uniform_on_ring(self):
        g = ring_graph(10)
        pr = pagerank(g.adj)
        np.testing.assert_allclose(pr, np.full(10, 0.1), atol=1e-8)

    def test_pagerank_hub_has_highest_score(self):
        # Star graph: center must dominate.
        n = 11
        rows = np.zeros(n - 1, dtype=int)
        cols = np.arange(1, n)
        adj = sp.coo_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        adj = (adj + adj.T).tocsr()
        pr = pagerank(adj)
        assert pr.argmax() == 0

    def test_pagerank_empty_graph(self):
        assert pagerank(sp.csr_matrix((0, 0))).size == 0

    def test_apl_ring_exact(self):
        # APL of an even cycle C_n is n^2 / (4 (n-1)).
        n = 10
        g = ring_graph(n)
        expected = n * n / (4 * (n - 1))
        assert average_path_length(g.adj) == pytest.approx(expected)

    def test_apl_sampled_close_to_exact(self):
        g = community_graph(n=80)
        exact = average_path_length(g.adj)
        approx = average_path_length(
            g.adj, sample_sources=40, rng=np.random.default_rng(0)
        )
        assert abs(exact - approx) < 0.5

    def test_apl_trivial_graph(self):
        assert average_path_length(sp.csr_matrix((1, 1))) == 0.0

    def test_degree_distribution(self):
        g = ring_graph(8)
        stats = degree_distribution(g.adj)
        assert stats == {"min": 2.0, "max": 2.0, "mean": 2.0, "median": 2.0}

    def test_edge_homophily_high_for_communities(self):
        g = community_graph()
        assert edge_homophily(g.adj, g.labels) > 0.8

    def test_edge_homophily_ring_alternating_zero(self):
        g = ring_graph(10, classes=2)
        assert edge_homophily(g.adj, g.labels) == 0.0

    def test_clustering_summary(self):
        g = ring_graph(10)
        summary = clustering_summary(g.adj)
        assert summary["components"] == 1
        assert summary["giant_fraction"] == 1.0


class TestPartition:
    def test_partition_covers_all_nodes(self):
        g = community_graph()
        parts = partition_graph(g.adj, 4, rng=np.random.default_rng(0))
        union = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(union, np.arange(g.num_nodes))

    def test_partition_balanced(self):
        g = community_graph(n=60)
        parts = partition_graph(g.adj, 3, rng=np.random.default_rng(0))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 20  # target size is 20

    def test_partition_single_part(self):
        g = ring_graph(10)
        parts = partition_graph(g.adj, 1)
        assert len(parts) == 1 and len(parts[0]) == 10

    def test_partition_more_parts_than_nodes(self):
        g = ring_graph(3)
        parts = partition_graph(g.adj, 5)
        assert len(parts) == 5
        assert sum(len(p) for p in parts) == 3

    def test_partition_invalid(self):
        with pytest.raises(ValueError):
            partition_graph(ring_graph().adj, 0)

    def test_partition_respects_communities(self):
        # On a strongly clustered graph the cut should be far below random.
        g = community_graph(n=80, p_in=0.4, p_out=0.005, seed=2)
        parts = partition_graph(g.adj, 2, rng=np.random.default_rng(3))
        assert edge_cut_fraction(g.adj, parts) < 0.3


def _bfs_khop_oracle(adj, nodes, k):
    """Closed k-hop neighborhood by per-node python BFS (the slow truth)."""
    csr = adj.tocsr()
    frontier = set(int(v) for v in nodes)
    reach = set(frontier)
    for _ in range(k):
        nxt = set()
        for v in frontier:
            nxt.update(
                int(u) for u in csr.indices[csr.indptr[v] : csr.indptr[v + 1]]
            )
        frontier = nxt - reach
        reach |= nxt
    return np.array(sorted(reach), dtype=np.int64)


class TestKhopNeighborhood:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_bfs_oracle(self, k):
        g = community_graph(n=80, seed=5)
        rng = np.random.default_rng(k)
        nodes = rng.choice(g.num_nodes, size=7, replace=False)
        got = khop_neighborhood(g.adj, nodes, k)
        np.testing.assert_array_equal(got, _bfs_khop_oracle(g.adj, nodes, k))

    def test_k_zero_sorted_dedup(self):
        g = ring_graph(10)
        got = khop_neighborhood(g.adj, np.array([5, 2, 5]), 0)
        np.testing.assert_array_equal(got, [2, 5])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            khop_neighborhood(ring_graph().adj, np.array([0]), -1)

    def test_ring_two_hop(self):
        g = ring_graph(10)
        got = khop_neighborhood(g.adj, np.array([0]), 2)
        np.testing.assert_array_equal(got, [0, 1, 2, 8, 9])


class TestSampling:
    def test_drop_edge_removes_expected_fraction(self):
        g = community_graph(n=100, p_in=0.3, seed=4)
        dropped = drop_edge(g.adj, 0.5, rng=np.random.default_rng(0))
        ratio = dropped.nnz / g.adj.nnz
        assert 0.35 < ratio < 0.65

    def test_drop_edge_keeps_symmetry(self):
        g = community_graph()
        dropped = drop_edge(g.adj, 0.3, rng=np.random.default_rng(0))
        assert (dropped != dropped.T).nnz == 0

    def test_drop_edge_zero_is_identity(self):
        g = ring_graph()
        assert (drop_edge(g.adj, 0.0) != g.adj).nnz == 0

    def test_drop_edge_invalid_p(self):
        with pytest.raises(ValueError):
            drop_edge(ring_graph().adj, 1.0)

    def test_sample_neighbors_fanout(self):
        g = community_graph()
        nodes = np.arange(10)
        src, dst = sample_neighbors(g.adj, nodes, fanout=3, rng=np.random.default_rng(0))
        assert src.shape == dst.shape == (30,)
        np.testing.assert_array_equal(np.unique(dst), nodes)

    def test_sample_neighbors_are_actual_neighbors(self):
        g = ring_graph(10)
        src, dst = sample_neighbors(
            g.adj, np.array([0]), fanout=2, rng=np.random.default_rng(0)
        )
        assert set(src) <= {1, 9}

    def test_sample_neighbors_isolated_node_self_message(self):
        adj = sp.csr_matrix((3, 3))
        src, dst = sample_neighbors(adj, np.array([1]), fanout=2)
        np.testing.assert_array_equal(src, [1, 1])

    def test_sample_neighbors_invalid_fanout(self):
        with pytest.raises(ValueError):
            sample_neighbors(ring_graph().adj, np.array([0]), 0)

    def test_fastgcn_sample_weights_unbiased_scale(self):
        g = community_graph()
        norm = gcn_norm(g.adj).csr
        nodes, weights = fastgcn_layer_sample(norm, 20, rng=np.random.default_rng(0))
        assert nodes.shape == weights.shape == (20,)
        assert (weights > 0).all()

    def test_fastgcn_prefers_high_norm_columns(self):
        # Star center has the largest squared column norm of Â, so across
        # many draws it must be sampled more often than any single leaf.
        n = 30
        rows = np.zeros(n - 1, dtype=int)
        cols = np.arange(1, n)
        adj = sp.coo_matrix((np.ones(n - 1), (rows, cols)), shape=(n, n))
        adj = (adj + adj.T).tocsr()
        norm = gcn_norm(adj).csr
        counts = np.zeros(n)
        for seed in range(200):
            nodes, _ = fastgcn_layer_sample(norm, 5, rng=np.random.default_rng(seed))
            counts[nodes] += 1
        assert counts[0] > counts[1:].mean() * 1.1

    def test_saint_node_sample_within_budget(self):
        g = community_graph()
        nodes = saint_node_sample(g.adj, 25, rng=np.random.default_rng(0))
        assert len(nodes) == 25
        assert len(np.unique(nodes)) == 25

    def test_saint_edge_sample_returns_nodes(self):
        g = community_graph()
        nodes = saint_edge_sample(g.adj, 30, rng=np.random.default_rng(0))
        assert nodes.size > 0
        assert nodes.max() < g.num_nodes

    def test_saint_edge_sample_empty_graph(self):
        nodes = saint_edge_sample(sp.csr_matrix((5, 5)), 3)
        assert nodes.size == 3


class TestGraphSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        g = community_graph()
        path = g.save(tmp_path / "snapshot")
        loaded = Graph.load(path)
        assert (loaded.adj != g.adj).nnz == 0
        np.testing.assert_array_equal(loaded.features, g.features)
        np.testing.assert_array_equal(loaded.labels, g.labels)
        np.testing.assert_array_equal(loaded.train_mask, g.train_mask)
        assert loaded.name == g.name
        assert loaded.num_classes == g.num_classes

    def test_suffix_appended(self, tmp_path):
        g = ring_graph()
        path = g.save(tmp_path / "noext")
        assert path.suffix == ".npz"

    def test_load_without_suffix(self, tmp_path):
        g = ring_graph()
        g.save(tmp_path / "snap")
        loaded = Graph.load(tmp_path / "snap")
        assert loaded.num_nodes == g.num_nodes

    def test_loaded_graph_validates(self, tmp_path):
        g = community_graph()
        loaded = Graph.load(g.save(tmp_path / "v"))
        loaded.validate()

    def test_loaded_graph_trains(self, tmp_path):
        from repro.models import GCN
        from repro.training import TrainConfig, Trainer

        g = community_graph()
        loaded = Graph.load(g.save(tmp_path / "t"))
        model = GCN(loaded.num_features, 8, loaded.num_classes, seed=0)
        result = Trainer(TrainConfig(epochs=5, patience=5, seed=0)).fit(model, loaded)
        assert result.epochs_run == 5
