"""Tests for multi-relation graph construction (Sec. III-A invariants)."""

import numpy as np
import pytest
from scipy import sparse

from repro.data import InteractionDataset, generate
from repro.graph import (GraphConfig, build_dissimilar, build_incompatible,
                         build_multi_relation_graph, build_similar,
                         build_transitional, multi_relation, prune_top_k)


def make_dataset(sequences, num_items=None):
    num_items = num_items or max((max(s) for s in sequences if s), default=1)
    return InteractionDataset(
        name="toy", num_users=len(sequences), num_items=num_items,
        sequences=[[]] + [list(s) for s in sequences])


class TestTransitional:
    def test_direction_and_existence(self):
        ds = make_dataset([[1, 2, 3]])
        W = build_transitional(ds)
        assert W[1, 2] > 0 and W[2, 3] > 0 and W[1, 3] > 0
        assert W[2, 1] == 0 and W[3, 1] == 0

    def test_weight_formula(self):
        # Sequence [1, 2]: n=2, Dis=1 -> weight (2-1)/2 = 0.5
        ds = make_dataset([[1, 2]])
        W = build_transitional(ds)
        np.testing.assert_allclose(W[1, 2], 0.5)

    def test_closer_pairs_weigh_more(self):
        ds = make_dataset([[1, 2, 3]])
        W = build_transitional(ds)
        assert W[1, 2] > W[1, 3]

    def test_repeats_accumulate(self):
        single = build_transitional(make_dataset([[1, 2]]))
        double = build_transitional(make_dataset([[1, 2], [1, 2]]))
        np.testing.assert_allclose(double[1, 2], 2 * single[1, 2])

    def test_window_limits_distance(self):
        ds = make_dataset([[1, 2, 3, 4, 5]])
        W = build_transitional(ds, window=1)
        assert W[1, 2] > 0
        assert W[1, 3] == 0

    def test_self_transitions_ignored(self):
        ds = make_dataset([[1, 1, 2]])
        W = build_transitional(ds)
        assert W[1, 1] == 0

    def test_padding_row_empty(self):
        ds = make_dataset([[1, 2, 3]])
        W = build_transitional(ds)
        assert W[0].nnz == 0 and W[:, 0].nnz == 0


class TestPruneTopK:
    def test_keeps_heaviest(self):
        mat = sparse.csr_matrix(np.array([[0, 3.0, 1.0, 2.0]]))
        out = prune_top_k(mat, 2)
        assert out.nnz == 2
        assert out[0, 1] == 3.0 and out[0, 3] == 2.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            prune_top_k(sparse.csr_matrix((2, 2)), 0)


class TestIncompatible:
    def _weights(self):
        # Items 1 and 2 both transition to 3 but never to each other.
        ds = make_dataset([[1, 3], [2, 3]], num_items=3)
        W = build_transitional(ds)
        return ds, W

    def test_common_context_no_direct_edge(self):
        ds, W = self._weights()
        inc = build_incompatible(W, popular_items=np.array([1, 2, 3]))
        assert inc[1, 2] > 0
        assert inc[1, 2] == inc[2, 1]  # symmetric

    def test_direct_transition_disqualifies(self):
        # 1->2 directly, and both relate to 3.
        ds = make_dataset([[1, 2], [1, 3], [2, 3]], num_items=3)
        W = build_transitional(ds)
        inc = build_incompatible(W, popular_items=np.array([1, 2, 3]))
        assert inc[1, 2] == 0

    def test_longtail_excluded(self):
        ds, W = self._weights()
        inc = build_incompatible(W, popular_items=np.array([1, 3]))
        assert inc[1, 2] == 0  # item 2 not popular -> no edge

    def test_weight_is_sum_of_transitional(self):
        ds, W = self._weights()
        inc = build_incompatible(W, popular_items=np.array([1, 2, 3]))
        expected = (W[1, 3] + W[3, 1]) + (W[2, 3] + W[3, 2])
        np.testing.assert_allclose(inc[1, 2], expected)

    def test_empty_popular_set(self):
        _, W = self._weights()
        inc = build_incompatible(W, popular_items=np.array([], dtype=int))
        assert inc.nnz == 0

    def test_out_of_range_popular_rejected(self):
        _, W = self._weights()
        with pytest.raises(ValueError):
            build_incompatible(W, popular_items=np.array([99]))


class TestUserRelations:
    def _interactions(self):
        # u1: items {1, 2}; u2: items {2, 3}; u3: items {4}
        ds = make_dataset([[1, 2], [2, 3], [4]], num_items=4)
        return ds.interaction_matrix()

    def test_similar_via_co_interaction(self):
        sim = build_similar(self._interactions())
        assert sim[1, 2] > 0
        assert sim[1, 3] == 0 and sim[2, 3] == 0
        np.testing.assert_allclose(sim[1, 2], sim[2, 1])

    def test_similar_weight_normalized(self):
        sim = build_similar(self._interactions())
        # numerator: w_1,2 + w_2,2 = 1 + 1; denominator: 2 + 2
        np.testing.assert_allclose(sim[1, 2], 0.5)

    def test_dissimilar_via_common_similar_user(self):
        # u1-{1,2}, u2-{2,3}, u3-{3,4}: u1~u2, u2~u3, u1/u3 no co-interaction
        ds = make_dataset([[1, 2], [2, 3], [3, 4]], num_items=4)
        A = ds.interaction_matrix()
        sim = build_similar(A)
        dis = build_dissimilar(A, sim)
        assert dis[1, 3] > 0
        np.testing.assert_allclose(dis[1, 3], dis[3, 1])
        # Similar users are never dissimilar.
        assert dis[1, 2] == 0

    def test_no_common_similar_no_edge(self):
        dis = build_dissimilar(self._interactions(),
                               build_similar(self._interactions()))
        # u3 shares no similar user with anyone.
        assert dis[1, 3] == 0 and dis[2, 3] == 0

    def test_active_user_filter(self):
        A = self._interactions()
        sim = build_similar(A, active_users=np.array([1]))
        # Only u1 active: co-interaction requires both rows -> no edges.
        assert sim.nnz == 0


class TestFullGraph:
    def test_build_and_validate_on_synthetic(self):
        ds = generate("beauty", seed=0, scale=0.3)
        graph = build_multi_relation_graph(ds)
        graph.validate()  # raises on violated invariants
        counts = graph.relation_counts()
        assert counts["transitional"] > 0
        assert counts["similar"] > 0
        assert counts["interacted"] == sum(
            len(set(s)) for s in ds.sequences)

    def test_max_neighbors_bounds_degree(self):
        ds = generate("beauty", seed=0, scale=0.3)
        config = GraphConfig(max_neighbors=5)
        graph = build_multi_relation_graph(ds, config)
        trans = graph.transitional
        row_counts = np.diff(trans.indptr)
        assert row_counts.max() <= 5

    def test_networkx_export(self):
        ds = generate("beauty", seed=0, scale=0.2)
        graph = build_multi_relation_graph(ds)
        G = graph.to_networkx()
        assert G.number_of_nodes() == ds.num_users + ds.num_items
        relations = {d["relation"] for _, _, d in G.edges(data=True)}
        assert "transitional" in relations and "interacted" in relations

    def test_deterministic(self):
        ds = generate("beauty", seed=0, scale=0.3)
        g1 = build_multi_relation_graph(ds)
        g2 = build_multi_relation_graph(ds)
        assert (g1.transitional != g2.transitional).nnz == 0
        assert (g1.similar_users != g2.similar_users).nnz == 0


class TestValidate:
    """Each Sec. III-A invariant, broken on purpose, fails ``validate``."""

    @pytest.fixture
    def graph(self):
        graph = build_multi_relation_graph(generate("beauty", seed=0,
                                                    scale=0.3))
        graph.validate()
        return graph

    @staticmethod
    def _with(matrix, pairs):
        out = matrix.tolil(copy=True)
        for i, j in pairs:
            out[i, j] = 1.0
        return out.tocsr()

    def test_incompatible_pair_with_transitional_edge(self, graph):
        i, j = (int(x[0]) for x in graph.transitional.nonzero())
        graph.incompatible = self._with(graph.incompatible,
                                        [(i, j), (j, i)])
        with pytest.raises(AssertionError, match="transitional edge"):
            graph.validate()

    def test_asymmetric_incompatible(self, graph):
        linked = (graph.transitional + graph.transitional.T
                  + graph.incompatible).tocsr()
        i = 1
        j = next(j for j in range(2, graph.num_items + 1)
                 if linked[i, j] == 0)
        graph.incompatible = self._with(graph.incompatible, [(i, j)])
        with pytest.raises(AssertionError, match="symmetric"):
            graph.validate()

    @pytest.mark.parametrize("block_pairs", (None, 7))
    def test_dissimilar_pair_that_co_interacted(self, graph, monkeypatch,
                                                block_pairs):
        if block_pairs is not None:
            monkeypatch.setattr(multi_relation, "VALIDATE_BLOCK_PAIRS",
                                block_pairs)
            graph.validate()
            assert graph.dissimilar_users.nnz > 2 * block_pairs
        users = graph.interactions[:, 1].nonzero()[0]
        u, v = int(users[0]), int(users[1])
        graph.dissimilar_users = self._with(graph.dissimilar_users,
                                            [(u, v), (v, u)])
        with pytest.raises(AssertionError, match="co-interacted"):
            graph.validate()

    def test_checks_survive_optimized_python(self):
        import subprocess
        import sys
        code = (
            "from repro.data import generate\n"
            "from repro.graph import build_multi_relation_graph\n"
            "g = build_multi_relation_graph(generate('beauty', seed=0, "
            "scale=0.2))\n"
            "g.incompatible = g.incompatible.tolil()\n"
            "g.incompatible[1, 2] = 1.0\n"
            "g.incompatible = g.incompatible.tocsr()\n"
            "g.validate()\n")
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                capture_output=True, text=True)
        assert result.returncode != 0
        assert "AssertionError" in result.stderr
