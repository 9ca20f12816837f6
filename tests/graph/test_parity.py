"""The vectorized Stage 1 functions match the reference loops byte for byte.

``repro.graph.reference`` keeps the per-element loop construction; every
relation matrix the vectorized pipeline builds — from an
``InteractionDataset`` and from an ``InteractionStore`` written from it —
must carry the loops' exact ``indptr``, ``indices`` and ``data`` arrays
(dtype included).  Reading the view in several user windows sums the
transitional weights in another order, so there only the sparsity
pattern is pinned exactly and the values to 1e-12 relative.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.data import (InteractionDataset, generate, generate_to_store,
                        open_store, write_store_from_dataset)
from repro.data import dataset as data_dataset
from repro.experiments.config import SCALES
from repro.graph import (GraphConfig, build_dissimilar, build_incompatible,
                         build_multi_relation_graph, build_similar,
                         build_transitional, interaction_matrix, prune_top_k,
                         reference, relations)
from repro.graph.multi_relation import _active_users

RELATIONS = ("interactions", "transitional", "incompatible", "similar_users",
             "dissimilar_users")
CONFIGS = [GraphConfig(transition_window=window, max_neighbors=k)
           for window in (5, 10, None) for k in (5, 30, None)]
PROFILES = ("ml-100k", "ml-1m", "beauty", "sports", "yelp")


def assert_same_bytes(expected, actual, what=""):
    assert expected.shape == actual.shape, what
    for name in ("indptr", "indices", "data"):
        want, got = getattr(expected, name), getattr(actual, name)
        assert want.dtype == got.dtype, f"{what}.{name} dtype"
        assert want.tobytes() == got.tobytes(), f"{what}.{name} bytes"


def assert_same_graph(expected, actual):
    for relation in RELATIONS:
        assert_same_bytes(getattr(expected, relation),
                          getattr(actual, relation), relation)


@pytest.fixture(scope="module")
def views(tmp_path_factory):
    """``(dataset, store)`` per (profile, scale), built once."""
    cache = {}

    def get(profile, scale):
        key = (profile, scale)
        if key not in cache:
            dataset = generate(profile, seed=0, scale=scale)
            path = tmp_path_factory.mktemp("store") / f"{profile}-{scale}"
            cache[key] = (dataset, write_store_from_dataset(dataset, path))
        return cache[key]

    return get


@pytest.mark.parametrize("config", CONFIGS,
                         ids=lambda c: f"w{c.transition_window}-k"
                                       f"{c.max_neighbors}")
@pytest.mark.parametrize("scale", ("smoke", "quick"))
@pytest.mark.parametrize("profile", PROFILES)
def test_graph_matches_loops(views, profile, scale, config):
    dataset, store = views(profile, SCALES[scale].dataset_scale)
    expected = reference.build_multi_relation_graph(dataset, config)
    assert_same_graph(expected, build_multi_relation_graph(dataset, config))
    assert_same_graph(expected, build_multi_relation_graph(store, config))


def test_scale_profile_store_matches_loops(tmp_path):
    store = generate_to_store("scale-1m", tmp_path / "raw", seed=0,
                              scale=0.002)
    dataset = InteractionDataset(
        store.name, store.num_users, store.num_items,
        [[]] + [store.sequence(u).tolist()
                for u in range(1, store.num_users + 1)])
    for config in CONFIGS:
        expected = reference.build_multi_relation_graph(dataset, config)
        assert_same_graph(expected, build_multi_relation_graph(store, config))


@pytest.mark.parametrize("window", (5, None))
def test_several_user_windows_agree_to_rounding(views, monkeypatch, window):
    monkeypatch.setattr(data_dataset, "DEFAULT_CHUNK_EVENTS", 500)
    dataset, store = views("ml-1m", SCALES["smoke"].dataset_scale)
    config = GraphConfig(transition_window=window)
    expected = reference.build_multi_relation_graph(dataset, config)
    assert dataset.num_interactions > 4 * 500
    assert len(list(data_dataset.user_windows(store))) > 4
    for view in (dataset, store):
        got = build_multi_relation_graph(view, config)
        for relation in RELATIONS:
            want, have = (getattr(expected, relation),
                          getattr(got, relation))
            np.testing.assert_array_equal(want.indptr, have.indptr)
            np.testing.assert_array_equal(want.indices, have.indices)
            np.testing.assert_allclose(have.data, want.data, rtol=1e-12,
                                       atol=0)


@pytest.mark.parametrize("block_flops", (1, 64))
def test_row_blocks_change_no_bit(views, monkeypatch, block_flops):
    """A CSR product computes each row alone, so any block size gives
    the loops' bytes."""
    monkeypatch.setattr(relations, "BLOCK_FLOPS", block_flops)
    dataset, _ = views("beauty", SCALES["smoke"].dataset_scale)
    A = reference.interaction_matrix(dataset)
    active = _active_users(A, 0.2)
    sim_ref = reference.build_similar(A, active)
    sim = build_similar(A, active)
    assert_same_bytes(sim_ref, sim, "similar")
    assert_same_bytes(reference.prune_top_k(sim_ref, 5),
                      build_similar(A, active, max_neighbors=5),
                      "similar top-5")
    assert_same_bytes(reference.build_dissimilar(A, sim_ref),
                      build_dissimilar(A, sim), "dissimilar")
    W = reference.build_transitional(dataset, window=10)
    popular = np.argsort(-np.asarray(A.sum(axis=0)).ravel()[1:])[:40] + 1
    assert_same_bytes(reference.build_incompatible(W, popular),
                      build_incompatible(W, popular), "incompatible")


def test_prune_top_k_breaks_ties_like_the_loop():
    rng = np.random.default_rng(3)
    dense = rng.integers(0, 3, size=(40, 60)).astype(np.float64)
    dense[rng.random(dense.shape) < 0.3] = 0.0
    matrix = sparse.csr_matrix(dense)
    for k in (1, 2, 5, 59, 60):
        assert_same_bytes(reference.prune_top_k(matrix, k),
                          prune_top_k(matrix, k), f"k={k}")


def test_edge_cases_match_loops():
    empty = InteractionDataset("empty", 3, 4, [[], [], [], []])
    one = InteractionDataset("one", 2, 3, [[], [2], [1, 1, 3]])
    for dataset in (empty, one):
        assert_same_bytes(reference.interaction_matrix(dataset),
                          interaction_matrix(dataset), dataset.name)
        for window in (None, 0, 1):
            assert_same_bytes(
                reference.build_transitional(dataset, window=window),
                build_transitional(dataset, window=window), dataset.name)


def test_store_transitions_read_through_windows(tmp_path):
    dataset = generate("ml-100k", seed=1, scale=0.25)
    store = write_store_from_dataset(dataset, tmp_path / "s")
    reopened = open_store(tmp_path / "s")
    assert_same_bytes(reference.build_transitional(dataset, window=5),
                      build_transitional(reopened, window=5), "store")
    assert store.user_items(1, 3).tolist() == (dataset.sequences[1]
                                               + dataset.sequences[2])
    assert dataset.user_items(1, 3).tolist() == store.user_items(1, 3).tolist()
