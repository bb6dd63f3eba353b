"""Round-trip tests for persistence (graphs, partitions, cost models)."""

import numpy as np
import pytest

from repro.core import (
    PolynomialSGDModel,
    collect_training_data,
    load_artifact,
    save_artifact,
)
from repro.errors import CostModelError, GraphError, PartitionError
from repro.graph import rmat, road_network, with_random_weights
from repro.graph.io_npz import (
    load_graph,
    load_partition,
    save_graph,
    save_partition,
)
from repro.partition import random_partition


def test_graph_roundtrip(tmp_path, skewed_graph):
    path = tmp_path / "g.npz"
    save_graph(skewed_graph, path)
    loaded = load_graph(path)
    assert loaded.num_vertices == skewed_graph.num_vertices
    assert np.array_equal(loaded.indptr, skewed_graph.indptr)
    assert np.array_equal(loaded.indices, skewed_graph.indices)
    assert loaded.directed == skewed_graph.directed
    assert loaded.name == skewed_graph.name
    assert loaded.weights is None


def test_weighted_graph_roundtrip(tmp_path, skewed_weighted):
    path = tmp_path / "w.npz"
    save_graph(skewed_weighted, path)
    loaded = load_graph(path)
    assert np.array_equal(loaded.weights, skewed_weighted.weights)


def test_graph_bad_archive(tmp_path):
    path = tmp_path / "bogus.npz"
    np.savez(path, junk=np.zeros(3))
    with pytest.raises(GraphError, match="not a repro graph"):
        load_graph(path)


def test_partition_roundtrip(tmp_path, skewed_graph, skewed_partition):
    path = tmp_path / "p.npz"
    save_partition(skewed_partition, path)
    loaded = load_partition(path, skewed_graph)
    assert np.array_equal(loaded.owner, skewed_partition.owner)
    assert loaded.num_fragments == skewed_partition.num_fragments
    assert loaded.name == skewed_partition.name


def test_partition_wrong_graph_rejected(tmp_path, skewed_partition):
    path = tmp_path / "p.npz"
    save_partition(skewed_partition, path)
    other = rmat(6, 4, seed=0)
    with pytest.raises(PartitionError, match="vertices"):
        load_partition(path, other)


def test_partition_bad_archive(tmp_path, skewed_graph):
    path = tmp_path / "bogus.npz"
    np.savez(path, junk=np.zeros(3))
    with pytest.raises(PartitionError, match="not a repro partition"):
        load_partition(path, skewed_graph)


@pytest.fixture(scope="module")
def small_training_set():
    graphs = [rmat(8, 8, seed=1), road_network(6, 40, seed=2)]
    return collect_training_data(graphs, algorithms=("bfs",),
                                 num_fragments=4)


@pytest.fixture(scope="module")
def small_model(small_training_set):
    model = PolynomialSGDModel(degree=2, epochs=30)
    model.fit(*small_training_set)
    return model


def test_cost_model_roundtrip(tmp_path, small_training_set, small_model):
    features, __ = small_training_set
    path = tmp_path / "model.json"
    save_artifact(small_model, path)
    loaded = load_artifact(path)
    assert np.array_equal(loaded.predict(features),
                          small_model.predict(features))
    assert loaded._degree == 2


def test_cost_model_save_requires_fit(tmp_path):
    with pytest.raises(CostModelError, match="unfitted"):
        save_artifact(PolynomialSGDModel(), tmp_path / "x.json")


def test_cost_model_bad_archive(tmp_path):
    path = tmp_path / "bogus.npz"
    np.savez(path, junk=np.zeros(3))
    with pytest.raises(CostModelError, match="corrupt"):
        load_artifact(path)


def test_loaded_model_usable_in_engine(tmp_path, small_model):
    import repro

    path = tmp_path / "model.json"
    save_artifact(small_model, path)
    loaded = load_artifact(path)
    graph = with_random_weights(rmat(9, 6, seed=3), seed=4)
    result = repro.run(
        graph, "sssp", num_gpus=4, source=0,
        gum_config=repro.GumConfig(cost_model=loaded),
    )
    assert result.converged
