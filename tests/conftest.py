"""Shared builders for small hand-checkable fixtures."""

import numpy as np
import pytest

from gcnfuse import (
    ActivationSample,
    ArchSpec,
    Dense,
    DenseParams,
    Embedding,
    GcnModel,
    Graph,
    GraphConv,
    MeanReadout,
    label_with_model,
    random_model,
)


def make_graph(n, edges=(), values=None, feature_dim=1, target=None):
    if values is not None:
        feats = np.asarray(values, dtype=float).reshape(n, -1)
    else:
        feats = np.zeros((n, feature_dim))
    return Graph(num_vertices=n, edges=tuple(edges), features=feats, target=target)


def path_graph(n, feature_dim=1):
    return make_graph(n, edges=[(i, i + 1) for i in range(n - 1)], feature_dim=feature_dim)


def graph_values(values, edges=()):
    """(graph, values): one neuron's value at each vertex of a graph with these edges."""
    values = np.asarray(values, dtype=float)
    return make_graph(values.size, edges=edges), values


def sample_from_graphs(batch, values):
    """A per-vertex ActivationSample from one (n, width) array per batch graph, in batch order."""
    return ActivationSample(batch=batch, values=tuple(
        np.stack([values[k] for k in b.index]) for b in batch.layout))


def graph_capture(acts, k):
    """Batch graph k's (n, width) values in a per-vertex ActivationSample."""
    for bucket, stack in zip(acts.batch.layout, acts.values):
        if k in bucket.index:
            return stack[np.flatnonzero(bucket.index == k)[0]]
    raise IndexError(f"batch position {k} is in no bucket")


def single_vertex_graphs(xs, targets=None):
    """One-vertex edgeless graphs (the MLP input shape)."""
    graphs = []
    for i, x in enumerate(xs):
        t = None if targets is None else targets[i]
        graphs.append(make_graph(1, values=[list(np.atleast_1d(x))], target=t))
    return graphs


def tiny_gcn(weight, bias, head_weight=None, bn=None):
    """GraphConv(+optional BN) -> readout -> linear head, 1-d throughout."""
    layers = [GraphConv(params=DenseParams(weight=weight, bias=bias), batch_norm=bn),
              MeanReadout(),
              Dense(params=DenseParams(weight=head_weight if head_weight is not None else [[1.0]]),
                    activation="none")]
    return GcnModel(layers=tuple(layers))


def constant_model(value, feature_dim=1):
    """MLP predicting `value` on any single-vertex input."""
    return GcnModel(layers=(
        Embedding(params=DenseParams(weight=np.zeros((1, feature_dim)))),
        Dense(params=DenseParams(weight=[[0.0]], bias=[float(value)]), activation="none"),
    ))


def assert_models_equal(m1, m2):
    assert len(m1.layers) == len(m2.layers)
    for l1, l2 in zip(m1.layers, m2.layers):
        assert type(l1) is type(l2)
        if isinstance(l1, MeanReadout):
            continue
        assert l1.activation == l2.activation
        assert np.array_equal(l1.params.weight, l2.params.weight)
        if l1.params.bias is None:
            assert l2.params.bias is None
        else:
            assert np.array_equal(l1.params.bias, l2.params.bias)
        bn1, bn2 = l1.batch_norm, l2.batch_norm
        assert (bn1 is None) == (bn2 is None)
        if bn1 is not None:
            assert np.array_equal(bn1.gamma, bn2.gamma)
            assert np.array_equal(bn1.beta_shift, bn2.beta_shift)
            assert np.array_equal(bn1.running_mean, bn2.running_mean)
            assert np.array_equal(bn1.running_var, bn2.running_var)
            assert bn1.epsilon == bn2.epsilon


@pytest.fixture
def small_regression_setup():
    """A labeled dataset plus a small BN GCN used across fusion tests."""
    from gcnfuse import GeneratorSpec, synthesize_dataset

    gen = GeneratorSpec(count=60, min_vertices=3, max_vertices=6,
                        edge_density=0.4, feature_dim=4)
    dataset = synthesize_dataset(gen, seed=11)
    spec = ArchSpec(feature_dim=4, hidden_dim=6, gc_layers=1, dense_layers=2, batch_norm=True)
    model = random_model(spec, seed=3, name="a")
    return label_with_model(model, dataset), model
