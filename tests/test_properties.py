"""Property tests over random architectures (hypothesis, derandomized)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gcnfuse import (
    ArchSpec,
    FusionConfig,
    GeneratorSpec,
    forward,
    fuse,
    label_with_model,
    permute_model,
    random_model,
    synthesize_dataset,
)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    hidden=st.integers(1, 6),
    batch_norm=st.booleans(),
    gc_layers=st.integers(0, 3),  # 0 builds an MLP on single-vertex graphs
    dense_layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_emd_fusion_recovers_planted_permutation(hidden, batch_norm, gc_layers,
                                                 dense_layers, seed):
    spec = ArchSpec(feature_dim=3, hidden_dim=hidden, gc_layers=gc_layers,
                    dense_layers=dense_layers, batch_norm=batch_norm)
    model = random_model(spec, seed=seed)
    max_vertices = 5 if gc_layers else 1
    gen = GeneratorSpec(count=12, min_vertices=1, max_vertices=max_vertices,
                        edge_density=0.5 if gc_layers else 0.0, feature_dim=3)
    dataset = label_with_model(model, synthesize_dataset(gen, seed=seed + 1))
    rng = np.random.default_rng(seed + 2)
    hidden_layers = model.parameterized_indices()[:-1]
    perms = [rng.permutation(model.layers[i].params.out_dim) for i in hidden_layers]
    twin = permute_model(model, perms)

    fused, trace = fuse(model, twin, dataset, FusionConfig(sample_size=8, seed=seed))

    # row perm[k] of A became row k of B, so A's neuron perm[k] goes to column k
    for layer, perm in zip(trace.layers, perms):
        expected = np.zeros((perm.size, perm.size))
        expected[perm, np.arange(perm.size)] = 1.0 / perm.size
        assert np.array_equal(layer.plan.coupling, expected)
    assert trace.layers[-1].is_identity
    for g in dataset.graphs:
        a, f = forward(model, g), forward(fused, g)
        assert abs(f - a) <= 1e-9 * max(abs(a), 1e-12)
