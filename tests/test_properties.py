"""Property tests over random architectures, datasets and transport instances (hypothesis, derandomized)."""

import tempfile
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from gcnfuse import (
    ArchSpec,
    BatchNormParams,
    CostSpec,
    DenseParams,
    Dataset,
    FgwCostSpec,
    FgwProblem,
    FusionConfig,
    GeneratorSpec,
    Graph,
    MeanReadout,
    SinkhornParams,
    TransportPlan,
    align_batchnorm,
    align_layer_incoming,
    align_layer_outgoing,
    build_cost_matrix,
    emd,
    fgw_distance,
    forward_with_capture,
    fuse,
    label_with_model,
    load_dataset,
    load_model,
    permute_model,
    predict,
    random_model,
    sample_batch,
    save_model,
    sinkhorn_unbalanced,
    synthesize_dataset,
    uniform_weights,
    write_dataset,
)
from gcnfuse import costs, ot
from gcnfuse.graphs import bucket_layout
from conftest import graph_capture, sample_from_graphs
from oracles import (checked_align_batchnorm, checked_align_layer_incoming,
                     checked_align_layer_outgoing, checked_emd, checked_identity_plan,
                     checked_permute_model, dense_align_batchnorm, dense_align_incoming,
                     dense_align_outgoing, dense_fgw_distance, gather_permute_model, pairwise_fgw,
                     per_graph_adjacency, per_graph_forward, permutation_order_by_sums, qe_matrix,
                     whole_bucket_efd)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    dim=st.integers(1, 8),
    rows=st.integers(1, 20),
    gamma_exp=st.floats(-3, 3),
    var_exp=st.floats(-8, 6),
    epsilon=st.sampled_from([0.0, 1e-5, 1e-3]),
    mean_exp=st.floats(-3, 3),
    spread_exp=st.floats(-10, 3),
    seed=st.integers(0, 2**16),
)
def test_folded_batch_norm_is_the_textbook_formula_to_rounding(dim, rows, gamma_exp, var_exp,
                                                               epsilon, mean_exp, spread_exp, seed):
    """x * scale + shift against gamma * (x - mean) / sqrt(var + eps) + beta.

    Each side rounds each term a few times: the folded scale carries at most
    3.5 units in the last place (u = eps / 2), x * scale and mean * scale one
    more each, and the two sums one each; the written-out formula about as
    many. Both errors scale with the terms' magnitudes, not with the output,
    which cancels when x is near the mean. So the stated bound is
    8 * eps * (|scale| * (|x| + |mean|) + |beta|), 16 u, with margin over the
    roughly 12 u the count gives.
    """
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], size=(3, dim))
    bn = BatchNormParams(gamma=signs[0] * 10.0 ** (gamma_exp + rng.uniform(-1, 1, dim)),
                         beta_shift=signs[1] * 10.0 ** (mean_exp + rng.uniform(-1, 1, dim)),
                         running_mean=signs[2] * 10.0 ** (mean_exp + rng.uniform(-1, 1, dim)),
                         running_var=10.0 ** (var_exp + rng.uniform(-1, 1, dim)),
                         epsilon=epsilon)
    # rows near the running mean, where the written-out (x - mean) cancels
    x = bn.running_mean + 10.0 ** spread_exp * rng.standard_normal((rows, dim))
    reference = (bn.gamma * (x - bn.running_mean) / np.sqrt(bn.running_var + bn.epsilon)
                 + bn.beta_shift)
    magnitude = np.abs(bn.scale) * (np.abs(x) + np.abs(bn.running_mean)) + np.abs(bn.beta_shift)
    assert np.all(np.abs(x * bn.scale + bn.shift - reference) <= 8 * np.finfo(float).eps * magnitude)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["uniform", "masses", "identity", "soft", "massless", "wide",
                          "shared-column"]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@example(kind="uniform", n=1, seed=0)
@example(kind="massless", n=1, seed=0)
@example(kind="soft", n=1, seed=0)
def test_permutation_order_equals_the_sums_reference(kind, n, seed):
    # a permutation plan's order is read from its nonzeros; the sums and argmax give the same
    rng = np.random.default_rng(seed)
    if kind == "wide":  # one nonzero per row, but a column left empty
        plan = TransportPlan(coupling=np.eye(n, n + 1)[:, rng.permutation(n + 1)], objective=0.0)
    elif kind == "shared-column":  # n nonzeros, one per row, two of them in one column
        cols = rng.permutation(n)
        cols[0] = cols[-1]
        plan = TransportPlan(coupling=np.eye(n)[cols] / n, objective=0.0)
    else:
        plan = _drawn_plan(kind, n, rng)
    order, want = plan.as_permutation(), permutation_order_by_sums(plan.coupling)
    if want is None:
        assert order is None
    else:
        assert _bits(order) == _bits(want) and not order.flags.writeable


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
        a, f = predict(model, (g,))[0], predict(fused, (g,))[0]
        assert abs(f - a) <= 1e-9 * max(abs(a), 1e-12)


def _histogram(rng, n):
    w = rng.random(n) + 0.1
    return w / w.sum()


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    route=st.sampled_from(["uniform_square", "uniform_rectangular", "non_uniform"]),
    n=st.integers(1, 7),
    m=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_emd_plan_keeps_marginals(route, n, m, seed):
    rng = np.random.default_rng(seed)
    if route == "uniform_square":
        m = n
    elif route == "uniform_rectangular" and m == n:
        m = n + 1 if n < 7 else n - 1
    if route == "non_uniform":
        a, b = _histogram(rng, n), _histogram(rng, m)
    else:
        a, b = uniform_weights(n), uniform_weights(m)
    C = rng.random((n, m)) * 10.0

    plan = emd(a, b, C)

    assert np.all(plan.coupling >= 0)
    assert np.max(np.abs(plan.coupling.sum(axis=1) - a)) <= 1e-9
    assert np.max(np.abs(plan.coupling.sum(axis=0) - b)) <= 1e-9
    assert plan.objective == float(np.sum(plan.coupling * C))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    n=st.integers(1, 7),
    m=st.integers(1, 7),
    cost_scale=st.sampled_from([1.0, 1000.0]),
    relative_epsilon=st.sampled_from([5e-5, 1e-3, 1e-1, 1.0]),
    rho=st.sampled_from([1e-2, 1.0, 1e3]),
    uniform=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_sinkhorn_plan_is_finite_and_certified(n, m, cost_scale, relative_epsilon, rho,
                                                uniform, seed):
    rng = np.random.default_rng(seed)
    if uniform:
        a, b = uniform_weights(n), uniform_weights(m)
    else:
        a, b = _histogram(rng, n), _histogram(rng, m)
    C = rng.random((n, m)) * cost_scale
    params = SinkhornParams(epsilon=relative_epsilon * cost_scale, rho_alpha=rho, rho_beta=rho)

    # a cap keeps a slow solve from stalling the suite; it then reports converged=False
    with mock.patch.object(ot, "_SINKHORN_MAX_ITERS", 500):
        plan = sinkhorn_unbalanced(a, b, C, params)

    assert np.all(np.isfinite(plan.coupling)) and np.all(plan.coupling >= 0)
    if plan.converged:
        assert plan.gap <= ot._SINKHORN_TOL


def _bits(arr):
    return None if arr is None else (arr.dtype, arr.shape, arr.tobytes())


def _layer_bits(layer):
    """Every array and scalar a layer carries, as exact bytes."""
    params = getattr(layer, "params", None)
    bn = getattr(layer, "batch_norm", None)
    return (
        type(layer).__name__,
        getattr(layer, "activation", None),
        None if params is None else (_bits(params.weight), _bits(params.bias)),
        None if bn is None else (_bits(bn.gamma), _bits(bn.beta_shift), _bits(bn.running_mean),
                                 _bits(bn.running_var), bn.epsilon),
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    feature_dim=st.integers(1, 4),
    hidden=st.integers(1, 64),
    batch_norm=st.booleans(),
    gc_layers=st.integers(0, 2),  # 0 builds an MLP
    dense_layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
# at width 49, (1/49) * 49 != 1.0: a plan scaled by multiplication would not be exact
@example(feature_dim=2, hidden=49, batch_norm=True, gc_layers=1, dense_layers=2, seed=0)
def test_permute_model_equals_gather_reference(feature_dim, hidden, batch_norm, gc_layers,
                                               dense_layers, seed):
    # permute_model aligns by permutation plans; every value must come out as the gathers give it
    spec = ArchSpec(feature_dim=feature_dim, hidden_dim=hidden, gc_layers=gc_layers,
                    dense_layers=dense_layers, batch_norm=batch_norm)
    model = random_model(spec, seed=seed, name="m")
    rng = np.random.default_rng(seed + 1)
    perms = [rng.permutation(model.layers[i].params.out_dim)
             for i in model.parameterized_indices()[:-1]]

    permuted = permute_model(model, perms)
    reference = gather_permute_model(model, perms)

    assert [_layer_bits(l) for l in permuted.layers] == [_layer_bits(l) for l in reference.layers]
    assert (permuted.name, permuted.seed) == (reference.name, reference.seed)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(permuted, Path(tmp) / "permuted.json")
        save_model(reference, Path(tmp) / "reference.json")
        assert ((Path(tmp) / "permuted.json").read_bytes()
                == (Path(tmp) / "reference.json").read_bytes())


def _drawn_plan(kind: str, n: int, rng) -> TransportPlan:
    """A permutation-support plan (uniform, any positive masses, identity) or a soft one."""
    if kind in ("uniform", "masses", "identity"):
        T = np.zeros((n, n))
        cols = np.arange(n) if kind == "identity" else rng.permutation(n)
        masses = 10.0 ** rng.uniform(-12, 3, n) if kind == "masses" else np.full(n, 1.0 / n)
        T[np.arange(n), cols] = masses
    else:
        T = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        if kind == "massless":  # as unbalanced Sinkhorn can leave an anchor neuron
            T[:, rng.integers(n)] = 0.0
    return TransportPlan(coupling=T, objective=0.0)


def _nonzero(rng, *shape):
    """Finite nonzero values over many magnitudes, both signs."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["uniform", "masses", "identity", "soft", "massless"]),
    n=st.integers(1, 12),
    other=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
# at width 49, (1/49) * 49 != 1.0: only the division by each column's mass gives exact ones
@example(kind="uniform", n=49, other=3, seed=0)
def test_alignment_primitives_equal_the_dense_reference(kind, n, other, seed):
    # a permutation plan is moved by index and any other one by T / beta; both give the dense bits
    rng = np.random.default_rng(seed)
    plan = _drawn_plan(kind, n, rng)
    incoming = DenseParams(weight=_nonzero(rng, other, n), bias=_nonzero(rng, other))
    outgoing = DenseParams(weight=_nonzero(rng, n, other), bias=_nonzero(rng, n))
    bn = BatchNormParams(gamma=_nonzero(rng, n), beta_shift=_nonzero(rng, n),
                         running_mean=_nonzero(rng, n), running_var=np.abs(_nonzero(rng, n)))
    pairs = [
        (align_layer_incoming(incoming, plan), dense_align_incoming(incoming, plan)),
        (align_layer_outgoing(outgoing, plan), dense_align_outgoing(outgoing, plan)),
        (align_batchnorm(bn, plan), dense_align_batchnorm(bn, plan)),
    ]
    for got, want in pairs:
        for f in fields(got):
            x, y = getattr(got, f.name), getattr(want, f.name)
            if isinstance(x, np.ndarray):
                # C order too: a product's kernel, so its bits, follow the layout
                assert x.flags.c_contiguous and x.shape == y.shape and x.tobytes() == y.tobytes()
            else:
                assert x == y


def _state(obj):
    """vars(obj) as exact values: each array's dtype, shape, bytes, read-only flag and C order;
    each float's hex (so -0.0 is not 0.0); anything else as it is."""
    def exact(v):
        if isinstance(v, np.ndarray):
            return v.dtype, v.shape, v.tobytes(), v.flags.writeable, v.flags.c_contiguous
        return float.hex(v) if isinstance(v, float) else v
    return None if obj is None else [(k, exact(v)) for k, v in vars(obj).items()]


def _with_signed_zeros(record, rng):
    """The record rebuilt by its constructor with about a third of every vector entry set to -0.0."""
    def signed(x):
        return np.where(rng.random(x.shape) < 0.3, -0.0, x) if isinstance(x, np.ndarray) else x
    return replace(record, **{f.name: signed(getattr(record, f.name)) for f in fields(record)})


def _assert_rebuilds_identically(record):
    # the checking constructor accepts a record that skipped it and gives the same values
    rebuilt = type(record)(**{f.name: getattr(record, f.name) for f in fields(record)})
    assert _state(rebuilt) == _state(record)


def _drawn_mass(style: str, n: int, rng):
    """Row masses for a permutation plan: uniform (a scalar or a vector), spread, or holding zeros."""
    if style == "scalar":
        return 1.0 / n
    mass = uniform_weights(n) if style == "uniform" else 10.0 ** rng.uniform(-12, 3, n)
    if style in ("zero", "signed-zero"):
        mass[rng.integers(n)] = 0.0 if style == "zero" else -0.0
    return mass


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    style=st.sampled_from(["real", "integer", "signed-zero", "flat", "lp"]),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**16),
)
# at width 49, (1/49) * 49 != 1.0
@example(style="real", n=49, seed=0)
@example(style="signed-zero", n=3, seed=1)
def test_emd_plan_equals_the_checked_reference(style, n, seed):
    # a uniform square plan is built once from its columns and checked from them; an LP plan
    # still goes through the constructor; both carry the checked reference's every bit
    rng = np.random.default_rng(seed)
    a = b = uniform_weights(n)
    if style == "lp":  # non-uniform masses: the LP route
        n = min(n, 6)
        a, b = _histogram(rng, n), _histogram(rng, n)
    C = {"real": lambda: rng.random((n, n)) * 10.0,
         "integer": lambda: rng.integers(0, 3, (n, n)).astype(float),  # ties
         "signed-zero": lambda: np.where(rng.random((n, n)) < 0.5, -0.0, rng.random((n, n))),
         "flat": lambda: np.zeros((n, n)),  # every assignment ties
         "lp": lambda: rng.random((n, n))}[style]()

    plan, want = emd(a, b, C), checked_emd(a, b, C)

    assert _state(plan) == _state(want)
    if style != "lp":  # the assignment route: a (1/n)-scaled permutation, so it has an order
        assert plan.as_permutation() is not None


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    style=st.sampled_from(["scalar", "uniform", "spread", "zero", "signed-zero"]),
    n=st.integers(1, 64),
    cost=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(style="uniform", n=49, cost=True, seed=0)
@example(style="zero", n=1, cost=False, seed=0)
def test_permutation_plans_equal_the_checking_constructor(style, n, cost, seed):
    # identity_plan and the private constructor give the constructor's coupling, objective and
    # order; a zero mass (either sign) leaves no permutation order
    rng = np.random.default_rng(seed)
    cols, mass = rng.permutation(n), _drawn_mass(style, n, rng)
    C = rng.random((n, n)) if cost else None
    T = ot._permutation_coupling(cols, mass)
    checked = TransportPlan(coupling=T, objective=0.0 if C is None else float(np.sum(T * C)))

    plan = TransportPlan._permutation(cols.copy(), mass, C)

    assert _state(plan) == _state(checked)
    massless = style in ("zero", "signed-zero")
    assert (plan.as_permutation() is None) == massless
    if style != "scalar":
        identity = ot.identity_plan(mass)
        assert _state(identity) == _state(checked_identity_plan(mass))
        assert (identity.as_permutation() is None) == massless


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    feature_dim=st.integers(1, 4),
    hidden=st.integers(1, 64),
    batch_norm=st.booleans(),
    gc_layers=st.integers(0, 2),  # 0 builds an MLP
    dense_layers=st.integers(1, 3),
    signed_zeros=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(feature_dim=2, hidden=49, batch_norm=True, gc_layers=1, dense_layers=2,
         signed_zeros=True, seed=0)
def test_permute_model_equals_the_checked_reference(feature_dim, hidden, batch_norm, gc_layers,
                                                    dense_layers, signed_zeros, seed):
    # records gathered by permutation plans carry every byte, flag and vars() key, the folded
    # scale and shift included, that the constructors give when they check and fold again
    spec = ArchSpec(feature_dim=feature_dim, hidden_dim=hidden, gc_layers=gc_layers,
                    dense_layers=dense_layers, batch_norm=batch_norm)
    model = random_model(spec, seed=seed, name="m")
    rng = np.random.default_rng(seed + 1)
    if signed_zeros:
        model = replace(model, layers=tuple(
            l if isinstance(l, MeanReadout) else replace(
                l, params=_with_signed_zeros(l.params, rng),
                batch_norm=None if l.batch_norm is None else _with_signed_zeros(l.batch_norm, rng))
            for l in model.layers))
    perms = [rng.permutation(model.layers[i].params.out_dim)
             for i in model.parameterized_indices()[:-1]]

    permuted, want = permute_model(model, perms), checked_permute_model(model, perms)

    assert (permuted.name, permuted.seed) == (want.name, want.seed)
    kind = lambda layer: (type(layer), getattr(layer, "activation", None))
    for got, ref in zip(permuted.layers, want.layers):
        assert kind(got) == kind(ref)
        for part in ("params", "batch_norm"):
            record = getattr(got, part, None)
            assert _state(record) == _state(getattr(ref, part, None))
            if record is not None:
                _assert_rebuilds_identically(record)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["emd", "uniform", "masses", "identity", "soft", "massless"]),
    n=st.integers(1, 64),
    other=st.integers(1, 5),
    signed_zeros=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(kind="emd", n=49, other=3, signed_zeros=True, seed=0)
def test_alignment_primitives_equal_the_checked_reference(kind, n, other, signed_zeros, seed):
    # a permutation plan gathers the record unchecked, a soft one rebuilds it through the
    # constructor; either way every byte, flag and vars() key is the checked reference's
    rng = np.random.default_rng(seed)
    plan = (emd(uniform_weights(n), uniform_weights(n), rng.random((n, n))) if kind == "emd"
            else _drawn_plan(kind, n, rng))
    records = [DenseParams(weight=_nonzero(rng, other, n), bias=_nonzero(rng, other)),
               DenseParams(weight=_nonzero(rng, n, other), bias=_nonzero(rng, n)),
               BatchNormParams(gamma=_nonzero(rng, n), beta_shift=_nonzero(rng, n),
                               running_mean=_nonzero(rng, n), running_var=np.abs(_nonzero(rng, n)))]
    if signed_zeros:
        records = [_with_signed_zeros(r, rng) for r in records]
    incoming, outgoing, bn = records
    pairs = [
        (align_layer_incoming(incoming, plan), checked_align_layer_incoming(incoming, plan)),
        (align_layer_outgoing(outgoing, plan), checked_align_layer_outgoing(outgoing, plan)),
        (align_batchnorm(bn, plan), checked_align_batchnorm(bn, plan)),
    ]
    for got, want in pairs:
        assert _state(got) == _state(want)
        _assert_rebuilds_identically(got)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    hidden=st.integers(1, 6),
    batch_norm=st.booleans(),
    gc_layers=st.integers(0, 3),
    dense_layers=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    name=st.text(max_size=8),
)
def test_model_file_round_trip_is_exact(hidden, batch_norm, gc_layers, dense_layers, seed, name):
    spec = ArchSpec(feature_dim=3, hidden_dim=hidden, gc_layers=gc_layers,
                    dense_layers=dense_layers, batch_norm=batch_norm)
    model = random_model(spec, seed=seed, name=name)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        loaded = load_model(path)

    assert loaded.name == model.name and loaded.seed == model.seed
    assert loaded.same_architecture(model)
    assert [_layer_bits(l) for l in loaded.layers] == [_layer_bits(l) for l in model.layers]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    count=st.integers(1, 12),
    min_vertices=st.integers(1, 5),
    extra_vertices=st.integers(0, 4),
    edge_density=st.floats(0.0, 1.0),
    feature_dim=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_dataset_file_round_trip_is_exact(count, min_vertices, extra_vertices, edge_density,
                                          feature_dim, seed):
    spec = GeneratorSpec(count=count, min_vertices=min_vertices,
                         max_vertices=min_vertices + extra_vertices,
                         edge_density=edge_density, feature_dim=feature_dim)
    dataset = synthesize_dataset(spec, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.jsonl"
        write_dataset(dataset, path)
        loaded = load_dataset(path)

    assert loaded.feature_dim == dataset.feature_dim
    assert len(loaded.graphs) == len(dataset.graphs)
    for got, want in zip(loaded.graphs, dataset.graphs):
        assert got.num_vertices == want.num_vertices
        assert got.edges == want.edges
        assert _bits(got.features) == _bits(want.features)
        assert got.target == want.target


def _captured(acts, k):
    """Graph k's capture of every layer."""
    return {i: graph_capture(s, k) if s.is_graph_valued else s.values[k]
            for i, s in acts.items()}


def _captured_bits(acts, k):
    """Graph k's capture of every layer, as exact bytes."""
    return {i: _bits(v) for i, v in _captured(acts, k).items()}


def _close(got, want):
    """Equal shapes, and every entry within 1e-12 of max(1, the largest |want| entry)."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return got.shape == want.shape and float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


def _all_close(got: dict, want: dict):
    return got.keys() == want.keys() and all(_close(got[i], want[i]) for i in want)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    arch=st.sampled_from(["gcn", "gcn+bn", "mlp", "mlp+bn"]),
    capture_point=st.sampled_from(["pre_bn", "post_bn"]),
    hidden=st.sampled_from([4, 64, 256]),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=14),
    edge_density=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_batched_forward_equals_per_graph_oracle(arch, capture_point, hidden, sizes, edge_density,
                                                 seed):
    rng = np.random.default_rng(seed)
    mlp = arch.startswith("mlp")
    spec = ArchSpec(feature_dim=3, hidden_dim=hidden, gc_layers=0 if mlp else 2, dense_layers=2,
                    batch_norm=arch.endswith("+bn"))
    model = random_model(spec, seed=seed)
    graphs = []
    for n in [1] * len(sizes) if mlp else sizes:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_density]
        graphs.append(Graph(num_vertices=n, edges=tuple(edges),
                            features=rng.standard_normal((n, 3))))
    batch = Dataset(graphs=tuple(graphs), feature_dim=3)

    preds, acts = forward_with_capture(model, batch, capture_point)

    # the same batch gives the same bits, whichever entry point and however often
    assert _bits(predict(model, graphs)) == _bits(preds)
    preds_again, acts_again = forward_with_capture(model, batch, capture_point)
    assert _bits(preds_again) == _bits(preds)
    for k in range(len(graphs)):
        assert _captured_bits(acts_again, k) == _captured_bits(acts, k)
    # a Dataset's kept layout, read twice, and one built for a fresh tuple give the same bits
    dataset = Dataset(graphs=tuple(graphs), feature_dim=3)
    for again in (dataset, dataset, tuple(graphs)):
        assert _bits(predict(model, again)) == _bits(preds)
    for bucket in batch.layout:
        for k, adjacency in zip(bucket.index, bucket.adjacency):
            assert _bits(adjacency) == _bits(per_graph_adjacency(graphs[k]))
    # BLAS picks its kernels by shape, so a graph's bits depend on its batch;
    # a batch agrees with the one-graph-at-a-time oracle to rounding
    for k, g in enumerate(graphs):
        assert _bits(bucket_layout((g,))[0].adjacency[0]) == _bits(per_graph_adjacency(g))
        pred, captures = per_graph_forward(model, g, capture_point)
        assert _bits(np.float64(predict(model, (g,))[0])) == _bits(np.float64(pred))
        assert _close(preds[k], pred)
        assert _all_close(_captured(acts, k), captures)
    # another order, and a smaller batch
    for picked in (rng.permutation(len(graphs)), rng.permutation(len(graphs))[:len(graphs) // 2]):
        if picked.size == 0:
            continue
        preds_other, acts_other = forward_with_capture(
            model, Dataset(graphs=tuple(graphs[k] for k in picked), feature_dim=3), capture_point)
        assert _close(preds_other, preds[picked])
        for pos, k in enumerate(picked):
            assert _all_close(_captured(acts_other, pos), _captured(acts, k))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    arch=st.sampled_from(["gcn", "gcn+bn", "mlp", "mlp+bn"]),
    capture_point=st.sampled_from(["pre_bn", "post_bn"]),
    hidden=st.sampled_from([4, 64, 256]),
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=14),
    edge_density=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_folded_forward_equals_layer_by_layer_reference(arch, capture_point, hidden, sizes,
                                                        edge_density, seed):
    # the evaluator multiplies the features by W1 @ W_emb; the reference forms the embedding's
    # output, aggregates it and multiplies by W1, so the fold is checked against the unfolded math
    rng = np.random.default_rng(seed)
    mlp = arch.startswith("mlp")
    spec = ArchSpec(feature_dim=3, hidden_dim=hidden, gc_layers=0 if mlp else 2, dense_layers=2,
                    batch_norm=arch.endswith("+bn"))
    model = random_model(spec, seed=seed)
    graphs = []
    for n in [1] * len(sizes) if mlp else sizes:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_density]
        graphs.append(Graph(num_vertices=n, edges=tuple(edges),
                            features=rng.standard_normal((n, 3))))
    batch = Dataset(graphs=tuple(graphs), feature_dim=3)

    preds, acts = forward_with_capture(model, batch, capture_point)

    assert _bits(predict(model, batch)) == _bits(preds)
    for k, g in enumerate(graphs):
        pred, captures = per_graph_forward(model, g, capture_point, fold=False)
        assert _close(preds[k], pred)
        assert _all_close(_captured(acts, k), captures)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    arch=st.sampled_from(["gcn", "gcn+bn", "mlp+bn"]),
    capture_point=st.sampled_from(["pre_bn", "post_bn"]),
    sizes=st.lists(st.integers(1, 7), min_size=1, max_size=10),
    edge_density=st.sampled_from([0.0, 0.4, 1.0]),
    lam=st.sampled_from([0.0, 0.2, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_qe_from_buckets_equals_per_edge_oracle(arch, capture_point, sizes, edge_density, lam,
                                                seed):
    rng = np.random.default_rng(seed)
    mlp = arch.startswith("mlp")
    spec = ArchSpec(feature_dim=3, hidden_dim=5, gc_layers=0 if mlp else 2, dense_layers=2,
                    batch_norm=arch.endswith("+bn"))
    graphs = []
    for k, n in enumerate([1] * len(sizes) if mlp else sizes):
        linked = n - k % 2  # in every other graph the last vertex stays isolated
        edges = [(u, v) for u in range(linked) for v in range(u + 1, linked)
                 if rng.random() < edge_density]
        graphs.append(Graph(num_vertices=n, edges=tuple(edges),
                            features=rng.standard_normal((n, 3))))
    batch = Dataset(graphs=tuple(graphs), feature_dim=3)
    _, acts_a = forward_with_capture(random_model(spec, seed=seed), batch, capture_point)
    _, acts_b = forward_with_capture(random_model(spec, seed=seed + 1), batch, capture_point)
    cost = CostSpec(kind="qe", lam=lam)
    for i in (i for i, sample in acts_a.items() if sample.is_graph_valued):
        values_a = [graph_capture(acts_a[i], k) for k in range(len(graphs))]
        values_b = [graph_capture(acts_b[i], k) for k in range(len(graphs))]
        np.testing.assert_allclose(build_cost_matrix(acts_a[i], acts_b[i], cost),
                                   qe_matrix(graphs, values_a, values_b, lam), rtol=1e-12, atol=0)
        # copies of A's neurons in reverse order, in arrays of their own
        copies = [np.array(v[:, ::-1]) for v in values_a]
        C = build_cost_matrix(acts_a[i], sample_from_graphs(batch, copies), cost)
        np.testing.assert_allclose(C, qe_matrix(graphs, values_a, copies, lam), rtol=1e-12, atol=0)
        if lam == 0.0 or not any(g.edges for g in graphs):
            assert np.all(np.diag(C[:, ::-1]) == 0.0)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    # (na, nb): a chunk holds 512, 10, 2 or 1 graphs, and one 400 x 400 graph exceeds it
    widths=st.sampled_from([(16, 16), (128, 96), (256, 256), (300, 64), (400, 400)]),
    counts=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    lam=st.sampled_from([0.2, 1.0]),
    seed=st.integers(0, 2**16),
)
@example(widths=(256, 256), counts=[1, 2, 5, 9], lam=0.2, seed=0)
@example(widths=(400, 400), counts=[3, 1], lam=1.0, seed=1)
def test_streamed_efd_equals_whole_bucket_oracle(widths, counts, lam, seed):
    """The chunked EFD build gives the whole-bucket stack's bits, chunk boundaries included."""
    rng = np.random.default_rng(seed)
    na, nb = widths
    step = max(1, costs._EFD_CHUNK // (na * nb))
    graphs, values_a, values_b = [], [], []
    for n, count in enumerate(counts, start=1):  # bucket n: count graphs of n vertices
        for g in range(count):
            a = rng.standard_normal((n, na)) * 10.0 ** rng.integers(-3, 4)
            b = rng.standard_normal((n, nb)) * 10.0 ** rng.integers(-3, 4)
            if g % step in (0, step - 1) or g == count - 1 or rng.random() < 0.3:
                # a chunk's first or last graph: a duplicated neuron, a near-duplicate
                # and all-zero columns on both sides
                b[:, 0] = a[:, -1]
                b[:, 1] = a[:, 0] * (1.0 + 1e-9)
                a[:, 1] = 0.0
                b[:, 2] = 0.0
            graphs.append(Graph(num_vertices=n, edges=(), features=np.zeros((n, 1))))
            values_a.append(a)
            values_b.append(b)
    batch = Dataset(graphs=tuple(graphs), feature_dim=1)
    acts_a, acts_b = sample_from_graphs(batch, values_a), sample_from_graphs(batch, values_b)
    C = build_cost_matrix(acts_a, acts_b, CostSpec(kind="efd", lam=lam))
    assert _bits(C) == _bits(whole_bucket_efd(acts_a, acts_b, lam))
    if all(np.array_equal(b[:, 0], a[:, -1]) for a, b in zip(values_a, values_b)):
        assert C[-1, 0] == 0.0  # A's last neuron is B's first on every graph


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=16),
    feature_dim=st.integers(1, 4),
    edge_density=st.sampled_from([0.0, 0.4, 1.0]),
    middle=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@example(sizes=list(range(1, 10)) * 2, feature_dim=3, edge_density=0.4, middle=0.3, seed=0)
def test_sampled_batch_gathers_the_bits_bucket_layout_builds(sizes, feature_dim, edge_density,
                                                               middle, seed):
    """A sampled batch's layout, gathered from its dataset's, is the one its graphs would build.

    Sample sizes 1, a middle k and the whole dataset leave some vertex counts out of the
    batch and shuffle the rest; captures and every activation cost keep their bits too.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    for n in sizes:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_density]
        graphs.append(Graph(num_vertices=n, edges=tuple(edges),
                            features=rng.standard_normal((n, feature_dim))))
    dataset = Dataset(graphs=tuple(graphs), feature_dim=feature_dim)
    spec = ArchSpec(feature_dim=feature_dim, hidden_dim=3, gc_layers=2, dense_layers=1,
                    batch_norm=True)
    model_a, model_b = random_model(spec, seed=seed), random_model(spec, seed=seed + 1)
    for k in (1, 1 + round(middle * (len(dataset) - 1)), len(dataset)):
        batch = sample_batch(dataset, k, seed)
        # a sub-dataset of the parent's own graphs and feature_dim
        assert isinstance(batch, Dataset) and batch.feature_dim == dataset.feature_dim
        assert len({id(g) for g in batch.graphs} & {id(g) for g in dataset.graphs}) == k
        for sample in (batch, sample_batch(batch, 1 + k // 2, seed + 1)):  # and sampled again
            built = bucket_layout(sample.graphs)
            assert len(sample.layout) == len(built)
            for got, want in zip(sample.layout, built):
                for name in ("index", "features", "links", "adjacency"):
                    g, w = getattr(got, name), getattr(want, name)
                    assert (_bits(g), g.flags.writeable) == (_bits(w), w.flags.writeable)
        plain = Dataset(graphs=batch.graphs, feature_dim=feature_dim)
        captures = []  # (the sampled batch's, the plain batch's) per model
        for model in (model_a, model_b):
            (preds, acts), (plain_preds, plain_acts) = (forward_with_capture(model, b)
                                                        for b in (batch, plain))
            assert _bits(preds) == _bits(plain_preds)
            for pos in range(k):
                assert _captured_bits(acts, pos) == _captured_bits(plain_acts, pos)
            captures.append((acts, plain_acts))
        (acts_a, plain_a), (acts_b, plain_b) = captures
        for i in (i for i, sample in acts_a.items() if sample.is_graph_valued):
            for cost in (CostSpec(kind="efd"), CostSpec(kind="qe"),
                         CostSpec(kind="fgw", fgw=FgwCostSpec())):
                assert (_bits(build_cost_matrix(acts_a[i], acts_b[i], cost))
                        == _bits(build_cost_matrix(plain_a[i], plain_b[i], cost)))


def _fgw_graph(kind, n):
    """A graph of n vertices; n = 1 gives the single vertex whatever the kind."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {
        "cycle": [(u, (u + 1) % n) for u in range(n)] if n >= 3 else pairs,
        "complete": pairs,
        "star": [(0, v) for v in range(1, n)],
        "path": [(u, u + 1) for u in range(n - 1)],
        # two paths with no edge between them
        "disconnected": [(u, u + 1) for u in range(n - 1) if u != n // 2 - 1],
    }[kind]
    return Graph(num_vertices=n, edges=tuple(edges), features=np.zeros((n, 1)))


def _fgw_values(rng, style, shape):
    """Activations built to tie: small integers, near-tied ones, or a few columns repeated."""
    if style == "integer":
        return rng.integers(0, 3, shape).astype(float)
    if style == "near":
        # small integers nudged by 0, 1 or 2 x 1e-15: near-ties, some of them exact
        return rng.integers(0, 3, shape) + rng.integers(0, 3, shape) * 1e-15
    if style == "duplicated":
        pool = rng.standard_normal(shape[:-1] + (2,))
        return pool[..., rng.integers(0, 2, shape[-1])]
    return rng.standard_normal(shape)


def _reference_fgw(problem):
    """fgw_distance one instance and one start at a time, each step solved by emd."""
    t = problem.trade_off

    def linearized(C1, C2, T):
        return ((C1 ** 2) @ T.sum(axis=1)[:, None] + ((C2 ** 2) @ T.sum(axis=0))[None, :]
                - 2.0 * (C1 @ T) @ C2.T)

    def objective(T):
        structure = linearized(problem.structure_a, problem.structure_b, T) * T
        return t * float(np.sum(problem.feature_cost * T)) + (1.0 - t) * float(np.sum(structure))

    best = None
    for C1, C2, F, a, b, mirror in (
        (problem.structure_a, problem.structure_b, problem.feature_cost, problem.alpha,
         problem.beta, False),
        (problem.structure_b, problem.structure_a, problem.feature_cost.T, problem.beta,
         problem.alpha, True),
    ):
        square = a.size == b.size and np.array_equal(a, b)
        for T in [np.outer(a, b)] + ([np.diag(a)] if square else []):
            for _ in range(100):
                lin = t * F + (1.0 - t) * linearized(C1, C2, T) if t < 1.0 else t * F
                T_new = emd(a, b, np.maximum(lin, 0.0)).coupling
                moved = np.max(np.abs(T_new - T))
                T = T_new
                if moved < 1e-7:
                    break
            T = T.T if mirror else T
            if best is None or objective(T) < best[0]:
                best = (objective(T), T)
    return max(best[0], 0.0), best[1]


FGW_GRAPH_KINDS = st.sampled_from(["cycle", "complete", "disconnected"])
FGW_VALUE_STYLES = st.sampled_from(["integer", "duplicated", "real"])


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    graphs=st.lists(st.tuples(FGW_GRAPH_KINDS, st.integers(1, 6)), min_size=1, max_size=3),
    na=st.integers(1, 4),
    nb=st.integers(1, 4),
    style=FGW_VALUE_STYLES,
    trade_off=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_fgw_cost_matrix_is_the_sum_of_pairwise_fgw(graphs, na, nb, style, trade_off, seed):
    rng = np.random.default_rng(seed)
    batch = Dataset(graphs=tuple(_fgw_graph(kind, n) for kind, n in graphs), feature_dim=1)
    # one pool per graph, so duplicated columns tie across the two sides too
    values = [_fgw_values(rng, style, (g.num_vertices, na + nb)) for g in batch.graphs]
    acts_a = sample_from_graphs(batch, [v[:, :na] for v in values])
    acts_b = sample_from_graphs(batch, [v[:, na:] for v in values])
    spec = CostSpec(kind="fgw", fgw=FgwCostSpec(trade_off=trade_off))

    C = build_cost_matrix(acts_a, acts_b, spec)

    expected = np.zeros((na, nb))
    for k, g in enumerate(batch.graphs):
        va, vb = graph_capture(acts_a, k), graph_capture(acts_b, k)
        for i in range(na):
            for j in range(nb):
                expected[i, j] += pairwise_fgw(g, va[:, i], vb[:, j], trade_off)
    assert _bits(C) == _bits(expected)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    graph=st.tuples(st.sampled_from(["cycle", "complete", "star", "path", "disconnected"]),
                    st.integers(1, 8)),
    na=st.integers(1, 4),
    nb=st.integers(1, 4),
    style=st.sampled_from(["integer", "duplicated", "real", "near"]),
    trade_off=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
# stacks where some instance's mirrored pass parts from its forward one, so that
# leaving out every instance would fail
@example(graph=("cycle", 7), na=2, nb=2, style="integer", trade_off=0.5, seed=0)
@example(graph=("cycle", 5), na=2, nb=2, style="near", trade_off=0.5, seed=0)
@example(graph=("disconnected", 7), na=2, nb=2, style="near", trade_off=1.0, seed=4)
@example(graph=("complete", 6), na=2, nb=2, style="near", trade_off=1.0, seed=4)
def test_mirrored_pass_on_repeated_values_only_keeps_every_bit(graph, na, nb, style, trade_off,
                                                               seed):
    """The FGW cost's stack on one graph, with the mirrored pass only where a neuron repeats a
    value, against both passes on every instance."""
    rng = np.random.default_rng(seed)
    S = _fgw_graph(*graph).hop_distances
    n = S.shape[0]
    # one pool, so duplicated columns tie across the two sides too
    values = _fgw_values(rng, style, (n, na + nb))
    va, vb = values[:, :na], values[:, na:]
    repeats = [np.array([np.unique(column).size < n for column in v.T]) for v in (va, vb)]
    guard = (repeats[0][:, None] | repeats[1][None, :]).reshape(-1)
    problem = FgwProblem(structure_a=S, structure_b=S,
                         feature_cost=((va.T[:, None, :, None] - vb.T[None, :, None, :]) ** 2
                                       ).reshape(na * nb, n, n),
                         trade_off=trade_off, alpha=uniform_weights(n), beta=uniform_weights(n))

    distances, couplings = fgw_distance(problem)
    guarded_distances, guarded_couplings = fgw_distance(problem, mirror=guard)

    assert _bits(guarded_distances) == _bits(distances)
    assert _bits(guarded_couplings) == _bits(couplings)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    graph_a=st.tuples(FGW_GRAPH_KINDS, st.integers(1, 6)),
    graph_b=st.tuples(FGW_GRAPH_KINDS, st.integers(1, 6)),
    instances=st.integers(1, 5),
    style=FGW_VALUE_STYLES,
    trade_off=st.sampled_from([0.0, 0.5, 1.0]),
    uniform=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_stacked_fgw_distance_equals_its_slices(graph_a, graph_b, instances, style, trade_off,
                                                uniform, seed):
    rng = np.random.default_rng(seed)
    Ca = _fgw_graph(*graph_a).hop_distances
    Cb = _fgw_graph(*graph_b).hop_distances
    n, m = Ca.shape[0], Cb.shape[0]
    F = _fgw_values(rng, style, (n, m, instances)).transpose(2, 0, 1) ** 2
    if uniform:
        a, b = uniform_weights(n), uniform_weights(m)
    else:
        a, b = _histogram(rng, n), _histogram(rng, m)

    def problem(feature_cost):
        return FgwProblem(structure_a=Ca, structure_b=Cb, feature_cost=feature_cost,
                          trade_off=trade_off, alpha=a, beta=b)

    distances, couplings = fgw_distance(problem(F))

    assert distances.shape == (instances,) and couplings.shape == (instances, n, m)
    for p in range(instances):
        (d,), (coupling,) = fgw_distance(problem(F[p]))
        assert _bits(np.float64(d)) == _bits(distances[p])
        assert _bits(coupling) == _bits(couplings[p])
        d_ref, coupling_ref = _reference_fgw(problem(F[p]))
        assert _bits(np.float64(d)) == _bits(np.float64(d_ref))
        assert _bits(coupling) == _bits(coupling_ref)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    graph_a=st.tuples(FGW_GRAPH_KINDS, st.integers(7, 9)),
    graph_b=st.one_of(st.none(), st.tuples(FGW_GRAPH_KINDS, st.integers(7, 9))),
    instances=st.integers(1, 4),
    style=FGW_VALUE_STYLES,
    trade_off=st.sampled_from([0.0, 0.5, 1.0]),
    uniform=st.booleans(),
    seed=st.integers(0, 2**16),
)
# a forward and a mirrored run end at one plan, which the two layouts round to two objectives
@example(graph_a=("cycle", 8), graph_b=("disconnected", 7), instances=1, style="integer",
         trade_off=0.0, uniform=False, seed=1)
def test_fgw_at_workload_sizes_equals_reference_slices(graph_a, graph_b, instances, style,
                                                       trade_off, uniform, seed):
    """At 7-9 vertices; graph_b None poses both sides on graph_a, as the FGW cost does."""
    rng = np.random.default_rng(seed)
    Ca = _fgw_graph(*graph_a).hop_distances
    Cb = Ca if graph_b is None else _fgw_graph(*graph_b).hop_distances
    n, m = Ca.shape[0], Cb.shape[0]
    # squared differences of vertex values, the FGW cost's feature term
    va, vb = _fgw_values(rng, style, (n, instances)), _fgw_values(rng, style, (m, instances))
    F = (va.T[:, :, None] - vb.T[:, None, :]) ** 2
    if uniform:
        a, b = uniform_weights(n), uniform_weights(m)
    else:
        a, b = _histogram(rng, n), _histogram(rng, m)

    def problem(feature_cost):
        return FgwProblem(structure_a=Ca, structure_b=Cb, feature_cost=feature_cost,
                          trade_off=trade_off, alpha=a, beta=b)

    distances, couplings = fgw_distance(problem(F))

    for p in range(instances):
        d_ref, coupling_ref = _reference_fgw(problem(F[p]))
        assert _bits(distances[p]) == _bits(np.float64(d_ref))
        assert _bits(couplings[p]) == _bits(coupling_ref)


def _structure(rng, n, style):
    """A symmetric zero-diagonal structure: random reals, or small integers as hop distances."""
    S = rng.integers(0, 4, (n, n)).astype(float) if style == "integer" else rng.random((n, n)) * 3
    S = S + S.T
    np.fill_diagonal(S, 0.0)
    return S


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 9),
    runs=st.one_of(st.none(), st.integers(1, 6)),
    style=st.sampled_from(["integer", "real"]),
    mass=st.sampled_from(["uniform", "scaled"]),
    seed=st.integers(0, 2**16),
)
def test_gromov_at_columns_equals_the_dense_call(n, runs, style, mass, seed):
    # the Gromov term gathered from a permutation's columns keeps the dense plan's every bit
    rng = np.random.default_rng(seed)
    C1, C2 = _structure(rng, n, style), _structure(rng, n, style)
    a = uniform_weights(n) * (10.0 ** rng.uniform(-3, 3) if mass == "scaled" else 1.0)
    shape = (n,) if runs is None else (runs, n)
    cols = np.array([rng.permutation(n) for _ in range(int(np.prod(shape[:-1])))]).reshape(shape)
    dense = np.zeros(shape + (n,))
    for plan, col in zip(dense.reshape(-1, n, n), cols.reshape(-1, n)):
        plan[np.arange(n), col] = a
    assert _bits(ot._gromov_at_columns(C1, C2, a, cols)) == _bits(ot._gromov_linearized(C1, C2, dense))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    graph=st.tuples(st.sampled_from(["cycle", "complete", "star", "path", "disconnected"]),
                    st.integers(1, 9)),
    na=st.integers(1, 3),
    nb=st.integers(1, 3),
    style=st.sampled_from(["integer", "duplicated", "real", "near"]),
    trade_off=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    mirror=st.sampled_from(["none", "false", "random"]),
    seed=st.integers(0, 2**16),
)
@example(graph=("cycle", 1), na=2, nb=2, style="real", trade_off=0.5, mirror="none", seed=0)
@example(graph=("cycle", 7), na=2, nb=2, style="integer", trade_off=0.5, mirror="random", seed=0)
@example(graph=("cycle", 5), na=2, nb=2, style="near", trade_off=0.5, mirror="none", seed=0)
def test_fgw_distance_equals_the_dense_kernel(graph, na, nb, style, trade_off, mirror, seed):
    """An FGW cost's stack on one graph, its self-instances after it, against every plan dense."""
    rng = np.random.default_rng(seed)
    S = _fgw_graph(*graph).hop_distances
    n = S.shape[0]
    values = _fgw_values(rng, style, (n, na + nb))
    va, vb = values[:, :na], np.concatenate([values[:, na:], values[:, :na]], axis=1)
    F = ((va.T[:, None, :, None] - vb.T[None, :, None, :]) ** 2).reshape(-1, n, n)
    mask = {"none": None, "false": np.zeros(len(F), dtype=bool),
            "random": rng.random(len(F)) < 0.5}[mirror]
    problem = FgwProblem(structure_a=S, structure_b=S, feature_cost=F, trade_off=trade_off,
                         alpha=uniform_weights(n), beta=uniform_weights(n))

    distances, couplings = fgw_distance(problem, mirror=mask)
    want_distances, want_couplings = dense_fgw_distance(problem, mask)

    assert _bits(distances) == _bits(want_distances)
    assert _bits(couplings) == _bits(want_couplings)
