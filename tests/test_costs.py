from dataclasses import replace

import numpy as np
import pytest

from gcnfuse import ot
from gcnfuse import (
    ActivationSample,
    ArchSpec,
    CostSpec,
    DenseParams,
    DimensionMismatchError,
    FgwCostSpec,
    FusionBatch,
    InvalidSpecError,
    build_cost_matrix,
    emd,
    forward_with_capture,
    random_model,
    uniform_weights,
    weight_cost_matrix,
)
from conftest import graph_capture, graph_values, make_graph, path_graph, sample_from_graphs
from oracles import pairwise_efd, pairwise_fgw, pairwise_qe


def fgw_spec(**kw):
    return CostSpec(kind="fgw", fgw=FgwCostSpec(**kw))


def neuron_values(acts, neuron):
    """(graph, one neuron's value per vertex) per batch graph, for the pairwise_* oracles."""
    return [(g, graph_capture(acts, k)[:, neuron]) for k, g in enumerate(acts.batch.graphs)]


def captured_acts(model, graphs, capture="post_bn"):
    batch = FusionBatch(graphs=tuple(graphs))
    _, acts = forward_with_capture(model, batch, capture)
    return acts


def random_graphs(count, feature_dim, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        out.append(make_graph(n, edges=edges, values=rng.standard_normal((n, feature_dim))))
    return out


class TestPairwiseEfd:
    def test_identical_graphs_zero(self):
        g = np.array([1.0, 2.0])
        assert pairwise_efd(g, g, lam=0.7) == 0.0

    def test_equal_values_zero(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, 2.0])
        assert pairwise_efd(a, b, lam=1.0) == 0.0

    def test_hand_value(self):
        a = np.array([0.0, 0.0, 3.0])
        b = np.array([0.0, 4.0, 3.0])
        assert pairwise_efd(a, b, lam=1.0) == 4.0

    def test_lambda_scaling(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        c1 = pairwise_efd(a, b, lam=0.2)
        c2 = pairwise_efd(a, b, lam=0.8)
        assert c1 / c2 == pytest.approx(np.sqrt(0.2 / 0.8), rel=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        assert pairwise_efd(a, b, 0.4) == pairwise_efd(b, a, 0.4)


class TestPairwiseQe:
    def test_lambda_zero_equals_squared_efd(self):
        rng = np.random.default_rng(2)
        edges = [(0, 1), (1, 2), (0, 2)]
        graph, a = graph_values(rng.standard_normal(3), edges=edges)
        b = rng.standard_normal(3)
        assert pairwise_qe(graph, a, b, lam=0.0) == pytest.approx(
            pairwise_efd(a, b, lam=1.0) ** 2, rel=1e-12)

    def test_identical_edgeless_zero(self):
        graph, g = graph_values([1.0, -2.0, 0.5])
        assert pairwise_qe(graph, g, g, lam=0.3) == 0.0

    def test_single_edge_hand_value(self):
        # edge term over both orientations: (1-1)^2 + (0-0)^2 = 0
        # vertex term: (1-0)^2 + (0-1)^2 = 2 -> 0.5*0 + 0.5*2 = 1
        graph, a = graph_values([1.0, 0.0], edges=[(0, 1)])
        b = np.array([0.0, 1.0])
        assert pairwise_qe(graph, a, b, lam=0.5) == 1.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        edges = [(0, 1), (1, 3), (2, 3)]
        graph, a = graph_values(rng.standard_normal(4), edges=edges)
        b = rng.standard_normal(4)
        assert pairwise_qe(graph, a, b, 0.7) == pytest.approx(pairwise_qe(graph, b, a, 0.7),
                                                              rel=1e-12)

    def test_self_cost_is_own_edge_energy(self):
        # the edge term does not vanish at i == j; it measures the neuron's
        # smoothness over the graph
        graph, a = graph_values([0.0, 2.0], edges=[(0, 1)])
        assert pairwise_qe(graph, a, a, lam=0.5) == 0.5 * ((0 - 2) ** 2 + (2 - 0) ** 2)


class TestStructures:
    def test_shortest_path_on_path_graph(self):
        g = path_graph(3)
        assert np.array_equal(g.hop_distances,
                              [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_disconnected_pairs_capped(self):
        g = make_graph(3, edges=[(0, 1)])
        D = g.hop_distances
        # longest finite distance is 1, so unreachable pairs get 2
        assert D[0, 2] == 2.0 and D[2, 0] == 2.0

    def test_single_vertex(self):
        assert np.array_equal(make_graph(1).hop_distances, [[0.0]])


class TestPairwiseFgw:
    def test_identical_zero(self):
        graph, g = graph_values([0.0, 1.0, 2.0], edges=[(0, 1), (1, 2)])
        assert pairwise_fgw(graph, g, g, FgwCostSpec().trade_off) <= 1e-8

    def test_trade_off_one_equals_emd(self):
        rng = np.random.default_rng(4)
        edges = [(0, 1), (1, 2)]
        graph, a = graph_values(rng.standard_normal(3), edges=edges)
        b = rng.standard_normal(3)
        d = pairwise_fgw(graph, a, b, trade_off=1.0)
        F = (a[:, None] - b[None, :]) ** 2
        exact = emd(uniform_weights(3), uniform_weights(3), F)
        assert d == pytest.approx(exact.objective, abs=1e-12)


class TestCostSpec:
    def test_lambda_range(self):
        with pytest.raises(InvalidSpecError):
            CostSpec(kind="efd", lam=1.5)

    def test_fgw_settings_paired_with_kind(self):
        with pytest.raises(InvalidSpecError):
            CostSpec(kind="efd", fgw=FgwCostSpec())
        # left unset, the FGW settings cost bitwise like their explicit defaults
        model_a = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                        dense_layers=2), seed=40)
        model_b = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                        dense_layers=2), seed=41)
        graphs = random_graphs(3, 2, seed=42)
        acts_a, acts_b = captured_acts(model_a, graphs)[1], captured_acts(model_b, graphs)[1]
        unset = build_cost_matrix(acts_a, acts_b, CostSpec(kind="fgw"))
        assert np.array_equal(unset, build_cost_matrix(acts_a, acts_b, fgw_spec()))
        assert not np.array_equal(unset, build_cost_matrix(acts_a, acts_b, fgw_spec(trade_off=0.9)))

    def test_replacing_the_kind_keeps_no_fgw_settings(self):
        assert replace(CostSpec(kind="fgw"), kind="qe") == CostSpec(kind="qe")

    def test_unknown_kind(self):
        with pytest.raises(InvalidSpecError):
            CostSpec(kind="cosine")


class TestBuildCostMatrix:
    def _acts_pair(self, seed, count=3, hidden=4, gc_layers=1):
        model_a = random_model(ArchSpec(feature_dim=2, hidden_dim=hidden,
                                        gc_layers=gc_layers, dense_layers=2), seed=seed)
        model_b = random_model(ArchSpec(feature_dim=2, hidden_dim=hidden,
                                        gc_layers=gc_layers, dense_layers=2), seed=seed + 1)
        graphs = random_graphs(count, 2, seed=seed + 2)
        return captured_acts(model_a, graphs), captured_acts(model_b, graphs)

    def test_self_costs_on_diagonal_are_zero(self):
        acts, _ = self._acts_pair(seed=5)
        C = build_cost_matrix(acts[1], acts[1], CostSpec(kind="efd", lam=0.2))
        assert np.array_equal(np.diag(C), np.zeros(4))

    def test_batch_of_one_equals_single_pairwise(self):
        acts_a, acts_b = self._acts_pair(seed=6, count=1)
        spec = CostSpec(kind="qe", lam=0.2)
        C = build_cost_matrix(acts_a[1], acts_b[1], spec)
        for i in range(4):
            for j in range(4):
                graph, vi = neuron_values(acts_a[1], i)[0]
                _, vj = neuron_values(acts_b[1], j)[0]
                assert C[i, j] == pytest.approx(pairwise_qe(graph, vi, vj, 0.2), rel=1e-12)

    def test_entry_recomputed_over_batch(self):
        acts_a, acts_b = self._acts_pair(seed=7, count=3)
        for spec, pair_fn in [
            (CostSpec(kind="efd", lam=0.2), lambda g, x, y: pairwise_efd(x, y, 0.2)),
            (CostSpec(kind="qe", lam=0.2), lambda g, x, y: pairwise_qe(g, x, y, 0.2)),
        ]:
            C = build_cost_matrix(acts_a[1], acts_b[1], spec)
            expected = sum(
                pair_fn(g, vi, vj)
                for (g, vi), (_, vj) in zip(neuron_values(acts_a[1], 0),
                                            neuron_values(acts_b[1], 1))
            )
            assert C[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_fgw_entry_recomputed(self):
        acts_a, acts_b = self._acts_pair(seed=8, count=2, hidden=3)
        spec = fgw_spec()
        C = build_cost_matrix(acts_a[1], acts_b[1], spec)
        expected = sum(
            pairwise_fgw(g, vi, vj, spec.fgw.trade_off)
            for (g, vi), (_, vj) in zip(neuron_values(acts_a[1], 2),
                                        neuron_values(acts_b[1], 0))
        )
        assert C[2, 0] == pytest.approx(expected, rel=1e-9)

    def test_permutation_equivariance(self):
        acts_a, acts_b = self._acts_pair(seed=9)
        spec = CostSpec(kind="efd", lam=0.2)
        C = build_cost_matrix(acts_a[1], acts_b[1], spec)
        perm = np.array([2, 0, 3, 1])
        permuted = ActivationSample(
            batch=acts_a[1].batch,
            values=tuple(v[:, :, perm] for v in acts_a[1].values),
        )
        C_perm = build_cost_matrix(permuted, acts_b[1], spec)
        assert np.array_equal(C_perm, C[perm, :])

    def test_post_readout_degenerates_to_squared_difference(self):
        acts_a, acts_b = self._acts_pair(seed=10)
        dense_idx = 4  # emb, gc, readout, dense, head
        A = acts_a[dense_idx].values
        B = acts_b[dense_idx].values
        for kind in ("efd", "qe", "fgw"):
            C = build_cost_matrix(acts_a[dense_idx], acts_b[dense_idx],
                                  CostSpec(kind=kind, lam=0.2))
            expected = ((A.T[:, None, :] - B.T[None, :, :]) ** 2).sum(axis=2)
            assert np.allclose(C, expected)

    def test_batch_mismatch_rejected(self):
        acts_a, _ = self._acts_pair(seed=12)
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=4, gc_layers=1,
                                      dense_layers=2), seed=30)
        other = captured_acts(model, random_graphs(3, 2, seed=31))
        with pytest.raises(DimensionMismatchError, match="batch"):
            build_cost_matrix(acts_a[1], other[1], CostSpec(kind="efd"))

    def test_weight_kind_rejected(self):
        acts_a, acts_b = self._acts_pair(seed=13)
        with pytest.raises(InvalidSpecError):
            build_cost_matrix(acts_a[1], acts_b[1], CostSpec(kind="weight"))


class TestFgwMirroredPass:
    """Which instances of an FGW build take the mirrored (transposed) fixed-point pass."""

    @staticmethod
    def _mirrored_instances(monkeypatch, acts_a, acts_b, spec):
        """The build's cost matrix, and the instances each graph sent to the mirrored pass."""
        calls = []
        fixed_points = ot._fgw_fixed_points

        def counted(problem, instances=slice(None)):
            calls.append(np.arange(len(problem.feature_cost))[instances])
            return fixed_points(problem, instances)

        monkeypatch.setattr(ot, "_fgw_fixed_points", counted)
        C = build_cost_matrix(acts_a, acts_b, spec)
        # each graph runs the forward pass on every instance, then the mirrored pass
        assert all(len(forward) == C.size for forward in calls[::2])
        return C, [list(mirrored) for mirrored in calls[1::2]]

    def test_distinct_values_send_no_instance(self, monkeypatch):
        batch, values = mixed_batch(seed=50, width=5)
        acts_a = sample_from_graphs(batch, [v[:, :3] for v in values])
        acts_b = sample_from_graphs(batch, [v[:, 3:] for v in values])
        _, mirrored = self._mirrored_instances(monkeypatch, acts_a, acts_b, fgw_spec())
        assert mirrored == [[]] * len(batch.graphs)

    def test_a_repeated_value_sends_exactly_its_neurons_pairs(self, monkeypatch):
        batch, values = mixed_batch(seed=51, width=5)
        values[2][4, 1] = values[2][0, 1]  # neuron 1 of side A repeats a value on graph 2
        values[6][3, 4] = values[6][6, 4]  # neuron 1 of side B repeats a value on graph 6
        acts_a = sample_from_graphs(batch, [v[:, :3] for v in values])
        acts_b = sample_from_graphs(batch, [v[:, 3:] for v in values])
        _, mirrored = self._mirrored_instances(monkeypatch, acts_a, acts_b, fgw_spec())
        # instance i * nb + j is the pair (i, j), with nb = 2 neurons on side B
        expected = [[]] * len(batch.graphs)
        expected[2], expected[6] = [2, 3], [1, 3, 5]
        assert mirrored == expected

    def test_four_cycle_reaches_the_optimum_only_the_mirrored_pass_finds(self, monkeypatch):
        # the 4-cycle of test_mirrored_pass_finds_the_best_permutation, whose
        # forward runs stop at 0.5; both neurons repeat values, so the pair is flagged
        cycle = make_graph(4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        batch = FusionBatch(graphs=(cycle,))
        acts_a = sample_from_graphs(batch, [np.array([[2.0], [2.0], [0.0], [0.0]])])
        acts_b = sample_from_graphs(batch, [np.array([[1.0], [2.0], [2.0], [1.0]])])
        C, mirrored = self._mirrored_instances(monkeypatch, acts_a, acts_b, fgw_spec())
        assert mirrored == [[0]]
        assert C[0, 0] == 0.25



def mixed_batch(seed, width):
    """Graphs of 1 to 9 vertices, edgeless ones among them, and `width` values per vertex."""
    rng = np.random.default_rng(seed)
    graphs, values = [], []
    for n in (1, 3, 9, 3, 5, 1, 7, 4, 9, 2):
        density = 0.0 if n == 4 else 0.5
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        graphs.append(make_graph(n, edges=edges))
        values.append(rng.standard_normal((n, width)) * 3.0 + 1.0)
    return FusionBatch(graphs=tuple(graphs)), values


class TestGemmFormCosts:
    """The matrix-product expansions against the per-pair oracles, entry by entry."""

    def _pair(self, seed, na=5, nb=4):
        batch, values = mixed_batch(seed, na + nb)
        acts_a = sample_from_graphs(batch, [v[:, :na] for v in values])
        acts_b = sample_from_graphs(batch, [v[:, na:] for v in values])
        return acts_a, acts_b

    @staticmethod
    def _oracle(acts_a, acts_b, pair_fn):
        return np.array([[sum(pair_fn(g, va, vb)
                              for (g, va), (_, vb) in zip(neuron_values(acts_a, i),
                                                          neuron_values(acts_b, j)))
                          for j in range(acts_b.width)] for i in range(acts_a.width)])

    @pytest.mark.parametrize("kind", ["efd", "qe"])
    def test_activation_costs_match_pairwise_oracles(self, kind):
        acts_a, acts_b = self._pair(seed=40)
        pair_fn = {"efd": lambda g, x, y: pairwise_efd(x, y, 0.3),
                   "qe": lambda g, x, y: pairwise_qe(g, x, y, 0.3)}[kind]
        C = build_cost_matrix(acts_a, acts_b, CostSpec(kind=kind, lam=0.3))
        np.testing.assert_allclose(C, self._oracle(acts_a, acts_b, pair_fn), rtol=1e-12, atol=0)

    def test_weight_cost_matches_direct_norms(self):
        rng = np.random.default_rng(41)
        a = DenseParams(weight=rng.standard_normal((6, 5)) * 4.0, bias=rng.standard_normal(6))
        b = DenseParams(weight=rng.standard_normal((3, 5)), bias=rng.standard_normal(3))
        rows_a = np.concatenate([a.weight, a.bias[:, None]], axis=1)
        rows_b = np.concatenate([b.weight, b.bias[:, None]], axis=1)
        expected = [[pairwise_efd(ra, rb, 1.0) for rb in rows_b] for ra in rows_a]
        np.testing.assert_allclose(weight_cost_matrix(a, b), expected, rtol=1e-12, atol=0)

    def test_duplicated_neurons_cost_exactly_zero(self):
        # B holds copies of A's neurons 3 and 0 (as columns 0 and 2) in arrays of its own
        acts_a, acts_b = self._pair(seed=42)
        per_graph = [(graph_capture(acts_a, k), graph_capture(acts_b, k))
                     for k in range(acts_a.batch.sample_size)]
        dup = sample_from_graphs(acts_b.batch, [
            np.stack([va[:, 3], vb[:, 1], va[:, 0], vb[:, 3]], axis=1) for va, vb in per_graph])
        C = build_cost_matrix(acts_a, dup, CostSpec(kind="efd", lam=0.3))
        assert C[3, 0] == 0.0 and C[0, 2] == 0.0
        assert np.all(np.delete(C.ravel(), [3 * 4 + 0, 0 * 4 + 2]) > 0.0)
        # QE keeps each neuron's own edge energy; the vertex term alone cancels
        C = build_cost_matrix(acts_a, dup, CostSpec(kind="qe", lam=0.0))
        assert C[3, 0] == 0.0 and C[0, 2] == 0.0
        qe = lambda g, x, y: pairwise_qe(g, x, y, 0.3)
        np.testing.assert_allclose(build_cost_matrix(acts_a, dup, CostSpec(kind="qe", lam=0.3)),
                                   self._oracle(acts_a, dup, qe), rtol=1e-12, atol=0)
        readout = ActivationSample(batch=acts_a.batch, values=np.stack(
            [va[0] for va, _ in per_graph]))
        copies = ActivationSample(batch=acts_a.batch, values=np.array(readout.values[:, ::-1]))
        C = build_cost_matrix(readout, copies, CostSpec(kind="efd"))
        assert np.array_equal(np.diag(C[:, ::-1]), np.zeros(5))

    def test_neurons_constant_on_each_graph_cost_exactly_zero(self):
        # a(u) == a(w) on every edge, so QE(a, a) is 0 at any lam, the edge term included
        batch, values = mixed_batch(seed=44, width=3)
        constant = [np.broadcast_to(v[:1], v.shape) for v in values]
        acts = sample_from_graphs(batch, constant)
        copies = sample_from_graphs(batch, [np.array(v[:, ::-1]) for v in constant])
        for lam in (0.0, 0.3, 1.0):
            C = build_cost_matrix(acts, copies, CostSpec(kind="qe", lam=lam))
            assert np.all(np.diag(C[:, ::-1]) == 0.0)
            assert np.count_nonzero(C) == C.size - 3
        # nearly constant: the expansion cancels, and the recompute pairs each edge's two ends
        rng = np.random.default_rng(45)
        near = [v + 1e-6 * rng.standard_normal(v.shape) for v in constant]
        acts = sample_from_graphs(batch, near)
        copies = sample_from_graphs(batch, [np.array(v[:, ::-1]) for v in near])
        qe = lambda g, x, y: pairwise_qe(g, x, y, 0.3)
        np.testing.assert_allclose(build_cost_matrix(acts, copies, CostSpec(kind="qe", lam=0.3)),
                                   self._oracle(acts, copies, qe), rtol=1e-12, atol=0)

    def test_duplicated_weight_rows_cost_exactly_zero(self):
        rng = np.random.default_rng(43)
        a = DenseParams(weight=rng.standard_normal((4, 6)) * 10.0, bias=rng.standard_normal(4))
        b = DenseParams(weight=np.array(a.weight[[2, 0]]), bias=np.array(a.bias[[2, 0]]))
        C = weight_cost_matrix(a, b)
        assert C[2, 0] == 0.0 and C[0, 1] == 0.0
        assert np.count_nonzero(C) == C.size - 2


class TestWeightCostMatrix:
    def test_identical_layers_zero_diagonal(self):
        rng = np.random.default_rng(17)
        params = DenseParams(weight=rng.standard_normal((3, 4)),
                             bias=rng.standard_normal(3))
        C = weight_cost_matrix(params, params)
        assert np.array_equal(np.diag(C), np.zeros(3))

    def test_unit_vector_geometry(self):
        a = DenseParams(weight=np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = DenseParams(weight=np.array([[0.0, 1.0], [1.0, 0.0]]))
        C = weight_cost_matrix(a, b)
        assert np.allclose(C, [[np.sqrt(2), 0.0], [0.0, np.sqrt(2)]])

    def test_random_layers_match_direct_norms(self):
        rng = np.random.default_rng(18)
        a = DenseParams(weight=rng.standard_normal((3, 4)), bias=rng.standard_normal(3))
        b = DenseParams(weight=rng.standard_normal((3, 4)), bias=rng.standard_normal(3))
        C = weight_cost_matrix(a, b)
        for i in range(3):
            for j in range(3):
                ra = np.concatenate([a.weight[i], [a.bias[i]]])
                rb = np.concatenate([b.weight[j], [b.bias[j]]])
                assert C[i, j] == pytest.approx(np.linalg.norm(ra - rb), rel=1e-12)

    def test_in_dim_mismatch_rejected(self):
        a = DenseParams(weight=np.ones((2, 3)))
        b = DenseParams(weight=np.ones((2, 4)))
        with pytest.raises(DimensionMismatchError):
            weight_cost_matrix(a, b)

    def test_bias_presence_must_match(self):
        a = DenseParams(weight=np.ones((2, 3)), bias=np.zeros(2))
        b = DenseParams(weight=np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError, match="bias"):
            weight_cost_matrix(a, b)
