import logging
from dataclasses import replace

import numpy as np
import pytest

from gcnfuse import fusion, graphs, models, ot
from gcnfuse import (
    ArchSpec,
    BatchNormParams,
    CostSpec,
    DenseParams,
    DimensionMismatchError,
    FgwCostSpec,
    FusionConfig,
    GeneratorSpec,
    InvalidSpecError,
    SinkhornParams,
    TransportPlan,
    align_batchnorm,
    align_layer_incoming,
    align_layer_outgoing,
    default_epsilon,
    ensemble_predict,
    evaluate_mae,
    fuse,
    label_with_model,
    permute_model,
    predict,
    random_model,
    synthesize_dataset,
    vanilla_fuse,
)
from conftest import assert_models_equal, constant_model, make_graph, single_vertex_graphs


def perm_plan(p):
    """The coupling that fuse() recovers for twin B = permute(A, p)."""
    n = len(p)
    return TransportPlan(coupling=np.eye(n)[np.asarray(p)].T / n, objective=0.0)


def hidden_perms(model, seed):
    rng = np.random.default_rng(seed)
    widths = [model.layers[i].params.out_dim for i in model.parameterized_indices()[:-1]]
    return [rng.permutation(w) for w in widths]


def second_model():
    """Another model of small_regression_setup's architecture, so plans are not trivial."""
    return random_model(ArchSpec(feature_dim=4, hidden_dim=6, gc_layers=1, dense_layers=2,
                                 batch_norm=True), seed=4)


def assert_same_fusion(run_x, run_y):
    """Two fuse() results agree bit for bit: the fused models and every layer's plan and cost."""
    (fused_x, trace_x), (fused_y, trace_y) = run_x, run_y
    assert_models_equal(fused_x, fused_y)
    assert trace_x.report() == trace_y.report()
    for layer_x, layer_y in zip(trace_x.layers, trace_y.layers, strict=True):
        assert np.array_equal(layer_x.plan.coupling, layer_y.plan.coupling)
        assert np.array_equal(layer_x.cost, layer_y.cost)


def max_rel_prediction_gap(model_x, model_y, graphs):
    worst = 0.0
    for g in graphs:
        a, b = predict(model_x, (g,))[0], predict(model_y, (g,))[0]
        worst = max(worst, abs(a - b) / max(abs(a), 1e-12))
    return worst


class TestFusionConfig:
    def test_defaults(self):
        config = FusionConfig()
        assert config.solver == "emd"
        assert config.cost.kind == "efd"
        assert config.sample_size == 340
        assert config.capture_point == "post_bn"

    def test_validation(self):
        with pytest.raises(InvalidSpecError):
            FusionConfig(solver="gradient-descent")
        with pytest.raises(InvalidSpecError):
            FusionConfig(interpolation=1.5)
        with pytest.raises(InvalidSpecError):
            FusionConfig(sample_size=0)

    @pytest.mark.parametrize("field, value", [("sample_size", 2.5), ("sample_size", True),
                                              ("seed", 1.5)])
    def test_counts_must_be_integers(self, field, value):
        # each constructed, and fuse then failed with numpy's raw TypeError
        with pytest.raises(InvalidSpecError, match=f"^{field} {value!r} is not an integer$"):
            FusionConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpecError, match="seed"):
            FusionConfig(seed=-1)

    def test_unknown_capture_point_rejected(self):
        with pytest.raises(InvalidSpecError, match="capture_point must be one of"):
            FusionConfig(capture_point="bogus")

    @pytest.mark.parametrize("kind", ["efd", "qe", "fgw", "weight"])
    def test_unset_settings_follow_the_cost_kind(self, small_regression_setup, kind):
        dataset, model = small_regression_setup
        other = second_model()
        unset = FusionConfig(solver="sinkhorn", cost=CostSpec(kind=kind), sample_size=8)
        assert unset.sinkhorn is None and unset.cost.fgw is None
        explicit = FusionConfig(
            solver="sinkhorn", sample_size=8,
            cost=CostSpec(kind=kind, fgw=FgwCostSpec() if kind == "fgw" else None),
            sinkhorn=SinkhornParams(epsilon=default_epsilon(kind)))
        assert_same_fusion(fuse(model, other, dataset, unset),
                           fuse(model, other, dataset, explicit))

    def test_replacing_the_cost_moves_the_default_epsilon(self, small_regression_setup,
                                                          monkeypatch):
        dataset, model = small_regression_setup
        other = second_model()
        solve, epsilons = fusion.sinkhorn_unbalanced, []

        def recorded(alpha, beta, cost, params):
            epsilons.append(params.epsilon)
            return solve(alpha, beta, cost, params)

        monkeypatch.setattr(fusion, "sinkhorn_unbalanced", recorded)
        replaced = replace(FusionConfig(solver="sinkhorn", sample_size=8), cost=CostSpec(kind="qe"))
        got = fuse(model, other, dataset, replaced)
        assert set(epsilons) == {5e-5}
        explicit = FusionConfig(solver="sinkhorn", sample_size=8, cost=CostSpec(kind="qe"),
                                sinkhorn=SinkhornParams(epsilon=5e-5))
        assert_same_fusion(got, fuse(model, other, dataset, explicit))

    def test_per_cost_epsilon_defaults(self):
        assert default_epsilon("efd") == 5e-4
        assert default_epsilon("qe") == 5e-5
        assert default_epsilon("fgw") == 5e-5
        assert default_epsilon("weight") == 5e-4


class TestAlignmentAlgebra:
    def test_incoming_identity_is_noop(self):
        rng = np.random.default_rng(0)
        W = DenseParams(weight=rng.standard_normal((3, 4)), bias=rng.standard_normal(3))
        plan = TransportPlan(coupling=np.eye(4) / 4, objective=0.0)
        out = align_layer_incoming(W, plan)
        assert np.array_equal(out.weight, W.weight)
        assert np.array_equal(out.bias, W.bias)

    def test_incoming_permutation_permutes_columns(self):
        rng = np.random.default_rng(1)
        W = DenseParams(weight=rng.standard_normal((3, 4)))
        P = np.eye(4)[[2, 0, 3, 1]]
        plan = TransportPlan(coupling=P / 4, objective=0.0)
        out = align_layer_incoming(W, plan)
        assert np.array_equal(out.weight, W.weight @ P)

    def test_incoming_entry_recomputed(self):
        rng = np.random.default_rng(2)
        W = DenseParams(weight=rng.standard_normal((3, 3)))
        T = rng.random((3, 3))
        T = T / T.sum() # arbitrary soft coupling
        plan = TransportPlan(coupling=T, objective=0.0)
        out = align_layer_incoming(W, plan)
        expected = sum(W.weight[0, k] * T[k, 0] / T[:, 0].sum() for k in range(3))
        assert out.weight[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_outgoing_identity_is_noop(self):
        rng = np.random.default_rng(3)
        W = DenseParams(weight=rng.standard_normal((4, 2)), bias=rng.standard_normal(4))
        plan = TransportPlan(coupling=np.eye(4) / 4, objective=0.0)
        out = align_layer_outgoing(W, plan)
        assert np.array_equal(out.weight, W.weight)
        assert np.array_equal(out.bias, W.bias)

    def test_outgoing_permutation_permutes_rows_and_bias(self):
        rng = np.random.default_rng(4)
        W = DenseParams(weight=rng.standard_normal((4, 2)), bias=rng.standard_normal(4))
        P = np.eye(4)[[1, 3, 0, 2]]
        plan = TransportPlan(coupling=P / 4, objective=0.0)
        out = align_layer_outgoing(W, plan)
        assert np.array_equal(out.weight, P.T @ W.weight)
        assert np.array_equal(out.bias, P.T @ W.bias)

    def test_outgoing_entry_recomputed(self):
        rng = np.random.default_rng(5)
        W = DenseParams(weight=rng.standard_normal((3, 2)))
        T = rng.random((3, 3))
        T = T / T.sum()
        plan = TransportPlan(coupling=T, objective=0.0)
        out = align_layer_outgoing(W, plan)
        expected = sum(T[k, 1] / T[:, 1].sum() * W.weight[k, 0] for k in range(3))
        assert out.weight[1, 0] == pytest.approx(expected, rel=1e-12)

    def test_batchnorm_identity_is_noop(self):
        bn = BatchNormParams(gamma=[1.0, 2.0], beta_shift=[0.1, 0.2],
                             running_mean=[0.5, -0.5], running_var=[1.0, 2.0],
                             epsilon=1e-5)
        plan = TransportPlan(coupling=np.eye(2) / 2, objective=0.0)
        out = align_batchnorm(bn, plan)
        assert np.array_equal(out.gamma, bn.gamma)
        assert np.array_equal(out.running_var, bn.running_var)

    def test_batchnorm_permutation_moves_all_vectors(self):
        bn = BatchNormParams(gamma=[1.0, 2.0, 3.0], beta_shift=[0.1, 0.2, 0.3],
                             running_mean=[7.0, 8.0, 9.0], running_var=[1.0, 2.0, 3.0],
                             epsilon=1e-5)
        p = [2, 0, 1]
        P = np.eye(3)[p]
        plan = TransportPlan(coupling=P / 3, objective=0.0)
        out = align_batchnorm(bn, plan)
        inv = P.T @ np.arange(3)  # where each anchor slot reads from
        for name in ("gamma", "beta_shift", "running_mean", "running_var"):
            assert np.array_equal(getattr(out, name),
                                  getattr(bn, name)[inv.astype(int)])

    def test_batchnorm_soft_plan_keeps_var_nonnegative(self):
        rng = np.random.default_rng(6)
        bn = BatchNormParams(gamma=rng.standard_normal(4),
                             beta_shift=rng.standard_normal(4),
                             running_mean=rng.standard_normal(4),
                             running_var=rng.random(4), epsilon=1e-5)
        T = rng.random((4, 4))
        T = T / T.sum()
        plan = TransportPlan(coupling=T, objective=0.0)
        out = align_batchnorm(bn, plan)
        assert np.all(out.running_var >= 0)

    def test_dim_mismatches_rejected(self):
        # one check guards every move, on a permutation plan and on a soft one alike
        W = DenseParams(weight=np.ones((2, 3)))
        bn = BatchNormParams(gamma=np.ones(3), beta_shift=np.zeros(3),
                             running_mean=np.zeros(3), running_var=np.ones(3))
        soft = np.array([[0.25, 0.125], [0.125, 0.5]])
        for plan in (TransportPlan(coupling=np.eye(2) / 2, objective=0.0),
                     TransportPlan(coupling=soft, objective=0.0)):
            with pytest.raises(DimensionMismatchError, match=r"^weight in_dim 3 != plan rows 2$"):
                align_layer_incoming(W, plan)
            with pytest.raises(DimensionMismatchError, match=r"^weight out_dim 3 != plan rows 2$"):
                align_layer_outgoing(DenseParams(weight=np.ones((3, 2))), plan)
            with pytest.raises(DimensionMismatchError, match=r"^bn dim 3 != plan rows 2$"):
                align_batchnorm(bn, plan)

    def test_empty_plan_column_aligns_to_finite_weights(self):
        # a Sinkhorn plan can lose all mass on an anchor neuron
        plan = TransportPlan(coupling=np.array([[0.5, 0.0], [0.25, 0.0]]), objective=0.0)
        incoming = align_layer_incoming(DenseParams(weight=np.ones((3, 2))), plan)
        outgoing = align_layer_outgoing(DenseParams(weight=np.ones((2, 3)), bias=np.ones(2)), plan)
        for arr in (incoming.weight, outgoing.weight, outgoing.bias):
            assert np.all(np.isfinite(arr))
        assert np.array_equal(incoming.weight[:, 1], np.zeros(3))
        assert np.array_equal(outgoing.weight[1], np.zeros(3))


class TestAlignmentPath:
    """Which path moves the neurons: an index gather for a permutation plan, T / beta otherwise."""

    @staticmethod
    def counted_scaled_transport(monkeypatch):
        calls, dense = [], models._scaled_transport
        monkeypatch.setattr(models, "_scaled_transport", lambda plan: calls.append(plan) or dense(plan))
        return calls

    def test_emd_fuse_never_builds_the_dense_map(self, monkeypatch):
        spec = ArchSpec(feature_dim=4, hidden_dim=64, gc_layers=2, dense_layers=2, batch_norm=True)
        model = random_model(spec, seed=30)
        anchor = random_model(spec, seed=31)
        calls = self.counted_scaled_transport(monkeypatch)
        _, trace = fuse(model, anchor, None, FusionConfig(cost=CostSpec(kind="weight")))
        assert all(t.plan.as_permutation() is not None for t in trace.layers)
        assert calls == []

    def test_massless_sinkhorn_column_keeps_the_dense_map(self, monkeypatch):
        plan = TransportPlan(coupling=np.array([[0.5, 0.0], [0.25, 0.0]]), objective=0.0)
        calls = self.counted_scaled_transport(monkeypatch)
        align_layer_incoming(DenseParams(weight=np.ones((3, 2))), plan)
        align_layer_outgoing(DenseParams(weight=np.ones((2, 3)), bias=np.ones(2)), plan)
        align_batchnorm(BatchNormParams(gamma=[1.0, 2.0], beta_shift=[0.0, 1.0],
                                        running_mean=[0.0, 0.0], running_var=[1.0, 1.0]), plan)
        assert calls == [plan] * 3


class TestComputeLayerTm:
    """Each layer's transport map (TM), read from the trace fuse() returns."""

    def test_twin_recovers_exact_permutation(self, small_regression_setup):
        dataset, model = small_regression_setup
        perms = hidden_perms(model, seed=21)
        twin = permute_model(model, perms)
        _, trace = fuse(model, twin, dataset, FusionConfig(sample_size=8, seed=0))
        first = trace.layers[0]
        assert first.layer_index == model.parameterized_indices()[0]
        assert np.array_equal(first.plan.coupling, perm_plan(perms[0]).coupling)
        assert first.cost is not None and first.cost.shape == (6, 6)

    def test_identical_models_get_identity_plan(self, small_regression_setup):
        dataset, model = small_regression_setup
        _, trace = fuse(model, model, dataset, FusionConfig(sample_size=8, seed=0))
        assert np.array_equal(trace.layers[0].plan.coupling, np.eye(6) / 6)

    def test_last_layer_identity_by_contract(self, small_regression_setup):
        dataset, model = small_regression_setup
        _, trace = fuse(model, model, dataset, FusionConfig(sample_size=8, seed=0))
        last = trace.layers[-1]
        assert last.layer_index == model.parameterized_indices()[-1]
        assert last.cost is None
        assert np.array_equal(last.plan.coupling, np.eye(1))

    def test_unconverged_sinkhorn_plan_logs_warning(self, small_regression_setup, caplog,
                                                    monkeypatch):
        dataset, model = small_regression_setup
        monkeypatch.setattr(ot, "_SINKHORN_MAX_ITERS", 1)
        twin = random_model(ArchSpec(feature_dim=4, hidden_dim=6, gc_layers=1,
                                     dense_layers=2, batch_norm=True), seed=55)
        config = FusionConfig(solver="sinkhorn",
                              sinkhorn=SinkhornParams(epsilon=5e-4),
                              sample_size=8, seed=0)
        with caplog.at_level(logging.WARNING, logger="gcnfuse"):
            _, trace = fuse(model, twin, dataset, config)
        unconverged = [t for t in trace.layers if not t.plan.converged]
        assert unconverged
        assert len(caplog.records) == len(unconverged)
        for record, t in zip(caplog.records, unconverged):
            assert record.name == "gcnfuse" and record.levelno == logging.WARNING
            message = record.getMessage()
            assert f"layer {t.layer_index}:" in message
            assert "after 1 iterations" in message
            assert f"gap {t.plan.gap:.3g}" in message


class TestFuse:
    @pytest.mark.parametrize("cost_kind", ["efd", "qe", "weight"])
    def test_twin_recovery_end_to_end(self, small_regression_setup, cost_kind):
        dataset, model = small_regression_setup
        perms = hidden_perms(model, seed=22)
        twin = permute_model(model, perms)
        config = FusionConfig(cost=CostSpec(kind=cost_kind, lam=0.2),
                              sample_size=8, seed=0)
        fused, trace = fuse(model, twin, dataset, config)
        assert max_rel_prediction_gap(fused, model, dataset.graphs) < 1e-5
        # every hidden plan is exactly the (1/n)-scaled permutation
        for layer_trace, p in zip(trace.layers, perms):
            assert np.array_equal(layer_trace.plan.coupling, perm_plan(p).coupling)

    def test_fgw_cost_twin_recovery(self, small_regression_setup):
        dataset, model = small_regression_setup
        perms = hidden_perms(model, seed=23)
        twin = permute_model(model, perms)
        config = FusionConfig(cost=CostSpec(kind="fgw", lam=0.2, fgw=FgwCostSpec()),
                              sample_size=2, seed=0)
        fused, _ = fuse(model, twin, dataset, config)
        assert max_rel_prediction_gap(fused, model, dataset.graphs) < 1e-5

    @pytest.mark.parametrize("solver", ["emd", "sinkhorn"])
    @pytest.mark.parametrize("cost_kind", ["efd", "qe", "fgw", "weight"])
    def test_ot_fusion_beats_vanilla_on_twins(self, small_regression_setup, solver, cost_kind):
        # default epsilon and rho = 1: the QE Sinkhorn plans keep little mass,
        # which must not shrink the aligned parameters
        dataset, model = small_regression_setup
        twin = permute_model(model, hidden_perms(model, seed=30))
        fgw = FgwCostSpec() if cost_kind == "fgw" else None
        config = FusionConfig(solver=solver, cost=CostSpec(kind=cost_kind, lam=0.2, fgw=fgw),
                              sinkhorn=SinkhornParams(epsilon=default_epsilon(cost_kind)),
                              sample_size=2 if cost_kind == "fgw" else 8, seed=0)
        fused, _ = fuse(model, twin, dataset, config)
        assert evaluate_mae(fused, dataset) <= evaluate_mae(vanilla_fuse(model, twin), dataset)

    def test_one_layout_build_per_graph_collection(self, small_regression_setup, monkeypatch):
        # the dataset's layout is built once and serves every evaluation; the sampled batch
        # gathers its rows from it, and that layout serves both captures and the QE costs
        dataset, model = small_regression_setup
        builds = []
        build = graphs.bucket_layout
        monkeypatch.setattr(graphs, "bucket_layout", lambda gs: builds.append(len(gs)) or build(gs))
        twin = permute_model(model, hidden_perms(model, seed=31))
        fused, _ = fuse(model, twin, dataset, FusionConfig(cost=CostSpec(kind="qe"), sample_size=8))
        assert builds == [len(dataset)]
        maes = [evaluate_mae(fused, dataset) for _ in range(2)]
        assert builds == [len(dataset)] and maes[0] == maes[1]

    def test_self_fusion_returns_anchor_exactly(self, small_regression_setup):
        dataset, model = small_regression_setup
        config = FusionConfig(sample_size=8, seed=0)
        fused, trace = fuse(model, model, dataset, config)
        assert_models_equal(fused, model)
        assert trace.max_marginal_error() <= 1e-9

    def test_interpolation_one_returns_anchor(self, small_regression_setup):
        dataset, model = small_regression_setup
        other = random_model(ArchSpec(feature_dim=4, hidden_dim=6, gc_layers=1,
                                      dense_layers=2, batch_norm=True), seed=99)
        config = FusionConfig(sample_size=8, seed=0, interpolation=1.0)
        fused, _ = fuse(other, model, dataset, config)
        assert_models_equal(fused, model)

    def test_pure_alignment_preserves_function(self, small_regression_setup):
        # interpolation 0 keeps only aligned A; permutation plans make that a
        # pure symmetry operation
        dataset, model = small_regression_setup
        twin = permute_model(model, hidden_perms(model, seed=24))
        config = FusionConfig(sample_size=8, seed=0, interpolation=0.0)
        fused, _ = fuse(model, twin, dataset, config)
        assert max_rel_prediction_gap(fused, model, dataset.graphs) < 1e-5

    def test_plan_marginals_sound(self, small_regression_setup):
        dataset, model = small_regression_setup
        twin = random_model(ArchSpec(feature_dim=4, hidden_dim=6, gc_layers=1,
                                     dense_layers=2, batch_norm=True), seed=55)
        _, trace = fuse(model, twin, dataset, FusionConfig(sample_size=8, seed=0))
        assert trace.max_marginal_error() <= 1e-9
        assert "plan" in trace.report()

    def test_sinkhorn_self_fusion_tracks_anchor(self, small_regression_setup):
        # documented tolerance tied to epsilon; at 5e-5 the soft plans are
        # near-permutations and predictions stay within ~1e-3
        dataset, model = small_regression_setup
        config = FusionConfig(solver="sinkhorn",
                              sinkhorn=SinkhornParams(epsilon=5e-5),
                              sample_size=8, seed=0)
        fused, _ = fuse(model, model, dataset, config)
        gap = max(abs(predict(fused, (g,))[0] - predict(model, (g,))[0]) for g in dataset.graphs)
        assert gap < 1e-3

    def test_mlp_twin_recovery(self):
        gen = GeneratorSpec(count=40, min_vertices=1, max_vertices=1,
                            edge_density=0.0, feature_dim=4)
        dataset = synthesize_dataset(gen, seed=26)
        model = random_model(ArchSpec(feature_dim=4, hidden_dim=6, gc_layers=0,
                                      dense_layers=3, batch_norm=True), seed=27)
        dataset = label_with_model(model, dataset)
        twin = permute_model(model, hidden_perms(model, seed=28))
        fused, _ = fuse(model, twin, dataset, FusionConfig(sample_size=8, seed=0))
        assert max_rel_prediction_gap(fused, model, dataset.graphs) < 1e-5

    def test_architecture_mismatch_rejected(self, small_regression_setup):
        dataset, model = small_regression_setup
        other = random_model(ArchSpec(feature_dim=4, hidden_dim=5, gc_layers=1,
                                      dense_layers=2, batch_norm=True), seed=29)
        with pytest.raises(DimensionMismatchError):
            fuse(model, other, dataset, FusionConfig(sample_size=8))

    def test_activation_mode_needs_dataset(self, small_regression_setup):
        _, model = small_regression_setup
        with pytest.raises(InvalidSpecError, match="dataset"):
            fuse(model, model, None, FusionConfig(sample_size=8))

    def test_weight_mode_needs_no_dataset(self, small_regression_setup):
        dataset, model = small_regression_setup
        twin = permute_model(model, hidden_perms(model, seed=30))
        config = FusionConfig(cost=CostSpec(kind="weight"), sample_size=8, seed=0)
        fused, _ = fuse(model, twin, None, config)
        assert max_rel_prediction_gap(fused, model, dataset.graphs) < 1e-5


class TestBaselines:
    def test_vanilla_identical_models_fixed_point(self, small_regression_setup):
        _, model = small_regression_setup
        assert_models_equal(vanilla_fuse(model, model), model)

    def test_vanilla_interpolation_zero_returns_first(self, small_regression_setup):
        _, model = small_regression_setup
        other = random_model(ArchSpec(feature_dim=4, hidden_dim=6, gc_layers=1,
                                      dense_layers=2, batch_norm=True), seed=31)
        assert_models_equal(vanilla_fuse(model, other, interpolation=0.0), model)

    def test_vanilla_midpoint_recomputed(self):
        a = constant_model(1.0)
        b = constant_model(3.0)
        mid = vanilla_fuse(a, b, interpolation=0.5)
        assert np.array_equal(mid.layers[1].params.bias, [2.0])
        g = single_vertex_graphs([[0.0]])[0]
        assert predict(mid, (g,))[0] == 2.0

    def test_vanilla_interpolates_every_field(self):
        # t * b + (1 - t) * a in each parameter field, batch-norm epsilon included
        t = 0.3
        spec = ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=1, dense_layers=2, batch_norm=True)
        a, b = random_model(spec, seed=40), random_model(spec, seed=41)
        gc = b.layers[1]
        gc = replace(gc, batch_norm=replace(gc.batch_norm, epsilon=1e-3))
        b = replace(b, layers=(b.layers[0], gc, *b.layers[2:]))
        fused = vanilla_fuse(a, b, interpolation=t)
        mix = lambda x, y: t * y + (1.0 - t) * x
        bn_a, bn_b, bn = (m.layers[1].batch_norm for m in (a, b, fused))
        assert bn.epsilon == mix(1e-5, 1e-3)
        for name in ("gamma", "beta_shift", "running_mean", "running_var"):
            assert np.array_equal(getattr(bn, name), mix(getattr(bn_a, name), getattr(bn_b, name)))
        for i in a.parameterized_indices():
            pa, pb, pf = (m.layers[i].params for m in (a, b, fused))
            assert np.array_equal(pf.weight, mix(pa.weight, pb.weight))
            if pa.bias is None:  # the embedding
                assert pf.bias is None
            else:
                assert np.array_equal(pf.bias, mix(pa.bias, pb.bias))

    @pytest.mark.parametrize("method", ["vanilla", "fuse"])
    def test_fused_layers_keep_the_anchors_kinds_and_activations(self, small_regression_setup,
                                                                  method):
        # a ReLU hidden layer and a linear head both come through as the anchor has them
        _, a = small_regression_setup
        b = models.perturb_model(a, 0.1, seed=4)
        if method == "vanilla":
            fused = vanilla_fuse(a, b)
        else:
            fused, _ = fuse(a, b, None, FusionConfig(cost=CostSpec(kind="weight")))
        kinds = lambda m: [(type(l), l.activation) for l in m.layers
                           if not isinstance(l, models.MeanReadout)]
        assert kinds(fused) == kinds(b)
        assert {activation for _, activation in kinds(b)} == {"relu", "none"}

    @pytest.mark.parametrize("method", ["vanilla", "fuse"])
    def test_activation_mismatch_is_not_one_architecture(self, small_regression_setup, method):
        _, a = small_regression_setup
        b = replace(a, layers=(*a.layers[:-1], replace(a.layers[-1], activation="relu")))
        assert not a.same_architecture(b) and not b.same_architecture(a)
        with pytest.raises(DimensionMismatchError, match="share an architecture"):
            if method == "vanilla":
                vanilla_fuse(a, b)
            else:
                fuse(a, b, None, FusionConfig(cost=CostSpec(kind="weight")))

    def test_vanilla_architecture_mismatch(self, small_regression_setup):
        _, model = small_regression_setup
        with pytest.raises(DimensionMismatchError):
            vanilla_fuse(model, constant_model(0.0))

    def test_ensemble_single_model(self):
        model = constant_model(1.5)
        g = single_vertex_graphs([[0.0]])[0]
        assert ensemble_predict([model], [g])[0] == predict(model, (g,))[0]

    def test_ensemble_two_models_average(self):
        g = single_vertex_graphs([[0.0]])[0]
        assert ensemble_predict([constant_model(1.0), constant_model(3.0)], [g])[0] == 2.0

    def test_ensemble_recomputed_mean(self):
        rng = np.random.default_rng(32)
        models = [random_model(ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=1,
                                        dense_layers=1), seed=s) for s in (1, 2, 3)]
        g = make_graph(3, edges=[(0, 1), (1, 2)], values=rng.standard_normal((3, 3)))
        expected = np.mean([predict(m, (g,))[0] for m in models])
        assert ensemble_predict(models, [g])[0] == pytest.approx(expected, rel=1e-15)

    def test_ensemble_lays_a_graph_sequence_out_once(self, small_regression_setup, monkeypatch):
        # every member is evaluated on one layout, with the bits of its own predict
        dataset, model = small_regression_setup
        members = [model, permute_model(model, hidden_perms(model, seed=5)), second_model()]
        sequence = list(dataset.graphs[:12])
        expected = np.stack([predict(m, sequence) for m in members], axis=1).mean(axis=1)
        builds = []
        for module in (graphs, models):  # models calls its own import for plain sequences
            build = module.bucket_layout
            monkeypatch.setattr(module, "bucket_layout",
                                lambda gs, build=build: builds.append(len(gs)) or build(gs))
        got = ensemble_predict(members, sequence)
        assert builds == [12] and got.tobytes() == expected.tobytes()

    def test_ensemble_empty_rejected(self):
        with pytest.raises(InvalidSpecError):
            ensemble_predict([], single_vertex_graphs([[0.0]]))


class TestOtVersusVanilla:
    def test_ot_beats_vanilla_on_twin(self, small_regression_setup):
        dataset, model = small_regression_setup
        twin = permute_model(model, hidden_perms(model, seed=33))
        fused, _ = fuse(model, twin, dataset, FusionConfig(sample_size=8, seed=0))
        ot_mae = evaluate_mae(fused, dataset)
        vanilla_mae = evaluate_mae(vanilla_fuse(model, twin), dataset)
        assert ot_mae <= vanilla_mae
        assert ot_mae < 1e-8  # exact recovery on the teacher-labeled task
