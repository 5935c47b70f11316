import json
import re
from dataclasses import replace

import numpy as np
import pytest

from gcnfuse import (
    ActivationSample,
    ArchSpec,
    BatchNormParams,
    Dataset,
    Dense,
    DenseParams,
    DimensionMismatchError,
    Embedding,
    FusionBatch,
    GcnModel,
    GeneratorSpec,
    GraphConv,
    InvalidSpecError,
    MeanReadout,
    ModelFormatError,
    evaluate_mae,
    forward_with_capture,
    label_with_model,
    load_model,
    permute_model,
    perturb_model,
    predict,
    random_model,
    save_model,
    synthesize_dataset,
)
from gcnfuse.graphs import bucket_layout
from conftest import (
    assert_models_equal,
    constant_model,
    graph_capture,
    make_graph,
    path_graph,
    single_vertex_graphs,
    tiny_gcn,
)
from oracles import gather_permute_model, per_graph_forward


def random_graphs(count, feature_dim, seed, max_vertices=6):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(2, max_vertices + 1))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        graphs.append(make_graph(n, edges=edges,
                                 values=rng.standard_normal((n, feature_dim))))
    return graphs


class TestLayerValidation:
    def test_embedding_rejects_bias(self):
        with pytest.raises(ModelFormatError):
            Embedding(params=DenseParams(weight=[[1.0]], bias=[0.0]))

    def test_embedding_rejects_batch_norm(self):
        bn = BatchNormParams(gamma=[1.0], beta_shift=[0.0], running_mean=[0.0], running_var=[1.0])
        with pytest.raises(ModelFormatError, match="embedding"):
            Embedding(params=DenseParams(weight=[[1.0]]), batch_norm=bn)

    def test_activation_is_set_by_the_layer_kind(self):
        assert Embedding.activation == "none"
        assert GraphConv.activation == "relu"
        params = DenseParams(weight=[[1.0]])
        assert Embedding(params=params).activation == "none"
        assert Dense(params=params).activation == "relu"
        assert Dense(params=params, activation="none").activation == "none"

    def test_models_differing_only_in_an_activation_are_unequal(self):
        model = constant_model(1.0)
        flipped = replace(model, layers=(model.layers[0],
                                         replace(model.layers[1], activation="relu")))
        with pytest.raises(AssertionError):
            assert_models_equal(model, flipped)

    def test_bias_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            DenseParams(weight=np.ones((2, 3)), bias=np.ones(3))

    def test_bn_dim_checked(self):
        bn = BatchNormParams(gamma=[1, 1], beta_shift=[0, 0],
                             running_mean=[0, 0], running_var=[1, 1], epsilon=1e-5)
        for layer in (GraphConv, Dense):  # one rule and message for both
            with pytest.raises(DimensionMismatchError, match=r"^batch-norm dim 2 != out_dim 3$"):
                layer(params=DenseParams(weight=np.ones((3, 3))), batch_norm=bn)
            assert layer(params=DenseParams(weight=np.ones((2, 3))), batch_norm=bn).batch_norm is bn

    @pytest.mark.parametrize("epsilon", [True, False, "1e-5", None, [1e-5]])
    def test_bn_epsilon_must_be_a_number(self, epsilon):
        with pytest.raises(ModelFormatError, match="batch-norm epsilon .* is not a finite number"):
            BatchNormParams(gamma=[1.0], beta_shift=[0.0], running_mean=[0.0],
                            running_var=[1.0], epsilon=epsilon)
        assert BatchNormParams(gamma=[1.0], beta_shift=[0.0], running_mean=[0.0],
                               running_var=[1.0], epsilon=0).epsilon == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_parameters_rejected(self, value):
        with pytest.raises(ModelFormatError, match="NaN or infinite"):
            DenseParams(weight=[[1.0, value]])
        with pytest.raises(ModelFormatError, match="NaN or infinite"):
            DenseParams(weight=[[1.0]], bias=[value])
        with pytest.raises(ModelFormatError):
            BatchNormParams(gamma=[1.0], beta_shift=[0.0], running_mean=[0.0],
                            running_var=[1.0], epsilon=value)

    @pytest.mark.parametrize("gamma, mean", [(1e300, 0.0), (1.0, 1e300)],
                             ids=["scale-overflows", "shift-overflows"])
    def test_bn_non_finite_fold_rejected(self, tmp_path, gamma, mean):
        # sqrt(1e-320) is about 1e-160, so the folded scale or shift passes 1e308
        with pytest.raises(ModelFormatError, match="scale or shift is not finite"):
            BatchNormParams(gamma=[gamma], beta_shift=[0.0], running_mean=[mean],
                            running_var=[1e-320], epsilon=0.0)
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1, batch_norm=True), seed=27)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        bn = doc["layers"][1]["batch_norm"]
        bn["gamma"][0], bn["running_mean"][0], bn["running_var"][0] = gamma, mean, 1e-320
        bn["epsilon"] = 0.0
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layer 1: batch-norm scale or shift"):
            load_model(p)

    @pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
    def test_records_never_alias_a_callers_arrays(self, writeable):
        # a caller's array is copied whether or not the caller can write it
        given = [np.array(v) for v in ([[0.5, -1.0]], [0.25], [1.5], [0.1], [-0.2], [2.0])]
        for x in given:
            x.setflags(write=writeable)
        weight, bias, gamma, beta_shift, running_mean, running_var = given
        dense = DenseParams(weight=weight, bias=bias)
        bn = BatchNormParams(gamma=gamma, beta_shift=beta_shift, running_mean=running_mean,
                             running_var=running_var)
        kept = [dense.weight, dense.bias, bn.gamma, bn.beta_shift, bn.running_mean, bn.running_var]
        for x, y in zip(given, kept):
            assert not np.shares_memory(x, y) and np.array_equal(x, y) and not y.flags.writeable

    @pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
    def test_a_callers_bad_arrays_are_rejected(self, writeable):
        def given(values):
            x = np.array(values, dtype=np.float64)
            x.setflags(write=writeable)
            return x

        with pytest.raises(ModelFormatError, match="NaN or infinite"):
            DenseParams(weight=given([[1.0, np.nan]]))
        with pytest.raises(ModelFormatError, match="NaN or infinite"):
            DenseParams(weight=given([[1.0]]), bias=given([np.nan]))
        good = {name: given([1.0]) for name in ("gamma", "beta_shift", "running_mean", "running_var")}
        with pytest.raises(ModelFormatError, match="NaN or infinite"):
            BatchNormParams(**{**good, "running_mean": given([np.nan])})
        with pytest.raises(ModelFormatError, match="running_var entries must be >= 0"):
            BatchNormParams(**{**good, "running_var": given([-1.0])})

    def test_bn_negative_var_rejected(self):
        with pytest.raises(ModelFormatError):
            BatchNormParams(gamma=[1], beta_shift=[0], running_mean=[0],
                            running_var=[-1.0], epsilon=1e-5)

    def test_unknown_activation_rejected(self):
        with pytest.raises(ModelFormatError):
            Dense(params=DenseParams(weight=[[1.0]]), activation="tanh")

    def test_bn_inference_formula(self):
        bn = BatchNormParams(gamma=[2.0], beta_shift=[0.5], running_mean=[1.0],
                             running_var=[4.0], epsilon=0.0)
        x = np.array([[3.0], [7.0]])
        expected = 2.0 * (x - 1.0) / np.sqrt(4.0) + 0.5
        assert np.allclose(bn.apply(x), expected)

    def test_bn_apply_is_the_written_out_formula_and_keeps_its_input(self):
        rng = np.random.default_rng(3)
        bn = BatchNormParams(gamma=rng.uniform(0.5, 1.5, 6), beta_shift=rng.standard_normal(6),
                             running_mean=rng.standard_normal(6),
                             running_var=rng.uniform(0.5, 1.5, 6), epsilon=1e-5)
        x = rng.standard_normal((40, 6))
        before = x.copy()
        out = bn.apply(x)
        # the folded form, computed from the stored fields
        scale = bn.gamma / np.sqrt(bn.running_var + bn.epsilon)
        expected = x * scale + (bn.beta_shift - bn.running_mean * scale)
        assert out.tobytes() == expected.tobytes()
        assert x.tobytes() == before.tobytes()


class TestModelValidation:
    def test_dense_before_readout_rejected(self):
        with pytest.raises(ModelFormatError):
            GcnModel(layers=(Dense(params=DenseParams(weight=[[1.0]])), MeanReadout()))

    def test_graph_conv_after_readout_rejected(self):
        with pytest.raises(ModelFormatError):
            GcnModel(layers=(GraphConv(params=DenseParams(weight=[[1.0]])),
                             MeanReadout(),
                             GraphConv(params=DenseParams(weight=[[1.0]]))))

    def test_two_readouts_rejected(self):
        with pytest.raises(ModelFormatError):
            GcnModel(layers=(GraphConv(params=DenseParams(weight=[[1.0]])),
                             MeanReadout(), MeanReadout()))

    @pytest.mark.parametrize("name, seed, match", [
        (5, None, "model name 5 is not a string"),
        (None, None, "model name None is not a string"),
        ("m", "x", "model seed 'x' is not an integer"),
        ("m", True, "model seed True is not an integer"),
        ("m", 1.0, "model seed 1.0 is not an integer"),
    ])
    def test_name_and_seed_types_checked(self, name, seed, match):
        with pytest.raises(ModelFormatError, match=match):
            GcnModel(layers=constant_model(1.0).layers, name=name, seed=seed)

    def test_dim_chain_checked(self):
        with pytest.raises(ModelFormatError, match="layer 1"):
            GcnModel(layers=(Embedding(params=DenseParams(weight=np.ones((3, 2)))),
                             Dense(params=DenseParams(weight=np.ones((1, 4))))))


class TestForward:
    def test_single_vertex_graph_conv(self):
        # deg = 1, so normalization is the identity: ReLU(2*3 + 1) = 7
        model = GcnModel(layers=(GraphConv(params=DenseParams(weight=[[2.0]], bias=[1.0])),))
        g = make_graph(1, values=[[3.0]])
        assert predict(model, (g,))[0] == 7.0

    def test_zero_inputs_zero_biases_give_zero(self):
        model = tiny_gcn([[2.0]], [0.0], head_weight=[[5.0]])
        g = path_graph(3)  # all-zero features
        assert predict(model, (g,))[0] == 0.0

    def test_two_vertex_path_hand_value(self):
        # deg_u = deg_v = 2; normalized aggregation averages the endpoints:
        # agg = (1/sqrt 2)(1/sqrt 2 * 1 + 1/sqrt 2 * 5) = 3; z = 3*3 - 1 = 8
        model = tiny_gcn([[3.0]], [-1.0])
        g = make_graph(2, edges=[(0, 1)], values=[[1.0], [5.0]])
        assert predict(model, (g,))[0] == pytest.approx(8.0, abs=1e-12)

    def test_normalized_adjacency_values(self):
        g = make_graph(2, edges=[(0, 1)])
        assert np.allclose(bucket_layout((g,))[0].adjacency[0], [[0.5, 0.5], [0.5, 0.5]])

    def test_feature_dim_mismatch(self):
        model = tiny_gcn([[1.0]], [0.0])
        with pytest.raises(DimensionMismatchError):
            predict(model, (make_graph(2, feature_dim=3),))

    def test_mlp_matches_plain_arithmetic(self):
        rng = np.random.default_rng(0)
        W1, W2 = rng.standard_normal((4, 3)), rng.standard_normal((1, 4))
        b2 = rng.standard_normal(1)
        model = GcnModel(layers=(
            Embedding(params=DenseParams(weight=W1)),
            Dense(params=DenseParams(weight=W2, bias=b2), activation="none"),
        ))
        x = rng.standard_normal(3)
        g = make_graph(1, values=[x.tolist()])
        assert predict(model, (g,))[0] == pytest.approx((W2 @ (W1 @ x) + b2)[0], rel=1e-12)


class TestCapture:
    def test_pre_equals_post_without_bn(self):
        model = tiny_gcn([[3.0]], [-1.0])
        batch = FusionBatch(graphs=tuple(random_graphs(3, 1, seed=1)))
        _, pre = forward_with_capture(model, batch, "pre_bn")
        _, post = forward_with_capture(model, batch, "post_bn")
        for i in pre:
            if pre[i].is_graph_valued:
                for k in range(batch.sample_size):
                    assert np.array_equal(graph_capture(pre[i], k), graph_capture(post[i], k))
            else:
                assert np.array_equal(pre[i].values, post[i].values)

    def test_capture_is_pre_activation(self):
        # captured value is the affine output before ReLU: 2*3 + 1 = 7
        model = GcnModel(layers=(GraphConv(params=DenseParams(weight=[[2.0]], bias=[1.0])),))
        batch = FusionBatch(graphs=(make_graph(1, values=[[3.0]]),))
        preds, acts = forward_with_capture(model, batch)
        assert preds[0] == 7.0
        assert graph_capture(acts[0], 0)[0, 0] == 7.0

    def test_post_bn_subtracts_running_mean(self):
        m = 2.5
        bn = BatchNormParams(gamma=[1.0], beta_shift=[0.0], running_mean=[m],
                             running_var=[1.0], epsilon=0.0)
        model = tiny_gcn([[3.0]], [-1.0], bn=bn)
        batch = FusionBatch(graphs=tuple(random_graphs(4, 1, seed=2)))
        _, pre = forward_with_capture(model, batch, "pre_bn")
        _, post = forward_with_capture(model, batch, "post_bn")
        for k in range(batch.sample_size):
            a, b = graph_capture(pre[0], k), graph_capture(post[0], k)
            assert np.allclose(b, a - m)

    def test_predictions_match_per_graph_forward(self):
        spec = ArchSpec(feature_dim=3, hidden_dim=5, gc_layers=2, dense_layers=2,
                        batch_norm=True)
        model = random_model(spec, seed=4)
        graphs = random_graphs(5, 3, seed=5)
        batch = FusionBatch(graphs=tuple(graphs))
        preds, _ = forward_with_capture(model, batch)
        for k, g in enumerate(graphs):
            pred, _ = per_graph_forward(model, g, None)
            assert abs(preds[k] - pred) <= 1e-12 * max(1.0, abs(pred))

    def test_captures_survive_the_batch_norm_and_relu(self):
        spec = ArchSpec(feature_dim=3, hidden_dim=8, gc_layers=2, dense_layers=2,
                        batch_norm=True)
        model = random_model(spec, seed=6)
        batch = FusionBatch(graphs=tuple(random_graphs(6, 3, seed=7)))
        before = predict(model, batch)
        _, pre = forward_with_capture(model, batch, "pre_bn")
        _, post = forward_with_capture(model, batch, "post_bn")
        for i in (1, 2):  # the two graph-conv layers, each followed by BN and ReLU
            bn = model.layers[i].batch_norm
            for k in range(batch.sample_size):
                z, after = graph_capture(pre[i], k), graph_capture(post[i], k)
                expected = z * bn.scale + bn.shift  # the folded batch norm
                assert np.any(expected < 0)  # an in-place ReLU would have zeroed these
                assert after.tobytes() == expected.tobytes()
                assert not np.array_equal(z, after)  # an in-place BN would have made these equal
        for acts in (pre, post):  # the hidden dense layer: ReLU, no BN
            assert np.any(acts[4].values < 0) and np.array_equal(acts[4].values, pre[4].values)
        assert predict(model, batch).tobytes() == before.tobytes()

    def test_buckets_partition_the_batch(self):
        spec = ArchSpec(feature_dim=2, hidden_dim=4, gc_layers=2, dense_layers=2,
                        batch_norm=True)
        model = random_model(spec, seed=8)
        rng = np.random.default_rng(9)
        counts = (5, 1, 3, 5, 1)  # vertex counts out of order
        graphs = tuple(make_graph(n, edges=[(u, u + 1) for u in range(n - 1)],
                                  values=rng.standard_normal((n, 2))) for n in counts)
        batch = FusionBatch(graphs=graphs)
        _, acts = forward_with_capture(model, batch)
        # counts ascend, each batch position appears once, batch order within a bucket
        assert [bucket.index.tolist() for bucket in batch.layout] == [[1, 4], [2], [0, 3]]
        for i in (0, 1, 2):  # embedding and both graph convolutions
            assert acts[i].is_graph_valued and isinstance(acts[i].values, tuple)
            assert [stack.shape for stack in acts[i].values] == [(2, 1, 4), (1, 3, 4), (2, 5, 4)]
        for i, width in ((4, 4), (5, 1)):  # the dense layer and the head, after the readout
            assert not acts[i].is_graph_valued
            assert acts[i].values.shape == (len(counts), width)

    @staticmethod
    def _capture(seed):
        spec = ArchSpec(feature_dim=2, hidden_dim=4, gc_layers=1, dense_layers=2)
        graphs = tuple(path_graph(n, feature_dim=2) for n in (3, 2, 3))
        return forward_with_capture(random_model(spec, seed=seed), FusionBatch(graphs=graphs))[1]

    def test_partial_bucket_list_rejected(self):
        acts = self._capture(seed=10)[1]
        assert [bucket.index.tolist() for bucket in acts.batch.layout] == [[1], [0, 2]]
        with pytest.raises(InvalidSpecError, match="per bucket of batch.layout"):
            ActivationSample(batch=acts.batch, values=acts.values[:1])

    def test_position_listed_twice_rejected(self):
        acts = self._capture(seed=11)[1]
        small_stack, large_stack = acts.values
        # one bucket's stack given for both buckets, either way round
        for twice in ((small_stack, small_stack), (large_stack, large_stack)):
            with pytest.raises(InvalidSpecError, match="per bucket of batch.layout"):
                ActivationSample(batch=acts.batch, values=twice)

    def test_bucket_of_another_vertex_count_rejected(self):
        acts = self._capture(seed=13)[1]
        small_stack, large_stack = acts.values
        # the stacks swapped: each bucket's stack of the other graph and vertex counts
        with pytest.raises(InvalidSpecError, match="in its order"):
            ActivationSample(batch=acts.batch, values=(large_stack, small_stack))
        # each bucket's graph count, but the other bucket's vertex count
        swapped = (large_stack[:1], np.concatenate([small_stack, small_stack]))
        with pytest.raises(InvalidSpecError, match=r"one \(G, n, width\) stack of one width"):
            ActivationSample(batch=acts.batch, values=swapped)

    def test_stack_rows_and_width_checked(self):
        acts = self._capture(seed=11)[1]
        small_stack, large_stack = acts.values
        short = (small_stack, large_stack[:1])
        narrow = (small_stack[:, :, :2], large_stack)
        for values in (short, narrow):
            with pytest.raises(InvalidSpecError, match="one width"):
                ActivationSample(batch=acts.batch, values=values)

    def test_values_neither_tuple_nor_array_rejected(self):
        acts = self._capture(seed=14)
        per_vertex, readout = acts[1], acts[3]
        assert ActivationSample(batch=per_vertex.batch, values=tuple(per_vertex.values)).width == 4
        for values in (list(per_vertex.values), readout.values.tolist(), None, 1.0,
                       {0: per_vertex.values[0]}, tuple(v.tolist() for v in per_vertex.values)):
            with pytest.raises(InvalidSpecError, match="values must be a post-readout array or a tuple"):
                ActivationSample(batch=per_vertex.batch, values=values)

    def test_wrong_readout_row_count_rejected(self):
        acts = self._capture(seed=12)[3]  # the dense layer after the readout
        assert acts.values.shape == (3, 4)
        for values in (acts.values[:2], acts.values[0]):
            with pytest.raises(InvalidSpecError, match=r"\(3, width\) array"):
                ActivationSample(batch=acts.batch, values=values)

    def test_bad_capture_point(self):
        model = tiny_gcn([[1.0]], [0.0])
        batch = FusionBatch(graphs=(path_graph(2),))
        with pytest.raises(InvalidSpecError):
            forward_with_capture(model, batch, "mid_bn")


class TestEvaluateMae:
    def test_perfect_model_scores_zero(self):
        spec = GeneratorSpec(count=8, min_vertices=2, max_vertices=4,
                             edge_density=0.5, feature_dim=3)
        ds = synthesize_dataset(spec, seed=8)
        model = random_model(ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=1,
                                      dense_layers=1), seed=9)
        assert evaluate_mae(model, label_with_model(model, ds)) == 0.0

    def test_constant_zero_model(self):
        graphs = single_vertex_graphs([[0.0], [0.0]], targets=[1.0, -1.0])
        ds = Dataset(graphs=tuple(graphs), feature_dim=1)
        assert evaluate_mae(constant_model(0.0), ds) == 1.0

    def test_matches_direct_recomputation(self):
        spec = GeneratorSpec(count=10, min_vertices=2, max_vertices=5,
                             edge_density=0.4, feature_dim=3)
        ds = synthesize_dataset(spec, seed=10)
        model = random_model(ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=1,
                                      dense_layers=2), seed=11)
        direct = np.mean([abs(predict(model, (g,))[0] - g.target) for g in ds.graphs])
        assert evaluate_mae(model, ds) == pytest.approx(direct, rel=1e-15)

    def test_missing_target_rejected(self):
        ds = Dataset(graphs=(make_graph(2, feature_dim=1),), feature_dim=1)
        with pytest.raises(InvalidSpecError):
            evaluate_mae(constant_model(0.0), ds)

    def test_empty_dataset_rejected_before_any_forward_pass(self, monkeypatch):
        import gcnfuse.models as models_module
        monkeypatch.setattr(models_module, "_evaluate", lambda *args: pytest.fail("evaluated"))
        with pytest.raises(InvalidSpecError, match="empty dataset"):
            evaluate_mae(constant_model(0.0, feature_dim=4), Dataset(graphs=(), feature_dim=4))

    def test_targets_kept_read_only_and_checked_on_every_call(self, monkeypatch):
        import gcnfuse.graphs as graphs_module
        ds = Dataset(graphs=tuple(single_vertex_graphs([[0.0], [0.0]], targets=[1.0, -2.0])),
                     feature_dim=1)
        builds = []
        read = graphs_module.read_array
        monkeypatch.setattr(graphs_module, "read_array",
                            lambda *args, **kwargs: builds.append(1) or read(*args, **kwargs))
        for _ in range(2):
            assert evaluate_mae(constant_model(0.0), ds) == 1.5
        targets = ds.targets
        assert ds.targets is targets and builds == [1]
        assert targets.tolist() == [1.0, -2.0] and not targets.flags.writeable
        with pytest.raises(ValueError):
            targets[0] = 0.0
        unlabeled = Dataset(graphs=(*ds.graphs, make_graph(2, feature_dim=1)), feature_dim=1)
        for _ in range(2):
            with pytest.raises(InvalidSpecError, match="graph 2 has no target"):
                evaluate_mae(constant_model(0.0), unlabeled)


class TestPermuteModel:
    def test_identity_permutations_keep_model(self):
        spec = ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=1, dense_layers=2,
                        batch_norm=True)
        model = random_model(spec, seed=12)
        n_hidden = len(model.parameterized_indices()) - 1
        same = permute_model(model, [np.arange(4)] * n_hidden)
        assert_models_equal(model, same)

    def test_functional_equality(self):
        spec = ArchSpec(feature_dim=3, hidden_dim=5, gc_layers=2, dense_layers=2,
                        batch_norm=True)
        model = random_model(spec, seed=13)
        rng = np.random.default_rng(14)
        perms = [rng.permutation(5) for _ in range(len(model.parameterized_indices()) - 1)]
        twin = permute_model(model, perms)
        for g in random_graphs(100, 3, seed=15):
            a, b = predict(model, (g,))[0], predict(twin, (g,))[0]
            assert b == pytest.approx(a, rel=1e-6, abs=1e-9)

    def test_two_neuron_swap_moves_rows_and_columns(self):
        W1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        W2 = np.array([[5.0, 6.0]])
        model = GcnModel(layers=(
            Embedding(params=DenseParams(weight=W1)),
            Dense(params=DenseParams(weight=W2), activation="none"),
        ))
        swapped = permute_model(model, [np.array([1, 0])])
        assert np.array_equal(swapped.layers[0].params.weight, W1[[1, 0], :])
        assert np.array_equal(swapped.layers[1].params.weight, W2[:, [1, 0]])

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        # a loaded model can hold -0.0; moving neurons by index keeps the sign bit
        model = random_model(ArchSpec(feature_dim=3, hidden_dim=5, gc_layers=1, dense_layers=2,
                                      batch_norm=True), seed=20)
        conv = model.layers[1]
        weight, bias, beta = (np.array(a) for a in (conv.params.weight, conv.params.bias,
                                                    conv.batch_norm.beta_shift))
        weight[2, 3] = bias[1] = beta[4] = -0.0
        signed = GcnModel(layers=(model.layers[0], replace(
            conv, params=DenseParams(weight=weight, bias=bias),
            batch_norm=replace(conv.batch_norm, beta_shift=beta)), *model.layers[2:]))
        rng = np.random.default_rng(21)
        perms = [rng.permutation(5) for _ in range(len(signed.parameterized_indices()) - 1)]
        save_model(permute_model(signed, perms), tmp_path / "permuted.json")
        save_model(gather_permute_model(signed, perms), tmp_path / "gathered.json")
        assert len(re.findall(r"-0\.0(?![0-9e])", (tmp_path / "permuted.json").read_text())) == 3
        assert (tmp_path / "permuted.json").read_bytes() == (tmp_path / "gathered.json").read_bytes()

    def test_wrong_count_rejected(self):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=2), seed=16)
        with pytest.raises(InvalidSpecError, match="permutations"):
            permute_model(model, [np.arange(3)])

    def test_non_bijection_rejected(self):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=0,
                                      dense_layers=2), seed=17)
        with pytest.raises(InvalidSpecError, match="bijection"):
            permute_model(model, [np.array([0, 0, 2]), np.arange(3)])

    @pytest.mark.parametrize("perm", [[0.9, 1.2], [True, False], np.array([1.0, 0.0])],
                             ids=["fractions", "booleans", "float-array"])
    def test_non_integer_entries_rejected(self, perm):
        # each would cast to a valid bijection on 0..1
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=2, gc_layers=0,
                                      dense_layers=2), seed=17)
        with pytest.raises(InvalidSpecError, match="layer 0: permutation entries must be integers"):
            permute_model(model, [perm, np.arange(2)])


class TestPerturbModel:
    def test_zero_scale_is_identity(self):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1, batch_norm=True), seed=18)
        assert_models_equal(model, perturb_model(model, 0.0, seed=1))

    def test_bn_statistics_untouched(self):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1, batch_norm=True), seed=19)
        noisy = perturb_model(model, 0.05, seed=2)
        bn_a = model.layers[1].batch_norm
        bn_b = noisy.layers[1].batch_norm
        assert np.array_equal(bn_a.running_mean, bn_b.running_mean)
        assert np.array_equal(bn_a.running_var, bn_b.running_var)
        assert not np.array_equal(model.layers[1].params.weight,
                                  noisy.layers[1].params.weight)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=0,
                                      dense_layers=2), seed=20)
        with pytest.raises(InvalidSpecError, match=f"noise scale {scale!r} is not a finite number"):
            perturb_model(model, scale, seed=1)

    def test_deterministic(self):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=0,
                                      dense_layers=2), seed=20)
        assert_models_equal(perturb_model(model, 0.01, seed=3),
                            perturb_model(model, 0.01, seed=3))


class TestRandomModel:
    def test_same_seed_same_model(self):
        spec = ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=2, dense_layers=2,
                        batch_norm=True)
        assert_models_equal(random_model(spec, seed=21), random_model(spec, seed=21))

    def test_architecture_layout(self):
        spec = ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=2, dense_layers=2,
                        batch_norm=True)
        model = random_model(spec, seed=22)
        kinds = [type(l).__name__ for l in model.layers]
        assert kinds == ["Embedding", "GraphConv", "GraphConv", "MeanReadout",
                         "Dense", "Dense"]
        head = model.layers[-1]
        assert head.activation == "none" and head.batch_norm is None
        assert head.params.out_dim == 1

    def test_mlp_mode_has_no_graph_layers(self):
        spec = ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=0, dense_layers=3,
                        batch_norm=True)
        model = random_model(spec, seed=23)
        assert not any(isinstance(l, (GraphConv, MeanReadout)) for l in model.layers)
        # hidden dense layers carry BN in MLP mode, the head never does
        assert model.layers[1].batch_norm is not None
        assert model.layers[-1].batch_norm is None

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpecError):
            ArchSpec(feature_dim=0, hidden_dim=4, gc_layers=1, dense_layers=1)
        with pytest.raises(InvalidSpecError):
            ArchSpec(feature_dim=2, hidden_dim=4, gc_layers=1, dense_layers=0)

    @pytest.mark.parametrize("field, value", [("feature_dim", 2.0), ("hidden_dim", 2.5),
                                              ("gc_layers", True), ("dense_layers", "1")])
    def test_counts_must_be_integers(self, field, value):
        # hidden_dim=2.5 constructed, and random_model then failed with a raw TypeError
        base = dict(feature_dim=2, hidden_dim=4, gc_layers=1, dense_layers=1)
        with pytest.raises(InvalidSpecError, match=f"^{field} {value!r} is not an integer$"):
            ArchSpec(**{**base, field: value})


class TestModelIo:
    def test_round_trip_exact(self, tmp_path):
        specs = {"gcn-bn": ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=2, dense_layers=2,
                                    batch_norm=True),
                 "gcn": ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=2, dense_layers=2),
                 # batch norm on the hidden dense layers
                 "mlp-bn": ArchSpec(feature_dim=3, hidden_dim=4, gc_layers=0, dense_layers=3,
                                    batch_norm=True)}
        for label, spec in specs.items():
            model = random_model(spec, seed=24, name="m")
            p, again = tmp_path / f"{label}.json", tmp_path / f"{label}-again.json"
            save_model(model, p)
            loaded = load_model(p)
            assert_models_equal(model, loaded)
            save_model(loaded, again)
            assert again.read_bytes() == p.read_bytes(), label
        assert [type(l) for l in model.layers] == [Embedding, Dense, Dense, Dense]
        assert [l.batch_norm is not None for l in model.layers[1:]] == [True, True, False]

    def test_save_deterministic(self, tmp_path):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1), seed=25)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_dims_error_names_layer(self, tmp_path):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1), seed=26)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["layers"][1]["bias"] = [0.0]  # wrong length for a 3-wide layer
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layer 1"):
            load_model(p)

    def test_unknown_kind_rejected(self, tmp_path):
        model = constant_model(1.0)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["layers"][0]["kind"] = "attention"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="unknown layer kind"):
            load_model(p)

    @pytest.mark.parametrize("kind, field", [
        ("embedding", "bias"), ("embedding", "batch_norm"), ("embedding", "activation"),
        ("graph_conv", "activation"),
        ("mean_readout", "weight"), ("mean_readout", "bias"), ("mean_readout", "batch_norm"),
        ("mean_readout", "activation"),
    ])
    def test_a_field_the_kind_does_not_carry_is_rejected(self, tmp_path, kind, field):
        # each value would be valid on a kind that carries the field, so none may be dropped
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1, dense_layers=1,
                                      batch_norm=True), seed=31)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        kinds = [rec["kind"] for rec in doc["layers"]]
        assert kinds == ["embedding", "graph_conv", "mean_readout", "dense"]
        conv, layer = doc["layers"][1], kinds.index(kind)
        doc["layers"][layer][field] = {
            "weight": conv["weight"], "bias": [5.0, 5.0, 5.0], "batch_norm": conv["batch_norm"],
            "activation": "relu" if kind == "embedding" else "none"}[field]
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError,
                           match=f"m.json: layer {layer}: {kind} records carry no '{field}'$"):
            load_model(p)

    @pytest.mark.parametrize("batch_norm", [5, [1.0, 2.0], "gamma"], ids=["int", "list", "string"])
    def test_batch_norm_that_is_not_an_object_names_layer_and_field(self, tmp_path, batch_norm):
        # it read "'int' object is not subscriptable" and Python's other indexing messages
        p = tmp_path / "m.json"
        save_model(random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                         dense_layers=1), seed=32), p)
        doc = json.loads(p.read_text())
        doc["layers"][1]["batch_norm"] = batch_norm
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError,
                           match="m.json: layer 1: batch_norm must be a JSON object or null$"):
            load_model(p)

    @pytest.mark.parametrize("case", ["not-an-object", "no-weight"])
    def test_malformed_layer_record_names_layer(self, tmp_path, case):
        p = tmp_path / "m.json"
        save_model(random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                         dense_layers=1), seed=32), p)
        doc = json.loads(p.read_text())
        if case == "not-an-object":
            doc["layers"][2] = 5
            message = "layer 2: a layer record must be a JSON object"
        else:
            del doc["layers"][1]["weight"]
            message = "layer 1: graph_conv record has no 'weight'"
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"m.json: {message}$"):
            load_model(p)

    @pytest.mark.parametrize("document", [[1, 2], {"schema": "gcnfuse-model/1", "layers": 5}])
    def test_malformed_document_rejected(self, tmp_path, document):
        p = tmp_path / "m.json"
        p.write_text(json.dumps(document))
        with pytest.raises(ModelFormatError, match="JSON object"):
            load_model(p)

    @pytest.mark.parametrize("value", ["zz", float("nan"), float("inf"),
                                       pytest.param(10 ** 400, id="int-too-large")])
    def test_bad_weight_entry_names_layer(self, tmp_path, value):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1), seed=27)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["layers"][1]["weight"][0][0] = value
        p.write_text(json.dumps(doc))  # NaN and inf go out as bare NaN / Infinity
        with pytest.raises(ModelFormatError, match="layer 1"):
            load_model(p)

    @pytest.mark.parametrize("entry, shown", [("0.25", '"0.25"'), (True, "true"), (None, "null")],
                             ids=["string", "boolean", "null"])
    @pytest.mark.parametrize("layer, path", [
        (0, ["weight", 1, 0]), (1, ["weight", 0, 1]), (1, ["bias", 2]),
        *((1, ["batch_norm", name, 1]) for name in ("gamma", "beta_shift", "running_mean", "running_var")),
        (3, ["weight", 0, 2]), (3, ["bias", 0]),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, list) else f"layer{v}")
    def test_non_number_parameter_entry_names_layer_and_field(self, tmp_path, layer, path, entry, shown):
        # np.array would read "0.25" as 0.25, true as 1.0 and null as NaN
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1, dense_layers=1,
                                      batch_norm=True), seed=27)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        *keys, last = path
        target = doc["layers"][layer]
        for key in keys:
            target = target[key]
        target[last] = entry
        p.write_text(json.dumps(doc))
        field = [k for k in keys if isinstance(k, str)][-1]
        with pytest.raises(ModelFormatError,
                           match=f"m.json: layer {layer}: {field} holds {shown}, which is not a number$"):
            load_model(p)

    def test_oversized_batchnorm_epsilon_names_layer(self, tmp_path):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1, batch_norm=True), seed=27)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["layers"][1]["batch_norm"]["epsilon"] = 10 ** 400  # too large for a float
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layer 1"):
            load_model(p)

    def test_batchnorm_keys_missing_or_extra(self, tmp_path):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1, batch_norm=True), seed=28)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        assert list(doc["layers"][1]["batch_norm"]) == [
            "gamma", "beta_shift", "running_mean", "running_var", "epsilon"]
        doc["layers"][1]["batch_norm"]["momentum"] = 0.9  # not a field; ignored
        p.write_text(json.dumps(doc))
        assert_models_equal(load_model(p), model)
        del doc["layers"][1]["batch_norm"]["running_var"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layer 1: 'running_var'"):
            load_model(p)

    @pytest.mark.parametrize("key, value", [("name", 5), ("name", None), ("seed", "x"),
                                            ("seed", False), ("seed", 2.0)])
    def test_name_and_seed_of_another_json_type_rejected(self, tmp_path, key, value):
        p = tmp_path / "m.json"
        save_model(random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                         dense_layers=1), seed=29, name="m"), p)
        doc = json.loads(p.read_text())
        doc[key] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"m.json: model {key} .* is not a"):
            load_model(p)

    @pytest.mark.parametrize("epsilon", [True, "1e-5"])
    def test_batchnorm_epsilon_of_another_json_type_names_layer(self, tmp_path, epsilon):
        model = random_model(ArchSpec(feature_dim=2, hidden_dim=3, gc_layers=1,
                                      dense_layers=1, batch_norm=True), seed=30)
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        doc["layers"][1]["batch_norm"]["epsilon"] = epsilon
        p.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="layer 1: batch-norm epsilon .* is not a finite number"):
            load_model(p)

    def test_unknown_schema_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"schema": "something-else/9", "layers": []}))
        with pytest.raises(ModelFormatError, match="schema"):
            load_model(p)
