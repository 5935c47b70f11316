import json
import re

import numpy as np
import pytest

from gcnfuse import (
    ArchSpec,
    DatasetFormatError,
    Dataset,
    DimensionMismatchError,
    GeneratorSpec,
    Graph,
    InvalidSpecError,
    forward_with_capture,
    load_dataset,
    random_model,
    sample_batch,
    synthesize_dataset,
    write_dataset,
)
from gcnfuse.graphs import bucket_layout
from conftest import make_graph, path_graph


class TestGraph:
    def test_edges_canonicalized(self):
        g = make_graph(3, edges=[(2, 0), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(DatasetFormatError):
            make_graph(2, edges=[(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DatasetFormatError):
            make_graph(3, edges=[(0, 1), (1, 0)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(DatasetFormatError):
            make_graph(3, edges=[(0, 5)])

    @pytest.mark.parametrize("given, message", [
        (dict(edges=((0, 1.7),)), "edge endpoint 1.7 is not an integer"),  # not stored as (0, 1)
        (dict(edges=((True, 2),)), "edge endpoint True is not an integer"),  # not stored as (1, 2)
        (dict(edges=((0, 1, 2),)), r"edge \(0, 1, 2\) is not a pair of vertices"),  # not cut to (0, 1)
        (dict(edges=(5,)), "edge 5 is not a pair of vertices"),
        (dict(target="2.5"), "target '2.5' is not a finite number"),  # not parsed to 2.5
        (dict(target=True), "target True is not a finite number"),  # not taken as 1.0
        (dict(num_vertices=True, features=np.zeros((1, 1))), "num_vertices True is not an integer"),
        (dict(num_vertices=1, features=[["a"]]), 'features holds "a", which is not a number'),
    ], ids=["float-endpoint", "bool-endpoint", "triple", "not-a-pair", "string-target",
            "bool-target", "bool-count", "string-feature"])
    def test_constructor_rejects_values_of_another_type(self, given, message):
        with pytest.raises(DatasetFormatError, match=f"^{message}"):
            Graph(**{"num_vertices": 3, "edges": (), "features": np.zeros((3, 1)), **given})

    def test_numpy_endpoints_are_read_as_ints(self):
        g = make_graph(3, edges=[(np.int64(2), np.int64(0))])
        assert g.edges == ((0, 2),) and all(type(x) is int for x in g.edges[0])

    def test_numpy_target_is_read_as_a_float(self):
        g = make_graph(1, target=np.float32(0.5))
        assert type(g.target) is float and g.target == 0.5

    def test_feature_row_count_checked(self):
        with pytest.raises(DatasetFormatError):
            Graph(num_vertices=2, edges=(), features=np.zeros((3, 1)))

    def test_features_immutable(self):
        g = make_graph(2, values=[[1.0], [2.0]])
        with pytest.raises(ValueError):
            g.features[0, 0] = 9.0

    def test_hop_distances_kept_and_read_only(self):
        g = make_graph(4, edges=[(0, 1), (1, 2)])
        D = g.hop_distances
        assert g.hop_distances is D
        assert np.array_equal(D, [[0, 1, 2, 3], [1, 0, 1, 3], [2, 1, 0, 3], [3, 3, 3, 0]])
        with pytest.raises(ValueError):
            D[0, 1] = 5.0


class TestLayout:
    @staticmethod
    def _dataset():
        spec = GeneratorSpec(count=14, min_vertices=1, max_vertices=5, edge_density=0.5,
                             feature_dim=2)
        return synthesize_dataset(spec, seed=4)

    def test_buckets_stack_the_graphs(self):
        ds = self._dataset()
        layout = ds.layout
        assert [b.num_vertices for b in layout] == sorted({g.num_vertices for g in ds.graphs})
        assert sorted(np.concatenate([b.index for b in layout]).tolist()) == list(range(len(ds)))
        for bucket in layout:
            n = bucket.num_vertices
            assert bucket.index.tolist() == sorted(bucket.index.tolist())
            for pos, k in enumerate(bucket.index):
                g = ds.graphs[k]
                assert g.num_vertices == n
                assert np.array_equal(bucket.features[pos], g.features)
                links = np.zeros((n, n))
                for u, v in g.edges:
                    links[u, v] = links[v, u] = 1.0
                assert np.array_equal(bucket.links[pos], links)
                inv_sqrt = 1.0 / np.sqrt(1.0 + links.sum(axis=1))
                np.testing.assert_allclose(bucket.adjacency[pos],
                                           (links + np.eye(n)) * np.outer(inv_sqrt, inv_sqrt),
                                           rtol=1e-15, atol=0)

    def test_layout_kept_and_read_only(self):
        ds = self._dataset()
        batch = sample_batch(ds, 6, seed=1)
        for collection in (ds, batch):
            layout = collection.layout
            assert collection.layout is layout
            for bucket in layout:
                for array in (bucket.index, bucket.features, bucket.links, bucket.adjacency):
                    assert not array.flags.writeable
                    with pytest.raises(ValueError):
                        array.flat[0] = 1

    def test_feature_dims_must_agree(self):
        graphs = (make_graph(2, feature_dim=3), make_graph(2, feature_dim=2))
        with pytest.raises(DimensionMismatchError, match="feature_dim"):
            bucket_layout(graphs)
        with pytest.raises(DimensionMismatchError, match="feature_dim"):
            bucket_layout((graphs[0], make_graph(3, feature_dim=2)))
        with pytest.raises(DatasetFormatError, match="feature_dim"):
            Dataset(graphs=graphs, feature_dim=3)


class TestDataset:
    def test_feature_dim_mismatch(self):
        g1 = make_graph(2, feature_dim=3)
        g2 = make_graph(2, feature_dim=2)
        with pytest.raises(DatasetFormatError, match="graph 1"):
            Dataset(graphs=(g1, g2), feature_dim=3)


class TestFusionBatch:
    def test_sample_size(self):
        batch = Dataset(graphs=(path_graph(2), path_graph(3)), feature_dim=1)
        assert batch.sample_size == 2

    def test_empty_rejected(self):
        model = random_model(ArchSpec(feature_dim=1, hidden_dim=2, gc_layers=1, dense_layers=1), 0)
        with pytest.raises(InvalidSpecError, match="a fusion batch needs at least one graph"):
            forward_with_capture(model, Dataset(graphs=(), feature_dim=1))


class TestLoadDataset:
    def test_single_record(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            json.dumps({"feature_dim": 3}) + "\n"
            + json.dumps({"n": 2, "edges": [[0, 1]], "x": [[1, 2, 3], [4, 5, 6]], "y": 0.5}) + "\n"
        )
        ds = load_dataset(p)
        assert len(ds) == 1 and ds.feature_dim == 3
        g = ds.graphs[0]
        assert g.edges == ((0, 1),)
        assert g.target == 0.5
        assert np.array_equal(g.features, [[1, 2, 3], [4, 5, 6]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        with pytest.raises(DatasetFormatError, match="empty dataset"):
            load_dataset(p)

    def test_bad_edge_names_record(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            json.dumps({"n": 3, "edges": [[0, 1]], "x": [[0], [0], [0]]}) + "\n"
            + json.dumps({"n": 3, "edges": [[0, 5]], "x": [[0], [0], [0]]}) + "\n"
        )
        with pytest.raises(DatasetFormatError, match="record 2"):
            load_dataset(p)

    @pytest.mark.parametrize("record", [
        {"n": "x", "x": [[0.0]]},
        {"n": 2, "edges": [[0]], "x": [[0.0], [0.0]]},
        {"n": 1, "x": [[0.0]], "y": "abc"},
        {"n": 1, "x": [["a"]]},
        {"n": 2, "edges": [[0, 1.5]], "x": [[0.0], [0.0]]},  # not truncated to (0, 1)
        {"n": 1, "atom": [0.5]},  # not truncated to atom 0
        {"n": 1, "x": [[float("nan")]]},
        {"n": 1, "x": [[0.0]], "y": float("inf")},
        {"n": 1, "x": [[0.0]], "y": 10 ** 400},  # too large for a float
        {"n": 1, "x": [[0.0]], "y": "2.5"},  # not parsed to 2.5
        {"n": 1, "x": [[0.0]], "y": True},  # not taken as 1.0
    ])
    def test_malformed_record_names_record(self, tmp_path, record):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"vocab": 1}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DatasetFormatError, match="record 2"):
            load_dataset(p)

    def test_a_record_with_both_x_and_atom_is_rejected(self, tmp_path):
        # neither feature form is dropped in favour of the other
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"vocab": 2}) + "\n"
                     + json.dumps({"n": 2, "x": [[1, 2], [3, 4]], "atom": [1, 0]}) + "\n")
        with pytest.raises(DatasetFormatError,
                           match="^record 2: a record holds 'x' or 'atom' features, not both$"):
            load_dataset(p)

    @pytest.mark.parametrize("entry, shown", [("1.5", '"1.5"'), (True, "true"), (None, "null")],
                             ids=["string", "boolean", "null"])
    def test_non_number_feature_entry_names_record_and_field(self, tmp_path, entry, shown):
        # np.array would read "1.5" as 1.5, true as 1.0 and null as NaN
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"n": 1, "x": [[0.5]]}) + "\n"
                     + json.dumps({"n": 2, "x": [[0.5, 1.0], [2.0, entry]]}) + "\n")
        with pytest.raises(DatasetFormatError,
                           match=f"^record 2: features holds {shown}, which is not a number$"):
            load_dataset(p)

    def test_integer_and_null_targets_load(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"n": 1, "x": [[0.0]], "y": 2}) + "\n"
                     + json.dumps({"n": 1, "x": [[0.0]], "y": None}) + "\n")
        first, second = load_dataset(p).graphs
        assert type(first.target) is float and first.target == 2.0
        assert second.target is None

    def test_invalid_json_names_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("{not json\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(p)

    def test_atom_records_expand_to_onehot(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            json.dumps({"feature_dim": 3, "vocab": 3}) + "\n"
            + json.dumps({"n": 2, "edges": [[0, 1]], "atom": [2, 0]}) + "\n"
        )
        ds = load_dataset(p)
        assert np.array_equal(ds.graphs[0].features, [[0, 0, 1], [1, 0, 0]])

    def test_atom_out_of_vocab(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            json.dumps({"feature_dim": 2, "vocab": 2}) + "\n"
            + json.dumps({"n": 1, "edges": [], "atom": [2]}) + "\n"
        )
        with pytest.raises(DatasetFormatError, match="record 2"):
            load_dataset(p)

    def test_header_feature_dim_enforced(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(
            json.dumps({"feature_dim": 3}) + "\n"
            + json.dumps({"n": 1, "edges": [], "x": [[1, 2]]}) + "\n"
        )
        with pytest.raises(DatasetFormatError, match="feature_dim"):
            load_dataset(p)

    @pytest.mark.parametrize("header, record", [
        ({"vocab": 0}, {"n": 1, "atom": [0]}),
        ({"vocab": -3}, {"n": 1, "atom": [0]}),
        ({"feature_dim": 0}, {"n": 1, "x": [[]]}),
    ])
    def test_header_sizes_are_read_at_least_one(self, tmp_path, header, record):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        (key, value), = header.items()
        with pytest.raises(DatasetFormatError, match=rf"^record 1: {key} must be >= 1, got {value}$"):
            load_dataset(p)

    @pytest.mark.parametrize("records, message", [
        # a graph record without "n" was taken for a header and dropped
        ([{"feature_dim": 1}, {"n": 1, "x": [[1.0]], "y": 1}, {"x": [[2.0]], "y": 2},
          {"n": 1, "x": [[3.0]], "y": 3}], "record 3: graph record has no 'n'"),
        # misspelled keys loaded as an edgeless graph and an unlabelled one
        ([{"feature_dim": 1}, {"n": 2, "edge": [[0, 1]], "x": [[1.0], [2.0]], "y": 1}],
         "record 2: unknown key 'edge' in a graph record; graph keys are n, edges, x, atom, y"),
        ([{"feature_dim": 1}, {"n": 1, "x": [[1.0]], "target": 1}],
         "record 2: unknown key 'target' in a graph record"),
        # a header after graph records changed feature_dim and vocab for the records after it
        ([{"feature_dim": 1}, {"n": 1, "x": [[1.0]], "y": 1}, {"feature_dim": 1},
          {"n": 1, "x": [[2.0]], "y": 2}], "record 3: unknown key 'feature_dim' in a graph record"),
        ([{"feature_dim": 1, "vocabulary": 3}, {"n": 1, "x": [[1.0]], "y": 1}],
         "record 1: unknown key 'vocabulary' in a header record; header keys are feature_dim, vocab"),
    ], ids=["no-n", "edge", "target", "late-header", "header-key"])
    def test_every_record_says_what_it_is(self, tmp_path, records, message):
        p = tmp_path / "d.jsonl"
        p.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(message)}"):
            load_dataset(p)

    def test_round_trip(self, tmp_path):
        spec = GeneratorSpec(count=5, min_vertices=2, max_vertices=5,
                             edge_density=0.5, feature_dim=3)
        ds = synthesize_dataset(spec, seed=1)
        p = tmp_path / "d.jsonl"
        write_dataset(ds, p)
        back = load_dataset(p)
        assert len(back) == len(ds) and back.feature_dim == ds.feature_dim
        for g1, g2 in zip(ds.graphs, back.graphs):
            assert (g1.num_vertices, g1.edges) == (g2.num_vertices, g2.edges)
            assert np.array_equal(g1.features, g2.features)
            assert g1.target == g2.target


class TestSampleBatch:
    def _dataset(self, n):
        return Dataset(graphs=tuple(make_graph(2, feature_dim=1) for _ in range(n)),
                       feature_dim=1)

    def test_exhaustive_sample_covers_all(self):
        ds = self._dataset(10)
        batch = sample_batch(ds, 10, seed=5)
        assert batch.sample_size == 10
        assert {id(g) for g in batch.graphs} == {id(g) for g in ds.graphs}

    def test_deterministic_per_seed(self):
        ds = self._dataset(8)
        b1 = sample_batch(ds, 4, seed=42)
        b2 = sample_batch(ds, 4, seed=42)
        assert [id(g) for g in b1.graphs] == [id(g) for g in b2.graphs]

    def test_size_out_of_range(self):
        ds = self._dataset(5)
        with pytest.raises(InvalidSpecError):
            sample_batch(ds, 6, seed=0)
        with pytest.raises(InvalidSpecError):
            sample_batch(ds, 0, seed=0)


class TestSynthesize:
    def test_full_density_gives_complete_graphs(self):
        spec = GeneratorSpec(count=4, min_vertices=3, max_vertices=3,
                             edge_density=1.0, feature_dim=2)
        ds = synthesize_dataset(spec, seed=0)
        assert len(ds) == 4
        for g in ds.graphs:
            assert g.num_vertices == 3
            assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}

    def test_deterministic_bytes(self, tmp_path):
        spec = GeneratorSpec(count=6, min_vertices=2, max_vertices=5,
                             edge_density=0.4, feature_dim=3)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(synthesize_dataset(spec, seed=9), p1)
        write_dataset(synthesize_dataset(spec, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("field, value", [("count", 2.5), ("min_vertices", 1.5),
                                              ("max_vertices", True), ("feature_dim", "2")])
    def test_counts_must_be_integers(self, field, value):
        # min_vertices=1.5 synthesized a dataset; count=2.5 failed later with a raw TypeError
        base = dict(count=3, min_vertices=2, max_vertices=3, edge_density=0.5, feature_dim=2)
        with pytest.raises(InvalidSpecError, match=f"^{field} {value!r} is not an integer$"):
            GeneratorSpec(**{**base, field: value})

    def test_density_above_one_rejected(self):
        with pytest.raises(InvalidSpecError):
            GeneratorSpec(count=1, min_vertices=2, max_vertices=2,
                          edge_density=2.0, feature_dim=1)

    def test_target_rules(self):
        base = dict(count=3, min_vertices=2, max_vertices=3, edge_density=0.5, feature_dim=2)
        labeled = synthesize_dataset(GeneratorSpec(**base), seed=1)
        assert all(g.target is not None and np.isfinite(g.target) for g in labeled.graphs)
