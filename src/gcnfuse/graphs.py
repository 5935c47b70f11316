"""Graph and dataset containers plus ingestion, synthesis, and batch sampling.

Graphs are undirected, stored without self-loops (the propagation rule adds
the vertex itself to its own neighborhood), and carry one dense feature row
per vertex. Datasets are ordered and immutable so that every sampling or
evaluation step is replayable from a seed; a fusion batch is the Dataset that
sample_batch draws, which takes its rows of the parent's kept bucket layout.

Dataset files are line-delimited JSON: an optional header record declaring
``feature_dim`` (and ``vocab`` for categorical features), each >= 1, then one
record per graph with fields ``n``, ``edges``, ``x`` (dense rows) or ``atom``
(categorical indices, expanded to one-hot on load), and optional ``y``.

Graph, Dataset, the specs and the seeds check their values with the readers of errors, so x in a
file is held to the rules of features built in Python; the loader adds the record's line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse.csgraph

from .errors import (DatasetFormatError, DimensionMismatchError, InvalidSpecError, read_array,
                     read_integer, read_number)


@dataclass(frozen=True)
class Graph:
    """Undirected graph with per-vertex feature rows and an optional target.

    Edges (pairs) are canonicalized to ``(min(u, v), max(u, v))``, deduplicated and held only
    in ``edges``; self-loops are rejected because degree normalization counts the vertex
    itself exactly once. The count and endpoints are integers, features and target finite.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    features: np.ndarray
    target: float | None = None

    def __post_init__(self):
        last = read_integer(self.num_vertices, "num_vertices", DatasetFormatError, least=1) - 1
        canon = {}  # canonical edge -> None, in the given order
        for e in self.edges:
            if not isinstance(e, (tuple, list, np.ndarray)) or len(e) != 2:
                raise DatasetFormatError(f"edge {e!r} is not a pair of vertices")
            u = read_integer(e[0], "edge endpoint", DatasetFormatError, least=0, most=last)
            v = read_integer(e[1], "edge endpoint", DatasetFormatError, least=0, most=last)
            if u == v:
                raise DatasetFormatError(f"self-loop on vertex {u} is not stored explicitly")
            key = (min(u, v), max(u, v))
            if key in canon:
                raise DatasetFormatError(f"duplicate edge ({u}, {v})")
            canon[key] = None
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "features", read_array(self.features, 2, "features", DatasetFormatError))
        if self.features.shape[0] != self.num_vertices:
            raise DatasetFormatError(
                f"features have {self.features.shape[0]} rows for {self.num_vertices} vertices")
        if self.target is not None:
            object.__setattr__(self, "target", read_number(self.target, "target", DatasetFormatError))

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def hop_distances(self) -> np.ndarray:
        """Read-only hop counts between vertices; disconnected pairs get (longest finite path + 1)."""
        u, v = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        A = scipy.sparse.csr_matrix((np.ones(u.size), (u, v)), shape=(self.num_vertices,) * 2)
        D = scipy.sparse.csgraph.shortest_path(A, method="D", directed=False, unweighted=True)
        D[np.isinf(D)] = D[np.isfinite(D)].max() + 1.0
        D.setflags(write=False)
        return D


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of graphs with a common feature_dim. A fusion batch is one,
    drawn by sample_batch: both models see vertex k of graph g as the same vertex."""

    graphs: tuple[Graph, ...]
    feature_dim: int

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        read_integer(self.feature_dim, "feature_dim", DatasetFormatError, least=1)
        for i, g in enumerate(self.graphs):
            if g.feature_dim != self.feature_dim:
                raise DatasetFormatError(
                    f"graph {i} has feature_dim {g.feature_dim}, dataset declares {self.feature_dim}")

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def sample_size(self) -> int:
        """len(self); kept because the benchmark's tracer reads a batch's sample_size."""
        return len(self.graphs)

    @cached_property
    def layout(self) -> tuple[Bucket, ...]:
        """The graphs' bucket_layout, built on first use and kept."""
        return bucket_layout(self.graphs)

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Each graph's bucket in layout and its row in that bucket, by dataset position."""
        bucket_of, row_of = np.empty((2, len(self)), dtype=np.intp)
        for b, bucket in enumerate(self.layout):
            bucket_of[bucket.index], row_of[bucket.index] = b, np.arange(len(bucket.index))
        return bucket_of, row_of

    @cached_property
    def targets(self) -> np.ndarray:
        """The graphs' targets as a read-only array, built on first use and kept.

        A graph without a target raises InvalidSpecError on every read.
        """
        for i, g in enumerate(self.graphs):
            if g.target is None:
                raise InvalidSpecError(f"graph {i} has no target; cannot evaluate MAE")
        return read_array([g.target for g in self.graphs], 1, "targets", InvalidSpecError)


@dataclass(frozen=True)
class Bucket:
    """The G graphs of one vertex count n in read-only arrays: batch positions (ascending) and,
    stacked in that order, (G, n, d) features, (G, n, n) 0/1 links and (G, n, n) normalized
    adjacencies, 1/sqrt(deg_u deg_v) on each edge and u == v, degrees counting the vertex itself."""

    index: np.ndarray
    features: np.ndarray
    links: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            array.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.links.shape[1]


def bucket_layout(graphs) -> tuple[Bucket, ...]:
    """One Bucket per vertex count, ascending: what a forward pass needs of the graphs."""
    if len({g.features.shape[1] for g in graphs}) > 1:
        raise DimensionMismatchError("the graphs disagree on feature_dim")
    groups: dict[int, list[int]] = {}
    for k, g in enumerate(graphs):
        groups.setdefault(g.num_vertices, []).append(k)
    layout = []
    for n in sorted(groups):
        members = [graphs[k] for k in groups[n]]
        owner = np.repeat(np.arange(len(members)), [len(g.edges) for g in members])
        u, v = np.array([e for g in members for e in g.edges], dtype=np.intp).reshape(-1, 2).T
        links = np.zeros((len(members), n, n))
        links[owner, u, v] = links[owner, v, u] = 1.0
        inv_sqrt = 1.0 / np.sqrt(1.0 + links.sum(axis=2))
        # inv_sqrt[u] * 1 * inv_sqrt[v] on each edge and the diagonal, exact zeros elsewhere
        adjacency = inv_sqrt[:, :, None] * (links + np.eye(n)) * inv_sqrt[:, None, :]
        layout.append(Bucket(np.array(groups[n]), np.stack([g.features for g in members]),
                             links, adjacency))
    return tuple(layout)


_RECORD_KEYS = {"header": ("feature_dim", "vocab"), "graph": ("n", "edges", "x", "atom", "y")}


def load_dataset(path: str | Path) -> Dataset:
    """Read a line-delimited JSON dataset file.

    Only the first record may be a header, with keys drawn from feature_dim
    and vocab; every other record is a graph, with keys drawn from n, edges,
    x, atom and y. Raises DatasetFormatError with the offending record index
    on an unknown key, parse, type or invariant failures; an empty file is an error.
    """
    path = Path(path)
    feature_dim: int | None = None
    vocab: int | None = None
    graphs: list[Graph] = []
    first = True
    try:
        with path.open() as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetFormatError(f"line {lineno}: invalid JSON ({exc})") from exc
                try:
                    if not isinstance(rec, dict):
                        raise DatasetFormatError("record is not a JSON object")
                    kind, first = "header" if first and "n" not in rec else "graph", False
                    keys = _RECORD_KEYS[kind]
                    unknown = next((key for key in rec if key not in keys), None)
                    if unknown is not None:
                        raise DatasetFormatError(f"unknown key {unknown!r} in a {kind} record; "
                                                 f"{kind} keys are {', '.join(keys)}")
                    if kind == "graph":
                        graphs.append(_parse_graph_record(rec, feature_dim, vocab))
                        continue
                    if "feature_dim" in rec:
                        feature_dim = read_integer(rec["feature_dim"], "feature_dim", DatasetFormatError,
                                                   least=1)
                    if "vocab" in rec:
                        vocab = read_integer(rec["vocab"], "vocab", DatasetFormatError, least=1)
                except (DatasetFormatError, ValueError, TypeError, KeyError, OverflowError) as exc:
                    raise DatasetFormatError(f"record {lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:  # raised by the line reads, never by a record
        raise DatasetFormatError(f"{path}: not readable as text ({exc})") from exc
    if not graphs:
        raise DatasetFormatError(f"empty dataset: {path}")
    if feature_dim is None:
        feature_dim = graphs[0].feature_dim
    return Dataset(graphs=tuple(graphs), feature_dim=feature_dim)


def _parse_graph_record(rec: dict, feature_dim: int | None, vocab: int | None) -> Graph:
    if "n" not in rec:
        raise DatasetFormatError("graph record has no 'n'")
    n = read_integer(rec["n"], "vertex count", DatasetFormatError)
    if "x" in rec and "atom" in rec:
        raise DatasetFormatError("a record holds 'x' or 'atom' features, not both")
    if "x" in rec:
        features = rec["x"]
    elif "atom" in rec:
        if vocab is None:
            raise DatasetFormatError("'atom' record requires a header declaring 'vocab'")
        idx = np.array([read_integer(a, "atom index", DatasetFormatError, least=0, most=vocab - 1)
                        for a in rec["atom"]], dtype=np.int64)
        if idx.ndim != 1 or idx.shape[0] != n:
            raise DatasetFormatError("'atom' must list one index per vertex")
        features = np.zeros((n, vocab), dtype=np.float64)
        features[np.arange(n), idx] = 1.0
    else:
        raise DatasetFormatError("record has neither 'x' nor 'atom' features")
    graph = Graph(num_vertices=n, edges=rec.get("edges", ()), features=features, target=rec.get("y"))
    if feature_dim is not None and graph.feature_dim != feature_dim:
        raise DatasetFormatError(f"feature_dim {graph.feature_dim} does not match header {feature_dim}")
    return graph


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Serialize a dataset back to line-delimited JSON (dense features)."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(json.dumps({"feature_dim": dataset.feature_dim}) + "\n")
        for g in dataset.graphs:
            rec = {
                "n": g.num_vertices,
                "edges": [[u, v] for u, v in g.edges],
                "x": g.features.tolist(),
            }
            if g.target is not None:
                rec["y"] = g.target
            fh.write(json.dumps(rec) + "\n")


def sample_batch(dataset: Dataset, sample_size: int, seed: int) -> Dataset:
    """Draw ``sample_size`` graphs without replacement, deterministically per seed.

    The batch is a Dataset of the parent's own graphs and feature_dim, not checked again. It
    keeps its graphs' rows of the dataset's layout, gathered bucket by bucket in batch order:
    every layout value is per graph, so these are the bits bucket_layout builds.
    """
    read_integer(sample_size, "sample_size", InvalidSpecError, least=1, most=len(dataset))
    read_integer(seed, "seed", InvalidSpecError, least=0)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(dataset), size=sample_size, replace=False)
    graphs = tuple(map(dataset.graphs.__getitem__, idx.tolist()))
    bucket_of, row_of = (slot[idx] for slot in dataset._slots)
    layout = []
    for b, bucket in enumerate(dataset.layout):
        if (positions := np.flatnonzero(bucket_of == b)).size:  # ascending; one take per stack
            layout.append(Bucket(positions, *(stack.take(row_of[positions], axis=0) for stack in
                                              (bucket.features, bucket.links, bucket.adjacency))))
    batch = object.__new__(Dataset)  # its graphs and feature_dim passed the parent's checks
    vars(batch).update(graphs=graphs, feature_dim=dataset.feature_dim, layout=tuple(layout))
    return batch


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for synthetic graph-regression datasets.

    ``edge_density`` is the independent inclusion probability of each vertex
    pair; 1.0 yields complete graphs. Features are standard Gaussian, and
    each graph's target is a fixed random linear function of its mean
    feature vector.
    """

    count: int
    min_vertices: int
    max_vertices: int
    edge_density: float
    feature_dim: int

    def __post_init__(self):
        for name in ("count", "feature_dim", "min_vertices"):
            read_integer(getattr(self, name), name, InvalidSpecError, least=1)
        read_integer(self.max_vertices, "max_vertices", InvalidSpecError, least=self.min_vertices)
        read_number(self.edge_density, "edge_density", InvalidSpecError, least=0, most=1)


def synthesize_dataset(spec: GeneratorSpec, seed: int) -> Dataset:
    """Generate a small random dataset; identical spec+seed give identical data."""
    read_integer(seed, "seed", InvalidSpecError, least=0)
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(spec.feature_dim)
    graphs = []
    for _ in range(spec.count):
        n = int(rng.integers(spec.min_vertices, spec.max_vertices + 1))
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < spec.edge_density:
                    edges.append((u, v))
        features = rng.standard_normal((n, spec.feature_dim))
        target = float(weights @ features.mean(axis=0))
        graphs.append(Graph(num_vertices=n, edges=tuple(edges), features=features, target=target))
    return Dataset(graphs=tuple(graphs), feature_dim=spec.feature_dim)
