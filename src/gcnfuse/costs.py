"""Ground costs between neurons, assembled from activations or weights.

A neuron's activation evidence is one value per vertex of each batch graph,
or a plain scalar per sample after the readout. Three costs compare two
neurons on one batch graph:

- EFD: sqrt(lam * sum over vertices of the squared value difference).
- QE: lam * (edge term) + (1 - lam) * (vertex term), the edge term summing
  (a_i(u) - a_j(w))^2 over every undirected edge in both orientations so
  the cost stays symmetric in (i, j).
- FGW: the fused Gromov-Wasserstein distance between the two neurons'
  values, features being the per-vertex values and structures the hop
  distances of the graph.

build_cost_matrix sums the chosen cost over matched batch indices (neuron
i's graph k against neuron j's graph k) for all neuron pairs at once. Every
summed squared difference is expanded as |a|^2 + |b|^2 - 2 a.b, so it takes
one matrix product instead of an (n_a, n_b, vertices) difference tensor:

- QE: one product over the batch's concatenated vertices, one over the
  rows its edges gather, each edge in both orientations;
- EFD: one stacked product per capture bucket (the graphs of one vertex
  count), since the square root is taken per graph;
- after the readout, and in weight_cost_matrix (weight rows, bias appended,
  no activations): one product.

An entry the expansion cancels to near zero is recomputed from the direct
differences, so identical neurons cost exactly 0. FGW runs one stacked
fgw_distance per batch graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .errors import DimensionMismatchError, InvalidSpecError
from .graphs import Graph, edge_owners
from .models import ActivationSample, DenseParams
from .ot import FgwProblem, fgw_distance, uniform_weights

EFD = "efd"
QE = "qe"
FGW = "fgw"
WEIGHT = "weight"
COST_KINDS = (EFD, QE, FGW, WEIGHT)


@dataclass(frozen=True)
class FgwCostSpec:
    """How to pose the per-sample FGW instance.

    trade_off weighs the feature term against the structure term, whose
    intra-graph matrices are hop distances; each instance is solved exactly.
    """

    trade_off: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.trade_off <= 1.0:
            raise InvalidSpecError("trade_off must be in [0, 1]")


@dataclass(frozen=True)
class CostSpec:
    """Which pairwise cost to use and its knobs.

    kind is one of COST_KINDS; "weight" compares weight rows and needs no
    activations. lam weighs the EFD/QE terms. fgw holds the FGW settings:
    left unset, kind "fgw" solves with FgwCostSpec(), and any other kind
    rejects them.
    """

    kind: str
    lam: float = 0.2
    fgw: FgwCostSpec | None = None

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise InvalidSpecError(f"cost kind must be one of {COST_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidSpecError(f"lam must be in [0, 1], got {self.lam}")
        if self.kind != FGW and self.fgw is not None:
            raise InvalidSpecError("fgw settings are only for kind fgw")


def shortest_path_structure(graph: Graph) -> np.ndarray:
    """Hop-count distances; disconnected pairs get (longest finite path + 1)."""
    A = np.zeros((graph.num_vertices, graph.num_vertices))
    u, v = graph.edge_index
    A[u, v] = 1.0
    A[v, u] = 1.0
    D = scipy.sparse.csgraph.shortest_path(scipy.sparse.csr_matrix(A), method="D", unweighted=True)
    finite = D[np.isfinite(D)]
    D[~np.isfinite(D)] = finite.max() + 1.0
    return D


def _same_batch(acts_a: ActivationSample, acts_b: ActivationSample) -> bool:
    """Both captures ran on the same Graph objects, in the same order."""
    ga, gb = acts_a.batch.graphs, acts_b.batch.graphs
    return len(ga) == len(gb) and all(x is y for x, y in zip(ga, gb))


def build_cost_matrix(acts_a: ActivationSample, acts_b: ActivationSample, spec: CostSpec) -> np.ndarray:
    """Neuron-by-neuron cost: entry (i, j) sums the pairwise cost over the batch.

    Post-readout layers hold one scalar per sample and no graph structure;
    there every activation kind (EFD, QE and FGW) degenerates to the summed
    squared scalar difference.
    """
    if spec.kind == WEIGHT:
        raise InvalidSpecError("weight costs are built by weight_cost_matrix, not activations")
    if not _same_batch(acts_a, acts_b):
        raise DimensionMismatchError("activation samples come from different batches")
    if acts_a.is_graph_valued != acts_b.is_graph_valued:
        raise DimensionMismatchError("one side is per-vertex, the other post-readout")

    if not acts_a.is_graph_valued:
        return _squared_distances(acts_a.readout_values[None], acts_b.readout_values[None])[0]

    graphs = acts_a.batch.graphs
    na, nb = acts_a.width, acts_b.width
    if spec.kind == EFD:
        # the square root is per graph, so one stacked product per bucket
        C = np.zeros((na, nb))
        for (_, stack_a), (_, stack_b) in zip(acts_a.buckets, acts_b.buckets):
            D = _squared_distances(stack_a, stack_b)
            D *= spec.lam
            C += np.sqrt(D, out=D).sum(axis=0)
        return C
    if spec.kind == QE:
        # one product over the batch's vertices, one over its edges' endpoint rows
        va = np.concatenate(_per_graph(acts_a))
        vb = np.concatenate(_per_graph(acts_b))
        owner, u, w = edge_owners(graphs)
        offset = np.cumsum([0] + [g.num_vertices for g in graphs[:-1]])[owner]
        u, w = u + offset, w + offset
        edge = _squared_distances(va[np.concatenate([u, w])][None],
                                  vb[np.concatenate([w, u])][None])[0]
        vertex = _squared_distances(va[None], vb[None])[0]
        return spec.lam * edge + (1.0 - spec.lam) * vertex

    # FGW
    trade_off = (spec.fgw or FgwCostSpec()).trade_off
    C = np.zeros((na, nb))
    for graph, va, vb in zip(graphs, _per_graph(acts_a), _per_graph(acts_b)):
        # one stacked FGW instance per neuron pair (i, j), all sharing the graph
        struct = shortest_path_structure(graph)
        n = graph.num_vertices
        features = (va.T[:, None, :, None] - vb.T[None, :, None, :]) ** 2
        distances, _ = fgw_distance(FgwProblem(
            structure_a=struct, structure_b=struct,
            feature_cost=features.reshape(na * nb, n, n), trade_off=trade_off,
            alpha=uniform_weights(n), beta=uniform_weights(n),
        ))
        C += distances.reshape(na, nb)
    return C


def _per_graph(acts: ActivationSample) -> list[np.ndarray]:
    """Each batch graph's (n, width) capture, in batch order: views into the buckets."""
    views = [values for _, stack in acts.buckets for values in stack]
    order = np.argsort(np.concatenate([index for index, _ in acts.buckets]))
    return [views[k] for k in order]


def weight_cost_matrix(layer_a: DenseParams, layer_b: DenseParams) -> np.ndarray:
    """Euclidean distance between weight rows, bias appended when present."""
    if layer_a.in_dim != layer_b.in_dim:
        raise DimensionMismatchError(
            f"in_dims differ: {layer_a.in_dim} vs {layer_b.in_dim}"
        )
    if (layer_a.bias is None) != (layer_b.bias is None):
        raise DimensionMismatchError("one layer has a bias, the other does not")
    A = layer_a.weight
    B = layer_b.weight
    if layer_a.bias is not None:
        A = np.concatenate([A, layer_a.bias[:, None]], axis=1)
        B = np.concatenate([B, layer_b.bias[:, None]], axis=1)
    return np.sqrt(_squared_distances(A.T[None], B.T[None])[0])


# An expansion within this share of |a|^2 + |b|^2 of zero has lost most of
# its digits to cancellation and is recomputed from the differences.
_CANCELLATION = 1e-3
# Difference entries one recompute pass may hold in memory.
_RECOMPUTE_BLOCK = 1 << 20


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Summed squared differences between columns: (G, V, na) and (G, V, nb) -> (G, na, nb).

    Entry (g, i, j) is |a_i|^2 + |b_j|^2 - 2 a_i . b_j over A[g] and B[g],
    one stacked matrix product (A gains the rows |a|^2 and 1, B the rows 1
    and |b|^2) in place of a (na, nb, V) difference tensor. An entry that
    cancels to within _CANCELLATION of |a_i|^2 + |b_j|^2 is recomputed as
    the sum of its squared differences, so identical columns cost exactly
    0 and no entry is negative.
    """
    sq_a = np.einsum("gvi,gvi->gi", A, A)
    sq_b = np.einsum("gvj,gvj->gj", B, B)
    left = np.concatenate([-2.0 * A, sq_a[:, None], np.ones_like(sq_a[:, None])], axis=1)
    right = np.concatenate([B, np.ones_like(sq_b[:, None]), sq_b[:, None]], axis=1)
    D = left.transpose(0, 2, 1) @ right
    # a cheap bound per stack picks the candidates, then the exact test
    bound = _CANCELLATION * (sq_a.max(axis=1) + sq_b.max(axis=1))
    g, i, j = np.unravel_index(np.flatnonzero(D <= bound[:, None, None]), D.shape)
    near = D[g, i, j] <= _CANCELLATION * (sq_a[g, i] + sq_b[g, j])
    g, i, j = g[near], i[near], j[near]
    step = max(1, _RECOMPUTE_BLOCK // max(1, A.shape[1]))
    for s in range(0, g.size, step):
        gs, is_, js = g[s:s + step], i[s:s + step], j[s:s + step]
        diff = A[gs, :, is_] - B[gs, :, js]
        D[gs, is_, js] = np.einsum("kv,kv->k", diff, diff)
    return D
