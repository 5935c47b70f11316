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
i's graph k against neuron j's graph k), vectorized over all neuron pairs,
FGW by one stacked fgw_distance per batch graph. weight_cost_matrix skips
activations entirely and compares weight rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .errors import DimensionMismatchError, InvalidSpecError
from .graphs import Graph
from .models import ActivationSample, DenseParams
from .ot import FgwProblem, fgw_distance, uniform_weights

EFD = "efd"
QE = "qe"
FGW = "fgw"
WEIGHT = "weight"
COST_KINDS = (EFD, QE, FGW, WEIGHT)

# Sinkhorn's entropy scale per cost kind; EFD tolerates a coarser epsilon
DEFAULT_EPSILON = {EFD: 5e-4, QE: 5e-5, FGW: 5e-5, WEIGHT: 5e-4}


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
    left unset on kind "fgw" it takes FgwCostSpec(), and any other kind
    rejects it.
    """

    kind: str
    lam: float = 0.2
    fgw: FgwCostSpec | None = None

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise InvalidSpecError(f"cost kind must be one of {COST_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidSpecError(f"lam must be in [0, 1], got {self.lam}")
        if self.kind == FGW and self.fgw is None:
            object.__setattr__(self, "fgw", FgwCostSpec())
        if self.kind != FGW and self.fgw is not None:
            raise InvalidSpecError("fgw settings are only for kind fgw")


def adjacency_structure(graph: Graph) -> np.ndarray:
    """0/1 adjacency matrix; zero diagonal."""
    n = graph.num_vertices
    A = np.zeros((n, n))
    for u, v in graph.edges:
        A[u, v] = 1.0
        A[v, u] = 1.0
    return A


def shortest_path_structure(graph: Graph) -> np.ndarray:
    """Hop-count distances; disconnected pairs get (longest finite path + 1)."""
    n = graph.num_vertices
    if n == 1:
        return np.zeros((1, 1))
    D = scipy.sparse.csgraph.shortest_path(
        scipy.sparse.csr_matrix(adjacency_structure(graph)), method="D", unweighted=True
    )
    finite = D[np.isfinite(D)]
    D[~np.isfinite(D)] = finite.max() + 1.0
    return D


def _same_batch(acts_a: ActivationSample, acts_b: ActivationSample) -> bool:
    if acts_a.batch is acts_b.batch or acts_a.batch.graphs is acts_b.batch.graphs:
        return True
    if acts_a.batch.sample_size != acts_b.batch.sample_size:
        return False
    for ga, gb in zip(acts_a.batch.graphs, acts_b.batch.graphs):
        if ga is gb:
            continue
        if not ga.same_structure(gb) or not np.array_equal(ga.features, gb.features):
            return False
    return True


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
        A = acts_a.readout_values
        B = acts_b.readout_values
        diff = A.T[:, None, :] - B.T[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)

    na, nb = acts_a.width, acts_b.width
    C = np.zeros((na, nb))
    for k, graph in enumerate(acts_a.batch.graphs):
        va = acts_a.graph_values[k]
        vb = acts_b.graph_values[k]
        if spec.kind == FGW:
            # one stacked instance per neuron pair (i, j), all sharing the graph
            struct = shortest_path_structure(graph)
            n = graph.num_vertices
            features = (va.T[:, None, :, None] - vb.T[None, :, None, :]) ** 2
            distances, _ = fgw_distance(FgwProblem(
                structure_a=struct, structure_b=struct,
                feature_cost=features.reshape(na * nb, n, n), trade_off=spec.fgw.trade_off,
                alpha=uniform_weights(n), beta=uniform_weights(n),
            ))
            C += distances.reshape(na, nb)
            continue
        # diff[i, j, u] = neuron i's value at vertex u minus neuron j's
        diff = va.T[:, None, :] - vb.T[None, :, :]
        vertex = np.einsum("iju,iju->ij", diff, diff)
        if spec.kind == EFD:
            C += np.sqrt(spec.lam * vertex)
            continue
        edge = np.zeros((na, nb))
        for u, w in graph.edges:
            duw = va.T[:, None, u] - vb.T[None, :, w]
            dwu = va.T[:, None, w] - vb.T[None, :, u]
            edge += duw * duw + dwu * dwu
        C += spec.lam * edge + (1.0 - spec.lam) * vertex
    return C


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
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
