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

- QE: per capture bucket (the graphs of one vertex count), one product of
  the (G·n, width) views for the vertex term, one with links @ B for the edge;
- EFD: per capture bucket, one stacked product per chunk of its graphs,
  since the square root is taken per graph. Each chunk fills one L2-sized
  product buffer, reused across chunks and buckets, and the roots are
  summed in bucket order;
- after the readout, and in weight_cost_matrix (weight rows, bias appended,
  no activations): one product.

An entry the expansion cancels to near zero is recomputed from the direct
differences of the two neurons, so identical neurons cost exactly 0. FGW
runs one stacked fgw_distance per batch graph, in batch order, on its kept hop
distances. Only a pair with a neuron that repeats a value on the graph (a repeated
row or column of its feature cost) takes the mirrored pass: elsewhere no assignment
step was seen to tie, so the mirrored runs retrace the forward ones and every bit stays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidSpecError, read_number
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
        read_number(self.trade_off, "trade_off", InvalidSpecError, least=0, most=1)


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
        read_number(self.lam, "lam", InvalidSpecError, least=0, most=1)
        if self.kind != FGW and self.fgw is not None:
            raise InvalidSpecError("fgw settings are only for kind fgw")


def _same_batch(acts_a: ActivationSample, acts_b: ActivationSample) -> bool:
    """Both captures ran on the same Graph objects, in the same order."""
    if acts_a.batch is acts_b.batch:  # the two captures of one fuse
        return True
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
        return _squared_distances(acts_a.values[None], acts_b.values[None])[0]

    na, nb = acts_a.width, acts_b.width
    if spec.kind == EFD:
        # the square root is per graph: each bucket streams through one reused L2-sized
        # product buffer, and the roots add graph by graph in bucket order, as .sum(axis=0)
        step = max(1, _EFD_CHUNK // (na * nb))
        most = min(step, max(len(stack) for stack in acts_a.values))
        product, mask = np.empty((most, na, nb)), np.empty((most, na, nb), dtype=bool)
        C, total = np.zeros((na, nb)), np.empty((na, nb))
        for stack_a, stack_b in zip(acts_a.values, acts_b.values):
            for chunk, D in enumerate(_squared_distance_chunks(stack_a, stack_b, step, product, mask)):
                D *= spec.lam
                np.sqrt(D, out=D)
                if chunk == 0:
                    D.sum(axis=0, out=total)
                else:
                    for d in D:
                        total += d
            C += total
        return C
    if spec.kind == QE:
        return _quadratic_energy(acts_a, acts_b, spec.lam)

    # FGW
    trade_off = (spec.fgw or FgwCostSpec()).trade_off
    C = np.zeros((na, nb))
    for graph, va, vb in zip(acts_a.batch.graphs, _per_graph(acts_a), _per_graph(acts_b)):
        # one stacked FGW instance per neuron pair (i, j), all sharing the graph
        struct = graph.hop_distances
        n = graph.num_vertices
        features = (va.T[:, None, :, None] - vb.T[None, :, None, :]) ** 2
        tie_a, tie_b = (np.any(np.diff(np.sort(v, axis=0), axis=0) == 0, axis=0) for v in (va, vb))
        distances, _ = fgw_distance(FgwProblem(
            structure_a=struct, structure_b=struct,
            feature_cost=features.reshape(na * nb, n, n), trade_off=trade_off,
            alpha=uniform_weights(n), beta=uniform_weights(n),
        ), mirror=(tie_a[:, None] | tie_b[None, :]).reshape(-1))
        C += distances.reshape(na, nb)
    return C


def _per_graph(acts: ActivationSample) -> list[np.ndarray]:
    """Each batch graph's (n, width) capture, in batch order: views into the bucket stacks."""
    views = [values for stack in acts.values for values in stack]
    order = np.argsort(np.concatenate([bucket.index for bucket in acts.batch.layout]))
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
# Entries of one EFD chunk's product (1 MB of float64, within L2).
_EFD_CHUNK = 1 << 17


def _quadratic_energy(acts_a: ActivationSample, acts_b: ActivationSample, lam: float) -> np.ndarray:
    """lam * edge term + (1 - lam) * vertex term, each a Gram expansion summed over the buckets.

    The edge term sums over directed edges (u, w): its norms count a vertex
    once per edge end, and its a.b is A^T (links @ B).
    """
    na, nb = acts_a.width, acts_b.width
    views = [(bucket.links, a.reshape(-1, na), b.reshape(-1, nb))
             for bucket, a, b in zip(acts_a.batch.layout, acts_a.values, acts_b.values)]
    sq_a = sq_b = cross = rows = 0.0  # index 0 (columns :nb of cross): the vertex term; 1: edges
    for links, A, B in views:
        weights = np.stack([np.ones(len(A)), links.sum(axis=2).reshape(-1)])
        sq_a, sq_b, rows = sq_a + weights @ (A * A), sq_b + weights @ (B * B), rows + weights.sum(axis=1)
        linked = (links @ B.reshape(len(links), -1, nb)).reshape(-1, nb)
        cross = cross + A.T @ np.concatenate([B, linked], axis=1)

    def vertex_sums(_, i, j):
        return sum(np.einsum("vk,vk->k", d, d) for d in (A[:, i] - B[:, j] for _, A, B in views))

    def edge_sums(_, i, j):
        total = 0.0
        for links, A, B in views:
            g, u, w = np.nonzero(links)
            d = A[(g * links.shape[1] + u)[:, None], i] - B[(g * links.shape[1] + w)[:, None], j]
            total = total + np.einsum("ek,ek->k", d, d)
        return total

    def term(t, sums):
        D = sq_a[t][:, None] + sq_b[t][None, :] - 2.0 * cross[:, t * nb:(t + 1) * nb]
        return _recompute_cancelled(D[None], sq_a[t][None], sq_b[t][None], int(rows[t]), sums)[0]

    return lam * term(1, edge_sums) + (1.0 - lam) * term(0, vertex_sums)


def _squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Summed squared differences between columns: (G, V, na) and (G, V, nb) -> (G, na, nb)."""
    shape = (len(A), A.shape[2], B.shape[2])
    return next(_squared_distance_chunks(A, B, len(A), np.empty(shape), np.empty(shape, dtype=bool)))


def _squared_distance_chunks(A: np.ndarray, B: np.ndarray, step: int, product: np.ndarray,
                             mask: np.ndarray):
    """_squared_distances step graphs at a time, each chunk a (k, na, nb) view of product.

    Entry (g, i, j) is |a_i|^2 + |b_j|^2 - 2 a_i . b_j over A[g] and B[g]: one stacked
    product (A gains the rows |a|^2 and 1, B the rows 1 and |b|^2), no difference tensor.
    mask is a bool buffer of product's shape for the candidate test.
    """
    sq_a = np.einsum("gvi,gvi->gi", A, A)
    sq_b = np.einsum("gvj,gvj->gj", B, B)
    left = np.concatenate([-2.0 * A, sq_a[:, None], np.ones_like(sq_a[:, None])], axis=1)
    right = np.concatenate([B, np.ones_like(sq_b[:, None]), sq_b[:, None]], axis=1)
    for s in range(0, len(A), step):
        k = min(step, len(A) - s)

        def direct(g, i, j):
            diff = A[g + s, :, i] - B[g + s, :, j]
            return np.einsum("kv,kv->k", diff, diff)

        D = np.matmul(left[s:s + k].transpose(0, 2, 1), right[s:s + k], out=product[:k])
        yield _recompute_cancelled(D, sq_a[s:s + k], sq_b[s:s + k], A.shape[1], direct, mask[:k])


def _recompute_cancelled(D, sq_a: np.ndarray, sq_b: np.ndarray, rows: int, direct,
                         mask=None) -> np.ndarray:
    """D (G, na, nb) with each entry that cancels to within _CANCELLATION of sq_a + sq_b recomputed.

    direct(g, i, j) sums the squared differences of index arrays of such entries,
    _RECOMPUTE_BLOCK // rows at a time (rows: the differences one entry sums).
    mask, when given, is a bool buffer of D's shape for the candidate test.
    """
    # a cheap bound per stack picks the candidates, then the exact test
    bound = _CANCELLATION * (sq_a.max(axis=1) + sq_b.max(axis=1))
    candidates = np.less_equal(D, bound[:, None, None], out=mask)
    g, i, j = np.unravel_index(np.flatnonzero(candidates), D.shape)
    near = D[g, i, j] <= _CANCELLATION * (sq_a[g, i] + sq_b[g, j])
    g, i, j = g[near], i[near], j[near]
    step = max(1, _RECOMPUTE_BLOCK // max(1, rows))
    for k in (slice(s, s + step) for s in range(0, g.size, step)):
        D[g[k], i[k], j[k]] = direct(g[k], i[k], j[k])
    return D
