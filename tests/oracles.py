"""Reference implementations the library is checked against.

Each states one quantity the plain way, for one instance: an exhaustive
minimum over permutation couplings for exact EMD, the EFD, QE and FGW
neuron costs for one pair of neurons on one input graph (and QE summed over
a batch for every pair), EFD summed over a batch with each vertex-count
bucket as one whole stack, the forward pass of one model on one graph, a
hidden-neuron permutation of a model by index gathers, the alignment
primitives as dense products with T / beta, a coupling's permutation order
by row and column sums, the FGW kernel with every plan a dense coupling, and
emd, identity_plan, the alignment primitives and permute_model with every plan
and parameter record built and checked by its constructor.
A neuron's evidence
on a graph is one value per vertex; both neurons of a pair are read on the
same graph, so the two value vectors share its structure.
"""

import itertools
from dataclasses import replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from gcnfuse import (
    PRE_BN,
    BatchNormParams,
    Dense,
    DenseParams,
    Embedding,
    FgwProblem,
    GcnModel,
    Graph,
    GraphConv,
    MeanReadout,
    TransportPlan,
    emd,
    fgw_distance,
    uniform_weights,
)
from gcnfuse import InvalidSpecError, SolverError, ot
from gcnfuse.costs import _recompute_cancelled


def brute_force_ot(alpha, beta, cost) -> TransportPlan:
    """Exhaustive minimum over permutation couplings; n = m <= 8, uniform only.

    The winning permutation's objective is recomputed with the same
    arithmetic emd uses (np.sum over the dense coupling), so the two agree
    bit-for-bit whenever they pick the same permutation.
    """
    a = np.asarray(alpha, dtype=np.float64)
    b = np.asarray(beta, dtype=np.float64)
    C = np.asarray(cost, dtype=np.float64)
    n = a.size
    assert b.size == n <= 8 and C.shape == (n, n) and np.all(a == a[0]) and np.all(b == b[0]), \
        "brute force needs a square instance with uniform marginals and n <= 8"
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    scores = C[np.arange(n), perms].sum(axis=1)
    best = perms[int(np.argmin(scores))]
    T = np.zeros((n, n))
    T[np.arange(n), best] = a
    return TransportPlan(
        coupling=T, objective=float(np.sum(T * C)),
        converged=True, iterations=len(perms),
    )


def pairwise_efd(values_a, values_b, lam: float) -> float:
    """Euclidean distance between the two value vectors, scaled by sqrt(lam)."""
    diff = np.asarray(values_a, dtype=float) - np.asarray(values_b, dtype=float)
    return float(np.sqrt(lam * np.sum(diff * diff)))


def whole_bucket_efd(acts_a, acts_b, lam: float) -> np.ndarray:
    """EFD over a batch, each capture bucket costed as one (G, na, nb) stack.

    One augmented stacked product per bucket, its cancelled entries recomputed
    by _recompute_cancelled, then *= lam, the square root and .sum(axis=0)
    over the whole stack: the arithmetic a streamed build must reproduce bit for bit.
    """
    C = np.zeros((acts_a.width, acts_b.width))
    for A, B in zip(acts_a.values, acts_b.values):
        sq_a = np.einsum("gvi,gvi->gi", A, A)
        sq_b = np.einsum("gvj,gvj->gj", B, B)
        left = np.concatenate([-2.0 * A, sq_a[:, None], np.ones_like(sq_a[:, None])], axis=1)
        right = np.concatenate([B, np.ones_like(sq_b[:, None]), sq_b[:, None]], axis=1)

        def direct(g, i, j, A=A, B=B):
            diff = A[g, :, i] - B[g, :, j]
            return np.einsum("kv,kv->k", diff, diff)

        D = _recompute_cancelled(left.transpose(0, 2, 1) @ right, sq_a, sq_b, A.shape[1], direct)
        D *= lam
        C += np.sqrt(D, out=D).sum(axis=0)
    return C


def pairwise_qe(graph: Graph, values_a, values_b, lam: float) -> float:
    """Edge-smoothness term plus vertex term: lam * edges + (1 - lam) * vertices.

    The edge term sums (a(u) - b(w))^2 over every edge in both orientations.
    """
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    edge_term = 0.0
    for u, w in graph.edges:
        edge_term += (a[u] - b[w]) ** 2
        edge_term += (a[w] - b[u]) ** 2
    diff = a - b
    vertex_term = float(np.sum(diff * diff))
    return float(lam * edge_term + (1.0 - lam) * vertex_term)


def qe_matrix(graphs, values_a, values_b, lam: float) -> np.ndarray:
    """QE between every pair of neurons over a batch: pairwise_qe summed over the graphs.

    values_a[k] and values_b[k] are graph k's (n, width) values.
    """
    na, nb = values_a[0].shape[1], values_b[0].shape[1]
    return np.array([[sum(pairwise_qe(g, va[:, i], vb[:, j], lam)
                          for g, va, vb in zip(graphs, values_a, values_b))
                      for j in range(nb)] for i in range(na)])


def pairwise_fgw(graph: Graph, values_a, values_b, trade_off: float) -> float:
    """FGW distance between the two value vectors on the graph's hop distances."""
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    structure = graph.hop_distances
    (distance,), _ = fgw_distance(FgwProblem(
        structure_a=structure, structure_b=structure,
        feature_cost=(a[:, None] - b[None, :]) ** 2, trade_off=trade_off,
        alpha=uniform_weights(a.size), beta=uniform_weights(b.size),
    ))
    return distance


def per_graph_adjacency(graph: Graph) -> np.ndarray:
    """Symmetric-degree-normalized adjacency with self-connections, one edge at a time."""
    n = graph.num_vertices
    deg = np.ones(n)
    for u, v in graph.edges:
        deg[u] += 1.0
        deg[v] += 1.0
    inv_sqrt = 1.0 / np.sqrt(deg)
    A = np.zeros((n, n))
    A[np.arange(n), np.arange(n)] = inv_sqrt * inv_sqrt
    for u, v in graph.edges:
        A[u, v] = inv_sqrt[u] * inv_sqrt[v]
        A[v, u] = inv_sqrt[v] * inv_sqrt[u]
    return A


def per_graph_forward(model, graph: Graph, capture_point: str | None):
    """(prediction, captures) of the model on one graph, one layer after another.

    captures maps each parameterized layer index to its pre-activation:
    (n, width) before the readout, (width,) after it, the value before or
    after batch norm as capture_point says.
    """
    h = graph.features
    per_vertex = True
    captures = {}

    def affine_bn(i, z, layer):
        if layer.params.bias is not None:
            z = z + layer.params.bias
        post = z if layer.batch_norm is None else layer.batch_norm.apply(z)
        if capture_point is not None:
            captures[i] = np.array(z if capture_point == PRE_BN else post)
        return post

    for i, layer in enumerate(model.layers):
        if isinstance(layer, Embedding):
            h = h @ layer.params.weight.T
            if capture_point is not None:
                captures[i] = np.array(h)
        elif isinstance(layer, GraphConv):
            z = (per_graph_adjacency(graph) @ h) @ layer.params.weight.T
            h = np.maximum(affine_bn(i, z, layer), 0.0)
        elif isinstance(layer, MeanReadout):
            h = h.mean(axis=0)
            per_vertex = False
        elif isinstance(layer, Dense):
            z = h @ layer.params.weight.T if per_vertex else layer.params.weight @ h
            z = affine_bn(i, z, layer)
            h = np.maximum(z, 0.0) if layer.activation == "relu" else z
    out = np.asarray(h)
    assert out.size == 1, "the regression head must be scalar"
    return float(out.reshape(-1)[0]), captures


def gather_permute_model(model, permutations):
    """permute_model by index gathers, for valid permutations.

    Row k of hidden layer i becomes row perm[k]; the next parameterized
    layer's columns, the bias and any BN vectors move along; the output
    layer's rows stay in place.
    """
    hidden = model.parameterized_indices()[:-1]
    perms = {i: np.asarray(p, dtype=np.int64) for i, p in zip(hidden, permutations)}
    layers = []
    prev = None
    for i, layer in enumerate(model.layers):
        if isinstance(layer, MeanReadout):
            layers.append(layer)
            continue
        rows = perms.get(i)
        W = layer.params.weight
        if prev is not None:
            W = W[:, prev]
        if rows is not None:
            W = W[rows, :]
        bias = layer.params.bias
        if bias is not None and rows is not None:
            bias = bias[rows]
        bn = getattr(layer, "batch_norm", None)
        if bn is not None and rows is not None:
            bn = BatchNormParams(
                gamma=bn.gamma[rows], beta_shift=bn.beta_shift[rows],
                running_mean=bn.running_mean[rows], running_var=bn.running_var[rows],
                epsilon=bn.epsilon,
            )
        params = DenseParams(weight=W, bias=bias)
        if isinstance(layer, Embedding):
            layers.append(Embedding(params=params))
        elif isinstance(layer, GraphConv):
            layers.append(GraphConv(params=params, batch_norm=bn))
        else:
            layers.append(Dense(params=params, batch_norm=bn, activation=layer.activation))
        prev = rows
    return GcnModel(layers=tuple(layers), name=model.name + "+perm", seed=model.seed)


def dense_scaled_transport(plan: TransportPlan) -> np.ndarray:
    """T / beta with beta = T^T 1, a massless column kept zero."""
    T = plan.coupling
    mass = T.sum(axis=0)
    return T / np.where(mass > 0, mass, 1.0)[None, :]


def dense_align_incoming(weights: DenseParams, plan: TransportPlan) -> DenseParams:
    """W @ (T / beta), whatever the plan."""
    return DenseParams(weight=weights.weight @ dense_scaled_transport(plan), bias=weights.bias)


def dense_align_outgoing(weights: DenseParams, plan: TransportPlan) -> DenseParams:
    """(T / beta).T @ W and (T / beta).T @ b, whatever the plan."""
    S = dense_scaled_transport(plan)
    bias = None if weights.bias is None else S.T @ weights.bias
    return DenseParams(weight=S.T @ weights.weight, bias=bias)


def dense_align_batchnorm(bn: BatchNormParams, plan: TransportPlan) -> BatchNormParams:
    """Each of the four BN vectors v as (T / beta).T @ v, whatever the plan."""
    S = dense_scaled_transport(plan)
    return BatchNormParams(gamma=S.T @ bn.gamma, beta_shift=S.T @ bn.beta_shift,
                           running_mean=S.T @ bn.running_mean,
                           running_var=S.T @ bn.running_var, epsilon=bn.epsilon)


def permutation_order_by_sums(coupling) -> np.ndarray | None:
    """Each row's column if every row and every column holds exactly one nonzero, else None.

    Two bool sums over the whole coupling, then an argmax per row.
    """
    nonzero = np.asarray(coupling) != 0.0
    if np.all(nonzero.sum(axis=1) == 1) and np.all(nonzero.sum(axis=0) == 1):
        return np.argmax(nonzero, axis=1)
    return None


def _dense_fixed_points(problem, instances=slice(None)):
    """ot._fgw_fixed_points with every plan an (n, m) coupling: (S, P, n, m).

    An assignment step writes its a-scaled permutation into a dense plan, the Gromov
    term comes from the dense plan's sums and products, and a run stops once
    max |T_new - T| < _FGW_TOL.
    """
    Ca, Cb, a, b = problem.structure_a, problem.structure_b, problem.alpha, problem.beta
    F = problem.feature_cost.reshape((-1,) + problem.feature_cost.shape[-2:])[instances]
    starts = [np.outer(a, b)] + ([np.diag(a)] if a.size == b.size and np.array_equal(a, b) else [])
    P = F.shape[0]
    T = np.repeat(np.array(starts), P, axis=0)

    def linearized(feature, plans):
        lin = problem.trade_off * feature
        if problem.trade_off < 1.0:
            lin = lin + (1.0 - problem.trade_off) * ot._gromov_linearized(Ca, Cb, plans)
        return np.maximum(lin, 0.0)

    def assignment(lin):
        cols = [linear_sum_assignment(C_k)[1] for C_k in lin]
        plans = np.zeros(lin.shape)
        for plan, col in zip(plans, cols):
            plan[np.arange(a.size), col] = a
        return plans

    uniform, active = ot._uniform_square(a, b), np.arange(len(T))
    for step in range(ot._FGW_MAX_ITERS):
        if not active.size:
            break
        current = T[active]
        lin = linearized(F[active % P], current) if step else np.broadcast_to(
            linearized(F, np.array(starts)[:, None]), (len(starts),) + F.shape).reshape(T.shape)
        T[active] = new = (assignment(lin) if uniform
                           else np.array([emd(a, b, C).coupling for C in lin]))
        active = active[~(np.max(np.abs(new - current), axis=(1, 2)) < ot._FGW_TOL)]
    return T.reshape((len(starts),) + F.shape)


def dense_fgw_distance(problem, mirror=None):
    """fgw_distance with every plan a dense coupling, compared and scored as one.

    Runs match on an instance when their dense plans are equal (across the two
    passes only for assignment plans); each distinct run is scored on its dense
    plans, a mirrored run on a transposed view of the plans its pass solved.
    """
    forward = _dense_fixed_points(problem)
    fixed = [forward, np.swapaxes(forward, -1, -2).copy()]
    flagged = slice(None) if mirror is None else np.asarray(mirror, dtype=bool)
    fixed[1][:, flagged] = _dense_fixed_points(problem.transposed(), flagged)
    runs = [*fixed[0], *np.swapaxes(fixed[1], -1, -2)]
    plans = np.array(runs)
    R, P = plans.shape[:2]
    side = np.arange(R) // len(fixed[0]) * (not ot._uniform_square(problem.alpha, problem.beta))
    first = np.repeat(np.arange(R)[:, None], P, axis=1)
    for r in range(R):
        for q in reversed(range(r)):
            first[r, (plans[r] == plans[q]).all(axis=(-2, -1)) & (side[q] == side[r])] = q
    obj = np.empty((R, P))
    for r in np.unique(first):
        obj[r] = ot._fused_objective(problem, runs[r])
    obj = obj[first, np.arange(P)]
    best = np.argmin(obj, axis=0), np.arange(P)
    return np.maximum(obj[best], 0.0), plans[best]


def checked_emd(alpha, beta, cost) -> TransportPlan:
    """emd with its coupling built dense, then checked and copied by the TransportPlan
    constructor, and its marginal error read from the coupling's row and column sums."""
    a = ot._histogram(alpha, "alpha")
    b = ot._histogram(beta, "beta")
    C = ot._cost(cost, a.size, b.size)
    if abs(a.sum() - b.sum()) > ot.MARGINAL_TOL:
        raise InvalidSpecError(f"input masses differ: {a.sum():.12g} vs {b.sum():.12g}")
    if ot._uniform_square(a, b):
        T = ot._permutation_coupling(ot._assignment_columns(C), a)
    else:
        T = ot._emd_linprog(a, b, C)
    plan = TransportPlan(coupling=T, objective=float(np.sum(T * C)))
    if plan.marginal_error(a, b) > ot.MARGINAL_TOL:
        raise SolverError(f"solved plan violates marginals by {plan.marginal_error(a, b):.3g}")
    return plan


def checked_identity_plan(alpha) -> TransportPlan:
    """diag(alpha) through the TransportPlan constructor."""
    a = ot._histogram(alpha, "alpha")
    return TransportPlan(coupling=np.diag(a), objective=0.0, converged=True, iterations=0)


def _checked_mover(plan: TransportPlan):
    """x -> (T / beta).T @ x, as the gather x[rows] when the sums say T is a scaled permutation."""
    order = permutation_order_by_sums(plan.coupling)
    if order is not None:
        rows = np.argsort(order)
        return rows, lambda x: x[rows]
    S = dense_scaled_transport(plan)
    return None, lambda x: S.T @ x


def checked_align_layer_incoming(weights: DenseParams, t_prev: TransportPlan) -> DenseParams:
    """W @ (T / beta) by a column gather for a permutation plan, rebuilt by the constructor."""
    rows, _ = _checked_mover(t_prev)
    W = weights.weight
    W_hat = W @ dense_scaled_transport(t_prev) if rows is None else W.take(rows, axis=1)
    return DenseParams(weight=W_hat, bias=weights.bias)


def checked_align_layer_outgoing(weights: DenseParams, t_curr: TransportPlan) -> DenseParams:
    """(T / beta).T @ W and @ b, rebuilt by the constructor."""
    _, move = _checked_mover(t_curr)
    bias = None if weights.bias is None else move(weights.bias)
    return DenseParams(weight=move(weights.weight), bias=bias)


def checked_align_batchnorm(bn: BatchNormParams, t_prev: TransportPlan) -> BatchNormParams:
    """The four BN vectors moved by (T / beta).T, checked and folded again by the constructor."""
    _, move = _checked_mover(t_prev)
    return BatchNormParams(gamma=move(bn.gamma), beta_shift=move(bn.beta_shift),
                           running_mean=move(bn.running_mean),
                           running_var=move(bn.running_var), epsilon=bn.epsilon)


def checked_permute_model(model, permutations):
    """permute_model with each plan a dense coupling through the TransportPlan constructor and
    every layer aligned by the checked primitives; valid permutations only."""
    *hidden, head = model.parameterized_indices()
    plans = {}
    for i, perm in zip(hidden, permutations):
        width = model.layers[i].params.out_dim
        T = np.zeros((width, width))
        T[np.asarray(perm), np.arange(width)] = 1.0 / width
        plans[i] = TransportPlan(coupling=T, objective=0.0)
    plans[head] = checked_identity_plan(uniform_weights(model.layers[head].params.out_dim))
    layers, t_prev = [], None
    for i, layer in enumerate(model.layers):
        if isinstance(layer, MeanReadout):
            layers.append(layer)
            continue
        params = layer.params if t_prev is None else checked_align_layer_incoming(layer.params, t_prev)
        bn = layer.batch_norm
        layers.append(replace(layer, params=checked_align_layer_outgoing(params, plans[i]),
                              batch_norm=None if bn is None else checked_align_batchnorm(bn, plans[i])))
        t_prev = plans[i]
    return GcnModel(layers=tuple(layers), name=model.name + "+perm", seed=model.seed)
