"""Layer-wise model fusion by optimal transport, and the alignment algebra it runs on.

fuse() aligns one model (A) to an anchor (B) with align_model, solving each layer's transport
plan on a cost between A's and B's neurons, then averages the aligned parameters with B's, the
step vanilla_fuse takes without alignment; permute_model aligns by given permutations instead.
align_model moves every record through _moved: a permutation plan gathers a checked record by
index without re-checking it, and a soft plan's new values go through the models constructors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .costs import EFD, FGW, QE, WEIGHT, CostSpec, build_cost_matrix, weight_cost_matrix
from .errors import DimensionMismatchError, InvalidSpecError, NumericalError, read_integer, read_number
from .graphs import Dataset, sample_batch
from .models import (
    CAPTURE_POINTS,
    POST_BN,
    BatchNormParams,
    DenseParams,
    GcnModel,
    Layer,
    MeanReadout,
    forward_with_capture,
    predict,
)
from .ot import (
    SinkhornParams,
    TransportPlan,
    emd,
    identity_plan,
    sinkhorn_unbalanced,
    uniform_weights,
)

_log = logging.getLogger("gcnfuse")

SOLVER_EMD = "emd"
SOLVER_SINKHORN = "sinkhorn"
SOLVERS = (SOLVER_EMD, SOLVER_SINKHORN)

# a trace prints a plan's objective and cost min as 0 within this share of the cost max (rounding)
_TRACE_ZERO = 2.0 ** -40
# Sinkhorn's entropy scale per cost kind; EFD tolerates a coarser epsilon
_DEFAULT_EPSILON = {EFD: 5e-4, QE: 5e-5, FGW: 5e-5, WEIGHT: 5e-4}


def default_epsilon(cost_kind: str) -> float:
    """Sinkhorn's entropy scale for a cost kind when none is given."""
    return _DEFAULT_EPSILON[cost_kind]


@dataclass(frozen=True)
class FusionConfig:
    """Everything fuse() needs besides the two models and the data.

    interpolation is the weight on the anchor (0.5 averages, 1.0 returns
    the anchor). A cost of kind "weight" takes the plans from aligned weight
    rows instead of captured activations, so it needs no dataset. An unset
    sinkhorn stays None, and fuse() solves with the default_epsilon of the
    cost kind it is given, so replacing cost alone also moves epsilon.
    """

    solver: str = SOLVER_EMD
    cost: CostSpec = field(default_factory=lambda: CostSpec(kind=EFD))
    sinkhorn: SinkhornParams | None = None
    sample_size: int = 340
    capture_point: str = POST_BN
    interpolation: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise InvalidSpecError(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        read_number(self.interpolation, "interpolation", InvalidSpecError, least=0, most=1)
        if self.capture_point not in CAPTURE_POINTS:
            raise InvalidSpecError(
                f"capture_point must be one of {CAPTURE_POINTS}, got {self.capture_point!r}")
        read_integer(self.sample_size, "sample_size", InvalidSpecError, least=1)
        read_integer(self.seed, "seed", InvalidSpecError, least=0)


@dataclass(frozen=True)
class LayerTrace:
    """Diagnostics for one aligned layer.

    cost is the (read-only) cost matrix the plan was solved on, or None
    for the output layer, whose identity plan is fixed by contract; the
    report's cost summary and `fuse --dump-costs` both read it.
    """

    layer_index: int
    plan: TransportPlan
    solver: str
    cost: np.ndarray | None = None

    @property
    def is_identity(self) -> bool:
        return self.cost is None

    def describe(self) -> str:
        n, m = self.plan.coupling.shape
        if self.is_identity:
            return f"layer {self.layer_index}: identity plan ({n}x{m}, output layer)"
        perm = self.plan.as_permutation()
        kind = "permutation" if perm is not None else "soft"
        zero = _TRACE_ZERO * self.cost.max()
        objective, low = (0 if abs(x) <= zero else x for x in (self.plan.objective, self.cost.min()))
        return (
            f"layer {self.layer_index}: {self.solver} {n}x{m} {kind} plan, "
            f"objective {objective:.6g}, "
            f"cost[min {low:.4g}, mean {self.cost.mean():.4g}, "
            f"max {self.cost.max():.4g}], "
            f"iterations {self.plan.iterations}, converged {self.plan.converged}"
        )


@dataclass(frozen=True)
class AlignmentTrace:
    """One LayerTrace per parameterized layer, in model order."""

    layers: tuple[LayerTrace, ...]

    def report(self) -> str:
        return "\n".join(t.describe() for t in self.layers)

    def max_marginal_error(self) -> float:
        worst = 0.0
        for t in self.layers:
            n, m = t.plan.coupling.shape
            worst = max(worst, t.plan.marginal_error(uniform_weights(n), uniform_weights(m)))
        return worst


def _scaled_transport(plan: TransportPlan) -> np.ndarray:
    """T / beta with beta = T^T 1; a column with no mass stays zero (see align_model)."""
    T = plan.coupling
    mass = T.sum(axis=0)
    return T / np.where(mass > 0, mass, 1.0)[None, :]


def _moved(record, plan: TransportPlan, dim: int, what: str, axis: int = 0):
    """record's arrays x moved by the plan on the axis: (T / beta).T @ x on axis 0, x @ (T / beta)
    on axis 1; dim must be the plan's rows. A permutation plan gathers each array having the axis
    (scale, shift too) from the checked record; its checks and BN fold act per channel, so none
    reruns, and take keeps the C order that products' bits follow. Other plans rebuild with checks."""
    if dim != plan.coupling.shape[0]:
        raise DimensionMismatchError(f"{what} {dim} != plan rows {plan.coupling.shape[0]}")
    if (order := plan.as_permutation()) is not None:
        rows, moved = np.argsort(order), object.__new__(type(record))
        for name, x in vars(record).items():
            if isinstance(x, np.ndarray) and x.ndim > axis:
                (x := x.take(rows, axis=axis)).setflags(write=False)
            vars(moved)[name] = x
        return moved
    S = _scaled_transport(plan)
    return replace(record, **{f.name: S.T @ x if axis == 0 else x @ S for f in fields(record)
                              if isinstance(x := getattr(record, f.name), np.ndarray) and x.ndim > axis})


def align_layer_incoming(weights: DenseParams, t_prev: TransportPlan) -> DenseParams:
    """W_hat = W @ T_prev / beta_prev: re-express columns in anchor order."""
    return _moved(weights, t_prev, weights.in_dim, "weight in_dim", axis=1)


def align_layer_outgoing(weights: DenseParams, t_curr: TransportPlan) -> DenseParams:
    """W_tilde = (T / beta).T @ W_hat; the bias moves with the rows."""
    return _moved(weights, t_curr, weights.out_dim, "weight out_dim")


def align_batchnorm(bn: BatchNormParams, t_prev: TransportPlan) -> BatchNormParams:
    """Map all four BN vectors by (T / beta).T; no plan of its own.

    t_prev is the plan of the affine layer the batch norm sits behind. The
    map has nonnegative entries, so running_var stays nonnegative.
    """
    return _moved(bn, t_prev, bn.dim, "bn dim")


def align_model(model: GcnModel, plan_for) -> tuple[Layer, ...]:
    """The model's layers with its neurons carried onto another model's, layer by layer.

    A transport plan T couples this model's neurons (rows) to the other
    model's (columns). For each parameterized layer i the incoming weights
    are aligned by the previous plan, plan_for(i, those parameters) gives
    layer i's plan, and the outgoing weights, bias and batch norm move by it:

        incoming:  W_hat   = W @ (T_prev / beta_prev)
        outgoing:  W_tilde = (T / beta).T @ W_hat,   b_tilde = (T / beta).T @ b

    beta = T^T 1, so each column of T / beta sums to 1: a target neuron gets
    the barycentre of the neurons the plan sends it, and a plan that keeps
    little mass (unbalanced Sinkhorn) does not shrink the parameters; a
    column with no mass maps to zero. T / beta is a division, so a plan with
    one nonzero in every row and column gives an exact 0/1 matrix (x / x);
    such a plan moves the neurons by index (plan.as_permutation()), which
    gives the product's bits and keeps a -0.0 that the product would turn
    to +0.0. The mean readout passes the previous plan on.
    """
    layers: list[Layer] = []
    t_prev: TransportPlan | None = None
    for i, layer in enumerate(model.layers):
        if isinstance(layer, MeanReadout):
            # no parameters; the previous plan flows through to the dense head
            layers.append(layer)
            continue
        params = layer.params
        if t_prev is not None:
            params = align_layer_incoming(params, t_prev)
        plan = plan_for(i, params)
        bn = layer.batch_norm
        layers.append(replace(layer, params=align_layer_outgoing(params, plan),
                              batch_norm=None if bn is None else align_batchnorm(bn, plan)))
        t_prev = plan
    return tuple(layers)


def permute_model(model: GcnModel, permutations) -> GcnModel:
    """Permute hidden neurons; the result is functionally identical to the input.

    ``permutations`` holds one index array per hidden parameterized layer
    (every parameterized layer except the last, whose outputs stay in
    place). Row k of the permuted layer is row perm[k] of the original; the
    following layer's columns, its bias, and any BN vectors move along.
    """
    *hidden, head = model.parameterized_indices()
    if len(permutations) != len(hidden):
        raise InvalidSpecError(
            f"need {len(hidden)} permutations (one per hidden layer), got {len(permutations)}"
        )
    plans: dict[int, TransportPlan] = {}
    for layer_i, perm in zip(hidden, permutations):
        if (p := np.asarray(perm)).dtype.kind not in "iu":  # a cast truncates floats, takes bools
            raise InvalidSpecError(f"layer {layer_i}: permutation entries must be integers, not {p.dtype}")
        width = model.layers[layer_i].params.out_dim
        if sorted(p.tolist()) != list(range(width)):
            raise InvalidSpecError(
                f"layer {layer_i}: permutation is not a bijection on 0..{width - 1}"
            )
        # row p[k] goes to column k, so row r's column is argsort(p)[r]
        plans[layer_i] = TransportPlan._permutation(np.argsort(p), 1.0 / width)
    plans[head] = identity_plan(uniform_weights(model.layers[head].params.out_dim))
    layers = align_model(model, lambda i, params: plans[i])
    return GcnModel(layers=layers, name=model.name + "+perm", seed=model.seed)


def _interpolate(a, b, t: float):
    """t * b + (1 - t) * a in each field of a DenseParams or BatchNormParams; None stays None."""
    values = {f.name: getattr(a, f.name) for f in fields(a)}
    for name, x in values.items():
        if x is not None:
            values[name] = t * getattr(b, name)
            values[name] += (1.0 - t) * x  # in place on arrays: the same sum, one temporary fewer
    return type(a)(**values)


def _interpolate_models(layers_a, model_b: GcnModel, weight_on_b: float, name: str) -> GcnModel:
    """A's layers (aligned or not) averaged with the anchor's; weight_on_b weighs B."""
    new_layers = []
    for layer_a, layer_b in zip(layers_a, model_b.layers):
        if isinstance(layer_a, MeanReadout):
            new_layers.append(MeanReadout())
            continue
        bn_a = layer_a.batch_norm
        fused_bn = None if bn_a is None else _interpolate(bn_a, layer_b.batch_norm, weight_on_b)
        params = _interpolate(layer_a.params, layer_b.params, weight_on_b)
        new_layers.append(replace(layer_b, params=params, batch_norm=fused_bn))
    return GcnModel(layers=tuple(new_layers), name=name)


def fuse(
    model_a: GcnModel,
    model_b: GcnModel,
    dataset: Dataset | None,
    config: FusionConfig,
) -> tuple[GcnModel, AlignmentTrace]:
    """Align model_a to anchor model_b layer by layer, then average.

    Activation costs sample config.sample_size graphs from the dataset
    (seeded) and capture both models' pre-activations on them once; a
    weight cost needs no data. align_model then aligns A layer by
    layer and asks for each plan in turn: the output layer's is the identity
    with no cost, every other one is solved on the layer's cost matrix. The
    aligned parameters are interpolated with B's. A cost that overflows or is not
    finite raises NumericalError naming its layer; an unconverged Sinkhorn
    plan logs a warning on the "gcnfuse" logger. Returns the fused model
    plus a per-layer trace of the plans and the read-only cost matrices
    they were solved on.
    """
    if not model_a.same_architecture(model_b):
        raise DimensionMismatchError("models must share an architecture to fuse")

    weight_cost = config.cost.kind == WEIGHT
    sinkhorn = config.sinkhorn or SinkhornParams(epsilon=default_epsilon(config.cost.kind))
    if not weight_cost:
        if dataset is None or not dataset.graphs:
            raise InvalidSpecError("activation-based fusion needs a nonempty dataset")
        batch = sample_batch(dataset, config.sample_size, config.seed)
        _, acts_a = forward_with_capture(model_a, batch, config.capture_point)
        _, acts_b = forward_with_capture(model_b, batch, config.capture_point)

    output_index = model_a.parameterized_indices()[-1]
    traces = []

    def plan_for(i: int, params_a: DenseParams) -> TransportPlan:
        if i == output_index:
            plan, C = identity_plan(uniform_weights(params_a.out_dim)), None
        else:
            try:
                with np.errstate(over="raise", invalid="raise"):
                    C = (weight_cost_matrix(params_a, model_b.layers[i].params) if weight_cost
                         else build_cost_matrix(acts_a[i], acts_b[i], config.cost))
            except FloatingPointError:
                C = None
            if C is None or not np.isfinite(C).all():  # einsum overflows to inf without raising
                raise NumericalError(f"layer {i}: the {config.cost.kind} cost holds NaN or infinite values")
            C.setflags(write=False)
            alpha = uniform_weights(C.shape[0])
            beta = uniform_weights(C.shape[1])
            if config.solver == SOLVER_EMD:
                plan = emd(alpha, beta, C)
            else:
                plan = sinkhorn_unbalanced(alpha, beta, C, sinkhorn)
                if not plan.converged:
                    _log.warning(
                        "layer %d: sinkhorn plan unconverged after %d iterations, "
                        "relative duality gap %.3g", i, plan.iterations, plan.gap,
                    )
        traces.append(LayerTrace(layer_index=i, plan=plan, solver=config.solver, cost=C))
        return plan

    fused = _interpolate_models(
        align_model(model_a, plan_for), model_b, config.interpolation,
        f"fused({model_a.name or 'a'},{model_b.name or 'b'})",
    )
    return fused, AlignmentTrace(layers=tuple(traces))


def vanilla_fuse(model_a: GcnModel, model_b: GcnModel, interpolation: float = 0.5) -> GcnModel:
    """Elementwise parameter interpolation with no alignment; the baseline."""
    read_number(interpolation, "interpolation", InvalidSpecError, least=0, most=1)
    if not model_a.same_architecture(model_b):
        raise DimensionMismatchError("models must share an architecture to fuse")
    return _interpolate_models(model_a.layers, model_b, interpolation,
                               f"vanilla({model_a.name or 'a'},{model_b.name or 'b'})")


def ensemble_predict(models: list[GcnModel], graphs) -> np.ndarray:
    """Mean of the member predictions for each graph, in order; graphs as predict takes them."""
    if not models:
        raise InvalidSpecError("ensemble needs at least one model")
    if not isinstance(graphs, Dataset) and (g := tuple(graphs)):
        graphs = Dataset(graphs=g, feature_dim=g[0].feature_dim)  # laid out once for every member
    # one row per graph, so each mean sums its members in model order
    return np.stack([predict(m, graphs) for m in models], axis=1).mean(axis=1)
