"""Layer-wise model fusion by optimal transport.

fuse() aligns one model (A) to an anchor (B) with models.align_model, which
holds the alignment algebra, solving each layer's transport plan on a cost
between A's and B's neurons; then it averages the aligned parameters with
B's, the step vanilla_fuse takes without alignment.
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
    DenseParams,
    GcnModel,
    MeanReadout,
    # the align_* primitives are re-exported; the package imports them from here
    align_batchnorm,
    align_layer_incoming,
    align_layer_outgoing,
    align_model,
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
        return (
            f"layer {self.layer_index}: {self.solver} {n}x{m} {kind} plan, "
            f"objective {self.plan.objective:.6g}, "
            f"cost[min {self.cost.min():.4g}, mean {self.cost.mean():.4g}, "
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
    weight cost needs no data. models.align_model then aligns A layer by
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
