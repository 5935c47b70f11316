"""Layer-wise model fusion by optimal transport.

One model (A) is aligned to an anchor (B) one layer at a time: a transport
plan T couples A's neurons (rows) to B's (columns). fuse() runs one loop
over the layers, and each parameterized layer takes one step: align A's
incoming weights by the previous plan, build the layer's cost matrix (from
those aligned weights for a weight cost, otherwise from activations
captured once before the loop), solve it for T, then map A's outgoing
weights and batch norm by T and interpolate with B's. A's parameters are
pushed through

    incoming:  W_hat   = W_A @ (T_prev / beta_prev)
    outgoing:  W_tilde = (T / beta).T @ W_hat,   b_tilde = (T / beta).T @ b

and averaged with the anchor's. beta = T^T 1 is the mass the plan gives
each anchor neuron, so every column of T / beta sums to 1 and A's neurons
are mapped by the barycentric average the plan assigns to that anchor
neuron. An unbalanced (Sinkhorn) plan that keeps little mass therefore
does not shrink the aligned parameters; a column with no mass at all maps
to zero. The scaled transport T / beta is applied as a division, not a
multiplication by m: for a permutation plan (1/m) P the nonzero entries
become exactly 1.0 (x / x is exact in IEEE), so aligning by a recovered
permutation is entrywise exact, which the self-fusion and
permutation-recovery guarantees rely on.

Batch norm vectors ride along with the owning layer's plan; the mean
readout has no parameters and just propagates the previous plan; the
output layer is never transported (its plan is the identity by contract).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .costs import EFD, FGW, QE, WEIGHT, CostSpec, build_cost_matrix, weight_cost_matrix
from .errors import DimensionMismatchError, InvalidSpecError
from .graphs import Dataset, sample_batch
from .models import (
    POST_BN,
    BatchNormParams,
    DenseParams,
    GcnModel,
    MeanReadout,
    _rebuild,
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
        if not 0.0 <= self.interpolation <= 1.0:
            raise InvalidSpecError("interpolation must be in [0, 1]")
        if self.sample_size < 1:
            raise InvalidSpecError("sample_size must be >= 1")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")


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


def _scaled_transport(plan: TransportPlan) -> np.ndarray:
    """T / beta with beta = T^T 1; exact (entries become x/x) for permutation plans.

    A column with zero mass stays zero instead of becoming 0/0.
    """
    T = plan.coupling
    mass = T.sum(axis=0)
    return T / np.where(mass > 0, mass, 1.0)[None, :]


def align_layer_incoming(weights: DenseParams, t_prev: TransportPlan) -> DenseParams:
    """W_hat = W @ T_prev / beta_prev: re-express columns in anchor order."""
    S = _scaled_transport(t_prev)
    if weights.in_dim != S.shape[0]:
        raise DimensionMismatchError(
            f"weight in_dim {weights.in_dim} != plan rows {S.shape[0]}"
        )
    return DenseParams(weight=weights.weight @ S, bias=weights.bias)


def align_layer_outgoing(weights: DenseParams, t_curr: TransportPlan) -> DenseParams:
    """W_tilde = (T / beta).T @ W_hat; the bias moves with the rows."""
    S = _scaled_transport(t_curr)
    if weights.out_dim != S.shape[0]:
        raise DimensionMismatchError(
            f"weight out_dim {weights.out_dim} != plan rows {S.shape[0]}"
        )
    bias = None if weights.bias is None else S.T @ weights.bias
    return DenseParams(weight=S.T @ weights.weight, bias=bias)


def align_batchnorm(bn: BatchNormParams, t_prev: TransportPlan) -> BatchNormParams:
    """Map all four BN vectors by (T / beta).T; no plan of its own.

    t_prev is the plan of the affine layer the batch norm sits behind. The
    map has nonnegative entries, so running_var stays nonnegative.
    """
    S = _scaled_transport(t_prev)
    if bn.dim != S.shape[0]:
        raise DimensionMismatchError(f"bn dim {bn.dim} != plan rows {S.shape[0]}")
    return BatchNormParams(
        gamma=S.T @ bn.gamma,
        beta_shift=S.T @ bn.beta_shift,
        running_mean=S.T @ bn.running_mean,
        running_var=S.T @ bn.running_var,
        epsilon=bn.epsilon,
    )


def _interpolate(a: np.ndarray, b: np.ndarray, weight_on_b: float) -> np.ndarray:
    return weight_on_b * b + (1.0 - weight_on_b) * a


def _interpolate_params(a: DenseParams, b: DenseParams, t: float) -> DenseParams:
    bias = None if a.bias is None else _interpolate(a.bias, b.bias, t)
    return DenseParams(weight=_interpolate(a.weight, b.weight, t), bias=bias)


def _interpolate_bn(a: BatchNormParams, b: BatchNormParams, t: float) -> BatchNormParams:
    return BatchNormParams(
        gamma=_interpolate(a.gamma, b.gamma, t),
        beta_shift=_interpolate(a.beta_shift, b.beta_shift, t),
        running_mean=_interpolate(a.running_mean, b.running_mean, t),
        running_var=_interpolate(a.running_var, b.running_var, t),
        epsilon=t * b.epsilon + (1.0 - t) * a.epsilon,
    )


def _interpolate_layer(layer_b, params_a: DenseParams, bn_a: BatchNormParams | None, t: float):
    """A layer of layer_b's type whose parameters interpolate A's (aligned) and B's; t weighs B."""
    fused_bn = None if bn_a is None else _interpolate_bn(bn_a, layer_b.batch_norm, t)
    return _rebuild(layer_b, _interpolate_params(params_a, layer_b.params, t), fused_bn)


def fuse(
    model_a: GcnModel,
    model_b: GcnModel,
    dataset: Dataset | None,
    config: FusionConfig,
) -> tuple[GcnModel, AlignmentTrace]:
    """Align model_a to anchor model_b layer by layer, then average.

    Activation costs sample config.sample_size graphs from the dataset
    (seeded) and capture both models' pre-activations on them once; a
    weight cost needs no data. Every parameterized layer then takes the one
    step the module docstring describes, the output layer with the identity
    plan and no cost. An unconverged Sinkhorn plan logs a warning on the
    "gcnfuse" logger. Returns the fused model plus a per-layer trace of the
    plans and the read-only cost matrices they were solved on.
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
    new_layers = []
    traces = []
    t_prev: TransportPlan | None = None
    for i, layer_a in enumerate(model_a.layers):
        layer_b = model_b.layers[i]
        if isinstance(layer_a, MeanReadout):
            # no parameters; the previous plan flows through to the dense head
            new_layers.append(MeanReadout())
            continue
        params_a = layer_a.params
        if t_prev is not None:
            params_a = align_layer_incoming(params_a, t_prev)

        if i == output_index:
            plan, C = identity_plan(uniform_weights(params_a.out_dim)), None
        else:
            if weight_cost:
                C = weight_cost_matrix(params_a, layer_b.params)
            else:
                C = build_cost_matrix(acts_a[i], acts_b[i], config.cost)
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

        params_a = align_layer_outgoing(params_a, plan)
        bn_a = getattr(layer_a, "batch_norm", None)
        if bn_a is not None:
            bn_a = align_batchnorm(bn_a, plan)
        new_layers.append(_interpolate_layer(layer_b, params_a, bn_a, config.interpolation))
        traces.append(LayerTrace(layer_index=i, plan=plan, solver=config.solver, cost=C))
        t_prev = plan

    fused = GcnModel(
        layers=tuple(new_layers),
        name=f"fused({model_a.name or 'a'},{model_b.name or 'b'})",
    )
    return fused, AlignmentTrace(layers=tuple(traces))


def vanilla_fuse(model_a: GcnModel, model_b: GcnModel, interpolation: float = 0.5) -> GcnModel:
    """Elementwise parameter interpolation with no alignment; the baseline."""
    if not 0.0 <= interpolation <= 1.0:
        raise InvalidSpecError("interpolation must be in [0, 1]")
    if not model_a.same_architecture(model_b):
        raise DimensionMismatchError("models must share an architecture to fuse")
    new_layers = []
    for layer_a, layer_b in zip(model_a.layers, model_b.layers):
        if isinstance(layer_a, MeanReadout):
            new_layers.append(MeanReadout())
            continue
        new_layers.append(_interpolate_layer(
            layer_b, layer_a.params, getattr(layer_a, "batch_norm", None), interpolation))
    return GcnModel(
        layers=tuple(new_layers),
        name=f"vanilla({model_a.name or 'a'},{model_b.name or 'b'})",
    )


def ensemble_predict(models: list[GcnModel], graphs) -> np.ndarray:
    """Mean of the member predictions for each graph of a sequence, in order."""
    if not models:
        raise InvalidSpecError("ensemble needs at least one model")
    # one row per graph, so each mean sums its members in model order
    return np.stack([predict(m, graphs) for m in models], axis=1).mean(axis=1)
