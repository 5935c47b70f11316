"""Discrete optimal-transport solvers.

Three solvers:

- emd: the exact Kantorovich LP. Uniform equal-size marginals go through a
  linear-assignment solver and come back as a (1/n)-scaled permutation
  coupling; everything else goes through an LP with tightened feasibility
  tolerances.
- sinkhorn_unbalanced: entropy-regularized OT with KL marginal penalties,
  solved by damped Newton ascent on its dual potentials, with a
  closed-form translation step each iteration. It stops on a duality-gap
  certificate, so converged=True means the plan's unbalanced objective is
  within 1e-9 (relative) of the optimum; epsilon down to 5e-5 works.
- fgw_distance: fused Gromov-Wasserstein via fixed-point iteration over a
  linearized cost, multi-started and solved in both directions so identity
  and symmetry hold tightly; one array kernel over a stack of instances, each
  start's first step built once per stack and a run scored only where its plan
  is new. Uniform square steps are linear assignments kept as column indices:
  the next cost is gathered from them, and runs stop and match on them.

All solvers are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.optimize import linear_sum_assignment, linprog

from .errors import (DimensionMismatchError, InvalidSpecError, NumericalError, SolverError,
                     read_array, read_integer, read_number)

MARGINAL_TOL = 1e-9


def _histogram(weights, name: str) -> np.ndarray:
    w = read_array(weights, 1, name, InvalidSpecError)
    if w.size == 0 or np.any(w < 0):
        raise InvalidSpecError(f"{name} must be a nonempty vector of weights >= 0")
    return w


def _balanced(alpha, beta) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta as checked histograms whose masses agree within MARGINAL_TOL."""
    a, b = _histogram(alpha, "alpha"), _histogram(beta, "beta")
    if abs(a.sum() - b.sum()) > MARGINAL_TOL:
        raise InvalidSpecError(f"input masses differ: {a.sum():.12g} vs {b.sum():.12g}")
    return a, b


def _cost(cost, n: int, m: int, stacked: bool = False) -> np.ndarray:
    C = read_array(cost, None, "feature_cost" if stacked else "cost", InvalidSpecError)
    if C.ndim not in ((2, 3) if stacked else (2,)) or C.shape[-2:] != (n, m) or C.size == 0:
        raise DimensionMismatchError(f"cost matrix shape {C.shape} != ({n}, {m})")
    if np.any(C < 0):
        raise InvalidSpecError("cost entries must be >= 0")
    return C


def _marginal_error(T: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    return float(max(np.max(np.abs(T.sum(axis=1) - a)), np.max(np.abs(T.sum(axis=0) - b))))


def uniform_weights(n: int) -> np.ndarray:
    """Uniform histogram 1/n; the measure every fusion layer uses."""
    read_integer(n, "histogram size", InvalidSpecError, least=1)
    return np.ones(n) / n


@dataclass(frozen=True)
class TransportPlan:
    """A coupling with its objective and solver diagnostics.

    ``objective`` is <coupling, cost>; ``gap`` the relative duality gap (P - D) / max(1, |P|) of
    the plan where the solver certifies one (Sinkhorn), else None. The constructor checks and
    copies the coupling; emd, identity_plan and permute_model build theirs once (_permutation).
    """

    coupling: np.ndarray
    objective: float
    converged: bool = True
    iterations: int = 0
    gap: float | None = None

    def __post_init__(self):
        T = np.asarray(self.coupling, dtype=np.float64)
        if T.ndim != 2:
            raise InvalidSpecError("coupling must be a matrix")
        if not np.all(np.isfinite(T)) or np.any(T < 0):
            raise NumericalError("coupling entries must be finite and >= 0")
        T = np.array(T)
        T.setflags(write=False)
        object.__setattr__(self, "coupling", T)
        # the permutation order, worked out once; not a field, so not compared or saved
        nonzero, n, order = T != 0.0, T.shape[0], None
        if T.shape == (n, n) and np.count_nonzero(nonzero) == n:
            rows, cols = np.divmod(np.flatnonzero(nonzero), n)
            if np.array_equal(rows, np.arange(n)) and np.array_equal(np.sort(cols), rows):
                (order := cols).setflags(write=False)
        object.__setattr__(self, "_order", order)

    @classmethod
    def _permutation(cls, cols: np.ndarray, mass, cost=None) -> "TransportPlan":
        """Checked mass (finite, >= 0) at row k, column cols[k], built once; objective <T, cost> or 0."""
        (T := _permutation_coupling(cols, mass)).setflags(write=False)
        cols.setflags(write=False)
        plan = object.__new__(cls)
        vars(plan).update(coupling=T, objective=0.0 if cost is None else float(np.sum(T * cost)),
                          converged=True, iterations=0, gap=None,
                          _order=cols if np.all(mass != 0.0) else None)
        return plan

    def marginal_error(self, alpha, beta) -> float:
        """The largest gap between the coupling's row sums and alpha or its column sums and beta."""
        a, b = _histogram(alpha, "alpha"), _histogram(beta, "beta")
        if (a.size, b.size) != self.coupling.shape:
            raise DimensionMismatchError(f"coupling shape {self.coupling.shape} != ({a.size}, {b.size})")
        return _marginal_error(self.coupling, a, b)

    def as_permutation(self) -> np.ndarray | None:
        """Column index per row if the coupling is a scaled permutation, else None.

        That is a square coupling with exactly one nonzero in every row and
        every column. Read-only; construction works it out once.
        """
        return self._order


def identity_plan(alpha) -> TransportPlan:
    """diag(alpha), objective 0, built once from the checked alpha: untransported layers' plan."""
    a = _histogram(alpha, "alpha")
    return TransportPlan._permutation(np.arange(a.size), a)


def _uniform_square(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(a.size == b.size and np.all(a == a[0]) and np.all(b == b[0])
                and abs(a[0] - b[0]) <= MARGINAL_TOL)


def _assignment_columns(C: np.ndarray) -> np.ndarray:
    """Each row's column in the assignment minimizing C or each slice of a (P, n, n) stack."""
    stack = C.reshape((-1,) + C.shape[-2:])
    return np.array([linear_sum_assignment(C_k)[1] for C_k in stack], dtype=int).reshape(C.shape[:-1])


def _permutation_coupling(cols: np.ndarray, mass) -> np.ndarray:
    """The dense plans with mass[..., k] at row k, column cols[..., k]; mass broadcasts to cols."""
    T = np.zeros(cols.shape + cols.shape[-1:])
    T[(*np.indices(cols.shape, sparse=True), cols)] = mass
    return T


def emd(alpha, beta, cost) -> TransportPlan:
    """Exact solution of min <T, C> over couplings with marginals alpha, beta.

    Masses must balance within 1e-9. Uniform square instances are solved by
    linear assignment and return a (1/n)-scaled permutation coupling, built
    once from its columns: row k and column cols[k] both hold a[k] alone, so
    its marginals are off by |a[0] - b[0]| <= 1e-9 at most. The rest go
    through the checked LP kernel (dual simplex) with tightened feasibility
    tolerances, so the 1e-9 marginal guarantee holds with slack.
    """
    a, b = _balanced(alpha, beta)
    C = _cost(cost, a.size, b.size)
    if _uniform_square(a, b):
        return TransportPlan._permutation(linear_sum_assignment(C)[1], a, C)
    T = _emd_linprog(a, b, C)
    return TransportPlan(coupling=T, objective=float(np.sum(T * C)))


def _emd_linprog(a: np.ndarray, b: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The exact plan for checked a, b and C, its marginals checked: emd's LP route, FGW's steps."""
    n, m = C.shape
    # row i constraint touches variables i*m..i*m+m-1; column j touches j, j+m, ...
    row_idx = np.repeat(np.arange(n), m)
    col_idx = np.tile(np.arange(m), n) + n
    var_idx = np.arange(n * m)
    A_eq = scipy.sparse.coo_matrix(
        (np.ones(2 * n * m), (np.concatenate([row_idx, col_idx]), np.concatenate([var_idx, var_idx]))),
        shape=(n + m, n * m),
    )
    res = linprog(
        C.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
        method="highs-ds",
        options={
            # 1e-10 is the tightest HiGHS accepts; simplex vertex solutions
            # land at machine precision anyway
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status != 0:
        raise SolverError(f"LP solver failed: {res.message}")
    T = np.maximum(res.x.reshape(n, m), 0.0)
    if (error := _marginal_error(T, a, b)) > MARGINAL_TOL:
        raise SolverError(f"solved plan violates marginals by {error:.3g}")
    return T


@dataclass(frozen=True)
class SinkhornParams:
    """Knobs for the unbalanced entropic solver.

    epsilon scales the KL(T || alpha beta^T) entropy term; rho_alpha and
    rho_beta scale the KL penalties on the two marginals. The stop rule is
    the solver's own (_SINKHORN_TOL, _SINKHORN_MAX_ITERS).
    """

    epsilon: float
    rho_alpha: float = 1.0
    rho_beta: float = 1.0

    def __post_init__(self):
        for name in ("epsilon", "rho_alpha", "rho_beta"):
            if read_number(getattr(self, name), name, InvalidSpecError) <= 0:
                raise InvalidSpecError("epsilon and rho values must be finite and > 0")


def _generalized_kl(x: np.ndarray, y: np.ndarray) -> float:
    """KL for unnormalized measures: sum x log(x/y) - x + y, with 0 log 0 = 0."""
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    pos = x > 0
    if np.any(y[pos] == 0):
        return float("inf")
    terms = x[pos] * np.log(x[pos] / y[pos])
    return float(terms.sum() - x.sum() + y.sum())


def _unbalanced_objective(T: np.ndarray, a: np.ndarray, b: np.ndarray, C: np.ndarray,
                          params: SinkhornParams) -> float:
    """<T,C> + rho_a KL(T1||a) + rho_b KL(T^T1||b) + eps KL(T||ab^T) on float arrays, unchecked."""
    return (
        float(np.sum(T * C))
        + params.rho_alpha * _generalized_kl(T.sum(axis=1), a)
        + params.rho_beta * _generalized_kl(T.sum(axis=0), b)
        + params.epsilon * _generalized_kl(T, np.outer(a, b))
    )


def _log_weighted_sum(x: np.ndarray, w: np.ndarray, axis=None):
    """log(sum(w * e^x)) along axis, shifted by the maximum so nothing overflows."""
    top = np.max(x, axis=axis, keepdims=True)
    return np.squeeze(top, axis=axis) + np.log(np.sum(w * np.exp(x - top), axis=axis))


# Armijo constant and the smallest step fraction the line search tries
_ARMIJO = 1e-4
_MIN_STEP = 2.0 ** -40
# P and D are sums of terms no larger than max(1, |P|) in these units; a
# change or a gap within this much of it is rounding, neither a raise of P
# nor a certificate
_ROUNDING = 8 * float(np.finfo(np.float64).eps)
# the Sinkhorn solve stops once it certifies P(T) - D(f, g) <= this * max(1, |P(T)|), with P the
# unbalanced objective and D its dual, or after this many iterations
_SINKHORN_TOL = 1e-9
_SINKHORN_MAX_ITERS = 10000


class _UnbalancedDual:
    """The dual of the unbalanced entropic problem in the potentials f, g.

    D(f, g) = -rho_a <a, e^{-f/rho_a} - 1> - rho_b <b, e^{-g/rho_b} - 1>
              - eps <ab^T, e^{(f+g-C)/eps} - 1>

    is concave, D(f, g) <= P(T) for every plan T (weak duality), and its
    maximizer gives the optimal plan T = ab^T e^{(f+g-C)/eps}.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, C: np.ndarray, params: SinkhornParams):
        self.a, self.b, self.C, self.params = a, b, C, params
        self.log_ab = np.log(a)[:, None] + np.log(b)[None, :]
        self.mass_ab = float(a.sum() * b.sum())

    def plan(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_ab + (f[:, None] + g[None, :] - self.C) / self.params.epsilon)

    def value(self, T: np.ndarray, f: np.ndarray, g: np.ndarray) -> float:
        """D(f, g), given T = plan(f, g)."""
        p = self.params
        with np.errstate(over="ignore"):
            return (
                -p.rho_alpha * float(self.a @ np.expm1(-f / p.rho_alpha))
                - p.rho_beta * float(self.b @ np.expm1(-g / p.rho_beta))
                - p.epsilon * (float(T.sum()) - self.mass_ab)
            )

    def primal(self, T: np.ndarray) -> float:
        return _unbalanced_objective(T, self.a, self.b, self.C, self.params)

    def translate(self, f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact maximization of D along (f + lam, g - lam), which leaves T unchanged."""
        ra, rb = self.params.rho_alpha, self.params.rho_beta
        log_ratio = _log_weighted_sum(-f / ra, self.a) - _log_weighted_sum(-g / rb, self.b)
        lam = ra * rb / (ra + rb) * log_ratio
        return f + lam, g - lam

    def newton_direction(self, T, f, g) -> tuple[np.ndarray, np.ndarray]:
        """(gradient, Newton ascent direction) of D, both over the stacked (f, g).

        The Hessian of -D is diag(a e^{-f/rho_a}/rho_a + T1/eps,
        b e^{-g/rho_b}/rho_b + T^T1/eps) plus T/eps off the diagonal. It is
        Jacobi-scaled, and a coordinate whose diagonal is below one ulp of
        the largest is left out: its curvature is lost to rounding, scaling
        would blow that rounding up into a huge step, and its row or column
        of T holds no mass the tolerance can see. The rank-revealing
        least-squares solve takes the minimum-norm step where a block of T
        has no curvature left along its own translation.
        """
        p = self.params
        n = f.size
        r, c = T.sum(axis=1), T.sum(axis=0)
        row_target = self.a * np.exp(-f / p.rho_alpha)
        col_target = self.b * np.exp(-g / p.rho_beta)
        grad = np.concatenate([row_target - r, col_target - c])
        diag = np.concatenate([row_target / p.rho_alpha + r / p.epsilon,
                               col_target / p.rho_beta + c / p.epsilon])
        H = np.zeros((grad.size, grad.size))
        H[:n, n:] = T / p.epsilon
        H[n:, :n] = H[:n, n:].T
        np.fill_diagonal(H, diag)
        keep = diag > np.finfo(np.float64).eps * diag.max()
        scale = 1.0 / np.sqrt(diag[keep])
        Hs = H[np.ix_(keep, keep)] * scale[:, None] * scale[None, :]
        y = scipy.linalg.lstsq(Hs, scale * grad[keep], lapack_driver="gelsy",
                               check_finite=False)[0]
        direction = np.zeros_like(grad)
        direction[keep] = scale * y
        return grad, direction

    def sinkhorn_sweep(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact block ascent: maximize D over f for the given g, then over g."""
        p = self.params
        eps = p.epsilon
        f = -p.rho_alpha * eps / (p.rho_alpha + eps) * _log_weighted_sum(
            (g[None, :] - self.C) / eps, self.b[None, :], axis=1)
        g = -p.rho_beta * eps / (p.rho_beta + eps) * _log_weighted_sum(
            (f[:, None] - self.C) / eps, self.a[:, None], axis=0)
        return f, g


def _relative_gap(P: float, D: float) -> float:
    return (P - D) / max(1.0, abs(P))


def _primal_bound(P: float) -> float:
    return P + _ROUNDING * max(1.0, abs(P))


def _newton_step(dual: _UnbalancedDual, T, f, g, P: float, D: float):
    """Backtracked Newton step as (f, g, T, P), or None if no step fraction passes."""
    grad, direction = dual.newton_direction(T, f, g)
    slope = float(grad @ direction)
    if not slope > 0:
        return None
    df, dg = np.split(direction, [f.size])
    t = 1.0
    while t >= _MIN_STEP:
        f_t, g_t = f + t * df, g + t * dg
        T_t = dual.plan(f_t, g_t)
        if dual.value(T_t, f_t, g_t) >= D + _ARMIJO * t * slope:
            P_t = dual.primal(T_t)
            if P_t <= _primal_bound(P):
                return f_t, g_t, T_t, P_t
        t *= 0.5
    return None


def _sweep_step(dual: _UnbalancedDual, g, P: float):
    """One log-domain Sinkhorn sweep as (f, g, T, P), or None if it raises P."""
    f, g = dual.sinkhorn_sweep(g)
    T = dual.plan(f, g)
    P_new = dual.primal(T)
    return (f, g, T, P_new) if P_new <= _primal_bound(P) else None


def sinkhorn_unbalanced(alpha, beta, cost, params: SinkhornParams) -> TransportPlan:
    """Unbalanced entropic OT by damped Newton ascent on the dual.

    Minimizes P(T) = <T,C> + rho_a KL(T1||a) + rho_b KL(T^T1||b)
    + eps KL(T||ab^T) through its dual potentials f, g, with the plan
    T = ab^T e^{(f+g-C)/eps}. The first iteration is one log-domain
    Sinkhorn sweep from g = min_i C_ij / 2; each later one is a Newton step
    on the dense Hessian, backtracked until it passes a dual Armijo test
    and does not raise P. Every iteration ends with the closed-form
    translation step along (f + lam, g - lam), which leaves T unchanged.
    If no Newton step passes, one Sinkhorn sweep is taken instead, again
    only if it does not raise P; otherwise the solve stops. So P is
    non-increasing (up to its rounding). The Newton step follows
    Brauer, Clason, Lorenz & Wirth, "A Sinkhorn-Newton method for entropic
    optimal transport" (2017); the translation step follows Sejourne,
    Vialard & Peyre, "Faster unbalanced optimal transport: translation
    invariant Sinkhorn and 1-D Frank-Wolfe" (AISTATS 2023).

    converged=True certifies P(T) - min P <= P(T) - D(f, g)
    <= _SINKHORN_TOL * max(1, |P(T)|), with a margin of a few ulps for the
    rounding of P and D; the plan's gap field holds (P - D) / max(1, |P|).
    Reaching _SINKHORN_MAX_ITERS or a stalled step returns converged=False.
    """
    a, b = _histogram(alpha, "alpha"), _histogram(beta, "beta")
    C = _cost(cost, a.size, b.size)
    if np.any(a == 0) or np.any(b == 0):
        raise InvalidSpecError("sinkhorn requires strictly positive weights")
    dual = _UnbalancedDual(a, b, C, params)
    # at small eps one sweep from g = min_i C_ij / 2 already gives each row
    # about the mass its marginal penalty asks for, so the mass-losing
    # plans of the fusion layers often need no Newton step at all
    f, g = dual.translate(*dual.sinkhorn_sweep(0.5 * C.min(axis=0)))
    T = dual.plan(f, g)
    P = dual.primal(T)
    D = dual.value(T, f, g)
    # the start sweep is the first iteration
    iterations = 1
    while _relative_gap(P, D) + _ROUNDING > _SINKHORN_TOL and iterations < _SINKHORN_MAX_ITERS:
        step = _newton_step(dual, T, f, g, P, D) or _sweep_step(dual, g, P)
        if step is None:
            break
        iterations += 1
        f, g, T, P = step
        # the translation leaves T, and with it P, unchanged
        f, g = dual.translate(f, g)
        D = dual.value(T, f, g)
    gap = _relative_gap(P, D)
    return TransportPlan(
        coupling=T, objective=float(np.sum(T * C)),
        converged=gap + _ROUNDING <= _SINKHORN_TOL, iterations=iterations, gap=gap,
    )


# the FGW fixed point stops once the plan moves less than this, or after
# this many linearized solves
_FGW_TOL = 1e-7
_FGW_MAX_ITERS = 100


@dataclass(frozen=True)
class FgwProblem:
    """A fused Gromov-Wasserstein instance, or a stack of instances.

    structure_a and structure_b are symmetric zero-diagonal intra-graph
    distance matrices; feature_cost compares vertex features across the
    graphs. trade_off weights the feature term (1 = pure feature OT,
    0 = pure structure); it may be a (P, n, m) stack of instances sharing the
    rest. The masses of alpha and beta balance within MARGINAL_TOL. The
    constructor checks, copies and freezes every array, as TransportPlan does.
    """

    structure_a: np.ndarray
    structure_b: np.ndarray
    feature_cost: np.ndarray
    trade_off: float
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a, b = _balanced(self.alpha, self.beta)
        vars(self).update(alpha=a, beta=b,  # read_array's read-only copies
                          structure_a=self._structure(self.structure_a, a.size, "structure_a"),
                          structure_b=self._structure(self.structure_b, b.size, "structure_b"),
                          feature_cost=_cost(self.feature_cost, a.size, b.size, stacked=True))
        read_number(self.trade_off, "trade_off", InvalidSpecError, least=0, most=1)

    @staticmethod
    def _structure(mat, size: int, name: str) -> np.ndarray:
        M = read_array(mat, None, name, InvalidSpecError)
        if M.shape != (size, size):
            raise DimensionMismatchError(f"{name} shape {M.shape} != ({size}, {size})")
        if np.any(M < 0):
            raise InvalidSpecError(f"{name} entries must be >= 0")
        if np.any(np.diag(M) != 0):
            raise InvalidSpecError(f"{name} must have a zero diagonal")
        if not np.array_equal(M, M.T):
            raise InvalidSpecError(f"{name} must be symmetric")
        return M

    def transposed(self) -> "FgwProblem":
        """The mirrored instance, from arrays this problem validated, with no check run again."""
        mirror = object.__new__(FgwProblem)
        vars(mirror).update(
            structure_a=self.structure_b, structure_b=self.structure_a,
            feature_cost=np.swapaxes(self.feature_cost, -1, -2), trade_off=self.trade_off,
            alpha=self.beta, beta=self.alpha,
        )
        return mirror


def _gromov_linearized(C1: np.ndarray, C2: np.ndarray, T: np.ndarray) -> np.ndarray:
    """tens[i,j] = sum_kl (C1[i,k] - C2[j,l])^2 T[k,l], using T's actual marginals.

    T may be a (P, n, m) stack: each slice gets a single T's operations, in order.
    C2 is symmetric, so (C1 @ T) @ C2 is (C1 @ T) @ C2.T without a transposed operand.
    """
    row = T.sum(axis=-1)
    col = T.sum(axis=-2)
    return ((C1 ** 2) @ row[..., None] + np.swapaxes((C2 ** 2) @ col[..., None], -1, -2)
            - 2.0 * (C1 @ T) @ C2)


def _gromov_at_columns(C1: np.ndarray, C2: np.ndarray, a: np.ndarray, cols: np.ndarray):
    """_gromov_linearized, bit for bit, at the a-scaled permutations with row k's mass in column
    cols[..., k], for a uniform a: their marginals are a, and C1 @ T is a gather."""
    C1T = np.moveaxis((2.0 * (C1 * a[0])).take(np.argsort(cols, axis=-1), axis=1), 0, -2)
    return (C1 ** 2) @ a[:, None] + ((C2 ** 2) @ a[:, None]).T - C1T @ C2


def _fused_objective(problem: FgwProblem, T: np.ndarray, tens=None) -> float | np.ndarray:
    """trade_off * <F,T> + (1 - trade_off) * sum (C1_ik - C2_jl)^2 T_ij T_kl.

    A float (np.float64) for one instance and plan; one objective per
    instance when the problem or T is a stack. tens: _gromov_linearized at T, if known.
    """
    feature = np.sum(problem.feature_cost * T, axis=(-2, -1))
    structure = np.sum((_gromov_linearized(problem.structure_a, problem.structure_b, T)
                        if tens is None else tens) * T, axis=(-2, -1))
    return problem.trade_off * feature + (1.0 - problem.trade_off) * structure


def _fgw_fixed_points(problem: FgwProblem, instances=slice(None)):
    """The fixed point from every start on each instance that `instances` picks from the stack.

    Run s * P + p is the p-th chosen instance from start s; it leaves the array
    once its plan moves less than _FGW_TOL. Returns the plans (S, P, n, m), or on a uniform
    square problem, whose plans after the start are a-scaled permutations (two of them differ
    by a[0] in some entry), their columns (S, P, n).
    """
    Ca, Cb, a, b = problem.structure_a, problem.structure_b, problem.alpha, problem.beta
    F = problem.trade_off * problem.feature_cost.reshape((-1,) + problem.feature_cost.shape[-2:])[instances]
    starts = [np.outer(a, b)] + ([np.diag(a)] if a.size == b.size and np.array_equal(a, b) else [])
    uniform, P = _uniform_square(a, b), F.shape[0]

    def linearized(lin, plans):
        if problem.trade_off < 1.0:
            term = (_gromov_at_columns(Ca, Cb, a, plans) if plans.ndim == 2
                    else _gromov_linearized(Ca, Cb, plans))
            lin = lin + (1.0 - problem.trade_off) * term
        # the cost is >= 0 but for cancellation's tiny negatives; the clamp keeps the pinned bits
        return np.maximum(lin, 0.0)

    plans = np.repeat(np.tile(np.arange(a.size), (len(starts), 1)) if uniform else starts, P, axis=0)
    active = np.arange(len(plans))
    for step in range(_FGW_MAX_ITERS):
        if not active.size:
            break
        current = plans[active]
        lin = linearized(F[active % P], current) if step else np.broadcast_to(
            linearized(F, np.array(starts)[:, None]), (len(starts),) + F.shape).reshape((-1,) + F.shape[1:])
        plans[active] = new = (_assignment_columns(lin) if uniform
                               else np.array([_emd_linprog(a, b, C) for C in lin]))
        moved = (np.where((new == current).all(axis=-1), 0.0, a[0]) if uniform
                 else np.max(np.abs(new - current), axis=(1, 2)))
        if uniform and not step:  # every permutation moves as far from the equal-entry product start
            moved[:P] = np.max(np.abs(np.diag(a) - starts[0]))
        active = active[~(moved < _FGW_TOL)]
    return plans.reshape((len(starts), P) + plans.shape[1:])


def fgw_distance(problem: FgwProblem, *, mirror=None) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point iteration on the linearized fused cost, over one instance or a stack.

    Each step solves linear OT on trade_off * feature_cost
    + (1 - trade_off) * tens(T) exactly: a linear assignment on uniform square
    instances, else emd's checked LP kernel, with no input check run again.
    A run stops when its plan moves less than _FGW_TOL or after
    _FGW_MAX_ITERS steps. Runs start from the product and
    (when square) identity couplings, on the problem and its transpose, and
    the first run of least fused objective wins; so identity and symmetry
    hold by construction. The first step is built once per start. A run
    whose plan repeats an earlier run's on an instance takes that run's
    objective there; one that repeats earlier runs on every instance is not
    scored. Each pass steps all its runs as one array, in a single instance's
    operation order, so every result is bitwise that instance's alone. Uniform square
    plans are column indices, made dense only to score a run and to be returned.

    mirror, a (P,) bool mask, sends only its True instances through the
    transposed pass (None: all). A False instance's mirrored runs take its
    forward plans, which the dedup scores as its forward runs. With one
    structure on both sides, the mirrored linearized cost at T^T is the
    transpose of the forward one at T, so the passes part only at tied
    assignment optima, and a mask that leaves out only tie-free instances
    keeps every bit.
    Returns (distances (P,), couplings (P, n, m)); an (n, m) problem is a
    stack of one.
    """
    a, b = problem.alpha, problem.beta
    uniform, P = _uniform_square(a, b), problem.feature_cost.size // (a.size * b.size)
    flagged = np.ones(P, dtype=bool) if mirror is None else np.asarray(mirror)
    if flagged.shape != (P,):
        raise DimensionMismatchError(f"mirror shape {flagged.shape} != ({P},)")
    if flagged.dtype != bool:
        raise InvalidSpecError(f"mirror must be a bool mask, got dtype {flagged.dtype}")
    # plans are columns on uniform square instances, where a permutation's transpose is its inverse
    flip = (lambda X: np.argsort(X, axis=-1)) if uniform else (lambda X: np.swapaxes(X, -1, -2))
    forward = _fgw_fixed_points(problem)
    mirrored = flip(forward).copy()
    mirrored[:, flagged] = _fgw_fixed_points(problem.transposed(), flagged)
    S, plans = len(forward), np.concatenate([forward, flip(mirrored)])
    # runs of the two passes match only as assignment plans, which score alike in either layout,
    # and of one mass: the mirrored pass's carry b[0], which may differ from a[0] within tolerance
    side = (np.arange(len(plans)) >= S)[:, None] & (flagged & (a[0] != b[0]) | (not uniform))
    mass = np.where(side, b[0], a[0])

    def run(r):  # dense plans; a mirrored run's as a transposed view of those its pass solved
        plan = (forward, mirrored)[r // S][r % S]
        plan = _permutation_coupling(plan, mass[r][:, None]) if uniform else plan
        return np.swapaxes(plan, -1, -2) if r >= S else plan

    # first[r, p]: the earliest run with run r's plan on instance p
    first = np.repeat(np.arange(len(plans))[:, None], P, axis=1)
    for r in range(len(plans)):
        for q in reversed(range(r)):
            first[r, (plans[r] == plans[q]).reshape(P, -1).all(axis=1) & (side[q] == side[r])] = q
    obj = np.empty((len(plans), P))
    for r in np.unique(first):
        tens = (_gromov_at_columns(problem.structure_a, problem.structure_b, a, plans[r])
                if uniform and np.all(mass[r] == a[0]) else None)
        obj[r] = _fused_objective(problem, run(r), tens)
    obj = obj[first, np.arange(P)]
    best = np.argmin(obj, axis=0), np.arange(P)
    return np.maximum(obj[best], 0.0), (_permutation_coupling(plans[best], mass[best][:, None])
                                        if uniform else plans[best])
