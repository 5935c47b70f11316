import itertools

import numpy as np
import pytest

from gcnfuse import ot
from gcnfuse import (
    DimensionMismatchError,
    FgwProblem,
    InvalidSpecError,
    NumericalError,
    SinkhornParams,
    SolverError,
    TransportPlan,
    emd,
    fgw_distance,
    identity_plan,
    sinkhorn_unbalanced,
    uniform_weights,
)
import oracles
from oracles import brute_force_ot, dense_fgw_distance


def random_instance(rng, n, m=None):
    m = n if m is None else m
    return uniform_weights(n), uniform_weights(m), rng.random((n, m))


def record_objectives(monkeypatch) -> list[float]:
    """Record P per iteration of Sinkhorn solves: the start, then each step taken.

    Clear the list between solves. Both step kinds take the current P as
    argument p_at and return
    (f, g, T, P) when they are taken, None when they are not.
    """
    objectives = []

    def recorded(step, p_at):
        def wrapper(*args):
            if not objectives:
                objectives.append(args[p_at])
            result = step(*args)
            if result is not None:
                objectives.append(result[3])
            return result
        return wrapper

    monkeypatch.setattr(ot, "_newton_step", recorded(ot._newton_step, 4))
    monkeypatch.setattr(ot, "_sweep_step", recorded(ot._sweep_step, 2))
    return objectives


def random_structure(rng, n):
    S = rng.random((n, n))
    S = S + S.T
    np.fill_diagonal(S, 0.0)
    return S


class TestTransportPlan:
    def test_marginals(self):
        plan = TransportPlan(coupling=np.array([[0.5, 0.0], [0.25, 0.25]]), objective=0.0)
        assert np.allclose(plan.coupling.sum(axis=1), [0.5, 0.5])
        assert np.allclose(plan.coupling.sum(axis=0), [0.75, 0.25])

    def test_as_permutation(self):
        perm_plan = TransportPlan(coupling=np.array([[0.0, 0.5], [0.5, 0.0]]), objective=0.0)
        assert np.array_equal(perm_plan.as_permutation(), [1, 0])
        soft = TransportPlan(coupling=np.full((2, 2), 0.25), objective=0.0)
        assert soft.as_permutation() is None
        # three nonzeros in distinct columns, but row 0 is empty and row 1 split
        degenerate = TransportPlan(
            coupling=np.array([[0.0, 0.0, 0.0], [0.0, 0.2, 0.1], [0.0, 0.0, 0.3]]), objective=0.0)
        assert degenerate.as_permutation() is None

    def test_negative_entries_rejected(self):
        with pytest.raises(Exception):
            TransportPlan(coupling=np.array([[-0.1, 0.6], [0.5, 0.0]]), objective=0.0)

    @pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
    def test_a_callers_coupling_is_copied_and_checked(self, writeable):
        def given(values):
            T = np.array(values, dtype=np.float64)
            T.setflags(write=writeable)
            return T

        T = given([[0.0, 0.5], [0.5, 0.0]])
        plan = TransportPlan(coupling=T, objective=0.0)
        assert not np.shares_memory(plan.coupling, T) and np.array_equal(plan.coupling, T)
        assert not plan.coupling.flags.writeable
        for bad in ([[-0.1, 0.6], [0.5, 0.0]], [[np.nan, 0.5], [0.5, 0.0]]):
            with pytest.raises(NumericalError, match="finite and >= 0"):
                TransportPlan(coupling=given(bad), objective=0.0)

    def test_marginal_error_needs_one_weight_per_row_and_column(self):
        plan = TransportPlan(coupling=np.array([[0.5, 0.0], [0.25, 0.25]]), objective=0.0)
        assert plan.marginal_error([0.5, 0.5], (0.5, 0.5)) == 0.25
        with pytest.raises(DimensionMismatchError, match=r"coupling shape \(2, 2\) != \(3, 2\)"):
            plan.marginal_error([0.25, 0.25, 0.5], [0.5, 0.5])
        with pytest.raises(DimensionMismatchError):
            plan.marginal_error([0.5, 0.5], [1.0])

    def test_identity_plan(self):
        plan = identity_plan(uniform_weights(3))
        assert np.allclose(plan.coupling, np.eye(3) / 3)
        assert plan.objective == 0.0


class TestEmd:
    def test_zero_cost_matching(self):
        plan = emd([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(plan.coupling, [[0.5, 0.0], [0.0, 0.5]])
        assert plan.objective == 0.0

    def test_all_zero_cost(self):
        a = uniform_weights(3)
        b = np.array([0.6, 0.3, 0.1])
        plan = emd(a, b, np.zeros((3, 3)))
        assert plan.objective == 0.0
        assert plan.marginal_error(a, b) <= 1e-9

    def test_mod7_instance_matches_exhaustive_minimum(self):
        n = 5
        C = np.fromfunction(lambda i, j: (i * j) % 7, (n, n))
        a = uniform_weights(n)
        plan = emd(a, a, C)
        oracle = brute_force_ot(a, a, C)
        assert plan.objective == oracle.objective

    def test_feasibility_on_rectangular_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, m = rng.integers(2, 7, size=2)
            a = rng.random(n) + 0.1
            a /= a.sum()
            b = rng.random(m) + 0.1
            b /= b.sum()
            C = rng.random((n, m))
            plan = emd(a, b, C)
            assert plan.marginal_error(a, b) <= 1e-9
            assert plan.objective >= 0.0

    def test_unbalanced_masses_rejected(self):
        with pytest.raises(InvalidSpecError, match="masses"):
            emd([0.5, 0.5], [0.6, 0.6], np.zeros((2, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            emd([0.5, 0.5], [0.5, 0.5], np.zeros((3, 2)))

    def test_negative_cost_rejected(self):
        with pytest.raises(InvalidSpecError):
            emd([1.0], [1.0], [[-1.0]])

    def test_cost_scaling_equivariance(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, C = random_instance(rng, 5)
            scale = float(rng.uniform(0.5, 10.0))
            base = emd(a, b, C)
            scaled = emd(a, b, scale * C)
            assert scaled.objective == pytest.approx(scale * base.objective, rel=1e-12)
            # the scaled plan is optimal for the unscaled cost too
            assert float(np.sum(scaled.coupling * C)) == pytest.approx(
                base.objective, abs=1e-12)

    def test_uniform_square_returns_scaled_permutation(self):
        rng = np.random.default_rng(2)
        a, b, C = random_instance(rng, 6)
        plan = emd(a, b, C)
        assert plan.as_permutation() is not None
        assert np.all(np.isin(plan.coupling, [0.0, 1.0 / 6.0]))


class TestBruteForce:
    def test_single_point(self):
        plan = brute_force_ot([1.0], [1.0], [[3.0]])
        assert np.array_equal(plan.coupling, [[1.0]])
        assert plan.objective == 3.0

    def test_minimality_over_sampled_permutations(self):
        rng = np.random.default_rng(3)
        a, b, C = random_instance(rng, 6)
        best = brute_force_ot(a, b, C)
        for _ in range(50):
            perm = rng.permutation(6)
            T = np.zeros((6, 6))
            T[np.arange(6), perm] = a
            assert best.objective <= float(np.sum(T * C)) + 1e-15

    def test_matches_emd_exactly_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, C = random_instance(rng, 6)
            assert emd(a, b, C).objective == brute_force_ot(a, b, C).objective


class TestSinkhorn:
    def test_zero_cost_recovers_product_measure(self):
        a = uniform_weights(4)
        b = np.array([0.4, 0.3, 0.2, 0.1])
        plan = sinkhorn_unbalanced(a, b, np.zeros((4, 4)),
                                   SinkhornParams(epsilon=0.05))
        assert np.max(np.abs(plan.coupling - np.outer(a, b))) < 1e-6

    def test_close_to_emd_at_small_epsilon_large_rho(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a, b, C = random_instance(rng, 6)
            exact = emd(a, b, C)
            params = SinkhornParams(epsilon=1e-3 * float(C.mean()),
                                    rho_alpha=1e3, rho_beta=1e3)
            soft = sinkhorn_unbalanced(a, b, C, params)
            assert soft.objective == pytest.approx(exact.objective, rel=0.01)

    def test_tiny_rho_stays_finite(self):
        rng = np.random.default_rng(6)
        a, b, C = random_instance(rng, 5)
        plan = sinkhorn_unbalanced(a, b, C,
                                   SinkhornParams(epsilon=0.05, rho_alpha=1e-6,
                                                  rho_beta=1e-6))
        assert np.all(np.isfinite(plan.coupling))
        assert np.all(plan.coupling >= 0)

    def test_objective_history_non_increasing(self, monkeypatch):
        # exact block minimizations; holds whenever exp(-C/eps) never underflows
        rng = np.random.default_rng(7)
        a, b, C = random_instance(rng, 6)
        params = SinkhornParams(epsilon=0.05)
        history = record_objectives(monkeypatch)
        plan = sinkhorn_unbalanced(a, b, C, params)
        hist = np.array(history)
        assert len(hist) > 1
        assert np.all(np.diff(hist) <= 1e-10)
        assert history[-1] == pytest.approx(
            ot._unbalanced_objective(plan.coupling, a, b, C, params), rel=1e-9)

    def test_nonconvergence_reports_flag(self, monkeypatch):
        rng = np.random.default_rng(8)
        a, b, C = random_instance(rng, 5)
        monkeypatch.setattr(ot, "_SINKHORN_MAX_ITERS", 3)
        monkeypatch.setattr(ot, "_SINKHORN_TOL", 1e-15)
        plan = sinkhorn_unbalanced(a, b, C, SinkhornParams(epsilon=0.5))
        assert not plan.converged
        assert plan.iterations == 3

    def test_convergence_reports_flag(self):
        rng = np.random.default_rng(9)
        a, b, C = random_instance(rng, 5)
        plan = sinkhorn_unbalanced(a, b, C, SinkhornParams(epsilon=0.1))
        assert plan.converged
        assert plan.iterations >= 1

    def test_survives_small_epsilon(self):
        # rho = 1 relaxes the marginals, so the transport term alone is not
        # comparable to EMD here; instead the returned plan must score no
        # worse than the EMD plan on the full unbalanced functional
        rng = np.random.default_rng(10)
        a, b, C = random_instance(rng, 6)
        params = SinkhornParams(epsilon=5e-5)
        plan = sinkhorn_unbalanced(a, b, C, params)
        assert np.all(np.isfinite(plan.coupling)) and np.all(plan.coupling >= 0)
        competitor = emd(a, b, C).coupling
        assert (ot._unbalanced_objective(plan.coupling, a, b, C, params)
                <= ot._unbalanced_objective(competitor, a, b, C, params) + 1e-9)

    def test_zero_weights_rejected(self):
        with pytest.raises(InvalidSpecError, match="positive"):
            sinkhorn_unbalanced([0.0, 1.0], [0.5, 0.5], np.zeros((2, 2)),
                                SinkhornParams(epsilon=0.1))

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidSpecError):
            SinkhornParams(epsilon=0.0)
        with pytest.raises(InvalidSpecError):
            SinkhornParams(epsilon=0.1, rho_alpha=-1.0)
        for bad in (np.nan, np.inf):
            for field in ("epsilon", "rho_alpha", "rho_beta"):
                with pytest.raises(InvalidSpecError):
                    SinkhornParams(**{"epsilon": 0.1, field: bad})

    def test_converges_quickly_at_large_rho(self):
        # acceptance criterion 2's regime: near-balanced, eps = 1e-3 mean C
        rng = np.random.default_rng(19)
        for _ in range(50):
            n, m = (int(k) for k in rng.integers(2, 9, size=2))
            C = rng.random((n, m)) + 0.05
            params = SinkhornParams(epsilon=1e-3 * float(C.mean()),
                                    rho_alpha=1e3, rho_beta=1e3)
            plan = sinkhorn_unbalanced(uniform_weights(n), uniform_weights(m), C, params)
            assert plan.converged
            assert plan.iterations < 100
            assert plan.gap <= ot._SINKHORN_TOL

    @pytest.mark.parametrize("epsilon", [5e-4, 5e-5])
    def test_converges_at_fusion_scale_costs(self, epsilon, monkeypatch):
        # the fusion layers' regime: costs in [10, 1000) against rho = 1, so the
        # optimal plan keeps only about exp(-C/2) of its mass
        a = uniform_weights(16)
        iterations = []
        history = record_objectives(monkeypatch)
        for seed in range(10):
            C = np.random.default_rng(seed).uniform(10.0, 1000.0, size=(16, 16))
            params = SinkhornParams(epsilon=epsilon)
            history.clear()
            plan = sinkhorn_unbalanced(a, a, C, params)
            assert plan.converged
            assert plan.iterations < 200
            competitor = emd(a, a, C).coupling
            assert (ot._unbalanced_objective(plan.coupling, a, a, C, params)
                    <= ot._unbalanced_objective(competitor, a, a, C, params))
            assert np.all(np.diff(history) <= 1e-12)
            iterations.append(plan.iterations)
        # some instances need Newton steps, so the history checks are not vacuous
        assert max(iterations) >= 5

    @pytest.mark.parametrize("seed", [520, 2515])
    def test_sweep_fallback_closes_the_gap(self, seed, monkeypatch):
        # tiny epsilon against large rho: here a Newton step stops passing the
        # line search before the gap is certified, and only a Sinkhorn sweep
        # closes it (without the sweep these solves end unconverged)
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        C = rng.random((n, m))
        epsilon = 10 ** rng.uniform(-6, -4)
        rho = 10 ** rng.uniform(2, 4)
        params = SinkhornParams(epsilon=epsilon, rho_alpha=rho, rho_beta=rho)
        sweep, steps = ot._sweep_step, []

        def recorded(*args):
            steps.append(sweep(*args))
            return steps[-1]

        monkeypatch.setattr(ot, "_sweep_step", recorded)
        plan = sinkhorn_unbalanced(uniform_weights(n), uniform_weights(m), C, params)
        assert plan.converged
        assert plan.gap <= ot._SINKHORN_TOL
        assert any(step is not None for step in steps)


class TestFgw:
    def _problem(self, rng, n, m=None, trade_off=0.5, **kw):
        m = n if m is None else m
        return FgwProblem(
            structure_a=random_structure(rng, n),
            structure_b=random_structure(rng, m),
            feature_cost=rng.random((n, m)),
            trade_off=trade_off,
            alpha=uniform_weights(n), beta=uniform_weights(m), **kw,
        )

    def test_identity_distance_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            S = random_structure(rng, n)
            feats = rng.random(n)
            F = (feats[:, None] - feats[None, :]) ** 2
            problem = FgwProblem(structure_a=S, structure_b=S, feature_cost=F,
                                 trade_off=0.5,
                                 alpha=uniform_weights(n), beta=uniform_weights(n))
            (d,), (T,) = fgw_distance(problem)
            assert d <= 1e-8
            plan = TransportPlan(coupling=T, objective=d)
            assert plan.marginal_error(problem.alpha, problem.beta) <= 1e-9

    def test_trade_off_one_reduces_to_emd(self):
        rng = np.random.default_rng(12)
        problem = self._problem(rng, 5, trade_off=1.0)
        (d,), _ = fgw_distance(problem)
        exact = emd(problem.alpha, problem.beta, problem.feature_cost)
        assert d == pytest.approx(exact.objective, abs=1e-12)

    def test_three_vertex_path_against_permutation_bound(self):
        # path 0-1-2 with values (0,1,2) on one side, (2,1,0) on the other
        S = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        va = np.array([0.0, 1.0, 2.0])
        vb = np.array([2.0, 1.0, 0.0])
        F = (va[:, None] - vb[None, :]) ** 2
        problem = FgwProblem(structure_a=S, structure_b=S, feature_cost=F,
                             trade_off=0.5,
                             alpha=uniform_weights(3), beta=uniform_weights(3))
        (d,), _ = fgw_distance(problem)
        bound = min(
            ot._fused_objective(problem, np.eye(3)[list(p)] / 3.0)
            for p in itertools.permutations(range(3))
        )
        assert 0.0 <= d <= bound + 1e-8

    def test_mirrored_pass_finds_the_best_permutation(self):
        # a 4-cycle with hop distances on both sides: every run of the problem
        # itself stops at 0.5, and only the runs on its transpose reach the
        # optimum over all 24 permutation couplings
        S = np.array([[0.0, 1.0, 2.0, 1.0], [1.0, 0.0, 1.0, 2.0],
                      [2.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0]])
        va = np.array([2.0, 2.0, 0.0, 0.0])
        vb = np.array([1.0, 2.0, 2.0, 1.0])
        problem = FgwProblem(structure_a=S, structure_b=S,
                             feature_cost=(va[:, None] - vb[None, :]) ** 2, trade_off=0.5,
                             alpha=uniform_weights(4), beta=uniform_weights(4))
        best = min(ot._fused_objective(problem, np.eye(4)[list(p)] / 4.0)
                   for p in itertools.permutations(range(4)))
        # the uniform square kernel keeps each plan as its columns
        forward = ot._permutation_coupling(ot._fgw_fixed_points(problem), problem.alpha)
        assert best == 0.25
        assert min(ot._fused_objective(problem, T[0]) for T in forward) == 0.5
        assert fgw_distance(problem)[0][0] == best

    def test_mirrored_pass_pays_without_repeated_values(self):
        # a 6-vertex path whose feature cost repeats no value in any row or
        # column: the forward runs still stop at 1.0 or above, and only the
        # mirrored runs reach 11/12, so the mirrored pass cannot be skipped on
        # every shared-structure instance free of repeats
        S = np.abs(np.subtract.outer(np.arange(6), np.arange(6))).astype(float)
        F = np.array([np.roll([4.0, 1.0, 0.0, 5.0, 2.0, 3.0], i) for i in range(6)])
        problem = FgwProblem(structure_a=S, structure_b=S, feature_cost=F, trade_off=0.25,
                             alpha=uniform_weights(6), beta=uniform_weights(6))
        assert all(len(set(line)) == 6 for line in (*F, *F.T))
        forward = ot._permutation_coupling(ot._fgw_fixed_points(problem), problem.alpha)
        assert min(ot._fused_objective(problem, T[0]) for T in forward) >= 1.0
        (d,), _ = fgw_distance(problem)
        (d_mirror,), _ = fgw_distance(problem.transposed())
        assert d == d_mirror <= 11 / 12 + 1e-12
        assert fgw_distance(problem, mirror=np.array([False]))[0][0] >= 1.0

    def test_stack_with_repeated_plans_equals_its_slices(self):
        # one instance twice, then a self-instance: with a zero-diagonal feature
        # cost, all four runs (two starts, two directions) end at one plan
        S = np.array([[0.0, 1.0, 2.0, 1.0], [1.0, 0.0, 1.0, 2.0],
                      [2.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0]])
        va = np.array([0.0, 1.0, 3.0, 6.0])
        vb = np.array([2.0, 0.0, 5.0, 1.0])
        other, own = (va[:, None] - vb[None, :]) ** 2, (va[:, None] - va[None, :]) ** 2

        def problem(feature_cost):
            return FgwProblem(structure_a=S, structure_b=S, feature_cost=feature_cost,
                              trade_off=0.5, alpha=uniform_weights(4), beta=uniform_weights(4))

        stacked = problem(np.array([other, other, own]))
        runs = np.concatenate([
            ot._permutation_coupling(ot._fgw_fixed_points(stacked), stacked.alpha),
            ot._permutation_coupling(ot._fgw_fixed_points(stacked.transposed()),
                                     stacked.beta).swapaxes(-1, -2)])
        assert len({T.tobytes() for T in runs[:, 2]}) == 1
        distances, couplings = fgw_distance(stacked)
        for p, feature_cost in enumerate((other, other, own)):
            (d,), (T,) = fgw_distance(problem(feature_cost))
            assert distances[p].tobytes() == d.tobytes()
            assert couplings[p].tobytes() == T.tobytes()
        assert distances[2] == 0.0 and np.array_equal(couplings[2], np.eye(4) / 4)

    FOUR_CYCLE = np.array([[0.0, 1.0, 2.0, 1.0], [1.0, 0.0, 1.0, 2.0],
                           [2.0, 1.0, 0.0, 1.0], [1.0, 2.0, 1.0, 0.0]])
    SIX_PATH = np.abs(np.subtract.outer(np.arange(6), np.arange(6))).astype(float)

    @staticmethod
    def _dense_kernel_case(name):
        """One named uniform square FGW stack, posed as the FGW cost poses it."""
        va, vb = np.array([2.0, 2.0, 0.0, 0.0]), np.array([1.0, 2.0, 2.0, 1.0])
        cycle = (va[:, None] - vb[None, :]) ** 2
        path = np.array([np.roll([4.0, 1.0, 0.0, 5.0, 2.0, 3.0], i) for i in range(6)])
        S, trade_off, a, b = TestFgw.FOUR_CYCLE, 0.5, uniform_weights(4), uniform_weights(4)
        if name == "four-cycle":
            F = cycle[None]
        elif name == "six-path":
            S, F, trade_off, a, b = TestFgw.SIX_PATH, path[None], 0.25, *[uniform_weights(6)] * 2
        elif name == "repeated":
            # the cycle twice, then a self-instance whose runs all end at one plan
            F = np.array([cycle, cycle, (va[:, None] - va[None, :]) ** 2])
        elif name == "tiny-mass":
            # every plan moves less than _FGW_TOL, so each run stops after its first step
            F, a, b = cycle[None], np.full(4, 1e-8), np.full(4, 1e-8)
        elif name == "one-vertex":
            # the product start is already the identity
            S, F, a, b = np.zeros((1, 1)), np.array([[[0.0]], [[2.5]]]), np.ones(1), np.ones(1)
        else:
            # masses apart within MARGINAL_TOL: only the product start, and b's mass on mirrored plans
            F, b = cycle[None], np.full(4, 0.25 + 1e-12)
        return FgwProblem(structure_a=S, structure_b=S, feature_cost=F, trade_off=trade_off,
                          alpha=a, beta=b)

    @pytest.mark.parametrize("mirror", ["none", "false", "mixed"])
    @pytest.mark.parametrize("name", ["four-cycle", "six-path", "repeated", "tiny-mass",
                                      "one-vertex", "near-uniform"])
    def test_column_kernel_equals_the_dense_kernel(self, name, mirror, monkeypatch):
        problem = self._dense_kernel_case(name)
        P = len(problem.feature_cost)
        mask = {"none": None, "false": np.zeros(P, dtype=bool),
                "mixed": np.arange(P) % 2 == 0}[mirror]
        calls = {ot: 0, oracles: 0}

        def counted(module):
            solve = module.linear_sum_assignment

            def assignment(cost):
                calls[module] += 1
                return solve(cost)
            return assignment

        for module in calls:
            monkeypatch.setattr(module, "linear_sum_assignment", counted(module))
        distances, couplings = fgw_distance(problem, mirror=mask)
        want_distances, want_couplings = dense_fgw_distance(problem, mask)
        # the same steps: a run stops on its columns exactly when its dense plan stops moving
        assert calls[ot] == calls[oracles] > 0
        assert distances.tobytes() == want_distances.tobytes()
        assert couplings.dtype == want_couplings.dtype
        assert couplings.shape == want_couplings.shape
        assert couplings.tobytes() == want_couplings.tobytes()
        if name == "near-uniform" and mirror != "false":
            # the optimum comes only from the mirrored pass, whose plan carries b's mass
            assert set(np.unique(couplings)) == {0.0, problem.beta[0]} != {0.0, problem.alpha[0]}

    @pytest.mark.parametrize("mirror, error", [
        ([True, False], DimensionMismatchError),
        ([True] * 5, DimensionMismatchError),
        (np.ones((4, 1), dtype=bool), DimensionMismatchError),
        (np.ones((2, 2), dtype=bool), DimensionMismatchError),
        (True, DimensionMismatchError),
        (1.5, DimensionMismatchError),
        ([0, 1, 2, 3], InvalidSpecError),
        ([0.0, 1.5, 0.0, 1.0], InvalidSpecError),
        (["yes", "no", "no", "no"], InvalidSpecError),
    ])
    def test_mirror_mask_must_be_one_bool_per_instance(self, mirror, error):
        rng = np.random.default_rng(17)
        S = random_structure(rng, 3)
        problem = FgwProblem(structure_a=S, structure_b=S, feature_cost=rng.random((4, 3, 3)),
                             trade_off=0.5, alpha=uniform_weights(3), beta=uniform_weights(3))
        with pytest.raises(error, match="mirror"):
            fgw_distance(problem, mirror=mirror)

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            problem = self._problem(rng, int(rng.integers(2, 6)))
            (d_ab,), _ = fgw_distance(problem)
            (d_ba,), _ = fgw_distance(problem.transposed())
            assert abs(d_ab - d_ba) <= 1e-8

    def test_rectangular_instances_solve(self):
        rng = np.random.default_rng(14)
        problem = self._problem(rng, 4, m=6)
        (d,), (T,) = fgw_distance(problem)
        assert d >= 0.0
        assert T.shape == (4, 6)
        plan = TransportPlan(coupling=T, objective=d)
        assert plan.marginal_error(problem.alpha, problem.beta) <= 1e-9

    def _general(self, rng):
        """Two instances off the assignment route: rectangular, and square with unequal weights."""
        a = rng.random(5) + 0.1
        return [FgwProblem(structure_a=random_structure(rng, 4), structure_b=random_structure(rng, 6),
                           feature_cost=rng.random((2, 4, 6)), trade_off=0.5, alpha=uniform_weights(4),
                           beta=uniform_weights(6)),
                FgwProblem(structure_a=random_structure(rng, 5), structure_b=random_structure(rng, 5),
                           feature_cost=rng.random((5, 5)), trade_off=0.5, alpha=a / a.sum(),
                           beta=uniform_weights(5))]

    def test_general_steps_call_the_lp_kernel_not_emd(self, monkeypatch):
        # the oracle solves each step with the public emd, so it is an independent reference
        problems = [p for problem in self._general(np.random.default_rng(22))
                    for p in (problem, problem.transposed())]
        want = [dense_fgw_distance(p) for p in problems]
        calls, kernel, solve = [], ot._emd_linprog, ot.emd
        monkeypatch.setattr(ot, "emd", lambda *args: calls.append("emd") or solve(*args))
        monkeypatch.setattr(ot, "_emd_linprog", lambda *args: calls.append("lp") or kernel(*args))
        for problem, (d_want, T_want) in zip(problems, want):
            d, T = fgw_distance(problem)
            assert d.tobytes() == d_want.tobytes() and T.tobytes() == T_want.tobytes()
        assert "lp" in calls and "emd" not in calls

    def test_lp_kernel_rejects_a_plan_off_its_marginals(self, monkeypatch):
        solve = ot.linprog

        def shifted(*args, **kwargs):
            res = solve(*args, **kwargs)
            res.x = res.x + np.eye(1, res.x.size).ravel() * 10 * ot.MARGINAL_TOL
            return res

        problem = self._general(np.random.default_rng(23))[0]
        monkeypatch.setattr(ot, "linprog", shifted)
        with pytest.raises(SolverError, match="violates marginals by 1e-08"):
            emd(problem.alpha, problem.beta, problem.feature_cost[0])
        with pytest.raises(SolverError, match="violates marginals by 1e-08"):
            fgw_distance(problem)

    @pytest.mark.parametrize("name", ["structure_a", "structure_b", "feature_cost", "alpha", "beta"])
    def test_a_callers_arrays_are_copied_and_frozen(self, name):
        rng = np.random.default_rng(18)
        given = dict(structure_a=random_structure(rng, 3), structure_b=random_structure(rng, 3),
                     feature_cost=rng.random((2, 3, 3)), alpha=uniform_weights(3), beta=uniform_weights(3))
        problem = FgwProblem(trade_off=0.5, **given)
        kept = getattr(problem, name)
        assert not kept.flags.writeable and not np.shares_memory(kept, given[name])
        before = kept.copy()
        given[name].flat[0] = np.nan  # a later write to the caller's array does not reach the problem
        assert np.array_equal(kept, before)
        distances, _ = fgw_distance(problem)
        assert np.all(np.isfinite(distances))
        swap = {"structure_a": "structure_b", "structure_b": "structure_a", "alpha": "beta", "beta": "alpha"}
        mirrored = getattr(problem.transposed(), swap.get(name, name))
        assert not mirrored.flags.writeable and np.shares_memory(mirrored, kept)

    def test_structure_validation(self):
        rng = np.random.default_rng(16)
        S = random_structure(rng, 3)
        asym = S.copy()
        asym[0, 1] += 1.0
        with pytest.raises(InvalidSpecError, match="symmetric"):
            FgwProblem(structure_a=asym, structure_b=S, feature_cost=np.zeros((3, 3)),
                       trade_off=0.5, alpha=uniform_weights(3), beta=uniform_weights(3))
        dirty_diag = S.copy()
        dirty_diag[1, 1] = 2.0
        with pytest.raises(InvalidSpecError, match="diagonal"):
            FgwProblem(structure_a=dirty_diag, structure_b=S, feature_cost=np.zeros((3, 3)),
                       trade_off=0.5, alpha=uniform_weights(3), beta=uniform_weights(3))
        with pytest.raises(InvalidSpecError, match="trade_off"):
            FgwProblem(structure_a=S, structure_b=S, feature_cost=np.zeros((3, 3)),
                       trade_off=1.5, alpha=uniform_weights(3), beta=uniform_weights(3))
        # the kernel's assignment steps skip emd, so the masses are checked here
        with pytest.raises(InvalidSpecError, match="masses"):
            FgwProblem(structure_a=S, structure_b=S, feature_cost=np.zeros((3, 3)),
                       trade_off=0.5, alpha=uniform_weights(3), beta=2 * uniform_weights(3))
        for stack in (np.zeros((0, 3, 3)), np.zeros((2, 2, 3, 3))):
            with pytest.raises(DimensionMismatchError):
                FgwProblem(structure_a=S, structure_b=S, feature_cost=stack,
                           trade_off=0.5, alpha=uniform_weights(3), beta=uniform_weights(3))
