import sys
import threading

import numpy as np
import pytest
import scipy.linalg as la
from conftest import (
    orbit_pairing,
    random_placement_for,
    random_skew,
    random_symmetric_hurwitz,
    random_unit,
    scalar_plant,
)
from oracles import two_loop_direction

from lqg_codesign import (
    AllStartsFailed,
    DegenerateStep,
    FlowOptions,
    NonConvergence,
    OrbitGradient,
    Placement,
    Plant,
    classify_stability,
    cost,
    cost_report,
    equilibria,
    flow,
    flow_step,
    gradient,
    hessian_matrix,
    is_equilibrium,
    multi_start,
    pbh_check,
    phi,
    random_placement,
    riccati,
    run_flow,
)
from lqg_codesign.flow import (
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_NO_DECREASE,
    Direction,
    FlowIterate,
    FlowTrace,
    pbh_passing_placement,
)
from lqg_codesign.verify import check_gradient_vs_fd


_U = np.finfo(float).eps


def _zero_gradient(n: int) -> OrbitGradient:
    return OrbitGradient(r_b=np.zeros(n), r_c=np.zeros(n), norm=0.0, scale=1.0)


class TestGradient:
    def test_scalar_dimension_always_zero(self):
        plant, placement = scalar_plant(3.0, 3.0)
        grad = gradient(cost_report(plant, placement))
        assert grad.norm == 0.0
        assert np.all(grad.g_b == 0.0) and np.all(grad.g_c == 0.0)

    def test_top_eigenvector_pair_is_critical_at_zero_gain(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.0, 0.0)
        e1 = np.array([1.0, 0.0])
        grad = gradient(cost_report(plant, Placement(e1, e1)))
        assert grad.norm < 1e-14

    @pytest.mark.parametrize("seed", range(4))
    def test_tangency(self, seed):
        rng = np.random.default_rng(900 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 4), 0.3, 0.8)
        placement = random_placement_for(rng, 4)
        grad = gradient(cost_report(plant, placement))
        assert abs(grad.g_b @ placement.b_unit) < 1e-12
        assert abs(grad.g_c @ placement.c_unit) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matrix_sphere_equivalence(self, seed):
        # [B, [B, S]] == bdot b^T + b bdot^T with bdot = (I - B) S b
        rng = np.random.default_rng(950 + seed)
        n = 4
        S = rng.standard_normal((n, n))
        S = 0.5 * (S + S.T)
        b = random_unit(rng, n)
        B = np.outer(b, b)
        double_bracket = B @ (B @ S - S @ B) - (B @ S - S @ B) @ B
        bdot = S @ b - (b @ S @ b) * b
        lifted = np.outer(bdot, b) + np.outer(b, bdot)
        assert np.linalg.norm(double_bracket - lifted, "fro") < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_negative_gradient_is_descent(self, seed):
        rng = np.random.default_rng(1000 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.7)
        placement = random_placement_for(rng, 3)
        report = cost_report(plant, placement)
        grad = gradient(report)
        if grad.norm < 1e-12:
            pytest.skip("sampled a critical point")
        b, c = placement.b_unit, placement.c_unit
        d_b, d_c = -grad.g_b, -grad.g_c
        omega_b = np.outer(b, d_b) - np.outer(d_b, b)
        omega_c = np.outer(c, d_c) - np.outer(d_c, c)
        assert orbit_pairing(report, omega_b, omega_c) < 0.0

    def test_norm_scaling_between_fields(self):
        rng = np.random.default_rng(77)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.2, 0.4)
        placement = random_placement_for(rng, 3)
        plain = gradient(cost_report(plant, placement))
        assert plain.scale == pytest.approx(0.08)


class TestFlowStep:
    def test_zero_gradient_fixed_point(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.5, 0.5)
        placement = Placement(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        stepped = flow_step(plant, placement, _zero_gradient(2), 0.5)
        assert np.array_equal(stepped.b_unit, placement.b_unit)
        assert np.array_equal(stepped.c_unit, placement.c_unit)

    def test_normalization_arithmetic(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.5, 0.5)
        placement = Placement(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        grad = OrbitGradient(
            r_b=np.array([0.0, -0.1]),
            r_c=np.zeros(2),
            norm=1.0,
            scale=1.0,
        )
        stepped = flow_step(plant, placement, grad, 1.0)
        expected = np.array([1.0, -0.1]) / np.sqrt(1.01)
        assert np.allclose(stepped.b_unit, expected, atol=1e-15)
        assert np.allclose(stepped.c_unit, placement.c_unit, atol=1e-15)

    def test_degenerate_step_raises(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.5, 0.5)
        placement = Placement(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        grad = OrbitGradient(
            r_b=np.array([-1.0, 0.0]),
            r_c=np.zeros(2),
            norm=1.0,
            scale=1.0,
        )
        with pytest.raises(DegenerateStep):
            flow_step(plant, placement, grad, 1.0)
        with pytest.raises(ValueError):
            flow_step(plant, placement, grad, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_first_order_descent_identity(self, seed):
        # (phi(step) - phi(0)) / step -> -norm^2 for the plain field. Steps
        # sized so the cost decrease stays far above float resolution.
        rng = np.random.default_rng(1100 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 1.2, 1.5)
        placement = random_placement_for(rng, 3)
        grad = gradient(cost_report(plant, placement))
        base = phi(plant, placement)
        slopes = []
        for step in (2e-4, 1e-4):
            moved = phi(plant, flow_step(plant, placement, grad, step))
            slopes.append((moved - base) / step)
        extrapolated = 2.0 * slopes[1] - slopes[0]
        assert abs(extrapolated + grad.norm**2) / grad.norm**2 < 1e-4


class TestRunFlow:
    def test_converges_to_top_eigenvector_pair(self):
        plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.01, 0.01)
        rng = np.random.default_rng(3)
        opts = FlowOptions(grad_tol=1e-12, max_iters=20_000)
        trace = run_flow(plant, random_placement_for(rng, 3), opts)
        assert trace.status == STATUS_CONVERGED
        e1 = np.array([1.0, 0.0, 0.0])
        assert abs(trace.final.b_unit @ e1) > 1.0 - 1e-6
        assert abs(trace.final.c_unit @ e1) > 1.0 - 1e-6

    def test_equilibrium_start_converges_immediately(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.01, 0.01)
        e1 = np.array([1.0, 0.0])
        trace = run_flow(plant, Placement(e1, e1), FlowOptions(grad_tol=1e-9))
        assert trace.status == STATUS_CONVERGED
        assert len(trace.iterates) <= 2  # 0 or 1 accepted steps

    @pytest.mark.parametrize("seed", range(20))
    def test_objective_strictly_decreases(self, seed):
        rng = np.random.default_rng(1200 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.4, 0.6)
        opts = FlowOptions(grad_tol=1e-7, max_iters=5_000)
        trace = run_flow(plant, random_placement_for(rng, 3), opts)
        assert trace.status == STATUS_CONVERGED
        phis = trace.phis
        assert np.all(np.diff(phis) < 0.0)

    def test_monotone_descent_invariant(self):
        plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.01, 0.01)
        rng = np.random.default_rng(8)
        opts = FlowOptions(grad_tol=1e-12, max_iters=20_000)
        trace = run_flow(plant, random_placement_for(rng, 3), opts)
        assert np.all(np.diff(trace.phis) <= 1e-12)
        for it in trace.iterates:
            assert abs(it.placement.b_unit @ it.placement.b_unit - 1.0) < 1e-12

    def test_pbh_margins_stay_positive_along_flow(self):
        # Laplacian dynamics: the zero mode must stay excited at every iterate
        W = np.zeros((4, 4))
        for i, j, w in [(0, 1, 1.0), (1, 2, 0.7), (2, 3, 1.3), (0, 2, 0.4)]:
            W[i, j] = W[j, i] = w
        A = -(np.diag(W.sum(axis=1)) - W)
        plant = Plant(A, 0.05, 0.05)
        rng = np.random.default_rng(12)
        opts = FlowOptions(grad_tol=1e-6, max_iters=3_000)
        trace = run_flow(plant, random_placement_for(rng, 4), opts)
        assert trace.status == STATUS_CONVERGED
        for it in trace.iterates:
            rb = pbh_check(plant.A, it.placement.b_unit, "stabilizability")
            rc = pbh_check(plant.A, it.placement.c_unit, "detectability")
            assert rb.ok and rc.ok
            assert rb.min_margin > 0.0 and rc.min_margin > 0.0

    def test_solver_failure_recorded_not_raised(self):
        # every placement fails PBH for a repeated unstable eigenvalue
        plant = Plant(np.eye(2), 1.0, 1.0)
        init = Placement(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        trace = run_flow(plant, init, FlowOptions())
        assert trace.status == "solver_failure"
        assert "PBH" in trace.error
        assert trace.final is None and trace.report is None


class TestStopRule:
    def test_huge_gradient_start_descends(self):
        # The third non-symmetric n = 6 draw with an unstable mode. The start
        # sits near the detectability PBH boundary: phi ~ 3.4e10 and a
        # gradient norm ~ 2e14, so even a 1e-14 step moves the placement
        # across the sphere. Backtracking must keep going until the step
        # stops moving the placement, not stop at a fixed floor.
        rng = np.random.default_rng(2024)
        unstable = []
        while len(unstable) < 3:
            A = rng.standard_normal((6, 6)) / np.sqrt(6) - 0.3 * np.eye(6)
            if np.max(np.linalg.eigvals(A).real) > 0.05:
                unstable.append(A)
        plant = Plant(unstable[2], 0.5, 0.8)
        opts = FlowOptions(grad_tol=1e-9, max_iters=5_000)
        start = pbh_passing_placement(plant, np.random.default_rng([2, 1]))
        trace = run_flow(plant, start, opts)
        assert trace.iterates[0].phi > 1e10
        assert len(trace.iterates) > 1
        other = pbh_passing_placement(plant, np.random.default_rng([2, 0]))
        reference = run_flow(plant, other, opts).iterates[-1].phi
        assert abs(trace.iterates[-1].phi - reference) <= 1e-9 * abs(reference)

    _RESOLUTION_A = np.array([[0.3, 1.0, 0.0], [-0.5, -1.2, 0.4], [0.2, 0.0, -2.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_ends_at_float_resolution_without_non_moves(self, seed):
        # grad_tol = 1e-30 is below what either phi ~ 4.6 or the gradient
        # norm can resolve, so the run must stop with no_decrease, and every
        # accepted step must actually move the placement.
        plant = Plant(self._RESOLUTION_A, 0.5, 0.8)
        opts = FlowOptions(grad_tol=1e-30, max_iters=5_000)
        start = pbh_passing_placement(plant, np.random.default_rng(seed))
        trace = run_flow(plant, start, opts)
        assert trace.status == STATUS_NO_DECREASE
        assert len(trace.iterates) - 1 < opts.max_iters
        for prev, cur in zip(trace.iterates, trace.iterates[1:]):
            same_b = np.array_equal(prev.placement.b_unit, cur.placement.b_unit)
            same_c = np.array_equal(prev.placement.c_unit, cur.placement.c_unit)
            assert not (same_b and same_c)

    @pytest.mark.parametrize("seed", range(3))
    def test_converges_below_phi_resolution(self, seed):
        # Near the minimum a step changes phi ~ 4.6 by less than its rounding,
        # so Armijo alone cannot tell a good step from a bad one; judging such
        # a step by the gradient norm carries the run on to 1e-14.
        plant = Plant(self._RESOLUTION_A, 0.5, 0.8)
        opts = FlowOptions(grad_tol=1e-14, max_iters=5_000)
        start = pbh_passing_placement(plant, np.random.default_rng(seed))
        trace = run_flow(plant, start, opts)
        assert trace.status == STATUS_CONVERGED
        assert trace.iterates[-1].grad_norm < 1e-14

    def test_budget_spent_reports_max_iters(self):
        plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.5, 0.5)
        start = Placement(np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.8, 0.6]))
        trace = run_flow(plant, start, FlowOptions(grad_tol=1e-9, max_iters=3))
        assert trace.status == STATUS_MAX_ITERS
        assert len(trace.iterates) == 4


def _weighted_laplacian_plant() -> Plant:
    # Ring of 8 with four chords; A = -L has a zero mode the placement must excite.
    edges = [(i, (i + 1) % 8, 0.6 + 0.1 * i) for i in range(8)]
    edges += [(0, 4, 1.3), (1, 6, 0.7), (2, 5, 1.1), (3, 7, 0.9)]
    W = np.zeros((8, 8))
    for i, j, w in edges:
        W[i, j] = W[j, i] = w
    return Plant(-(np.diag(W.sum(axis=1)) - W), 0.5, 0.5)


class TestLineSearch:
    def test_evaluation_budget(self, monkeypatch):
        # Secant trial steps are accepted almost always: at most 1.5 cost
        # evaluations per accepted step, and every start converges.
        calls = []
        original = flow.cost_report

        def counted(plant, placement):
            calls.append(None)
            return original(plant, placement)

        monkeypatch.setattr(flow, "cost_report", counted)
        monkeypatch.setenv("CODESIGN_THREADS", "0")
        plant = _weighted_laplacian_plant()
        opts = FlowOptions(grad_tol=1e-9, max_iters=3_000)
        result = multi_start(plant, 4, seed=17, opts=opts)
        assert all(tr.status == STATUS_CONVERGED for tr in result.all)
        accepted = sum(len(tr.iterates) - 1 for tr in result.all)
        trials = len(calls) - len(result.all)  # one evaluation per start point
        assert trials <= 1.5 * accepted

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("zero_gain", [False, True])
    def test_step_reproduces_each_iterate(self, seed, zero_gain):
        # Each recorded step, along the secant direction of the moves before
        # it, is the one that produced its iterate, also at zero gain, where
        # steps accepted below phi_bar's resolution are common.
        if zero_gain:
            plant, grad_tol = Plant(np.diag([-1.0, -2.0, -3.0]), 0.0, 0.0), 1e-12
        else:
            plant, grad_tol = _weighted_laplacian_plant(), 1e-9
        start = pbh_passing_placement(plant, np.random.default_rng(seed))
        trace = run_flow(plant, start, FlowOptions(grad_tol=grad_tol, max_iters=3_000))
        assert len(trace.iterates) > 1
        _replay(plant, trace)

    @pytest.mark.parametrize("seed", range(3))
    def test_replay_through_refused_directions(self, seed):
        # Run on below the rounding floor, the descent meets secant
        # directions that no step lowers: the memory is dropped, and each
        # iterate still follows from the one before.
        plant = Plant(TestStopRule._RESOLUTION_A, 0.5, 0.8)
        start = pbh_passing_placement(plant, np.random.default_rng(seed))
        trace = run_flow(plant, start, FlowOptions(grad_tol=1e-30, max_iters=5_000))
        assert _replay(plant, trace)[1] > 0

    def test_replay_through_negative_curvature(self):
        # A move with s.y <= 0 halfway down drops a memory of one pair.
        rng = np.random.default_rng(0)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.8)
        start = pbh_passing_placement(plant, rng)
        trace = run_flow(plant, start, FlowOptions(grad_tol=1e-9, max_iters=3_000))
        assert trace.status == STATUS_CONVERGED
        assert _replay(plant, trace)[0] > 0

    def test_first_trial_is_the_gradient_step(self, monkeypatch):
        # The memory starts empty: the first trial of a start moves along g
        # itself with the initial step.
        trials = []
        original = flow.flow_step

        def recorded(plant, placement, direction, step):
            trials.append((placement, direction, step))
            return original(plant, placement, direction, step)

        monkeypatch.setattr(flow, "flow_step", recorded)
        plant = _weighted_laplacian_plant()
        start = pbh_passing_placement(plant, np.random.default_rng(1))
        run_flow(plant, start, FlowOptions(grad_tol=1e-9, max_iters=1))
        placement, direction, step = trials[0]
        grad = gradient(cost_report(plant, start))
        assert placement is start and step == flow._STEP_INIT
        assert np.array_equal(direction.g_b, grad.g_b)
        assert np.array_equal(direction.g_c, grad.g_c)


def _replay(plant: Plant, trace: FlowTrace) -> tuple[int, int]:
    """Replays ``trace`` bit for bit from fresh ``cost_report``s of its
    iterates, its recorded steps and ``two_loop_direction``, keeping the
    secant memory as the run does: a pair per move with s.y > 0, the
    memory dropped on s.y <= 0, and, where the recorded step does not
    reproduce the iterate along the memory's direction, dropped for a move
    along the secant-scaled gradient. The drops of a nonempty memory, on
    s.y <= 0 and on a refused direction, are returned; they must add up to
    the run's ``memory_resets``."""
    pairs, gamma, curvature, refused = [], flow._STEP_INIT, 0, 0
    grad = gradient(cost_report(plant, trace.iterates[0].placement))
    for prev, it in zip(trace.iterates, trace.iterates[1:]):
        b, c = prev.placement.b_unit, prev.placement.c_unit

        def moved(pairs):
            d_b, d_c = two_loop_direction(grad.g_b, grad.g_c, b, c, pairs, gamma)
            return flow_step(plant, prev.placement, Direction(d_b, d_c), it.step)

        def reproduces(placement):
            return np.array_equal(placement.b_unit, it.placement.b_unit) and np.array_equal(
                placement.c_unit, it.placement.c_unit
            )

        if pairs and not reproduces(moved(pairs)):
            pairs, refused = [], refused + 1
        assert reproduces(moved(pairs))
        new_grad = gradient(cost_report(plant, it.placement))
        s = np.concatenate((it.placement.b_unit - b, it.placement.c_unit - c))
        y = np.concatenate((new_grad.g_b - grad.g_b, new_grad.g_c - grad.g_c))
        if s @ y > 0.0:
            pairs = (pairs + [(s, y)])[-flow._MEMORY :]
            gamma = min((s @ s) / (s @ y), flow._STEP_MAX)
        else:
            curvature += bool(pairs)
            pairs, gamma = [], min(2.0 * it.step * gamma, flow._STEP_MAX)
        grad = new_grad
    # A run that ends no_decrease refused the memory's direction first.
    refused += trace.status == STATUS_NO_DECREASE and bool(pairs)
    assert curvature + refused == trace.counters.memory_resets
    return curvature, refused


class TestCounters:
    def test_evaluations_and_backtracks(self, monkeypatch):
        # Every trial is one evaluation, accepted or backtracked from.
        calls = []
        original = flow.cost_report

        def counted(plant, placement):
            calls.append(None)
            return original(plant, placement)

        monkeypatch.setattr(flow, "cost_report", counted)
        plant = _weighted_laplacian_plant()
        start = pbh_passing_placement(plant, np.random.default_rng(3))
        trace = run_flow(plant, start, FlowOptions(grad_tol=1e-9, max_iters=3_000))
        counters = trace.counters
        assert trace.status == STATUS_CONVERGED
        assert counters.evaluations == len(calls)
        assert counters.evaluations == len(trace.iterates) + counters.backtracks
        assert counters.backtracks > 0
        assert (counters.swallowed_errors, counters.last_swallowed_error) == (0, None)
        assert (counters.modal_fallbacks, counters.last_modal_fallback) == (0, None)

    def test_swallowed_error_is_counted_with_its_message(self, monkeypatch):
        # The first trial step fails; the line search backtracks from it.
        calls = []
        original = flow.cost_report

        def failing(plant, placement):
            calls.append(None)
            if len(calls) == 2:
                raise NonConvergence("injected failure")
            return original(plant, placement)

        monkeypatch.setattr(flow, "cost_report", failing)
        plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.5, 0.5)
        start = pbh_passing_placement(plant, np.random.default_rng(4))
        trace = run_flow(plant, start, FlowOptions(grad_tol=1e-9, max_iters=3_000))
        counters = trace.counters
        assert trace.status == STATUS_CONVERGED
        assert counters.swallowed_errors == 1
        assert counters.last_swallowed_error == "injected failure"
        assert counters.evaluations == len(calls)
        assert counters.evaluations == len(trace.iterates) + counters.backtracks
        assert counters.backtracks >= 1

    def test_nan_lyapunov_solve_is_a_swallowed_error(self, monkeypatch):
        # A non-symmetric plant's cost report makes two Bartels-Stewart
        # solves, so the fifth is an adjoint of the third evaluation. Its NaN
        # fails the certificate as NonConvergence, and the line search
        # backtracks from it instead of aborting the descent.
        calls = []
        original = riccati._bartels_stewart

        def nan_on_fifth_call(*args, **kwargs):
            calls.append(None)
            P = original(*args, **kwargs)
            return np.full_like(P, np.nan) if len(calls) == 5 else P

        monkeypatch.setattr(riccati, "_bartels_stewart", nan_on_fifth_call)
        A = np.array([[0.3, 1.0, 0.0], [-0.5, -1.2, 0.4], [0.2, 0.0, -2.0]])
        plant = Plant(A, 0.5, 0.8)
        start = pbh_passing_placement(plant, np.random.default_rng(0))
        trace = run_flow(plant, start, FlowOptions(grad_tol=1e-9, max_iters=3_000))
        counters = trace.counters
        assert trace.status == STATUS_CONVERGED
        assert counters.swallowed_errors == 1
        assert counters.last_swallowed_error == "Lyapunov residual nan exceeds tolerance nan"

    def test_repeated_eigenvalues_report_modal_fallbacks(self):
        # Repeated |lambda| leave the modal path at every evaluation; distinct
        # ones never do, and a non-symmetric plant has no modal path.
        start = Placement.normalized([1.0, 0.5, 0.2], [0.3, 1.0, 0.6])
        opts = FlowOptions(grad_tol=1e-9, max_iters=20)
        repeated = run_flow(Plant(np.diag([-1.0, -1.0, -2.0]), 0.5, 0.5), start, opts)
        counters = repeated.counters
        assert counters.modal_fallbacks == counters.evaluations > 1
        assert "not separated" in counters.last_modal_fallback
        for A in (np.diag([-1.0, -1.5, -2.0]), np.triu(np.ones((3, 3))) - 3.0 * np.eye(3)):
            trace = run_flow(Plant(A, 0.5, 0.5), start, opts)
            assert trace.counters.evaluations > 1
            assert (trace.counters.modal_fallbacks, trace.counters.last_modal_fallback) == (0, None)


class TestMultiStart:
    def test_single_start_reduces_to_run_flow(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.05, 0.05)
        result = multi_start(plant, 1, seed=4, opts=FlowOptions(grad_tol=1e-9))
        assert len(result.all) == 1
        assert result.best is result.all[0]

    def test_unique_minimum_reached_from_all_starts(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.01, 0.01)
        opts = FlowOptions(grad_tol=1e-11, max_iters=20_000)
        result = multi_start(plant, 10, seed=21, opts=opts)
        finals = [tr.iterates[-1].phi for tr in result.all]
        assert all(tr.status == STATUS_CONVERGED for tr in result.all)
        assert max(finals) - min(finals) < 1e-8

    def test_deterministic_given_seed(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.2, 0.3)
        opts = FlowOptions(grad_tol=1e-9)
        r1 = multi_start(plant, 4, seed=9, opts=opts)
        r2 = multi_start(plant, 4, seed=9, opts=opts)
        for t1, t2 in zip(r1.all, r2.all):
            assert len(t1.iterates) == len(t2.iterates)
            for i1, i2 in zip(t1.iterates, t2.iterates):
                assert i1.phi == i2.phi and i1.grad_norm == i2.grad_norm
                assert np.array_equal(i1.placement.b_unit, i2.placement.b_unit)
                assert np.array_equal(i1.placement.c_unit, i2.placement.c_unit)

    @pytest.mark.parametrize(
        "finals, objectives, expected",
        [
            # within 8 ulps of the least phi: the lowest index wins
            ([1.0 + 4 * _U, 1.0, 1.0 + 2 * _U], None, 0),
            ([1.0 + 16 * _U, 1.0 + 6 * _U, 1.0], None, 1),
            # beyond 8 ulps: the least phi wins
            ([1.0 + 16 * _U, 1.0], None, 1),
            ([-2.0, -2.0 * (1.0 - 6 * _U), -2.0 * (1.0 + 6 * _U)], None, 0),
            # equal phi (zero gain): the same rule on the descended objective
            ([3.0, 3.0, 3.0], [-1.0, -1.0 - 32 * _U, -1.0 - 30 * _U], 1),
        ],
    )
    def test_near_ties_go_to_lowest_start_index(
        self, monkeypatch, finals, objectives, expected
    ):
        objectives = finals if objectives is None else objectives
        plant = Plant(np.diag([-1.0, -2.0]), 0.1, 0.1)
        e1 = np.array([1.0, 0.0])
        traces = iter(
            FlowTrace(
                (FlowIterate(Placement(e1, e1), value, obj, 0.0, 0.0),),
                STATUS_CONVERGED,
            )
            for value, obj in zip(finals, objectives)
        )
        monkeypatch.setattr(flow, "run_flow", lambda *args: next(traces))
        # The patched run_flow hands out traces in call order.
        monkeypatch.setenv("CODESIGN_THREADS", "0")
        result = multi_start(plant, len(finals), seed=0, opts=FlowOptions())
        assert result.best is result.all[expected]

    def test_all_starts_failed(self):
        plant = Plant(np.eye(2), 1.0, 1.0)  # repeated unstable mode: PBH never passes
        with pytest.raises(AllStartsFailed, match=flow.NO_PLACEMENT):
            multi_start(plant, 3, seed=0, opts=FlowOptions())

    def test_rejects_nonpositive_start_count(self):
        plant = Plant(np.diag([-1.0, -2.0]), 0.1, 0.1)
        with pytest.raises(ValueError):
            multi_start(plant, 0, seed=0, opts=FlowOptions())


class TestRandomPlacement:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            placement = random_placement(n, rng)
            assert abs(np.linalg.norm(placement.b_unit) - 1.0) < 1e-12
            assert abs(np.linalg.norm(placement.c_unit) - 1.0) < 1e-12

    def test_empirical_mean_is_small(self):
        rng = np.random.default_rng(1)
        draws = np.array([random_placement(3, rng).b_unit for _ in range(10_000)])
        assert np.linalg.norm(draws.mean(axis=0)) < 0.05

    def test_normalizes_two_draws_in_order(self):
        # The draws b then c, each over its own norm, bit for bit.
        placement = random_placement(4, np.random.default_rng(3))
        draws = np.random.default_rng(3).standard_normal((2, 4))
        for unit, draw in zip((placement.b_unit, placement.c_unit), draws):
            assert np.array_equal(unit, draw / np.linalg.norm(draw))

    def test_distinct_rng_states_differ(self):
        p1 = random_placement(3, np.random.default_rng(1))
        p2 = random_placement(3, np.random.default_rng(2))
        assert not np.allclose(p1.b_unit, p2.b_unit)


class TestGradientVsFiniteDifference:
    @pytest.mark.parametrize("seed", range(4))
    def test_sphere_tangent_pairing(self, seed):
        # d/dt phi(normalize(b + t d)) = 2 d . g_b for the plain field
        rng = np.random.default_rng(1300 + seed)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.8)
        placement = random_placement_for(rng, 3)
        grad = gradient(cost_report(plant, placement))
        d = random_unit(rng, 3)
        d = d - (d @ placement.b_unit) * placement.b_unit
        d /= np.linalg.norm(d)

        def value(t: float) -> float:
            moved = Placement.normalized(placement.b_unit + t * d, placement.c_unit)
            return phi(plant, moved)

        h = 1e-3
        fd = (value(h) - value(-h)) / (2 * h)
        fd2 = (value(h / 2) - value(-h / 2)) / h
        fd = (4 * fd2 - fd) / 3
        analytic = grad.slope(Direction(d, np.zeros(3)))
        assert abs(fd - analytic) / max(abs(analytic), 1e-10) < 1e-5

    @pytest.mark.parametrize("gain", [0.5, 0.0])
    def test_slope_of_the_gradient_is_its_norm_squared(self, gain):
        rng = np.random.default_rng(1310)
        plant = Plant(random_symmetric_hurwitz(rng, 3), gain, gain)
        grad = gradient(cost_report(plant, random_placement_for(rng, 3)))
        assert grad.norm > 1e-3
        assert grad.slope(grad) == pytest.approx(grad.norm**2, rel=1e-13)

    def test_descent_and_verify_pair_through_one_slope(self, monkeypatch):
        # The slope the line search steps on is the one verify checks
        # against finite differences.
        calls = []
        original = OrbitGradient.slope

        def counted(self, direction):
            calls.append(direction)
            return original(self, direction)

        monkeypatch.setattr(OrbitGradient, "slope", counted)
        rng = np.random.default_rng(1320)
        plant = Plant(random_symmetric_hurwitz(rng, 3), 0.5, 0.5)
        trace = run_flow(plant, random_placement_for(rng, 3), FlowOptions(max_iters=5))
        assert len(trace.iterates) == 6
        assert len(calls) >= 5  # one per line search
        calls.clear()
        check = check_gradient_vs_fd(plant, seed=4)
        assert check["passed"] and check["skipped_draws"] == 0
        assert len(calls) == 3 * 4  # four skew pairs on each of three draws


def test_converged_flow_satisfies_equilibrium_tolerance():
    # zero gain, where the field has scale 1: the commutator residual is
    # bounded by the gradient norm
    plant = Plant(np.diag([-1.0, -2.0]), 0.0, 0.0)
    rng = np.random.default_rng(31)
    opts = FlowOptions(grad_tol=1e-9, max_iters=5_000)
    trace = run_flow(plant, random_placement_for(rng, 2), opts)
    assert trace.status == STATUS_CONVERGED
    flag, residuals = is_equilibrium(trace.report, 10.0 * opts.grad_tol)
    assert flag, residuals


def test_gradient_reuses_report(monkeypatch):
    # Given a ready cost report, no derivative solves again: with every route
    # to a solve patched to raise, each returns the bits it returned before.
    # A symmetric plant is held in its eigenbasis, a non-symmetric one in A's.
    rng = np.random.default_rng(55)
    nonsymmetric = np.array([[-1.0, 0.2, 0.0], [0.0, -2.0, 0.4], [0.3, 0.0, -3.0]])
    reports = [
        cost_report(Plant(A, 0.3, 0.3), random_placement_for(rng, 3))
        for A in (random_symmetric_hurwitz(rng, 3), nonsymmetric)
    ]
    assert reports[0].gains.basis is not None and reports[1].gains.basis is None
    omega_b, omega_c = random_skew(rng, 3), random_skew(rng, 3)

    def derivatives(report):
        grad = gradient(report)
        # eq_tol = inf: the placement need not be an equilibrium.
        eigs, verdict = classify_stability(report, eq_tol=np.inf)
        return [
            grad.r_b, grad.r_c, grad.norm, *is_equilibrium(report, 1e-8),
            orbit_pairing(report, omega_b, omega_c),
            hessian_matrix(report), eigs, verdict,
        ]

    before = [derivatives(report) for report in reports]

    def solved_again(*args, **kwargs):
        raise AssertionError("a ready report was solved again")

    for module in (cost, flow, equilibria, riccati):
        for name in ("cost_report", "gain_pair", "adjoint_pair"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, solved_again)
    for report, expected in zip(reports, before):
        for got, value in zip(derivatives(report), expected):
            assert np.array_equal(got, value)
        # The residuals are taken in the pair's coordinates; the oracle is the
        # field (I - b b^T) K M K b formed from the A-basis K and M.
        K, M = report.gains.K, report.adjoints.M
        S_b = 0.5 * (K @ M @ K + (K @ M @ K).T)
        b = report.placement.b_unit
        r_b = S_b @ b - (b @ S_b @ b) * b
        assert la.norm(gradient(report).r_b - r_b) <= 1e-12 * la.norm(r_b)


def test_two_starts_run_on_two_threads(monkeypatch):
    # Starts far shorter than the interpreter's switch interval still each
    # get a thread of their own.
    plant = Plant(np.diag([-1.0, -2.0]), 0.05, 0.05)
    opts = FlowOptions(grad_tol=1e-9, max_iters=2)
    threads = []
    real_run_flow = flow.run_flow

    def recorded(*args):
        threads.append(threading.get_ident())
        return real_run_flow(*args)

    monkeypatch.setattr(flow, "run_flow", recorded)
    monkeypatch.setenv("CODESIGN_THREADS", "2")
    for _ in range(30):
        threads.clear()
        multi_start(plant, 2, seed=5, opts=opts)
        assert len(threads) == 2 and len(set(threads)) == 2


def test_more_workers_than_cores_put_every_start_in_its_place(monkeypatch):
    # Each worker writes only its own starts' slots: with five workers on
    # short starts and a 1 us switch interval, no start is lost or moved.
    plant = Plant(np.diag([-1.0, -2.0, -3.0]), 0.05, 0.05)
    opts = FlowOptions(grad_tol=1e-9, max_iters=3)
    monkeypatch.setenv("CODESIGN_THREADS", "0")
    seq = multi_start(plant, 11, seed=2, opts=opts)
    monkeypatch.setenv("CODESIGN_THREADS", "5")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        par = multi_start(plant, 11, seed=2, opts=opts)
    finally:
        sys.setswitchinterval(interval)
    for t1, t2 in zip(seq.all, par.all, strict=True):
        assert np.array_equal(t1.phis, t2.phis)
        assert np.array_equal(t1.final.b_unit, t2.final.b_unit)


def test_the_first_start_error_is_raised_and_each_worker_stops_at_its_first(monkeypatch):
    plant = Plant(np.diag([-1.0, -2.0]), 0.05, 0.05)
    ran = []

    def fail(plant, init, opts):
        ran.append(init)
        raise KeyError(init.b_unit.tolist())

    monkeypatch.setattr(flow, "run_flow", fail)
    errors, counts = [], []
    for threads in ("0", "3"):
        monkeypatch.setenv("CODESIGN_THREADS", threads)
        ran.clear()
        with pytest.raises(KeyError) as excinfo:
            multi_start(plant, 5, seed=5, opts=FlowOptions())
        errors.append(excinfo.value.args[0])
        counts.append(len(ran))
    # One worker stops at start 0; each of three workers stops at its first
    # start (0, 1 and 2), and start 0's error is the one raised.
    assert errors[0] == errors[1] and counts == [1, 3]


def _start_index(plant, n_starts, seed):
    """The start index of each placement ``multi_start`` draws, by b."""
    streams = np.random.SeedSequence(seed).spawn(n_starts)
    placements = [flow.pbh_passing_placement(plant, np.random.default_rng(s)) for s in streams]
    return lambda init: next(
        i for i, p in enumerate(placements) if np.array_equal(p.b_unit, init.b_unit)
    )


def test_a_failed_thread_start_is_raised_and_leaves_no_worker(monkeypatch):
    # The third worker's thread cannot start: the error reaches the caller
    # before worker 0 runs, and the second worker, already started, runs its
    # one start and ends without raising.
    plant = Plant(np.diag([-1.0, -2.0]), 0.05, 0.05)
    index = _start_index(plant, 3, seed=5)
    real_start, started, unhandled, ran = threading.Thread.start, [], [], []

    def start_once(thread):
        if started:
            raise RuntimeError("can't start new thread")
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    monkeypatch.setattr(flow, "run_flow", lambda plant, init, opts: ran.append(index(init)))
    monkeypatch.setenv("CODESIGN_THREADS", "3")
    with pytest.raises(RuntimeError, match="^can't start new thread$"):
        multi_start(plant, 3, seed=5, opts=FlowOptions())
    started[0].join(timeout=10.0)
    assert not started[0].is_alive() and unhandled == [] and ran == [1]


def test_start_0_runs_on_the_calling_thread(monkeypatch):
    plant = Plant(np.diag([-1.0, -2.0]), 0.05, 0.05)
    index = _start_index(plant, 2, seed=5)
    real_run_flow, thread_of = flow.run_flow, {}

    def recorded(plant, init, opts):
        thread_of[index(init)] = threading.get_ident()
        return real_run_flow(plant, init, opts)

    monkeypatch.setattr(flow, "run_flow", recorded)
    monkeypatch.setenv("CODESIGN_THREADS", "2")
    multi_start(plant, 2, seed=5, opts=FlowOptions(grad_tol=1e-9, max_iters=2))
    assert thread_of[0] == threading.get_ident() != thread_of[1]


def test_multi_start_threaded_matches_sequential(monkeypatch):
    plant = Plant(np.diag([-1.0, -2.0]), 0.05, 0.05)
    opts = FlowOptions(grad_tol=1e-9)
    monkeypatch.setenv("CODESIGN_THREADS", "0")
    seq = multi_start(plant, 4, seed=13, opts=opts)
    monkeypatch.setenv("CODESIGN_THREADS", "4")
    par = multi_start(plant, 4, seed=13, opts=opts)
    for t1, t2 in zip(seq.all, par.all):
        assert t1.status == t2.status and len(t1.iterates) == len(t2.iterates)
        assert np.array_equal(t1.final.b_unit, t2.final.b_unit)
        assert np.array_equal(t1.final.c_unit, t2.final.c_unit)
