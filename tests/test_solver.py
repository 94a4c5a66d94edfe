import dataclasses
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import lqnash as lq
from lqnash import control, solver

from conftest import stage_fixed_point_residual, with_tau


def symmetric_two_agent_scalar(tau=4.0):
    return lq.load_game_spec(
        '{"num_agents": 2, "horizon": 1, "state_dim": 1, "action_dim": 1,'
        f' "tau": {tau},'
        ' "A": 1, "B": [1, 1], "Q": [[1, 1], [1, 1]], "R": [1, 1],'
        ' "noise_cov": 0, "init_mean": 1, "init_cov": 0}'
    )


def coupling_matrix(spec, t, tails):
    """``Phi_t`` of the joint gain system, from its tail-free blocks and tail products."""
    Bt, side, _, reg = control.stage_blocks(spec, t)
    return control.joint_products(Bt, side, spec.A[t], tails)[0] + reg


def modulus(spec, tails):
    """The paper's contraction modulus of a stage with tail values ``tails``."""
    return control.uniqueness_threshold(spec, control._max_frobenius(tails))[1] / spec.tau


class TestPhiMatrix:
    def test_two_agent_scalar_blocks(self):
        spec = symmetric_two_agent_scalar(tau=2.0)
        phi = coupling_matrix(spec, 0, np.ones((2, 1, 1)))
        npt.assert_allclose(phi, [[3.0, 1.0], [1.0, 3.0]], rtol=1e-15)

    def test_single_agent_single_block(self):
        spec = lq.random_game(1, 2, 2, 2, seed=0, scale=0.5)
        g = np.random.default_rng(1).normal(size=(2, 2))
        P = np.stack([g.T @ g])
        phi = coupling_matrix(spec, 1, P)
        expected = 0.5 * spec.tau * np.eye(2) + spec.R[0, 1] + spec.B[0, 1].T @ P[0] @ spec.B[0, 1]
        npt.assert_allclose(phi, expected, atol=1e-14)

    def test_zero_tails_block_diagonal(self):
        spec = lq.random_game(3, 2, 2, 2, seed=2, scale=0.5)
        phi = coupling_matrix(spec, 0, np.zeros((3, 2, 2)))
        for i in range(3):
            for j in range(3):
                block = phi[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                if i == j:
                    npt.assert_allclose(block, 0.5 * spec.tau * np.eye(2) + spec.R[i, 0], atol=0)
                else:
                    npt.assert_array_equal(block, np.zeros((2, 2)))

    def test_diagonal_dominance_under_condition(self):
        spec = lq.random_game(3, 3, 2, 2, seed=3, scale=0.5)
        sol = lq.exact_ne(spec)
        spec = with_tau(spec, 10.0 * lq.check_assumption_tau(spec, sol).threshold)
        sol = lq.exact_ne(spec)
        p = spec.action_dim
        for t in range(spec.horizon):
            gamma_pt = max(np.linalg.norm(sol.riccati[i, t + 1]) for i in range(3))
            gamma_b = max(
                np.linalg.norm(spec.B[i, s]) for i in range(3) for s in range(spec.horizon)
            )
            assert spec.tau > 2 * gamma_b**2 * gamma_pt * (3 - 1)
            phi = coupling_matrix(spec, t, sol.riccati[:, t + 1])
            for i in range(3):
                diag = phi[p * i : p * i + p, p * i : p * i + p]
                off = sum(
                    np.linalg.norm(phi[p * i : p * i + p, p * j : p * j + p])
                    for j in range(3)
                    if j != i
                )
                assert np.linalg.eigvalsh(diag)[0] > off


class TestExactNE:
    def test_scalar_hand_example(self, scalar_game):
        sol = lq.exact_ne(scalar_game)
        npt.assert_allclose(sol.policy.gains[0, 0], [[-1 / 3]], rtol=1e-14)
        npt.assert_allclose(sol.policy.covs[0, 0], [[1 / 3]], rtol=1e-14)
        npt.assert_allclose(sol.riccati[0, :, 0, 0], [5 / 3, 1.0], rtol=1e-14)
        npt.assert_allclose(sol.offsets[0], [np.log(3.0), 0.0], rtol=1e-14)

    def test_zero_inputs(self):
        base = lq.random_game(2, 3, 2, 1, seed=4, scale=0.5)
        spec = lq.validate_game_spec(dataclasses.replace(base, B=np.zeros_like(base.B)))
        sol = lq.exact_ne(spec)
        npt.assert_array_equal(sol.policy.gains, np.zeros((2, 3, 1, 2)))
        for i in range(2):
            P = spec.Q[i, 3]
            for t in range(2, -1, -1):
                npt.assert_allclose(
                    sol.policy.covs[i, t],
                    np.linalg.inv(np.eye(1) + 2 * spec.R[i, t] / spec.tau),
                    atol=1e-14,
                )
                P = spec.Q[i, t] + spec.A[t].T @ P @ spec.A[t]
                npt.assert_allclose(sol.riccati[i, t], P, atol=1e-12)

    def test_symmetric_agents_equal(self):
        spec = symmetric_two_agent_scalar()
        sol = lq.exact_ne(spec)
        npt.assert_allclose(sol.policy.gains[0], sol.policy.gains[1], atol=1e-14)
        npt.assert_array_equal(sol.policy.covs[0], sol.policy.covs[1])

    def test_terminal_values(self):
        spec = lq.random_game(2, 3, 2, 1, seed=5, scale=0.5)
        sol = lq.exact_ne(spec)
        npt.assert_array_equal(sol.riccati[:, 3], spec.Q[:, 3])
        npt.assert_array_equal(sol.offsets[:, 3], np.zeros(2))

    def test_fixed_point_property(self):
        for seed in (6, 7, 8):
            spec = lq.random_game(2 + seed % 2, 4, 2, 1, seed=seed, scale=0.5)
            sol = lq.exact_ne(spec)
            spec = with_tau(spec, max(1.0, 10.0 * lq.check_assumption_tau(spec, sol).threshold))
            sol = lq.exact_ne(spec)
            for t in range(spec.horizon):
                assert stage_fixed_point_residual(spec, sol.policy, t) <= 1e-10

    def test_singular_stage_system(self):
        spec = lq.load_game_spec(
            '{"num_agents": 2, "horizon": 1, "state_dim": 2, "action_dim": 2,'
            ' "tau": 1e-13,'
            ' "A": [[1.0, 0.0], [0.0, 1.0]],'
            ' "B": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],'
            ' "Q": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],'
            ' "R": [[[1e-13, 0.0], [0.0, 1e-13]], [[1e-13, 0.0], [0.0, 1e-13]]],'
            ' "noise_cov": [[0.0, 0.0], [0.0, 0.0]], "init_mean": [0.0, 0.0],'
            ' "init_cov": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        with pytest.raises(lq.SolverError, match="non-unique or ill-conditioned"):
            lq.exact_ne(spec)


class TestConditionChecks:
    def test_contraction_modulus_formula(self):
        spec = symmetric_two_agent_scalar(tau=2.0)
        assert modulus(spec, np.ones((2, 1, 1))) == pytest.approx(1.0)
        spec4 = symmetric_two_agent_scalar(tau=4.0)
        assert modulus(spec4, np.ones((2, 1, 1))) == pytest.approx(0.5)

    def test_norms_of_huge_tails_stay_finite(self):
        # squaring 1e160 overflows; the norm itself is finite
        spec = symmetric_two_agent_scalar(tau=2.0)
        tails = np.array([[[3e160]], [[-4e160]]])
        assert modulus(spec, tails) == pytest.approx(4e160, rel=1e-15)
        sol = dataclasses.replace(lq.exact_ne(spec), riccati=np.full((2, 2, 2, 2), 1e160))
        assert lq.check_assumption_tau(spec, sol).gamma_P == pytest.approx(2e160, rel=1e-15)

    def test_norm_of_one_huge_tail_matrix(self):
        spec = symmetric_two_agent_scalar(tau=2.0)
        assert modulus(spec, np.array([[-4e160]])) == pytest.approx(4e160, rel=1e-15)

    def test_single_agent_modulus_zero(self, scalar_game):
        assert modulus(scalar_game, np.ones((1, 1, 1))) == 0.0

    def test_single_agent_always_satisfied(self, scalar_game):
        sol = lq.exact_ne(scalar_game)
        record = lq.check_assumption_tau(scalar_game, sol)
        assert record.threshold == 0.0
        assert record.satisfied

    def test_boundary_not_satisfied(self):
        spec = symmetric_two_agent_scalar()
        sol = lq.exact_ne(spec)
        record = lq.check_assumption_tau(spec, sol)
        boundary = with_tau(spec, record.threshold)
        assert not lq.check_assumption_tau(boundary, sol).satisfied

    def test_ample_margin_satisfied(self):
        spec = lq.random_game(2, 3, 2, 1, seed=9, scale=0.5)
        sol = lq.exact_ne(spec)
        generous = with_tau(spec, 10.0 * lq.check_assumption_tau(spec, sol).threshold)
        sol2 = lq.exact_ne(generous)
        assert lq.check_assumption_tau(generous, sol2).satisfied

    def test_margin_raises_threshold(self):
        spec = symmetric_two_agent_scalar()
        sol = lq.exact_ne(spec)
        record = lq.check_assumption_tau(spec, sol)
        just_above = with_tau(spec, record.threshold * 1.05)
        assert lq.check_assumption_tau(just_above, sol, margin=0.0).satisfied
        assert not lq.check_assumption_tau(just_above, sol, margin=0.1).satisfied

    @pytest.mark.parametrize("margin", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_margin_must_be_finite_and_nonnegative(self, margin):
        # A negative margin would pass a tau far below the threshold.
        spec = symmetric_two_agent_scalar(tau=0.01)
        with pytest.raises(ValueError, match="margin"):
            lq.check_assumption_tau(spec, lq.exact_ne(spec), margin)


class TestPoSolve:
    def test_single_agent_exact_after_one_iteration(self, scalar_game):
        report = lq.po_solve(scalar_game, inner_iters=10)
        sol = lq.exact_ne(scalar_game)
        assert lq.policy_distance(report.policy, sol.policy) <= 1e-12
        for stage_trace in report.trace:
            assert stage_trace[1] == 0.0  # converged after the first update

    def test_matches_exact_route(self):
        spec = lq.random_game(2, 3, 2, 1, seed=10, scale=0.5)
        sol = lq.exact_ne(spec)
        spec = with_tau(spec, 10.0 * lq.check_assumption_tau(spec, sol).threshold)
        sol = lq.exact_ne(spec)
        report = lq.po_solve(spec, inner_iters=60)
        assert lq.policy_distance(report.policy, sol.policy) <= 1e-8

    def test_trace_respects_iteration_cap(self):
        spec = lq.random_game(3, 4, 2, 2, seed=11, scale=0.4)
        report = lq.po_solve(spec, inner_iters=7, stop_tol=None)
        assert all(len(st) == 7 for st in report.trace)
        report2 = lq.po_solve(spec, inner_iters=7, stop_tol=1e-10)
        assert all(len(st) <= 7 for st in report2.trace)

    def test_moduli_nonnegative(self):
        spec = lq.random_game(3, 4, 2, 2, seed=12, scale=0.4)
        report = lq.po_solve(spec, inner_iters=20)
        assert all(r >= 0.0 for r in report.contraction_moduli)

    def test_contraction_rate_observed(self):
        # engineered so the modulus is exactly 0.5 at the single stage
        spec = symmetric_two_agent_scalar(tau=4.0)
        report = lq.po_solve(spec, inner_iters=60, stop_tol=1e-13)
        assert report.contraction_moduli[0] == pytest.approx(0.5)
        trace = report.trace[0]
        for a, b in zip(trace, trace[1:]):
            if a < 1e-2 and a > 0:
                assert b <= (0.5 + 0.05) * a

    def test_bad_arguments(self):
        spec = lq.random_game(1, 1, 1, 1, seed=0, scale=1.0)
        with pytest.raises(ValueError):
            lq.po_solve(spec, inner_iters=None, stop_tol=None)
        with pytest.raises(ValueError):
            lq.po_solve(spec, inner_iters=0, stop_tol=None)
        with pytest.raises(ValueError):
            lq.po_solve(spec, inner_iters=5, stop_tol=0.0)
        for inner_iters in (2.5, True, np.float64(3.0)):
            with pytest.raises(ValueError, match="inner_iters must be an integer"):
                lq.po_solve(spec, inner_iters=inner_iters, stop_tol=None)
        assert len(lq.po_solve(spec, inner_iters=np.int64(3), stop_tol=None).trace[0]) == 3

    def test_tail_values_match_lyapunov(self):
        spec = lq.random_game(2, 4, 2, 1, seed=13, scale=0.5)
        sol = lq.exact_ne(spec)
        spec = with_tau(spec, 10.0 * lq.check_assumption_tau(spec, sol).threshold)
        report = lq.po_solve(spec, inner_iters=100, stop_tol=1e-12)
        assert report.condition is not None
        check = np.linalg.norm(control.lyapunov_values(spec, report.policy.gains), axis=(-2, -1)).max()
        assert report.condition.gamma_P == pytest.approx(check, rel=1e-9)


class TestDeltaAugment:
    def test_first_candidate_accepted(self):
        spec = lq.random_game(2, 3, 2, 1, seed=14, scale=0.5)
        sol = lq.exact_ne(spec)
        spec = with_tau(spec, 10.0 * lq.check_assumption_tau(spec, sol).threshold)
        report = lq.delta_augment_solve(spec, delta_init=1e-3)
        assert report.delta_used == pytest.approx(1e-3)
        augmented = with_tau(spec, spec.tau + report.delta_used)
        sol_aug = lq.exact_ne(augmented)
        assert lq.policy_distance(report.policy, sol_aug.policy) <= 1e-6

    def test_violating_spec_gets_positive_delta(self):
        spec = lq.random_game(2, 2, 2, 1, seed=11, scale=0.8)  # threshold > 1 at tau=1
        base = lq.check_assumption_tau(spec, lq.exact_ne(spec))
        assert not base.satisfied
        report = lq.delta_augment_solve(spec, delta_init=0.1, growth=2.0, max_rounds=30)
        assert report.delta_used > 0
        assert report.nash_gaps is not None
        assert np.all(np.isfinite(report.nash_gaps))
        assert np.all(report.nash_gaps >= -1e-9)

    def test_gap_shrinks_with_delta(self):
        spec = lq.random_game(2, 2, 2, 1, seed=11, scale=0.8)
        small = lq.delta_augment_solve(spec, delta_init=0.8, max_rounds=1)
        large = lq.delta_augment_solve(spec, delta_init=1.6, max_rounds=1)
        assert small.nash_gaps.max() <= large.nash_gaps.max() + 1e-10

    def test_rounds_exhausted(self):
        spec = lq.random_game(2, 2, 2, 1, seed=11, scale=0.8)
        with pytest.raises(lq.SolverError, match="threshold gap"):
            lq.delta_augment_solve(spec, delta_init=1e-6, growth=1.5, max_rounds=2)

    def test_bad_arguments(self):
        spec = lq.random_game(1, 1, 1, 1, seed=0, scale=1.0)
        for delta_init in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta_init"):
                lq.delta_augment_solve(spec, delta_init=delta_init)
        with pytest.raises(ValueError):
            lq.delta_augment_solve(spec, delta_init=0.1, growth=1.0)
        with pytest.raises(ValueError):
            lq.delta_augment_solve(spec, delta_init=0.1, max_rounds=0)
        for max_rounds in (2.5, True, np.float64(3.0)):
            with pytest.raises(ValueError, match="max_rounds must be an integer"):
                lq.delta_augment_solve(spec, delta_init=0.1, max_rounds=max_rounds)

    @pytest.mark.parametrize("margin", [-1.0, float("nan")])
    def test_bad_margin_rejected_before_any_solve(self, monkeypatch, margin):
        monkeypatch.setattr(solver, "exact_ne", lambda spec: pytest.fail("solved"))
        monkeypatch.setattr(solver, "_exact_backward", lambda *args, **kwargs: pytest.fail("solved"))
        spec = lq.random_game(2, 2, 2, 1, seed=11, scale=0.8)
        with pytest.raises(ValueError, match="margin"):
            lq.delta_augment_solve(spec, delta_init=1e-3, margin=margin)

    def test_overflowing_delta_names_the_round(self):
        spec = lq.random_game(2, 2, 2, 1, seed=11, scale=0.8)
        with pytest.raises(lq.SolverError, match="round 2: .* overflows"):
            lq.delta_augment_solve(spec, delta_init=1e-300, growth=1e200, max_rounds=3)
        with pytest.raises(lq.SolverError, match="round 1: .* overflows"):
            lq.delta_augment_solve(spec, delta_init=1e-6, growth=float("inf"), max_rounds=3)

    def test_delta_keeps_its_bits_when_the_power_is_large(self):
        # 1e150**2 is near the float limit, the product is about 1.0
        spec = lq.random_game(2, 2, 2, 1, seed=11, scale=0.8)
        report = lq.delta_augment_solve(spec, delta_init=1e-300, growth=1e150, max_rounds=3)
        assert report.delta_used == 1e-300 * 1e150**2


SOLVERS = {"exact_ne": lq.exact_ne, "po_solve": lambda spec: lq.po_solve(spec, inner_iters=3)}


def inject_stage_fault(monkeypatch, spec, stage, fault):
    """Make the value step of ``stage`` raise a LinAlgError (``"singular"``)
    or return NaN (``"non-finite"``); returns the stages stepped so far.
    Both solvers take one value step per stage, last stage first."""
    real, seen = lq.solver.value_step, []

    def value_step(Qown, closed, tails):
        seen.append(spec.horizon - 1 - len(seen))
        if seen[-1] == stage and fault == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        value = real(Qown, closed, tails)
        return np.full_like(value, np.nan) if seen[-1] == stage else value

    monkeypatch.setattr(lq.solver, "value_step", value_step)
    return seen


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("stage, fault", [pytest.param(s, f, id=str(s) if f == "singular" else f"{s}-{f}")
                                          for f in ("singular", "non-finite") for s in (0, 3, 5)])
def test_singular_stage_is_named_whatever_the_rounding(monkeypatch, solver, stage, fault):
    """A LinAlgError anywhere in stage t, or values of stage t that are not
    finite, become a SolverError naming t, in the same words for both
    solvers.  The fault is injected, so the stage does not depend on round-off."""
    spec = lq.random_game(2, 6, 3, 2, seed=5, scale=0.5)
    seen = inject_stage_fault(monkeypatch, spec, stage, fault)
    message = "singular" if fault == "singular" else "value matrices are not finite"
    with pytest.raises(lq.SolverError, match=f"^stage {stage}: {message}"):
        SOLVERS[solver](spec)
    if fault == "singular":
        assert seen == list(range(spec.horizon - 1, stage - 1, -1))


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_stage_matrices_named_before_a_singular_solve_of_their_stage(monkeypatch, solver):
    """Stage 3's products overflow and its value step is singular: a
    stage-by-stage pass checks the stage matrices first."""
    spec = lq.random_game(2, 6, 3, 2, seed=5, scale=0.5)
    real, calls = lq.solver.joint_products, []

    def joint_products(*args):
        calls.append(0)
        products, BPA = real(*args)
        return (np.full_like(products, np.inf) if len(calls) == 3 else products), BPA

    monkeypatch.setattr(lq.solver, "joint_products", joint_products)
    inject_stage_fault(monkeypatch, spec, 3, "singular")
    with pytest.raises(lq.SolverError, match="^stage 3: stage matrices are not finite"):
        SOLVERS[solver](spec)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_non_finite_values_stop_the_pass_at_the_next_check(monkeypatch, solver):
    """Values of stage 30 of 40 that are not finite end the backward pass at
    the next check, stage 16, not after all 40 stages; the error still names
    stage 30."""
    spec = lq.random_game(2, 40, 3, 2, seed=5, scale=0.5)
    seen = inject_stage_fault(monkeypatch, spec, 30, "non-finite")
    with pytest.raises(lq.SolverError, match="^stage 30: value matrices are not finite"):
        SOLVERS[solver](spec)
    assert seen == list(range(39, 15, -1))


def test_diverged_po_pass_stops_within_a_check_interval(monkeypatch):
    """The divergence repro: the inner iteration of stage 399, the first
    stage stepped, grows from its first gain distance, so the pass stops
    after one of its 400 stage steps, with or without an inner-iteration cap."""
    spec = lq.random_game(3, 400, 4, 2, seed=3, scale=1.5)
    real, steps = lq.solver.joint_products, []
    monkeypatch.setattr(lq.solver, "joint_products", lambda *args: steps.append(0) or real(*args))
    with pytest.raises(lq.SolverError, match="^stage 399: inner iteration diverged"):
        lq.po_solve(spec)
    assert len(steps) == 1
    steps.clear()
    with pytest.raises(lq.SolverError, match="^stage 399: inner iteration diverged"):
        lq.po_solve(spec, inner_iters=50)
    assert len(steps) == 1


def test_diverging_po_stage_stops_at_its_first_growth():
    """Stage 399 of the divergence repro first grows past its first gain
    distance at iteration 3, and its iteration matrix has spectral radius
    >= 1; PO names it there, not after all of its inner iterations."""
    spec = lq.random_game(3, 400, 4, 2, seed=3, scale=1.5)
    with pytest.raises(lq.SolverError, match="^stage 399: inner iteration diverged") as info:
        lq.po_solve(spec)
    found = re.fullmatch(r".*gain distance (\S+) to (\S+) in (\d+) iterations", str(info.value))
    first, grown, iterations = float(found[1]), float(found[2]), int(found[3])
    assert first < grown < 2 * first
    assert iterations < solver.MAX_INNER_ITERS


@pytest.mark.parametrize("T, seed", [(1, 2), (2, 0), (2, 4), (2, 5)])
def test_finite_po_divergence_is_named(T, seed):
    """In each game the inner iteration of stage 0 grows under an iteration
    matrix of spectral radius >= 1, and would reach 1e36 or more in 500
    iterations yet stay finite; PO names the stage instead of returning."""
    with pytest.raises(lq.SolverError, match="^stage 0: inner iteration diverged"):
        lq.po_solve(lq.random_game(3, T, 4, 2, seed=seed, scale=1.5))


def test_slow_po_convergence_is_not_divergence():
    """The horizon-1 seed-1 game needs all 500 inner iterations and ends at
    2e-5 of a first distance of 3: unmet stop test, yet no divergence."""
    report = lq.po_solve(lq.random_game(3, 1, 4, 2, seed=1, scale=1.5))
    (stage,) = report.trace
    assert len(stage) == solver.MAX_INNER_ITERS and stage[-1] < 1e-4 < stage[0]


def test_transient_po_growth_is_not_divergence():
    """In the horizon-1 seed-4 game at tau 1 the gain distance grows from
    2.971 to 2.982 over five capped iterations, but the iteration matrix
    has spectral radius 0.991: a transient, so PO returns."""
    spec = lq.random_game(3, 1, 3, 2, seed=4, scale=1.5).with_tau(1.0)
    (stage,) = lq.po_solve(spec, inner_iters=5, stop_tol=None).trace
    assert len(stage) == 5 and stage[-1] > 2.97
    (stage,) = lq.po_solve(spec).trace
    assert stage[-1] < 0.05


def condition_case():
    """A game whose stage conditions vary with the stage, a limit that about
    half of the stages exceed, and the largest failing stage, found with a
    stage-by-stage ``coupling_matrix`` + ``np.linalg.cond`` loop."""
    spec = lq.random_game(2, 12, 3, 2, seed=2, scale=0.8).with_tau(0.5)
    tails = lq.exact_ne(spec).riccati[:, 1:]
    conds = np.array([np.linalg.cond(coupling_matrix(spec, t, tails[:, t])) for t in range(spec.horizon)])
    ordered = np.sort(conds)
    limit = 0.5 * (ordered[spec.horizon // 2] + ordered[spec.horizon // 2 + 1])
    failing = np.flatnonzero(conds > limit)
    return spec, limit, failing


def test_condition_failure_names_the_largest_failing_stage():
    spec, limit, failing = condition_case()
    # Several stages fail, and neither the last nor the first failing stage is stage T - 1.
    assert len(failing) >= 3 and failing[-1] < spec.horizon - 1
    with pytest.raises(lq.SolverError, match=f"^stage {failing[-1]}: coupling matrix condition"):
        lq.exact_ne(spec, cond_limit=limit)


@pytest.mark.parametrize("fault", ["singular", "non-finite"])
def test_condition_failure_wins_over_an_earlier_stage_fault(monkeypatch, fault):
    """The backward pass meets the later stage first, so its condition
    failure is named, not the fault injected at an earlier stage."""
    spec, limit, failing = condition_case()
    stage = failing[-1] - 1
    seen = inject_stage_fault(monkeypatch, spec, stage, fault)
    message = "singular stage matrix" if fault == "singular" else "value matrices are not finite"
    with pytest.raises(lq.SolverError, match=f"^stage {stage}: {message}"):
        lq.exact_ne(spec)
    seen.clear()
    with pytest.raises(lq.SolverError, match=f"^stage {failing[-1]}: coupling matrix condition"):
        lq.exact_ne(spec, cond_limit=limit)


def reference_augment_rounds(spec, delta_init, growth, max_rounds, margin):
    """The augmentation round loop with one full ``exact_ne`` per round:
    the accepted delta and its record, or the error after the last round."""
    last_failure = "no rounds attempted"
    for k in range(max_rounds):
        candidate = delta_init * growth**k
        augmented = spec.with_tau(spec.tau + candidate)
        try:
            sol = lq.exact_ne(augmented)
        except lq.SolverError as exc:
            last_failure = f"delta={candidate:g}: {exc}"
            continue
        record = lq.check_assumption_tau(augmented, sol, margin)
        if record.satisfied:
            return candidate, record
        gap = record.threshold * (1.0 + margin) - augmented.tau
        last_failure = f"delta={candidate:g}: threshold gap {gap:.6g} remains"
    raise lq.SolverError(f"augmentation failed after {max_rounds} rounds ({last_failure})")


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@given(
    n=st.integers(1, 3),
    T=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from([0.5, 1.0, 2.0]),
    margin=st.sampled_from([0.0, 0.5]),
    growth=st.sampled_from([1.5, 16.0]),
)
@settings(max_examples=40)
def test_early_stopped_rounds_match_full_rounds(n, T, seed, where, margin, growth):
    """Tau below, at and above the threshold: the accepted delta, its record,
    the policy and the Nash gaps are those of full rounds, and when every
    round fails the error text is too."""
    spec = lq.random_game(n, T, 3, 2, seed=seed, scale=0.8)
    threshold = lq.check_assumption_tau(spec, lq.exact_ne(spec)).threshold
    spec = spec.with_tau(threshold * where if threshold > 0 else 1.0)
    kwargs = dict(delta_init=0.05 * max(threshold, 1.0), growth=growth, max_rounds=4, margin=margin)
    try:
        delta, record = reference_augment_rounds(spec, **kwargs)
    except lq.SolverError as exc:
        with pytest.raises(lq.SolverError) as err:
            lq.delta_augment_solve(spec, **kwargs)
        assert str(err.value) == str(exc)
        return
    report = lq.delta_augment_solve(spec, **kwargs)
    assert report.delta_used == delta and report.condition == record
    reference = lq.po_solve(spec.with_tau(spec.tau + delta))
    assert bits(report.policy.gains) == bits(reference.policy.gains)
    assert bits(report.policy.covs) == bits(reference.policy.covs)
    assert bits(report.nash_gaps) == bits(lq.exploitability(spec, reference.policy))


def test_failing_round_stops_early_and_passing_round_runs_in_full(monkeypatch):
    """The failing first round of the ``long`` benchmark game is decided within
    a few dozen of its 400 stages; a passing round is ``exact_ne``'s pass."""
    spec = lq.random_game(3, 400, 4, 2, seed=1234, scale=0.3)
    real, steps = lq.solver.value_step, []
    monkeypatch.setattr(lq.solver, "value_step", lambda *args: steps.append(0) or real(*args))
    assert solver._exact_backward(spec.with_tau(1.05), margin=0.0) is None
    assert 0 < len(steps) <= 100
    passing = spec.with_tau(1.8)
    sol, full = solver._exact_backward(passing, margin=0.0), lq.exact_ne(passing)
    assert lq.check_assumption_tau(passing, full).satisfied
    assert bits(sol.riccati) == bits(full.riccati) and bits(sol.offsets) == bits(full.offsets)
    assert bits(sol.policy.gains) == bits(full.policy.gains)


def reference_po(spec, inner_iters=None, stop_tol=1e-10):
    """``po_solve`` with the covariance, its norm, the modulus and the value
    norm computed inside the stage loop, one stage at a time.  Also returns
    each stage's bracket ``R + B^T P B``."""
    from lqnash.control import _max_frobenius, joint_products, own_cost, stage_blocks, uniqueness_threshold

    L = solver.MAX_INNER_ITERS if inner_iters is None else inner_iters
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    Bt, side, weight, _ = stage_blocks(spec)
    agents, half = np.arange(n), 0.5 * spec.tau * np.eye(p)
    gains, covs, brackets = np.zeros((T, n * p, m)), np.zeros((n, T, p, p)), np.zeros((T, n, p, p))
    tails = spec.Q[:, T].copy()
    gamma_b = _max_frobenius(spec.B)
    gamma_p = gamma_p_seen = _max_frobenius(tails)
    trace_by_stage, moduli = [()] * T, np.zeros(T)
    for t in range(T - 1, -1, -1):
        with solver._stage(t):
            moduli[t] = uniqueness_threshold(spec, gamma_p, gamma_b)[1] / spec.tau
            products, BPA = joint_products(Bt[:, t], side[t], spec.A[t], tails)
            blocks = products.reshape(n, p, n, p)
            bracket = brackets[t] = spec.R[:, t] + blocks[agents, :, agents]
            H = half + bracket
            solver._finite(t, "stage matrices", products, H, BPA)
            blocks[agents, :, agents] = 0.0
            rhs = np.concatenate((BPA.reshape(n, p, m), products.reshape(n, p, n * p)), axis=-1)
            factored = -np.linalg.solve(H, rhs)
            c, M = factored[..., :m].reshape(n * p, m), factored[..., m:].reshape(n * p, n * p)
            covs[:, t] = solver.stage_covariance(bracket, spec.tau)
            cov_distance = np.sqrt((covs[:, t] ** 2).sum(axis=(1, 2))).sum()
            G, distances = gains[t], []
            for _ in range(L):
                new = c + M @ G
                d = float(np.sqrt(((new - G) ** 2).reshape(n, -1).sum(axis=1)).sum() + cov_distance)
                G, cov_distance = new, 0.0
                distances.append(d)
                if stop_tol is not None and d < stop_tol:
                    break
            gains[t] = G
            trace_by_stage[t] = tuple(distances)
            solver._finite(t, "policy gains", G)
            Qown = spec.Q[:, t] + own_cost(weight[:, t], G.reshape(n, p, m))
            tails = solver.value_step(Qown, spec.A[t] + side[t] @ G, tails)
            solver._finite(t, "tail value matrices", tails)
            gamma_p = _max_frobenius(tails)
            gamma_p_seen = max(gamma_p_seen, gamma_p)
    gains = gains.reshape(T, n, p, m).swapaxes(0, 1)
    record = solver._condition(spec, gamma_p_seen, 0.0)
    return gains, covs, tuple(trace_by_stage), tuple(float(r) for r in moduli), record, brackets


def assert_po_matches_reference(spec, **kwargs):
    gains, covs, trace, moduli, record, _ = reference_po(spec, **kwargs)
    report = lq.po_solve(spec, **kwargs)
    assert bits(report.policy.gains) == bits(gains)
    assert bits(report.policy.covs) == bits(covs)
    assert bits(np.concatenate(report.trace)) == bits(np.concatenate(trace))
    assert [len(st) for st in report.trace] == [len(st) for st in trace]
    assert bits(np.array(report.contraction_moduli)) == bits(np.array(moduli))
    assert report.condition == record
    return report


@pytest.mark.parametrize("dims, tau", [((3, 400, 4, 2), 1.85), ((20, 50, 10, 2), 100.0), ((1, 5, 2, 1), 1.0)])
def test_po_solve_matches_stage_loop_reference(dims, tau):
    spec = lq.random_game(*dims, seed=7, scale=0.3).with_tau(tau)
    assert_po_matches_reference(spec)
    assert_po_matches_reference(spec, inner_iters=3, stop_tol=None)


@pytest.mark.parametrize("n", [2, 20])
@pytest.mark.parametrize("tau, length", [(1.0, 2), (1e-13, 1)])
def test_po_covariance_decides_the_first_stop_test_when_gains_do_not_move(n, tau, length):
    """With ``A = 0`` the gains stay zero, so the first distance is the
    covariance norm alone: above ``stop_tol`` at tau 1, below it at 1e-13.
    Over 20 agents the norms' sum rounds by its order of summation."""
    base = lq.random_game(n, 4, 3, 2, seed=3, scale=0.5)
    spec = lq.validate_game_spec(dataclasses.replace(base, A=np.zeros_like(base.A), tau=tau))
    report = assert_po_matches_reference(spec)
    covs = report.policy.covs
    for t, stage_trace in enumerate(report.trace):
        assert len(stage_trace) == length
        assert stage_trace[0] == np.sqrt((covs[:, t] ** 2).sum(axis=(1, 2))).sum()
    if length == 1:
        assert 0 < report.trace[0][0] < 1e-10  # below stop_tol


@pytest.mark.parametrize("earlier_fault", [False, True])
def test_singular_covariance_named_before_an_earlier_stage_fault(monkeypatch, earlier_fault):
    """A stage-by-stage pass meets stage 4's covariance solve before any
    fault of stage 2, though the covariances are now solved after the loop."""
    spec = lq.random_game(2, 6, 3, 2, seed=5, scale=0.5)
    marker = reference_po(spec, inner_iters=3)[-1][4]
    real_covariance, real_step = lq.solver.stage_covariance, lq.solver.value_step

    def stage_covariance(bracket, tau):
        if any(np.array_equal(b, marker) for b in bracket.reshape(-1, *marker.shape)):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_covariance(bracket, tau)

    steps = []

    def value_step(Qown, closed, tails):
        steps.append(0)
        if earlier_fault and len(steps) == 4:  # the value step of stage 2
            raise np.linalg.LinAlgError("Singular matrix")
        return real_step(Qown, closed, tails)

    monkeypatch.setattr(lq.solver, "stage_covariance", stage_covariance)
    monkeypatch.setattr(lq.solver, "value_step", value_step)
    with pytest.raises(lq.SolverError, match="^stage 4: singular stage matrix") as expected:
        reference_po(spec, inner_iters=3)
    steps.clear()
    with pytest.raises(lq.SolverError) as err:
        lq.po_solve(spec, inner_iters=3)
    assert str(err.value) == str(expected.value)
