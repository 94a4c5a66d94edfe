import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import lqnash as lq

from conftest import stage_fixed_point_residual, with_tau


def symmetric_two_agent_scalar(tau=4.0):
    return lq.load_game_spec(
        '{"num_agents": 2, "horizon": 1, "state_dim": 1, "action_dim": 1,'
        f' "tau": {tau},'
        ' "A": 1, "B": [1, 1], "Q": [[1, 1], [1, 1]], "R": [1, 1],'
        ' "noise_cov": 0, "init_mean": 1, "init_cov": 0}'
    )


class TestPhiMatrix:
    def test_two_agent_scalar_blocks(self):
        spec = symmetric_two_agent_scalar(tau=2.0)
        phi = lq.phi_matrix(spec, 0, np.ones((2, 1, 1)))
        npt.assert_allclose(phi, [[3.0, 1.0], [1.0, 3.0]], rtol=1e-15)

    def test_single_agent_single_block(self):
        spec = lq.random_game(1, 2, 2, 2, seed=0, scale=0.5)
        g = np.random.default_rng(1).normal(size=(2, 2))
        P = np.stack([g.T @ g])
        phi = lq.phi_matrix(spec, 1, P)
        expected = 0.5 * spec.tau * np.eye(2) + spec.R[0, 1] + spec.B[0, 1].T @ P[0] @ spec.B[0, 1]
        npt.assert_allclose(phi, expected, atol=1e-14)

    def test_zero_tails_block_diagonal(self):
        spec = lq.random_game(3, 2, 2, 2, seed=2, scale=0.5)
        phi = lq.phi_matrix(spec, 0, np.zeros((3, 2, 2)))
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
            phi = lq.phi_matrix(spec, t, sol.riccati[:, t + 1])
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
        npt.assert_allclose(sol.policy.policies[0].gains[0], [[-1 / 3]], rtol=1e-14)
        npt.assert_allclose(sol.policy.policies[0].covs[0], [[1 / 3]], rtol=1e-14)
        npt.assert_allclose(sol.riccati[0, :, 0, 0], [5 / 3, 1.0], rtol=1e-14)
        npt.assert_allclose(sol.offsets[0], [np.log(3.0), 0.0], rtol=1e-14)

    def test_zero_inputs(self):
        base = lq.random_game(2, 3, 2, 1, seed=4, scale=0.5)
        spec = lq.validate_game_spec(dataclasses.replace(base, B=np.zeros_like(base.B)))
        sol = lq.exact_ne(spec)
        npt.assert_array_equal(lq.stack_gains(sol.policy), np.zeros((2, 3, 1, 2)))
        for i in range(2):
            P = spec.Q[i, 3]
            for t in range(2, -1, -1):
                npt.assert_allclose(
                    sol.policy.policies[i].covs[t],
                    np.linalg.inv(np.eye(1) + 2 * spec.R[i, t] / spec.tau),
                    atol=1e-14,
                )
                P = spec.Q[i, t] + spec.A[t].T @ P @ spec.A[t]
                npt.assert_allclose(sol.riccati[i, t], P, atol=1e-12)

    def test_symmetric_agents_equal(self):
        spec = symmetric_two_agent_scalar()
        sol = lq.exact_ne(spec)
        npt.assert_allclose(
            sol.policy.policies[0].gains, sol.policy.policies[1].gains, atol=1e-14
        )
        npt.assert_array_equal(sol.policy.policies[0].covs, sol.policy.policies[1].covs)

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
        assert lq.contraction_modulus(spec, 0, np.ones((2, 1, 1))) == pytest.approx(1.0)
        spec4 = symmetric_two_agent_scalar(tau=4.0)
        assert lq.contraction_modulus(spec4, 0, np.ones((2, 1, 1))) == pytest.approx(0.5)

    def test_norms_of_huge_tails_stay_finite(self):
        # squaring 1e160 overflows; the norm itself is finite
        spec = symmetric_two_agent_scalar(tau=2.0)
        tails = np.array([[[3e160]], [[-4e160]]])
        assert lq.contraction_modulus(spec, 0, tails) == pytest.approx(4e160, rel=1e-15)
        sol = dataclasses.replace(lq.exact_ne(spec), riccati=np.full((2, 2, 2, 2), 1e160))
        assert lq.check_assumption_tau(spec, sol).gamma_P == pytest.approx(2e160, rel=1e-15)

    def test_single_agent_modulus_zero(self, scalar_game):
        assert lq.contraction_modulus(scalar_game, 0, np.ones((1, 1, 1))) == 0.0

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

    def test_tail_values_match_lyapunov(self):
        spec = lq.random_game(2, 4, 2, 1, seed=13, scale=0.5)
        sol = lq.exact_ne(spec)
        spec = with_tau(spec, 10.0 * lq.check_assumption_tau(spec, sol).threshold)
        report = lq.po_solve(spec, inner_iters=100, stop_tol=1e-12)
        assert report.condition is not None
        check = max(
            np.linalg.norm(lq.lyapunov_backward(spec, report.policy, i), axis=(1, 2)).max()
            for i in range(2)
        )
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
        with pytest.raises(ValueError):
            lq.delta_augment_solve(spec, delta_init=0.0)
        with pytest.raises(ValueError):
            lq.delta_augment_solve(spec, delta_init=0.1, growth=1.0)
        with pytest.raises(ValueError):
            lq.delta_augment_solve(spec, delta_init=0.1, max_rounds=0)
