import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import lqnash as lq
from lqnash import control

from conftest import random_pd_policy, stage_response


def grid_minimizer_1d(M, b, tau, mean_range=(-3, 3), var_range=(1e-3, 3), points=2001):
    """Independent oracle: brute-force the closed-form Gaussian objective."""
    means = np.linspace(*mean_range, points)
    varis = np.linspace(*var_range, points)
    mm, vv = np.meshgrid(means, varis, indexing="ij")
    f = M * vv + M * mm**2 + b * mm + tau * 0.5 * (mm**2 + vv - 1 - np.log(vv))
    i, j = np.unravel_index(np.argmin(f), f.shape)
    return means[i], varis[j]


def random_quadratic(rng, p):
    g = rng.uniform(-1.0, 1.0, (p, p))
    return lq.StageQuadratic(M=g.T @ g, b=rng.uniform(-1.0, 1.0, p), tau=rng.uniform(0.5, 4.0))


class TestEntropyQuadraticMinimizer:
    def test_prior_alone(self):
        g = lq.entropy_quadratic_minimizer(
            lq.StageQuadratic(M=np.zeros((1, 1)), b=np.zeros(1), tau=1.0)
        )
        npt.assert_allclose(g.mean, [0.0], atol=0)
        npt.assert_allclose(g.cov, [[1.0]], atol=0)

    def test_zero_linear_term(self):
        g = lq.entropy_quadratic_minimizer(
            lq.StageQuadratic(M=np.array([[1.0]]), b=np.zeros(1), tau=2.0)
        )
        npt.assert_allclose(g.mean, [0.0], atol=0)
        npt.assert_allclose(g.cov, [[0.5]], rtol=1e-15)

    def test_against_grid_oracle(self):
        # settles the closed form: mean -(2M + tau I)^{-1} b, cov (I + 2M/tau)^{-1}
        g = lq.entropy_quadratic_minimizer(
            lq.StageQuadratic(M=np.array([[0.5]]), b=np.array([2.0]), tau=1.0)
        )
        npt.assert_allclose(g.mean, [-1.0], rtol=1e-14)
        npt.assert_allclose(g.cov, [[0.5]], rtol=1e-14)
        grid_mean, grid_var = grid_minimizer_1d(0.5, 2.0, 1.0)
        assert abs(grid_mean - g.mean[0]) < 5e-3
        assert abs(grid_var - g.cov[0, 0]) < 5e-3

    def test_cov_bounded_by_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = random_quadratic(rng, rng.integers(1, 5))
            g = lq.entropy_quadratic_minimizer(q)
            eig = np.linalg.eigvalsh(g.cov)
            assert eig[0] > 0
            assert eig[-1] <= 1.0 + 1e-12


class TestKL:
    def test_identical_distributions(self):
        g = lq.GaussianPolicyParams(mean=np.zeros(2), cov=np.eye(2))
        assert lq.kl_gaussian_to_standard(g) == 0.0

    def test_mean_shift_only(self):
        g = lq.GaussianPolicyParams(mean=np.ones(1), cov=np.eye(1))
        npt.assert_allclose(lq.kl_gaussian_to_standard(g), 0.5, rtol=1e-15)

    def test_against_quadrature_oracle(self):
        g = lq.GaussianPolicyParams(mean=np.zeros(1), cov=np.array([[0.5]]))
        value = lq.kl_gaussian_to_standard(g)
        npt.assert_allclose(value, 0.09657359027997265, rtol=1e-12)
        # independent check: trapezoid quadrature of the defining integral
        u = np.linspace(-12, 12, 400001)
        log_pi = -0.5 * np.log(2 * np.pi * 0.5) - u**2 / (2 * 0.5)
        log_mu = -0.5 * np.log(2 * np.pi) - u**2 / 2
        quad = np.trapezoid(np.exp(log_pi) * (log_pi - log_mu), u)
        npt.assert_allclose(value, quad, atol=1e-10)

    def test_non_pd_cov_rejected(self):
        g = lq.GaussianPolicyParams(mean=np.zeros(1), cov=np.array([[-0.5]]))
        with pytest.raises(ValueError, match="positive definite"):
            lq.kl_gaussian_to_standard(g)

    def test_nonnegative_zero_only_at_standard(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = int(rng.integers(1, 4))
            mean = rng.normal(0, 1, p)
            g0 = rng.normal(0, 1, (p, p))
            cov = g0.T @ g0 + 0.05 * np.eye(p)
            value = lq.kl_gaussian_to_standard(lq.GaussianPolicyParams(mean, cov))
            assert value >= 0.0
            off_standard = np.linalg.norm(mean) + np.linalg.norm(cov - np.eye(p))
            if value < 1e-12:
                assert off_standard < 1e-5


class TestStageObjective:
    def test_all_terms_vanish(self):
        q = lq.StageQuadratic(M=np.zeros((2, 2)), b=np.zeros(2), tau=1.0)
        g = lq.GaussianPolicyParams(mean=np.zeros(2), cov=np.eye(2))
        assert lq.stage_objective(q, g) == 0.0

    def test_trace_term_only(self):
        q = lq.StageQuadratic(M=np.array([[1.0]]), b=np.zeros(1), tau=2.0)
        g = lq.GaussianPolicyParams(mean=np.zeros(1), cov=np.eye(1))
        npt.assert_allclose(lq.stage_objective(q, g), 1.0, rtol=1e-15)

    def test_dimension_mismatch(self):
        q = lq.StageQuadratic(M=np.eye(2), b=np.zeros(2), tau=1.0)
        g = lq.GaussianPolicyParams(mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            lq.stage_objective(q, g)

    def test_minimizer_beats_perturbations(self):
        q = lq.StageQuadratic(M=np.array([[0.5]]), b=np.array([2.0]), tau=1.0)
        g = lq.entropy_quadratic_minimizer(q)
        npt.assert_allclose(g.mean, [-1.0], rtol=1e-14)
        best = lq.stage_objective(q, g)
        rng = np.random.default_rng(2)
        for _ in range(100):
            mean = g.mean + rng.normal(0, 1e-2, 1)
            cov = g.cov + abs(rng.normal(0, 1e-2))
            assert best <= lq.stage_objective(q, lq.GaussianPolicyParams(mean, cov)) + 1e-12

    def test_stationary_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = int(rng.integers(1, 4))
            q = random_quadratic(rng, p)
            g = lq.entropy_quadratic_minimizer(q)
            step = 1e-6
            grad = np.empty(p)
            for k in range(p):
                delta = np.zeros(p)
                delta[k] = step
                up = lq.stage_objective(q, lq.GaussianPolicyParams(g.mean + delta, g.cov))
                dn = lq.stage_objective(q, lq.GaussianPolicyParams(g.mean - delta, g.cov))
                grad[k] = (up - dn) / (2 * step)
            assert np.linalg.norm(grad) <= 1e-9


class TestLyapunovBackward:
    def test_scalar_accumulation(self):
        spec = lq.load_game_spec(
            '{"num_agents": 1, "horizon": 2, "state_dim": 1, "action_dim": 1, "tau": 2,'
            ' "A": 1, "B": 1, "Q": 1, "R": 1,'
            ' "noise_cov": 0, "init_mean": 0, "init_cov": 0}'
        )
        P = control.lyapunov_values(spec, np.zeros((1, 2, 1, 1)))[0]
        npt.assert_allclose(P[:, 0, 0], [3.0, 2.0, 1.0], rtol=1e-15)

    def test_zero_opponent_gains_match_single_agent(self):
        one = lq.random_game(1, 3, 2, 1, seed=5, scale=0.6)
        rng = np.random.default_rng(6)
        own_gains = rng.normal(0, 0.3, (3, 1, 2))
        # two-agent copy whose second agent has zero gains
        two = dataclasses.replace(
            one,
            num_agents=2,
            B=np.concatenate([one.B, one.B * 0.5]),
            Q=np.concatenate([one.Q, one.Q]),
            R=np.concatenate([one.R, one.R]),
        )
        two = lq.validate_game_spec(two)
        npt.assert_array_equal(
            control.lyapunov_values(one, own_gains[None])[0],
            control.lyapunov_values(two, np.stack([own_gains, np.zeros_like(own_gains)]))[0],
        )

    def test_ne_gains_reproduce_riccati(self):
        spec = lq.random_game(2, 4, 2, 1, seed=7, scale=0.5)
        sol = lq.exact_ne(spec)
        npt.assert_allclose(control.lyapunov_values(spec, sol.policy.gains), sol.riccati, atol=1e-10)

    def test_symmetric_psd_outputs(self):
        spec = lq.random_game(3, 4, 3, 2, seed=8, scale=0.5)
        rng = np.random.default_rng(9)
        P = control.lyapunov_values(spec, rng.normal(0, 0.4, (3, 4, 2, 3)))
        npt.assert_allclose(P, P.swapaxes(-1, -2), atol=1e-12)
        assert np.linalg.eigvalsh(P)[..., 0].min() >= -1e-10


class TestBestResponseStage:
    def test_scalar_hand_value(self, scalar_game):
        gain, cov = stage_response(scalar_game, np.zeros((1, 1, 1)), np.eye(1), 0, agents=0)
        npt.assert_allclose(gain, [[-1 / 3]], rtol=1e-15)
        npt.assert_allclose(cov, [[1 / 3]], rtol=1e-15)
        # cross-check against the stage minimizer with M = R + B'PB, b = 2 B'PA x at x=1
        q = lq.StageQuadratic(M=np.array([[2.0]]), b=np.array([2.0]), tau=2.0)
        g = lq.entropy_quadratic_minimizer(q)
        npt.assert_allclose(g.mean, gain @ np.array([1.0]), rtol=1e-14)
        npt.assert_allclose(g.cov, cov, rtol=1e-14)

    def test_zero_tail_zero_gain(self):
        spec = lq.random_game(2, 2, 2, 2, seed=11, scale=0.7)
        rng = np.random.default_rng(12)
        others = rng.normal(0, 1, (2, 2, 2))
        gain, cov = stage_response(spec, others, np.zeros((2, 2)), 1, agents=0)
        npt.assert_array_equal(gain, np.zeros((2, 2)))
        expected = np.linalg.inv(np.eye(2) + 2 * spec.R[0, 1] / spec.tau)
        npt.assert_allclose(cov, expected, atol=1e-14)

    def test_opponent_cancels_drift(self, scalar_game):
        # opponent gain drives A + sum B^j K^j to zero => zero own gain
        spec = scalar_game
        two = dataclasses.replace(
            spec,
            num_agents=2,
            B=np.concatenate([spec.B, spec.B]),
            Q=np.concatenate([spec.Q, spec.Q]),
            R=np.concatenate([spec.R, spec.R]),
        )
        two = lq.validate_game_spec(two)
        gain, _ = stage_response(two, np.array([[[0.0]], [[-1.0]]]), np.eye(1), 0, agents=0)
        npt.assert_allclose(gain, [[0.0]], atol=1e-15)

    def test_cov_strictly_inside_unit_ball(self):
        spec = lq.random_game(3, 3, 2, 2, seed=13, scale=0.8)
        rng = np.random.default_rng(14)
        g0 = rng.normal(0, 1, (2, 2))
        P_next = g0.T @ g0
        gains_t = rng.normal(0, 0.5, (3, 2, 2))
        _, cov = stage_response(spec, gains_t, P_next, 2, agents=1)
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] > 0
        assert eig[-1] < 1.0


class TestBestResponseFull:
    def test_single_agent_matches_stagewise_riccati(self):
        spec = lq.random_game(1, 4, 2, 2, seed=15, scale=0.6)
        joint = lq.JointPolicy(
            np.zeros((1, 4, 2, 2)), np.broadcast_to(np.eye(2), (1, 4, 2, 2)).copy()
        )
        policy, value = lq.best_response_full(spec, joint, 0)
        # oracle: the single-stage response driven backward with its own Riccati tail
        P = spec.Q[0, 4]
        for t in range(3, -1, -1):
            gain, cov = stage_response(spec, joint.gains[:, t], P, t, agents=0)
            npt.assert_allclose(policy.gains[t], gain, atol=1e-12)
            npt.assert_allclose(policy.covs[t], cov, atol=1e-12)
            closed = spec.A[t] + spec.B[0, t] @ gain
            P = (
                spec.Q[0, t]
                + gain.T @ (0.5 * spec.tau * np.eye(2) + spec.R[0, t]) @ gain
                + closed.T @ P @ closed
            )
            npt.assert_allclose(value.P[t], P, atol=1e-10)

    def test_opponent_noise_folds_into_process_noise(self):
        base = lq.random_game(2, 3, 2, 1, seed=16, scale=0.6)
        # stage-constant inputs so the opponent's action noise can merge
        # into a single process-noise matrix
        spec = lq.validate_game_spec(
            dataclasses.replace(base, B=np.repeat(base.B[:, :1], 3, axis=1))
        )
        joint = lq.JointPolicy(
            np.zeros((2, 3, 1, 2)), np.broadcast_to(np.eye(1), (2, 3, 1, 1)).copy()
        )
        policy, value = lq.best_response_full(spec, joint, 0)

        merged = spec.noise_cov + spec.B[1, 0] @ spec.B[1, 0].T
        solo = lq.validate_game_spec(
            dataclasses.replace(
                spec,
                num_agents=1,
                B=spec.B[:1],
                Q=spec.Q[:1],
                R=spec.R[:1],
                noise_cov=0.5 * (merged + merged.T),
            )
        )
        solo_joint = lq.JointPolicy(
            np.zeros((1, 3, 1, 2)), np.broadcast_to(np.eye(1), (1, 3, 1, 1)).copy()
        )
        solo_policy, solo_value = lq.best_response_full(solo, solo_joint, 0)
        npt.assert_array_equal(policy.gains, solo_policy.gains)
        npt.assert_allclose(value.q, solo_value.q, atol=1e-10)

    def test_fixed_point_at_equilibrium(self):
        spec = lq.random_game(3, 3, 2, 1, seed=17, scale=0.4).with_tau(5.0)
        sol = lq.exact_ne(spec)
        for i in range(3):
            policy, value = lq.best_response_full(spec, sol.policy, i)
            npt.assert_allclose(policy.gains, sol.policy.gains[i], atol=1e-9)
            npt.assert_allclose(policy.covs, sol.policy.covs[i], atol=1e-9)
            npt.assert_allclose(value.P, sol.riccati[i], atol=1e-9)
            npt.assert_allclose(value.q, sol.offsets[i], atol=1e-9)

    def test_improvement_property(self):
        spec = lq.random_game(2, 4, 2, 2, seed=18, scale=0.5)
        rng = np.random.default_rng(19)
        joint = random_pd_policy(spec, rng)
        base = lq.value_certificate(spec, joint)
        for i in range(2):
            _, improved = lq.best_response_full(spec, joint, i)
            assert improved.expected_cost <= base.agents[i].expected_cost + 1e-10

    def test_non_pd_opponent_cov_rejected(self):
        spec = lq.random_game(2, 2, 2, 1, seed=20, scale=0.5)
        joint = lq.JointPolicy(
            np.zeros((2, 2, 1, 2)), np.zeros((2, 2, 1, 1))
        )
        with pytest.raises(ValueError, match="positive definite"):
            lq.best_response_full(spec, joint, 0)

    def test_non_pd_opponent_cov_names_first_agent_and_stage(self):
        spec = lq.random_game(4, 10, 2, 2, seed=21, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(22))
        gains, covs = joint.gains, joint.covs.copy()
        covs[2, 7] = np.diag([1.0, -1.0])
        covs[2, 9] = np.zeros((2, 2))
        covs[3, 1] = -np.eye(2)
        joint = lq.JointPolicy(gains, covs)
        with pytest.raises(ValueError) as err:
            lq.best_response_full(spec, joint, 0)
        assert str(err.value) == "opponent covariance not positive definite (agent 2, stage 7)"
        # the responding agent's own covariances are not checked
        with pytest.raises(ValueError, match=r"\(agent 3, stage 1\)"):
            lq.best_response_full(spec, joint, 2)
