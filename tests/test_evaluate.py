import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import lqnash as lq
from lqnash import evaluate
from lqnash._rollout import rollout

from conftest import random_pd_policy, with_tau


def scalar_rest_policy():
    """K = 0, action variance 1 for the 1-D single-agent game."""
    return lq.joint_policy_from_arrays(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))


class TestValueCertificate:
    def test_scalar_hand_recursion(self, scalar_game):
        cert = lq.value_certificate(scalar_game, scalar_rest_policy())
        agent = cert.agents[0]
        npt.assert_allclose(agent.P[0], [[2.0]], rtol=1e-15)
        npt.assert_allclose(agent.q[0], 2.0, rtol=1e-15)
        assert agent.value_at(np.array([3.0])) == pytest.approx(2 * 9 + 2)
        assert agent.expected_cost == pytest.approx(4.0)  # x0 = 1, no initial spread

    def test_matches_equilibrium_recursions(self):
        spec = lq.random_game(3, 4, 3, 2, seed=21, scale=0.5)
        sol = lq.exact_ne(spec)
        cert = lq.value_certificate(spec, sol.policy)
        for i in range(3):
            npt.assert_allclose(cert.agents[i].P, sol.riccati[i], atol=1e-10)
            npt.assert_allclose(cert.agents[i].q, sol.offsets[i], atol=1e-10)

    def test_entropy_terms_only(self):
        # no inputs, no noise, zero start: only own-action traces and entropy remain
        rng = np.random.default_rng(22)
        base = lq.random_game(2, 3, 2, 2, seed=22, scale=0.5)
        spec = lq.validate_game_spec(
            dataclasses.replace(
                base,
                B=np.zeros_like(base.B),
                noise_cov=np.zeros((2, 2)),
                init_mean=np.zeros(2),
                init_cov=np.zeros((2, 2)),
            )
        )
        joint = lq.joint_policy_from_arrays(
            np.zeros((2, 3, 2, 2)), np.broadcast_to(np.eye(2), (2, 3, 2, 2)).copy()
        )
        cert = lq.value_certificate(spec, joint)
        for i in range(2):
            expected = sum(
                np.trace(0.5 * spec.tau * np.eye(2) + spec.R[i, t]) - 0.5 * spec.tau * 2
                for t in range(3)
            )
            assert cert.agents[i].expected_cost == pytest.approx(expected, rel=1e-12)

    def test_non_pd_policy_cov_rejected(self, scalar_game):
        joint = lq.joint_policy_from_arrays(np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="positive definite"):
            lq.value_certificate(scalar_game, joint)

    def test_expected_cost_decomposition(self):
        spec = lq.random_game(2, 3, 2, 1, seed=23, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(24))
        cert = lq.value_certificate(spec, joint)
        for agent in cert.agents:
            averaged = agent.value_at(spec.init_mean) + float(
                np.trace(spec.init_cov @ agent.P[0])
            )
            assert agent.expected_cost == pytest.approx(averaged, rel=1e-12)


class TestExploitability:
    def test_zero_at_equilibrium(self, scalar_game):
        sol = lq.exact_ne(scalar_game)
        gaps = lq.exploitability(scalar_game, sol.policy)
        assert np.all(np.abs(gaps) <= 1e-8)

    def test_positive_off_equilibrium(self, scalar_game):
        gaps = lq.exploitability(scalar_game, scalar_rest_policy())
        assert gaps[0] > 1e-3

    def test_nonnegative_on_random_policies(self):
        spec = lq.random_game(2, 3, 2, 2, seed=25, scale=0.5)
        rng = np.random.default_rng(26)
        for _ in range(10):
            gaps = lq.exploitability(spec, random_pd_policy(spec, rng))
            assert np.all(gaps >= -1e-9)


class TestPolicyDistance:
    def test_identity(self):
        spec = lq.random_game(2, 3, 2, 1, seed=27, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(28))
        assert lq.policy_distance(joint, joint) == 0.0

    def test_identity_gain_offset(self):
        a = lq.joint_policy_from_arrays(np.zeros((1, 1, 2, 2)), np.eye(2)[None, None])
        b = lq.joint_policy_from_arrays(np.eye(2)[None, None], np.eye(2)[None, None])
        assert lq.policy_distance(a, b) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_metric_properties(self):
        spec = lq.random_game(2, 3, 2, 2, seed=29, scale=0.5)
        rng = np.random.default_rng(30)
        for _ in range(100):
            a = random_pd_policy(spec, rng)
            b = random_pd_policy(spec, rng)
            c = random_pd_policy(spec, rng)
            dab = lq.policy_distance(a, b)
            assert dab == pytest.approx(lq.policy_distance(b, a), abs=1e-15)
            assert lq.policy_distance(a, c) <= dab + lq.policy_distance(b, c) + 1e-12

    def test_stage_selection_sums_to_total(self):
        spec = lq.random_game(2, 3, 2, 1, seed=31, scale=0.5)
        rng = np.random.default_rng(32)
        a = random_pd_policy(spec, rng)
        b = random_pd_policy(spec, rng)
        total = sum(lq.policy_distance(a, b, t=t) for t in range(3))
        assert total == pytest.approx(lq.policy_distance(a, b), rel=1e-12)

    def test_shape_mismatch(self):
        a = lq.joint_policy_from_arrays(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        b = lq.joint_policy_from_arrays(np.zeros((1, 2, 1, 1)), np.ones((1, 2, 1, 1)))
        with pytest.raises(ValueError, match="mismatch"):
            lq.policy_distance(a, b)


class TestSimulate:
    def test_deterministic_in_seed(self, scalar_game):
        joint = scalar_rest_policy()
        a = lq.simulate(scalar_game, joint, 500, seed=42)
        b = lq.simulate(scalar_game, joint, 500, seed=42)
        npt.assert_array_equal(a.states, b.states)
        npt.assert_array_equal(a.actions, b.actions)
        npt.assert_array_equal(a.costs, b.costs)
        c = lq.simulate(scalar_game, joint, 500, seed=43)
        assert not np.array_equal(a.costs, c.costs)

    def test_trajectory_prefix_independent_of_batch_size(self, scalar_game):
        joint = scalar_rest_policy()
        small = lq.simulate(scalar_game, joint, 100, seed=7)
        large = lq.simulate(scalar_game, joint, 300, seed=7)
        npt.assert_array_equal(small.costs, large.costs[:100])

    def test_near_deterministic_policy_matches_certificate(self, scalar_game):
        joint = lq.joint_policy_from_arrays(
            np.full((1, 1, 1, 1), -1 / 3), np.full((1, 1, 1, 1), 1e-12)
        )
        cert = lq.value_certificate(scalar_game, joint)
        result = lq.simulate(scalar_game, joint, 20_000, seed=0)
        # the pointwise regularizer keeps chi-square sampling noise even as
        # the action covariance vanishes, so agreement is statistical
        assert abs(result.mean_costs[0] - cert.agents[0].expected_cost) <= 3 * result.std_errors[0]
        # everything except the regularizer is deterministic here: the
        # quadratic part of every realized cost matches the noiseless rollout
        x0 = result.states[:, 0, 0]
        u0 = result.actions[:, 0, 0, 0]
        x1 = result.states[:, 1, 0]
        quad = x0**2 + u0**2 + x1**2
        det = 1.0 + (1 / 3) ** 2 + (1 - 1 / 3) ** 2
        npt.assert_allclose(quad, det, atol=1e-5)

    def test_mc_matches_certificate_scalar_example(self, scalar_game):
        joint = scalar_rest_policy()
        result = lq.simulate(scalar_game, joint, 100_000, seed=1)
        assert abs(result.mean_costs[0] - 4.0) <= 3.0 * result.std_errors[0]

    def test_kl_term_sampling_unbiased(self):
        # state costs ~ 0 leave only the regularizer; compare against the
        # analytic entropy expectation via forward second-moment propagation
        text = (
            '{"num_agents": 1, "horizon": 3, "state_dim": 1, "action_dim": 1,'
            ' "tau": 2, "A": 1.1, "B": 0.8, "Q": 0, "R": 1e-12,'
            ' "noise_cov": 0.3, "init_mean": 0.7, "init_cov": 0.2}'
        )
        spec = lq.load_game_spec(text)
        K, cov = 0.4, 0.6
        joint = lq.joint_policy_from_arrays(
            np.full((1, 3, 1, 1), K), np.full((1, 3, 1, 1), cov)
        )
        second_moment = spec.init_cov[0, 0] + spec.init_mean[0] ** 2
        analytic = 0.0
        for _ in range(3):
            analytic += 0.5 * spec.tau * (K**2 * second_moment + cov - 1 - np.log(cov))
            closed = spec.A[0, 0, 0] + spec.B[0, 0, 0, 0] * K
            second_moment = (
                closed**2 * second_moment
                + spec.noise_cov[0, 0]
                + spec.B[0, 0, 0, 0] ** 2 * cov
            )
        result = lq.simulate(spec, joint, 40_000, seed=5)
        assert abs(result.mean_costs[0] - analytic) <= 3.0 * result.std_errors[0] + 1e-6

    def test_states_satisfy_dynamics_exactly(self):
        base = lq.random_game(2, 3, 2, 1, seed=33, scale=0.5)
        spec = lq.validate_game_spec(dataclasses.replace(base, noise_cov=np.zeros((2, 2))))
        joint = random_pd_policy(spec, np.random.default_rng(34))
        result = lq.simulate(spec, joint, 50, seed=3)
        # noiseless: recorded states recompute from recorded actions (up to
        # accumulation-order round-off between kernel and this check)
        for r in range(result.states.shape[0]):
            x = result.states[r, 0]
            for t in range(spec.horizon):
                drift = spec.A[t] @ x
                for i in range(spec.num_agents):
                    drift = drift + spec.B[i, t] @ result.actions[r, t, i]
                npt.assert_allclose(result.states[r, t + 1], drift, atol=1e-13)
                x = result.states[r, t + 1]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_fresh_generator_per_trajectory(self, seed):
        # reference: a new Philox(key=[seed, r]) per trajectory, the same
        # transforms, and the same kernel
        spec = lq.random_game(2, 3, 3, 2, seed=60, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(61))
        n_traj = 150
        n, T, m, p = spec.num_agents, spec.horizon, spec.state_dim, spec.action_dim
        normals = np.empty((n_traj, m + T * (n * p + m)))
        for r in range(n_traj):
            bit_gen = np.random.Philox(key=np.array([seed, r], dtype=np.uint64))
            normals[r] = np.random.Generator(bit_gen).standard_normal(normals.shape[1])
        rest = normals[:, m:].reshape(n_traj, T, n * p + m)
        x0s = spec.init_mean + normals[:, :m] @ evaluate._psd_factor(spec.init_cov).T
        omegas = rest[:, :, n * p :] @ evaluate._psd_factor(spec.noise_cov).T
        chol, logdets = evaluate._policy_cholesky(lq.stack_covs(joint))
        states, actions, costs = rollout(
            spec.A, spec.B, spec.Q, spec.R, lq.stack_gains(joint), chol, logdets, spec.tau,
            x0s, rest[:, :, : n * p].reshape(n_traj, T, n, p), omegas,
        )
        result = lq.simulate(spec, joint, n_traj, seed)
        npt.assert_array_equal(result.states, states)
        npt.assert_array_equal(result.actions, actions)
        npt.assert_array_equal(result.costs, costs)

    def test_bad_arguments(self, scalar_game):
        joint = scalar_rest_policy()
        with pytest.raises(ValueError, match="n_traj"):
            lq.simulate(scalar_game, joint, 0, seed=0)
        bad = lq.joint_policy_from_arrays(np.zeros((1, 1, 1, 1)), np.full((1, 1, 1, 1), -1.0))
        with pytest.raises(ValueError, match="positive definite"):
            lq.simulate(scalar_game, bad, 10, seed=0)
