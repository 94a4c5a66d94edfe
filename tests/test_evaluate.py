import dataclasses
import time
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import lqnash as lq
from lqnash import evaluate
from lqnash._rollout import rollout

from conftest import overflowing_policies, random_pd_policy, with_tau


def scalar_rest_policy():
    """K = 0, action variance 1 for the 1-D single-agent game."""
    return lq.JointPolicy(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))


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

    def test_stacked_arrays_with_per_agent_views(self):
        spec = lq.random_game(3, 4, 3, 2, seed=21, scale=0.5)
        cert = lq.value_certificate(spec, random_pd_policy(spec, np.random.default_rng(5)))
        assert cert.P.shape == (3, 5, 3, 3) and cert.q.shape == (3, 5) and cert.expected_costs.shape == (3,)
        for i, agent in enumerate(cert.agents):
            assert np.shares_memory(agent.P, cert.P) and np.shares_memory(agent.q, cert.q)
            npt.assert_array_equal(agent.P, cert.P[i])
            assert agent.expected_cost == cert.expected_costs[i]

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
        joint = lq.JointPolicy(
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
        joint = lq.JointPolicy(np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)))
        with pytest.raises(ValueError, match="positive definite"):
            lq.value_certificate(scalar_game, joint)

    @pytest.mark.parametrize(
        "n,T,p", [(3, 10, 2), (20, 50, 2), (3, 400, 2), (2, 5, 5), (4, 6, 1), (2, 3, 9)]
    )
    def test_policy_cholesky_matches_per_matrix_loop(self, n, T, p):
        g = np.random.default_rng(n * T + p).normal(size=(n, T, p, p))
        covs = np.einsum("...ji,...jk->...ik", g, g) + 0.1 * np.eye(p)
        chol, logdets = evaluate._policy_cholesky(covs)
        for i in range(n):
            for t in range(T):
                factor = np.linalg.cholesky(covs[i, t])
                npt.assert_array_equal(chol[i, t], factor)
                assert logdets[i, t] == 2.0 * float(np.sum(np.log(np.diag(factor))))

    def test_policy_cholesky_names_first_failure(self):
        covs = np.broadcast_to(np.eye(2), (3, 5, 2, 2)).copy()
        covs[1, 3] = np.diag([1.0, -1.0])
        covs[2, 0] = np.zeros((2, 2))
        with pytest.raises(ValueError) as err:
            evaluate._policy_cholesky(covs)
        assert str(err.value) == "policy covariance not positive definite (agent 1, stage 3)"

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
        a = lq.JointPolicy(np.zeros((1, 1, 2, 2)), np.eye(2)[None, None])
        b = lq.JointPolicy(np.eye(2)[None, None], np.eye(2)[None, None])
        assert lq.policy_distance(a, b) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_huge_difference_without_overflow(self):
        covs = np.full((2, 3, 1, 1), 0.5)
        a = lq.JointPolicy(np.zeros((2, 3, 1, 2)), covs)
        gains = np.zeros((2, 3, 1, 2))
        gains[1, 2, 0, 1] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lq.policy_distance(a, lq.JointPolicy(gains, covs)) == 1e200

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

    def test_numpy_integer_stage_accepted(self):
        spec = lq.random_game(2, 3, 2, 1, seed=31, scale=0.5)
        rng = np.random.default_rng(32)
        a = random_pd_policy(spec, rng)
        b = random_pd_policy(spec, rng)
        for t in (np.int64(2), np.uint8(2)):
            assert lq.policy_distance(a, b, t=t) == lq.policy_distance(a, b, t=2)

    @pytest.mark.parametrize("t", [-1, 3, 2**64, True, False, 1.0, "1", np.float64(2.0)])
    def test_bad_stage_rejected(self, t):
        spec = lq.random_game(2, 3, 2, 1, seed=31, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(32))
        with pytest.raises(ValueError, match="t must be an integer stage in \\[0, 3\\)"):
            lq.policy_distance(joint, joint, t=t)

    def test_shape_mismatch(self):
        a = lq.JointPolicy(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))
        b = lq.JointPolicy(np.zeros((1, 2, 1, 1)), np.ones((1, 2, 1, 1)))
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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_in_64_bits(self, scalar_game, seed):
        with pytest.raises(ValueError, match="^seed must fit in 64 bits$"):
            lq.simulate(scalar_game, scalar_rest_policy(), 10, seed=seed)

    def test_trajectory_prefix_independent_of_batch_size(self, scalar_game):
        joint = scalar_rest_policy()
        small = lq.simulate(scalar_game, joint, 100, seed=7)
        large = lq.simulate(scalar_game, joint, 300, seed=7)
        npt.assert_array_equal(small.costs, large.costs[:100])

    def test_near_deterministic_policy_matches_certificate(self, scalar_game):
        joint = lq.JointPolicy(
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
        joint = lq.JointPolicy(
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

    @pytest.mark.parametrize("seed, p", [
        pytest.param(seed, p, id=str(seed) if p == 2 else f"{seed}-p{p}")  # p = 2 keeps its plain ids
        for seed in (0, 2**64 - 1) for p in (2, 1, 3)
    ])
    def test_matches_fresh_generator_per_trajectory(self, seed, p, monkeypatch):
        # reference: a new Philox(key=[seed, r]) per trajectory, the same
        # transforms, and one whole-run kernel call fed stage-major views of
        # the trajectory-major draws.  Every shorter run is a prefix of it.
        # The largest count spans two sampling chunks; chunks of 1 and 7
        # cut every run into many kernel calls, with partial last chunks and
        # lone trajectories (which numpy would send to gemv).  simulate
        # moves each agent's p action normals as one item, so p varies.
        spec = lq.random_game(2, 3, 3, p, seed=60, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(61))
        n, T, m, p = spec.num_agents, spec.horizon, spec.state_dim, spec.action_dim
        chol, logdets = evaluate._policy_cholesky(joint.covs)
        default = evaluate._DRAW_CHUNK
        total = default + 37
        normals = np.empty((total, m + T * (n * p + m)))
        for r in range(total):
            bit_gen = np.random.Philox(key=np.array([seed, r], dtype=np.uint64))
            normals[r] = np.random.Generator(bit_gen).standard_normal(normals.shape[1])
        rest = normals[:, m:].reshape(total, T, n * p + m)
        x0s = spec.init_mean + normals[:, :m] @ evaluate._psd_factor(spec.init_cov).T
        omegas = rest[:, :, n * p :] @ evaluate._psd_factor(spec.noise_cov).T
        xis = rest[:, :, : n * p].reshape(total, T, n, p)
        states, actions, costs = _whole_run(
            spec.A, spec.B, spec.Q, spec.R, joint.gains, chol, logdets, spec.tau,
            x0s, xis.transpose(1, 2, 0, 3), omegas.transpose(1, 0, 2),
        )
        for chunk in (default, 1, 7):
            monkeypatch.setattr(evaluate, "_DRAW_CHUNK", chunk)
            for n_traj in (150, 1, 15, total):
                result = lq.simulate(spec, joint, n_traj, seed)
                npt.assert_array_equal(result.states, states[:n_traj])
                npt.assert_array_equal(result.actions, actions[:n_traj])
                npt.assert_array_equal(result.costs, costs[:n_traj])

    def test_working_memory_bounded_by_chunk(self):
        # Beyond its own outputs, simulate holds one chunk's draws and the
        # kernel's per-stage temporaries, whatever the trajectory count;
        # whole-run draw arrays would add 19 MB here.
        spec = lq.random_game(3, 10, 4, 2, seed=64, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(65))
        n_traj = 20_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = lq.simulate(spec, joint, n_traj, seed=11)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        outputs = sum(
            getattr(result, f.name).nbytes for f in dataclasses.fields(lq.SimulationResult)
        )
        assert peak <= outputs + 6 * 2**20

    def test_outputs_c_contiguous_with_documented_shapes(self):
        # the kernel reads its draws stage-major; none of that layout may
        # leak into the arrays handed back
        spec = lq.random_game(2, 3, 3, 2, seed=62, scale=0.5)
        joint = random_pd_policy(spec, np.random.default_rng(63))
        for n_traj in (1, 40):
            result = lq.simulate(spec, joint, n_traj, seed=9)
            expected = {
                "states": (n_traj, 4, 3),
                "actions": (n_traj, 3, 2, 2),
                "costs": (n_traj, 2),
                "mean_costs": (2,),
                "std_errors": (2,),
            }
            for name, shape in expected.items():
                arr = getattr(result, name)
                assert arr.shape == shape, name
                assert arr.flags.c_contiguous, name

    @pytest.mark.parametrize("name", ["n_traj", "seed"])
    @pytest.mark.parametrize("value", [True, 1.7, 3.0, "3"])
    def test_non_integer_counts_rejected(self, scalar_game, name, value):
        args = {"n_traj": 5, "seed": 1, name: value}
        with pytest.raises(ValueError, match=name):
            lq.simulate(scalar_game, scalar_rest_policy(), **args)

    def test_numpy_integer_counts_accepted(self, scalar_game):
        joint = scalar_rest_policy()
        plain = lq.simulate(scalar_game, joint, 20, seed=2**64 - 1)
        for n_traj, seed in ((np.int64(20), np.uint64(2**64 - 1)), (np.uint8(20), 2**64 - 1)):
            result = lq.simulate(scalar_game, joint, n_traj, seed)
            npt.assert_array_equal(result.costs, plain.costs)

    def test_bad_arguments(self, scalar_game):
        joint = scalar_rest_policy()
        with pytest.raises(ValueError, match="n_traj"):
            lq.simulate(scalar_game, joint, 0, seed=0)
        bad = lq.JointPolicy(np.zeros((1, 1, 1, 1)), np.full((1, 1, 1, 1), -1.0))
        with pytest.raises(ValueError, match="positive definite"):
            lq.simulate(scalar_game, bad, 10, seed=0)


def _grid(x):
    """Round to multiples of 1/8.  Sums and products of a few such numbers
    are exact in binary floating point, so states and actions built from
    them cannot depend on the order or fusing of the arithmetic."""
    return np.round(np.asarray(x) * 8.0) / 8.0


def _whole_run(A, B, Q, R, K, L, logdets, tau, x0s, xis, omegas):
    """One kernel call over all trajectories, into fresh outputs."""
    n_traj, m = x0s.shape
    T, N, p = A.shape[0], B.shape[0], K.shape[2]
    outputs = np.empty((n_traj, T + 1, m)), np.empty((n_traj, T, N, p)), np.empty((n_traj, N))
    return rollout(A, B, Q, R, K, L, logdets, tau, x0s, xis, omegas, *outputs)


def _kernel_args(N, T, m, p, n_traj, seed):
    """Kernel arguments of a random game with general gains, factors,
    log-determinants and draws, the draws contiguous and stage-major."""
    spec = lq.random_game(N, T, m, p, seed=seed, scale=0.5)
    rng = np.random.default_rng(81)
    K = rng.normal(0.0, 0.4, (N, T, p, m))
    L = np.tril(rng.normal(0.0, 0.4, (N, T, p, p)))
    logdets = rng.normal(0.0, 1.0, (N, T))
    return (spec.A, spec.B, spec.Q, spec.R, K, L, logdets, spec.tau, rng.normal(0.0, 1.0, (n_traj, m)),
            rng.normal(0.0, 1.0, (T, N, n_traj, p)), rng.normal(0.0, 1.0, (T, n_traj, m)))


def _reference_rollout(A, B, Q, R, K, L, logdets, tau, x0s, xis, omegas):
    """Per-trajectory scalar loops: ``x' = A x + omega + sum_i B^i u^i`` with
    ``u^i = K^i x + L^i xi^i``, and per stage the cost ``x'Q x + u'R u +
    tau/2 (u'u - xi'xi - logdet)``, plus the terminal ``x'Q_T x``."""
    n_traj, m = x0s.shape
    T, N, p = A.shape[0], B.shape[0], K.shape[2]

    def apply(M, v):
        return [sum(M[a][b] * v[b] for b in range(len(v))) for a in range(len(M))]

    def quad(M, v):
        return sum(v[a] * M[a][b] * v[b] for a in range(len(v)) for b in range(len(v)))

    A, B, Q, R, K, L = (arr.tolist() for arr in (A, B, Q, R, K, L))
    states = np.zeros((n_traj, T + 1, m))
    actions = np.zeros((n_traj, T, N, p))
    costs = np.zeros((n_traj, N))
    for r in range(n_traj):
        x = x0s[r].tolist()
        states[r, 0] = x
        for t in range(T):
            nxt = [a + w for a, w in zip(apply(A[t], x), omegas[r, t].tolist())]
            for i in range(N):
                xi = xis[r, t, i].tolist()
                u = [a + b for a, b in zip(apply(K[i][t], x), apply(L[i][t], xi))]
                actions[r, t, i] = u
                costs[r, i] += (
                    quad(Q[i][t], x)
                    + quad(R[i][t], u)
                    + 0.5 * tau * (sum(v * v for v in u) - sum(v * v for v in xi) - logdets[i, t])
                )
                nxt = [a + b for a, b in zip(nxt, apply(B[i][t], u))]
            x = nxt
            states[r, t + 1] = x
        for i in range(N):
            costs[r, i] += quad(Q[i][T], x)
    return states, actions, costs


def _per_agent_rollout(A, B, Q, R, K, L, logdets, tau, x0s, xis, omegas):
    """The kernel's arithmetic with one product per agent: the same BLAS
    and row-dot calls the stacked kernel makes agent by agent."""
    n_traj, m = x0s.shape
    T, N, p = A.shape[0], B.shape[0], K.shape[2]
    states = np.empty((n_traj, T + 1, m))
    actions = np.empty((n_traj, T, N, p))
    costs = np.zeros((n_traj, N))
    x = states[:, 0] = x0s
    for t in range(T):
        xnext = x @ A[t].T
        xnext += omegas[t]
        for i in range(N):
            xi = xis[t, i]
            u = x @ K[i, t].T
            u += xi @ L[i, t].T
            actions[:, t, i] = u
            costs[:, i] += (
                np.einsum("rj,rj->r", x @ Q[i, t], x)
                + np.einsum("rj,rj->r", u @ R[i, t], u)
                + 0.5 * tau * (np.einsum("rj,rj->r", u, u) - np.einsum("rj,rj->r", xi, xi) - logdets[i, t])
            )
            xnext += u @ B[i, t].T
        x = states[:, t + 1] = xnext
    for i in range(N):
        costs[:, i] += np.einsum("rj,rj->r", x @ Q[i, T], x)
    return states, actions, costs


class TestRolloutKernel:
    @pytest.mark.parametrize("N, T, m, p", [(1, 3, 2, 2), (3, 10, 4, 2), (4, 2, 3, 6), (20, 3, 10, 2),
                                            (2, 4, 1, 1), (2, 3, 5, 3)])
    def test_stacked_agents_match_per_agent_loop(self, N, T, m, p):
        # Stacking the agents must not change a bit: general draws, gains
        # and costs, compared exactly with per-agent products.  The shapes
        # give state and action rows of 8 to 80 bytes, odd p included.
        args = _kernel_args(N, T, m, p, n_traj=300, seed=80 + N)
        for got, want in zip(_whole_run(*args), _per_agent_rollout(*args)):
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("N, T, m, p", [(3, 10, 4, 2), (2, 3, 5, 3), (2, 4, 1, 1)])
    def test_writes_only_its_rows(self, N, T, m, p):
        # simulate hands the kernel rows [lo:hi] of whole-run outputs and,
        # for a short last chunk, draws that are views of wider buffers.
        # Rows outside [lo:hi] keep their bytes; rows inside are the
        # whole-run kernel's, bit for bit.
        n_traj, lo, width = 37, 5, 50
        hi = lo + n_traj
        args = _kernel_args(N, T, m, p, n_traj, seed=90)
        xi_buf, omega_buf = np.full((T, N, width, p), np.nan), np.full((T, width, m), np.nan)
        xi_buf[:, :, :n_traj], omega_buf[:, :n_traj] = args[9], args[10]
        xis, omegas = xi_buf[:, :, :n_traj], omega_buf[:, :n_traj]
        assert not (xis.flags.c_contiguous or omegas.flags.c_contiguous)
        outputs = (np.full((hi + 4, T + 1, m), np.nan), np.full((hi + 4, T, N, p), np.nan),
                   np.full((hi + 4, N), np.nan))
        before = [out.copy() for out in outputs]
        rollout(*args[:9], xis, omegas, *(out[lo:hi] for out in outputs))
        for out, old, want in zip(outputs, before, _whole_run(*args)):
            npt.assert_array_equal(out[lo:hi], want)
            for rows in (slice(None, lo), slice(hi, None)):
                assert out[rows].tobytes() == old[rows].tobytes()

    @pytest.mark.parametrize("N, T, m, p", [(1, 3, 2, 2), (2, 1, 3, 2), (2, 3, 1, 3), (3, 2, 2, 4)])
    def test_matches_scalar_reference(self, N, T, m, p):
        # Dynamics, gains, factors and draws on a 1/8 grid make every state
        # and action exact, so they must agree bit for bit; Q, R and the
        # log-determinants stay general, so costs agree to round-off.  The
        # noise is rank one, as from a singular noise covariance.
        spec = lq.random_game(N, T, m, p, seed=70 + N + T, scale=0.5)
        rng = np.random.default_rng(71)
        n_traj = 12
        A, B = _grid(spec.A), _grid(spec.B)
        K = _grid(rng.normal(0.0, 0.4, (N, T, p, m)))
        L = np.tril(_grid(rng.normal(0.0, 0.4, (N, T, p, p))), -1) + np.eye(p) * _grid(
            rng.uniform(0.5, 1.5, (N, T, p, 1))
        )
        logdets = 2.0 * np.log(np.diagonal(L, axis1=2, axis2=3)).sum(axis=2)
        x0s = _grid(rng.normal(0.0, 1.0, (n_traj, m)))
        xis = _grid(rng.normal(0.0, 1.0, (n_traj, T, N, p)))
        omegas = _grid(rng.normal(0.0, 1.0, (n_traj, T, 1))) * _grid(rng.normal(0.0, 1.0, m))
        args = (A, B, spec.Q, spec.R, K, L, logdets, spec.tau, x0s)
        ref_states, ref_actions, ref_costs = _reference_rollout(*args, xis, omegas)
        # The kernel's stage-major draws, as strided views and contiguous.
        views = (xis.transpose(1, 2, 0, 3), omegas.transpose(1, 0, 2))
        for draws in (views, tuple(np.ascontiguousarray(v) for v in views)):
            states, actions, costs = _whole_run(*args, *draws)
            npt.assert_array_equal(states, ref_states)
            npt.assert_array_equal(actions, ref_actions)
            npt.assert_allclose(costs, ref_costs, rtol=1e-12, atol=0)


def test_monte_carlo_nash_gap_with_common_random_numbers():
    """Each agent's Nash gap, sampled, agrees with ``exploitability``.

    A trajectory's draws depend only on the seed and its index, so one seed
    couples the joint policy's run with the run in which one agent plays
    its exact best response: the per-trajectory cost differences estimate
    the gap with the variance of a difference of correlated costs.  The
    policies are exact equilibria with jittered gains and covariances, so
    the responder's own covariance change enters the gap."""
    start = time.perf_counter()
    rng = np.random.default_rng(1313)
    n_traj, within, worst_z = 4000, 0, 0.0
    for k in range(20):
        n = int(rng.integers(2, 4))
        T = int(rng.integers(1, 6))
        m = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        spec = lq.random_game(n, T, m, p, seed=4000 + k, scale=0.5)
        equilibrium = lq.exact_ne(spec).policy
        g = rng.normal(0.0, 1.0, equilibrium.covs.shape)
        joint = lq.JointPolicy(equilibrium.gains + 0.05 * rng.normal(size=equilibrium.gains.shape),
                               equilibrium.covs + 0.3 * g @ g.swapaxes(-1, -2))
        gaps = lq.exploitability(spec, joint)
        costs = lq.simulate(spec, joint, n_traj, seed=5000 + k).costs
        z = np.empty(n)
        for i in range(n):
            response, _ = lq.best_response_full(spec, joint, i)
            gains, covs = joint.gains.copy(), joint.covs.copy()
            gains[i], covs[i] = response.gains, response.covs
            deviated = lq.simulate(spec, lq.JointPolicy(gains, covs), n_traj, seed=5000 + k).costs[:, i]
            saved = costs[:, i] - deviated
            z[i] = abs(saved.mean() - gaps[i]) / (saved.std(ddof=1) / np.sqrt(n_traj))
        worst_z = max(worst_z, float(z.max()))
        within += bool((z <= 3.0).all())
    elapsed = time.perf_counter() - start
    assert within >= 19 and elapsed < 30.0, (
        f"{within}/20 games with every agent's gap within 3 standard errors "
        f"(worst z {worst_z:.2f}), {elapsed:.1f}s (<30s)"
    )


@pytest.mark.parametrize("kind", ["gains", "cov"])
def test_overflowing_policy_is_a_named_error(kind):
    """A certificate or a sample past the float range is a ValueError that
    names the agent (and the stage), with no numpy warning on the way."""
    spec, policies = overflowing_policies()
    policy = policies[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "gains":
            for certify in (lq.value_certificate, lq.exploitability):
                with pytest.raises(ValueError, match="^agent 0: certified values are not finite at stage 2;"):
                    certify(spec, policy)
        else:
            assert np.isfinite(lq.value_certificate(spec, policy).expected_costs).all()
        with pytest.raises(ValueError, match="^agent 0: simulated costs are not finite;"):
            lq.simulate(spec, policy, 20, 0)
