"""The agent-batched stage core against per-agent reference loops.

The reference loops below are per-agent implementations of the batched
code, kept here as oracles; each stage primitive is also checked against
its einsum definition, written out in its test.
"""
import numpy as np
import numpy.testing as npt
import pytest

import lqnash as lq
from lqnash import control

from conftest import random_pd_policy, stage_response

SIZES = [(1, 1, 1, 1), (2, 3, 2, 4), (3, 10, 4, 2), (20, 5, 3, 2)]


def _sym(x):
    return 0.5 * (x + x.T)


def reference_certificate(spec, joint):
    """Per-agent value recursion with the matrix-product value step."""
    n, T, p = spec.num_agents, spec.horizon, spec.action_dim
    gains, covs = joint.gains, joint.covs
    eye = np.eye(p)
    P = np.empty((n, T + 1, spec.state_dim, spec.state_dim))
    q = np.zeros((n, T + 1))
    P[:, T] = spec.Q[:, T]
    for t in range(T - 1, -1, -1):
        closed = spec.A[t] + np.einsum("jmp,jpk->mk", spec.B[:, t], gains[:, t])
        noise = spec.noise_cov + np.einsum("jmp,jpq,jnq->mn", spec.B[:, t], covs[:, t], spec.B[:, t])
        for i in range(n):
            tail = P[i, t + 1]
            own = gains[i, t].T @ (0.5 * spec.tau * eye + spec.R[i, t]) @ gains[i, t]
            raw = spec.Q[i, t] + own + closed.T @ tail @ closed
            P[i, t] = 0.5 * (raw + raw.T)
            logdet = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(covs[i, t])))))
            q[i, t] = (
                q[i, t + 1]
                + float(np.trace(covs[i, t] @ (0.5 * spec.tau * eye + spec.R[i, t])))
                - 0.5 * spec.tau * (p + logdet)
                + float(np.trace(noise @ tail))
            )
    return P, q


def reference_lyapunov(spec, joint, agent, from_t=0):
    """One agent's value matrices, one matrix product at a time, with the
    closed loop as ``[B^1 ... B^N] [K^1; ...; K^N]``; the batched value step
    matches it bit for bit."""
    T = spec.horizon
    gains = joint.gains
    eye = np.eye(spec.action_dim)
    out = np.empty((T - from_t + 1, spec.state_dim, spec.state_dim))
    out[-1] = spec.Q[agent, T]
    for s in range(T - 1, from_t - 1, -1):
        closed = spec.A[s] + np.hstack(spec.B[:, s]) @ np.vstack(gains[:, s])
        gain = gains[agent, s]
        own = gain.T @ (0.5 * spec.tau * eye + spec.R[agent, s]) @ gain
        raw = spec.Q[agent, s] + own + closed.T @ out[s + 1 - from_t] @ closed
        out[s - from_t] = _sym(raw)
    return out


def reference_best_response_cost(spec, joint, agent):
    """Expected cost of one agent's exact best response: serial backward
    induction with per-opponent loops and the completed-square value step."""
    T, m, p = spec.horizon, spec.state_dim, spec.action_dim
    gains, covs = joint.gains, joint.covs
    eye = np.eye(p)
    P = np.empty((T + 1, m, m))
    q = np.zeros(T + 1)
    P[T] = spec.Q[agent, T]
    for t in range(T - 1, -1, -1):
        Bi = spec.B[agent, t]
        drift = spec.A[t].copy()
        extra = np.zeros((m, m))
        for j in range(spec.num_agents):
            if j == agent:
                continue
            Bj = spec.B[j, t]
            drift = drift + Bj @ gains[j, t]
            extra = extra + Bj @ covs[j, t] @ Bj.T
        tail = P[t + 1]
        bracket = spec.R[agent, t] + Bi.T @ tail @ Bi
        G = Bi.T @ tail @ drift
        gain = -np.linalg.solve(0.5 * spec.tau * eye + bracket, G)
        cov = _sym(np.linalg.solve(eye + (2.0 / spec.tau) * bracket, eye))
        P[t] = _sym(spec.Q[agent, t] + drift.T @ tail @ drift + G.T @ gain)
        logdet = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(cov)))))
        q[t] = (
            q[t + 1]
            + float(np.trace((spec.noise_cov + extra) @ tail))
            + float(np.trace(bracket @ cov))
            + 0.5 * spec.tau * (float(np.trace(cov)) - p - logdet)
        )
    mu = spec.init_mean
    return float(mu @ P[0] @ mu + np.trace(spec.init_cov @ P[0]) + q[0])


def perturbed_equilibrium(spec, seed):
    """The exact equilibrium with every gain and covariance perturbed."""
    sol = lq.exact_ne(spec)
    rng = np.random.default_rng(seed)
    gains = sol.policy.gains + rng.normal(0.0, 0.2, (spec.num_agents, spec.horizon, spec.action_dim, spec.state_dim))
    g = rng.normal(0.0, 0.2, (spec.num_agents, spec.horizon, spec.action_dim, spec.action_dim))
    covs = sol.policy.covs + np.einsum("...ji,...jk->...ik", g, g)
    return lq.JointPolicy(gains, covs)


@pytest.mark.parametrize("dims", SIZES)
def test_exact_values_are_the_certificate(dims):
    spec = lq.random_game(*dims, seed=sum(dims), scale=0.5).with_tau(10.0)
    sol = lq.exact_ne(spec)
    cert = lq.value_certificate(spec, sol.policy)
    npt.assert_array_equal(sol.riccati, cert.P)
    npt.assert_array_equal(sol.offsets, cert.q)


@pytest.mark.parametrize("dims", SIZES)
def test_certificate_matches_reference_loops(dims):
    spec = lq.random_game(*dims, seed=sum(dims) + 1, scale=0.5)
    joint = random_pd_policy(spec, np.random.default_rng(sum(dims)))
    cert = lq.value_certificate(spec, joint)
    P, q = cert.P, cert.q
    for i in range(spec.num_agents):
        npt.assert_array_equal(P[i], reference_lyapunov(spec, joint, i))
        npt.assert_array_equal(control.lyapunov_values(spec, joint.gains)[i, spec.horizon // 2:],
                               reference_lyapunov(spec, joint, i, from_t=spec.horizon // 2))
    ref_P, ref_q = reference_certificate(spec, joint)
    npt.assert_allclose(P, ref_P, rtol=1e-13, atol=1e-13 * np.abs(ref_P).max())
    npt.assert_allclose(q, ref_q, rtol=1e-13, atol=1e-13 * np.abs(ref_q).max())


@pytest.mark.parametrize("dims", SIZES)
def test_batched_gaps_match_serial_best_responses(dims):
    spec = lq.random_game(*dims, seed=sum(dims) + 2, scale=0.5).with_tau(5.0)
    for seed in (0, 1):
        joint = perturbed_equilibrium(spec, seed)
        base = lq.value_certificate(spec, joint).expected_costs
        serial = np.array([reference_best_response_cost(spec, joint, i) for i in range(spec.num_agents)])
        gaps = lq.exploitability(spec, joint)
        assert np.all(gaps > 1e-5)
        # A gap is a difference of two costs, so its round-off scales with them.
        npt.assert_allclose(gaps, base - serial, rtol=1e-12, atol=1e-12 * np.abs(base).max())


@pytest.mark.parametrize("dims", SIZES)
def test_best_response_full_is_one_row_of_the_batch(dims):
    spec = lq.random_game(*dims, seed=sum(dims) + 3, scale=0.5)
    joint = perturbed_equilibrium(spec, 2)
    gaps = lq.exploitability(spec, joint)
    base = lq.value_certificate(spec, joint).expected_costs
    for i in range(spec.num_agents):
        _, value = lq.best_response_full(spec, joint, i)
        npt.assert_allclose(value.expected_cost, base[i] - gaps[i], rtol=1e-13)


def assert_close(actual, desired):
    """Equal to 1e-13 relative, or to 1e-13 of the largest entry where
    cancellation leaves an entry far below the others."""
    npt.assert_allclose(actual, desired, rtol=1e-13, atol=1e-13 * np.abs(desired).max())


def stage_case(dims):
    """A game, a stage, a random policy and random PSD tail values for
    every agent, plus an agent subset (every other agent, in reverse)."""
    spec = lq.random_game(*dims, seed=sum(dims) + 4, scale=0.5)
    rng = np.random.default_rng(sum(dims) + 4)
    joint = random_pd_policy(spec, rng)
    g = rng.normal(0.0, 1.0, (spec.num_agents, spec.state_dim, spec.state_dim))
    tails = g @ g.swapaxes(-1, -2)
    agents = np.arange(spec.num_agents - 1, -1, -2)
    return spec, spec.horizon - 1, joint, tails, agents


@pytest.mark.parametrize("dims", SIZES)
def test_stage_system_matches_einsum(dims):
    # The solvers' joint stage system: its tail products, for every agent
    # and for a subset, and the coupling matrix Phi they build.
    spec, t, _, tails, agents = stage_case(dims)
    n, p = spec.num_agents, spec.action_dim
    B = spec.B[:, t]
    Bt, side, _, reg = control.stage_blocks(spec, t)
    for rows in (np.arange(n), agents):
        BtP = np.einsum("imp,imn->ipn", B[rows], tails[rows])
        products = np.einsum("ipm,jmq->ipjq", BtP, B).reshape(len(rows) * p, n * p)
        BPA = np.einsum("ipm,mn->ipn", BtP, spec.A[t]).reshape(len(rows) * p, -1)
        for actual, desired in zip(control.joint_products(Bt[rows], side, spec.A[t], tails[rows]), (products, BPA)):
            assert actual.shape == desired.shape
            assert_close(actual, desired)
    # Block (i, j) of Phi is B^i^T P^i B^j, plus (tau/2) I + R^i on the diagonal.
    phi = np.einsum("imp,imn,jnq->ipjq", B, tails, B)
    for i in range(n):
        phi[i, :, i] += 0.5 * spec.tau * np.eye(p) + spec.R[i, t]
    assert_close(control.joint_products(Bt, side, spec.A[t], tails)[0] + reg, phi.reshape(n * p, n * p))


@pytest.mark.parametrize("dims", SIZES)
def test_best_response_gains_match_einsum(dims):
    # -H^{-1} (B^T P A + sum_{j != i} B^i^T P^i B^j K^j) with H = (tau/2) I + R + B^T P B:
    # the opponents' gains enter through the couplings, not through a drift.
    spec, t, joint, tails, _ = stage_case(dims)
    n, p = spec.num_agents, spec.action_dim
    gains = joint.gains[:, t]
    B, eye = spec.B[:, t], np.eye(p)
    actual_gains, actual_covs = stage_response(spec, gains, tails, t)
    for i in range(n):
        bracket = spec.R[i, t] + np.einsum("mp,mn,nq->pq", B[i], tails[i], B[i])
        cross = np.einsum("mp,mn,jnq,jqk->pk", B[i], tails[i], np.delete(B, i, 0), np.delete(gains, i, 0))
        BPA = np.einsum("mp,mn,nk->pk", B[i], tails[i], spec.A[t])
        desired = -np.linalg.solve(0.5 * spec.tau * eye + bracket, BPA + cross)
        cov = np.linalg.inv(eye + (2.0 / spec.tau) * bracket)
        assert_close(actual_gains[i], desired)
        assert_close(actual_covs[i], cov)


@pytest.mark.parametrize("dims", SIZES)
def test_closed_loop_and_noise_match_einsum(dims):
    spec, t, joint, _, _ = stage_case(dims)
    gains, covs = joint.gains[:, t], joint.covs[:, t]
    B = spec.B[:, t]
    assert_close(control.closed_loop(spec.A[t], B, gains), spec.A[t] + np.einsum("jmp,jpk->mk", B, gains))
    assert_close(control.stage_noise(spec, t, covs),
                 spec.noise_cov + np.einsum("jmp,jpq,jnq->mn", B, covs, B))


@pytest.mark.parametrize("dims", SIZES)
def test_lyapunov_step_matches_einsum(dims):
    # One step of the value recursion under frozen gains, as the value step
    # plus the own-cost term, with a shared and a per-agent closed loop.
    spec, t, joint, tails, agents = stage_case(dims)
    gains = joint.gains[agents, t]
    Q, R = spec.Q[agents, t], spec.R[agents, t]
    own = 0.5 * spec.tau * np.eye(spec.action_dim) + R
    rng = np.random.default_rng(sum(dims))
    shared = rng.normal(0.0, 1.0, (spec.state_dim, spec.state_dim))
    per_agent = rng.normal(0.0, 1.0, (len(agents), spec.state_dim, spec.state_dim))
    for closed in (shared, per_agent):
        raw = (Q + np.einsum("...pm,...pq,...qn->...mn", gains, own, gains)
               + np.einsum("...lm,...lk,...kn->...mn", closed, tails[agents], closed))
        desired = 0.5 * (raw + raw.swapaxes(-1, -2))
        Qown = Q + control.own_cost(control.own_weight(spec.tau, R), gains)
        assert_close(control.value_step(Qown, closed, tails[agents]), desired)
