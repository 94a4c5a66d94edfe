"""Policy certification: exact values, Nash gaps, metric, simulation.

The value certificate gives every agent's exact expected cost under a
fixed linear Gaussian joint policy via backward quadratic recursions, so
solver output can be audited without sampling.  Exploitability measures
how much each agent could gain by an exact unilateral deviation; it is
zero precisely at equilibrium.  The seeded Monte Carlo simulator provides
an independent statistical check of the same quantities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rollout import rollout
from .control import AgentValue, _is_pd, best_response_full
from .model import GameSpec, JointPolicy, check_policy_shape, stack_covs, stack_gains

__all__ = [
    "ValueCertificate",
    "SimulationResult",
    "value_certificate",
    "exploitability",
    "policy_distance",
    "simulate",
]


@dataclass(frozen=True, eq=False)
class ValueCertificate:
    """Per-agent exact quadratic value data under one joint policy."""

    agents: tuple[AgentValue, ...]

    @property
    def expected_costs(self) -> np.ndarray:
        """Expected cost of each agent under the game's initial distribution."""
        return np.array([a.expected_cost for a in self.agents])

    def values_at(self, x: np.ndarray) -> np.ndarray:
        """Per-agent cost from the deterministic start ``x``."""
        return np.array([a.value_at(x) for a in self.agents])


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Seeded rollout batch with per-agent cost statistics.

    ``costs[r, i]`` is the realized finite-horizon cost of agent ``i`` on
    trajectory ``r``, including the regularizer term evaluated in closed
    form at the sampled action (an unbiased estimator of the KL penalty).
    """

    states: np.ndarray  # (n_traj, T+1, m)
    actions: np.ndarray  # (n_traj, T, N, p)
    costs: np.ndarray  # (n_traj, N)
    mean_costs: np.ndarray  # (N,)
    std_errors: np.ndarray  # (N,)


def _policy_cholesky(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors and log-determinants of every stage covariance."""
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        i, t = next(
            (i, t) for i, t in np.ndindex(covs.shape[:2]) if not _is_pd(covs[i, t])
        )
        raise ValueError(
            f"policy covariance not positive definite (agent {i}, stage {t})"
        ) from None
    logdets = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
    return chol, logdets


def value_certificate(spec: GameSpec, joint: JointPolicy) -> ValueCertificate:
    """Exact per-agent cost of a joint policy via backward recursions.

    For each agent ``P_T`` is the terminal state cost and, stepping
    backward with the all-agent closed loop ``Acl_t = A_t + sum_j B^j K^j``,

    ``P_t = Q^i_t + K^i^T ((tau/2) I + R^i) K^i + Acl^T P_{t+1} Acl``

    while the scalar offset accumulates the own-action trace terms, the
    entropy terms, and ``tr(W_t P_{t+1})`` with ``W_t = noise_cov +
    sum_j B^j cov^j B^j^T`` collecting process noise plus every agent's
    action noise pushed through its input matrix.
    """
    check_policy_shape(spec, joint)
    n, T = spec.num_agents, spec.horizon
    p = spec.action_dim
    gains = stack_gains(joint)
    covs = stack_covs(joint)
    _, logdets = _policy_cholesky(covs)
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
            q[i, t] = (
                q[i, t + 1]
                + float(np.trace(covs[i, t] @ (0.5 * spec.tau * eye + spec.R[i, t])))
                - 0.5 * spec.tau * (p + logdets[i, t])
                + float(np.trace(noise @ tail))
            )

    agents = []
    for i in range(n):
        expected = float(
            spec.init_mean @ P[i, 0] @ spec.init_mean
            + np.trace(spec.init_cov @ P[i, 0])
            + q[i, 0]
        )
        agents.append(AgentValue(P=P[i].copy(), q=q[i].copy(), expected_cost=expected))
    return ValueCertificate(agents=tuple(agents))


def exploitability(spec: GameSpec, joint: JointPolicy) -> np.ndarray:
    """Per-agent Nash gap of a joint policy at the initial distribution.

    ``gap_i = J_i(joint) - J_i(best response of i, others unchanged)``,
    both from exact certificates.  Nonnegative up to round-off (~1e-9
    floor); identically zero at an exact equilibrium.
    """
    base = value_certificate(spec, joint)
    gaps = np.empty(spec.num_agents)
    for i in range(spec.num_agents):
        _, br_value = best_response_full(spec, joint, i)
        gaps[i] = base.agents[i].expected_cost - br_value.expected_cost
    return gaps


def policy_distance(a: JointPolicy, b: JointPolicy, t: int | None = None) -> float:
    """Policy-space metric: per stage, sum over agents of the Frobenius
    norms of the gain and covariance differences; summed over stages
    unless a single stage ``t`` is selected."""
    ga, ca = stack_gains(a), stack_covs(a)
    gb, cb = stack_gains(b), stack_covs(b)
    if ga.shape != gb.shape or ca.shape != cb.shape:
        raise ValueError(f"policy shape mismatch: {ga.shape} vs {gb.shape}")
    if t is not None:
        ga, gb, ca, cb = ga[:, [t]], gb[:, [t]], ca[:, [t]], cb[:, [t]]
    per_agent_stage = np.sqrt(((ga - gb) ** 2).sum(axis=(2, 3))) + np.sqrt(
        ((ca - cb) ** 2).sum(axis=(2, 3))
    )
    return float(per_agent_stage.sum())


def _psd_factor(x: np.ndarray) -> np.ndarray:
    """Factor ``F`` with ``F F^T = x`` for symmetric PSD ``x`` (eigen-based,
    negative round-off eigenvalues clipped; supports singular covariances)."""
    w, v = np.linalg.eigh(x)
    return v * np.sqrt(np.clip(w, 0.0, None))


def simulate(
    spec: GameSpec,
    joint: JointPolicy,
    n_traj: int,
    seed: int,
) -> SimulationResult:
    """Seeded Monte Carlo rollouts of a joint policy.

    Each trajectory draws from its own counter-based Philox stream keyed by
    ``(seed, trajectory index)``, so results are independent of execution
    order and identical across runs.  One generator serves every
    trajectory: re-keying it and restoring its fresh state gives exactly
    the stream a new ``Philox(key=[seed, r])`` would.  Per trajectory the
    draw order is: initial-state normals, then per stage each agent's
    action normals (agent order) followed by the process-noise normals.
    The draws feed one vectorised numpy rollout kernel.  Realized costs
    include the regularizer ``tau * log(pi/mu)`` evaluated at the sample.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    check_policy_shape(spec, joint)
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in 64 bits")
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    gains = stack_gains(joint)
    covs = stack_covs(joint)
    chol, logdets = _policy_cholesky(covs)

    init_factor = _psd_factor(spec.init_cov)
    noise_factor = _psd_factor(spec.noise_cov)

    draws_per_traj = m + T * (n * p + m)
    normals = np.empty((n_traj, draws_per_traj))
    bit_gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    # Zero counter, empty buffer; restoring it after setting key word 1
    # re-keys the stream without building a new generator.
    fresh = bit_gen.state
    key = fresh["state"]["key"]
    for r in range(n_traj):
        key[1] = r
        bit_gen.state = fresh
        gen.standard_normal(out=normals[r])

    z0 = normals[:, :m]
    rest = normals[:, m:].reshape(n_traj, T, n * p + m)
    xis = rest[:, :, : n * p].reshape(n_traj, T, n, p)
    zetas = rest[:, :, n * p :]

    x0s = spec.init_mean + z0 @ init_factor.T
    omegas = zetas @ noise_factor.T

    states, actions, costs = rollout(
        spec.A, spec.B, spec.Q, spec.R, gains, chol, logdets, spec.tau, x0s, xis, omegas
    )
    mean_costs = costs.mean(axis=0)
    if n_traj > 1:
        std_errors = costs.std(axis=0, ddof=1) / np.sqrt(n_traj)
    else:
        std_errors = np.zeros(n)
    return SimulationResult(
        states=states,
        actions=actions,
        costs=costs,
        mean_costs=mean_costs,
        std_errors=std_errors,
    )
