"""Single-agent building blocks for the regularized game solvers.

Covers the closed-form Gaussian minimizer of an entropy-regularized
quadratic stage cost, the Gaussian-vs-standard-normal KL helper, backward
value recursions under frozen gains, and exact single-agent best
responses against fixed opponents.

All functions are pure; matrix inverses are realized as linear solves
against symmetric PD systems, and propagated value matrices are
re-symmetrized each stage to suppress drift over long horizons.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    GameSpec,
    JointPolicy,
    LinearGaussianPolicy,
    check_policy_shape,
    stack_covs,
    stack_gains,
)

__all__ = [
    "GaussianPolicyParams",
    "StageQuadratic",
    "AgentValue",
    "entropy_quadratic_minimizer",
    "kl_gaussian_to_standard",
    "stage_objective",
    "lyapunov_backward",
    "best_response_stage",
    "best_response_full",
]


@dataclass(frozen=True, eq=False)
class GaussianPolicyParams:
    """Mean and (symmetric PD) covariance of a Gaussian action distribution."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, eq=False)
class StageQuadratic:
    """Stage cost data ``E[u^T M u + b^T u] + tau * KL(pi || N(0, I))``.

    ``M`` must be symmetric PSD and ``tau`` positive.
    """

    M: np.ndarray
    b: np.ndarray
    tau: float


@dataclass(frozen=True, eq=False)
class AgentValue:
    """Quadratic value certificate for one agent under a fixed joint policy.

    ``value_at(x) = x^T P[0] x + q[0]`` is the cost from a deterministic
    start; ``expected_cost`` averages over the game's initial distribution.
    """

    P: np.ndarray  # (T+1, m, m), P[T] equals the terminal state cost
    q: np.ndarray  # (T+1,), q[T] = 0
    expected_cost: float

    def value_at(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.P[0] @ x + self.q[0])


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def entropy_quadratic_minimizer(q: StageQuadratic) -> GaussianPolicyParams:
    """Exact minimizer of the entropy-regularized quadratic stage cost.

    Over all action distributions, the minimizer of
    ``E_{u~pi}[u^T M u + b^T u] + tau * KL(pi || N(0, I))`` is Gaussian with

    - ``mean = -(2M + tau I)^{-1} b``  (stationarity: ``2 M mean + b + tau mean = 0``)
    - ``cov  = (I + 2M/tau)^{-1}``, so ``0 < cov <= I``.

    Both inverses exist for any PSD ``M`` and ``tau > 0``.
    """
    M = np.asarray(q.M, dtype=float)
    b = np.asarray(q.b, dtype=float)
    p = b.shape[0]
    eye = np.eye(p)
    mean = -np.linalg.solve(2.0 * M + q.tau * eye, b)
    cov = _sym(np.linalg.solve(eye + (2.0 / q.tau) * M, eye))
    return GaussianPolicyParams(mean, cov)


def _is_pd(x: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def _chol_logdet(cov: np.ndarray, what: str = "covariance") -> float:
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError(f"{what} not positive definite") from None
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def kl_gaussian_to_standard(g: GaussianPolicyParams) -> float:
    """KL divergence of ``N(mean, cov)`` from the standard normal.

    Equals ``(mean^T mean + tr(cov) - p - log|cov|) / 2``; always >= 0,
    zero exactly for the standard normal itself.
    """
    mean = np.asarray(g.mean, dtype=float)
    cov = np.asarray(g.cov, dtype=float)
    p = mean.shape[0]
    logdet = _chol_logdet(cov)
    return 0.5 * (float(mean @ mean) + float(np.trace(cov)) - p - logdet)


def stage_objective(q: StageQuadratic, g: GaussianPolicyParams) -> float:
    """Closed-form value of the stage cost at a Gaussian action distribution."""
    M = np.asarray(q.M, dtype=float)
    b = np.asarray(q.b, dtype=float)
    mean = np.asarray(g.mean, dtype=float)
    if mean.shape[0] != b.shape[0] or g.cov.shape != M.shape:
        raise ValueError(
            f"dimension mismatch: quadratic is {M.shape}, distribution is {g.cov.shape}"
        )
    quad = float(np.trace(M @ g.cov)) + float(mean @ M @ mean) + float(b @ mean)
    return quad + q.tau * kl_gaussian_to_standard(g)


def lyapunov_backward(
    spec: GameSpec, joint: JointPolicy, agent: int, from_t: int = 0
) -> np.ndarray:
    """Backward value matrices of one agent under frozen joint gains.

    Returns ``P`` of shape ``(T - from_t + 1, m, m)`` with ``P[-1]`` the
    terminal state cost and, for each earlier stage ``s``,

    ``P_s = Q^i_s + K^i_s^T ((tau/2) I + R^i_s) K^i_s + Acl_s^T P_{s+1} Acl_s``

    where ``Acl_s = A_s + sum_j B^j_s K^j_s`` is the closed loop over all
    agents.  Policy covariances do not enter.
    """
    T, p = spec.horizon, spec.action_dim
    gains = stack_gains(joint)
    eye = np.eye(p)
    out = np.empty((T - from_t + 1, spec.state_dim, spec.state_dim))
    out[-1] = spec.Q[agent, T]
    for s in range(T - 1, from_t - 1, -1):
        tail = out[s + 1 - from_t]
        closed = spec.A[s] + np.einsum("jmp,jpk->mk", spec.B[:, s], gains[:, s])
        own = gains[agent, s]
        ps = (
            spec.Q[agent, s]
            + own.T @ (0.5 * spec.tau * eye + spec.R[agent, s]) @ own
            + closed.T @ tail @ closed
        )
        out[s - from_t] = _sym(ps)
    return out


def best_response_stage(
    spec: GameSpec,
    agent: int,
    gains_t,
    P_next: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One agent's optimal stage gain/covariance given a tail value matrix.

    ``gains_t`` holds every agent's current gain at stage ``t`` (the own
    entry is ignored).  With ``Adrift = A_t + sum_{j != agent} B^j_t K^j_t``:

    - ``K' = -((tau/2) I + R + B^T P_next B)^{-1} B^T P_next Adrift``
    - ``cov' = (I + 2 (R + B^T P_next B)/tau)^{-1}``, symmetric PD with
      eigenvalues strictly inside ``(0, 1)`` whenever ``R`` is PD.
    """
    p = spec.action_dim
    eye = np.eye(p)
    Bi = spec.B[agent, t]
    drift = spec.A[t].copy()
    for j in range(spec.num_agents):
        if j != agent:
            drift = drift + spec.B[j, t] @ np.asarray(gains_t[j], dtype=float)
    BPB = Bi.T @ P_next @ Bi
    bracket = spec.R[agent, t] + BPB
    gain = -np.linalg.solve(0.5 * spec.tau * eye + bracket, Bi.T @ P_next @ drift)
    cov = _sym(np.linalg.solve(eye + (2.0 / spec.tau) * bracket, eye))
    return gain, cov


def best_response_full(
    spec: GameSpec, joint: JointPolicy, agent: int
) -> tuple[LinearGaussianPolicy, AgentValue]:
    """Exactly optimal policy of one agent against frozen opponents.

    Backward induction over stages: opponents' gains fold into the drift
    ``Adrift_t = A_t + sum_{j != agent} B^j K^j`` and their action noise into
    an effective process covariance ``W_t = noise_cov + sum_{j != agent}
    B^j cov^j B^j^T``; the stage problem is the entropy-regularized
    quadratic minimizer, giving a Riccati propagation for the quadratic
    term and scalar offsets accumulating ``tr(W_t P_{t+1})``, the own-action
    trace terms, and the entropy terms.

    Returns the optimal policy and its exact value certificate.
    """
    check_policy_shape(spec, joint)
    T, m, p = spec.horizon, spec.state_dim, spec.action_dim
    gains = stack_gains(joint)
    covs = stack_covs(joint)
    for j in range(spec.num_agents):
        if j == agent:
            continue
        try:
            np.linalg.cholesky(covs[j])
        except np.linalg.LinAlgError:
            t = next(t for t in range(T) if not _is_pd(covs[j, t]))
            raise ValueError(
                f"opponent covariance not positive definite (agent {j}, stage {t})"
            ) from None

    eye = np.eye(p)
    P = np.empty((T + 1, m, m))
    q = np.zeros(T + 1)
    P[T] = spec.Q[agent, T]
    new_gains = np.empty((T, p, m))
    new_covs = np.empty((T, p, p))
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
        BPB = Bi.T @ tail @ Bi
        bracket = spec.R[agent, t] + BPB
        H = 0.5 * spec.tau * eye + bracket
        G = Bi.T @ tail @ drift
        gain = -np.linalg.solve(H, G)
        cov = _sym(np.linalg.solve(eye + (2.0 / spec.tau) * bracket, eye))
        new_gains[t] = gain
        new_covs[t] = cov

        P[t] = _sym(spec.Q[agent, t] + drift.T @ tail @ drift + G.T @ gain)
        logdet = _chol_logdet(cov)
        q[t] = (
            q[t + 1]
            + float(np.trace((spec.noise_cov + extra) @ tail))
            + float(np.trace(bracket @ cov))
            + 0.5 * spec.tau * (float(np.trace(cov)) - p - logdet)
        )

    expected = float(
        spec.init_mean @ P[0] @ spec.init_mean + np.trace(spec.init_cov @ P[0]) + q[0]
    )
    policy = LinearGaussianPolicy(new_gains, new_covs)
    return policy, AgentValue(P=P, q=q, expected_cost=expected)
