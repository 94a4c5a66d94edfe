"""Agent-batched stage primitives of the regularized game.

Each stage formula is written here once and batched over a leading agent
axis: the best-response system (``B^T P``, the bracket ``R + B^T P B``,
cross couplings), its covariance and gain, the closed-loop Lyapunov value
and offset steps, the expected cost, and the uniqueness threshold.  The
exact solver, policy optimization, the value certificate and the best
responses behind the Nash gap all call them.  Every contraction is a
stacked matrix product: agent stacks multiply as batches of matrices, and
a sum over agents is one product of side-by-side blocks, such as
``[B^1 ... B^N] [K^1; ...; K^N]`` for the closed loop.  Also here: the
closed-form Gaussian minimizer of an entropy-regularized quadratic stage
cost and the KL helper.  Propagated value matrices are re-symmetrized each
stage to suppress drift over long horizons.
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
    return 0.5 * (x + x.swapaxes(-1, -2))


def _trace(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1)


def _max_frobenius(x: np.ndarray) -> float:
    """Largest Frobenius norm among the matrices stacked in ``x``.

    When squaring an entry overflows, the norm is taken of ``x`` scaled by
    its largest entry instead, so large finite matrices give a finite norm
    and no warning; the result is unchanged whenever the squares are finite.
    """
    with np.errstate(over="ignore"):
        norm = float(np.sqrt((x**2).sum(axis=(-2, -1)).max()))
    if not np.isfinite(norm):
        scale = float(np.abs(x).max())
        norm = scale * float(np.sqrt(((x / scale) ** 2).sum(axis=(-2, -1)).max()))
    return norm


def _side_by_side(B: np.ndarray) -> np.ndarray:
    """The ``(N, m, p)`` stack ``B^j`` as one ``(m, N p)`` matrix ``[B^1 ... B^N]``."""
    return B.swapaxes(0, 1).reshape(B.shape[1], -1)


def stage_system(spec: GameSpec, t: int, tails: np.ndarray, agents: np.ndarray):
    """Stage-``t`` best-response system of ``agents`` with tail values ``P^i``:
    the bracket ``R^i + B^i^T P^i B^i``, ``H = (tau/2) I + bracket``,
    ``B^i^T P^i A`` and the couplings ``B^i^T P^i B^j`` (zero for ``j = i``),
    the latter stacked as ``(k, N, p, p)`` over ``k`` agents and all ``N``."""
    k, rows = len(agents), np.arange(len(agents))
    n, m, p = spec.num_agents, spec.state_dim, spec.action_dim
    B = spec.B[:, t]
    BtP = B[agents].swapaxes(-1, -2) @ tails
    # One (k p, m) @ (m, N p) product; rows (i, p), columns (j, q).
    cross = (BtP.reshape(k * p, m) @ _side_by_side(B)).reshape(k, p, n, p).swapaxes(1, 2)
    bracket = spec.R[agents, t] + cross[rows, agents]
    cross[rows, agents] = 0.0
    H = 0.5 * spec.tau * np.eye(p) + bracket
    return bracket, H, BtP @ spec.A[t], cross


def stage_covariance(bracket: np.ndarray, tau: float) -> np.ndarray:
    """Optimal action covariance ``(I + 2 bracket / tau)^{-1}``, symmetric PD
    with eigenvalues in ``(0, 1]`` for a PSD bracket."""
    eye = np.eye(bracket.shape[-1])
    return _sym(np.linalg.solve(eye + (2.0 / tau) * bracket, eye))


def best_response_gains(H, BPA, cross, gains) -> np.ndarray:
    """Best-response gains ``-H^{-1} (B^T P A + sum_{j != i} B^T P B^j K^j)``,
    that is ``-((tau/2) I + bracket)^{-1} B^T P Adrift`` with the drift
    ``Adrift = A + sum_{j != i} B^j K^j`` of the other agents' ``gains``."""
    k, n, p, _ = cross.shape
    m = gains.shape[-1]
    # One (k p, N p) @ (N p, m) product over every opponent at once.
    coupling = cross.swapaxes(1, 2).reshape(k * p, n * p) @ gains.reshape(n * p, m)
    return -np.linalg.solve(H, BPA + coupling.reshape(k, p, m))


def closed_loop(A: np.ndarray, B: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """All-agent closed loop ``A + sum_j B^j K^j`` of one stage."""
    return A + _side_by_side(B) @ gains.reshape(-1, gains.shape[-1])


def stage_noise(spec: GameSpec, t: int, covs: np.ndarray) -> np.ndarray:
    """Process noise plus every agent's action noise, ``W + sum_j B^j cov^j B^j^T``."""
    B = spec.B[:, t]
    return spec.noise_cov + _side_by_side(B @ covs) @ B.swapaxes(-1, -2).reshape(-1, spec.state_dim)


def lyapunov_step(Q, R, tau: float, closed, gains, tails) -> np.ndarray:
    """Value matrices under frozen gains one stage back, symmetrized:
    ``P = Q + K^T ((tau/2) I + R) K + Acl^T P_next Acl``.  Leading (agent)
    axes broadcast, so one closed loop ``Acl`` may serve every agent."""
    own = gains.swapaxes(-1, -2) @ (0.5 * tau * np.eye(R.shape[-1]) + R) @ gains
    return _sym(Q + own + closed.swapaxes(-1, -2) @ tails @ closed)


def offset_step(R, tau, noise, covs, logdets, tails, q_next) -> np.ndarray:
    """Value offsets one stage back, ``q = q_next + tr(cov ((tau/2) I + R))
    - (tau/2)(p + log|cov|) + tr(W P_next)``, where the noise ``W`` holds
    every agent's action noise pushed through its input matrix."""
    p = R.shape[-1]
    own = 0.5 * tau * np.eye(p) + R
    return q_next + _trace(covs @ own) - 0.5 * tau * (p + logdets) + _trace(noise @ tails)


def certificate_step(spec: GameSpec, t: int, gains, covs, logdets, tails, q_next):
    """Every agent's value matrices and offsets at stage ``t`` under the
    joint stage policy ``(gains, covs)``, from the tail values ``tails``."""
    closed = closed_loop(spec.A[t], spec.B[:, t], gains)
    P = lyapunov_step(spec.Q[:, t], spec.R[:, t], spec.tau, closed, gains, tails)
    q = offset_step(spec.R[:, t], spec.tau, stage_noise(spec, t, covs), covs, logdets, tails, q_next)
    return P, q


def expected_costs(spec: GameSpec, P0: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """``mu^T P_0 mu + tr(Sigma_0 P_0) + q_0`` over the initial distribution."""
    mu = spec.init_mean
    mean_term = ((mu @ P0)[..., None, :] @ mu[:, None])[..., 0, 0]
    return mean_term + _trace(spec.init_cov @ P0) + q0


def uniqueness_threshold(spec: GameSpec, gamma_p: float) -> tuple[float, float]:
    """``(gamma_B, 2 gamma_B^2 gamma_P (N - 1))`` with ``gamma_B`` the largest
    input-matrix norm over all agents and stages.  Products of Python floats
    overflow to ``inf`` without raising."""
    gamma_b = _max_frobenius(spec.B)
    return gamma_b, 2.0 * gamma_b * gamma_b * gamma_p * (spec.num_agents - 1)


def _logdets(chol: np.ndarray) -> np.ndarray:
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


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
    mean = -np.linalg.solve(2.0 * M + q.tau * np.eye(b.shape[0]), b)
    return GaussianPolicyParams(mean, stage_covariance(M, q.tau))


def _is_pd(x: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return False
    return True


def _cholesky(covs: np.ndarray, what: str, skip: int | None = None) -> np.ndarray:
    """Cholesky factors of an ``(agent, stage)`` stack of covariances with
    agent ``skip`` left out; a failure names the first matrix not PD."""
    keep = np.arange(covs.shape[0]) != skip
    try:
        return np.linalg.cholesky(covs[keep])
    except np.linalg.LinAlgError:
        i, t = next((i, t) for i, t in np.ndindex(covs.shape[:2]) if keep[i] and not _is_pd(covs[i, t]))
        raise ValueError(f"{what} covariance not positive definite (agent {i}, stage {t})") from None


def kl_gaussian_to_standard(g: GaussianPolicyParams) -> float:
    """KL divergence of ``N(mean, cov)`` from the standard normal.

    Equals ``(mean^T mean + tr(cov) - p - log|cov|) / 2``; always >= 0,
    zero exactly for the standard normal itself.
    """
    mean = np.asarray(g.mean, dtype=float)
    cov = np.asarray(g.cov, dtype=float)
    p = mean.shape[0]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance not positive definite") from None
    return 0.5 * (float(mean @ mean) + float(np.trace(cov)) - p - float(_logdets(chol)))


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
    T = spec.horizon
    gains = stack_gains(joint)
    out = np.empty((T - from_t + 1, spec.state_dim, spec.state_dim))
    out[-1] = spec.Q[agent, T]
    for s in range(T - 1, from_t - 1, -1):
        closed = closed_loop(spec.A[s], spec.B[:, s], gains[:, s])
        out[s - from_t] = lyapunov_step(
            spec.Q[agent, s], spec.R[agent, s], spec.tau, closed, gains[agent, s], out[s + 1 - from_t]
        )
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
    zero = np.zeros((spec.action_dim, spec.state_dim))
    others = np.stack([zero if j == agent else np.asarray(g, dtype=float) for j, g in enumerate(gains_t)])
    bracket, H, BPA, cross = stage_system(spec, t, np.asarray(P_next, dtype=float)[None], np.array([agent]))
    return best_response_gains(H, BPA, cross, others)[0], stage_covariance(bracket, spec.tau)[0]


def best_responses(spec: GameSpec, gains: np.ndarray, covs: np.ndarray, agents: np.ndarray):
    """Exact best responses of ``agents`` to the stacked joint policy
    ``(gains, covs)``, all in one backward pass.

    Opponents' gains fold into the drift ``A_t + sum_{j != i} B^j K^j``; the
    stage problem is the entropy-regularized quadratic minimizer, and the
    values are the certificate of the joint policy with the responder's
    stage policy replaced.  Returns the responders' gains, covariances,
    value matrices and offsets, stacked over ``agents``."""
    T, m, p = spec.horizon, spec.state_dim, spec.action_dim
    k = len(agents)
    Q, R = spec.Q[agents], spec.R[agents]
    P = np.empty((k, T + 1, m, m))
    q = np.zeros((k, T + 1))
    P[:, T] = Q[:, T]
    new_gains = np.empty((k, T, p, m))
    new_covs = np.empty((k, T, p, p))
    for t in range(T - 1, -1, -1):
        tails = P[:, t + 1]
        bracket, H, BPA, cross = stage_system(spec, t, tails, agents)
        gain = best_response_gains(H, BPA, cross, gains[:, t])
        cov = stage_covariance(bracket, spec.tau)
        Bi = spec.B[agents, t]
        closed = closed_loop(spec.A[t], spec.B[:, t], gains[:, t]) + Bi @ (gain - gains[agents, t])
        noise = stage_noise(spec, t, covs[:, t]) + Bi @ (cov - covs[agents, t]) @ Bi.swapaxes(-1, -2)
        P[:, t] = lyapunov_step(Q[:, t], R[:, t], spec.tau, closed, gain, tails)
        logdets = _logdets(np.linalg.cholesky(cov))
        q[:, t] = offset_step(R[:, t], spec.tau, noise, cov, logdets, tails, q[:, t + 1])
        new_gains[:, t] = gain
        new_covs[:, t] = cov
    return new_gains, new_covs, P, q


def best_response_full(
    spec: GameSpec, joint: JointPolicy, agent: int
) -> tuple[LinearGaussianPolicy, AgentValue]:
    """Exactly optimal policy of one agent against frozen opponents, and its
    exact value certificate (see :func:`best_responses`)."""
    check_policy_shape(spec, joint)
    gains = stack_gains(joint)
    covs = stack_covs(joint)
    _cholesky(covs, "opponent", skip=agent)
    new_gains, new_covs, P, q = best_responses(spec, gains, covs, np.array([agent]))
    expected = float(expected_costs(spec, P[0, 0], q[0, 0]))
    return LinearGaussianPolicy(new_gains[0], new_covs[0]), AgentValue(P=P[0], q=q[0], expected_cost=expected)
