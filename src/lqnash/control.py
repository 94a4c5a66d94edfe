"""Stage primitives of the regularized game, batched over agents and time.

Each stage formula is written here once and batched over a leading agent
axis: the joint gain system of the solvers (its tail-free blocks from
:func:`stage_blocks`, its tail products ``B^i^T P^i B^j`` and
``B^i^T P^i A`` from :func:`joint_products`), the one responder step of a
best response (:func:`_respond`), the stage covariance, the closed loop,
the stage noise, the own-cost, value and offset steps, the expected cost
and the uniqueness threshold.  A backward pass keeps in its stage loop
only the work that needs the tail ``P_{t+1}``; the rest is stacked over
all stages, and the offsets are one reverse cumulative sum.  Every
contraction is a stacked matrix product; a sum over agents is one product
of blocks, such as ``[B^1 ... B^N] [K^1; ...; K^N]`` for the closed loop.

Public here: the Gaussian minimizer of an entropy-regularized quadratic
stage cost with its KL and objective helpers, and :func:`best_response_full`,
one agent's exact best response, the deviation that defines its Nash gap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GameSpec, JointPolicy, LinearGaussianPolicy, check_policy_shape

__all__ = [
    "GaussianPolicyParams",
    "StageQuadratic",
    "AgentValue",
    "entropy_quadratic_minimizer",
    "kl_gaussian_to_standard",
    "stage_objective",
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


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norms ``x.shape[:-2]`` of the matrices stacked in ``x``.

    A matrix whose squares overflow is scaled by its largest entry first, so
    a finite matrix has a finite norm (up to the float range) and no
    warning; every other norm is the plain root of its sum of squares.
    """
    with np.errstate(over="ignore"):
        norms = np.sqrt((x * x).sum(axis=(-2, -1)), out=np.empty(x.shape[:-2]))  # an array, even of one matrix
        big = np.isinf(norms)
        if big.any():
            big &= np.isfinite(x).all(axis=(-2, -1))  # an infinite entry has an infinite norm
            y = x[big]
            scale = np.abs(y).max(axis=(-2, -1), keepdims=True)
            norms[big] = scale[..., 0, 0] * np.sqrt(((y / scale) ** 2).sum(axis=(-2, -1)))
    return norms


def _max_frobenius(x: np.ndarray) -> float:
    """Largest Frobenius norm among the matrices stacked in ``x`` (see :func:`_frobenius`)."""
    return float(_frobenius(x).max())


def _side_by_side(B: np.ndarray) -> np.ndarray:
    """The ``(N, ..., m, p)`` stack ``B^j`` as ``(..., m, N p)`` blocks ``[B^1 ... B^N]``."""
    return B.transpose(*range(1, B.ndim - 1), 0, -1).reshape(*B.shape[1:-1], B.shape[0] * B.shape[-1])


def _stacked(x: np.ndarray) -> np.ndarray:
    """The ``(N, ..., p, m)`` stack ``x^j`` as ``(..., N p, m)`` blocks ``[x^1; ...; x^N]``."""
    return x.transpose(*range(1, x.ndim - 2), 0, -2, -1).reshape(*x.shape[1:-2], -1, x.shape[-1])


def own_weight(tau: float, R: np.ndarray) -> np.ndarray:
    """Weight ``(tau/2) I + R`` of an agent's own action in its stage cost."""
    return 0.5 * tau * np.eye(R.shape[-1]) + R


def stage_blocks(spec: GameSpec, t=slice(None)):
    """Tail-free parts at stage(s) ``t``: ``B^T``, ``[B^1 ... B^N]``, ``(tau/2) I + R``, block diagonal."""
    n, p = spec.num_agents, spec.action_dim
    B, weight = spec.B[:, t], own_weight(spec.tau, spec.R[:, t])
    reg = np.zeros(weight.shape[1:-2] + (n, p, n, p))
    reg[..., np.arange(n), :, np.arange(n), :] = weight
    return B.swapaxes(-1, -2), _side_by_side(B), weight, reg.reshape(weight.shape[1:-2] + (n * p, n * p))


def joint_products(Bt: np.ndarray, side: np.ndarray, A: np.ndarray, tails: np.ndarray):
    """Tail products ``[B^i^T P^i B^j]_{ij}`` ``(N p, N p)`` and ``[B^i^T P^i A]_i`` ``(N p, m)``."""
    flat = (Bt @ tails).reshape(-1, A.shape[-1])
    return flat @ side, flat @ A


def stage_covariance(bracket: np.ndarray, tau: float) -> np.ndarray:
    """Optimal action covariance ``(I + 2 bracket / tau)^{-1}``, symmetric PD
    with eigenvalues in ``(0, 1]`` for a PSD bracket."""
    eye = np.eye(bracket.shape[-1])
    return _sym(np.linalg.solve(eye + (2.0 / tau) * bracket, eye))


def _respond(Bt: np.ndarray, B: np.ndarray, weight: np.ndarray, tails: np.ndarray, drift: np.ndarray):
    """Responder step: ``B^T P B`` and the gain ``-((tau/2) I + R + B^T P B)^{-1} B^T P drift``
    of agents with tail values ``P`` against the opponents' ``drift``."""
    BtP = Bt @ tails
    products = BtP @ B
    return products, -np.linalg.solve(weight + products, BtP @ drift)


def closed_loop(A: np.ndarray, B: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """All-agent closed loop ``A + sum_j B^j K^j`` of one stage, or of a stack of stages."""
    return A + _side_by_side(B) @ _stacked(gains)


def stage_noise(spec: GameSpec, t, covs: np.ndarray) -> np.ndarray:
    """Process plus every agent's action noise ``W + sum_j B^j cov^j B^j^T`` at stage(s) ``t``."""
    B = spec.B[:, t]
    return spec.noise_cov + _side_by_side(B @ covs) @ _stacked(B.swapaxes(-1, -2))


def own_cost(weight: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Own-action term ``K^T ((tau/2) I + R) K`` of the value step."""
    return gains.swapaxes(-1, -2) @ weight @ gains


def value_step(Qown: np.ndarray, closed: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Value matrices one stage back, symmetrized: ``P = Qown + Acl^T P_next Acl``; agents broadcast."""
    return _sym(Qown + closed.swapaxes(-1, -2) @ tails @ closed)


def lyapunov_values(spec: GameSpec, gains: np.ndarray) -> np.ndarray:
    """Every agent's value matrices ``(N, T+1, m, m)`` under frozen joint gains;
    only ``Acl_t^T P_{t+1} Acl_t`` runs stage by stage (see :func:`value_step`)."""
    T = spec.horizon
    closed = closed_loop(spec.A, spec.B, gains)
    P = spec.Q.copy()
    P[:, :T] += own_cost(own_weight(spec.tau, spec.R), gains)
    for t in range(T - 1, -1, -1):
        P[:, t] = value_step(P[:, t], closed[t], P[:, t + 1])
    return P


def offset_terms(tau: float, weight, covs, logdets, noise, tails) -> np.ndarray:
    """Offset terms ``tr(cov ((tau/2) I + R)) - (tau/2)(p + log|cov|) + tr(W P_next)``, ``W`` the noise."""
    p = covs.shape[-1]
    return _trace(covs @ weight) - 0.5 * tau * (p + logdets) + _trace(noise @ tails)


def value_offsets(tau: float, weight, covs, logdets, noise, P) -> np.ndarray:
    """Offsets ``q_t = q_{t+1} + term_t``, ``q_T = 0``, of the values ``P`` stacked
    ``(..., T+1, m, m)``: all :func:`offset_terms` at once, then a reverse cumsum."""
    terms = offset_terms(tau, weight, covs, logdets, noise, P[..., 1:, :, :])
    q = np.zeros(P.shape[:-2])
    q[..., :-1] = np.cumsum(terms[..., ::-1], axis=-1)[..., ::-1]
    return q


def expected_costs(spec: GameSpec, P0: np.ndarray, q0: np.ndarray) -> np.ndarray:
    """``mu^T P_0 mu + tr(Sigma_0 P_0) + q_0`` over the initial distribution."""
    mu = spec.init_mean
    mean_term = ((mu @ P0)[..., None, :] @ mu[:, None])[..., 0, 0]
    return mean_term + _trace(spec.init_cov @ P0) + q0


def uniqueness_threshold(spec: GameSpec, gamma_p: float, gamma_b: float | None = None) -> tuple[float, float]:
    """``(gamma_B, 2 gamma_B^2 gamma_P (N - 1))``, ``gamma_B`` the largest input-matrix norm over
    all agents and stages unless given.  Python float products overflow to ``inf`` without raising."""
    gamma_b = _max_frobenius(spec.B) if gamma_b is None else gamma_b
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


def best_responses(spec: GameSpec, gains: np.ndarray, covs: np.ndarray, agents: np.ndarray):
    """Exact best responses of ``agents`` to the stacked joint policy
    ``(gains, covs)``, all in one backward pass.

    Opponents' gains fold into the drift ``A_t + sum_{j != i} B^j K^j``; the
    stage problem is the entropy-regularized quadratic minimizer, and the
    values are the certificate of the joint policy with the responder's
    stage policy replaced.  Returns the responders' gains, covariances,
    value matrices and offsets, stacked over ``agents``."""
    T = spec.horizon
    Q, B = spec.Q[agents], spec.B[agents]
    Bt, weight = B.swapaxes(-1, -2), own_weight(spec.tau, spec.R[agents])
    # The opponents' drift: the joint closed loop less the responder's own term.
    drift = closed_loop(spec.A, spec.B, gains) - B @ gains[agents]
    P, new_gains, products = Q.copy(), np.empty_like(gains[agents]), np.empty_like(covs[agents])
    for t in range(T - 1, -1, -1):
        tails = P[:, t + 1]
        products[:, t], gain = _respond(Bt[:, t], B[:, t], weight[:, t], tails, drift[:, t])
        new_gains[:, t] = gain
        P[:, t] = value_step(Q[:, t] + own_cost(weight[:, t], gain), drift[:, t] + B[:, t] @ gain, tails)
    new_covs = stage_covariance(spec.R[agents] + products, spec.tau)
    noise = stage_noise(spec, slice(None), covs) + B @ (new_covs - covs[agents]) @ Bt
    logdets = _logdets(np.linalg.cholesky(new_covs))
    return new_gains, new_covs, P, value_offsets(spec.tau, weight, new_covs, logdets, noise, P)


def best_response_full(
    spec: GameSpec, joint: JointPolicy, agent: int
) -> tuple[LinearGaussianPolicy, AgentValue]:
    """Exactly optimal policy of one agent against frozen opponents, and its
    exact value certificate (see :func:`best_responses`)."""
    check_policy_shape(spec, joint)
    _cholesky(joint.covs, "opponent", skip=agent)
    new_gains, new_covs, P, q = best_responses(spec, joint.gains, joint.covs, np.array([agent]))
    expected = float(expected_costs(spec, P[0, 0], q[0, 0]))
    return LinearGaussianPolicy(new_gains[0], new_covs[0]), AgentValue(P=P[0], q=q[0], expected_cost=expected)
