"""Nash equilibrium solvers and diagnostics.

Two routes to the same equilibrium: an exact backward pass that solves a
stacked linear system for all agents' gains at each stage, and an
iterative receding-horizon scheme that converges the last stage first
and sweeps backward, applying all agents' best responses simultaneously
within each stage.  Both exploit the fact that with entropy-regularized
costs every equilibrium policy is linear Gaussian.

Also here: the stage coupling matrix of the joint gain system, the
contraction modulus of the simultaneous best-response map, the
regularization-adequacy check, and the tau-augmentation fallback used
when that check fails.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import exploitability
from .model import GameSpec, JointPolicy, joint_policy_from_arrays

__all__ = [
    "SolverError",
    "NESolution",
    "ConditionRecord",
    "SolveReport",
    "phi_matrix",
    "exact_ne",
    "contraction_modulus",
    "check_assumption_tau",
    "po_solve",
    "delta_augment_solve",
]

# Reciprocal-condition floor distinguishing genuine non-uniqueness from round-off.
COND_LIMIT = 1e12
# Inner-iteration cap when only a distance tolerance is given.
MAX_INNER_ITERS = 500


class SolverError(RuntimeError):
    """Numerical failure inside a solver (ill-conditioned stage system, etc.)."""


@dataclass(frozen=True, eq=False)
class NESolution:
    """Equilibrium policy with its per-agent value recursions.

    ``riccati`` has shape ``(N, T+1, m, m)`` with ``riccati[i, T]`` equal to
    the terminal state cost; ``offsets`` has shape ``(N, T+1)`` with zero
    terminal entries.  The policy is a stage-wise fixed point of the
    simultaneous best-response map.
    """

    policy: JointPolicy
    riccati: np.ndarray
    offsets: np.ndarray


@dataclass(frozen=True)
class ConditionRecord:
    """Outcome of the regularization-adequacy check.

    ``threshold = 2 * gamma_B**2 * gamma_P * (num_agents - 1)`` and the check
    passes iff ``tau > threshold * (1 + margin)`` (strict).
    """

    gamma_B: float
    gamma_P: float
    threshold: float
    margin: float
    satisfied: bool


@dataclass
class SolveReport:
    """Iterative-solver output plus convergence diagnostics.

    ``trace[t]`` lists the inner-loop policy distances at stage ``t``;
    ``contraction_moduli[t]`` is the modulus computed from the tail value
    matrices in effect while stage ``t`` iterated.  ``delta_used`` and
    ``nash_gaps`` are populated by the augmentation fallback.
    """

    policy: JointPolicy
    trace: tuple[tuple[float, ...], ...]
    contraction_moduli: tuple[float, ...]
    condition: ConditionRecord | None = None
    delta_used: float | None = None
    nash_gaps: np.ndarray | None = None


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.swapaxes(-1, -2))


def _max_input_norm(spec: GameSpec) -> float:
    """Largest Frobenius norm of any agent's input matrix over all stages."""
    return float(np.sqrt((spec.B**2).sum(axis=(2, 3)).max()))


def phi_matrix(spec: GameSpec, t: int, P_next: np.ndarray) -> np.ndarray:
    """Stage coupling matrix of the stacked gain equations.

    ``P_next`` holds each agent's tail value matrix, shape ``(N, m, m)``.
    Block ``(i, i)`` is ``(tau/2) I + R^i_t + B^i^T P^i B^i``; block
    ``(i, j)`` for ``j != i`` is ``B^i^T P^i B^j``.  Strict diagonal
    dominance of this matrix is what the adequacy check certifies.
    """
    n, p = spec.num_agents, spec.action_dim
    P_next = np.asarray(P_next, dtype=float)
    blocks = np.empty((n, p, n, p))
    for i in range(n):
        BtP = spec.B[i, t].T @ P_next[i]
        for j in range(n):
            blocks[i, :, j, :] = BtP @ spec.B[j, t]
        blocks[i, :, i, :] += 0.5 * spec.tau * np.eye(p) + spec.R[i, t]
    return blocks.reshape(n * p, n * p)


def exact_ne(spec: GameSpec, cond_limit: float = COND_LIMIT) -> NESolution:
    """Equilibrium via the backward stacked-gain linear system.

    At each stage the gains of all agents solve one linear system built
    from the current tail value matrices; covariances and the value
    recursions then follow in closed form.  Raises :class:`SolverError`
    when a stage system is numerically singular (condition estimate above
    ``cond_limit``), which signals a non-unique or ill-conditioned
    equilibrium; raising ``tau`` (see :func:`delta_augment_solve`) repairs
    this.
    """
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    eye = np.eye(p)
    P = np.empty((n, T + 1, m, m))
    q = np.zeros((n, T + 1))
    P[:, T] = spec.Q[:, T]
    gains = np.empty((n, T, p, m))
    covs = np.empty((n, T, p, p))

    for t in range(T - 1, -1, -1):
        tails = P[:, t + 1]
        phi = phi_matrix(spec, t, tails)
        cond = float(np.linalg.cond(phi))
        if not np.isfinite(cond) or cond > cond_limit:
            raise SolverError(
                f"stage {t}: coupling matrix condition {cond:.3e} exceeds {cond_limit:.1e}; "
                "non-unique or ill-conditioned equilibrium, consider tau augmentation"
            )
        rhs = np.concatenate([spec.B[i, t].T @ tails[i] @ spec.A[t] for i in range(n)], axis=0)
        stacked = np.linalg.solve(phi, -rhs)
        gains[:, t] = stacked.reshape(n, p, m)

        for i in range(n):
            Bi = spec.B[i, t]
            bracket = spec.R[i, t] + Bi.T @ tails[i] @ Bi
            covs[i, t] = _sym(np.linalg.solve(eye + (2.0 / spec.tau) * bracket, eye))

        for i in range(n):
            Bi = spec.B[i, t]
            drift = spec.A[t].copy()
            cross = 0.0
            for j in range(n):
                if j == i:
                    continue
                drift = drift + spec.B[j, t] @ gains[j, t]
                cross += float(np.trace(covs[j, t] @ spec.B[j, t].T @ tails[i] @ spec.B[j, t]))
            BPB = Bi.T @ tails[i] @ Bi
            G = Bi.T @ tails[i] @ drift
            H = 0.5 * spec.tau * eye + spec.R[i, t] + BPB
            P[i, t] = _sym(spec.Q[i, t] + drift.T @ tails[i] @ drift - G.T @ np.linalg.solve(H, G))
            _, logdet = np.linalg.slogdet(covs[i, t])
            q[i, t] = (
                float(np.trace(spec.noise_cov @ tails[i]))
                + float(np.trace((spec.R[i, t] + BPB) @ covs[i, t]))
                + 0.5 * spec.tau * (float(np.trace(covs[i, t])) - p - logdet)
                + q[i, t + 1]
                + cross
            )

    return NESolution(policy=joint_policy_from_arrays(gains, covs), riccati=P, offsets=q)


def contraction_modulus(spec: GameSpec, t: int, P_next: np.ndarray) -> float:
    """Lipschitz bound of the simultaneous best-response map at stage ``t``.

    ``(2/tau) * gamma_B**2 * gamma_P_t * (N-1)`` with ``gamma_B`` the
    largest input-matrix norm over all agents and stages and ``gamma_P_t``
    the largest tail value norm among agents.  Below one, the stage inner
    loop converges linearly at (at worst) this rate.
    """
    del t  # the stage enters only through its tail values
    P_next = np.asarray(P_next, dtype=float)
    gamma_b = _max_input_norm(spec)
    gamma_p = float(np.sqrt((P_next**2).sum(axis=(1, 2)).max()))
    return (2.0 / spec.tau) * gamma_b**2 * gamma_p * (spec.num_agents - 1)


def check_assumption_tau(spec: GameSpec, sol: NESolution, margin: float = 0.0) -> ConditionRecord:
    """Check that the regularization weight exceeds the uniqueness threshold.

    The threshold depends on the solution's own value matrices, so the
    check is a-posteriori: solve first, then verify.  ``margin`` demands
    strict clearance ``tau > threshold * (1 + margin)``.
    """
    gamma_b = _max_input_norm(spec)
    gamma_p = float(np.sqrt((sol.riccati**2).sum(axis=(2, 3)).max()))
    threshold = 2.0 * gamma_b**2 * gamma_p * (spec.num_agents - 1)
    return ConditionRecord(
        gamma_B=gamma_b,
        gamma_P=gamma_p,
        threshold=threshold,
        margin=float(margin),
        satisfied=bool(spec.tau > threshold * (1.0 + margin)),
    )


def po_solve(
    spec: GameSpec,
    inner_iters: int | None = None,
    stop_tol: float | None = 1e-10,
) -> SolveReport:
    """Receding-horizon policy optimization.

    All gains and covariances start at zero (inert solver state, replaced
    on the first inner iteration).  Stages are processed backward; within
    a stage, every agent's best response to the current joint stage policy
    is computed from the same iterate and assigned jointly, up to
    ``inner_iters`` times or until the stage policy moves less than
    ``stop_tol`` in the policy metric.  Tail value matrices come from the
    frozen later-stage policies, so they are fixed while a stage iterates.

    Non-convergence is visible in the returned trace (distances failing to
    decrease) and in the contraction moduli.  Raises :class:`SolverError`
    naming the stage when its gains or the tail values it leaves are not
    finite, so a diverged pass never yields a policy.
    """
    if inner_iters is None and stop_tol is None:
        raise ValueError("need inner_iters >= 1 or stop_tol > 0")
    if inner_iters is not None and inner_iters < 1:
        raise ValueError("inner_iters must be >= 1")
    if stop_tol is not None and not stop_tol > 0:
        raise ValueError("stop_tol must be positive")
    L = MAX_INNER_ITERS if inner_iters is None else int(inner_iters)

    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    eye = np.eye(p)
    gains = np.zeros((n, T, p, m))
    covs = np.zeros((n, T, p, p))
    tails = spec.Q[:, T].copy()  # (N, m, m) value matrices for the stage below
    gamma_p_seen = float(np.sqrt((tails**2).sum(axis=(1, 2)).max()))
    trace_by_stage: list[tuple[float, ...]] = [()] * T
    moduli = np.zeros(T)

    for t in range(T - 1, -1, -1):
        moduli[t] = contraction_modulus(spec, t, tails)
        BtP = np.einsum("imp,imn->ipn", spec.B[:, t], tails)  # (N, p, m)
        bracket = spec.R[:, t] + np.einsum("ipm,imq->ipq", BtP, spec.B[:, t])
        H = 0.5 * spec.tau * eye + bracket
        BPA = np.einsum("ipm,mn->ipn", BtP, spec.A[t])
        cross = np.einsum("ipm,jmq->ijpq", BtP, spec.B[:, t])
        cross[np.arange(n), np.arange(n)] = 0.0
        sigma_new = _sym(np.linalg.solve(eye + (2.0 / spec.tau) * bracket, np.broadcast_to(eye, (n, p, p)).copy()))

        distances: list[float] = []
        for _ in range(L):
            rhs = BPA + np.einsum("ijpq,jqm->ipm", cross, gains[:, t])
            new_gains = -np.linalg.solve(H, rhs)
            d = float(
                np.sqrt(((new_gains - gains[:, t]) ** 2).sum(axis=(1, 2))).sum()
                + np.sqrt(((sigma_new - covs[:, t]) ** 2).sum(axis=(1, 2))).sum()
            )
            gains[:, t] = new_gains
            covs[:, t] = sigma_new
            distances.append(d)
            if stop_tol is not None and d < stop_tol:
                break
        trace_by_stage[t] = tuple(distances)
        if not np.isfinite(gains[:, t]).all():
            raise SolverError(f"stage {t}: policy gains are not finite; the backward pass diverged")

        # Lyapunov step: fold the converged stage into each agent's tail value.
        closed = spec.A[t] + np.einsum("jmp,jpk->mk", spec.B[:, t], gains[:, t])
        own = np.einsum(
            "ipm,ipq,iqn->imn", gains[:, t], 0.5 * spec.tau * eye + spec.R[:, t], gains[:, t]
        )
        tails = _sym(spec.Q[:, t] + own + np.einsum("lm,ilk,kn->imn", closed, tails, closed))
        if not np.isfinite(tails).all():
            raise SolverError(
                f"stage {t}: tail value matrices are not finite; the backward pass diverged"
            )
        gamma_p_seen = max(gamma_p_seen, float(np.sqrt((tails**2).sum(axis=(1, 2)).max())))

    gamma_b = _max_input_norm(spec)
    threshold = 2.0 * gamma_b**2 * gamma_p_seen * (n - 1)
    condition = ConditionRecord(
        gamma_B=gamma_b,
        gamma_P=gamma_p_seen,
        threshold=threshold,
        margin=0.0,
        satisfied=bool(spec.tau > threshold),
    )
    return SolveReport(
        policy=joint_policy_from_arrays(gains, covs),
        trace=tuple(trace_by_stage),
        contraction_moduli=tuple(float(r) for r in moduli),
        condition=condition,
    )


def delta_augment_solve(
    spec: GameSpec,
    delta_init: float,
    growth: float = 2.0,
    max_rounds: int = 20,
    inner_iters: int | None = None,
    stop_tol: float | None = 1e-10,
    margin: float = 0.0,
) -> SolveReport:
    """Approximate equilibrium via regularization augmentation.

    Tries ``delta = delta_init * growth**k`` for ``k = 0, 1, ...`` until the
    game with weight ``tau + delta`` passes the adequacy check (verified on
    its exact solution), then runs :func:`po_solve` on that augmented game.
    The returned policy is an approximate equilibrium of the *original*
    game whose per-agent exploitability (reported in ``nash_gaps``) shrinks
    with ``delta``.
    """
    if not delta_init > 0:
        raise ValueError("delta_init must be positive")
    if not growth > 1:
        raise ValueError("growth must exceed 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")

    delta = None
    condition = None
    last_failure = "no rounds attempted"
    for k in range(max_rounds):
        candidate = delta_init * growth**k
        augmented = spec.with_tau(spec.tau + candidate)
        try:
            sol = exact_ne(augmented)
        except SolverError as exc:
            last_failure = f"delta={candidate:g}: {exc}"
            continue
        record = check_assumption_tau(augmented, sol, margin)
        if record.satisfied:
            delta = candidate
            condition = record
            break
        gap = record.threshold * (1.0 + margin) - augmented.tau
        last_failure = f"delta={candidate:g}: threshold gap {gap:.6g} remains"
    if delta is None:
        raise SolverError(
            f"augmentation failed after {max_rounds} rounds ({last_failure})"
        )

    report = po_solve(spec.with_tau(spec.tau + delta), inner_iters=inner_iters, stop_tol=stop_tol)
    report.condition = condition
    report.delta_used = float(delta)
    report.nash_gaps = exploitability(spec, report.policy)
    return report
