"""Nash equilibrium solvers and diagnostics.

Two routes to the same equilibrium, both on the joint gain system
``Phi_t G = -B^T P A`` of each stage: an exact backward pass that solves it
for all agents' gains at once, and an iterative receding-horizon scheme
that converges the last stage first and sweeps backward, applying all
agents' best responses simultaneously within each stage.  The latter is
block-Jacobi on the same system.  Both exploit the fact that with
entropy-regularized costs every equilibrium policy is linear Gaussian.
They share one backward stage loop, differing only in its gain step, and
one check function, of which only the condition of ``Phi_t`` is the exact
pass's alone.  It runs once over all stages after the loop and, only to
name a failure, stage by stage; a check raises where it fails, and the pass
names the stage, in the same words for both.

Also here: the regularization-adequacy check, and the tau-augmentation
fallback used when that check fails.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .control import (_frobenius, _logdets, _max_frobenius, joint_products, own_cost, stage_blocks,
                      stage_covariance, stage_noise, uniqueness_threshold, value_offsets, value_step)
from .evaluate import exploitability
from .model import GameSpec, JointPolicy, _integer

__all__ = [
    "SolverError",
    "NESolution",
    "ConditionRecord",
    "SolveReport",
    "exact_ne",
    "check_assumption_tau",
    "po_solve",
    "delta_augment_solve",
]

# Reciprocal-condition floor distinguishing genuine non-uniqueness from round-off.
COND_LIMIT = 1e12
# Inner-iteration cap when only a distance tolerance is given.
MAX_INNER_ITERS = 500
# Stages between the early-stop checks of a backward pass.
_CHECK_EVERY = 16


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
    passes iff ``tau > threshold * (1 + margin)`` (strict).  The fields, in
    this order, follow ``tau`` as the keys of ``condition.json``.
    """

    gamma_B: float
    gamma_P: float
    threshold: float
    margin: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
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


def _diagonal(n: int, p: int) -> np.ndarray:
    """Flat positions ``(N, p, p)`` of the diagonal blocks ``(i, :, i, :)`` of an ``(N p, N p)`` matrix."""
    return np.arange((n * p) ** 2).reshape(n, p, n, p)[np.arange(n), :, np.arange(n)]


def exact_ne(spec: GameSpec, cond_limit: float = COND_LIMIT) -> NESolution:
    """Equilibrium via the backward stacked-gain linear system.

    At each stage the gains of all agents solve ``Phi_t G = -B^T P A``:
    block ``(i, j)`` of ``Phi_t`` is ``B^i^T P^i B^j``, plus ``(tau/2) I + R^i``
    on the diagonal.  Covariances follow in closed form, and the values
    are the certificate's, so ``riccati``/``offsets`` equal
    ``value_certificate(spec, sol.policy)``.  Raises :class:`SolverError`
    when a stage system is numerically singular (condition estimate above
    ``cond_limit``), which signals a non-unique or ill-conditioned
    equilibrium; raising ``tau`` (see :func:`delta_augment_solve`) repairs
    this.  Also raises :class:`SolverError` naming the stage when its stage
    matrices, open-loop values, values or offsets overflow or one of its
    solves or factorizations is singular, so a diverged pass never yields
    a policy; these checks are :func:`po_solve`'s too, and the error is
    that of the first check a stage-by-stage pass fails.  A ``cond_limit``
    below 1, the least condition number, or NaN raises ``ValueError``.
    """
    if not cond_limit >= 1:
        raise ValueError(f"cond_limit must be at least 1, got {cond_limit!r}")
    return _exact_backward(spec, cond_limit)


def _exact_backward(spec: GameSpec, cond_limit: float = COND_LIMIT, margin: float | None = None) -> NESolution | None:
    """:func:`exact_ne`, or with a ``margin`` an augmentation round that
    returns ``None`` once its values rule the check out (see :func:`_backward`)."""
    blocks = stage_blocks(spec)
    run = _backward(spec, blocks, lambda t, phi, BPA: np.linalg.solve(phi + blocks[3][t], -BPA), margin, cond_limit)
    if run is None:
        return None
    policy, _, P, q = run
    return NESolution(policy=policy, riccati=P, offsets=q)


def _backward(spec: GameSpec, blocks, gain_step, margin: float | None = None, cond_limit: float | None = None):
    """The backward stage loop of both solvers: per stage, the joint products,
    the gains ``gain_step(t, products, BPA)``, the own cost and the value step.
    A gain step may raise ``LinAlgError`` or :class:`SolverError` to fail its
    stage.  Every ``_CHECK_EVERY`` stages the loop stops once a value solved
    since the last check is not finite.  :func:`_stage_checks` then checks
    all stages at once and, if one fails or the loop stopped, stage by stage
    from ``T-1`` down, to raise the first failure, ``cond(Phi_t)`` above a
    ``cond_limit`` included, naming its stage.  Else the pass returns the
    policy, stage covariances ``(T, N, p, p)``, values ``(N, T+1, m, m)``
    and offsets ``(N, T+1)``.  With a ``margin`` it returns
    ``None`` as soon as the values solved so far fail the adequacy check at
    that margin: their largest norm bounds ``gamma_P`` from below, and the
    threshold grows with ``gamma_P``, so the full pass fails it too.
    """
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    Bt, side, weight, _ = blocks
    P = spec.Q.copy()
    phis, BPA, G = np.zeros((T, n * p, n * p)), np.zeros((T, n * p, m)), np.zeros((T, n * p, m))
    failure = None
    gamma_b = None if margin is None else _max_frobenius(spec.B)
    gamma_p, unchecked = 0.0, T + 1  # largest norm among P[:, unchecked:]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T - 1, -1, -1):
            tails = P[:, t + 1]
            phis[t], BPA[t] = joint_products(Bt[:, t], side[t], spec.A[t], tails)
            try:
                G[t] = gain_step(t, phis[t], BPA[t])
                Qown = spec.Q[:, t] + own_cost(weight[:, t], G[t].reshape(n, p, m))
                P[:, t] = value_step(Qown, spec.A[t] + side[t] @ G[t], tails)
            except (np.linalg.LinAlgError, SolverError) as exc:
                failure = (t, exc)
                break
            if t % _CHECK_EVERY:
                continue
            fresh, unchecked = P[:, t:unchecked], t
            if not np.isfinite(fresh).all():
                break  # the checks below find the stage
            if margin is not None:
                gamma_p = max(gamma_p, _max_frobenius(fresh))
                if not _condition(spec, gamma_p, margin, gamma_b).satisfied:
                    return None
    run = (phis, BPA, P)
    if failure is None:
        try:
            covs, q = _stage_checks(spec, blocks, run, 0, T, cond_limit)
        except SolverError as exc:
            failure = (0, exc)
        else:
            gains = G.reshape(T, n, p, m).swapaxes(0, 1)
            return JointPolicy(gains, covs.swapaxes(0, 1)), covs, P, q
    # Stage by stage, the checks do the stacked arithmetic matrix by matrix; a
    # stacked failure that no later stage reproduces is charged to stage 0.
    first, error = failure
    q = np.zeros((n, 1))
    for t in range(T - 1, first - 1, -1):
        try:
            q = _stage_checks(spec, blocks, run, t, t + 1, cond_limit, error if t == first else None, q)[1][:, :1]
        except SolverError as exc:
            raise SolverError(f"stage {t}: {exc}") from None


def _stage_checks(spec: GameSpec, blocks, run, lo: int, hi: int, cond_limit=None, error=None, q_next=0.0):
    """The checks of stages ``lo:hi`` of a pass ``run`` of :func:`_backward`
    (products, ``B^T P A``, values), in the order a stage meets them: finite
    stage matrices and ``B^T P A``; finite open-loop values; ``cond(Phi_t)``
    within a ``cond_limit`` (only :func:`exact_ne` solves ``Phi_t``); the
    loop's own ``error``; a nonsingular covariance solve and Cholesky factor;
    finite values and offsets, ``q_next`` ``(N, 1)`` those of stage ``hi``.
    The first failure raises :class:`SolverError`; else returns the
    covariances ``(hi-lo, N, p, p)`` and offsets ``(N, hi-lo+1)`` of the stages."""
    phis, BPA, P = run
    n, p = spec.num_agents, spec.action_dim
    weight, reg = blocks[2:]
    A, diverged = spec.A[lo:hi], "are not finite; the backward pass diverged"
    with np.errstate(over="ignore", invalid="ignore"):
        systems = phis[lo:hi] + reg[lo:hi]
        if not (np.isfinite(systems).all() and np.isfinite(BPA[lo:hi]).all()):
            raise SolverError(f"stage matrices {diverged}")
        # Beyond the float range, round-off in the closed loop A + sum B K,
        # weighted by the tail values, exceeds any value the stage can certify.
        if not np.isfinite(A.swapaxes(-1, -2) @ P[:, lo + 1 : hi + 1] @ A).all():
            raise SolverError(f"open-loop values {diverged}")
        try:
            if cond_limit is not None:
                cond = np.linalg.cond(systems)
                bad = ~(np.isfinite(cond) & (cond <= cond_limit))
                if bad.any():
                    raise SolverError(f"coupling matrix condition {cond[bad][-1]:.3e} exceeds {cond_limit:.1e}; "
                                      "non-unique or ill-conditioned equilibrium, consider tau augmentation")
            if error is not None:
                raise error
            brackets = phis[lo:hi].reshape(hi - lo, -1).take(_diagonal(n, p), axis=1)  # C-ordered, stage-major
            covs = stage_covariance(brackets + spec.R[:, lo:hi].swapaxes(0, 1), spec.tau)
            agent_covs = covs.swapaxes(0, 1)
            logdets = _logdets(np.linalg.cholesky(agent_covs))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular stage matrix ({exc}); the backward pass diverged") from None
        noise = stage_noise(spec, slice(lo, hi), agent_covs)
        q = value_offsets(spec.tau, weight[:, lo:hi], agent_covs, logdets, noise, P[:, lo : hi + 1]) + q_next
        if not (np.isfinite(P[:, lo:hi]).all() and np.isfinite(q).all()):
            raise SolverError(f"value matrices {diverged}")
    return covs, q


def _condition(spec: GameSpec, gamma_p: float, margin: float, gamma_b: float | None = None) -> ConditionRecord:
    gamma_b, threshold = uniqueness_threshold(spec, gamma_p, gamma_b)
    return ConditionRecord(
        gamma_B=gamma_b,
        gamma_P=gamma_p,
        threshold=threshold,
        margin=float(margin),
        satisfied=bool(spec.tau > threshold * (1.0 + margin)),
    )


def _check_margin(margin: float) -> None:
    """A negative margin would pass a tau below the threshold, and NaN never compares."""
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError(f"margin must be finite and nonnegative, got {margin!r}")


def check_assumption_tau(spec: GameSpec, sol: NESolution, margin: float = 0.0) -> ConditionRecord:
    """Check that the regularization weight exceeds the uniqueness threshold.

    The threshold depends on the solution's own value matrices, so the
    check is a-posteriori: solve first, then verify.  ``margin`` demands
    strict clearance ``tau > threshold * (1 + margin)``; it must be finite
    and nonnegative (``ValueError`` otherwise).
    """
    _check_margin(margin)
    return _condition(spec, _max_frobenius(sol.riccati), margin)


def _spectral_radius(M: np.ndarray) -> float:
    """The largest modulus of an eigenvalue of ``M``; NaN unless ``M`` is finite."""
    return float(np.abs(np.linalg.eigvals(M)).max()) if np.isfinite(M).all() else math.nan


def _inner_limit(inner_iters: int | None, stop_tol: float | None) -> int:
    """The cap on :func:`po_solve`'s inner iterations; ``ValueError`` unless
    its stopping arguments are valid."""
    if inner_iters is None and stop_tol is None:
        raise ValueError("need inner_iters >= 1 or stop_tol > 0")
    if inner_iters is not None and _integer("inner_iters", inner_iters) < 1:
        raise ValueError("inner_iters must be >= 1")
    if stop_tol is not None and not stop_tol > 0:
        raise ValueError("stop_tol must be positive")
    return MAX_INNER_ITERS if inner_iters is None else int(inner_iters)


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
    ``inner_iters`` must be a Python or numpy integer, not ``bool``.

    Non-convergence is visible in the returned trace (distances failing to
    decrease) and in the contraction moduli.  A stage's iteration matrix
    ``-D^{-1} E`` is checked once: the first time its gain distance exceeds
    its first or, with ``inner_iters`` not given, at the cap if the stop test
    is unmet and growth never checked it.  Spectral radius >= 1, or a matrix
    not finite, raises: the stage diverges or never converges.  Growth under
    a smaller radius is transient, and a stage capped under it is returned.
    The stage loop and every check but the condition of ``Phi_t``, which PO
    never solves, are :func:`exact_ne`'s: :class:`SolverError` names the
    stage that diverged, whose stage matrices, open-loop values, values or
    offsets are not finite, or one of whose solves or factorizations is
    singular.
    """
    L = _inner_limit(inner_iters, stop_tol)

    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    agents, diagonal, half = np.arange(n), _diagonal(n, p), 0.5 * spec.tau * np.eye(p)
    trace_by_stage: list = [None] * T

    def gain_step(t, products, BPA):
        bracket = spec.R[:, t] + products.reshape(-1)[diagonal]
        # Block-Jacobi on Phi_t G = -B^T P A, factored once: G <- c + M G, with c = -D^{-1} B^T P A,
        # M = -D^{-1} E, D the own blocks (tau/2) I + bracket, E the cross couplings.
        rhs = np.concatenate((BPA.reshape(n, p, m), products.reshape(n, p, n * p)), axis=-1)
        rhs[..., m:].reshape(n, p, n, p)[agents, :, agents] = 0.0  # leaves E
        factored = -np.linalg.solve(half + bracket, rhs)
        c, M = factored[..., :m].reshape(n * p, m), factored[..., m:].reshape(n * p, n * p)
        G, distances, grew = np.zeros((n * p, m)), [], False
        for _ in range(L):
            new = c + M @ G
            diff = new - G
            d = np.add.reduce(np.sqrt(np.add.reduce((diff * diff).reshape(n, -1), axis=1)))
            if distances and d > distances[0] and not grew:
                # Growth diverges only if M has an eigenvalue of modulus >= 1; below
                # that, a non-normal M can grow transiently and still converge.
                grew = True
                if not _spectral_radius(M) < 1.0:
                    raise SolverError(f"inner iteration diverged, gain distance {distances[0]:.3e} "
                                      f"to {d:.3e} in {len(distances) + 1} iterations")
            G = new
            distances.append(float(d))
            if len(distances) == 1 and stop_tol is not None and d < stop_tol:
                # The covariance moves only on the first iteration, which adds its
                # norm (after the loop); it can decide the stop test only here.
                d = d + _frobenius(stage_covariance(bracket, spec.tau)).sum()
            if stop_tol is not None and d < stop_tol or math.isnan(d):  # NaN gains stay NaN
                break
        else:  # at the cap without meeting the stop test, which the default cap promises
            if inner_iters is None and not grew and not (rho := _spectral_radius(M)) < 1.0:
                raise SolverError(f"inner iteration did not converge, spectral radius {rho:.6g} >= 1 after {L} "
                                  f"iterations, gain distance {distances[0]:.3e} to {distances[-1]:.3e}")
        trace_by_stage[t] = distances
        return G

    policy, covs, P, _ = _backward(spec, stage_blocks(spec), gain_step)
    # Each stage's first distance adds its covariance norms; then value norms and moduli, stacked over the stages.
    for distances, norm in zip(trace_by_stage, np.add.reduce(_frobenius(covs), axis=-1).tolist()):
        distances[0] += norm
    norms = _frobenius(P).max(axis=0)  # over the policy's value matrices
    with np.errstate(over="ignore"):
        moduli = uniqueness_threshold(spec, norms[1:])[1] / spec.tau
    return SolveReport(
        policy=policy,
        trace=tuple(map(tuple, trace_by_stage)),
        contraction_moduli=tuple(moduli.tolist()),
        condition=_condition(spec, float(norms.max()), 0.0),
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
    A round's backward pass stops as soon as the values it has solved rule
    the check out, so ``delta`` and every output are those of full passes;
    a failure's text comes from one full pass of the last failed round.
    A round whose ``tau + delta`` overflows raises :class:`SolverError`.
    ``max_rounds`` must be a Python or numpy integer, not ``bool``;
    ``inner_iters`` and ``stop_tol`` are checked as :func:`po_solve` checks
    them, before the first round.  The returned policy is an approximate
    equilibrium of the *original* game whose per-agent exploitability
    (reported in ``nash_gaps``) shrinks with ``delta``.
    """
    if not (math.isfinite(delta_init) and delta_init > 0):
        raise ValueError(f"delta_init must be finite and positive, got {delta_init!r}")
    if not (math.isfinite(growth) and growth > 1):
        raise ValueError(f"growth must be finite and exceed 1, got {growth!r}")
    if _integer("max_rounds", max_rounds) < 1:
        raise ValueError("max_rounds must be >= 1")
    _check_margin(margin)
    _inner_limit(inner_iters, stop_tol)

    delta = condition = failed = None  # failed: the delta of the last failed round
    for k in range(max_rounds):
        try:
            candidate = delta_init * growth**k
            finite = math.isfinite(spec.tau + candidate)
        except OverflowError:
            finite = False
        if not finite:
            raise SolverError(
                f"augmentation round {k}: tau + {delta_init:g} * {growth:g}**{k} overflows "
                f"({_round_failure(spec, failed, margin)})"
            )
        augmented = spec.with_tau(spec.tau + candidate)
        try:
            sol = _exact_backward(augmented, margin=margin)
        except SolverError:
            sol = None
        if sol is not None:  # a margin pass returns only values that pass the check
            delta, condition = candidate, check_assumption_tau(augmented, sol, margin)
            break
        failed = candidate
    if delta is None:
        raise SolverError(f"augmentation failed after {max_rounds} rounds ({_round_failure(spec, failed, margin)})")

    report = po_solve(augmented, inner_iters=inner_iters, stop_tol=stop_tol)  # the accepted round's game
    return replace(report, condition=condition, delta_used=float(delta), nash_gaps=exploitability(spec, report.policy))


def _round_failure(spec: GameSpec, delta: float | None, margin: float) -> str:
    """Why the augmentation round with ``delta`` failed, from one full backward pass of it."""
    if delta is None:
        return "no rounds attempted"
    augmented = spec.with_tau(spec.tau + delta)
    try:
        sol = _exact_backward(augmented)
    except SolverError as exc:
        return f"delta={delta:g}: {exc}"
    gap = check_assumption_tau(augmented, sol, margin).threshold * (1.0 + margin) - augmented.tau
    return f"delta={delta:g}: threshold gap {gap:.6g} remains"
