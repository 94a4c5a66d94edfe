"""Nash equilibrium solvers and diagnostics.

Two routes to the same equilibrium, both on the joint gain system
``Phi_t G = -B^T P A`` of each stage: an exact backward pass that solves it
for all agents' gains at once, and an iterative receding-horizon scheme
that converges the last stage first and sweeps backward, applying all
agents' best responses simultaneously within each stage.  The latter is
block-Jacobi on the same system.  Both exploit the fact that with
entropy-regularized costs every equilibrium policy is linear Gaussian.
They share one backward stage loop, differing only in its gain step, and
one set of checks, stacked after the loop, of which only the condition of
``Phi_t`` is the exact pass's alone; one stage-by-stage replay names a
failure in the same words for both.

Also here: the regularization-adequacy check, and the tau-augmentation
fallback used when that check fails.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .control import (_frobenius, _logdets, _max_frobenius, joint_products, offset_terms, own_cost, stage_blocks,
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


def _finite(t: int, what: str, *arrays: np.ndarray) -> None:
    """Raise :class:`SolverError` naming stage ``t`` unless every entry is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise SolverError(f"stage {t}: {what} are not finite; the backward pass diverged")


@contextmanager
def _stage(t: int):
    """One stage of a stage-by-stage check.  Overflow is left to the
    :func:`_finite` checks rather than warned about, and a singular solve or
    factorization anywhere in the stage raises :class:`SolverError` naming ``t``."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            yield
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"stage {t}: singular stage matrix ({exc}); the backward pass diverged") from None


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
    a policy; these checks are :func:`po_solve`'s too.  The checks run
    stacked after the stage loop; the error is that of the first failing
    check of a stage-by-stage pass.
    """
    return _exact_backward(spec, cond_limit)


def _exact_backward(spec: GameSpec, cond_limit: float = COND_LIMIT, margin: float | None = None) -> NESolution | None:
    """:func:`exact_ne`, or with a ``margin`` an augmentation round that
    returns ``None`` once its values rule the check out (see :func:`_backward`)."""
    blocks = stage_blocks(spec)
    reg = blocks[3]
    run = _backward(spec, blocks, lambda t, products, BPA: np.linalg.solve(products + reg[t], -BPA), margin)
    if run is None:
        return None
    policy, _, q = _check_pass(spec, blocks, run, cond_limit)
    return NESolution(policy=policy, riccati=run[3], offsets=q)


def _backward(spec: GameSpec, blocks, gain_step, margin: float | None = None):
    """The backward stage loop of both solvers: per stage, the joint products,
    the gains ``gain_step(t, products, BPA)``, the own cost and the value step.
    Returns the stacked products ``(T, N p, N p)``, ``B^T P A``, gains
    ``(T, N p, m)``, values ``(N, T+1, m, m)`` and, if the loop stopped
    early, ``(stage, LinAlgError, SolverError or None)``, else ``None``,
    unchecked.  A gain step may raise either error to fail its stage.  Every
    ``_CHECK_EVERY`` stages the loop stops once a value solved since the last
    check is not finite.  With a ``margin`` it returns ``None`` as soon as
    the values solved so far fail the adequacy check at that margin: their
    largest norm bounds ``gamma_P`` from below, and the threshold grows with
    ``gamma_P``, so the full pass fails it too.
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
                failure = (t, None)
                break
            if margin is not None:
                gamma_p = max(gamma_p, _max_frobenius(fresh))
                if not _condition(spec, gamma_p, margin, gamma_b).satisfied:
                    return None
    return phis, BPA, G, P, failure


def _check_pass(spec: GameSpec, blocks, run, cond_limit: float | None = None):
    """Check a pass ``run`` of :func:`_backward`, stacked over its stages;
    return its policy, its stage covariances ``(T, N, p, p)`` and its offsets
    ``(N, T+1)``.  Both solvers need every solve and Cholesky factor to be
    nonsingular and finite stage matrices, open-loop values, values and
    offsets; :func:`exact_ne`, the solver that solves ``Phi_t`` (given a
    ``cond_limit``), also needs every ``cond(Phi_t)`` within it.  On a
    failure, a replay raises the error of the first check that a
    stage-by-stage pass fails."""
    phis, BPA, gains, P, failure = run
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    weight, reg = blocks[2:]
    brackets = phis.reshape(T, -1).take(_diagonal(n, p), axis=1)  # C-ordered, stage-major
    brackets += spec.R.swapaxes(0, 1)
    systems = phis + reg
    with np.errstate(over="ignore", invalid="ignore"):
        # Beyond the float range, round-off in the closed loop A + sum B K,
        # weighted by the tail values, exceeds any value the stage can certify.
        open_loop = spec.A.swapaxes(-1, -2) @ P[:, 1:] @ spec.A
        if failure is None:
            try:
                covs = stage_covariance(brackets, spec.tau)
                agent_covs = covs.swapaxes(0, 1)
                logdets = _logdets(np.linalg.cholesky(agent_covs))
                noise = stage_noise(spec, slice(None), agent_covs)
                q = value_offsets(spec.tau, weight, agent_covs, logdets, noise, P)
                ok = all(np.isfinite(a).all() for a in (systems, BPA, P, open_loop, q))
                if ok and cond_limit is not None:
                    cond = np.linalg.cond(systems)
                    ok = bool((np.isfinite(cond) & (cond <= cond_limit)).all())
                if ok:
                    gains = gains.reshape(T, n, p, m).swapaxes(0, 1)
                    return JointPolicy(gains, agent_covs), covs, q
            except np.linalg.LinAlgError:
                pass
    (first, error), q_t = failure or (0, None), np.zeros(n)
    for t in range(T - 1, first - 1, -1):
        with _stage(t):
            _finite(t, "stage matrices", systems[t], BPA[t])
            _finite(t, "open-loop values", open_loop[:, t])
            if cond_limit is not None:
                cond = float(np.linalg.cond(systems[t]))
                if not (np.isfinite(cond) and cond <= cond_limit):
                    raise SolverError(
                        f"stage {t}: coupling matrix condition {cond:.3e} exceeds {cond_limit:.1e}; "
                        "non-unique or ill-conditioned equilibrium, consider tau augmentation"
                    )
            if error is not None and t == first:
                raise error
            cov = stage_covariance(brackets[t], spec.tau)
            logdets = _logdets(np.linalg.cholesky(cov))
            q_t = q_t + offset_terms(spec.tau, weight[:, t], cov, logdets, stage_noise(spec, t, cov), P[:, t + 1])
            _finite(t, "value matrices", P[:, t], q_t)
    raise SolverError("a stacked stage check failed that no single stage reproduces")


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
    decrease) and in the contraction moduli.  The first time a stage's gain
    distance exceeds its first, its iteration matrix ``-D^{-1} E`` is
    checked once: if it has spectral radius >= 1 or is not finite, the
    stage diverged and stops at that iteration; growth under a smaller
    radius is transient.  The stage loop and every check but the
    condition of ``Phi_t``, which PO never solves, are
    :func:`exact_ne`'s: :class:`SolverError` names the stage that
    diverged, whose stage matrices, open-loop values, values or offsets
    are not finite, or one of whose solves or factorizations is singular.
    """
    if inner_iters is None and stop_tol is None:
        raise ValueError("need inner_iters >= 1 or stop_tol > 0")
    if inner_iters is not None and _integer("inner_iters", inner_iters) < 1:
        raise ValueError("inner_iters must be >= 1")
    if stop_tol is not None and not stop_tol > 0:
        raise ValueError("stop_tol must be positive")
    L = MAX_INNER_ITERS if inner_iters is None else int(inner_iters)

    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    agents, diagonal, half = np.arange(n), _diagonal(n, p), 0.5 * spec.tau * np.eye(p)
    first = np.zeros(T)  # the gain part of each stage's first inner distance
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
            d = gain = np.add.reduce(np.sqrt(np.add.reduce((diff * diff).reshape(n, -1), axis=1)))
            if not distances:
                # The covariance moves only on the first iteration, which adds its
                # norm (after the loop); it can decide the stop test only here.
                first[t] = d
                if stop_tol is not None and d < stop_tol:
                    d = d + _frobenius(stage_covariance(bracket, spec.tau)).sum()
            elif gain > first[t] and not grew:
                # Growth diverges only if M has an eigenvalue of modulus >= 1; below
                # that, a non-normal M can grow transiently and still converge.
                grew = True
                if not (np.isfinite(M).all() and np.abs(np.linalg.eigvals(M)).max() < 1.0):
                    raise SolverError(f"stage {t}: inner iteration diverged, gain distance {first[t]:.3e} "
                                      f"to {gain:.3e} in {len(distances) + 1} iterations")
            G = new
            distances.append(float(d))
            if stop_tol is not None and d < stop_tol or math.isnan(d):  # NaN gains stay NaN
                break
        trace_by_stage[t] = distances
        return G

    blocks = stage_blocks(spec)
    run = _backward(spec, blocks, gain_step)
    policy, covs, _ = _check_pass(spec, blocks, run)
    # The first distances, value norms and moduli, stacked over the stages.
    for distances, d in zip(trace_by_stage, (first + np.add.reduce(_frobenius(covs), axis=-1)).tolist()):
        distances[0] = d
    norms = _frobenius(run[3]).max(axis=0)  # over the policy's value matrices
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
    ``max_rounds`` must be a Python or numpy integer, not ``bool``.
    The returned policy is an approximate equilibrium of the *original*
    game whose per-agent exploitability (reported in ``nash_gaps``) shrinks
    with ``delta``.
    """
    if not (math.isfinite(delta_init) and delta_init > 0):
        raise ValueError(f"delta_init must be finite and positive, got {delta_init!r}")
    if not growth > 1:
        raise ValueError("growth must exceed 1")
    if _integer("max_rounds", max_rounds) < 1:
        raise ValueError("max_rounds must be >= 1")
    _check_margin(margin)

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
        if sol is not None:
            record = check_assumption_tau(augmented, sol, margin)
            if record.satisfied:
                delta, condition = candidate, record
                break
        failed = candidate
    if delta is None:
        raise SolverError(f"augmentation failed after {max_rounds} rounds ({_round_failure(spec, failed, margin)})")

    report = po_solve(augmented, inner_iters=inner_iters, stop_tol=stop_tol)  # the accepted round's game
    report.condition = condition
    report.delta_used = float(delta)
    report.nash_gaps = exploitability(spec, report.policy)
    return report


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
