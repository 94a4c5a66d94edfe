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

from ._rollout import _void_rows, rollout
from .control import (AgentValue, _cholesky, _frobenius, _logdets, best_responses, expected_costs, lyapunov_values,
                      own_weight, stage_noise, value_offsets)
from .model import GameSpec, JointPolicy, _integer, check_policy_shape

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
    """Exact quadratic value data of every agent under one joint policy,
    stacked over agents.

    ``P``: ``(N, T+1, m, m)`` value matrices, ``P[:, T]`` the terminal state
    costs; ``q``: ``(N, T+1)`` offsets, ``q[:, T] = 0``; ``expected_costs``:
    ``(N,)``, each agent's cost under the game's initial distribution.
    ``agents`` holds each agent's :class:`AgentValue` as views of ``P`` and
    ``q``, not copies.
    """

    P: np.ndarray
    q: np.ndarray
    expected_costs: np.ndarray

    @property
    def agents(self) -> tuple[AgentValue, ...]:
        return tuple(map(AgentValue, self.P, self.q, self.expected_costs.tolist()))


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
    chol = _cholesky(covs, "policy")
    return chol, _logdets(chol)


@np.errstate(all="ignore")  # overflow is reported below, by agent and stage
def value_certificate(spec: GameSpec, joint: JointPolicy) -> ValueCertificate:
    """Exact per-agent cost of a joint policy via backward recursions.

    For each agent ``P_T`` is the terminal state cost and, stepping
    backward with the all-agent closed loop ``Acl_t = A_t + sum_j B^j K^j``,

    ``P_t = Q^i_t + K^i^T ((tau/2) I + R^i) K^i + Acl^T P_{t+1} Acl``

    while the scalar offset accumulates the own-action trace terms, the
    entropy terms, and ``tr(W_t P_{t+1})`` with ``W_t = noise_cov +
    sum_j B^j cov^j B^j^T`` collecting process noise plus every agent's
    action noise pushed through its input matrix.

    Raises ``ValueError`` naming the first agent, and its last stage, whose
    values, offsets or expected cost are not finite.
    """
    check_policy_shape(spec, joint)
    _, logdets = _policy_cholesky(joint.covs)
    P = lyapunov_values(spec, joint.gains)
    noise = stage_noise(spec, slice(None), joint.covs)
    q = value_offsets(spec.tau, own_weight(spec.tau, spec.R), joint.covs, logdets, noise, P)
    cert = _certificate(spec, P, q)
    bad = ~(np.isfinite(P).all(axis=(-2, -1)) & np.isfinite(q))
    bad[:, 0] |= ~np.isfinite(cert.expected_costs)
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        t = spec.horizon - int(bad[i, ::-1].argmax())
        raise ValueError(f"agent {i}: certified values are not finite at stage {t}; the policy's costs overflow")
    return cert


def _certificate(spec: GameSpec, P: np.ndarray, q: np.ndarray) -> ValueCertificate:
    """Certificate of the stacked value matrices ``P`` and offsets ``q``, not copied."""
    return ValueCertificate(P, q, expected_costs(spec, P[:, 0], q[:, 0]))


def exploitability(spec: GameSpec, joint: JointPolicy) -> np.ndarray:
    """Per-agent Nash gap of a joint policy at the initial distribution.

    ``gap_i = J_i(joint) - J_i(best response of i, others unchanged)``,
    both from exact certificates; all agents' best responses run in one
    batched backward pass.  Nonnegative up to round-off (~1e-9 floor);
    identically zero at an exact equilibrium.
    """
    return _nash_gaps(spec, joint, value_certificate(spec, joint).expected_costs)


def _nash_gaps(spec: GameSpec, joint: JointPolicy, base_costs: np.ndarray) -> np.ndarray:
    """Nash gaps of a joint policy whose certified expected costs are
    ``base_costs``: each agent's cost less that of its best response."""
    _, _, P, q = best_responses(spec, joint.gains, joint.covs, np.arange(spec.num_agents))
    return base_costs - expected_costs(spec, P[:, 0], q[:, 0])


def policy_distance(a: JointPolicy, b: JointPolicy, t: int | None = None) -> float:
    """Policy-space metric: per stage, sum over agents of the Frobenius
    norms of the gain and covariance differences; summed over stages
    unless a single stage ``t`` is selected: a Python or numpy integer in
    ``[0, T)``, not ``bool``."""
    ga, ca, gb, cb = a.gains, a.covs, b.gains, b.covs
    if ga.shape != gb.shape:
        raise ValueError(f"policy shape mismatch: {ga.shape} vs {gb.shape}")
    if t is not None:
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 0 <= t < ga.shape[1]:
            raise ValueError(f"t must be an integer stage in [0, {ga.shape[1]}), got {t!r}")
        ga, gb, ca, cb = ga[:, [t]], gb[:, [t]], ca[:, [t]], cb[:, [t]]
    return float((_frobenius(ga - gb) + _frobenius(ca - cb)).sum())


def _psd_factor(x: np.ndarray) -> np.ndarray:
    """Factor ``F`` with ``F F^T = x`` for symmetric PSD ``x`` (eigen-based,
    negative round-off eigenvalues clipped; supports singular covariances)."""
    w, v = np.linalg.eigh(x)
    return v * np.sqrt(np.clip(w, 0.0, None))


# Trajectories sampled and rolled out per pass of one set of reused buffers
# (0.85 MB of normals at 104 draws per trajectory, plus about 0.85 MB of the
# kernel's stage-major state and action buffers).  No draw array of a whole
# run ever exists; each trajectory's stream is its own, so the chunk size
# cannot change a sampled number.
_DRAW_CHUNK = 1024


@np.errstate(all="ignore")  # overflow is reported below, by agent
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
    trajectory: re-keying it and restoring its fresh state, held as plain
    Python ints, gives exactly the stream a new ``Philox(key=[seed, r])``
    would.  Per trajectory the draw order is: initial-state normals, then
    per stage each agent's action normals (agent order) followed by the
    process-noise normals.

    Trajectories are sampled and rolled out ``_DRAW_CHUNK`` at a time: each
    chunk's normals and its stage-major draws (action normals ``(T, N,
    chunk, p)``, realized noise ``(T, chunk, m)``) fill the same reused
    buffers, and the kernel writes the chunk's rows of the run's states,
    actions and costs.  Realized costs include the regularizer ``tau *
    log(pi/mu)`` evaluated at the sample.  ``n_traj`` and ``seed`` must be
    Python or numpy integers, not ``bool``.  Raises ``ValueError`` naming
    the first agent whose costs, mean or standard error are not finite.
    """
    n_traj, seed = _integer("n_traj", n_traj), _integer("seed", seed)
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    check_policy_shape(spec, joint)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    chol, logdets = _policy_cholesky(joint.covs)

    init_factor = _psd_factor(spec.init_cov)
    noise_factor = _psd_factor(spec.noise_cov)

    bit_gen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bit_gen)
    # Zero counter, empty buffer; restoring it after setting key word 1
    # re-keys the stream without building a new generator.  The setter
    # reads plain ints two to three times faster than uint64 arrays.
    fresh = bit_gen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]

    # numpy hands a one-row product to gemv, which rounds differently from
    # the gemm that serves two rows or more.  So every pass covers at least
    # two trajectories: a lone last one is rolled out again beside its
    # predecessor, and a single-trajectory run beside trajectory 1.
    rows = max(n_traj, 2)
    states = np.empty((rows, T + 1, m))
    actions = np.empty((rows, T, n, p))
    costs = np.empty((rows, n))
    # One set of chunk buffers, reused: the normals, and the stage-major
    # draws handed to the kernel (views of them for a shorter last chunk).
    width = max(min(rows, _DRAW_CHUNK), 2)
    buffer = np.empty((width, m + T * (n * p + m)))
    xi_buf = np.empty((T, n, width, p))
    omega_buf = np.empty((T, width, m))
    for start in range(0, rows, _DRAW_CHUNK):
        hi = max(min(start + _DRAW_CHUNK, rows), 2)
        lo = min(start, hi - 2)
        c = hi - lo
        normals = buffer[:c]
        for r, row in enumerate(normals, lo):
            key[1] = r
            bit_gen.state = fresh
            gen.standard_normal(out=row)
        rest = normals[:, m:].reshape(c, T, n * p + m)
        x0s = spec.init_mean + normals[:, :m] @ init_factor.T
        xis, omegas = xi_buf[:, :, :c], omega_buf[:, :c]
        # Each agent's p action normals move as one item, not p strided doubles.
        _void_rows(xis)[...] = _void_rows(rest[:, :, : n * p].reshape(c, T, n, p)).transpose(1, 2, 0)
        # The same per-trajectory products as a plain ``zetas @ F^T``,
        # written straight into stage-major memory: one product per stage
        # can round differently (it did at T == 1).
        np.matmul(rest[:, :, n * p :], noise_factor.T, out=omegas.transpose(1, 0, 2))
        rollout(spec.A, spec.B, spec.Q, spec.R, joint.gains, chol, logdets, spec.tau,
                x0s, xis, omegas, states[lo:hi], actions[lo:hi], costs[lo:hi])
    states, actions, costs = states[:n_traj], actions[:n_traj], costs[:n_traj]

    mean_costs = costs.mean(axis=0)
    if n_traj > 1:
        std_errors = costs.std(axis=0, ddof=1) / np.sqrt(n_traj)
    else:
        std_errors = np.zeros(n)
    # A state or action past the float range makes every cost of its
    # trajectory inf or NaN (inf * 0 is NaN), so the costs cover them.
    bad = ~(np.isfinite(costs).all(axis=0) & np.isfinite(mean_costs) & np.isfinite(std_errors))
    if bad.any():
        raise ValueError(f"agent {int(bad.argmax())}: simulated costs are not finite; the rollouts overflow")
    return SimulationResult(
        states=states,
        actions=actions,
        costs=costs,
        mean_costs=mean_costs,
        std_errors=std_errors,
    )
