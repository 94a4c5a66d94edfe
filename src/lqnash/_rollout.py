"""Trajectory rollout kernel for the Monte Carlo check.

One numpy kernel, vectorised over trajectories and over agents, looping
over stages.  It consumes pre-drawn standard normals, so the sampled
numbers depend only on the caller's streams, not on the kernel.  The
draws come in one layout, stage-major, so each stage touches contiguous
rows.  Per stage every agent's gain, noise and input products are one
stacked matrix product, and every quadratic form is one product plus a
row-wise dot; each stacked product does, agent by agent, the arithmetic
of a separate per-agent product, so batching the agents changes no bit.

The stage loop writes its states and actions into stage-major buffers of
its own, whose every ``[t]`` slice is contiguous, and its costs into an
agent-major array.  Only after the loop does the kernel lay them out
trajectory-major: one whole-row transpose per output, moving each state
or action row as a single ``np.void`` item.  So the layout work is done
once per call, not once per stage, and no number passes through it.
The kernel fills arrays its caller owns, so a caller can roll out one
chunk of trajectories at a time into the rows of whole-run outputs.

``ENV_VAR`` and :func:`active_backend` remain for tools that record which
kernel ran; the answer is always ``"numpy"``.
"""
from __future__ import annotations

import numpy as np

ENV_VAR = "LQNASH_BACKEND"

__all__ = ["ENV_VAR", "active_backend", "rollout"]


def active_backend() -> str:
    """Name of the rollout kernel in use."""
    return "numpy"


def _row_dots(a, b):
    """``sum_j a[..., r, j] b[..., r, j]`` for every leading index and row."""
    return np.einsum("...rj,...rj->...r", a, b)


def _void_rows(a):
    """View of ``a`` with each last-axis row as one ``np.void`` item, so a
    transposing copy moves whole rows; the last axis must be contiguous."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[-1])))[..., 0]


def rollout(A, B, Q, R, K, L, logdets, tau, x0s, xis, omegas, states, actions, costs):
    """Run ``n`` trajectories into ``states``, ``actions`` and ``costs``;
    returns them, filled.

    Inputs: stage matrices ``A (T,m,m)``, ``B (N,T,m,p)``, ``Q (N,T+1,m,m)``
    (``Q[i, T]`` is the terminal cost), ``R (N,T,p,p)``; policy gains ``K
    (N,T,p,m)`` and covariance Cholesky factors ``L (N,T,p,p)`` with
    per-stage log-determinants ``logdets (N,T)``; sampled initial states
    ``x0s (n,m)``, and the stage-major draws: per-agent action normals
    ``xis (T,N,n,p)`` and realized process noise ``omegas (T,n,m)``.
    Outputs, overwritten: ``states (n,T+1,m)``, ``actions (n,T,N,p)`` and
    ``costs (n,N)``.  Each output's last axis must be contiguous, as every
    row slice of a C-contiguous array's is; only those rows are written.

    Every ``[t]`` slice of contiguous draws is contiguous; non-contiguous
    inputs are copied once.  States ``(T+1,n,m)`` and actions
    ``(T,N,n,p)`` are computed stage-major and costs agent-major, then
    each is copied into its output in one transpose.  Each quadratic form
    is ``x'Qx = sum_j (x @ Q)_j x_j``, and the next state adds the agents'
    inputs in agent order.
    """
    A, B, Q, R, K, L, logdets, x0s, xis, omegas = (
        np.ascontiguousarray(arr) for arr in (A, B, Q, R, K, L, logdets, x0s, xis, omegas)
    )
    tau = float(tau)
    T, (n, m), N, p = A.shape[0], x0s.shape, K.shape[0], K.shape[2]
    KT, LT, BT = (np.swapaxes(M, -1, -2) for M in (K, L, B))
    xs, us, agent_costs = np.empty((T + 1, n, m)), np.empty((T, N, n, p)), np.zeros((N, n))
    xi_dots = _row_dots(xis, xis)
    x = xs[0]
    x[...] = x0s
    for t in range(T):
        xnext = np.matmul(x, A[t].T, out=xs[t + 1])
        xnext += omegas[t]
        u = np.matmul(x, KT[:, t], out=us[t])
        u += xis[t] @ LT[:, t]
        stage = _row_dots(x @ Q[:, t], x)
        stage += _row_dots(u @ R[:, t], u)
        stage += 0.5 * tau * (_row_dots(u, u) - xi_dots[t] - logdets[:, t, None])
        agent_costs += stage
        for push in u @ BT[:, t]:
            xnext += push
        x = xnext
    agent_costs += _row_dots(x @ Q[:, T], x)
    costs[...] = agent_costs.T
    _void_rows(states)[...] = _void_rows(xs).T
    _void_rows(actions)[...] = _void_rows(us).transpose(2, 0, 1)
    return states, actions, costs
