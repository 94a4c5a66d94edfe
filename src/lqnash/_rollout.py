"""Trajectory rollout kernel for the Monte Carlo check.

One numpy kernel, vectorised over trajectories and over agents, looping
over stages.  It consumes pre-drawn standard normals, so the sampled
numbers depend only on the caller's streams, not on the kernel.  The
draws come in one layout, stage-major, so each stage touches contiguous
rows.  Per stage every agent's gain, noise and input products are one
stacked matrix product, and every quadratic form is one product plus a
row-wise dot; each stacked product does, agent by agent, the arithmetic
of a separate per-agent product, so batching the agents changes no bit.
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
    ``costs (n,N)``; rows of larger arrays are fine.

    Every ``[t]`` slice of contiguous draws is contiguous; non-contiguous
    inputs are copied once.  Each quadratic form is ``x'Qx = sum_j (x @
    Q)_j x_j``, and the next state adds the agents' inputs in agent order.
    """
    A, B, Q, R, K, L, logdets, x0s, xis, omegas = (
        np.ascontiguousarray(arr) for arr in (A, B, Q, R, K, L, logdets, x0s, xis, omegas)
    )
    tau = float(tau)
    T = A.shape[0]
    KT, LT, BT = (np.swapaxes(M, -1, -2) for M in (K, L, B))
    costs[...] = 0.0
    x = x0s
    states[:, 0] = x
    for t in range(T):
        xnext = x @ A[t].T
        xnext += omegas[t]
        u = x @ KT[:, t]
        u += xis[t] @ LT[:, t]
        actions[:, t] = u.transpose(1, 0, 2)
        stage = _row_dots(x @ Q[:, t], x)
        stage += _row_dots(u @ R[:, t], u)
        stage += 0.5 * tau * (_row_dots(u, u) - _row_dots(xis[t], xis[t]) - logdets[:, t, None])
        costs += stage.T
        for push in u @ BT[:, t]:
            xnext += push
        x = xnext
        states[:, t + 1] = x
    costs += _row_dots(x @ Q[:, T], x).T
    return states, actions, costs
