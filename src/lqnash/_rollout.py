"""Trajectory rollout kernel for the Monte Carlo check.

One numpy kernel, vectorised over trajectories and looping over stages
and agents.  It consumes pre-drawn standard normals, so the sampled
numbers depend only on the caller's streams, not on the kernel.  The
draws come in one layout, stage-major, so each stage and agent touches
contiguous rows, and every quadratic form is one matrix product plus a
row-wise dot; both keep the per-stage work in BLAS and in short
contiguous loops.

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


def rollout(A, B, Q, R, K, L, logdets, tau, x0s, xis, omegas):
    """Run all trajectories; returns ``(states, actions, costs)``.

    Inputs: stage matrices ``A (T,m,m)``, ``B (N,T,m,p)``, ``Q (N,T+1,m,m)``
    (``Q[i, T]`` is the terminal cost), ``R (N,T,p,p)``; policy gains ``K
    (N,T,p,m)`` and covariance Cholesky factors ``L (N,T,p,p)`` with
    per-stage log-determinants ``logdets (N,T)``; sampled initial states
    ``x0s (n,m)``, and the stage-major draws: per-agent action normals
    ``xis (T,N,n,p)`` and realized process noise ``omegas (T,n,m)``.
    Outputs are C-contiguous ``states (n,T+1,m)``, ``actions (n,T,N,p)``
    and ``costs (n,N)``.

    Every ``[t]`` and ``[t, i]`` slice of contiguous draws is contiguous;
    non-contiguous inputs are copied once.  Each quadratic form is
    ``x'Qx = sum_j (x @ Q)_j x_j``.
    """
    A, B, Q, R, K, L, logdets, x0s, xis, omegas = (
        np.ascontiguousarray(arr) for arr in (A, B, Q, R, K, L, logdets, x0s, xis, omegas)
    )
    tau = float(tau)
    n_traj, m = x0s.shape
    T = A.shape[0]
    N = B.shape[0]
    p = K.shape[2]
    states = np.empty((n_traj, T + 1, m))
    actions = np.empty((n_traj, T, N, p))
    costs = np.zeros((n_traj, N))
    x = x0s.copy()
    states[:, 0] = x
    for t in range(T):
        xnext = x @ A[t].T
        xnext += omegas[t]
        for i in range(N):
            xi = xis[t, i]
            u = x @ K[i, t].T
            u += xi @ L[i, t].T
            actions[:, t, i] = u
            costs[:, i] += (
                np.einsum("rj,rj->r", x @ Q[i, t], x)
                + np.einsum("rj,rj->r", u @ R[i, t], u)
                + 0.5 * tau * (np.einsum("rj,rj->r", u, u) - np.einsum("rj,rj->r", xi, xi) - logdets[i, t])
            )
            xnext += u @ B[i, t].T
        x = xnext
        states[:, t + 1] = x
    for i in range(N):
        costs[:, i] += np.einsum("rj,rj->r", x @ Q[i, T], x)
    return states, actions, costs
