import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.extra import numpy as hnp

import lqnash as lq
from lqnash import control

# Derandomized and without an example database: every run draws the same
# examples, so tier-1 stays deterministic.
settings.register_profile("lqnash", derandomize=True, database=None, deadline=None, max_examples=50)
settings.load_profile("lqnash")

# When a property fails, Hypothesis's pytest plugin imports its patch
# writer, which imports libcst where it is installed.  That import warns
# ("mypy_extensions.TypedDict is deprecated"), and pyproject.toml makes the
# warning an error, so pytest would stop with INTERNALERROR instead of
# reporting the failure.  Importing the writer once here, with only that
# import's DeprecationWarning ignored, keeps a failing property an ordinary
# failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the plugin writes no patch
        pass

SCALAR_GAME_TEXT = (
    '{"num_agents": 1, "horizon": 1, "state_dim": 1, "action_dim": 1, "tau": 2,'
    ' "A": [1], "B": [1], "Q": [1, 1], "R": [1],'
    ' "noise_cov": 0, "init_mean": 1, "init_cov": 0}'
)


def singular_game_text(k: float) -> str:
    """A two-agent, one-stage game whose coupling matrix ``Phi_0`` is
    ``[[2, k], [k, 2]]``, singular at ``k = 2``: ``B^1 = e1``, ``B^2 = e2``,
    ``A = I``, ``R = 0.5``, tau 1, zero stage costs and terminal costs
    ``Q^1 = v v^T``, ``v = (1, k)``, and ``Q^2 = w w^T``, ``w = (k, 1)``."""
    eye, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    return json.dumps({
        "num_agents": 2, "horizon": 1, "state_dim": 2, "action_dim": 1, "tau": 1,
        "A": eye, "B": [[[1], [0]], [[0], [1]]],
        "Q": [[zero, [[1, k], [k, k * k]]], [zero, [[k * k, k], [k, 1]]]],
        "R": [0.5, 0.5], "noise_cov": eye, "init_mean": [0, 0], "init_cov": eye,
    })


@pytest.fixture
def scalar_game() -> lq.GameSpec:
    """Hand-solvable game: gain -1/3, covariance 1/3, quadratic value 5/3."""
    return lq.load_game_spec(SCALAR_GAME_TEXT)


def random_pd_policy(spec: lq.GameSpec, rng: np.random.Generator, gain_scale: float = 0.3):
    """Random joint policy with strictly PD covariances."""
    n, T = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    gains = rng.normal(0.0, gain_scale, (n, T, p, m))
    g = rng.normal(0.0, 0.4, (n, T, p, p))
    covs = np.einsum("...ji,...jk->...ik", g, g) + 0.3 * np.eye(p)
    return lq.JointPolicy(gains, covs)


def overflowing_policies():
    """A small game, and its equilibrium with the gains scaled by 1e200
    (its certificate overflows) and with one covariance set to 1e300 (its
    certificate is finite, but sampled costs overflow)."""
    spec = lq.random_game(2, 3, 2, 1, seed=1)
    policy = lq.exact_ne(spec).policy
    covs = policy.covs.copy()
    covs[0, 0] = 1e300
    return spec, {"gains": lq.JointPolicy(policy.gains * 1e200, policy.covs), "cov": lq.JointPolicy(policy.gains, covs)}


def scaled_drift_game(n: int, T: int, m: int, p: int, seed: int, stage: int, factor: float) -> lq.GameSpec:
    """``random_game(n, T, m, p, seed, scale=0.5)`` with ``A`` at one stage times ``factor``."""
    spec = lq.random_game(n, T, m, p, seed=seed, scale=0.5)
    A = spec.A.copy()
    A[stage] *= factor
    return lq.validate_game_spec(dataclasses.replace(spec, A=A))


def gap_pass_repro():
    """A one-agent game with ``A[5]`` times 1e100, and PO's policy of it at
    ``tau + 0.01``: the policy's certificate is finite (cost about 1.37e198),
    but a best-response covariance of the Nash-gap pass is not PD."""
    spec = scaled_drift_game(1, 17, 2, 2, seed=117, stage=5, factor=1e100)
    return spec, lq.po_solve(spec.with_tau(spec.tau + 0.01)).policy


def own_gain_derivative(spec: lq.GameSpec, joint: lq.JointPolicy, i: int, t: int, h: float = 1e-30) -> np.ndarray:
    """``dJ_i/dK_t^i`` ``(p, m)`` by complex step, ``Im J_i(K + ihE)/h`` for
    each entry ``E``, through the shipped ``lyapunov_values``,
    ``value_offsets`` and ``expected_costs``.  ``J_i`` is a polynomial in the
    gains, so the step is exact to round-off, with no cancellation."""
    logdets = control._logdets(np.linalg.cholesky(joint.covs))
    noise = control.stage_noise(spec, slice(None), joint.covs)
    weight = control.own_weight(spec.tau, spec.R)
    derivative = np.empty(joint.gains.shape[2:])
    for entry in np.ndindex(derivative.shape):
        gains = joint.gains.astype(complex)
        gains[(i, t) + entry] += 1j * h
        P = control.lyapunov_values(spec, gains)
        q = control.value_offsets(spec.tau, weight, joint.covs, logdets, noise, P)
        derivative[entry] = control.expected_costs(spec, P[i, 0], q[i, 0]).imag / h
    return derivative


# Where repr's layout changes (it is plain for 0 and 1e-4 <= |x| < 1e16),
# subnormals and the ends of the float range, with both signs.
BOUNDARY_FLOATS = [s * x for x in [
    0.0, 5e-324, 2.2250738585072009e-308, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1), 1e-5, 9.503e-05, 1e-6, 1e-7,
    1e16, math.nextafter(1e16, 0), 1e21, 1e22] for s in (1.0, -1.0)]


def finite_floats():
    """Any finite float64, drawn by ``st.floats`` or from a raw 64-bit
    pattern, which reaches subnormals and every exponent alike."""
    bits = st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
    return st.floats(allow_nan=False, allow_infinity=False) | bits.filter(np.isfinite)


def finite_float_arrays(shape=hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4)):
    """float64 arrays of ``shape``, 0-d and empty ones included, of any finite floats."""
    return hnp.arrays(np.float64, shape, elements=finite_floats())


def with_tau(spec: lq.GameSpec, tau: float) -> lq.GameSpec:
    return spec.with_tau(tau)


def stage_response(spec: lq.GameSpec, gains_t: np.ndarray, tails: np.ndarray, t: int, agents=slice(None)):
    """Best-response gains and covariances at stage ``t`` of ``agents``, with
    tail values ``tails``, to the joint stage gains ``gains_t`` (whose own
    entries the drift leaves out): the responder step of the Nash gap."""
    B, (Bt, _, weight, _) = spec.B[agents, t], control.stage_blocks(spec, t)
    drift = control.closed_loop(spec.A[t], spec.B[:, t], gains_t) - B @ gains_t[agents]
    products, gains = control._respond(Bt[agents], B, weight[agents], tails, drift)
    return gains, control.stage_covariance(spec.R[agents, t] + products, spec.tau)


def stage_fixed_point_residual(spec: lq.GameSpec, joint: lq.JointPolicy, t: int) -> float:
    """Policy-metric distance between stage ``t`` of ``joint`` and its own
    simultaneous best response (tail values from the policy's later stages)."""
    tails = control.lyapunov_values(spec, joint.gains)[:, t + 1]
    gains, covs = stage_response(spec, joint.gains[:, t], tails, t)
    return float(np.linalg.norm(gains - joint.gains[:, t], axis=(1, 2)).sum()
                 + np.linalg.norm(covs - joint.covs[:, t], axis=(1, 2)).sum())
