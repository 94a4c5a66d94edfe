import warnings

import numpy as np
import pytest
from hypothesis import settings

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
