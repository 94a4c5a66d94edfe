"""First-order checks of the certificate: each agent's exact derivative of
its own cost in its own gains, by complex step through the shipped value
kernels (``conftest.own_gain_derivative``).

At an equilibrium every agent's gains are a best response, so the
derivative vanishes.  It is first order in a gain error, where the Nash gap
is second order: a gain error of 1e-6 leaves every gap below the round-off
floor, but not the derivative.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

import lqnash as lq

from conftest import own_gain_derivative

EPS = np.finfo(float).eps


def dims():
    """``(N, T, m, p)`` with one to three agents and six stages."""
    return st.tuples(st.integers(1, 3), st.just(6), st.integers(1, 3), st.integers(1, 3))


@settings(max_examples=20)
@given(dims(), st.integers(0, 2**32 - 1))
def test_own_gain_derivatives_vanish_at_the_exact_equilibrium(dims, seed):
    spec = lq.random_game(*dims, seed=seed, scale=0.5)
    policy = lq.exact_ne(spec).policy
    cost = np.abs(lq.value_certificate(spec, policy).expected_costs).max()
    for i in range(spec.num_agents):
        for t in range(spec.horizon):
            assert np.abs(own_gain_derivative(spec, policy, i, t)).max() <= 1e-12 * cost


def central_difference(spec, joint, i, t, h):
    """``dJ_i/dK_t^i`` by central differences of step ``h`` of the float certificate."""
    derivative = np.empty(joint.gains.shape[2:])
    for entry in np.ndindex(derivative.shape):
        costs = []
        for step in (h, -h):
            gains = joint.gains.copy()
            gains[(i, t) + entry] += step
            costs.append(lq.value_certificate(spec, lq.JointPolicy(gains, joint.covs)).expected_costs[i])
        derivative[entry] = (costs[0] - costs[1]) / (2 * h)
    return derivative


@settings(max_examples=20)
@given(dims(), st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_complex_step_matches_central_differences_off_equilibrium(dims, seed, t):
    """At a jittered equilibrium the two derivatives agree within the
    central difference's error: its truncation, estimated from the
    difference of steps ``h`` and ``2h`` (it is quadratic in ``h``), plus the
    round-off of two costs divided by ``2h``."""
    spec = lq.random_game(*dims, seed=seed, scale=0.5)
    policy = lq.exact_ne(spec).policy
    rng = np.random.default_rng(seed)
    joint = lq.JointPolicy(policy.gains + rng.normal(0.0, 0.1, policy.gains.shape), policy.covs)
    costs = np.abs(lq.value_certificate(spec, joint).expected_costs)
    h = 1e-3
    for i in range(spec.num_agents):
        exact = own_gain_derivative(spec, joint, i, t)
        near, far = central_difference(spec, joint, i, t, h), central_difference(spec, joint, i, t, 2 * h)
        assert np.all(np.abs(exact - near) <= np.abs(near - far) + 4 * EPS * costs[i] / h)
