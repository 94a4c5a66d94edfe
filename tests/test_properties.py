"""Property tests: the independent routes to the same numbers check each
other on generated games.

Games cover one agent, one stage, more action than state dimensions, and
singular noise and initial covariances; a separate strategy draws long
horizons and unstable ``A``, on which the solvers may diverge.  The
Hypothesis profile in ``conftest.py`` is derandomized, so every run draws
the same examples.
"""
import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
from hypothesis import assume, example, given, strategies as st

import lqnash as lq

from conftest import random_pd_policy, stage_response
from test_stage_core import reference_best_response_cost

# Gaps are differences of costs computed by two exact recursions; these are
# round-off floors, not statistical tolerances.
GAP_FLOOR = -1e-9
NE_GAP = 1e-8


@st.composite
def games(draw):
    n = draw(st.integers(1, 3))
    T = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, 4))
    spec = lq.random_game(n, T, m, p, seed=draw(st.integers(0, 2**32 - 1)),
                          scale=draw(st.sampled_from([0.2, 0.5, 0.8])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def covariance(full):
        kind = draw(st.sampled_from(["full", "zero", "rank one"]))
        if kind == "zero":
            return np.zeros((m, m))
        if kind == "rank one":
            v = rng.uniform(-1.0, 1.0, (1, m))
            return v.T @ v
        return full

    spec = dataclasses.replace(
        spec,
        noise_cov=covariance(spec.noise_cov),
        init_cov=covariance(spec.init_cov),
        tau=draw(st.sampled_from([0.5, 2.0, 20.0])),
    )
    return lq.validate_game_spec(spec)


@given(games())
def test_exact_and_po_agree_when_tau_condition_holds(spec):
    sol = lq.exact_ne(spec)
    record = lq.check_assumption_tau(spec, sol)
    if not record.satisfied:
        spec = spec.with_tau(10.0 * record.threshold)
        sol = lq.exact_ne(spec)
    assume(lq.check_assumption_tau(spec, sol).satisfied)
    report = lq.po_solve(spec)
    assert lq.policy_distance(report.policy, sol.policy) <= 1e-8


@given(games(), st.integers(0, 2**32 - 1))
def test_gaps_nonnegative_and_zero_at_equilibrium(spec, seed):
    sol = lq.exact_ne(spec)
    assert np.all(np.abs(lq.exploitability(spec, sol.policy)) <= NE_GAP)
    joint = random_pd_policy(spec, np.random.default_rng(seed))
    assert np.all(lq.exploitability(spec, joint) >= GAP_FLOOR)


@given(games())
def test_exact_values_are_the_certificate(spec):
    sol = lq.exact_ne(spec)
    cert = lq.value_certificate(spec, sol.policy)
    assert np.array_equal(sol.riccati, cert.P)
    assert np.array_equal(sol.offsets, cert.q)


@given(games(), st.integers(0, 2**32 - 1))
def test_batched_gaps_match_serial_best_responses(spec, seed):
    joint = random_pd_policy(spec, np.random.default_rng(seed))
    base = lq.value_certificate(spec, joint).expected_costs
    serial = np.array([reference_best_response_cost(spec, joint, i) for i in range(spec.num_agents)])
    # A gap is a difference of two costs, so its round-off scales with them.
    npt.assert_allclose(lq.exploitability(spec, joint), base - serial, rtol=1e-12, atol=1e-12 * np.abs(base).max())


@given(games(), st.integers(0, 2**32 - 1))
def test_best_response_never_raises_cost(spec, seed):
    joint = random_pd_policy(spec, np.random.default_rng(seed))
    base = lq.value_certificate(spec, joint).expected_costs
    for i in range(spec.num_agents):
        _, value = lq.best_response_full(spec, joint, i)
        assert value.expected_cost <= base[i] + 1e-12 * (1.0 + abs(base[i]))


@given(games(), st.integers(0, 2**32 - 1))
@example(lq.random_game(1, 1, 1, 3, seed=7, scale=0.5), 0)
@example(lq.random_game(3, 1, 2, 4, seed=8, scale=0.8).with_tau(0.5), 1)
def test_stage_best_response_reproduces_full_response(spec, seed):
    # Fed the tail of the full response's own values, the single-stage
    # response is that response's stage policy.
    joint = random_pd_policy(spec, np.random.default_rng(seed))
    for i in range(spec.num_agents):
        policy, value = lq.best_response_full(spec, joint, i)
        for t in range(spec.horizon):
            gain, cov = stage_response(spec, joint.gains[:, t], value.P[t + 1], t, agents=i)
            for actual, desired in ((gain, policy.gains[t]), (cov, policy.covs[t])):
                npt.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * np.abs(desired).max())


@given(games(), st.integers(0, 2**32 - 1))
def test_json_round_trips_bit_for_bit(spec, seed):
    text = lq.dump_game_spec(spec)
    loaded = lq.load_game_spec(text)
    assert lq.dump_game_spec(loaded) == text

    joint = random_pd_policy(spec, np.random.default_rng(seed))
    text = lq.dump_joint_policy(joint)
    loaded = lq.load_joint_policy(text)
    assert np.array_equal(loaded.gains, joint.gains)
    assert np.array_equal(loaded.covs, joint.covs)
    assert lq.dump_joint_policy(loaded) == text


def _assert_permuted(actual, original, order, scale=None):
    """``actual`` is ``original`` with its agents in ``order``, within 1e-12
    of ``scale`` (by default, the largest entry of ``original``)."""
    scale = np.abs(original).max() if scale is None else scale
    npt.assert_allclose(actual, original[order], rtol=0, atol=1e-12 * scale)


@given(games(), st.integers(0, 2**32 - 1))
def test_permuting_the_agents_permutes_every_result(spec, seed):
    sol = lq.exact_ne(spec)
    record = lq.check_assumption_tau(spec, sol)
    if not record.satisfied:
        spec = spec.with_tau(10.0 * record.threshold)
        sol = lq.exact_ne(spec)
    assume(lq.check_assumption_tau(spec, sol).satisfied)
    rng = np.random.default_rng(seed)
    order = rng.permutation(spec.num_agents)
    permuted = lq.validate_game_spec(dataclasses.replace(spec, B=spec.B[order], Q=spec.Q[order], R=spec.R[order]))
    for solve in (lq.exact_ne, lq.po_solve):
        policy, moved = solve(spec).policy, solve(permuted).policy
        _assert_permuted(moved.gains, policy.gains, order)
        _assert_permuted(moved.covs, policy.covs, order)
    joint = random_pd_policy(spec, rng)
    moved = lq.JointPolicy(joint.gains[order], joint.covs[order])
    costs = lq.value_certificate(spec, joint).expected_costs
    _assert_permuted(lq.value_certificate(permuted, moved).expected_costs, costs, order)
    _assert_permuted(lq.exploitability(permuted, moved), lq.exploitability(spec, joint), order,
                     scale=np.abs(costs).max())


@st.composite
def long_unstable_games(draw):
    """Horizons up to 60 and ``A``/``B`` entries up to 1.5 in magnitude, so
    ``A`` is often unstable and the backward passes may diverge."""
    spec = lq.random_game(draw(st.integers(1, 3)), draw(st.integers(1, 60)), draw(st.integers(1, 4)),
                          draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)),
                          scale=draw(st.sampled_from([0.3, 0.8, 1.2, 1.5])))
    return spec.with_tau(draw(st.sampled_from([0.01, 0.1, 1.0, 10.0])))


def _all_finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


@given(long_unstable_games())
def test_solvers_return_finite_or_name_the_divergence(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            sol = lq.exact_ne(spec)
        except lq.SolverError as exc:
            assert str(exc).startswith("stage ")
        else:
            assert _all_finite(sol.policy.gains, sol.policy.covs, sol.riccati, sol.offsets)
            cert = lq.value_certificate(spec, sol.policy)
            assert _all_finite(cert.P, cert.q, cert.expected_costs)
        try:
            report = lq.po_solve(spec, inner_iters=5)
        except lq.SolverError as exc:
            assert str(exc).startswith("stage ")
        else:
            assert _all_finite(report.policy.gains, report.policy.covs)
            cert = lq.value_certificate(spec, report.policy)
            assert _all_finite(cert.P, cert.q, cert.expected_costs)
