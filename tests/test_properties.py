"""Property tests: the independent routes to the same numbers check each
other on generated games.

Games cover one agent, one stage, more action than state dimensions, and
singular noise and initial covariances; a separate strategy draws long
horizons and unstable ``A``, on which the solvers may diverge.  The
Hypothesis profile in ``conftest.py`` is derandomized, so every run draws
the same examples.
"""
import dataclasses
import functools
import json
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


@st.composite
def shorthand_documents(draw):
    """A random game document with each field, and each agent's entry of
    ``B``, ``Q`` and ``R``, written in a random accepted form; and the
    canonical document of the game it stands for."""
    n, T, m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    spec = lq.random_game(n, T, m, p, seed=draw(st.integers(0, 2**32 - 1)))

    def written(arr, stacked):
        """``arr`` in a drawn form, and the array that form stands for."""
        forms = ["full"] + ["one matrix"] * stacked
        if (arr[0] if stacked else arr).size == 1:
            forms += ["scalar"] + ["one scalar per stage"] * stacked
        form = draw(st.sampled_from(forms))
        if form == "one matrix":
            return arr[0].tolist(), np.broadcast_to(arr[0], arr.shape)
        if form == "scalar":
            return arr.flat[0], np.full(arr.shape, arr.flat[0])
        return (arr.ravel() if form == "one scalar per stage" else arr).tolist(), arr

    doc, expanded = {"num_agents": n, "horizon": T, "state_dim": m, "action_dim": p, "tau": spec.tau}, {}
    for field in ("A", "B", "Q", "R", "noise_cov", "init_mean", "init_cov"):
        arr = getattr(spec, field)
        if field in ("B", "Q", "R"):
            entries, arrays = zip(*(written(a, stacked=True) for a in arr))
            doc[field] = entries[0] if n == 1 and draw(st.booleans()) else list(entries)
            expanded[field] = np.stack(arrays)
        else:
            doc[field], expanded[field] = written(arr, stacked=field == "A")
    return json.dumps(doc), lq.dump_game_spec(lq.validate_game_spec(dataclasses.replace(spec, **expanded)))


# One agent without the agent nesting.  Read as a list of one agent,
# "Q": [[3]] gives that agent the entry [3], one scalar for three stages,
# which fails; the loader must read it again as one 1x1 matrix.
ONE_AGENT_TEXT = ('{"num_agents": 1, "horizon": 2, "state_dim": 1, "action_dim": 1, "tau": 2, "A": [[1]],'
                  ' "B": [0.5, 1], "Q": [[3]], "R": 1, "noise_cov": 0, "init_mean": 1, "init_cov": [[0]]}')
ONE_AGENT_SPEC = lq.GameSpec(1, 2, 1, 1, 2.0, A=np.ones((2, 1, 1)), B=np.array([0.5, 1.0]).reshape(1, 2, 1, 1),
                             Q=np.full((1, 3, 1, 1), 3.0), R=np.ones((1, 2, 1, 1)), noise_cov=np.zeros((1, 1)),
                             init_mean=np.ones(1), init_cov=np.zeros((1, 1)))


@given(shorthand_documents())
@example((ONE_AGENT_TEXT, lq.dump_game_spec(ONE_AGENT_SPEC)))
def test_shorthand_forms_load_as_the_expanded_document(documents):
    text, expanded = documents
    assert lq.dump_game_spec(lq.load_game_spec(text)) == expanded
    assert lq.dump_game_spec(lq.load_game_spec(expanded)) == expanded


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


@st.composite
def small_games(draw):
    """Short horizons and ``A``/``B`` entries up to 1.5, so PO may diverge,
    but values stay far inside the float range even when scaled by 2**400."""
    spec = lq.random_game(draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 3)),
                          draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)),
                          scale=draw(st.sampled_from([0.3, 0.8, 1.5])))
    return spec.with_tau(draw(st.sampled_from([0.1, 1.0, 10.0])))


def _solved(solve, spec):
    """The result of ``solve(spec)``, or the text of its ``SolverError``."""
    try:
        return solve(spec)
    except lq.SolverError as exc:
        return str(exc)


def _costs_and_gaps(spec, policy):
    return lq.value_certificate(spec, policy).expected_costs, lq.exploitability(spec, policy)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@given(small_games())
def test_scaling_costs_and_tau_by_a_power_of_two_scales_every_value(spec):
    """Multiplying ``Q``, ``R`` and ``tau`` by ``2**k`` scales every value,
    offset, cost and Nash gap by exactly ``2**k`` and leaves the policies,
    PO's traces, the check's verdict and every solver error as they are:
    every operation of the solvers is exact under a power-of-two scale."""
    solvers = (lq.exact_ne, functools.partial(lq.exact_ne, cond_limit=2.0), lq.po_solve)
    results = [_solved(solve, spec) for solve in solvers]
    policies = [r.policy for r in results if not isinstance(r, str)]
    for k in (-400, -60, -8, 8, 60, 400):
        f = 2.0**k
        scaled = lq.validate_game_spec(dataclasses.replace(spec, Q=spec.Q * f, R=spec.R * f, tau=spec.tau * f))
        for result, result_k in zip(results, [_solved(solve, scaled) for solve in solvers]):
            if isinstance(result, str):
                assert result_k == result
                continue
            assert _bits(result_k.policy.gains) == _bits(result.policy.gains)
            assert _bits(result_k.policy.covs) == _bits(result.policy.covs)
            if isinstance(result, lq.SolveReport):
                assert result_k.trace == result.trace
                continue
            assert _bits(result_k.riccati) == _bits(result.riccati * f)
            assert _bits(result_k.offsets) == _bits(result.offsets * f)
            satisfied = lq.check_assumption_tau(spec, result).satisfied
            assert lq.check_assumption_tau(scaled, result_k).satisfied == satisfied
        for policy in policies:
            for value, value_k in zip(_costs_and_gaps(spec, policy), _costs_and_gaps(scaled, policy)):
                assert _bits(value_k) == _bits(value * f)


# Relative to the largest certified cost.  Over 300 generated games with
# random PD policies the affine residual was at most 1.0e-15 and the slope's
# difference from the KL certificate at most 7.0e-16; this leaves 100x.
AFFINE_RTOL = 1e-13


@given(games(), st.integers(0, 2**32 - 1))
def test_certified_cost_is_affine_in_tau(spec, seed):
    """For a fixed policy the certified cost is ``C + tau K``: its values at
    ``tau`` in {0.5, 1, 2} lie on a line, whose slope ``K``, the expected
    summed KL to the prior, is the certificate of the same policy in the
    game with ``Q = R = 0`` at ``tau = 1``."""
    joint = random_pd_policy(spec, np.random.default_rng(seed))
    half, one, two = (lq.value_certificate(spec.with_tau(tau), joint).expected_costs for tau in (0.5, 1.0, 2.0))
    # Not validated: R = 0 is not positive definite, and the certificate does not need it.
    kl_only = dataclasses.replace(spec, Q=np.zeros_like(spec.Q), R=np.zeros_like(spec.R), tau=1.0)
    kl = lq.value_certificate(kl_only, joint).expected_costs
    atol = AFFINE_RTOL * max(np.abs(half).max(), np.abs(one).max(), np.abs(two).max())
    npt.assert_allclose(two - one, 2.0 * (one - half), rtol=0, atol=atol)
    npt.assert_allclose(two - one, kl, rtol=0, atol=atol)
    assert np.all(kl >= -atol)


# Relative to the largest entry compared.  Rotating a game rounds each
# rotated product differently, and U is orthogonal only to round-off, so
# the two games' results differ by a few ulps, scaled by the conditioning
# of the stage systems; over 300 drawn games the largest difference was
# 1.9e-15, and this bound leaves about 500x above it.
ROTATION_RTOL = 1e-12


@given(games(), st.integers(0, 2**32 - 1))
def test_orthogonal_change_of_state_coordinates(spec, seed):
    """The state in new coordinates ``x -> Ux``, for an orthogonal ``U``,
    maps ``A``, ``B``, ``Q``, the noise and the initial law to a game whose
    equilibrium gains are ``K Uᵀ``: the covariances, the costs of any
    policy mapped the same way and the check's verdict stay as they are."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((spec.state_dim, spec.state_dim)))

    def rotated(X):
        return U @ X @ U.T

    moved = lq.validate_game_spec(dataclasses.replace(
        spec, A=rotated(spec.A), B=U @ spec.B, Q=rotated(spec.Q), noise_cov=rotated(spec.noise_cov),
        init_mean=U @ spec.init_mean, init_cov=rotated(spec.init_cov)))

    def assert_close(actual, desired):
        npt.assert_allclose(actual, desired, rtol=0, atol=ROTATION_RTOL * np.abs(desired).max())

    sol, sol_moved = lq.exact_ne(spec), lq.exact_ne(moved)
    assert_close(sol_moved.policy.gains, sol.policy.gains @ U.T)
    assert_close(sol_moved.policy.covs, sol.policy.covs)
    record, record_moved = lq.check_assumption_tau(spec, sol), lq.check_assumption_tau(moved, sol_moved)
    assert record_moved.satisfied == record.satisfied
    npt.assert_allclose(record_moved.threshold, record.threshold, rtol=ROTATION_RTOL)
    for joint in (sol.policy, random_pd_policy(spec, rng)):
        costs = lq.value_certificate(spec, joint).expected_costs
        mapped = lq.JointPolicy(joint.gains @ U.T, joint.covs)
        assert_close(lq.value_certificate(moved, mapped).expected_costs, costs)
