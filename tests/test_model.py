import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

import lqnash as lq
from lqnash import model

from conftest import SCALAR_GAME_TEXT


def test_minimal_document_fields(scalar_game):
    spec = scalar_game
    assert spec.num_agents == 1 and spec.horizon == 1
    assert spec.state_dim == 1 and spec.action_dim == 1
    assert spec.tau == 2.0
    npt.assert_array_equal(spec.A, [[[1.0]]])
    npt.assert_array_equal(spec.B, [[[[1.0]]]])
    npt.assert_array_equal(spec.Q, [[[[1.0]], [[1.0]]]])
    npt.assert_array_equal(spec.R, [[[[1.0]]]])
    npt.assert_array_equal(spec.noise_cov, [[0.0]])
    npt.assert_array_equal(spec.init_mean, [1.0])


def test_minimal_document_scalar_shorthands():
    text = (
        '{"num_agents": 1, "horizon": 1, "state_dim": 1, "action_dim": 1, "tau": 2,'
        ' "A": [1], "B": [1], "Q": [1, 1], "R": [1],'
        ' "noise_cov": 0, "init_mean": 0, "init_cov": 0}'
    )
    spec = lq.load_game_spec(text)
    npt.assert_array_equal(spec.A, [[[1.0]]])
    npt.assert_array_equal(spec.Q, [[[[1.0]], [[1.0]]]])
    npt.assert_array_equal(spec.init_mean, [0.0])
    npt.assert_array_equal(spec.init_cov, [[0.0]])
    assert spec.tau == 2.0


def test_r_not_positive_definite():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["R"] = [[[[0.0]]]]
    with pytest.raises(lq.GameSpecError, match="not positive definite") as err:
        lq.load_game_spec(json.dumps(doc))
    assert "R" in str(err.value)


def test_dimension_mismatch_names_field():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["state_dim"] = 3
    doc["A"] = [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
    doc["B"] = [[[1.0], [0.0]]]  # 2x1 input matrix but state_dim is 3
    doc["Q"] = [[0.0, 0.0]]  # placeholder; B should fail first
    with pytest.raises(lq.GameSpecError, match="dimension mismatch") as err:
        lq.load_game_spec(json.dumps(doc))
    assert "B" in str(err.value)


def test_nonpositive_tau():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["tau"] = 0
    with pytest.raises(lq.GameSpecError, match="tau"):
        lq.load_game_spec(json.dumps(doc))


def test_rejects_nan_literals():
    text = SCALAR_GAME_TEXT.replace('"tau": 2', '"tau": NaN')
    with pytest.raises(lq.GameSpecError):
        lq.load_game_spec(text)


def test_malformed_document():
    with pytest.raises(lq.GameSpecError, match="malformed"):
        lq.load_game_spec("{not json")


def test_missing_key_named():
    doc = json.loads(SCALAR_GAME_TEXT)
    del doc["noise_cov"]
    with pytest.raises(lq.GameSpecError, match="noise_cov"):
        lq.load_game_spec(json.dumps(doc))


def test_broadcast_shorthand():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["horizon"] = 4
    doc["A"] = [[1.0]]  # single 1x1 matrix broadcast over 4 stages
    doc["B"] = [0.5]
    doc["Q"] = [[2.0]]
    doc["R"] = [[1.5]]
    spec = lq.load_game_spec(json.dumps(doc))
    assert spec.A.shape == (4, 1, 1)
    assert spec.Q.shape == (1, 5, 1, 1)
    npt.assert_array_equal(spec.Q[0, :, 0, 0], np.full(5, 2.0))
    npt.assert_array_equal(spec.B[0, :, 0, 0], np.full(4, 0.5))


def test_round_trip_exact():
    spec = lq.random_game(3, 4, 3, 2, seed=123, scale=0.7)
    again = lq.load_game_spec(lq.dump_game_spec(spec))
    assert lq.dump_game_spec(spec) == lq.dump_game_spec(again)


def test_random_game_deterministic():
    a = lq.random_game(2, 3, 2, 1, seed=7, scale=0.5)
    b = lq.random_game(2, 3, 2, 1, seed=7, scale=0.5)
    assert lq.dump_game_spec(a) == lq.dump_game_spec(b)
    c = lq.random_game(2, 3, 2, 1, seed=8, scale=0.5)
    assert lq.dump_game_spec(a) != lq.dump_game_spec(c)


def test_random_game_self_validates():
    spec = lq.random_game(1, 1, 1, 1, seed=0, scale=1.0)
    assert lq.dump_game_spec(spec) == lq.dump_game_spec(lq.load_game_spec(lq.dump_game_spec(spec)))


def test_random_game_r_eigenvalues():
    spec = lq.random_game(3, 5, 4, 2, seed=42, scale=0.3)
    for i in range(3):
        for t in range(5):
            assert np.linalg.eigvalsh(spec.R[i, t])[0] >= 1.0 - 1e-12


def test_validation_idempotent():
    spec = lq.random_game(2, 3, 3, 2, seed=1, scale=0.6)
    again = lq.validate_game_spec(spec)
    assert lq.dump_game_spec(spec) == lq.dump_game_spec(again)


def test_asymmetric_q_rejected():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["state_dim"] = 2
    doc["A"] = [[1.0, 0.0], [0.0, 1.0]]
    doc["B"] = [[[1.0], [0.0]]]
    doc["Q"] = [[[1.0, 0.5], [-0.5, 1.0]]]  # skew part far beyond tolerance
    doc["noise_cov"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["init_mean"] = [0.0, 0.0]
    doc["init_cov"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(lq.GameSpecError, match="symmetric") as err:
        lq.load_game_spec(json.dumps(doc))
    assert "Q" in str(err.value)


def test_tiny_asymmetry_symmetrized():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["state_dim"] = 2
    eps = 1e-12
    doc["A"] = [[1.0, 0.0], [0.0, 1.0]]
    doc["B"] = [[[1.0], [0.0]]]
    doc["Q"] = [[[1.0, 0.5 + eps], [0.5 - eps, 1.0]]]
    doc["noise_cov"] = [[0.0, 0.0], [0.0, 0.0]]
    doc["init_mean"] = [0.0, 0.0]
    doc["init_cov"] = [[0.0, 0.0], [0.0, 0.0]]
    spec = lq.load_game_spec(json.dumps(doc))
    npt.assert_array_equal(spec.Q[0, 0], spec.Q[0, 0].T)
    npt.assert_allclose(spec.Q[0, 0, 0, 1], 0.5, atol=1e-11)


def test_policy_round_trip():
    rng = np.random.default_rng(3)
    gains = rng.normal(size=(2, 3, 2, 3))
    g = rng.normal(size=(2, 3, 2, 2))
    covs = np.einsum("...ji,...jk->...ik", g, g) + np.eye(2)
    joint = lq.JointPolicy(gains, covs)
    again = lq.load_joint_policy(lq.dump_joint_policy(joint))
    npt.assert_array_equal(joint.gains, again.gains)
    npt.assert_array_equal(joint.covs, again.covs)


def test_joint_policy_holds_read_only_c_contiguous_copies():
    rng = np.random.default_rng(4)
    gains = rng.normal(size=(3, 2, 4, 2)).swapaxes(0, 1)  # (2, 3, 4, 2), not C-contiguous
    covs = np.broadcast_to(np.eye(4), (2, 3, 4, 4))
    joint = lq.JointPolicy(gains, covs)
    for arr, source in ((joint.gains, gains), (joint.covs, covs)):
        assert arr.flags.c_contiguous and not arr.flags.writeable
        assert not np.shares_memory(arr, source)
        npt.assert_array_equal(arr, source)
    assert (joint.num_agents, joint.horizon) == (2, 3)


@pytest.mark.parametrize("cov_shape", [(2, 3, 3, 3), (2, 3, 2, 3)])
def test_mis_shaped_policy_covariances_rejected(cov_shape):
    """Covariances must be ``(N, T, p, p)`` for gains ``(N, T, p, m)``; the
    error names both shapes."""
    spec = lq.random_game(2, 3, 2, 2, seed=1, scale=0.5)
    gains = lq.exact_ne(spec).policy.gains
    shapes = f"gains {gains.shape} vs covs {cov_shape}"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        lq.JointPolicy(gains, np.ones(cov_shape))


def test_policy_shape_check_names_both_arrays():
    spec = lq.random_game(2, 3, 2, 2, seed=1, scale=0.5)
    joint = lq.JointPolicy(np.zeros((2, 3, 3, 2)), np.broadcast_to(np.eye(3), (2, 3, 3, 3)))
    with pytest.raises(ValueError, match=re.escape("gains shaped (2, 3, 3, 2), covs shaped (2, 3, 3, 3)")):
        lq.value_certificate(spec, joint)


@pytest.mark.parametrize("text", ["5", "null", "[]"])
def test_policy_top_level_must_be_an_object(text):
    with pytest.raises(lq.GameSpecError, match="top level must be a JSON object"):
        lq.load_joint_policy(text)


@pytest.mark.parametrize("gains, covs, field", [("1e999", "1", "gains"), ("0", "1e999", "covs")])
def test_policy_non_finite_entry_names_its_field(gains, covs, field):
    text = ('{"num_agents": 1, "horizon": 1, "state_dim": 1, "action_dim": 1,'
            f' "gains": [[[[{gains}]]]], "covs": [[[[{covs}]]]]}}')
    with pytest.raises(lq.GameSpecError, match=f"^{field}: contains non-finite"):
        lq.load_joint_policy(text)


def test_spec_arrays_read_only():
    spec = lq.random_game(2, 2, 2, 1, seed=0, scale=0.5)
    with pytest.raises(ValueError):
        spec.A[0, 0, 0] = 99.0


def _tolisted(node):
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {key: _tolisted(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_tolisted(value) for value in node]
    return node


def _json_text(doc) -> str:
    """The document as json wrote it with every array converted by tolist()."""
    return json.dumps(_tolisted(doc), indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = [-0.0, 1e16, 1e-300, 5e-324, 0.1 + 0.2, -1.5e-7, 123456789.125]


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (2, 3, 2, 4), (3, 2, 3, 1)])
def test_dumps_matches_json_encoder(dims):
    n, T, m, p = dims  # N=1, T=1, m=p=1; p > m; p < m
    spec = lq.random_game(n, T, m, p, seed=17, scale=0.7).with_tau(25.0)
    sol = lq.exact_ne(spec)
    gains, covs = sol.policy.gains, sol.policy.covs
    spec_doc = {
        "num_agents": n, "horizon": T, "state_dim": m, "action_dim": p, "tau": spec.tau,
        "A": spec.A, "B": spec.B, "Q": spec.Q, "R": spec.R,
        "noise_cov": spec.noise_cov, "init_mean": spec.init_mean, "init_cov": spec.init_cov,
    }
    policy_doc = {
        "num_agents": n, "horizon": T, "state_dim": m, "action_dim": p,
        "gains": gains, "covs": covs,
    }
    certificate_doc = {
        "agents": [
            {"expected_cost": 1.0 / 3.0, "value_at_init_mean": -0.0,
             "P": sol.riccati[i], "q": sol.offsets[i]}
            for i in range(n)
        ],
        "exploitability": np.array(EDGE_FLOATS[:n]),
        "compare_distance": 3e-11,
    }
    condition_doc = {
        "tau": spec.tau, "gamma_B": 0.1 + 0.2, "gamma_P": 1e16, "threshold": 5e-324,
        "margin": 0.0, "satisfied": True, "delta_used": 0.8, "exploitability": np.zeros(n),
    }
    assert lq.dump_game_spec(spec) == _json_text(spec_doc)
    assert lq.dump_joint_policy(sol.policy) == _json_text(policy_doc)
    for doc in (spec_doc, policy_doc, certificate_doc, condition_doc):
        assert model._dumps(doc) == _json_text(doc)


def _square_variants(values: np.ndarray) -> list[np.ndarray]:
    """For a stack of square matrices with ``m > 1``: the stack made
    symmetric bit for bit, the same with ``0.0`` opposite ``-0.0``, and the
    same with one entry of the last block one ulp off its mirror image."""
    m = values.shape[-1]
    if values.ndim < 2 or values.shape[-2] != m or m < 2 or values.size == 0:
        return []
    sym = values.copy()
    lower = np.tril_indices(m, -1)
    sym[..., lower[0], lower[1]] = sym[..., lower[1], lower[0]]
    signed = sym.copy()
    signed[..., 0, 1], signed[..., 1, 0] = 0.0, -0.0
    ulp = sym.copy()
    last = ulp.reshape(-1, m, m)[-1]
    last[1, 0] = np.nextafter(last[1, 0], np.inf)
    return [sym, signed, ulp]


@pytest.mark.parametrize("shape", [(7,), (7, 1), (1, 7), (1, 1, 7, 1), (0,), (2, 0),
                                   (4, 3, 3), (2, 2), (2, 1, 4, 4), (0, 3, 3), (1, 1), (3, 1, 1)])
def test_dumps_edge_values_and_shapes(shape):
    values = np.resize(np.array(EDGE_FLOATS), shape)
    for arr in [values, *_square_variants(values)]:
        doc = {"a": arr, "b": [{"c": arr, "d": [arr, 2.5]}], "e": np.array(-0.0)}
        assert model._dumps(doc) == _json_text(doc)
        assert model._dumps(arr) == _json_text(arr)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dumps_rejects_non_finite_like_json(bad):
    arr = np.array([[1.0, 2.0], [bad, 3.0]])
    with pytest.raises(ValueError) as expected:
        _json_text({"x": arr})
    with pytest.raises(ValueError) as got:
        model._dumps({"x": arr})
    assert str(got.value) == str(expected.value)


def test_first_definiteness_failure_named_r_before_later_agent():
    spec = lq.random_game(2, 4, 2, 2, seed=4, scale=0.5)
    Q, R = spec.Q.copy(), spec.R.copy()
    R[0, 2] = np.diag([1.0, -2.0])
    Q[1, 0] = -np.eye(2)
    with pytest.raises(lq.GameSpecError) as err:
        lq.validate_game_spec(dataclasses.replace(spec, Q=Q, R=R))
    assert err.value.field == "R[0][2]"
    assert str(err.value) == "R[0][2]: not positive definite (min eigenvalue -2.000e+00)"


def test_first_definiteness_failure_named_q_before_r_of_same_agent():
    spec = lq.random_game(2, 4, 2, 2, seed=4, scale=0.5)
    Q, R = spec.Q.copy(), spec.R.copy()
    Q[0, 3] = np.diag([-3.0, 1.0])
    Q[0, 4] = -np.eye(2)
    R[0, 1] = np.zeros((2, 2))
    with pytest.raises(lq.GameSpecError) as err:
        lq.validate_game_spec(dataclasses.replace(spec, Q=Q, R=R))
    assert err.value.field == "Q[0][3]"
    assert str(err.value) == "Q[0][3]: not positive semidefinite (min eigenvalue -3.000e+00)"


def test_psd_tolerance_scales_with_norm():
    spec = lq.random_game(1, 2, 2, 1, seed=4, scale=0.5)
    Q = spec.Q.copy()
    Q[0, 1] = np.diag([1e6, -1e-5])  # within PSD_RTOL times its largest entry of PSD
    again = lq.validate_game_spec(dataclasses.replace(spec, Q=Q))
    npt.assert_array_equal(again.Q[0, 1], Q[0, 1])
    Q[0, 1] = np.diag([1e6, -1e-3])
    with pytest.raises(lq.GameSpecError, match=r"Q\[0\]\[1\]"):
        lq.validate_game_spec(dataclasses.replace(spec, Q=Q))
    with pytest.raises(lq.GameSpecError, match="init_cov: not positive semidefinite"):
        lq.validate_game_spec(dataclasses.replace(spec, init_cov=-np.eye(2)))


def _validation_variants():
    """A validated game and variants of it that the tolerances, relative to
    each matrix's largest entry, accept (small skew, slightly negative
    eigenvalue) or reject."""
    spec = lq.random_game(2, 3, 3, 2, seed=9, scale=0.6)
    Q = spec.Q.copy()
    Q[0, 1, 0, 2] += 1e-11 * np.abs(Q[0, 1]).max()
    skewed = Q.copy()
    skewed[0, 1, 0, 2] += 1e-8 * np.abs(Q[0, 1]).max()
    tiny = spec.Q.copy()
    tiny[0, 0, :2, :2] = [[1e-20, 1e-12], [0, 1e-20]]
    tiny[0, 0, 2:, :], tiny[0, 0, :, 2:] = 0.0, 0.0
    return {
        "valid": (spec, None),
        "small skew": (dataclasses.replace(spec, Q=Q), None),
        "slightly indefinite": (dataclasses.replace(spec, noise_cov=np.diag([1.0, 0.5, -1e-11])), None),
        "skewed": (dataclasses.replace(spec, Q=skewed), "Q"),
        "indefinite": (dataclasses.replace(spec, init_cov=np.diag([1.0, 0.5, -1e-9])), "init_cov"),
        "tiny skewed": (dataclasses.replace(spec, Q=tiny), "Q"),
    }


@pytest.mark.parametrize("k", [-400, -60, -8, 0, 8, 60, 400])
def test_validation_is_invariant_to_power_of_two_scaling(k):
    """Scaling Q, R, noise_cov and init_cov by 2**k keeps every decision,
    and an accepted game's arrays are the unscaled ones scaled, bit for bit."""
    fields = ("Q", "R", "noise_cov", "init_cov")
    for name, (spec, field) in _validation_variants().items():
        scaled = dataclasses.replace(spec, **{f: np.ldexp(getattr(spec, f), k) for f in fields})
        if field is not None:
            with pytest.raises(lq.GameSpecError) as err:
                lq.validate_game_spec(scaled)
            assert err.value.field == field, name
            continue
        expected, got = lq.validate_game_spec(spec), lq.validate_game_spec(scaled)
        for f in fields:
            assert np.ldexp(getattr(expected, f), k).tobytes() == getattr(got, f).tobytes(), (name, f)


def test_with_tau_checks_only_tau_and_shares_arrays():
    spec = lq.random_game(2, 3, 3, 2, seed=1, scale=0.6)
    other = spec.with_tau(2.5)
    assert other.tau == 2.5
    for f in dataclasses.fields(spec):
        if f.name != "tau":
            assert getattr(other, f.name) is getattr(spec, f.name)
    for tau, message in [(0, "tau: must be positive, got 0.0"), (-1, "tau: must be positive, got -1.0"),
                         (float("nan"), "tau: must be a finite real"), (float("inf"), "tau: must be a finite real")]:
        with pytest.raises(lq.GameSpecError) as err:
            spec.with_tau(tau)
        assert str(err.value) == message
        with pytest.raises(lq.GameSpecError) as full:
            lq.validate_game_spec(dataclasses.replace(spec, tau=float(tau)))
        assert str(full.value) == message
