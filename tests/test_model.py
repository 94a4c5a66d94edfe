import contextlib
import dataclasses
import gc
import json
import math
import re

import numpy as np
import numpy.testing as npt
import orjson
import pytest
from hypothesis import given, strategies as st

import lqnash as lq
from lqnash import model

from conftest import BOUNDARY_FLOATS, SCALAR_GAME_TEXT, finite_float_arrays


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


def test_per_agent_entry_mismatch_names_the_agent():
    """In a game of several agents, an agent's entry of the wrong shape is
    named with its index, not as a missing agent nesting."""
    doc = json.loads(SCALAR_GAME_TEXT)
    doc.update(num_agents=2, B=[[1], [[1, 2]]])
    with pytest.raises(lq.GameSpecError) as err:
        lq.load_game_spec(json.dumps(doc))
    assert str(err.value) == ("B[1]: dimension mismatch: expected 1 matrices of shape (1, 1) "
                              "or one matrix to broadcast, got data of shape (1, 2)")


def test_unstacked_mismatch_names_both_shapes():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["init_mean"] = [1, 2]
    with pytest.raises(lq.GameSpecError) as err:
        lq.load_game_spec(json.dumps(doc))
    assert str(err.value) == "init_mean: dimension mismatch: expected shape (1,), got (2,)"


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


POLICY_TEXT = ('{"num_agents": 1, "horizon": 1, "state_dim": 1, "action_dim": 1,'
               ' "gains": [[[[0]]]], "covs": [[[[1]]]]}')
DOCUMENTS = {"game": (lq.load_game_spec, SCALAR_GAME_TEXT), "policy": (lq.load_joint_policy, POLICY_TEXT)}
BAD_DIMENSIONS = [(True, "must be an integer"), (1.5, "must be an integer"),
                  (0, "must be a positive integer"), (-1, "must be a positive integer")]


@pytest.mark.parametrize("kind, key, value, message", [
    *((kind, key, value, message) for kind in DOCUMENTS for key in model._DIMS for value, message in BAD_DIMENSIONS),
    *(("game", "tau", value, "must be a real number") for value in (True, "1", None)),
])
def test_header_rejections(kind, key, value, message):
    load, text = DOCUMENTS[kind]
    doc = json.loads(text)
    doc[key] = value
    with pytest.raises(lq.GameSpecError) as err:
        load(json.dumps(doc))
    assert err.value.field == key
    assert str(err.value) == f"{key}: {message}"


BIG = 10**400  # an integer literal past the float range
# Each document with one entry that is not a JSON number, in a field of the
# right shape; numpy would read most of them as numbers.
BAD_ENTRIES = {
    "string": ("game", {"A": ["1"]}, "A"),
    "padded-string": ("game", {"Q": [1, " 1e0 "]}, "Q"),
    "scalar-string": ("game", {"init_mean": "0.5"}, "init_mean"),
    "bool": ("game", {"B": [True]}, "B"),
    "scalar-bool": ("game", {"noise_cov": False}, "noise_cov"),
    "bool-among-floats": ("game", {"Q": [1.0, True]}, "Q"),
    "bool-among-ints": ("game", {"Q": [1, False]}, "Q"),
    "null": ("game", {"A": [None]}, "A"),
    "scalar-null": ("game", {"init_cov": None}, "init_cov"),
    "big-integer": ("game", {"R": [BIG]}, "R"),
    "big-tau": ("game", {"tau": BIG}, "tau"),
    "policy-string": ("policy", {"gains": [[[["0"]]]]}, "gains"),
    "policy-bool": ("policy", {"covs": [[[[True]]]]}, "covs"),
    "policy-bool-among-floats": ("policy", {"state_dim": 2, "gains": [[[[0.5, True]]]]}, "gains"),
    "policy-null": ("policy", {"gains": [[[[None]]]]}, "gains"),
    "policy-big-integer": ("policy", {"covs": [[[[BIG]]]]}, "covs"),
}


@pytest.mark.parametrize("kind, updates, field", BAD_ENTRIES.values(), ids=BAD_ENTRIES)
def test_entries_must_be_json_numbers(kind, updates, field):
    load, text = DOCUMENTS[kind]
    doc = json.loads(text)
    doc.update(updates)
    with pytest.raises(lq.GameSpecError) as err:
        load(json.dumps(doc))
    assert err.value.field == field
    message = "must be a finite real" if field == "tau" else "not a (rectangular) numeric array"
    assert str(err.value) == f"{field}: {message}"


def _ragged(leaf, depth: int):
    """``leaf`` nested ``depth`` lists deep, each level beside numbers and
    lists of other depths."""
    node = leaf
    for level in range(depth):
        node = [1.5, [2, [3.0]], node] if level % 2 else [node, 4, []]
    return node


@pytest.mark.parametrize("depth", range(6))
def test_booleans_found_at_every_depth_of_ragged_lists(depth):
    for leaf in (True, False):
        assert model._has_bool(_ragged(leaf, depth))
    assert not model._has_bool(_ragged(0.5, depth))
    assert not model._has_bool(_ragged(1, depth))
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["A"] = _ragged(True, depth)
    with pytest.raises(lq.GameSpecError) as err:
        lq.load_game_spec(json.dumps(doc))
    assert str(err.value) == "A: not a (rectangular) numeric array"


def test_booleans_found_at_any_depth():
    """The walk keeps a stack, not the interpreter's: nesting far past the
    recursion limit is walked too."""
    node = leaf = [True]
    for _ in range(100_000):
        node = [node]
    assert model._has_bool(node)
    leaf[0] = 0.5
    assert not model._has_bool(node)


def test_ignored_keys_holding_booleans_still_load():
    doc = json.loads(SCALAR_GAME_TEXT)
    expected = lq.load_game_spec(json.dumps(doc))
    doc.update({"comment": True, "meta": {"checked": [False, [True]]}})
    spec = lq.load_game_spec(json.dumps(doc))
    assert lq.dump_game_spec(spec) == lq.dump_game_spec(expected)


def test_integers_beyond_64_bits_are_numbers():
    doc = json.loads(SCALAR_GAME_TEXT)
    doc["A"], doc["tau"] = [2**64], 2**70
    spec = lq.load_game_spec(json.dumps(doc))
    assert spec.A[0, 0, 0] == 2.0**64 and spec.tau == 2.0**70


LOADERS = {"game": (lq.load_game_spec, lq.dump_game_spec), "policy": (lq.load_joint_policy, lq.dump_joint_policy)}


def _documents(entries: list[str], dim: str = "1", tau: str = "2", extra: str = "") -> dict[str, str]:
    """A game whose ``A`` holds one of ``entries`` per stage, and a policy
    whose one gain row holds them, as JSON texts; ``dim`` is the number of
    agents, ``extra`` more text at the end of each object."""
    k, joined = len(entries), ", ".join(entries)
    return {
        "game": (f'{{"num_agents": {dim}, "horizon": {k}, "state_dim": 1, "action_dim": 1, "tau": {tau},'
                 f' "A": [{joined}], "B": 1, "Q": 1, "R": 1, "noise_cov": 0, "init_mean": 1, "init_cov": 0{extra}}}'),
        "policy": (f'{{"num_agents": {dim}, "horizon": 1, "state_dim": {k}, "action_dim": 1,'
                   f' "gains": [[[[{joined}]]]], "covs": [[[[1]]]]{extra}}}'),
    }


def _refuse(text):
    raise orjson.JSONDecodeError("refused", text, 0)


def _load_outcome(kind: str, text: str, json_only: bool = False) -> tuple[object, int]:
    """What loading ``text`` as a ``kind`` document gives, its dump or the
    field and text of its ``GameSpecError``, and how many times json parsed
    it.  ``json_only`` makes orjson refuse every document."""
    load, dump = LOADERS[kind]
    with pytest.MonkeyPatch.context() as m:
        if json_only:
            m.setattr(orjson, "loads", _refuse)
        calls, json_loads = [], json.loads
        m.setattr(json, "loads", lambda *args, **kwargs: calls.append(args) or json_loads(*args, **kwargs))
        try:
            outcome = dump(load(text))
        except lq.GameSpecError as exc:
            outcome = exc.field, str(exc)
    return outcome, len(calls)


_FLOATS = [x for x in np.random.default_rng(27).integers(0, 2**64, 300, dtype=np.uint64).view(float).tolist()
           if math.isfinite(x)]
_BIG = [str(2**64), str(2**64 + 2049), str(-2**63 - 1), str(2**64 - 1)]
# Each case: its document texts by kind (a game's only where it sets tau),
# and whether json parses them again (orjson refuses them or reads them differently).
PARSER_CASES = {
    "repr": (_documents([repr(x) for x in _FLOATS]), False),
    "decimal-25": (_documents(["%.25e" % x for x in _FLOATS]), False),
    "subnormal": (_documents(["5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308", "-1e-310"]), False),
    "signed-zero": (_documents(["0.0", "-0.0", "0", "-0", "-0e0", "0E-5"]), False),
    "big-int-array": (_documents(_BIG), False),
    "big-int-tau": ({"game": _documents(["1"], tau=str(2**64 + 2049))["game"]}, False),
    "2**64-dim": (_documents(["1"], dim=str(2**64)), True),
    "2**64+2049-dim": (_documents(["1"], dim=str(2**64 + 2049)), True),
    "huge-int": (_documents(["1", str(10**400)]), True),
    "huge-int-tau": ({"game": _documents(["1"], tau=str(10**400))["game"]}, True),
    "1e400": (_documents(["1e400"]), True),
    "1e400-tau": ({"game": _documents(["1"], tau="1e400")["game"]}, True),
    "nan": (_documents(["NaN"]), True),
    "nan-tau": ({"game": _documents(["1"], tau="NaN")["game"]}, True),
    "minus-infinity": (_documents(["-Infinity"]), True),
    "lone-surrogate": (_documents(["1"], extra=', "note": "\\ud800"'), True),
    "duplicate-keys": (_documents(["1"], extra=', "tau": 0.5, "covs": [[[[2]]]]'), False),
    "non-ascii-key": (_documents(["1"], extra=', "clé": "équilibre"'), False),
    "trailing-garbage": ({kind: text + " x" for kind, text in _documents(["1"]).items()}, True),
    "number-top-level": (dict.fromkeys(LOADERS, "5"), False),
    "array-top-level": (dict.fromkeys(LOADERS, "[1, 2]"), False),
    "null-top-level": (dict.fromkeys(LOADERS, "null"), False),
}


@pytest.mark.parametrize("kind, text, fallback", [
    pytest.param(kind, text, fallback, id=f"{name}-{kind}")
    for name, (texts, fallback) in PARSER_CASES.items() for kind, text in texts.items()
])
def test_orjson_loads_as_json_does(kind, text, fallback):
    """A document loads to the same bytes, or fails with the same error, as
    when json parses it alone; json parses it only where orjson refuses it
    or a dimension of the object comes back as a float."""
    assert _load_outcome(kind, text) == (_load_outcome(kind, text, json_only=True)[0], int(fallback))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
       st.sampled_from(["%r", "%.25e", "%.17g", "%.3e", "integer"]))
def test_orjson_reads_the_floats_json_reads(values, style):
    """Any finite float written as its repr, a decimal of 25, 17 or 4
    digits (which may round past the float range) or an integer literal
    loads as json loads it."""
    texts = [str(int(x)) if style == "integer" else style % x for x in values]
    for kind, text in _documents(texts).items():
        assert _load_outcome(kind, text)[0] == _load_outcome(kind, text, json_only=True)[0]


@pytest.mark.parametrize("where", ["field", "ignored-key", "top-level"])
def test_nesting_past_the_recursion_limit(where):
    """json cannot parse a document nested deeper than the interpreter's
    recursion limit, and the document is named malformed.  An orjson that
    parses it (3.8 sets no depth limit) gives what a shallow document
    gives: a named field error, a load that ignores the key, or a top level
    that is not an object.  One that refuses it hands it to json, as any
    refused document."""
    deep = "[" * 5000 + "1" + "]" * 5000
    if where == "top-level":
        text = dict.fromkeys(LOADERS, deep)
    else:
        text = _documents([deep] if where == "field" else ["1"], extra="" if where == "field" else f', "x": {deep}')
    for kind in LOADERS:
        (field, message), calls = _load_outcome(kind, text[kind], json_only=True)
        assert (field, calls) == ("", 1)
        assert message.startswith("malformed JSON document: maximum recursion depth exceeded"), message
        try:
            orjson.loads(text[kind])
        except orjson.JSONDecodeError:
            assert _load_outcome(kind, text[kind]) == ((field, message), 1)
            continue
        if where == "field":
            field = {"game": "A", "policy": "gains"}[kind]
            expected = field, f"{field}: not a (rectangular) numeric array"
        elif where == "top-level":
            expected = _load_outcome(kind, "[1, 2]")[0]
        else:
            expected = _load_outcome(kind, _documents(["1"])[kind])[0]
        assert _load_outcome(kind, text[kind]) == (expected, 0)


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


def test_numpy_integer_dimensions_become_ints():
    spec = lq.random_game(np.int64(2), 3, np.int32(2), 1, seed=0)
    assert [type(getattr(spec, key)) for key in model._DIMS] == [int] * 4
    assert lq.dump_game_spec(spec) == lq.dump_game_spec(lq.random_game(2, 3, 2, 1, seed=0))
    again = lq.validate_game_spec(dataclasses.replace(spec, horizon=np.int64(3)))
    assert type(again.horizon) is int


@pytest.mark.parametrize("dims, key, message", [
    ((2.0, 3, 2, 1), "num_agents", "must be an integer"),
    ((2, 3, 2, True), "action_dim", "must be an integer"),
    ((2, 0, 2, 1), "horizon", "must be a positive integer"),
])
def test_random_game_names_a_bad_dimension(dims, key, message):
    with pytest.raises(lq.GameSpecError) as err:
        lq.random_game(*dims, seed=0)
    assert err.value.field == key
    assert str(err.value) == f"{key}: {message}"


@pytest.mark.parametrize("scale, reason", [(1e154, "Q: entries too large: X + X^T overflows"),
                                           (1e200, "Q: contains non-finite entries")])
def test_random_game_blames_a_huge_scale(scale, reason):
    """A scale whose draws overflow is named as the fault, not the field
    the draws overflowed in: the caller wrote no Q."""
    with pytest.raises(lq.GameSpecError) as err:
        lq.random_game(2, 3, 2, 1, seed=0, scale=scale)
    assert err.value.field == "scale"
    assert str(err.value) == f"scale: {scale!r} is too large: {reason}"


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


def test_validation_copies_the_callers_arrays():
    """Validation leaves the caller's arrays writable and shares no memory
    with them, so no write to them can change a validated spec."""
    spec = lq.random_game(2, 3, 3, 2, seed=5, scale=0.6)
    base = {field: np.array(getattr(spec, field)) for field in model._shapes(2, 3, 3, 2)}
    views = {field: arr[...] for field, arr in base.items()}
    validated = lq.validate_game_spec(dataclasses.replace(spec, **views))
    for field, source in views.items():
        arr = getattr(validated, field)
        assert source.flags.writeable and not arr.flags.writeable, field
        assert not np.shares_memory(arr, base[field]), field
        before = arr.copy()
        base[field] += 1.0
        npt.assert_array_equal(arr, before)


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


@pytest.mark.parametrize("shape", [(7,), (7, 1), (1, 7), (1, 1, 7, 1), (0,), (2, 0),
                                   (4, 3, 3), (2, 2), (2, 1, 4, 4), (0, 3, 3), (1, 1), (3, 1, 1), ()])
def test_dumps_edge_values_and_shapes(shape):
    for values in (EDGE_FLOATS, BOUNDARY_FLOATS):
        arr = np.resize(np.array(values), shape)
        # Transposed and broadcast arrays are not C-contiguous; orjson takes a copy.
        doc = {"a": arr, "b": [{"c": arr.T, "d": [arr, 2.5]}], "e": np.array(-0.0),
               "f": np.broadcast_to(arr, (2, *arr.shape)), "g": values, "h": list(np.array(values))}
        assert model._dumps(doc) == _json_text(doc)
        assert model._dumps(arr) == _json_text(arr)


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


@pytest.mark.parametrize("shape", [(3, 7, 4, 4), (2, 5, 9), (40,), (3, 30), (6, 6)])
def test_templates_stay_within_a_block(shape):
    """Arrays of more entries than one row, stacks of square matrices among
    them, symmetric ones with ``0.0`` opposite ``-0.0`` or one ulp off, are
    laid out whole, by one orjson call, with json's text."""
    for values in (EDGE_FLOATS, BOUNDARY_FLOATS):
        base = np.resize(np.array(values), shape)
        for arr in [base, *_square_variants(base)]:
            doc = {"a": arr, "b": [{"c": arr.T}], "d": np.broadcast_to(arr, (2, *arr.shape))}
            assert model._dumps(doc) == _json_text(doc)


@given(finite_float_arrays(), st.floats(allow_nan=False, allow_infinity=False))
def test_dumps_matches_json_for_any_float(arr, leaf):
    """Arrays of any finite float64, drawn by ``st.floats`` or from raw
    bit patterns, and float leaves are written as json writes them."""
    doc = {"a": arr, "b": [{"c": leaf, "d": arr}, leaf, 3], "e": False}
    assert model._dumps(doc) == _json_text(doc)


def test_dumps_boundary_floats_as_0d_arrays_and_nested_leaves():
    """Each boundary float as a 0-d array, and as a float leaf or float
    subclass nested in lists, is written as json writes it."""
    for x in BOUNDARY_FLOATS:
        doc = {"a": np.array(x), "b": [[x, [np.float64(x)]], 1, {"c": [x, -0.0]}], "d": x}
        assert model._dumps(doc) == _json_text(doc)
        assert model._dumps([[x]]) == _json_text([[x]])


@pytest.mark.parametrize("doc", [
    {"a": None}, {"null": 1.0, "b": [None, 2.5]}, {"a": None, "b": np.array([1e-5, 1.0])},
    {"null": 1e-5}, {"a": [1e20, None, 2.5e-7]}, {"nullable": np.array([3e-9, 4e17])},
    {"a": [None, np.array(1e-300)], "b": [{"null": None}]},
])
def test_null_tokens_never_shift_the_floats(doc):
    """orjson writes ``None`` and a key holding ``null`` as more ``null``
    tokens than the floats set in: the text is json's or ``ValueError``."""
    try:
        text = model._dumps(doc)
    except ValueError:
        return
    assert text == _json_text(doc)


@pytest.mark.parametrize("doc", [
    {"n": 1e-5, "nul": [2.5e-7, 1.0], "nnnn": np.array([3e-9, 2.0]), "annul": {"n": 1e20, "nn": "n"}},
    np.array([1e-5, 2e-6, 3e-7, 1.0, 4e17]),
    1e-5, [1e-5, 1.0, 2.0, 3e-7], {"a": 1.0, "z": [1e-300]},
], ids=["n-keys", "adjacent", "alone", "first-last", "last"])
def test_null_scan_edge_cases(doc):
    """``null`` tokens among keys dense with ``n``, beside each other, first,
    last, or alone are found, and the text is json's."""
    assert model._dumps(doc) == _json_text(doc)


@pytest.mark.parametrize("block", [
    [[1e-5, 2e-6, 3e-7]], [[1e-5, 1.0], [2.0, 3e-7]], [[1.0, 2e-6, 3e-7, 4.0]], [[5e-324]],
], ids=["all", "first-last", "middle", "one"])
def test_null_scan_compact_rows(block):
    """Set-aside floats in orjson's compact text, as ``null,null`` and at
    either end of a row, give each row as ``repr`` writes its entries."""
    assert model._rows(np.array(block)) == [",".join(map(repr, row)).encode() for row in block]


def test_null_scan_policy_of_thousands_of_exponent_entries():
    """4800 set-aside floats, every entry of the policy, each set in its place."""
    rng = np.random.default_rng(5)
    joint = lq.JointPolicy(rng.normal(0.0, 1e-6, (4, 50, 2, 10)), rng.uniform(1e-9, 2e-5, (4, 50, 2, 2)))
    doc = {"num_agents": 4, "horizon": 50, "state_dim": 10, "action_dim": 2, "gains": joint.gains, "covs": joint.covs}
    assert lq.dump_joint_policy(joint) == _json_text(doc)


@pytest.mark.parametrize("doc", [{"null": 1e-5}, {"nullable": np.array([3e-9, 1.0])}, {"n": [None, 1e-5]}])
def test_null_scan_rejects_more_null_tokens_than_floats(doc):
    """A key holding ``null``, or a ``None``, beside a set-aside float is
    one token too many: ``ValueError``, never a shifted float."""
    with pytest.raises(ValueError, match="2 null tokens in the text for 1 floats"):
        model._dumps(doc)


def test_large_spec_loads_with_no_collection():
    """The tens of thousands of lists orjson builds for a 4.6 MB spec set
    off no collection: the GC is paused until they are freed."""
    text = lq.dump_game_spec(lq.random_game(20, 50, 10, 2, seed=1, scale=0.3))
    seen = []

    def hook(phase, info):
        seen.append((phase, info["generation"]))

    gc.collect()
    gc.callbacks.append(hook)
    try:
        spec = lq.load_game_spec(text)
    finally:
        gc.callbacks.remove(hook)
    assert seen == []
    assert spec.num_agents == 20


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["loads", "wrong-shape", "json-fallback"])
@pytest.mark.parametrize("kind", ["game", "policy"])
def test_loaders_restore_the_gc_state(kind, case, enabled):
    """A load leaves the GC as it found it, on or off, when it succeeds,
    when an array has the wrong shape, and when json parses a ``NaN``."""
    load, text = DOCUMENTS[kind]
    doc = json.loads(text)
    if case == "wrong-shape":
        doc["B" if kind == "game" else "gains"] = [[1, 2]]
    elif case == "json-fallback":
        doc["tau" if kind == "game" else "covs"] = math.nan
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.nullcontext() if case == "loads" else pytest.raises(lq.GameSpecError):
            load(json.dumps(doc))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dumps_rejects_non_finite_like_json(bad):
    """A non-finite array entry, 0-d array or float leaf raises json's
    error, naming the first one in document order; orjson would write
    ``null``."""
    arr = np.array([[1.0, 2.0], [bad, 3.0]])
    docs = [{"x": arr}, {"x": np.array(bad)}, {"x": [1.0, {"y": bad}]}, bad, {"x": np.float64(bad)},
            {"x": np.ones(2), "y": [bad], "z": np.array([-bad])}]
    for doc in docs:
        with pytest.raises(ValueError) as expected:
            _json_text(doc)
        with pytest.raises(ValueError) as got:
            model._dumps(doc)
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


def _psd_oracle(spec: lq.GameSpec) -> str | None:
    """The error validate_game_spec raises for a one-agent game with a valid
    ``R``, as eigvalsh of each of ``Q``, ``noise_cov`` and ``init_cov`` in
    turn decides it, or ``None``."""
    named = [(f"Q[0][{t}]", x) for t, x in enumerate(spec.Q[0])]
    for field, x in named + [("noise_cov", spec.noise_cov), ("init_cov", spec.init_cov)]:
        lo = np.linalg.eigvalsh(x)[0]
        if lo < -model.PSD_RTOL * np.abs(x).max():
            return f"{field}: not positive semidefinite (min eigenvalue {lo:.3e})"
    return None


@st.composite
def psd_boundary_matrices(draw, m: int) -> np.ndarray:
    """A symmetric ``m x m`` matrix: zero, singular PSD, or with its smallest
    eigenvalue in ``[-2, 1]`` times ``PSD_RTOL`` times its largest entry,
    scaled by a power of two."""
    kind = draw(st.sampled_from(["boundary", "singular", "zero"]))
    if kind == "zero":
        return np.zeros((m, m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.linalg.qr(rng.normal(size=(m, m)))[0]
    eig = rng.uniform(0.0, 1.0, m)
    eig[:draw(st.integers(1, m))] = 0.0  # one or more zero eigenvalues
    x = (v * eig) @ v.T
    if kind == "boundary":
        x += draw(st.floats(-2.0, 1.0)) * model.PSD_RTOL * (np.abs(x).max() or 1.0) * np.eye(m)
    return np.ldexp(0.5 * (x + x.T), draw(st.integers(-60, 60)))


@given(st.integers(1, 64).flatmap(lambda m: st.tuples(
    st.lists(psd_boundary_matrices(m), min_size=2, max_size=4), psd_boundary_matrices(m), psd_boundary_matrices(m))))
def test_psd_verdict_matches_an_eigvalsh_oracle(matrices):
    """The shifted Cholesky that accepts Q, noise_cov and init_cov, and the
    eigvalsh pass behind it, accept and reject as eigvalsh of each matrix
    does, with the same error text, at and around the tolerance."""
    stack, noise_cov, init_cov = matrices
    m = noise_cov.shape[0]
    game = dataclasses.replace(lq.random_game(1, len(stack) - 1, m, 1, seed=0),
                               Q=np.stack(stack)[None], noise_cov=noise_cov, init_cov=init_cov)
    expected = _psd_oracle(game)
    if expected is None:
        lq.validate_game_spec(game)
        return
    with pytest.raises(lq.GameSpecError) as err:
        lq.validate_game_spec(game)
    assert str(err.value) == expected


def test_valid_games_eigensolve_only_r(monkeypatch):
    """A valid game's PSD fields are accepted by the shifted Cholesky
    alone, zero covariances included: eigvalsh runs only on ``R``."""
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(np.shape(x)) or eigvalsh(x))
    spec = lq.random_game(3, 4, 5, 2, seed=1)
    assert calls == [spec.R.shape]
    lq.load_game_spec(lq.dump_game_spec(spec))
    lq.load_game_spec(SCALAR_GAME_TEXT)  # zero noise_cov and init_cov
    assert calls == [spec.R.shape] * 2 + [(1, 1, 1, 1)]


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


@pytest.mark.parametrize("tau", [True, False, "2", b"4", None], ids=["true", "false", "str", "bytes", "none"])
def test_tau_must_be_a_real_number(tau):
    """with_tau and validate_game_spec reject what the loader rejects, with its message."""
    spec = lq.random_game(1, 1, 1, 1, seed=0)
    for checked in (spec.with_tau, lambda t: lq.validate_game_spec(dataclasses.replace(spec, tau=t))):
        with pytest.raises(lq.GameSpecError) as err:
            checked(tau)
        assert str(err.value) == "tau: must be a real number"


def test_python_and_numpy_numbers_are_taus():
    spec = lq.random_game(1, 1, 1, 1, seed=0)
    for tau in (3, 3.0, np.int64(3), np.int32(3), np.float64(3), np.float32(3)):
        for checked in (spec.with_tau(tau), lq.validate_game_spec(dataclasses.replace(spec, tau=tau))):
            assert type(checked.tau) is float and checked.tau == 3.0
