"""Problem instances for finite-horizon entropy-regularized LQ games.

A game couples ``num_agents`` players through shared linear dynamics
``x_{t+1} = A_t x_t + sum_i B^i_t u^i_t + w_t`` over ``horizon`` stages.
Each agent pays quadratic state/action costs plus a KL penalty of its
stage policy against a standard-normal prior, weighted by ``tau``.
This module owns the instance container, its validation, the JSON
file format, and a seeded random-instance generator.  One table,
``_shapes``, lists the seven array fields in document order with their
shapes; loading, validation, dumping and generation all read it.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _text

__all__ = [
    "GameSpecError",
    "GameSpec",
    "LinearGaussianPolicy",
    "JointPolicy",
    "load_game_spec",
    "dump_game_spec",
    "validate_game_spec",
    "random_game",
    "load_joint_policy",
    "dump_joint_policy",
]

# File round-trips introduce tiny asymmetries; accept and repair them.  Both
# tolerances are relative to the largest entry of the matrix checked.
SYMMETRY_RTOL = 1e-9
PSD_RTOL = 1e-10

# The header of both documents: four positive integers, in this order.
_DIMS = ("num_agents", "horizon", "state_dim", "action_dim")


def _shapes(n: int, T: int, m: int, p: int) -> dict[str, tuple[int, ...]]:
    """Each array field of a game, in document order, and its shape.  A
    4-D shape holds one 3-D stack per agent; a 3-D shape stacks matrices
    over stages."""
    return {
        "A": (T, m, m),
        "B": (n, T, m, p),
        "Q": (n, T + 1, m, m),
        "R": (n, T, p, p),
        "noise_cov": (m, m),
        "init_mean": (m,),
        "init_cov": (m, m),
    }


_TOP_KEYS = _DIMS + ("tau",) + tuple(_shapes(1, 1, 1, 1))
# The fields that must be symmetric, in document order; random_game draws them as Gram matrices.
_SYMMETRIC = ("Q", "R", "noise_cov", "init_cov")


class GameSpecError(ValueError):
    """Parse or validation failure, tagged with the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


@dataclass(frozen=True, eq=False)
class GameSpec:
    """Validated game instance.

    Shapes (``N`` agents, ``T`` stages, state dim ``m``, action dim ``p``):

    - ``A``: ``(T, m, m)`` drift matrices
    - ``B``: ``(N, T, m, p)`` per-agent input matrices
    - ``Q``: ``(N, T+1, m, m)`` symmetric PSD state costs (incl. terminal)
    - ``R``: ``(N, T, p, p)`` symmetric PD action costs
    - ``noise_cov``: ``(m, m)`` symmetric PSD process-noise covariance
    - ``init_mean``: ``(m,)``; ``init_cov``: ``(m, m)`` symmetric PSD

    Instances are immutable after validation (arrays are read-only) and
    safe to share across workers.
    """

    num_agents: int
    horizon: int
    state_dim: int
    action_dim: int
    tau: float
    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    noise_cov: np.ndarray
    init_mean: np.ndarray
    init_cov: np.ndarray

    def with_tau(self, tau: float) -> "GameSpec":
        """Copy of this instance with a different regularization weight; only
        the weight is checked, and the (read-only) arrays are shared."""
        return dataclasses.replace(self, tau=_checked_tau(tau))


@dataclass(frozen=True, eq=False)
class LinearGaussianPolicy:
    """One agent's linear Gaussian stage policies ``u ~ N(gains[t] @ x, covs[t])``, ``gains``
    ``(T, p, m)`` and ``covs`` ``(T, p, p)``, as :func:`~lqnash.control.best_response_full` returns them."""

    gains: np.ndarray
    covs: np.ndarray


@dataclass(frozen=True, eq=False)
class JointPolicy:
    """Every agent's linear Gaussian stage policies, stacked over agents.

    ``gains``: ``(N, T, p, m)``; ``covs``: ``(N, T, p, p)``; agent ``i``'s
    policy is ``gains[i]``, ``covs[i]``.  The constructor copies both into
    C-contiguous, read-only arrays and raises ``ValueError`` naming both
    shapes unless they agree.
    """

    gains: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        gains, covs = (_frozen(np.array(a, dtype=float, order="C")) for a in (self.gains, self.covs))
        if gains.ndim != 4 or covs.shape != gains.shape[:3] + gains.shape[2:3]:
            raise ValueError(
                f"inconsistent policy arrays: gains {gains.shape} vs covs {covs.shape}, "
                "expected (N, T, p, m) and (N, T, p, p)"
            )
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "covs", covs)

    @property
    def num_agents(self) -> int:
        return self.gains.shape[0]

    @property
    def horizon(self) -> int:
        return self.gains.shape[1]


def _as_float_array(value, field: str) -> np.ndarray:
    """``value`` as a float array.  Every entry must be a number in the float
    range: numpy would read ``"1"``, ``true`` and ``null`` as 1, 1 and NaN."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and all(type(x) in (int, float) for x in arr.flat):  # integers past 64 bits
            arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise GameSpecError(field, "not a (rectangular) numeric array")
    return arr.astype(float, copy=False)


def _text_has_bool(text: str) -> bool:
    """Whether the document ``text`` holds a ``true`` or ``false``.  It scans
    for their letters ``u`` and ``f`` at memory speed: no number holds them,
    and a document's keys hold at most two ``u`` and no ``f``.  A search for
    both words takes 15 times as long, 6 ms on a 4.6 MB game."""
    u = text.find("u")
    while u != -1:
        if text.startswith("true", u - 2):
            return True
        u = text.find("u", u + 1)
    return "f" in text and "false" in text


def _has_bool(node) -> bool:
    """Whether ``node`` is, or its nested lists hold, a ``bool``.  It takes
    one level of nesting at a time and looks at the set of its types, four
    times as fast as a recursive walk on a large game."""
    level = [node]
    while level:
        kinds = set(map(type, level))
        if bool in kinds:
            return True
        if list not in kinds:
            return False
        if len(kinds) > 1:  # a ragged level: numbers beside lists
            level = [x for x in level if type(x) is list]
        level = list(itertools.chain.from_iterable(level))
    return False


def _entry(doc: dict, field: str, walk: bool):
    """``doc[field]``, unless ``walk`` finds a ``true`` or ``false`` in it.
    numpy reads ``[1.0, true]`` as floats, so only a walk of the leaves
    tells; pass ``walk`` when :func:`_text_has_bool` finds either in the text."""
    if walk and _has_bool(doc[field]):
        raise GameSpecError(field, "not a (rectangular) numeric array")
    return doc[field]


def _coerced(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, or a read-only broadcast to it.

    A 3-D ``shape`` stacks matrices over stages, and one matrix broadcasts
    over them.  Where the matrix or vector has a single entry, a bare scalar
    broadcasts too, and a stack also takes a flat list of one scalar per stage.
    """
    arr = _as_float_array(value, field)
    stacked, single = len(shape) == 3, math.prod(shape[-2:]) == 1
    if stacked and single and arr.shape == shape[:1]:
        return arr.reshape(shape)
    if arr.shape == shape or stacked and arr.shape == shape[1:] or single and arr.ndim == 0:
        return np.broadcast_to(arr, shape)
    if stacked:
        raise GameSpecError(
            field,
            f"dimension mismatch: expected {shape[0]} matrices of shape {shape[1:]} "
            f"or one matrix to broadcast, got data of shape {arr.shape}",
        )
    raise GameSpecError(field, f"dimension mismatch: expected shape {shape}, got {arr.shape}")


def _per_agent(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """:func:`_coerced` for each of a list of ``shape[0]`` agents; a
    single-agent document may omit the agent nesting."""
    n = shape[0]
    if isinstance(value, list) and len(value) == n:
        try:
            return np.stack([_coerced(v, shape[1:], f"{field}[{i}]") for i, v in enumerate(value)])
        except GameSpecError:
            if n != 1:
                raise
    if n == 1:
        return _coerced(value, shape[1:], field)[None]
    raise GameSpecError(field, f"expected a list of {n} per-agent entries")


def _checked_array(value, shape: tuple[int, ...], field: str) -> np.ndarray:
    """``value`` as a float array of exactly ``shape`` with finite entries."""
    arr = _as_float_array(value, field)
    if arr.shape != shape:
        raise GameSpecError(field, f"dimension mismatch: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise GameSpecError(field, "contains non-finite entries")
    return arr


def _checked_dims(values) -> tuple[int, ...]:
    """The dimensions ``_DIMS`` as ints; each must be a positive Python or
    numpy integer, not ``bool``.  The first bad one is named."""
    for key, value in zip(_DIMS, values):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise GameSpecError(key, "must be an integer")
        if value < 1:
            raise GameSpecError(key, "must be a positive integer")
    return tuple(map(int, values))


def _reject_constant(name: str):
    raise GameSpecError("", f"non-finite constant {name!r} not permitted")


def _load_header(text: str, keys: tuple[str, ...]) -> tuple[dict, tuple[int, ...]]:
    """The JSON object of a document, finite numbers only, which must hold
    every one of ``keys``, and its four positive dimensions ``_DIMS``."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GameSpecError("", f"malformed JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise GameSpecError("", "top level must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise GameSpecError(missing[0], "missing required key")
    return doc, _checked_dims([doc[key] for key in _DIMS])


def load_game_spec(text: str) -> GameSpec:
    """Parse and validate a JSON game document.

    Raises :class:`GameSpecError` naming the offending field on malformed
    documents, dimension mismatches, PSD/PD violations, or nonpositive tau.
    """
    doc, (n, horizon, m, p) = _load_header(text, _TOP_KEYS)
    walk = _text_has_bool(text)
    arrays = {
        field: (_per_agent if len(shape) == 4 else _coerced)(_entry(doc, field, walk), shape, field)
        for field, shape in _shapes(n, horizon, m, p).items()
    }
    spec = GameSpec(num_agents=n, horizon=horizon, state_dim=m, action_dim=p, tau=doc["tau"], **arrays)
    return validate_game_spec(spec)


# Stands in for each array while json lays out the rest of a document.
# json writes it as the escape "\u0000", which no key of a document contains.
_ARRAY_SLOT = "\0"
_ARRAY_SLOT_TEXT = json.dumps(_ARRAY_SLOT)


def _flat_values(arr: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether ``arr`` is laid out as a mirrored stack, and the values
    :func:`_text.render` takes for it.

    A stack of square matrices that equals its transpose bit for bit (so
    ``0.0`` opposite ``-0.0`` does not count) has only its upper triangles
    formatted; each lower entry reuses the text of its mirror image.
    """
    m = arr.shape[-1] if arr.ndim >= 2 else 0
    if m > 1 and arr.shape[-2] == m and arr.size:
        bits = arr.view(np.uint64)
        if np.array_equal(bits, bits.swapaxes(-1, -2)):
            iu0, iu1 = np.triu_indices(m)
            return True, arr[..., iu0, iu1].ravel()
    return False, arr.ravel()


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"`` for a document
    whose leaves may also be float64 arrays.

    json lays out the document with a placeholder string per array; the
    arrays are then laid out by :func:`._text.document` with the ``repr``
    of their elements, which is what json writes for finite floats, on two
    cores while the CLI's text worker runs.  A non-finite entry raises
    json's ``ValueError``.
    """
    arrays: list[tuple[np.ndarray, int]] = []

    def with_slots(node, level: int):
        if isinstance(node, np.ndarray):
            arrays.append((node, level))
            return _ARRAY_SLOT
        if isinstance(node, dict):
            return {key: with_slots(value, level + 1) for key, value in node.items()}
        if isinstance(node, list):
            return [with_slots(value, level + 1) for value in node]
        return node

    texts = json.dumps(with_slots(doc, 0), indent=2, allow_nan=False).split(_ARRAY_SLOT_TEXT)
    texts[-1] += "\n"
    laid_out, flats = [], []
    for arr, level in arrays:
        finite = np.isfinite(arr)
        if not finite.all():
            bad = float(arr[~finite][0])
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        mirror, flat = _flat_values(arr)
        laid_out.append((arr.shape, level, mirror))
        flats.append(flat)
    pieces, tail = _text.json_pieces(texts, laid_out)
    text = _text.document(pieces, flats)
    return "".join([piece if isinstance(piece, str) else piece.decode() for piece in text]) + tail


def dump_game_spec(spec: GameSpec) -> str:
    """Serialize to the canonical JSON document (exact float round-trip)."""
    doc = {field.name: getattr(spec, field.name) for field in dataclasses.fields(spec)}
    doc["tau"] = float(spec.tau)
    return _dumps(doc)


def _symmetrized(x: np.ndarray, field: str) -> np.ndarray:
    """``(X + X^T)/2`` after a skew check of each matrix in units of its
    largest entry; called with overflow warnings off.  A sum ``X + X^T``
    past the float range is rejected."""
    scale = np.abs(x).max(axis=(-2, -1), keepdims=True)
    unit = x / np.where(scale > 0, scale, 1.0)
    skew = np.linalg.norm(unit - unit.swapaxes(-1, -2), axis=(-2, -1))
    if (skew > SYMMETRY_RTOL).any():
        worst = np.argmax(skew)
        raise GameSpecError(field, f"not symmetric (skew norm {skew.flat[worst] * scale.flat[worst]:.3e})")
    sym = 0.5 * (x + x.swapaxes(-1, -2))
    if not np.isfinite(sym).all():
        raise GameSpecError(field, "entries too large: X + X^T overflows")
    return sym


def _psd_failures(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenvalue of each matrix in the stack ``x``, and where it
    falls below ``-PSD_RTOL`` times the matrix's largest entry."""
    lo = np.linalg.eigvalsh(x)[..., 0]
    return lo, lo < -PSD_RTOL * np.abs(x).max(axis=(-2, -1))


def _not_psd(field: str, lo) -> GameSpecError:
    return GameSpecError(field, f"not positive semidefinite (min eigenvalue {float(lo):.3e})")


def _checked_tau(tau) -> float:
    """``tau`` as a float: a Python or numpy integer or float, finite and
    positive.  Anything else, a boolean included, is not a real number."""
    if isinstance(tau, bool) or not isinstance(tau, (int, float, np.integer, np.floating)):
        raise GameSpecError("tau", "must be a real number")
    try:
        tau = float(tau)
    except OverflowError:  # an integer past the float range
        tau = math.inf
    if not math.isfinite(tau):
        raise GameSpecError("tau", "must be a finite real")
    if tau <= 0:
        raise GameSpecError("tau", f"must be positive, got {tau}")
    return tau


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def validate_game_spec(spec: GameSpec) -> GameSpec:
    """Check dimensions, symmetry, definiteness, and tau; symmetrize.

    Symmetrization is ``(X + X^T)/2`` after a skew-tolerance check, so
    validating an already-validated instance is a no-op.
    """
    n, horizon, m, p = _checked_dims([getattr(spec, key) for key in _DIMS])
    tau = _checked_tau(spec.tau)
    arrays = {
        field: _checked_array(getattr(spec, field), shape, field)
        for field, shape in _shapes(n, horizon, m, p).items()
    }

    with np.errstate(over="ignore"):
        for field in _SYMMETRIC:
            arrays[field] = _symmetrized(arrays[field], field)
        # One eigvalsh per stack; the first failure is reported in the order
        # agent by agent, Q over stages, then R over stages.
        q_lo, q_bad = _psd_failures(arrays["Q"])
        r_lo = np.linalg.eigvalsh(arrays["R"])[..., 0]
        r_bad = r_lo <= 0.0
        bad_agents = np.flatnonzero(q_bad.any(axis=1) | r_bad.any(axis=1))
        if bad_agents.size:
            i = int(bad_agents[0])
            if q_bad[i].any():
                t = int(np.argmax(q_bad[i]))
                raise _not_psd(f"Q[{i}][{t}]", q_lo[i, t])
            t = int(np.argmax(r_bad[i]))
            raise GameSpecError(
                f"R[{i}][{t}]", f"not positive definite (min eigenvalue {float(r_lo[i, t]):.3e})"
            )
        for field in ("noise_cov", "init_cov"):
            lo, bad = _psd_failures(arrays[field])
            if bad:
                raise _not_psd(field, lo)

    # The symmetrized fields are new arrays; the others may be the caller's own.
    frozen = {field: _frozen(arr if field in _SYMMETRIC else arr.copy()) for field, arr in arrays.items()}
    return GameSpec(num_agents=n, horizon=horizon, state_dim=m, action_dim=p, tau=tau, **frozen)


def random_game(
    num_agents: int,
    horizon: int,
    state_dim: int,
    action_dim: int,
    seed: int,
    scale: float = 1.0,
) -> GameSpec:
    """Seeded random instance; identical seeds give identical specs.

    ``A``/``B`` entries are uniform in ``[-scale, scale]``; ``Q`` and the
    covariances are Gram matrices ``G^T G`` (PSD), ``R`` is ``G^T G + I``
    (PD).  ``tau`` is initialized to 1; adjust via :meth:`GameSpec.with_tau`.
    """
    n, T, m, p = _checked_dims((num_agents, horizon, state_dim, action_dim))
    # uniform(-scale, scale) needs the width 2*scale as a finite float
    if not (scale > 0 and np.isfinite(2.0 * scale)):
        raise GameSpecError("scale", f"must be positive with 2*scale finite, got {scale!r}")
    rng = np.random.default_rng(seed)
    arrays = {}
    for field, shape in _shapes(n, T, m, p).items():
        g = rng.uniform(-scale, scale, shape)
        arrays[field] = np.einsum("...ji,...jk->...ik", g, g) if field in _SYMMETRIC else g
    arrays["R"] = arrays["R"] + np.eye(p)
    spec = GameSpec(num_agents=n, horizon=T, state_dim=m, action_dim=p, tau=1.0, **arrays)
    return validate_game_spec(spec)


def _integer(name: str, value) -> int:
    """``value``, a Python or numpy integer but not ``bool``, as an ``int``; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_policy_shape(spec: GameSpec, joint: JointPolicy) -> None:
    """Reject joint policies whose agent count, horizon, or dims differ from the game's."""
    expected = (spec.num_agents, spec.horizon, spec.action_dim, spec.state_dim)
    got = joint.gains.shape
    if (got, joint.covs.shape) != (expected, expected[:3] + expected[2:3]):
        raise ValueError(
            f"policy does not match game: gains shaped {got}, covs shaped {joint.covs.shape}, expected "
            f"(agents, horizon, action_dim, state_dim) = {expected} and (agents, horizon, action_dim, action_dim)"
        )


def dump_joint_policy(joint: JointPolicy) -> str:
    """Serialize a joint policy to JSON (same conventions as the game file)."""
    doc = {
        "num_agents": joint.num_agents,
        "horizon": joint.horizon,
        "state_dim": joint.gains.shape[3],
        "action_dim": joint.gains.shape[2],
        "gains": joint.gains,
        "covs": joint.covs,
    }
    return _dumps(doc)


def load_joint_policy(text: str) -> JointPolicy:
    """Parse a policy document produced by :func:`dump_joint_policy`.

    ``covs`` must be symmetric; round-off asymmetries are repaired as for
    the game's symmetric fields.
    """
    doc, (n, T, m, p) = _load_header(text, _DIMS + ("gains", "covs"))
    walk = _text_has_bool(text)
    gains = _checked_array(_entry(doc, "gains", walk), (n, T, p, m), "gains")
    covs = _checked_array(_entry(doc, "covs", walk), (n, T, p, p), "covs")
    with np.errstate(over="ignore"):
        covs = _symmetrized(covs, "covs")
    return JointPolicy(gains, covs)
