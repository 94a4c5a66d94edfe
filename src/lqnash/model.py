"""Problem instances for finite-horizon entropy-regularized LQ games.

A game couples ``num_agents`` players through shared linear dynamics
``x_{t+1} = A_t x_t + sum_i B^i_t u^i_t + w_t`` over ``horizon`` stages.
Each agent pays quadratic state/action costs plus a KL penalty of its
stage policy against a standard-normal prior, weighted by ``tau``.
This module owns the instance container, its validation, the JSON
file format, and a seeded random-instance generator.  One table,
``_shapes``, lists the seven array fields in document order with their
shapes; loading, validation, dumping and generation all read it.
orjson parses every document and lays out every one written (``_dumps``)
and the rows of ``trajectories.csv`` (``_rows``).  Both loaders run with
the cyclic GC paused (``_gc_paused``) until the parsed lists are freed:
the tens of thousands of lists of a large document would otherwise set
off collections that walk the whole heap.  orjson writes otherwise than
``repr`` the floats ``_exponent`` picks.  ``_set_aside`` finds them in an
array, replaces them by NaN and keeps their texts, and ``_orjson_text``
finds orjson's ``null`` tokens by a one-byte search for ``n`` and sets
those texts in for them, so the text is that of ``json.dumps(indent=2)``
or ``csv.writer``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

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
    """Whether ``node`` is, or its nested lists hold, a ``bool``: a walk of
    a stack, so any depth that orjson parses is safe.  Only a document whose
    text holds ``true`` or ``false`` (see :func:`_text_has_bool`) is walked."""
    stack = [node]
    while stack:
        item = stack.pop()
        if type(item) is bool:
            return True
        if type(item) is list:
            stack += item
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
    every one of ``keys``, and its four positive dimensions ``_DIMS``.

    orjson parses the document, three to four times as fast as json, to
    the same floats.  json parses it again only where orjson refuses it
    (``NaN``, a number past the float range, a lone surrogate, malformed
    text) or where a dimension of the object comes back as a float: orjson
    reads an integer outside [-2**63, 2**64) as one.  So json names every
    rejected document as it always has, one nested past the interpreter's
    recursion limit as malformed; a non-object orjson parses is named at once."""
    import orjson  # 5 ms of imports (uuid, zoneinfo) that only a document load pays

    try:
        doc = orjson.loads(text)
        again = isinstance(doc, dict) and any(type(doc.get(key)) is float for key in _DIMS)
    except orjson.JSONDecodeError:
        again = True
    if again:
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except (json.JSONDecodeError, RecursionError) as exc:  # nested past the recursion limit
            raise GameSpecError("", f"malformed JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise GameSpecError("", "top level must be a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise GameSpecError(missing[0], "missing required key")
    return doc, _checked_dims([doc[key] for key in _DIMS])


@contextlib.contextmanager
def _gc_paused():
    """Run the block with the cyclic GC off, then restore the caller's
    state, also when the block raises; a GC the caller turned off stays off.
    Used as a decorator, the function's locals (a parsed document) are freed
    before the GC is back on, so no collection walks their lists."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
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


def _exponent(x):
    """Where the float or float array ``x`` is written with an exponent by
    ``repr`` and otherwise by orjson: nonzero with ``|x| < 1e-4``, or
    ``|x| >= 1e16``.  Elsewhere orjson writes repr's text."""
    size = abs(x)
    return (size < 1e-4) & (x != 0) | (size >= 1e16)


def _set_aside(arr: np.ndarray, floats: list[bytes]) -> np.ndarray:
    """``arr`` with NaN, which orjson writes ``null``, where :func:`_exponent`
    picks an entry, each of those entries' ``repr`` texts appended to
    ``floats`` in order.  ``arr`` itself, uncopied, where it picks none."""
    odd = _exponent(arr)
    if not odd.any():
        return arr
    floats += [repr(x).encode() for x in arr[odd].tolist()]
    return np.where(odd, np.nan, arr)


def _finite(node, floats: list[bytes]):
    """``node`` with each 0-d array and float subclass as a float, after
    json's check: a non-finite float leaf or array entry raises json's
    ``ValueError``, for the first one in document order.  Each float that
    :func:`_exponent` picks is appended to ``floats`` as ``repr``'s text and
    becomes ``None``, or is set aside by :func:`_set_aside` in its array."""
    if isinstance(node, np.ndarray):
        finite = np.isfinite(node)
        if not finite.all():
            raise ValueError(f"Out of range float values are not JSON compliant: {float(node[~finite][0])!r}")
        if node.ndim:
            return _set_aside(node, floats)
        node = float(node)
    if isinstance(node, float):
        if not math.isfinite(node):
            raise ValueError(f"Out of range float values are not JSON compliant: {node!r}")
        node = float(node)
        if _exponent(node):
            floats.append(repr(node).encode())
            return None
        return node
    if isinstance(node, dict):
        return {key: _finite(value, floats) for key, value in node.items()}
    if isinstance(node, list):
        return [_finite(value, floats) for value in node]
    return node


def _orjson_text(value, floats: list[bytes], indent: bool) -> bytes:
    """orjson's text of ``value``, with ``indent`` that of ``json.dumps(indent=2)``
    and a newline, with its ``null`` tokens (``None`` and NaN) replaced in
    order by ``floats``.  It raises ``ValueError`` unless the text holds one
    ``null`` per float, so a ``None`` or a key holding ``null`` cannot shift them.

    The tokens are found as :func:`_text_has_bool` finds its words: a
    search for the byte ``n``, which no number holds, runs at memory speed,
    0.2 ms over a 4.6 MB game against about 4 ms for a search for ``null``.
    Each ``n`` found then costs a Python step of about 0.5 us, which a text
    made mostly of set-aside floats pays once per float."""
    import orjson  # as in _load_header: the CLI's import does not pay for it

    option = orjson.OPT_SERIALIZE_NUMPY | (orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE if indent else 0)
    text = orjson.dumps(value, option=option, default=np.ascontiguousarray)
    if not floats:
        return text
    parts, end = [], 0
    at = text.find(b"n")
    while at != -1:
        if text.startswith(b"null", at):
            parts.append(text[end:at])
            end = at + 4
        at = text.find(b"n", at + 1)
    parts.append(text[end:])
    del text  # so the join holds two copies of the text, not three
    if len(parts) != len(floats) + 1:
        raise ValueError(f"{len(parts) - 1} null tokens in the text for {len(floats)} floats")
    return b"".join(itertools.chain.from_iterable(zip(parts, floats + [b""])))


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"`` for a document
    of dicts, lists, numbers, booleans and float64 arrays.

    orjson lays it out, an array straight from its buffer, and the floats
    it would write otherwise than ``repr`` are set in as repr's text.  A
    non-finite number raises json's ``ValueError``; orjson would write ``null``.
    """
    floats = []
    return _orjson_text(_finite(doc, floats), floats, indent=True).decode()


def _rows(block: np.ndarray) -> list[bytes]:
    """The text of each row of the 2-d float array ``block``, its entries
    joined by commas as ``repr`` writes them."""
    floats = []
    text = _orjson_text(_set_aside(block, floats), floats, indent=False)
    return text[2:-2].split(b"],[")


def dump_game_spec(spec: GameSpec) -> str:
    """Serialize to the canonical JSON document (exact float round-trip)."""
    return _dumps({**{key: getattr(spec, key) for key in _TOP_KEYS}, "tau": float(spec.tau)})


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


def _psd_failures(x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Lowest eigenvalue of each matrix in the stack ``x`` (``None`` if all
    pass), and where it falls below ``-PSD_RTOL`` times its largest entry.
    One Cholesky of the stack shifted by ``PSD_RTOL/2`` times that entry
    accepts: it proves each shifted matrix PD up to about ``m**2 eps`` times
    it, eigvalsh is within ``m eps``, so the two agree while ``m**2 eps <
    PSD_RTOL/2``, for ``m`` up to about 480.  Only a failure runs eigvalsh."""
    scale = np.abs(x).max(axis=(-2, -1))
    shift = 0.5 * PSD_RTOL * np.where(scale > 0, scale, 1.0)  # a zero matrix passes too
    try:
        np.linalg.cholesky(x + shift[..., None, None] * np.eye(x.shape[-1]))
        return None, np.zeros(scale.shape, bool)
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(x)[..., 0]
        return lo, lo < -PSD_RTOL * scale


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
        # One check per stack; the first failure is reported in the order
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
    A ``scale`` whose draws overflow raises :class:`GameSpecError` on ``scale``.
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
    try:
        return validate_game_spec(spec)
    except GameSpecError as exc:  # the draws are symmetric and PSD, so only their size fails
        raise GameSpecError("scale", f"{scale!r} is too large: {exc}") from None


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
    n, T, p, m = joint.gains.shape
    return _dumps({**dict(zip(_DIMS, (n, T, m, p))), "gains": joint.gains, "covs": joint.covs})


@_gc_paused()
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
