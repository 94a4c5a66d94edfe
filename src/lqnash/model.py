"""Problem instances for finite-horizon entropy-regularized LQ games.

A game couples ``num_agents`` players through shared linear dynamics
``x_{t+1} = A_t x_t + sum_i B^i_t u^i_t + w_t`` over ``horizon`` stages.
Each agent pays quadratic state/action costs plus a KL penalty of its
stage policy against a standard-normal prior, weighted by ``tau``.
This module owns the instance container, its validation, the JSON
file format, and a seeded random-instance generator.
"""
from __future__ import annotations

import dataclasses
import functools
import json
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
_TOP_KEYS = _DIMS + (
    "tau",
    "A",
    "B",
    "Q",
    "R",
    "noise_cov",
    "init_mean",
    "init_cov",
)


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
        return dataclasses.replace(self, tau=_checked_tau(float(tau)))


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
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise GameSpecError(field, "not a (rectangular) numeric array") from None


def _time_matrices(value, steps: int, rows: int, cols: int, field: str) -> np.ndarray:
    """Coerce a field into a ``(steps, rows, cols)`` stack.

    Accepted shorthands: a single matrix (broadcast over time); for 1x1
    matrices, a bare scalar (broadcast) or a flat list of ``steps`` scalars.
    """
    arr = _as_float_array(value, field)
    if arr.ndim == 0 and rows == 1 and cols == 1:
        return np.full((steps, 1, 1), float(arr))
    if arr.ndim == 1 and rows == 1 and cols == 1 and arr.shape[0] == steps:
        return arr.reshape(steps, 1, 1).copy()
    if arr.ndim == 2 and arr.shape == (rows, cols):
        return np.repeat(arr[None], steps, axis=0)
    if arr.ndim == 3 and arr.shape == (steps, rows, cols):
        return arr.copy()
    raise GameSpecError(
        field,
        f"dimension mismatch: expected {steps} matrices of shape "
        f"({rows}, {cols}) or one matrix to broadcast, got data of shape {arr.shape}",
    )


def _agent_time_matrices(value, n: int, steps: int, rows: int, cols: int, field: str) -> np.ndarray:
    if isinstance(value, list) and len(value) == n:
        try:
            return np.stack(
                [_time_matrices(v, steps, rows, cols, f"{field}[{i}]") for i, v in enumerate(value)]
            )
        except GameSpecError:
            if n != 1:
                raise
    if n == 1:
        # single-agent documents may omit the agent nesting
        return _time_matrices(value, steps, rows, cols, field)[None]
    raise GameSpecError(field, f"expected a list of {n} per-agent entries")


def _single_matrix(value, dim: int, field: str) -> np.ndarray:
    arr = _as_float_array(value, field)
    if arr.ndim == 0 and dim == 1:
        return arr.reshape(1, 1).copy()
    if arr.ndim == 2 and arr.shape == (dim, dim):
        return arr.copy()
    raise GameSpecError(field, f"dimension mismatch: expected shape ({dim}, {dim}), got {arr.shape}")


def _vector(value, dim: int, field: str) -> np.ndarray:
    arr = _as_float_array(value, field)
    if arr.ndim == 0 and dim == 1:
        return arr.reshape(1).copy()
    if arr.ndim == 1 and arr.shape == (dim,):
        return arr.copy()
    raise GameSpecError(field, f"dimension mismatch: expected shape ({dim},), got {arr.shape}")


def _reject_constant(name: str):
    raise GameSpecError("", f"non-finite constant {name!r} not permitted")


def _load_header(text: str, keys: tuple[str, ...]) -> tuple[dict, list[int]]:
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
    dims = [doc[key] for key in _DIMS]
    for key, value in zip(_DIMS, dims):
        if isinstance(value, bool) or not isinstance(value, int):
            raise GameSpecError(key, "must be an integer")
        if value < 1:
            raise GameSpecError(key, "must be a positive integer")
    return doc, dims


def load_game_spec(text: str) -> GameSpec:
    """Parse and validate a JSON game document.

    Raises :class:`GameSpecError` naming the offending field on malformed
    documents, dimension mismatches, PSD/PD violations, or nonpositive tau.
    """
    doc, (n, horizon, m, p) = _load_header(text, _TOP_KEYS)
    tau = doc["tau"]
    if isinstance(tau, bool) or not isinstance(tau, (int, float)):
        raise GameSpecError("tau", "must be a real number")

    spec = GameSpec(
        num_agents=n,
        horizon=horizon,
        state_dim=m,
        action_dim=p,
        tau=float(tau),
        A=_time_matrices(doc["A"], horizon, m, m, "A"),
        B=_agent_time_matrices(doc["B"], n, horizon, m, p, "B"),
        Q=_agent_time_matrices(doc["Q"], n, horizon + 1, m, m, "Q"),
        R=_agent_time_matrices(doc["R"], n, horizon, p, p, "R"),
        noise_cov=_single_matrix(doc["noise_cov"], m, "noise_cov"),
        init_mean=_vector(doc["init_mean"], m, "init_mean"),
        init_cov=_single_matrix(doc["init_cov"], m, "init_cov"),
    )
    return validate_game_spec(spec)


# Stands in for each array while json lays out the rest of a document.
# json writes it as the escape "\u0000", which no key of a document contains.
_ARRAY_SLOT = "\0"
_ARRAY_SLOT_TEXT = json.dumps(_ARRAY_SLOT)


@functools.lru_cache(maxsize=128)
def _array_template(shape: tuple[int, ...], level: int) -> str:
    """``%`` template that lays out an array of ``shape`` as
    ``json.dumps(indent=2)`` lays out the nested list at nesting ``level``,
    with one ``%s`` slot per element in row-major order."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    inner = _array_template(shape[1:], level + 1)
    return "[" + pad + ("," + pad).join([inner] * shape[0]) + "\n" + "  " * level + "]"


def _slot_values(arr: np.ndarray) -> tuple:
    """The values for the slots of ``arr``'s template, in row-major order.

    ``str`` of a float is its ``repr``.  A stack of square matrices that
    equals its transpose bit for bit (so ``0.0`` opposite ``-0.0`` does not
    count) has only its upper triangles formatted; each lower entry reuses
    the text of its mirror image.
    """
    m = arr.shape[-1] if arr.ndim >= 2 else 0
    if m > 1 and arr.shape[-2] == m and arr.size and arr.dtype == np.float64:
        bits = arr.view(np.uint64)
        if np.array_equal(bits, bits.swapaxes(-1, -2)):
            iu0, iu1 = np.triu_indices(m)
            mirror = np.empty((m, m), dtype=np.intp)
            mirror[iu0, iu1] = mirror[iu1, iu0] = np.arange(iu0.size)
            upper = arr[..., iu0, iu1].ravel()
            texts = np.array(list(map(repr, upper.tolist())), dtype=object)
            index = np.arange(0, upper.size, iu0.size)[:, None] + mirror.ravel()
            return tuple(texts[index.ravel()].tolist())
    return tuple(arr.ravel().tolist())


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, allow_nan=False) + "\\n"`` for a document
    whose leaves may also be float arrays.

    json lays out the document with a placeholder string per array; each
    array is then rendered from a cached template of its layout, filled
    with the ``repr`` of its elements, which is what json writes for finite
    floats.  A non-finite entry raises json's ``ValueError``.
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

    pieces = json.dumps(with_slots(doc, 0), indent=2, allow_nan=False).split(_ARRAY_SLOT_TEXT)
    out = [pieces[0]]
    for (arr, level), piece in zip(arrays, pieces[1:]):
        finite = np.isfinite(arr)
        if not finite.all():
            bad = float(arr[~finite][0])
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        out += [_array_template(arr.shape, level) % _slot_values(arr), piece]
    out.append("\n")
    return "".join(out)


def dump_game_spec(spec: GameSpec) -> str:
    """Serialize to the canonical JSON document (exact float round-trip)."""
    doc = {
        "num_agents": spec.num_agents,
        "horizon": spec.horizon,
        "state_dim": spec.state_dim,
        "action_dim": spec.action_dim,
        "tau": float(spec.tau),
        "A": spec.A,
        "B": spec.B,
        "Q": spec.Q,
        "R": spec.R,
        "noise_cov": spec.noise_cov,
        "init_mean": spec.init_mean,
        "init_cov": spec.init_cov,
    }
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
    if not (isinstance(tau, (int, float, np.floating)) and np.isfinite(tau)):
        raise GameSpecError("tau", "must be a finite real")
    if tau <= 0:
        raise GameSpecError("tau", f"must be positive, got {tau}")
    return float(tau)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def validate_game_spec(spec: GameSpec) -> GameSpec:
    """Check dimensions, symmetry, definiteness, and tau; symmetrize.

    Symmetrization is ``(X + X^T)/2`` after a skew-tolerance check, so
    validating an already-validated instance is a no-op.
    """
    n, horizon = spec.num_agents, spec.horizon
    m, p = spec.state_dim, spec.action_dim
    for key in _DIMS:
        value = getattr(spec, key)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise GameSpecError(key, "must be a positive integer")
    tau = _checked_tau(spec.tau)

    shapes = {
        "A": (spec.A, (horizon, m, m)),
        "B": (spec.B, (n, horizon, m, p)),
        "Q": (spec.Q, (n, horizon + 1, m, m)),
        "R": (spec.R, (n, horizon, p, p)),
        "noise_cov": (spec.noise_cov, (m, m)),
        "init_mean": (spec.init_mean, (m,)),
        "init_cov": (spec.init_cov, (m, m)),
    }
    arrays = {}
    for field, (arr, shape) in shapes.items():
        arr = _as_float_array(arr, field)
        if arr.shape != shape:
            raise GameSpecError(field, f"dimension mismatch: expected shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise GameSpecError(field, "contains non-finite entries")
        arrays[field] = arr

    with np.errstate(over="ignore"):
        Q = _symmetrized(arrays["Q"], "Q")
        R = _symmetrized(arrays["R"], "R")
        noise_cov = _symmetrized(arrays["noise_cov"], "noise_cov")
        init_cov = _symmetrized(arrays["init_cov"], "init_cov")
        # One eigvalsh per stack; the first failure is reported in the order
        # agent by agent, Q over stages, then R over stages.
        q_lo, q_bad = _psd_failures(Q)
        r_lo = np.linalg.eigvalsh(R)[..., 0]
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
        for field, x in (("noise_cov", noise_cov), ("init_cov", init_cov)):
            lo, bad = _psd_failures(x)
            if bad:
                raise _not_psd(field, lo)

    return GameSpec(
        num_agents=n,
        horizon=horizon,
        state_dim=m,
        action_dim=p,
        tau=tau,
        A=_frozen(arrays["A"]),
        B=_frozen(arrays["B"]),
        Q=_frozen(Q),
        R=_frozen(R),
        noise_cov=_frozen(noise_cov),
        init_mean=_frozen(arrays["init_mean"]),
        init_cov=_frozen(init_cov),
    )


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
    if min(num_agents, horizon, state_dim, action_dim) < 1:
        raise GameSpecError("dims", "all dimensions must be >= 1")
    # uniform(-scale, scale) needs the width 2*scale as a finite float
    if not (scale > 0 and np.isfinite(2.0 * scale)):
        raise GameSpecError("scale", f"must be positive with 2*scale finite, got {scale!r}")
    rng = np.random.default_rng(seed)
    n, T, m, p = num_agents, horizon, state_dim, action_dim

    def gram(*shape):
        g = rng.uniform(-scale, scale, shape)
        return np.einsum("...ji,...jk->...ik", g, g)

    spec = GameSpec(
        num_agents=n,
        horizon=T,
        state_dim=m,
        action_dim=p,
        tau=1.0,
        A=rng.uniform(-scale, scale, (T, m, m)),
        B=rng.uniform(-scale, scale, (n, T, m, p)),
        Q=gram(n, T + 1, m, m),
        R=gram(n, T, p, p) + np.eye(p),
        noise_cov=gram(m, m),
        init_mean=rng.uniform(-scale, scale, m),
        init_cov=gram(m, m),
    )
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
    gains = _as_float_array(doc["gains"], "gains")
    covs = _as_float_array(doc["covs"], "covs")
    if gains.shape != (n, T, p, m):
        raise GameSpecError("gains", f"dimension mismatch: expected {(n, T, p, m)}, got {gains.shape}")
    if covs.shape != (n, T, p, p):
        raise GameSpecError("covs", f"dimension mismatch: expected {(n, T, p, p)}, got {covs.shape}")
    for field, arr in (("gains", gains), ("covs", covs)):
        if not np.isfinite(arr).all():
            raise GameSpecError(field, "contains non-finite entries")
    with np.errstate(over="ignore"):
        covs = _symmetrized(covs, "covs")
    return JointPolicy(gains, covs)
