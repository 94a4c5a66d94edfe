"""Command-line interface.

Subcommands: ``solve-exact``, ``solve-po``, ``check``, ``augment``,
``eval``, ``simulate``, ``randgen``.  Machine-readable outputs go to the
``--out`` directory (``policy.json``, ``certificate.json``, ``trace.csv``,
``condition.json``, ``trajectories.csv``, ``costs.csv``); a human-readable
summary goes to stdout.  ``eval`` and ``simulate`` consume the
``policy.json`` a solver wrote into the same ``--out`` directory.

Every document is read and loaded by ``_load``, and every file is
written by ``_Files.write``, which writes ``\n`` line ends on every
platform.  A command only stages its files and prints its summary;
``main`` owns every other effect.  It reads the spec and creates
``--out`` before a command runs.  Once the command succeeds, it moves the
staged files into place, and only then prints one ``wrote`` line naming
them in the order they were written.  A move that fails or is interrupted
restores the targets already moved, so a command that fails, or is
interrupted, changes no file in ``--out`` and prints no ``wrote`` line.
``main`` maps each error to its exit code: 0 success, 2 load/validation
error (an array too large to allocate included), 3 solver error, 4 I/O
error, naming the file that could not be read or written.  A load error
ends by naming its document, as in ``(comparison policy other.json)``.
All outputs are pure functions of the spec bytes, flags, and seed.

Every JSON document and ``trajectories.csv`` is laid out by orjson in this
process, by ``model._dumps`` and ``model._rows``, with the bytes of
``json.dumps(indent=2)`` and ``csv.writer`` (the ``model`` docstring says
how).  The terminal rows of ``trajectories.csv``, whose actions are
missing, are laid out apart from the others, so no missing action is a float.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .evaluate import (
    ValueCertificate,
    _certificate,
    _nash_gaps,
    policy_distance,
    simulate,
    value_certificate,
)
from .model import (
    GameSpec,
    _dumps,
    _rows,
    dump_game_spec,
    dump_joint_policy,
    load_game_spec,
    load_joint_policy,
    random_game,
)
from .solver import (
    ConditionRecord,
    SolveReport,
    SolverError,
    check_assumption_tau,
    delta_augment_solve,
    exact_ne,
    po_solve,
)

__all__ = ["main", "build_parser"]

class _IOFailure(OSError):
    pass


def _load(load, path, what: str):
    """``load`` of the text of ``path``, decoded as UTF-8 whatever the
    locale's encoding.  A text that cannot be decoded or loaded raises
    ``ValueError`` with the document's label and path appended, as in
    ``gains: missing required key (comparison policy other.json)``."""
    try:
        return load(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _IOFailure(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # GameSpecError and UnicodeDecodeError among them
        raise ValueError(f"{exc} ({what} {path})") from None


def _out_dir(path: str) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create output directory {out}: {exc}") from None
    return out


def _check_target(path: Path) -> None:
    """Fail as opening a directory ``path`` for writing fails."""
    if path.is_dir():
        exc = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        raise _IOFailure(f"cannot write {path}: {exc}")


class _Files:
    """The files one command writes.  Each is written to a staged sibling
    in ``--out``, and :meth:`commit` moves them all into place, in write
    order, so a command that fails changes no file in ``--out``."""

    def __init__(self) -> None:
        self.staged: list[tuple[Path, Path]] = []

    def write(self, path: Path, content) -> None:
        """Stage ``content`` for ``path``: text, or an iterable of pieces,
        each text or its UTF-8 bytes.  Line ends are written as given, ``\n``
        on every platform."""
        _check_target(path)
        staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        self.staged.append((staged, path))
        try:
            with open(staged, "wb") as fh:
                for piece in [content] if isinstance(content, str) else content:
                    fh.write(piece.encode() if isinstance(piece, str) else piece)
        except OSError as exc:
            raise _IOFailure(f"cannot write {path}: {exc}") from None

    def commit(self) -> None:
        """Move every staged file into place once no target is a directory.
        If a move fails or is interrupted, the targets already moved get
        their old contents back, or are removed if they had none; a failed
        move raises ``_IOFailure``, any other exception propagates as it is."""
        for _, path in self.staged:
            _check_target(path)
        moved: list[tuple[Path, Path | None]] = []
        backups: list[Path] = []
        try:
            for staged, path in self.staged:
                backup = _backup(path)
                if backup is not None:
                    backups.append(backup)
                moved.append((path, backup))  # first, so an interrupt just after the move undoes it too
                os.replace(staged, path)
        except BaseException as exc:
            for target, backup in reversed(moved):
                with contextlib.suppress(OSError):
                    if backup is None:
                        target.unlink()
                    else:
                        os.replace(backup, target)
            if not isinstance(exc, OSError):
                raise
            raise _IOFailure(f"cannot write {path}: {exc}") from None
        finally:
            for backup in backups:
                backup.unlink(missing_ok=True)


def _backup(path: Path) -> Path | None:
    """A copy of the file at ``path`` beside it, a hard link where the file
    system has them, or None if there is no file."""
    backup = path.with_name(f".{path.name}.{os.getpid()}.bak")
    backup.unlink(missing_ok=True)  # left by an earlier process of this pid
    try:
        os.link(path, backup)
    except FileNotFoundError:
        return None
    except OSError:  # a file system without hard links
        try:
            shutil.copyfile(path, backup)
        except FileNotFoundError:
            return None
    return backup


def _certificate_doc(spec: GameSpec, cert: ValueCertificate) -> dict:
    mu = spec.init_mean
    agents = [
        {"expected_cost": a.expected_cost, "value_at_init_mean": a.value_at(mu), "P": a.P, "q": a.q}
        for a in cert.agents
    ]
    return {"agents": agents}


def _condition_doc(spec: GameSpec, condition: ConditionRecord) -> dict:
    return {"tau": float(spec.tau), **dataclasses.asdict(condition)}


def _write_trace(report: SolveReport):
    """The text of ``trace.csv``, a stage per piece after the header: one
    CSV line per stage and inner iteration, the bytes of ``csv.writer``,
    which writes floats with ``repr``.  Each stage's modulus is formatted
    once."""
    yield "t,l,distance,contraction_modulus\n"
    for t, (stage_trace, modulus) in enumerate(zip(report.trace, report.contraction_moduli)):
        tail = f",{float(modulus)!r}\n"
        yield "".join([f"{t},{l},{float(dist)!r}{tail}" for l, dist in enumerate(stage_trace, start=1)])


def _given(args, *names: str) -> dict:
    """The options among ``names`` given on the command line, by name."""
    return {name: getattr(args, name) for name in names if name in args}


def _cmd_randgen(args, _, out: Path, write) -> None:
    spec = random_game(args.agents, args.horizon, args.state_dim, args.action_dim, **_given(args, "seed", "scale"))
    if "tau" in args:
        spec = spec.with_tau(args.tau)
    write(out / "spec.json", dump_game_spec(spec))
    print(
        f"generated spec: agents={spec.num_agents} horizon={spec.horizon} "
        f"state_dim={spec.state_dim} action_dim={spec.action_dim} tau={spec.tau}"
    )


def _cmd_solve_exact(args, spec: GameSpec, out: Path, write) -> None:
    sol = exact_ne(spec)
    condition = check_assumption_tau(spec, sol, **_given(args, "margin"))
    write(out / "policy.json", dump_joint_policy(sol.policy))
    cert = _certificate(spec, sol.riccati, sol.offsets)
    write(out / "certificate.json", _dumps(_certificate_doc(spec, cert)))
    print("exact equilibrium solved")
    for i, cost in enumerate(cert.expected_costs.tolist()):
        print(f"  agent {i}: expected cost {cost:.12g}")
    print(
        f"uniqueness condition: tau={spec.tau:g} threshold={condition.threshold:.6g} "
        f"satisfied={condition.satisfied}"
    )


def _cmd_solve_po(args, spec: GameSpec, out: Path, write) -> None:
    report = po_solve(spec, **_given(args, "inner_iters", "stop_tol"))
    write(out / "policy.json", dump_joint_policy(report.policy))
    write(out / "trace.csv", _write_trace(report))
    print("policy optimization finished")
    for t, stage_trace in enumerate(report.trace):
        print(
            f"  stage {t}: iterations={len(stage_trace)} final_distance={stage_trace[-1]:.3e} "
            f"modulus={report.contraction_moduli[t]:.4g}"
        )
    print(
        f"uniqueness condition (a posteriori): threshold={report.condition.threshold:.6g} "
        f"satisfied={report.condition.satisfied}"
    )


def _cmd_check(args, spec: GameSpec, out: Path, write) -> None:
    sol = exact_ne(spec)
    condition = check_assumption_tau(spec, sol, **_given(args, "margin"))
    write(out / "condition.json", _dumps(_condition_doc(spec, condition)))
    print(
        f"tau={spec.tau:g} gamma_B={condition.gamma_B:.6g} gamma_P={condition.gamma_P:.6g} "
        f"threshold={condition.threshold:.6g} margin={condition.margin:g} satisfied={condition.satisfied}"
    )


def _cmd_augment(args, spec: GameSpec, out: Path, write) -> None:
    given = _given(args, "growth", "max_rounds", "inner_iters", "stop_tol", "margin")
    report = delta_augment_solve(spec, args.delta_init, **given)
    write(out / "policy.json", dump_joint_policy(report.policy))
    write(out / "trace.csv", _write_trace(report))
    doc = _condition_doc(spec, report.condition)
    doc["delta_used"] = report.delta_used
    doc["exploitability"] = report.nash_gaps
    write(out / "condition.json", _dumps(doc))
    print(f"augmentation succeeded with delta={report.delta_used:g}")
    for i, gap in enumerate(report.nash_gaps):
        print(f"  agent {i}: original-game exploitability {float(gap):.6e}")


def _cmd_eval(args, spec: GameSpec, out: Path, write) -> None:
    joint = _load(load_joint_policy, out / "policy.json", "policy file")
    cert = value_certificate(spec, joint)
    gaps = _nash_gaps(spec, joint, cert.expected_costs)
    doc = _certificate_doc(spec, cert)
    doc["exploitability"] = gaps
    if "compare" in args:
        doc["compare_distance"] = policy_distance(joint, _load(load_joint_policy, args.compare, "comparison policy"))
    write(out / "certificate.json", _dumps(doc))
    for i, (cost, gap) in enumerate(zip(cert.expected_costs.tolist(), gaps.tolist())):
        print(f"  agent {i}: expected cost {cost:.12g} nash gap {gap:.6e}")
    if "compare" in args:
        print(f"policy distance to {args.compare}: {doc['compare_distance']:.6e}")


# Trajectories per piece of trajectories.csv.  Larger pieces write no
# faster but raise peak memory with the text they hold.
_TRAJ_CHUNK = 64


def _write_trajectories(states: np.ndarray, actions: np.ndarray):
    """The header, then one CSV line per trajectory and stage, the bytes of
    ``csv.writer``: floats as ``repr`` writes them and the terminal row's
    missing actions as empty fields.  Per piece of ``_TRAJ_CHUNK``
    trajectories, orjson lays out the states and actions of the stages
    before the last as one text of rows and the terminal states as another;
    each line is then four pieces, its trajectory id, ``,t,``, its row and
    its end, set in place by one strided slice per stage and piece."""
    n_traj, _, m = states.shape
    _, T, n, p = actions.shape
    header = ["traj_id", "t"] + [f"x{k}" for k in range(m)] + [f"u{i}_{k}" for i in range(n) for k in range(p)]
    yield ",".join(header) + "\n"
    k = T + 1
    stages = [b",%d," % t for t in range(k)]
    ends = [b"\n"] * T + [b"," * (n * p) + b"\n"]
    for lo in range(0, n_traj, _TRAJ_CHUNK):
        count = min(_TRAJ_CHUNK, n_traj - lo)
        body = np.concatenate([states[lo:lo + count, :T], actions[lo:lo + count].reshape(count, T, n * p)], axis=2)
        rows = _rows(body.reshape(count * T, -1))
        pieces = [b""] * (4 * k * count)
        ids = [b"%d" % r for r in range(lo, lo + count)]
        for t in range(k):
            pieces[4 * t::4 * k] = ids
            pieces[4 * t + 1::4 * k] = [stages[t]] * count
            pieces[4 * t + 2::4 * k] = rows[t::T] if t < T else _rows(states[lo:lo + count, T])
            pieces[4 * t + 3::4 * k] = [ends[t]] * count
        yield b"".join(pieces)


def _cmd_simulate(args, spec: GameSpec, out: Path, write) -> None:
    joint = _load(load_joint_policy, out / "policy.json", "policy file")
    result = simulate(spec, joint, args.n_traj, args.seed)
    cert = value_certificate(spec, joint)
    write(out / "trajectories.csv", _write_trajectories(result.states, result.actions))
    # The bytes of csv.writer, which writes floats with repr.
    rows = list(enumerate(zip(result.mean_costs.tolist(), result.std_errors.tolist(),
                              cert.expected_costs.tolist())))
    write(out / "costs.csv", "agent,empirical_mean,std_error,certificate_value\n"
           + "".join([f"{i},{mean!r},{se!r},{value!r}\n" for i, (mean, se, value) in rows]))
    for i, (mean, se, value) in rows:
        print(f"  agent {i}: empirical {mean:.6g} +/- {se:.3g} (certificate {value:.6g})")


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand's parser.  An option left out sets no attribute, so the library
    function it feeds applies its own default; only an option whose function has none has one."""
    parser = argparse.ArgumentParser(
        prog="lqnash",
        description="Solvers and certification for entropy-regularized LQ games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, spec: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if spec:
            p.add_argument("--spec", required=True, help="path to the game JSON document")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
        return p

    p = command("solve-exact", _cmd_solve_exact, "exact equilibrium via the backward stacked solve")
    p.add_argument("--margin", type=float)

    p = command("solve-po", _cmd_solve_po, "iterative receding-horizon policy optimization")
    p.add_argument("--inner-iters", type=int)
    p.add_argument("--stop-tol", type=float)

    p = command("check", _cmd_check, "solve exactly and test the uniqueness condition")
    p.add_argument("--margin", type=float)

    p = command("augment", _cmd_augment, "tau-augmentation fallback solve")
    p.add_argument("--delta-init", type=float, default=1e-3)
    p.add_argument("--growth", type=float)
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--inner-iters", type=int)
    p.add_argument("--stop-tol", type=float)
    p.add_argument("--margin", type=float)

    p = command("eval", _cmd_eval, "certify the policy.json in --out; optional comparison")
    p.add_argument("--compare", help="second policy file to measure distance to")

    p = command("simulate", _cmd_simulate, "Monte Carlo rollouts of the policy.json in --out")
    p.add_argument("--n-traj", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = command("randgen", _cmd_randgen, "generate a seeded random game document", spec=False)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--state-dim", type=int, required=True)
    p.add_argument("--action-dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float)
    p.add_argument("--tau", type=float)

    return parser


# One parser per process: building it costs about a millisecond and leaves cyclic garbage.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    files = _Files()
    try:
        spec = _load(load_game_spec, args.spec, "spec file") if "spec" in args else None  # randgen has none
        out = _out_dir(args.out)
        args.func(args, spec, out, files.write)
        files.commit()
        print("wrote " + ", ".join(str(path) for _, path in files.staged))
        return 0
    except SolverError as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return 3
    except _IOFailure as exc:
        print(f"error (io): {exc}", file=sys.stderr)
        return 4
    except (ValueError, MemoryError) as exc:  # GameSpecError, and an array too large to allocate
        print(f"error (validation): {exc}", file=sys.stderr)
        return 2
    finally:
        for staged, _ in files.staged:  # those not moved into place
            staged.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
