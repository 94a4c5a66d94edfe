"""Command-line interface.

Subcommands: ``solve-exact``, ``solve-po``, ``check``, ``augment``,
``eval``, ``simulate``, ``randgen``.  Machine-readable outputs go to the
``--out`` directory (``policy.json``, ``certificate.json``, ``trace.csv``,
``condition.json``, ``trajectories.csv``, ``costs.csv``); a human-readable
summary goes to stdout.  ``eval`` and ``simulate`` consume the
``policy.json`` a solver wrote into the same ``--out`` directory.

Every file is read by ``_read`` and written by ``_Files.write``, which
writes ``\n`` line ends on every platform.  A command only stages its
files and prints its summary; ``main`` owns every other effect.  It reads
the spec and creates ``--out`` before a command runs.  Once the command
succeeds, it moves the staged files into place, and only then prints one
``wrote`` line naming them in the order they were written.  A move that
fails or is interrupted restores the targets already moved, so a command
that fails, or is interrupted, changes no file in ``--out`` and prints no
``wrote`` line.  ``main`` maps each error to its exit code: 0 success, 2
load/validation error, 3 solver error, 4 I/O error, naming the file that
could not be read or written.  All outputs are pure functions of the spec
bytes, flags, and seed.

Large files are formatted on two cores when at least two CPUs are usable.
``main`` starts one worker interpreter per command (``python -I -S
_text.py``, which imports no numpy) when the dimensions show that the
command's largest document, a JSON file or ``trajectories.csv``, holds at
least ``_text._WORKER_MIN_VALUES`` floats: for ``randgen`` from its
arguments, for the other commands right after the spec is parsed, so its
start-up overlaps ``random_game``, the solvers or ``simulate``.  Every such
document takes one path, ``_text.document``: it is a list of pieces, the
worker formats them from the last one backward and this process from the
first one forward, and the two meet where this process reaches a piece
whose text the worker has sent.  This process never waits on the worker,
so one that is slow, stopped or dead only leaves it more pieces to format.
Both processes lay out text through ``_text``, so the bytes are those of
one process.  The two processes hand over jobs and texts through two
unnamed files that only they share, so ``--out`` never holds a worker
file.  When the command ends, however it ends, ``main`` kills and reaps
the worker.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import _text
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
    _shapes,
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


def _read(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _IOFailure(f"cannot read {what} {path}: {exc}") from None


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
    try:
        os.link(path, backup)
    except FileNotFoundError:
        return None
    except FileExistsError:  # left by an earlier process of this pid
        backup.unlink()
        return _backup(path)
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


def _condition_doc(spec: GameSpec, record: ConditionRecord) -> dict:
    return {
        "tau": float(spec.tau),
        "gamma_B": record.gamma_B,
        "gamma_P": record.gamma_P,
        "threshold": record.threshold,
        "margin": record.margin,
        "satisfied": record.satisfied,
    }


def _write_trace(report: SolveReport):
    """The text of ``trace.csv``, a stage per piece after the header: one
    CSV line per stage and inner iteration, the bytes of ``csv.writer``,
    which writes floats with ``repr``.  Each stage's modulus is formatted
    once."""
    yield "t,l,distance,contraction_modulus\n"
    for t, (stage_trace, modulus) in enumerate(zip(report.trace, report.contraction_moduli)):
        tail = f",{float(modulus)!r}\n"
        yield "".join([f"{t},{l},{float(dist)!r}{tail}" for l, dist in enumerate(stage_trace, start=1)])


def _cmd_randgen(args, _, out: Path, write) -> None:
    spec = random_game(args.agents, args.horizon, args.state_dim, args.action_dim, args.seed, args.scale)
    if args.tau is not None:
        spec = spec.with_tau(args.tau)
    write(out / "spec.json", dump_game_spec(spec))
    print(
        f"generated spec: agents={spec.num_agents} horizon={spec.horizon} "
        f"state_dim={spec.state_dim} action_dim={spec.action_dim} tau={spec.tau}"
    )


def _cmd_solve_exact(args, spec: GameSpec, out: Path, write) -> None:
    sol = exact_ne(spec)
    record = check_assumption_tau(spec, sol, args.margin)
    write(out / "policy.json", dump_joint_policy(sol.policy))
    cert = _certificate(spec, sol.riccati, sol.offsets)
    write(out / "certificate.json", _dumps(_certificate_doc(spec, cert)))
    print("exact equilibrium solved")
    for i, cost in enumerate(cert.expected_costs.tolist()):
        print(f"  agent {i}: expected cost {cost:.12g}")
    print(
        f"uniqueness condition: tau={spec.tau:g} threshold={record.threshold:.6g} "
        f"satisfied={record.satisfied}"
    )


def _cmd_solve_po(args, spec: GameSpec, out: Path, write) -> None:
    report = po_solve(spec, inner_iters=args.inner_iters, stop_tol=args.stop_tol)
    write(out / "policy.json", dump_joint_policy(report.policy))
    write(out / "trace.csv", _write_trace(report))
    print("policy optimization finished")
    for t, stage_trace in enumerate(report.trace):
        last = stage_trace[-1] if stage_trace else float("nan")
        print(
            f"  stage {t}: iterations={len(stage_trace)} final_distance={last:.3e} "
            f"modulus={report.contraction_moduli[t]:.4g}"
        )
    if report.condition is not None:
        print(
            f"uniqueness condition (a posteriori): threshold={report.condition.threshold:.6g} "
            f"satisfied={report.condition.satisfied}"
        )


def _cmd_check(args, spec: GameSpec, out: Path, write) -> None:
    sol = exact_ne(spec)
    record = check_assumption_tau(spec, sol, args.margin)
    write(out / "condition.json", _dumps(_condition_doc(spec, record)))
    print(
        f"tau={spec.tau:g} gamma_B={record.gamma_B:.6g} gamma_P={record.gamma_P:.6g} "
        f"threshold={record.threshold:.6g} margin={record.margin:g} satisfied={record.satisfied}"
    )


def _cmd_augment(args, spec: GameSpec, out: Path, write) -> None:
    report = delta_augment_solve(
        spec,
        delta_init=args.delta_init,
        growth=args.growth,
        max_rounds=args.max_rounds,
        inner_iters=args.inner_iters,
        stop_tol=args.stop_tol,
        margin=args.margin,
    )
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
    joint = load_joint_policy(_read(out / "policy.json", "policy file"))
    cert = value_certificate(spec, joint)
    gaps = _nash_gaps(spec, joint, cert.expected_costs)
    doc = _certificate_doc(spec, cert)
    doc["exploitability"] = gaps
    for i, (cost, gap) in enumerate(zip(cert.expected_costs.tolist(), gaps.tolist())):
        print(f"  agent {i}: expected cost {cost:.12g} nash gap {gap:.6e}")
    if args.compare is not None:
        distance = policy_distance(joint, load_joint_policy(_read(args.compare, "comparison policy")))
        doc["compare_distance"] = distance
        print(f"policy distance to {args.compare}: {distance:.6e}")
    write(out / "certificate.json", _dumps(doc))


def _wants_worker(args, spec: GameSpec | None) -> bool:
    """Whether the command's largest document holds ``_text._WORKER_MIN_VALUES``
    floats, judged from its arguments and the spec's dimensions alone.
    Whether a worker can run here is ``_text.start``'s to judge."""
    if spec is None:  # randgen
        dims = (args.agents, args.horizon, args.state_dim, args.action_dim)
        floats = sum(map(math.prod, _shapes(*dims).values())) if min(dims) > 0 else 0
    else:
        n, T, m, p = spec.num_agents, spec.horizon, spec.state_dim, spec.action_dim
        policy, certificate = n * T * p * (m + p), n * (T + 1) * (m * m + 1)
        floats = {_cmd_solve_exact: max(policy, certificate), _cmd_solve_po: policy, _cmd_augment: policy,
                  _cmd_eval: certificate + n}.get(args.func, 0)  # eval adds the Nash gaps
        if args.func is _cmd_simulate:  # trajectories.csv
            floats = args.n_traj * ((T + 1) * m + T * n * p)
    return floats >= _text._WORKER_MIN_VALUES


def _write_trajectories(states: np.ndarray, actions: np.ndarray):
    """The header, then one CSV line per trajectory and stage, a piece of
    ``_text.trajectories`` at a time: a chunk of trajectories this process
    or the worker formats.  The bytes are the same either way."""
    _, T, n, p = actions.shape
    m = states.shape[2]
    header = ["traj_id", "t"] + [f"x{k}" for k in range(m)] + [f"u{i}_{k}" for i in range(n) for k in range(p)]
    yield ",".join(header) + "\n"
    yield from _text.trajectories(T, m, n * p, states.ravel(), actions.ravel())


def _cmd_simulate(args, spec: GameSpec, out: Path, write) -> None:
    joint = load_joint_policy(_read(out / "policy.json", "policy file"))
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
    parser = argparse.ArgumentParser(
        prog="lqnash",
        description="Solvers and certification for entropy-regularized LQ games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, spec: bool = True) -> None:
        if spec:
            p.add_argument("--spec", required=True, help="path to the game JSON document")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("solve-exact", help="exact equilibrium via the backward stacked solve")
    add_common(p)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("solve-po", help="iterative receding-horizon policy optimization")
    add_common(p)
    p.add_argument("--inner-iters", type=int, default=None)
    p.add_argument("--stop-tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_solve_po)

    p = sub.add_parser("check", help="solve exactly and test the uniqueness condition")
    add_common(p)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("augment", help="tau-augmentation fallback solve")
    add_common(p)
    p.add_argument("--delta-init", type=float, default=1e-3)
    p.add_argument("--growth", type=float, default=2.0)
    p.add_argument("--max-rounds", type=int, default=20)
    p.add_argument("--inner-iters", type=int, default=None)
    p.add_argument("--stop-tol", type=float, default=1e-10)
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("eval", help="certify the policy.json in --out; optional comparison")
    add_common(p)
    p.add_argument("--compare", default=None, help="second policy file to measure distance to")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="Monte Carlo rollouts of the policy.json in --out")
    add_common(p)
    p.add_argument("--n-traj", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("randgen", help="generate a seeded random game document")
    add_common(p, spec=False)
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--state-dim", type=int, required=True)
    p.add_argument("--action-dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=None)
    p.set_defaults(func=_cmd_randgen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    files = _Files()
    try:
        spec = load_game_spec(_read(args.spec, "spec file")) if "spec" in args else None  # randgen has none
        out = _out_dir(args.out)
        if _wants_worker(args, spec):
            _text.start()
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
    except ValueError as exc:  # GameSpecError included
        print(f"error (validation): {exc}", file=sys.stderr)
        return 2
    finally:
        _text.stop()
        for staged, _ in files.staged:  # those not moved into place
            staged.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
